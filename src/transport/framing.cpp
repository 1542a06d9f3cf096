#include "transport/framing.hpp"

#include <cstdlib>
#include <cstring>

namespace ptm::transport {

std::size_t open_frame(ByteWriter& w) {
  const std::size_t prefix_at = w.size();
  w.u32(0);
  return prefix_at;
}

void seal_frame(ByteWriter& w, std::size_t prefix_at) {
  const std::size_t length = w.size() - prefix_at - 4;
  // A payload above the decoder bound would be rejected by every receiver,
  // and one above 4 GiB would silently truncate the u32 prefix and poison
  // the peer's stream.  No real message comes within two orders of
  // magnitude of the bound, so crossing it is a programming error, not an
  // I/O condition - fail loudly at the encode site (NDEBUG-proof, like the
  // rsa.cpp padding check).
  if (length > StreamDecoder::kMaxFrameBytes) std::abort();
  w.patch_u32(prefix_at, static_cast<std::uint32_t>(length));
}

std::vector<std::uint8_t> frame_payload(
    std::span<const std::uint8_t> payload) {
  ByteWriter w;
  w.reserve(4 + payload.size());
  const std::size_t prefix_at = open_frame(w);
  w.raw(payload);
  seal_frame(w, prefix_at);
  return w.take();
}

void StreamDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (poisoned_) return;
  // Reclaim the consumed prefix before growing, so the buffer stays
  // O(one partial frame) instead of O(connection lifetime).
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ >= 4096) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

Result<std::optional<std::span<const std::uint8_t>>> StreamDecoder::next() {
  using View = std::optional<std::span<const std::uint8_t>>;
  if (poisoned_) {
    return Status{ErrorCode::kParseError,
                  "stream poisoned by an earlier framing violation"};
  }
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 4) return View{};
  std::uint32_t len = 0;  // little-endian, copied as-is (serialize.hpp)
  std::memcpy(&len, buffer_.data() + consumed_, sizeof(len));
  if (len == 0 || len > max_frame_bytes_) {
    poisoned_ = true;
    return Status{ErrorCode::kParseError,
                  len == 0 ? "zero-length frame on stream"
                           : "frame length exceeds the transport bound"};
  }
  if (available - 4 < len) return View{};
  const std::span<const std::uint8_t> payload(buffer_.data() + consumed_ + 4,
                                              len);
  consumed_ += 4 + static_cast<std::size_t>(len);
  ++frames_decoded_;
  return View{payload};
}

}  // namespace ptm::transport
