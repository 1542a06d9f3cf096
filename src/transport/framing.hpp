// framing.hpp - length-prefixed stream framing for transport messages.
//
// A TCP/unix stream has no message boundaries; the transport restores them
// with the simplest possible frame:
//
//   stream := frame*
//   frame  := u32 payload_length (little-endian) | payload
//
// where payload is one encoded WireMessage (wire.hpp).  The decoder is
// *incremental*: bytes arrive in whatever chunks the kernel hands back,
// so it buffers, peels complete frames, and keeps partial tails across
// feeds.  It is also *adversarial-input safe*: a length prefix above
// kMaxFrameBytes (a corrupt peer, or plain garbage hitting the port) is a
// fatal ParseError - the connection must be severed, because after a bad
// length there is no way to re-synchronize a length-prefixed stream.  The
// transport fuzz suite feeds this decoder garbage and truncated frames
// under ASan.
//
// Both directions avoid copying the payload: an encoder reserves the
// prefix with open_frame, writes the message behind it and patches the
// length in with seal_frame; the decoder hands out a view of each
// complete frame inside its own buffer.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/serialize.hpp"
#include "common/status.hpp"

namespace ptm::transport {

/// Writes a placeholder length prefix at the end of `w` and returns its
/// offset; the frame's payload follows, then seal_frame.
[[nodiscard]] std::size_t open_frame(ByteWriter& w);

/// Patches the prefix opened at `prefix_at` with the length of everything
/// written after it.  Aborts when that payload exceeds
/// StreamDecoder::kMaxFrameBytes: an oversize frame could never be decoded
/// by a peer, and past 4 GiB the prefix would silently truncate - an
/// encode-side framing violation is a programming error.
void seal_frame(ByteWriter& w, std::size_t prefix_at);

/// Prepends the u32 length prefix to one message payload (a copy; the
/// transport's own senders frame in place).  Aborts like seal_frame.
[[nodiscard]] std::vector<std::uint8_t> frame_payload(
    std::span<const std::uint8_t> payload);

class StreamDecoder {
 public:
  /// Hard upper bound on one frame's payload.  A period record for a
  /// million-vehicle location is ~2^21 bits = 256 KiB; 16 MiB leaves two
  /// orders of magnitude of headroom while making a garbage length prefix
  /// (up to 4 GiB) unmistakable.
  static constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

  explicit StreamDecoder(std::uint32_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends received bytes to the internal buffer.  After poisoned()
  /// turns true, further feeds are ignored (the connection is dead).
  void feed(std::span<const std::uint8_t> bytes);

  /// Extracts the next complete frame payload as a view into the
  /// decoder's buffer, valid until the next feed() (or the decoder's
  /// destruction) - decode it before reading more.  nullopt when the
  /// buffer holds only a partial frame (read more), ParseError when the
  /// stream is poisoned by an oversize or zero-length prefix (sever the
  /// connection).
  [[nodiscard]] Result<std::optional<std::span<const std::uint8_t>>> next();

  /// True once an unrecoverable framing violation was seen.
  [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }

  /// Bytes currently buffered (partial frame + unparsed tail).
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size() - consumed_;
  }

  /// Complete frames successfully extracted so far.
  [[nodiscard]] std::uint64_t frames_decoded() const noexcept {
    return frames_decoded_;
  }

 private:
  std::uint32_t max_frame_bytes_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already handed out
  bool poisoned_ = false;
  std::uint64_t frames_decoded_ = 0;
};

}  // namespace ptm::transport
