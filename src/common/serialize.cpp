#include "common/serialize.hpp"

#include <algorithm>
#include <cstring>

namespace ptm {

void ByteWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::reserve(std::size_t additional) {
  const std::size_t needed = buf_.size() + additional;
  if (needed > buf_.capacity()) {
    buf_.reserve(std::max(needed, 2 * buf_.capacity()));
  }
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  u32(static_cast<std::uint32_t>(data.size()));
  raw(data);
}

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::raw(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

template <typename T>
Result<T> ByteReader::read_le() {
  if (remaining() < sizeof(T)) {
    return Status{ErrorCode::kParseError, "buffer underrun"};
  }
  T v;
  std::memcpy(&v, data_.data() + pos_, sizeof(T));
  pos_ += sizeof(T);
  return v;
}

Result<std::uint8_t> ByteReader::u8() { return read_le<std::uint8_t>(); }

Result<std::uint16_t> ByteReader::u16() { return read_le<std::uint16_t>(); }

Result<std::uint32_t> ByteReader::u32() { return read_le<std::uint32_t>(); }

Result<std::uint64_t> ByteReader::u64() { return read_le<std::uint64_t>(); }

Result<double> ByteReader::f64() {
  auto r = read_le<std::uint64_t>();
  if (!r) return r.status();
  double v;
  const std::uint64_t bits = *r;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::vector<std::uint8_t>> ByteReader::bytes() {
  auto view = bytes_view();
  if (!view) return view.status();
  return std::vector<std::uint8_t>(view->begin(), view->end());
}

Result<std::span<const std::uint8_t>> ByteReader::bytes_view() {
  auto len = u32();
  if (!len) return len.status();
  return raw_view(*len);
}

Result<std::string> ByteReader::str() {
  auto blob = bytes_view();
  if (!blob) return blob.status();
  return std::string(blob->begin(), blob->end());
}

Result<std::vector<std::uint8_t>> ByteReader::raw(std::size_t n) {
  auto view = raw_view(n);
  if (!view) return view.status();
  return std::vector<std::uint8_t>(view->begin(), view->end());
}

Result<std::span<const std::uint8_t>> ByteReader::raw_view(std::size_t n) {
  if (remaining() < n) {
    return Status{ErrorCode::kParseError, "buffer underrun in raw read"};
  }
  const auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

}  // namespace ptm
