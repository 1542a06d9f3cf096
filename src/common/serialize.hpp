// serialize.hpp - little-endian byte-buffer reader/writer used by the V2I
// message codecs, certificates, and record uploads.
//
// All on-the-wire integers in this project are fixed-width little-endian;
// variable-length fields are length-prefixed with a u32.  The reader is
// bounds-checked and returns ParseError rather than asserting, because its
// inputs cross the (simulated) trust boundary.
//
// Encoders are single-pass: every field is written straight into one
// buffer (a length prefix written before its payload is known is patched
// in after), and the one record-sized field, a Bitmap, reserves room for
// itself as it is written, so no encoder sizes a message by hand.
// Decoders read variable-length fields as views into their input, so a
// record travels from the socket buffer to its Bitmap words in one copy.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace ptm {

// Every target this project builds (x86-64, AArch64) is little-endian, so
// integers and Bitmap words are copied to and from the wire as whole
// machine words.  The format itself stays explicitly little-endian: a
// big-endian port must byte-swap here, and this assertion says where.
static_assert(std::endian::native == std::endian::little,
              "the wire and disk codecs copy little-endian words as-is");

class ByteWriter {
 public:
  ByteWriter() = default;
  /// Appends after the bytes `buffer` already holds; take() hands it
  /// back.  Lets an encoder write straight into a caller's buffer (a
  /// connection's unsent output) instead of into a copy.
  explicit ByteWriter(std::vector<std::uint8_t> buffer) noexcept
      : buf_(std::move(buffer)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void f64(double v);

  /// Makes room for `additional` more bytes.  Grows at least
  /// geometrically, so exact reservations made by repeated appends into
  /// one long-lived buffer stay amortized O(1).
  void reserve(std::size_t additional);
  /// Overwrites the u32 at `offset` (already written) - a length prefix
  /// reserved before its payload was encoded.
  void patch_u32(std::size_t offset, std::uint32_t v) noexcept {
    std::memcpy(buf_.data() + offset, &v, sizeof(v));
  }

  /// Length-prefixed (u32) byte blob.
  void bytes(std::span<const std::uint8_t> data);
  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view s);
  /// Raw bytes, no length prefix (caller knows the framing).
  void raw(std::span<const std::uint8_t> data);

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    std::memcpy(buf_.data() + at, &v, sizeof(T));
  }
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] Result<std::uint8_t> u8();
  [[nodiscard]] Result<std::uint16_t> u16();
  [[nodiscard]] Result<std::uint32_t> u32();
  [[nodiscard]] Result<std::uint64_t> u64();
  [[nodiscard]] Result<double> f64();
  /// Length-prefixed blob (u32 length).
  [[nodiscard]] Result<std::vector<std::uint8_t>> bytes();
  /// Length-prefixed blob as a view into the input: no copy, valid as long
  /// as the input is.  ParseError when the length overruns the input.
  [[nodiscard]] Result<std::span<const std::uint8_t>> bytes_view();
  /// Length-prefixed UTF-8 string.
  [[nodiscard]] Result<std::string> str();
  /// Exactly `n` raw bytes.
  [[nodiscard]] Result<std::vector<std::uint8_t>> raw(std::size_t n);
  /// Exactly `n` raw bytes as a view into the input.
  [[nodiscard]] Result<std::span<const std::uint8_t>> raw_view(std::size_t n);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  template <typename T>
  [[nodiscard]] Result<T> read_le();

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace ptm
