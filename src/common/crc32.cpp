#include "common/crc32.hpp"

#include <array>
#include <cstring>

namespace ptm {
namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: tables[0] is the classic byte-at-a-time table;
/// tables[k][b] is the CRC contribution of byte b followed by k zero
/// bytes, so eight table lookups advance the CRC over eight input bytes.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc,
                           std::span<const std::uint8_t> data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  // Eight bytes per step; the loads are little-endian like the format
  // (serialize.hpp), and memcpy keeps them legal at any alignment.
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; --n, ++p) {
    crc = kTables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  return crc32_finish(crc32_update(crc32_init(), data));
}

}  // namespace ptm
