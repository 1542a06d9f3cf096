// crc32.hpp - CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Used by the record-log file format to detect corruption of stored traffic
// records.  Slicing-by-8: eight 256-entry tables, built at compile time,
// consume eight bytes per step; the values are bit-identical to the
// byte-at-a-time form (crc32_test checks every length up to 4 KiB).
#pragma once

#include <cstdint>
#include <span>

namespace ptm {

/// CRC-32 of a byte span (init 0xFFFFFFFF, final xor 0xFFFFFFFF - the
/// standard zlib-compatible convention).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

/// Incremental form: feed `crc` from a previous call (or crc32_init()).
[[nodiscard]] constexpr std::uint32_t crc32_init() noexcept {
  return 0xFFFFFFFFu;
}
[[nodiscard]] std::uint32_t crc32_update(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept;
[[nodiscard]] constexpr std::uint32_t crc32_finish(std::uint32_t crc) noexcept {
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace ptm
