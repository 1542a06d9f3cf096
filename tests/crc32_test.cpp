// Tests for common/crc32.hpp against the standard check values.
#include "common/crc32.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "common/random.hpp"

namespace ptm {
namespace {

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// The textbook bit-at-a-time CRC-32 (reflected 0xEDB88320): the reference
/// any table-driven form must match bit for bit.
std::uint32_t reference_update(std::uint32_t crc,
                               std::span<const std::uint8_t> data) {
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc;
}

std::uint32_t reference_crc32(std::span<const std::uint8_t> data) {
  return crc32_finish(reference_update(crc32_init(), data));
}

TEST(Crc32, StandardCheckValue) {
  // The canonical CRC-32 check: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32({}), 0x00000000u);
  EXPECT_EQ(crc32(bytes_of("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(bytes_of("abc")), 0x352441C2u);
  EXPECT_EQ(crc32(bytes_of("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string_view msg = "persistent traffic measurement";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    std::uint32_t crc = crc32_init();
    crc = crc32_update(crc, bytes_of(msg.substr(0, split)));
    crc = crc32_update(crc, bytes_of(msg.substr(split)));
    EXPECT_EQ(crc32_finish(crc), crc32(bytes_of(msg))) << "split " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  const std::uint32_t original = crc32(data);
  for (std::size_t byte = 0; byte < data.size(); byte += 7) {
    for (int bit = 0; bit < 8; bit += 3) {
      auto copy = data;
      copy[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_NE(crc32(copy), original) << byte << ":" << bit;
    }
  }
}

TEST(Crc32, MatchesReferenceOverEveryLengthAndAlignment) {
  // 8 spare bytes in front let every length start at all 8 offsets
  // modulo a word, so a sliced loop's head, body and tail all run.
  std::vector<std::uint8_t> buffer(4100 + 8);
  Xoshiro256 rng(0xC3C32);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t length = 0; length <= 4100; ++length) {
    for (std::size_t align = 0; align < 8; ++align) {
      const std::span<const std::uint8_t> data(buffer.data() + align, length);
      ASSERT_EQ(crc32(data), reference_crc32(data))
          << "length " << length << " align " << align;
    }
  }
}

TEST(Crc32, IncrementalSplitsAcrossSliceBoundariesMatchReference) {
  std::vector<std::uint8_t> data(300);
  Xoshiro256 rng(17);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  const std::uint32_t whole = reference_crc32(data);
  // Splits at every offset around the 8-byte slices, in two and in three
  // pieces; every piece may start unaligned.
  for (std::size_t first = 0; first <= 40; ++first) {
    for (std::size_t second = first; second <= first + 24; ++second) {
      const std::span<const std::uint8_t> all(data);
      std::uint32_t crc = crc32_init();
      crc = crc32_update(crc, all.subspan(0, first));
      crc = crc32_update(crc, all.subspan(first, second - first));
      crc = crc32_update(crc, all.subspan(second));
      ASSERT_EQ(crc32_finish(crc), whole) << first << "/" << second;
    }
  }
  // Many short pieces, each shorter than one slice.
  std::uint32_t crc = crc32_init();
  for (std::size_t at = 0; at < data.size(); at += 3) {
    crc = crc32_update(
        crc, std::span<const std::uint8_t>(data).subspan(
                 at, std::min<std::size_t>(3, data.size() - at)));
  }
  EXPECT_EQ(crc32_finish(crc), whole);
}

}  // namespace
}  // namespace ptm
