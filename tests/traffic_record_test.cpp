// Tests for core/traffic_record.hpp: record invariants, serialization, and
// the Eq. 2 bitmap-size planner.
#include "core/traffic_record.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/math.hpp"

namespace ptm {
namespace {

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

TEST(TrafficRecord, ValidateAcceptsPowerOfTwo) {
  TrafficRecord rec;
  rec.location = 1;
  rec.period = 2;
  rec.bits = Bitmap(1024);
  EXPECT_TRUE(rec.validate().is_ok());
}

TEST(TrafficRecord, ValidateRejectsEmptyAndOddSizes) {
  TrafficRecord rec;
  EXPECT_EQ(rec.validate().code(), ErrorCode::kInvalidArgument);
  rec.bits = Bitmap(1000);  // not a power of two
  EXPECT_EQ(rec.validate().code(), ErrorCode::kInvalidArgument);
}

TEST(TrafficRecord, SerializeRoundTrip) {
  TrafficRecord rec;
  rec.location = 0xDEAD;
  rec.period = 42;
  rec.bits = Bitmap(512);
  rec.bits.set(0);
  rec.bits.set(511);
  const auto bytes = rec.serialize();
  const auto decoded = TrafficRecord::deserialize(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, rec);
}

TEST(TrafficRecord, DeserializeRejectsTruncationEverywhere) {
  TrafficRecord rec;
  rec.location = 1;
  rec.period = 1;
  rec.bits = Bitmap(64);
  const auto bytes = rec.serialize();
  for (std::size_t keep = 0; keep < bytes.size(); keep += 3) {
    const std::span<const std::uint8_t> cut(bytes.data(), keep);
    EXPECT_FALSE(TrafficRecord::deserialize(cut).has_value());
  }
}

TEST(TrafficRecord, DeserializeRejectsNonPowerOfTwoPayload) {
  TrafficRecord rec;
  rec.location = 1;
  rec.period = 1;
  rec.bits = Bitmap(96);  // serializes fine but violates Eq. 2
  const auto bytes = rec.serialize();
  EXPECT_EQ(TrafficRecord::deserialize(bytes).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(TrafficRecord, DeserializeRejectsTrailingBytes) {
  TrafficRecord rec;
  rec.location = 1;
  rec.period = 1;
  rec.bits = Bitmap(64);
  auto bytes = rec.serialize();
  bytes.push_back(0);
  EXPECT_EQ(TrafficRecord::deserialize(bytes).status().code(),
            ErrorCode::kParseError);
}

// The record encoding is a storage and wire format: these bytes were
// written by the byte-at-a-time codec and must never move.
TEST(TrafficRecord, SerializedBytesArePinned) {
  TrafficRecord rec;
  rec.location = 0x0102030405060708ULL;
  rec.period = 42;
  rec.bits = Bitmap(128);
  for (std::size_t bit : {0, 1, 63, 64, 127}) rec.bits.set(bit);
  const auto golden = from_hex(
      "0807060504030201"                  // location
      "2a00000000000000"                  // period
      "18000000"                          // bitmap blob length
      "8000000000000000"                  // bit count 128
      "0300000000000080"                  // word 0: bits 0, 1, 63
      "0100000000000080");                // word 1: bits 64, 127
  EXPECT_EQ(rec.serialize(), golden);
  const auto decoded = TrafficRecord::deserialize(golden);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(*decoded, rec);
}

TEST(PlanBitmapSize, MatchesEq2) {
  // m = 2^ceil(log2(n̄·f)).
  EXPECT_EQ(plan_bitmap_size(1000, 2.0), 2048u);
  EXPECT_EQ(plan_bitmap_size(1024, 2.0), 2048u);
  EXPECT_EQ(plan_bitmap_size(1025, 2.0), 4096u);
  EXPECT_EQ(plan_bitmap_size(1, 1.0), 1u);
  EXPECT_EQ(plan_bitmap_size(3, 1.0), 4u);
}

TEST(PlanBitmapSize, ReproducesTable1Sizes) {
  // The m row of the paper's Table I (f = 2).
  EXPECT_EQ(plan_bitmap_size(451000, 2.0), 1048576u);
  EXPECT_EQ(plan_bitmap_size(213000, 2.0), 524288u);
  EXPECT_EQ(plan_bitmap_size(140000, 2.0), 524288u);
  EXPECT_EQ(plan_bitmap_size(121000, 2.0), 262144u);
  EXPECT_EQ(plan_bitmap_size(78000, 2.0), 262144u);
  EXPECT_EQ(plan_bitmap_size(76000, 2.0), 262144u);
  EXPECT_EQ(plan_bitmap_size(47000, 2.0), 131072u);
  EXPECT_EQ(plan_bitmap_size(40000, 2.0), 131072u);
  EXPECT_EQ(plan_bitmap_size(28000, 2.0), 65536u);
}

TEST(PlanBitmapSize, AlwaysPowerOfTwoAtLeastTarget) {
  for (double n : {1.0, 7.0, 100.0, 999.0, 12345.0}) {
    for (double f : {1.0, 1.5, 2.0, 3.0, 4.0}) {
      const std::size_t m = plan_bitmap_size(n, f);
      EXPECT_TRUE(is_power_of_two(m));
      EXPECT_GE(static_cast<double>(m), n * f);
      EXPECT_LT(static_cast<double>(m), 2.0 * n * f + 2.0);
    }
  }
}

TEST(PlanBitmapSize, FractionalLoadFactor) {
  EXPECT_EQ(plan_bitmap_size(1000, 1.5), 2048u);
  EXPECT_EQ(plan_bitmap_size(1000, 2.5), 4096u);
}

}  // namespace
}  // namespace ptm
