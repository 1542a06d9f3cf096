// traffic_record.hpp - the per-RSU, per-period measurement artifact
// (paper §II-D).
//
// A traffic record is an m-bit bitmap tagged with where and when it was
// collected.  m is always a power of two (Eq. 2) so records of different
// sizes can be joined by replication-expansion (§III-A).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitmap.hpp"
#include "common/status.hpp"

namespace ptm {

class ByteWriter;

struct TrafficRecord {
  std::uint64_t location = 0;  ///< L - RSU location code
  std::uint64_t period = 0;    ///< measurement period index
  Bitmap bits;                 ///< B - the m-bit record

  [[nodiscard]] std::size_t m() const noexcept { return bits.size(); }

  /// Validates the structural invariants (non-empty, power-of-two size).
  [[nodiscard]] Status validate() const;

  /// Wire format: location, period, bitmap.  Used for RSU -> server upload.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  /// Appends exactly serialized_size() bytes - serialize()'s - to `w`.
  void serialize_into(ByteWriter& w) const;
  [[nodiscard]] std::size_t serialized_size() const noexcept {
    return 8 + 8 + 4 + bits.serialized_size();
  }
  [[nodiscard]] static Result<TrafficRecord> deserialize(
      std::span<const std::uint8_t> bytes);

  friend bool operator==(const TrafficRecord& a,
                         const TrafficRecord& b) noexcept {
    return a.location == b.location && a.period == b.period &&
           a.bits == b.bits;
  }
};

/// Plans the bitmap size for an RSU from the expected traffic volume
/// (historical average) n̄ and the system-wide load factor f (paper Eq. 2):
///     m = 2 ^ ceil( log2( n̄ · f ) ).
/// Precondition: expected_volume >= 1 and load_factor > 0.
[[nodiscard]] std::size_t plan_bitmap_size(double expected_volume,
                                           double load_factor);

}  // namespace ptm
