#include "core/traffic_record.hpp"

#include <cassert>
#include <cmath>

#include "common/math.hpp"
#include "common/serialize.hpp"

namespace ptm {

Status TrafficRecord::validate() const {
  if (bits.empty()) {
    return {ErrorCode::kInvalidArgument, "traffic record has no bitmap"};
  }
  if (!is_power_of_two(bits.size())) {
    return {ErrorCode::kInvalidArgument,
            "traffic record size must be a power of two (Eq. 2)"};
  }
  return Status::ok();
}

std::vector<std::uint8_t> TrafficRecord::serialize() const {
  ByteWriter w;
  serialize_into(w);
  return w.take();
}

void TrafficRecord::serialize_into(ByteWriter& w) const {
  w.u64(location);
  w.u64(period);
  w.u32(static_cast<std::uint32_t>(bits.serialized_size()));
  bits.serialize_into(w);
}

Result<TrafficRecord> TrafficRecord::deserialize(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  TrafficRecord rec;
  auto loc = r.u64();
  if (!loc) return loc.status();
  rec.location = *loc;
  auto per = r.u64();
  if (!per) return per.status();
  rec.period = *per;
  auto blob = r.bytes_view();
  if (!blob) return blob.status();
  auto bitmap = Bitmap::deserialize(*blob);
  if (!bitmap) return bitmap.status();
  rec.bits = std::move(*bitmap);
  if (!r.exhausted()) {
    return Status{ErrorCode::kParseError, "trailing bytes after record"};
  }
  if (Status s = rec.validate(); !s.is_ok()) return s;
  return rec;
}

std::size_t plan_bitmap_size(double expected_volume, double load_factor) {
  assert(expected_volume >= 1.0 && load_factor > 0.0);
  const double target = expected_volume * load_factor;
  const auto ceiling = static_cast<std::uint64_t>(std::ceil(target));
  return static_cast<std::size_t>(next_power_of_two(ceiling));
}

}  // namespace ptm
