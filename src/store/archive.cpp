#include "store/archive.hpp"

#include <cstdio>
#include <iterator>

#include "store/record_log.hpp"

namespace ptm {

Result<RecordArchive> RecordArchive::open(std::string path,
                                          ArchiveOptions options) {
  // Ensure the log exists with a valid header (also validates magic).
  auto log = open_record_log(path);
  if (!log) return log.status();
  RecordArchive archive(options, std::move(*log));
  auto tail = scan_record_log(
      path, [&archive](const FrameExtent& extent, TrafficRecord&& rec) {
        if (!archive.index_[rec.location].emplace(rec.period, extent).second) {
          ++archive.dead_in_log_;  // duplicate on disk: keep the first
        }
      });
  if (!tail) return tail.status();
  for (auto& [location, periods] : archive.index_) {
    (void)periods;
    archive.apply_retention(location);
  }
  if (tail->truncated_tail) {
    // Heal immediately: appending after torn bytes would strand the new
    // records beyond the reader's stop point.
    if (auto compacted = archive.compact(); !compacted) {
      return compacted.status();
    }
  }
  return archive;
}

void RecordArchive::apply_retention(std::uint64_t location) {
  if (options_.max_periods_per_location == 0) return;
  auto& periods = index_[location];
  while (periods.size() > options_.max_periods_per_location) {
    periods.erase(periods.begin());  // oldest period first
    ++dead_in_log_;
  }
}

Status RecordArchive::append(const TrafficRecord& record) {
  if (Status s = record.validate(); !s.is_ok()) return s;
  const std::vector<std::uint8_t> payload = record.serialize();
  auto at_location = index_.find(record.location);
  if (at_location != index_.end()) {
    const auto at_period = at_location->second.find(record.period);
    if (at_period != at_location->second.end()) {
      auto stored = log_.read(at_period->second);
      if (!stored) return stored.status();
      if (*stored == payload) {
        // Byte-identical replay of a record already durable: succeed
        // without writing a redundant frame.
        return Status::ok();
      }
      return {ErrorCode::kFailedPrecondition,
              "conflicting record for this location and period"};
    }
  }
  auto extent = log_.append(payload);
  if (!extent) return extent.status();
  index_[record.location].emplace(record.period, *extent);
  apply_retention(record.location);
  return Status::ok();
}

std::size_t RecordArchive::live_records() const {
  std::size_t total = 0;
  for (const auto& [location, periods] : index_) total += periods.size();
  return total;
}

std::size_t RecordArchive::periods_at(std::uint64_t location) const {
  const auto it = index_.find(location);
  return it == index_.end() ? 0 : it->second.size();
}

std::vector<std::uint64_t> RecordArchive::locations() const {
  std::vector<std::uint64_t> out;
  out.reserve(index_.size());
  for (const auto& [location, periods] : index_) {
    if (!periods.empty()) out.push_back(location);
  }
  return out;
}

Result<std::vector<TrafficRecord>> RecordArchive::live_batch(
    SnapshotCursor& cursor, std::size_t max_records) const {
  std::vector<TrafficRecord> out;
  SnapshotCursor next = cursor;
  auto at_location = cursor.started ? index_.lower_bound(cursor.location)
                                    : index_.begin();
  for (; at_location != index_.end() && out.size() < max_records;
       ++at_location) {
    const auto& [location, periods] = *at_location;
    auto at_period =
        (cursor.started && location == cursor.location)
            ? periods.upper_bound(cursor.period)
            : periods.begin();
    for (; at_period != periods.end() && out.size() < max_records;
         ++at_period) {
      auto rec = read_record_at(log_, at_period->second);
      if (!rec) return rec.status();
      out.push_back(std::move(*rec));
      next = {true, location, at_period->first};
    }
  }
  cursor = next;
  return out;
}

Result<std::vector<TrafficRecord>> RecordArchive::live_contents() const {
  SnapshotCursor cursor;
  return live_batch(cursor, live_records());
}

Result<std::vector<Bitmap>> RecordArchive::records_at(
    std::uint64_t location) const {
  return latest(location, periods_at(location));
}

Result<std::vector<Bitmap>> RecordArchive::latest(std::uint64_t location,
                                                  std::size_t window) const {
  const auto it = index_.find(location);
  if (it == index_.end() || it->second.empty()) {
    return Status{ErrorCode::kNotFound, "no live records for location"};
  }
  const auto& periods = it->second;
  if (periods.size() < window) {
    return Status{ErrorCode::kNotFound,
                  "fewer live periods than the requested window"};
  }
  std::vector<Bitmap> out;
  out.reserve(window);
  for (auto at = std::prev(periods.end(), static_cast<std::ptrdiff_t>(window));
       at != periods.end(); ++at) {
    auto rec = read_record_at(log_, at->second);
    if (!rec) return rec.status();
    out.push_back(std::move(rec->bits));
  }
  return out;
}

Result<std::size_t> RecordArchive::compact() {
  const std::string temp_path = path() + ".compact";
  std::remove(temp_path.c_str());
  const auto abandon = [&temp_path](Status s) {
    std::remove(temp_path.c_str());
    return s;
  };
  auto fresh = open_record_log(temp_path);
  if (!fresh) return abandon(fresh.status());
  // The live records' extents in the rewritten file, in index order;
  // installed only once the rename has committed it.
  std::vector<FrameExtent> moved;
  moved.reserve(live_records());
  for (const auto& [location, periods] : index_) {
    for (const auto& [period, extent] : periods) {
      auto payload = log_.read(extent);
      if (!payload) return abandon(payload.status());
      auto written = fresh->append(*payload);
      if (!written) return abandon(written.status());
      moved.push_back(*written);
    }
  }
  if (Status s = fresh->rename(path()); !s.is_ok()) return abandon(s);
  log_ = std::move(*fresh);  // the descriptor now appends to path()
  auto next = moved.begin();
  for (auto& [location, periods] : index_) {
    for (auto& [period, extent] : periods) extent = *next++;
  }
  const std::size_t dropped = dead_in_log_;
  dead_in_log_ = 0;
  return dropped;
}

}  // namespace ptm
