#include "query/query_service.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <iterator>
#include <mutex>
#include <type_traits>

#include "common/bitmap_pool.hpp"
#include "common/parallel.hpp"
#include "core/expansion.hpp"
#include "core/linear_counting.hpp"
#include "simd/kernels.hpp"
#include "store/archive.hpp"

namespace ptm {
namespace {

/// splitmix64 finalizer - cheap, well-mixed location -> shard hash (the
/// low bits of raw location codes are far from uniform).
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

CoverageReport merge_coverage(const CoverageReport& a,
                              const CoverageReport& b) {
  const auto sorted_union = [](const std::vector<std::uint64_t>& x,
                               const std::vector<std::uint64_t>& y) {
    std::vector<std::uint64_t> out;
    out.reserve(x.size() + y.size());
    out.insert(out.end(), x.begin(), x.end());
    out.insert(out.end(), y.begin(), y.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  CoverageReport merged;
  merged.requested = sorted_union(a.requested, b.requested);
  merged.missing = sorted_union(a.missing, b.missing);
  merged.present.reserve(merged.requested.size());
  for (std::uint64_t period : merged.requested) {
    if (!std::binary_search(merged.missing.begin(), merged.missing.end(),
                            period)) {
      merged.present.push_back(period);
    }
  }
  return merged;
}

const char* query_kind_name(const QueryRequest& request) noexcept {
  struct Namer {
    const char* operator()(const PointVolumeQuery&) { return "point-volume"; }
    const char* operator()(const PointPersistentQuery&) {
      return "point-persistent";
    }
    const char* operator()(const RecentPersistentQuery&) {
      return "recent-persistent";
    }
    const char* operator()(const P2PPersistentQuery&) {
      return "p2p-persistent";
    }
    const char* operator()(const CorridorQuery&) { return "corridor"; }
  };
  return std::visit(Namer{}, request);
}

const Deadline& query_deadline(const QueryRequest& request) noexcept {
  return std::visit(
      [](const auto& q) -> const Deadline& { return q.deadline; }, request);
}

std::vector<std::uint64_t> query_named_periods(const QueryRequest& request) {
  return std::visit(
      [](const auto& q) -> std::vector<std::uint64_t> {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, PointVolumeQuery>) {
          return {q.period};
        } else if constexpr (std::is_same_v<T, RecentPersistentQuery>) {
          return {};
        } else {
          return q.periods;
        }
      },
      request);
}

Status check_query_bounds(const QueryRequest& request) {
  const std::size_t named =
      std::visit(
          [](const auto& q) -> std::size_t {
            using T = std::decay_t<decltype(q)>;
            if constexpr (std::is_same_v<T, PointVolumeQuery>) {
              return 1;
            } else if constexpr (std::is_same_v<T, RecentPersistentQuery>) {
              return q.window;
            } else {
              return q.periods.size();
            }
          },
          request);
  if (named > kMaxQueryPeriods) {
    return {ErrorCode::kInvalidArgument,
            "query spans " + std::to_string(named) + " periods; at most " +
                std::to_string(kMaxQueryPeriods) + " are allowed"};
  }
  return Status::ok();
}

std::uint64_t query_primary_location(const QueryRequest& request) noexcept {
  struct Primary {
    std::uint64_t operator()(const PointVolumeQuery& q) { return q.location; }
    std::uint64_t operator()(const PointPersistentQuery& q) {
      return q.location;
    }
    std::uint64_t operator()(const RecentPersistentQuery& q) {
      return q.location;
    }
    std::uint64_t operator()(const P2PPersistentQuery& q) {
      return q.location_a;
    }
    std::uint64_t operator()(const CorridorQuery& q) {
      return q.locations.empty() ? 0 : q.locations.front();
    }
  };
  return std::visit(Primary{}, request);
}

QueryService::QueryService(QueryServiceOptions options)
    : options_(options),
      spans_("query-service"),
      latency_(telemetry_.histogram("query_latency_ns")),
      queries_total_(telemetry_.counter("queries_total")),
      queries_failed_(telemetry_.counter("queries_failed")),
      admission_(options.admission, &telemetry_) {
  options_.n_shards = std::max<std::size_t>(options_.n_shards, 1);
  shards_ = std::make_unique<Shard[]>(options_.n_shards);
  for (std::size_t i = 0; i < options_.n_shards; ++i) {
    const TelemetryLabels labels{{"shard", std::to_string(i)}};
    Shard& shard = shards_[i];
    shard.ingest_ok = &telemetry_.counter("ingest_ok", labels);
    shard.ingest_duplicate = &telemetry_.counter("ingest_duplicate", labels);
    shard.ingest_rejected = &telemetry_.counter("ingest_rejected", labels);
    shard.queries = &telemetry_.counter("shard_queries", labels);
    shard.shed = &telemetry_.counter("queries_shed", labels);
    shard.deadline_exceeded =
        &telemetry_.counter("queries_deadline_exceeded", labels);
    shard.archive_append = &telemetry_.counter("archive_append", labels);
  }
}

QueryService::Shard& QueryService::shard_for(
    std::uint64_t location) const noexcept {
  return shards_[mix64(location) % options_.n_shards];
}

Status QueryService::ingest(const TrafficRecord& record,
                            const TraceContext& trace, bool* first_accept) {
  if (first_accept != nullptr) *first_accept = false;
  // Untraced ingests (the overwhelming majority) skip span recording
  // entirely; the null-recorder ScopedTimer does not even read the clock.
  ScopedTimer ingest_span(trace.active() ? &spans_ : nullptr, "ingest",
                          trace);
  Shard& shard = shard_for(record.location);
  if (Status s = record.validate(); !s.is_ok()) {
    shard.ingest_rejected->add();
    ingest_span.set_ok(false);
    return s;
  }
  // The volume estimate feeding the Eq. 2 history only reads the caller's
  // record, so it runs before the exclusive section.
  const CardinalityEstimate est = estimate_cardinality(record.bits);
  const auto key = std::make_pair(record.location, record.period);
  {
    std::unique_lock lock(shard.mutex);
    const auto it = shard.records.find(key);
    if (it != shard.records.end()) {
      // Idempotent re-delivery: an RSU retransmitting an unacknowledged
      // upload after an outage must not be punished for the lost ack.
      // Identical bytes are a no-op success; different bytes mean two
      // divergent records claim the same (location, period) - that never
      // happens from a healthy RSU and is rejected loudly.
      const bool identical = it->second == record;
      lock.unlock();
      if (identical) {
        shard.ingest_duplicate->add();
        return Status::ok();
      }
      shard.ingest_rejected->add();
      ingest_span.set_ok(false);
      return {ErrorCode::kFailedPrecondition,
              "conflicting record for this location and period"};
    }
    // Write-ahead: a first accept must be durable before it becomes
    // queryable and before the Ok that lets the RSU retire the record
    // from its outbox.  The disk write happens under the shard's
    // exclusive lock - durability-before-ack is worth the ingest-side
    // stall, and queries on other shards are unaffected.
    {
      std::lock_guard archive_lock(archive_mutex_);
      if (archive_ != nullptr) {
        ScopedTimer archive_span(trace.active() ? &spans_ : nullptr,
                                 "archive-append", ingest_span.context());
        if (Status s = archive_->append(record); !s.is_ok()) {
          // Nothing admitted to memory and no ack: the RSU keeps the
          // record and retries, exactly as after a lost ack.
          lock.unlock();
          shard.ingest_rejected->add();
          archive_span.set_ok(false);
          ingest_span.set_ok(false);
          return s;
        }
        shard.archive_append->add();
      }
    }
    shard.records.emplace(key, record);
    shard.history[record.location].add(est.value);
  }
  if (first_accept != nullptr) *first_accept = true;
  shard.ingest_ok->add();
  return Status::ok();
}

void QueryService::attach_durability(RecordArchive& archive) {
  std::lock_guard lock(archive_mutex_);
  archive_ = &archive;
}

bool QueryService::durable() const {
  std::lock_guard lock(archive_mutex_);
  return archive_ != nullptr;
}

Result<std::size_t> QueryService::restore_from_archive() {
  // Two phases.  First every live record is read back, in batches: the
  // archive mutex is held per batch, not for the whole sweep, so a restore
  // racing live ingest (a follower replaying its replica while its
  // subscriptions already stream) never stalls the write path for the
  // archive's full O(n) read.  A record that fails to read back fails the
  // restore before anything is inserted - never a partial store.  Then
  // the records go in, (location, period)-ordered, so the volume history
  // mean rebuilds deterministically regardless of original arrival order.
  constexpr std::size_t kRestoreBatch = 512;
  RecordArchive::SnapshotCursor cursor;
  std::vector<TrafficRecord> records;
  for (;;) {
    std::unique_lock lock(archive_mutex_);
    if (archive_ == nullptr) {
      return Status{ErrorCode::kFailedPrecondition,
                    "restore requires an attached archive"};
    }
    auto batch = archive_->live_batch(cursor, kRestoreBatch);
    lock.unlock();
    if (!batch) return batch.status();
    if (batch->empty()) break;
    std::move(batch->begin(), batch->end(), std::back_inserter(records));
  }
  std::size_t restored = 0;
  for (TrafficRecord& rec : records) {
    Shard& shard = shard_for(rec.location);
    const CardinalityEstimate est = estimate_cardinality(rec.bits);
    const auto key = std::make_pair(rec.location, rec.period);
    std::unique_lock lock(shard.mutex);
    if (shard.records.contains(key)) continue;  // already live in memory
    shard.history[rec.location].add(est.value);
    shard.records.emplace(key, std::move(rec));
    ++restored;
  }
  return restored;
}

void QueryService::wipe_volatile_state() {
  for (std::size_t i = 0; i < options_.n_shards; ++i) {
    Shard& shard = shards_[i];
    std::unique_lock lock(shard.mutex);
    shard.records.clear();
    shard.history.clear();
    // Instrument values are volatile state too; registrations survive
    // (the admission gauges are deliberately left alone - in-flight
    // accounting must stay balanced across a simulated crash).
    shard.ingest_ok->reset();
    shard.ingest_duplicate->reset();
    shard.ingest_rejected->reset();
    shard.queries->reset();
    shard.shed->reset();
    shard.deadline_exceeded->reset();
    shard.archive_append->reset();
  }
  latency_.reset();
  queries_total_.reset();
  queries_failed_.reset();
  spans_.clear();
  std::lock_guard lock(archive_mutex_);
  archive_ = nullptr;
}

std::size_t QueryService::record_count() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < options_.n_shards; ++i) {
    std::shared_lock lock(shards_[i].mutex);
    total += shards_[i].records.size();
  }
  return total;
}

bool QueryService::has_record(std::uint64_t location,
                              std::uint64_t period) const {
  const Shard& shard = shard_for(location);
  std::shared_lock lock(shard.mutex);
  return shard.records.contains(std::make_pair(location, period));
}

std::vector<std::uint64_t> QueryService::periods_at(
    std::uint64_t location) const {
  const Shard& shard = shard_for(location);
  std::vector<std::uint64_t> periods;
  std::shared_lock lock(shard.mutex);
  // The map is ordered by (location, period): one contiguous, sorted range.
  for (auto it = shard.records.lower_bound(std::make_pair(location, 0ULL));
       it != shard.records.end() && it->first.first == location; ++it) {
    periods.push_back(it->first.second);
  }
  return periods;
}

std::vector<TrafficRecord> QueryService::records_batch(
    RecordCursor& cursor, std::size_t max_records) const {
  std::vector<TrafficRecord> out;
  if (max_records == 0) return out;
  while (cursor.shard < options_.n_shards && out.size() < max_records) {
    const Shard& shard = shards_[cursor.shard];
    {
      std::shared_lock lock(shard.mutex);
      auto it = cursor.in_shard
                    ? shard.records.upper_bound(std::make_pair(
                          cursor.last_location, cursor.last_period))
                    : shard.records.begin();
      for (; it != shard.records.end() && out.size() < max_records; ++it) {
        out.push_back(it->second);
        cursor.in_shard = true;
        cursor.last_location = it->first.first;
        cursor.last_period = it->first.second;
      }
      if (it != shard.records.end()) return out;  // batch full mid-shard
    }
    ++cursor.shard;
    cursor.in_shard = false;
  }
  return out;
}

std::vector<TrafficRecord> QueryService::records_at_periods(
    std::uint64_t location, std::span<const std::uint64_t> periods) const {
  const Shard& shard = shard_for(location);
  std::vector<TrafficRecord> out;
  std::shared_lock lock(shard.mutex);
  if (periods.empty()) {
    for (auto it = shard.records.lower_bound(std::make_pair(location, 0ULL));
         it != shard.records.end() && it->first.first == location; ++it) {
      out.push_back(it->second);
    }
    return out;
  }
  out.reserve(periods.size());
  for (std::uint64_t period : periods) {
    const auto it = shard.records.find(std::make_pair(location, period));
    if (it != shard.records.end()) out.push_back(it->second);
  }
  return out;
}

LocationJoin QueryService::join_location(
    std::uint64_t location, std::span<const std::uint64_t> periods,
    const Deadline& deadline) const {
  LocationJoin out;
  if (deadline.expired_now()) {
    out.status = Status{ErrorCode::kDeadlineExceeded,
                        "deadline expired before the join began"};
    return out;
  }
  if (periods.size() > kMaxQueryPeriods) {
    out.status = Status{ErrorCode::kInvalidArgument,
                        "join names " + std::to_string(periods.size()) +
                            " periods; at most " +
                            std::to_string(kMaxQueryPeriods) +
                            " are allowed"};
    return out;
  }
  shard_for(location).queries->add();
  PresentBitmaps split = collect_present(location, periods);
  out.present = std::move(split.coverage.present);
  if (split.bitmaps.empty()) return out;
  auto join = and_join_pooled(split.bitmaps, BitmapPool::local());
  if (!join) {
    out.status = join.status();
    return out;
  }
  // The join is the result: hand the buffer out rather than copy it.
  out.join = join->detach();
  return out;
}

std::size_t QueryService::plan_size(std::uint64_t location,
                                    double default_volume) const {
  const Shard& shard = shard_for(location);
  double expected = default_volume;
  {
    std::shared_lock lock(shard.mutex);
    const auto it = shard.history.find(location);
    if (it != shard.history.end() && it->second.count > 0 &&
        it->second.mean >= 1.0) {
      expected = it->second.mean;
    }
  }
  return plan_bitmap_size(expected, options_.load_factor);
}

QueryService::PresentBitmaps QueryService::collect_present(
    std::uint64_t location, std::span<const std::uint64_t> periods) const {
  PresentBitmaps out;
  out.coverage.requested.assign(periods.begin(), periods.end());
  const std::vector<const Bitmap*> stored = stored_bitmaps(location, periods);
  for (std::size_t i = 0; i < periods.size(); ++i) {
    if (stored[i] == nullptr) {
      out.coverage.missing.push_back(periods[i]);
    } else {
      out.coverage.present.push_back(periods[i]);
      out.bitmaps.push_back(stored[i]);
    }
  }
  return out;
}

namespace {

/// Shared epilogue of the gap-tolerant handlers: apply the missing policy
/// to a coverage split and either fail (with the coverage attached, so the
/// caller can see which periods gapped) or approve estimation over the
/// present subset.
[[nodiscard]] Status apply_missing_policy(MissingPolicy policy,
                                          const CoverageReport& coverage) {
  if (coverage.complete()) return Status::ok();  // estimator takes it whole
  if (policy == MissingPolicy::kFail) {
    return {ErrorCode::kNotFound, "missing record for a requested period"};
  }
  if (coverage.present.size() < 2) {
    return {ErrorCode::kNotFound,
            "fewer than 2 periods present; persistence needs at least 2"};
  }
  return Status::ok();
}

std::vector<std::uint64_t> sorted_unique(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

}  // namespace

QueryResponse run_two_level(const P2PPersistentQuery& q, std::size_t s,
                            const JoinSource& source) {
  QueryResponse response;
  const std::uint64_t locations[] = {q.location_a, q.location_b};
  std::vector<std::optional<LocationJoin>> joins =
      source(locations, q.periods);
  if (q.deadline.expired_now()) {
    response.status = Status{ErrorCode::kDeadlineExceeded,
                             "deadline expired during the p2p joins"};
    return response;
  }
  // Both locations must hold every requested period.
  for (std::optional<LocationJoin>& join : joins) {
    if (!join) join.emplace();
    if (!join->status.is_ok()) {
      response.status = join->status;
      return response;
    }
    if (join->present.size() != q.periods.size()) {
      response.status = Status{ErrorCode::kNotFound,
                               "missing record for a requested period"};
      return response;
    }
  }
  PointToPointOptions estimator_options;
  estimator_options.s = s;
  auto est = estimate_p2p_persistent_from_joins(joins[0]->join, joins[1]->join,
                                                estimator_options);
  if (!est) {
    response.status = est.status();
    return response;
  }
  response.result = *est;
  response.summary = summarize_estimate(*est);
  return response;
}

QueryResponse run_two_level(const CorridorQuery& q, std::size_t s,
                            const JoinSource& source) {
  QueryResponse response;
  response.coverage.requested = q.periods;
  const std::vector<std::uint64_t> locations = sorted_unique(q.locations);
  const auto slot = [&](std::uint64_t location) {
    return static_cast<std::size_t>(
        std::lower_bound(locations.begin(), locations.end(), location) -
        locations.begin());
  };
  std::vector<LocationJoin> joins(locations.size());
  // Round one joins every location over every requested period.  A later
  // round re-joins only the locations whose join covers more periods than
  // every location stores, over exactly those; records are never erased,
  // so each round can only shrink that set and the loop ends.
  std::vector<std::uint64_t> asked = locations;
  std::vector<std::uint64_t> periods = q.periods;
  for (;;) {
    std::vector<std::optional<LocationJoin>> gathered = source(asked, periods);
    if (q.deadline.expired_now()) {
      response.status = Status{ErrorCode::kDeadlineExceeded,
                               "deadline expired during the corridor joins"};
      return response;
    }
    for (std::size_t i = 0; i < asked.size(); ++i) {
      joins[slot(asked[i])] =
          gathered[i] ? std::move(*gathered[i]) : LocationJoin{};
    }
    for (const LocationJoin& join : joins) {
      if (!join.status.is_ok()) {
        response.status = join.status;
        return response;
      }
    }
    // A period is present only when every corridor location stores it
    // (the joined estimate needs the full column).
    response.coverage.present.clear();
    response.coverage.missing.clear();
    for (std::uint64_t period : q.periods) {
      const bool everywhere = std::all_of(
          q.locations.begin(), q.locations.end(), [&](std::uint64_t loc) {
            const auto& present = joins[slot(loc)].present;
            return std::find(present.begin(), present.end(), period) !=
                   present.end();
          });
      (everywhere ? response.coverage.present : response.coverage.missing)
          .push_back(period);
    }
    if (Status st = apply_missing_policy(q.missing, response.coverage);
        !st.is_ok()) {
      response.status = st;
      return response;
    }
    asked.clear();
    for (std::size_t i = 0; i < locations.size(); ++i) {
      if (joins[i].present != response.coverage.present) {
        asked.push_back(locations[i]);
      }
    }
    if (asked.empty()) break;
    periods = response.coverage.present;
  }
  std::vector<const Bitmap*> per_location;
  per_location.reserve(q.locations.size());
  for (std::uint64_t location : q.locations) {
    per_location.push_back(&joins[slot(location)].join);
  }
  auto est = estimate_corridor_persistent_from_joins(per_location, s);
  if (!est) {
    response.status = est.status();
    return response;
  }
  response.summary = summarize_estimate(*est);
  response.result = std::move(*est);
  return response;
}

QueryResponse QueryService::handle(const PointVolumeQuery& q) const {
  const Shard& shard = shard_for(q.location);
  shard.queries->add();
  QueryResponse response;
  // Pointer, not copy: stored records are immutable and never evicted
  // (see collect_present), so reading outside the lock is safe.
  const Bitmap* bits = nullptr;
  {
    std::shared_lock lock(shard.mutex);
    const auto it =
        shard.records.find(std::make_pair(q.location, q.period));
    if (it == shard.records.end()) {
      response.status =
          Status{ErrorCode::kNotFound, "no record for location/period"};
      return response;
    }
    bits = &it->second.bits;
  }
  const CardinalityEstimate est = estimate_cardinality(*bits);
  response.result = est;
  response.summary = summarize_estimate(est, bits->size());
  return response;
}

QueryResponse QueryService::handle(const PointPersistentQuery& q) const {
  shard_for(q.location).queries->add();
  QueryResponse response;
  PresentBitmaps split = collect_present(q.location, q.periods);
  response.coverage = std::move(split.coverage);
  if (Status s = apply_missing_policy(q.missing, response.coverage);
      !s.is_ok()) {
    response.status = s;
    return response;
  }
  auto est = [&] {
    ScopedTimer kernel_span(&spans_, "eq12-kernel");
    auto r = estimate_point_persistent(split.bitmaps);
    kernel_span.set_ok(r.has_value());
    return r;
  }();
  if (!est) {
    response.status = est.status();
    return response;
  }
  response.result = *est;
  response.summary = summarize_estimate(*est);
  return response;
}

QueryResponse QueryService::handle(const RecentPersistentQuery& q) const {
  shard_for(q.location).queries->add();
  QueryResponse response;
  if (q.window == 0) {
    response.status = Status{ErrorCode::kInvalidArgument,
                             "recent window must be at least 1 period"};
    return response;
  }
  const std::vector<std::uint64_t> stored = periods_at(q.location);
  if (stored.empty()) {
    response.status =
        Status{ErrorCode::kNotFound, "no records stored for this location"};
    return response;
  }

  std::vector<std::uint64_t> wanted;
  if (q.missing == MissingPolicy::kFail) {
    // Strict mode keeps the pre-gap-tolerance contract: the `window` most
    // recent *stored* periods, NotFound when fewer exist.
    if (stored.size() < q.window) {
      response.status =
          Status{ErrorCode::kNotFound,
                 "fewer stored periods than the requested window"};
      return response;
    }
    wanted.assign(stored.end() - static_cast<std::ptrdiff_t>(q.window),
                  stored.end());
  } else {
    // Gap-aware mode: the trailing `window` period *numbers* ending at the
    // newest stored period ("the last 7 days"), gaps included so the
    // coverage report names them.
    const std::uint64_t newest = stored.back();
    const std::uint64_t first =
        newest >= q.window - 1 ? newest - (q.window - 1) : 0;
    for (std::uint64_t p = first; p <= newest; ++p) wanted.push_back(p);
  }

  PresentBitmaps split = collect_present(q.location, wanted);
  response.coverage = std::move(split.coverage);
  if (Status s = apply_missing_policy(q.missing, response.coverage);
      !s.is_ok()) {
    response.status = s;
    return response;
  }
  auto est = [&] {
    ScopedTimer kernel_span(&spans_, "eq12-kernel");
    auto r = estimate_point_persistent(split.bitmaps);
    kernel_span.set_ok(r.has_value());
    return r;
  }();
  if (!est) {
    response.status = est.status();
    return response;
  }
  response.result = *est;
  response.summary = summarize_estimate(*est);
  return response;
}

void QueryService::count_query(
    std::span<const std::uint64_t> locations) const {
  std::vector<const Shard*> touched;
  for (std::uint64_t location : locations) {
    const Shard* shard = &shard_for(location);
    if (std::find(touched.begin(), touched.end(), shard) == touched.end()) {
      touched.push_back(shard);
      shard->queries->add();
    }
  }
}

std::vector<const Bitmap*> QueryService::stored_bitmaps(
    std::uint64_t location, std::span<const std::uint64_t> periods) const {
  const Shard& shard = shard_for(location);
  std::vector<const Bitmap*> out;
  out.reserve(periods.size());
  std::shared_lock lock(shard.mutex);
  for (std::uint64_t period : periods) {
    const auto it = shard.records.find(std::make_pair(location, period));
    out.push_back(it == shard.records.end() ? nullptr : &it->second.bits);
  }
  return out;
}

// The cross-location handlers run both levels over the local store: the
// estimators' record-list entry points AND-join each location's records
// into pooled buffers and finish in the *_from_joins second level that
// run_two_level calls on joins from partition owners, so a cluster's
// answer is bit-identical without this path materializing any join.

QueryResponse QueryService::handle(const P2PPersistentQuery& q) const {
  count_query(std::array{q.location_a, q.location_b});
  QueryResponse response;
  // Both locations must hold every requested period.
  const std::vector<const Bitmap*> at_a = stored_bitmaps(q.location_a,
                                                         q.periods);
  const std::vector<const Bitmap*> at_b = stored_bitmaps(q.location_b,
                                                         q.periods);
  if (std::count(at_a.begin(), at_a.end(), nullptr) > 0 ||
      std::count(at_b.begin(), at_b.end(), nullptr) > 0) {
    response.status =
        Status{ErrorCode::kNotFound, "missing record for a requested period"};
    return response;
  }
  PointToPointOptions estimator_options;
  estimator_options.s = options_.s;
  auto est = [&] {
    ScopedTimer kernel_span(&spans_, "eq21-kernel");
    auto r = estimate_p2p_persistent(at_a, at_b, estimator_options);
    kernel_span.set_ok(r.has_value());
    return r;
  }();
  if (!est) {
    response.status = est.status();
    return response;
  }
  response.result = *est;
  response.summary = summarize_estimate(*est);
  return response;
}

QueryResponse QueryService::handle(const CorridorQuery& q) const {
  count_query(q.locations);
  QueryResponse response;
  // Lookups are the corridor's yield points: the deadline is re-checked
  // between locations, and an expiry abandons the query.
  std::vector<std::vector<const Bitmap*>> stored;
  stored.reserve(q.locations.size());
  for (std::uint64_t location : q.locations) {
    if (q.deadline.expired_now()) {
      response.status = Status{ErrorCode::kDeadlineExceeded,
                               "deadline expired during the corridor lookup"};
      return response;
    }
    stored.push_back(stored_bitmaps(location, q.periods));
  }
  // A period is present only when every corridor location stores it (the
  // joined estimate needs the full column).
  response.coverage.requested = q.periods;
  std::vector<std::vector<const Bitmap*>> per_location(q.locations.size());
  for (std::size_t i = 0; i < q.periods.size(); ++i) {
    const bool everywhere =
        std::all_of(stored.begin(), stored.end(),
                    [i](const auto& bitmaps) { return bitmaps[i] != nullptr; });
    (everywhere ? response.coverage.present : response.coverage.missing)
        .push_back(q.periods[i]);
    if (!everywhere) continue;
    for (std::size_t l = 0; l < stored.size(); ++l) {
      per_location[l].push_back(stored[l][i]);
    }
  }
  if (Status st = apply_missing_policy(q.missing, response.coverage);
      !st.is_ok()) {
    response.status = st;
    return response;
  }
  auto est = [&] {
    ScopedTimer kernel_span(&spans_, "corridor-kernel");
    auto r = estimate_corridor_persistent(per_location, options_.s);
    kernel_span.set_ok(r.has_value());
    return r;
  }();
  if (!est) {
    response.status = est.status();
    return response;
  }
  response.summary = summarize_estimate(*est);
  response.result = std::move(*est);
  return response;
}

QueryResponse QueryService::dispatch(const QueryRequest& request) const {
  return std::visit([this](const auto& q) { return handle(q); }, request);
}

QueryResponse QueryService::run(const QueryRequest& request) const {
  const auto start = std::chrono::steady_clock::now();
  const Deadline& deadline = query_deadline(request);
  const Shard& primary = shard_for(query_primary_location(request));
  QueryResponse response;
  if (deadline.expired_now()) {
    // Expired on arrival: refuse before spending admission or estimator
    // time.  The shard `queries` counter stays untouched - nothing ran.
    response.status = Status{ErrorCode::kDeadlineExceeded,
                             "deadline expired before execution began"};
  } else if (Status bounds = check_query_bounds(request); !bounds.is_ok()) {
    response.status = std::move(bounds);
  } else {
    Status admitted;
    {
      // Admission waits only happen with the gate enabled; the span is
      // suppressed otherwise so the unguarded hot path stays span-free.
      ScopedTimer wait_span(
          options_.admission.max_in_flight > 0 ? &spans_ : nullptr,
          "admission-wait");
      admitted = admission_.admit(deadline);
      wait_span.set_ok(admitted.is_ok());
    }
    if (!admitted.is_ok()) {
      response.status = admitted;
    } else {
      response = dispatch(request);
      admission_.release();
    }
  }
  switch (response.status.code()) {
    case ErrorCode::kDeadlineExceeded:
      primary.deadline_exceeded->add();
      break;
    case ErrorCode::kResourceExhausted:
      primary.shed->add();
      break;
    default:
      break;
  }
  response.latency_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  latency_.record(response.latency_ns);
  queries_total_.add();
  if (!response.ok()) {
    queries_failed_.add();
  }
  return response;
}

std::vector<QueryResponse> QueryService::run_batch(
    std::span<const QueryRequest> requests, std::size_t threads) const {
  std::vector<QueryResponse> responses(requests.size());
  parallel_for_indexed(
      requests.size(),
      [&](std::size_t i) { responses[i] = run(requests[i]); }, threads);
  return responses;
}

ServiceMetrics QueryService::metrics() const {
  ServiceMetrics out;
  out.shards.reserve(options_.n_shards);
  for (std::size_t i = 0; i < options_.n_shards; ++i) {
    const Shard& shard = shards_[i];
    ShardMetrics sm;
    {
      std::shared_lock lock(shard.mutex);
      sm.records = shard.records.size();
    }
    sm.ingest_ok = shard.ingest_ok->value();
    sm.ingest_duplicate = shard.ingest_duplicate->value();
    sm.ingest_rejected = shard.ingest_rejected->value();
    sm.queries = shard.queries->value();
    sm.shed = shard.shed->value();
    sm.deadline_exceeded = shard.deadline_exceeded->value();
    sm.archive_append = shard.archive_append->value();
    out.records_total += sm.records;
    out.ingest_ok_total += sm.ingest_ok;
    out.ingest_duplicate_total += sm.ingest_duplicate;
    out.ingest_rejected_total += sm.ingest_rejected;
    out.shed_total += sm.shed;
    out.deadline_exceeded_total += sm.deadline_exceeded;
    out.archive_append_total += sm.archive_append;
    out.shards.push_back(sm);
  }
  out.queries_total = queries_total_.value();
  out.queries_failed = queries_failed_.value();
  out.in_flight = admission_.in_flight();
  out.peak_in_flight = admission_.peak_in_flight();
  out.latency = latency_.snapshot();
  out.kernel_variant = simd::active().name;
  out.pool = BitmapPool::local().stats();
  return out;
}

}  // namespace ptm
