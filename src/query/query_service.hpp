// query_service.hpp - sharded, thread-safe record store + query engine.
//
// The paper's central server (§II-A, §II-D) is a single logical store of
// per-(location, period) traffic records, but a deployment ingests from
// many RSUs while answering planner queries - a many-writer/many-reader
// workload.  QueryService shards the record map by hash(location) %
// n_shards, guarding each shard with a std::shared_mutex: ingests take one
// shard's exclusive lock, queries take shared locks, and queries for
// different locations proceed fully in parallel.  All records of one
// location land in one shard, so every single-location query locks exactly
// one shard; cross-location queries (p2p, corridor) lock shards one at a
// time and never hold two locks at once (no lock-order concerns).
//
// Queries arrive as the unified QueryRequest variant (query_types.hpp) and
// are answered through exactly one execution path, `run`; `run_batch` fans
// a span of requests across a worker pool (common/parallel.hpp).  All
// instrumentation lives on a per-service TelemetryRegistry (obs/): the
// per-shard ingest/query counters are `ingest_ok{shard=i}`-style families,
// the latency histogram is the `query_latency_ns` instrument, and the
// admission gauges register on the same registry - ServiceMetrics remains
// as the thin snapshot view over those instruments.  A SpanRecorder
// ("query-service") collects ingest / admission-wait / estimator-kernel
// spans; traced ingests (TraceContext from the RSU pipeline) stitch into
// the end-to-end record timeline.
//
// Two robustness layers wrap that core:
//
//   * Durability (attach_durability): with a RecordArchive attached, a
//     first-accept ingest appends the record to the archive *before* it
//     becomes queryable and before the Ok that lets the RSU retire it from
//     its outbox - the server-side mirror of the RSU's
//     outbox-before-journal-reset discipline.  After a crash,
//     restore_from_archive() rebuilds the shards and the Eq. 2 volume
//     history from the archive alone; re-deliveries of in-flight uploads
//     land as idempotent duplicates.
//
//   * Overload control (QueryServiceOptions::admission): `run` passes
//     every request through an AdmissionController - bounded concurrency,
//     bounded wait queue, load shedding with kResourceExhausted - and
//     honors the request's Deadline before, while queued for, and during
//     execution (kDeadlineExceeded).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "core/traffic_record.hpp"
#include "obs/trace.hpp"
#include "query/admission.hpp"
#include "query/query_types.hpp"
#include "query/service_metrics.hpp"

namespace ptm {

class RecordArchive;

struct QueryServiceOptions {
  double load_factor = 2.0;  ///< system-wide f of Eq. 2
  std::size_t s = 3;         ///< encoding representative count (p2p/corridor)
  std::size_t n_shards = 16; ///< record-store shards; >= 1
  AdmissionOptions admission{};  ///< query overload policy (default: no gate)
};

/// Where the first-level joins of a cross-location query come from: the
/// joins of `locations` over `periods`, index-aligned; nullopt for a
/// location nobody could answer for, which then counts as storing nothing.
using JoinSource = std::function<std::vector<std::optional<LocationJoin>>(
    std::span<const std::uint64_t> locations,
    const std::vector<std::uint64_t>& periods)>;

/// Two-level execution of the cross-location shapes (§III-IV): the
/// first-level joins come from `source`, and the second level (Eq. 21 or
/// the corridor formula, representative count `s`) runs here.  The
/// cluster coordinator feeds it joins gathered from partition owners;
/// QueryService::run calls the estimators' record-list entry points, which
/// end in the same *_from_joins second level, so the two answers are
/// bit-identical.  A kSkipMissing corridor whose locations store different
/// periods asks `source` again - for the locations whose joins cover more
/// - over the periods every location stores; that second round happens
/// only when there are gaps.
[[nodiscard]] QueryResponse run_two_level(const P2PPersistentQuery& q,
                                          std::size_t s,
                                          const JoinSource& source);
[[nodiscard]] QueryResponse run_two_level(const CorridorQuery& q,
                                          std::size_t s,
                                          const JoinSource& source);

class QueryService {
 public:
  explicit QueryService(QueryServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  [[nodiscard]] const QueryServiceOptions& options() const noexcept {
    return options_;
  }

  /// Ingests an uploaded record.  Idempotent: a re-delivery carrying bytes
  /// identical to the stored (location, period) record is Ok (counted as a
  /// duplicate, history untouched); a *conflicting* record for an occupied
  /// slot and structurally invalid records are rejected.  On first accept
  /// the record's estimated point volume updates the location's historical
  /// average used by plan_size (Eq. 2).  With an archive attached the
  /// first accept is written ahead to it; an archive failure fails the
  /// ingest with nothing admitted to memory (the RSU keeps the record and
  /// retries).  Thread-safe.
  ///
  /// With an active `trace` (a record's pipeline TraceContext), the ingest
  /// and its archive append are recorded as spans on the service's
  /// SpanRecorder; an inactive trace records nothing and costs nothing.
  ///
  /// `first_accept` (optional) reports whether this call newly admitted
  /// the record (true) or deduplicated / rejected it (false) - the
  /// replication layer forwards exactly the first accepts, so a
  /// re-delivered upload never turns into a duplicate repl-record.
  Status ingest(const TrafficRecord& record, const TraceContext& trace = {},
                bool* first_accept = nullptr);

  /// Attaches the write-ahead archive.  Every later first-accept ingest
  /// appends to `archive` before returning Ok; the caller keeps ownership
  /// and must keep `archive` alive until detachment (wipe_volatile_state)
  /// or destruction.  External synchronization on `archive` is not needed:
  /// the service serializes its own archive access.
  void attach_durability(RecordArchive& archive);

  /// True while an archive is attached.
  [[nodiscard]] bool durable() const;

  /// Rebuilds the in-memory store from the attached archive: every live
  /// archive record missing from memory is inserted and folded into the
  /// Eq. 2 volume history (in (location, period) order, without
  /// re-appending or counting as new ingest).  Returns the number of
  /// records restored.  FailedPrecondition without an attached archive;
  /// a record that no longer reads back intact fails the restore with
  /// nothing inserted.
  [[nodiscard]] Result<std::size_t> restore_from_archive();

  /// Crash simulation: drops every record, history entry, counter, and the
  /// latency histogram, and detaches the archive - the state a freshly
  /// restarted server process would have before re-attaching its archive.
  void wipe_volatile_state();

  [[nodiscard]] std::size_t record_count() const;
  [[nodiscard]] bool has_record(std::uint64_t location,
                                std::uint64_t period) const;
  /// Periods stored for `location`, ascending.  Empty when unknown.
  [[nodiscard]] std::vector<std::uint64_t> periods_at(
      std::uint64_t location) const;

  /// Resumable position for records_batch: a shard index plus the last
  /// (location, period) key returned inside it.  Key-based, so inserts
  /// between batches never invalidate it.
  struct RecordCursor {
    std::size_t shard = 0;
    bool in_shard = false;  ///< last_* marks a key already returned
    std::uint64_t last_location = 0;
    std::uint64_t last_period = 0;
  };

  /// At most `max_records` stored records following `cursor` (copies -
  /// safe to use after the service mutates), advancing the cursor past
  /// them.  Order is per-shard (location, period), shards visited in
  /// index order; empty return = iteration complete.  Each batch holds one
  /// shard's shared lock only while copying that batch, so a slow consumer
  /// (a replication snapshot draining to a congested follower) never
  /// stalls concurrent ingest.  Records inserted behind the cursor are
  /// missed by design - the replication stream's live forwarding covers
  /// them.
  [[nodiscard]] std::vector<TrafficRecord> records_batch(
      RecordCursor& cursor, std::size_t max_records) const;

  /// Copies of the stored records at `location` for the given periods
  /// (missing periods are skipped; empty `periods` = every stored period,
  /// ascending).
  [[nodiscard]] std::vector<TrafficRecord> records_at_periods(
      std::uint64_t location, std::span<const std::uint64_t> periods) const;

  /// The first level of a p2p or corridor query at one location: the
  /// stored subset of `periods` (request order) and the AND-join of those
  /// records - what `run` computes for that location before the second
  /// level, so a join gathered from a partition owner reproduces the
  /// single-node estimate bit for bit.  A deadline already expired on
  /// arrival fails with kDeadlineExceeded, more than kMaxQueryPeriods
  /// periods with kInvalidArgument.  Each join that runs counts one query
  /// on the location's shard.  ptmd's join-call handler.
  [[nodiscard]] LocationJoin join_location(
      std::uint64_t location, std::span<const std::uint64_t> periods,
      const Deadline& deadline = {}) const;

  /// Eq. 2 with the location's historical average volume; `default_volume`
  /// for locations with no history yet.
  [[nodiscard]] std::size_t plan_size(std::uint64_t location,
                                      double default_volume = 1024.0) const;

  /// Executes one request of any shape - the single query execution path.
  /// Overload behavior: a request whose Deadline has already passed fails
  /// with kDeadlineExceeded without executing; otherwise the request takes
  /// an admission slot (possibly waiting, bounded by the deadline and the
  /// queue limit) and kResourceExhausted / kDeadlineExceeded from the gate
  /// are returned verbatim.  Either way the failure is counted against the
  /// primary location's shard (see query_primary_location).
  [[nodiscard]] QueryResponse run(const QueryRequest& request) const;

  /// Executes a batch concurrently across up to `threads` workers (0 =
  /// default_parallelism()).  Responses align index-for-index with the
  /// requests and are identical to issuing each through `run`.
  [[nodiscard]] std::vector<QueryResponse> run_batch(
      std::span<const QueryRequest> requests, std::size_t threads = 0) const;

  /// Point-in-time counters + latency histogram ("/stats").
  [[nodiscard]] ServiceMetrics metrics() const;

  /// The admission gate `run` passes every request through.  Exposed so
  /// overload tests (and monitoring) can occupy/inspect slots directly.
  [[nodiscard]] AdmissionController& admission() const noexcept {
    return admission_;
  }

  /// The registry every service instrument lives on (shard counter
  /// families, `query_latency_ns`, admission gauges).  Snapshot it and
  /// feed obs/export.hpp for Prometheus / JSON exposition.
  [[nodiscard]] TelemetryRegistry& telemetry() const noexcept {
    return telemetry_;
  }

  /// The service-side span buffer (ingest, admission-wait, estimator
  /// kernels).
  [[nodiscard]] SpanRecorder& spans() const noexcept { return spans_; }

 private:
  /// Minimal history accumulator (count + mean) planning Eq. 2 sizes.
  struct VolumeHistory {
    std::uint64_t count = 0;
    double mean = 0.0;
    void add(double x) noexcept {
      ++count;
      mean += (x - mean) / static_cast<double>(count);
    }
  };

  // Counters are registry instruments (`ingest_ok{shard=i}`, ...) wired up
  // at construction; the pointers are a cache of the registry handles so
  // the hot paths skip the registration lookup.
  struct Shard {
    mutable std::shared_mutex mutex;
    std::map<std::pair<std::uint64_t, std::uint64_t>, TrafficRecord> records;
    std::map<std::uint64_t, VolumeHistory> history;
    Counter* ingest_ok = nullptr;
    Counter* ingest_duplicate = nullptr;
    Counter* ingest_rejected = nullptr;
    Counter* queries = nullptr;
    Counter* shed = nullptr;
    Counter* deadline_exceeded = nullptr;
    Counter* archive_append = nullptr;
  };

  [[nodiscard]] Shard& shard_for(std::uint64_t location) const noexcept;

  /// Pointers to the location's stored bitmaps for the *stored* subset of
  /// `periods`, gathered under the shard's shared lock, plus the coverage
  /// split.  Never fails on gaps; `bitmaps` aligns index-for-index with
  /// `coverage.present`.  The pointers stay valid after the lock is
  /// released: the store is insert-only (no record is ever erased or
  /// overwritten - conflicting ingests are rejected) and std::map nodes
  /// are address-stable, so handlers feed the estimators' zero-copy
  /// pointer-span overloads without copying a single record.
  struct PresentBitmaps {
    std::vector<const Bitmap*> bitmaps;
    CoverageReport coverage;
  };
  [[nodiscard]] PresentBitmaps collect_present(
      std::uint64_t location, std::span<const std::uint64_t> periods) const;

  /// The location's stored bitmaps aligned with `periods`, nullptr where
  /// none is stored; collect_present's lookup, so equally address-stable.
  [[nodiscard]] std::vector<const Bitmap*> stored_bitmaps(
      std::uint64_t location, std::span<const std::uint64_t> periods) const;

  /// Counts one query on each distinct shard `locations` map to.
  void count_query(std::span<const std::uint64_t> locations) const;

  [[nodiscard]] QueryResponse dispatch(const QueryRequest& request) const;
  [[nodiscard]] QueryResponse handle(const PointVolumeQuery& q) const;
  [[nodiscard]] QueryResponse handle(const PointPersistentQuery& q) const;
  [[nodiscard]] QueryResponse handle(const RecentPersistentQuery& q) const;
  [[nodiscard]] QueryResponse handle(const P2PPersistentQuery& q) const;
  [[nodiscard]] QueryResponse handle(const CorridorQuery& q) const;

  QueryServiceOptions options_;
  // Declared before every member that registers on it.
  mutable TelemetryRegistry telemetry_;
  mutable SpanRecorder spans_;
  std::unique_ptr<Shard[]> shards_;
  LatencyRecorder& latency_;  ///< registry instrument "query_latency_ns"
  Counter& queries_total_;    ///< registry instrument "queries_total"
  Counter& queries_failed_;   ///< registry instrument "queries_failed"
  mutable AdmissionController admission_;
  // Write-ahead archive (nullptr = volatile mode).  archive_mutex_
  // serializes all access; when an ingest holds both its shard lock and
  // this mutex the order is always shard -> archive, and shard locks never
  // nest, so the lock graph is acyclic.
  RecordArchive* archive_ = nullptr;
  mutable std::mutex archive_mutex_;
};

}  // namespace ptm
