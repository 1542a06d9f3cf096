// query_types.hpp - the unified query API of the ptm_query subsystem.
//
// The paper's server answers several query shapes over the same record
// store (§II-A): point volume (Eq. 3), point persistent (Eq. 12), its
// rolling "last w periods" form, point-to-point persistent (Eq. 21), and
// the corridor extension.  Instead of one entry point per shape, every
// front end (CLI, examples, benches, batch API) speaks one variant-based
// QueryRequest/QueryResponse pair; QueryService::run is the single
// execution path that interprets them.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "common/deadline.hpp"
#include "common/status.hpp"
#include "core/corridor_persistent.hpp"
#include "core/linear_counting.hpp"
#include "core/p2p_persistent.hpp"
#include "core/point_persistent.hpp"
#include "query/estimate_summary.hpp"

namespace ptm {

/// What a multi-period query does about periods with no stored record.  A
/// fault-tolerant pipeline delivers every record *eventually*, but a query
/// can arrive while an RSU is still crashed or its outbox still draining.
enum class MissingPolicy {
  kFail,         ///< strict (the paper's model): any gap fails the query
  kSkipMissing,  ///< estimate over the present periods; report the gaps
};

/// Which requested periods actually had records - returned alongside every
/// multi-period estimate so a caller choosing kSkipMissing can judge how
/// much of the window the answer really covers.  For corridor queries a
/// period is `present` only when *every* corridor location stores it.
struct CoverageReport {
  std::vector<std::uint64_t> requested;  ///< periods the query asked for
  std::vector<std::uint64_t> present;    ///< subset with stored records
  std::vector<std::uint64_t> missing;    ///< subset without

  [[nodiscard]] bool complete() const noexcept { return missing.empty(); }
};

/// Combines two coverage views of one logical query - e.g. per-partition
/// reports gathered by the cluster coordinator, or a fetch-stage report
/// merged with the local execution's report.  Corridor semantics: the
/// merged `requested` is the union, and a period is `present` only when no
/// contributing report counts it missing - a partition that could not be
/// reached degrades the answer to partial coverage instead of failing it.
/// All three vectors come back sorted and deduplicated.
[[nodiscard]] CoverageReport merge_coverage(const CoverageReport& a,
                                            const CoverageReport& b);

// Every query shape carries a Deadline (default: unbounded).  A request
// whose deadline has passed on arrival - or passes mid-execution, checked
// at the yield points of multi-location queries - completes with
// kDeadlineExceeded instead of burning estimator time on an answer nobody
// is still waiting for; the CoverageReport gathered so far is returned.
// The deadline also bounds time spent queued at admission (see
// query/admission.hpp).

/// Point traffic volume at one (location, period) - Eq. 3.
struct PointVolumeQuery {
  std::uint64_t location = 0;
  std::uint64_t period = 0;
  Deadline deadline{};
};

/// Point persistent traffic at one location over explicit periods - Eq. 12.
/// Under kSkipMissing, stored periods alone feed the estimate (at least two
/// must be present; otherwise NotFound with the coverage report populated).
struct PointPersistentQuery {
  std::uint64_t location = 0;
  std::vector<std::uint64_t> periods;
  MissingPolicy missing = MissingPolicy::kFail;
  Deadline deadline{};
};

/// Rolling form of Eq. 12 over the trailing `window` periods at the
/// location.  window == 0 is InvalidArgument.  Under kFail the `window`
/// most recent *stored* periods are used and fewer stored than `window` is
/// NotFound (the pre-gap-tolerance behavior).  Under kSkipMissing the
/// window is the trailing `window` period *numbers* ending at the newest
/// stored period; gaps inside it are skipped and reported as coverage.
struct RecentPersistentQuery {
  std::uint64_t location = 0;
  std::size_t window = 0;
  MissingPolicy missing = MissingPolicy::kFail;
  Deadline deadline{};
};

/// Point-to-point persistent traffic between two locations over explicit
/// periods - Eq. 21.  Both locations must hold every requested period.
struct P2PPersistentQuery {
  std::uint64_t location_a = 0;
  std::uint64_t location_b = 0;
  std::vector<std::uint64_t> periods;
  Deadline deadline{};
};

/// Corridor persistent traffic through k >= 2 locations over explicit
/// periods (the k-location generalization of Eq. 21).  Under kSkipMissing
/// a period counts as present only when every corridor location stores it;
/// partially-covered periods are skipped and reported.
struct CorridorQuery {
  std::vector<std::uint64_t> locations;
  std::vector<std::uint64_t> periods;
  MissingPolicy missing = MissingPolicy::kFail;
  Deadline deadline{};
};

/// One request, any shape.
using QueryRequest =
    std::variant<PointVolumeQuery, PointPersistentQuery,
                 RecentPersistentQuery, P2PPersistentQuery, CorridorQuery>;

/// The typed payload of a successful response; monostate while failed.
using QueryResult =
    std::variant<std::monostate, CardinalityEstimate, PointPersistentEstimate,
                 PointToPointPersistentEstimate, CorridorPersistentEstimate>;

struct QueryResponse {
  Status status;        ///< ok iff `result` holds an estimate
  QueryResult result;   ///< shape matches the request's query kind
  EstimateSummary summary;  ///< unified view; valid only when status is ok
  /// Period coverage for multi-period queries (persistent/recent/corridor).
  /// Populated even on NotFound so callers can see *which* periods gapped.
  /// QueryService::run leaves it empty for single-period and p2p queries;
  /// ClusterCoordinator::run merges in the periods every request names
  /// (cluster/coordinator.hpp), so a cluster's p2p answer lists them.
  CoverageReport coverage;
  std::uint64_t latency_ns = 0;  ///< service-side execution time

  [[nodiscard]] bool ok() const noexcept { return status.is_ok(); }

  /// Typed accessor: the contained estimate, or the failure Status.
  /// Precondition when ok(): the response actually holds a T (i.e. T
  /// corresponds to the request shape that produced this response).
  template <typename T>
  [[nodiscard]] Result<T> as() const {
    if (!status.is_ok()) return status;
    return std::get<T>(result);
  }
};

/// One location's first level of a cross-location query (p2p, corridor;
/// §IV): which requested periods the location stores, and the AND-join E_*
/// of exactly those periods' records.  QueryService::join_location
/// computes it where the records live; the cluster coordinator gathers one
/// per location and runs only the second level.
struct LocationJoin {
  /// The join's own failure (e.g. a deadline that expired on arrival);
  /// ok when nothing is stored, with `join` then empty.
  Status status;
  std::vector<std::uint64_t> present;  ///< stored subset, request order
  Bitmap join;  ///< E_* over `present`; empty when none is or it failed
};

/// The most periods one request may name, and the longest recent window.
/// Every multi-period answer lists its periods (the CoverageReport, a
/// join's `present`), so the caller would otherwise size the reply: a
/// pushed-down call's reply must fit in one transport frame (16 MiB), and
/// a gap-aware recent window lists every period number it spans.  At the
/// bound a reply's lists take 1.5 MiB; the paper's windows are tens of
/// periods.
inline constexpr std::size_t kMaxQueryPeriods = std::size_t{1} << 16;

/// InvalidArgument when `request` names more than kMaxQueryPeriods periods
/// or asks for a longer recent window; Ok otherwise.  QueryService::run,
/// QueryService::join_location and ClusterCoordinator::run refuse such
/// requests before touching a record.
[[nodiscard]] Status check_query_bounds(const QueryRequest& request);

/// Short human-readable name of a request's shape ("point-volume", ...).
[[nodiscard]] const char* query_kind_name(const QueryRequest& request) noexcept;

/// The deadline a request carries, whatever its shape.
[[nodiscard]] const Deadline& query_deadline(
    const QueryRequest& request) noexcept;

/// The periods a request names explicitly: {period} for point volume,
/// none for a recent window (it is resolved against the stored history),
/// the period list otherwise.
[[nodiscard]] std::vector<std::uint64_t> query_named_periods(
    const QueryRequest& request);

/// The request's primary location: the single location for point-style
/// shapes, location_a for p2p, the first listed location for corridors
/// (0 for an empty corridor).  Shed/deadline metrics are attributed to the
/// primary location's shard.
[[nodiscard]] std::uint64_t query_primary_location(
    const QueryRequest& request) noexcept;

}  // namespace ptm
