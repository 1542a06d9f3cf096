// bench.hpp - shared pieces of the ptm end-to-end benchmark.
//
// The benchmark runs the whole system in one process on unix sockets: a
// durable PtmdServer for the `ingest` workload, three durable ClusterNodes
// with rf = 2 for `query`.  Every loop is closed (each client
// thread waits for its reply before sending again), every latency is an
// exact steady_clock sample, and every answer is checked against an
// in-process reference after the timed window.  README.md lists the
// workloads, the metrics and the only entry points the benchmark calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bitmap.hpp"
#include "core/traffic_record.hpp"
#include "query/query_service.hpp"
#include "query/query_types.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline std::uint64_t ns_between(Clock::time_point a,
                                              Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// splitmix64 finalizer: the benchmark's only source of randomness, so a
/// seed fixes every input regardless of the library's own generators.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Concatenates strings and string literals.
template <typename... Parts>
[[nodiscard]] std::string cat(const Parts&... parts) {
  std::string out;
  (out += ... += parts);
  return out;
}

/// "(location, period)", the key failure reports name a record by.
[[nodiscard]] inline std::string record_key(std::uint64_t location,
                                            std::uint64_t period) {
  return cat("(", std::to_string(location), ", ", std::to_string(period),
             ")");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  bool trace = false;
  /// Self-test: plant one wrong reference answer and one missing record,
  /// so the reference checks must fail.
  bool plant_faults = false;
  std::string out_dir;  ///< where a traced run writes its spans
};

/// Metric name -> value.  main.cpp holds the list of names and units;
/// a name a workload does not set prints as 0 (layer idle there).
using Values = std::map<std::string, double>;

/// Per-name reduction of a traced run's spans.
struct SpanStats {
  std::vector<double> durations_us;  ///< one per span, unsorted
  double self_us_total = 0.0;        ///< sum of self times
};

/// What one workload run reports.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Values values;
  std::vector<double> setup_s;        ///< every set-up's time, in order
  std::vector<std::string> problems;  ///< every failed check, by op
  std::string spans_path;             ///< traced run: the JSON-lines file
  std::map<std::string, SpanStats> span_stats;  ///< traced run, by name
};

/// Exact order statistic (nearest rank) of `samples`; 0 for an empty
/// sample.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Throughput as the median, over the consecutive kRateSlice-long slices
/// of a window, of the completions per second in each; `done_s` holds
/// completion times in seconds since the window began.  A stall - page
/// cache writeback, a vCPU the host has descheduled - moves it far less
/// than it moves the window's mean rate.
inline constexpr double kRateSlice = 0.1;
[[nodiscard]] double median_rate(const std::vector<double>& done_s,
                                 double window_s);

/// Geometric mean; 0 if any value is 0 or the list is empty.
[[nodiscard]] double geomean(const std::vector<double>& values);

/// CPU time (user + sys) this process has used so far, in microseconds.
[[nodiscard]] double process_cpu_us();
/// Peak resident set size so far, in MB.
[[nodiscard]] double peak_rss_mb();

// ---- inputs -------------------------------------------------------------

/// A pool of period bitmaps planned and filled the way the paper's §VI
/// experiments do: per-period volume n ~ U(2000, 10000], m from Eq. 2
/// with load factor f = 2 (4-32 Kbit), one bit per passing vehicle.  A
/// fleet of vehicles passes in every period, so persistent estimates are
/// non-trivial.  Records take their bitmap from the pool by a seeded hash
/// of (location, period), so any number of unique records can be replayed
/// without holding them all in memory.
class Corpus {
 public:
  Corpus(std::uint64_t seed, std::size_t bodies);

  [[nodiscard]] ptm::TrafficRecord record(std::uint64_t location,
                                          std::uint64_t period) const;

 private:
  std::uint64_t seed_;
  std::vector<ptm::Bitmap> bodies_;
};

/// The shapes a query op can take; names are the metric suffixes.
enum class Shape : std::uint8_t { kPoint, kRecent, kP2P, kCorridor };
inline constexpr const char* kShapeNames[] = {"point", "recent", "p2p",
                                              "corridor"};
[[nodiscard]] Shape shape_of(const ptm::QueryRequest& request);

/// Empty when `got` matches `want` exactly - status code and the estimate
/// (value and fill compared as bit patterns, outcome, m) - otherwise the
/// first difference, for the failure report.
[[nodiscard]] std::string estimate_diff(const ptm::QueryResponse& got,
                                        const ptm::QueryResponse& want);
/// The coverage a healthy cluster reports for `request`, given the report
/// `local` of a single QueryService holding the same records.
/// ClusterCoordinator::run folds a fetch-stage report into every answer
/// (coordinator.hpp): the periods the request names, all present when every
/// partition is reachable.  So a p2p answer, whose local report is empty,
/// lists its periods as requested and present.
[[nodiscard]] ptm::CoverageReport cluster_coverage(
    const ptm::QueryRequest& request, const ptm::CoverageReport& local);
/// Empty when the two coverage reports are equal, otherwise their sizes.
[[nodiscard]] std::string coverage_diff(const ptm::QueryResponse& got,
                                        const ptm::QueryResponse& want);

// ---- floors --------------------------------------------------------------

/// Median cost per call, in microseconds, of replaying a workload's own
/// inputs through the lower layers' public functions in this thread, with
/// no socket in between: the floor each layer sets under the end-to-end
/// path.  Writes into `values` under the per-layer metric names.
void measure_floors(const std::vector<ptm::TrafficRecord>& records,
                    const std::vector<ptm::QueryRequest>& queries,
                    const ptm::QueryService* reference,
                    const std::filesystem::path& scratch_dir, Values& values);

// ---- workloads ----------------------------------------------------------

/// The ops one timed window completed.
struct Window {
  Window(Clock::time_point start, std::size_t classes)
      : start(start), class_us(classes) {}

  /// Records op class `op_class` completing: called between t0 and t1.
  void add(std::size_t op_class, Clock::time_point t0, Clock::time_point t1) {
    class_us[op_class].push_back(static_cast<double>(ns_between(t0, t1)) /
                                 1e3);
    done_s.push_back(seconds_between(start, t1));
  }
  /// Appends another thread's ops of the same window.
  void merge(const Window& other);

  [[nodiscard]] std::uint64_t completed() const { return done_s.size(); }
  [[nodiscard]] double rate() const { return median_rate(done_s, seconds); }

  Clock::time_point start;
  double seconds = 0.0;  ///< set by the harness
  double cpu_us = 0.0;   ///< set by the harness
  /// Exact latency of every completed op in microseconds, by op class: the
  /// upload (ingest), one class per query shape (query).
  std::vector<std::vector<double>> class_us;
  std::vector<double> done_s;  ///< completion times, seconds into the window
};

class SpanSink;

/// One workload, as the shared run skeleton (run_workload) drives it.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Ops one run times; fixed per second of --seconds.
  [[nodiscard]] virtual std::uint64_t ops() const = 0;
  /// Client threads drive() runs: one span sink each.
  [[nodiscard]] virtual std::size_t threads() const = 0;
  /// Starts the system in `dir`, generates the inputs and warms up: what
  /// setup_s times.  The harness calls tear_down() first.
  virtual void set_up(const std::filesystem::path& dir) = 0;
  virtual void tear_down() = 0;
  /// Runs ops [begin, end) from closed-loop client threads.  A traced
  /// call passes one sink per thread, an untraced one none.
  [[nodiscard]] virtual Window drive(std::uint64_t begin, std::uint64_t end,
                                     Clock::time_point start,
                                     const std::vector<SpanSink*>& sinks) = 0;
  /// A telemetry counter summed over every server.
  [[nodiscard]] virtual std::uint64_t counter_sum(const char* name) = 0;
  /// The workload's own per-layer metrics of a traced run: its e2e.*
  /// figures from the untraced half, floors and derived shares.
  virtual void layer_values(const Window& plain, const Window& traced,
                            const std::map<std::string, SpanStats>& spans,
                            Values& values) = 0;
  /// Runs the reference checks after the window.  Adds every check made
  /// to result.attempted and every failure to result.problems; returns
  /// the checks passed.
  [[nodiscard]] virtual std::uint64_t check(bool plant_faults,
                                            RunResult& result) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_ingest(const Args& args);
[[nodiscard]] std::unique_ptr<Workload> make_query(const Args& args);

}  // namespace perfbench
