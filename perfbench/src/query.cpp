// query.cpp - the `query` workload on a three-node cluster.
//
// Three durable ClusterNodes with rf = 2 on unix sockets.  Set-up preloads
// 64 locations x 48 periods through ClusterCoordinator::ingest and waits
// until every replica holds its share.  One coordinator thread (three
// connections, one per node) then runs an equal, seeded mix of point
// (t = 10), recent (w = 10), p2p (t = 10) and corridor (4 locations,
// t = 10) queries: the scatter-gather fetch, the scratch re-ingest and the
// estimators.  Every answer is compared with an in-process QueryService
// holding the preload.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/node.hpp"
#include "common/bitmap_pool.hpp"
#include "ledger.hpp"

namespace perfbench {
namespace {

namespace cl = ptm::cluster;

constexpr std::uint64_t kNodes = 3;
constexpr std::size_t kReplication = 2;
constexpr std::uint64_t kLocations = 64;
constexpr std::uint64_t kPreloadPeriods = 48;
constexpr std::size_t kPeriodsPerQuery = 10;  // t = 10, w = 10 (§VI)
constexpr std::size_t kCorridorLength = 4;
constexpr std::size_t kShapes = std::size(kShapeNames);
constexpr std::size_t kPoolPerShape = 64;
constexpr std::size_t kBodies = 256;
constexpr std::uint64_t kWarmupOps = 64;
/// Queries per second of --seconds (about --seconds long on a 4-vCPU host).
constexpr std::uint64_t kQueriesPerSecond = 2000;
constexpr std::size_t kFloorSample = 2048;
constexpr auto kIoBudget = std::chrono::seconds(5);
constexpr auto kConvergeBudget = std::chrono::seconds(60);

constexpr const char* kRunSpan[] = {"cluster.run.point", "cluster.run.recent",
                                    "cluster.run.p2p", "cluster.run.corridor"};

std::size_t index(Shape s) { return static_cast<std::size_t>(s); }

class Rig {
 public:
  Rig(const Args& args, std::filesystem::path dir)
      : seed_(args.seed), dir_(std::move(dir)) {
    std::filesystem::create_directories(dir_);
    corpus = std::make_unique<Corpus>(args.seed, kBodies);
    build_pool();
    start_cluster();
    preload();
    for (std::uint64_t j = 0; j < kWarmupOps; ++j) {
      if (!coord->run(pool[pool_index(j)]).ok()) {
        throw std::runtime_error("warm-up query failed");
      }
    }
  }

  ~Rig() {
    coord.reset();
    for (auto& node : nodes) node->stop();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// The pool entry op `j` runs: shapes rotate, entries are seeded.
  [[nodiscard]] std::size_t pool_index(std::uint64_t j) const {
    return (j % kShapes) * kPoolPerShape +
           mix64(seed_ ^ 0x51D5 ^ mix64(j)) % kPoolPerShape;
  }

  std::unique_ptr<Corpus> corpus;
  std::vector<std::unique_ptr<cl::ClusterNode>> nodes;
  std::unique_ptr<cl::ClusterCoordinator> coord;
  std::unique_ptr<ptm::QueryService> reference;
  std::vector<ptm::QueryRequest> pool;      ///< kPoolPerShape per shape
  std::vector<ptm::QueryResponse> expected;  ///< reference answer per entry
  double converge_s = 0.0;

 private:
  void build_pool() {
    const auto h = [&](std::uint64_t salt, std::uint64_t i) {
      return mix64(seed_ ^ mix64(salt * 0x100000 + i));
    };
    const auto periods = [&](std::uint64_t i) {
      const std::uint64_t first =
          h(1, i) % (kPreloadPeriods - kPeriodsPerQuery + 1);
      std::vector<std::uint64_t> out(kPeriodsPerQuery);
      for (std::size_t p = 0; p < out.size(); ++p) out[p] = first + p;
      return out;
    };
    const auto distinct_locations = [&](std::uint64_t i, std::size_t count) {
      std::vector<std::uint64_t> out;
      for (std::uint64_t n = 0; out.size() < count; ++n) {
        const std::uint64_t loc = 1 + h(2, i * 64 + n) % kLocations;
        if (std::find(out.begin(), out.end(), loc) == out.end()) {
          out.push_back(loc);
        }
      }
      return out;
    };
    for (std::size_t s = 0; s < kShapes; ++s) {
      const auto shape = static_cast<Shape>(s);
      for (std::uint64_t e = 0; e < kPoolPerShape; ++e) {
        const std::uint64_t i = s * kPoolPerShape + e;
        switch (shape) {
          case Shape::kPoint:
            pool.emplace_back(ptm::PointPersistentQuery{
                distinct_locations(i, 1)[0], periods(i)});
            break;
          case Shape::kRecent:
            pool.emplace_back(ptm::RecentPersistentQuery{
                distinct_locations(i, 1)[0], kPeriodsPerQuery});
            break;
          case Shape::kP2P: {
            const auto locs = distinct_locations(i, 2);
            pool.emplace_back(
                ptm::P2PPersistentQuery{locs[0], locs[1], periods(i)});
            break;
          }
          case Shape::kCorridor:
            pool.emplace_back(ptm::CorridorQuery{
                distinct_locations(i, kCorridorLength), periods(i)});
            break;
        }
      }
    }
  }

  void start_cluster() {
    cl::ClusterConfig config;
    for (std::uint64_t id = 1; id <= kNodes; ++id) {
      cl::ClusterNodeSpec spec;
      spec.node_id = id;
      const std::string n = std::to_string(id);
      spec.client.path = (dir_ / cat("n", n, ".sock")).string();
      spec.repl.path = (dir_ / cat("r", n, ".sock")).string();
      config.nodes.push_back(std::move(spec));
    }
    config.replication_factor = kReplication;
    for (std::uint64_t id = 1; id <= kNodes; ++id) {
      cl::ClusterNodeOptions options;
      options.config = config;
      options.node_id = id;
      options.server.archive_path =
          (dir_ / cat("n", std::to_string(id), ".archive")).string();
      auto node = cl::ClusterNode::create(std::move(options));
      if (!node) throw std::runtime_error(node.status().to_string());
      if (ptm::Status s = (*node)->start(); !s.is_ok()) {
        throw std::runtime_error("node start: " + s.to_string());
      }
      nodes.push_back(std::move(*node));
    }
    cl::ClusterCoordinatorOptions options;
    options.config = config;
    options.seed = seed_;
    coord = std::make_unique<cl::ClusterCoordinator>(std::move(options));
  }

  void preload() {
    reference = std::make_unique<ptm::QueryService>();
    for (std::uint64_t loc = 1; loc <= kLocations; ++loc) {
      for (std::uint64_t p = 0; p < kPreloadPeriods; ++p) {
        const ptm::TrafficRecord rec = corpus->record(loc, p);
        if (ptm::Status s = coord->ingest(rec, ptm::Deadline::after(kIoBudget));
            !s.is_ok()) {
          throw std::runtime_error("preload ingest: " + s.to_string());
        }
        if (!reference->ingest(rec).is_ok()) {
          throw std::runtime_error("reference ingest failed");
        }
      }
    }
    const auto start = Clock::now();
    const cl::PartitionMap& map = nodes.front()->partition_map();
    const auto converged = [&] {
      for (auto& n : nodes) {
        for (std::uint64_t loc = 1; loc <= kLocations; ++loc) {
          if (!map.should_hold(n->node_id(), loc)) continue;
          if (n->server().service().periods_at(loc).size() < kPreloadPeriods) {
            return false;
          }
        }
      }
      return true;
    };
    while (!converged()) {
      if (Clock::now() - start > kConvergeBudget) {
        throw std::runtime_error("replication did not converge");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    converge_s = seconds_between(start, Clock::now());
    expected.reserve(pool.size());
    for (const ptm::QueryRequest& q : pool) {
      expected.push_back(reference->run(q));
      if (!expected.back().ok()) {
        throw std::runtime_error("reference query failed: " +
                                 expected.back().status.to_string());
      }
      expected.back().coverage = cluster_coverage(q, expected.back().coverage);
    }
  }

  std::uint64_t seed_;
  std::filesystem::path dir_;
};

class QueryWorkload final : public Workload {
 public:
  explicit QueryWorkload(const Args& args)
      : args_(args),
        ops_(std::max<std::uint64_t>(1, args.seconds * kQueriesPerSecond)),
        responses_(ops_) {}

  std::uint64_t ops() const override { return ops_; }
  std::size_t threads() const override { return 1; }

  void set_up(const std::filesystem::path& dir) override {
    rig_ = std::make_unique<Rig>(args_, dir);
  }
  void tear_down() override { rig_.reset(); }

  Window drive(std::uint64_t begin, std::uint64_t end, Clock::time_point start,
               const std::vector<SpanSink*>& sinks) override {
    Window w(start, kShapes);
    SpanSink* sink = sinks.empty() ? nullptr : sinks[0];
    const auto pool_before = ptm::BitmapPool::local().stats();
    for (std::uint64_t i = begin; i < end; ++i) {
      const std::uint64_t j = kWarmupOps + i;
      const auto op_start = Clock::now();
      const ptm::QueryRequest& request = rig_->pool[rig_->pool_index(j)];
      const std::size_t shape = index(shape_of(request));
      const auto t0 = Clock::now();
      ptm::QueryResponse response = rig_->coord->run(request);
      const auto t1 = Clock::now();
      if (response.ok()) w.add(shape, t0, t1);
      responses_[i] = std::move(response);
      if (sink != nullptr) {
        const std::uint64_t root = sink->reserve_id();
        sink->add(kRunSpan[shape], root, j, t0, t1);
        sink->add(root, "op.query", 0, j, op_start, Clock::now());
      }
    }
    if (sink != nullptr) {
      const auto pool_after = ptm::BitmapPool::local().stats();
      pool_reuses_ = static_cast<double>(pool_after.reuses - pool_before.reuses);
      pool_acquires_ =
          pool_reuses_ +
          static_cast<double>(pool_after.allocations - pool_before.allocations);
    }
    return w;
  }

  std::uint64_t counter_sum(const char* name) override {
    std::uint64_t sum = 0;
    for (auto& n : rig_->nodes) {
      sum += n->server().telemetry().snapshot().counter_sum(name);
    }
    return sum;
  }

  void layer_values(const Window& plain, const Window& /*traced*/,
                    const std::map<std::string, SpanStats>& spans,
                    Values& v) override {
    v["e2e.query_qps"] = plain.rate();
    std::vector<double> all;
    for (std::size_t s = 0; s < kShapes; ++s) {
      const auto& samples = plain.class_us[s];
      v[std::string("e2e.") + kShapeNames[s] + "_p50_us"] =
          percentile(samples, 0.5);
      all.insert(all.end(), samples.begin(), samples.end());
    }
    v["e2e.query_p90_us"] = percentile(all, 0.9);
    v["e2e.query_p99_us"] = percentile(all, 0.99);
    v["query.pool_reuse_ratio"] =
        pool_acquires_ > 0 ? pool_reuses_ / pool_acquires_ : 0.0;
    v["cluster.repl_records"] =
        static_cast<double>(counter_sum("transport_repl_records_total"));
    v["cluster.converge_s"] = rig_->converge_s;

    std::vector<ptm::TrafficRecord> sample;
    for (std::uint64_t k = 0; k < kFloorSample; ++k) {
      sample.push_back(
          rig_->corpus->record(1 + k % kLocations, k / kLocations));
    }
    measure_floors(sample, rig_->pool, rig_->reference.get(), ".", v);
    for (std::size_t s = 0; s < kShapes; ++s) {
      const auto it = spans.find(kRunSpan[s]);
      if (it == spans.end()) continue;
      const std::string shape = kShapeNames[s];
      const double cluster_us = percentile(it->second.durations_us, 0.5);
      v["cluster.query_us." + shape] = cluster_us;
      v["cluster.gather_share." + shape] =
          1.0 - v["query.run_us." + shape] / cluster_us;
    }
  }

  /// Two checks per query, each against the reference answer: the status
  /// and estimate, and the coverage report.  Kept apart so that a
  /// difference in one cannot hide one in the other.
  std::uint64_t check(bool plant_wrong, RunResult& result) override {
    std::vector<ptm::QueryResponse> expected = rig_->expected;
    if (plant_wrong) {
      // The entry of the window's first p2p query: a wrong estimate must
      // count even though the coverage check of the same answer passes.
      std::uint64_t j = kWarmupOps;
      while (shape_of(rig_->pool[rig_->pool_index(j)]) != Shape::kP2P) ++j;
      auto& value = expected[rig_->pool_index(j)].summary.value;
      value = std::nextafter(value, HUGE_VAL);
    }
    // Mismatches of one shape usually share a cause: report each distinct
    // (shape, difference) once, with its count and first op.
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> mismatches;
    const auto note = [&](const ptm::QueryRequest& request,
                          const std::string& diff, std::uint64_t j) {
      const std::string key = std::string(kShapeNames[index(shape_of(request))]) +
                              " answer differs from the reference: " + diff;
      ++mismatches.try_emplace(key, 0, j).first->second.first;
    };
    result.attempted += 2 * ops_;
    std::uint64_t passed = 0;
    for (std::uint64_t i = 0; i < ops_; ++i) {
      const std::uint64_t j = kWarmupOps + i;
      const std::size_t entry = rig_->pool_index(j);
      for (const std::string& diff :
           {estimate_diff(responses_[i], expected[entry]),
            coverage_diff(responses_[i], expected[entry])}) {
        if (diff.empty()) {
          ++passed;
        } else {
          note(rig_->pool[entry], diff, j);
        }
      }
    }
    for (const auto& [key, seen] : mismatches) {
      result.problems.push_back(std::to_string(seen.first) + " x " + key +
                                " (first at op " + std::to_string(seen.second) +
                                ")");
    }
    return passed;
  }

 private:
  Args args_;
  std::uint64_t ops_;
  std::vector<ptm::QueryResponse> responses_;  ///< by op
  std::unique_ptr<Rig> rig_;
  double pool_reuses_ = 0.0;
  double pool_acquires_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_query(const Args& args) {
  return std::make_unique<QueryWorkload>(args);
}

}  // namespace perfbench
