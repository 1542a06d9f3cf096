// Integration tests for the cluster coordinator (docs/cluster.md): ingest
// routing with replica failover, pushed-down queries whose answers match
// the single-node execution path exactly (large records included),
// partial coverage when a partition has no reachable replica, the
// no-failover rule for fatal nacks, and cluster_status health polling.
// In-process ClusterNodes on unix sockets; process-kill failover is
// cluster_chaos_test's job.
#include "cluster/coordinator.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "cluster/node.hpp"
#include "cluster/partition.hpp"
#include "common/deadline.hpp"
#include "core/corridor_persistent.hpp"
#include "core/traffic_record.hpp"
#include "query/query_service.hpp"
#include "query/query_types.hpp"

namespace ptm::cluster {
namespace {

using namespace std::chrono_literals;

TrafficRecord make_record(std::uint64_t location, std::uint64_t period) {
  TrafficRecord rec;
  rec.location = location;
  rec.period = period;
  rec.bits = Bitmap(256);
  // A deterministic, location/period-dependent population so persistent
  // intersections are non-trivial.
  for (std::uint64_t i = 0; i < 40; ++i) {
    rec.bits.set((location * 17 + period * 5 + i * 3) % 256);
  }
  return rec;
}

class ClusterCoordinatorTest : public ::testing::Test {
 protected:
  transport::Endpoint endpoint(const std::string& tag) {
    transport::Endpoint ep;
    ep.kind = transport::Endpoint::Kind::kUnix;
    ep.path = ::testing::TempDir() + "/ptm_ccoord_" + suffix_ + tag + "_" +
              std::to_string(::getpid()) + ".sock";
    return ep;
  }

  ClusterConfig make_config(std::size_t nodes, std::size_t rf) {
    ClusterConfig config;
    for (std::uint64_t id = 1; id <= nodes; ++id) {
      ClusterNodeSpec spec;
      spec.node_id = id;
      spec.client = endpoint("c" + std::to_string(id));
      spec.repl = endpoint("r" + std::to_string(id));
      config.nodes.push_back(std::move(spec));
    }
    config.replication_factor = rf;
    return config;
  }

  void start_cluster(std::size_t nodes, std::size_t rf,
                     const std::string& suffix,
                     std::uint64_t idle_timeout_ms = 0) {
    suffix_ = suffix;
    config_ = make_config(nodes, rf);
    for (const ClusterNodeSpec& spec : config_.nodes) {
      ClusterNodeOptions options;
      options.config = config_;
      options.node_id = spec.node_id;
      options.server.idle_timeout_ms = idle_timeout_ms;
      auto node = ClusterNode::create(std::move(options));
      ASSERT_TRUE(node.has_value()) << node.status().to_string();
      ASSERT_TRUE((*node)->start().is_ok());
      nodes_.push_back(std::move(*node));
    }
  }

  void TearDown() override {
    for (auto& node : nodes_) {
      if (node) node->stop();
    }
  }

  ClusterNode* node(std::uint64_t id) {
    for (auto& n : nodes_) {
      if (n && n->node_id() == id) return n.get();
    }
    return nullptr;
  }

  void stop_node(std::uint64_t id) {
    for (auto& n : nodes_) {
      if (n && n->node_id() == id) {
        n->stop();
        n.reset();
      }
    }
  }

  std::unique_ptr<ClusterCoordinator> make_coordinator() {
    ClusterCoordinatorOptions options;
    options.config = config_;
    options.tuning.connect_timeout_ms = 300;
    options.tuning.io_timeout_ms = 1000;
    options.tuning.heartbeat_timeout_ms = 1000;
    options.tuning.backoff_base_ms = 2;
    options.tuning.backoff_cap_ms = 50;
    options.seed = 99;
    return std::make_unique<ClusterCoordinator>(std::move(options));
  }

  /// Some location owned by `node_id` (the maps agree cluster-wide).
  std::uint64_t location_owned_by(const PartitionMap& map,
                                  std::uint64_t node_id) {
    for (std::uint64_t location = 1; location < 100000; ++location) {
      if (map.owner(location) == node_id) return location;
    }
    ADD_FAILURE() << "no location owned by node " << node_id;
    return 0;
  }

  /// What the coordinator reports on a healthy cluster: the single-node
  /// report merged with a fetch-stage report that names the request's
  /// periods (none for a recent window), all reached.
  static CoverageReport healthy_cluster_coverage(const QueryRequest& request,
                                                 const QueryResponse& local) {
    CoverageReport fetch;
    std::visit(
        [&](const auto& q) {
          using T = std::decay_t<decltype(q)>;
          if constexpr (std::is_same_v<T, PointVolumeQuery>) {
            fetch.requested = {q.period};
          } else if constexpr (!std::is_same_v<T, RecentPersistentQuery>) {
            fetch.requested = q.periods;
          }
        },
        request);
    fetch.present = fetch.requested;
    return merge_coverage(local.coverage, fetch);
  }

  bool wait_for(const std::function<bool()>& done,
                std::chrono::milliseconds timeout = 10s) {
    const auto give_up = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < give_up) {
      if (done()) return true;
      std::this_thread::sleep_for(2ms);
    }
    return done();
  }

  std::string suffix_;
  ClusterConfig config_;
  std::vector<std::unique_ptr<ClusterNode>> nodes_;
};

TEST_F(ClusterCoordinatorTest, ScatterGatherMatchesSingleNodeEstimates) {
  start_cluster(3, 2, "sg");
  auto coordinator = make_coordinator();
  const PartitionMap& map = coordinator->partition_map();

  // One location per owner, so every query shape crosses partitions.  The
  // third location misses period 3: a kSkipMissing corridor through it
  // finds the other locations' joins covering one period too many and
  // must ask them again over the periods every location holds.
  std::vector<std::uint64_t> locations;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    locations.push_back(location_owned_by(map, id));
  }
  QueryService reference;
  for (std::uint64_t location : locations) {
    for (std::uint64_t period = 0; period < 5; ++period) {
      if (location == locations[2] && period == 3) continue;
      const TrafficRecord rec = make_record(location, period);
      ASSERT_TRUE(coordinator->ingest(rec, Deadline::after(5s)).is_ok());
      ASSERT_TRUE(reference.ingest(rec).is_ok());
    }
  }

  const std::vector<std::uint64_t> periods{0, 1, 2, 3, 4};
  const std::vector<std::uint64_t> two_locations{locations[0], locations[1]};
  std::vector<QueryRequest> requests;
  requests.push_back(PointVolumeQuery{locations[0], 2});
  requests.push_back(PointPersistentQuery{locations[1], periods});
  requests.push_back(RecentPersistentQuery{locations[0], 3});
  requests.push_back(
      RecentPersistentQuery{locations[2], 4, MissingPolicy::kSkipMissing});
  requests.push_back(
      P2PPersistentQuery{locations[0], locations[1], periods});
  requests.push_back(CorridorQuery{two_locations, periods});
  requests.push_back(
      CorridorQuery{locations, periods, MissingPolicy::kSkipMissing});
  // Failures must match too: a p2p and a strict corridor over the gap.
  requests.push_back(
      P2PPersistentQuery{locations[1], locations[2], periods});
  requests.push_back(CorridorQuery{locations, periods});
  for (const QueryRequest& request : requests) {
    const char* kind = query_kind_name(request);
    const QueryResponse clustered = coordinator->run(request);
    const QueryResponse local = reference.run(request);
    ASSERT_EQ(clustered.status.code(), local.status.code())
        << kind << ": " << clustered.status.to_string() << " vs "
        << local.status.to_string();
    // Owners compute the first-level joins and the coordinator runs the
    // same second-level code QueryService::run ends in, so the summaries
    // are identical, not merely close.
    if (local.ok()) {
      const EstimateSummary& got = clustered.summary;
      const EstimateSummary& want = local.summary;
      EXPECT_EQ(got.kind, want.kind) << kind;
      EXPECT_DOUBLE_EQ(got.value, want.value) << kind;
      EXPECT_EQ(std::memcmp(&got.value, &want.value, sizeof(double)), 0)
          << kind;
      EXPECT_EQ(std::memcmp(&got.fill, &want.fill, sizeof(double)), 0)
          << kind;
      EXPECT_EQ(got.m, want.m) << kind;
      EXPECT_EQ(got.outcome, want.outcome) << kind;
      ASSERT_EQ(got.relative_stderr.has_value(),
                want.relative_stderr.has_value())
          << kind;
      if (want.relative_stderr) {
        EXPECT_EQ(std::memcmp(&*got.relative_stderr, &*want.relative_stderr,
                              sizeof(double)),
                  0)
            << kind;
      }
    }
    // The coverage is the single-node report merged with the fetch stage's
    // report over the periods the request names, all reached.
    const CoverageReport want = healthy_cluster_coverage(request, local);
    EXPECT_EQ(clustered.coverage.requested, want.requested) << kind;
    EXPECT_EQ(clustered.coverage.present, want.present) << kind;
    EXPECT_EQ(clustered.coverage.missing, want.missing) << kind;
  }
}

TEST_F(ClusterCoordinatorTest, SkipMissingCorridorRejoinsOverCommonPeriods) {
  // A corridor-wide population plus per-location and per-period traffic;
  // the per-location regulars skip period 3, so a join that covers it
  // loses them.  The third location misses period 3: the owners of the
  // other two first join all five periods, and the coordinator must ask
  // them again over the four every location holds.
  start_cluster(3, 2, "rejoin");
  auto coordinator = make_coordinator();
  const PartitionMap& map = coordinator->partition_map();
  std::vector<std::uint64_t> locations;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    locations.push_back(location_owned_by(map, id));
  }
  const auto record = [](std::uint64_t location, std::uint64_t period) {
    TrafficRecord rec;
    rec.location = location;
    rec.period = period;
    rec.bits = Bitmap(256);
    for (std::uint64_t c = 0; c < 24; ++c) rec.bits.set((c * 37 + 11) % 256);
    for (std::uint64_t j = 0; j < 16 && period != 3; ++j) {
      rec.bits.set((location * 53 + j * 29 + 7) % 256);
    }
    for (std::uint64_t k = 0; k < 40; ++k) {
      rec.bits.set((location * 17 + period * 71 + k * 13) % 256);
    }
    return rec;
  };
  QueryService reference;
  std::vector<std::vector<Bitmap>> naive(locations.size());
  for (std::size_t l = 0; l < locations.size(); ++l) {
    for (std::uint64_t period = 0; period < 5; ++period) {
      if (l == 2 && period == 3) continue;
      const TrafficRecord rec = record(locations[l], period);
      ASSERT_TRUE(coordinator->ingest(rec, Deadline::after(5s)).is_ok());
      ASSERT_TRUE(reference.ingest(rec).is_ok());
      naive[l].push_back(rec.bits);
    }
  }

  const std::vector<std::uint64_t> periods{0, 1, 2, 3, 4};
  const QueryResponse tolerant = coordinator->run(
      CorridorQuery{locations, periods, MissingPolicy::kSkipMissing});
  ASSERT_TRUE(tolerant.ok()) << tolerant.status.to_string();
  EXPECT_EQ(tolerant.coverage.present,
            (std::vector<std::uint64_t>{0, 1, 2, 4}));
  EXPECT_EQ(tolerant.coverage.missing, std::vector<std::uint64_t>{3});
  // The answer is the strict corridor over the common periods - a query
  // whose coverage is complete, so it never needs a second round.
  const QueryResponse common = coordinator->run(
      CorridorQuery{locations, tolerant.coverage.present});
  ASSERT_TRUE(common.ok()) << common.status.to_string();
  EXPECT_DOUBLE_EQ(tolerant.summary.value, common.summary.value);
  EXPECT_DOUBLE_EQ(
      tolerant.summary.value,
      reference.run(CorridorQuery{locations, periods,
                                  MissingPolicy::kSkipMissing})
          .summary.value);
  // And the data can tell: joins left over all five periods at the
  // complete locations would give another estimate.
  auto skipped_rejoin = estimate_corridor_persistent(naive, 3);
  ASSERT_TRUE(skipped_rejoin.has_value());
  EXPECT_NE(skipped_rejoin->n_corridor, tolerant.summary.value);
}

TEST_F(ClusterCoordinatorTest, LargeRecordsKeepTheirNewestPeriods) {
  // 80 periods of 128 KiB bitmaps (10 MiB at one location) on one node.
  // A recent window must run over the newest periods and an explicit
  // query must keep every tail period: no reply size cap may silently
  // drop the periods that sort last.
  start_cluster(1, 1, "big");
  auto coordinator = make_coordinator();
  constexpr std::uint64_t kLocation = 42;
  constexpr std::uint64_t kPeriods = 80;
  QueryService reference;
  std::vector<std::uint64_t> all_periods;
  for (std::uint64_t period = 0; period < kPeriods; ++period) {
    TrafficRecord rec;
    rec.location = kLocation;
    rec.period = period;
    rec.bits = Bitmap(std::size_t{128} << 13);  // 128 KiB
    for (std::uint64_t i = 0; i < 4000; ++i) {
      rec.bits.set((i * 7919 + period * 104729 * (i % 3)) % rec.bits.size());
    }
    ASSERT_TRUE(coordinator->ingest(rec, Deadline::after(10s)).is_ok());
    ASSERT_TRUE(reference.ingest(rec).is_ok());
    all_periods.push_back(period);
  }

  const QueryResponse recent = coordinator->run(
      RecentPersistentQuery{kLocation, 5, MissingPolicy::kFail,
                            Deadline::after(10s)});
  ASSERT_TRUE(recent.ok()) << recent.status.to_string();
  EXPECT_EQ(recent.coverage.requested,
            (std::vector<std::uint64_t>{75, 76, 77, 78, 79}));
  EXPECT_TRUE(recent.coverage.complete());
  EXPECT_DOUBLE_EQ(
      recent.summary.value,
      reference.run(RecentPersistentQuery{kLocation, 5}).summary.value);

  const PointPersistentQuery explicit_periods{
      kLocation, all_periods, MissingPolicy::kSkipMissing,
      Deadline::after(10s)};
  const QueryResponse whole = coordinator->run(explicit_periods);
  ASSERT_TRUE(whole.ok()) << whole.status.to_string();
  EXPECT_EQ(whole.coverage.present, all_periods);
  EXPECT_TRUE(whole.coverage.missing.empty());
  EXPECT_DOUBLE_EQ(whole.summary.value,
                   reference.run(explicit_periods).summary.value);
}

TEST_F(ClusterCoordinatorTest, RecordsReplicateToEveryAssignedHolder) {
  start_cluster(3, 2, "rep");
  auto coordinator = make_coordinator();
  const PartitionMap& map = coordinator->partition_map();

  constexpr std::uint64_t kRecords = 12;
  for (std::uint64_t location = 1; location <= kRecords; ++location) {
    ASSERT_TRUE(
        coordinator->ingest(make_record(location, 0), Deadline::after(5s))
            .is_ok());
  }
  // Replication must land every record on each of its RF=2 holders.
  ASSERT_TRUE(wait_for([&] {
    for (std::uint64_t location = 1; location <= kRecords; ++location) {
      for (std::uint64_t holder : map.replicas(location)) {
        ClusterNode* n = node(holder);
        if (n == nullptr || !n->server().service().has_record(location, 0)) {
          return false;
        }
      }
    }
    return true;
  }));
  // And on nobody else: the partition filter keeps non-replicas clean.
  for (std::uint64_t location = 1; location <= kRecords; ++location) {
    for (std::uint64_t id = 1; id <= 3; ++id) {
      if (map.should_hold(id, location)) continue;
      EXPECT_FALSE(node(id)->server().service().has_record(location, 0))
          << "node " << id << " holds foreign location " << location;
    }
  }
}

TEST_F(ClusterCoordinatorTest, IngestFailsOverWhenTheOwnerIsDown) {
  start_cluster(3, 2, "fo");
  auto coordinator = make_coordinator();
  const PartitionMap& map = coordinator->partition_map();
  const std::uint64_t location = location_owned_by(map, 2);
  stop_node(2);

  // Owner unreachable: the delivery fails over to the ring successor and
  // still acks durably.
  ASSERT_TRUE(coordinator->ingest(make_record(location, 0), Deadline::after(5s))
                  .is_ok());
  const std::uint64_t fallback = map.replicas(location)[1];
  EXPECT_TRUE(node(fallback)->server().service().has_record(location, 0));

  // And the forwarded query reads it back through the same failover.
  const QueryResponse response =
      coordinator->run(PointVolumeQuery{location, 0, Deadline::after(5s)});
  EXPECT_TRUE(response.ok()) << response.status.to_string();
}

TEST_F(ClusterCoordinatorTest, LinksClosedByTheIdleSweepAreRedialed) {
  start_cluster(3, 2, "idle", /*idle_timeout_ms=*/50);
  auto coordinator = make_coordinator();
  const std::uint64_t location = location_owned_by(
      coordinator->partition_map(), 1);
  ASSERT_TRUE(coordinator->ingest(make_record(location, 0), Deadline::after(5s))
                  .is_ok());
  // Opens every link, then lets every node close it as idle; all stay up.
  const auto open_links_then_idle = [&] {
    for (const NodeStatus& status :
         coordinator->cluster_status(Deadline::after(5s))) {
      EXPECT_TRUE(status.reachable) << "node " << status.node_id;
    }
    std::this_thread::sleep_for(400ms);
  };

  open_links_then_idle();
  const QueryResponse response =
      coordinator->run(PointVolumeQuery{location, 0, Deadline::after(5s)});
  EXPECT_TRUE(response.ok()) << response.status.to_string();

  open_links_then_idle();
  const Status ingested =
      coordinator->ingest(make_record(location, 1), Deadline::after(5s));
  EXPECT_TRUE(ingested.is_ok()) << ingested.to_string();
}

TEST_F(ClusterCoordinatorTest, UnreachablePartitionDegradesToPartialCoverage) {
  start_cluster(3, 1, "cov");  // RF=1: a dead node IS a dead partition
  auto coordinator = make_coordinator();
  const PartitionMap& map = coordinator->partition_map();
  const std::uint64_t live_loc = location_owned_by(map, 1);
  const std::uint64_t dead_loc = location_owned_by(map, 3);
  const std::vector<std::uint64_t> periods{0, 1, 2};
  for (std::uint64_t location : {live_loc, dead_loc}) {
    for (std::uint64_t period : periods) {
      ASSERT_TRUE(coordinator
                      ->ingest(make_record(location, period),
                               Deadline::after(5s))
                      .is_ok());
    }
  }
  stop_node(3);

  // A corridor crossing the dead partition degrades: every period is
  // reported missing (corridor semantics - present needs every location)
  // instead of the query failing with a channel error.
  CorridorQuery corridor{{live_loc, dead_loc}, periods,
                         MissingPolicy::kSkipMissing, Deadline::after(5s)};
  const QueryResponse degraded = coordinator->run(corridor);
  EXPECT_FALSE(degraded.ok());
  EXPECT_EQ(degraded.coverage.requested, periods);
  EXPECT_EQ(degraded.coverage.missing, periods);
  EXPECT_TRUE(degraded.coverage.present.empty());

  // The surviving partition still answers completely.
  PointPersistentQuery point{live_loc, periods, MissingPolicy::kSkipMissing,
                             Deadline::after(5s)};
  const QueryResponse healthy = coordinator->run(point);
  EXPECT_TRUE(healthy.ok()) << healthy.status.to_string();
  EXPECT_TRUE(healthy.coverage.complete());

  // Ingest into the dead partition has nowhere to go at RF=1.
  EXPECT_FALSE(
      coordinator->ingest(make_record(dead_loc, 9), Deadline::after(2s))
          .is_ok());
}

TEST_F(ClusterCoordinatorTest, FatalNackDoesNotFailOver) {
  start_cluster(3, 2, "nack");
  auto coordinator = make_coordinator();
  const std::uint64_t location =
      location_owned_by(coordinator->partition_map(), 1);

  const TrafficRecord original = make_record(location, 0);
  ASSERT_TRUE(coordinator->ingest(original, Deadline::after(5s)).is_ok());

  // A conflicting record is about the record, not the node: the owner's
  // fatal verdict must come back as-is, not be retried onto a replica
  // (where it would conflict again or, worse, fork the history).
  TrafficRecord conflicting = original;
  conflicting.bits.set(255);
  const Status verdict = coordinator->ingest(conflicting, Deadline::after(5s));
  EXPECT_FALSE(verdict.is_ok());
  EXPECT_NE(verdict.code(), ErrorCode::kChannelError);

  // The original redelivers as a dedupe ack - nothing was corrupted.
  EXPECT_TRUE(coordinator->ingest(original, Deadline::after(5s)).is_ok());
}

TEST_F(ClusterCoordinatorTest, ClusterStatusMarksDeadNodesUnreachable) {
  start_cluster(3, 2, "st");
  auto coordinator = make_coordinator();
  stop_node(2);

  const auto statuses = coordinator->cluster_status(Deadline::after(10s));
  ASSERT_EQ(statuses.size(), 3u);
  for (const NodeStatus& status : statuses) {
    EXPECT_GT(status.vnodes, 0u);
    EXPECT_FALSE(status.client_endpoint.empty());
    if (status.node_id == 2) {
      EXPECT_FALSE(status.reachable);
      EXPECT_TRUE(status.stats_json.empty());
    } else {
      EXPECT_TRUE(status.reachable) << "node " << status.node_id;
      EXPECT_NE(status.stats_json.find("transport_repl_subscribers"),
                std::string::npos);
    }
  }
}

}  // namespace
}  // namespace ptm::cluster
