// Process-level chaos for the location-sharded cluster (the ISSUE's
// acceptance scenario): three REAL ptmd --cluster daemons with required
// PKI auth, a coordinator ingesting through scripted socket faults, and
// one whole-node failure in the worst form - kill -9 AND the disk archive
// deleted - landing mid-ingest.  The contract:
//
//   * zero record loss - every record acks (owner or, while the owner is
//     dead, a ring-successor replica) and is present in the surviving
//     union of archives;
//   * exactly-once archives - each node's RAW archive log holds each
//     (location, period) it is assigned at most once, and only locations
//     the partition map assigns it;
//   * whole-node recovery - the restarted daemon, archive gone, rebuilds
//     purely from its peers' replication snapshots until it again holds
//     everything it should;
//   * cluster queries stay correct throughout - corridor queries return
//     internally consistent CoverageReports during the outage and the
//     exact single-node estimate after convergence;
//   * bounded reconnects - failover is a redial ladder, not a spin.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/coordinator.hpp"
#include "cluster/partition.hpp"
#include "common/deadline.hpp"
#include "common/env.hpp"
#include "common/random.hpp"
#include "core/traffic_record.hpp"
#include "crypto/certificate.hpp"
#include "crypto/keyfile.hpp"
#include "query/query_service.hpp"
#include "query/query_types.hpp"
#include "store/record_log.hpp"
#include "transport/auth.hpp"
#include "transport/connection.hpp"
#include "transport/socket.hpp"
#include "transport/wire.hpp"

#ifndef PTM_PTMD_BINARY
#error "PTM_PTMD_BINARY must point at the ptmd executable"
#endif

namespace ptm::cluster {
namespace {

using namespace std::chrono_literals;

struct NodeProcess {
  pid_t pid = -1;
  int stdout_fd = -1;

  void close_pipe() {
    if (stdout_fd >= 0) {
      ::close(stdout_fd);
      stdout_fd = -1;
    }
  }
};

/// Spawns `ptmd <args>` and blocks until its "ready" line (or timeout).
NodeProcess spawn_node(const std::vector<std::string>& args,
                       std::chrono::milliseconds timeout = 15s) {
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) return {};
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return {};
  }
  if (pid == 0) {
    // Private pipe for both streams: an orphaned daemon must never hold
    // the inherited ctest pipe open (see ptmd_chaos_test).
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::dup2(pipe_fds[1], STDERR_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<std::string> full{"ptmd"};
    full.insert(full.end(), args.begin(), args.end());
    std::vector<char*> argv;
    argv.reserve(full.size() + 1);
    for (auto& a : full) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(PTM_PTMD_BINARY, argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  NodeProcess proc{pid, pipe_fds[0]};

  std::string seen;
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  while (seen.find("ready ") == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        give_up - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    struct pollfd pfd {
      proc.stdout_fd, POLLIN, 0
    };
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) break;
    char buf[256];
    const ssize_t n = ::read(proc.stdout_fd, buf, sizeof(buf));
    if (n <= 0) break;
    seen.append(buf, static_cast<std::size_t>(n));
  }
  if (seen.find("ready ") == std::string::npos) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    proc.close_pipe();
    return {};
  }
  return proc;
}

void kill9_and_reap(NodeProcess& proc) {
  if (proc.pid > 0) {
    ::kill(proc.pid, SIGKILL);
    ::waitpid(proc.pid, nullptr, 0);
    proc.pid = -1;
  }
  proc.close_pipe();
}

void terminate_and_reap(NodeProcess& proc) {
  if (proc.pid > 0) {
    ::kill(proc.pid, SIGTERM);
    int status = 0;
    ::waitpid(proc.pid, &status, 0);
    proc.pid = -1;
  }
  proc.close_pipe();
}

/// Runs `fn` however the scope ends: a failed ASSERT_* returns from the
/// test body early, and the daemons it spawned (and the killer thread that
/// restarts them) must not outlive it.  terminate_and_reap and a join of
/// an already-joined thread are no-ops, so the normal path is unchanged.
template <typename Fn>
struct OnExit {
  Fn fn;
  ~OnExit() { fn(); }
};
template <typename Fn>
OnExit(Fn) -> OnExit<Fn>;

std::uint64_t file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0
             ? static_cast<std::uint64_t>(st.st_size)
             : 0;
}

bool wait_for_growth(const std::string& path, std::uint64_t above,
                     std::chrono::milliseconds timeout) {
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < give_up) {
    if (file_size(path) > above) return true;
    std::this_thread::sleep_for(5ms);
  }
  return false;
}

TrafficRecord make_record(std::uint64_t location, std::uint64_t period) {
  TrafficRecord rec;
  rec.location = location;
  rec.period = period;
  rec.bits = Bitmap(128);
  // Deterministic per (location, period): re-deliveries and replication
  // overlap dedupe instead of conflicting.
  rec.bits.set((location * 13 + period * 7) % 128);
  rec.bits.set((location + period * 31) % 128);
  return rec;
}

/// Which of `periods` a node currently stores for `location`: a
/// kSkipMissing point-persistent query-call's coverage names them, even
/// when too few are present for an estimate.
std::set<std::uint64_t> fetch_periods(
    transport::SupervisedConnection& conn, std::uint64_t location,
    const std::vector<std::uint64_t>& periods) {
  static std::uint64_t next_call_id = 0;
  std::set<std::uint64_t> out;
  if (!conn.ensure_connected(Deadline::after(2s)).is_ok()) return out;
  const Deadline deadline = Deadline::after(2s);
  const std::uint64_t id = ++next_call_id;
  const transport::QueryCall call{
      id,
      PointPersistentQuery{location, periods, MissingPolicy::kSkipMissing},
      deadline};
  if (!conn.send(call).is_ok()) return out;
  auto reply = conn.await_reply<transport::QueryReply>(id, deadline);
  if (!reply) return out;
  const CoverageReport& coverage = reply->response.coverage;
  out.insert(coverage.present.begin(), coverage.present.end());
  return out;
}

TEST(ClusterChaosTest, WholeNodeKillWithArchiveLossIsAbsorbed) {
  const std::string stem = ::testing::TempDir() + "/ptm_cchaos_" +
                           std::to_string(::getpid());
  constexpr std::size_t kNodes = 3;
  // PTM_CHAOS_ITERS scales the workload (nightly sanitizer runs); the cap
  // keeps the scenario inside its ctest timeout.
  const std::size_t kPeriods = std::min<std::size_t>(
      8 * static_cast<std::size_t>(env_u64("PTM_CHAOS_ITERS", 1)), 16);
  const std::vector<std::uint64_t> kLocations{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::uint64_t> all_periods(kPeriods);
  for (std::uint64_t p = 0; p < kPeriods; ++p) all_periods[p] = p;

  // --- PKI: one CA, one cert per node (outbound repl dials) + the
  // coordinator's own.
  Xoshiro256 rng(77);
  CertificateAuthority ca("cluster-ca", 512, rng);
  const std::string ca_path = stem + ".ca.pub";
  ASSERT_TRUE(save_public_key_file(ca_path, ca.public_key()).is_ok());
  std::vector<std::string> key_paths(kNodes + 1), cert_paths(kNodes + 1);
  for (std::size_t i = 1; i <= kNodes; ++i) {
    RsaKeyPair keys = rsa_generate(512, rng);
    auto cert = ca.issue("node:" + std::to_string(i), i, keys.pub, 0,
                         1'000'000);
    ASSERT_TRUE(cert.has_value());
    key_paths[i] = stem + ".n" + std::to_string(i) + ".key";
    cert_paths[i] = stem + ".n" + std::to_string(i) + ".cert";
    ASSERT_TRUE(save_keypair_file(key_paths[i], keys).is_ok());
    ASSERT_TRUE(save_certificate_file(cert_paths[i], *cert).is_ok());
  }
  RsaKeyPair coord_keys = rsa_generate(512, rng);
  auto coord_cert = ca.issue("coordinator", 1000, coord_keys.pub, 0,
                             1'000'000);
  ASSERT_TRUE(coord_cert.has_value());
  const transport::AuthCredentials coord_creds{std::move(coord_keys),
                                               std::move(*coord_cert)};

  // --- Membership: unix sockets, separate replication listeners.
  std::string spec;
  std::vector<std::string> archives(kNodes + 1);
  for (std::size_t i = 1; i <= kNodes; ++i) {
    const std::string tag = stem + ".n" + std::to_string(i);
    archives[i] = tag + ".archive";
    std::remove(archives[i].c_str());
    if (i > 1) spec += ";";
    spec += std::to_string(i) + "@unix:" + tag + ".sock@unix:" + tag +
            ".repl.sock";
  }
  auto config = parse_cluster_spec(spec);
  ASSERT_TRUE(config.has_value()) << config.status().to_string();
  const PartitionMap map(*config);

  auto node_args = [&](std::size_t i) {
    return std::vector<std::string>{
        "--cluster",         spec,
        "--node-id",         std::to_string(i),
        "--archive",         archives[i],
        "--ingest_stall_us", "3000",
        "--ingest_threads",  "1",
        "--require-auth",    "--ca-cert", ca_path,
        "--key",             key_paths[i],
        "--cert",            cert_paths[i]};
  };
  std::vector<NodeProcess> daemons(kNodes + 1);
  const OnExit reap_daemons{[&] {
    for (NodeProcess& daemon : daemons) terminate_and_reap(daemon);
  }};
  for (std::size_t i = 1; i <= kNodes; ++i) {
    daemons[i] = spawn_node(node_args(i));
    ASSERT_GT(daemons[i].pid, 0) << "node " << i << " failed to start";
  }

  // The victim: the primary owning the first workload location - the
  // kill takes a live ingest target, not a bystander.
  const std::uint64_t victim = map.owner(kLocations.front());

  // --- Coordinator with scripted socket faults layered on the kill: the
  // link to one non-victim node tears its 3rd frame mid-bytes, another
  // silently drops a frame - both must surface as clean failover/redial,
  // never loss.
  ClusterCoordinatorOptions coordinator_options;
  coordinator_options.config = *config;
  coordinator_options.credentials = coord_creds;
  coordinator_options.tuning.connect_timeout_ms = 300;
  coordinator_options.tuning.io_timeout_ms = 1000;
  coordinator_options.tuning.heartbeat_timeout_ms = 500;
  coordinator_options.tuning.backoff_base_ms = 5;
  coordinator_options.tuning.backoff_cap_ms = 100;
  coordinator_options.seed = 4242;
  ClusterCoordinator coordinator(std::move(coordinator_options));
  {
    std::vector<std::uint64_t> others;
    for (std::size_t i = 1; i <= kNodes; ++i) {
      if (i != victim) others.push_back(i);
    }
    coordinator.set_socket_faults(
        others[0],
        {{0, {{2, SocketFaultAction::kTruncateAndSever, 0, 7}}}});
    coordinator.set_socket_faults(
        others[1], {{0, {{1, SocketFaultAction::kDropFrame, 0, 0}}}});
  }

  // --- The killer: wait for the victim's archive to take real writes,
  // then kill -9 AND delete the archive - the node loses its entire
  // history and must rebuild from its peers.
  std::atomic<bool> ingest_done{false};
  std::atomic<int> kills{0};
  std::atomic<int> restarts_failed{0};
  std::thread killer([&] {
    const std::uint64_t watermark = file_size(archives[victim]);
    if (!wait_for_growth(archives[victim], watermark, 30000ms)) return;
    if (ingest_done.load()) return;
    kill9_and_reap(daemons[victim]);
    kills.fetch_add(1);
    std::remove(archives[victim].c_str());
    daemons[victim] = spawn_node(node_args(victim));
    if (daemons[victim].pid <= 0) restarts_failed.fetch_add(1);
  });
  const OnExit join_killer{[&] {
    ingest_done.store(true);
    if (killer.joinable()) killer.join();
  }};

  // --- Ingest through the chaos; every record must ack somewhere.
  QueryService reference;
  for (std::uint64_t period = 0; period < kPeriods; ++period) {
    for (std::uint64_t location : kLocations) {
      const TrafficRecord rec = make_record(location, period);
      // One ingest() call is one pass down the replica list; like the
      // cluster loadgen, the caller retries transient outcomes - a pass
      // can lose every replica at once (owner freshly killed while the
      // survivor eats its scripted sever).  Zero loss means some pass
      // acks before the window closes, not that the first one does.
      Status delivered{ErrorCode::kChannelError, "not attempted"};
      const auto record_give_up = std::chrono::steady_clock::now() + 30s;
      for (;;) {
        delivered = coordinator.ingest(rec, Deadline::after(5s));
        if (delivered.is_ok() ||
            std::chrono::steady_clock::now() >= record_give_up) {
          break;
        }
        std::this_thread::sleep_for(20ms);
      }
      ASSERT_TRUE(delivered.is_ok())
          << "(" << location << ", " << period
          << "): " << delivered.to_string();
      ASSERT_TRUE(reference.ingest(rec).is_ok());
    }
    // Cluster queries stay sane mid-outage: the coverage report must
    // partition the requested periods, whatever is reachable right now.
    std::vector<std::uint64_t> so_far(period + 1);
    for (std::uint64_t p = 0; p <= period; ++p) so_far[p] = p;
    CorridorQuery corridor{{kLocations[0], kLocations[1], kLocations[2]},
                           so_far, MissingPolicy::kSkipMissing,
                           Deadline::after(10s)};
    const QueryResponse response = coordinator.run(corridor);
    EXPECT_EQ(response.coverage.requested, so_far);
    std::set<std::uint64_t> seen(response.coverage.present.begin(),
                                 response.coverage.present.end());
    seen.insert(response.coverage.missing.begin(),
                response.coverage.missing.end());
    EXPECT_EQ(seen.size(), so_far.size());
  }
  ingest_done.store(true);
  killer.join();
  ASSERT_EQ(restarts_failed.load(), 0);
  ASSERT_EQ(kills.load(), 1) << "the kill must land while ingest runs";

  // --- Convergence: every node again holds every (location, period) the
  // map assigns it - the restarted node purely from replication resync.
  auto all_converged = [&] {
    for (std::size_t i = 1; i <= kNodes; ++i) {
      transport::ConnectionTuning probe_tuning;
      probe_tuning.connect_timeout_ms = 500;
      probe_tuning.io_timeout_ms = 1000;
      transport::SupervisedConnection conn(config->nodes[i - 1].client,
                                           probe_tuning, nullptr, 1000 + i);
      conn.set_credentials(coord_creds);
      for (std::uint64_t location : kLocations) {
        if (!map.should_hold(i, location)) continue;
        if (fetch_periods(conn, location, all_periods).size() != kPeriods) {
          return false;
        }
      }
    }
    return true;
  };
  const auto give_up = std::chrono::steady_clock::now() + 90s;
  bool converged = false;
  while (!converged && std::chrono::steady_clock::now() < give_up) {
    converged = all_converged();
    if (!converged) std::this_thread::sleep_for(250ms);
  }
  EXPECT_TRUE(converged) << "restarted node failed to resync from peers";

  // --- After convergence the corridor answer is the single-node answer.
  CorridorQuery final_corridor{
      {kLocations[0], kLocations[1], kLocations[2]}, all_periods,
      MissingPolicy::kSkipMissing, Deadline::after(20s)};
  const QueryResponse final_response = coordinator.run(final_corridor);
  ASSERT_TRUE(final_response.ok()) << final_response.status.to_string();
  EXPECT_TRUE(final_response.coverage.complete());
  const QueryResponse reference_response = reference.run(final_corridor);
  ASSERT_TRUE(reference_response.ok());
  EXPECT_DOUBLE_EQ(final_response.summary.value,
                   reference_response.summary.value);

  // Failover is a ladder, not a spin: 3 base dials + the scripted severs
  // + the outage redials fit comfortably under this cap.
  EXPECT_LE(coordinator.connections_opened(), 60u);

  for (std::size_t i = 1; i <= kNodes; ++i) terminate_and_reap(daemons[i]);

  // --- Exactly-once archives: each RAW log holds only assigned
  // locations, each at most once; the union holds everything.
  std::set<std::pair<std::uint64_t, std::uint64_t>> union_seen;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> holders;
  for (std::size_t i = 1; i <= kNodes; ++i) {
    auto contents = read_record_log(archives[i]);
    ASSERT_TRUE(contents.has_value())
        << "node " << i << ": " << contents.status().to_string();
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    for (const auto& rec : contents->records) {
      EXPECT_TRUE(map.should_hold(i, rec.location))
          << "node " << i << " archived foreign location " << rec.location;
      EXPECT_TRUE(seen.emplace(rec.location, rec.period).second)
          << "node " << i << " archived (" << rec.location << ", "
          << rec.period << ") twice";
    }
    for (const auto& key : seen) {
      union_seen.insert(key);
      ++holders[key];
    }
  }
  for (std::uint64_t location : kLocations) {
    for (std::uint64_t period = 0; period < kPeriods; ++period) {
      const auto key = std::make_pair(location, period);
      EXPECT_TRUE(union_seen.count(key))
          << "(" << location << ", " << period << ") lost";
      // Replication had converged before shutdown: the holder set is the
      // full replication group, no more, no fewer.
      EXPECT_EQ(holders[key], map.replication_factor())
          << "(" << location << ", " << period << ")";
    }
  }

  for (std::size_t i = 1; i <= kNodes; ++i) {
    const std::string tag = stem + ".n" + std::to_string(i);
    std::remove(archives[i].c_str());
    std::remove((tag + ".sock").c_str());
    std::remove((tag + ".repl.sock").c_str());
    std::remove(key_paths[i].c_str());
    std::remove(cert_paths[i].c_str());
  }
  std::remove(ca_path.c_str());
}

}  // namespace
}  // namespace ptm::cluster
