// Process-level chaos test for the out-of-process transport (the ISSUE's
// acceptance scenario): a real ptmd daemon is spawned, an RsuEmulator
// replays periods into it over a unix socket with scripted socket faults
// (a mid-frame truncation and a dropped frame), and the daemon is
// kill -9'd mid-ingest TWICE and restarted from its archive.  The
// contract under all of that:
//
//   * exactly-once - after the outbox drains, the archive's raw log holds
//     every (location, period) exactly once: no loss (the outbox + the
//     retry-on-unknown-outcome rule) and no duplicates (idempotent ingest
//     writes one log frame per record, re-deliveries are absorbed);
//   * bounded reconnects - the supervised connection redials with backoff,
//     it does not spin;
//   * a restarted daemon restores its in-memory store from the archive
//     before accepting (re-deliveries of already-acked records de-dupe
//     instead of conflicting).
//
// The spawn helper waits for ptmd's "ready <endpoint>" line, and the
// killer waits for the archive to actually grow before each kill, so both
// kills land while ingest is in flight regardless of machine speed.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "crypto/certificate.hpp"
#include "crypto/keyfile.hpp"
#include "store/record_log.hpp"
#include "transport/auth.hpp"
#include "transport/emulator.hpp"
#include "transport/socket.hpp"

#ifndef PTM_PTMD_BINARY
#error "PTM_PTMD_BINARY must point at the ptmd executable"
#endif

namespace ptm::transport {
namespace {

using namespace std::chrono_literals;

struct PtmdProcess {
  pid_t pid = -1;
  int stdout_fd = -1;

  void close_pipe() {
    if (stdout_fd >= 0) {
      ::close(stdout_fd);
      stdout_fd = -1;
    }
  }
};

/// Spawns ptmd and blocks until it prints its "ready" line (or `timeout`).
/// `extra_args` is appended to the base command line (e.g. the
/// authenticated deployment's --require-auth --ca-cert pair).
PtmdProcess spawn_ptmd(const std::string& listen, const std::string& archive,
                       std::uint64_t stall_us,
                       const std::vector<std::string>& extra_args = {},
                       std::chrono::milliseconds timeout = 10s) {
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) return {};
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return {};
  }
  if (pid == 0) {
    // Point BOTH std streams at the private pipe: if the test process
    // dies without reaping us (gtest abort, sanitizer error), an
    // orphaned ptmd must not keep the inherited ctest output pipe open
    // or the whole run wedges until the harness timeout.
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::dup2(pipe_fds[1], STDERR_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    const std::string stall = std::to_string(stall_us);
    std::vector<std::string> args{
        "ptmd",           "--listen",         listen,
        "--archive",      archive,            "--ingest_stall_us",
        stall,            "--ingest_threads", "1",
        "--max_inflight", "4"};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(PTM_PTMD_BINARY, argv.data());
    ::_exit(127);  // exec failed
  }
  ::close(pipe_fds[1]);
  PtmdProcess proc{pid, pipe_fds[0]};

  std::string seen;
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  while (seen.find("ready ") == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        give_up - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    struct pollfd pfd {
      proc.stdout_fd, POLLIN, 0
    };
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready <= 0) break;
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

void kill9_and_reap(PtmdProcess& proc) {
  if (proc.pid > 0) {
    ::kill(proc.pid, SIGKILL);
    ::waitpid(proc.pid, nullptr, 0);
    proc.pid = -1;
  }
  proc.close_pipe();
}

void terminate_and_reap(PtmdProcess& proc) {
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

/// Blocks until `path` exceeds `above` bytes; false on timeout.
bool wait_for_growth(const std::string& path, std::uint64_t above,
                     std::chrono::milliseconds timeout) {
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < give_up) {
    if (file_size(path) > above) return true;
    std::this_thread::sleep_for(5ms);
  }
  return false;
}

/// The kill -9 exactly-once scenario, in both deployments: `authenticated`
/// adds a PKI (CA public key on the daemon's command line, credentials in
/// the emulator) and aims the scripted socket faults at HANDSHAKE frames -
/// with auth, a connection's outbound frames are hello(0), proof(1),
/// traffic(2+), so a torn proof and a dropped hello prove that a
/// half-finished handshake retries cleanly and never leaks a
/// half-authenticated session into the durability contract.
void run_chaos_scenario(const std::string& tag, bool authenticated) {
  const std::string stem = ::testing::TempDir() + "/ptm_pchaos_" + tag + "_" +
                           std::to_string(::getpid());
  const std::string sock_path = stem + ".sock";
  const std::string listen = "unix:" + sock_path;
  const std::string archive = stem + ".archive";
  const std::string journal = stem + ".journal";
  const std::string outbox = stem + ".outbox";
  const std::string ca_path = stem + ".ca.pub";
  for (const auto& p : {archive, journal, outbox, sock_path, ca_path}) {
    std::remove(p.c_str());
  }

  constexpr std::uint64_t kLocation = 7;
  constexpr std::size_t kPeriods = 8;
  constexpr std::uint64_t kStallUs = 15000;  // 15ms/ingest: kills land mid-run

  std::vector<std::string> extra_args;
  std::optional<AuthCredentials> credentials;
  if (authenticated) {
    Xoshiro256 rng(2024);
    CertificateAuthority ca("chaos-ca", 512, rng);
    RsaKeyPair keys = rsa_generate(512, rng);
    auto cert = ca.issue("rsu:" + std::to_string(kLocation), kLocation,
                         keys.pub, 0, 1'000'000);
    ASSERT_TRUE(cert.has_value());
    credentials = AuthCredentials{std::move(keys), std::move(*cert)};
    ASSERT_TRUE(save_public_key_file(ca_path, ca.public_key()).is_ok());
    extra_args = {"--require-auth", "--ca-cert", ca_path};
  }

  PtmdProcess daemon = spawn_ptmd(listen, archive, kStallUs, extra_args);
  const OnExit reap_daemon{[&] { terminate_and_reap(daemon); }};
  ASSERT_GT(daemon.pid, 0) << "ptmd failed to start";

  // The killer: wait for real ingest progress, kill -9, restart; twice.
  std::atomic<bool> emulator_done{false};
  std::atomic<int> kills{0};
  std::atomic<int> restarts_failed{0};
  std::thread killer([&] {
    std::uint64_t watermark = file_size(archive);
    for (int round = 0; round < 2; ++round) {
      if (!wait_for_growth(archive, watermark, 15000ms)) return;
      if (emulator_done.load()) return;
      kill9_and_reap(daemon);
      kills.fetch_add(1);
      watermark = file_size(archive);
      daemon = spawn_ptmd(listen, archive, kStallUs, extra_args);
      if (daemon.pid <= 0) {
        restarts_failed.fetch_add(1);
        return;
      }
    }
  });
  const OnExit join_killer{[&] {
    emulator_done.store(true);
    if (killer.joinable()) killer.join();
  }};

  EmulatorOptions options;
  options.location = kLocation;
  options.periods = kPeriods;
  options.encodes_per_period = 24;
  options.journal_path = journal;
  options.outbox_path = outbox;
  options.backoff_base_ms = 10;
  options.backoff_cap_ms = 200;
  options.deliver_timeout_ms = 1000;
  options.drain_timeout_ms = 30000;
  options.tuning.connect_timeout_ms = 300;
  options.tuning.io_timeout_ms = 1000;
  options.tuning.heartbeat_timeout_ms = 500;
  options.tuning.backoff_base_ms = 10;
  options.tuning.backoff_cap_ms = 200;
  options.seed = 42;
  options.credentials = credentials;

  auto server_ep = parse_endpoint(listen);
  ASSERT_TRUE(server_ep.has_value());

  std::uint64_t reconnects = 0;
  std::uint64_t pending = 0;
  {
    RsuEmulator emulator(*server_ep, options);
    if (authenticated) {
      // Handshake-phase chaos on top of the kills: connection 0 tears its
      // proof (frame 1) mid-bytes, connection 1 silently drops its hello
      // (frame 0).  Both sessions die half-authenticated; the supervisor
      // must redial and re-handshake before any traffic frame.
      emulator.connection().set_socket_faults(
          {{0, {{1, SocketFaultAction::kTruncateAndSever, 0, 3}}},
           {1, {{0, SocketFaultAction::kDropFrame, 0, 0}}}});
    } else {
      // Scripted socket chaos on top of the kills: connection 0 cuts its
      // 3rd frame mid-bytes (torn frame at the server), connection 1
      // silently drops its 2nd (the emulator retries on deliver timeout).
      emulator.connection().set_socket_faults(
          {{0, {{2, SocketFaultAction::kTruncateAndSever, 0, 7}}},
           {1, {{1, SocketFaultAction::kDropFrame, 0, 0}}}});
    }
    auto report = emulator.run();
    ASSERT_TRUE(report.has_value()) << report.status().to_string();
    reconnects = report->reconnects;
    pending = report->outbox_pending_at_exit;
    EXPECT_EQ(report->periods_closed, kPeriods);
  }

  // If the drain window closed with records still pending (a kill landed
  // late), resume: a fresh emulator process restores the same journal +
  // outbox and pumps without staging new periods.
  for (int resume = 0; resume < 3 && pending > 0; ++resume) {
    EmulatorOptions drain_options = options;
    drain_options.periods = 0;
    drain_options.drain_timeout_ms = 15000;
    RsuEmulator emulator(*server_ep, drain_options);
    auto report = emulator.run();
    ASSERT_TRUE(report.has_value()) << report.status().to_string();
    reconnects += report->reconnects;
    pending = report->outbox_pending_at_exit;
  }

  emulator_done.store(true);
  killer.join();
  terminate_and_reap(daemon);

  EXPECT_EQ(restarts_failed.load(), 0);
  EXPECT_EQ(kills.load(), 2) << "kills must land while ingest is in flight";
  EXPECT_EQ(pending, 0u) << "outbox failed to drain";

  // Exactly-once, at the strongest level: the RAW archive log (not the
  // deduping index) holds each (location, period) exactly once.  A lost
  // record would be missing; a non-idempotent re-delivery would be a
  // duplicate log frame; a kill mid-append may leave a torn tail, which
  // the restarted daemon heals before re-accepting.
  auto contents = read_record_log(archive);
  ASSERT_TRUE(contents.has_value()) << contents.status().to_string();
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (const auto& rec : contents->records) {
    EXPECT_EQ(rec.location, kLocation);
    EXPECT_TRUE(seen.emplace(rec.location, rec.period).second)
        << "duplicate archive frame for period " << rec.period;
  }
  ASSERT_EQ(seen.size(), kPeriods);
  for (std::uint64_t period = 0; period < kPeriods; ++period) {
    EXPECT_TRUE(seen.count({kLocation, period}))
        << "period " << period << " lost";
  }

  // Reconnects are the backoff ladder doing its job, not a spin: two
  // kills + two scripted severs with a capped-at-200ms ladder inside a
  // <60s run cannot plausibly need more than a few dozen dials.  The
  // authenticated run needs extra headroom: a kill landing mid-handshake
  // burns a dial per hello/challenge/proof round trip until the daemon
  // is back, so its dial count runs higher without being a spin.
  EXPECT_LE(reconnects, authenticated ? 120u : 60u);

  for (const auto& p : {archive, journal, outbox, sock_path, ca_path}) {
    std::remove(p.c_str());
  }
}

TEST(PtmdChaosTest, ExactlyOnceThroughTwoKillsAndScriptedSevers) {
  run_chaos_scenario("plain", /*authenticated=*/false);
}

TEST(PtmdChaosTest, ExactlyOnceWithRequiredAuthAndHandshakeFaults) {
  run_chaos_scenario("auth", /*authenticated=*/true);
}

}  // namespace
}  // namespace ptm::transport
