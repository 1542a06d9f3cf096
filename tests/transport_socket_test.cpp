// Integration tests for the socket transport: endpoint parsing, a live
// PtmdServer on a unix socket, the SupervisedConnection lifecycle
// (connect, heartbeat RTT, half-open detection, scripted severs and
// reconnects), uplink delivery, stats exchange, the server's explicit
// backpressure NACK, and query/join calls (answered inline or on the call
// worker; oversize ones get error replies).
#include "transport/connection.hpp"
#include "transport/server.hpp"
#include "transport/socket.hpp"
#include "transport/uplink.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.hpp"
#include "core/traffic_record.hpp"
#include "net/message.hpp"
#include "query/query_types.hpp"
#include "transport/framing.hpp"
#include "transport/wire.hpp"

namespace ptm::transport {
namespace {

using namespace std::chrono_literals;

Endpoint test_endpoint(const std::string& tag) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = ::testing::TempDir() + "/ptm_" + tag + "_" +
            std::to_string(::getpid()) + ".sock";
  return ep;
}

TrafficRecord make_record(std::uint64_t location, std::uint64_t period) {
  TrafficRecord rec;
  rec.location = location;
  rec.period = period;
  rec.bits = Bitmap(128);
  rec.bits.set(period % 128);
  return rec;
}

TEST(EndpointTest, ParsesUnixTcpAndShorthand) {
  auto unix_ep = parse_endpoint("unix:/tmp/x.sock");
  ASSERT_TRUE(unix_ep.has_value());
  EXPECT_EQ(unix_ep->kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep->path, "/tmp/x.sock");
  EXPECT_EQ(unix_ep->to_string(), "unix:/tmp/x.sock");

  auto tcp_ep = parse_endpoint("tcp:127.0.0.1:9000");
  ASSERT_TRUE(tcp_ep.has_value());
  EXPECT_EQ(tcp_ep->kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp_ep->host, "127.0.0.1");
  EXPECT_EQ(tcp_ep->port, 9000);

  auto shorthand = parse_endpoint("127.0.0.1:8080");
  ASSERT_TRUE(shorthand.has_value());
  EXPECT_EQ(shorthand->kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(shorthand->port, 8080);

  EXPECT_FALSE(parse_endpoint("").has_value());
  EXPECT_FALSE(parse_endpoint("unix:").has_value());
  EXPECT_FALSE(parse_endpoint("tcp:nohost").has_value());
  EXPECT_FALSE(parse_endpoint("tcp:1.2.3.4:notaport").has_value());
  EXPECT_FALSE(parse_endpoint("tcp:1.2.3.4:99999").has_value());
}

TEST(SupervisedConnectionTest, ConnectFailureIsBoundedByDeadline) {
  Endpoint nowhere = test_endpoint("nowhere");
  ConnectionTuning tuning;
  tuning.connect_timeout_ms = 50;
  tuning.backoff_base_ms = 5;
  tuning.backoff_cap_ms = 20;
  SupervisedConnection conn(nowhere, tuning);
  const Status s = conn.ensure_connected(Deadline::after(200ms));
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(conn.state(), SupervisedConnection::State::kDisconnected);
  EXPECT_GE(conn.connect_failures(), 1u);
}

class PtmdServerTest : public ::testing::Test {
 protected:
  PtmdOptions base_options(const std::string& tag) {
    PtmdOptions options;
    options.endpoint = test_endpoint(tag);
    options.ingest_threads = 2;
    options.idle_timeout_ms = 0;
    return options;
  }

  ConnectionTuning fast_tuning() {
    ConnectionTuning tuning;
    tuning.connect_timeout_ms = 1000;
    tuning.io_timeout_ms = 1000;
    tuning.heartbeat_timeout_ms = 1000;
    tuning.backoff_base_ms = 2;
    tuning.backoff_cap_ms = 50;
    return tuning;
  }
};

TEST_F(PtmdServerTest, PingMeasuresHeartbeatRtt) {
  PtmdServer server(base_options("ping"));
  ASSERT_TRUE(server.start().is_ok());

  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
  EXPECT_EQ(conn.state(), SupervisedConnection::State::kConnected);
  for (int i = 0; i < 3; ++i) {
    auto rtt = conn.ping();
    ASSERT_TRUE(rtt.has_value()) << rtt.status().to_string();
    EXPECT_GT(*rtt, 0u);
  }
  server.stop();
}

TEST_F(PtmdServerTest, RepliesThatDrainAtOnceCostNoEpollModify) {
  // Each heartbeat-ack is written in full inside its flush, so the
  // connection's interest set (readable) never changes and the loop must
  // not re-register it: one epoll_ctl per reply was pure overhead.
  PtmdServer server(base_options("interest"));
  ASSERT_TRUE(server.start().is_ok());
  Counter& updates =
      server.telemetry().counter("transport_interest_updates_total");
  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
  const std::uint64_t before = updates.value();
  constexpr int kPings = 50;
  for (int i = 0; i < kPings; ++i) {
    ASSERT_TRUE(conn.ping().has_value());
  }
  EXPECT_LT(updates.value() - before, 5u);
  server.stop();
}

TEST_F(PtmdServerTest, UplinkDeliveryAcksAndDedupes) {
  PtmdServer server(base_options("uplink"));
  ASSERT_TRUE(server.start().is_ok());

  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
  UplinkClient uplink(conn, MacAddress{0x10}, MacAddress{0x20});

  const auto rec = make_record(3, 0);
  const auto trace = TraceContext::for_record(3, 0);
  auto reply = uplink.deliver(rec, trace, Deadline::after(2s));
  ASSERT_TRUE(reply.has_value()) << reply.status().to_string();
  EXPECT_TRUE(reply->acked);

  // Re-delivery (a retransmit after a lost ack) is acked, not duplicated.
  auto redo = uplink.deliver(rec, trace, Deadline::after(2s));
  ASSERT_TRUE(redo.has_value());
  EXPECT_TRUE(redo->acked);
  EXPECT_EQ(server.service().record_count(), 1u);
  server.stop();
}

TEST_F(PtmdServerTest, ConflictingRecordGetsFatalNack) {
  PtmdServer server(base_options("conflict"));
  ASSERT_TRUE(server.start().is_ok());

  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
  UplinkClient uplink(conn, MacAddress{0x10}, MacAddress{0x20});

  auto first = uplink.deliver(make_record(4, 0), TraceContext::for_record(4, 0),
                              Deadline::after(2s));
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->acked);

  // Same (location, period), different bits: first-accept rejects it, and
  // the NACK must be fatal - retrying can never change the outcome.
  auto conflicting = make_record(4, 0);
  conflicting.bits.set(90);
  auto second = uplink.deliver(conflicting, TraceContext::for_record(4, 0),
                               Deadline::after(2s));
  ASSERT_TRUE(second.has_value()) << second.status().to_string();
  EXPECT_FALSE(second->acked);
  EXPECT_FALSE(second->nack.retryable);
  server.stop();
}

TEST_F(PtmdServerTest, OverloadShedsWithRetryableNack) {
  PtmdOptions options = base_options("shed");
  options.ingest_admission = AdmissionOptions{1, 0};
  options.ingest_threads = 1;
  options.ingest_stall_us = 30000;  // 30ms per ingest: trivially saturated
  options.shed_pause_ms = 1;
  PtmdServer server(std::move(options));
  ASSERT_TRUE(server.start().is_ok());

  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());

  // Fire all uploads before reading any verdict: with a depth-1 gate and
  // 30ms of work per ingest, the pipelined burst must overflow the gate.
  constexpr std::uint64_t kUploads = 8;
  for (std::uint64_t period = 0; period < kUploads; ++period) {
    Frame frame{MacAddress{0x10}, MacAddress{0x20},
                RecordUpload{make_record(9, period)},
                TraceContext::for_record(9, period)};
    ASSERT_TRUE(conn.send(frame).is_ok());
  }
  std::uint64_t sheds = 0;
  std::uint64_t acks = 0;
  for (std::uint64_t seen = 0; seen < kUploads; ++seen) {
    auto reply = conn.receive(Deadline::after(5s));
    ASSERT_TRUE(reply.has_value()) << reply.status().to_string();
    if (const auto* nack = std::get_if<UploadNack>(&*reply)) {
      EXPECT_TRUE(nack->retryable);
      EXPECT_EQ(nack->code, ErrorCode::kResourceExhausted);
      ++sheds;
    } else {
      const auto* frame = std::get_if<Frame>(&*reply);
      ASSERT_NE(frame, nullptr);
      EXPECT_EQ(frame->type(), MessageType::kUploadAck);
      ++acks;
    }
  }
  // Overload is explicit (retryable NACKs), not silent queueing - and a
  // shed is never a lost record: the un-shed uploads still land.
  EXPECT_GE(sheds, 1u);
  EXPECT_GE(acks, 1u);
  EXPECT_EQ(sheds + acks, kUploads);
  server.stop();
}

TEST_F(PtmdServerTest, StatsExchangeReturnsRegistryJson) {
  PtmdServer server(base_options("stats"));
  ASSERT_TRUE(server.start().is_ok());

  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
  ASSERT_TRUE(conn.send(StatsRequest{}).is_ok());
  auto reply = conn.receive(Deadline::after(2s));
  ASSERT_TRUE(reply.has_value()) << reply.status().to_string();
  const auto& stats = std::get<StatsResponse>(*reply);
  EXPECT_NE(stats.json.find("transport_accepted_total"), std::string::npos);
  EXPECT_NE(stats.json.find("transport_frames_total"), std::string::npos);
  server.stop();
}

TEST_F(PtmdServerTest, ScriptedSeverReconnectsAndRedelivers) {
  PtmdServer server(base_options("sever"));
  ASSERT_TRUE(server.start().is_ok());

  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  // Connection 0: the second outbound frame is cut mid-frame; connection 1
  // runs clean.
  conn.set_socket_faults(
      {{0, {{1, SocketFaultAction::kTruncateAndSever, 0, 3}}}});
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
  UplinkClient uplink(conn, MacAddress{0x10}, MacAddress{0x20});

  auto first = uplink.deliver(make_record(6, 0), TraceContext::for_record(6, 0),
                              Deadline::after(2s));
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->acked);

  // Second upload hits the scripted truncation: unknown outcome.
  auto torn = uplink.deliver(make_record(6, 1), TraceContext::for_record(6, 1),
                             Deadline::after(2s));
  EXPECT_FALSE(torn.has_value());
  EXPECT_EQ(conn.state(), SupervisedConnection::State::kBroken);

  // Redial and retry: the server sees either a fresh record or a dup -
  // both ack.
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
  EXPECT_EQ(conn.connections_opened(), 2u);
  EXPECT_EQ(conn.reconnects(), 1u);
  auto retry = uplink.deliver(make_record(6, 1), TraceContext::for_record(6, 1),
                              Deadline::after(2s));
  ASSERT_TRUE(retry.has_value()) << retry.status().to_string();
  EXPECT_TRUE(retry->acked);
  EXPECT_EQ(server.service().record_count(), 2u);
  server.stop();
}

TEST_F(PtmdServerTest, HalfOpenPeerIsDetectedByHeartbeat) {
  // A listener that accepts but never reads: the TCP/unix stack buffers
  // our writes, so only the unanswered heartbeat reveals the dead peer.
  Endpoint ep = test_endpoint("halfopen");
  auto listener = Socket::listen(ep);
  ASSERT_TRUE(listener.has_value());

  ConnectionTuning tuning;
  tuning.connect_timeout_ms = 500;
  tuning.heartbeat_timeout_ms = 100;
  tuning.backoff_base_ms = 2;
  tuning.backoff_cap_ms = 20;
  SupervisedConnection conn(ep, tuning);
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());

  auto rtt = conn.ping();
  EXPECT_FALSE(rtt.has_value());
  EXPECT_EQ(rtt.status().code(), ErrorCode::kChannelError);
  EXPECT_EQ(conn.state(), SupervisedConnection::State::kBroken);
}

TEST_F(PtmdServerTest, DurableServerRestoresArchiveOnStart) {
  const std::string archive_path = ::testing::TempDir() + "/ptm_restore_" +
                                   std::to_string(::getpid()) + ".log";
  std::remove(archive_path.c_str());

  PtmdOptions options = base_options("durable1");
  options.archive_path = archive_path;
  {
    PtmdServer server(std::move(options));
    ASSERT_TRUE(server.start().is_ok());
    SupervisedConnection conn(server.options().endpoint, fast_tuning());
    ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
    UplinkClient uplink(conn, MacAddress{0x10}, MacAddress{0x20});
    for (std::uint64_t period = 0; period < 3; ++period) {
      auto reply = uplink.deliver(make_record(8, period),
                                  TraceContext::for_record(8, period),
                                  Deadline::after(2s));
      ASSERT_TRUE(reply.has_value());
      ASSERT_TRUE(reply->acked);
    }
    server.stop();
  }

  PtmdOptions reopened = base_options("durable2");
  reopened.archive_path = archive_path;
  PtmdServer server(std::move(reopened));
  ASSERT_TRUE(server.start().is_ok());
  EXPECT_EQ(server.restored_records(), 3u);
  EXPECT_EQ(server.service().record_count(), 3u);
  server.stop();
  std::remove(archive_path.c_str());
}

TEST_F(PtmdServerTest, ShedNackToHalfClosedPeerIsSafe) {
  PtmdOptions options = base_options("shedpipe");
  options.ingest_admission = AdmissionOptions{1, 0};
  options.ingest_threads = 1;
  options.ingest_stall_us = 100000;  // hold the only gate slot for 100ms
  PtmdServer server(std::move(options));
  ASSERT_TRUE(server.start().is_ok());
  const Endpoint ep = server.options().endpoint;

  // Occupy the admission gate so the next upload is shed.
  SupervisedConnection occupant(ep, fast_tuning());
  ASSERT_TRUE(occupant.ensure_connected(Deadline::after(2s)).is_ok());
  ASSERT_TRUE(occupant
                  .send(Frame{MacAddress{0x10}, MacAddress{0x20},
                              RecordUpload{make_record(12, 0)},
                              TraceContext::for_record(12, 0)})
                  .is_ok());
  std::this_thread::sleep_for(20ms);

  // A raw peer whose read half is already shut when its upload arrives:
  // the shed NACK write fails hard (EPIPE), which destroys the connection
  // inside send_message - the shed path must not touch the freed Conn
  // afterwards (use-after-free regression; ASan catches it).
  auto raw = Socket::connect(ep, 1000);
  ASSERT_TRUE(raw.has_value());
  ASSERT_EQ(::shutdown(raw->fd(), SHUT_RD), 0);
  const std::vector<std::uint8_t> wire = frame_payload(encode_wire_message(
      Frame{MacAddress{0x11}, MacAddress{0x20}, RecordUpload{make_record(12, 1)},
            TraceContext::for_record(12, 1)}));
  std::size_t off = 0;
  while (off < wire.size()) {
    auto io = raw->write_some(std::span<const std::uint8_t>(wire).subspan(off));
    ASSERT_TRUE(io.has_value()) << io.status().to_string();
    off += io->bytes;
    if (io->would_block) std::this_thread::sleep_for(1ms);
  }
  std::this_thread::sleep_for(100ms);  // shed + failed NACK + close happen

  // The daemon survived: the occupant's upload still acks and a fresh
  // connection still answers.
  auto reply = occupant.receive(Deadline::after(2s));
  ASSERT_TRUE(reply.has_value()) << reply.status().to_string();
  const auto* frame = std::get_if<Frame>(&*reply);
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->type(), MessageType::kUploadAck);
  SupervisedConnection probe(ep, fast_tuning());
  ASSERT_TRUE(probe.ensure_connected(Deadline::after(2s)).is_ok());
  EXPECT_TRUE(probe.ping().has_value());
  server.stop();
}

TEST_F(PtmdServerTest, ZeroShedPauseStillArmsResume) {
  PtmdOptions options = base_options("shed0");
  options.ingest_admission = AdmissionOptions{1, 0};
  options.ingest_threads = 1;
  options.ingest_stall_us = 100000;
  options.shed_pause_ms = 0;  // unclamped, this paused a shed conn forever
  PtmdServer server(std::move(options));
  ASSERT_TRUE(server.start().is_ok());
  EXPECT_EQ(server.options().shed_pause_ms, 1u);

  SupervisedConnection occupant(server.options().endpoint, fast_tuning());
  ASSERT_TRUE(occupant.ensure_connected(Deadline::after(2s)).is_ok());
  ASSERT_TRUE(occupant
                  .send(Frame{MacAddress{0x10}, MacAddress{0x20},
                              RecordUpload{make_record(13, 0)},
                              TraceContext::for_record(13, 0)})
                  .is_ok());
  std::this_thread::sleep_for(20ms);

  // This connection sheds with zero pending ingests, so only the resume
  // timer can ever unpause it - the gate being filled by the occupant.
  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
  UplinkClient uplink(conn, MacAddress{0x11}, MacAddress{0x20});
  auto shed = uplink.deliver(make_record(13, 1),
                             TraceContext::for_record(13, 1),
                             Deadline::after(2s));
  ASSERT_TRUE(shed.has_value()) << shed.status().to_string();
  ASSERT_FALSE(shed->acked);
  EXPECT_EQ(shed->nack.code, ErrorCode::kResourceExhausted);

  // A retry on the same connection must eventually land; with no resume
  // timer armed the server never reads this socket again and every
  // delivery below times out.
  bool acked = false;
  for (int i = 0; i < 100 && !acked; ++i) {
    std::this_thread::sleep_for(10ms);
    auto retry = uplink.deliver(make_record(13, 1),
                                TraceContext::for_record(13, 1),
                                Deadline::after(2s));
    ASSERT_TRUE(retry.has_value()) << retry.status().to_string();
    acked = retry->acked;
  }
  EXPECT_TRUE(acked);
  server.stop();
}

TEST_F(PtmdServerTest, StopReleasesQueuedIngestAdmissionSlots) {
  PtmdOptions options = base_options("stopdrain");
  options.ingest_admission = AdmissionOptions{8, 0};
  options.ingest_threads = 1;
  options.ingest_stall_us = 100000;  // one slow worker: jobs pile up queued
  PtmdServer server(std::move(options));
  ASSERT_TRUE(server.start().is_ok());
  Gauge& in_flight = server.telemetry().gauge("queries_in_flight");

  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
  for (std::uint64_t period = 0; period < 6; ++period) {
    ASSERT_TRUE(conn.send(Frame{MacAddress{0x10}, MacAddress{0x20},
                                RecordUpload{make_record(14, period)},
                                TraceContext::for_record(14, period)})
                    .is_ok());
  }
  // Wait until the burst is admitted (first ingest underway, the rest
  // queued behind the single worker), then stop mid-drain.
  for (int i = 0; i < 200 && in_flight.value() < 6; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(in_flight.value(), 2);
  server.stop();
  // Every admitted slot came back: completed ingests released through
  // finish_ingest on the still-running loop, never-run jobs by stop().
  EXPECT_EQ(in_flight.value(), 0);
}

TEST_F(PtmdServerTest, HardAcceptErrorBacksOffAndRecovers) {
  PtmdOptions options = base_options("emfile");
  options.accept_retry_ms = 10;
  PtmdServer server(std::move(options));
  ASSERT_TRUE(server.start().is_ok());
  Counter& backoffs =
      server.telemetry().counter("transport_accept_backoffs_total");

  // Shrink the fd table and fill it, leaving exactly one slot for the
  // client's socket: the daemon's accept() then fails hard with EMFILE.
  struct FdHogs {
    rlimit saved{};
    std::vector<int> fds;
    ~FdHogs() {
      for (int fd : fds) ::close(fd);
      ::setrlimit(RLIMIT_NOFILE, &saved);
    }
  } hogs;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &hogs.saved), 0);
  rlimit small = hogs.saved;
  small.rlim_cur = 128;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &small), 0);
  for (;;) {
    const int fd = ::dup(0);
    if (fd < 0) break;
    hogs.fds.push_back(fd);
  }
  ASSERT_FALSE(hogs.fds.empty());
  ::close(hogs.fds.back());
  hogs.fds.pop_back();

  // The connect parks in the backlog; the accept attempt hits EMFILE and
  // must take the backoff path instead of spinning on the listener.
  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
  for (int i = 0; i < 500 && backoffs.value() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(backoffs.value(), 1u);

  // Free the table: the re-armed listener accepts the queued connection
  // and the daemon answers as if nothing happened.
  for (int fd : hogs.fds) ::close(fd);
  hogs.fds.clear();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &hogs.saved), 0);
  auto rtt = conn.ping();
  EXPECT_TRUE(rtt.has_value()) << rtt.status().to_string();
  server.stop();
}

/// Blocks (politely) until the non-blocking listener yields a connection.
std::optional<Socket> accept_blocking(Socket& listener,
                                      std::chrono::milliseconds timeout = 5s) {
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < give_up) {
    auto sock = listener.accept();
    // accept() reports EAGAIN as an ok() but *invalid* Socket.
    if (sock.has_value() && sock->valid()) return std::move(*sock);
    std::this_thread::sleep_for(1ms);
  }
  return std::nullopt;
}

void write_all(Socket& sock, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    auto io = sock.write_some(bytes.subspan(off));
    if (!io.has_value()) return;
    off += io->bytes;
    if (io->would_block) std::this_thread::sleep_for(1ms);
  }
}

/// A minimal well-behaved peer: reads one frame, echoes the heartbeat.
void serve_one_heartbeat(Socket& sock) {
  StreamDecoder decoder;
  std::uint8_t buf[512];
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < give_up) {
    auto payload = decoder.next();
    if (!payload.has_value()) return;  // poisoned: misbehaving client
    if (payload->has_value()) {
      auto message = decode_wire_message(**payload);
      if (!message.has_value()) return;
      const auto* hb = std::get_if<Heartbeat>(&*message);
      if (hb == nullptr) return;
      const auto reply = frame_payload(encode_wire_message(
          HeartbeatAck{hb->nonce, hb->send_unix_ns}));
      write_all(sock, reply);
      return;
    }
    auto io = sock.read_some(buf);
    if (!io.has_value()) return;
    if (io->bytes > 0) {
      decoder.feed(std::span<const std::uint8_t>(buf, io->bytes));
    } else if (io->peer_closed) {
      return;
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
}

TEST_F(PtmdServerTest, RedialAfterPoisonedStreamGetsFreshDecoder) {
  // A poisoned StreamDecoder is permanent by design (a length-prefixed
  // stream cannot resync), so the supervisor must give every redial a
  // FRESH decoder - a carried-over poison would turn one garbage frame
  // from a flaky server into a permanently dead client.
  Endpoint ep = test_endpoint("poison");
  auto listener = Socket::listen(ep);
  ASSERT_TRUE(listener.has_value());

  std::thread fake([&] {
    // Session 1: answer with an oversize length prefix (4 GiB frame).
    auto conn1 = accept_blocking(*listener);
    if (!conn1.has_value()) return;
    const std::uint8_t garbage[8] = {0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4};
    write_all(*conn1, garbage);
    // Session 2: a well-behaved peer.
    auto conn2 = accept_blocking(*listener);
    if (!conn2.has_value()) return;
    serve_one_heartbeat(*conn2);
  });

  SupervisedConnection conn(ep, fast_tuning());
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
  auto poisoned = conn.receive(Deadline::after(2s));
  ASSERT_FALSE(poisoned.has_value());
  EXPECT_EQ(poisoned.status().code(), ErrorCode::kParseError);
  EXPECT_EQ(conn.state(), SupervisedConnection::State::kBroken);

  // With the poison carried across the redial, this ping would fail
  // instantly with another ParseError instead of round-tripping.
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
  EXPECT_EQ(conn.connections_opened(), 2u);
  auto rtt = conn.ping();
  EXPECT_TRUE(rtt.has_value()) << rtt.status().to_string();
  fake.join();
}

TEST_F(PtmdServerTest, GarbageLengthPrefixIsCountedAndClosesTheConn) {
  // The server side of the same contract: a client that lies in its
  // length prefix is counted in transport_protocol_errors_total and its
  // connection is closed - garbage cannot be resynced, only dropped.
  PtmdServer server(base_options("garbage"));
  ASSERT_TRUE(server.start().is_ok());
  Counter& protocol_errors =
      server.telemetry().counter("transport_protocol_errors_total");

  auto raw = Socket::connect(server.options().endpoint, 1000);
  ASSERT_TRUE(raw.has_value());
  const std::uint8_t garbage[8] = {0xFF, 0xFF, 0xFF, 0xFF, 9, 9, 9, 9};
  write_all(*raw, garbage);

  for (int i = 0; i < 2000 && protocol_errors.value() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(protocol_errors.value(), 1u);

  // The poisoned connection gets closed out from under the peer...
  bool closed = false;
  std::uint8_t buf[64];
  for (int i = 0; i < 2000 && !closed; ++i) {
    auto io = raw->read_some(buf);
    if (!io.has_value()) {
      closed = true;  // hard error: the close raced our read
    } else if (io->peer_closed) {
      closed = true;
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
  EXPECT_TRUE(closed);

  // ...while the daemon itself stays healthy for everyone else.
  SupervisedConnection probe(server.options().endpoint, fast_tuning());
  ASSERT_TRUE(probe.ensure_connected(Deadline::after(2s)).is_ok());
  EXPECT_TRUE(probe.ping().has_value());
  server.stop();
}

TEST_F(PtmdServerTest, DuplicateReplEndpointIsAClearStartupError) {
  PtmdOptions options = base_options("dupep");
  options.repl_endpoint = options.endpoint;
  PtmdServer server(std::move(options));
  const Status status = server.start();
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

TEST_F(PtmdServerTest, ReplListenerSpeaksTheFullProtocol) {
  PtmdOptions options = base_options("replep");
  options.repl_endpoint = test_endpoint("replep2");
  PtmdServer server(std::move(options));
  ASSERT_TRUE(server.start().is_ok());

  // Both listeners answer: clients on the ingest endpoint, subscribers
  // (or anyone) on the replication endpoint.
  SupervisedConnection client(server.options().endpoint, fast_tuning());
  ASSERT_TRUE(client.ensure_connected(Deadline::after(2s)).is_ok());
  EXPECT_TRUE(client.ping().has_value());

  SupervisedConnection repl(*server.options().repl_endpoint, fast_tuning());
  ASSERT_TRUE(repl.ensure_connected(Deadline::after(2s)).is_ok());
  ASSERT_TRUE(repl.send(StatsRequest{}).is_ok());
  auto reply = repl.receive(Deadline::after(2s));
  ASSERT_TRUE(reply.has_value()) << reply.status().to_string();
  EXPECT_NE(std::get<StatsResponse>(*reply).json.find(
                "transport_repl_subscribers"),
            std::string::npos);
  server.stop();
}

/// Records of `GetParam()` bits, a third of them set: 128-bit records make
/// every call cheap enough to answer inline, 1 Mbit (128 KiB) records make
/// 4-period calls expensive enough for the call worker.
class PtmdCallTest : public PtmdServerTest,
                     public ::testing::WithParamInterface<std::size_t> {
 protected:
  TrafficRecord filled_record(std::uint64_t location, std::uint64_t period) {
    TrafficRecord rec;
    rec.location = location;
    rec.period = period;
    rec.bits = Bitmap(GetParam());
    for (std::size_t i = 0; i < GetParam() / 3; ++i) rec.bits.set(i * 3);
    rec.bits.set((location * 5 + period * 11 + 1) % GetParam());
    return rec;
  }
};

INSTANTIATE_TEST_SUITE_P(InlineAndOffloaded, PtmdCallTest,
                         ::testing::Values(std::size_t{128},
                                           std::size_t{1} << 20));

TEST_P(PtmdCallTest, CallsAnswerWhatTheServiceAnswers) {
  PtmdServer server(base_options("calls"));
  ASSERT_TRUE(server.start().is_ok());
  for (std::uint64_t period = 0; period < 4; ++period) {
    ASSERT_TRUE(server.service().ingest(filled_record(1, period)).is_ok());
    ASSERT_TRUE(server.service().ingest(filled_record(2, period)).is_ok());
  }
  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
  // Pipelined: every call goes out before any reply is awaited.
  const std::vector<std::uint64_t> periods{0, 1, 2, 3};
  ASSERT_TRUE(conn.send(QueryCall{1, PointPersistentQuery{1, periods}}).is_ok());
  ASSERT_TRUE(conn.send(JoinCall{2, 2, periods, {}}).is_ok());
  ASSERT_TRUE(conn.send(QueryCall{3, P2PPersistentQuery{1, 2, periods}}).is_ok());
  std::map<std::uint64_t, QueryReply> early;
  auto persistent = conn.await_reply<QueryReply>(1, Deadline::after(5s), &early);
  auto join = conn.await_reply<JoinReply>(2, Deadline::after(5s));
  auto p2p = conn.await_reply<QueryReply>(3, Deadline::after(5s), &early);
  ASSERT_TRUE(persistent.has_value()) << persistent.status().to_string();
  ASSERT_TRUE(join.has_value()) << join.status().to_string();
  ASSERT_TRUE(p2p.has_value()) << p2p.status().to_string();

  const QueryResponse want_persistent =
      server.service().run(PointPersistentQuery{1, periods});
  ASSERT_TRUE(persistent->response.ok());
  EXPECT_EQ(persistent->response.summary.value, want_persistent.summary.value);
  EXPECT_EQ(persistent->response.coverage.present,
            want_persistent.coverage.present);
  const LocationJoin want_join = server.service().join_location(2, periods);
  EXPECT_EQ(join->join.present, want_join.present);
  EXPECT_EQ(join->join.join, want_join.join);
  const QueryResponse want_p2p =
      server.service().run(P2PPersistentQuery{1, 2, periods});
  ASSERT_TRUE(p2p->response.ok());
  EXPECT_EQ(p2p->response.summary.value, want_p2p.summary.value);

  const std::uint64_t offloaded =
      server.telemetry().counter("transport_calls_offloaded_total").value();
  EXPECT_EQ(offloaded, GetParam() == 128 ? 0u : 3u);
  server.stop();
}

TEST_F(PtmdServerTest, OversizeQueryAndJoinCallsGetErrorReplies) {
  // A call's reply grows with what the caller names; none of these may
  // take the daemon down (framing an oversize reply aborts).
  PtmdServer server(base_options("oversize"));
  ASSERT_TRUE(server.start().is_ok());
  ASSERT_TRUE(server.service().ingest(make_record(1, 0)).is_ok());
  ASSERT_TRUE(server.service().ingest(make_record(1, 1)).is_ok());
  TrafficRecord huge;
  huge.location = 2;
  huge.period = 0;
  huge.bits = Bitmap(std::size_t{1} << 27);  // 16 MiB: its join cannot fit
  huge.bits.set(3);
  ASSERT_TRUE(server.service().ingest(huge).is_ok());

  SupervisedConnection conn(server.options().endpoint, fast_tuning());
  ASSERT_TRUE(conn.ensure_connected(Deadline::after(2s)).is_ok());
  const auto query = [&](std::uint64_t id, QueryRequest request) {
    EXPECT_TRUE(conn.send(QueryCall{id, std::move(request)}).is_ok());
    auto reply = conn.await_reply<QueryReply>(id, Deadline::after(10s));
    EXPECT_TRUE(reply.has_value()) << reply.status().to_string();
    return reply ? reply->response.status.code() : ErrorCode::kInternal;
  };
  const auto join = [&](std::uint64_t id, std::uint64_t location,
                        std::vector<std::uint64_t> periods) {
    EXPECT_TRUE(
        conn.send(JoinCall{id, location, std::move(periods), {}}).is_ok());
    auto reply = conn.await_reply<JoinReply>(id, Deadline::after(10s));
    EXPECT_TRUE(reply.has_value()) << reply.status().to_string();
    return reply ? reply->join.status.code() : ErrorCode::kInternal;
  };

  // ~1.1M periods fit in a 9 MiB call; the coverage would not fit a reply.
  std::vector<std::uint64_t> many(1'100'000);
  for (std::size_t i = 0; i < many.size(); ++i) many[i] = i;
  EXPECT_EQ(query(1, PointPersistentQuery{1, many,
                                          MissingPolicy::kSkipMissing}),
            ErrorCode::kInvalidArgument);
  // A gap-aware window would list every period number it spans.
  EXPECT_EQ(query(2, RecentPersistentQuery{1, std::size_t{1} << 40,
                                           MissingPolicy::kSkipMissing}),
            ErrorCode::kInvalidArgument);
  // Duplicates of one stored period: present would repeat each of them.
  EXPECT_EQ(join(3, 1, std::vector<std::uint64_t>(1'500'000, 0)),
            ErrorCode::kInvalidArgument);
  // Within the period bound, a 16 MiB record's join still cannot fit.
  EXPECT_EQ(join(4, 2, {0}), ErrorCode::kResourceExhausted);

  // The daemon is up and the same link still answers.
  EXPECT_TRUE(conn.ping().has_value());
  EXPECT_EQ(query(5, PointPersistentQuery{1, {0, 1}}), ErrorCode::kOk);
  EXPECT_EQ(join(6, 1, {0, 1, 0}), ErrorCode::kOk);
  server.stop();
}

}  // namespace
}  // namespace ptm::transport
