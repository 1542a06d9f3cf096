// server.hpp - the ptmd ingest server: QueryService behind a real socket.
//
// PtmdServer is the daemon-side half of the out-of-process transport
// (docs/transport.md).  One epoll EventLoop thread owns every connection;
// a small ingest worker pool runs the actual QueryService::ingest calls
// (which take shard locks and, in durable mode, write the archive) so the
// loop thread never blocks on a disk write.  Backpressure is explicit at
// two levels:
//
//   * admission gate - an AdmissionController (try_admit, never blocking
//     the loop) bounds ingests in flight across all connections; a shed
//     ingest is answered with a *retryable* UploadNack(kResourceExhausted)
//     and the connection's reads are paused for `shed_pause_ms`, so the
//     kernel socket buffer - and eventually the RSU's own send path -
//     absorbs the overload instead of the daemon's memory;
//
//   * per-connection window - a connection with more than
//     `max_pending_per_conn` ingests outstanding stops being read until
//     half its window drains.  A single firehose RSU cannot starve the
//     rest.
//
// Durability mirrors the in-process server node: the archive is attached
// write-ahead (ingest Ok implies the record is on disk), and start()
// replays the archive into memory, so a kill -9 between accept and ack
// loses nothing - the RSU outbox retransmits anything unacked and the
// archive dedupes re-deliveries.  The chaos suite drives exactly that
// cycle.
//
// Authentication (docs/transport.md, *Authenticated handshake*): with a
// CA key configured the server answers auth-hello with a fresh challenge
// and verifies the proof against the §II-B certificate chain; with
// `require_auth` set every connection starts in an Authenticating phase
// where ALL non-handshake messages are rejected (auth-reject, then close)
// until the proof verifies - an unauthenticated peer can not inject one
// record, probe stats, or even get a heartbeat answered.  Distinct
// reject codes (wire.hpp AuthRejectCode) separate the failure classes,
// and a handshake that stalls past `auth_timeout_ms` is closed so idle
// half-authenticated sockets cannot accumulate.
//
// Protocol errors (bad length prefix, unknown kind, codec violation) close
// the connection: a length-prefixed stream cannot resync after a framing
// lie, and a peer that sends garbage cannot be trusted with partial state.
//
// Replication (docs/cluster.md): a peer node subscribes with
// repl-subscribe and receives a snapshot of every live record it should
// hold (filtered through `repl_filter`), then every later first-accept
// ingest live-forwarded.  The snapshot streams in bounded batches paced by
// the connection's own outbuf drain, so a slow follower holds a shard's
// shared lock only per batch and never stalls concurrent ingest.
// Subscribers ack sequence numbers; the outstanding delta is the
// `transport_repl_lag` gauge.  An optional second listener
// (`repl_endpoint`) isolates replication traffic from client ingest; both
// listeners speak the same protocol and the same auth policy.
//
// Queries (docs/cluster.md, *Query push-down*): a query-call runs through
// the node's QueryService::run and a join-call through join_location,
// answered with the caller's correlation id.  A call that reads little
// stored data runs inline on the loop thread; a larger one goes to the
// call worker thread, so a big join cannot hold up the acks, heartbeats
// and replication the loop serves meanwhile.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "crypto/rsa.hpp"
#include "obs/trace.hpp"
#include "query/admission.hpp"
#include "query/query_service.hpp"
#include "store/archive.hpp"
#include "transport/event_loop.hpp"
#include "transport/framing.hpp"
#include "transport/socket.hpp"
#include "transport/wire.hpp"

namespace ptm::transport {

struct PtmdOptions {
  Endpoint endpoint;                 ///< where to listen
  /// Optional second listener dedicated to replication subscribers, so a
  /// follower resync cannot compete with client ingest for the same
  /// accept queue.  start() rejects it with InvalidArgument when it
  /// equals `endpoint` - a clear startup error beats a bind failure deep
  /// in the run loop.  Both listeners accept the full protocol.
  std::optional<Endpoint> repl_endpoint;
  /// This node's cluster id (0 for a standalone daemon); reported in
  /// stats and stamped on replication telemetry.
  std::uint64_t node_id = 0;
  /// Replication stream filter: should `subscriber_node` hold `location`?
  /// The cluster layer supplies the partition-map predicate; unset =
  /// stream everything (a full mirror).
  std::function<bool(std::uint64_t subscriber_node, std::uint64_t location)>
      repl_filter;
  std::string archive_path;          ///< empty = volatile (no durability)
  QueryServiceOptions service{};     ///< query engine configuration
  AdmissionOptions ingest_admission{16, 0};  ///< try_admit gate for ingests
  std::size_t ingest_threads = 2;    ///< worker pool size (>= 1)
  std::size_t max_pending_per_conn = 32;  ///< per-connection ingest window
  /// Read pause after shedding.  Clamped to >= 1 at construction: a shed
  /// pause must always arm its resume timer, because a shed connection may
  /// have zero pending ingests and then nothing else would ever unpause it.
  std::uint64_t shed_pause_ms = 10;
  /// Listener retry delay after a hard accept() error (fd exhaustion being
  /// the realistic one).  The listener's read interest is dropped for this
  /// long instead of letting the level-triggered loop spin on the error.
  /// Clamped to >= 1 at construction.
  std::uint64_t accept_retry_ms = 100;
  std::uint64_t idle_timeout_ms = 60000;  ///< close silent conns (0 = never)
  /// Test/benchmark knob: artificial microseconds of work per ingest, so
  /// loadgen can push the daemon into visible shedding on any machine.
  std::uint64_t ingest_stall_us = 0;
  /// CA public key certificates must chain to.  Present = the server
  /// answers handshakes; absent = auth-hello gets kAuthUnavailable.
  std::optional<RsaPublicKey> auth_ca_key;
  /// Refuse ALL traffic from unauthenticated connections.  start() fails
  /// with InvalidArgument if set without `auth_ca_key` - a server that
  /// demands proofs it cannot verify would reject everyone.
  bool require_auth = false;
  /// The measurement period certificates must cover (their validity
  /// windows are in periods, matching verify_certificate).
  std::uint64_t auth_period = 0;
  /// A require_auth connection still unauthenticated after this long is
  /// closed.  Clamped to >= 1 at construction.
  std::uint64_t auth_timeout_ms = 5000;
};

class PtmdServer {
 public:
  explicit PtmdServer(PtmdOptions options);
  ~PtmdServer();
  PtmdServer(const PtmdServer&) = delete;
  PtmdServer& operator=(const PtmdServer&) = delete;

  /// Opens the archive (durable mode), replays it into the query service,
  /// binds the listener, and spawns the loop + worker threads.  On Ok the
  /// endpoint is accepting connections.
  [[nodiscard]] Status start();

  /// Stops the loop, joins every thread, closes every connection.
  /// Idempotent.
  void stop();

  [[nodiscard]] const PtmdOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] QueryService& service() noexcept { return service_; }
  [[nodiscard]] TelemetryRegistry& telemetry() noexcept {
    return service_.telemetry();
  }
  /// Records replayed from the archive by start() (durable mode).
  [[nodiscard]] std::size_t restored_records() const noexcept {
    return restored_;
  }

 private:
  /// Handshake progress.  kReady on a require_auth connection means the
  /// proof verified; otherwise it is the (unauthenticated) initial state.
  enum class AuthPhase : std::uint8_t {
    kReady,
    kAwaitHello,  ///< require_auth: nothing accepted but auth-hello
    kAwaitProof,  ///< challenge sent; nothing accepted but auth-proof
  };

  /// Per-connection state; lives on the loop thread only.
  struct Conn {
    Socket sock;
    StreamDecoder decoder;
    std::vector<std::uint8_t> outbuf;  ///< unwritten reply bytes
    std::size_t out_off = 0;
    std::size_t pending_ingests = 0;
    bool paused = false;    ///< reads suspended (window or shed pause)
    std::uint32_t interest = EventLoop::kReadable;  ///< as registered
    bool closing = false;   ///< flush outbuf, then close
    std::uint64_t last_activity_ms = 0;
    std::uint64_t id = 0;
    AuthPhase auth_phase = AuthPhase::kReady;
    std::vector<std::uint8_t> auth_nonce;      ///< challenge sent, if any
    RsaPublicKey peer_key;                     ///< from the verified cert
    std::vector<std::uint8_t> peer_cert_bytes; ///< exact hello bytes
    // Replication subscription state (loop thread only).
    bool repl_subscriber = false;
    std::uint64_t subscriber_node = 0;
    std::uint64_t repl_seq = 0;    ///< last sequence number sent
    std::uint64_t repl_acked = 0;  ///< last sequence number acked
    bool snapshotting = false;     ///< snapshot stream still in flight
    QueryService::RecordCursor snapshot_cursor;
    std::uint64_t snapshot_streamed = 0;
  };

  struct IngestJob {
    std::uint64_t conn_id = 0;
    TrafficRecord record;
    TraceContext trace;
  };

  /// A query-call or join-call handed to the call worker.
  struct CallJob {
    std::uint64_t conn_id = 0;
    WireMessage call;
  };

  void loop_main();
  void worker_main();
  void call_worker_main();
  void on_acceptable(Socket& listener, bool& paused_flag);
  void pause_accepts(Socket& listener, bool& paused_flag);
  void on_conn_event(int fd, std::uint32_t events);
  void handle_payload(Conn& conn, std::span<const std::uint8_t> payload);
  void handle_auth(Conn& conn, const WireMessage& message);
  /// Sends auth-reject(code) and schedules the close (flush-then-close);
  /// `conn` may be destroyed during the call.
  void reject_auth(Conn& conn, AuthRejectCode code);
  /// Queues an upload's ingest, moving its record into the job.
  void handle_frame(Conn& conn, Frame&& frame);
  /// Answers a query-call or join-call inline or via the call worker.
  void handle_call(Conn& conn, WireMessage call);
  /// Stored bitmap bytes `call` is expected to read.
  [[nodiscard]] std::size_t call_cost_bytes(const WireMessage& call) const;
  /// Runs `call` and encodes its reply as one stream frame (any thread).
  /// A reply too large for a frame - its size is the caller's to set -
  /// becomes an error reply, since framing it would abort the daemon.
  [[nodiscard]] std::vector<std::uint8_t> answer_call(
      const WireMessage& call) const;
  /// Opens (or restarts) a replication subscription on `conn` and begins
  /// the snapshot stream; `conn` may be destroyed during the call.
  void handle_repl_subscribe(Conn& conn, const ReplSubscribe& sub);
  /// Streams more snapshot batches while the connection's outbuf is below
  /// the high-water mark; re-posted by flush() as the peer drains.
  void continue_snapshot(std::uint64_t conn_id);
  /// Live-forwards a first-accept ingest to every matching subscriber.
  void forward_to_subscribers(const TrafficRecord& record);
  /// Recomputes the subscriber-count and replication-lag gauges.
  void update_repl_gauges();
  void finish_ingest(std::uint64_t conn_id, std::uint64_t location,
                     std::uint64_t period, const TraceContext& trace,
                     const Status& status,
                     const std::optional<TrafficRecord>& forwarded);
  /// The send_* calls append one frame to conn.outbuf and flush; a write
  /// error destroys `conn` during the call.
  void send_message(Conn& conn, const WireMessage& message);
  /// Sends an already-framed message (a call reply).
  void send_framed(Conn& conn, std::vector<std::uint8_t> framed);
  void flush(Conn& conn);
  void update_interest(Conn& conn);
  void pause_reads(Conn& conn, std::uint64_t resume_after_ms);
  void close_conn(int fd);
  void sweep_idle();
  [[nodiscard]] Conn* conn_by_id(std::uint64_t id) noexcept;

  PtmdOptions options_;
  QueryService service_;
  AdmissionController ingest_gate_;
  std::optional<RecordArchive> archive_;
  std::size_t restored_ = 0;

  EventLoop loop_;
  Socket listener_;
  Socket repl_listener_;         ///< valid only with repl_endpoint set
  bool accepts_paused_ = false;  ///< listener read interest dropped
  bool repl_accepts_paused_ = false;
  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  std::thread call_worker_;
  std::atomic<bool> running_{false};

  // Loop-thread state.
  std::map<int, std::unique_ptr<Conn>> conns_;        ///< fd -> conn
  std::map<std::uint64_t, int> conn_fd_by_id_;        ///< id -> fd
  std::uint64_t next_conn_id_ = 1;
  Xoshiro256 auth_rng_{1};  ///< challenge nonces (reseeded from entropy
                            ///< at construction); loop thread only

  // Worker queue (mutex-guarded; workers block here, never in the loop).
  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::deque<IngestJob> jobs_;
  // Call worker queue, guarded the same way.
  std::mutex calls_mu_;
  std::condition_variable calls_cv_;
  std::deque<CallJob> calls_;

  Counter& accepted_;         ///< transport_accepted_total
  Counter& accept_backoffs_;  ///< transport_accept_backoffs_total
  Counter& frames_;           ///< transport_frames_total
  Counter& ingest_shed_;      ///< transport_ingest_shed_total
  Counter& nacks_;            ///< transport_nacks_total
  Counter& protocol_errors_;  ///< transport_protocol_errors_total
  Counter& auth_ok_;          ///< transport_auth_ok_total
  Counter& auth_failures_;    ///< transport_auth_failures_total (timeouts)
  Counter& auth_rejects_;     ///< transport_auth_rejects_total
  Counter& repl_records_;     ///< transport_repl_records_total
  Counter& calls_offloaded_;  ///< transport_calls_offloaded_total
  Counter& interest_updates_; ///< transport_interest_updates_total
  Gauge& connections_;        ///< transport_connections
  Gauge& repl_subscribers_;   ///< transport_repl_subscribers
  Gauge& repl_lag_;           ///< transport_repl_lag (sent - acked)
};

}  // namespace ptm::transport
