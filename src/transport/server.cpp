#include "transport/server.hpp"

#include <array>
#include <chrono>
#include <random>
#include <thread>
#include <type_traits>
#include <utility>

#include "crypto/certificate.hpp"
#include "net/message.hpp"
#include "obs/export.hpp"
#include "transport/auth.hpp"

namespace ptm::transport {
namespace {

/// Failures worth retransmitting: everything except the errors that say
/// "this exact record can never be accepted".
bool retryable_ingest_failure(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kFailedPrecondition:  // conflicting record for the slot
    case ErrorCode::kInvalidArgument:
    case ErrorCode::kOutOfRange:
    case ErrorCode::kParseError:
      return false;
    default:
      return true;
  }
}

/// Calls expected to read more stored bitmap bytes than this run on the
/// call worker.  A join over 256 KiB takes tens of microseconds, about
/// what handing it to the worker and back costs.
constexpr std::size_t kInlineCallBytes = 256u << 10;

/// Challenge nonces need unpredictability, not determinism: seed from the
/// system entropy source (the chaos scripts key on frame ordinals, never
/// on nonce values, so tests stay deterministic anyway).
std::uint64_t entropy_seed() {
  std::random_device rd;
  return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
}

}  // namespace

PtmdServer::PtmdServer(PtmdOptions options)
    : options_(std::move(options)),
      service_(options_.service),
      ingest_gate_(options_.ingest_admission, &service_.telemetry()),
      accepted_(service_.telemetry().counter("transport_accepted_total")),
      accept_backoffs_(
          service_.telemetry().counter("transport_accept_backoffs_total")),
      frames_(service_.telemetry().counter("transport_frames_total")),
      ingest_shed_(
          service_.telemetry().counter("transport_ingest_shed_total")),
      nacks_(service_.telemetry().counter("transport_nacks_total")),
      protocol_errors_(
          service_.telemetry().counter("transport_protocol_errors_total")),
      auth_ok_(service_.telemetry().counter("transport_auth_ok_total")),
      auth_failures_(
          service_.telemetry().counter("transport_auth_failures_total")),
      auth_rejects_(
          service_.telemetry().counter("transport_auth_rejects_total")),
      repl_records_(
          service_.telemetry().counter("transport_repl_records_total")),
      calls_offloaded_(
          service_.telemetry().counter("transport_calls_offloaded_total")),
      interest_updates_(
          service_.telemetry().counter("transport_interest_updates_total")),
      connections_(service_.telemetry().gauge("transport_connections")),
      repl_subscribers_(
          service_.telemetry().gauge("transport_repl_subscribers")),
      repl_lag_(service_.telemetry().gauge("transport_repl_lag")) {
  if (options_.ingest_threads == 0) options_.ingest_threads = 1;
  // A pause of 0 would never arm a resume timer; a shed connection with no
  // pending ingests would then stay paused forever (see PtmdOptions).
  if (options_.shed_pause_ms == 0) options_.shed_pause_ms = 1;
  if (options_.accept_retry_ms == 0) options_.accept_retry_ms = 1;
  if (options_.auth_timeout_ms == 0) options_.auth_timeout_ms = 1;
  auth_rng_.reseed(entropy_seed());
}

PtmdServer::~PtmdServer() { stop(); }

Status PtmdServer::start() {
  if (running_.load()) return Status::ok();
  if (options_.require_auth && !options_.auth_ca_key.has_value()) {
    return {ErrorCode::kInvalidArgument,
            "require_auth without a CA key would reject every peer"};
  }
  if (options_.repl_endpoint.has_value() &&
      options_.repl_endpoint->to_string() == options_.endpoint.to_string()) {
    // Catch the operator error at startup with a message that names the
    // endpoint, instead of the second bind failing deep in the run loop.
    return {ErrorCode::kInvalidArgument,
            "--repl-listen duplicates --listen (" +
                options_.endpoint.to_string() +
                "); replication needs its own endpoint"};
  }
  if (!options_.archive_path.empty()) {
    auto archive = RecordArchive::open(options_.archive_path, {});
    if (!archive) return archive.status();
    archive_.emplace(std::move(*archive));
    service_.attach_durability(*archive_);
    auto restored = service_.restore_from_archive();
    if (!restored) return restored.status();
    restored_ = *restored;
  }
  auto listener = Socket::listen(options_.endpoint);
  if (!listener) return listener.status();
  listener_ = std::move(*listener);
  if (Status s = loop_.add(listener_.fd(), EventLoop::kReadable,
                           [this](std::uint32_t) {
                             on_acceptable(listener_, accepts_paused_);
                           });
      !s.is_ok()) {
    return s;
  }
  if (options_.repl_endpoint.has_value()) {
    auto repl = Socket::listen(*options_.repl_endpoint);
    if (!repl) return repl.status();
    repl_listener_ = std::move(*repl);
    if (Status s =
            loop_.add(repl_listener_.fd(), EventLoop::kReadable,
                      [this](std::uint32_t) {
                        on_acceptable(repl_listener_, repl_accepts_paused_);
                      });
        !s.is_ok()) {
      return s;
    }
  }
  if (options_.idle_timeout_ms > 0) {
    loop_.add_timer(options_.idle_timeout_ms / 2 + 1,
                    [this] { sweep_idle(); });
  }
  running_.store(true);
  for (std::size_t i = 0; i < options_.ingest_threads; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
  call_worker_ = std::thread([this] { call_worker_main(); });
  loop_thread_ = std::thread([this] { loop_main(); });
  return Status::ok();
}

void PtmdServer::stop() {
  if (!running_.exchange(false)) {
    // start() may have failed between archive open and thread spawn.
    if (loop_thread_.joinable()) loop_thread_.join();
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
    workers_.clear();
    return;
  }
  jobs_cv_.notify_all();
  {
    // Taking the lock orders the notify after the worker's predicate check.
    std::lock_guard lock(calls_mu_);
  }
  calls_cv_.notify_all();
  if (call_worker_.joinable()) call_worker_.join();
  {
    // Unanswered calls: the caller's await times out and fails over.
    std::lock_guard lock(calls_mu_);
    calls_.clear();
  }
  // Join the workers while the loop is still alive: an in-flight ingest
  // posts its finish_ingest (ack/nack + gate release) to a loop that will
  // actually run it.  Stopping the loop first would strand those posts.
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Jobs the workers never picked up each hold one admission slot; release
  // them so gate accounting stays balanced through shutdown.  Their
  // uploads are unacked, so the RSU outbox retransmits after restart -
  // exactly the crash semantics the chaos suite proves.
  {
    std::lock_guard lock(jobs_mu_);
    for (std::size_t i = jobs_.size(); i > 0; --i) ingest_gate_.release();
    jobs_.clear();
  }
  loop_.post([this] { loop_.stop(); });
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop thread is gone; tearing down connection state is safe here.
  conns_.clear();
  conn_fd_by_id_.clear();
  connections_.set(0);
}

void PtmdServer::loop_main() { loop_.run(); }

void PtmdServer::worker_main() {
  for (;;) {
    IngestJob job;
    {
      std::unique_lock lock(jobs_mu_);
      jobs_cv_.wait(lock,
                    [this] { return !jobs_.empty() || !running_.load(); });
      // On stop, leave queued jobs for stop() to discard (it releases
      // their gate slots); once the loop is torn down their results could
      // never be posted anyway.
      if (!running_.load()) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    if (options_.ingest_stall_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.ingest_stall_us));
    }
    const std::uint64_t location = job.record.location;
    const std::uint64_t period = job.record.period;
    bool first_accept = false;
    const Status status =
        service_.ingest(job.record, job.trace, &first_accept);
    // Only a first accept is worth forwarding to replication subscribers:
    // re-deliveries dedupe here and must not become duplicate repl
    // traffic.  The record rides the post back to the loop thread, which
    // owns the subscriber connections.
    std::optional<TrafficRecord> forwarded;
    if (status.is_ok() && first_accept) {
      forwarded.emplace(std::move(job.record));
    }
    loop_.post([this, conn_id = job.conn_id, location, period,
                trace = job.trace, status,
                forwarded = std::move(forwarded)] {
      finish_ingest(conn_id, location, period, trace, status, forwarded);
    });
  }
}

void PtmdServer::call_worker_main() {
  for (;;) {
    CallJob job;
    {
      std::unique_lock lock(calls_mu_);
      calls_cv_.wait(lock,
                     [this] { return !calls_.empty() || !running_.load(); });
      if (!running_.load()) return;
      job = std::move(calls_.front());
      calls_.pop_front();
    }
    loop_.post([this, conn_id = job.conn_id,
                framed = answer_call(job.call)]() mutable {
      if (Conn* conn = conn_by_id(conn_id)) {
        send_framed(*conn, std::move(framed));
      }
    });
  }
}

void PtmdServer::on_acceptable(Socket& listener, bool& paused_flag) {
  for (;;) {
    auto accepted = listener.accept();
    if (!accepted) {
      // Hard error (EMFILE/ENFILE under fd exhaustion).  The listener
      // stays readable in the level-triggered set, so returning with the
      // event pending would spin the loop thread at 100% CPU; drop its
      // read interest and retry after a breather instead.
      pause_accepts(listener, paused_flag);
      return;
    }
    if (!accepted->valid()) return;  // would-block: drained the backlog
    const int fd = accepted->fd();
    auto conn = std::make_unique<Conn>();
    conn->sock = std::move(*accepted);
    conn->id = next_conn_id_++;
    conn->last_activity_ms = EventLoop::now_ms();
    if (options_.require_auth) conn->auth_phase = AuthPhase::kAwaitHello;
    if (Status s =
            loop_.add(fd, EventLoop::kReadable,
                      [this, fd](std::uint32_t ev) { on_conn_event(fd, ev); });
        !s.is_ok()) {
      continue;  // conn destructor closes the socket
    }
    conn_fd_by_id_[conn->id] = fd;
    const std::uint64_t conn_id = conn->id;
    conns_[fd] = std::move(conn);
    accepted_.add();
    connections_.add(1);
    if (options_.require_auth) {
      // A peer that dials and never completes the handshake (or stalls
      // mid-way, e.g. a torn proof) must not hold a socket open; the
      // idle sweep may be configured off, so auth gets its own clock.
      loop_.add_timer(options_.auth_timeout_ms, [this, conn_id] {
        Conn* c = conn_by_id(conn_id);
        if (c == nullptr || c->auth_phase == AuthPhase::kReady) return;
        auth_failures_.add();
        close_conn(c->sock.fd());
      });
    }
  }
}

void PtmdServer::pause_accepts(Socket& listener, bool& paused_flag) {
  if (paused_flag) return;
  paused_flag = true;
  accept_backoffs_.add();
  (void)loop_.modify(listener.fd(), 0);
  loop_.add_timer(options_.accept_retry_ms, [this, &listener, &paused_flag] {
    paused_flag = false;
    (void)loop_.modify(listener.fd(), EventLoop::kReadable);
    // Drain connections that queued while paused.
    on_acceptable(listener, paused_flag);
  });
}

void PtmdServer::on_conn_event(int fd, std::uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  conn.last_activity_ms = EventLoop::now_ms();
  if (events & EventLoop::kWritable) {
    flush(conn);
    if (conns_.find(fd) == conns_.end()) return;  // flush finished a close
  }
  if ((events & EventLoop::kReadable) && !conn.paused && !conn.closing) {
    std::array<std::uint8_t, 16 * 1024> buf;
    for (int round = 0; round < 4; ++round) {  // bounded per event: fairness
      auto io = conn.sock.read_some(buf);
      if (!io || io->peer_closed) {
        close_conn(fd);
        return;
      }
      if (io->would_block) break;
      conn.decoder.feed(std::span<const std::uint8_t>(buf.data(), io->bytes));
    }
    // Drain every complete frame buffered so far.  Stops early when a
    // handler pauses the connection (backpressure) - the remaining bytes
    // wait in the decoder until the resume path re-drains.  Each payload
    // is a view into conn.decoder, which handle_payload decodes into an
    // owned message before any handler can close (and so destroy) it.
    while (!conn.paused && !conn.closing) {
      auto payload = conn.decoder.next();
      if (!payload) {
        protocol_errors_.add();
        close_conn(fd);
        return;
      }
      if (!payload->has_value()) break;
      handle_payload(conn, **payload);
      if (conns_.find(fd) == conns_.end()) return;  // handler closed it
    }
  }
}

void PtmdServer::handle_payload(Conn& conn,
                                std::span<const std::uint8_t> payload) {
  auto message = decode_wire_message(payload);
  if (!message) {
    protocol_errors_.add();
    close_conn(conn.sock.fd());
    return;
  }
  if (conn.auth_phase != AuthPhase::kReady ||
      std::holds_alternative<AuthHello>(*message) ||
      std::holds_alternative<AuthProof>(*message)) {
    // Mid-handshake every kind routes through the auth state machine (so
    // nothing leaks past an unverified peer); at kReady a hello is an
    // optional re/authentication attempt and a stray proof is a sequence
    // violation the state machine rejects.
    handle_auth(conn, *message);
    return;
  }
  if (auto* frame = std::get_if<Frame>(&*message)) {
    handle_frame(conn, std::move(*frame));
    return;
  }
  if (const auto* hb = std::get_if<Heartbeat>(&*message)) {
    send_message(conn, HeartbeatAck{hb->nonce, hb->send_unix_ns});
    return;
  }
  if (std::holds_alternative<StatsRequest>(*message)) {
    send_message(conn,
                 StatsResponse{to_json(service_.telemetry().snapshot())});
    return;
  }
  if (const auto* sub = std::get_if<ReplSubscribe>(&*message)) {
    handle_repl_subscribe(conn, *sub);
    return;
  }
  if (const auto* ack = std::get_if<ReplAck>(&*message)) {
    if (conn.repl_subscriber && ack->acked_seq > conn.repl_acked &&
        ack->acked_seq <= conn.repl_seq) {
      conn.repl_acked = ack->acked_seq;
      update_repl_gauges();
    }
    return;
  }
  if (std::holds_alternative<QueryCall>(*message) ||
      std::holds_alternative<JoinCall>(*message)) {
    handle_call(conn, std::move(*message));
    return;
  }
  // Acks/nacks/stats flowing server-ward carry nothing for us; ignoring
  // them keeps the protocol symmetric without inventing error paths.
}

void PtmdServer::handle_auth(Conn& conn, const WireMessage& message) {
  switch (conn.auth_phase) {
    case AuthPhase::kReady:
    case AuthPhase::kAwaitHello: {
      const auto* hello = std::get_if<AuthHello>(&message);
      if (hello == nullptr) {
        // require_auth and the peer led with traffic (or, at kReady, sent
        // a proof nobody challenged): authenticate first.
        reject_auth(conn, AuthRejectCode::kAuthRequired);
        return;
      }
      if (!options_.auth_ca_key.has_value()) {
        reject_auth(conn, AuthRejectCode::kAuthUnavailable);
        return;
      }
      auto cert = Certificate::deserialize(hello->certificate);
      if (!cert) {
        reject_auth(conn, AuthRejectCode::kMalformedCertificate);
        return;
      }
      if (options_.auth_period < cert->valid_from ||
          options_.auth_period > cert->valid_until) {
        reject_auth(conn, AuthRejectCode::kCertificateExpired);
        return;
      }
      if (!rsa_verify(*options_.auth_ca_key, cert->tbs_bytes(),
                      cert->signature)) {
        reject_auth(conn, AuthRejectCode::kUntrustedCertificate);
        return;
      }
      conn.peer_key = cert->subject_key;
      conn.peer_cert_bytes = hello->certificate;
      conn.auth_nonce.resize(kAuthNonceBytes);
      for (auto& b : conn.auth_nonce) {
        b = static_cast<std::uint8_t>(auth_rng_.next());
      }
      conn.auth_phase = AuthPhase::kAwaitProof;
      send_message(conn, AuthChallenge{conn.auth_nonce});
      return;
    }
    case AuthPhase::kAwaitProof: {
      const auto* proof = std::get_if<AuthProof>(&message);
      if (proof == nullptr) {
        reject_auth(conn, AuthRejectCode::kAuthRequired);
        return;
      }
      const std::vector<std::uint8_t> transcript =
          auth_transcript(conn.auth_nonce, conn.peer_cert_bytes);
      if (!rsa_verify(conn.peer_key, transcript, proof->signature)) {
        reject_auth(conn, AuthRejectCode::kBadProof);
        return;
      }
      conn.auth_phase = AuthPhase::kReady;
      conn.auth_nonce.clear();
      conn.peer_cert_bytes.clear();
      auth_ok_.add();
      send_message(conn, AuthOk{});
      return;
    }
  }
}

void PtmdServer::reject_auth(Conn& conn, AuthRejectCode code) {
  auth_rejects_.add();
  // Flush-then-close: the verdict must reach the peer (so it can stop
  // retrying a hopeless certificate), but nothing after it will.
  conn.closing = true;
  send_message(conn, AuthReject{code});
}

void PtmdServer::handle_frame(Conn& conn, Frame&& frame) {
  frames_.add();
  auto* upload = std::get_if<RecordUpload>(&frame.body);
  if (upload == nullptr) return;  // ptmd ingests; other V2I traffic is noise
  const std::uint64_t location = upload->record.location;
  const std::uint64_t period = upload->record.period;
  if (Status gate = ingest_gate_.try_admit(); !gate.is_ok()) {
    ingest_shed_.add();
    nacks_.add();
    const std::uint64_t conn_id = conn.id;
    send_message(conn, UploadNack{location, period,
                                  ErrorCode::kResourceExhausted,
                                  /*retryable=*/true});
    // send_message flushes, and a hard write error (peer reset or
    // half-closed while we shed) destroys the Conn mid-call - re-resolve
    // before touching it, exactly as finish_ingest does.
    if (Conn* after = conn_by_id(conn_id); after != nullptr) {
      pause_reads(*after, options_.shed_pause_ms);
    }
    return;
  }
  ++conn.pending_ingests;
  if (conn.pending_ingests >= options_.max_pending_per_conn) {
    pause_reads(conn, /*resume_after_ms=*/0);  // resumes when half drains
  }
  {
    std::lock_guard lock(jobs_mu_);
    jobs_.push_back(
        IngestJob{conn.id, std::move(upload->record), frame.trace});
  }
  jobs_cv_.notify_one();
}

void PtmdServer::handle_call(Conn& conn, WireMessage call) {
  // A small call is cheaper to answer here than to hand off twice (to the
  // worker and back): a 10-period join over 2 KiB records took 38-41 us
  // per round trip inline, 62-69 us through the worker.  A large one
  // would stall every other connection's acks for its whole run: on one
  // node, 80-period joins over 128 KiB records (1.1-1.9 ms each) raised a
  // concurrent ingest's ack p90 from 0.08-0.27 ms to 1.2-3.3 ms when run
  // inline (docs/cluster.md).
  if (call_cost_bytes(call) <= kInlineCallBytes) {
    send_framed(conn, answer_call(call));
    return;
  }
  calls_offloaded_.add();
  {
    std::lock_guard lock(calls_mu_);
    calls_.push_back(CallJob{conn.id, std::move(call)});
  }
  calls_cv_.notify_one();
}

std::size_t PtmdServer::call_cost_bytes(const WireMessage& call) const {
  // Records of one location share its Eq. 2 size, which plan_size
  // recomputes from the location's volume history.
  const auto bytes = [this](std::uint64_t location, std::size_t periods) {
    return periods * ((service_.plan_size(location) + 7) / 8);
  };
  if (const auto* join = std::get_if<JoinCall>(&call)) {
    return bytes(join->location, join->periods.size());
  }
  return std::visit(
      [&](const auto& q) -> std::size_t {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, PointVolumeQuery>) {
          return bytes(q.location, 1);
        } else if constexpr (std::is_same_v<T, PointPersistentQuery>) {
          return bytes(q.location, q.periods.size());
        } else if constexpr (std::is_same_v<T, RecentPersistentQuery>) {
          return bytes(q.location, q.window);
        } else if constexpr (std::is_same_v<T, P2PPersistentQuery>) {
          return bytes(q.location_a, q.periods.size()) +
                 bytes(q.location_b, q.periods.size());
        } else {
          std::size_t total = 0;
          for (std::uint64_t location : q.locations) {
            total += bytes(location, q.periods.size());
          }
          return total;
        }
      },
      std::get<QueryCall>(call).request);
}

std::vector<std::uint8_t> PtmdServer::answer_call(
    const WireMessage& call) const {
  WireMessage reply;
  if (const auto* query = std::get_if<QueryCall>(&call)) {
    reply = QueryReply{query->correlation_id, service_.run(query->request)};
  } else {
    const JoinCall& join = std::get<JoinCall>(call);
    reply = JoinReply{join.correlation_id,
                      service_.join_location(join.location, join.periods,
                                             join.deadline)};
  }
  ByteWriter w;
  std::size_t prefix_at = open_frame(w);
  encode_wire_message(w, reply);
  if (w.size() - prefix_at - 4 > StreamDecoder::kMaxFrameBytes) {
    const Status oversize{ErrorCode::kResourceExhausted,
                          "reply exceeds the frame limit"};
    if (auto* query = std::get_if<QueryReply>(&reply)) {
      query->response = QueryResponse{};
      query->response.status = oversize;
    } else {
      std::get<JoinReply>(reply).join = LocationJoin{oversize, {}, {}};
    }
    w = ByteWriter();
    prefix_at = open_frame(w);
    encode_wire_message(w, reply);
  }
  seal_frame(w, prefix_at);
  return w.take();
}

void PtmdServer::handle_repl_subscribe(Conn& conn, const ReplSubscribe& sub) {
  // (Re)subscribe resets the stream: a follower that redialed after a
  // sever gets a fresh snapshot, and its idempotent ingest absorbs the
  // overlap with what it already applied.
  conn.repl_subscriber = true;
  conn.subscriber_node = sub.subscriber_node;
  conn.repl_seq = 0;
  conn.repl_acked = 0;
  conn.snapshotting = true;
  conn.snapshot_cursor = QueryService::RecordCursor{};
  conn.snapshot_streamed = 0;
  const std::uint64_t conn_id = conn.id;
  update_repl_gauges();
  send_message(conn, ReplSnapshotBegin{service_.record_count()});
  // send_message may have destroyed the Conn on a write error;
  // continue_snapshot re-resolves by id.
  continue_snapshot(conn_id);
}

void PtmdServer::continue_snapshot(std::uint64_t conn_id) {
  // Pace the stream by the connection's own outbuf: stop queueing batches
  // once the peer stops draining.  A slow follower therefore costs this
  // node one high-water mark of memory and per-batch shared locks - not
  // an archive-sized copy under the archive mutex (the PR 9 fix).
  constexpr std::size_t kSnapshotBatch = 64;
  constexpr std::size_t kOutbufHighWater = 256u << 10;
  Conn* conn = conn_by_id(conn_id);
  if (conn == nullptr || !conn->snapshotting || conn->closing) return;
  while (conn->snapshotting &&
         conn->outbuf.size() - conn->out_off < kOutbufHighWater) {
    std::vector<TrafficRecord> batch =
        service_.records_batch(conn->snapshot_cursor, kSnapshotBatch);
    if (batch.empty()) {
      conn->snapshotting = false;
      send_message(*conn, ReplSnapshotEnd{conn->snapshot_streamed});
      break;
    }
    for (const TrafficRecord& rec : batch) {
      if (options_.repl_filter &&
          !options_.repl_filter(conn->subscriber_node, rec.location)) {
        continue;
      }
      ++conn->repl_seq;
      ++conn->snapshot_streamed;
      repl_records_.add();
      send_message(*conn, ReplRecord{conn->repl_seq, rec.serialize()});
      conn = conn_by_id(conn_id);  // a write error destroys the Conn
      if (conn == nullptr) return;
    }
  }
  update_repl_gauges();
}

void PtmdServer::forward_to_subscribers(const TrafficRecord& record) {
  // Collect ids first: send_message can destroy a Conn (write error), and
  // that invalidates any iterator into conns_.
  std::vector<std::uint64_t> subscriber_ids;
  for (const auto& [fd, conn] : conns_) {
    if (conn->repl_subscriber && !conn->closing) {
      subscriber_ids.push_back(conn->id);
    }
  }
  if (subscriber_ids.empty()) return;
  for (std::uint64_t id : subscriber_ids) {
    Conn* conn = conn_by_id(id);
    if (conn == nullptr) continue;
    if (options_.repl_filter &&
        !options_.repl_filter(conn->subscriber_node, record.location)) {
      continue;
    }
    ++conn->repl_seq;
    repl_records_.add();
    send_message(*conn, ReplRecord{conn->repl_seq, record.serialize()});
  }
  update_repl_gauges();
}

void PtmdServer::update_repl_gauges() {
  std::int64_t subscribers = 0;
  std::int64_t lag = 0;
  for (const auto& [fd, conn] : conns_) {
    if (!conn->repl_subscriber) continue;
    ++subscribers;
    lag += static_cast<std::int64_t>(conn->repl_seq - conn->repl_acked);
  }
  repl_subscribers_.set(subscribers);
  repl_lag_.set(lag);
}

void PtmdServer::finish_ingest(std::uint64_t conn_id, std::uint64_t location,
                               std::uint64_t period,
                               const TraceContext& trace,
                               const Status& status,
                               const std::optional<TrafficRecord>& forwarded) {
  ingest_gate_.release();
  // A first accept replicates even when the uploading connection died
  // between worker and loop: the record is already durable locally, so the
  // followers must see it too.
  if (forwarded.has_value()) forward_to_subscribers(*forwarded);
  Conn* conn = conn_by_id(conn_id);
  if (conn == nullptr) return;  // connection died while the ingest ran
  if (conn->pending_ingests > 0) --conn->pending_ingests;
  if (status.is_ok()) {
    Frame ack;
    ack.body = UploadAck{location, period};
    ack.trace = trace;
    send_message(*conn, ack);
  } else {
    nacks_.add();
    send_message(*conn,
                 UploadNack{location, period, status.code(),
                            retryable_ingest_failure(status.code())});
  }
  Conn* after = conn_by_id(conn_id);  // send_message may have closed it
  if (after != nullptr && after->paused &&
      after->pending_ingests <= options_.max_pending_per_conn / 2) {
    after->paused = false;
    update_interest(*after);
    // Re-drain frames that were decoded but parked behind the pause.
    const int fd = conn_fd_by_id_[conn_id];
    loop_.post([this, fd] { on_conn_event(fd, EventLoop::kReadable); });
  }
}

void PtmdServer::send_message(Conn& conn, const WireMessage& message) {
  // Encode straight into the connection's unsent output, no staging copy.
  ByteWriter w(std::move(conn.outbuf));
  append_frame(w, message);
  conn.outbuf = w.take();
  flush(conn);
}

void PtmdServer::send_framed(Conn& conn, std::vector<std::uint8_t> framed) {
  if (conn.outbuf.empty()) {
    conn.outbuf = std::move(framed);
  } else {
    conn.outbuf.insert(conn.outbuf.end(), framed.begin(), framed.end());
  }
  flush(conn);
}

void PtmdServer::flush(Conn& conn) {
  const int fd = conn.sock.fd();
  while (conn.out_off < conn.outbuf.size()) {
    auto io = conn.sock.write_some(std::span<const std::uint8_t>(
        conn.outbuf.data() + conn.out_off, conn.outbuf.size() - conn.out_off));
    if (!io) {
      close_conn(fd);
      return;
    }
    if (io->would_block) break;
    conn.out_off += io->bytes;
  }
  if (conn.out_off >= conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_off = 0;
    if (conn.closing) {
      close_conn(fd);
      return;
    }
    if (conn.snapshotting) {
      // The follower drained below the high-water mark - resume the
      // snapshot off-stack (flush can run deep inside send_message).
      loop_.post([this, id = conn.id] { continue_snapshot(id); });
    }
  }
  update_interest(conn);
}

void PtmdServer::update_interest(Conn& conn) {
  std::uint32_t interest = 0;
  if (!conn.paused && !conn.closing) interest |= EventLoop::kReadable;
  if (conn.out_off < conn.outbuf.size()) interest |= EventLoop::kWritable;
  // Every flush lands here; most leave the interest set as it was (an ack
  // written in full), and the epoll_ctl would be a wasted syscall.
  // The cache moves only when the kernel took the new set, so a failed
  // modify is retried on the next flush.
  if (interest == conn.interest) return;
  if (loop_.modify(conn.sock.fd(), interest).is_ok()) {
    conn.interest = interest;
    interest_updates_.add();
  }
}

void PtmdServer::pause_reads(Conn& conn, std::uint64_t resume_after_ms) {
  if (conn.paused) return;
  conn.paused = true;
  update_interest(conn);
  if (resume_after_ms > 0) {
    loop_.add_timer(resume_after_ms, [this, id = conn.id] {
      Conn* c = conn_by_id(id);
      if (c == nullptr || !c->paused || c->closing) return;
      c->paused = false;
      update_interest(*c);
      const int fd = conn_fd_by_id_[id];
      loop_.post([this, fd] { on_conn_event(fd, EventLoop::kReadable); });
    });
  }
}

void PtmdServer::close_conn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  const bool was_subscriber = it->second->repl_subscriber;
  loop_.remove(fd);
  conn_fd_by_id_.erase(it->second->id);
  conns_.erase(it);
  connections_.sub(1);
  if (was_subscriber) update_repl_gauges();
}

void PtmdServer::sweep_idle() {
  if (options_.idle_timeout_ms > 0) {
    const std::uint64_t now = EventLoop::now_ms();
    std::vector<int> stale;
    for (const auto& [fd, conn] : conns_) {
      // Replication links are exempt: the stream carries no heartbeat, so
      // a quiet primary would otherwise sever every follower each timeout
      // and force a full re-snapshot.  A dead subscriber still closes on
      // its write error or hangup.
      if (conn->repl_subscriber) continue;
      if (conn->pending_ingests == 0 &&
          now - conn->last_activity_ms > options_.idle_timeout_ms) {
        stale.push_back(fd);
      }
    }
    for (int fd : stale) close_conn(fd);
    loop_.add_timer(options_.idle_timeout_ms / 2 + 1,
                    [this] { sweep_idle(); });
  }
}

PtmdServer::Conn* PtmdServer::conn_by_id(std::uint64_t id) noexcept {
  auto it = conn_fd_by_id_.find(id);
  if (it == conn_fd_by_id_.end()) return nullptr;
  auto cit = conns_.find(it->second);
  return cit == conns_.end() ? nullptr : cit->second.get();
}

}  // namespace ptm::transport
