#include "transport/connection.hpp"

#include <array>
#include <chrono>
#include <thread>
#include <utility>

namespace ptm::transport {
namespace {

TelemetryRegistry& resolve_registry(
    TelemetryRegistry* external, std::unique_ptr<TelemetryRegistry>& owned) {
  if (external != nullptr) return *external;
  owned = std::make_unique<TelemetryRegistry>();
  return *owned;
}

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Milliseconds left on `deadline`, clamped to `cap_ms`.
std::uint64_t budget_ms(const Deadline& deadline, std::uint64_t cap_ms) {
  if (deadline.unbounded()) return cap_ms;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline.remaining())
                        .count();
  const std::uint64_t ms = left <= 0 ? 0 : static_cast<std::uint64_t>(left);
  return ms < cap_ms ? ms : cap_ms;
}

}  // namespace

SupervisedConnection::SupervisedConnection(Endpoint endpoint,
                                           ConnectionTuning tuning,
                                           TelemetryRegistry* registry,
                                           std::uint64_t seed)
    : endpoint_(std::move(endpoint)),
      tuning_(tuning),
      registry_(resolve_registry(registry, owned_registry_)),
      rng_(seed),
      connects_(registry_.counter("transport_connects_total")),
      reconnects_(registry_.counter("transport_reconnects_total")),
      connect_failures_(
          registry_.counter("transport_connect_failures_total")),
      heartbeat_timeouts_(
          registry_.counter("transport_heartbeat_timeouts_total")),
      auth_ok_(registry_.counter("transport_auth_ok_total")),
      auth_failures_(registry_.counter("transport_auth_failures_total")),
      auth_rejects_(registry_.counter("transport_auth_rejects_total")),
      state_gauge_(registry_.gauge("transport_connection_state")),
      heartbeat_rtt_(registry_.histogram("transport_heartbeat_rtt_ns")) {}

void SupervisedConnection::set_socket_faults(
    std::map<std::uint64_t, std::vector<SocketFault>> faults) {
  socket_faults_ = std::move(faults);
}

void SupervisedConnection::set_credentials(
    std::optional<AuthCredentials> credentials) {
  credentials_ = std::move(credentials);
  cert_bytes_ = credentials_.has_value()
                    ? credentials_->certificate.serialize()
                    : std::vector<std::uint8_t>{};
}

void SupervisedConnection::mark(State s) noexcept {
  state_ = s;
  state_gauge_.set(static_cast<std::int64_t>(s));
}

std::uint64_t SupervisedConnection::backoff_delay_ms(std::uint32_t attempt) {
  // Same clamp-after-jitter rule as UploadOutbox::schedule_retry: the cap
  // is a true ceiling, not a pre-jitter base.
  const std::uint32_t shift = attempt < 32 ? attempt : 32;
  std::uint64_t delay = tuning_.backoff_base_ms << shift;
  if (delay == 0 || (delay >> shift) != tuning_.backoff_base_ms) {
    delay = tuning_.backoff_cap_ms;  // overflowed: already beyond the cap
  }
  if (tuning_.backoff_base_ms > 0) {
    delay += rng_.below(tuning_.backoff_base_ms + 1);
  }
  return delay < tuning_.backoff_cap_ms ? delay : tuning_.backoff_cap_ms;
}

Status SupervisedConnection::ensure_connected(const Deadline& deadline) {
  if (state_ == State::kConnected && session_.has_value() &&
      session_->socket().valid() && !session_->severed()) {
    return Status::ok();
  }
  sever();  // discard any broken session before redialing
  for (std::uint32_t attempt = 0;; ++attempt) {
    if (deadline.expired_now()) {
      return {ErrorCode::kDeadlineExceeded,
              "connect deadline exceeded: " + endpoint_.to_string()};
    }
    const std::uint64_t connect_ms =
        budget_ms(deadline, tuning_.connect_timeout_ms);
    auto sock = Socket::connect(endpoint_, connect_ms);
    if (sock) {
      const std::uint64_t ordinal = connections_opened_++;
      std::vector<SocketFault> script;
      if (auto it = socket_faults_.find(ordinal);
          it != socket_faults_.end()) {
        script = it->second;
      }
      session_.emplace(std::move(*sock), std::move(script));
      decoder_ = StreamDecoder();
      pending_.clear();
      // Fresh nonce space per session (see the member comment): a stale
      // ack replayed from a prior connection must never match.
      next_heartbeat_nonce_ = rng_.next() | 1;
      connects_.add();
      if (ordinal > 0) reconnects_.add();
      mark(State::kConnected);
      if (!credentials_.has_value()) return Status::ok();
      Status auth = run_handshake(deadline);
      if (auth.is_ok()) {
        auth_ok_.add();
        return Status::ok();
      }
      sever();
      if (auth.code() == ErrorCode::kAuthFailure) {
        // The server's verdict, not the channel's: retrying the same
        // certificate can only be rejected again.
        auth_rejects_.add();
        return auth;
      }
      // Channel casualty mid-handshake (drop/truncate/sever/timeout):
      // never half-authenticated - the session is gone, and the normal
      // backoff ladder below paces the re-dial + re-handshake.
      auth_failures_.add();
    } else {
      connect_failures_.add();
    }
    // Under a millisecond left: every wait below rounds down to zero, so
    // another dial could not finish a handshake - and redialing without a
    // pause would spin through one fresh connection per loop until the
    // deadline's last fraction of a millisecond runs out.
    if (budget_ms(deadline, 1) == 0) {
      return {ErrorCode::kDeadlineExceeded,
              "connect deadline exceeded: " + endpoint_.to_string()};
    }
    const std::uint64_t sleep_ms =
        budget_ms(deadline, backoff_delay_ms(attempt));
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
  }
}

Status SupervisedConnection::run_handshake(const Deadline& deadline) {
  if (Status s = send(AuthHello{cert_bytes_}); !s.is_ok()) return s;
  // Each wait is bounded by io_timeout even under an unbounded caller
  // deadline: a server that swallowed the hello must not hang the dial
  // loop forever.
  const Deadline challenge_wait = Deadline::after(std::chrono::milliseconds(
      budget_ms(deadline, tuning_.io_timeout_ms)));
  auto challenge = receive(challenge_wait);
  if (!challenge) return challenge.status();
  const auto* ch = std::get_if<AuthChallenge>(&*challenge);
  if (ch == nullptr) {
    // receive() already surfaced an auth-reject as kAuthFailure; any
    // other kind here means the peer broke the handshake sequence.
    return {ErrorCode::kChannelError,
            std::string("handshake: expected auth-challenge, got ") +
                wire_kind_name(wire_kind(*challenge))};
  }
  const std::vector<std::uint8_t> transcript =
      auth_transcript(ch->nonce, cert_bytes_);
  if (Status s = send(AuthProof{rsa_sign(credentials_->keys, transcript)});
      !s.is_ok()) {
    return s;
  }
  const Deadline verdict_wait = Deadline::after(std::chrono::milliseconds(
      budget_ms(deadline, tuning_.io_timeout_ms)));
  auto verdict = receive(verdict_wait);
  if (!verdict) return verdict.status();
  if (std::holds_alternative<AuthOk>(*verdict)) return Status::ok();
  return {ErrorCode::kChannelError,
          std::string("handshake: expected auth-ok, got ") +
              wire_kind_name(wire_kind(*verdict))};
}

Status SupervisedConnection::send(const WireMessage& message) {
  if (state_ != State::kConnected || !session_.has_value()) {
    return {ErrorCode::kChannelError, "not connected"};
  }
  ByteWriter wire;
  append_frame(wire, message);
  auto written = session_->write_frame(wire.buffer(), tuning_.io_timeout_ms);
  if (!written) {
    mark(State::kBroken);
    return written.status();
  }
  if (written->severed) {
    mark(State::kBroken);
    return {ErrorCode::kChannelError, "connection severed by fault script"};
  }
  return Status::ok();
}

Result<std::span<const std::uint8_t>> SupervisedConnection::read_frame(
    const Deadline& deadline) {
  for (;;) {
    auto payload = decoder_.next();
    if (!payload) {
      mark(State::kBroken);
      return payload.status();  // poisoned stream: caller must sever
    }
    if (payload->has_value()) return **payload;
    if (deadline.expired_now()) {
      return Status{ErrorCode::kDeadlineExceeded, "read deadline exceeded"};
    }
    Socket& sock = session_->socket();
    auto ready = sock.wait(/*want_write=*/false,
                           budget_ms(deadline, tuning_.io_timeout_ms));
    if (!ready) {
      mark(State::kBroken);
      return ready.status();
    }
    if (!*ready) {
      if (deadline.unbounded()) {
        return Status{ErrorCode::kDeadlineExceeded, "read timed out"};
      }
      continue;  // deadline loop decides whether to keep waiting
    }
    std::array<std::uint8_t, 16 * 1024> buf;
    auto io = sock.read_some(buf);
    if (!io) {
      mark(State::kBroken);
      return io.status();
    }
    if (io->peer_closed) {
      mark(State::kBroken);
      return Status{ErrorCode::kChannelError, "peer closed connection"};
    }
    decoder_.feed(std::span<const std::uint8_t>(buf.data(), io->bytes));
  }
}

Result<WireMessage> SupervisedConnection::receive(const Deadline& deadline) {
  for (;;) {
    if (!pending_.empty()) {
      WireMessage msg = std::move(pending_.front());
      pending_.pop_front();
      return msg;
    }
    if (state_ != State::kConnected || !session_.has_value()) {
      return Status{ErrorCode::kChannelError, "not connected"};
    }
    auto payload = read_frame(deadline);
    if (!payload) return payload.status();
    // Decode into an owned message first: the payload views decoder_,
    // which the sends and severs below may feed or reset.
    auto msg = decode_wire_message(*payload);
    if (!msg) {
      // A codec violation inside a well-framed payload is as fatal as a
      // bad length prefix: the peer is speaking a different protocol.
      sever();
      return msg.status();
    }
    if (const auto* hb = std::get_if<Heartbeat>(&*msg)) {
      // Server-initiated liveness probe: answer and keep reading.
      if (Status s = send(HeartbeatAck{hb->nonce, hb->send_unix_ns});
          !s.is_ok()) {
        return s;
      }
      continue;
    }
    if (const auto* reject = std::get_if<AuthReject>(&*msg)) {
      // The server refused this session (it closes right after sending
      // this); whether we were mid-handshake or sent traffic without
      // credentials, the session is unusable.
      sever();
      return Status{ErrorCode::kAuthFailure,
                    std::string("server rejected authentication: ") +
                        auth_reject_code_name(reject->code)};
    }
    return std::move(*msg);
  }
}

Result<std::uint64_t> SupervisedConnection::ping() {
  if (state_ != State::kConnected || !session_.has_value()) {
    return Status{ErrorCode::kChannelError, "not connected"};
  }
  const std::uint64_t nonce = next_heartbeat_nonce_++;
  const std::uint64_t sent_ns = steady_now_ns();
  if (Status s = send(Heartbeat{nonce, sent_ns}); !s.is_ok()) return s;
  const Deadline wait = Deadline::after(
      std::chrono::milliseconds(tuning_.heartbeat_timeout_ms));
  for (;;) {
    auto msg = receive(wait);
    if (!msg) {
      if (msg.status().code() == ErrorCode::kDeadlineExceeded) {
        // Half-open: the peer accepted our bytes but answers nothing.
        heartbeat_timeouts_.add();
        sever();
        return Status{ErrorCode::kChannelError,
                      "heartbeat unanswered: connection half-open"};
      }
      return msg.status();
    }
    if (const auto* ack = std::get_if<HeartbeatAck>(&*msg)) {
      if (ack->nonce != nonce) continue;  // stale ack from a prior ping
      const std::uint64_t rtt = steady_now_ns() - sent_ns;
      heartbeat_rtt_.record(rtt);
      return rtt;
    }
    // Not ours: park it for the next receive() call.
    pending_.push_back(std::move(*msg));
  }
}

void SupervisedConnection::sever() noexcept {
  const bool had_session = session_.has_value();
  session_.reset();
  decoder_ = StreamDecoder();
  pending_.clear();
  // A severed live session is kBroken (the next ensure_connected counts as
  // a reconnect); severing an already-dead connection changes nothing.
  mark(had_session ? State::kBroken : State::kDisconnected);
}

}  // namespace ptm::transport
