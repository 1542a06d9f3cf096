// connection.hpp - a supervised client connection to ptmd.
//
// A real RSU backhaul link flaps: connects time out, established sessions
// die mid-frame, and - worst of all - go *half-open* (the peer is gone but
// TCP keeps accepting writes into a buffer no one will ever read).  The
// SupervisedConnection owns the full lifecycle so callers never touch a
// raw socket:
//
//   * connect deadlines - a dial that cannot complete within
//     `connect_timeout_ms` fails instead of hanging;
//   * reconnect backoff - failed dials re-try with exponential backoff
//     plus uniform jitter (the outbox's clamp-after-jitter rule, in
//     milliseconds), so a fleet of RSUs recovering from one server outage
//     does not thunder in lockstep, and the attempts within one outage
//     are countable and bounded (the chaos suite asserts the cap);
//   * read/write deadlines - every blocking wait is bounded by
//     `io_timeout_ms` or the caller's Deadline;
//   * heartbeat keepalives - ping() round-trips a nonce; an unanswered
//     heartbeat within `heartbeat_timeout_ms` marks the connection
//     half-open and severs it, which is the only portable way to detect a
//     silently dead peer;
//   * scripted fault injection - an installed FaultPlan socket-fault map
//     (keyed by connection ordinal) wraps each new socket in a
//     FaultInjectingSocket, so chaos tests drive drops / truncations /
//     severs deterministically;
//   * PKI authentication - with credentials installed (set_credentials),
//     every connect AND reconnect runs the §II-B challenge-response
//     handshake (auth.hpp) before ensure_connected() reports success, so
//     no caller can ever send traffic on a half-authenticated session.
//     A handshake torn by the channel (drop / truncate / sever /
//     timeout) retries on the normal backoff ladder; a definitive
//     auth-reject from the server surfaces as kAuthFailure immediately -
//     redialing cannot fix a rejected certificate.
//
// Telemetry (registered on the given registry, or a private one):
//   transport_connects_total / transport_reconnects_total /
//   transport_connect_failures_total (counters),
//   transport_connection_state (gauge: 0 disconnected, 1 connected,
//   2 broken), transport_heartbeat_rtt_ns (histogram),
//   transport_heartbeat_timeouts_total (counter),
//   transport_auth_ok_total / transport_auth_failures_total (handshakes
//   torn by the channel) / transport_auth_rejects_total (definitive
//   server rejects) (counters).
//
// Threading: a SupervisedConnection belongs to one thread (each RSU
// emulator / loadgen worker owns its own).  The server side is the epoll
// loop in server.hpp; this class is deliberately synchronous because a
// client has exactly one connection to supervise.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/deadline.hpp"
#include "common/random.hpp"
#include "common/status.hpp"
#include "net/fault_plan.hpp"
#include "obs/telemetry.hpp"
#include "transport/auth.hpp"
#include "transport/fault_injection.hpp"
#include "transport/framing.hpp"
#include "transport/socket.hpp"
#include "transport/wire.hpp"

namespace ptm::transport {

struct ConnectionTuning {
  std::uint64_t connect_timeout_ms = 2000;
  std::uint64_t io_timeout_ms = 2000;        ///< per read/write wait bound
  std::uint64_t heartbeat_timeout_ms = 1500; ///< unanswered ping => half-open
  std::uint64_t backoff_base_ms = 20;        ///< reconnect backoff base
  std::uint64_t backoff_cap_ms = 2000;       ///< true ceiling (post-jitter)
};

class SupervisedConnection {
 public:
  enum class State : std::int64_t {
    kDisconnected = 0,
    kConnected = 1,
    kBroken = 2,  ///< last session died; next ensure_connected() redials
  };

  /// `registry` receives the connection's instruments (nullptr = own a
  /// private registry); `seed` drives the reconnect jitter.
  SupervisedConnection(Endpoint endpoint, ConnectionTuning tuning = {},
                       TelemetryRegistry* registry = nullptr,
                       std::uint64_t seed = 1);

  SupervisedConnection(const SupervisedConnection&) = delete;
  SupervisedConnection& operator=(const SupervisedConnection&) = delete;

  /// Installs scripted socket faults: connection ordinal (0-based count of
  /// sockets this supervisor has opened) -> that connection's script.
  void set_socket_faults(
      std::map<std::uint64_t, std::vector<SocketFault>> faults);

  /// Installs (or clears, with nullopt) the PKI credentials.  With
  /// credentials present, ensure_connected() only returns Ok once the
  /// handshake completed on the session it is reporting - including
  /// after every reconnect.  Takes effect on the next dial.
  void set_credentials(std::optional<AuthCredentials> credentials);
  [[nodiscard]] bool has_credentials() const noexcept {
    return credentials_.has_value();
  }

  /// Dials until connected or `deadline` expires, sleeping the backoff
  /// schedule between attempts.  Idempotent when already connected.
  [[nodiscard]] Status ensure_connected(const Deadline& deadline = Deadline());

  /// Sends one message on the current session (no auto-dial: callers
  /// decide when reconnecting is worth it).  kChannelError marks the
  /// connection broken; a scripted drop still returns Ok (the frame was
  /// "sent" as far as this endpoint can know).
  [[nodiscard]] Status send(const WireMessage& message);

  /// Next inbound message.  Server-initiated heartbeats are answered
  /// transparently and never surface.  kChannelError on session death,
  /// kParseError on a framing/codec violation (the session is severed -
  /// a length-prefixed stream cannot resync), kDeadlineExceeded when
  /// `deadline` passes first.
  [[nodiscard]] Result<WireMessage> receive(const Deadline& deadline);

  /// Receives until the `Reply` (QueryReply, JoinReply) to call `id`
  /// arrives.  Replies to other calls are parked in `early` when given -
  /// a pipelined caller collects them there - and skipped otherwise, as is
  /// every other kind (a stale ack, an abandoned call's late reply).
  template <typename Reply>
  [[nodiscard]] Result<Reply> await_reply(
      std::uint64_t id, const Deadline& deadline,
      std::map<std::uint64_t, Reply>* early = nullptr) {
    if (early != nullptr) {
      if (auto it = early->find(id); it != early->end()) {
        Reply reply = std::move(it->second);
        early->erase(it);
        return reply;
      }
    }
    for (;;) {
      auto message = receive(deadline);
      if (!message) return message.status();
      auto* reply = std::get_if<Reply>(&*message);
      if (reply == nullptr) continue;
      if (reply->correlation_id == id) return std::move(*reply);
      if (early != nullptr) {
        early->insert_or_assign(reply->correlation_id, std::move(*reply));
      }
    }
  }

  /// Heartbeat round trip; returns RTT in nanoseconds.  Any other
  /// messages that arrive while waiting are queued for later receive()
  /// calls.  An unanswered ping within heartbeat_timeout_ms severs the
  /// session (half-open detection) and returns kChannelError.
  [[nodiscard]] Result<std::uint64_t> ping();

  /// Hard-closes the current session (next ensure_connected redials).
  void sever() noexcept;

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] const Endpoint& endpoint() const noexcept {
    return endpoint_;
  }
  [[nodiscard]] const ConnectionTuning& tuning() const noexcept {
    return tuning_;
  }

  /// Sockets opened over this supervisor's lifetime (the fault-plan
  /// connection ordinal of the *next* dial).
  [[nodiscard]] std::uint64_t connections_opened() const noexcept {
    return connections_opened_;
  }
  /// Dial attempts that failed (the chaos suite bounds these per outage).
  [[nodiscard]] std::uint64_t connect_failures() const noexcept {
    return connect_failures_.value();
  }
  [[nodiscard]] std::uint64_t reconnects() const noexcept {
    return reconnects_.value();
  }

 private:
  void mark(State s) noexcept;
  [[nodiscard]] std::uint64_t backoff_delay_ms(std::uint32_t attempt);
  /// Reads until the decoder yields one payload; deadline-bounded.  The
  /// payload is a view into decoder_, valid until it is fed again.
  [[nodiscard]] Result<std::span<const std::uint8_t>> read_frame(
      const Deadline& deadline);
  /// Runs hello -> challenge -> proof -> ok on the freshly dialed
  /// session.  kAuthFailure = definitive server reject; anything else is
  /// a channel casualty the caller may retry on backoff.
  [[nodiscard]] Status run_handshake(const Deadline& deadline);

  Endpoint endpoint_;
  ConnectionTuning tuning_;
  std::unique_ptr<TelemetryRegistry> owned_registry_;
  TelemetryRegistry& registry_;  ///< external registry or *owned_registry_
  Xoshiro256 rng_;
  std::map<std::uint64_t, std::vector<SocketFault>> socket_faults_;
  std::optional<AuthCredentials> credentials_;
  std::vector<std::uint8_t> cert_bytes_;  ///< serialized once at install

  std::optional<FaultInjectingSocket> session_;  ///< live socket, when any
  StreamDecoder decoder_;
  std::deque<WireMessage> pending_;  ///< messages read past by ping()
  State state_ = State::kDisconnected;
  std::uint64_t connections_opened_ = 0;
  /// Reseeded from rng_ on every dial: heartbeat nonces must never repeat
  /// across sessions, or a delayed/duplicated ack from a dead connection
  /// could satisfy a fresh ping and mask a half-open link.
  std::uint64_t next_heartbeat_nonce_ = 1;

  Counter& connects_;
  Counter& reconnects_;
  Counter& connect_failures_;
  Counter& heartbeat_timeouts_;
  Counter& auth_ok_;
  Counter& auth_failures_;
  Counter& auth_rejects_;
  Gauge& state_gauge_;
  LatencyRecorder& heartbeat_rtt_;
};

}  // namespace ptm::transport
