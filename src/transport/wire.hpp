// wire.hpp - the transport-level message envelope spoken over a socket.
//
// The in-process pump moves ptm::Frame values directly; the out-of-process
// transport (docs/transport.md) moves *transport messages*: either a V2I
// frame in its existing wire encoding, or one of a small set of
// connection-control messages that have no business in the paper's V2I
// protocol enum - heartbeats (liveness probes / half-open detection), the
// server's explicit ingest NACK (backpressure made visible instead of a
// silent stall), and a stats snapshot exchange for `ptmctl ping`.
//
//   message := kind(u8) payload
//   kind    := 1 v2i-frame        payload = encode_frame(Frame) bytes
//            | 2 heartbeat        payload = nonce(u64) send_unix_ns(u64)
//            | 3 heartbeat-ack    payload = nonce(u64) send_unix_ns(u64)
//            | 4 upload-nack      payload = location(u64) period(u64)
//                                           code(u8) retryable(u8)
//            | 5 stats-request    payload = empty
//            | 6 stats-response   payload = str(json)
//            | 7 auth-hello       payload = bytes(Certificate::serialize())
//            | 8 auth-challenge   payload = bytes(server nonce)
//            | 9 auth-proof       payload = bytes(RSA signature over the
//                                           channel-binding transcript)
//            | 10 auth-reject     payload = code(u8)
//            | 11 auth-ok         payload = empty
//            | 12 repl-subscribe  payload = subscriber_node(u64)
//            | 13 repl-record     payload = seq(u64)
//                                           bytes(TrafficRecord::serialize())
//            | 14 repl-ack        payload = acked_seq(u64)
//            | 15 repl-snapshot-begin  payload = live_records(u64)
//            | 16 repl-snapshot-end    payload = streamed(u64)
//            | 19 query-call      payload = id(u64) budget_ms(u64) request
//            | 20 query-reply     payload = id(u64) response
//            | 21 join-call       payload = id(u64) budget_ms(u64)
//                                           location(u64) periods
//            | 22 join-reply      payload = id(u64) status periods
//                                           bytes(join bitmap | empty)
//
// Kinds 17 and 18 (records-request/-response, the retired raw-record
// fetch) are never reused: an old peer's fetch must decode as an unknown
// kind, not as something else.
//
// Kinds 7-11 are the PKI handshake (docs/transport.md, *Authenticated
// handshake*): the client presents its §II-B certificate, the server
// challenges with a fresh nonce, and the client proves key possession by
// signing nonce + certificate hash.  auth-reject carries a distinct code
// per failure class so a fleet operator can tell a clock-skewed RSU from
// a rogue one in telemetry alone.
//
// Kinds 12-16 are the cluster archive-replication stream (docs/cluster.md):
// a follower subscribes with its node id, the primary answers with a
// snapshot of every live record the follower should hold (begin / record*
// / end), then forwards each first-accept ingest live.  Each repl-record
// carries a per-subscription sequence number the follower acknowledges,
// so replication lag is observable (`transport_repl_lag`).
//
// Kinds 19-22 push queries down to the partition owners (docs/cluster.md,
// *Query push-down*).  A query-call runs one whole request on the node
// (QueryService::run) - the ptmctl path and the coordinator's path for
// single-location shapes.  A join-call asks for one location's first-level
// AND-join over a period list (QueryService::join_location), so p2p and
// corridor queries ship one bitmap per location instead of t records.
// Every call carries a correlation id its reply echoes (a reply to an
// abandoned call must not answer the next one) and its deadline as the
// remaining budget in milliseconds (query_codec.hpp).
//
// Messages travel length-prefixed on the stream (framing.hpp).  The codec
// is bounds-checked end to end: bytes arrive from a real network peer, so
// every malformed input must come back as ParseError, never UB (the
// transport fuzz suite pins this under ASan).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/deadline.hpp"
#include "common/serialize.hpp"
#include "common/status.hpp"
#include "net/message.hpp"
#include "query/query_types.hpp"

namespace ptm::transport {

enum class WireKind : std::uint8_t {
  kV2IFrame = 1,
  kHeartbeat = 2,
  kHeartbeatAck = 3,
  kUploadNack = 4,
  kStatsRequest = 5,
  kStatsResponse = 6,
  kAuthHello = 7,
  kAuthChallenge = 8,
  kAuthProof = 9,
  kAuthReject = 10,
  kAuthOk = 11,
  kReplSubscribe = 12,
  kReplRecord = 13,
  kReplAck = 14,
  kReplSnapshotBegin = 15,
  kReplSnapshotEnd = 16,
  // 17, 18: retired (records-request / records-response); never reuse.
  kQueryCall = 19,
  kQueryReply = 20,
  kJoinCall = 21,
  kJoinReply = 22,
};

/// Why the server refused a handshake.  Distinct codes are part of the
/// contract: "expired window" (fix the clock / reissue) and "untrusted
/// certificate" (rogue peer) demand different operator responses.
enum class AuthRejectCode : std::uint8_t {
  kAuthRequired = 1,          ///< non-handshake message before auth-ok
  kMalformedCertificate = 2,  ///< auth-hello bytes do not decode
  kUntrustedCertificate = 3,  ///< CA signature verification failed
  kCertificateExpired = 4,    ///< validity window misses the auth period
  kBadProof = 5,              ///< challenge signature verification failed
  kAuthUnavailable = 6,       ///< server has no CA key configured
};

[[nodiscard]] const char* auth_reject_code_name(AuthRejectCode code) noexcept;

/// Liveness probe.  The receiver echoes the payload back verbatim as a
/// kHeartbeatAck, so the sender can measure round-trip time and detect a
/// half-open connection (TCP happily buffers writes into a dead peer; an
/// unanswered heartbeat is the only portable tell).
struct Heartbeat {
  std::uint64_t nonce = 0;
  std::uint64_t send_unix_ns = 0;  ///< sender's clock, echoed for RTT

  friend bool operator==(const Heartbeat&, const Heartbeat&) = default;
};

/// The heartbeat echo.
struct HeartbeatAck {
  std::uint64_t nonce = 0;
  std::uint64_t send_unix_ns = 0;

  friend bool operator==(const HeartbeatAck&, const HeartbeatAck&) = default;
};

/// Server -> RSU: the upload for (location, period) was NOT ingested.
/// `retryable` distinguishes "try again later" (load shed - the RSU outbox
/// keeps the entry and re-arms backoff) from "never retransmit this"
/// (conflicting or malformed record - the outbox drops the entry, exactly
/// as the in-process pump drops server rejections).
struct UploadNack {
  std::uint64_t location = 0;
  std::uint64_t period = 0;
  ErrorCode code = ErrorCode::kResourceExhausted;
  bool retryable = true;

  friend bool operator==(const UploadNack&, const UploadNack&) = default;
};

/// Client -> server: ask for a telemetry snapshot (ptmctl ping).
struct StatsRequest {
  friend bool operator==(const StatsRequest&, const StatsRequest&) = default;
};

/// Server -> client: the registry snapshot as obs/export.hpp JSON.
struct StatsResponse {
  std::string json;

  friend bool operator==(const StatsResponse&,
                         const StatsResponse&) = default;
};

/// Client -> server: opens the handshake with the peer's serialized
/// §II-B certificate (raw bytes, not a decoded struct - the transcript
/// binds to the exact bytes presented, so re-serialization ambiguity can
/// never split what was verified from what was signed).
struct AuthHello {
  std::vector<std::uint8_t> certificate;

  friend bool operator==(const AuthHello&, const AuthHello&) = default;
};

/// Server -> client: a fresh random nonce the client must sign.
struct AuthChallenge {
  std::vector<std::uint8_t> nonce;

  friend bool operator==(const AuthChallenge&,
                         const AuthChallenge&) = default;
};

/// Client -> server: RSA signature over the channel-binding transcript
/// (auth.hpp) under the certificate's subject key.
struct AuthProof {
  std::vector<std::uint8_t> signature;

  friend bool operator==(const AuthProof&, const AuthProof&) = default;
};

/// Server -> client: handshake refused; the connection closes after this.
struct AuthReject {
  AuthRejectCode code = AuthRejectCode::kAuthRequired;

  friend bool operator==(const AuthReject&, const AuthReject&) = default;
};

/// Server -> client: proof verified; the session may carry traffic.
struct AuthOk {
  friend bool operator==(const AuthOk&, const AuthOk&) = default;
};

/// Follower -> primary: open an archive-replication subscription.  The
/// subscriber's node id lets the primary filter the stream to the
/// locations the subscriber should hold under the cluster partition map.
struct ReplSubscribe {
  std::uint64_t subscriber_node = 0;

  friend bool operator==(const ReplSubscribe&,
                         const ReplSubscribe&) = default;
};

/// Primary -> follower: one replicated record.  `seq` numbers the records
/// of this subscription from 1; the follower acks it after the record is
/// durably applied, so the primary can expose replication lag.  The record
/// travels as its own serialized bytes (TrafficRecord::serialize) - the
/// same encoding the RSU upload path uses.
struct ReplRecord {
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> record;

  friend bool operator==(const ReplRecord&, const ReplRecord&) = default;
};

/// Follower -> primary: every repl-record up to `acked_seq` is applied.
struct ReplAck {
  std::uint64_t acked_seq = 0;

  friend bool operator==(const ReplAck&, const ReplAck&) = default;
};

/// Primary -> follower: the snapshot phase of a new subscription begins;
/// `live_records` is the primary's live record count at subscribe time
/// (an upper bound on the snapshot length - the stream is filtered to the
/// subscriber's partitions).
struct ReplSnapshotBegin {
  std::uint64_t live_records = 0;

  friend bool operator==(const ReplSnapshotBegin&,
                         const ReplSnapshotBegin&) = default;
};

/// Primary -> follower: snapshot complete after `streamed` records; every
/// later repl-record is a live-forwarded first accept.
struct ReplSnapshotEnd {
  std::uint64_t streamed = 0;

  friend bool operator==(const ReplSnapshotEnd&,
                         const ReplSnapshotEnd&) = default;
};

/// Client -> node: run `request` through the node's QueryService.
/// `deadline` travels as a remaining budget (query_codec.hpp) and becomes
/// the decoded request's own deadline; the request's field is not sent.
struct QueryCall {
  std::uint64_t correlation_id = 0;
  QueryRequest request;
  Deadline deadline{};
};

/// Node -> client: the response to the query-call with the same id,
/// verbatim (its summary is rebuilt from the typed result on decode).
struct QueryReply {
  std::uint64_t correlation_id = 0;
  QueryResponse response;
};

/// Coordinator -> node: the first-level join of `location` over `periods`
/// (QueryService::join_location).
struct JoinCall {
  std::uint64_t correlation_id = 0;
  std::uint64_t location = 0;
  std::vector<std::uint64_t> periods;
  Deadline deadline{};
};

/// Node -> coordinator: the join for the join-call with the same id.
struct JoinReply {
  std::uint64_t correlation_id = 0;
  LocationJoin join;
};

using WireMessage =
    std::variant<Frame, Heartbeat, HeartbeatAck, UploadNack, StatsRequest,
                 StatsResponse, AuthHello, AuthChallenge, AuthProof,
                 AuthReject, AuthOk, ReplSubscribe, ReplRecord, ReplAck,
                 ReplSnapshotBegin, ReplSnapshotEnd, QueryCall, QueryReply,
                 JoinCall, JoinReply>;

[[nodiscard]] WireKind wire_kind(const WireMessage& message) noexcept;
[[nodiscard]] const char* wire_kind_name(WireKind kind) noexcept;

/// Encodes one message (kind byte + payload, NOT length-prefixed; the
/// stream framing adds the length).
[[nodiscard]] std::vector<std::uint8_t> encode_wire_message(
    const WireMessage& message);
/// Appends the same bytes to `w`, in one pass.
void encode_wire_message(ByteWriter& w, const WireMessage& message);

/// Appends `message` to `w` as one stream frame (framing.hpp): length
/// prefix and encoded message, written once into `w`.  The one
/// record-sized field, a bitmap, reserves its own room as it is written
/// (Bitmap::serialize_into); every other field is a few bytes.
void append_frame(ByteWriter& w, const WireMessage& message);

/// Decodes one message; ParseError on unknown kind, truncation, or
/// trailing bytes.
[[nodiscard]] Result<WireMessage> decode_wire_message(
    std::span<const std::uint8_t> bytes);

}  // namespace ptm::transport
