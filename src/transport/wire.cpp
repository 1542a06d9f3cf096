#include "transport/wire.hpp"

#include "common/serialize.hpp"
#include "transport/framing.hpp"
#include "transport/query_codec.hpp"

namespace ptm::transport {

WireKind wire_kind(const WireMessage& message) noexcept {
  struct Visitor {
    WireKind operator()(const Frame&) const { return WireKind::kV2IFrame; }
    WireKind operator()(const Heartbeat&) const {
      return WireKind::kHeartbeat;
    }
    WireKind operator()(const HeartbeatAck&) const {
      return WireKind::kHeartbeatAck;
    }
    WireKind operator()(const UploadNack&) const {
      return WireKind::kUploadNack;
    }
    WireKind operator()(const StatsRequest&) const {
      return WireKind::kStatsRequest;
    }
    WireKind operator()(const StatsResponse&) const {
      return WireKind::kStatsResponse;
    }
    WireKind operator()(const AuthHello&) const {
      return WireKind::kAuthHello;
    }
    WireKind operator()(const AuthChallenge&) const {
      return WireKind::kAuthChallenge;
    }
    WireKind operator()(const AuthProof&) const {
      return WireKind::kAuthProof;
    }
    WireKind operator()(const AuthReject&) const {
      return WireKind::kAuthReject;
    }
    WireKind operator()(const AuthOk&) const { return WireKind::kAuthOk; }
    WireKind operator()(const ReplSubscribe&) const {
      return WireKind::kReplSubscribe;
    }
    WireKind operator()(const ReplRecord&) const {
      return WireKind::kReplRecord;
    }
    WireKind operator()(const ReplAck&) const { return WireKind::kReplAck; }
    WireKind operator()(const ReplSnapshotBegin&) const {
      return WireKind::kReplSnapshotBegin;
    }
    WireKind operator()(const ReplSnapshotEnd&) const {
      return WireKind::kReplSnapshotEnd;
    }
    WireKind operator()(const QueryCall&) const {
      return WireKind::kQueryCall;
    }
    WireKind operator()(const QueryReply&) const {
      return WireKind::kQueryReply;
    }
    WireKind operator()(const JoinCall&) const { return WireKind::kJoinCall; }
    WireKind operator()(const JoinReply&) const {
      return WireKind::kJoinReply;
    }
  };
  return std::visit(Visitor{}, message);
}

const char* auth_reject_code_name(AuthRejectCode code) noexcept {
  switch (code) {
    case AuthRejectCode::kAuthRequired: return "auth-required";
    case AuthRejectCode::kMalformedCertificate:
      return "malformed-certificate";
    case AuthRejectCode::kUntrustedCertificate:
      return "untrusted-certificate";
    case AuthRejectCode::kCertificateExpired: return "certificate-expired";
    case AuthRejectCode::kBadProof: return "bad-proof";
    case AuthRejectCode::kAuthUnavailable: return "auth-unavailable";
  }
  return "unknown";
}

const char* wire_kind_name(WireKind kind) noexcept {
  switch (kind) {
    case WireKind::kV2IFrame: return "v2i-frame";
    case WireKind::kHeartbeat: return "heartbeat";
    case WireKind::kHeartbeatAck: return "heartbeat-ack";
    case WireKind::kUploadNack: return "upload-nack";
    case WireKind::kStatsRequest: return "stats-request";
    case WireKind::kStatsResponse: return "stats-response";
    case WireKind::kAuthHello: return "auth-hello";
    case WireKind::kAuthChallenge: return "auth-challenge";
    case WireKind::kAuthProof: return "auth-proof";
    case WireKind::kAuthReject: return "auth-reject";
    case WireKind::kAuthOk: return "auth-ok";
    case WireKind::kReplSubscribe: return "repl-subscribe";
    case WireKind::kReplRecord: return "repl-record";
    case WireKind::kReplAck: return "repl-ack";
    case WireKind::kReplSnapshotBegin: return "repl-snapshot-begin";
    case WireKind::kReplSnapshotEnd: return "repl-snapshot-end";
    case WireKind::kQueryCall: return "query-call";
    case WireKind::kQueryReply: return "query-reply";
    case WireKind::kJoinCall: return "join-call";
    case WireKind::kJoinReply: return "join-reply";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_wire_message(const WireMessage& message) {
  ByteWriter w;
  encode_wire_message(w, message);
  return w.take();
}

void encode_wire_message(ByteWriter& w, const WireMessage& message) {
  w.u8(static_cast<std::uint8_t>(wire_kind(message)));
  struct Visitor {
    ByteWriter& w;
    void operator()(const Frame& f) const { encode_frame(w, f); }
    void operator()(const Heartbeat& h) const {
      w.u64(h.nonce);
      w.u64(h.send_unix_ns);
    }
    void operator()(const HeartbeatAck& h) const {
      w.u64(h.nonce);
      w.u64(h.send_unix_ns);
    }
    void operator()(const UploadNack& n) const {
      w.u64(n.location);
      w.u64(n.period);
      w.u8(static_cast<std::uint8_t>(n.code));
      w.u8(n.retryable ? 1 : 0);
    }
    void operator()(const StatsRequest&) const {}
    void operator()(const StatsResponse& s) const { w.str(s.json); }
    void operator()(const AuthHello& h) const { w.bytes(h.certificate); }
    void operator()(const AuthChallenge& c) const { w.bytes(c.nonce); }
    void operator()(const AuthProof& p) const { w.bytes(p.signature); }
    void operator()(const AuthReject& r) const {
      w.u8(static_cast<std::uint8_t>(r.code));
    }
    void operator()(const AuthOk&) const {}
    void operator()(const ReplSubscribe& s) const { w.u64(s.subscriber_node); }
    void operator()(const ReplRecord& rec) const {
      w.u64(rec.seq);
      w.bytes(rec.record);
    }
    void operator()(const ReplAck& a) const { w.u64(a.acked_seq); }
    void operator()(const ReplSnapshotBegin& b) const {
      w.u64(b.live_records);
    }
    void operator()(const ReplSnapshotEnd& e) const { w.u64(e.streamed); }
    void operator()(const QueryCall& call) const {
      w.u64(call.correlation_id);
      encode_deadline(w, call.deadline);
      encode_query_request(w, call.request);
    }
    void operator()(const QueryReply& reply) const {
      w.u64(reply.correlation_id);
      encode_query_response(w, reply.response);
    }
    void operator()(const JoinCall& call) const {
      w.u64(call.correlation_id);
      encode_deadline(w, call.deadline);
      w.u64(call.location);
      encode_u64_list(w, call.periods);
    }
    void operator()(const JoinReply& reply) const {
      w.u64(reply.correlation_id);
      encode_location_join(w, reply.join);
    }
  };
  std::visit(Visitor{w}, message);
}

void append_frame(ByteWriter& w, const WireMessage& message) {
  const std::size_t prefix_at = open_frame(w);
  encode_wire_message(w, message);
  seal_frame(w, prefix_at);
}

namespace {

Result<WireMessage> decode_heartbeat(ByteReader& r, bool ack) {
  auto nonce = r.u64();
  if (!nonce) return nonce.status();
  auto ns = r.u64();
  if (!ns) return ns.status();
  if (ack) return WireMessage{HeartbeatAck{*nonce, *ns}};
  return WireMessage{Heartbeat{*nonce, *ns}};
}

}  // namespace

Result<WireMessage> decode_wire_message(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  auto kind_byte = r.u8();
  if (!kind_byte) return kind_byte.status();
  Result<WireMessage> decoded =
      Status{ErrorCode::kParseError, "unknown transport message kind"};
  switch (static_cast<WireKind>(*kind_byte)) {
    case WireKind::kV2IFrame: {
      // The remainder is a full V2I frame in its existing encoding; its
      // codec consumes the rest of the payload (and enforces exhaustion).
      auto frame = decode_frame(bytes.subspan(1));
      if (!frame) return frame.status();
      return WireMessage{std::move(*frame)};
    }
    case WireKind::kHeartbeat:
      decoded = decode_heartbeat(r, /*ack=*/false);
      break;
    case WireKind::kHeartbeatAck:
      decoded = decode_heartbeat(r, /*ack=*/true);
      break;
    case WireKind::kUploadNack: {
      UploadNack n;
      auto loc = r.u64();
      if (!loc) return loc.status();
      n.location = *loc;
      auto per = r.u64();
      if (!per) return per.status();
      n.period = *per;
      auto code = r.u8();
      if (!code) return code.status();
      if (*code > static_cast<std::uint8_t>(ErrorCode::kResourceExhausted)) {
        return Status{ErrorCode::kParseError, "upload-nack: bad error code"};
      }
      n.code = static_cast<ErrorCode>(*code);
      auto retryable = r.u8();
      if (!retryable) return retryable.status();
      if (*retryable > 1) {
        return Status{ErrorCode::kParseError,
                      "upload-nack: retryable must be 0 or 1"};
      }
      n.retryable = *retryable == 1;
      decoded = WireMessage{n};
      break;
    }
    case WireKind::kStatsRequest:
      decoded = WireMessage{StatsRequest{}};
      break;
    case WireKind::kStatsResponse: {
      auto json = r.str();
      if (!json) return json.status();
      decoded = WireMessage{StatsResponse{std::move(*json)}};
      break;
    }
    case WireKind::kAuthHello: {
      auto cert = r.bytes();
      if (!cert) return cert.status();
      if (cert->empty()) {
        return Status{ErrorCode::kParseError, "auth-hello: empty certificate"};
      }
      decoded = WireMessage{AuthHello{std::move(*cert)}};
      break;
    }
    case WireKind::kAuthChallenge: {
      auto nonce = r.bytes();
      if (!nonce) return nonce.status();
      // A nonce is a few dozen bytes; past this bound the peer is either
      // broken or hostile, and signing megabytes of "nonce" is how a
      // signature oracle gets abused.
      if (nonce->empty() || nonce->size() > 256) {
        return Status{ErrorCode::kParseError,
                      "auth-challenge: nonce must be 1..256 bytes"};
      }
      decoded = WireMessage{AuthChallenge{std::move(*nonce)}};
      break;
    }
    case WireKind::kAuthProof: {
      auto sig = r.bytes();
      if (!sig) return sig.status();
      if (sig->empty()) {
        return Status{ErrorCode::kParseError, "auth-proof: empty signature"};
      }
      decoded = WireMessage{AuthProof{std::move(*sig)}};
      break;
    }
    case WireKind::kAuthReject: {
      auto code = r.u8();
      if (!code) return code.status();
      if (*code < static_cast<std::uint8_t>(AuthRejectCode::kAuthRequired) ||
          *code > static_cast<std::uint8_t>(AuthRejectCode::kAuthUnavailable)) {
        return Status{ErrorCode::kParseError, "auth-reject: unknown code"};
      }
      decoded = WireMessage{AuthReject{static_cast<AuthRejectCode>(*code)}};
      break;
    }
    case WireKind::kAuthOk:
      decoded = WireMessage{AuthOk{}};
      break;
    case WireKind::kReplSubscribe: {
      auto node = r.u64();
      if (!node) return node.status();
      decoded = WireMessage{ReplSubscribe{*node}};
      break;
    }
    case WireKind::kReplRecord: {
      auto seq = r.u64();
      if (!seq) return seq.status();
      if (*seq == 0) {
        return Status{ErrorCode::kParseError,
                      "repl-record: sequence numbers start at 1"};
      }
      auto rec = r.bytes();
      if (!rec) return rec.status();
      if (rec->empty()) {
        return Status{ErrorCode::kParseError, "repl-record: empty record"};
      }
      decoded = WireMessage{ReplRecord{*seq, std::move(*rec)}};
      break;
    }
    case WireKind::kReplAck: {
      auto seq = r.u64();
      if (!seq) return seq.status();
      decoded = WireMessage{ReplAck{*seq}};
      break;
    }
    case WireKind::kReplSnapshotBegin: {
      auto live = r.u64();
      if (!live) return live.status();
      decoded = WireMessage{ReplSnapshotBegin{*live}};
      break;
    }
    case WireKind::kReplSnapshotEnd: {
      auto streamed = r.u64();
      if (!streamed) return streamed.status();
      decoded = WireMessage{ReplSnapshotEnd{*streamed}};
      break;
    }
    case WireKind::kQueryCall: {
      auto id = r.u64();
      if (!id) return id.status();
      auto deadline = decode_deadline(r);
      if (!deadline) return deadline.status();
      auto request = decode_query_request(r, *deadline);
      if (!request) return request.status();
      decoded = WireMessage{QueryCall{*id, std::move(*request), *deadline}};
      break;
    }
    case WireKind::kQueryReply: {
      auto id = r.u64();
      if (!id) return id.status();
      auto response = decode_query_response(r);
      if (!response) return response.status();
      decoded = WireMessage{QueryReply{*id, std::move(*response)}};
      break;
    }
    case WireKind::kJoinCall: {
      JoinCall call;
      auto id = r.u64();
      if (!id) return id.status();
      auto deadline = decode_deadline(r);
      if (!deadline) return deadline.status();
      auto location = r.u64();
      if (!location) return location.status();
      auto periods = decode_u64_list(r);
      if (!periods) return periods.status();
      call.correlation_id = *id;
      call.deadline = *deadline;
      call.location = *location;
      call.periods = std::move(*periods);
      decoded = WireMessage{std::move(call)};
      break;
    }
    case WireKind::kJoinReply: {
      auto id = r.u64();
      if (!id) return id.status();
      auto join = decode_location_join(r);
      if (!join) return join.status();
      decoded = WireMessage{JoinReply{*id, std::move(*join)}};
      break;
    }
  }
  if (!decoded) return decoded;
  if (!r.exhausted()) {
    return Status{ErrorCode::kParseError,
                  "trailing bytes after transport message"};
  }
  return decoded;
}

}  // namespace ptm::transport
