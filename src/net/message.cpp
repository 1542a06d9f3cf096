#include "net/message.hpp"

#include "common/serialize.hpp"

namespace ptm {

MessageType Frame::type() const noexcept {
  struct Visitor {
    MessageType operator()(const Beacon&) const { return MessageType::kBeacon; }
    MessageType operator()(const AuthRequest&) const {
      return MessageType::kAuthRequest;
    }
    MessageType operator()(const AuthResponse&) const {
      return MessageType::kAuthResponse;
    }
    MessageType operator()(const EncodeIndex&) const {
      return MessageType::kEncodeIndex;
    }
    MessageType operator()(const EncodeAck&) const {
      return MessageType::kEncodeAck;
    }
    MessageType operator()(const RecordUpload&) const {
      return MessageType::kRecordUpload;
    }
    MessageType operator()(const UploadAck&) const {
      return MessageType::kUploadAck;
    }
  };
  return std::visit(Visitor{}, body);
}

namespace {

void encode_body(const MessageBody& body, ByteWriter& w) {
  struct Visitor {
    ByteWriter& w;
    void operator()(const Beacon& b) const {
      w.u64(b.location);
      w.u64(b.period);
      w.u64(b.bitmap_size);
      const auto cert = b.certificate.serialize();
      w.bytes(cert);
    }
    void operator()(const AuthRequest& m) const { w.u64(m.nonce); }
    void operator()(const AuthResponse& m) const {
      w.u64(m.nonce);
      w.bytes(m.signature);
    }
    void operator()(const EncodeIndex& m) const { w.u64(m.index); }
    void operator()(const EncodeAck&) const {}
    void operator()(const RecordUpload& m) const {
      w.u32(static_cast<std::uint32_t>(m.record.serialized_size()));
      m.record.serialize_into(w);
    }
    void operator()(const UploadAck& m) const {
      w.u64(m.location);
      w.u64(m.period);
    }
  };
  std::visit(Visitor{w}, body);
}

Result<MessageBody> decode_body(MessageType type, ByteReader& r) {
  switch (type) {
    case MessageType::kBeacon: {
      Beacon b;
      auto loc = r.u64();
      if (!loc) return loc.status();
      b.location = *loc;
      auto per = r.u64();
      if (!per) return per.status();
      b.period = *per;
      auto m = r.u64();
      if (!m) return m.status();
      b.bitmap_size = *m;
      auto cert_bytes = r.bytes();
      if (!cert_bytes) return cert_bytes.status();
      auto cert = Certificate::deserialize(*cert_bytes);
      if (!cert) return cert.status();
      b.certificate = std::move(*cert);
      return MessageBody{std::move(b)};
    }
    case MessageType::kAuthRequest: {
      auto nonce = r.u64();
      if (!nonce) return nonce.status();
      return MessageBody{AuthRequest{*nonce}};
    }
    case MessageType::kAuthResponse: {
      AuthResponse m;
      auto nonce = r.u64();
      if (!nonce) return nonce.status();
      m.nonce = *nonce;
      auto sig = r.bytes();
      if (!sig) return sig.status();
      m.signature = std::move(*sig);
      return MessageBody{std::move(m)};
    }
    case MessageType::kEncodeIndex: {
      auto index = r.u64();
      if (!index) return index.status();
      return MessageBody{EncodeIndex{*index}};
    }
    case MessageType::kEncodeAck:
      return MessageBody{EncodeAck{}};
    case MessageType::kRecordUpload: {
      auto rec_bytes = r.bytes_view();
      if (!rec_bytes) return rec_bytes.status();
      auto rec = TrafficRecord::deserialize(*rec_bytes);
      if (!rec) return rec.status();
      return MessageBody{RecordUpload{std::move(*rec)}};
    }
    case MessageType::kUploadAck: {
      UploadAck m;
      auto loc = r.u64();
      if (!loc) return loc.status();
      m.location = *loc;
      auto per = r.u64();
      if (!per) return per.status();
      m.period = *per;
      return MessageBody{m};
    }
  }
  return Status{ErrorCode::kParseError, "unknown message type"};
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  ByteWriter w;
  encode_frame(w, frame);
  return w.take();
}

void encode_frame(ByteWriter& w, const Frame& frame) {
  w.u8(static_cast<std::uint8_t>(frame.type()));
  w.u64(frame.src.value);
  w.u64(frame.dst.value);
  w.u64(frame.trace.trace_id);
  w.u64(frame.trace.span_id);
  const std::size_t body_at = w.size();
  w.u32(0);  // body length, patched once the body is written
  encode_body(frame.body, w);
  w.patch_u32(body_at, static_cast<std::uint32_t>(w.size() - body_at - 4));
}

Result<Frame> decode_frame(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  auto type_byte = r.u8();
  if (!type_byte) return type_byte.status();
  if (*type_byte < 1 || *type_byte > 7) {
    return Status{ErrorCode::kParseError, "unknown frame type"};
  }
  Frame frame;
  auto src = r.u64();
  if (!src) return src.status();
  frame.src.value = *src;
  auto dst = r.u64();
  if (!dst) return dst.status();
  frame.dst.value = *dst;
  auto trace_id = r.u64();
  if (!trace_id) return trace_id.status();
  frame.trace.trace_id = *trace_id;
  auto span_id = r.u64();
  if (!span_id) return span_id.status();
  frame.trace.span_id = *span_id;
  auto payload = r.bytes_view();
  if (!payload) return payload.status();
  if (!r.exhausted()) {
    return Status{ErrorCode::kParseError, "trailing bytes after frame"};
  }
  ByteReader body_reader(*payload);
  auto body = decode_body(static_cast<MessageType>(*type_byte), body_reader);
  if (!body) return body.status();
  if (!body_reader.exhausted()) {
    return Status{ErrorCode::kParseError, "trailing bytes in message body"};
  }
  frame.body = std::move(*body);
  return frame;
}

std::vector<std::uint8_t> auth_transcript(std::uint64_t nonce,
                                          std::uint64_t location,
                                          std::uint64_t period) {
  ByteWriter w;
  w.u64(nonce);
  w.u64(location);
  w.u64(period);
  return w.take();
}

}  // namespace ptm
