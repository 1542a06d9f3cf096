// message.hpp - V2I wire messages (paper §II-B, §II-D).
//
// The protocol between a vehicle and an RSU:
//
//   RSU  --Beacon-->        broadcast; carries L, period, m, certificate
//   Veh  --AuthRequest-->   one-time MAC, fresh nonce
//   RSU  --AuthResponse-->  RSA signature over (nonce || L || period)
//   Veh  --EncodeIndex-->   the single value h_v (NEVER the vehicle ID)
//   RSU  --EncodeAck-->     optional acknowledgment
//
// and RSU <-> central server at period end:
//
//   RSU  --RecordUpload-->  the serialized TrafficRecord
//   Srv  --UploadAck-->     (location, period) accepted; the RSU may drop
//                           the record from its retransmission outbox
//
// Messages are framed with a type byte, source/destination MACs, the
// pipeline trace context (trace id + sender span id, see obs/trace.hpp and
// docs/observability.md - zeros when untraced), and a length-prefixed
// payload.  Codecs are bounds-checked (ParseError on any malformed input)
// because frames cross the simulated trust boundary and the channel can
// corrupt them.
//
// Privacy note: the trace context carries no vehicle-linked state - record
// traces are a pure hash of (location, period), both of which already
// travel in the clear on RecordUpload/UploadAck.
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "common/status.hpp"
#include "core/traffic_record.hpp"
#include "crypto/certificate.hpp"
#include "net/mac.hpp"
#include "obs/trace.hpp"

namespace ptm {

class ByteWriter;

enum class MessageType : std::uint8_t {
  kBeacon = 1,
  kAuthRequest = 2,
  kAuthResponse = 3,
  kEncodeIndex = 4,
  kEncodeAck = 5,
  kRecordUpload = 6,
  kUploadAck = 7,
};

/// Broadcast by the RSU in preset intervals (§II-D).
struct Beacon {
  std::uint64_t location = 0;      ///< L
  std::uint64_t period = 0;        ///< current measurement period
  std::uint64_t bitmap_size = 0;   ///< m
  Certificate certificate;         ///< RSU cert from the trusted third party
};

/// Vehicle -> RSU: start authentication.  Carries only a fresh nonce; the
/// vehicle is identified by nothing but its one-time MAC.
struct AuthRequest {
  std::uint64_t nonce = 0;
};

/// RSU -> vehicle: proof of key possession - an RSA signature over
/// (nonce || location || period) with the certified key.
struct AuthResponse {
  std::uint64_t nonce = 0;  ///< echoed
  std::vector<std::uint8_t> signature;
};

/// Vehicle -> RSU: the single encoded bit index h_v (§II-D).  This is the
/// entire privacy story at the wire level: no ID, no key, just an index
/// shared with ~n/m other vehicles.
struct EncodeIndex {
  std::uint64_t index = 0;  ///< h_v, in [0, m)
};

struct EncodeAck {};

/// RSU -> central server at the end of each period.
struct RecordUpload {
  TrafficRecord record;
};

/// Central server -> RSU: the upload for (location, period) was ingested
/// (or was an identical re-delivery).  Clears the RSU's outbox entry; an
/// upload that never earns an ack is retransmitted with backoff.
struct UploadAck {
  std::uint64_t location = 0;
  std::uint64_t period = 0;
};

using MessageBody = std::variant<Beacon, AuthRequest, AuthResponse,
                                 EncodeIndex, EncodeAck, RecordUpload,
                                 UploadAck>;

/// A link-layer frame: addressing, trace context, plus one message.
/// (`trace` is declared last so the common `Frame{src, dst, body}`
/// aggregate initialization keeps working; on the wire it sits between
/// the addresses and the payload.)
struct Frame {
  MacAddress src;
  MacAddress dst;
  MessageBody body;
  TraceContext trace;  ///< pipeline trace envelope (zeros = untraced)

  [[nodiscard]] MessageType type() const noexcept;
};

/// Encodes a frame to wire bytes.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);
/// Appends the frame's wire bytes to `w` in one pass.
void encode_frame(ByteWriter& w, const Frame& frame);

/// Decodes wire bytes; ParseError on truncation, unknown type, or any
/// malformed nested structure.
[[nodiscard]] Result<Frame> decode_frame(std::span<const std::uint8_t> bytes);

/// The byte string an RSU signs for AuthResponse (nonce || L || period).
[[nodiscard]] std::vector<std::uint8_t> auth_transcript(std::uint64_t nonce,
                                                        std::uint64_t location,
                                                        std::uint64_t period);

}  // namespace ptm
