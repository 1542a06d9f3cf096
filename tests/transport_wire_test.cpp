// Tests for transport/wire.hpp and transport/framing.hpp: every transport
// message round-trips through the envelope codec (query and join replies
// bit-exactly), malformed envelopes are rejected, and the stream decoder
// reassembles frames across arbitrary chunking while refusing
// un-resyncable streams.
#include "transport/framing.hpp"
#include "transport/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/traffic_record.hpp"
#include "net/mac.hpp"
#include "net/message.hpp"
#include "query/query_service.hpp"
#include "query/query_types.hpp"

namespace ptm::transport {
namespace {

TrafficRecord make_record(std::uint64_t location, std::uint64_t period) {
  TrafficRecord rec;
  rec.location = location;
  rec.period = period;
  rec.bits = Bitmap(64);
  rec.bits.set(3);
  rec.bits.set(17);
  return rec;
}

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

/// The record inside every pinned message below.
TrafficRecord pinned_record() {
  TrafficRecord rec;
  rec.location = 0x0102030405060708ULL;
  rec.period = 42;
  rec.bits = Bitmap(128);
  for (std::size_t bit : {0, 1, 63, 64, 127}) rec.bits.set(bit);
  return rec;
}

constexpr std::string_view kPinnedRecordHex =
    "08070605040302012a00000000000000180000008000000000000000"
    "03000000000000800100000000000080";

/// Feeds `framed` to a fresh stream decoder and decodes the one message.
Result<WireMessage> decode_stream(const std::vector<std::uint8_t>& framed) {
  StreamDecoder decoder;
  decoder.feed(framed);
  auto next = decoder.next();
  if (!next) return next.status();
  if (!next->has_value()) return Status{ErrorCode::kParseError, "partial"};
  return decode_wire_message(**next);
}

/// The bytes the senders put on the stream: SupervisedConnection::send and
/// ptmd's send_message both frame a message with append_frame, the latter
/// behind output already queued on the connection.
std::vector<std::uint8_t> sent_bytes(const WireMessage& message) {
  const std::vector<std::uint8_t> queued = {0xEE, 0xEE};
  ByteWriter w(queued);
  append_frame(w, message);
  std::vector<std::uint8_t> out = w.take();
  EXPECT_TRUE(std::equal(queued.begin(), queued.end(), out.begin()));
  out.erase(out.begin(), out.begin() + 2);
  return out;
}

// Golden stream bytes (u32 length prefix included) written by the
// byte-at-a-time codec: the encoders may get faster, the bytes may not move.
TEST(TransportWireTest, RecordUploadFrameBytesArePinned) {
  Frame frame{MacAddress{0x0A0B}, MacAddress{0x0C0D},
              RecordUpload{pinned_record()}, {}};
  frame.trace = TraceContext{0x1111222233334444ULL, 0x5555666677778888ULL};
  const auto golden = from_hex(
      std::string("56000000"            // stream prefix
                  "01"                  // kind v2i-frame
                  "06"                  // frame type RecordUpload
                  "0b0a000000000000"    // src
                  "0d0c000000000000"    // dst
                  "4444333322221111"    // trace id
                  "8888777766665555"    // span id
                  "30000000"            // body length
                  "2c000000") +         // record blob length
      std::string(kPinnedRecordHex));
  EXPECT_EQ(frame_payload(encode_wire_message(frame)), golden);
  EXPECT_EQ(sent_bytes(frame), golden);
  const auto decoded = decode_stream(golden);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  const auto& got = std::get<Frame>(*decoded);
  EXPECT_EQ(got.src, frame.src);
  EXPECT_EQ(got.dst, frame.dst);
  EXPECT_EQ(got.trace, frame.trace);
  EXPECT_EQ(std::get<RecordUpload>(got.body).record, pinned_record());
}

TEST(TransportWireTest, ReplRecordBytesArePinned) {
  const auto golden = from_hex(std::string("39000000"          // prefix
                                           "0d"                // kind
                                           "0700000000000000"  // seq
                                           "2c000000") +       // blob len
                               std::string(kPinnedRecordHex));
  const ReplRecord rec{7, pinned_record().serialize()};
  EXPECT_EQ(frame_payload(encode_wire_message(rec)), golden);
  EXPECT_EQ(sent_bytes(rec), golden);
  const auto decoded = decode_stream(golden);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(std::get<ReplRecord>(*decoded), rec);
}

TEST(TransportWireTest, JoinReplyBytesArePinned) {
  LocationJoin join;
  join.present = {3, 4};
  join.join = Bitmap(64);
  for (std::size_t bit : {0, 9, 63}) join.join.set(bit);
  const auto golden = from_hex(
      "36000000"            // prefix
      "16"                  // kind join-reply
      "0500000000000000"    // correlation id
      "00" "00000000"       // status ok, empty message
      "02000000" "0300000000000000" "0400000000000000"  // present
      "10000000"            // bitmap blob length
      "4000000000000000"    // bit count 64
      "0102000000000080");  // bits 0, 9, 63
  EXPECT_EQ(frame_payload(encode_wire_message(JoinReply{5, join})), golden);
  EXPECT_EQ(sent_bytes(JoinReply{5, join}), golden);
  const auto decoded = decode_stream(golden);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  const auto& got = std::get<JoinReply>(*decoded);
  EXPECT_EQ(got.correlation_id, 5u);
  EXPECT_TRUE(got.join.status.is_ok());
  EXPECT_EQ(got.join.present, join.present);
  EXPECT_EQ(got.join.join, join.join);
}

TEST(TransportWireTest, HeartbeatRoundTrip) {
  const WireMessage msg = Heartbeat{0xABCDEF0123456789ULL, 42};
  const auto decoded = decode_wire_message(encode_wire_message(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<Heartbeat>(*decoded), std::get<Heartbeat>(msg));
}

TEST(TransportWireTest, HeartbeatAckRoundTrip) {
  const WireMessage msg = HeartbeatAck{7, 1234567890};
  const auto decoded = decode_wire_message(encode_wire_message(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<HeartbeatAck>(*decoded), std::get<HeartbeatAck>(msg));
}

TEST(TransportWireTest, UploadNackRoundTrip) {
  UploadNack nack;
  nack.location = 12;
  nack.period = 9;
  nack.code = ErrorCode::kResourceExhausted;
  nack.retryable = true;
  const auto decoded = decode_wire_message(encode_wire_message(nack));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<UploadNack>(*decoded), nack);

  nack.code = ErrorCode::kInvalidArgument;
  nack.retryable = false;
  const auto fatal = decode_wire_message(encode_wire_message(nack));
  ASSERT_TRUE(fatal.has_value());
  EXPECT_FALSE(std::get<UploadNack>(*fatal).retryable);
}

TEST(TransportWireTest, StatsRoundTrip) {
  const auto req = decode_wire_message(encode_wire_message(StatsRequest{}));
  ASSERT_TRUE(req.has_value());
  EXPECT_TRUE(std::holds_alternative<StatsRequest>(*req));

  StatsResponse resp;
  resp.json = R"({"counters":[{"name":"x","value":1}]})";
  const auto decoded = decode_wire_message(encode_wire_message(resp));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<StatsResponse>(*decoded).json, resp.json);
}

TEST(TransportWireTest, V2IFrameRoundTrip) {
  Frame frame{MacAddress{0x11}, MacAddress{0x22},
              RecordUpload{make_record(5, 2)}, {}};
  frame.trace = TraceContext::for_record(5, 2);
  const auto decoded = decode_wire_message(encode_wire_message(frame));
  ASSERT_TRUE(decoded.has_value());
  const auto& inner = std::get<Frame>(*decoded);
  EXPECT_EQ(inner.type(), MessageType::kRecordUpload);
  EXPECT_EQ(inner.trace, frame.trace);
  EXPECT_EQ(std::get<RecordUpload>(inner.body).record, make_record(5, 2));
}

TEST(TransportWireTest, ReplicationMessagesRoundTrip) {
  const auto sub = decode_wire_message(encode_wire_message(
      ReplSubscribe{0xFEEDULL}));
  ASSERT_TRUE(sub.has_value());
  EXPECT_EQ(std::get<ReplSubscribe>(*sub), (ReplSubscribe{0xFEEDULL}));

  ReplRecord rec;
  rec.seq = 42;
  rec.record = make_record(5, 2).serialize();
  const auto decoded = decode_wire_message(encode_wire_message(rec));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<ReplRecord>(*decoded), rec);
  // The nested blob really is a record.
  auto inner = TrafficRecord::deserialize(std::get<ReplRecord>(*decoded).record);
  ASSERT_TRUE(inner.has_value());
  EXPECT_EQ(inner->location, 5u);

  const auto ack = decode_wire_message(encode_wire_message(ReplAck{42}));
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(std::get<ReplAck>(*ack), (ReplAck{42}));

  const auto begin =
      decode_wire_message(encode_wire_message(ReplSnapshotBegin{100}));
  ASSERT_TRUE(begin.has_value());
  EXPECT_EQ(std::get<ReplSnapshotBegin>(*begin), (ReplSnapshotBegin{100}));

  const auto end =
      decode_wire_message(encode_wire_message(ReplSnapshotEnd{99}));
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(std::get<ReplSnapshotEnd>(*end), (ReplSnapshotEnd{99}));
}

TEST(TransportWireTest, ReplRecordRejectsZeroSeqAndEmptyRecord) {
  ReplRecord zero_seq;
  zero_seq.seq = 0;
  zero_seq.record = make_record(1, 1).serialize();
  EXPECT_FALSE(
      decode_wire_message(encode_wire_message(zero_seq)).has_value());

  ReplRecord empty;
  empty.seq = 1;
  EXPECT_FALSE(decode_wire_message(encode_wire_message(empty)).has_value());
}

/// A store with two locations x four periods, so every query shape has an
/// answer (and a gap at location 2, period 3, for NotFound coverage).
QueryService& sample_service() {
  static QueryService service;
  static const bool loaded = [] {
    for (std::uint64_t location : {1, 2}) {
      for (std::uint64_t period = 0; period < 4; ++period) {
        if (location == 2 && period == 3) continue;
        TrafficRecord rec;
        rec.location = location;
        rec.period = period;
        rec.bits = Bitmap(period % 2 == 0 ? 256 : 512);
        for (std::uint64_t i = 0; i < 90; ++i) {
          rec.bits.set((i * 7 + location * 13 + period * 29) %
                       rec.bits.size());
        }
        EXPECT_TRUE(service.ingest(rec).is_ok());
      }
    }
    return true;
  }();
  (void)loaded;
  return service;
}

/// Location 1's join over periods 0 and 1.
LocationJoin sample_join() {
  return sample_service().join_location(1, std::vector<std::uint64_t>{0, 1});
}

std::vector<QueryRequest> sample_requests() {
  return {
      PointVolumeQuery{1, 2},
      PointPersistentQuery{1, {0, 1, 2, 3}},
      RecentPersistentQuery{2, 3, MissingPolicy::kSkipMissing},
      P2PPersistentQuery{1, 2, {0, 1, 2}},
      CorridorQuery{{1, 2}, {0, 1, 2, 3}, MissingPolicy::kSkipMissing},
      PointPersistentQuery{2, {0, 3}},   // NotFound, with coverage
      P2PPersistentQuery{1, 2, {3}},     // NotFound, no coverage
      RecentPersistentQuery{1, 0},       // InvalidArgument
  };
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

TEST(TransportWireTest, QueryCallRoundTripsEveryShape) {
  for (const QueryRequest& original : sample_requests()) {
    const auto decoded = decode_wire_message(
        encode_wire_message(QueryCall{0x1234'5678'9ABCULL, original}));
    ASSERT_TRUE(decoded.has_value()) << query_kind_name(original);
    const auto& call = std::get<QueryCall>(*decoded);
    EXPECT_EQ(call.correlation_id, 0x1234'5678'9ABCULL);
    EXPECT_EQ(call.request.index(), original.index());
    EXPECT_TRUE(call.deadline.unbounded());
    EXPECT_TRUE(query_deadline(call.request).unbounded());
    // Unbounded requests carry no clock reading, so the re-encoding of the
    // decoded call is byte-identical to the original's.
    EXPECT_EQ(encode_wire_message(call),
              encode_wire_message(QueryCall{0x1234'5678'9ABCULL, original}))
        << query_kind_name(original);
  }
}

TEST(TransportWireTest, QueryCallDeadlineTravelsAsRemainingBudget) {
  const auto decoded = decode_wire_message(encode_wire_message(QueryCall{
      1, PointVolumeQuery{1, 2}, Deadline::after(std::chrono::seconds(30))}));
  ASSERT_TRUE(decoded.has_value());
  const QueryCall& call = std::get<QueryCall>(*decoded);
  ASSERT_FALSE(call.deadline.unbounded());
  EXPECT_GT(call.deadline.remaining(), std::chrono::seconds(29));
  EXPECT_LE(call.deadline.remaining(), std::chrono::seconds(30));
  // The budget becomes the decoded request's own deadline.
  EXPECT_EQ(query_deadline(call.request).time_point(),
            call.deadline.time_point());

  // An expired deadline arrives expired, so the node refuses the work.
  const auto expired = decode_wire_message(encode_wire_message(
      QueryCall{2, PointVolumeQuery{1, 2}, Deadline::expired()}));
  ASSERT_TRUE(expired.has_value());
  EXPECT_TRUE(
      query_deadline(std::get<QueryCall>(*expired).request).expired_now());
}

TEST(TransportWireTest, QueryReplyRoundTripsBitExactly) {
  for (const QueryRequest& request : sample_requests()) {
    QueryReply reply{77, sample_service().run(request)};
    reply.response.latency_ns = 123456789;
    const auto bytes = encode_wire_message(reply);
    const auto decoded = decode_wire_message(bytes);
    ASSERT_TRUE(decoded.has_value()) << query_kind_name(request);
    const auto& got = std::get<QueryReply>(*decoded);
    const QueryResponse& want = reply.response;
    EXPECT_EQ(got.correlation_id, 77u);
    EXPECT_EQ(got.response.status.code(), want.status.code());
    EXPECT_EQ(got.response.status.message(), want.status.message());
    EXPECT_EQ(got.response.result.index(), want.result.index());
    // The summary is rebuilt from the typed result: every double matches
    // bit for bit, not merely within rounding.
    EXPECT_EQ(got.response.summary.kind, want.summary.kind);
    EXPECT_EQ(bits_of(got.response.summary.value), bits_of(want.summary.value));
    EXPECT_EQ(bits_of(got.response.summary.fill), bits_of(want.summary.fill));
    EXPECT_EQ(got.response.summary.m, want.summary.m);
    EXPECT_EQ(got.response.summary.outcome, want.summary.outcome);
    ASSERT_EQ(got.response.summary.relative_stderr.has_value(),
              want.summary.relative_stderr.has_value());
    if (want.summary.relative_stderr) {
      EXPECT_EQ(bits_of(*got.response.summary.relative_stderr),
                bits_of(*want.summary.relative_stderr));
    }
    EXPECT_EQ(got.response.coverage.requested, want.coverage.requested);
    EXPECT_EQ(got.response.coverage.present, want.coverage.present);
    EXPECT_EQ(got.response.coverage.missing, want.coverage.missing);
    EXPECT_EQ(got.response.latency_ns, 123456789u);
    // Every encoded field - the typed result's intermediates included -
    // survives: the decoded reply re-encodes to the same bytes.
    EXPECT_EQ(encode_wire_message(got), bytes) << query_kind_name(request);
  }
}

TEST(TransportWireTest, JoinMessagesRoundTrip) {
  JoinCall call;
  call.correlation_id = 9;
  call.location = 2;
  call.periods = {0, 1, 2, 3};
  const auto decoded_call = decode_wire_message(encode_wire_message(call));
  ASSERT_TRUE(decoded_call.has_value());
  const auto& got_call = std::get<JoinCall>(*decoded_call);
  EXPECT_EQ(got_call.correlation_id, 9u);
  EXPECT_EQ(got_call.location, 2u);
  EXPECT_EQ(got_call.periods, call.periods);
  EXPECT_TRUE(got_call.deadline.unbounded());

  // A join with a gap, one with nothing stored, and one that failed.
  std::vector<LocationJoin> joins{
      sample_service().join_location(2, call.periods),
      sample_service().join_location(99, call.periods),
      sample_service().join_location(1, call.periods, Deadline::expired())};
  EXPECT_EQ(joins[0].present, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_TRUE(joins[1].join.empty());
  EXPECT_EQ(joins[2].status.code(), ErrorCode::kDeadlineExceeded);
  for (const LocationJoin& join : joins) {
    const auto bytes = encode_wire_message(JoinReply{5, join});
    const auto decoded = decode_wire_message(bytes);
    ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
    const auto& got = std::get<JoinReply>(*decoded);
    EXPECT_EQ(got.correlation_id, 5u);
    EXPECT_EQ(got.join.status.code(), join.status.code());
    EXPECT_EQ(got.join.present, join.present);
    EXPECT_EQ(got.join.join, join.join);
    EXPECT_EQ(encode_wire_message(got), bytes);
  }
}

TEST(TransportWireTest, QueryAndJoinKindsRejectOversizeCounts) {
  // A count claiming more periods than the payload could possibly hold
  // must fail cleanly instead of reserving gigabytes.
  const auto patch_count = [](std::vector<std::uint8_t> bytes,
                              std::size_t at) {
    bytes[at] = 0xFF;
    bytes[at + 1] = 0xFF;
    bytes[at + 2] = 0xFF;
    bytes[at + 3] = 0x7F;
    return bytes;
  };
  // kind(1) id(8) budget(8) shape(1) location(8), then the period count.
  const auto call = encode_wire_message(
      QueryCall{1, PointPersistentQuery{1, {1, 2}}});
  EXPECT_FALSE(decode_wire_message(patch_count(call, 26)).has_value());
  // kind(1) id(8) budget(8) location(8), then the period count.
  const auto join = encode_wire_message(JoinCall{1, 1, {1, 2}, {}});
  EXPECT_FALSE(decode_wire_message(patch_count(join, 25)).has_value());
  // kind(1) id(8) status(1 + 4 + 0), then the present count.
  const auto reply = encode_wire_message(
      JoinReply{1, sample_join()});
  EXPECT_FALSE(decode_wire_message(patch_count(reply, 14)).has_value());
}

TEST(TransportWireTest, QueryAndJoinKindsRejectInconsistentReplies) {
  // Ok without an estimate, and an error carrying one, break the
  // QueryResponse contract; no node produces them.
  QueryResponse ok_without_result;
  EXPECT_FALSE(decode_wire_message(
                   encode_wire_message(QueryReply{1, ok_without_result}))
                   .has_value());
  QueryResponse failed_with_result =
      sample_service().run(PointVolumeQuery{1, 2});
  ASSERT_TRUE(failed_with_result.ok());
  failed_with_result.status = Status{ErrorCode::kInternal, "x"};
  EXPECT_FALSE(decode_wire_message(
                   encode_wire_message(QueryReply{1, failed_with_result}))
                   .has_value());

  // A join must exist exactly when the status is ok and a period is
  // present.
  LocationJoin missing_join = sample_join();
  missing_join.join = Bitmap();
  EXPECT_FALSE(decode_wire_message(
                   encode_wire_message(JoinReply{1, missing_join}))
                   .has_value());
  LocationJoin stray_join;
  stray_join.join = Bitmap(64);
  EXPECT_FALSE(
      decode_wire_message(encode_wire_message(JoinReply{1, stray_join}))
          .has_value());

  // Out-of-range enums: shape tag, missing policy, result tag.
  auto call = encode_wire_message(QueryCall{1, PointVolumeQuery{1, 2}});
  call[17] = 9;  // kind(1) id(8) budget(8), then the shape tag
  EXPECT_FALSE(decode_wire_message(call).has_value());
  auto skip = encode_wire_message(
      QueryCall{1, RecentPersistentQuery{1, 3, MissingPolicy::kSkipMissing}});
  skip.back() = 2;  // the missing policy is the last byte
  EXPECT_FALSE(decode_wire_message(skip).has_value());
  auto result = encode_wire_message(
      QueryReply{1, sample_service().run(PointVolumeQuery{1, 2})});
  result[14] = 9;  // kind(1) id(8) status(1 + 4), then the result tag
  EXPECT_FALSE(decode_wire_message(result).has_value());
}

TEST(TransportWireTest, RetiredRecordsKindsDecodeAsUnknown) {
  // Kinds 17 and 18 carried the raw-record fetch the query push-down
  // replaced; their numbers stay retired, so an old peer's request is an
  // unknown kind rather than a different message.
  for (std::uint8_t kind : {17, 18}) {
    const std::vector<std::uint8_t> bytes{kind, 1, 0, 0, 0, 0, 0, 0, 0,
                                          0,    0, 0, 0};
    const auto decoded = decode_wire_message(bytes);
    ASSERT_FALSE(decoded.has_value());
    EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError);
  }
}

TEST(TransportWireTest, ReplicationTruncationSweep) {
  ReplRecord rec;
  rec.seq = 3;
  rec.record = make_record(9, 4).serialize();
  for (const auto& msg : std::vector<WireMessage>{
           ReplSubscribe{1}, rec, ReplAck{3}, ReplSnapshotBegin{10},
           ReplSnapshotEnd{10},
           QueryCall{4, CorridorQuery{{1, 2}, {1, 2}}},
           QueryReply{4,
                      sample_service().run(P2PPersistentQuery{1, 2, {0, 1}})},
           JoinCall{4, 1, {1, 2}, {}},
           JoinReply{4, sample_join()}}) {
    const auto good = encode_wire_message(msg);
    for (std::size_t len = 1; len < good.size(); ++len) {
      std::vector<std::uint8_t> cut(good.begin(),
                                    good.begin() + static_cast<long>(len));
      EXPECT_FALSE(decode_wire_message(cut).has_value())
          << "kind=" << wire_kind_name(wire_kind(msg)) << " len=" << len;
    }
  }
}

TEST(TransportWireTest, RejectsEmptyUnknownKindAndTruncation) {
  EXPECT_FALSE(decode_wire_message({}).has_value());

  std::vector<std::uint8_t> unknown{0x2A};
  EXPECT_FALSE(decode_wire_message(unknown).has_value());

  const auto good = encode_wire_message(Heartbeat{1, 2});
  for (std::size_t len = 1; len < good.size(); ++len) {
    std::vector<std::uint8_t> cut(good.begin(),
                                  good.begin() + static_cast<long>(len));
    EXPECT_FALSE(decode_wire_message(cut).has_value()) << "len=" << len;
  }
}

TEST(TransportWireTest, RejectsTrailingBytes) {
  auto bytes = encode_wire_message(Heartbeat{1, 2});
  bytes.push_back(0);
  EXPECT_FALSE(decode_wire_message(bytes).has_value());
}

TEST(TransportWireTest, KindNames) {
  EXPECT_EQ(wire_kind(WireMessage{Heartbeat{}}), WireKind::kHeartbeat);
  EXPECT_EQ(wire_kind(WireMessage{StatsRequest{}}), WireKind::kStatsRequest);
  EXPECT_STREQ(wire_kind_name(WireKind::kUploadNack), "upload-nack");
  EXPECT_EQ(wire_kind(WireMessage{ReplSubscribe{}}), WireKind::kReplSubscribe);
  EXPECT_EQ(wire_kind(WireMessage{QueryCall{}}), WireKind::kQueryCall);
  EXPECT_EQ(wire_kind(WireMessage{JoinReply{}}), WireKind::kJoinReply);
  EXPECT_STREQ(wire_kind_name(WireKind::kReplRecord), "repl-record");
  EXPECT_STREQ(wire_kind_name(WireKind::kQueryReply), "query-reply");
  EXPECT_STREQ(wire_kind_name(WireKind::kJoinCall), "join-call");
}

TEST(TransportFramingTest, FramesRoundTripByteAtATime) {
  const auto p1 = encode_wire_message(Heartbeat{1, 11});
  const auto p2 = encode_wire_message(HeartbeatAck{2, 22});
  std::vector<std::uint8_t> stream = frame_payload(p1);
  const auto f2 = frame_payload(p2);
  stream.insert(stream.end(), f2.begin(), f2.end());

  StreamDecoder decoder;
  std::vector<std::vector<std::uint8_t>> out;
  for (const std::uint8_t byte : stream) {
    decoder.feed({&byte, 1});
    while (true) {
      auto next = decoder.next();
      ASSERT_TRUE(next.has_value());
      if (!next->has_value()) break;
      out.emplace_back((*next)->begin(), (*next)->end());
    }
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], p1);
  EXPECT_EQ(out[1], p2);
  EXPECT_EQ(decoder.frames_decoded(), 2u);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(TransportFramingTest, PartialFrameYieldsNothing) {
  const auto payload = encode_wire_message(Heartbeat{9, 99});
  const auto framed = frame_payload(payload);
  StreamDecoder decoder;
  decoder.feed({framed.data(), framed.size() - 1});
  auto next = decoder.next();
  ASSERT_TRUE(next.has_value());
  EXPECT_FALSE(next->has_value());
  decoder.feed({framed.data() + framed.size() - 1, 1});
  next = decoder.next();
  ASSERT_TRUE(next.has_value());
  ASSERT_TRUE(next->has_value());
  EXPECT_EQ(std::vector<std::uint8_t>((*next)->begin(), (*next)->end()),
            payload);
}

TEST(TransportFramingTest, ViewsStayValidUntilTheNextFeed) {
  // Frames handed out by one drain all view the decoder's buffer; none
  // moves until bytes are fed again.
  const auto p1 = encode_wire_message(Heartbeat{1, 11});
  const auto p2 = encode_wire_message(StatsResponse{std::string(300, 'v')});
  std::vector<std::uint8_t> stream = frame_payload(p1);
  const auto f2 = frame_payload(p2);
  stream.insert(stream.end(), f2.begin(), f2.end());
  StreamDecoder decoder;
  decoder.feed(stream);
  auto first = decoder.next();
  auto second = decoder.next();
  ASSERT_TRUE(first.has_value() && first->has_value());
  ASSERT_TRUE(second.has_value() && second->has_value());
  EXPECT_EQ(std::vector<std::uint8_t>((*first)->begin(), (*first)->end()),
            p1);
  EXPECT_EQ(std::vector<std::uint8_t>((*second)->begin(), (*second)->end()),
            p2);
  auto third = decoder.next();
  ASSERT_TRUE(third.has_value());
  EXPECT_FALSE(third->has_value());
}

TEST(TransportFramingTest, OversizeLengthPoisonsStream) {
  StreamDecoder decoder;
  const std::vector<std::uint8_t> evil{0xFF, 0xFF, 0xFF, 0xFF};
  decoder.feed(evil);
  auto next = decoder.next();
  EXPECT_FALSE(next.has_value());
  EXPECT_TRUE(decoder.poisoned());
  // Poisoned is terminal: further feeds are ignored, next() keeps failing.
  const auto good = frame_payload(encode_wire_message(Heartbeat{}));
  decoder.feed(good);
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(TransportFramingTest, ZeroLengthPoisonsStream) {
  StreamDecoder decoder;
  const std::vector<std::uint8_t> zero{0, 0, 0, 0};
  decoder.feed(zero);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.poisoned());
}

}  // namespace
}  // namespace ptm::transport
