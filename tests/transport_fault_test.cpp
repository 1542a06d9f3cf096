// Adversarial-input fuzzing for the transport decode path (run under ASan
// in CI's transport-chaos job): random garbage, truncated frames, bit-
// flipped valid messages, and pathological length prefixes must all come
// back as clean ParseError / poisoned-stream outcomes - never a crash,
// over-read, or unbounded allocation.  Also covers the write-side fault
// injector against a live socket pair: every scripted action (drop, dup,
// delay, truncate-and-sever, sever) does exactly what it says at the byte
// level.
#include "transport/fault_injection.hpp"
#include "transport/framing.hpp"
#include "transport/wire.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/random.hpp"
#include "common/serialize.hpp"
#include "core/traffic_record.hpp"
#include "crypto/certificate.hpp"
#include "crypto/rsa.hpp"
#include "net/message.hpp"
#include "query/query_service.hpp"
#include "transport/auth.hpp"
#include "transport/socket.hpp"

#include <sys/socket.h>

namespace ptm::transport {
namespace {

// PTM_CHAOS_ITERS is a *multiplier* (the chaos workflows set small
// values like 5 to mean "5x the default coverage", matching the
// scenario-repeat semantics of chaos_recovery_test).
std::size_t fuzz_iterations() {
  return 300 * static_cast<std::size_t>(env_u64("PTM_CHAOS_ITERS", 1));
}

TEST(TransportFuzzTest, RandomGarbageNeverCrashesEnvelopeCodec) {
  Xoshiro256 rng(0xFACEu);
  for (std::size_t iter = 0; iter < fuzz_iterations(); ++iter) {
    std::vector<std::uint8_t> bytes(rng.below(512));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    const auto decoded = decode_wire_message(bytes);
    if (!decoded.has_value()) {
      EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError);
    }
  }
}

TEST(TransportFuzzTest, TruncatedValidMessagesAreRejected) {
  Xoshiro256 rng(0xBEEFu);
  const std::vector<WireMessage> corpus{
      Heartbeat{123, 456},
      HeartbeatAck{789, 12},
      UploadNack{1, 2, ErrorCode::kResourceExhausted, true},
      StatsResponse{std::string(100, 'x')},
      Frame{MacAddress{1}, MacAddress{2}, EncodeIndex{42}, {}},
  };
  for (const auto& msg : corpus) {
    const auto good = encode_wire_message(msg);
    ASSERT_TRUE(decode_wire_message(good).has_value());
    for (std::size_t len = 0; len < good.size(); ++len) {
      std::vector<std::uint8_t> cut(good.begin(),
                                    good.begin() + static_cast<long>(len));
      EXPECT_FALSE(decode_wire_message(cut).has_value());
    }
  }
}

TEST(TransportFuzzTest, BitFlippedMessagesNeverCrash) {
  Xoshiro256 rng(0xD00Du);
  const auto good =
      encode_wire_message(UploadNack{9, 9, ErrorCode::kResourceExhausted, true});
  for (std::size_t iter = 0; iter < fuzz_iterations(); ++iter) {
    auto mutated = good;
    const std::size_t pos = rng.below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    // Either decodes to *something* or fails cleanly; both are fine.
    (void)decode_wire_message(mutated);
  }
}

TEST(TransportFuzzTest, StreamDecoderSurvivesRandomChunkedGarbage) {
  Xoshiro256 rng(0xC0FFEEu);
  for (std::size_t iter = 0; iter < fuzz_iterations(); ++iter) {
    StreamDecoder decoder(4096);
    std::vector<std::uint8_t> noise(1 + rng.below(2048));
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next());
    std::size_t off = 0;
    while (off < noise.size() && !decoder.poisoned()) {
      const std::size_t chunk =
          std::min(noise.size() - off, 1 + rng.below(64));
      decoder.feed({noise.data() + off, chunk});
      off += chunk;
      while (true) {
        auto next = decoder.next();
        if (!next.has_value() || !next->has_value()) break;
        // A garbage "frame" that fit the length prefix: decoding it must
        // fail cleanly or produce a message, never fault.
        (void)decode_wire_message(**next);
      }
    }
  }
}

TEST(TransportFuzzTest, DecoderBufferStaysBoundedByMaxFrame) {
  // A length prefix at exactly the cap is accepted but the decoder only
  // ever buffers what was fed - no eager allocation of the advertised 4GiB.
  StreamDecoder decoder;
  const std::uint32_t len = StreamDecoder::kMaxFrameBytes + 1;
  const std::vector<std::uint8_t> prefix{
      static_cast<std::uint8_t>(len & 0xFF),
      static_cast<std::uint8_t>((len >> 8) & 0xFF),
      static_cast<std::uint8_t>((len >> 16) & 0xFF),
      static_cast<std::uint8_t>((len >> 24) & 0xFF)};
  decoder.feed(prefix);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.poisoned());
}

TEST(TransportFuzzTest, OversizeEncodePayloadAbortsInsteadOfTruncating) {
  // The encode side enforces the same bound the decoder does: a payload
  // past kMaxFrameBytes could never be decoded by a peer (and past 4 GiB
  // the u32 prefix would silently truncate), so frame_payload treats it
  // as a programming error and aborts rather than poisoning the stream.
  const std::vector<std::uint8_t> oversize(
      static_cast<std::size_t>(StreamDecoder::kMaxFrameBytes) + 1, 0xAB);
  EXPECT_DEATH((void)frame_payload(oversize), "");
}

TEST(TransportFuzzTest, TruncatedTailAcrossFeedsIsJustAPartialFrame) {
  // A torn frame (what TruncateAndSever leaves behind) is indistinguishable
  // from a slow sender: the decoder reports "need more", and the session
  // teardown is what surfaces the error.  No bytes may be over-read.
  const auto payload = encode_wire_message(StatsResponse{"abcdefgh"});
  const auto framed = frame_payload(payload);
  for (std::size_t cut = 1; cut < framed.size(); ++cut) {
    StreamDecoder decoder;
    decoder.feed({framed.data(), cut});
    auto next = decoder.next();
    ASSERT_TRUE(next.has_value());
    EXPECT_FALSE(next->has_value());
    EXPECT_FALSE(decoder.poisoned());
    EXPECT_EQ(decoder.buffered(), cut);
  }
}

TEST(TransportFuzzTest, TruncatedAuthEnvelopesAreRejected) {
  // Every strict prefix of a valid handshake envelope must fail cleanly -
  // these arrive from unauthenticated peers, the least-trusted bytes in
  // the system.
  const std::vector<WireMessage> corpus{
      AuthHello{{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}},
      AuthChallenge{std::vector<std::uint8_t>(kAuthNonceBytes, 0xA5)},
      AuthProof{std::vector<std::uint8_t>(64, 0x5A)},
      AuthReject{AuthRejectCode::kBadProof},
      AuthOk{},
  };
  for (const auto& msg : corpus) {
    const auto good = encode_wire_message(msg);
    ASSERT_TRUE(decode_wire_message(good).has_value());
    for (std::size_t len = 0; len < good.size(); ++len) {
      std::vector<std::uint8_t> cut(good.begin(),
                                    good.begin() + static_cast<long>(len));
      EXPECT_FALSE(decode_wire_message(cut).has_value());
    }
  }
}

TEST(TransportFuzzTest, BitFlippedAuthEnvelopesNeverCrash) {
  Xoshiro256 rng(0xA117u);
  const std::vector<WireMessage> corpus{
      AuthHello{std::vector<std::uint8_t>(48, 0x11)},
      AuthChallenge{std::vector<std::uint8_t>(kAuthNonceBytes, 0x22)},
      AuthProof{std::vector<std::uint8_t>(64, 0x33)},
      AuthReject{AuthRejectCode::kUntrustedCertificate},
  };
  for (std::size_t iter = 0; iter < fuzz_iterations(); ++iter) {
    auto mutated = encode_wire_message(corpus[iter % corpus.size()]);
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    // Decode to *something* or a clean ParseError; never UB.
    const auto decoded = decode_wire_message(mutated);
    if (!decoded.has_value()) {
      EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError);
    }
  }
}

TEST(TransportFuzzTest, MutatedCertificateBytesFailVerifyCleanly) {
  // The server decodes certificate bytes straight out of auth-hello and
  // runs them through signature verification: arbitrary mutations must
  // come back as a decode error or a failed verify, never a crash or an
  // attacker-sized allocation.
  Xoshiro256 rng(0xCE47u);
  CertificateAuthority ca("fuzz-ca", 512, rng);
  const RsaKeyPair keys = rsa_generate(512, rng);
  auto cert = ca.issue("rsu:9", 9, keys.pub, 0, 100);
  ASSERT_TRUE(cert.has_value());
  const auto good = cert->serialize();
  ASSERT_TRUE(Certificate::deserialize(good).has_value());

  for (std::size_t iter = 0; iter < fuzz_iterations(); ++iter) {
    auto mutated = good;
    switch (rng.below(3)) {
      case 0:  // bit flips
        for (std::size_t f = 0, n = 1 + rng.below(8); f < n; ++f) {
          mutated[rng.below(mutated.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
        }
        break;
      case 1:  // truncation
        mutated.resize(rng.below(mutated.size()));
        break;
      default:  // random trailing garbage
        for (std::size_t g = 0, n = 1 + rng.below(32); g < n; ++g) {
          mutated.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        break;
    }
    auto decoded = Certificate::deserialize(mutated);
    if (!decoded.has_value()) continue;  // clean rejection
    // Any surviving decode carries broken bytes somewhere: the CA
    // signature check must throw it out.
    EXPECT_FALSE(
        verify_certificate(*decoded, ca.public_key(), 0).is_ok());
  }
}

TEST(TransportFuzzTest, InvertedValidityWindowIsRejectedAtDecode) {
  // An inverted window can never match any period; accepting one at the
  // codec boundary would mint a credential that is broken by
  // construction (and used to slip through deserialize).
  Xoshiro256 rng(0x717Eu);
  const RsaKeyPair keys = rsa_generate(512, rng);
  Certificate cert;
  cert.subject = "rsu:1";
  cert.subject_id = 1;
  cert.subject_key = keys.pub;
  cert.issuer = "nobody";
  cert.valid_from = 10;
  cert.valid_until = 3;  // inverted
  cert.signature = {1, 2, 3};
  const auto decoded = Certificate::deserialize(cert.serialize());
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.status().code(), ErrorCode::kInvalidArgument);
}

std::vector<WireMessage> replication_corpus() {
  TrafficRecord rec;
  rec.location = 11;
  rec.period = 3;
  rec.bits = Bitmap(128);
  rec.bits.set(5);
  rec.bits.set(77);
  const std::vector<std::uint8_t> blob = rec.serialize();
  return {
      ReplSubscribe{7},
      ReplRecord{1, blob},
      ReplAck{9},
      ReplSnapshotBegin{1000},
      ReplSnapshotEnd{42},
  };
}

/// Query push-down traffic: a call of every shape, and replies and joins
/// taken from a real service (estimates, coverage gaps, failures).
std::vector<WireMessage> query_corpus() {
  QueryService service;
  for (std::uint64_t period = 0; period < 4; ++period) {
    for (std::uint64_t location : {1, 2}) {
      TrafficRecord rec;
      rec.location = location;
      rec.period = period;
      rec.bits = Bitmap(128);
      for (std::uint64_t i = 0; i < 30; ++i) {
        rec.bits.set((i * 5 + location * 3 + period) % 128);
      }
      (void)service.ingest(rec);
    }
  }
  const std::vector<std::uint64_t> periods{0, 1, 2, 3, 4};
  std::vector<WireMessage> corpus{
      QueryCall{1, PointVolumeQuery{1, 2}},
      QueryCall{2, PointPersistentQuery{1, periods,
                                        MissingPolicy::kSkipMissing}},
      QueryCall{3, RecentPersistentQuery{2, 3},
                Deadline::after(std::chrono::seconds(5))},
      QueryCall{4, P2PPersistentQuery{1, 2, periods}},
      QueryCall{5, CorridorQuery{{1, 2}, periods,
                                 MissingPolicy::kSkipMissing}},
      JoinCall{6, 1, periods, {}},
      JoinReply{7, service.join_location(1, periods)},
      JoinReply{8, service.join_location(9, periods)},
  };
  for (const QueryRequest& request : std::vector<QueryRequest>{
           PointVolumeQuery{1, 2},
           PointPersistentQuery{1, periods, MissingPolicy::kSkipMissing},
           P2PPersistentQuery{1, 2, {0, 1, 2}},
           CorridorQuery{{1, 2}, periods, MissingPolicy::kSkipMissing},
           P2PPersistentQuery{1, 2, periods}}) {
    corpus.push_back(QueryReply{9, service.run(request)});
  }
  return corpus;
}

/// Flips 1-4 random bits of corpus messages: every outcome is a clean
/// ParseError or a structurally valid message.
void flipped_bits_decode_cleanly(const std::vector<WireMessage>& corpus,
                                 std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (std::size_t iter = 0; iter < fuzz_iterations(); ++iter) {
    auto mutated = encode_wire_message(corpus[iter % corpus.size()]);
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    const auto decoded = decode_wire_message(mutated);
    if (!decoded.has_value()) {
      EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError);
    }
  }
}

/// Beyond single flips: truncation and trailing garbage, mirroring what a
/// torn or resynced-at-the-wrong-offset stream would feed the decoder.
void mutated_envelopes_decode_cleanly(const std::vector<WireMessage>& corpus,
                                      std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (std::size_t iter = 0; iter < fuzz_iterations(); ++iter) {
    auto mutated = encode_wire_message(corpus[iter % corpus.size()]);
    switch (rng.below(3)) {
      case 0:
        mutated.resize(rng.below(mutated.size()));
        break;
      case 1:
        for (std::size_t g = 0, n = 1 + rng.below(16); g < n; ++g) {
          mutated.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        break;
      default:
        for (std::size_t f = 0, n = 1 + rng.below(8); f < n; ++f) {
          if (mutated.empty()) break;
          mutated[rng.below(mutated.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
        }
        break;
    }
    const auto decoded = decode_wire_message(mutated);
    if (!decoded.has_value()) {
      EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError);
    }
  }
}

TEST(TransportFuzzTest, BitFlippedReplicationEnvelopesNeverCrash) {
  // The replication stream crosses the same trust boundary the upload
  // path does - a compromised or corrupted peer node speaks it - so the
  // kinds 12-16 codecs get the same adversarial treatment.
  flipped_bits_decode_cleanly(replication_corpus(), 0x4E91u);
}

TEST(TransportFuzzTest, MutatedReplicationEnvelopesNeverCrash) {
  mutated_envelopes_decode_cleanly(replication_corpus(), 0x4E92u);
}

TEST(TransportFuzzTest, BitFlippedQueryEnvelopesNeverCrash) {
  // Query and join calls arrive from any client; replies arrive at the
  // coordinator from any node.  Kinds 19-22 get the same treatment.
  flipped_bits_decode_cleanly(query_corpus(), 0x4E94u);
}

TEST(TransportFuzzTest, MutatedQueryEnvelopesNeverCrash) {
  mutated_envelopes_decode_cleanly(query_corpus(), 0x4E95u);
}

TEST(TransportFuzzTest, MutatedRecordBlobsInsideReplEnvelopesFailCleanly) {
  // A structurally valid repl-record envelope can still carry a corrupt
  // record blob; the follower's apply path runs it through
  // TrafficRecord::deserialize, which must reject or round-trip - never
  // fault - because a poisoned blob otherwise becomes archive contents.
  Xoshiro256 rng(0x4E93u);
  TrafficRecord rec;
  rec.location = 21;
  rec.period = 8;
  rec.bits = Bitmap(256);
  rec.bits.set(100);
  const std::vector<std::uint8_t> good = rec.serialize();
  for (std::size_t iter = 0; iter < fuzz_iterations(); ++iter) {
    auto blob = good;
    for (std::size_t f = 0, n = 1 + rng.below(6); f < n; ++f) {
      blob[rng.below(blob.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    const auto envelope = encode_wire_message(ReplRecord{1, blob});
    const auto decoded = decode_wire_message(envelope);
    if (!decoded.has_value()) continue;  // envelope itself rejected
    const auto* repl = std::get_if<ReplRecord>(&*decoded);
    ASSERT_NE(repl, nullptr);
    const auto record = TrafficRecord::deserialize(repl->record);
    if (record.has_value()) {
      EXPECT_TRUE(record->validate().is_ok());
    }
  }
}

/// A kind-1 RecordUpload envelope around `record_blob`, whose nested
/// lengths are then free to lie (see the offsets below).
std::vector<std::uint8_t> upload_envelope(
    const std::vector<std::uint8_t>& record_blob) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(WireKind::kV2IFrame));
  w.u8(static_cast<std::uint8_t>(MessageType::kRecordUpload));
  for (int i = 0; i < 4; ++i) w.u64(0x1000 + i);  // src, dst, trace
  w.u32(static_cast<std::uint32_t>(4 + record_blob.size()));  // body
  w.bytes(record_blob);
  return w.take();
}

void put_u32(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Decodes `payload` both directly and as one stream frame; both must
/// agree on a clean ParseError.
void rejected_as_parse_error(const std::vector<std::uint8_t>& payload,
                             const std::string& what) {
  const auto direct = decode_wire_message(payload);
  ASSERT_FALSE(direct.has_value()) << what;
  EXPECT_EQ(direct.status().code(), ErrorCode::kParseError) << what;
  StreamDecoder decoder;
  decoder.feed(frame_payload(payload));
  auto next = decoder.next();
  ASSERT_TRUE(next.has_value() && next->has_value()) << what;
  const auto framed = decode_wire_message(**next);
  ASSERT_FALSE(framed.has_value()) << what;
  EXPECT_EQ(framed.status().code(), ErrorCode::kParseError) << what;
}

TEST(TransportFuzzTest, ViewDecodeRejectsLyingLengthsAndMalformedBitmaps) {
  // Decoders hand out views into the frame they read; a length that runs
  // past the remaining bytes must be caught before any view is formed.
  TrafficRecord rec;
  rec.location = 3;
  rec.period = 4;
  rec.bits = Bitmap(128);
  rec.bits.set(77);
  const auto record = rec.serialize();
  const auto good = upload_envelope(record);
  ASSERT_TRUE(decode_wire_message(good).has_value());
  // Offsets in the envelope: frame body length at 34, record blob length
  // at 38, bitmap blob length at 38 + 4 + 16.
  for (std::size_t at : {34u, 38u, 58u}) {
    const std::size_t remaining = good.size() - at - 4;
    for (std::uint64_t lie :
         {std::uint64_t{remaining} + 1, std::uint64_t{remaining} + 4096,
          std::uint64_t{0x7FFFFFFF}, std::uint64_t{0xFFFFFFFF}}) {
      auto bad = good;
      put_u32(bad, at, static_cast<std::uint32_t>(lie));
      rejected_as_parse_error(bad, "length at " + std::to_string(at) +
                                       " = " + std::to_string(lie));
    }
  }
  // A bitmap blob shorter than its own 8-byte bit-count header.
  for (std::size_t header = 0; header < 8; ++header) {
    ByteWriter blob;
    blob.u64(rec.location);
    blob.u64(rec.period);
    blob.bytes(std::vector<std::uint8_t>(record.begin() + 20,
                                         record.begin() + 20 +
                                             static_cast<long>(header)));
    rejected_as_parse_error(upload_envelope(blob.take()),
                            "bitmap header of " + std::to_string(header));
  }
  // One-bits past bit_count in the last word: 32-bit record, bit 40 set.
  TrafficRecord narrow{5, 6, Bitmap(32)};
  narrow.bits.set(31);
  auto stray = narrow.serialize();
  stray[stray.size() - 8 + 5] |= 0x01;  // bit 40
  rejected_as_parse_error(upload_envelope(stray), "stray tail bit");
  // The same bitmap as a join-reply's bitmap.
  ByteWriter join;
  join.u8(static_cast<std::uint8_t>(WireKind::kJoinReply));
  join.u64(1);                                    // correlation id
  join.u8(0);                                     // status ok
  join.u32(0);                                    // empty message
  join.u32(1);                                    // one present period
  join.u64(6);
  join.bytes(std::vector<std::uint8_t>(stray.begin() + 20, stray.end()));
  rejected_as_parse_error(join.take(), "stray tail bit in a join");
  // A repl-record whose blob length runs past the payload.
  auto repl = encode_wire_message(ReplRecord{1, record});
  put_u32(repl, 9, static_cast<std::uint32_t>(record.size() + 1));
  rejected_as_parse_error(repl, "repl-record blob past the payload");
}

class FaultInjectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2] = {-1, -1};
    ASSERT_EQ(
        ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
    writer_fd_ = fds[0];
    reader_ = Socket(fds[1]);
  }

  /// Reads everything currently available (after a short wait).
  std::vector<std::uint8_t> drain() {
    std::vector<std::uint8_t> out;
    std::uint8_t buf[4096];
    while (true) {
      auto ready = reader_.wait(false, 200);
      if (!ready.has_value() || !*ready) break;
      auto io = reader_.read_some(buf);
      if (!io.has_value() || io->peer_closed || io->bytes == 0) break;
      out.insert(out.end(), buf, buf + io->bytes);
    }
    return out;
  }

  int writer_fd_ = -1;
  Socket reader_;
};

TEST_F(FaultInjectorTest, CleanWritePassesThrough) {
  FaultInjectingSocket sock(Socket(writer_fd_), {});
  const auto frame = frame_payload(encode_wire_message(Heartbeat{1, 2}));
  auto res = sock.write_frame(frame, 1000);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->written);
  EXPECT_FALSE(res->severed);
  EXPECT_EQ(drain(), frame);
}

TEST_F(FaultInjectorTest, DropFrameWritesNothing) {
  FaultInjectingSocket sock(
      Socket(writer_fd_), {{0, SocketFaultAction::kDropFrame, 0, 0}});
  const auto frame = frame_payload(encode_wire_message(Heartbeat{1, 2}));
  auto res = sock.write_frame(frame, 1000);
  ASSERT_TRUE(res.has_value());
  EXPECT_FALSE(res->written);
  EXPECT_EQ(res->faults_fired, 1u);
  EXPECT_TRUE(drain().empty());
  // The NEXT frame (ordinal 1, unscripted) goes out normally.
  auto res2 = sock.write_frame(frame, 1000);
  ASSERT_TRUE(res2.has_value());
  EXPECT_TRUE(res2->written);
  EXPECT_EQ(drain(), frame);
}

TEST_F(FaultInjectorTest, DuplicateFrameWritesTwice) {
  FaultInjectingSocket sock(
      Socket(writer_fd_), {{0, SocketFaultAction::kDuplicateFrame, 0, 0}});
  const auto frame = frame_payload(encode_wire_message(Heartbeat{7, 8}));
  auto res = sock.write_frame(frame, 1000);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->written);
  std::vector<std::uint8_t> twice = frame;
  twice.insert(twice.end(), frame.begin(), frame.end());
  EXPECT_EQ(drain(), twice);
}

TEST_F(FaultInjectorTest, TruncateAndSeverLeavesTornFrame) {
  FaultInjectingSocket sock(
      Socket(writer_fd_),
      {{0, SocketFaultAction::kTruncateAndSever, 0, 5}});
  const auto frame = frame_payload(encode_wire_message(Heartbeat{7, 8}));
  ASSERT_GT(frame.size(), 5u);
  auto res = sock.write_frame(frame, 1000);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->severed);
  EXPECT_TRUE(sock.severed());
  const auto seen = drain();
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_TRUE(std::equal(seen.begin(), seen.end(), frame.begin()));
  // The receiver's decoder treats the torn tail as a partial frame; the
  // EOF that follows is what kills the session.
  StreamDecoder decoder;
  decoder.feed(seen);
  auto next = decoder.next();
  ASSERT_TRUE(next.has_value());
  EXPECT_FALSE(next->has_value());
}

TEST_F(FaultInjectorTest, SeverClosesBeforeWriting) {
  FaultInjectingSocket sock(Socket(writer_fd_),
                            {{0, SocketFaultAction::kSever, 0, 0}});
  const auto frame = frame_payload(encode_wire_message(Heartbeat{1, 1}));
  auto res = sock.write_frame(frame, 1000);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->severed);
  EXPECT_FALSE(res->written);
  EXPECT_TRUE(drain().empty());
  // Writes after a sever fail hard.
  EXPECT_FALSE(sock.write_frame(frame, 100).has_value());
}

}  // namespace
}  // namespace ptm::transport
