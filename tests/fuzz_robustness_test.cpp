// Robustness fuzzing: every decoder that consumes bytes from across a
// trust boundary must reject arbitrary garbage gracefully - no crashes, no
// accepted-but-nonsense values.  Seeded random fuzz keeps the suite
// deterministic.
#include <gtest/gtest.h>

#include "common/bitmap.hpp"
#include "common/crc32.hpp"
#include "common/random.hpp"
#include "common/serialize.hpp"
#include "core/traffic_record.hpp"
#include "crypto/certificate.hpp"
#include "crypto/rsa.hpp"
#include "net/message.hpp"
#include "query/query_service.hpp"
#include "store/archive.hpp"
#include "store/journal.hpp"
#include "store/outbox.hpp"
#include "store/record_log.hpp"
#include "transport/wire.hpp"

#include <cstdio>
#include <fstream>

namespace ptm {
namespace {

std::vector<std::uint8_t> random_bytes(Xoshiro256& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

TEST(Fuzz, BitmapDeserializeNeverCrashes) {
  Xoshiro256 rng(1);
  int accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto bytes = random_bytes(rng, 200);
    const auto result = Bitmap::deserialize(bytes);
    if (result) {
      ++accepted;
      // Anything accepted must be internally consistent.
      EXPECT_EQ(result->count_ones() + result->count_zeros(), result->size());
    }
  }
  // Random bytes occasionally form a valid header+body; that's fine, but
  // it must be rare (the length check rejects nearly everything).
  EXPECT_LT(accepted, 500);
}

TEST(Fuzz, BitmapDeserializeRejectsStrayTailBits) {
  // Crafted adversarial frame: a valid header + body whose last word has
  // one-bits ABOVE bit_count_.  Such a bitmap would silently corrupt every
  // popcount-based estimate (count_zeros / fraction_ones scan whole words),
  // so deserialize must refuse it rather than normalize it.
  for (std::size_t bit_count : {1u, 5u, 37u, 63u, 65u, 100u}) {
    Bitmap good(bit_count);
    if (bit_count >= 3) good.set(2);
    auto bytes = good.serialize();
    const std::size_t rem = bit_count % 64;
    ASSERT_NE(rem, 0u);
    // Flip a bit in the tail slack of the last word.
    const std::size_t last_word_offset = bytes.size() - 8;
    bytes[last_word_offset + rem / 8] |=
        static_cast<std::uint8_t>(1u << (rem % 8));
    const auto result = Bitmap::deserialize(bytes);
    EXPECT_FALSE(result.has_value()) << "bit_count=" << bit_count;
    // The untampered frame must still round-trip.
    const auto clean = Bitmap::deserialize(good.serialize());
    ASSERT_TRUE(clean.has_value());
    EXPECT_TRUE(*clean == good);
  }
}

TEST(Fuzz, BitmapDeserializeRejectsBitCountsNearTheTopOfU64) {
  // A header alone claiming 2^64 - k bits: rounding that up to words must
  // not wrap to zero words and accept a bitmap with no storage.
  for (std::uint64_t k = 1; k <= 64; ++k) {
    const std::uint64_t bit_count = ~std::uint64_t{0} - (k - 1);
    std::vector<std::uint8_t> header(8);
    for (int i = 0; i < 8; ++i) {
      header[i] = static_cast<std::uint8_t>(bit_count >> (8 * i));
    }
    EXPECT_EQ(Bitmap::deserialize(header).status().code(),
              ErrorCode::kParseError)
        << bit_count;
  }
}

TEST(Fuzz, TrafficRecordDeserializeNeverCrashes) {
  Xoshiro256 rng(2);
  for (int i = 0; i < 5000; ++i) {
    const auto bytes = random_bytes(rng, 300);
    const auto result = TrafficRecord::deserialize(bytes);
    if (result) {
      EXPECT_TRUE(result->validate().is_ok());
    }
  }
}

TEST(Fuzz, RecordDecodeRejectsBlobLengthsPastTheRemainingBytes) {
  // The record decoder reads the bitmap as a view into its input: every
  // blob length that overruns the input, by one byte or by gigabytes, is
  // a ParseError, and no shorter lie is ever accepted either.
  TrafficRecord rec{11, 12, Bitmap(256)};
  rec.bits.set(200);
  const auto good = rec.serialize();
  Xoshiro256 rng(0x5EC7);
  for (int i = 0; i < 2000; ++i) {
    auto bad = good;
    const std::uint32_t honest = static_cast<std::uint32_t>(good.size() - 20);
    std::uint32_t lie = static_cast<std::uint32_t>(rng.next());
    if (i % 2 == 0) lie = honest + 1 + static_cast<std::uint32_t>(rng.below(64));
    if (lie == honest) continue;
    for (int b = 0; b < 4; ++b) {
      bad[16 + b] = static_cast<std::uint8_t>(lie >> (8 * b));
    }
    const auto result = TrafficRecord::deserialize(bad);
    ASSERT_FALSE(result.has_value()) << lie;
    EXPECT_EQ(result.status().code(), ErrorCode::kParseError);
  }
  // Truncated bitmap header: fewer than 8 bytes of bit count.
  for (std::size_t header = 0; header < 8; ++header) {
    ByteWriter w;
    w.u64(rec.location);
    w.u64(rec.period);
    w.bytes(std::span<const std::uint8_t>(good.data() + 20, header));
    EXPECT_EQ(TrafficRecord::deserialize(w.buffer()).status().code(),
              ErrorCode::kParseError)
        << header;
  }
  // Stray tail bits in a record's last word (m = 32, bits 32-63 slack).
  for (std::size_t stray_bit = 32; stray_bit < 64; stray_bit += 7) {
    TrafficRecord narrow{1, 2, Bitmap(32)};
    auto bytes = narrow.serialize();
    bytes[bytes.size() - 8 + stray_bit / 8] |=
        static_cast<std::uint8_t>(1u << (stray_bit % 8));
    EXPECT_EQ(TrafficRecord::deserialize(bytes).status().code(),
              ErrorCode::kParseError)
        << stray_bit;
  }
  // And the same lies one layer out, in a RecordUpload frame's body.
  const auto frame = encode_frame(
      Frame{MacAddress{1}, MacAddress{2}, RecordUpload{rec}, {}});
  ASSERT_TRUE(decode_frame(frame).has_value());
  for (std::size_t at : {33u, 37u}) {  // body length, record blob length
    auto bad = frame;
    const std::uint32_t lie = static_cast<std::uint32_t>(frame.size() - at);
    for (int b = 0; b < 4; ++b) {
      bad[at + b] = static_cast<std::uint8_t>(lie >> (8 * b));
    }
    EXPECT_EQ(decode_frame(bad).status().code(), ErrorCode::kParseError)
        << at;
  }
}

TEST(Fuzz, FrameDecodeNeverCrashes) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 5000; ++i) {
    const auto bytes = random_bytes(rng, 400);
    (void)decode_frame(bytes);  // must not crash or leak; result irrelevant
  }
}

TEST(Fuzz, MutatedValidFramesRejectedOrEquivalent) {
  // Start from a real frame and flip random bytes: the decoder must either
  // reject it or produce a structurally valid frame (never UB).
  Xoshiro256 rng(4);
  Frame frame{MacAddress{1}, MacAddress{2}, EncodeIndex{777}, {}};
  const auto wire = encode_frame(frame);
  for (int i = 0; i < 5000; ++i) {
    auto mutated = wire;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.below(255));
    }
    const auto result = decode_frame(mutated);
    if (result) {
      (void)result->type();  // variant must be in a valid state
    }
  }
}

TEST(Fuzz, CertificateDeserializeNeverCrashes) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 3000; ++i) {
    const auto bytes = random_bytes(rng, 500);
    (void)Certificate::deserialize(bytes);
  }
}

TEST(Fuzz, MutatedCertificateNeverVerifies) {
  // Byte-level mutations of a valid certificate must never verify against
  // the CA key (the signature covers every TBS byte).
  Xoshiro256 rng(6);
  CertificateAuthority ca("ca", 512, rng);
  const RsaKeyPair keys = rsa_generate(512, rng);
  const Certificate cert = *ca.issue("rsu:1", 1, keys.pub, 0, 100);
  const auto wire = cert.serialize();
  for (int i = 0; i < 300; ++i) {
    auto mutated = wire;
    mutated[rng.below(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
    const auto decoded = Certificate::deserialize(mutated);
    if (!decoded) continue;  // rejected at parse: good
    if (decoded->tbs_bytes() == cert.tbs_bytes() &&
        decoded->signature == cert.signature) {
      continue;  // mutation hit padding-free equality (possible only if a
                 // flipped byte round-tripped identically - skip)
    }
    EXPECT_FALSE(
        verify_certificate(*decoded, ca.public_key(), 50).is_ok())
        << "mutation " << i << " verified!";
  }
}

TEST(Fuzz, RecordLogReaderSurvivesGarbageFiles) {
  Xoshiro256 rng(7);
  const std::string path = ::testing::TempDir() + "/ptm_fuzz_log.bin";
  for (int i = 0; i < 200; ++i) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      // Half the time start with the valid magic so the body parser runs.
      if (i % 2 == 0) out.write("PTMRLOG1", 8);
      const auto bytes = random_bytes(rng, 600);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    const auto result = read_record_log(path);
    if (result) {
      for (const TrafficRecord& rec : result->records) {
        EXPECT_TRUE(rec.validate().is_ok());
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Fuzz, UploadAckFramesDecodeOrRejectCleanly) {
  // The UploadAck decoder sits on the server->RSU return path; mutated and
  // random frames must never crash it or leave a half-built variant.
  Xoshiro256 rng(9);
  Frame ack{MacAddress{1}, MacAddress{2}, UploadAck{7, 3}, {}};
  const auto wire = encode_frame(ack);
  for (int i = 0; i < 5000; ++i) {
    auto mutated = wire;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.below(255));
    }
    const auto result = decode_frame(mutated);
    if (result && result->type() == MessageType::kUploadAck) {
      (void)std::get<UploadAck>(result->body);  // must hold the right shape
    }
  }
}

TEST(Fuzz, JournalEntryDecoderNeverCrashes) {
  Xoshiro256 rng(10);
  for (int i = 0; i < 5000; ++i) {
    const auto bytes = random_bytes(rng, 64);
    const auto result = decode_journal_entry(bytes);
    if (result && std::holds_alternative<JournalPeriodStart>(*result)) {
      // An accepted PeriodStart must have decoded all three fields - the
      // payload is fixed-size, so acceptance implies exactly 25 bytes.
      EXPECT_EQ(bytes.size(), 25u);
    }
  }
}

TEST(Fuzz, JournalOpenSurvivesGarbageFiles) {
  Xoshiro256 rng(11);
  const std::string path = ::testing::TempDir() + "/ptm_fuzz_journal.bin";
  for (int i = 0; i < 200; ++i) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      if (i % 2 == 0) out.write("PTMRJNL1", 8);
      const auto bytes = random_bytes(rng, 400);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    (void)RsuJournal::open(path);  // reject or replay; never crash
  }
  std::remove(path.c_str());
}

TEST(Fuzz, OutboxOpenSurvivesGarbageFiles) {
  Xoshiro256 rng(12);
  const std::string path = ::testing::TempDir() + "/ptm_fuzz_outbox.bin";
  for (int i = 0; i < 200; ++i) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      if (i % 2 == 0) out.write("PTMOBOX1", 8);
      const auto bytes = random_bytes(rng, 400);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    auto outbox = UploadOutbox::open(path, 8);
    if (outbox) {
      // Whatever replayed must be structurally valid records.
      for (const auto& entry : outbox->entries()) {
        EXPECT_TRUE(entry.record.validate().is_ok());
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Fuzz, ArchiveOpenSurvivesGarbageFiles) {
  Xoshiro256 rng(13);
  const std::string path = ::testing::TempDir() + "/ptm_fuzz_archive.bin";
  for (int i = 0; i < 200; ++i) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      if (i % 2 == 0) out.write("PTMRLOG1", 8);
      const auto bytes = random_bytes(rng, 400);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    auto archive = RecordArchive::open(path, {});
    if (archive) {
      // Open auto-heals torn tails by compacting, so anything that opened
      // must be re-openable and agree with itself.
      auto reopened = RecordArchive::open(path, {});
      ASSERT_TRUE(reopened.has_value());
      EXPECT_EQ(reopened->live_records(), archive->live_records());
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".compact").c_str());
}

// ---- Archive restore fuzz: the crash-recovery read path ------------------

namespace {

/// One wire frame of the record log: u32 len | payload | u32 crc32, LE.
void write_frame(std::ofstream& out, const std::vector<std::uint8_t>& payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload);
  for (int b = 0; b < 4; ++b) {
    out.put(static_cast<char>((len >> (8 * b)) & 0xFF));
  }
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  for (int b = 0; b < 4; ++b) {
    out.put(static_cast<char>((crc >> (8 * b)) & 0xFF));
  }
}

std::vector<std::uint8_t> record_payload(std::uint64_t location,
                                         std::uint64_t period) {
  TrafficRecord rec;
  rec.location = location;
  rec.period = period;
  rec.bits = Bitmap(128);
  rec.bits.set(static_cast<std::size_t>((location + period) % 128));
  return rec.serialize();
}

}  // namespace

TEST(Fuzz, ArchiveRestoreSurvivesTornTailMidRecord) {
  // A server crash mid-append leaves the log torn at an arbitrary byte
  // inside the final frame.  Restore must keep every intact record and
  // never crash, whatever the cut point.
  const std::string path = ::testing::TempDir() + "/ptm_fuzz_restore_torn.bin";
  std::vector<std::uint8_t> whole;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write("PTMRLOG1", 8);
    write_frame(out, record_payload(1, 0));
    write_frame(out, record_payload(1, 1));
    write_frame(out, record_payload(2, 0));
  }
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    whole.resize(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(whole.data()),
            static_cast<std::streamsize>(whole.size()));
  }
  const std::size_t third_frame_start =
      8 + 2 * (whole.size() - 8) / 3;  // frames are equal-sized here
  for (std::size_t cut = third_frame_start; cut < whole.size(); ++cut) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(whole.data()),
                static_cast<std::streamsize>(cut));
    }
    auto archive = RecordArchive::open(path, {});
    ASSERT_TRUE(archive.has_value()) << "cut=" << cut;
    // cut == whole.size() - n, n > 0: the third frame is torn; the two
    // intact frames must survive.  (A cut landing exactly on a frame
    // boundary keeps all three, but this loop never reaches it.)
    EXPECT_EQ(archive->live_records(), 2u) << "cut=" << cut;

    QueryService service;
    service.attach_durability(*archive);
    auto restored = service.restore_from_archive();
    ASSERT_TRUE(restored.has_value()) << "cut=" << cut;
    EXPECT_EQ(*restored, 2u);
    EXPECT_TRUE(service.has_record(1, 0));
    EXPECT_TRUE(service.has_record(1, 1));
    // The torn record re-delivers idempotently after recovery.
    auto rec = TrafficRecord::deserialize(record_payload(2, 0));
    ASSERT_TRUE(rec.has_value());
    EXPECT_TRUE(service.ingest(*rec).is_ok());
  }
  std::remove(path.c_str());
  std::remove((path + ".compact").c_str());
}

TEST(Fuzz, ArchiveRestoreSkipsValidFrameWrappingInvalidRecord) {
  // Adversarial/bit-rotted case: a frame whose CRC is *valid* but whose
  // payload does not deserialize into a structurally valid TrafficRecord.
  // The log reader treats it as an undecodable tail: records before it
  // load, the bad frame (and anything after) is dropped, and the archive
  // heals by compaction - restore never sees a corrupt record.
  Xoshiro256 rng(14);
  const std::string path = ::testing::TempDir() + "/ptm_fuzz_restore_bad.bin";
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> bad = record_payload(9, 9);
    const std::size_t flips = 1 + rng.below(6);
    for (std::size_t f = 0; f < flips; ++f) {
      bad[rng.below(bad.size())] ^=
          static_cast<std::uint8_t>(1 + rng.below(255));
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write("PTMRLOG1", 8);
      write_frame(out, record_payload(1, 0));
      write_frame(out, bad);  // valid CRC, possibly invalid body
      write_frame(out, record_payload(2, 0));
    }
    auto archive = RecordArchive::open(path, {});
    ASSERT_TRUE(archive.has_value()) << "iteration " << i;
    QueryService service;
    service.attach_durability(*archive);
    auto restored = service.restore_from_archive();
    ASSERT_TRUE(restored.has_value()) << "iteration " << i;
    EXPECT_EQ(*restored, archive->live_records());
    EXPECT_TRUE(service.has_record(1, 0));
    // Every restored record is structurally valid, whatever the mutation
    // did (if the flip happened to keep the record valid, all three load).
    auto live = archive->live_contents();
    ASSERT_TRUE(live.has_value()) << live.status().to_string();
    for (const TrafficRecord& rec : *live) {
      EXPECT_TRUE(rec.validate().is_ok());
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".compact").c_str());
}

TEST(Fuzz, ReplicationWireEnvelopesRejectGarbageGracefully) {
  // The cluster kinds (replication 12-16, query push-down 19-22) arrive
  // from peer nodes and clients - a trust boundary like any other socket.
  // Random kind-stamped garbage must come back as clean ParseError or a
  // structurally valid message, and any record blob that survives the
  // envelope must still pass TrafficRecord's own validation gate before
  // it could ever reach an archive.
  Xoshiro256 rng(11);
  int accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    auto bytes = random_bytes(rng, 256);
    // Stamp a cluster kind so the fuzz exercises those decoders instead
    // of dying at the kind byte.
    const std::uint8_t kinds[] = {12, 13, 14, 15, 16, 19, 20, 21, 22};
    if (bytes.empty()) bytes.push_back(0);
    bytes[0] = kinds[rng.below(std::size(kinds))];
    const auto decoded = transport::decode_wire_message(bytes);
    if (!decoded.has_value()) {
      EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError);
      continue;
    }
    ++accepted;
    if (const auto* repl = std::get_if<transport::ReplRecord>(&*decoded)) {
      const auto record = TrafficRecord::deserialize(repl->record);
      if (record.has_value()) EXPECT_TRUE(record->validate().is_ok());
    }
    // A reply that survives the codec honors its contract: an estimate
    // exactly when ok, a join exactly when ok with periods present.
    if (const auto* reply = std::get_if<transport::QueryReply>(&*decoded)) {
      const QueryResponse& response = reply->response;
      EXPECT_EQ(response.ok(),
                !std::holds_alternative<std::monostate>(response.result));
    }
    if (const auto* join = std::get_if<transport::JoinReply>(&*decoded)) {
      EXPECT_EQ(join->join.status.is_ok() && !join->join.present.empty(),
                !join->join.join.empty());
    }
  }
  // Fixed-width kinds (acks, snapshot markers) decode from random bytes
  // routinely; the list-carrying kinds nearly never.  Either way the
  // decode is bounded and clean - the assertion above is the test.
  EXPECT_LT(accepted, 5000);
}

TEST(Fuzz, QueryPushDownEnvelopesSurviveBitFlipsTruncationAndGarbage) {
  // Valid query/join traffic, then corrupted the three ways a torn stream
  // corrupts it.  Decoding either fails with ParseError or yields a
  // message that still honors the reply contracts the coordinator relies
  // on (an estimate exactly when ok; a join exactly when ok with periods).
  QueryService service;
  for (std::uint64_t period = 0; period < 6; ++period) {
    TrafficRecord rec;
    rec.location = 4;
    rec.period = period;
    rec.bits = Bitmap(period < 3 ? 128 : 256);
    for (std::uint64_t i = 0; i < 40; ++i) {
      rec.bits.set((i * 11 + period) % rec.bits.size());
    }
    ASSERT_TRUE(service.ingest(rec).is_ok());
  }
  const std::vector<std::uint64_t> periods{0, 1, 2, 3, 4, 5, 6};
  const std::vector<transport::WireMessage> corpus{
      transport::QueryCall{1, CorridorQuery{{4, 5}, periods}},
      transport::QueryCall{2, RecentPersistentQuery{4, 4}},
      transport::QueryReply{3, service.run(PointPersistentQuery{
                                   4, periods, MissingPolicy::kSkipMissing})},
      transport::QueryReply{4, service.run(PointVolumeQuery{4, 5})},
      transport::QueryReply{5, service.run(PointVolumeQuery{4, 9})},
      transport::JoinCall{6, 4, periods, {}},
      transport::JoinReply{7, service.join_location(4, periods)},
  };
  Xoshiro256 rng(0x9D0Du);
  for (int i = 0; i < 6000; ++i) {
    auto bytes = transport::encode_wire_message(corpus[i % corpus.size()]);
    switch (i % 3) {
      case 0:
        for (std::size_t f = 0, n = 1 + rng.below(4); f < n; ++f) {
          bytes[rng.below(bytes.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
        }
        break;
      case 1:
        bytes.resize(rng.below(bytes.size()));
        break;
      default:
        for (std::size_t g = 0, n = 1 + rng.below(16); g < n; ++g) {
          bytes.push_back(static_cast<std::uint8_t>(rng.next()));
        }
        break;
    }
    const auto decoded = transport::decode_wire_message(bytes);
    if (!decoded.has_value()) {
      EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError);
      continue;
    }
    if (const auto* reply = std::get_if<transport::QueryReply>(&*decoded)) {
      const QueryResponse& response = reply->response;
      EXPECT_EQ(response.ok(),
                !std::holds_alternative<std::monostate>(response.result));
    }
    if (const auto* join = std::get_if<transport::JoinReply>(&*decoded)) {
      EXPECT_EQ(join->join.status.is_ok() && !join->join.present.empty(),
                !join->join.join.empty());
    }
  }
}

TEST(Fuzz, RsaVerifyRejectsRandomSignatures) {
  Xoshiro256 rng(8);
  const RsaKeyPair keys = rsa_generate(512, rng);
  const std::vector<std::uint8_t> message = {1, 2, 3};
  const std::size_t sig_len = (keys.pub.modulus_bits() + 7) / 8;
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> fake(sig_len);
    for (auto& b : fake) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_FALSE(rsa_verify(keys.pub, message, fake));
  }
}

}  // namespace
}  // namespace ptm
