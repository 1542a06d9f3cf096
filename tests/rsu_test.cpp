// Tests for nodes/rsu.hpp: beaconing, auth service, bit recording, the
// period lifecycle, and crash recovery through the journal/outbox pair.
#include "nodes/rsu.hpp"

#include <gtest/gtest.h>

#include <cstdio>

namespace ptm {
namespace {

class RsuTest : public ::testing::Test {
 protected:
  RsuTest() : rng_(9), ca_("ca", 512, rng_) {}

  void SetUp() override {
    const std::string stem = ::testing::TempDir() + "/ptm_rsu_" +
                             std::to_string(counter_++);
    journal_path_ = stem + ".journal";
    outbox_path_ = stem + ".outbox";
    std::remove(journal_path_.c_str());
    std::remove(outbox_path_.c_str());
  }
  void TearDown() override {
    std::remove(journal_path_.c_str());
    std::remove(outbox_path_.c_str());
  }

  Rsu make_rsu(std::uint64_t location = 7, std::size_t m = 1024) {
    RsaKeyPair keys = rsa_generate(512, rng_);
    Certificate cert = *ca_.issue("rsu:" + std::to_string(location), location,
                                 keys.pub, 0, 1000);
    return Rsu(location, std::move(keys), std::move(cert), m);
  }

  static void encode(Rsu& rsu, std::uint64_t index) {
    (void)rsu.handle_frame(
        {MacAddress{1}, broadcast_mac(), EncodeIndex{index}});
  }

  Xoshiro256 rng_;
  CertificateAuthority ca_;
  std::string journal_path_;
  std::string outbox_path_;
  static int counter_;
};

int RsuTest::counter_ = 0;

TEST_F(RsuTest, BeaconCarriesProtocolParameters) {
  Rsu rsu = make_rsu(7, 2048);
  const Frame beacon = rsu.make_beacon();
  EXPECT_EQ(beacon.dst, broadcast_mac());
  const auto& b = std::get<Beacon>(beacon.body);
  EXPECT_EQ(b.location, 7u);
  EXPECT_EQ(b.period, 0u);
  EXPECT_EQ(b.bitmap_size, 2048u);
  EXPECT_TRUE(verify_certificate(b.certificate, ca_.public_key(), 0).is_ok());
}

TEST_F(RsuTest, AuthRequestGetsValidSignature) {
  Rsu rsu = make_rsu();
  Frame req{MacAddress{0x999}, broadcast_mac(), AuthRequest{12345}};
  const auto resp = rsu.handle_frame(req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->dst.value, 0x999u);  // addressed back to the one-time MAC
  const auto& body = std::get<AuthResponse>(resp->body);
  EXPECT_EQ(body.nonce, 12345u);
  const Frame beacon = rsu.make_beacon();
  const auto& cert = std::get<Beacon>(beacon.body).certificate;
  EXPECT_TRUE(rsa_verify(cert.subject_key, auth_transcript(12345, 7, 0),
                         body.signature));
}

TEST_F(RsuTest, EncodeIndexSetsBitAndAcks) {
  Rsu rsu = make_rsu(7, 1024);
  Frame enc{MacAddress{0x5}, broadcast_mac(), EncodeIndex{100}};
  const auto ack = rsu.handle_frame(enc);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type(), MessageType::kEncodeAck);
  EXPECT_TRUE(rsu.current_record().bits.test(100));
  EXPECT_EQ(rsu.encodes_this_period(), 1u);
}

TEST_F(RsuTest, OutOfRangeIndexRejected) {
  Rsu rsu = make_rsu(7, 1024);
  Frame enc{MacAddress{0x5}, broadcast_mac(), EncodeIndex{1024}};
  EXPECT_EQ(rsu.handle_frame(enc).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(rsu.current_record().bits.count_ones(), 0u);
}

TEST_F(RsuTest, UnexpectedFrameTypesRejected) {
  Rsu rsu = make_rsu();
  Frame beacon_frame = rsu.make_beacon();
  EXPECT_EQ(rsu.handle_frame(beacon_frame).status().code(),
            ErrorCode::kFailedPrecondition);
  Frame ack{MacAddress{1}, MacAddress{2}, EncodeAck{}};
  EXPECT_FALSE(rsu.handle_frame(ack).has_value());
}

TEST_F(RsuTest, EndPeriodUploadsAndResets) {
  Rsu rsu = make_rsu(7, 1024);
  (void)rsu.handle_frame({MacAddress{1}, broadcast_mac(), EncodeIndex{3}});
  (void)rsu.handle_frame({MacAddress{2}, broadcast_mac(), EncodeIndex{9}});

  const Frame upload = rsu.end_period(2048);
  const auto& up = std::get<RecordUpload>(upload.body);
  EXPECT_EQ(up.record.location, 7u);
  EXPECT_EQ(up.record.period, 0u);
  EXPECT_EQ(up.record.bits.size(), 1024u);
  EXPECT_TRUE(up.record.bits.test(3));
  EXPECT_TRUE(up.record.bits.test(9));
  EXPECT_EQ(up.record.bits.count_ones(), 2u);

  // Next period: fresh zeroed bitmap with the planned size.
  EXPECT_EQ(rsu.current_period(), 1u);
  EXPECT_EQ(rsu.bitmap_size(), 2048u);
  EXPECT_EQ(rsu.current_record().bits.count_ones(), 0u);
  EXPECT_EQ(rsu.encodes_this_period(), 0u);
  EXPECT_EQ(std::get<Beacon>(rsu.make_beacon().body).period, 1u);
}

TEST_F(RsuTest, UploadSurvivesSerialization) {
  Rsu rsu = make_rsu(3, 512);
  (void)rsu.handle_frame({MacAddress{1}, broadcast_mac(), EncodeIndex{7}});
  const Frame upload = rsu.end_period(512);
  const auto decoded = decode_frame(encode_frame(upload));
  ASSERT_TRUE(decoded.has_value());
  const auto& rec = std::get<RecordUpload>(decoded->body).record;
  EXPECT_EQ(rec.location, 3u);
  EXPECT_TRUE(rec.bits.test(7));
}

TEST_F(RsuTest, DuplicateEncodesAreIdempotentOnBits) {
  Rsu rsu = make_rsu(7, 256);
  for (int i = 0; i < 5; ++i) {
    (void)rsu.handle_frame({MacAddress{1}, broadcast_mac(), EncodeIndex{42}});
  }
  EXPECT_EQ(rsu.current_record().bits.count_ones(), 1u);
  EXPECT_EQ(rsu.encodes_this_period(), 5u);
}

TEST_F(RsuTest, MultiplePeriodsAccumulateIndependentRecords) {
  Rsu rsu = make_rsu(7, 256);
  for (std::uint64_t period = 0; period < 3; ++period) {
    (void)rsu.handle_frame(
        {MacAddress{1}, broadcast_mac(), EncodeIndex{period}});
    const Frame upload = rsu.end_period(256);
    const auto& rec = std::get<RecordUpload>(upload.body).record;
    EXPECT_EQ(rec.period, period);
    EXPECT_EQ(rec.bits.count_ones(), 1u);
    EXPECT_TRUE(rec.bits.test(static_cast<std::size_t>(period)));
  }
}

TEST_F(RsuTest, BareRsuCannotCrashRestart) {
  Rsu rsu = make_rsu();
  EXPECT_FALSE(rsu.durable());
  EXPECT_EQ(rsu.crash_and_restart().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(RsuTest, CrashMidPeriodReplaysEncodesFromJournal) {
  Rsu rsu = make_rsu(7, 1024);
  ASSERT_TRUE(rsu.attach_durability(journal_path_, outbox_path_).is_ok());
  EXPECT_TRUE(rsu.durable());
  encode(rsu, 100);
  encode(rsu, 200);
  encode(rsu, 100);  // duplicate encode of the same bit

  ASSERT_TRUE(rsu.crash_and_restart().is_ok());
  EXPECT_EQ(rsu.current_period(), 0u);
  EXPECT_EQ(rsu.bitmap_size(), 1024u);
  EXPECT_TRUE(rsu.current_record().bits.test(100));
  EXPECT_TRUE(rsu.current_record().bits.test(200));
  EXPECT_EQ(rsu.current_record().bits.count_ones(), 2u);
  EXPECT_EQ(rsu.encodes_this_period(), 3u);
}

TEST_F(RsuTest, CrashAfterStageResumesPastTheClosedPeriod) {
  Rsu rsu = make_rsu(7, 512);
  ASSERT_TRUE(rsu.attach_durability(journal_path_, outbox_path_).is_ok());
  encode(rsu, 5);
  // Period closed into the outbox, but the crash hits before
  // start_next_period journals the new period.
  ASSERT_TRUE(rsu.stage_upload().is_ok());
  ASSERT_TRUE(rsu.crash_and_restart().is_ok());
  // The journaled period is already in the outbox -> it was closed; the
  // RSU must resume one past it, not double-measure it.
  EXPECT_EQ(rsu.current_period(), 1u);
  EXPECT_EQ(rsu.current_record().bits.count_ones(), 0u);
  ASSERT_TRUE(rsu.outbox().contains(7, 0));
  const UploadOutbox::Entry* entry = rsu.outbox().find(7, 0);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->record.bits.test(5));
}

TEST_F(RsuTest, OutboxSurvivesCrashAndAckClearsIt) {
  Rsu rsu = make_rsu(7, 512);
  ASSERT_TRUE(rsu.attach_durability(journal_path_, outbox_path_).is_ok());
  encode(rsu, 9);
  ASSERT_TRUE(rsu.stage_upload().is_ok());
  rsu.start_next_period(512);
  encode(rsu, 11);
  ASSERT_TRUE(rsu.crash_and_restart().is_ok());

  // Period 0's record is still pending; period 1's encode was replayed.
  EXPECT_TRUE(rsu.outbox().contains(7, 0));
  EXPECT_EQ(rsu.current_period(), 1u);
  EXPECT_TRUE(rsu.current_record().bits.test(11));

  EXPECT_TRUE(rsu.handle_upload_ack(UploadAck{7, 0}).is_ok());
  EXPECT_FALSE(rsu.outbox().contains(7, 0));
  // An ack for someone else's location is refused.
  EXPECT_FALSE(rsu.handle_upload_ack(UploadAck{8, 0}).is_ok());
}

TEST_F(RsuTest, OutboxOpsAfterAFailedRestartReachTheLiveFile) {
  Rsu rsu = make_rsu(7, 512);
  ASSERT_TRUE(rsu.attach_durability(journal_path_, outbox_path_).is_ok());
  encode(rsu, 5);
  ASSERT_TRUE(rsu.stage_upload().is_ok());
  // The restart compacts the outbox into a fresh file, then fails on a
  // journal that is no longer a journal.
  {
    std::FILE* f = std::fopen(journal_path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a journal", f);
    std::fclose(f);
  }
  EXPECT_EQ(rsu.crash_and_restart().code(), ErrorCode::kFailedPrecondition);

  // Later outbox ops must land in the compacted file, not the old inode.
  ASSERT_TRUE(rsu.handle_upload_ack(UploadAck{7, 0}).is_ok());
  rsu.start_next_period(512);
  encode(rsu, 9);
  ASSERT_TRUE(rsu.stage_upload().is_ok());

  std::remove(journal_path_.c_str());
  Rsu next = make_rsu(7, 512);
  ASSERT_TRUE(next.attach_durability(journal_path_, outbox_path_).is_ok());
  EXPECT_FALSE(next.outbox().contains(7, 0));
  ASSERT_TRUE(next.outbox().contains(7, 1));
  EXPECT_TRUE(next.outbox().find(7, 1)->record.bits.test(9));
}

TEST_F(RsuTest, AttachAdoptsExistingJournalFromPriorIncarnation) {
  {
    Rsu first = make_rsu(7, 256);
    ASSERT_TRUE(first.attach_durability(journal_path_, outbox_path_).is_ok());
    encode(first, 42);
  }  // simulated power cut: the object dies, the files stay

  Rsu second = make_rsu(7, 1024);  // fresh boot config differs - files win
  ASSERT_TRUE(second.attach_durability(journal_path_, outbox_path_).is_ok());
  EXPECT_EQ(second.bitmap_size(), 256u);
  EXPECT_TRUE(second.current_record().bits.test(42));
}

TEST_F(RsuTest, AttachRejectsJournalFromAnotherLocation) {
  {
    Rsu other = make_rsu(3, 256);
    ASSERT_TRUE(other.attach_durability(journal_path_, outbox_path_).is_ok());
  }
  Rsu rsu = make_rsu(7, 256);
  EXPECT_EQ(rsu.attach_durability(journal_path_, outbox_path_).code(),
            ErrorCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ptm
