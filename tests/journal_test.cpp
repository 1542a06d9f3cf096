// Tests for store/journal.hpp: the crash-safe journal of the RSU's
// in-progress traffic record.
#include "store/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace ptm {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ptm_journal_" +
            std::to_string(counter_++) + ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  static int counter_;
};

int JournalTest::counter_ = 0;

TEST_F(JournalTest, FreshJournalReplaysNothing) {
  auto journal = RsuJournal::open(path_);
  ASSERT_TRUE(journal.has_value());
  EXPECT_FALSE(journal->replayed().has_value());
}

TEST_F(JournalTest, ReplaysPeriodStartAndEncodes) {
  {
    auto journal = RsuJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->begin_period(7, 3, 1024).is_ok());
    ASSERT_TRUE(journal->record_encode(17).is_ok());
    ASSERT_TRUE(journal->record_encode(900).is_ok());
    ASSERT_TRUE(journal->record_encode(17).is_ok());  // repeats are kept
  }
  auto reopened = RsuJournal::open(path_);
  ASSERT_TRUE(reopened.has_value());
  const auto& replayed = reopened->replayed();
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->location, 7u);
  EXPECT_EQ(replayed->period, 3u);
  EXPECT_EQ(replayed->bitmap_size, 1024u);
  const std::vector<std::uint64_t> expected = {17, 900, 17};
  EXPECT_EQ(replayed->encode_indices, expected);
}

TEST_F(JournalTest, BeginPeriodResetsPreviousEntries) {
  {
    auto journal = RsuJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->begin_period(7, 0, 512).is_ok());
    ASSERT_TRUE(journal->record_encode(1).is_ok());
    ASSERT_TRUE(journal->begin_period(7, 1, 256).is_ok());
    ASSERT_TRUE(journal->record_encode(2).is_ok());
  }
  auto reopened = RsuJournal::open(path_);
  ASSERT_TRUE(reopened.has_value());
  const auto& replayed = reopened->replayed();
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->period, 1u);
  EXPECT_EQ(replayed->bitmap_size, 256u);
  EXPECT_EQ(replayed->encode_indices, std::vector<std::uint64_t>{2});
}

TEST_F(JournalTest, TornTailCostsAtMostTheFinalEncode) {
  {
    auto journal = RsuJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->begin_period(7, 0, 512).is_ok());
    ASSERT_TRUE(journal->record_encode(10).is_ok());
    ASSERT_TRUE(journal->record_encode(20).is_ok());
  }
  // Crash mid-append: chop into the final entry.
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.close();
  std::vector<char> bytes(size);
  std::ifstream(path_, std::ios::binary)
      .read(bytes.data(), static_cast<std::streamsize>(size));
  std::ofstream(path_, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(size - 3));

  auto reopened = RsuJournal::open(path_);
  ASSERT_TRUE(reopened.has_value());
  const auto& replayed = reopened->replayed();
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->encode_indices, std::vector<std::uint64_t>{10});
}

TEST_F(JournalTest, EncodesAfterATornTailSurviveTheNextReopen) {
  {
    auto journal = RsuJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->begin_period(7, 3, 1024).is_ok());
    ASSERT_TRUE(journal->record_encode(1).is_ok());
    ASSERT_TRUE(journal->record_encode(2).is_ok());
  }
  // Crash mid-append: six bytes of a length prefix and a partial payload.
  std::ofstream(path_, std::ios::binary | std::ios::app)
      .write("\x09\x00\x00\x00\x02\x03", 6);
  {
    auto journal = RsuJournal::open(path_);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->replayed().has_value());
    EXPECT_EQ(journal->replayed()->encode_indices,
              (std::vector<std::uint64_t>{1, 2}));
    // These land after the torn bytes unless open healed them.
    ASSERT_TRUE(journal->record_encode(3).is_ok());
    ASSERT_TRUE(journal->record_encode(4).is_ok());
  }
  auto reopened = RsuJournal::open(path_);
  ASSERT_TRUE(reopened.has_value());
  const auto& replayed = reopened->replayed();
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->location, 7u);
  EXPECT_EQ(replayed->period, 3u);
  EXPECT_EQ(replayed->bitmap_size, 1024u);
  EXPECT_EQ(replayed->encode_indices,
            (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST_F(JournalTest, RejectsForeignFiles) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "this is not a journal";
  }
  EXPECT_EQ(RsuJournal::open(path_).status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST(JournalCodec, EntryRoundTrip) {
  const JournalEntry start = JournalPeriodStart{5, 9, 2048};
  auto decoded = decode_journal_entry(encode_journal_entry(start));
  ASSERT_TRUE(decoded.has_value());
  const auto* ps = std::get_if<JournalPeriodStart>(&*decoded);
  ASSERT_NE(ps, nullptr);
  EXPECT_EQ(ps->location, 5u);
  EXPECT_EQ(ps->period, 9u);
  EXPECT_EQ(ps->bitmap_size, 2048u);

  const JournalEntry encode = JournalEncode{1234};
  auto decoded_encode = decode_journal_entry(encode_journal_entry(encode));
  ASSERT_TRUE(decoded_encode.has_value());
  const auto* enc = std::get_if<JournalEncode>(&*decoded_encode);
  ASSERT_NE(enc, nullptr);
  EXPECT_EQ(enc->index, 1234u);
}

TEST(JournalCodec, RejectsMalformedPayloads) {
  EXPECT_FALSE(decode_journal_entry({}).has_value());
  const std::vector<std::uint8_t> unknown_kind = {0x7f, 0, 0, 0};
  EXPECT_FALSE(decode_journal_entry(unknown_kind).has_value());
  // Truncated PeriodStart (kind byte + too few payload bytes).
  const std::vector<std::uint8_t> truncated = {0x01, 1, 2, 3};
  EXPECT_FALSE(decode_journal_entry(truncated).has_value());
  // Trailing garbage after a valid Encode entry.
  auto bytes = encode_journal_entry(JournalEncode{1});
  bytes.push_back(0xee);
  EXPECT_FALSE(decode_journal_entry(bytes).has_value());
}

}  // namespace
}  // namespace ptm
