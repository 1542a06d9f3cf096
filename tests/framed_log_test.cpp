// Tests for store/framed_log.hpp: the shared magic + length + CRC framing
// under the record log, the RSU journal, and the upload outbox.
#include "store/framed_log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace ptm {
namespace {

constexpr LogMagic kMagic = {'T', 'E', 'S', 'T', 'L', 'O', 'G', '1'};
constexpr LogMagic kOtherMagic = {'O', 'T', 'H', 'E', 'R', 'L', 'O', 'G'};

class FramedLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ptm_framed_log_" +
            std::to_string(counter_++) + ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static std::vector<std::uint8_t> payload(std::initializer_list<int> bytes) {
    std::vector<std::uint8_t> out;
    for (int b : bytes) out.push_back(static_cast<std::uint8_t>(b));
    return out;
  }

  /// Opens (creating) the log at path_ and appends `entries` through the
  /// one held-open descriptor.
  void write_log(std::initializer_list<std::vector<std::uint8_t>> entries) {
    auto log = FramedLogFile::open(path_, kMagic);
    ASSERT_TRUE(log.has_value()) << log.status().to_string();
    for (const auto& entry : entries) {
      ASSERT_TRUE(log->append(entry).has_value());
    }
  }

  std::string path_;
  static int counter_;
};

int FramedLogTest::counter_ = 0;

TEST_F(FramedLogTest, CreateAppendReadRoundTrip) {
  write_log({payload({1, 2, 3}), payload({}), payload({9})});
  const auto contents = read_framed_log(path_, kMagic);
  ASSERT_TRUE(contents.has_value());
  EXPECT_FALSE(contents->truncated_tail);
  ASSERT_EQ(contents->entries.size(), 3u);
  EXPECT_EQ(contents->entries[0], payload({1, 2, 3}));
  EXPECT_TRUE(contents->entries[1].empty());
  EXPECT_EQ(contents->entries[2], payload({9}));
}

TEST_F(FramedLogTest, CreateIsIdempotentButRejectsForeignFiles) {
  ASSERT_TRUE(FramedLogFile::open(path_, kMagic).has_value());
  EXPECT_TRUE(FramedLogFile::open(path_, kMagic).has_value());
  EXPECT_EQ(FramedLogFile::open(path_, kOtherMagic).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(read_framed_log(path_, kOtherMagic).status().code(),
            ErrorCode::kParseError);
}

TEST_F(FramedLogTest, MissingFileIsNotFound) {
  EXPECT_EQ(read_framed_log(path_, kMagic).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(FramedLogTest, TornTailKeepsIntactPrefix) {
  write_log({payload({1, 2, 3, 4}), payload({5, 6, 7, 8})});
  // Chop mid-way through the second entry's payload.
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.close();
  std::vector<char> bytes(size);
  std::ifstream(path_, std::ios::binary)
      .read(bytes.data(), static_cast<std::streamsize>(size));
  std::ofstream(path_, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(size - 6));

  const auto contents = read_framed_log(path_, kMagic);
  ASSERT_TRUE(contents.has_value());
  EXPECT_TRUE(contents->truncated_tail);
  ASSERT_EQ(contents->entries.size(), 1u);
  EXPECT_EQ(contents->entries[0], payload({1, 2, 3, 4}));
}

TEST_F(FramedLogTest, CrcCatchesCorruption) {
  write_log({payload({1, 2, 3, 4})});
  std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(13);  // inside the payload (8 magic + 4 length + offset 1)
  const char flip = 0x7f;
  file.write(&flip, 1);
  file.close();
  const auto contents = read_framed_log(path_, kMagic);
  ASSERT_TRUE(contents.has_value());
  EXPECT_TRUE(contents->truncated_tail);
  EXPECT_TRUE(contents->entries.empty());
}

TEST_F(FramedLogTest, RewriteReplacesContentsAtomically) {
  write_log({payload({1}), payload({2})});
  const std::vector<std::vector<std::uint8_t>> fresh = {payload({42})};
  auto rewritten = framed_log_rewrite(path_, kMagic, fresh);
  ASSERT_TRUE(rewritten.has_value());
  const auto contents = read_framed_log(path_, kMagic);
  ASSERT_TRUE(contents.has_value());
  ASSERT_EQ(contents->entries.size(), 1u);
  EXPECT_EQ(contents->entries[0], payload({42}));
  // The returned file appends to the rewritten log at the same path.
  ASSERT_TRUE(rewritten->append(payload({43})).has_value());
  const auto appended = read_framed_log(path_, kMagic);
  ASSERT_TRUE(appended.has_value());
  ASSERT_EQ(appended->entries.size(), 2u);
  EXPECT_EQ(appended->entries[1], payload({43}));
  // The temp file must not linger after a successful rewrite.
  std::ifstream temp(path_ + ".rewrite", std::ios::binary);
  EXPECT_FALSE(temp.good());
}

}  // namespace
}  // namespace ptm
