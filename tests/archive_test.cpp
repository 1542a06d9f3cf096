// Tests for store/archive.hpp: the indexed, retained, compactable archive.
#include "store/archive.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.hpp"
#include "query/query_service.hpp"
#include "store/record_log.hpp"

namespace ptm {
namespace {

class ArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ptm_archive_" +
            std::to_string(counter_++) + ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static TrafficRecord make_record(std::uint64_t location,
                                   std::uint64_t period,
                                   std::size_t m = 256) {
    TrafficRecord rec;
    rec.location = location;
    rec.period = period;
    rec.bits = Bitmap(m);
    rec.bits.set(static_cast<std::size_t>((location * 31 + period) % m));
    return rec;
  }

  /// The archive's live contents; a read-back error fails the test.
  static std::vector<TrafficRecord> contents(const RecordArchive& archive) {
    auto live = archive.live_contents();
    EXPECT_TRUE(live.has_value()) << live.status().to_string();
    return live ? std::move(*live) : std::vector<TrafficRecord>{};
  }

  /// One live_batch step; a read-back error fails the test.
  static std::vector<TrafficRecord> batch(
      const RecordArchive& archive, RecordArchive::SnapshotCursor& cursor,
      std::size_t max_records) {
    auto records = archive.live_batch(cursor, max_records);
    EXPECT_TRUE(records.has_value()) << records.status().to_string();
    return records ? std::move(*records) : std::vector<TrafficRecord>{};
  }

  std::size_t file_size() const {
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    return static_cast<std::size_t>(in.tellg());
  }

  /// Overwrites one byte of the log in place, behind any open archive.
  void flip_byte(std::size_t offset) const {
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(offset));
    const char byte = static_cast<char>(file.get() ^ 0x5a);
    file.seekp(static_cast<std::streamoff>(offset));
    file.put(byte);
  }

  /// Runs in a forked child (a file-size limit binds the whole process):
  /// append A under a limit that cuts its frame short, lift the limit,
  /// append B, reopen.  Returns 0 when B survived the reopen, else the
  /// number of the step that went wrong.
  int torn_append_then_append() const {
    std::signal(SIGXFSZ, SIG_IGN);  // a short write, not a dead process
    auto archive = RecordArchive::open(path_, {});
    if (!archive) return 1;
    if (!archive->append(make_record(1, 0)).is_ok()) return 2;
    rlimit original{};
    if (::getrlimit(RLIMIT_FSIZE, &original) != 0) return 3;
    rlimit lowered = original;
    lowered.rlim_cur = file_size() + 10;  // 10 bytes of A's frame fit
    if (::setrlimit(RLIMIT_FSIZE, &lowered) != 0) return 4;
    if (archive->append(make_record(1, 1)).is_ok()) return 5;  // A fails
    if (::setrlimit(RLIMIT_FSIZE, &original) != 0) return 6;
    if (!archive->append(make_record(2, 0)).is_ok()) return 7;  // B
    auto reopened = RecordArchive::open(path_, {});
    if (!reopened) return 8;
    if (reopened->periods_at(2) != 1) return 9;  // B lost behind torn A
    if (reopened->periods_at(1) != 1) return 10;
    return 0;
  }

  std::string path_;
  static int counter_;
};

int ArchiveTest::counter_ = 0;

TEST_F(ArchiveTest, AppendQueryRoundTrip) {
  auto archive = RecordArchive::open(path_, {});
  ASSERT_TRUE(archive.has_value());
  ASSERT_TRUE(archive->append(make_record(1, 0)).is_ok());
  ASSERT_TRUE(archive->append(make_record(1, 1)).is_ok());
  ASSERT_TRUE(archive->append(make_record(2, 0)).is_ok());

  EXPECT_EQ(archive->live_records(), 3u);
  EXPECT_EQ(archive->periods_at(1), 2u);
  EXPECT_EQ(archive->periods_at(2), 1u);
  EXPECT_EQ(archive->periods_at(3), 0u);
  EXPECT_EQ(archive->locations(), (std::vector<std::uint64_t>{1, 2}));

  const auto at_1 = archive->records_at(1);
  ASSERT_TRUE(at_1.has_value());
  EXPECT_EQ(at_1->size(), 2u);
  EXPECT_FALSE(archive->records_at(99).has_value());
}

TEST_F(ArchiveTest, IdenticalReappendIsNoOpConflictIsRejected) {
  auto archive = RecordArchive::open(path_, {});
  ASSERT_TRUE(archive.has_value());
  ASSERT_TRUE(archive->append(make_record(1, 0)).is_ok());
  const std::size_t size_after_first = file_size();

  // Byte-identical replay (an at-least-once pipeline re-delivering after a
  // lost ack): Ok, and no second frame hits the log.
  EXPECT_TRUE(archive->append(make_record(1, 0)).is_ok());
  EXPECT_EQ(archive->live_records(), 1u);
  EXPECT_EQ(file_size(), size_after_first);

  // Conflicting bytes for the occupied slot stay rejected.
  TrafficRecord conflicting = make_record(1, 0);
  conflicting.bits.set(200);
  EXPECT_EQ(archive->append(conflicting).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(archive->live_records(), 1u);
}

TEST_F(ArchiveTest, LiveContentsIsOrderedAndComplete) {
  ArchiveOptions options;
  options.max_periods_per_location = 2;
  auto archive = RecordArchive::open(path_, options);
  ASSERT_TRUE(archive.has_value());
  // Append out of order across locations; retention drops location 5's
  // oldest period.
  ASSERT_TRUE(archive->append(make_record(5, 2)).is_ok());
  ASSERT_TRUE(archive->append(make_record(1, 7)).is_ok());
  ASSERT_TRUE(archive->append(make_record(5, 0)).is_ok());
  ASSERT_TRUE(archive->append(make_record(5, 1)).is_ok());

  const std::vector<TrafficRecord> live = contents(*archive);
  ASSERT_EQ(live.size(), 3u);
  EXPECT_EQ(live[0].location, 1u);
  EXPECT_EQ(live[0].period, 7u);
  EXPECT_EQ(live[1].location, 5u);
  EXPECT_EQ(live[1].period, 1u);
  EXPECT_EQ(live[2].location, 5u);
  EXPECT_EQ(live[2].period, 2u);
  EXPECT_EQ(live[0].bits, make_record(1, 7).bits);
}

TEST_F(ArchiveTest, LiveBatchWalksWholeArchiveInBoundedSteps) {
  auto archive = RecordArchive::open(path_, {});
  ASSERT_TRUE(archive.has_value());
  for (std::uint64_t loc = 1; loc <= 5; ++loc) {
    for (std::uint64_t p = 0; p < 7; ++p) {
      ASSERT_TRUE(archive->append(make_record(loc, p)).is_ok());
    }
  }

  // Batches of 4 never return more than 4 and, concatenated, equal the
  // whole-archive snapshot exactly.
  RecordArchive::SnapshotCursor cursor;
  std::vector<TrafficRecord> walked;
  for (;;) {
    const auto step = batch(*archive, cursor, 4);
    if (step.empty()) break;
    EXPECT_LE(step.size(), 4u);
    walked.insert(walked.end(), step.begin(), step.end());
  }
  const auto all = contents(*archive);
  ASSERT_EQ(walked.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(walked[i].location, all[i].location);
    EXPECT_EQ(walked[i].period, all[i].period);
    EXPECT_EQ(walked[i].bits, all[i].bits);
  }
  // A finished cursor stays finished.
  EXPECT_TRUE(batch(*archive, cursor, 4).empty());
}

TEST_F(ArchiveTest, LiveBatchCursorSurvivesAppendsBetweenBatches) {
  auto archive = RecordArchive::open(path_, {});
  ASSERT_TRUE(archive.has_value());
  for (std::uint64_t p = 0; p < 4; ++p) {
    ASSERT_TRUE(archive->append(make_record(2, p)).is_ok());
  }

  RecordArchive::SnapshotCursor cursor;
  auto first = batch(*archive, cursor, 2);
  ASSERT_EQ(first.size(), 2u);

  // Appends *ahead of* the cursor are picked up; appends *behind* it are
  // missed by design (the replication live stream covers them).
  ASSERT_TRUE(archive->append(make_record(2, 9)).is_ok());
  ASSERT_TRUE(archive->append(make_record(1, 0)).is_ok());  // behind

  std::vector<TrafficRecord> rest;
  for (;;) {
    const auto step = batch(*archive, cursor, 2);
    if (step.empty()) break;
    rest.insert(rest.end(), step.begin(), step.end());
  }
  ASSERT_EQ(rest.size(), 3u);  // periods 2, 3, 9 of location 2
  EXPECT_EQ(rest[0].period, 2u);
  EXPECT_EQ(rest[1].period, 3u);
  EXPECT_EQ(rest[2].period, 9u);
  EXPECT_EQ(rest[2].location, 2u);
}

TEST_F(ArchiveTest, PersistsAcrossReopen) {
  {
    auto archive = RecordArchive::open(path_, {});
    ASSERT_TRUE(archive.has_value());
    ASSERT_TRUE(archive->append(make_record(7, 3)).is_ok());
  }
  auto reopened = RecordArchive::open(path_, {});
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->live_records(), 1u);
  EXPECT_EQ(reopened->periods_at(7), 1u);
}

TEST_F(ArchiveTest, RetentionDropsOldestPeriods) {
  ArchiveOptions options;
  options.max_periods_per_location = 3;
  auto archive = RecordArchive::open(path_, options);
  ASSERT_TRUE(archive.has_value());
  for (std::uint64_t period = 0; period < 6; ++period) {
    ASSERT_TRUE(archive->append(make_record(1, period)).is_ok());
  }
  EXPECT_EQ(archive->periods_at(1), 3u);
  const auto latest = archive->latest(1, 3);
  ASSERT_TRUE(latest.has_value());
  // The kept periods are the newest: 3, 4, 5 - verify via the marker bit.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE((*latest)[i].test((31 + 3 + i) % 256));
  }
}

TEST_F(ArchiveTest, RetentionAppliedOnReload) {
  {
    auto unlimited = RecordArchive::open(path_, {});
    ASSERT_TRUE(unlimited.has_value());
    for (std::uint64_t period = 0; period < 10; ++period) {
      ASSERT_TRUE(unlimited->append(make_record(1, period)).is_ok());
    }
  }
  ArchiveOptions options;
  options.max_periods_per_location = 4;
  auto limited = RecordArchive::open(path_, options);
  ASSERT_TRUE(limited.has_value());
  EXPECT_EQ(limited->periods_at(1), 4u);
}

TEST_F(ArchiveTest, LatestWindow) {
  auto archive = RecordArchive::open(path_, {});
  ASSERT_TRUE(archive.has_value());
  for (std::uint64_t period = 0; period < 5; ++period) {
    ASSERT_TRUE(archive->append(make_record(1, period)).is_ok());
  }
  EXPECT_TRUE(archive->latest(1, 5).has_value());
  EXPECT_EQ(archive->latest(1, 2)->size(), 2u);
  EXPECT_FALSE(archive->latest(1, 6).has_value());
  EXPECT_FALSE(archive->latest(42, 1).has_value());
}

TEST_F(ArchiveTest, CompactReclaimsSpaceAndPreservesLiveData) {
  ArchiveOptions options;
  options.max_periods_per_location = 2;
  auto archive = RecordArchive::open(path_, options);
  ASSERT_TRUE(archive.has_value());
  for (std::uint64_t period = 0; period < 20; ++period) {
    ASSERT_TRUE(archive->append(make_record(1, period, 4096)).is_ok());
  }
  const std::size_t before = file_size();
  const auto dropped = archive->compact();
  ASSERT_TRUE(dropped.has_value());
  EXPECT_EQ(*dropped, 18u);
  EXPECT_LT(file_size(), before / 4);
  EXPECT_EQ(archive->periods_at(1), 2u);

  // The compacted file reloads cleanly with only the live records.
  auto reopened = RecordArchive::open(path_, options);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->live_records(), 2u);
  // Second compact is a no-op.
  EXPECT_EQ(*archive->compact(), 0u);
}

TEST_F(ArchiveTest, RefusesNonLogFile) {
  {
    std::ofstream out(path_);
    out << "not a record log";
  }
  EXPECT_FALSE(RecordArchive::open(path_, {}).has_value());
}

TEST_F(ArchiveTest, CrashMidCompactLeavesPreCompactLogIntact) {
  const std::string temp_path = path_ + ".compact";
  {
    auto archive = RecordArchive::open(path_, {});
    ASSERT_TRUE(archive.has_value());
    ASSERT_TRUE(archive->append(make_record(1, 0)).is_ok());
    ASSERT_TRUE(archive->append(make_record(1, 1)).is_ok());
    ASSERT_TRUE(archive->append(make_record(2, 0)).is_ok());
  }
  // Simulate the kill window between writing the temp file and the rename
  // commit: the fully-written temp exists, the original log is untouched.
  {
    auto doomed = RecordArchive::open(path_, {});
    ASSERT_TRUE(doomed.has_value());
    auto temp_writer = RecordLogWriter::open(temp_path);
    ASSERT_TRUE(temp_writer.has_value());
    ASSERT_TRUE(temp_writer->append(make_record(1, 0)).is_ok());
    // ... crash: no rename ever happens.
  }
  auto reopened = RecordArchive::open(path_, {});
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->live_records(), 3u);  // pre-compact state, complete
  // The stray temp does not poison a later compaction either.
  auto compacted = reopened->compact();
  ASSERT_TRUE(compacted.has_value());
  auto after = RecordArchive::open(path_, {});
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->live_records(), 3u);
  std::remove(temp_path.c_str());

  // Variant: the crash happened mid-write, leaving a *torn* temp file.
  {
    std::ofstream out(temp_path, std::ios::binary);
    out << "PTMRLOG1torn-partial-garbage";
  }
  auto still_fine = RecordArchive::open(path_, {});
  ASSERT_TRUE(still_fine.has_value());
  EXPECT_EQ(still_fine->live_records(), 3u);
  ASSERT_TRUE(still_fine->compact().has_value());
  auto final_state = RecordArchive::open(path_, {});
  ASSERT_TRUE(final_state.has_value());
  EXPECT_EQ(final_state->live_records(), 3u);
  std::remove(temp_path.c_str());
}

TEST_F(ArchiveTest, ToleratesTornTailOnOpen) {
  {
    auto archive = RecordArchive::open(path_, {});
    ASSERT_TRUE(archive.has_value());
    ASSERT_TRUE(archive->append(make_record(1, 0)).is_ok());
    ASSERT_TRUE(archive->append(make_record(1, 1)).is_ok());
  }
  // Tear the file.
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.close();
  std::vector<char> bytes(size);
  std::ifstream(path_, std::ios::binary)
      .read(bytes.data(), static_cast<std::streamsize>(size));
  std::ofstream(path_, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(size - 3));

  // open() auto-heals the tear by compacting, so a subsequent append is
  // durable and re-readable.
  auto archive = RecordArchive::open(path_, {});
  ASSERT_TRUE(archive.has_value());
  EXPECT_EQ(archive->live_records(), 1u);
  EXPECT_TRUE(archive->append(make_record(1, 5)).is_ok());
  auto healed = RecordArchive::open(path_, {});
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->live_records(), 2u);
}

TEST_F(ArchiveTest, FailedAppendIsRolledBackSoLaterAppendsSurvive) {
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(torn_append_then_append());
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "step " << WEXITSTATUS(status) << " of torn_append_then_append";
}

TEST_F(ArchiveTest, ReopenedArchiveReadsBackByteIdenticalRecords) {
  std::vector<TrafficRecord> written;
  {
    auto archive = RecordArchive::open(path_, {});
    ASSERT_TRUE(archive.has_value());
    for (std::uint64_t loc = 1; loc <= 3; ++loc) {
      for (std::uint64_t period = 0; period < 4; ++period) {
        written.push_back(make_record(loc, period, 64u << loc));
        ASSERT_TRUE(archive->append(written.back()).is_ok());
      }
    }
  }
  auto reopened = RecordArchive::open(path_, {});
  ASSERT_TRUE(reopened.has_value());
  const std::vector<TrafficRecord> live = contents(*reopened);
  ASSERT_EQ(live.size(), written.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i].serialize(), written[i].serialize()) << "record " << i;
  }
  const auto at_2 = reopened->records_at(2);
  ASSERT_TRUE(at_2.has_value()) << at_2.status().to_string();
  ASSERT_EQ(at_2->size(), 4u);
  for (std::size_t period = 0; period < 4; ++period) {
    EXPECT_EQ((*at_2)[period].serialize(),
              written[4 + period].bits.serialize());
  }
}

TEST_F(ArchiveTest, ReappendAfterReopenComparesStoredBytes) {
  {
    auto archive = RecordArchive::open(path_, {});
    ASSERT_TRUE(archive.has_value());
    ASSERT_TRUE(archive->append(make_record(4, 2)).is_ok());
    ASSERT_TRUE(archive->append(make_record(4, 3)).is_ok());
  }
  const std::size_t size_before = file_size();
  auto reopened = RecordArchive::open(path_, {});
  ASSERT_TRUE(reopened.has_value());
  EXPECT_TRUE(reopened->append(make_record(4, 2)).is_ok());
  EXPECT_EQ(file_size(), size_before);  // no second frame
  EXPECT_EQ(reopened->live_records(), 2u);

  TrafficRecord conflicting = make_record(4, 3);
  conflicting.bits.set(200);
  EXPECT_EQ(reopened->append(conflicting).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(file_size(), size_before);
}

TEST_F(ArchiveTest, CorruptedLiveRecordIsAnErrorNotWrongBits) {
  auto archive = RecordArchive::open(path_, {});
  ASSERT_TRUE(archive.has_value());
  ASSERT_TRUE(archive->append(make_record(1, 0)).is_ok());
  const std::size_t second_frame = file_size();
  ASSERT_TRUE(archive->append(make_record(2, 0)).is_ok());
  ASSERT_TRUE(archive->append(make_record(3, 0)).is_ok());

  // Rot one payload byte of location 2's record (past its u32 length
  // prefix and 16 bytes of location and period) after the index was built.
  flip_byte(second_frame + 4 + 20);

  EXPECT_TRUE(archive->records_at(1).has_value());
  EXPECT_EQ(archive->records_at(2).status().code(), ErrorCode::kParseError);
  EXPECT_EQ(archive->latest(2, 1).status().code(), ErrorCode::kParseError);
  EXPECT_FALSE(archive->live_contents().has_value());

  // Restore fails outright instead of rebuilding a partial store.
  QueryService service;
  service.attach_durability(*archive);
  EXPECT_EQ(service.restore_from_archive().status().code(),
            ErrorCode::kParseError);
  EXPECT_EQ(service.record_count(), 0u);
}

TEST_F(ArchiveTest, AppendsAfterCompactLandInTheCompactedFile) {
  ArchiveOptions options;
  options.max_periods_per_location = 2;
  auto archive = RecordArchive::open(path_, options);
  ASSERT_TRUE(archive.has_value());
  for (std::uint64_t period = 0; period < 6; ++period) {
    ASSERT_TRUE(archive->append(make_record(1, period)).is_ok());
  }
  ASSERT_TRUE(archive->compact().has_value());
  const std::size_t compacted_size = file_size();
  ASSERT_TRUE(archive->append(make_record(1, 6)).is_ok());
  ASSERT_TRUE(archive->append(make_record(9, 0)).is_ok());
  EXPECT_GT(file_size(), compacted_size);

  // The archive reads its own post-compaction appends back...
  const auto latest = archive->latest(1, 2);
  ASSERT_TRUE(latest.has_value()) << latest.status().to_string();
  EXPECT_EQ((*latest)[1], make_record(1, 6).bits);
  // ...and the file at its path holds them.
  const auto on_disk = read_record_log(path_);
  ASSERT_TRUE(on_disk.has_value());
  EXPECT_FALSE(on_disk->truncated_tail);
  ASSERT_EQ(on_disk->records.size(), 4u);  // periods 4, 5, then 6 and 9/0
  EXPECT_EQ(on_disk->records[2], make_record(1, 6));
  EXPECT_EQ(on_disk->records[3], make_record(9, 0));
  auto reopened = RecordArchive::open(path_, options);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->periods_at(1), 2u);
  EXPECT_EQ(reopened->periods_at(9), 1u);
}

// A PTMRLOG1 record log written by the byte-at-a-time record codec: three
// records, (7, 0) and (7, 1) at m = 64 and (9, 0) at m = 128.  Archives on
// disk outlive the code that wrote them, so this file must keep opening,
// restoring and re-encoding to exactly these bytes.
constexpr std::string_view kRecordLogV1Hex =
    "50544d524c4f4731240000000700000000000000000000000000000010000000"
    "4000000000000000220000000000000048a9ed43240000000700000000000000"
    "01000000000000001000000040000000000000000400000000000080a4bcf990"
    "2c00000009000000000000000000000000000000180000008000000000000000"
    "010000000000000000000000100000805312bc6b";

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

TEST_F(ArchiveTest, LogWrittenByTheOldCodecRestoresByteIdentically) {
  const auto golden = from_hex(kRecordLogV1Hex);
  {
    std::ofstream out(path_, std::ios::binary);
    out.write(reinterpret_cast<const char*>(golden.data()),
              static_cast<std::streamsize>(golden.size()));
  }
  std::vector<TrafficRecord> expected(3);
  expected[0] = {7, 0, Bitmap(64)};
  expected[0].bits.set(1);
  expected[0].bits.set(5);
  expected[1] = {7, 1, Bitmap(64)};
  expected[1].bits.set(2);
  expected[1].bits.set(63);
  expected[2] = {9, 0, Bitmap(128)};
  for (std::size_t bit : {0, 100, 127}) expected[2].bits.set(bit);

  auto archive = RecordArchive::open(path_, {});
  ASSERT_TRUE(archive.has_value()) << archive.status().to_string();
  EXPECT_EQ(contents(*archive), expected);
  // A byte-identical re-append of a stored record stays a no-op...
  for (const TrafficRecord& rec : expected) {
    EXPECT_TRUE(archive->append(rec).is_ok());
  }
  EXPECT_EQ(file_bytes(path_), golden);
  // ...and a restore hands the service exactly the stored records.
  QueryService service;
  service.attach_durability(*archive);
  auto restored = service.restore_from_archive();
  ASSERT_TRUE(restored.has_value()) << restored.status().to_string();
  EXPECT_EQ(*restored, 3u);
  EXPECT_EQ(service.records_at_periods(7, std::vector<std::uint64_t>{0, 1}),
            (std::vector<TrafficRecord>{expected[0], expected[1]}));
  EXPECT_EQ(service.records_at_periods(9, std::vector<std::uint64_t>{0}),
            (std::vector<TrafficRecord>{expected[2]}));

  // The same records written today produce the same file.
  const std::string rewritten = path_ + ".rewritten";
  std::remove(rewritten.c_str());
  {
    auto writer = RecordLogWriter::open(rewritten);
    ASSERT_TRUE(writer.has_value());
    for (const TrafficRecord& rec : expected) {
      ASSERT_TRUE(writer->append(rec).is_ok());
    }
  }
  EXPECT_EQ(file_bytes(rewritten), golden);
  std::remove(rewritten.c_str());
}

}  // namespace
}  // namespace ptm
