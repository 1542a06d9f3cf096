// archive.hpp - the measurement archive: a record log plus an in-memory
// offset index, a retention policy, and compaction.
//
// The raw RecordLog is append-only and unbounded; a long-lived deployment
// wants (a) indexed access by location, (b) bounded storage ("keep the
// last 90 periods per RSU"), and (c) a way to reclaim the space of
// records that aged out.  RecordArchive layers those on the log:
//
//   * The index maps each live (location, period) to where its payload
//     sits in the log (offset, length) - never to the record itself, so a
//     server whose QueryService holds every record in memory does not hold
//     a second copy here.  Reads (records_at, latest, live_batch, compact)
//     pread the bytes back and re-check their CRC; a short read or a CRC
//     mismatch is an error, never a silently skipped or wrong record.
//   * The log stays open on one O_APPEND descriptor; an append is one
//     write of length | payload | crc, made before append() returns (the
//     write-ahead a server acks behind).  A failed or short write is
//     truncated back off, so a later append never lands behind a torn
//     frame that the next open would stop at.  Nothing is fsynced: an
//     acked record survives a killed process, not a power loss.
//   * Retention drops the oldest periods per location from the index, and
//     compact() rewrites the log with only live records (atomically via a
//     temp file + rename), then appends to the rewritten file.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bitmap.hpp"
#include "common/status.hpp"
#include "core/traffic_record.hpp"
#include "store/framed_log.hpp"

namespace ptm {

struct ArchiveOptions {
  /// Retain at most this many most-recent periods per location
  /// (0 = unlimited).
  std::size_t max_periods_per_location = 0;
};

class RecordArchive {
 public:
  /// Opens (or creates) the archive at `path`, indexing any existing log.
  /// A torn log tail is tolerated (intact prefix loads, and the log is
  /// compacted so later appends follow it); a non-log file is
  /// FailedPrecondition.
  [[nodiscard]] static Result<RecordArchive> open(std::string path,
                                                  ArchiveOptions options);

  /// Appends a record: log write, then index update, then retention.
  /// Idempotent: re-appending bytes identical to the live record for that
  /// (location, period) - compared byte for byte against the stored
  /// payload - is a no-op Ok; an at-least-once delivery pipeline may
  /// replay an upload whose ack was lost, and the archive must not turn
  /// that replay into an error (or a second log frame).  A *conflicting*
  /// record for an occupied slot is FailedPrecondition.
  Status append(const TrafficRecord& record);

  /// Live (retained) record count / per-location period count.
  [[nodiscard]] std::size_t live_records() const;
  [[nodiscard]] std::size_t periods_at(std::uint64_t location) const;
  [[nodiscard]] std::vector<std::uint64_t> locations() const;

  /// All live bitmaps of a location, ordered by period (NotFound if none;
  /// ParseError if one no longer reads back intact).
  [[nodiscard]] Result<std::vector<Bitmap>> records_at(
      std::uint64_t location) const;

  /// Resumable position inside the live index, keyed by the last
  /// (location, period) a batch returned.  Key-based (not iterator-based)
  /// so appends and retention between batches never invalidate it: the
  /// next batch simply resumes after the last returned key.
  struct SnapshotCursor {
    bool started = false;        ///< false = next batch starts at the front
    std::uint64_t location = 0;  ///< last key returned
    std::uint64_t period = 0;
  };

  /// At most `max_records` live records following `cursor`, ordered by
  /// (location, period); advances the cursor past them.  An empty return
  /// means the iteration is complete; an error (a record that no longer
  /// reads back intact) leaves the cursor unmoved.  Unlike live_contents(),
  /// a caller streaming a large archive holds whatever lock serializes
  /// archive access only per-batch, so concurrent ingest proceeds between
  /// batches (the restore path relies on exactly that).
  [[nodiscard]] Result<std::vector<TrafficRecord>> live_batch(
      SnapshotCursor& cursor, std::size_t max_records) const;

  /// Every live record, ordered by (location, period) - the replay feed
  /// for rebuilding a server's in-memory store after a crash
  /// (QueryService::restore_from_archive).  One unbounded live_batch
  /// sweep; prefer batched iteration when the archive is large and the
  /// serializing lock is contended.
  [[nodiscard]] Result<std::vector<TrafficRecord>> live_contents() const;

  /// The `window` most recent live bitmaps of a location, ordered by
  /// period (NotFound when fewer exist).
  [[nodiscard]] Result<std::vector<Bitmap>> latest(std::uint64_t location,
                                                   std::size_t window) const;

  /// Rewrites the on-disk log with only live records (temp file + rename);
  /// later appends go to the rewritten file.  Returns the number of dead
  /// records dropped.
  [[nodiscard]] Result<std::size_t> compact();

  [[nodiscard]] const std::string& path() const noexcept {
    return log_.path();
  }

 private:
  RecordArchive(ArchiveOptions options, FramedLogFile log)
      : options_(options), log_(std::move(log)) {}

  void apply_retention(std::uint64_t location);

  ArchiveOptions options_;
  FramedLogFile log_;
  // Live index: location -> period -> payload extent in log_.  (The log
  // may hold more.)
  std::map<std::uint64_t, std::map<std::uint64_t, FrameExtent>> index_;
  std::size_t dead_in_log_ = 0;
};

}  // namespace ptm
