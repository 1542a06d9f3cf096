// journal.hpp - crash-safe journal of an RSU's in-progress traffic record.
//
// The record an RSU is currently filling exists only in RAM in the paper's
// model; a reboot would silently zero one period's measurement.  The
// journal makes the in-progress period replayable: starting a period
// atomically rewrites the file (temp + rename) with one PeriodStart entry,
// and every accepted encode appends an Encode entry, all in framed_log
// framing so a torn tail costs at most the final encode:
//
//   file  := magic "PTMRJNL1", entry*
//   entry := 0x01 location period bitmap_size   (PeriodStart)
//          | 0x02 index                         (Encode)
//
// Replay-on-open rebuilds (location, period, bitmap) from the latest
// PeriodStart and the encodes after it; a torn or undecodable tail is
// healed on open (the file is rewritten with what replayed), so later
// encodes never land behind bytes the next replay stops at.  Whether the
// replayed period is still open or was already closed into the outbox is
// the RSU's call (it cross-checks the outbox), not the journal's.  The
// journal holds its file open: an encode is one write, not open + write +
// close.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/status.hpp"
#include "store/framed_log.hpp"

namespace ptm {

struct JournalPeriodStart {
  std::uint64_t location = 0;
  std::uint64_t period = 0;
  std::uint64_t bitmap_size = 0;
};

struct JournalEncode {
  std::uint64_t index = 0;
};

using JournalEntry = std::variant<JournalPeriodStart, JournalEncode>;

/// Codec for one journal entry payload.  Exposed (rather than buried in the
/// reader) because journal files cross a crash boundary and the decoder is
/// fuzzed like every other one.
[[nodiscard]] std::vector<std::uint8_t> encode_journal_entry(
    const JournalEntry& entry);
[[nodiscard]] Result<JournalEntry> decode_journal_entry(
    std::span<const std::uint8_t> payload);

class RsuJournal {
 public:
  /// The reconstructed in-progress period found in an existing journal.
  struct ReplayedPeriod {
    std::uint64_t location = 0;
    std::uint64_t period = 0;
    std::uint64_t bitmap_size = 0;
    std::vector<std::uint64_t> encode_indices;  ///< in arrival order
  };

  /// Opens/creates the journal and replays any existing entries.  A torn
  /// tail is tolerated and healed; a non-journal file is
  /// FailedPrecondition.
  [[nodiscard]] static Result<RsuJournal> open(std::string path);

  /// The period replayed at open time, if the journal held one.
  [[nodiscard]] const std::optional<ReplayedPeriod>& replayed()
      const noexcept {
    return replayed_;
  }

  /// Atomically resets the journal to a single PeriodStart entry.  The
  /// previous period's entries are gone after this - callers must have
  /// moved its record into the outbox first.
  [[nodiscard]] Status begin_period(std::uint64_t location,
                                    std::uint64_t period,
                                    std::uint64_t bitmap_size);

  /// Appends one accepted encode.  Called on the contact hot path; one
  /// write on the held-open file.
  [[nodiscard]] Status record_encode(std::uint64_t index);

  [[nodiscard]] const std::string& path() const noexcept {
    return log_.path();
  }

 private:
  explicit RsuJournal(FramedLogFile log) : log_(std::move(log)) {}

  FramedLogFile log_;
  std::optional<ReplayedPeriod> replayed_;
};

}  // namespace ptm
