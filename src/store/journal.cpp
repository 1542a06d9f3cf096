#include "store/journal.hpp"

#include "common/serialize.hpp"

namespace ptm {
namespace {

constexpr LogMagic kMagic = {'P', 'T', 'M', 'R', 'J', 'N', 'L', '1'};
constexpr std::uint8_t kKindPeriodStart = 1;
constexpr std::uint8_t kKindEncode = 2;

}  // namespace

std::vector<std::uint8_t> encode_journal_entry(const JournalEntry& entry) {
  ByteWriter w;
  if (const auto* start = std::get_if<JournalPeriodStart>(&entry)) {
    w.u8(kKindPeriodStart);
    w.u64(start->location);
    w.u64(start->period);
    w.u64(start->bitmap_size);
  } else {
    w.u8(kKindEncode);
    w.u64(std::get<JournalEncode>(entry).index);
  }
  return w.take();
}

Result<JournalEntry> decode_journal_entry(
    std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  auto kind = r.u8();
  if (!kind) return kind.status();
  switch (*kind) {
    case kKindPeriodStart: {
      JournalPeriodStart start;
      auto loc = r.u64();
      if (!loc) return loc.status();
      start.location = *loc;
      auto per = r.u64();
      if (!per) return per.status();
      start.period = *per;
      auto m = r.u64();
      if (!m) return m.status();
      start.bitmap_size = *m;
      if (!r.exhausted()) {
        return Status{ErrorCode::kParseError,
                      "trailing bytes in journal period-start"};
      }
      return JournalEntry{start};
    }
    case kKindEncode: {
      auto index = r.u64();
      if (!index) return index.status();
      if (!r.exhausted()) {
        return Status{ErrorCode::kParseError,
                      "trailing bytes in journal encode"};
      }
      return JournalEntry{JournalEncode{*index}};
    }
    default:
      return Status{ErrorCode::kParseError, "unknown journal entry kind"};
  }
}

Result<RsuJournal> RsuJournal::open(std::string path) {
  auto log = FramedLogFile::open(path, kMagic);
  if (!log) {
    if (log.status().code() == ErrorCode::kFailedPrecondition) {
      return Status{ErrorCode::kFailedPrecondition,
                    path + " exists but is not an RSU journal"};
    }
    return log.status();
  }
  RsuJournal journal(std::move(*log));
  auto contents = read_framed_log(path, kMagic);
  if (!contents) return contents.status();
  bool torn = contents->truncated_tail;
  for (const auto& payload : contents->entries) {
    auto entry = decode_journal_entry(payload);
    if (!entry) {  // undecodable entry: stop like a torn tail
      torn = true;
      break;
    }
    if (const auto* start = std::get_if<JournalPeriodStart>(&*entry)) {
      // A later PeriodStart supersedes everything before it (a crash
      // between outbox push and journal reset can leave two).
      journal.replayed_ = ReplayedPeriod{start->location, start->period,
                                         start->bitmap_size, {}};
    } else if (journal.replayed_) {
      journal.replayed_->encode_indices.push_back(
          std::get<JournalEncode>(*entry).index);
    }
  }
  if (torn) {
    // Heal now: an append after the torn bytes would sit beyond where
    // every later replay stops.  The rewrite keeps exactly what replayed.
    std::vector<std::vector<std::uint8_t>> entries;
    if (const auto& replayed = journal.replayed_) {
      entries.push_back(encode_journal_entry(JournalPeriodStart{
          replayed->location, replayed->period, replayed->bitmap_size}));
      for (std::uint64_t index : replayed->encode_indices) {
        entries.push_back(encode_journal_entry(JournalEncode{index}));
      }
    }
    auto healed = framed_log_rewrite(path, kMagic, entries);
    if (!healed) return healed.status();
    journal.log_ = std::move(*healed);
  }
  return journal;
}

Status RsuJournal::begin_period(std::uint64_t location, std::uint64_t period,
                                std::uint64_t bitmap_size) {
  const std::vector<std::vector<std::uint8_t>> entries = {
      encode_journal_entry(
          JournalPeriodStart{location, period, bitmap_size})};
  auto rewritten = framed_log_rewrite(log_.path(), kMagic, entries);
  if (!rewritten) return rewritten.status();
  log_ = std::move(*rewritten);
  return Status::ok();
}

Status RsuJournal::record_encode(std::uint64_t index) {
  return log_.append(encode_journal_entry(JournalEncode{index})).status();
}

}  // namespace ptm
