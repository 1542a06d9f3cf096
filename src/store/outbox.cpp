#include "store/outbox.hpp"

#include <algorithm>

#include "common/serialize.hpp"

namespace ptm {
namespace {

constexpr LogMagic kMagic = {'P', 'T', 'M', 'O', 'B', 'O', 'X', '1'};
constexpr std::uint8_t kOpPush = 1;
constexpr std::uint8_t kOpAck = 2;
constexpr std::uint8_t kOpEvict = 3;

std::vector<std::uint8_t> encode_push(const TrafficRecord& record,
                                      const TraceContext& trace) {
  ByteWriter w;
  w.u8(kOpPush);
  w.u32(static_cast<std::uint32_t>(record.serialized_size()));
  record.serialize_into(w);
  w.u64(trace.trace_id);
  w.u64(trace.span_id);
  return w.take();
}

std::vector<std::uint8_t> encode_keyed(std::uint8_t kind,
                                       std::uint64_t location,
                                       std::uint64_t period) {
  ByteWriter w;
  w.u8(kind);
  w.u64(location);
  w.u64(period);
  return w.take();
}

}  // namespace

UploadOutbox::UploadOutbox(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

Result<UploadOutbox> UploadOutbox::open(std::string path,
                                        std::size_t capacity) {
  UploadOutbox outbox(capacity);
  auto log = FramedLogFile::open(path, kMagic);
  if (!log) {
    if (log.status().code() == ErrorCode::kFailedPrecondition) {
      return Status{ErrorCode::kFailedPrecondition,
                    path + " exists but is not an outbox log"};
    }
    return log.status();
  }
  outbox.log_ = std::move(*log);
  auto contents = read_framed_log(path, kMagic);
  if (!contents) return contents.status();
  for (const auto& payload : contents->entries) {
    ByteReader r(payload);
    auto kind = r.u8();
    if (!kind) continue;  // unreadable op: skip, compaction drops it
    if (*kind == kOpPush) {
      auto rec_bytes = r.bytes_view();
      if (!rec_bytes) continue;
      auto record = TrafficRecord::deserialize(*rec_bytes);
      if (!record) continue;
      // Trailing trace context - absent in pre-tracing logs, which replay
      // as untraced entries.
      TraceContext trace;
      if (r.remaining() >= 16) {
        auto trace_id = r.u64();
        auto span_id = r.u64();
        if (trace_id && span_id) {
          trace = TraceContext{*trace_id, *span_id};
        }
      }
      // Replay through the in-memory path minus the durable logging (the
      // op is already on disk); conflicts in the log keep the first push.
      const bool duplicate = outbox.contains(record->location,
                                             record->period);
      if (!duplicate) {
        if (outbox.entries_.size() == outbox.capacity_) {
          outbox.entries_.pop_front();
          ++outbox.evicted_;
        }
        outbox.entries_.push_back(Entry{std::move(*record), 0, 0, trace});
      }
    } else if (*kind == kOpAck || *kind == kOpEvict) {
      auto loc = r.u64();
      auto per = r.u64();
      if (!loc || !per) continue;
      const auto it = std::find_if(
          outbox.entries_.begin(), outbox.entries_.end(),
          [&](const Entry& e) {
            return e.record.location == *loc && e.record.period == *per;
          });
      if (it != outbox.entries_.end()) outbox.entries_.erase(it);
    }
  }
  // Compact eagerly: drops acked ops, heals a torn tail, and bounds the
  // ops log to O(pending).
  if (Status s = outbox.compact(); !s.is_ok()) return s;
  return outbox;
}

Status UploadOutbox::log_op(std::uint8_t kind, const Entry* pushed,
                            std::uint64_t location, std::uint64_t period) {
  if (!persistent()) return Status::ok();
  const auto payload = kind == kOpPush
                           ? encode_push(pushed->record, pushed->trace)
                           : encode_keyed(kind, location, period);
  return log_->append(payload).status();
}

Status UploadOutbox::compact() {
  if (!persistent()) return Status::ok();
  std::vector<std::vector<std::uint8_t>> ops;
  ops.reserve(entries_.size());
  for (const Entry& e : entries_) {
    ops.push_back(encode_push(e.record, e.trace));
  }
  auto rewritten = framed_log_rewrite(log_->path(), kMagic, ops);
  if (!rewritten) return rewritten.status();
  log_ = std::move(*rewritten);
  return Status::ok();
}

Status UploadOutbox::push(const TrafficRecord& record,
                          const TraceContext& trace) {
  if (Status s = record.validate(); !s.is_ok()) return s;
  const auto it = std::find_if(
      entries_.begin(), entries_.end(), [&](const Entry& e) {
        return e.record.location == record.location &&
               e.record.period == record.period;
      });
  if (it != entries_.end()) {
    if (it->record == record) return Status::ok();
    return {ErrorCode::kFailedPrecondition,
            "conflicting record already pending for this location and "
            "period"};
  }
  if (entries_.size() == capacity_) {
    const Entry& oldest = entries_.front();
    if (Status s = log_op(kOpEvict, nullptr, oldest.record.location,
                          oldest.record.period);
        !s.is_ok()) {
      return s;
    }
    entries_.pop_front();
    ++evicted_;
  }
  entries_.push_back(Entry{record, 0, 0, trace});
  return log_op(kOpPush, &entries_.back(), record.location, record.period);
}

Status UploadOutbox::acknowledge(std::uint64_t location,
                                 std::uint64_t period) {
  const auto it = std::find_if(
      entries_.begin(), entries_.end(), [&](const Entry& e) {
        return e.record.location == location && e.record.period == period;
      });
  if (it == entries_.end()) return Status::ok();  // duplicate ack
  if (Status s = log_op(kOpAck, nullptr, location, period); !s.is_ok()) {
    return s;
  }
  entries_.erase(it);
  return Status::ok();
}

bool UploadOutbox::contains(std::uint64_t location,
                            std::uint64_t period) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) {
                       return e.record.location == location &&
                              e.record.period == period;
                     });
}

UploadOutbox::Entry* UploadOutbox::find(std::uint64_t location,
                                        std::uint64_t period) {
  for (Entry& e : entries_) {
    if (e.record.location == location && e.record.period == period) {
      return &e;
    }
  }
  return nullptr;
}

std::vector<UploadOutbox::Entry*> UploadOutbox::due(std::uint64_t now) {
  std::vector<Entry*> out;
  for (Entry& e : entries_) {
    if (e.next_attempt_at <= now) out.push_back(&e);
  }
  return out;
}

void UploadOutbox::schedule_retry(Entry& entry, std::uint64_t now,
                                  std::uint64_t backoff_base,
                                  std::uint64_t backoff_cap,
                                  Xoshiro256& rng) {
  backoff_base = std::max<std::uint64_t>(backoff_base, 1);
  backoff_cap = std::max<std::uint64_t>(backoff_cap, backoff_base);
  // base << attempts, saturating well before the shift overflows.
  const std::uint32_t shift = std::min<std::uint32_t>(entry.attempts, 32);
  std::uint64_t delay = backoff_base << shift;
  delay += rng.below(backoff_base + 1);  // jitter: de-synchronize the fleet
  // Clamp AFTER jitter so backoff_cap is a true ceiling - jitter added to
  // an already-capped delay would overshoot it by up to backoff_base.
  delay = std::min(delay, backoff_cap);
  ++entry.attempts;
  entry.next_attempt_at = now + delay;
}

}  // namespace ptm
