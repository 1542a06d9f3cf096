// outbox.hpp - bounded, persistent retransmission queue for RecordUploads.
//
// The paper assumes every per-period record reaches the central server
// (§II-D); a deployed RSU cannot.  The outbox is the RSU-side half of the
// at-least-once delivery pair (server-side idempotent ingest is the other
// half): a period's record is pushed here when the period closes, survives
// RSU reboots via an append-only ops log (framed_log framing), and leaves
// only when the server's UploadAck arrives or capacity forces the oldest
// entry out.  Retransmission *scheduling* state (attempt count, next-due
// step) is deliberately volatile - after a reboot every pending entry is
// immediately due again, which is the safe direction.
//
//   ops log := magic "PTMOBOX1", entry* where
//   entry   := 0x01 record-bytes [trace_id span_id]   (push)
//            | 0x02 location period                   (ack)
//            | 0x03 location period                   (evict: overflow)
//
// The trailing trace ids on a push op are the record's pipeline
// TraceContext (obs/trace.hpp); logs written before tracing existed omit
// them and replay as untraced entries (the reader tolerates their
// absence).  The log is compacted (rewritten with only pending pushes) on
// open, which also heals torn tails.  The outbox holds the log open, so an
// op costs one write, not open + write + close.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/status.hpp"
#include "core/traffic_record.hpp"
#include "obs/trace.hpp"
#include "store/framed_log.hpp"

namespace ptm {

class UploadOutbox {
 public:
  struct Entry {
    TrafficRecord record;
    std::uint32_t attempts = 0;        ///< delivery attempts so far
    std::uint64_t next_attempt_at = 0; ///< earliest step for the next try
    TraceContext trace;                ///< pipeline trace, durable with push
  };

  /// In-memory outbox (no persistence) holding at most `capacity` entries.
  explicit UploadOutbox(std::size_t capacity = kDefaultCapacity);

  /// Opens/creates a persistent outbox at `path`, replaying and compacting
  /// the ops log.  FailedPrecondition if the file is not an outbox log.
  [[nodiscard]] static Result<UploadOutbox> open(std::string path,
                                                 std::size_t capacity =
                                                     kDefaultCapacity);

  /// Enqueues a closed period's record.  A re-push of an already-pending
  /// (location, period) is idempotent when the bytes match and
  /// FailedPrecondition when they conflict.  When the outbox is full the
  /// oldest entry is evicted (counted in `evicted()`), which is the bounded
  /// buffer's honest data loss.  `trace` (the record's pipeline
  /// TraceContext) is persisted alongside the record so retries after a
  /// reboot stay stitched to the same trace.
  Status push(const TrafficRecord& record, const TraceContext& trace = {});

  /// Drops the entry for (location, period) - the server acknowledged it.
  /// Ok even when absent (duplicate acks are expected after re-delivery).
  Status acknowledge(std::uint64_t location, std::uint64_t period);

  [[nodiscard]] bool contains(std::uint64_t location,
                              std::uint64_t period) const;
  [[nodiscard]] std::size_t pending() const noexcept {
    return entries_.size();
  }
  [[nodiscard]] std::uint64_t evicted() const noexcept { return evicted_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool persistent() const noexcept { return log_.has_value(); }
  /// The ops log's path; empty for in-memory outboxes.
  [[nodiscard]] const std::string& path() const noexcept {
    static const std::string kNone;
    return log_ ? log_->path() : kNone;
  }

  /// Pending entries, oldest first.  Pointers stay valid until the next
  /// push/acknowledge.
  [[nodiscard]] std::vector<Entry*> due(std::uint64_t now);
  /// The pending entry for (location, period), or nullptr.
  [[nodiscard]] Entry* find(std::uint64_t location, std::uint64_t period);
  [[nodiscard]] const std::deque<Entry>& entries() const noexcept {
    return entries_;
  }

  /// Books the next retransmission of `entry`: exponential backoff
  /// (base << attempts, capped) plus uniform jitter in [0, base] to keep a
  /// fleet of recovering RSUs from thundering in lockstep.
  static void schedule_retry(Entry& entry, std::uint64_t now,
                             std::uint64_t backoff_base,
                             std::uint64_t backoff_cap, Xoshiro256& rng);

  static constexpr std::size_t kDefaultCapacity = 64;

 private:
  [[nodiscard]] Status log_op(std::uint8_t kind, const Entry* pushed,
                              std::uint64_t location, std::uint64_t period);
  [[nodiscard]] Status compact();

  std::optional<FramedLogFile> log_;  ///< held open; none when in-memory
  std::size_t capacity_;
  std::deque<Entry> entries_;  ///< oldest first
  std::uint64_t evicted_ = 0;
};

}  // namespace ptm
