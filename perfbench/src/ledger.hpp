// ledger.hpp - spans for the traced run, kept in memory.
//
// The traced run records one span around every call the benchmark makes
// into a layer's public function, plus one root span per op.  Each client
// thread owns one SpanSink, so recording takes no lock; the sinks are
// merged when the run ends, written out as JSON lines, and reduced to
// per-name durations and self times (a span's duration minus the part of
// it its child spans cover).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Span {
  const char* name = "";   ///< string literal: "op.ingest", "cluster.ingest"
  std::uint64_t id = 0;    ///< unique within the run, never 0
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;    ///< the op this span belongs to
  Clock::time_point start;
  Clock::time_point end;
};

/// One thread's spans.  `thread` keeps ids unique across sinks.
class SpanSink {
 public:
  SpanSink(std::uint64_t thread, std::size_t expected);

  /// An id for a span whose end is not known yet (a parent).
  [[nodiscard]] std::uint64_t reserve_id() noexcept { return next_id_++; }
  void add(std::uint64_t id, const char* name, std::uint64_t parent,
           std::uint64_t op, Clock::time_point start, Clock::time_point end);
  /// Shorthand for a span with a fresh id.
  std::uint64_t add(const char* name, std::uint64_t parent, std::uint64_t op,
                    Clock::time_point start, Clock::time_point end);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Groups every span by name and computes each one's self time.
[[nodiscard]] std::map<std::string, SpanStats> reduce_spans(
    const std::vector<const SpanSink*>& sinks);

/// Writes every span as one JSON object per line, times in microseconds
/// since `origin`.  Returns false if the file cannot be written.
bool write_spans_jsonl(const std::string& path,
                       const std::vector<const SpanSink*>& sinks,
                       Clock::time_point origin);

}  // namespace perfbench
