// ledger.cpp - span recording, self-time reduction and JSON-lines output.
#include "ledger.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

SpanSink::SpanSink(std::uint64_t thread, std::size_t expected)
    : next_id_((thread + 1) << 40) {
  spans_.reserve(expected);
}

void SpanSink::add(std::uint64_t id, const char* name, std::uint64_t parent,
                   std::uint64_t op, Clock::time_point start,
                   Clock::time_point end) {
  spans_.push_back(Span{name, id, parent, op, start, end});
}

std::uint64_t SpanSink::add(const char* name, std::uint64_t parent,
                            std::uint64_t op, Clock::time_point start,
                            Clock::time_point end) {
  const std::uint64_t id = reserve_id();
  add(id, name, parent, op, start, end);
  return id;
}

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Length of the union of `intervals`, each clipped to [lo, hi].
double covered_us(std::vector<std::pair<Clock::time_point, Clock::time_point>>&
                      intervals,
                  Clock::time_point lo, Clock::time_point hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  Clock::time_point cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += us_between(start, end);
    cursor = end;
  }
  return covered;
}

}  // namespace

std::map<std::string, SpanStats> reduce_spans(
    const std::vector<const SpanSink*>& sinks) {
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<Clock::time_point,
                                           Clock::time_point>>>
      children;
  for (const SpanSink* sink : sinks) {
    for (const Span& span : sink->spans()) {
      if (span.parent != 0) {
        children[span.parent].emplace_back(span.start, span.end);
      }
    }
  }
  std::map<std::string, SpanStats> out;
  for (const SpanSink* sink : sinks) {
    for (const Span& span : sink->spans()) {
      SpanStats& stats = out[span.name];
      const double duration = us_between(span.start, span.end);
      stats.durations_us.push_back(duration);
      double self = duration;
      if (auto it = children.find(span.id); it != children.end()) {
        self -= covered_us(it->second, span.start, span.end);
      }
      stats.self_us_total += self;
    }
  }
  return out;
}

bool write_spans_jsonl(const std::string& path,
                       const std::vector<const SpanSink*>& sinks,
                       Clock::time_point origin) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const SpanSink* sink : sinks) {
    for (const Span& span : sink->spans()) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"op\":%llu,"
                   "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   span.name, static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.op),
                   us_between(origin, span.start),
                   us_between(origin, span.end));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
