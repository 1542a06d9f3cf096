// inputs.cpp - seeded inputs, sample statistics and answer comparison.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <type_traits>

#include "bench.hpp"

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double median_rate(const std::vector<double>& done_s, double window_s) {
  const auto slices = static_cast<std::size_t>(
      std::max(1.0, std::round(window_s / kRateSlice)));
  std::vector<double> counts(slices, 0.0);
  for (double t : done_s) {
    const auto slice = static_cast<std::size_t>(
        t / window_s * static_cast<double>(slices));
    counts[std::min(slice, slices - 1)] += 1.0;
  }
  const double slice_s = window_s / static_cast<double>(slices);
  for (double& c : counts) c /= slice_s;
  return percentile(counts, 0.5);
}

void Window::merge(const Window& other) {
  for (std::size_t c = 0; c < class_us.size(); ++c) {
    class_us[c].insert(class_us[c].end(), other.class_us[c].begin(),
                       other.class_us[c].end());
  }
  done_s.insert(done_s.end(), other.done_s.begin(), other.done_s.end());
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double process_cpu_us() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

constexpr double kLoadFactor = 2.0;     // f of Eq. 2, as in §VI
constexpr double kMinVolume = 2000.0;   // §VI: n ~ U(2000, 10000]
constexpr double kMaxVolume = 10000.0;
constexpr std::uint64_t kFleet = 400;   // vehicles present in every period

double unit_interval(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

Corpus::Corpus(std::uint64_t seed, std::size_t bodies) : seed_(seed) {
  bodies_.reserve(bodies);
  for (std::size_t b = 0; b < bodies; ++b) {
    const std::uint64_t h = mix64(seed ^ mix64(b + 1));
    // U(2000, 10000]: 1 - u lies in (0, 1].
    const double volume =
        kMinVolume + (kMaxVolume - kMinVolume) * (1.0 - unit_interval(h));
    // Eq. 2: m is the smallest power of two >= f * n.
    const auto target =
        static_cast<std::uint64_t>(std::ceil(volume * kLoadFactor));
    std::size_t m = 1;
    while (m < target) m <<= 1;
    ptm::Bitmap bits(m);
    const auto n = static_cast<std::uint64_t>(volume);
    // Power-of-two m: a vehicle's bit in a smaller bitmap is its bit in a
    // larger one folded, which is what the estimators' expansion assumes.
    for (std::uint64_t v = 0; v < n; ++v) {
      const std::uint64_t vehicle =
          v < kFleet ? v : (static_cast<std::uint64_t>(b + 1) << 32) | v;
      bits.set(mix64(vehicle ^ seed) & (m - 1));
    }
    bodies_.push_back(std::move(bits));
  }
}

ptm::TrafficRecord Corpus::record(std::uint64_t location,
                                  std::uint64_t period) const {
  const std::uint64_t h = mix64(seed_ ^ mix64(location * 0x10001 + period));
  ptm::TrafficRecord rec;
  rec.location = location;
  rec.period = period;
  rec.bits = bodies_[h % bodies_.size()];
  return rec;
}

Shape shape_of(const ptm::QueryRequest& request) {
  return std::visit(
      [](const auto& q) {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, ptm::RecentPersistentQuery>) {
          return Shape::kRecent;
        } else if constexpr (std::is_same_v<T, ptm::P2PPersistentQuery>) {
          return Shape::kP2P;
        } else if constexpr (std::is_same_v<T, ptm::CorridorQuery>) {
          return Shape::kCorridor;
        } else {
          return Shape::kPoint;
        }
      },
      request);
}

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

std::string estimate_diff(const ptm::QueryResponse& got,
                          const ptm::QueryResponse& want) {
  if (got.status.code() != want.status.code()) {
    return "status " + got.status.to_string() + " vs " +
           want.status.to_string();
  }
  if (!want.ok()) return "";
  const ptm::EstimateSummary& g = got.summary;
  const ptm::EstimateSummary& w = want.summary;
  const bool same =
      g.kind == w.kind && same_bits(g.value, w.value) &&
      g.outcome == w.outcome && g.m == w.m && same_bits(g.fill, w.fill) &&
      g.relative_stderr.has_value() == w.relative_stderr.has_value() &&
      (!w.relative_stderr || same_bits(*g.relative_stderr, *w.relative_stderr));
  if (same) return "";
  char buf[96];
  std::snprintf(buf, sizeof buf, "estimate %a (m %zu) vs %a (m %zu)", g.value,
                g.m, w.value, w.m);
  return buf;
}

ptm::CoverageReport cluster_coverage(const ptm::QueryRequest& request,
                                     const ptm::CoverageReport& local) {
  std::vector<std::uint64_t> named = std::visit(
      [](const auto& q) -> std::vector<std::uint64_t> {
        using T = std::decay_t<decltype(q)>;
        if constexpr (std::is_same_v<T, ptm::PointVolumeQuery>) {
          return {q.period};
        } else if constexpr (std::is_same_v<T, ptm::RecentPersistentQuery>) {
          return {};  // the coordinator fetches the whole history
        } else {
          return q.periods;
        }
      },
      request);
  const auto sorted_unique = [](std::vector<std::uint64_t> v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };
  named.insert(named.end(), local.requested.begin(), local.requested.end());
  ptm::CoverageReport out;
  out.requested = sorted_unique(std::move(named));
  out.missing = sorted_unique(local.missing);
  std::set_difference(out.requested.begin(), out.requested.end(),
                      out.missing.begin(), out.missing.end(),
                      std::back_inserter(out.present));
  return out;
}

std::string coverage_diff(const ptm::QueryResponse& got,
                          const ptm::QueryResponse& want) {
  const ptm::CoverageReport& a = got.coverage;
  const ptm::CoverageReport& b = want.coverage;
  if (a.requested == b.requested && a.present == b.present &&
      a.missing == b.missing) {
    return "";
  }
  const auto sizes = [](const ptm::CoverageReport& c) {
    return std::to_string(c.requested.size()) + "/" +
           std::to_string(c.present.size()) + "/" +
           std::to_string(c.missing.size());
  };
  return "coverage requested/present/missing " + sizes(a) + " vs " + sizes(b);
}

}  // namespace perfbench
