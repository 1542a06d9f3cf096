#include "core/corridor_persistent.hpp"

#include <algorithm>
#include <cmath>

#include "common/bitmap_pool.hpp"
#include "common/math.hpp"
#include "core/expansion.hpp"

namespace ptm {

Result<double> corridor_log_b(std::span<const std::size_t> sizes,
                              std::size_t s) {
  const std::size_t k = sizes.size();
  if (k < 2 || k > 8) {
    return Status{ErrorCode::kInvalidArgument,
                  "corridor supports 2..8 locations"};
  }
  if (s < 1) return Status{ErrorCode::kInvalidArgument, "s must be >= 1"};
  double maps = 1.0;
  for (std::size_t j = 0; j < k; ++j) {
    if (!is_power_of_two(sizes[j]) || sizes[j] < 2) {
      return Status{ErrorCode::kInvalidArgument,
                    "sizes must be powers of two >= 2"};
    }
    if (j > 0 && sizes[j] < sizes[j - 1]) {
      return Status{ErrorCode::kInvalidArgument, "sizes must be ascending"};
    }
    maps *= static_cast<double>(s);
    if (maps > (1 << 20)) {
      return Status{ErrorCode::kInvalidArgument, "s^k too large to enumerate"};
    }
  }

  // A = mean over all s^k maps of Π over occupied reps (1 - 1/min_size).
  // Iterate maps as base-s counters; track per-rep min size.
  const auto total_maps = static_cast<std::uint64_t>(maps);
  std::vector<std::size_t> digits(k, 0);
  double a_sum = 0.0;
  std::vector<std::size_t> rep_min(s);
  for (std::uint64_t map = 0; map < total_maps; ++map) {
    std::fill(rep_min.begin(), rep_min.end(), std::size_t{0});
    for (std::size_t j = 0; j < k; ++j) {
      std::size_t& slot = rep_min[digits[j]];
      // sizes are ascending, so the FIRST location mapped to a rep is its
      // minimum; only record when unset.
      if (slot == 0) slot = sizes[j];
    }
    double product = 1.0;
    for (std::size_t r = 0; r < s; ++r) {
      if (rep_min[r] != 0) {
        product *= 1.0 - 1.0 / static_cast<double>(rep_min[r]);
      }
    }
    a_sum += product;
    // Increment the base-s counter.
    for (std::size_t j = 0; j < k; ++j) {
      if (++digits[j] < s) break;
      digits[j] = 0;
    }
  }
  const double a = a_sum / maps;

  double denominator = 0.0;  // Σ ln(1 - 1/m_j)
  for (std::size_t size : sizes) {
    denominator += log_one_minus_inv(static_cast<double>(size));
  }
  return std::log(a) - denominator;  // ln B
}

Result<CorridorPersistentEstimate> estimate_corridor_persistent(
    std::span<const std::vector<const Bitmap*>> records_per_location,
    std::size_t s) {
  const std::size_t k = records_per_location.size();
  if (k < 2 || k > 8) {
    return Status{ErrorCode::kInvalidArgument,
                  "corridor estimation needs 2..8 locations"};
  }
  for (const auto& records : records_per_location) {
    if (records.empty()) {
      return Status{ErrorCode::kInvalidArgument,
                    "every location needs at least one record"};
    }
  }

  // First level: per-location AND-joins (lazy expansion - one accumulator
  // per location, no expanded record copies).  All k joins are leased from
  // the thread's pool and return to it when the query finishes.
  BitmapPool& pool = BitmapPool::local();
  std::vector<BitmapPool::Lease> leases;
  leases.reserve(k);
  std::vector<const Bitmap*> joins;
  joins.reserve(k);
  for (const auto& records : records_per_location) {
    auto join = and_join_pooled(std::span<const Bitmap* const>(records), pool);
    if (!join) return join.status();
    leases.push_back(std::move(*join));
    joins.push_back(&*leases.back());
  }
  return estimate_corridor_persistent_from_joins(joins, s);
}

Result<CorridorPersistentEstimate> estimate_corridor_persistent_from_joins(
    std::span<const Bitmap* const> joins_per_location, std::size_t s) {
  const std::size_t k = joins_per_location.size();
  if (k < 2 || k > 8) {
    return Status{ErrorCode::kInvalidArgument,
                  "corridor estimation needs 2..8 locations"};
  }
  // Sort ascending by size (the derivation's m_1 <= ... <= m_k).
  std::vector<const Bitmap*> joins(joins_per_location.begin(),
                                   joins_per_location.end());
  std::sort(joins.begin(), joins.end(), [](const Bitmap* a, const Bitmap* b) {
    return a->size() < b->size();
  });

  CorridorPersistentEstimate est;
  for (const Bitmap* join : joins) {
    est.m.push_back(join->size());
    est.v0.push_back(join->fraction_zeros());
  }
  auto log_b = corridor_log_b(est.m, s);
  if (!log_b) return log_b.status();
  est.log_b = *log_b;

  // Second level: OR of every join virtually expanded to m_k.  The largest
  // join seeds a pooled accumulator (one copy, no fresh allocation in
  // steady state); the smaller joins fold in through the tiled kernel,
  // bit-identical to the expand-then-OR fold because OR is commutative
  // over expansions.
  BitmapPool::Lease acc = BitmapPool::local().acquire(joins.back()->size());
  *acc = *joins.back();
  for (std::size_t j = 0; j + 1 < k; ++j) {
    if (Status st = acc->or_with_tiled(*joins[j]); !st.is_ok()) return st;
  }
  est.v0_union = acc->fraction_zeros();

  // n'' = (ln V_union0 - Σ ln V_j0) / ln B, with the usual clamping.
  double log_excess = 0.0;
  {
    double v_union = est.v0_union;
    if (v_union == 0.0) {
      est.outcome = EstimateOutcome::kSaturated;
      v_union = 1.0 / static_cast<double>(est.m.back());
    }
    log_excess = std::log(v_union);
    for (std::size_t j = 0; j < k; ++j) {
      double v = est.v0[j];
      if (v == 0.0) {
        est.outcome = EstimateOutcome::kSaturated;
        v = 1.0 / static_cast<double>(est.m[j]);
      }
      log_excess -= std::log(v);
    }
  }
  if (log_excess < 0.0) {
    if (est.outcome == EstimateOutcome::kOk) {
      est.outcome = EstimateOutcome::kDegenerate;
    }
    est.n_corridor = 0.0;
    return est;
  }
  est.n_corridor = log_excess / est.log_b;
  return est;
}

Result<CorridorPersistentEstimate> estimate_corridor_persistent(
    std::span<const std::vector<Bitmap>> records_per_location,
    std::size_t s) {
  std::vector<std::vector<const Bitmap*>> ptrs;
  ptrs.reserve(records_per_location.size());
  for (const auto& records : records_per_location) {
    std::vector<const Bitmap*> location;
    location.reserve(records.size());
    for (const Bitmap& b : records) location.push_back(&b);
    ptrs.push_back(std::move(location));
  }
  return estimate_corridor_persistent(
      std::span<const std::vector<const Bitmap*>>(ptrs), s);
}

}  // namespace ptm
