#include "core/p2p_persistent.hpp"

#include <cmath>
#include <vector>

#include "common/bitmap_pool.hpp"
#include "common/math.hpp"
#include "core/expansion.hpp"

namespace ptm {

Result<PointToPointPersistentEstimate> estimate_p2p_persistent(
    std::span<const Bitmap* const> records_at_l,
    std::span<const Bitmap* const> records_at_l_prime,
    const PointToPointOptions& options) {
  if (records_at_l.empty() || records_at_l_prime.empty()) {
    return Status{ErrorCode::kInvalidArgument,
                  "p2p estimation needs records from both locations"};
  }
  for (auto span : {records_at_l, records_at_l_prime}) {
    for (const Bitmap* b : span) {
      if (b->empty() || !is_power_of_two(b->size())) {
        return Status{ErrorCode::kInvalidArgument,
                      "record sizes must be non-zero powers of two"};
      }
    }
  }

  // First level: per-location AND-joins (lazy expansion - one accumulator
  // per location, no expanded record copies).  Both joins are query
  // temporaries, so they lease from the thread's pool and their buffers go
  // straight back for the next query.
  BitmapPool& pool = BitmapPool::local();
  auto e_l = and_join_pooled(records_at_l, pool);
  if (!e_l) return e_l.status();
  auto e_lp = and_join_pooled(records_at_l_prime, pool);
  if (!e_lp) return e_lp.status();
  return estimate_p2p_persistent_from_joins(**e_l, **e_lp, options);
}

Result<PointToPointPersistentEstimate> estimate_p2p_persistent_from_joins(
    const Bitmap& join_at_l, const Bitmap& join_at_l_prime,
    const PointToPointOptions& options) {
  if (options.s < 1) {
    return Status{ErrorCode::kInvalidArgument, "s must be >= 1"};
  }
  for (const Bitmap* join : {&join_at_l, &join_at_l_prime}) {
    if (join->empty() || !is_power_of_two(join->size())) {
      return Status{ErrorCode::kInvalidArgument,
                    "join sizes must be non-zero powers of two"};
    }
  }

  // W.l.o.g. m <= m' (§IV assumes it; the estimator is symmetric under
  // swapping the locations along with their sizes).
  const Bitmap* small = &join_at_l;
  const Bitmap* large = &join_at_l_prime;
  if (small->size() > large->size()) std::swap(small, large);

  PointToPointPersistentEstimate est;
  est.m = small->size();
  est.m_prime = large->size();

  // Second level: §IV expands the smaller first-level join to m' and ORs
  // across locations.  Replication preserves the zero fraction, and the
  // fused kernel counts the OR's zeros directly off the two joins, so
  // neither S_* nor E''_* is ever built.
  auto union_zeros = tiled_or_count_zeros(*small, *large, large->size());
  if (!union_zeros) return union_zeros.status();

  const double m = static_cast<double>(est.m);
  const double m_prime = static_cast<double>(est.m_prime);

  est.v0 = small->fraction_zeros();
  est.v0_prime = large->fraction_zeros();
  est.v0_double_prime =
      static_cast<double>(*union_zeros) / static_cast<double>(est.m_prime);
  if (est.v0 == 0.0 || est.v0_prime == 0.0) {
    est.outcome = EstimateOutcome::kSaturated;
  }
  const double v0 = std::max(est.v0, 1.0 / m);
  const double v0p = std::max(est.v0_prime, 1.0 / m_prime);
  // The OR of two saturated inputs is saturated too; clamp identically.
  const double v0pp = std::max(est.v0_double_prime, 1.0 / m_prime);

  est.n = std::log(v0) / log_one_minus_inv(m);          // Eq. 13
  est.n_prime = std::log(v0p) / log_one_minus_inv(m_prime);

  // Eq. 19/21: E[V''_0] = (1 + 1/(s·m' − s))^{n''} · V_0 · V'_0.
  const double log_excess = std::log(v0pp) - std::log(v0) - std::log(v0p);
  if (log_excess < 0.0) {
    // Fewer zeros survive the OR than two independent joins would leave;
    // no non-negative n'' explains the data.  (Saturation, if flagged
    // above, is the more actionable diagnosis - keep it.)
    if (est.outcome == EstimateOutcome::kOk) {
      est.outcome = EstimateOutcome::kDegenerate;
    }
    est.n_double_prime = 0.0;
    return est;
  }
  const double s_count = static_cast<double>(options.s);
  if (options.exact_log) {
    est.n_double_prime =
        log_excess / std::log1p(1.0 / (s_count * m_prime - s_count));
  } else {
    est.n_double_prime = s_count * m_prime * log_excess;  // Eq. 21
  }
  return est;
}

Result<PointToPointPersistentEstimate> estimate_p2p_persistent(
    std::span<const Bitmap> records_at_l,
    std::span<const Bitmap> records_at_l_prime,
    const PointToPointOptions& options) {
  std::vector<const Bitmap*> ptrs_l, ptrs_lp;
  ptrs_l.reserve(records_at_l.size());
  for (const Bitmap& b : records_at_l) ptrs_l.push_back(&b);
  ptrs_lp.reserve(records_at_l_prime.size());
  for (const Bitmap& b : records_at_l_prime) ptrs_lp.push_back(&b);
  return estimate_p2p_persistent(std::span<const Bitmap* const>(ptrs_l),
                                 std::span<const Bitmap* const>(ptrs_lp),
                                 options);
}

}  // namespace ptm
