// p2p_persistent.hpp - point-to-point persistent traffic estimator
// (paper §IV).
//
// Given per-period records {B_1..B_t} at location L and {B'_1..B'_t} at L',
// estimate n'' = |C ∩ C'|: the vehicles that pass BOTH locations in EVERY
// period.  Two-level join:
//
//   level 1 (within each location): expand to the location's max size and
//            AND-join -> E_* (size m) and E'_* (size m'), m <= m' w.l.o.g.;
//   level 2 (across locations): expand E_* to m' -> S_*, then E''_* =
//            S_* OR E'_* (OR because AND admits no closed-form estimator);
//
//   n̂'' = s·m'·( ln V''_*0 − ln V_*0 − ln V'_*0 )            (Eq. 21),
//
// where s is the representative count of the encoding: a common vehicle
// reuses the same representative at both locations with probability 1/s,
// which is exactly the correlation Eq. 21 inverts.
#pragma once

#include <span>

#include "common/bitmap.hpp"
#include "common/status.hpp"
#include "core/linear_counting.hpp"

namespace ptm {

struct PointToPointPersistentEstimate {
  double n_double_prime = 0.0;  ///< n̂'' - estimated p2p persistent volume
  EstimateOutcome outcome = EstimateOutcome::kOk;
  std::size_t m = 0;            ///< first-level size at the smaller location
  std::size_t m_prime = 0;      ///< first-level size at the larger location
  double v0 = 0.0;              ///< V_*0   - zero fraction of E_*
  double v0_prime = 0.0;        ///< V'_*0  - zero fraction of E'_*
  double v0_double_prime = 0.0; ///< V''_*0 - zero fraction of E''_*
  double n = 0.0;               ///< abstract cardinality at L (Eq. 13)
  double n_prime = 0.0;         ///< abstract cardinality at L' (Eq. 13)
};

struct PointToPointOptions {
  std::size_t s = 3;  ///< must match the encoding's representative count
  /// Eq. 21 uses ln(1+x) ≈ x (the paper's published estimator).  With
  /// `exact_log` the estimator divides by ln(1 + 1/(s·m' − s)) instead -
  /// numerically indistinguishable for large m', exposed for the ablation.
  bool exact_log = false;
};

/// Point-to-point persistent traffic estimator (Eq. 21).
///
/// Requirements: both spans non-empty, all sizes powers of two.  The spans
/// may have different lengths (the paper uses the same t at both locations,
/// but the math only needs each location's own join).  If L's first-level
/// size exceeds L''s, the two roles are swapped internally (the formula is
/// symmetric given m <= m').
/// Outcomes:
///  * kSaturated  - a first-level join is all ones (V0 clamped to 1 bit);
///  * kDegenerate - measured V''_*0 < V_*0 · V'_*0, i.e. the OR shows fewer
///                  zeros than independence would give and no n'' >= 0 fits;
///                  estimate clamped to 0.
[[nodiscard]] Result<PointToPointPersistentEstimate>
estimate_p2p_persistent(std::span<const Bitmap> records_at_l,
                        std::span<const Bitmap> records_at_l_prime,
                        const PointToPointOptions& options);

/// Zero-copy overload over stored records.  The first-level joins run the
/// lazy-expansion kernels (one accumulator each), and V''_0 is measured
/// with a fused tiled OR-count - neither S_* nor E''_* is materialized.
[[nodiscard]] Result<PointToPointPersistentEstimate>
estimate_p2p_persistent(std::span<const Bitmap* const> records_at_l,
                        std::span<const Bitmap* const> records_at_l_prime,
                        const PointToPointOptions& options);

/// The second level alone, over the two first-level joins E_* and E'_*
/// (each the `and_join_pooled` of one location's records).  Both
/// overloads above end here, so a caller that computes the joins where the
/// records live - the cluster coordinator gathers one join per partition
/// owner - gets a bit-identical estimate.  InvalidArgument unless both
/// join sizes are non-zero powers of two and s >= 1.
[[nodiscard]] Result<PointToPointPersistentEstimate>
estimate_p2p_persistent_from_joins(const Bitmap& join_at_l,
                                   const Bitmap& join_at_l_prime,
                                   const PointToPointOptions& options);

}  // namespace ptm
