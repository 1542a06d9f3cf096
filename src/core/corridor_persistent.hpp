// corridor_persistent.hpp - k-location persistent traffic (extension).
//
// The paper measures persistent traffic through ONE location (Eq. 12) and
// between TWO (Eq. 21).  Planners also ask the corridor question: how many
// vehicles pass through ALL of locations L_1..L_k in every period - the
// stable flow along a route.  This module derives and implements the
// natural k-location generalization of §IV's estimator.
//
// Derivation (extends §IV-B's argument; reduces to Eq. 21 at k = 2):
// sort locations so m_1 <= ... <= m_k (powers of two), AND-join each
// location's periods into E_j, expand everything to m_k, and OR-join into
// E^∪.  For one bit index i:
//
//  * transients at location j miss it with prob (1 − 1/m_j)^(n_j − n'');
//  * a corridor-common vehicle chooses a representative r_j ~ U{1..s}
//    independently at each location.  Distinct representatives have
//    independent uniform raw hashes, and because the m_j are nested powers
//    of two, one representative used at a SET of locations hits bit i at
//    some location in the set iff its hash ≡ i (mod min m_j of the set) -
//    probability 1/min(m).  Hence
//
//      A = E over random maps {1..k} -> {1..s}
//            [ Π over occupied representatives (1 − 1/m_min(its locations)) ]
//
//    and P(bit stays 0) = A^{n''} · Π_j (1 − 1/m_j)^{n_j − n''}.
//
// Writing V_j0 for E_j's zero fraction and B = A / Π_j (1 − 1/m_j) >= 1:
//
//      E[V^∪_0] = B^{n''} · Π_j V_j0
//      n̂''     = ( ln V^∪_0 − Σ_j ln V_j0 ) / ln B.
//
// At k = 2, B = 1 + 1/(s·(m_2 − 1)), i.e. exactly the paper's
// (1 + 1/(s·m' − s)) factor of Eq. 19 - the published estimator is the
// special case.  A is computed by exact enumeration of the s^k
// representative maps (k is a route length; bounded to keep s^k small).
#pragma once

#include <span>
#include <vector>

#include "common/bitmap.hpp"
#include "common/status.hpp"
#include "core/linear_counting.hpp"

namespace ptm {

struct CorridorPersistentEstimate {
  double n_corridor = 0.0;  ///< estimated vehicles through ALL k locations
  EstimateOutcome outcome = EstimateOutcome::kOk;
  std::vector<std::size_t> m;      ///< per-location first-level sizes (sorted)
  std::vector<double> v0;          ///< per-location zero fractions (same order)
  double v0_union = 0.0;           ///< zero fraction of the OR-join
  double log_b = 0.0;              ///< ln B of the derivation
};

/// Estimates the corridor persistent volume across k >= 2 locations.
/// `records_per_location[j]` holds location j's per-period records (all
/// sizes powers of two; per-location period counts may differ).
/// Constraints: 2 <= k <= 8 and s^k <= 2^20 (exact enumeration of A).
/// Outcomes as in the pairwise estimator (kDegenerate clamps at 0).
[[nodiscard]] Result<CorridorPersistentEstimate> estimate_corridor_persistent(
    std::span<const std::vector<Bitmap>> records_per_location, std::size_t s);

/// Zero-copy overload over stored records.  First-level joins use the
/// lazy-expansion kernels and the union accumulates through or_with_tiled,
/// so no expanded record or join copy is materialized.
[[nodiscard]] Result<CorridorPersistentEstimate> estimate_corridor_persistent(
    std::span<const std::vector<const Bitmap*>> records_per_location,
    std::size_t s);

/// The second level alone, over each location's first-level AND-join
/// (the `and_join_pooled` of its records), in corridor order.  Both
/// overloads above end here, so a caller that computes the joins where the
/// records live - the cluster coordinator gathers one join per partition
/// owner - gets a bit-identical estimate.  Same constraints on k and s;
/// join sizes must be powers of two >= 2.
[[nodiscard]] Result<CorridorPersistentEstimate>
estimate_corridor_persistent_from_joins(
    std::span<const Bitmap* const> joins_per_location, std::size_t s);

/// The ln B factor alone (exposed for tests: at k = 2 it must equal
/// ln(1 + 1/(s·(m2 − 1)))).  `sizes` must be sorted ascending powers of two.
[[nodiscard]] Result<double> corridor_log_b(std::span<const std::size_t> sizes,
                                            std::size_t s);

}  // namespace ptm
