#ifndef RANKHOW_CORE_OPT_PROBLEM_H_
#define RANKHOW_CORE_OPT_PROBLEM_H_

/// \file opt_problem.h
/// The OPT problem instance (Definition 4): a dataset, a given ranking π, a
/// weight predicate P, the numerical-gap parameters (ε, ε₁, ε₂), and the
/// optional rank-position side constraints of Example 1.

#include <cmath>
#include <limits>
#include <vector>

#include "ranking/objective.h"
#include "core/weight_constraints.h"
#include "data/dataset.h"
#include "ranking/ranking.h"

namespace rankhow {

/// The ε machinery of Definition 2 and Section V-A.
struct EpsilonConfig {
  /// ε of Definition 2: tie tolerance used when *evaluating/verifying* a
  /// score-based ranking (two scores within ε tie).
  double tie_eps = 0.0;
  /// ε₁ of Equation (2): δ = 1 requires f(s) − f(r) >= ε₁.
  double eps1 = 1e-9;
  /// ε₂ of Equation (2): δ = 0 requires f(s) − f(r) <= ε₂.
  double eps2 = 0.0;

  /// Lemma 2/3 sanity: all three finite, ε₂ < ε₁ and ε₂ <= ε < ε₁ (so
  /// verified indicator values are consistent with the ε-tie semantics).
  bool Valid() const {
    return std::isfinite(tie_eps) && std::isfinite(eps1) &&
           std::isfinite(eps2) && eps2 < eps1 && eps2 <= tie_eps &&
           tie_eps < eps1;
  }
};

/// "Tuple X must be placed between positions lo and hi" (Example 1: the
/// number-1 player must stay at position 1; every top-100 player within
/// ±10% of its position).
struct PositionConstraint {
  int tuple = -1;
  int min_position = 1;
  int max_position = std::numeric_limits<int>::max();
};

/// "Tuple `above` must outscore tuple `below`" (Example 1: Jokić above
/// Tatum). Compiled as the linear weight constraint w·(above−below) >= ε₁,
/// so it needs no indicator variables.
struct PairwiseOrderConstraint {
  int above = -1;
  int below = -1;
};

/// Example 1's relative band constraint, as a batch: "for all tuples ranked
/// 1 to `limit`, a tuple ranked i-th in the given ranking must be ranked in
/// range ⌊lo_frac·i⌋ to ⌈hi_frac·i⌉" (lower bounds clamp to 1). Appends one
/// PositionConstraint per affected tuple.
///
/// Errors: kInvalidArgument when the fractions are non-positive or
/// lo_frac > hi_frac.
Status AppendRelativePositionBand(const Ranking& given, double lo_frac,
                                  double hi_frac, int limit,
                                  std::vector<PositionConstraint>* out);

/// A full OPT instance. Non-owning views: dataset and ranking must outlive
/// the problem.
struct OptProblem {
  const Dataset* data = nullptr;
  const Ranking* given = nullptr;
  WeightConstraintSet constraints;  // the predicate P
  EpsilonConfig eps;
  /// What to minimize (Definition 3 by default; Sec. I's inversion-based
  /// and top-weighted variants are selectable).
  RankingObjectiveSpec objective;
  std::vector<PositionConstraint> position_constraints;
  std::vector<PairwiseOrderConstraint> order_constraints;

  /// Structural validation (sizes, ε ordering, constraint tuple ids).
  Status Validate() const;
};

}  // namespace rankhow

#endif  // RANKHOW_CORE_OPT_PROBLEM_H_
