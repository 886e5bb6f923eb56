#ifndef RANKHOW_LP_SIMPLEX_H_
#define RANKHOW_LP_SIMPLEX_H_

/// \file simplex.h
/// A dense two-phase primal simplex solver. This is the LP engine under
/// everything in the repository: the MILP branch-and-bound relaxations
/// (RankHow), the TREE baseline's feasibility checks, and the ordinal
/// regression baseline.
///
/// Scope: dense tableau, Dantzig pricing with automatic fallback to Bland's
/// rule under degeneracy (guaranteeing termination), arbitrary variable
/// bounds compiled to standard form. Designed for the moderate LP sizes this
/// system produces (thousands of rows/columns), not for sparse industrial
/// LPs — see DESIGN.md "Substitutions".

#include <cmath>
#include <cstddef>

#include "lp/model.h"
#include "util/status.h"

namespace rankhow {

/// Tolerances and limits of both simplex engines: SimplexSolver below and
/// IncrementalLp (lp/incremental.h) read these same constants, so the two
/// cannot drift apart.
///
/// Entries smaller than this are treated as zero when pivoting.
inline constexpr double kPivotTol = 1e-9;
/// Reduced-cost optimality tolerance.
inline constexpr double kCostTol = 1e-9;
/// Phase-1 objective above this value declares infeasibility.
inline constexpr double kPhase1Tol = 1e-7;
/// Consecutive non-improving pivots before switching to Bland's rule.
inline constexpr int kDegenerateLimit = 128;
/// Anti-degeneracy: every inequality row is relaxed by a deterministic,
/// row-dependent jitter of about this absolute magnitude. Relaxation only
/// ever ENLARGES the feasible region, so infeasibility verdicts stay exact
/// and minimization objectives remain valid lower bounds; returned points
/// can violate original rows by at most this amount (far below the
/// post-solve check tolerance).
inline constexpr double kDegeneracyJitter = 1e-9;

/// Row `row`'s jitter: kDegeneracyJitter times a golden-ratio sequence in
/// [0.5, 1). Absolute on purpose: the OPT builder encodes semantic
/// thresholds (ε₁ − ε) that an rhs-proportional perturbation could swamp.
inline double DegeneracyJitter(size_t row) {
  const double phi =
      0.5 + 0.5 * std::fmod(0.6180339887498949 * (row + 1), 1.0);
  return kDegeneracyJitter * phi;
}

/// Hard cap on the pivots of one solve over a tableau with `rows` rows and
/// `cols` columns, scaled with the tableau; a solve that reaches it returns
/// kResourceExhausted.
inline int SimplexIterationCap(int rows, int cols) {
  return 20 * (rows + cols) + 5000;
}

/// Solves LpModels. Stateless and reusable; safe to share across solves.
///
/// Error codes: kInfeasible, kUnbounded, kResourceExhausted (iteration cap
/// or deadline), kInvalidArgument (malformed model).
class SimplexSolver {
 public:
  /// `deadline_seconds`: wall-clock cap per Solve (0 = none), checked every
  /// pivot. Exceeding it returns kResourceExhausted.
  explicit SimplexSolver(double deadline_seconds = 0)
      : deadline_seconds_(deadline_seconds) {}

  Result<LpSolution> Solve(const LpModel& model) const;

  /// Convenience: feasibility check only (zero objective). Returns a feasible
  /// point, kInfeasible, or another error.
  Result<std::vector<double>> FindFeasiblePoint(const LpModel& model) const;

 private:
  double deadline_seconds_;
};

}  // namespace rankhow

#endif  // RANKHOW_LP_SIMPLEX_H_
