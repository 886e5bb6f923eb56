#ifndef RANKHOW_CORE_PRESOLVE_H_
#define RANKHOW_CORE_PRESOLVE_H_

/// \file presolve.h
/// Multi-start primal presolve for OPT: before the exact search starts,
/// sample candidate weight vectors (regression seeds, simplex corners,
/// random simplex points blended into the feasible box) and refine the best
/// ones with pairwise mass-transfer local search. The winner becomes the
/// initial branch-and-bound incumbent.
///
/// Why this matters: the OPT objective is integral, so an incumbent equal to
/// the root lower bound closes the tree instantly. In particular, whenever
/// the given ranking is linearly realizable (error 0), a presolve hit turns
/// an hours-long exact search into a constant-time optimality proof — the
/// same effect Gurobi gets from its own primal heuristics, which the paper's
/// Section III-B credits for the MILP solver's speed.

#include <optional>
#include <vector>

#include "core/opt_problem.h"
#include "math/simplex_box.h"
#include "util/status.h"

namespace rankhow {

struct PresolveOptions {
  /// Wall-clock cap for the whole presolve (samples + refinement); 0 = none.
  double time_budget_seconds = 2.0;
};

struct PresolveResult {
  /// Best candidate found; empty when nothing feasible was seen.
  std::vector<double> weights;
  /// Its true OPT error under ε-tie semantics; -1 when nothing was found.
  long error = -1;
  int evaluated = 0;
  double seconds = 0;

  bool found() const { return error >= 0; }
};

/// The true OPT objective of `w` (Definition 3 under Definition 2's ε-tie
/// semantics), or nullopt when `w` violates the predicate P, a pairwise
/// order constraint, or a position-range constraint. This is the evaluation
/// the paper's verification step performs (in floating point; the exact
/// rational recheck lives in ranking/verifier.h).
std::optional<long> EvaluateTrueError(const OptProblem& problem,
                                      const std::vector<double>& w);

/// Runs the multi-start search over box ∩ simplex ∩ P. Never fails on "no
/// candidate found" — check `found()` on the result. Errors indicate
/// structural problems (invalid OPT instance, empty box).
Result<PresolveResult> PresolveIncumbent(const OptProblem& problem,
                                         const WeightBox& box,
                                         const PresolveOptions& options = {});

/// The SolveSession reuse path: instead of multi-starting cold, re-evaluate
/// a pool of previously found weight vectors against the (edited) problem —
/// a tightening edit keeps many of them feasible, a relaxing edit keeps all
/// of them — and give the best survivor a short local-search refinement
/// (the edit may have moved the optimum a small mass transfer away).
/// Entries that became infeasible are skipped, not errors. found() is false
/// when nothing in the pool survives; the caller then falls back to
/// PresolveIncumbent.
Result<PresolveResult> RevalidateIncumbents(
    const OptProblem& problem, const WeightBox& box,
    const std::vector<std::vector<double>>& pool,
    const PresolveOptions& options = {});

}  // namespace rankhow

#endif  // RANKHOW_CORE_PRESOLVE_H_
