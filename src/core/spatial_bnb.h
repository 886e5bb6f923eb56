#ifndef RANKHOW_CORE_SPATIAL_BNB_H_
#define RANKHOW_CORE_SPATIAL_BNB_H_

/// \file spatial_bnb.h
/// An exact OPT strategy that branches on *weight space* instead of on
/// indicator variables: best-first branch-and-bound over axis-aligned boxes
/// of the simplex, bounding each box with the interval indicator fixing of
/// Section IV-A (the same structure SYM-GD exploits) and the per-tuple
/// "beats bracket" error bounds of Section IV-B.
///
/// Relationship to the paper's algorithms:
///  * The MILP branch-and-bound (milp/branch_and_bound.h) is the paper's
///    R"ANKHOW" solver — it branches on δ_sr like Gurobi does.
///  * TREE (baselines/tree.h) enumerates the hyperplane-arrangement cells
///    with one LP per cell and no cross-branch pruning.
///  * SpatialBnb sits between them: like TREE it works in weight space, but
///    like the MILP solver it keeps a global incumbent and prunes whole
///    subtrees by bound — the "holistic reasoning" Section III-B credits for
///    the MILP solver's advantage. For few attributes (the dimension of the
///    box subdivision) it is dramatically faster than branching on the
///    O(kn) indicators; for many attributes the subdivision curse flips the
///    comparison. RankHowOptions::strategy == kAuto picks per instance, and
///    bench_ablations quantifies the crossover.
///
/// Semantics note: SpatialBnb optimizes the *true* ε-tie objective of
/// Definitions 2–4 (a pair beats iff its score difference exceeds ε). The
/// MILP path optimizes the (ε₂, ε₁)-gap relaxation of Section V-A, which
/// excludes weight vectors placing any pair inside the gap; its optimum can
/// therefore be marginally worse. Both are verified by the same exact
/// arithmetic.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/opt_problem.h"
#include "lp/incremental.h"
#include "math/simplex_box.h"
#include "util/status.h"

namespace rankhow {

/// Warm-started feasibility oracle for box ∩ simplex ∩ P queries. The LP's
/// *structure* (weight variables, the Σw = 1 row, the predicate-P rows) is
/// box-independent — only the variable bounds change between queries — so
/// one compiled IncrementalLp serves every box of a subdivision, and every
/// cell of a SYM-GD sweep, resolving each adjacent query from the previous
/// basis in a few dual pivots. See DESIGN.md "Incremental LP architecture".
class BoxFeasibilityOracle {
 public:
  BoxFeasibilityOracle(int num_attributes,
                       const WeightConstraintSet& constraints);

  /// A point of box ∩ simplex ∩ P, kInfeasible when that region is empty,
  /// or another LP error.
  Result<std::vector<double>> FeasiblePoint(const WeightBox& box);

  /// The constraint-set revision the oracle was compiled at (cache validity
  /// check: any Add/Remove on the set bumps the revision, so holders rebuild
  /// on mismatch — see WeightConstraintSet::revision).
  uint64_t constraints_revision() const { return constraints_revision_; }
  const IncrementalLpStats& stats() const { return lp_.stats(); }

 private:
  int num_attributes_;
  uint64_t constraints_revision_;
  IncrementalLp lp_;
};

struct SpatialBnbOptions {
  /// Wall-clock budget; 0 = unlimited.
  double time_limit_seconds = 0;
  /// Box-expansion cap; 0 = unlimited.
  int64_t max_boxes = 0;
  /// Per-box P-feasibility LPs through a warm-started BoxFeasibilityOracle
  /// (default) instead of building + cold-solving an LpModel per box.
  bool use_warm_start = true;
  /// Parallel subdivision: workers pull boxes from a sharded best-first
  /// frontier, each owning a private BoxFeasibilityOracle (the oracle's
  /// tableau is not thread-safe, and adjacent pops on one worker still
  /// warm-start each other), and publish incumbents through a shared
  /// SearchCoordinator. 1 = serial (default), 0 = all hardware threads.
  /// With > 1 worker an injected SetOracle oracle is ignored — cross-cell
  /// basis sharing is a serial-sweep optimization.
  int num_threads = 1;
  /// Warm-start incumbent (e.g. from presolve); empty = none.
  std::vector<double> initial_weights;
  /// Externally proven lower bound on the true ε-tie optimum over the root
  /// box (errors are non-negative, so 0 is the no-op default). Seeds the
  /// root's bound the same way BnbOptions::external_lower_bound does for the
  /// indicator MILP: a session re-solve after a tightening edit closes at
  /// the root when a pooled incumbent already meets the old proven optimum.
  /// Soundness is the caller's obligation.
  long external_lower_bound = 0;
  /// Cooperative external cancellation (see SearchCoordinator): workers
  /// poll this alongside the deadline and wind down within one box,
  /// reporting the result as budget-limited. nullptr = never cancelled.
  /// The flag must outlive the solve.
  const std::atomic<bool>* cancel = nullptr;
};

struct SpatialBnbStats {
  int64_t boxes_explored = 0;
  int64_t boxes_pruned_bound = 0;
  int64_t boxes_pruned_infeasible = 0;
  int64_t incumbent_updates = 0;
  /// Boxes that hit the width floor (kMinBoxWidth in spatial_bnb.cc) with
  /// bound < evaluation — the only source of proof loss (see
  /// proven_optimal).
  int64_t floor_misses = 0;
  /// P-feasibility LP queries and the simplex pivots they cost (zero when P
  /// has no general rows — pure box/simplex feasibility needs no LP at
  /// all). lp_warm_solves counts oracle resolves from a persisted basis;
  /// lp_cold_solves counts the oracle's first solve and every per-box cold
  /// SimplexSolver query (the oracle's rebuilds are not counted here).
  int64_t lp_solves = 0;
  int64_t lp_pivots = 0;
  int64_t lp_warm_solves = 0;
  int64_t lp_cold_solves = 0;
  double seconds = 0;
};

struct SpatialBnbResult {
  /// Best weights found; empty if no feasible point was ever evaluated.
  std::vector<double> weights;
  /// True ε-tie OPT error of `weights`; -1 if none found.
  long error = -1;
  /// Proven lower bound on the optimum over the searched region.
  long bound = 0;
  /// True iff the search completed with bound == error and no floor miss
  /// below the incumbent.
  bool proven_optimal = false;
  SpatialBnbStats stats;
};

/// Weight-space exact solver for an OPT instance. Supports the full problem:
/// predicate P (box bounds natively; general rows via per-box LP feasibility
/// pruning), pairwise order constraints, and position-range constraints.
class SpatialBnb {
 public:
  SpatialBnb(const OptProblem& problem, SpatialBnbOptions options)
      : problem_(problem), options_(std::move(options)) {}

  /// Injects a shared feasibility oracle (non-owning; must outlive Solve).
  /// RankHow passes one oracle across a whole SYM-GD cell sweep so adjacent
  /// cells warm-start each other; without it Solve builds its own per call.
  void SetOracle(BoxFeasibilityOracle* oracle) { external_oracle_ = oracle; }

  /// Solves over `box` ∩ simplex ∩ P. kInfeasible when that region is empty.
  Result<SpatialBnbResult> Solve(const WeightBox& box) const;

 private:
  const OptProblem& problem_;
  SpatialBnbOptions options_;
  BoxFeasibilityOracle* external_oracle_ = nullptr;
};

}  // namespace rankhow

#endif  // RANKHOW_CORE_SPATIAL_BNB_H_
