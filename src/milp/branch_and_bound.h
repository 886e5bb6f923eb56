#ifndef RANKHOW_MILP_BRANCH_AND_BOUND_H_
#define RANKHOW_MILP_BRANCH_AND_BOUND_H_

/// \file branch_and_bound.h
/// A best-first branch-and-bound MILP solver over MilpModel. This is the
/// "holistic solver" the paper's Section III-B argues for: LP-relaxation
/// lower bounds, most-fractional branching, and — crucially — a global
/// incumbent that lets results from one part of the search space prune
/// others (the cross-branch information passing the PTIME TREE algorithm
/// lacks). RankHow plugs in a primal heuristic that converts any node's
/// fractional weight vector into a true feasible ranking error, which keeps
/// the incumbent tight from the first node on.

#include <atomic>
#include <functional>
#include <optional>
#include <vector>

#include "lp/incremental.h"
#include "milp/milp_model.h"
#include "util/status.h"
#include "util/timer.h"

namespace rankhow {

/// A candidate solution proposed by a primal heuristic: a *true feasible*
/// objective value and the assignment achieving it.
struct PrimalCandidate {
  double objective;
  std::vector<double> values;
};

/// Callback invoked on each node's LP-relaxation solution. Returning a
/// candidate updates the incumbent when it improves. The candidate's
/// objective MUST be attainable by a genuinely feasible solution (it is
/// used to prune). With num_threads > 1 the callback is invoked
/// concurrently from several workers, so it must be thread-safe (pure
/// functions of lp_values, like RankHow's true-error evaluation, are).
using PrimalHeuristic = std::function<std::optional<PrimalCandidate>(
    const std::vector<double>& lp_values)>;

struct BnbOptions {
  /// Wall-clock budget; 0 = unlimited.
  double time_limit_seconds = 0;
  /// Node cap; 0 = unlimited.
  int64_t max_nodes = 0;
  /// When true, LP bounds are tightened to ceil(bound - tol). Position-based
  /// ranking error is integral, so RankHow always sets this.
  bool objective_is_integral = false;
  /// Lazy row generation (default): node LPs start from the core LP and
  /// pull in indicator big-M rows, strengthening cuts, and binary upper
  /// bounds only when an LP iterate violates them. Disabling puts every row
  /// in every node LP — the classical full relaxation (ablation A-lazy).
  bool lazy_separation = true;
  /// Warm-start incumbent objective (e.g. from a seed heuristic);
  /// +inf = none.
  double initial_incumbent = kInfinity;
  /// Assignment matching initial_incumbent (may be empty).
  std::vector<double> initial_values;
  /// Externally proven lower bound on the optimum; -inf = none. Seeds the
  /// root node's bound, so every node bound is lifted to at least this
  /// value — when the initial incumbent already meets it, the tree closes
  /// at the root with zero nodes explored. SolveSession passes the previous
  /// solve's proven optimum here after a constraints-only tightening edit
  /// (the feasible set shrank and the objective is unchanged, so the old
  /// optimum cannot be undercut). Soundness is the caller's obligation: a
  /// value above the true optimum makes the search "prove" a wrong bound.
  double external_lower_bound = -kInfinity;
  /// Node LPs via one shared IncrementalLp per tree (default): per-node
  /// deltas (bound flips + active lazy-row set) are applied to a persistent
  /// tableau and re-optimized dually from the parent basis, instead of
  /// copying the core LpModel and cold-starting two-phase simplex at every
  /// node. Disabling restores the legacy cold path (the cross-check oracle;
  /// also the per-node fallback after numerical trouble).
  bool use_warm_start = true;
  /// Parallel tree search: workers pull nodes from a sharded best-first
  /// frontier, each owning a private warm IncrementalLp (bases are only
  /// reused by the worker that exported them — tableaus materialize lazy
  /// rows in first-use order, so row ids are engine-local), and publish
  /// incumbents through a shared SearchCoordinator. 1 = the classic serial
  /// search (and bit-identical to it), 0 = all hardware threads. The proven
  /// optimum is thread-count independent; node/pivot counts are not.
  int num_threads = 1;
  /// Cooperative external cancellation (see SearchCoordinator): workers
  /// poll this alongside the deadline and wind down within one node,
  /// reporting the result as budget-limited. nullptr = never cancelled.
  /// The flag must outlive the solve.
  const std::atomic<bool>* cancel = nullptr;
};

struct BnbStats {
  int64_t nodes_explored = 0;
  /// Simplex iterations of the node LP solves that returned a solution
  /// (warm engine or cold SimplexSolver): their pivots plus, on the warm
  /// engine, primal bound-to-bound flips. Solves that ended infeasible or
  /// failed (pruned nodes, their rebuild re-checks) add nothing, so this is
  /// not the warm engine's total pivot count: that is the sum of the four
  /// lp_*_pivots counters below (perfbench's cold_milp: lp_iterations
  /// 6 397, pivots 34 + 7 062 + 311 + 3 618 = 11 025).
  /// bench_fig3jkl_scalability and bench_micro compare it between the warm
  /// and cold paths.
  int64_t lp_iterations = 0;
  int64_t incumbent_updates = 0;
  /// Lazy-separation rounds that added violated indicator rows (see
  /// branch_and_bound.cc's row generation).
  int64_t lazy_rounds = 0;
  /// Fully-fixed nodes dropped after unrecoverable LP failures; any drop
  /// downgrades proven_optimal (see branch_and_bound.cc).
  int64_t numerical_drops = 0;
  // ---- warm-start accounting (zero when use_warm_start is off) ----
  /// Node LP solves that reused the persistent tableau / a parent basis.
  int64_t lp_warm_solves = 0;
  /// Solves that started from the all-slack basis: each worker engine's
  /// first node. Rebuilds count in lp_rebuilds, not here.
  int64_t lp_cold_solves = 0;
  /// Every pivot the warm engine made, by kind, whatever the solve's
  /// outcome (bound flips and cold-fallback pivots are not pivots of the
  /// warm engine). Not a breakdown of lp_iterations: see above.
  int64_t lp_primal_pivots = 0;
  int64_t lp_dual_pivots = 0;
  int64_t lp_repair_pivots = 0;
  int64_t lp_import_pivots = 0;
  /// Tableau rebuilds forced by post-solve checks, high-growth pivots and
  /// infeasibility verdicts no Farkas certificate proved.
  int64_t lp_rebuilds = 0;
  /// Warm infeasibility verdicts accepted on a Farkas certificate.
  int64_t lp_certified_infeasible = 0;
  /// Nodes rerouted to the legacy SimplexSolver path after the warm engine
  /// reported numerical trouble.
  int64_t lp_fallback_solves = 0;
  double seconds = 0;
};

struct BnbResult {
  /// Best assignment found (size = model variables; empty if none).
  std::vector<double> values;
  /// Its objective.
  double objective = kInfinity;
  /// Proven global lower bound (minimization).
  double best_bound = -kInfinity;
  /// True iff objective == best_bound within kAbsGap (branch_and_bound.cc)
  /// and the search completed.
  bool proven_optimal = false;
  BnbStats stats;
};

/// Branch-and-bound solver. Minimizes the model's LP objective subject to
/// integrality of the declared binaries and the indicator semantics.
///
/// Errors: kInfeasible (no feasible assignment exists), kResourceExhausted
/// (limits hit with no incumbent), other codes propagate from the LP layer.
/// Hitting a limit *with* an incumbent is not an error: the result has
/// proven_optimal == false.
class BranchAndBound {
 public:
  explicit BranchAndBound(BnbOptions options = BnbOptions())
      : options_(std::move(options)) {}

  /// Optional primal heuristic consulted at every node.
  void SetPrimalHeuristic(PrimalHeuristic heuristic) {
    heuristic_ = std::move(heuristic);
  }

  Result<BnbResult> Solve(const MilpModel& model) const;

 private:
  BnbOptions options_;
  PrimalHeuristic heuristic_;
};

}  // namespace rankhow

#endif  // RANKHOW_MILP_BRANCH_AND_BOUND_H_
