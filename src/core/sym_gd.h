#ifndef RANKHOW_CORE_SYM_GD_H_
#define RANKHOW_CORE_SYM_GD_H_

/// \file sym_gd.h
/// Symbolic gradient descent (Section IV): "gradient descent on steroids".
/// From a seed weight vector, repeatedly find the TRUE optimum inside a cell
/// of size c around the current iterate (a small MILP — most indicators are
/// fixed by interval analysis inside a small cell), recenter, and repeat
/// until the error stops improving (Algorithm 1). The adaptive variant
/// doubles the cell size whenever the search stalls in a local optimum,
/// until the time budget runs out (Algorithm 2) or a stall at the largest
/// cell, 1.999, leaves nothing to grow.
///
/// SYM-GD is a local search, so the seed decides which basin it descends
/// into (Section IV's seed-strategy discussion). `RunPortfolio` buys
/// solution quality with idle cores: it races one descent per seed of a
/// diverse portfolio (regression fits, the grid lower-bound search, random
/// draws from disjoint Rng::SplitStream streams) across a thread pool
/// under one shared wall-clock budget, and returns the best verified
/// function plus every seed's trajectory.

#include <atomic>
#include <string>
#include <vector>

#include "core/rankhow.h"
#include "util/status.h"

namespace rankhow {

struct SymGdOptions {
  /// Cell size c (0 < c < 2); Algorithm 1 keeps it constant, Algorithm 2
  /// starts here.
  double cell_size = 0.1;
  /// Total wall-clock budget t_total; 0 = unlimited (Algorithm 1 only).
  double time_budget_seconds = 0;
  /// Run Algorithm 2 (cell doubling on convergence) instead of Algorithm 1.
  bool adaptive = false;
  /// Portfolio size for RunPortfolio: how many diverse seeds race. 1 gives
  /// a single ordinal-regression-seeded descent; Run(seed) ignores this.
  int num_seeds = 4;
  /// Optional cooperative kill switch: when non-null and set, the descent
  /// stops at the next iteration boundary as if the budget expired (used
  /// by the portfolio to wind down losers after a perfect seed wins).
  const std::atomic<bool>* external_stop = nullptr;
  /// Inner exact-solver configuration (epsilons, verification, limits).
  /// `solver.num_threads` is also the portfolio's race width; each racing
  /// descent then runs its inner solves serially (the portfolio already
  /// saturates the pool — nested parallelism would oversubscribe).
  RankHowOptions solver;
};

/// One portfolio member's outcome (also useful for convergence plots:
/// which basin each seed descended into, and how fast).
struct SeedRun {
  /// Seed strategy name: "ordinal", "linear", "grid", "random-<i>".
  std::string seed_name;
  std::vector<double> seed_weights;
  /// Verified error the descent reached; -1 when the run failed or the
  /// budget expired before its first cell solve.
  long error = -1;
  int iterations = 0;
  std::vector<long> error_trajectory;
  double seconds = 0;
};

struct SymGdResult {
  ScoringFunction function;
  /// Verified position error of the returned function.
  long error = 0;
  /// Descent steps taken (cell solves; portfolio: the winning seed's).
  int iterations = 0;
  /// error after each solve, for convergence plots (portfolio: winner's).
  std::vector<long> error_trajectory;
  /// Final cell size (grows under Algorithm 2).
  double final_cell_size = 0;
  double seconds = 0;
  /// Aggregate MILP statistics across all cell solves (portfolio: summed
  /// over every racing descent, not just the winner).
  long total_nodes = 0;
  long total_free_indicators = 0;
  /// Aggregate LP effort across all cell solves: BnbStats::lp_iterations
  /// (iterations of the node LP solves that returned a solution, not every
  /// pivot) and the warm/cold solve split — the figures bench_fig3jkl uses
  /// to quantify the warm-start win.
  long total_lp_pivots = 0;
  long total_lp_warm_solves = 0;
  long total_lp_cold_solves = 0;
  /// BnbStats::lp_rebuilds and lp_certified_infeasible, summed the same way.
  long total_lp_rebuilds = 0;
  long total_lp_certified_infeasible = 0;
  /// Per-seed trajectories (RunPortfolio only; index 0 is the winner's
  /// seed order position, not its rank).
  std::vector<SeedRun> portfolio;
  /// Which portfolio member won (index into `portfolio`; -1 for Run).
  int winning_seed = -1;
};

/// The SYM-GD optimizer over a fixed problem instance.
class SymGd {
 public:
  SymGd(const Dataset& data, const Ranking& given,
        SymGdOptions options = SymGdOptions());

  /// Access the problem to add constraints (shared with the inner solver).
  OptProblem& problem() { return solver_.problem(); }

  /// Runs the descent from a seed weight vector (must lie on the simplex).
  /// A seed outside the weight bounds of problem().constraints is first
  /// moved into them (BlendIntoBox toward AnyPointOnSimplexBox).
  Result<SymGdResult> Run(const std::vector<double>& seed) const;

  /// Multi-seed portfolio race (see the file comment): builds
  /// `options.num_seeds` diverse seeds, runs one descent per seed across
  /// `options.solver.num_threads` pool workers, and returns the best
  /// verified function with all trajectories attached. One
  /// time_budget_seconds covers building the seeds and the race. Fails
  /// only if *every* seed fails.
  Result<SymGdResult> RunPortfolio() const;

 private:
  SymGdOptions options_;
  RankHow solver_;
};

}  // namespace rankhow

#endif  // RANKHOW_CORE_SYM_GD_H_
