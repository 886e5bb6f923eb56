#ifndef RANKHOW_CORE_RANKHOW_H_
#define RANKHOW_CORE_RANKHOW_H_

/// \file rankhow.h
/// The RANKHOW exact solver (Sections III and V of the paper): synthesize a
/// linear scoring function minimizing position-based error against a given
/// ranking, under flexible weight constraints, by solving the Equation-(2)
/// MILP holistically with branch-and-bound — with dominance/interval
/// pruning, tight big-M, a true-error primal heuristic supplying the
/// cross-branch incumbents, and exact-arithmetic verification of the result.
///
/// Typical use:
///   RankHow solver(data, given_ranking, options);
///   solver.problem().constraints.AddMinWeight(pts_index, 0.1);
///   auto result = solver.Solve();
///   std::cout << result->function.ToString() << "  error=" << result->error;

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "core/opt_model_builder.h"
#include "core/opt_problem.h"
#include "core/presolve.h"
#include "core/scoring_function.h"
#include "core/spatial_bnb.h"
#include "milp/branch_and_bound.h"
#include "ranking/verifier.h"
#include "util/status.h"
#include "util/timer.h"

namespace rankhow {

/// Which exact search runs under RankHow::Solve.
enum class SolveStrategy {
  /// Pick per instance: spatial subdivision when the weight-space dimension
  /// is small and the pair count moderate, indicator MILP otherwise.
  kAuto,
  /// The paper's Equation-(2) MILP, solved by branch-and-bound on the δ
  /// indicator variables (what Gurobi does).
  kIndicatorMilp,
  /// Weight-space branch-and-bound (core/spatial_bnb.h): exact under the
  /// true ε-tie semantics, fastest for few attributes.
  kSpatial,
  /// The Section III-A alternative the paper sketches for SMT solvers (Z3):
  /// convert OPT into a series of satisfiability problems and binary-search
  /// the smallest error bound E for which `Equation-(2) constraints ∧
  /// objective <= E` admits a solution. Each probe is a feasibility MILP.
  /// Exact like kIndicatorMilp but typically slower (infeasible probes must
  /// exhaust their search tree) — measured in bench_ablations (A9).
  kSatBinarySearch,
};

const char* SolveStrategyName(SolveStrategy strategy);

struct RankHowOptions {
  EpsilonConfig eps;
  SolveStrategy strategy = SolveStrategy::kAuto;
  /// Wall-clock budget for one solve; 0 = unlimited.
  double time_limit_seconds = 0;
  /// Branch-and-bound node cap; 0 = unlimited.
  int64_t max_nodes = 0;
  /// Run the multi-start presolve (core/presolve.h) to warm-start the exact
  /// search with a strong incumbent. Skipped when the caller supplies
  /// initial weights (SYM-GD's iterates) — those play the same role.
  bool use_presolve = true;
  PresolveOptions presolve;
  /// Evaluate the true error of each node's weight vector as an incumbent
  /// (Sec. III-B's "cross-branch information"). Disabling this is the
  /// "naive TREE-like solver" ablation.
  bool use_primal_heuristic = true;
  /// Substitute interval-fixed indicators as constants (Sec. V-B pruning).
  bool use_indicator_fixing = true;
  /// Add mutual-exclusion + transitivity strengthening rows (tighter LP
  /// bounds at the cost of larger node LPs).
  bool use_strengthening_cuts = true;
  /// Lazy row generation in the MILP branch-and-bound (see BnbOptions).
  /// Disabling is the full-relaxation ablation.
  bool use_lazy_separation = true;
  /// Warm-started incremental node LPs (see BnbOptions::use_warm_start and
  /// lp/incremental.h): branch-and-bound resolves each node from its
  /// parent's basis on one shared tableau, and the spatial strategy reuses
  /// one box-feasibility LP across boxes/cells. Disabling restores the
  /// cold-start engines (the equivalence oracle).
  bool use_warm_start = true;
  /// Tight per-pair big-M from the simplex-box support function (default).
  /// Disabling lets the relaxation auto-derive loose Ms from variable
  /// bounds — the textbook formulation the paper implicitly improves on.
  bool use_tight_big_m = true;
  /// Re-compute the final error in exact arithmetic (Sec. V-A).
  bool verify = true;
  /// Worker threads for the exact searches (both the indicator MILP and
  /// the spatial subdivision) and for the SYM-GD seed portfolio: 1 =
  /// serial (default), 0 = all hardware threads, n = exactly n. Thread
  /// count never changes which optimum is *proven* — only how fast — but
  /// node/pivot counts and unproven incumbents under a budget can differ.
  int num_threads = 1;
  /// Cooperative cancellation: when non-null, the exact searches poll this
  /// flag at node/box/probe granularity (through SearchCoordinator) and
  /// wind down exactly like a deadline expiry — a budget-limited result,
  /// never an error. The session server points this at the per-client
  /// cancel flag so cancelling one client aborts its in-flight solve
  /// without touching siblings on the same pool. The flag must outlive the
  /// solve. The multi-start presolve does not poll it (its own clamped
  /// time budget bounds the latency instead).
  const std::atomic<bool>* cancel = nullptr;
  /// Capacity of SolveSession's cross-query incumbent pool. Overflow does
  /// dominated-entry eviction rather than pure recency (see DESIGN.md
  /// "Session architecture"), so long tighten runs keep low-error anchors
  /// warm for later relax edits.
  int incumbent_pool_cap = 8;
};

struct RankHowResult {
  ScoringFunction function;
  /// Position-based error of `function` — exact-arithmetic value when
  /// verification is on, otherwise the solver's claimed objective.
  long error = 0;
  /// The objective the solver claimed for its solution.
  long claimed_error = 0;
  /// Proven lower bound on the optimum.
  long bound = 0;
  /// True iff the exact search completed (bound == claimed objective).
  bool proven_optimal = false;
  /// Which strategy actually ran (resolves kAuto).
  SolveStrategy strategy_used = SolveStrategy::kIndicatorMilp;
  /// Present when options.verify; consistent == false flags a numerical
  /// false positive (Table III's phenomenon).
  std::optional<VerificationReport> verification;
  BnbStats stats;
  long num_free_indicators = 0;
  long num_fixed_indicators = 0;
  /// Satisfiability probes issued (kSatBinarySearch only).
  long sat_probes = 0;
  double seconds = 0;
};

/// Warm state threaded into one exact solve — how SolveSession (and RankHow
/// itself) passes cross-query knowledge into the per-strategy drivers.
struct ExactSolveSeed {
  /// Warm incumbent weights (empty = none): the presolve winner, a SYM-GD
  /// iterate, or the best revalidated pool incumbent of a session.
  std::vector<double> warm_weights;
  /// Externally proven lower bound on the current problem's optimum under
  /// the target strategy's semantics; -1 = none. Sound after a
  /// constraints-only tightening edit of a proven solve (see
  /// BnbOptions::external_lower_bound).
  long lower_bound = -1;
  /// Shared warm box-feasibility oracle for serial spatial solves
  /// (non-owning; nullptr = the search compiles its own).
  BoxFeasibilityOracle* box_oracle = nullptr;
};

/// Presolve options clamped to the solve's time budget: both façades cap
/// warm-start discovery (multi-start presolve, session pool revalidation)
/// at a quarter of the time limit so the exact search keeps the lion's
/// share.
PresolveOptions ClampedPresolveOptions(const RankHowOptions& options,
                                       const Deadline& deadline);

/// Rebuilds (on constraint-set revision mismatch) and returns the
/// cross-query warm box-feasibility oracle serial spatial solves thread
/// through ExactSolveSeed::box_oracle, or nullptr when the solve is
/// parallel or cold-start (each worker then compiles its own).
BoxFeasibilityOracle* EnsureWarmBoxOracle(
    const OptProblem& problem, const RankHowOptions& options,
    std::unique_ptr<BoxFeasibilityOracle>* slot);

/// Per-strategy exact drivers shared by the one-shot RankHow façade and the
/// persistent SolveSession. Each runs one search over the already-prepared
/// inputs — no presolve, no strategy resolution — and post-processes the
/// result (verification, indicator accounting) identically.
SolveStrategy ResolveSolveStrategy(const OptProblem& problem,
                                   const RankHowOptions& options,
                                   const WeightBox& box);
/// True-semantics evaluation of a weight vector against a compiled model:
/// δ taken as "beats under the tie tolerance ε" (diff > ε), position ranges
/// checked, Equation-(2) objective returned (nullopt when w breaks P, an
/// order constraint or a position range); `values_out`, when given, gets
/// the matching model-variable assignment. This is what the paper's
/// verification measures, and it is a *sound incumbent source* for pruning
/// the MILP: any MILP-feasible point has every pair diff outside (ε₂, ε₁),
/// where ε₂ <= ε < ε₁, so its MILP objective coincides with its true error —
/// a node bound at or above a true-error incumbent cannot hide a better
/// MILP-feasible solution. (Unlike the strict (ε₂, ε₁)-gap test, this never
/// rejects LP-vertex weights whose binding rows sit a rounding error inside
/// the gap.) Where the model's ScoreScreen covers w it scores only the
/// screen's candidates; the result is the same, bit for bit.
std::optional<long> EvaluateOnModel(const OptProblem& problem,
                                    const OptModel& model,
                                    const std::vector<double>& w,
                                    std::vector<double>* values_out);

Result<RankHowResult> SolveOptModelMilp(const OptProblem& problem,
                                        const RankHowOptions& options,
                                        const OptModel& model,
                                        const ExactSolveSeed& seed,
                                        const Deadline& deadline);
Result<RankHowResult> SolveOptModelSat(const OptProblem& problem,
                                       const RankHowOptions& options,
                                       const OptModel& model,
                                       const ExactSolveSeed& seed,
                                       const Deadline& deadline);
Result<RankHowResult> SolveOptSpatial(const OptProblem& problem,
                                      const RankHowOptions& options,
                                      const WeightBox& box,
                                      const ExactSolveSeed& seed,
                                      const Deadline& deadline);

/// The exact OPT solver. Holds a mutable OptProblem so callers can layer
/// constraints between solves (the Example-1 exploration workflow).
/// One-shot façade over the drivers above: every Solve() rebuilds the model
/// and presolves from scratch. For interactive edit-and-re-solve traffic use
/// SolveSession (core/solve_session.h), which reuses all of that work.
class RankHow {
 public:
  RankHow(const Dataset& data, const Ranking& given,
          RankHowOptions options = RankHowOptions());

  /// The problem instance; add weight/position/order constraints here.
  /// Edit `problem().constraints` in place (Add/RemoveByName) rather than
  /// assigning a whole new WeightConstraintSet over it: the cached spatial
  /// feasibility oracle is revalidated by the set's monotonic revision()
  /// counter, and wholesale replacement can smuggle in a different set at
  /// a coincidentally equal revision, silently reusing a stale oracle.
  OptProblem& problem() { return problem_; }
  const OptProblem& problem() const { return problem_; }
  RankHowOptions& options() { return options_; }

  /// Global solve over the whole weight simplex.
  Result<RankHowResult> Solve(
      const std::vector<double>* initial_weights = nullptr) const;

  /// Solve restricted to a weight box (SYM-GD cells; Sec. IV).
  Result<RankHowResult> SolveInBox(
      const WeightBox& box,
      const std::vector<double>* initial_weights = nullptr) const;

  /// Evaluates a weight vector the way the MILP sees it: returns the
  /// Equation-(2) objective if every score difference is outside the
  /// (ε₂, ε₁) gap and all side constraints hold; nullopt otherwise.
  std::optional<long> MilpConsistentError(
      const std::vector<double>& weights) const;

 private:
  const Dataset& data_;
  const Ranking& given_;
  OptProblem problem_;
  RankHowOptions options_;
  /// Lazily-built warm P-feasibility oracle for the spatial strategy. Held
  /// through a shared slot so the copies SYM-GD makes per cell (to re-budget
  /// time limits) keep feeding one oracle: adjacent cells then resolve their
  /// box-feasibility LPs from each other's bases. Rebuilt if the caller
  /// grows problem().constraints between solves.
  struct BoxOracleSlot {
    std::unique_ptr<BoxFeasibilityOracle> oracle;
  };
  std::shared_ptr<BoxOracleSlot> box_oracle_slot_ =
      std::make_shared<BoxOracleSlot>();
};

}  // namespace rankhow

#endif  // RANKHOW_CORE_RANKHOW_H_
