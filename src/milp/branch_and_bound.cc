#include "milp/branch_and_bound.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>

#include "core/search_coordinator.h"
#include "lp/simplex.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace rankhow {

namespace {

/// Integrality tolerance for binaries: a value within this of 0 or 1 is not
/// branched on.
constexpr double kIntTol = 1e-6;
/// The search terminates once incumbent − bound <= kAbsGap, and a node whose
/// bound comes within kAbsGap of the incumbent is pruned.
constexpr double kAbsGap = 1e-9;

/// A subproblem: bound fixings applied on top of the root core LP, plus the
/// set of indicator big-M rows its ancestors found binding (lazily grown —
/// children start from the parent's set instead of rediscovering it), plus
/// the basis its parent's LP ended on (the warm start that lets a worker's
/// IncrementalLp *resolve* this node in a few dual pivots instead of
/// re-solving it from scratch). Bases are engine-local — each worker
/// materializes lazy rows in its own first-use order, so `basis_owner`
/// records which worker's engine the snapshot belongs to; other workers
/// simply resolve from their engine's current state instead.
struct Node {
  std::vector<std::pair<int, double>> fixings;  // (binary var, 0.0 or 1.0)
  std::shared_ptr<const std::vector<int>> active_rows;  // sorted pool ids
  std::shared_ptr<const LpBasis> warm_basis;
  int basis_owner = -1;
  double bound;                                 // parent LP bound (lower)
  int depth = 0;

  double frontier_bound() const { return bound; }
};

struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const {
    if (a.bound != b.bound) return a.bound > b.bound;  // best (lowest) first
    return a.depth < b.depth;  // deeper first as tie-break (dive)
  }
};

/// Search-global state: the compiled instance (immutable once built), the
/// shared frontier, and the coordinator carrying incumbent/deadline/stop.
struct SearchShared {
  const MilpModel& model;
  const LpModel& core;
  const std::vector<MilpModel::CompiledRow>& compiled;
  size_t num_indicators;
  const std::vector<int>& binaries;
  const BnbOptions& options;
  const PrimalHeuristic& heuristic;
  SearchCoordinator coordinator;
  ShardedFrontier<Node, NodeOrder> frontier;
  std::atomic<int64_t> numerical_drops{0};
};

/// One worker's mutable state: its private warm engine plus the delta
/// bookkeeping that expresses each popped node against that engine, and
/// private stats merged after the join. Nothing here is shared.
struct WorkerState {
  int id = 0;
  std::unique_ptr<IncrementalLp> inc;
  std::vector<int> pool_to_row;   // pool idx -> engine row id (-1 = absent)
  std::vector<int> inc_active;    // sorted pool ids active in the engine
  std::vector<std::pair<int, double>> applied_fixings;
  int64_t lp_iterations = 0;
  int64_t lazy_rounds = 0;
  int64_t fallback_solves = 0;
};

constexpr double kViolationTol = 1e-7;
constexpr int kMaxLazyRounds = 100;

/// Explores one node: delta-syncs the worker's engine (or assembles the
/// legacy cold LP), runs the lazy separation loop, offers incumbents
/// through the coordinator, and pushes children back onto the frontier.
void ProcessNode(SearchShared& sh, WorkerState& ws, Node node) {
  const BnbOptions& options = sh.options;
  const Deadline& deadline = sh.coordinator.deadline();

  auto tighten = [&](double bound) {
    return options.objective_is_integral ? std::ceil(bound - 1e-6) : bound;
  };

  // Activates pool row `idx` in this worker's engine, materializing it on
  // first use (engine row ids are therefore worker-local).
  auto engine_enable_row = [&](int idx) {
    if (ws.pool_to_row[idx] < 0) {
      ws.pool_to_row[idx] = ws.inc->AddRow(
          sh.compiled[idx].expr, sh.compiled[idx].op, sh.compiled[idx].rhs);
    } else {
      ws.inc->SetRowActive(ws.pool_to_row[idx], true);
    }
  };

  // Branches both ways on `var` from `node`, carrying `bound`, `active`,
  // and the basis this node's LP ended on (both children resolve from it).
  auto branch = [&](int var, double first_value, double bound,
                    std::shared_ptr<const std::vector<int>> active,
                    std::shared_ptr<const LpBasis> basis, int basis_owner) {
    for (double value : {first_value, 1.0 - first_value}) {
      Node child;
      child.fixings = node.fixings;
      child.fixings.emplace_back(var, value);
      child.active_rows = active;
      child.warm_basis = basis;
      child.basis_owner = basis_owner;
      child.bound = bound;
      child.depth = node.depth + 1;
      sh.frontier.Push(std::move(child));
    }
  };

  std::shared_ptr<const std::vector<int>> active = node.active_rows;
  bool node_warm = ws.inc != nullptr;
  LpModel relaxation;  // cold path / fallback only

  // Assembles the legacy per-node LP copy: core + fixings + active rows,
  // unfixed binaries relaxed to an open upper bound (see the pool in
  // Solve).
  auto assemble_cold = [&]() {
    relaxation = sh.core;
    for (int var : sh.binaries) {
      relaxation.mutable_variable(var).upper = kInfinity;
    }
    for (const auto& [var, value] : node.fixings) {
      LpVariable& v = relaxation.mutable_variable(var);
      v.lower = value;
      v.upper = value;
    }
    for (int idx : *active) {
      relaxation.AddConstraint(LinearExpr(sh.compiled[idx].expr),
                               sh.compiled[idx].op, sh.compiled[idx].rhs,
                               "lazy");
    }
  };

  if (node_warm) {
    // Express this node as a delta against the engine: undo the previous
    // node's fixings, apply ours, and sync the active-row subset (both
    // sides sorted; rows missing from the engine are materialized).
    for (const auto& [var, value] : ws.applied_fixings) {
      (void)value;
      const LpVariable& v = sh.core.variable(var);
      ws.inc->SetVariableBounds(var, v.lower, v.upper);
    }
    for (const auto& [var, value] : node.fixings) {
      ws.inc->SetVariableBounds(var, value, value);
    }
    ws.applied_fixings = node.fixings;
    const std::vector<int>& want = *active;
    size_t a = 0, b = 0;
    while (a < ws.inc_active.size() || b < want.size()) {
      if (b >= want.size() ||
          (a < ws.inc_active.size() && ws.inc_active[a] < want[b])) {
        ws.inc->SetRowActive(ws.pool_to_row[ws.inc_active[a]], false);
        ++a;
      } else if (a >= ws.inc_active.size() || ws.inc_active[a] > want[b]) {
        engine_enable_row(want[b]);
        ++b;
      } else {
        ++a;
        ++b;
      }
    }
    ws.inc_active = want;
  } else {
    assemble_cold();
  }

  // Lazy separation loop: solve, add violated indicator rows, re-solve.
  // Every intermediate LP value is already a valid lower bound (a subset
  // of rows only relaxes further), so pruning can fire mid-loop.
  Result<LpSolution> lp = Status::Internal("lazy loop never ran");
  bool clean = false;     // no violated indicator rows at lp solution
  bool pruned = false;
  bool lp_failed = false;
  bool out_of_time = false;
  double bound = node.bound;
  for (int round = 0; round < kMaxLazyRounds; ++round) {
    // Re-budget every round with the remaining global time: one node can
    // run many separation rounds, and each re-solve must fit what is left
    // of time_limit_seconds (not what was left when the node started).
    if (deadline.Expired()) {
      out_of_time = true;
      break;
    }
    const double remaining = deadline.RemainingOrZero();
    if (node_warm) {
      // First round resolves from the parent's basis — when that basis
      // came from *this worker's* engine; bases from sibling engines index
      // different lazy-row materializations, so they are skipped and the
      // engine's own current basis serves instead. Later rounds reuse the
      // basis the previous round ended on (ideal after row adds).
      const LpBasis* hint = round == 0 && node.warm_basis &&
                                    node.basis_owner == ws.id
                                ? node.warm_basis.get()
                                : nullptr;
      lp = ws.inc->Solve(hint, remaining);
      const bool recoverable =
          !lp.ok() && lp.status().code() != StatusCode::kInfeasible &&
          !(lp.status().code() == StatusCode::kResourceExhausted &&
            deadline.Expired());
      if (recoverable) {
        // Numerical trouble in the warm engine: reroute this node to the
        // cold oracle (the engine itself stays consistent for the next
        // node — its tableau is rebuilt from original rows on demand).
        ++ws.fallback_solves;
        node_warm = false;
        assemble_cold();
      }
    }
    if (!node_warm) lp = SimplexSolver(remaining).Solve(relaxation);
    if (!lp.ok()) {
      lp_failed = true;
      break;
    }
    ws.lp_iterations += lp->iterations;
    bound = std::max(bound, tighten(lp->objective));
    if (bound >= sh.coordinator.best_objective() - kAbsGap) {
      pruned = true;  // subset bound already kills the node
      break;
    }
    std::vector<int> violated;
    for (size_t i = 0; i < sh.compiled.size(); ++i) {
      double lhs = sh.compiled[i].expr.Evaluate(lp->values);
      double v = sh.compiled[i].op == RelOp::kGe
                     ? sh.compiled[i].rhs - lhs
                     : lhs - sh.compiled[i].rhs;
      if (v > kViolationTol) violated.push_back(static_cast<int>(i));
    }
    if (violated.empty()) {
      clean = true;
      break;
    }
    // A row can be *active* yet re-reported here: the violation scan uses
    // an absolute tolerance while the LP certifies rows magnitude-aware.
    // Dedupe — the active-row sets must stay strictly sorted-unique for
    // the engine's two-pointer delta sync.
    auto grown = std::make_shared<std::vector<int>>(*active);
    grown->insert(grown->end(), violated.begin(), violated.end());
    std::sort(grown->begin(), grown->end());
    grown->erase(std::unique(grown->begin(), grown->end()), grown->end());
    if (node_warm) {
      for (int idx : violated) engine_enable_row(idx);
      ws.inc_active = *grown;
    } else {
      for (int idx : violated) {
        relaxation.AddConstraint(LinearExpr(sh.compiled[idx].expr),
                                 sh.compiled[idx].op, sh.compiled[idx].rhs,
                                 "lazy");
      }
    }
    active = std::move(grown);
    ++ws.lazy_rounds;
  }

  // The basis this node's LP ended on — the children's warm start. On the
  // cold/fallback path the parent's basis is passed through unchanged.
  auto export_basis =
      [&]() -> std::pair<std::shared_ptr<const LpBasis>, int> {
    if (node_warm && lp.ok()) {
      return {std::make_shared<const LpBasis>(ws.inc->ExportBasis()), ws.id};
    }
    return {node.warm_basis, node.basis_owner};
  };

  if (out_of_time) {
    // Global budget ran out between separation rounds: the node is not
    // fully explored; put it back so the final bound accounting sees it,
    // and tell every worker to wind down.
    sh.frontier.Push(std::move(node));
    sh.coordinator.RequestLimitStop();
    sh.frontier.RequestStop();
    return;
  }
  if (pruned) return;
  if (lp_failed) {
    if (lp.status().code() == StatusCode::kInfeasible) return;  // prune
    if (lp.status().code() == StatusCode::kResourceExhausted &&
        deadline.Expired()) {
      // Global budget ran out mid-LP: the node is unexplored, put it back
      // so the final bound accounting sees it.
      sh.frontier.Push(std::move(node));
      sh.coordinator.RequestLimitStop();
      sh.frontier.RequestStop();
      return;
    }
    // Numerical trouble (spurious unboundedness, iteration stall): we
    // cannot bound this node, but dropping it would be unsound. Branch on
    // the first unfixed binary without tightening — the children are more
    // constrained and typically solve cleanly; a fully fixed node that
    // still fails is genuinely broken.
    int branch_var = -1;
    for (int var : sh.binaries) {
      bool fixed = false;
      for (const auto& [fv, value] : node.fixings) {
        (void)value;
        if (fv == var) {
          fixed = true;
          break;
        }
      }
      if (!fixed) {
        branch_var = var;
        break;
      }
    }
    if (branch_var < 0) {
      // Fully fixed and still failing: drop the node but record it — the
      // final optimality claim is downgraded in Solve.
      sh.numerical_drops.fetch_add(1, std::memory_order_relaxed);
      RH_LOG(Warning) << "dropping fully-fixed node after LP failure: "
                      << lp.status().ToString();
      return;
    }
    branch(branch_var, 0.0, node.bound, active, node.warm_basis,
           node.basis_owner);
    return;
  }

  // Primal heuristic: let the caller turn this fractional point into a
  // true feasible solution (RankHow: evaluate the ranking error of w).
  if (sh.heuristic) {
    auto candidate = sh.heuristic(lp->values);
    if (candidate.has_value()) {
      sh.coordinator.OfferIncumbent(candidate->objective, candidate->values);
    }
    if (bound >= sh.coordinator.best_objective() - kAbsGap) return;
  }

  // Find the most fractional binary.
  int branch_var = -1;
  double branch_score = kIntTol;
  for (int var : sh.binaries) {
    double v = lp->values[var];
    double frac = std::min(v, 1.0 - v);
    if (frac > branch_score) {
      branch_score = frac;
      branch_var = var;
    }
  }

  if (branch_var < 0 && clean) {
    // Integral and no violated indicator rows: feasible for the full
    // relaxation, so this is a true incumbent. IsFeasible is a debug-only
    // invariant check.
    if (lp->objective <
        sh.coordinator.best_objective() - kAbsGap) {
      RH_DCHECK(sh.model.IsFeasible(lp->values, 1e-4))
          << "integral LP point violates indicator semantics (bad big-M?)";
      sh.coordinator.OfferIncumbent(lp->objective, lp->values);
    }
    return;
  }
  if (branch_var < 0) {
    // Integral but the lazy loop hit its round cap with violations left:
    // force progress by branching on the binary of the most violated
    // indicator row. (Cannot accept the point; cannot prune the node.)
    double worst = kViolationTol;
    for (size_t i = 0; i < sh.num_indicators; ++i) {
      double lhs = sh.compiled[i].expr.Evaluate(lp->values);
      double v = sh.compiled[i].op == RelOp::kGe
                     ? sh.compiled[i].rhs - lhs
                     : lhs - sh.compiled[i].rhs;
      if (v > worst) {
        worst = v;
        branch_var = sh.model.indicators()[i].binary_var;
      }
    }
    if (branch_var < 0) return;  // cannot happen: !clean means violations
    bool already_fixed = false;
    for (const auto& [fv, value] : node.fixings) {
      (void)value;
      if (fv == branch_var) already_fixed = true;
    }
    if (already_fixed) {
      sh.numerical_drops.fetch_add(1, std::memory_order_relaxed);
      return;  // irrecoverable; downgrade the proof
    }
  }

  // Branch. Explore the side the LP leans toward first (slightly better
  // bounds in practice); both children inherit this node's bound, its
  // lazily-grown row set, and the basis its LP ended on.
  double leaning = lp->values[branch_var] >= 0.5 ? 1.0 : 0.0;
  auto [basis, basis_owner] = export_basis();
  branch(branch_var, leaning, bound, active, std::move(basis), basis_owner);
}

}  // namespace

Result<BnbResult> BranchAndBound::Solve(const MilpModel& model) const {
  if (model.lp().sense() != ObjectiveSense::kMinimize) {
    return Status::Invalid(
        "BranchAndBound requires a minimization objective; negate the "
        "objective expression for maximization");
  }
  // Lazy row generation: node LPs start from the core LP (no indicator
  // rows) plus the rows inherited from the parent, and pull in further
  // big-M rows only when the LP iterate violates them. On Equation-(2)
  // instances the vast majority of the k·n indicator rows never bind, so
  // this shrinks node LPs by orders of magnitude.
  const LpModel& core = model.lp();
  const size_t num_indicators = model.indicators().size();
  // Separation pool: compiled indicator rows first (indices < num_indicators
  // map back to their binary for violation branching), then lazy cuts.
  std::vector<MilpModel::CompiledRow> compiled;
  compiled.reserve(num_indicators + model.lazy_cuts().size());
  for (size_t i = 0; i < num_indicators; ++i) {
    RH_ASSIGN_OR_RETURN(MilpModel::CompiledRow row, model.CompileIndicator(i));
    compiled.push_back(std::move(row));
  }
  for (const MilpModel::CompiledRow& cut : model.lazy_cuts()) {
    compiled.push_back(cut);
  }
  // Binary upper bounds. The legacy cold path relaxes unfixed binaries to
  // [0, ∞) — the dense-tableau SimplexSolver compiles every finite upper
  // bound into a row, so thousands of mostly slack "δ <= 1" rows would
  // dominate node LP cost — and these pool rows pull the bound back in only
  // where the LP pushes past it. The warm engine's bounded-variable simplex
  // enforces bounds natively, so under it the binaries keep their [0, 1]
  // bounds and these rows simply never separate. Either way intermediate LP
  // values stay valid lower bounds and "clean" points satisfy every bound.
  for (int var : model.binary_vars()) {
    compiled.push_back(
        MilpModel::CompiledRow{LinearExpr::Term(var, 1.0), RelOp::kLe, 1.0});
  }

  const int num_workers =
      ThreadPool::ResolveThreadCount(options_.num_threads);
  WallTimer timer;
  SearchShared shared{model,
                      core,
                      compiled,
                      num_indicators,
                      model.binary_vars(),
                      options_,
                      heuristic_,
                      SearchCoordinator(options_.time_limit_seconds, kAbsGap,
                                        options_.cancel),
                      ShardedFrontier<Node, NodeOrder>(num_workers),
                      {}};
  if (std::isfinite(options_.initial_incumbent)) {
    shared.coordinator.SeedIncumbent(options_.initial_incumbent,
                                     options_.initial_values);
  } else {
    shared.coordinator.SeedIncumbent(options_.initial_incumbent, {});
  }

  {
    auto root_active = std::make_shared<std::vector<int>>();
    if (!options_.lazy_separation) {
      // Full relaxation from the start: every pool row in every node LP.
      root_active->resize(compiled.size());
      for (size_t i = 0; i < compiled.size(); ++i) (*root_active)[i] = i;
    }
    Node root;
    root.active_rows = std::move(root_active);
    // Children inherit max(parent bound, LP bound), so seeding the root
    // propagates the external bound to the entire tree.
    root.bound = options_.external_lower_bound;
    shared.frontier.Push(std::move(root));
  }

  std::vector<WorkerState> workers(num_workers);
  const BestFirstCounts counts = RunBestFirstWorkers(
      shared.coordinator, shared.frontier, num_workers, options_.max_nodes,
      kAbsGap,
      [&](int w) {
        workers[w].id = w;
        if (!options_.use_warm_start) return;
        // The warm engine (one per worker): a persistent compiled instance
        // holding the core rows plus every pool row this worker ever
        // separated. Nodes are expressed as deltas against it — bound
        // fixings and the active subset of materialized pool rows
        // (deactivated rows keep their tableau slot with a freed slack, so
        // undo is O(1) per row).
        workers[w].inc = std::make_unique<IncrementalLp>(core);
        workers[w].pool_to_row.assign(compiled.size(), -1);
      },
      [&](int w, Node node) {
        ProcessNode(shared, workers[w], std::move(node));
      });

  BnbResult best;
  best.objective = shared.coordinator.best_objective();
  best.values = shared.coordinator.incumbent_values();
  BnbStats& stats = best.stats;
  stats.nodes_explored = counts.explored;
  stats.incumbent_updates = shared.coordinator.incumbent_updates();
  stats.numerical_drops = shared.numerical_drops.load();
  for (const WorkerState& ws : workers) {
    stats.lp_iterations += ws.lp_iterations;
    stats.lazy_rounds += ws.lazy_rounds;
    stats.lp_fallback_solves += ws.fallback_solves;
    if (ws.inc != nullptr) {
      const IncrementalLpStats& ls = ws.inc->stats();
      stats.lp_warm_solves += ls.warm_solves;
      stats.lp_cold_solves += ls.cold_solves;
      stats.lp_primal_pivots += ls.primal_pivots;
      stats.lp_dual_pivots += ls.dual_pivots;
      stats.lp_repair_pivots += ls.repair_pivots;
      stats.lp_import_pivots += ls.import_pivots;
      stats.lp_rebuilds += ls.rebuilds;
      stats.lp_certified_infeasible += ls.certified_infeasible;
    }
  }
  stats.seconds = timer.ElapsedSeconds();

  const bool limits_hit = shared.coordinator.limit_stop();
  // The global lower bound: +inf once the tree is exhausted, else the
  // weakest bound among unexplored subtrees (stopping workers re-push
  // their unfinished nodes, so the frontier holds every one of them).
  double global_bound = kInfinity;
  if (limits_hit) {
    // An empty frontier leaves only the incumbent. A root stopped before
    // its first LP keeps its bound, −inf without an external one, and
    // proves nothing.
    global_bound = shared.frontier.MinBound();
    if (global_bound == kInfinity) global_bound = best.objective;
    if (!std::isfinite(best.objective)) {
      return Status::ResourceExhausted(
          "branch-and-bound limits reached before finding a feasible "
          "solution");
    }
  } else {
    // Tree exhausted: the incumbent (if any) is exactly optimal (every
    // remaining node was either explored or popped with a bound at or
    // above the final incumbent).
    if (!std::isfinite(best.objective)) {
      return Status::Infeasible("no feasible MILP assignment");
    }
    global_bound = best.objective;
  }
  best.best_bound = std::min(global_bound, best.objective);
  best.proven_optimal = global_bound >= best.objective - kAbsGap &&
                        stats.numerical_drops == 0;
  return best;
}

}  // namespace rankhow
