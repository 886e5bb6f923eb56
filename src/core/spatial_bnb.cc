#include "core/spatial_bnb.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/indicator_fixing.h"
#include "core/presolve.h"
#include "core/search_coordinator.h"
#include "lp/simplex.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rankhow {

namespace {

/// Boxes narrower than this in every dimension are resolved by point
/// evaluation instead of further splitting. Points inside such a box sit
/// within floating-point noise of an indicator hyperplane — exactly the
/// region the paper's ε-gap machinery excludes from solutions anyway.
constexpr double kMinBoxWidth = 1e-9;

/// A subdivision node: a box with the lower bound its parent proved for it
/// (tightened on expansion), and the parent's fixing state, which both
/// children share and refine from (null at the root).
struct Node {
  WeightBox box;
  long lb;
  int depth;
  std::shared_ptr<const FixingState> parent_fixing;

  /// Exact for every reachable error value (longs far below 2^53).
  double frontier_bound() const { return static_cast<double>(lb); }
};

struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const {
    if (a.lb != b.lb) return a.lb > b.lb;  // lowest bound first
    return a.depth < b.depth;              // then dive
  }
};

/// What bounding a box concluded.
struct BoxBound {
  long lb = 0;
  bool feasible = true;   // false: prune (no valid weight vector inside)
  bool all_fixed = true;  // every indicator constant over the box
  FixingState fixing;     // the box's own state, for its children
};

LpModel BuildFeasibilityModel(int m, const WeightConstraintSet& constraints) {
  LpModel lp;
  std::vector<int> weight_vars(m);
  LinearExpr sum;
  for (int a = 0; a < m; ++a) {
    weight_vars[a] = lp.AddVariable(0.0, 1.0, "w");
    sum += LinearExpr::Term(weight_vars[a], 1.0);
  }
  lp.AddConstraint(std::move(sum), RelOp::kEq, 1.0, "simplex");
  constraints.AppendTo(&lp, weight_vars);
  return lp;
}

/// Search-global state for one (possibly parallel) subdivision.
struct SearchShared {
  const OptProblem& problem;
  const Dataset& data;
  const Ranking& given;
  int m;
  double tie_eps;
  double fix_one_at;
  double fix_zero_at;
  const std::vector<int>& tuples;
  bool has_general_rows;
  SearchCoordinator coordinator;
  ShardedFrontier<Node, NodeOrder> frontier;
};

/// One worker's mutable state: its private warm oracle (or the injected
/// serial-sweep one), the legacy cold solver, scratch, and private partial
/// stats merged after the join.
struct WorkerState {
  BoxFeasibilityOracle* oracle = nullptr;  // may alias local_oracle
  std::unique_ptr<BoxFeasibilityOracle> local_oracle;
  SimplexSolver cold_solver;
  std::vector<double> diff;  // scratch for order-constraint ranges
  int64_t pruned_bound = 0;
  int64_t pruned_infeasible = 0;
  int64_t cold_lp_solves = 0;
  int64_t cold_lp_pivots = 0;
  int64_t floor_misses = 0;
  long floor_lb_min = std::numeric_limits<long>::max();
  // Oracle counter baselines (nonzero only for the injected shared oracle,
  // which carries counts from earlier cells of a SYM-GD sweep).
  int64_t oracle_solves0 = 0;
  int64_t oracle_pivots0 = 0;
  int64_t oracle_warm0 = 0;
  int64_t oracle_cold0 = 0;
};

/// Bounds a box. Also prunes via order constraints and position brackets.
/// The root box (no `parent`) gets the one full fixing pass; every other
/// box refines its parent's state.
Result<BoxBound> BoundBox(const SearchShared& sh, WorkerState& ws,
                          const WeightBox& box, const FixingState* parent) {
  BoxBound out;
  for (const PairwiseOrderConstraint& oc : sh.problem.order_constraints) {
    for (int a = 0; a < sh.m; ++a) {
      ws.diff[a] = sh.data.value(oc.above, a) - sh.data.value(oc.below, a);
    }
    RH_ASSIGN_OR_RETURN(DotRange range, DotRangeOnSimplexBox(ws.diff, box));
    if (range.max <= sh.tie_eps) {  // can never rank `above` higher here
      out.feasible = false;
      return out;
    }
    // Satisfied at some points but not all: the box must keep splitting
    // even when every indicator is fixed, or a single rejected evaluation
    // would wrongly discard the satisfying part.
    if (range.min < sh.fix_one_at) out.all_fixed = false;
  }
  if (parent == nullptr) {
    RH_ASSIGN_OR_RETURN(FixingSummary summary,
                        ComputeIndicatorFixing(sh.data, sh.tuples, box,
                                               sh.fix_one_at, sh.fix_zero_at));
    out.fixing = FixingState::FromSummary(summary);
  } else {
    RH_ASSIGN_OR_RETURN(out.fixing,
                        RefineIndicatorFixing(sh.data, sh.tuples, *parent, box,
                                              sh.fix_one_at, sh.fix_zero_at));
  }
  for (size_t g = 0; g < sh.tuples.size(); ++g) {
    const int tuple = sh.tuples[g];
    const FixingState::Group& group = out.fixing.groups[g];
    const long beats_min = group.fixed_one;
    const long beats_max = group.fixed_one + group.num_free;
    if (group.num_free > 0) out.all_fixed = false;
    for (const PositionConstraint& pc : sh.problem.position_constraints) {
      if (pc.tuple != tuple) continue;
      if (beats_min + 1 > pc.max_position ||
          beats_max + 1 < pc.min_position) {
        out.feasible = false;
        return out;
      }
    }
    if (!sh.given.IsRanked(tuple)) continue;
    const long target = sh.given.position(tuple) - 1;
    const long penalty =
        sh.problem.objective.PenaltyAt(sh.given.position(tuple));
    if (target < beats_min) {
      out.lb += penalty * (beats_min - target);
    } else if (target > beats_max) {
      out.lb += penalty * (target - beats_max);
    }
  }
  return out;
}

/// Feasibility of box ∩ simplex ∩ P(general rows); returns a point inside
/// when one is needed (for incumbent evaluation).
Result<std::vector<double>> FeasiblePoint(const SearchShared& sh,
                                          WorkerState& ws,
                                          const WeightBox& box) {
  if (!sh.has_general_rows) return AnyPointOnSimplexBox(box);
  if (ws.oracle != nullptr) {
    auto point = ws.oracle->FeasiblePoint(box);
    if (point.ok() || point.status().code() == StatusCode::kInfeasible) {
      return point;
    }
    // Numerical trouble in the worker's tableau: answer this query cold
    // instead of aborting the whole subdivision.
  }
  // Per-box cold query: the same model the oracle compiles, rebuilt and
  // solved from scratch (the legacy path, and the per-query fallback when
  // the warm oracle hits numerical trouble).
  LpModel lp = BuildFeasibilityModel(sh.m, sh.problem.constraints);
  for (int a = 0; a < sh.m; ++a) {
    lp.mutable_variable(a).lower = box.lo[a];
    lp.mutable_variable(a).upper = box.hi[a];
  }
  auto sol = ws.cold_solver.Solve(lp);
  ++ws.cold_lp_solves;
  if (!sol.ok()) return sol.status();
  ws.cold_lp_pivots += sol->iterations;
  return std::move(sol->values);
}

/// Evaluates `w` as a candidate incumbent through the coordinator.
void OfferIncumbent(SearchShared& sh, const std::vector<double>& w) {
  auto err = EvaluateTrueError(sh.problem, w);
  if (err.has_value()) {
    sh.coordinator.OfferIncumbent(static_cast<double>(*err), w);
  }
}

/// Explores one box; pushes surviving children onto the frontier. A hard
/// error (LP layer, bound computation) is reported to the coordinator and
/// stops the search.
void ProcessBox(SearchShared& sh, WorkerState& ws, Node node) {
  auto bb = BoundBox(sh, ws, node.box, node.parent_fixing.get());
  // The parent's state is read only by the bound; drop this node's share
  // now, so the last sibling to be bounded frees it.
  node.parent_fixing.reset();
  if (!bb.ok()) {
    sh.coordinator.ReportError(bb.status());
    sh.frontier.RequestStop();
    return;
  }
  if (!bb->feasible) {
    ++ws.pruned_infeasible;
    return;
  }
  long lb = std::max(node.lb, bb->lb);
  if (static_cast<double>(lb) >= sh.coordinator.best_objective()) {
    ++ws.pruned_bound;
    return;
  }
  // General P rows can empty a box that the interval bounds cannot see.
  auto point = FeasiblePoint(sh, ws, node.box);
  if (!point.ok()) {
    if (point.status().code() == StatusCode::kInfeasible) {
      ++ws.pruned_infeasible;
      return;
    }
    sh.coordinator.ReportError(point.status());
    sh.frontier.RequestStop();
    return;
  }
  OfferIncumbent(sh, *point);
  if (static_cast<double>(lb) >= sh.coordinator.best_objective()) {
    ++ws.pruned_bound;
    return;
  }

  if (bb->all_fixed) {
    // Every indicator is constant over the box, so the error is constant
    // and the evaluated point realized it (incumbent updated above) —
    // unless a position constraint rejected it, which then rejects the
    // whole box identically (positions are functions of the fixed
    // indicators; order constraints hold everywhere here by the
    // all_fixed test; the LP point satisfies P).
    return;
  }
  if (node.box.MaxWidth() <= kMinBoxWidth) {
    // Resolution floor: the box straddles a hyperplane within numerical
    // noise. The evaluation above settled it unless its value is above
    // the bound — then the proof has a hole we must report. (A stale
    // incumbent read can only over-report a miss — conservative.)
    if (sh.coordinator.best_objective() > static_cast<double>(lb)) {
      ++ws.floor_misses;
      ws.floor_lb_min = std::min(ws.floor_lb_min, lb);
    }
    return;
  }

  // Immutable from here on, so children may be bounded on any worker.
  auto fixing = std::make_shared<const FixingState>(std::move(bb->fixing));
  auto [lower, upper] = node.box.SplitWidest();
  for (WeightBox* half : {&lower, &upper}) {
    if (!half->IntersectsSimplex()) continue;
    sh.frontier.Push(Node{std::move(*half), lb, node.depth + 1, fixing});
  }
}

}  // namespace

BoxFeasibilityOracle::BoxFeasibilityOracle(
    int num_attributes, const WeightConstraintSet& constraints)
    : num_attributes_(num_attributes),
      constraints_revision_(constraints.revision()),
      lp_(BuildFeasibilityModel(num_attributes, constraints)) {}

Result<std::vector<double>> BoxFeasibilityOracle::FeasiblePoint(
    const WeightBox& box) {
  for (int a = 0; a < num_attributes_; ++a) {
    lp_.SetVariableBounds(a, box.lo[a], box.hi[a]);
  }
  RH_ASSIGN_OR_RETURN(LpSolution sol, lp_.Solve());
  return std::move(sol.values);
}

Result<SpatialBnbResult> SpatialBnb::Solve(const WeightBox& root_box) const {
  RH_RETURN_NOT_OK(problem_.Validate());
  if (problem_.objective.kind == ObjectiveKind::kInversions) {
    // The beats-bracket bound does not transfer to pair-inversion counting;
    // RankHow routes inversion objectives to the indicator MILP.
    return Status::Invalid(
        "SpatialBnb supports position-error objectives only; use "
        "SolveStrategy::kIndicatorMilp for inversion objectives");
  }
  const Dataset& data = *problem_.data;
  const Ranking& given = *problem_.given;
  const int m = data.num_attributes();
  const double tie_eps = problem_.eps.tie_eps;
  // True-semantics fixing thresholds: a pair beats iff diff > ε, so it is
  // fixed to 1 when min diff exceeds ε (η guards the strict inequality) and
  // fixed to 0 when max diff <= ε.
  const double eta = std::max(1e-15, 1e-9 * tie_eps);
  const double fix_one_at = tie_eps + eta;
  const double fix_zero_at = tie_eps;

  WeightBox root = problem_.constraints.TightenBox(root_box);
  if (!root.IntersectsSimplex()) {
    return Status::Infeasible("spatial root box ∩ simplex ∩ P bounds empty");
  }

  // Tuples needing beat brackets: ranked ones (objective) plus
  // position-constrained extras (pruning only).
  std::vector<int> tuples = given.ranked_tuples();
  for (const PositionConstraint& pc : problem_.position_constraints) {
    if (!given.IsRanked(pc.tuple)) tuples.push_back(pc.tuple);
  }

  const bool has_general_rows = [&] {
    for (const WeightConstraint& c : problem_.constraints.constraints()) {
      if (c.terms.size() > 1) return true;
    }
    return false;
  }();

  const int num_workers =
      ThreadPool::ResolveThreadCount(options_.num_threads);
  WallTimer timer;
  // improvement_tol 0: errors are integral longs, strict `<` is exact.
  SearchShared shared{problem_,
                      data,
                      given,
                      m,
                      tie_eps,
                      fix_one_at,
                      fix_zero_at,
                      tuples,
                      has_general_rows,
                      SearchCoordinator(options_.time_limit_seconds, 0.0,
                                        options_.cancel),
                      ShardedFrontier<Node, NodeOrder>(num_workers)};

  if (!options_.initial_weights.empty()) {
    // Same path as a worker's discovery so the update is counted — serial
    // parity with the old offer_incumbent(initial_weights).
    OfferIncumbent(shared, options_.initial_weights);
  }
  // Children inherit max(parent lb, box bound), so the externally proven
  // bound (if any) lifts the whole subdivision.
  shared.frontier.Push(
      Node{root, std::max(0L, options_.external_lower_bound), 0, nullptr});

  std::vector<WorkerState> workers(num_workers);
  const BestFirstCounts counts = RunBestFirstWorkers(
      shared.coordinator, shared.frontier, num_workers, options_.max_boxes,
      0.0,
      [&](int w) {
        WorkerState& ws = workers[w];
        ws.diff.resize(m);
        if (!has_general_rows || !options_.use_warm_start) return;
        // Warm path: adjacent boxes differ only in variable bounds, so one
        // compiled oracle per worker resolves each query from the previous
        // basis. Serial solves reuse the oracle RankHow injects to span a
        // whole SYM-GD cell sweep; parallel workers compile their own.
        if (num_workers == 1 && external_oracle_ != nullptr) {
          ws.oracle = external_oracle_;
          ws.oracle_solves0 = ws.oracle->stats().solves;
          ws.oracle_pivots0 = ws.oracle->stats().total_pivots();
          ws.oracle_warm0 = ws.oracle->stats().warm_solves;
          ws.oracle_cold0 = ws.oracle->stats().cold_solves;
        } else {
          ws.local_oracle = std::make_unique<BoxFeasibilityOracle>(
              m, problem_.constraints);
          ws.oracle = ws.local_oracle.get();
        }
      },
      [&](int w, Node node) {
        ProcessBox(shared, workers[w], std::move(node));
      });

  if (shared.coordinator.has_error()) {
    return shared.coordinator.first_error();
  }

  SpatialBnbResult result;
  SpatialBnbStats& stats = result.stats;
  stats.boxes_explored = counts.explored;
  stats.boxes_pruned_bound = counts.pruned_at_pop;
  stats.incumbent_updates = shared.coordinator.incumbent_updates();
  long floor_lb_min = std::numeric_limits<long>::max();
  for (const WorkerState& ws : workers) {
    stats.boxes_pruned_bound += ws.pruned_bound;
    stats.boxes_pruned_infeasible += ws.pruned_infeasible;
    stats.floor_misses += ws.floor_misses;
    floor_lb_min = std::min(floor_lb_min, ws.floor_lb_min);
    if (ws.oracle != nullptr) {
      stats.lp_solves += ws.oracle->stats().solves - ws.oracle_solves0;
      stats.lp_pivots += ws.oracle->stats().total_pivots() - ws.oracle_pivots0;
      stats.lp_warm_solves += ws.oracle->stats().warm_solves - ws.oracle_warm0;
      stats.lp_cold_solves += ws.oracle->stats().cold_solves - ws.oracle_cold0;
    }
    stats.lp_solves += ws.cold_lp_solves;
    stats.lp_pivots += ws.cold_lp_pivots;
    stats.lp_cold_solves += ws.cold_lp_solves;
  }
  stats.seconds = timer.ElapsedSeconds();

  const bool limits_hit = shared.coordinator.limit_stop();
  const double best_objective = shared.coordinator.best_objective();
  if (!std::isfinite(best_objective)) {
    if (limits_hit) {
      return Status::ResourceExhausted(
          "spatial search limits reached before finding a feasible point");
    }
    return Status::Infeasible(
        "no weight vector satisfies the side constraints in the box");
  }
  const long incumbent = static_cast<long>(best_objective);
  result.weights = shared.coordinator.incumbent_values();
  result.error = incumbent;
  // Stopping workers re-push their unfinished boxes, so the frontier holds
  // every unexplored subtree; its min bound is the proof limit.
  long frontier_lb = std::numeric_limits<long>::max();
  if (limits_hit) {
    double fb = shared.frontier.MinBound();
    if (std::isfinite(fb)) frontier_lb = static_cast<long>(fb);
  }
  long proven = !limits_hit ? incumbent : frontier_lb;
  proven = std::min(proven, floor_lb_min);
  result.bound = std::min(proven, incumbent);
  result.proven_optimal = !limits_hit && result.bound >= incumbent;
  return result;
}

}  // namespace rankhow
