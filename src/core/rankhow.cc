#include "core/rankhow.h"

#include <algorithm>
#include <cmath>

#include "core/indicator_fixing.h"
#include "data/kernels.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rankhow {

std::optional<long> EvaluateOnModel(const OptProblem& problem,
                                    const OptModel& model,
                                    const std::vector<double>& w,
                                    std::vector<double>* values_out) {
  const Dataset& data = *problem.data;
  const int m = data.num_attributes();
  const double tie_eps = problem.eps.tie_eps;
  // The predicate P is as hard as the order constraints: an incumbent
  // violating it would steer pruning toward an infeasible "solution".
  if (!problem.constraints.IsSatisfied(w, 1e-7)) return std::nullopt;
  if (values_out != nullptr) {
    values_out->assign(model.milp.lp().num_variables(), 0.0);
    for (int a = 0; a < m; ++a) (*values_out)[model.weight_vars[a]] = w[a];
  }
  // Kernel scoring into thread-local buffers: this evaluator runs once per
  // LP vertex / sweep candidate, so the steady state should not allocate.
  // Near the model's cell only the screen's candidates can beat a ranked
  // tuple, so only they (and the tuples the current order constraints
  // name) are scored; `scores` is then valid at those tuples alone, and the
  // positions count over `counted`.
  static thread_local std::vector<double> scores;
  static thread_local std::vector<double> counted;
  scores.resize(data.num_tuples());
  const double* counted_scores = scores.data();
  int num_counted = data.num_tuples();
  if (model.screen.has_value() && model.screen->Covers(w, tie_eps)) {
    const std::vector<int>& candidates = model.screen->candidates;
    num_counted = static_cast<int>(candidates.size());
    counted.resize(num_counted);
    kernels::GatherScores(data, w, candidates.data(), num_counted,
                          counted.data());
    for (int i = 0; i < num_counted; ++i) scores[candidates[i]] = counted[i];
    for (const PairwiseOrderConstraint& oc : problem.order_constraints) {
      const int pair[2] = {oc.above, oc.below};
      double pair_scores[2];
      kernels::GatherScores(data, w, pair, 2, pair_scores);
      scores[oc.above] = pair_scores[0];
      scores[oc.below] = pair_scores[1];
    }
    counted_scores = counted.data();
  } else {
    kernels::BatchScores(data, w, scores.data());
  }
  // Order constraints are hard: reject weights that break them (allow LP
  // rounding slack).
  for (const PairwiseOrderConstraint& oc : problem.order_constraints) {
    if (scores[oc.above] - scores[oc.below] <= tie_eps) return std::nullopt;
  }
  for (const OptModel::TupleGroup& group : model.groups) {
    long beats = group.fixed_one;
    for (const auto& [s, delta_var] : group.delta_vars) {
      if (scores[s] - scores[group.tuple] > tie_eps) {
        ++beats;
        if (values_out != nullptr) (*values_out)[delta_var] = 1.0;
      }
    }
    // Position-range side constraints are hard: reject violating weights.
    for (const PositionConstraint& pc : problem.position_constraints) {
      if (pc.tuple != group.tuple) continue;
      long position = beats + 1;
      if (position < pc.min_position || position > pc.max_position) {
        return std::nullopt;
      }
    }
    if (group.error_var >= 0) {
      // The error VARIABLE is unweighted; the objective row carries the
      // position penalty as its coefficient.
      long err = std::labs(static_cast<long>(group.given_position) - 1 -
                           beats);
      if (values_out != nullptr) {
        (*values_out)[group.error_var] = static_cast<double>(err);
      }
    }
  }
  // The objective value itself comes from the single authority so every
  // kind (position error, weighted, inversions) is priced identically here,
  // in presolve, and in the spatial search.
  return ObjectiveOfScoresAmong(*problem.given, scores.data(), counted_scores,
                                num_counted, tie_eps, problem.objective);
}

namespace {

/// The branch-and-bound configuration of one indicator-MILP search (a SAT
/// probe or the optimization itself) under `options` and `deadline`.
BnbOptions MilpBnbOptions(const RankHowOptions& options,
                          const Deadline& deadline) {
  BnbOptions bnb_options;
  bnb_options.time_limit_seconds = deadline.RemainingOrZero();
  bnb_options.max_nodes = options.max_nodes;
  bnb_options.objective_is_integral = true;
  bnb_options.lazy_separation = options.use_lazy_separation;
  bnb_options.use_warm_start = options.use_warm_start;
  bnb_options.num_threads = options.num_threads;
  bnb_options.cancel = options.cancel;
  return bnb_options;
}

/// Re-computes `result`'s error in exact arithmetic (Sec. V-A) when
/// `options.verify` is set, and attaches the verification report.
Status VerifyIfRequested(const OptProblem& problem,
                         const RankHowOptions& options,
                         RankHowResult* result) {
  if (!options.verify) return Status();
  RH_ASSIGN_OR_RETURN(
      VerificationReport report,
      VerifySolutionObjective(*problem.data, *problem.given,
                              result->function.weights, problem.eps.tie_eps,
                              result->claimed_error, problem.objective));
  result->error = report.exact_error;
  result->verification = std::move(report);
  return Status();
}

}  // namespace

const char* SolveStrategyName(SolveStrategy strategy) {
  switch (strategy) {
    case SolveStrategy::kAuto:
      return "auto";
    case SolveStrategy::kIndicatorMilp:
      return "indicator-milp";
    case SolveStrategy::kSpatial:
      return "spatial";
    case SolveStrategy::kSatBinarySearch:
      return "sat-binary-search";
  }
  return "unknown";
}

RankHow::RankHow(const Dataset& data, const Ranking& given,
                 RankHowOptions options)
    : data_(data), given_(given), options_(std::move(options)) {
  problem_.data = &data_;
  problem_.given = &given_;
  problem_.eps = options_.eps;
}

std::optional<long> RankHow::MilpConsistentError(
    const std::vector<double>& weights) const {
  const int m = data_.num_attributes();
  RH_CHECK(static_cast<int>(weights.size()) == m);
  if (!problem_.constraints.IsSatisfied(weights, 1e-9)) return std::nullopt;
  for (const PairwiseOrderConstraint& oc : problem_.order_constraints) {
    double diff = 0;
    for (int a = 0; a < m; ++a) {
      diff += weights[a] * (data_.value(oc.above, a) - data_.value(oc.below, a));
    }
    if (diff < problem_.eps.eps1) return std::nullopt;
  }
  // All ranked tuples plus position-constrained extras, straight from the
  // problem semantics (no compiled model needed).
  std::vector<int> tuples = given_.ranked_tuples();
  for (const PositionConstraint& pc : problem_.position_constraints) {
    if (!given_.IsRanked(pc.tuple)) tuples.push_back(pc.tuple);
  }
  const RankingObjectiveSpec& spec = problem_.objective;
  long total_error = 0;
  for (int r : tuples) {
    long beats = 0;
    for (int s = 0; s < data_.num_tuples(); ++s) {
      if (s == r) continue;
      double diff = 0;
      for (int a = 0; a < m; ++a) {
        diff += weights[a] * (data_.value(s, a) - data_.value(r, a));
      }
      if (diff >= problem_.eps.eps1) {
        ++beats;
      } else if (diff > problem_.eps.eps2) {
        return std::nullopt;
      }
    }
    for (const PositionConstraint& pc : problem_.position_constraints) {
      if (pc.tuple != r) continue;
      long position = beats + 1;
      if (position < pc.min_position || position > pc.max_position) {
        return std::nullopt;
      }
    }
    if (given_.IsRanked(r) && spec.kind != ObjectiveKind::kInversions) {
      total_error += spec.PenaltyAt(given_.position(r)) *
                     std::labs(static_cast<long>(given_.position(r)) - 1 -
                               beats);
    }
  }
  if (spec.kind == ObjectiveKind::kInversions) {
    // Discordant ranked pairs under the gap semantics (every ranked pair was
    // already certified outside the (ε₂, ε₁) gap by the loop above).
    const std::vector<int>& ranked = given_.ranked_tuples();
    for (size_t i = 0; i < ranked.size(); ++i) {
      for (size_t j = i + 1; j < ranked.size(); ++j) {
        int a = ranked[i];
        int b = ranked[j];
        if (given_.position(a) == given_.position(b)) continue;
        if (given_.position(a) > given_.position(b)) std::swap(a, b);
        double diff = 0;
        for (int attr = 0; attr < m; ++attr) {
          diff += weights[attr] * (data_.value(b, attr) - data_.value(a, attr));
        }
        if (diff >= problem_.eps.eps1) ++total_error;
      }
    }
  }
  return total_error;
}

Result<RankHowResult> RankHow::Solve(
    const std::vector<double>* initial_weights) const {
  return SolveInBox(WeightBox::FullSimplex(data_.num_attributes()),
                    initial_weights);
}

PresolveOptions ClampedPresolveOptions(const RankHowOptions& options,
                                       const Deadline& deadline) {
  PresolveOptions presolve = options.presolve;
  if (deadline.HasBudget()) {
    presolve.time_budget_seconds =
        std::min(presolve.time_budget_seconds,
                 0.25 * options.time_limit_seconds);
  }
  return presolve;
}

BoxFeasibilityOracle* EnsureWarmBoxOracle(
    const OptProblem& problem, const RankHowOptions& options,
    std::unique_ptr<BoxFeasibilityOracle>* slot) {
  if (!options.use_warm_start ||
      ThreadPool::ResolveThreadCount(options.num_threads) != 1) {
    return nullptr;  // parallel workers compile their own oracles
  }
  if (*slot == nullptr ||
      (*slot)->constraints_revision() != problem.constraints.revision()) {
    *slot = std::make_unique<BoxFeasibilityOracle>(
        problem.data->num_attributes(), problem.constraints);
  }
  return slot->get();
}

SolveStrategy ResolveSolveStrategy(const OptProblem& problem,
                                   const RankHowOptions& options,
                                   const WeightBox& box) {
  if (options.strategy != SolveStrategy::kAuto) return options.strategy;
  (void)box;
  // The spatial bound covers position-error objectives only.
  if (problem.objective.kind == ObjectiveKind::kInversions) {
    return SolveStrategy::kIndicatorMilp;
  }
  const int m = problem.data->num_attributes();
  // Spatial subdivision scales with the weight-space dimension; the MILP
  // scales with the indicator count. Crossover measured in bench_ablations.
  const long pairs = static_cast<long>(problem.given->ranked_tuples().size()) *
                     std::max(1, problem.data->num_tuples() - 1);
  if (m <= 5 && pairs <= 100000) return SolveStrategy::kSpatial;
  return SolveStrategy::kIndicatorMilp;
}

Result<RankHowResult> RankHow::SolveInBox(
    const WeightBox& box, const std::vector<double>* initial_weights) const {
  WallTimer timer;
  Deadline deadline(options_.time_limit_seconds);

  // Warm start: the caller's weights when given (SYM-GD's iterate),
  // otherwise the multi-start presolve winner.
  std::vector<double> warm;
  if (initial_weights != nullptr) {
    warm = *initial_weights;
  } else if (options_.use_presolve) {
    auto pre = PresolveIncumbent(problem_, box,
                                 ClampedPresolveOptions(options_, deadline));
    if (pre.ok() && pre->found()) warm = std::move(pre->weights);
    // Presolve failure is non-fatal: the exact search runs cold.
  }

  SolveStrategy strategy = ResolveSolveStrategy(problem_, options_, box);
  ExactSolveSeed seed;
  seed.warm_weights = std::move(warm);
  RankHowResult result;
  if (strategy == SolveStrategy::kSpatial) {
    // One warm P-feasibility oracle across every spatial solve this RankHow
    // (and its SYM-GD copies) issues; see box_oracle_slot_.
    seed.box_oracle =
        EnsureWarmBoxOracle(problem_, options_, &box_oracle_slot_->oracle);
    RH_ASSIGN_OR_RETURN(
        result, SolveOptSpatial(problem_, options_, box, seed, deadline));
  } else {
    RH_ASSIGN_OR_RETURN(
        OptModel model,
        BuildOptModel(problem_, box, options_.use_indicator_fixing,
                      options_.use_strengthening_cuts,
                      options_.use_tight_big_m));
    if (strategy == SolveStrategy::kSatBinarySearch) {
      RH_ASSIGN_OR_RETURN(
          result, SolveOptModelSat(problem_, options_, model, seed, deadline));
    } else {
      RH_ASSIGN_OR_RETURN(
          result, SolveOptModelMilp(problem_, options_, model, seed,
                                    deadline));
    }
  }
  result.strategy_used = strategy;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

Result<RankHowResult> SolveOptSpatial(const OptProblem& problem,
                                      const RankHowOptions& options,
                                      const WeightBox& box,
                                      const ExactSolveSeed& seed,
                                      const Deadline& deadline) {
  SpatialBnbOptions spatial_options;
  spatial_options.time_limit_seconds = deadline.RemainingOrZero();
  spatial_options.max_boxes = options.max_nodes;
  spatial_options.use_warm_start = options.use_warm_start;
  spatial_options.num_threads = options.num_threads;
  spatial_options.initial_weights = seed.warm_weights;
  spatial_options.external_lower_bound = std::max(0L, seed.lower_bound);
  spatial_options.cancel = options.cancel;
  SpatialBnb spatial(problem, spatial_options);
  if (seed.box_oracle != nullptr) spatial.SetOracle(seed.box_oracle);
  RH_ASSIGN_OR_RETURN(SpatialBnbResult sres, spatial.Solve(box));

  RankHowResult result;
  result.function =
      ScoringFunction::FromWeights(*problem.data, sres.weights);
  result.claimed_error = sres.error;
  result.error = sres.error;
  result.bound = sres.bound;
  result.proven_optimal = sres.proven_optimal;
  result.stats.nodes_explored = sres.stats.boxes_explored;
  result.stats.incumbent_updates = sres.stats.incumbent_updates;
  result.stats.lp_iterations = sres.stats.lp_pivots;
  result.stats.lp_warm_solves = sres.stats.lp_warm_solves;
  result.stats.lp_cold_solves = sres.stats.lp_cold_solves;
  result.stats.seconds = sres.stats.seconds;

  // Indicator accounting at the root box, for parity with the MILP path
  // (SYM-GD sums these across iterations).
  auto fixing =
      ComputeIndicatorFixing(*problem.data, problem.given->ranked_tuples(),
                             problem.constraints.TightenBox(box),
                             problem.eps.eps1, problem.eps.eps2);
  if (fixing.ok()) {
    result.num_free_indicators = fixing->total_free;
    result.num_fixed_indicators =
        fixing->total_fixed_one + fixing->total_fixed_zero;
  }
  RH_RETURN_NOT_OK(VerifyIfRequested(problem, options, &result));
  return result;
}

Result<RankHowResult> SolveOptModelSat(const OptProblem& problem,
                                       const RankHowOptions& options,
                                       const OptModel& model,
                                       const ExactSolveSeed& seed,
                                       const Deadline& deadline) {
  // Equation (2)'s objective expression, reused as a budget row
  // `objective <= E` inside each satisfiability probe (Sec. III-A: "convert
  // the optimization problem to a series of satisfiability problems,
  // performing binary search to find the smallest error value for which a
  // satisfying assignment can be found").
  const LinearExpr objective = model.milp.lp().objective();

  RankHowResult result;
  long hi = -1;  // best error known achievable (-1 = none yet)
  std::vector<double> best_values;

  // `budget == nullopt` is the bootstrap probe: any feasible assignment.
  auto run_probe =
      [&](std::optional<long> budget) -> Result<BnbResult> {
    MilpModel probe = model.milp;
    probe.lp().SetObjective(LinearExpr(), ObjectiveSense::kMinimize);
    if (budget.has_value()) {
      probe.lp().AddConstraint(objective, RelOp::kLe,
                               static_cast<double>(*budget), "sat_budget");
    }
    BranchAndBound solver(MilpBnbOptions(options, deadline));
    if (options.use_primal_heuristic) {
      solver.SetPrimalHeuristic(
          [&problem, &model, &objective, budget](
              const std::vector<double>& lp_values)
              -> std::optional<PrimalCandidate> {
            std::vector<double> w = model.ExtractWeights(lp_values);
            std::vector<double> values;
            auto err = EvaluateOnModel(problem, model, w, &values);
            if (!err.has_value()) return std::nullopt;
            // The candidate must satisfy the probe's budget row; check the
            // row itself so weighted and inversion objectives price alike.
            if (budget.has_value() &&
                objective.Evaluate(values) >
                    static_cast<double>(*budget) + 0.5) {
              return std::nullopt;
            }
            // Probes minimize 0, so any feasible candidate closes the gap.
            return PrimalCandidate{0.0, std::move(values)};
          });
    }
    return solver.Solve(probe);
  };

  // Accepts a probe's assignment as the new upper bound. The true error of
  // the extracted weights is the sound value (same authority as the MILP
  // path's incumbents); the probe budget caps it for MILP-feasible output.
  auto absorb = [&](const BnbResult& bnb, std::optional<long> budget) {
    result.stats.nodes_explored += bnb.stats.nodes_explored;
    result.stats.lp_iterations += bnb.stats.lp_iterations;
    result.stats.lazy_rounds += bnb.stats.lazy_rounds;
    std::vector<double> w = model.ExtractWeights(bnb.values);
    std::vector<double> values;
    auto err = EvaluateOnModel(problem, model, w, &values);
    long achieved;
    if (err.has_value()) {
      achieved = *err;
      if (budget.has_value()) achieved = std::min(achieved, *budget);
    } else if (budget.has_value()) {
      achieved = *budget;
      values = bnb.values;
    } else {
      achieved = std::llround(objective.Evaluate(bnb.values));
      values = bnb.values;
    }
    if (hi < 0 || achieved < hi) {
      hi = achieved;
      best_values = std::move(values);
      ++result.stats.incumbent_updates;
    }
  };

  // Upper bound from the warm start (presolve winner, SYM-GD iterate, or a
  // session's revalidated pool incumbent).
  if (!seed.warm_weights.empty()) {
    std::vector<double> values;
    auto err = EvaluateOnModel(problem, model, seed.warm_weights, &values);
    if (err.has_value()) {
      hi = *err;
      best_values = std::move(values);
    }
  }
  // Cold start: one unconstrained feasibility probe. kInfeasible here means
  // the OPT instance itself (P ∧ gap semantics) is infeasible — propagate.
  if (hi < 0) {
    RH_ASSIGN_OR_RETURN(BnbResult bnb, run_probe(std::nullopt));
    ++result.sat_probes;
    absorb(bnb, std::nullopt);
  }

  // An externally proven lower bound (session reuse) skips the probes that
  // would re-establish it; lo == hi closes the search without any probe.
  long lo = std::max(0L, seed.lower_bound);
  bool undecided = false;
  while (lo < hi && !deadline.Expired() &&
         !(options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed))) {
    const long mid = lo + (hi - lo) / 2;
    Result<BnbResult> bnb = run_probe(mid);
    ++result.sat_probes;
    if (bnb.ok()) {
      absorb(*bnb, mid);
    } else if (bnb.status().code() == StatusCode::kInfeasible) {
      lo = mid + 1;
    } else if (bnb.status().code() == StatusCode::kResourceExhausted) {
      undecided = true;  // probe ran out of budget before deciding mid
      break;
    } else {
      return bnb.status();
    }
  }

  result.function = ScoringFunction::FromWeights(
      *problem.data, model.ExtractWeights(best_values));
  result.claimed_error = hi;
  result.error = hi;
  result.bound = std::min(lo, hi);
  result.proven_optimal = !undecided && lo >= hi;
  result.num_free_indicators = model.num_free_indicators;
  result.num_fixed_indicators = model.num_fixed_indicators;
  RH_RETURN_NOT_OK(VerifyIfRequested(problem, options, &result));
  return result;
}

Result<RankHowResult> SolveOptModelMilp(const OptProblem& problem,
                                        const RankHowOptions& options,
                                        const OptModel& model,
                                        const ExactSolveSeed& seed,
                                        const Deadline& deadline) {
  BnbOptions bnb_options = MilpBnbOptions(options, deadline);
  if (seed.lower_bound >= 0) {
    bnb_options.external_lower_bound = static_cast<double>(seed.lower_bound);
  }

  // Warm start from caller-provided weights (SYM-GD passes the previous
  // iterate; a session passes its best revalidated pool incumbent; benches
  // can pass a regression seed).
  if (!seed.warm_weights.empty()) {
    std::vector<double> values;
    auto err = EvaluateOnModel(problem, model, seed.warm_weights, &values);
    if (err.has_value()) {
      bnb_options.initial_incumbent = static_cast<double>(*err);
      bnb_options.initial_values = std::move(values);
    }
  }

  BranchAndBound solver(bnb_options);
  if (options.use_primal_heuristic) {
    solver.SetPrimalHeuristic(
        [&problem, &model](const std::vector<double>& lp_values)
            -> std::optional<PrimalCandidate> {
          std::vector<double> w = model.ExtractWeights(lp_values);
          std::vector<double> values;
          auto err = EvaluateOnModel(problem, model, w, &values);
          if (!err.has_value()) return std::nullopt;
          return PrimalCandidate{static_cast<double>(*err),
                                 std::move(values)};
        });
  }

  RH_ASSIGN_OR_RETURN(BnbResult bnb, solver.Solve(model.milp));

  RankHowResult result;
  result.function =
      ScoringFunction::FromWeights(*problem.data,
                                   model.ExtractWeights(bnb.values));
  result.claimed_error = std::llround(bnb.objective);
  result.error = result.claimed_error;
  result.bound = static_cast<long>(
      std::ceil(std::max(0.0, bnb.best_bound) - 1e-6));
  result.proven_optimal = bnb.proven_optimal;
  result.stats = bnb.stats;
  result.num_free_indicators = model.num_free_indicators;
  result.num_fixed_indicators = model.num_fixed_indicators;
  RH_RETURN_NOT_OK(VerifyIfRequested(problem, options, &result));
  return result;
}

}  // namespace rankhow
