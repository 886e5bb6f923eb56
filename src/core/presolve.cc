#include "core/presolve.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/seeding.h"
#include "data/kernels.h"
#include "ranking/objective.h"
#include "ranking/score_ranking.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace rankhow {

std::optional<long> EvaluateTrueError(const OptProblem& problem,
                                      const std::vector<double>& w) {
  const Dataset& data = *problem.data;
  const Ranking& given = *problem.given;
  const double tie_eps = problem.eps.tie_eps;
  if (!problem.constraints.IsSatisfied(w, 1e-7)) return std::nullopt;

  // This is the evaluation choke point of the whole solver — presolve,
  // incumbent revalidation, spatial B&B offers, and SYM-GD cell sweeps all
  // score through here, often millions of times. Batched kernel scoring
  // and one rank-counting pass (O(n log k) for k placed tuples) into
  // thread-local buffers keep the steady state allocation-free.
  static thread_local std::vector<double> scores;
  scores.resize(data.num_tuples());
  kernels::BatchScores(data, w, scores.data());
  for (const PairwiseOrderConstraint& oc : problem.order_constraints) {
    if (scores[oc.above] - scores[oc.below] <= tie_eps) return std::nullopt;
  }

  // The one counting pass places the ranked tuples, then the
  // position-constrained ones. Position constraints may cover unranked
  // tuples (their positions are checked but contribute no objective term —
  // Eq. (2) only sums over R_π(k)).
  const std::vector<int>& ranked = given.ranked_tuples();
  static thread_local std::vector<int> tuples;
  tuples.assign(ranked.begin(), ranked.end());
  for (const PositionConstraint& pc : problem.position_constraints) {
    tuples.push_back(pc.tuple);
  }
  static thread_local std::vector<int> positions;
  ScoreRankPositionsOf(scores, tuples, tie_eps, &positions);
  for (size_t i = 0; i < problem.position_constraints.size(); ++i) {
    const PositionConstraint& pc = problem.position_constraints[i];
    const int rho = positions[ranked.size() + i];
    if (rho < pc.min_position || rho > pc.max_position) return std::nullopt;
  }
  if (problem.objective.kind == ObjectiveKind::kInversions) {
    return ObjectiveOfScores(data, given, scores, tie_eps, problem.objective);
  }
  return PositionObjectiveOf(given, positions.data(), problem.objective);
}

namespace {

/// Random simplex samples blended into the target box.
constexpr int kNumRandomSamples = 400;
/// How many of the best candidates get local-search refinement.
constexpr int kRefineCandidates = 3;
/// Pairwise mass-transfer rounds per refined candidate.
constexpr int kRefineRounds = 80;
/// The deterministic RNG stream of the random samples and the refinement.
constexpr uint64_t kSeed = 0x9E3779B97F4A7C15ULL;

/// A candidate weight vector with its evaluated error.
struct Candidate {
  std::vector<double> weights;
  long error;
};

/// Pairwise mass-transfer local search: move weight between two attributes
/// (preserving Σw = 1 exactly) whenever it improves the true error. Step
/// sizes shrink geometrically; every accepted move restarts the step ladder.
void RefineCandidate(const OptProblem& problem, const WeightBox& box,
                     int rounds, Rng* rng, const Deadline& deadline,
                     Candidate* candidate, int* evaluated) {
  const int m = box.dim();
  if (m < 2) return;
  static constexpr double kSteps[] = {0.2, 0.05, 0.0125, 0.003};
  for (int round = 0; round < rounds; ++round) {
    if (deadline.Expired() || candidate->error == 0) return;
    int i = static_cast<int>(rng->NextBelow(m));
    int j = static_cast<int>(rng->NextBelow(m - 1));
    if (j >= i) ++j;
    bool improved = false;
    for (double step : kSteps) {
      // Try both transfer directions at this magnitude.
      for (int dir = 0; dir < 2; ++dir) {
        int from = dir == 0 ? i : j;
        int to = dir == 0 ? j : i;
        double t = std::min({step, candidate->weights[from] - box.lo[from],
                             box.hi[to] - candidate->weights[to]});
        if (t <= 0) continue;
        std::vector<double> trial = candidate->weights;
        trial[from] -= t;
        trial[to] += t;
        auto err = EvaluateTrueError(problem, trial);
        ++*evaluated;
        if (err.has_value() && *err < candidate->error) {
          candidate->weights = std::move(trial);
          candidate->error = *err;
          improved = true;
          break;
        }
      }
      if (improved) break;
    }
  }
}

}  // namespace

Result<PresolveResult> RevalidateIncumbents(
    const OptProblem& problem, const WeightBox& box,
    const std::vector<std::vector<double>>& pool,
    const PresolveOptions& options) {
  RH_RETURN_NOT_OK(problem.Validate());
  const int m = problem.data->num_attributes();
  RH_CHECK(box.dim() == m);
  WeightBox tight = problem.constraints.TightenBox(box);
  if (!tight.IntersectsSimplex()) {
    return Status::Infeasible("presolve box ∩ simplex ∩ P bounds is empty");
  }

  WallTimer timer;
  Deadline deadline(options.time_budget_seconds);
  PresolveResult result;
  Candidate best;
  best.error = -1;
  for (const std::vector<double>& w : pool) {
    if (static_cast<int>(w.size()) != m) continue;
    auto err = EvaluateTrueError(problem, w);
    ++result.evaluated;
    if (err.has_value() && (best.error < 0 || *err < best.error)) {
      best.weights = w;
      best.error = *err;
    }
    if (deadline.Expired()) break;
  }
  if (best.error < 0) {
    result.seconds = timer.ElapsedSeconds();
    return result;  // found() == false: pool fully invalidated by the edit
  }
  if (best.error > 0) {
    Rng rng(kSeed);
    RefineCandidate(problem, tight, kRefineRounds, &rng, deadline, &best,
                    &result.evaluated);
  }
  result.weights = std::move(best.weights);
  result.error = best.error;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

Result<PresolveResult> PresolveIncumbent(const OptProblem& problem,
                                         const WeightBox& box,
                                         const PresolveOptions& options) {
  RH_RETURN_NOT_OK(problem.Validate());
  const int m = problem.data->num_attributes();
  RH_CHECK(box.dim() == m);
  WeightBox tight = problem.constraints.TightenBox(box);
  if (!tight.IntersectsSimplex()) {
    return Status::Infeasible("presolve box ∩ simplex ∩ P bounds is empty");
  }
  RH_ASSIGN_OR_RETURN(std::vector<double> anchor,
                      AnyPointOnSimplexBox(tight));

  WallTimer timer;
  Deadline deadline(options.time_budget_seconds);
  Rng rng(kSeed);
  PresolveResult result;

  std::vector<Candidate> pool;
  auto consider = [&](const std::vector<double>& w) {
    auto err = EvaluateTrueError(problem, w);
    ++result.evaluated;
    if (err.has_value()) pool.push_back(Candidate{w, *err});
  };

  // 1. Deterministic seeds: the box anchor, the uniform point, each simplex
  //    vertex — all blended into the box so they stay feasible.
  consider(anchor);
  std::vector<double> uniform(m, 1.0 / m);
  if (auto u = BlendIntoBox(uniform, anchor, tight, 1.0)) consider(*u);
  for (int i = 0; i < m && !deadline.Expired(); ++i) {
    std::vector<double> vertex(m, 0.0);
    vertex[i] = 1.0;
    if (auto v = BlendIntoBox(vertex, anchor, tight, 1.0)) consider(*v);
  }

  // 2. Regression seeds (Sec. IV-B's first seeding strategy).
  if (!deadline.Expired()) {
    if (auto ord = OrdinalRegressionSeed(*problem.data, *problem.given,
                                         problem.eps.eps1);
        ord.ok()) {
      if (auto w = BlendIntoBox(*ord, anchor, tight, 1.0)) consider(*w);
    }
    if (auto lin = LinearRegressionSeed(*problem.data, *problem.given);
        lin.ok()) {
      if (auto w = BlendIntoBox(*lin, anchor, tight, 1.0)) consider(*w);
    }
  }

  // 3. Random simplex points, one far blend + one half blend each.
  for (int s = 0; s < kNumRandomSamples && !deadline.Expired(); ++s) {
    std::vector<double> p = rng.NextSimplexPoint(m);
    if (auto w = BlendIntoBox(p, anchor, tight, 0.98)) consider(*w);
    if (auto w = BlendIntoBox(p, anchor, tight, 0.5)) consider(*w);
  }

  if (pool.empty()) {
    result.seconds = timer.ElapsedSeconds();
    return result;  // found() == false
  }

  // 4. Refine the few most promising candidates.
  std::sort(pool.begin(), pool.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.error < b.error;
            });
  int refine = std::min<int>(kRefineCandidates,
                             static_cast<int>(pool.size()));
  for (int i = 0; i < refine && !deadline.Expired(); ++i) {
    RefineCandidate(problem, tight, kRefineRounds, &rng, deadline, &pool[i],
                    &result.evaluated);
    if (pool[i].error == 0) break;
  }

  const Candidate& best = *std::min_element(
      pool.begin(), pool.end(), [](const Candidate& a, const Candidate& b) {
        return a.error < b.error;
      });
  result.weights = best.weights;
  result.error = best.error;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace rankhow
