// The MILP primal heuristic's screened evaluation. A model built over a
// cell keeps a ScoreScreen: the tuples that can beat a ranked tuple near
// the cell. EvaluateOnModel scores only those where the screen covers the
// point, and must return what scoring all n tuples returns, bit for bit:
// the objective and the model-variable assignment. Points inside the cell,
// on its faces, just outside it (as LP vertices sit) and far outside it;
// problems with ε₂ = tie_eps, with an order constraint and a position range
// on low-scoring unranked tuples, with the inversions objective, and with
// tie_eps lowered after the build, as an in-place ε patch does.

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/opt_model_builder.h"
#include "core/rankhow.h"
#include "math/simplex_box.h"
#include "ranking/ranking.h"
#include "util/random.h"

namespace rankhow {
namespace {

constexpr int kTuples = 400;
constexpr int kAttributes = 4;
constexpr int kRanked = 8;

/// Uniform data, ranked by its scores at `center` (so the ranked tuples
/// are the top of the cell around it).
struct Instance {
  Dataset data;
  Ranking given;
  std::vector<double> center;
};

Instance MakeInstance(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int a = 0; a < kAttributes; ++a) {
    names.push_back("A" + std::to_string(a));
  }
  Instance inst{Dataset(names, kTuples), Ranking(),
                rng.NextSimplexPoint(kAttributes)};
  for (int t = 0; t < kTuples; ++t) {
    for (int a = 0; a < kAttributes; ++a) {
      inst.data.set_value(t, a, rng.NextDouble());
    }
  }
  inst.given =
      Ranking::FromScores(inst.data.Scores(inst.center), kRanked, 0.0);
  return inst;
}

OptProblem MakeProblem(const Instance& inst) {
  OptProblem problem;
  problem.data = &inst.data;
  problem.given = &inst.given;
  problem.eps.tie_eps = 5e-5;
  problem.eps.eps1 = 1e-4;
  problem.eps.eps2 = 0.0;
  return problem;
}

/// The unranked tuples, lowest score at the center first.
std::vector<int> LowScoringUnranked(const Instance& inst) {
  const std::vector<double> scores = inst.data.Scores(inst.center);
  std::vector<int> out;
  for (int t = 0; t < kTuples; ++t) {
    if (!inst.given.IsRanked(t)) out.push_back(t);
  }
  std::sort(out.begin(), out.end(),
            [&](int a, int b) { return scores[a] < scores[b]; });
  return out;
}

struct TestPoints {
  std::vector<std::vector<double>> inside;   // in box ∩ simplex
  std::vector<std::vector<double>> near;     // within LP tolerances of it
  std::vector<std::vector<double>> far;      // the simplex vertices
};

/// Random points of the cell (blended toward random simplex points from
/// the center), points on its faces (blended as far as the box allows),
/// those points moved off the cell by 1e-9 and 1e-7 on one coordinate, and
/// the simplex vertices, far outside a cell of width 0.2.
TestPoints MakePoints(const WeightBox& box, const std::vector<double>& center,
                      uint64_t seed) {
  Rng rng(seed);
  TestPoints points;
  points.inside.push_back(center);
  for (int i = 0; i < 40; ++i) {
    const std::vector<double> target = rng.NextSimplexPoint(kAttributes);
    const double scale = i % 2 == 0 ? rng.NextUniform(0.0, 1.0) : 1.0;
    auto w = BlendIntoBox(target, center, box, scale);
    if (w.has_value()) points.inside.push_back(*w);
  }
  for (const std::vector<double>& w : points.inside) {
    for (double off : {1e-9, -1e-9, 1e-7, -1e-7}) {
      std::vector<double> moved = w;
      moved[rng.NextBelow(kAttributes)] += off;
      points.near.push_back(moved);
    }
  }
  for (int a = 0; a < kAttributes; ++a) {
    std::vector<double> vertex(kAttributes, 0.0);
    vertex[a] = 1.0;
    points.far.push_back(vertex);
  }
  return points;
}

/// Whether some tuple the screen left out beats a ranked tuple at w under
/// the problem's tie_eps: a point where scoring the candidates alone would
/// be wrong.
bool ScreenWouldMiss(const OptProblem& problem, const ScoreScreen& screen,
                     const std::vector<double>& w) {
  const std::vector<double> scores = problem.data->Scores(w);
  double lowest = scores[problem.given->ranked_tuples()[0]];
  for (int r : problem.given->ranked_tuples()) {
    lowest = std::min(lowest, scores[r]);
  }
  std::vector<char> kept(problem.data->num_tuples(), 0);
  for (int t : screen.candidates) kept[t] = 1;
  for (int s = 0; s < problem.data->num_tuples(); ++s) {
    if (!kept[s] && scores[s] > lowest + problem.eps.tie_eps) return true;
  }
  return false;
}

/// Screened and full evaluation of w agree bit for bit.
void ExpectSameEvaluation(const OptProblem& problem, const OptModel& model,
                          const OptModel& unscreened,
                          const std::vector<double>& w) {
  std::vector<double> got_values;
  std::vector<double> want_values;
  const std::optional<long> got =
      EvaluateOnModel(problem, model, w, &got_values);
  const std::optional<long> want =
      EvaluateOnModel(problem, unscreened, w, &want_values);
  EXPECT_EQ(got, want);
  ASSERT_EQ(got_values.size(), want_values.size());
  EXPECT_EQ(std::memcmp(got_values.data(), want_values.data(),
                        want_values.size() * sizeof(double)),
            0);
}

/// Builds the model over a cell of width 0.2 around the instance's center
/// and checks every test point.
void CheckCell(const Instance& inst, const OptProblem& problem,
               uint64_t seed) {
  const WeightBox box = WeightBox::CellAround(inst.center, 0.2);
  Result<OptModel> model = BuildOptModel(problem, box);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_TRUE(model->screen.has_value());
  const ScoreScreen& screen = *model->screen;
  EXPECT_LT(screen.candidates.size(), static_cast<size_t>(kTuples / 2));
  OptModel unscreened = *model;
  unscreened.screen.reset();

  const TestPoints points = MakePoints(box, inst.center, seed);
  for (const std::vector<double>& w : points.inside) {
    EXPECT_TRUE(screen.Covers(w, problem.eps.tie_eps));
    ExpectSameEvaluation(problem, *model, unscreened, w);
  }
  for (const std::vector<double>& w : points.near) {
    EXPECT_TRUE(screen.Covers(w, problem.eps.tie_eps));
    ExpectSameEvaluation(problem, *model, unscreened, w);
  }
  int missed = 0;
  for (const std::vector<double>& w : points.far) {
    EXPECT_FALSE(screen.Covers(w, problem.eps.tie_eps));
    ExpectSameEvaluation(problem, *model, unscreened, w);
    missed += ScreenWouldMiss(problem, screen, w);
  }
  // The far points do test the fallback: at some of them the candidates
  // alone would count wrong.
  EXPECT_GT(missed, 0);
}

TEST(ScreenedEvaluationTest, MatchesFullScoringInAndAroundTheCell) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const Instance inst = MakeInstance(seed);
    CheckCell(inst, MakeProblem(inst), seed);
  }
}

// EpsilonConfig::Valid allows ε₂ = tie_eps: the screen may not rely on a
// gap between them.
TEST(ScreenedEvaluationTest, MatchesFullScoringWithEps2AtTieEps) {
  const Instance inst = MakeInstance(4);
  OptProblem problem = MakeProblem(inst);
  problem.eps.eps2 = problem.eps.tie_eps;
  CheckCell(inst, problem, 4);
}

TEST(ScreenedEvaluationTest, MatchesFullScoringWithInversionsObjective) {
  const Instance inst = MakeInstance(5);
  OptProblem problem = MakeProblem(inst);
  problem.objective = RankingObjectiveSpec::Inversions();
  CheckCell(inst, problem, 5);
}

// Side constraints on tuples far below the ranked ones: a position range
// (its tuple becomes a group, and so a candidate) and an order constraint
// between two tuples the screen leaves out, whose order flips inside the
// cell, so the evaluation must score them to decide it.
TEST(ScreenedEvaluationTest, MatchesFullScoringWithLowScoringSideConstraints) {
  const Instance inst = MakeInstance(6);
  OptProblem problem = MakeProblem(inst);
  const WeightBox box = WeightBox::CellAround(inst.center, 0.2);
  const std::vector<int> low = LowScoringUnranked(inst);
  problem.position_constraints.push_back({low[0], kTuples / 2, kTuples});
  // The screen depends on neither the order constraints nor ε₁ and ε₂, so
  // the pair is chosen from what the model without it leaves out: the two
  // such tuples whose score difference swings furthest to both sides of 0
  // over the cell.
  Result<OptModel> model = BuildOptModel(problem, box);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_TRUE(model->screen.has_value());
  const std::vector<int> candidates = model->screen->candidates;
  EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                 low[0]));
  std::vector<int> left_out;
  for (int t : low) {
    if (!std::binary_search(candidates.begin(), candidates.end(), t)) {
      left_out.push_back(t);
    }
  }
  std::optional<PairwiseOrderConstraint> order;
  double best_swing = 0.01;
  for (size_t i = 0; i < left_out.size() && i < 100; ++i) {
    for (size_t j = i + 1; j < left_out.size() && j < 100; ++j) {
      Result<DotRange> range = DotRangeOnSimplexBox(
          inst.data.DiffVector(left_out[i], left_out[j]), box);
      ASSERT_TRUE(range.ok());
      const double swing = std::min(-range->min, range->max);
      if (swing > best_swing) {
        best_swing = swing;
        order = PairwiseOrderConstraint{left_out[i], left_out[j]};
      }
    }
  }
  ASSERT_TRUE(order.has_value());
  problem.order_constraints.push_back(*order);
  model = BuildOptModel(problem, box);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_TRUE(model->screen.has_value());
  EXPECT_EQ(model->screen->candidates, candidates);
  OptModel unscreened = *model;
  unscreened.screen.reset();
  int rejected = 0;
  int accepted = 0;
  const TestPoints points = MakePoints(box, inst.center, 6);
  for (const std::vector<double>& w : points.inside) {
    ExpectSameEvaluation(problem, *model, unscreened, w);
    const bool ok = EvaluateOnModel(problem, *model, w, nullptr).has_value();
    rejected += !ok;
    accepted += ok;
  }
  // Both verdicts of the order constraint occur inside the cell.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
}

// A session patches ε in place, so the tie_eps an evaluation runs under may
// be lower than the one the screen was built for. Inside the cell a tuple
// the screen leaves out is fixed to zero against every ranked tuple, so
// under a valid ε it could beat one only by a rounding step; the screen's
// margin covers that and the points just outside the cell, and a lower
// tie_eps eats the margin. The screen is therefore checked against the
// current tie_eps: it stops covering the cell, and the evaluation scores
// everything.
TEST(ScreenedEvaluationTest, LoweredTieEpsFallsBackToFullScoring) {
  const Instance inst = MakeInstance(7);
  OptProblem problem = MakeProblem(inst);
  problem.eps.tie_eps = 0.02;
  problem.eps.eps1 = 0.03;
  const WeightBox box = WeightBox::CellAround(inst.center, 0.2);
  Result<OptModel> model = BuildOptModel(problem, box);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_TRUE(model->screen.has_value());
  const ScoreScreen& screen = *model->screen;
  OptModel unscreened = *model;
  unscreened.screen.reset();

  const TestPoints points = MakePoints(box, inst.center, 7);
  for (double tie_eps : {0.02, 0.019, 0.0}) {
    SCOPED_TRACE(tie_eps);
    problem.eps.tie_eps = tie_eps;
    for (const std::vector<double>& w : points.inside) {
      EXPECT_EQ(screen.Covers(w, tie_eps), tie_eps == 0.02);
      ExpectSameEvaluation(problem, *model, unscreened, w);
    }
    for (const std::vector<double>& w : points.near) {
      EXPECT_EQ(screen.Covers(w, tie_eps), tie_eps == 0.02);
      ExpectSameEvaluation(problem, *model, unscreened, w);
    }
  }
}

}  // namespace
}  // namespace rankhow
