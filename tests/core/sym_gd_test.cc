#include "core/sym_gd.h"

#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "core/seeding.h"
#include "data/nba.h"
#include "data/synthetic.h"
#include "ranking/score_ranking.h"
#include "util/random.h"

namespace rankhow {
namespace {

EpsilonConfig TestEps() {
  EpsilonConfig eps;
  eps.tie_eps = 5e-7;
  eps.eps1 = 1e-6;
  eps.eps2 = 0.0;
  return eps;
}

struct Instance {
  Dataset data;
  Ranking given;
};

Instance MakeInstance(uint64_t seed, int n, int m, int k, int exponent) {
  SyntheticSpec spec;
  spec.num_tuples = n;
  spec.num_attributes = m;
  spec.distribution = SyntheticDistribution::kUniform;
  spec.seed = seed;
  Dataset data = GenerateSynthetic(spec);
  Ranking given = PowerSumRanking(data, exponent, k);
  return Instance{std::move(data), std::move(given)};
}

TEST(SymGdTest, ImprovesOnRandomSeed) {
  Instance inst = MakeInstance(5, 80, 3, 5, 3);
  std::vector<double> seed = RandomSeed(3, 99);
  long seed_error =
      PositionError(inst.data, inst.given, seed, TestEps().tie_eps);

  SymGdOptions options;
  options.cell_size = 0.3;
  options.solver.eps = TestEps();
  SymGd symgd(inst.data, inst.given, options);
  auto result = symgd.Run(seed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result->error, seed_error);
  EXPECT_GE(result->iterations, 1);
  // Trajectory is monotonically non-increasing at the accepted steps.
  for (size_t i = 1; i < result->error_trajectory.size(); ++i) {
    EXPECT_LE(result->error_trajectory[i], result->error_trajectory[i - 1] +
                                               0);
  }
}

TEST(SymGdTest, MatchesGlobalOptimumOnEasyInstance) {
  // Linearly-realizable ranking: the global optimum is 0 and a descent from
  // any seed with a reasonably large cell should find it.
  Rng rng(7);
  SyntheticSpec spec;
  spec.num_tuples = 60;
  spec.num_attributes = 3;
  spec.seed = 21;
  Dataset data = GenerateSynthetic(spec);
  std::vector<double> w_true = {0.5, 0.3, 0.2};
  Ranking given = Ranking::FromScores(data.Scores(w_true), 5, 0.0);

  SymGdOptions options;
  options.cell_size = 0.4;
  options.adaptive = true;
  options.time_budget_seconds = 30;
  options.solver.eps = TestEps();
  SymGd symgd(data, given, options);
  auto result = symgd.Run(RandomSeed(3, 4));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->error, 0);
}

TEST(SymGdTest, NeverWorseThanGlobalBound) {
  Instance inst = MakeInstance(11, 40, 3, 4, 4);
  RankHowOptions exact_options;
  exact_options.eps = TestEps();
  RankHow exact(inst.data, inst.given, exact_options);
  auto global = exact.Solve();
  ASSERT_TRUE(global.ok()) << global.status().ToString();

  SymGdOptions options;
  options.cell_size = 0.2;
  options.solver.eps = TestEps();
  SymGd symgd(inst.data, inst.given, options);
  auto local = symgd.Run(RandomSeed(3, 123));
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  // Local search can't beat the proven global optimum.
  EXPECT_GE(local->error, global->error);
}

TEST(SymGdTest, AdaptiveGrowsCellWhenStuck) {
  Instance inst = MakeInstance(13, 60, 3, 5, 5);
  SymGdOptions options;
  options.cell_size = 0.01;  // tiny: will converge locally fast
  options.adaptive = true;
  options.time_budget_seconds = 5;
  options.solver.eps = TestEps();
  SymGd symgd(inst.data, inst.given, options);
  auto result = symgd.Run(RandomSeed(3, 5));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Either solved to zero, or the cell grew beyond its initial size.
  if (result->error > 0) {
    EXPECT_GT(result->final_cell_size, options.cell_size);
  }
}

/// Anti-correlated attributes ranked by a degree-8 power sum: no linear
/// function reproduces the top 5, so an adaptive descent from
/// RandomSeed(3, 5) stalls above error 0.
Instance StuckInstance() {
  SyntheticSpec spec;
  spec.num_tuples = 20;
  spec.num_attributes = 3;
  spec.distribution = SyntheticDistribution::kAntiCorrelated;
  spec.seed = 2;
  Dataset data = GenerateSynthetic(spec);
  Ranking given = PowerSumRanking(data, 8, 5);
  return Instance{std::move(data), std::move(given)};
}

TEST(SymGdTest, AdaptiveStopsOnceTheCellCannotGrow) {
  // A descent stuck above error 0 doubles its cell up to the 1.999 cap.
  // Once there, another round would re-solve the same cell around the same
  // iterate, so the run must end rather than spin to the 1 000-step safety
  // cap (no time budget bounds it).
  Instance inst = StuckInstance();
  SymGdOptions options;
  options.cell_size = 0.01;
  options.adaptive = true;
  options.time_budget_seconds = 0;
  options.solver.eps = TestEps();
  auto result = SymGd(inst.data, inst.given, options).Run(RandomSeed(3, 5));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->error, 0) << "the instance must leave the descent stuck";
  EXPECT_EQ(result->final_cell_size, 1.999);
  EXPECT_LT(result->iterations, 100);
}

TEST(SymGdTest, AdaptiveKeepsACellAboveTheGrowthCap) {
  // A user cell in (1.999, 2) cannot grow; it is not shrunk to the cap.
  Instance inst = StuckInstance();
  SymGdOptions options;
  options.cell_size = 1.9995;
  options.adaptive = true;
  options.solver.eps = TestEps();
  auto result = SymGd(inst.data, inst.given, options).Run(RandomSeed(3, 5));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->final_cell_size, 1.9995);
  EXPECT_LT(result->iterations, 100);
}

TEST(SymGdTest, RespectsProblemConstraints) {
  Instance inst = MakeInstance(3, 50, 3, 4, 2);
  SymGdOptions options;
  options.cell_size = 0.3;
  options.solver.eps = TestEps();
  SymGd symgd(inst.data, inst.given, options);
  symgd.problem().constraints.AddMinWeight(2, 0.4, "keep_A3");
  // A seed inside the weight bounds is used as given;
  // MovesSeedOutsideWeightBoundsIntoThem covers one outside them.
  auto result = symgd.Run({0.3, 0.3, 0.4});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->function.weights[2], 0.4 - 1e-6);
}

// A regression seed knows nothing of P's weight bounds. With a floor of
// 0.5 on one attribute the ordinal-regression seed lies far below it, and
// a first cell centred there would not meet the bounds; Run moves the seed
// into them first. The descent must then succeed, keep the floor, and
// reach no better than the proven optimum.
TEST(SymGdTest, MovesSeedOutsideWeightBoundsIntoThem) {
  const NbaData nba = GenerateNba({.num_tuples = 22840, .seed = 1});
  const int n = 300;
  std::vector<int> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  Dataset data = nba.table.SelectTuples(rows).SelectAttributes({0, 1, 2, 3, 4});
  data.NormalizeMinMax();
  std::vector<double> score(nba.mp_times_per.begin(),
                            nba.mp_times_per.begin() + n);
  Ranking given = Ranking::FromScores(score, 6, 0.0);
  EpsilonConfig eps;
  eps.tie_eps = 5e-5;
  eps.eps1 = 1e-4;
  eps.eps2 = 0.0;
  auto seed = OrdinalRegressionSeed(data, given, eps.eps1);
  ASSERT_TRUE(seed.ok()) << seed.status().ToString();

  for (int attr = 1; attr <= 4; ++attr) {
    SCOPED_TRACE("floor on attribute " + std::to_string(attr));
    ASSERT_LT((*seed)[attr], 0.5 - 0.1);  // outside, beyond half a cell

    RankHowOptions solver_options;
    solver_options.eps = eps;
    solver_options.num_threads = 1;
    RankHow exact(data, given, solver_options);
    exact.problem().constraints.AddMinWeight(attr, 0.5);
    auto optimum = exact.Solve();
    ASSERT_TRUE(optimum.ok()) << optimum.status().ToString();
    ASSERT_TRUE(optimum->proven_optimal);

    SymGdOptions options;
    options.solver = solver_options;
    SymGd symgd(data, given, options);
    symgd.problem().constraints.AddMinWeight(attr, 0.5);
    auto result = symgd.Run(*seed);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GE(result->function.weights[attr], 0.5 - 1e-9);
    EXPECT_GE(result->error, optimum->error);
  }
}

TEST(SymGdTest, RejectsBadSeedArity) {
  Instance inst = MakeInstance(1, 20, 3, 3, 2);
  SymGdOptions options;
  options.solver.eps = TestEps();
  SymGd symgd(inst.data, inst.given, options);
  EXPECT_FALSE(symgd.Run({0.5, 0.5}).ok());
}

}  // namespace
}  // namespace rankhow
