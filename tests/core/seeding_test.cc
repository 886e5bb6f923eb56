#include "core/seeding.h"

#include <numeric>

#include <gtest/gtest.h>

#include "data/nba.h"
#include "data/synthetic.h"
#include "ranking/score_ranking.h"
#include "util/timer.h"

namespace rankhow {
namespace {

void ExpectSimplex(const std::vector<double>& w) {
  double sum = std::accumulate(w.begin(), w.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (double v : w) EXPECT_GE(v, 0.0);
}

TEST(ProjectWeightsTest, ClampsAndNormalizes) {
  auto w = ProjectWeightsToSimplex({2.0, -1.0, 2.0});
  ExpectSimplex(w);
  EXPECT_DOUBLE_EQ(w[0], 0.5);
  EXPECT_DOUBLE_EQ(w[1], 0.0);
  EXPECT_DOUBLE_EQ(w[2], 0.5);
}

TEST(ProjectWeightsTest, AllNonPositiveFallsBackToUniform) {
  auto w = ProjectWeightsToSimplex({-1.0, -2.0});
  EXPECT_DOUBLE_EQ(w[0], 0.5);
  EXPECT_DOUBLE_EQ(w[1], 0.5);
}

struct Instance {
  Dataset data;
  Ranking given;
};

Instance LinearInstance(uint64_t seed, const std::vector<double>& w_true,
                        int n, int k) {
  SyntheticSpec spec;
  spec.num_tuples = n;
  spec.num_attributes = static_cast<int>(w_true.size());
  spec.seed = seed;
  Dataset data = GenerateSynthetic(spec);
  Ranking given = Ranking::FromScores(data.Scores(w_true), k, 0.0);
  return {std::move(data), std::move(given)};
}

TEST(SeedingTest, OrdinalRegressionSeedRecoversLinearRanking) {
  Instance inst = LinearInstance(3, {0.6, 0.3, 0.1}, 100, 8);
  auto seed = OrdinalRegressionSeed(inst.data, inst.given, 1e-6);
  ASSERT_TRUE(seed.ok()) << seed.status().ToString();
  ExpectSimplex(*seed);
  // A linearly-realizable ranking should be (nearly) recovered.
  long error = PositionError(inst.data, inst.given, *seed, 0.0);
  EXPECT_LE(error, 2);
}

TEST(SeedingTest, LinearRegressionSeedIsOnSimplex) {
  Instance inst = LinearInstance(4, {0.2, 0.8}, 60, 5);
  auto seed = LinearRegressionSeed(inst.data, inst.given);
  ASSERT_TRUE(seed.ok()) << seed.status().ToString();
  ExpectSimplex(*seed);
}

TEST(SeedingTest, GridLowerBoundSeedFindsGoodCell) {
  Instance inst = LinearInstance(5, {0.15, 0.85}, 50, 5);
  GridSeedOptions options;
  options.target_cell_size = 0.1;
  options.eps1 = 1e-6;
  auto seed = GridLowerBoundSeed(inst.data, inst.given, options);
  ASSERT_TRUE(seed.ok()) << seed.status().ToString();
  ExpectSimplex(*seed);
  // The chosen cell should land near the true weights: within one cell step
  // of error from optimal (0). Allow a modest slack.
  long error = PositionError(inst.data, inst.given, *seed, 0.0);
  long random_error =
      PositionError(inst.data, inst.given, RandomSeed(2, 1), 0.0);
  EXPECT_LE(error, std::max<long>(random_error, 3));
}

// A portfolio builds a deterministic seed only while a slot is open for
// it: two slots go to the ordinal and linear fits, so the grid search
// (seconds at this n) must not run. The grid seed alone is the yardstick.
TEST(SeedingTest, PortfolioBuildsOnlyTheSeedsItKeeps) {
  const NbaData nba = GenerateNba({.num_tuples = 22840, .seed = 1});
  const int n = 300;
  std::vector<int> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  Dataset data = nba.table.SelectTuples(rows).SelectAttributes({0, 1, 2, 3, 4});
  data.NormalizeMinMax();
  std::vector<double> score(nba.mp_times_per.begin(),
                            nba.mp_times_per.begin() + n);
  Ranking given = Ranking::FromScores(score, 10, 0.0);
  const double eps1 = 1e-4;

  WallTimer grid_timer;
  GridSeedOptions grid_options;
  grid_options.eps1 = eps1;
  auto grid = GridLowerBoundSeed(data, given, grid_options);
  const double grid_seconds = grid_timer.ElapsedSeconds();
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();

  WallTimer portfolio_timer;
  std::vector<PortfolioSeed> seeds =
      BuildPortfolioSeeds(data, given, eps1, /*count=*/2, /*stream_seed=*/7);
  const double portfolio_seconds = portfolio_timer.ElapsedSeconds();
  EXPECT_LT(portfolio_seconds, grid_seconds / 4)
      << "grid seed " << grid_seconds << " s, portfolio of 2 "
      << portfolio_seconds << " s";

  // The same seeds as building all three first: the two fits, in order.
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_EQ(seeds[0].name, "ordinal");
  EXPECT_EQ(seeds[0].weights, *OrdinalRegressionSeed(data, given, eps1));
  EXPECT_EQ(seeds[1].name, "linear");
  EXPECT_EQ(seeds[1].weights, *LinearRegressionSeed(data, given));
}

// Past the deadline no deterministic generator starts and the grid search
// splits no cell. The deadline has expired before either call, so the
// outcome does not depend on timing.
TEST(SeedingTest, ExpiredDeadlineLeavesOnlyRandomSeeds) {
  Instance inst = LinearInstance(6, {0.5, 0.3, 0.2}, 80, 6);
  const Deadline expired(1e-9);
  while (!expired.Expired()) {
  }

  std::vector<PortfolioSeed> seeds = BuildPortfolioSeeds(
      inst.data, inst.given, 1e-6, /*count=*/4, /*stream_seed=*/7, expired);
  ASSERT_EQ(seeds.size(), 4u);
  for (const PortfolioSeed& seed : seeds) {
    EXPECT_EQ(seed.name.rfind("random-", 0), 0u) << seed.name;
    ExpectSimplex(seed.weights);
  }

  auto grid =
      GridLowerBoundSeed(inst.data, inst.given, GridSeedOptions(), expired);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  EXPECT_EQ(*grid, *AnyPointOnSimplexBox(WeightBox::FullSimplex(3)));
}

TEST(SeedingTest, RandomSeedDeterministicPerSeed) {
  auto a = RandomSeed(4, 7);
  auto b = RandomSeed(4, 7);
  EXPECT_EQ(a, b);
  ExpectSimplex(a);
}

}  // namespace
}  // namespace rankhow
