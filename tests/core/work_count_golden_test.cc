// Golden work counts of the multi-start presolve, the spatial
// branch-and-bound and Sym-GD. Small NBA-simulator instances, built the way
// perfbench builds its solver workloads, run at one thread with no
// wall-clock cap in the way, so every count is deterministic. The answers
// and work counts must equal literals: presolve's error and evaluation
// count, the spatial search's error, bound, boxes and incumbent updates,
// and a Sym-GD descent's error, cell solves and summed nodes. The Sym-GD
// instance has more than 3 000 ordinal-regression pairs, so its seed comes
// from the subgradient path; the seed's weights are pinned bit for bit
// (hex-float literals), and so is the presolve on that instance. The grid
// lower-bound seed's weights are pinned bit for bit too, once when it
// reaches a narrow cell and once when its cell budget runs out. A change
// that claims to leave every search decision alone (constants moved,
// plumbing deleted, a kernel swapped) must pass this unmodified;
// tests/milp/work_count_golden_test.cc does the same for the indicator
// MILP.

#include <cstdint>
#include <functional>
#include <ios>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/ordinal_regression.h"
#include "core/presolve.h"
#include "core/rankhow.h"
#include "core/seeding.h"
#include "core/sym_gd.h"
#include "data/nba.h"
#include "math/simplex_box.h"
#include "ranking/ranking.h"

namespace rankhow {
namespace {

/// The first `n` players of the paper-size simulated NBA table (generator
/// seed 1), the first `m` attributes min-max normalized, ranked by MP×PER
/// with the top `k` given.
void MakeNbaInstance(int n, int m, int k, Dataset* data, Ranking* given) {
  const NbaData nba = GenerateNba({.num_tuples = 22840, .seed = 1});
  std::vector<int> rows(n);
  for (int i = 0; i < n; ++i) rows[i] = i;
  std::vector<int> attrs(m);
  for (int a = 0; a < m; ++a) attrs[a] = a;
  *data = nba.table.SelectTuples(rows).SelectAttributes(attrs);
  data->NormalizeMinMax();
  std::vector<double> score(n);
  for (int i = 0; i < n; ++i) score[i] = nba.mp_times_per[i];
  *given = Ranking::FromScores(score, k, 0.0);
}

/// perfbench's solver configuration, serial, with the presolve budget
/// lifted: no wall-clock cap may cut the presolve short (sanitizer builds
/// run this suite several times slower), or the search would start from a
/// different incumbent.
RankHowOptions GoldenOptions() {
  RankHowOptions options;
  options.eps.tie_eps = 5e-5;
  options.eps.eps1 = 1e-4;
  options.eps.eps2 = 0.0;
  options.num_threads = 1;
  options.presolve.time_budget_seconds = 3600;
  return options;
}

void ExpectPresolveGolden(int n, int m, int k, long error, int evaluated) {
  Dataset data;
  Ranking given;
  MakeNbaInstance(n, m, k, &data, &given);
  const RankHowOptions options = GoldenOptions();
  OptProblem problem;
  problem.data = &data;
  problem.given = &given;
  problem.eps = options.eps;
  Result<PresolveResult> result =
      PresolveIncumbent(problem, WeightBox::FullSimplex(m), options.presolve);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->error, error);
  EXPECT_EQ(result->evaluated, evaluated);
}

struct SpatialGolden {
  long error;
  int64_t boxes;
  int64_t incumbent_updates;
};

/// `constrain`, when given, adds side constraints to the problem first.
void ExpectSpatialGolden(
    int n, int m, int k, const SpatialGolden& golden,
    const std::function<void(const Ranking&, OptProblem*)>& constrain = {}) {
  Dataset data;
  Ranking given;
  MakeNbaInstance(n, m, k, &data, &given);
  RankHowOptions options = GoldenOptions();
  options.strategy = SolveStrategy::kSpatial;
  RankHow solver(data, given, options);
  if (constrain) constrain(given, &solver.problem());
  Result<RankHowResult> result = solver.Solve();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->proven_optimal);
  EXPECT_EQ(result->strategy_used, SolveStrategy::kSpatial);
  EXPECT_EQ(result->error, golden.error);
  EXPECT_EQ(result->bound, golden.error);
  EXPECT_EQ(result->stats.nodes_explored, golden.boxes);
  EXPECT_EQ(result->stats.incumbent_updates, golden.incumbent_updates);
}

struct SymGdGolden {
  std::vector<double> seed;
  long error;
  int iterations;
  long total_nodes;
  /// The cells' summed LP rebuilds and certified infeasibility verdicts;
  /// -1 leaves them unpinned.
  long total_lp_rebuilds = -1;
  long total_lp_certified_infeasible = -1;
};

/// Cells solve the indicator MILP, as perfbench's symgd_full does at the
/// paper's n. `constrain`, when given, adds side constraints to the problem
/// first.
void ExpectSymGdGolden(
    int n, int m, int k, double cell, const SymGdGolden& golden,
    const std::function<void(const Ranking&, OptProblem*)>& constrain = {}) {
  Dataset data;
  Ranking given;
  MakeNbaInstance(n, m, k, &data, &given);
  SymGdOptions options;
  options.cell_size = cell;
  options.solver = GoldenOptions();
  options.solver.strategy = SolveStrategy::kIndicatorMilp;
  OrdinalRegressionOptions fit_options;
  fit_options.margin = options.solver.eps.eps1;
  Result<OrdinalRegressionFit> fit =
      FitOrdinalRegression(data, given, fit_options);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  ASSERT_FALSE(fit->exact_lp) << "the seed must take the subgradient path";
  Result<std::vector<double>> seed =
      OrdinalRegressionSeed(data, given, options.solver.eps.eps1);
  ASSERT_TRUE(seed.ok()) << seed.status().ToString();
  ASSERT_EQ(seed->size(), golden.seed.size());
  for (size_t a = 0; a < golden.seed.size(); ++a) {
    EXPECT_EQ((*seed)[a], golden.seed[a]) << "seed weight " << a;
  }
  SymGd descent(data, given, options);
  if (constrain) constrain(given, &descent.problem());
  Result<SymGdResult> result = descent.Run(*seed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->error, golden.error);
  EXPECT_EQ(result->iterations, golden.iterations);
  EXPECT_EQ(result->total_nodes, golden.total_nodes);
  if (golden.total_lp_rebuilds >= 0) {
    EXPECT_EQ(result->total_lp_rebuilds, golden.total_lp_rebuilds);
  }
  if (golden.total_lp_certified_infeasible >= 0) {
    EXPECT_EQ(result->total_lp_certified_infeasible,
              golden.total_lp_certified_infeasible);
  }
}

/// The grid lower-bound seed with eps1 = 1e-4 and at most `max_cells` cell
/// bounds; its weights are pinned bit for bit.
void ExpectGridSeedGolden(int n, int m, int k, int max_cells,
                          const std::vector<double>& weights) {
  Dataset data;
  Ranking given;
  MakeNbaInstance(n, m, k, &data, &given);
  GridSeedOptions options;
  options.eps1 = GoldenOptions().eps.eps1;
  options.max_cells = max_cells;
  Result<std::vector<double>> seed = GridLowerBoundSeed(data, given, options);
  ASSERT_TRUE(seed.ok()) << seed.status().ToString();
  ASSERT_EQ(seed->size(), weights.size());
  for (size_t a = 0; a < weights.size(); ++a) {
    EXPECT_EQ((*seed)[a], weights[a])
        << "weight " << a << " is " << std::hexfloat << (*seed)[a];
  }
}

TEST(CoreWorkCountGoldenTest, PresolveNba300Players5AttributesTop6) {
  ExpectPresolveGolden(300, 5, 6, 17, 2197);
}

TEST(CoreWorkCountGoldenTest, PresolveNba120Players8AttributesTop10) {
  ExpectPresolveGolden(120, 8, 10, 24, 2560);
}

TEST(CoreWorkCountGoldenTest, SpatialNba100Players5AttributesTop6) {
  ExpectSpatialGolden(100, 5, 6, {5, 2239, 1});
}

TEST(CoreWorkCountGoldenTest, SpatialNba100Players4AttributesTop10) {
  ExpectSpatialGolden(100, 4, 10, {23, 1177, 2});
}

// A larger instance: 9 191 boxes, nearly all of them bounded from their
// parent's fixing state down long chains of splits.
TEST(CoreWorkCountGoldenTest, SpatialNba600Players5AttributesTop6) {
  ExpectSpatialGolden(600, 5, 6, {24, 9191, 3});
}

// Side constraints: a weight floor (so the root box is not the full
// simplex), an order constraint, and a position range on an unranked
// tuple, which the search brackets as one more group.
TEST(CoreWorkCountGoldenTest, SpatialNba100Players5AttributesTop6Constrained) {
  ExpectSpatialGolden(
      100, 5, 6, {7, 2151, 2}, [](const Ranking& given, OptProblem* p) {
        p->constraints.AddMinWeight(1, 0.1);
        p->order_constraints.push_back(
            {given.ranked_tuples()[3], given.ranked_tuples()[2]});
        int unranked = 0;
        while (given.IsRanked(unranked)) ++unranked;
        p->position_constraints.push_back({unranked, 5, 15});
      });
}

// The grid seed on the instance SeedingTest builds: a cell of width 0.1 is
// reached within the default budget of 2 000 cell bounds. The weights read
// 0.7375, 0.05, 0.05, 0.05, 0.1125.
TEST(CoreWorkCountGoldenTest, GridSeedNba300Players5AttributesTop10) {
  ExpectGridSeedGolden(300, 5, 10, 2000,
                       {0x1.799999999999ap-1, 0x1.999999999999ap-5,
                        0x1.999999999999ap-5, 0x1.999999999999ap-5,
                        0x1.ccccccccccccdp-4});
}

// A budget of 40 cell bounds runs out while the best open cell is still
// 0.5 wide, so the seed is a point of that cell: 7/12, then 1/12 three
// times, then 1/6.
TEST(CoreWorkCountGoldenTest, GridSeedNba300Players5AttributesTop10Budget40) {
  ExpectGridSeedGolden(300, 5, 10, 40,
                       {0x1.2aaaaaaaaaaabp-1, 0x1.5555555555555p-4,
                        0x1.5555555555555p-4, 0x1.5555555555555p-4,
                        0x1.5555555555555p-3});
}

TEST(CoreWorkCountGoldenTest, PresolveNba3100Players5AttributesTop10) {
  ExpectPresolveGolden(3100, 5, 10, 136, 2695);
}

TEST(CoreWorkCountGoldenTest, SymGdSubgradientSeedNba3100Players5Top10) {
  ExpectSymGdGolden(3100, 5, 10, 0.02,
                    {{0x1.4ad470531125cp-1, 0x1.92f6e750509dbp-6,
                      0x1.24ac893f7a19ap-2, 0x0p+0, 0x1.63d93d2af488ep-5},
                     160,
                     8,
                     690});
}

// The same descent under side constraints: a weight floor (the seed moves
// into it), an order constraint against the given order, and a position
// range on an unranked tuple, which every cell model carries as one more
// indicator group. Tuple 2610 is unranked and fifth at the moved seed.
// The cells' trees moved from 1 400 to 1 336 nodes when warm infeasibility
// verdicts began to be accepted on a Farkas certificate instead of a
// rebuild and pivot rows began to drop entries below 1e-11; the error, the
// cell solves and the seed did not move.
TEST(CoreWorkCountGoldenTest, SymGdNba3100Players5Top10Constrained) {
  ExpectSymGdGolden(
      3100, 5, 10, 0.02,
      {{0x1.4ad470531125cp-1, 0x1.92f6e750509dbp-6, 0x1.24ac893f7a19ap-2,
        0x0p+0, 0x1.63d93d2af488ep-5},
       177,
       4,
       1336,
       5,
       483},
      [](const Ranking& given, OptProblem* p) {
        p->constraints.AddMinWeight(1, 0.05);
        p->order_constraints.push_back(
            {given.ranked_tuples()[2], given.ranked_tuples()[1]});
        ASSERT_FALSE(given.IsRanked(2610));
        p->position_constraints.push_back({2610, 4, 8});
      });
}

}  // namespace
}  // namespace rankhow
