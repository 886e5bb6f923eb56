// Golden work counts of the indicator MILP. Small NBA-simulator instances,
// built the way perfbench builds its solver workloads, are solved cold at
// one thread (so every count is deterministic), and the proven error plus
// the search's work counts must equal literals: nodes, LP iterations, the
// four warm-engine pivot counters, tableau rebuilds and the infeasibility
// verdicts accepted on a Farkas certificate. A change to the LP
// engine that claims to leave every search decision alone (a faster
// elimination, a different storage layout) must pass this unmodified; a
// change that alters pivot choice, tolerances or the rebuild policy fails
// here and has to say so.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/rankhow.h"
#include "data/nba.h"
#include "milp/branch_and_bound.h"
#include "ranking/ranking.h"

namespace rankhow {
namespace {

struct GoldenCounts {
  long error;
  int64_t nodes;
  int64_t lp_iterations;
  int64_t lp_primal_pivots;
  int64_t lp_dual_pivots;
  int64_t lp_repair_pivots;
  int64_t lp_import_pivots;
  int64_t lp_rebuilds;
  int64_t lp_certified_infeasible;
};

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

void ExpectGolden(int n, int m, int k, const GoldenCounts& golden) {
  Dataset data;
  Ranking given;
  MakeNbaInstance(n, m, k, &data, &given);
  RankHowOptions options;
  options.eps.tie_eps = 5e-5;
  options.eps.eps1 = 1e-4;
  options.eps.eps2 = 0.0;
  options.strategy = SolveStrategy::kIndicatorMilp;
  options.num_threads = 1;
  // No wall-clock cap may cut the presolve short (sanitizer builds run
  // this suite several times slower), or the search would start from a
  // different incumbent.
  options.presolve.time_budget_seconds = 3600;
  RankHow solver(data, given, options);
  Result<RankHowResult> result = solver.Solve();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->proven_optimal);
  const BnbStats& s = result->stats;
  EXPECT_EQ(result->error, golden.error);
  EXPECT_EQ(result->bound, golden.error);
  EXPECT_EQ(s.nodes_explored, golden.nodes);
  EXPECT_EQ(s.lp_iterations, golden.lp_iterations);
  EXPECT_EQ(s.lp_primal_pivots, golden.lp_primal_pivots);
  EXPECT_EQ(s.lp_dual_pivots, golden.lp_dual_pivots);
  EXPECT_EQ(s.lp_repair_pivots, golden.lp_repair_pivots);
  EXPECT_EQ(s.lp_import_pivots, golden.lp_import_pivots);
  EXPECT_EQ(s.lp_rebuilds, golden.lp_rebuilds);
  EXPECT_EQ(s.lp_certified_infeasible, golden.lp_certified_infeasible);
  EXPECT_EQ(s.lp_fallback_solves, 0);
  EXPECT_EQ(s.numerical_drops, 0);
}

// Both trees moved when warm infeasibility verdicts began to be accepted on
// a Farkas certificate instead of a rebuild and pivot rows began to drop
// entries below 1e-11: node LPs now reach other, equally optimal vertices.
// The proven errors did not move (Nba30: 518 nodes and 186 rebuilds before;
// Nba40: 747 nodes and 270 rebuilds).
TEST(MilpWorkCountGoldenTest, Nba30Players8AttributesTop4) {
  ExpectGolden(30, 8, 4, {2, 85, 1840, 52, 1439, 153, 464, 2, 20});
}

TEST(MilpWorkCountGoldenTest, Nba40Players6AttributesTop5) {
  ExpectGolden(40, 6, 5, {3, 653, 9041, 59, 9368, 953, 3823, 8, 215});
}

}  // namespace
}  // namespace rankhow
