#include "core/indicator_fixing.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ranking/ranking.h"
#include "util/random.h"

namespace rankhow {
namespace {

Dataset ExampleFourData() {
  Dataset d({"A1", "A2", "A3"}, 3);
  // r=(3,2,8), s=(4,1,15), t=(1,1,14).
  d.set_value(0, 0, 3);
  d.set_value(0, 1, 2);
  d.set_value(0, 2, 8);
  d.set_value(1, 0, 4);
  d.set_value(1, 1, 1);
  d.set_value(1, 2, 15);
  d.set_value(2, 0, 1);
  d.set_value(2, 1, 1);
  d.set_value(2, 2, 14);
  return d;
}

TEST(IndicatorFixingTest, DominatedPairIsFixedZero) {
  // s=(4,1,15) dominates t=(1,1,14): delta_ts (t beats s) fixed to 0 —
  // exactly the paper's Example 5 observation that delta_ts "is not
  // visible" in the solution space.
  Dataset d = ExampleFourData();
  auto fixing = ComputeIndicatorFixing(d, {1}, WeightBox::FullSimplex(3),
                                       1e-9, 0.0);
  ASSERT_TRUE(fixing.ok());
  const TupleFixing& group = fixing->groups[0];
  EXPECT_EQ(group.tuple, 1);
  // Pairs: s vs r (free) and s vs t: t never beats s -> fixed zero.
  EXPECT_EQ(group.fixed_zero, 1);
  EXPECT_EQ(group.fixed_one, 0);
  ASSERT_EQ(group.free.size(), 1u);
  EXPECT_EQ(group.free[0].s, 0);  // r may or may not beat s
}

TEST(IndicatorFixingTest, DominatorIsFixedOne) {
  Dataset d({"A", "B"}, 2);
  d.set_value(0, 0, 1);
  d.set_value(0, 1, 1);
  d.set_value(1, 0, 5);
  d.set_value(1, 1, 5);
  // Tuple 1 dominates tuple 0 everywhere: min diff = 4 >= eps1.
  auto fixing = ComputeIndicatorFixing(d, {0}, WeightBox::FullSimplex(2),
                                       1e-9, 0.0);
  ASSERT_TRUE(fixing.ok());
  EXPECT_EQ(fixing->groups[0].fixed_one, 1);
  EXPECT_EQ(fixing->total_free, 0);
}

TEST(IndicatorFixingTest, SmallCellFixesMorePairs) {
  Rng rng(3);
  Dataset d({"A", "B", "C"}, 60);
  for (int t = 0; t < 60; ++t) {
    for (int a = 0; a < 3; ++a) d.set_value(t, a, rng.NextDouble());
  }
  std::vector<int> tuples = {0, 1, 2};
  auto full = ComputeIndicatorFixing(d, tuples, WeightBox::FullSimplex(3),
                                     1e-9, 0.0);
  std::vector<double> center = {0.3, 0.4, 0.3};
  auto cell = ComputeIndicatorFixing(
      d, tuples, WeightBox::CellAround(center, 0.05), 1e-9, 0.0);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(cell.ok());
  // The SYM-GD effect: a small cell leaves far fewer free indicators.
  EXPECT_LT(cell->total_free, full->total_free);
  EXPECT_LT(cell->total_free, full->total_free / 2);
}

TEST(IndicatorFixingTest, DisabledFixingKeepsAllPairsFree) {
  Dataset d({"A", "B"}, 3);
  for (int t = 0; t < 3; ++t) {
    d.set_value(t, 0, t);
    d.set_value(t, 1, t);
  }
  auto fixing = ComputeIndicatorFixing(d, {0, 1}, WeightBox::FullSimplex(2),
                                       1e-9, 0.0, /*enable_fixing=*/false);
  ASSERT_TRUE(fixing.ok());
  EXPECT_EQ(fixing->total_free, 4);  // 2 groups x 2 other tuples
  EXPECT_EQ(fixing->total_fixed_one + fixing->total_fixed_zero, 0);
}

TEST(IndicatorFixingTest, InfeasibleBoxRejected) {
  Dataset d({"A", "B"}, 2);
  WeightBox box;
  box.lo = {0.0, 0.0};
  box.hi = {0.2, 0.2};
  auto fixing = ComputeIndicatorFixing(d, {0}, box, 1e-9, 0.0);
  EXPECT_FALSE(fixing.ok());
  EXPECT_EQ(fixing.status().code(), StatusCode::kInfeasible);
}

// Property: fixing classifications are consistent with sampled weight
// vectors from the box — a fixed-1 pair beats at every sample, a fixed-0
// pair never does.
class FixingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FixingPropertyTest, ClassificationSoundAgainstSampling) {
  Rng rng(GetParam());
  int n = static_cast<int>(rng.NextInt(4, 20));
  int m = static_cast<int>(rng.NextInt(2, 5));
  double eps1 = 1e-6;
  std::vector<std::string> all_names = {"A", "B", "C", "D", "E"};
  Dataset d(std::vector<std::string>(all_names.begin(), all_names.begin() + m),
            n);
  for (int t = 0; t < n; ++t) {
    for (int a = 0; a < m; ++a) d.set_value(t, a, rng.NextUniform(0, 2));
  }
  std::vector<double> center = rng.NextSimplexPoint(m);
  WeightBox box = WeightBox::CellAround(center, rng.NextUniform(0.1, 1.0));
  auto fixing = ComputeIndicatorFixing(d, {0}, box, eps1, 0.0);
  if (!fixing.ok()) return;  // box missed the simplex: nothing to check

  const TupleFixing& group = fixing->groups[0];
  // Reconstruct the classification of each s.
  std::vector<int> cls(n, -2);  // -2 unknown, 1 fixed-one, 0 fixed-zero, -1 free
  for (const FreePair& fp : group.free) cls[fp.s] = -1;
  int ones = group.fixed_one;
  int zeros = group.fixed_zero;
  for (int s = 0; s < n; ++s) {
    if (s == 0 || cls[s] == -1) continue;
    // Not free: decide by range like the implementation would.
    auto range = DotRangeOnSimplexBox(d.DiffVector(s, 0), box);
    ASSERT_TRUE(range.ok());
    if (range->min >= eps1) {
      cls[s] = 1;
      --ones;
    } else {
      cls[s] = 0;
      --zeros;
    }
  }
  EXPECT_EQ(ones, 0);
  EXPECT_EQ(zeros, 0);

  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> w = rng.NextSimplexPoint(m);
    if (!box.Contains(w, 0.0)) continue;
    for (int s = 0; s < n; ++s) {
      if (s == 0) continue;
      double diff = 0;
      for (int a = 0; a < m; ++a) {
        diff += w[a] * (d.value(s, a) - d.value(0, a));
      }
      if (cls[s] == 1) {
        EXPECT_GE(diff, eps1 - 1e-12);
      }
      if (cls[s] == 0) {
        EXPECT_LE(diff, 1e-12);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixingPropertyTest,
                         ::testing::Range<uint64_t>(0, 40));

FixingState Recompute(const Dataset& d, const std::vector<int>& tuples,
                      const WeightBox& box, double eps1, double eps2) {
  auto fixing = ComputeIndicatorFixing(d, tuples, box, eps1, eps2);
  EXPECT_TRUE(fixing.ok()) << fixing.status().ToString();
  return fixing.ok() ? FixingState::FromSummary(*fixing) : FixingState();
}

void ExpectSameState(const FixingState& refined, const FixingState& full) {
  ASSERT_EQ(refined.groups.size(), full.groups.size());
  for (size_t g = 0; g < full.groups.size(); ++g) {
    EXPECT_EQ(refined.groups[g].fixed_one, full.groups[g].fixed_one) << g;
    EXPECT_EQ(refined.groups[g].fixed_zero, full.groups[g].fixed_zero) << g;
    EXPECT_EQ(refined.groups[g].num_free, full.groups[g].num_free) << g;
  }
  EXPECT_EQ(refined.free_s, full.free_s);
}

// Refinement equals recomputation: down a chain of widest-dimension
// midpoint splits, as the spatial search walks them, the state refined
// from the parent's must equal a full pass over the same box. Odd seeds
// draw grid data (multiples of 1/8, so ties and exact zeros abound).
class RefinementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RefinementTest, EqualsRecomputationDownSplitChains) {
  Rng rng(GetParam());
  const bool grid = GetParam() % 2 == 1;
  const int n = static_cast<int>(rng.NextInt(20, 80));
  const int m = static_cast<int>(rng.NextInt(2, 6));
  std::vector<std::string> names;
  for (int a = 0; a < m; ++a) names.push_back(std::string(1, 'A' + a));
  Dataset d(names, n);
  for (int t = 0; t < n; ++t) {
    for (int a = 0; a < m; ++a) {
      d.set_value(t, a, grid ? rng.NextInt(0, 8) / 8.0 : rng.NextDouble());
    }
  }
  // The ranked groups of a top-k ranking, plus one unranked tuple as the
  // extra group a position constraint adds.
  const int k = static_cast<int>(rng.NextInt(1, 6));
  Ranking given =
      Ranking::FromScores(d.Scores(rng.NextSimplexPoint(m)), k, 0.0);
  std::vector<int> tuples = given.ranked_tuples();
  for (int t = 0; t < n; ++t) {
    if (!given.IsRanked(t)) {
      tuples.push_back(t);
      break;
    }
  }
  // The spatial search's thresholds (ε, η) and the MILP's (ε₁, ε₂).
  const bool spatial = rng.NextInt(0, 1) == 1;
  const double eps1 = spatial ? 5e-5 + 5e-14 : 1e-4;
  const double eps2 = spatial ? 5e-5 : 0.0;

  WeightBox box = rng.NextInt(0, 1) == 1
                      ? WeightBox::FullSimplex(m)
                      : WeightBox::CellAround(rng.NextSimplexPoint(m),
                                              rng.NextUniform(0.1, 0.6));
  FixingState state = Recompute(d, tuples, box, eps1, eps2);
  for (int level = 0; level < 8; ++level) {
    int dim = 0;
    for (int i = 1; i < m; ++i) {
      if (box.hi[i] - box.lo[i] > box.hi[dim] - box.lo[dim]) dim = i;
    }
    const double mid = 0.5 * (box.lo[dim] + box.hi[dim]);
    const int first = static_cast<int>(rng.NextInt(0, 1));
    WeightBox child;
    for (int side : {first, 1 - first}) {
      child = box;
      (side == 0 ? child.hi : child.lo)[dim] = mid;
      if (child.IntersectsSimplex()) break;
      auto refined = RefineIndicatorFixing(d, tuples, state, child, eps1, eps2);
      ASSERT_FALSE(refined.ok());
      EXPECT_EQ(refined.status().code(), StatusCode::kInfeasible);
    }
    // One closed half of a box that meets the simplex meets it too.
    ASSERT_TRUE(child.IntersectsSimplex());
    auto refined = RefineIndicatorFixing(d, tuples, state, child, eps1, eps2);
    ASSERT_TRUE(refined.ok()) << refined.status().ToString();
    ExpectSameState(*refined, Recompute(d, tuples, child, eps1, eps2));
    box = std::move(child);
    state = *std::move(refined);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefinementTest,
                         ::testing::Range<uint64_t>(0, 80));

/// The fixing loop as it was before the score-range screen: every pair's
/// range computed exactly, over any box.
FixingSummary PairwiseFixing(const Dataset& d, const std::vector<int>& tuples,
                             const WeightBox& box, double eps1, double eps2) {
  FixingSummary summary;
  std::vector<double> diff(d.num_attributes());
  for (int r : tuples) {
    TupleFixing group;
    group.tuple = r;
    for (int s = 0; s < d.num_tuples(); ++s) {
      if (s == r) continue;
      d.DiffVectorInto(s, r, diff.data());
      auto range = DotRangeOnSimplexBox(diff, box);
      EXPECT_TRUE(range.ok()) << range.status().ToString();
      if (!range.ok()) return summary;
      if (range->min >= eps1) {
        ++group.fixed_one;
        summary.min_fixed_one_diff =
            std::min(summary.min_fixed_one_diff, range->min);
      } else if (range->max <= eps2) {
        ++group.fixed_zero;
        summary.max_fixed_zero_diff =
            std::max(summary.max_fixed_zero_diff, range->max);
      } else {
        group.free.push_back(FreePair{s, range->min, range->max});
      }
    }
    summary.total_fixed_one += group.fixed_one;
    summary.total_fixed_zero += group.fixed_zero;
    summary.total_free += static_cast<long>(group.free.size());
    summary.groups.push_back(std::move(group));
  }
  return summary;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// True when the two summaries agree bit for bit on everything the
/// pairwise loop computes: counts, free lists and the two extreme diffs.
bool SameFixing(const FixingSummary& got, const FixingSummary& want) {
  if (got.groups.size() != want.groups.size() ||
      got.total_fixed_one != want.total_fixed_one ||
      got.total_fixed_zero != want.total_fixed_zero ||
      got.total_free != want.total_free ||
      !SameBits(got.min_fixed_one_diff, want.min_fixed_one_diff) ||
      !SameBits(got.max_fixed_zero_diff, want.max_fixed_zero_diff)) {
    return false;
  }
  for (size_t g = 0; g < want.groups.size(); ++g) {
    const TupleFixing& a = got.groups[g];
    const TupleFixing& b = want.groups[g];
    if (a.tuple != b.tuple || a.fixed_one != b.fixed_one ||
        a.fixed_zero != b.fixed_zero || a.free.size() != b.free.size()) {
      return false;
    }
    for (size_t i = 0; i < b.free.size(); ++i) {
      if (a.free[i].s != b.free[i].s ||
          !SameBits(a.free[i].diff_min, b.free[i].diff_min) ||
          !SameBits(a.free[i].diff_max, b.free[i].diff_max)) {
        return false;
      }
    }
  }
  return true;
}

// Over any box but the full simplex, ComputeIndicatorFixing decides most
// pairs from the two tuples' score ranges and computes a pair's own range
// only when the bound cannot decide it or could move the fixing slack. It
// must give exactly what computing every pair gives. 240 seeded cells of
// width 0.01 to 0.5 around random simplex points (clipped at 0 and 1),
// n from 20 to 3 000, m from 1 to 8, per-attribute scales from 1e-3 to
// 1e4, copied rows, and an unranked tuple as the extra group a position
// constraint adds; the MILP's and the spatial search's thresholds.
TEST(IndicatorFixingTest, ScreenedFixingMatchesPairwiseLoop) {
  int differing = 0;
  long fixed_pairs = 0;
  for (uint64_t seed = 0; seed < 240; ++seed) {
    Rng rng(1000 + seed);
    const int n = static_cast<int>(20 * std::pow(150.0, rng.NextDouble()));
    const int m = static_cast<int>(rng.NextInt(1, 8));
    std::vector<std::string> names;
    for (int a = 0; a < m; ++a) names.push_back(std::string(1, 'A' + a));
    Dataset d(names, n);
    double top_scale = 0;
    std::vector<double> scale(m);
    for (int a = 0; a < m; ++a) {
      scale[a] = std::pow(10.0, rng.NextUniform(-3, 4));
      top_scale = std::max(top_scale, scale[a]);
    }
    for (int t = 0; t < n; ++t) {
      if (t > 0 && rng.NextDouble() < 0.15) {
        const int src = static_cast<int>(rng.NextBelow(t));
        for (int a = 0; a < m; ++a) d.set_value(t, a, d.value(src, a));
        continue;
      }
      for (int a = 0; a < m; ++a) {
        d.set_value(t, a, scale[a] * rng.NextDouble());
      }
    }
    const int k = static_cast<int>(rng.NextInt(1, 10));
    Ranking given =
        Ranking::FromScores(d.Scores(rng.NextSimplexPoint(m)), k, 0.0);
    std::vector<int> tuples = given.ranked_tuples();
    for (int t = n - 1; t >= 0; --t) {
      if (!given.IsRanked(t)) {
        tuples.push_back(t);
        break;
      }
    }
    const bool spatial = rng.NextInt(0, 1) == 1;
    const double eps2 = spatial ? 5e-5 * top_scale : 0.0;
    const double eps1 = spatial ? eps2 + 5e-14 * top_scale : 1e-4 * top_scale;
    const WeightBox box = WeightBox::CellAround(rng.NextSimplexPoint(m),
                                                rng.NextUniform(0.01, 0.5));
    ASSERT_TRUE(box.IntersectsSimplex());

    auto got = ComputeIndicatorFixing(d, tuples, box, eps1, eps2);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->score_min.size(), static_cast<size_t>(n));
    const FixingSummary want = PairwiseFixing(d, tuples, box, eps1, eps2);
    if (!SameFixing(*got, want)) {
      ++differing;
      ADD_FAILURE() << "seed " << seed << ": n=" << n << " m=" << m
                    << " k=" << k << (spatial ? " spatial" : " milp");
    }
    fixed_pairs += want.total_fixed_one + want.total_fixed_zero;
  }
  EXPECT_EQ(differing, 0);
  EXPECT_GT(fixed_pairs, 0);
}

TEST(IndicatorFixingTest, RefinementRejectsBoxMissingSimplex) {
  Dataset d({"A", "B"}, 3);
  for (int t = 0; t < 3; ++t) {
    d.set_value(t, 0, t);
    d.set_value(t, 1, 2 - t);
  }
  const std::vector<int> tuples = {0};
  FixingState root = Recompute(d, tuples, WeightBox::FullSimplex(2), 1e-9, 0);
  WeightBox box;
  box.lo = {0.0, 0.0};
  box.hi = {0.2, 0.2};  // Σhi < 1
  auto refined = RefineIndicatorFixing(d, tuples, root, box, 1e-9, 0.0);
  ASSERT_FALSE(refined.ok());
  EXPECT_EQ(refined.status().code(), StatusCode::kInfeasible);
}

}  // namespace
}  // namespace rankhow
