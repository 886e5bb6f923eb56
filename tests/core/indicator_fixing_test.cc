#include "core/indicator_fixing.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace rankhow
