#include "math/simplex_box.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace rankhow {
namespace {

TEST(WeightBoxTest, FullSimplexIntersects) {
  WeightBox box = WeightBox::FullSimplex(5);
  EXPECT_TRUE(box.IntersectsSimplex());
  EXPECT_EQ(box.dim(), 5);
}

TEST(WeightBoxTest, CellAroundClampsToUnitBox) {
  WeightBox box = WeightBox::CellAround({0.05, 0.95, 0.0}, 0.2);
  EXPECT_DOUBLE_EQ(box.lo[0], 0.0);
  EXPECT_DOUBLE_EQ(box.hi[0], 0.15);
  EXPECT_DOUBLE_EQ(box.lo[1], 0.85);
  EXPECT_DOUBLE_EQ(box.hi[1], 1.0);
  EXPECT_DOUBLE_EQ(box.lo[2], 0.0);
  EXPECT_DOUBLE_EQ(box.hi[2], 0.1);
}

TEST(WeightBoxTest, DetectsEmptyIntersection) {
  // All upper bounds tiny: cannot reach sum 1.
  WeightBox box;
  box.lo = {0.0, 0.0};
  box.hi = {0.3, 0.3};
  EXPECT_FALSE(box.IntersectsSimplex());
  // Lower bounds exceed 1.
  box.lo = {0.7, 0.7};
  box.hi = {1.0, 1.0};
  EXPECT_FALSE(box.IntersectsSimplex());
}

TEST(WeightBoxTest, SplitWidestHalvesTheFirstWidestSide) {
  WeightBox box;
  box.lo = {0.25, 0.0, 0.25};
  box.hi = {0.5, 0.5, 0.75};
  EXPECT_EQ(box.MaxWidth(), 0.5);
  // Sides 1 and 2 tie at 0.5; the first one is cut, and both halves keep
  // the cut.
  auto [lower, upper] = box.SplitWidest();
  EXPECT_EQ(lower.lo, box.lo);
  EXPECT_EQ(lower.hi, (std::vector<double>{0.5, 0.25, 0.75}));
  EXPECT_EQ(upper.lo, (std::vector<double>{0.25, 0.25, 0.25}));
  EXPECT_EQ(upper.hi, box.hi);
}

TEST(SameWeightsTest, EqualBelowOneTrillionthPerCoordinate) {
  EXPECT_TRUE(SameWeights({0.5, 0.5}, {0.5, 0.5 + 1e-13}));
  EXPECT_FALSE(SameWeights({0.5, 0.5}, {0.5, 0.5 + 2e-12}));
  EXPECT_FALSE(SameWeights({0.5, 0.5}, {0.5, 0.5, 0.0}));
}

TEST(DotRangeTest, FullSimplexIsMinMaxOfCoefficients) {
  std::vector<double> d = {3.0, -1.5, 0.25};
  DotRange r = DotRangeOnFullSimplex(d);
  EXPECT_DOUBLE_EQ(r.min, -1.5);
  EXPECT_DOUBLE_EQ(r.max, 3.0);
  auto via_box = DotRangeOnSimplexBox(d, WeightBox::FullSimplex(3));
  ASSERT_TRUE(via_box.ok());
  EXPECT_DOUBLE_EQ(via_box->min, -1.5);
  EXPECT_DOUBLE_EQ(via_box->max, 3.0);
}

TEST(DotRangeTest, RespectsBoxBounds) {
  // w1 in [0.4, 1], w2 in [0, 0.6]; d = (0, 1):
  // min at w2 = 0 (w1=1), max at w2 = 0.6 (w1=0.4).
  WeightBox box;
  box.lo = {0.4, 0.0};
  box.hi = {1.0, 0.6};
  auto r = DotRangeOnSimplexBox({0.0, 1.0}, box);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->min, 0.0);
  EXPECT_DOUBLE_EQ(r->max, 0.6);
}

TEST(DotRangeTest, InfeasibleBoxFails) {
  WeightBox box;
  box.lo = {0.0, 0.0};
  box.hi = {0.2, 0.2};
  EXPECT_FALSE(DotRangeOnSimplexBox({1.0, 2.0}, box).ok());
}

TEST(AnyPointTest, ReturnsInteriorFeasiblePoint) {
  WeightBox box;
  box.lo = {0.1, 0.2, 0.0};
  box.hi = {0.5, 0.6, 0.4};
  auto w = AnyPointOnSimplexBox(box);
  ASSERT_TRUE(w.ok());
  double sum = std::accumulate(w->begin(), w->end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_TRUE(box.Contains(*w, 1e-9));
}

// A simplex point outside the box moves toward the anchor until it reaches
// the box's boundary, staying on the simplex; a point inside stays put.
TEST(BlendIntoBoxTest, StopsAtTheBoxBoundaryOnTheSimplex) {
  WeightBox box = WeightBox::FullSimplex(3);
  box.lo[1] = 0.5;
  const std::vector<double> anchor = *AnyPointOnSimplexBox(box);

  auto moved = BlendIntoBox({0.8, 0.1, 0.1}, anchor, box, 1.0);
  ASSERT_TRUE(moved.has_value());
  EXPECT_NEAR((*moved)[1], 0.5, 1e-12);
  EXPECT_NEAR(std::accumulate(moved->begin(), moved->end(), 0.0), 1.0, 1e-12);
  EXPECT_TRUE(box.Contains(*moved));

  const std::vector<double> inside = {0.1, 0.7, 0.2};
  auto kept = BlendIntoBox(inside, anchor, box, 1.0);
  ASSERT_TRUE(kept.has_value());
  for (int a = 0; a < 3; ++a) EXPECT_NEAR((*kept)[a], inside[a], 1e-15);
}

// Property: the greedy exact range bounds every sampled feasible point, and
// is attained (within tolerance) by some sampled point when sampling densely.
class DotRangePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DotRangePropertyTest, BoundsAllSimplexPoints) {
  Rng rng(GetParam());
  int m = static_cast<int>(rng.NextInt(2, 6));
  std::vector<double> d(m);
  for (double& v : d) v = rng.NextGaussian();

  std::vector<double> center = rng.NextSimplexPoint(m);
  double cell = rng.NextUniform(0.05, 0.8);
  WeightBox box = WeightBox::CellAround(center, cell);
  auto range = DotRangeOnSimplexBox(d, box);
  ASSERT_TRUE(range.ok());
  EXPECT_LE(range->min, range->max + 1e-12);

  double seen_min = 1e18;
  double seen_max = -1e18;
  for (int trial = 0; trial < 2000; ++trial) {
    // Rejection-sample a point in box ∩ simplex via projection.
    std::vector<double> w = rng.NextSimplexPoint(m);
    // Blend toward the center to stay in the box more often.
    double alpha = rng.NextDouble();
    for (int i = 0; i < m; ++i) w[i] = alpha * w[i] + (1 - alpha) * center[i];
    if (!box.Contains(w, 0.0)) continue;
    double dot = 0;
    for (int i = 0; i < m; ++i) dot += d[i] * w[i];
    EXPECT_GE(dot, range->min - 1e-9);
    EXPECT_LE(dot, range->max + 1e-9);
    seen_min = std::min(seen_min, dot);
    seen_max = std::max(seen_max, dot);
  }
  // The greedy endpoints are exact optima; sampled extremes can't beat them.
  if (seen_min < 1e17) {
    EXPECT_GE(seen_min, range->min - 1e-9);
    EXPECT_LE(seen_max, range->max + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DotRangePropertyTest,
                         ::testing::Range<uint64_t>(0, 40));

// The allocating range computation the library used before its order
// buffer became thread-local and its max stopped negating a copy of d:
// the reference the current one must match bit for bit.
namespace reference {

Result<double> MinDot(const std::vector<double>& d, const WeightBox& box) {
  const int m = static_cast<int>(d.size());
  double sum_lo = 0;
  for (int i = 0; i < m; ++i) {
    if (box.lo[i] > box.hi[i] + 1e-15) {
      return Status::Infeasible("empty box");
    }
    sum_lo += box.lo[i];
  }
  double remaining = 1.0 - sum_lo;
  if (remaining < -1e-12) return Status::Infeasible("sum lo > 1");

  double value = 0;
  for (int i = 0; i < m; ++i) value += d[i] * box.lo[i];

  std::vector<int> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return d[a] < d[b]; });
  for (int idx : order) {
    if (remaining <= 0) break;
    double slack = box.hi[idx] - box.lo[idx];
    double take = std::min(slack, remaining);
    value += d[idx] * take;
    remaining -= take;
  }
  if (remaining > 1e-9) return Status::Infeasible("sum hi < 1");
  return value;
}

Result<DotRange> DotRangeOnSimplexBox(const std::vector<double>& d,
                                      const WeightBox& box) {
  RH_ASSIGN_OR_RETURN(double mn, MinDot(d, box));
  std::vector<double> neg(d.size());
  for (size_t i = 0; i < d.size(); ++i) neg[i] = -d[i];
  RH_ASSIGN_OR_RETURN(double neg_min, MinDot(neg, box));
  return DotRange{mn, -neg_min};
}

}  // namespace reference

void ExpectBitIdenticalRange(const std::vector<double>& d,
                             const WeightBox& box) {
  auto want = reference::DotRangeOnSimplexBox(d, box);
  auto got = DotRangeOnSimplexBox(d, box);
  ASSERT_EQ(got.ok(), want.ok());
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  EXPECT_EQ(std::memcmp(&got->min, &want->min, sizeof(double)), 0)
      << got->min << " vs " << want->min;
  EXPECT_EQ(std::memcmp(&got->max, &want->max, sizeof(double)), 0)
      << got->max << " vs " << want->max;
}

// Coefficients drawn from a small pool, so values repeat (ties in the sort)
// and include ±0.0, subnormals and large magnitudes.
std::vector<double> AwkwardCoefficients(Rng& rng, int m) {
  static const double kPool[] = {0.0,
                                 -0.0,
                                 1.0,
                                 -1.0,
                                 0.125,
                                 -0.375,
                                 std::numeric_limits<double>::denorm_min(),
                                 -std::numeric_limits<double>::denorm_min(),
                                 3e-310,
                                 1e300,
                                 -1e300,
                                 1e-300};
  const int pool = static_cast<int>(sizeof(kPool) / sizeof(kPool[0]));
  std::vector<double> d(m);
  for (double& v : d) {
    v = rng.NextInt(0, 3) == 0 ? rng.NextGaussian()
                               : kPool[rng.NextInt(0, pool - 1)];
  }
  return d;
}

class DotRangeBitIdentityTest : public ::testing::TestWithParam<int> {};

// m = 1…20 spans both of std::sort's regimes (insertion sort up to 16
// elements, introsort above). Boxes: CellAround cells and the chains of
// widest-dimension midpoint splits the spatial search walks from them and
// from the full simplex, with both halves tried whether or not they meet
// the simplex.
TEST_P(DotRangeBitIdentityTest, MatchesAllocatingReference) {
  const int m = GetParam();
  Rng rng(1000 + m);
  for (int trial = 0; trial < 40; ++trial) {
    WeightBox box = trial % 4 == 0
                        ? WeightBox::FullSimplex(m)
                        : WeightBox::CellAround(rng.NextSimplexPoint(m),
                                                rng.NextUniform(0.01, 1.0));
    for (int level = 0; level < 10; ++level) {
      for (int draw = 0; draw < 4; ++draw) {
        ExpectBitIdenticalRange(AwkwardCoefficients(rng, m), box);
      }
      int dim = 0;
      for (int i = 1; i < m; ++i) {
        if (box.hi[i] - box.lo[i] > box.hi[dim] - box.lo[dim]) dim = i;
      }
      const double mid = 0.5 * (box.lo[dim] + box.hi[dim]);
      (rng.NextInt(0, 1) == 0 ? box.hi : box.lo)[dim] = mid;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, DotRangeBitIdentityTest,
                         ::testing::Range(1, 21));

TEST(DotRangeTest, SameStatusAsReferenceOnBoxesMissingTheSimplex) {
  const std::vector<double> d = {0.5, -0.0, 2.0};
  WeightBox inverted;  // lo > hi
  inverted.lo = {0.2, 0.5, 0.0};
  inverted.hi = {0.6, 0.4, 1.0};
  WeightBox heavy;  // Σlo > 1
  heavy.lo = {0.5, 0.4, 0.3};
  heavy.hi = {1.0, 1.0, 1.0};
  WeightBox light;  // Σhi < 1
  light.lo = {0.0, 0.0, 0.0};
  light.hi = {0.3, 0.3, 0.3};
  for (const WeightBox& box : {inverted, heavy, light}) {
    EXPECT_FALSE(DotRangeOnSimplexBox(d, box).ok());
    ExpectBitIdenticalRange(d, box);
  }
}

}  // namespace
}  // namespace rankhow
