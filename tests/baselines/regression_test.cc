#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/linear_regression.h"
#include "baselines/ordinal_regression.h"
#include "data/synthetic.h"
#include "ranking/score_ranking.h"
#include "math/linalg.h"
#include "util/random.h"

namespace rankhow {
namespace {

Ranking MustCreate(std::vector<int> positions) {
  auto r = Ranking::Create(std::move(positions));
  EXPECT_TRUE(r.ok());
  return *std::move(r);
}

// Paper Example 3: linear regression on
// R = {(1,10000),(2,1000),(5,1),(4,10),(3,100)} with rank vector [1..5]
// produces the ranking [1,2,5,4,3] — position error 4 — even though a
// perfect linear scoring function exists.
TEST(LinearRegressionTest, ExampleThreeFailureMode) {
  Dataset d({"A1", "A2"}, 5);
  double rows[5][2] = {{1, 10000}, {2, 1000}, {5, 1}, {4, 10}, {3, 100}};
  for (int t = 0; t < 5; ++t) {
    d.set_value(t, 0, rows[t][0]);
    d.set_value(t, 1, rows[t][1]);
  }
  Ranking given = MustCreate({1, 2, 3, 4, 5});

  auto fit = FitLinearRegression(d, given);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  long error = PositionError(d, given, fit->weights, 0.0);
  EXPECT_EQ(error, 4) << "w = [" << fit->weights[0] << ", "
                      << fit->weights[1] << "]";

  // The non-negative variant fails the same way (paper: [1,2,5,4,3] again).
  LinearRegressionOptions nn;
  nn.non_negative = true;
  auto nn_fit = FitLinearRegression(d, given, nn);
  ASSERT_TRUE(nn_fit.ok()) << nn_fit.status().ToString();
  EXPECT_EQ(PositionError(d, given, nn_fit->weights, 0.0), 4);
}

TEST(LinearRegressionTest, RecoversCleanLinearRanking) {
  SyntheticSpec spec;
  spec.num_tuples = 120;
  spec.num_attributes = 3;
  spec.seed = 5;
  Dataset data = GenerateSynthetic(spec);
  std::vector<double> w_true = {0.2, 0.5, 0.3};
  // Rank ALL tuples so the labels carry full information.
  Ranking given = Ranking::FromScores(data.Scores(w_true), 120, 0.0);
  auto fit = FitLinearRegression(data, given);
  ASSERT_TRUE(fit.ok());
  // Rank positions are a non-linear monotone transform of the true score,
  // so OLS recovers the ordering only approximately — the paper's core
  // point. Allow a small per-tuple slip (120 ranked tuples).
  EXPECT_LE(PositionError(data, given, fit->weights, 0.0), 30);
}

TEST(LinearRegressionTest, NonNegativeVariantHasNonNegativeWeights) {
  SyntheticSpec spec;
  spec.num_tuples = 40;
  spec.num_attributes = 4;
  spec.seed = 6;
  Dataset data = GenerateSynthetic(spec);
  Ranking given = Ranking::FromScores(data.column(0), 10, 0.0);
  LinearRegressionOptions options;
  options.non_negative = true;
  auto fit = FitLinearRegression(data, given, options);
  ASSERT_TRUE(fit.ok());
  for (double w : fit->weights) EXPECT_GE(w, 0.0);
}

TEST(OrdinalRegressionTest, RecoversLinearRankingExactly) {
  SyntheticSpec spec;
  spec.num_tuples = 80;
  spec.num_attributes = 3;
  spec.seed = 7;
  Dataset data = GenerateSynthetic(spec);
  std::vector<double> w_true = {0.6, 0.1, 0.3};
  Ranking given = Ranking::FromScores(data.Scores(w_true), 10, 0.0);
  auto fit = FitOrdinalRegression(data, given);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_TRUE(fit->exact_lp);
  EXPECT_NEAR(fit->penalty, 0.0, 1e-6);  // realizable: zero slack
  EXPECT_LE(PositionError(data, given, fit->weights, 0.0), 1);
}

TEST(OrdinalRegressionTest, OriginalFormulationRejectsTies) {
  Dataset d({"A", "B"}, 3);
  for (int t = 0; t < 3; ++t) {
    d.set_value(t, 0, 3 - t);
    d.set_value(t, 1, t);
  }
  Ranking given = MustCreate({1, 1, 3});
  OrdinalRegressionOptions options;
  options.support_ties = false;  // Srinivasan's original
  auto fit = FitOrdinalRegression(d, given, options);
  ASSERT_FALSE(fit.ok());
  EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument);
}

TEST(OrdinalRegressionTest, TieExtensionHandlesTiedRanking) {
  Dataset d({"A", "B"}, 4);
  // Tuples 0,1 symmetric; a tie is realizable at w = (0.5, 0.5).
  d.set_value(0, 0, 2);
  d.set_value(0, 1, 4);
  d.set_value(1, 0, 4);
  d.set_value(1, 1, 2);
  d.set_value(2, 0, 1);
  d.set_value(2, 1, 1);
  d.set_value(3, 0, 0);
  d.set_value(3, 1, 0);
  Ranking given = MustCreate({1, 1, 3, kUnranked});
  auto fit = FitOrdinalRegression(d, given);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  EXPECT_NEAR(fit->penalty, 0.0, 1e-9);
  EXPECT_NEAR(fit->weights[0], 0.5, 1e-6);
}

TEST(OrdinalRegressionTest, SubgradientPathKicksInOnLargeInput) {
  SyntheticSpec spec;
  spec.num_tuples = 3000;
  spec.num_attributes = 3;
  spec.seed = 8;
  Dataset data = GenerateSynthetic(spec);
  std::vector<double> w_true = {0.5, 0.25, 0.25};
  Ranking given = Ranking::FromScores(data.Scores(w_true), 5, 0.0);
  OrdinalRegressionOptions options;
  options.max_lp_pairs = 100;  // force the subgradient path
  auto fit = FitOrdinalRegression(data, given, options);
  ASSERT_TRUE(fit.ok());
  EXPECT_FALSE(fit->exact_lp);
  // Should still land near a good ranking function.
  EXPECT_LE(PositionError(data, given, fit->weights, 0.0), 50);
}

// Property: ordinal regression's LP penalty is zero iff the pairs are
// realizable, and its weights always lie on the simplex.
class OrdinalRegressionPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OrdinalRegressionPropertyTest, WeightsOnSimplexAndPenaltySane) {
  Rng rng(GetParam());
  SyntheticSpec spec;
  spec.num_tuples = static_cast<int>(rng.NextInt(10, 60));
  spec.num_attributes = static_cast<int>(rng.NextInt(2, 5));
  spec.seed = GetParam();
  Dataset data = GenerateSynthetic(spec);
  int k = static_cast<int>(rng.NextInt(2, 8));
  Ranking given = Ranking::FromScores(
      data.Scores(rng.NextSimplexPoint(spec.num_attributes)),
      std::min(k, spec.num_tuples), 0.0);
  auto fit = FitOrdinalRegression(data, given);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  double sum = 0;
  for (double w : fit->weights) {
    EXPECT_GE(w, -1e-9);
    sum += w;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GE(fit->penalty, -1e-9);
  // The generating weights realize the ranking, so the optimum penalty is 0.
  EXPECT_NEAR(fit->penalty, 0.0, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrdinalRegressionPropertyTest,
                         ::testing::Range<uint64_t>(0, 30));

/// The subgradient fit without the screen: every pair, every iteration.
/// Pairs, margins, step sizes, projection and accumulation order are those
/// of src/baselines/ordinal_regression.cc (no (last-ranked, ⊥) sampling:
/// the instances below have fewer than 20 000 unranked tuples).
OrdinalRegressionFit UnscreenedSubgradientFit(const Dataset& data,
                                              const Ranking& given,
                                              double margin) {
  struct Pair {
    int above;
    int below;
    bool tie;
  };
  const std::vector<int>& ranked = given.ranked_tuples();
  std::vector<Pair> pairs;
  for (size_t i = 0; i < ranked.size(); ++i) {
    for (size_t j = i + 1; j < ranked.size() &&
                           given.position(ranked[j]) ==
                               given.position(ranked[i]);
         ++j) {
      pairs.push_back({ranked[i], ranked[j], true});
    }
  }
  for (size_t i = 0; i + 1 < ranked.size(); ++i) {
    for (size_t j = i + 1; j < ranked.size(); ++j) {
      if (given.position(ranked[j]) > given.position(ranked[i])) {
        pairs.push_back({ranked[i], ranked[j], false});
        break;
      }
    }
  }
  int worst_position = 0;
  for (int t : ranked) {
    worst_position = std::max(worst_position, given.position(t));
  }
  int last_front = -1;
  for (int t : ranked) {
    if (given.position(t) == worst_position) {
      last_front = t;
      break;
    }
  }
  for (int t = 0; t < given.num_tuples(); ++t) {
    if (!given.IsRanked(t)) pairs.push_back({last_front, t, false});
  }

  const int m = data.num_attributes();
  std::vector<double> diffs(pairs.size() * m);
  std::vector<double> margins(pairs.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    data.DiffVectorInto(pairs[p].above, pairs[p].below, diffs.data() + p * m);
    margins[p] =
        pairs[p].tie || !given.IsRanked(pairs[p].below) ? 0 : margin;
  }
  auto project = [](std::vector<double> v) {
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end(), std::greater<double>());
    double cumsum = 0;
    double theta = 0;
    for (size_t i = 0; i < sorted.size(); ++i) {
      cumsum += sorted[i];
      double candidate = (cumsum - 1.0) / static_cast<double>(i + 1);
      if (sorted[i] - candidate > 0) theta = candidate;
    }
    for (double& x : v) x = std::max(0.0, x - theta);
    return v;
  };

  std::vector<double> w(m, 1.0 / m);
  std::vector<double> best = w;
  double best_loss = std::numeric_limits<double>::infinity();
  std::vector<double> grad(m);
  for (int iter = 0; iter < 1500; ++iter) {
    grad.assign(m, 0.0);
    double loss = 0;
    for (size_t p = 0; p < pairs.size(); ++p) {
      const double* d = diffs.data() + p * m;
      double diff = 0;
      for (int a = 0; a < m; ++a) diff += w[a] * d[a];
      if (pairs[p].tie) {
        double excess = std::abs(diff) - 0.0;
        if (excess > 0) {
          loss += excess;
          double sign = diff > 0 ? 1.0 : -1.0;
          for (int a = 0; a < m; ++a) grad[a] += sign * d[a];
        }
      } else {
        double short_by = margins[p] - diff;
        if (short_by > 0) {
          loss += short_by;
          for (int a = 0; a < m; ++a) grad[a] -= d[a];
        }
      }
    }
    if (loss < best_loss) {
      best_loss = loss;
      best = w;
      if (loss == 0) break;
    }
    double grad_norm = std::sqrt(Dot(grad, grad));
    if (grad_norm < 1e-15) break;
    double lr = 0.05 / (1.0 + 0.05 * iter) / grad_norm;
    for (int a = 0; a < m; ++a) w[a] -= lr * grad[a];
    w = project(std::move(w));
  }
  OrdinalRegressionFit fit;
  fit.weights = best;
  fit.penalty = best_loss;
  return fit;
}

struct ScreenInstance {
  Dataset data;
  Ranking given;
  double margin;
};

/// n in [20, 600], m in [1, 8], each attribute on its own scale in
/// [1e-3, 1e4]; some rows copied onto others (zero difference vectors);
/// the ranking is a noisy linear score rounded to a coarse grid, so ranked
/// tuples tie; the margin is 0 or positive.
ScreenInstance MakeScreenInstance(uint64_t seed) {
  Rng rng(seed);
  const int n = static_cast<int>(rng.NextInt(20, 600));
  const int m = static_cast<int>(rng.NextInt(1, 8));
  std::vector<std::string> names;
  std::vector<double> scale(m);
  for (int a = 0; a < m; ++a) {
    names.push_back("A" + std::to_string(a));
    scale[a] = std::pow(10.0, rng.NextUniform(-3, 4));
  }
  Dataset data(names, n);
  for (int t = 0; t < n; ++t) {
    for (int a = 0; a < m; ++a) {
      data.set_value(t, a, scale[a] * rng.NextDouble());
    }
  }
  const int copies = static_cast<int>(rng.NextInt(0, n / 8));
  for (int c = 0; c < copies; ++c) {
    const int from = static_cast<int>(rng.NextBelow(n));
    const int to = static_cast<int>(rng.NextBelow(n));
    for (int a = 0; a < m; ++a) data.set_value(to, a, data.value(from, a));
  }
  // Scores in units of the attributes' own scales, so every attribute
  // matters to the ranking whatever its magnitude.
  const std::vector<double> w_true = rng.NextSimplexPoint(m);
  const double noise = rng.NextUniform(0, 0.3);
  const double grid = rng.NextBelow(2) == 0 ? 1e-9 : 0.02;
  std::vector<double> score(n);
  for (int t = 0; t < n; ++t) {
    double s = noise * rng.NextGaussian();
    for (int a = 0; a < m; ++a) s += w_true[a] * data.value(t, a) / scale[a];
    score[t] = std::round(s / grid) * grid;
  }
  const int k = static_cast<int>(rng.NextInt(2, std::min(40, n - 1)));
  Ranking given = Ranking::FromScores(score, k, 0.0);
  const double margin =
      rng.NextBelow(3) == 0
          ? 0.0
          : std::pow(10.0, rng.NextUniform(-6, 0)) *
                *std::max_element(scale.begin(), scale.end());
  return {std::move(data), std::move(given), margin};
}

bool SameBits(const OrdinalRegressionFit& a, const OrdinalRegressionFit& b) {
  return a.weights.size() == b.weights.size() &&
         std::memcmp(a.weights.data(), b.weights.data(),
                     a.weights.size() * sizeof(double)) == 0 &&
         std::memcmp(&a.penalty, &b.penalty, sizeof(double)) == 0;
}

// The screened subgradient path visits only the pairs it cannot rule out;
// its weights and penalty must equal, bit for bit, those of the loop that
// visits every pair.
TEST(OrdinalRegressionTest, ScreenedSubgradientMatchesUnscreenedLoop) {
  int mismatches = 0;
  for (uint64_t seed = 0; seed < 240; ++seed) {
    ScreenInstance inst = MakeScreenInstance(seed);
    OrdinalRegressionOptions options;
    options.margin = inst.margin;
    options.max_lp_pairs = 0;  // always the subgradient path
    auto fit = FitOrdinalRegression(inst.data, inst.given, options);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    ASSERT_FALSE(fit->exact_lp);
    const OrdinalRegressionFit reference =
        UnscreenedSubgradientFit(inst.data, inst.given, inst.margin);
    if (!SameBits(*fit, reference)) {
      ++mismatches;
      ADD_FAILURE() << "seed " << seed << " (n " << inst.data.num_tuples()
                    << ", m " << inst.data.num_attributes() << "): penalty "
                    << fit->penalty << " vs " << reference.penalty;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace rankhow
