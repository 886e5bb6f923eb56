#include "baselines/ordinal_regression.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "lp/simplex.h"
#include "math/linalg.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace rankhow {

namespace {

/// Allowed |score difference| for tied pairs (the tie extension; only
/// meaningful when support_ties).
constexpr double kTieBand = 0.0;
/// Subgradient iterations and base step size of the large-input path.
constexpr int kSubgradientIters = 1500;
constexpr double kSubgradientLr = 0.05;
/// Radius of the screened fit's ball, in steps: a ball built at iteration i
/// has radius kScreenSteps·step_i (DESIGN.md "Screened subgradient fit").
constexpr double kScreenSteps = 4;
/// The screen's rounding guard, relative to ‖d‖₁ + |μ|.
constexpr double kScreenGuard = 1e-10;
/// Cap on sampled (last-ranked, ⊥) pairs for huge inputs.
constexpr int kMaxBottomPairs = 20000;
/// Deterministic RNG stream of that sampling.
constexpr uint64_t kSamplingSeed = 0x4F52ULL;

/// A pair constraint: tuple `above` should outscore `below` by `margin`
/// (strict pair), or stay within kTieBand (tie == true).
struct OrderedPair {
  int above;
  int below;
  bool tie;
};

/// Builds the pair set: consecutive distinct positions among ranked tuples,
/// tied ranked pairs, and (last-ranked, ⊥) pairs.
Result<std::vector<OrderedPair>> BuildPairs(
    const Ranking& given, const OrdinalRegressionOptions& options, Rng* rng) {
  const std::vector<int>& ranked = given.ranked_tuples();
  std::vector<OrderedPair> pairs;

  // Ties: all pairs sharing a position.
  for (size_t i = 0; i < ranked.size(); ++i) {
    for (size_t j = i + 1; j < ranked.size() &&
                           given.position(ranked[j]) ==
                               given.position(ranked[i]);
         ++j) {
      if (!options.support_ties) {
        return Status::Invalid(
            "given ranking contains ties; the original ordinal-regression "
            "formulation does not support them (enable support_ties)");
      }
      pairs.push_back({ranked[i], ranked[j], /*tie=*/true});
    }
  }
  // Strict pairs: each tuple vs the first tuple of the next position group.
  for (size_t i = 0; i + 1 < ranked.size(); ++i) {
    for (size_t j = i + 1; j < ranked.size(); ++j) {
      if (given.position(ranked[j]) > given.position(ranked[i])) {
        pairs.push_back({ranked[i], ranked[j], /*tie=*/false});
        break;  // only the immediate successor group
      }
    }
  }
  // Bottom pairs: the lowest-ranked tuples must not be outscored by ⊥
  // tuples beyond the margin... ⊥ may tie with the last position, so this
  // is a zero-margin strict pair (handled by margin_scale = 0 below).
  std::vector<int> bottom;
  int worst_position = 0;
  for (int t : ranked) worst_position = std::max(worst_position,
                                                 given.position(t));
  std::vector<int> last_group;
  for (int t : ranked) {
    if (given.position(t) == worst_position) last_group.push_back(t);
  }
  std::vector<int> unranked;
  for (int t = 0; t < given.num_tuples(); ++t) {
    if (!given.IsRanked(t)) unranked.push_back(t);
  }
  if (static_cast<int>(unranked.size()) > kMaxBottomPairs) {
    rng->Shuffle(&unranked);
    unranked.resize(kMaxBottomPairs);
  }
  for (int u : unranked) {
    // Use the first tuple of the last ranked group as the representative.
    pairs.push_back({last_group.front(), u, /*tie=*/false});
  }
  return pairs;
}

double PairMargin(const OrderedPair& pair, const Ranking& given,
                  const OrdinalRegressionOptions& options) {
  if (pair.tie) return 0;  // handled via kTieBand rows
  // ⊥ tuples may tie with the last ranked position: zero margin.
  if (!given.IsRanked(pair.below)) return 0;
  return options.margin;
}

Result<OrdinalRegressionFit> SolveWithLp(
    const Dataset& data, const Ranking& given,
    const std::vector<OrderedPair>& pairs,
    const OrdinalRegressionOptions& options) {
  const int m = data.num_attributes();
  LpModel lp;
  std::vector<int> w(m);
  LinearExpr simplex_row;
  for (int a = 0; a < m; ++a) {
    w[a] = lp.AddVariable(0.0, 1.0, "w" + std::to_string(a));
    simplex_row += LinearExpr::Term(w[a], 1.0);
  }
  lp.AddConstraint(simplex_row, RelOp::kEq, 1.0, "simplex");

  LinearExpr objective;
  for (const OrderedPair& pair : pairs) {
    LinearExpr diff;
    for (int a = 0; a < m; ++a) {
      diff += LinearExpr::Term(
          w[a], data.value(pair.above, a) - data.value(pair.below, a));
    }
    if (pair.tie) {
      // |diff| <= kTieBand + z with z >= 0 shared across both sides:
      // diff − z <= kTieBand  and  diff + z >= −kTieBand.
      int z = lp.AddVariable(0.0, kInfinity, "z_tie");
      objective += LinearExpr::Term(z, 1.0);
      lp.AddConstraint(diff - LinearExpr::Term(z, 1.0), RelOp::kLe, kTieBand);
      lp.AddConstraint(diff + LinearExpr::Term(z, 1.0), RelOp::kGe,
                       -kTieBand);
    } else {
      int z = lp.AddVariable(0.0, kInfinity, "z");
      objective += LinearExpr::Term(z, 1.0);
      lp.AddConstraint(diff + LinearExpr::Term(z, 1.0), RelOp::kGe,
                       PairMargin(pair, given, options));
    }
  }
  lp.SetObjective(objective, ObjectiveSense::kMinimize);
  RH_ASSIGN_OR_RETURN(LpSolution sol, SimplexSolver().Solve(lp));

  OrdinalRegressionFit fit;
  fit.weights.resize(m);
  for (int a = 0; a < m; ++a) {
    fit.weights[a] = std::max(0.0, std::min(1.0, sol.values[w[a]]));
  }
  fit.penalty = sol.objective;
  fit.exact_lp = true;
  return fit;
}

/// Euclidean projection onto the probability simplex.
std::vector<double> ProjectToSimplex(std::vector<double> v) {
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
}

/// ‖d‖₂, computed relative to the largest |d_a| so that squaring tiny raw
/// values cannot underflow it to zero.
double ScaledNorm2(const double* d, int m) {
  double scale = 0;
  for (int a = 0; a < m; ++a) scale = std::max(scale, std::abs(d[a]));
  if (!(scale > 0 && scale < kInfinity)) return scale;
  double sum = 0;
  for (int a = 0; a < m; ++a) {
    const double x = d[a] / scale;
    sum += x * x;
  }
  return scale * std::sqrt(sum);
}

OrdinalRegressionFit SolveWithSubgradient(
    const Dataset& data, const Ranking& given,
    const std::vector<OrderedPair>& pairs,
    const OrdinalRegressionOptions& options) {
  const int m = data.num_attributes();
  // Each pair's difference vector and margin, once per fit: pair-major rows
  // diffs[p*m + a] = A_a(above) − A_a(below). The screen below also needs
  // ‖d_p‖₂ and the pair's rounding guard.
  const size_t num_pairs = pairs.size();
  std::vector<double> diffs(num_pairs * m);
  std::vector<double> margins(num_pairs);
  std::vector<double> norms(num_pairs);
  std::vector<double> guards(num_pairs);
  for (size_t p = 0; p < num_pairs; ++p) {
    double* d = diffs.data() + p * m;
    data.DiffVectorInto(pairs[p].above, pairs[p].below, d);
    margins[p] = PairMargin(pairs[p], given, options);
    norms[p] = ScaledNorm2(d, m);
    double norm1 = 0;
    for (int a = 0; a < m; ++a) norm1 += std::abs(d[a]);
    // DBL_MIN covers the absolute rounding of subnormal products.
    guards[p] = kScreenGuard * (norm1 + std::abs(margins[p])) +
                std::numeric_limits<double>::min();
  }
  std::vector<double> w(m, 1.0 / m);
  std::vector<double> best = w;
  double best_loss = kInfinity;

  // The screen: while ‖w − w₀‖₂ <= radius, a strict pair with
  // (d·w₀ − μ) − ‖d‖₂·radius > guard has d·w >= μ (Cauchy–Schwarz), so it
  // cannot be violated and adds nothing to the loss or the subgradient.
  // `candidates` lists the other pairs, ties included, in ascending order,
  // so the loop below runs the unscreened loop's arithmetic on every
  // violated pair in the same order, and its results are bit-identical.
  std::vector<double> w0 = w;
  double radius = -1;  // no ball yet: the first iteration builds one
  std::vector<uint32_t> candidates;
  auto rebuild = [&](double new_radius) {
    w0 = w;
    radius = new_radius;
    candidates.clear();
    for (size_t p = 0; p < num_pairs; ++p) {
      if (!pairs[p].tie) {
        const double* d = diffs.data() + p * m;
        double diff = 0;
        for (int a = 0; a < m; ++a) diff += w0[a] * d[a];
        // A non-finite d makes the slack NaN or −∞, which keeps the pair.
        const double slack = (diff - margins[p]) - norms[p] * radius;
        if (slack > guards[p]) continue;
      }
      candidates.push_back(static_cast<uint32_t>(p));
    }
  };

  auto loss_and_grad = [&](const std::vector<double>& weights,
                           std::vector<double>* grad) {
    grad->assign(m, 0.0);
    double loss = 0;
    for (uint32_t p : candidates) {
      const double* d = diffs.data() + static_cast<size_t>(p) * m;
      double diff = 0;
      for (int a = 0; a < m; ++a) diff += weights[a] * d[a];
      if (pairs[p].tie) {
        double excess = std::abs(diff) - kTieBand;
        if (excess > 0) {
          loss += excess;
          double sign = diff > 0 ? 1.0 : -1.0;
          for (int a = 0; a < m; ++a) (*grad)[a] += sign * d[a];
        }
      } else {
        double short_by = margins[p] - diff;
        if (short_by > 0) {
          loss += short_by;
          for (int a = 0; a < m; ++a) (*grad)[a] -= d[a];
        }
      }
    }
    return loss;
  };

  std::vector<double> grad(m);
  for (int iter = 0; iter < kSubgradientIters; ++iter) {
    // How far this iteration's step can move w: the step has this length
    // and the projection onto the simplex is non-expansive.
    const double step = kSubgradientLr / (1.0 + 0.05 * iter);
    double moved = 0;
    for (int a = 0; a < m; ++a) moved += (w[a] - w0[a]) * (w[a] - w0[a]);
    if (!(std::sqrt(moved) <= radius)) rebuild(kScreenSteps * step);
    double loss = loss_and_grad(w, &grad);
    if (loss < best_loss) {
      best_loss = loss;
      best = w;
      if (loss == 0) break;
    }
    double grad_norm = std::sqrt(Dot(grad, grad));
    if (grad_norm < 1e-15) break;
    double lr = step / grad_norm;
    for (int a = 0; a < m; ++a) w[a] -= lr * grad[a];
    w = ProjectToSimplex(std::move(w));
  }

  OrdinalRegressionFit fit;
  fit.weights = best;
  fit.penalty = best_loss;
  fit.exact_lp = false;
  return fit;
}

}  // namespace

Result<OrdinalRegressionFit> FitOrdinalRegression(
    const Dataset& data, const Ranking& given,
    const OrdinalRegressionOptions& options) {
  if (data.num_tuples() != given.num_tuples()) {
    return Status::Invalid("dataset / ranking size mismatch");
  }
  WallTimer timer;
  Rng rng(kSamplingSeed);
  RH_ASSIGN_OR_RETURN(std::vector<OrderedPair> pairs,
                      BuildPairs(given, options, &rng));
  Result<OrdinalRegressionFit> fit =
      static_cast<int>(pairs.size()) <= options.max_lp_pairs
          ? SolveWithLp(data, given, pairs, options)
          : Result<OrdinalRegressionFit>(
                SolveWithSubgradient(data, given, pairs, options));
  if (!fit.ok()) return fit.status();
  fit->seconds = timer.ElapsedSeconds();
  return fit;
}

}  // namespace rankhow
