#include "core/seeding.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <queue>

#include "baselines/linear_regression.h"
#include "baselines/ordinal_regression.h"
#include "util/logging.h"
#include "util/random.h"

namespace rankhow {

std::vector<double> ProjectWeightsToSimplex(std::vector<double> weights) {
  double total = 0;
  for (double& w : weights) {
    if (w < 0) w = 0;
    total += w;
  }
  if (total <= 0) {
    std::fill(weights.begin(), weights.end(), 1.0 / weights.size());
    return weights;
  }
  for (double& w : weights) w /= total;
  return weights;
}

Result<std::vector<double>> OrdinalRegressionSeed(const Dataset& data,
                                                  const Ranking& given,
                                                  double eps1) {
  OrdinalRegressionOptions options;
  options.margin = eps1;
  RH_ASSIGN_OR_RETURN(OrdinalRegressionFit fit,
                      FitOrdinalRegression(data, given, options));
  return ProjectWeightsToSimplex(std::move(fit.weights));
}

Result<std::vector<double>> LinearRegressionSeed(const Dataset& data,
                                                 const Ranking& given) {
  RH_ASSIGN_OR_RETURN(LinearRegressionFit fit,
                      FitLinearRegression(data, given));
  return ProjectWeightsToSimplex(std::move(fit.weights));
}

CellErrorBounds BoundCellError(const Ranking& given,
                               const FixingState& fixing) {
  const std::vector<int>& tuples = given.ranked_tuples();
  CellErrorBounds bounds;
  for (size_t g = 0; g < tuples.size(); ++g) {
    const long beats_min = fixing.groups[g].fixed_one;
    const long beats_max = beats_min + fixing.groups[g].num_free;
    const long target = given.position(tuples[g]) - 1;
    // Positions bracket [beats_min+1, beats_max+1]; distance of target+1 to
    // the bracket is a valid per-tuple lower bound; the farthest endpoint a
    // valid upper bound.
    if (target < beats_min) {
      bounds.lower += beats_min - target;
    } else if (target > beats_max) {
      bounds.lower += target - beats_max;
    }
    bounds.upper += std::max(std::labs(target - beats_min),
                             std::labs(target - beats_max));
  }
  return bounds;
}

namespace {

struct ScoredBox {
  long lower_bound;
  long upper_bound;
  WeightBox box;
  /// The box's own fixing, which its children refine.
  std::shared_ptr<const FixingState> fixing;
};

struct BoxOrder {
  bool operator()(const ScoredBox& a, const ScoredBox& b) const {
    if (a.lower_bound != b.lower_bound) return a.lower_bound > b.lower_bound;
    return a.upper_bound > b.upper_bound;
  }
};

}  // namespace

Result<std::vector<double>> GridLowerBoundSeed(const Dataset& data,
                                               const Ranking& given,
                                               const GridSeedOptions& options,
                                               const Deadline& deadline) {
  const std::vector<int>& tuples = given.ranked_tuples();
  std::priority_queue<ScoredBox, std::vector<ScoredBox>, BoxOrder> open;

  auto push_box = [&](WeightBox box, FixingState fixing) {
    const CellErrorBounds bounds = BoundCellError(given, fixing);
    auto state = std::make_shared<const FixingState>(std::move(fixing));
    open.push(ScoredBox{bounds.lower, bounds.upper, std::move(box),
                        std::move(state)});
  };

  const WeightBox root = WeightBox::FullSimplex(data.num_attributes());
  RH_ASSIGN_OR_RETURN(FixingSummary root_fixing,
                      ComputeIndicatorFixing(data, tuples, root, options.eps1,
                                             options.eps2));
  push_box(root, FixingState::FromSummary(root_fixing));

  int evaluations = 1;
  std::vector<double> best_point;
  long best_upper = -1;
  while (!open.empty() && evaluations < options.max_cells &&
         !deadline.Expired()) {
    ScoredBox top = open.top();
    open.pop();
    if (best_upper >= 0 && top.lower_bound >= best_upper) {
      // Even the most promising cell cannot beat the best certified cell.
      break;
    }
    if (top.box.MaxWidth() <= options.target_cell_size ||
        top.lower_bound == top.upper_bound) {
      auto point = AnyPointOnSimplexBox(top.box);
      if (point.ok() &&
          (best_upper < 0 || top.upper_bound < best_upper)) {
        best_upper = top.upper_bound;
        best_point = *point;
        if (best_upper == 0) break;
      }
      continue;
    }
    auto [lower, upper] = top.box.SplitWidest();
    for (WeightBox* half : {&lower, &upper}) {
      if (!half->IntersectsSimplex()) continue;
      RH_ASSIGN_OR_RETURN(
          FixingState fixing,
          RefineIndicatorFixing(data, tuples, *top.fixing, *half,
                                options.eps1, options.eps2));
      push_box(std::move(*half), std::move(fixing));
    }
    evaluations += 2;
  }
  // Budget exhausted: fall back to the most promising remaining cell.
  if (best_point.empty() && !open.empty()) {
    auto point = AnyPointOnSimplexBox(open.top().box);
    if (point.ok()) best_point = *point;
  }
  if (best_point.empty()) {
    return Status::ResourceExhausted(
        "grid seed found no evaluable cell within its budget");
  }
  return best_point;
}

std::vector<double> RandomSeed(int num_attributes, uint64_t seed) {
  Rng rng(seed ^ 0x53454544ULL);
  return rng.NextSimplexPoint(num_attributes);
}

std::vector<double> RandomSeed(int num_attributes, Rng* rng) {
  return rng->NextSimplexPoint(num_attributes);
}

std::vector<PortfolioSeed> BuildPortfolioSeeds(
    const Dataset& data, const Ranking& given, double eps1, int count,
    uint64_t stream_seed, const Deadline& deadline) {
  const int m = data.num_attributes();
  std::vector<PortfolioSeed> seeds;
  if (count <= 0) return seeds;
  seeds.reserve(count);

  auto near_duplicate = [&](const std::vector<double>& w) {
    for (const PortfolioSeed& s : seeds) {
      double dist = 0;
      for (int a = 0; a < m; ++a) {
        dist = std::max(dist, std::abs(s.weights[a] - w[a]));
      }
      if (dist < 1e-9) return true;
    }
    return false;
  };
  // Each deterministic seed is built only while a slot is open for it and
  // the deadline has not expired.
  auto try_add = [&](const char* name, auto build) {
    if (static_cast<int>(seeds.size()) >= count || deadline.Expired()) return;
    Result<std::vector<double>> w = build();
    if (!w.ok() || near_duplicate(*w)) return;  // random draw fills the slot
    seeds.push_back(PortfolioSeed{name, *std::move(w)});
  };

  try_add("ordinal", [&] { return OrdinalRegressionSeed(data, given, eps1); });
  try_add("linear", [&] { return LinearRegressionSeed(data, given); });
  try_add("grid", [&] {
    GridSeedOptions grid_options;
    grid_options.eps1 = eps1;
    return GridLowerBoundSeed(data, given, grid_options, deadline);
  });
  // Random tail: stream i is disjoint from every other by construction,
  // and tied to its slot index — dropping a failed deterministic seed
  // never reshuffles which random points the survivors get. Duplicate
  // draws are astronomically unlikely for m >= 2, but for m == 1 the
  // simplex is the single point {1}, so after a bounded number of
  // rejections the draw is accepted anyway — exactly `count` seeds always
  // come back, never an infinite loop.
  Rng base(stream_seed ^ 0x504F5254ULL);
  int rejected = 0;
  for (int i = 0; static_cast<int>(seeds.size()) < count; ++i) {
    Rng stream = base.SplitStream(i);
    std::vector<double> w = RandomSeed(m, &stream);
    if (near_duplicate(w) && ++rejected <= 2 * count + 8) continue;
    seeds.push_back(
        PortfolioSeed{"random-" + std::to_string(i), std::move(w)});
  }
  return seeds;
}

}  // namespace rankhow
