#include "ranking/score_ranking.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "data/kernels.h"
#include "util/logging.h"

namespace rankhow {

std::vector<int> ScoreRankPositions(const std::vector<double>& scores,
                                    double tie_eps) {
  const int n = static_cast<int>(scores.size());
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return scores[a] > scores[b]; });
  std::vector<int> positions(n, 0);
  int beats = 0;
  int j = 0;
  for (int i = 0; i < n; ++i) {
    while (scores[order[j]] - scores[order[i]] > tie_eps) {
      ++j;
      ++beats;
    }
    positions[order[i]] = beats + 1;
  }
  return positions;
}

void ScoreRankPositionsOf(const std::vector<double>& scores,
                          const std::vector<int>& tuples, double tie_eps,
                          std::vector<int>* positions_out) {
  ScoreRankPositionsAmong(scores.data(), tuples, scores.data(),
                          static_cast<int>(scores.size()), tie_eps,
                          positions_out);
}

void ScoreRankPositionsAmong(const double* scores,
                             const std::vector<int>& tuples,
                             const double* counted, int num_counted,
                             double tie_eps,
                             std::vector<int>* positions_out) {
  const int k = static_cast<int>(tuples.size());
  static thread_local std::vector<double> thresholds;
  static thread_local kernels::CountAboveScratch scratch;
  thresholds.resize(k);
  for (int i = 0; i < k; ++i) thresholds[i] = scores[tuples[i]] + tie_eps;
  positions_out->resize(k);
  kernels::CountScoresAbove(counted, num_counted, thresholds.data(), k,
                            &scratch, positions_out->data());
  for (int& position : *positions_out) ++position;
}

std::vector<int> ScoreRankPositionsOf(const std::vector<double>& scores,
                                      const std::vector<int>& tuples,
                                      double tie_eps) {
  std::vector<int> positions;
  ScoreRankPositionsOf(scores, tuples, tie_eps, &positions);
  return positions;
}

long PositionErrorFromScores(const std::vector<double>& scores,
                             const Ranking& given, double tie_eps) {
  const std::vector<int>& ranked = given.ranked_tuples();
  static thread_local std::vector<int> positions;
  ScoreRankPositionsOf(scores, ranked, tie_eps, &positions);
  long error = 0;
  for (size_t i = 0; i < ranked.size(); ++i) {
    error += std::labs(static_cast<long>(positions[i]) -
                       given.position(ranked[i]));
  }
  return error;
}

long PositionError(const Dataset& data, const Ranking& given,
                   const std::vector<double>& weights, double tie_eps) {
  RH_CHECK(data.num_tuples() == given.num_tuples());
  return PositionErrorFromScores(data.Scores(weights), given, tie_eps);
}

std::vector<long> PositionErrorBreakdown(const std::vector<double>& scores,
                                         const Ranking& given,
                                         double tie_eps) {
  const std::vector<int>& ranked = given.ranked_tuples();
  const std::vector<int> positions =
      ScoreRankPositionsOf(scores, ranked, tie_eps);
  std::vector<long> breakdown(ranked.size());
  for (size_t i = 0; i < ranked.size(); ++i) {
    breakdown[i] = std::labs(static_cast<long>(positions[i]) -
                             given.position(ranked[i]));
  }
  return breakdown;
}

}  // namespace rankhow
