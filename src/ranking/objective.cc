#include "ranking/objective.h"

#include <cmath>

#include "ranking/score_ranking.h"
#include "util/logging.h"

namespace rankhow {

const char* ObjectiveKindName(ObjectiveKind kind) {
  switch (kind) {
    case ObjectiveKind::kPositionError:
      return "position-error";
    case ObjectiveKind::kWeightedPositionError:
      return "weighted-position-error";
    case ObjectiveKind::kInversions:
      return "inversions";
  }
  return "unknown";
}

RankingObjectiveSpec RankingObjectiveSpec::TopHeavy(int k) {
  RankingObjectiveSpec spec;
  spec.kind = ObjectiveKind::kWeightedPositionError;
  spec.penalties.assign(k + 1, 1);
  for (int p = 1; p <= k; ++p) spec.penalties[p] = k - p + 1;
  return spec;
}

RankingObjectiveSpec RankingObjectiveSpec::Inversions() {
  RankingObjectiveSpec spec;
  spec.kind = ObjectiveKind::kInversions;
  return spec;
}

long ObjectiveOfScores(const Dataset& data, const Ranking& given,
                       const std::vector<double>& scores, double tie_eps,
                       const RankingObjectiveSpec& spec) {
  RH_CHECK(static_cast<int>(scores.size()) == data.num_tuples());
  return ObjectiveOfScoresAmong(given, scores.data(), scores.data(),
                                data.num_tuples(), tie_eps, spec);
}

long ObjectiveOfScoresAmong(const Ranking& given, const double* scores,
                            const double* counted, int num_counted,
                            double tie_eps, const RankingObjectiveSpec& spec) {
  const std::vector<int>& ranked = given.ranked_tuples();
  if (spec.kind == ObjectiveKind::kInversions) {
    // Discordant ranked pairs: (a strictly above b in π) whose scores place
    // b strictly above a (beyond the tie tolerance). Tied-π pairs and
    // tied-score pairs are neutral, matching Kendall-tau distance.
    long inversions = 0;
    for (size_t i = 0; i < ranked.size(); ++i) {
      for (size_t j = i + 1; j < ranked.size(); ++j) {
        int a = ranked[i];
        int b = ranked[j];
        if (given.position(a) == given.position(b)) continue;
        if (given.position(a) > given.position(b)) std::swap(a, b);
        if (scores[b] - scores[a] > tie_eps) ++inversions;
      }
    }
    return inversions;
  }
  static thread_local std::vector<int> positions;
  ScoreRankPositionsAmong(scores, ranked, counted, num_counted, tie_eps,
                          &positions);
  return PositionObjectiveOf(given, positions.data(), spec);
}

long PositionObjectiveOf(const Ranking& given, const int* positions,
                         const RankingObjectiveSpec& spec) {
  RH_CHECK(spec.kind != ObjectiveKind::kInversions);
  const std::vector<int>& ranked = given.ranked_tuples();
  long total = 0;
  for (size_t i = 0; i < ranked.size(); ++i) {
    const int given_pos = given.position(ranked[i]);
    total += spec.PenaltyAt(given_pos) *
             std::labs(static_cast<long>(positions[i]) - given_pos);
  }
  return total;
}

long ObjectiveOf(const Dataset& data, const Ranking& given,
                 const std::vector<double>& w, double tie_eps,
                 const RankingObjectiveSpec& spec) {
  return ObjectiveOfScores(data, given, data.Scores(w), tie_eps, spec);
}

}  // namespace rankhow
