#ifndef RANKHOW_RANKING_OBJECTIVE_H_
#define RANKHOW_RANKING_OBJECTIVE_H_

/// \file objective.h
/// The optimization objective of an OPT instance. The paper's headline
/// objective is total position-based error (Definition 3), but Section I
/// notes that R"ANKHOW" "supports Kendall's Tau and other measures that are
/// based on inversions, including variations that assign a greater penalty
/// to errors higher in the ranking". This module makes the objective a
/// first-class, solver-wide choice:
///
///  * kPositionError           Σ_r |ρ(r) − π(r)|                (Def. 3)
///  * kWeightedPositionError   Σ_r penalty(π(r)) · |ρ(r) − π(r)|
///  * kInversions              #{(a,b) : π(a) < π(b), f(b) − f(a) > ε}
///                             (Kendall-tau distance over ranked pairs)
///
/// All three are integral, so branch-and-bound keeps its ceil() bound
/// tightening. The same spec drives the MILP objective, the presolve and
/// primal-heuristic evaluations, the spatial bounds, and exact verification.

#include <vector>

#include "data/dataset.h"
#include "ranking/ranking.h"

namespace rankhow {

enum class ObjectiveKind {
  kPositionError,
  kWeightedPositionError,
  kInversions,
};

const char* ObjectiveKindName(ObjectiveKind kind);

struct RankingObjectiveSpec {
  ObjectiveKind kind = ObjectiveKind::kPositionError;
  /// kWeightedPositionError: penalties[p] multiplies the position error of a
  /// tuple GIVEN at position p (1-based; index 0 unused). Positions beyond
  /// the vector get penalty 1; an empty vector means uniform penalties
  /// (== kPositionError). Integer penalties keep the objective integral.
  std::vector<long> penalties;

  long PenaltyAt(int given_position) const {
    if (kind != ObjectiveKind::kWeightedPositionError) return 1;
    if (given_position < 1 ||
        given_position >= static_cast<int>(penalties.size())) {
      return 1;
    }
    return penalties[given_position];
  }

  /// Convenience: top-heavy penalties k, k-1, ..., 1 for positions 1..k
  /// ("greater penalty to errors higher in the ranking").
  static RankingObjectiveSpec TopHeavy(int k);
  /// Plain Kendall-tau distance.
  static RankingObjectiveSpec Inversions();
};

/// Evaluates the objective of weight vector `w` in double arithmetic under
/// the ε-tie semantics of Definition 2. This is the single authority used
/// by presolve, incumbent heuristics, and the spatial search.
long ObjectiveOf(const Dataset& data, const Ranking& given,
                 const std::vector<double>& w, double tie_eps,
                 const RankingObjectiveSpec& spec);

/// Same, from precomputed scores (avoids rescoring in hot loops).
long ObjectiveOfScores(const Dataset& data, const Ranking& given,
                       const std::vector<double>& scores, double tie_eps,
                       const RankingObjectiveSpec& spec);

/// Same, with positions counted over `counted` (num_counted scores) only:
/// `scores` must hold f(r) at every ranked tuple r, and a tuple left out of
/// `counted` must score at or below f(r) + tie_eps for every ranked r, so
/// that it beats none of them (ScoreRankPositionsAmong).
long ObjectiveOfScoresAmong(const Ranking& given, const double* scores,
                            const double* counted, int num_counted,
                            double tie_eps, const RankingObjectiveSpec& spec);

/// The position objectives (kPositionError, kWeightedPositionError) from
/// the ρ positions of given.ranked_tuples(), `positions[i]` being that of
/// the i-th: Σ_r penalty(π(r))·|ρ(r) − π(r)|. For callers that already
/// counted the positions (ScoreRankPositionsOf) next to others they need.
long PositionObjectiveOf(const Ranking& given, const int* positions,
                         const RankingObjectiveSpec& spec);

}  // namespace rankhow

#endif  // RANKHOW_RANKING_OBJECTIVE_H_
