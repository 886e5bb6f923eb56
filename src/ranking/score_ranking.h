#ifndef RANKHOW_RANKING_SCORE_RANKING_H_
#define RANKHOW_RANKING_SCORE_RANKING_H_

/// \file score_ranking.h
/// Score-based rankings ρ_W induced by a linear function f_W (Definition 2)
/// and the position-based error of Definition 3, in fast floating-point
/// form. The exact (rational-arithmetic) counterpart lives in verifier.h.

#include <vector>

#include "data/dataset.h"
#include "ranking/ranking.h"
#include "util/status.h"

namespace rankhow {

/// ρ_W positions for ALL tuples: ρ(r) = 1 + #{s : f(s) − f(r) > ε}.
/// O(n log n).
std::vector<int> ScoreRankPositions(const std::vector<double>& scores,
                                    double tie_eps);

/// Positions of selected tuples only, ρ(t) = 1 + #{s : f(s) > f(t) + ε},
/// written into a caller-owned buffer (resized to tuples.size()). One
/// kernels::CountScoresAbove pass counts all of them in
/// O(n log k + k log k) for k selected tuples, allocation-free once the
/// buffer has grown. This sum form can differ from the difference form
/// above by a rounding step when f(s) − f(t) sits at ε.
void ScoreRankPositionsOf(const std::vector<double>& scores,
                          const std::vector<int>& tuples, double tie_eps,
                          std::vector<int>* positions_out);

/// Same, with the count over `counted` (num_counted scores) only, while
/// each threshold f(t) + ε reads scores[t]. Equal to the count over all
/// scores whenever every score left out of `counted` is at or below every
/// threshold (the MILP heuristic's screened evaluation, core/rankhow.cc).
void ScoreRankPositionsAmong(const double* scores,
                             const std::vector<int>& tuples,
                             const double* counted, int num_counted,
                             double tie_eps,
                             std::vector<int>* positions_out);

/// Same, returned by value.
std::vector<int> ScoreRankPositionsOf(const std::vector<double>& scores,
                                      const std::vector<int>& tuples,
                                      double tie_eps);

/// Position-based error (Definition 3) of the score-based ranking induced by
/// `weights` against the given ranking π: Σ_{r ranked} |ρ_W(r) − π(r)|.
long PositionError(const Dataset& data, const Ranking& given,
                   const std::vector<double>& weights, double tie_eps);

/// Same, reusing precomputed scores.
long PositionErrorFromScores(const std::vector<double>& scores,
                             const Ranking& given, double tie_eps);

/// Per-tuple breakdown |ρ_W(r) − π(r)| for the ranked tuples (ordered as
/// given.ranked_tuples()).
std::vector<long> PositionErrorBreakdown(const std::vector<double>& scores,
                                         const Ranking& given,
                                         double tie_eps);

}  // namespace rankhow

#endif  // RANKHOW_RANKING_SCORE_RANKING_H_
