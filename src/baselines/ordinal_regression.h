#ifndef RANKHOW_BASELINES_ORDINAL_REGRESSION_H_
#define RANKHOW_BASELINES_ORDINAL_REGRESSION_H_

/// \file ordinal_regression.h
/// The ORDINALREGRESSION competitor: Srinivasan's (1976) linear-programming
/// procedure, which finds weights minimizing a *score-based* penalty — the
/// total slack needed to make every correctly-ordered pair's score
/// difference reach a margin. Extended per the paper's Sec. VI with tie
/// support and the ε₁ numerical-gap construction (the original allows
/// neither). The LP is solved with our simplex; instances whose pair count
/// exceeds `max_lp_pairs` fall back to projected-subgradient descent on the
/// identical hinge objective (same minimizer family, scales to millions of
/// tuples — needed when this runs as the SYM-GD seed on 10⁶-tuple inputs).
/// That descent screens its pairs: an iteration visits only the tie pairs
/// and the strict pairs that a Cauchy–Schwarz bound around a reference
/// point cannot rule out, so its cost scales with those candidates (about
/// 20 of 20 009 pairs at the paper's n = 22 840), not with all pairs. The
/// fit is bit-identical to visiting every pair (DESIGN.md "Screened
/// subgradient fit").

#include <vector>

#include "data/dataset.h"
#include "ranking/ranking.h"
#include "util/status.h"

namespace rankhow {

struct OrdinalRegressionOptions {
  /// Required score separation for strictly ordered pairs (the paper's OR+
  /// sets this to ε₁; OR- uses a value below the noise floor).
  double margin = 1e-6;
  /// Enable the paper's tie extension. When false and the ranking contains
  /// ties, fitting fails (the original technique's behavior).
  bool support_ties = true;
  /// Pair-count threshold above which the subgradient path is used.
  int max_lp_pairs = 3000;
};

struct OrdinalRegressionFit {
  /// Weights on the simplex (w >= 0, Σw = 1).
  std::vector<double> weights;
  /// Total slack (LP objective) or hinge loss (subgradient path).
  double penalty = 0;
  /// True when the LP path produced the fit (exact optimum of the program).
  bool exact_lp = false;
  double seconds = 0;
};

Result<OrdinalRegressionFit> FitOrdinalRegression(
    const Dataset& data, const Ranking& given,
    const OrdinalRegressionOptions& options = OrdinalRegressionOptions());

}  // namespace rankhow

#endif  // RANKHOW_BASELINES_ORDINAL_REGRESSION_H_
