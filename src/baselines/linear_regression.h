#ifndef RANKHOW_BASELINES_LINEAR_REGRESSION_H_
#define RANKHOW_BASELINES_LINEAR_REGRESSION_H_

/// \file linear_regression.h
/// The LINEARREGRESSION competitor: treat tuple positions as numeric labels
/// (tuple at position i gets label |R|−i+1, ⊥ tuples share the label below
/// the ranked block) and fit ordinary least squares — optionally with
/// non-negative coefficients (NNLS). As the paper's Examples 2–3 show, this
/// optimizes score accuracy, not position accuracy, and is the natural
/// adaptation of post-hoc explainable learning-to-rank to OPT.

#include <vector>

#include "data/dataset.h"
#include "ranking/ranking.h"
#include "util/status.h"

namespace rankhow {

struct LinearRegressionOptions {
  /// Fit with β >= 0 (Lawson–Hanson NNLS) instead of plain OLS.
  bool non_negative = false;
};

struct LinearRegressionFit {
  /// Attribute coefficients (may be negative for plain OLS). Scoring by
  /// these weights is what gets evaluated; an affine label change never
  /// changes the induced ranking.
  std::vector<double> weights;
  double intercept = 0;
  double seconds = 0;
};

Result<LinearRegressionFit> FitLinearRegression(
    const Dataset& data, const Ranking& given,
    const LinearRegressionOptions& options = LinearRegressionOptions());

}  // namespace rankhow

#endif  // RANKHOW_BASELINES_LINEAR_REGRESSION_H_
