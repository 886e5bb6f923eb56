#include "baselines/linear_regression.h"

#include "math/linalg.h"
#include "util/timer.h"

namespace rankhow {

Result<LinearRegressionFit> FitLinearRegression(
    const Dataset& data, const Ranking& given,
    const LinearRegressionOptions& options) {
  if (data.num_tuples() != given.num_tuples()) {
    return Status::Invalid("dataset / ranking size mismatch");
  }
  WallTimer timer;
  const int n = data.num_tuples();
  const int m = data.num_attributes();

  // Labels: position i -> n − i + 1; ⊥ -> n − (k_max + 1) + 1 where k_max is
  // the greatest ranked position (they all sit just below the ranked block).
  int k_max = 0;
  for (int t : given.ranked_tuples()) k_max = std::max(k_max, given.position(t));
  std::vector<double> y(n);
  for (int t = 0; t < n; ++t) {
    int position = given.IsRanked(t) ? given.position(t) : k_max + 1;
    y[t] = static_cast<double>(n - position + 1);
  }

  // Design matrix with an intercept column (last).
  Matrix x(n, m + 1);
  for (int t = 0; t < n; ++t) {
    for (int a = 0; a < m; ++a) x.at(t, a) = data.value(t, a);
    x.at(t, m) = 1.0;
  }

  std::vector<double> beta;
  if (options.non_negative) {
    // NNLS on attributes; keep the intercept free by centering: fold it out
    // via mean-shifted labels (the intercept does not affect rankings).
    double y_mean = 0;
    for (double v : y) y_mean += v;
    y_mean /= n;
    std::vector<double> yc(n);
    for (int t = 0; t < n; ++t) yc[t] = y[t] - y_mean;
    Matrix xa(n, m);
    for (int t = 0; t < n; ++t) {
      for (int a = 0; a < m; ++a) xa.at(t, a) = data.value(t, a);
    }
    RH_ASSIGN_OR_RETURN(beta, NonNegativeLeastSquares(xa, yc));
    beta.push_back(y_mean);
  } else {
    constexpr double kRidge = 1e-8;  // used only as a singularity fallback
    RH_ASSIGN_OR_RETURN(beta, LeastSquares(x, y, kRidge));
  }

  LinearRegressionFit fit;
  fit.weights.assign(beta.begin(), beta.begin() + m);
  fit.intercept = beta[m];
  fit.seconds = timer.ElapsedSeconds();
  return fit;
}

}  // namespace rankhow
