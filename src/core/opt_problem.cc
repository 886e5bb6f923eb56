#include "core/opt_problem.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace rankhow {

Status AppendRelativePositionBand(const Ranking& given, double lo_frac,
                                  double hi_frac, int limit,
                                  std::vector<PositionConstraint>* out) {
  if (!(lo_frac > 0) || !(hi_frac >= lo_frac)) {
    return Status::Invalid(StrFormat(
        "relative band needs 0 < lo_frac <= hi_frac, got [%g, %g]", lo_frac,
        hi_frac));
  }
  if (limit < 1) {
    return Status::Invalid("relative band limit must be >= 1");
  }
  for (int t = 0; t < given.num_tuples(); ++t) {
    const int p = given.position(t);
    if (p == kUnranked || p > limit) continue;
    PositionConstraint pc;
    pc.tuple = t;
    pc.min_position = std::max(1, static_cast<int>(std::floor(lo_frac * p)));
    pc.max_position = static_cast<int>(std::ceil(hi_frac * p));
    out->push_back(pc);
  }
  return Status();
}

Status OptProblem::Validate() const {
  if (data == nullptr || given == nullptr) {
    return Status::Invalid("OptProblem requires dataset and ranking");
  }
  if (data->num_tuples() != given->num_tuples()) {
    return Status::Invalid(StrFormat(
        "dataset has %d tuples but ranking covers %d", data->num_tuples(),
        given->num_tuples()));
  }
  if (data->num_attributes() < 1) {
    return Status::Invalid("dataset has no ranking attributes");
  }
  // NaN/±inf would silently poison every LP coefficient and score; reject
  // up front with a pointed message instead.
  for (int a = 0; a < data->num_attributes(); ++a) {
    for (double v : data->column(a)) {
      if (!std::isfinite(v)) {
        return Status::Invalid(StrFormat(
            "attribute %s contains a non-finite value (%g)",
            data->attribute_name(a).c_str(), v));
      }
    }
  }
  if (given->k() < 1) return Status::Invalid("ranking has no ranked tuples");
  if (!eps.Valid()) {
    return Status::Invalid(StrFormat(
        "epsilon configuration violates Lemma 2/3 ordering: finite "
        "eps2=%g <= tie_eps=%g < eps1=%g required",
        eps.eps2, eps.tie_eps, eps.eps1));
  }
  for (const PositionConstraint& pc : position_constraints) {
    if (pc.tuple < 0 || pc.tuple >= data->num_tuples()) {
      return Status::Invalid("position constraint on unknown tuple");
    }
    if (pc.min_position < 1 || pc.max_position < pc.min_position) {
      return Status::Invalid("position constraint with empty range");
    }
  }
  for (const PairwiseOrderConstraint& oc : order_constraints) {
    if (oc.above < 0 || oc.above >= data->num_tuples() || oc.below < 0 ||
        oc.below >= data->num_tuples() || oc.above == oc.below) {
      return Status::Invalid("order constraint with bad tuple ids");
    }
  }
  for (long penalty : objective.penalties) {
    if (penalty < 0) {
      return Status::Invalid("objective penalties must be non-negative");
    }
  }
  return Status::OK();
}

}  // namespace rankhow
