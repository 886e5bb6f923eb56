#include "core/indicator_fixing.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <numeric>

#include "data/kernels.h"
#include "util/logging.h"

namespace rankhow {

namespace {

/// True when the box is the whole [0,1]^m (ranges reduce to min/max of d).
bool IsFullBox(const WeightBox& box) {
  for (int i = 0; i < box.dim(); ++i) {
    if (box.lo[i] != 0.0 || box.hi[i] != 1.0) return false;
  }
  return true;
}

enum class PairFixing { kOne, kZero, kFree };

/// The fixing rule, given the range [lo, hi] of w·d over the box.
PairFixing ClassifyPair(double lo, double hi, double eps1, double eps2) {
  if (lo >= eps1) return PairFixing::kOne;
  if (hi <= eps2) return PairFixing::kZero;
  return PairFixing::kFree;
}

}  // namespace

FixingState FixingState::FromSummary(const FixingSummary& summary) {
  FixingState state;
  state.groups.reserve(summary.groups.size());
  state.free_s.reserve(summary.total_free);
  for (const TupleFixing& group : summary.groups) {
    state.groups.push_back(Group{group.fixed_one, group.fixed_zero,
                                 static_cast<int32_t>(group.free.size())});
    for (const FreePair& pair : group.free) state.free_s.push_back(pair.s);
  }
  return state;
}

double ScoreRangeGuard(double scale, int m) {
  // A computed range endpoint sums at most 2m products whose weights add up
  // to 1 within O(m·u), so it errs by a few m·u·Σ|d_a| at most (u = 2⁻⁵³),
  // and rounding d = A(s) − A(r) adds u·(Σ|A(s)| + Σ|A(r)|); a score errs by
  // m·u·Σ|A(t)|. The relative factor is far above their sum for any m, and
  // DBL_MIN covers subnormal products, whose rounding is absolute.
  const double rel = std::max(1e-11, 64.0 * m * DBL_EPSILON);
  return rel * 2 * scale + DBL_MIN;
}

namespace {

/// Counts pair (s, group.tuple) with computed range [lo, hi] into its group
/// and the summary's fixing slack.
void RecordPair(int s, double lo, double hi, PairFixing fixing,
                TupleFixing* group, FixingSummary* summary) {
  switch (fixing) {
    case PairFixing::kOne:
      ++group->fixed_one;
      summary->min_fixed_one_diff = std::min(summary->min_fixed_one_diff, lo);
      break;
    case PairFixing::kZero:
      ++group->fixed_zero;
      summary->max_fixed_zero_diff = std::max(summary->max_fixed_zero_diff, hi);
      break;
    case PairFixing::kFree:
      group->free.push_back(FreePair{s, lo, hi});
      break;
  }
}

void CloseGroup(TupleFixing group, FixingSummary* summary) {
  summary->total_fixed_one += group.fixed_one;
  summary->total_fixed_zero += group.fixed_zero;
  summary->total_free += static_cast<long>(group.free.size());
  summary->groups.push_back(std::move(group));
}

/// The fixing over a box that is not the full simplex, screened by the
/// tuples' score ranges. Over box ∩ simplex, w·d(s,r) lies in
/// [min f(s) − max f(r), max f(s) − min f(r)], so a pair whose bound is
/// already past ε₁ or ε₂ is fixed without its own range. Its range is still
/// computed when the bound could move the recorded slack (a fixed-one
/// bound below the running min_fixed_one_diff, a fixed-zero bound above
/// the running max_fixed_zero_diff), so the slack is the pairwise loop's.
Status ScreenedFixing(const Dataset& data, const std::vector<int>& tuples,
                      const WeightBox& box, double eps1, double eps2,
                      FixingSummary* summary) {
  const int n = data.num_tuples();
  const int m = data.num_attributes();
  summary->score_min.resize(n);
  summary->score_max.resize(n);
  kernels::ScoreRangeOnSimplexBox(data, box, summary->score_min.data(),
                                  summary->score_max.data());
  const double* score_min = summary->score_min.data();
  const double* score_max = summary->score_max.data();
  for (int a = 0; a < m; ++a) {
    const double* col = data.column_data(a);
    double col_max = 0;
    for (int t = 0; t < n; ++t) col_max = std::max(col_max, std::abs(col[t]));
    summary->score_scale += col_max;
  }
  const double guard = ScoreRangeGuard(summary->score_scale, m);

  std::vector<double> d(m);
  for (int r : tuples) {
    TupleFixing group;
    group.tuple = r;
    const double r_min = score_min[r];
    const double r_max = score_max[r];
    for (int s = 0; s < n; ++s) {
      if (s == r) continue;
      // At most the computed diff_min, and at least the computed diff_max.
      const double one_bound = (score_min[s] - r_max) - guard;
      const double zero_bound = (score_max[s] - r_min) + guard;
      if (one_bound >= eps1 && one_bound >= summary->min_fixed_one_diff) {
        ++group.fixed_one;
        continue;
      }
      if (zero_bound <= eps2 && zero_bound < eps1 &&
          zero_bound <= summary->max_fixed_zero_diff) {
        ++group.fixed_zero;
        continue;
      }
      data.DiffVectorInto(s, r, d.data());
      RH_ASSIGN_OR_RETURN(DotRange range, DotRangeOnSimplexBox(d, box));
      RecordPair(s, range.min, range.max,
                 ClassifyPair(range.min, range.max, eps1, eps2), &group,
                 summary);
    }
    CloseGroup(std::move(group), summary);
  }
  return Status();
}

}  // namespace

Result<FixingSummary> ComputeIndicatorFixing(const Dataset& data,
                                             const std::vector<int>& tuples,
                                             const WeightBox& box,
                                             double eps1, double eps2,
                                             bool enable_fixing) {
  RH_CHECK(box.dim() == data.num_attributes());
  if (!box.IntersectsSimplex()) {
    return Status::Infeasible("weight box misses the simplex");
  }
  const int n = data.num_tuples();
  const int m = data.num_attributes();
  const bool full_box = IsFullBox(box);

  FixingSummary summary;
  summary.groups.reserve(tuples.size());
  if (enable_fixing && !full_box) {
    RH_RETURN_NOT_OK(ScreenedFixing(data, tuples, box, eps1, eps2, &summary));
    return summary;
  }
  std::vector<double> d(m);
  // Full-box ranges come from the batched kernel: one column-at-a-time
  // DiffRangeAgainst sweep per pivot instead of an n·m loop of value()
  // calls. Buffers are thread-local so root-grid refixing allocates nothing.
  static thread_local std::vector<double> lo_buf;
  static thread_local std::vector<double> hi_buf;
  if (full_box) {
    lo_buf.resize(n);
    hi_buf.resize(n);
  }

  for (int r : tuples) {
    TupleFixing group;
    group.tuple = r;
    if (full_box) {
      // Range of w·d over the simplex = [min dᵢ, max dᵢ].
      kernels::DiffRangeAgainst(data, r, lo_buf.data(), hi_buf.data());
    }
    for (int s = 0; s < n; ++s) {
      if (s == r) continue;
      double lo;
      double hi;
      if (full_box) {
        lo = lo_buf[s];
        hi = hi_buf[s];
      } else {
        data.DiffVectorInto(s, r, d.data());
        auto range = DotRangeOnSimplexBox(d, box);
        if (!range.ok()) return range.status();
        lo = range->min;
        hi = range->max;
      }
      RecordPair(s, lo, hi,
                 enable_fixing ? ClassifyPair(lo, hi, eps1, eps2)
                               : PairFixing::kFree,
                 &group, &summary);
    }
    CloseGroup(std::move(group), &summary);
  }
  return summary;
}

Result<FixingState> RefineIndicatorFixing(const Dataset& data,
                                          const std::vector<int>& tuples,
                                          const FixingState& parent,
                                          const WeightBox& box, double eps1,
                                          double eps2) {
  RH_CHECK(box.dim() == data.num_attributes());
  RH_CHECK(parent.groups.size() == tuples.size());
  if (!box.IntersectsSimplex()) {
    return Status::Infeasible("weight box misses the simplex");
  }
  FixingState state;
  state.groups.reserve(tuples.size());
  state.free_s.reserve(parent.free_s.size());
  std::vector<double> d(data.num_attributes());
  const int32_t* parent_free = parent.free_s.data();
  for (size_t g = 0; g < tuples.size(); ++g) {
    const int r = tuples[g];
    FixingState::Group group = parent.groups[g];
    const int32_t* const parent_end = parent_free + group.num_free;
    group.num_free = 0;
    for (; parent_free != parent_end; ++parent_free) {
      const int s = *parent_free;
      data.DiffVectorInto(s, r, d.data());
      RH_ASSIGN_OR_RETURN(DotRange range, DotRangeOnSimplexBox(d, box));
      switch (ClassifyPair(range.min, range.max, eps1, eps2)) {
        case PairFixing::kOne:
          ++group.fixed_one;
          break;
        case PairFixing::kZero:
          ++group.fixed_zero;
          break;
        case PairFixing::kFree:
          state.free_s.push_back(s);
          ++group.num_free;
          break;
      }
    }
    state.groups.push_back(group);
  }
  // The state may be kept while the sub-box's children wait in a frontier:
  // drop the capacity of the pairs that got fixed.
  state.free_s.shrink_to_fit();
  return state;
}

}  // namespace rankhow
