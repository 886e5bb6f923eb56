#ifndef RANKHOW_CORE_INDICATOR_FIXING_H_
#define RANKHOW_CORE_INDICATOR_FIXING_H_

/// \file indicator_fixing.h
/// Interval fixing of the indicator variables δ_sr over a weight box. This
/// single primitive implements two ideas of the paper:
///
///  * Section V-B's dominator/dominatee elimination is the special case of
///    fixing over the *whole simplex*: if s dominates r then w·d(s,r) >= ε₁
///    for every admissible w, so δ_sr ≡ 1 (and symmetrically ≡ 0).
///  * Section IV-A's SYM-GD cell reduction is fixing over a *small box*:
///    few indicator hyperplanes intersect a small cell, so almost all δ
///    become constants and the local MILP collapses toward an LP.
///
/// Ranges of w·d over box ∩ simplex are computed exactly with the greedy
/// support function in math/simplex_box.h. Over the whole simplex they come
/// from one batched min/max sweep per group tuple. Over any other box, with
/// fixing on, each tuple's score range over the box is computed once, and a
/// pair whose bound from the two score ranges already decides it skips its
/// own exact range, unless that range could move the recorded fixing slack.
/// The result is the one the pairwise loop gives, bit for bit (DESIGN.md
/// "Screened cell fixing and evaluation").

#include <cstdint>
#include <limits>
#include <vector>

#include "data/dataset.h"
#include "math/simplex_box.h"
#include "util/status.h"

namespace rankhow {

/// An undetermined pair: s may or may not outscore the group's tuple r
/// within the box. [diff_min, diff_max] is the exact range of w·d(s,r).
struct FreePair {
  int s = -1;
  double diff_min = 0;
  double diff_max = 0;
};

/// Fixing summary for one "group" tuple r (a ranked tuple or a
/// position-constrained one).
struct TupleFixing {
  int tuple = -1;
  /// Number of s with δ_sr fixed to 1 (s certainly outscores r in the box).
  int fixed_one = 0;
  /// Number of s with δ_sr fixed to 0.
  int fixed_zero = 0;
  /// The undetermined pairs.
  std::vector<FreePair> free;
};

struct FixingSummary {
  std::vector<TupleFixing> groups;
  long total_fixed_one = 0;
  long total_fixed_zero = 0;
  long total_free = 0;
  /// Slack of the fixing decisions against the ε thresholds: the smallest
  /// diff_min among fixed-one pairs and the largest diff_max among
  /// fixed-zero pairs. A later ε move keeps every fixing valid exactly when
  /// eps1' <= min_fixed_one_diff and eps2' >= max_fixed_zero_diff — the
  /// test that lets SetEpsilon patch a compiled model's rhs in place
  /// instead of recompiling (±inf when nothing was fixed: always valid).
  double min_fixed_one_diff = std::numeric_limits<double>::infinity();
  double max_fixed_zero_diff = -std::numeric_limits<double>::infinity();
  /// Filled by the screened path only (a box other than the full simplex,
  /// fixing on), empty otherwise: [score_min[t], score_max[t]] is the range
  /// of tuple t's score w·A(t) over box ∩ simplex
  /// (kernels::ScoreRangeOnSimplexBox), and score_scale = Σ_a max_t |A_a(t)|
  /// bounds every tuple's Σ_a |A_a(t)|, the scale of their rounding.
  std::vector<double> score_min;
  std::vector<double> score_max;
  double score_scale = 0;
};

/// The rounding guard of anything derived from the score ranges of a
/// FixingSummary with score scale `scale` over m attributes: it exceeds the
/// rounding error of a pair range, of the two score ranges bounding it, and
/// of a score computed near the box.
double ScoreRangeGuard(double scale, int m);

/// A box's fixing in the compact form a sub-box refines from: per group
/// (in `tuples` order) the two fixed counts and the number of free pairs,
/// and the free s of all groups back to back, each group's ascending. No
/// ranges are kept; a refinement recomputes the ones it needs.
struct FixingState {
  struct Group {
    int32_t fixed_one = 0;
    int32_t fixed_zero = 0;
    int32_t num_free = 0;
  };
  std::vector<Group> groups;
  std::vector<int32_t> free_s;

  /// The compact form of a full summary.
  static FixingState FromSummary(const FixingSummary& summary);
};

/// Computes δ_sr fixing for every group tuple r in `tuples` against all
/// other tuples s, over `box` ∩ simplex:
///   min w·d >= eps1  ⇒ δ = 1,   max w·d <= eps2  ⇒ δ = 0,   else free.
/// Fails with kInfeasible when box ∩ simplex is empty.
///
/// With `enable_fixing == false` every pair is reported as free (ranges are
/// still computed, so big-M stays tight) — the ablation knob for measuring
/// what Sec. V-B's pruning buys.
Result<FixingSummary> ComputeIndicatorFixing(const Dataset& data,
                                             const std::vector<int>& tuples,
                                             const WeightBox& box,
                                             double eps1, double eps2,
                                             bool enable_fixing = true);

/// The same fixing over `box`, refined from `parent`: the state of a box
/// that contains `box`, computed for the same tuples and thresholds. Over a
/// sub-box the exact minimum of w·d can only rise and the maximum only
/// fall, so a pair fixed over the parent stays fixed: the counts carry over
/// and only the parent's free pairs have their ranges recomputed. Fails
/// with kInfeasible when box ∩ simplex is empty.
Result<FixingState> RefineIndicatorFixing(const Dataset& data,
                                          const std::vector<int>& tuples,
                                          const FixingState& parent,
                                          const WeightBox& box, double eps1,
                                          double eps2);

}  // namespace rankhow

#endif  // RANKHOW_CORE_INDICATOR_FIXING_H_
