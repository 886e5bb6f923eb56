#ifndef RANKHOW_DATA_KERNELS_H_
#define RANKHOW_DATA_KERNELS_H_

/// \file kernels.h
/// Batched scoring kernels over the contiguous per-attribute columns of a
/// Dataset, and rank counting over the scores they produce — the
/// allocation-free hot-path layer under ranking verification, the
/// double-precision objective (presolve, incumbent revalidation, spatial
/// offers, the MILP primal heuristic, the SYM-GD cell sweeps), error-measure
/// evaluation and indicator fixing (see DESIGN.md "Dataset layout & kernel
/// contracts").
///
/// Design rules, shared by every kernel here:
///  * Caller-owned output buffers; no kernel allocates on the steady path
///    (scratch structs reuse their capacity across calls).
///  * Column-at-a-time blocked loops over Dataset::column_data(): each block
///    of kBlockTuples output elements stays in L1 while the m columns stream
///    through, and the inner loops are branch-free so the compiler can
///    auto-vectorize them (the xgboost flat-array + parallel-for idiom).
///  * Bit-identical to the scalar per-tuple loops: within one tuple the
///    floating-point accumulation order over attributes is exactly that of
///    Dataset::ScoreOf, independent of blocking and thread count (asserted
///    by tests/data/kernels_test.cc).
///  * Optional ThreadPool parallel-for over blocks: pass a pool and tuples
///    above kParallelMinTuples split into disjoint contiguous chunks (one
///    per worker); below the threshold the pool is ignored.
///  * GatherScores (a few selected tuples) and ScoreRangeOnSimplexBox (a
///    per-tuple sort of m coordinates) run serially and take no pool.

#include <cstdint>
#include <functional>
#include <vector>

#include "data/dataset.h"

namespace rankhow {

class ThreadPool;
struct WeightBox;

namespace kernels {

/// Output elements per block: 3 doubles of per-tuple state (scores + error
/// bounds + a diff bound) stay well inside L1 at this size.
inline constexpr int kBlockTuples = 2048;

/// Below this many tuples a ThreadPool argument is ignored — fork/join
/// overhead beats the scan.
inline constexpr int kParallelMinTuples = 1 << 15;

/// out[t] = Σ_a w[a]·A_a(t) for every tuple. Zero-weight columns are
/// skipped (never changes the result on finite data: partial sums are never
/// -0.0, so adding ±0.0 terms is the identity).
void BatchScores(const Dataset& data, const std::vector<double>& weights,
                 double* out, ThreadPool* pool = nullptr);

/// out[i] = Σ_a w[a]·A_a(tuples[i]) for i in [0, count): the scores of the
/// selected tuples only, each bit-identical to BatchScores' score of that
/// tuple (same attribute order, zero-weight columns skipped). The MILP
/// primal heuristic's screened evaluation (DESIGN.md "Screened cell fixing
/// and evaluation").
void GatherScores(const Dataset& data, const std::vector<double>& weights,
                  const int* tuples, int count, double* out);

/// Per-tuple range of the score over box ∩ simplex: lo[t] and hi[t] are the
/// min and max of w·A(t), as DotRangeOnSimplexBox computes them on the
/// tuple's attribute vector. The box must meet the simplex
/// (WeightBox::IntersectsSimplex). What screened indicator fixing bounds
/// every pair of a cell with.
void ScoreRangeOnSimplexBox(const Dataset& data, const WeightBox& box,
                            double* lo, double* hi);

/// Fused scores + certified forward error bound, the verifier's input:
/// err[t] = (m+3)·u·Σ_a |w[a]·A_a(t)| with unit roundoff u = 2^-53 (a score
/// difference then carries at most err[s] + err[r] of rounding error).
void BatchScoresWithErrorBound(const Dataset& data,
                               const std::vector<double>& weights,
                               double* scores, double* err,
                               ThreadPool* pool = nullptr);

/// Per-tuple range of the difference vector against a pivot:
/// lo[s] = min_a d_a(s,pivot), hi[s] = max_a d_a(s,pivot). Over the whole
/// weight simplex the range of w·d(s,pivot) is exactly [lo[s], hi[s]] — the
/// full-box indicator-fixing hot loop.
void DiffRangeAgainst(const Dataset& data, int pivot, double* lo, double* hi,
                      ThreadPool* pool = nullptr);

/// Reusable buffers for CountScoresAbove; capacity persists across calls so
/// the steady state allocates nothing.
struct CountAboveScratch {
  std::vector<int> order;
  std::vector<double> sorted;
  std::vector<int> slots;
};

/// counts[i] = #{s : scores[s] > thresholds[i]} for every i in [0, k):
/// exact integers, as a sort of the scores plus one lower_bound per
/// threshold would give, in O(n log k + k log k). The k thresholds are
/// sorted once; each score finds its slot among them with a branch-free
/// binary search, and suffix sums over the slot histogram give every count.
/// Duplicate thresholds get the same count and ±0.0 compare equal, exactly
/// as `>` does; n and k may be 0. Inputs must not be NaN.
void CountScoresAbove(const double* scores, int n, const double* thresholds,
                      int k, CountAboveScratch* scratch, int* counts);

/// Exact sign decision for a pair inside the floating-point uncertainty
/// band: must return the sign of f(s) − f(r) − tie_eps computed exactly
/// (the verifier injects its dyadic-rational comparator).
using ExactSignFn = std::function<int(int s, int r)>;

/// One tuple of the score-sorted view used by the windowed verification
/// path (many pivots amortize one sort into per-pivot binary searches).
struct ExactRankEntry {
  double score;
  double err;
  int id;
};

/// Reusable buffers for FusedExactRankPositions; capacity persists across
/// calls so the steady state allocates nothing.
struct ExactRankScratch {
  std::vector<double> scores;
  std::vector<double> err;
  std::vector<ExactRankEntry> sorted;
};

/// Fused score + exact rank-position kernel for verification: computes
/// ρ(r) = 1 + #{s : f(s) − f(r) > ε decided exactly} for each pivot in
/// `tuples`, writing into `positions_out` (resized to tuples.size()).
///
/// Per pivot the scan over s is a branch-free certified double pass —
/// beats / does-not-beat decided against the per-tuple error bounds — and
/// only pairs inside the uncertainty band fall back to `exact_sign`. The
/// decision per pair is literally the scalar verifier's, so positions and
/// the exact/total comparison counters match it exactly.
void FusedExactRankPositions(const Dataset& data,
                             const std::vector<double>& weights,
                             const std::vector<int>& tuples, double tie_eps,
                             const ExactSignFn& exact_sign,
                             ExactRankScratch* scratch,
                             std::vector<int>* positions_out,
                             long* exact_comparisons = nullptr,
                             long* total_comparisons = nullptr,
                             ThreadPool* pool = nullptr);

}  // namespace kernels
}  // namespace rankhow

#endif  // RANKHOW_DATA_KERNELS_H_
