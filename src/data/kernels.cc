#include "data/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "math/simplex_box.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace rankhow {
namespace kernels {

namespace {

/// Runs fn(begin, end) over [0, n): serially when no pool is given (or the
/// range is below `min_parallel`), otherwise as one contiguous chunk per
/// pool worker, chunk sizes rounded up to `align`. Chunks are disjoint, so
/// workers never write the same output element, and per-tuple results do
/// not depend on the chunking.
template <typename Fn>
void ParallelChunks(ThreadPool* pool, int n, int min_parallel, int align,
                    Fn&& fn) {
  if (pool == nullptr || pool->size() <= 1 || n < min_parallel) {
    if (n > 0) fn(0, n);
    return;
  }
  int chunk = (n + pool->size() - 1) / pool->size();
  chunk = (chunk + align - 1) / align * align;
  TaskGroup group(pool);
  for (int begin = 0; begin < n; begin += chunk) {
    const int end = std::min(n, begin + chunk);
    group.Spawn([&fn, begin, end] { fn(begin, end); });
  }
  group.Wait();
}

int CeilLog2(int n) {
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  return bits;
}

}  // namespace

// BatchScores and CountScoresAbove run in every weight evaluation
// (presolve, spatial incumbents, Sym-GD cells). Their entry points sit on a
// cache line so where their inner loops fall relative to 64-byte
// boundaries does not depend on the size of unrelated code linked before
// them: entered 16 bytes past a boundary, perfbench's cold_spatial ran
// about 15 % slower on a 4-core x86-64 Xeon VM.
__attribute__((aligned(64))) void BatchScores(
    const Dataset& data, const std::vector<double>& weights, double* out,
    ThreadPool* pool) {
  RH_DCHECK(static_cast<int>(weights.size()) == data.num_attributes());
  const int n = data.num_tuples();
  const int m = data.num_attributes();
  ParallelChunks(pool, n, kParallelMinTuples, kBlockTuples,
                 [&](int begin, int end) {
    std::fill(out + begin, out + end, 0.0);
    for (int b = begin; b < end; b += kBlockTuples) {
      const int e = std::min(end, b + kBlockTuples);
      for (int a = 0; a < m; ++a) {
        const double wa = weights[a];
        if (wa == 0.0) continue;
        const double* col = data.column_data(a);
        for (int t = b; t < e; ++t) out[t] += wa * col[t];
      }
    }
  });
}

void GatherScores(const Dataset& data, const std::vector<double>& weights,
                  const int* tuples, int count, double* out) {
  RH_DCHECK(static_cast<int>(weights.size()) == data.num_attributes());
  std::fill(out, out + count, 0.0);
  for (int a = 0; a < data.num_attributes(); ++a) {
    const double wa = weights[a];
    if (wa == 0.0) continue;
    const double* col = data.column_data(a);
    for (int i = 0; i < count; ++i) out[i] += wa * col[tuples[i]];
  }
}

void ScoreRangeOnSimplexBox(const Dataset& data, const WeightBox& box,
                            double* lo, double* hi) {
  const int n = data.num_tuples();
  const int m = data.num_attributes();
  RH_DCHECK(box.dim() == m);
  static thread_local std::vector<double> x;
  x.resize(m);
  for (int t = 0; t < n; ++t) {
    for (int a = 0; a < m; ++a) x[a] = data.column_data(a)[t];
    // The box meets the simplex, so the range exists.
    const DotRange range = *DotRangeOnSimplexBox(x, box);
    lo[t] = range.min;
    hi[t] = range.max;
  }
}

void BatchScoresWithErrorBound(const Dataset& data,
                               const std::vector<double>& weights,
                               double* scores, double* err,
                               ThreadPool* pool) {
  RH_DCHECK(static_cast<int>(weights.size()) == data.num_attributes());
  const int n = data.num_tuples();
  const int m = data.num_attributes();
  const double scale = (m + 3) * std::ldexp(1.0, -53);
  ParallelChunks(pool, n, kParallelMinTuples, kBlockTuples,
                 [&](int begin, int end) {
    std::fill(scores + begin, scores + end, 0.0);
    std::fill(err + begin, err + end, 0.0);
    for (int b = begin; b < end; b += kBlockTuples) {
      const int e = std::min(end, b + kBlockTuples);
      for (int a = 0; a < m; ++a) {
        const double wa = weights[a];
        if (wa == 0.0) continue;
        const double* col = data.column_data(a);
        for (int t = b; t < e; ++t) {
          const double term = wa * col[t];
          scores[t] += term;
          err[t] += std::abs(term);
        }
      }
      for (int t = b; t < e; ++t) err[t] *= scale;
    }
  });
}

void DiffRangeAgainst(const Dataset& data, int pivot, double* lo, double* hi,
                      ThreadPool* pool) {
  const int n = data.num_tuples();
  const int m = data.num_attributes();
  RH_DCHECK(pivot >= 0 && pivot < n);
  if (m == 0) return;
  ParallelChunks(pool, n, kParallelMinTuples, kBlockTuples,
                 [&](int begin, int end) {
    for (int b = begin; b < end; b += kBlockTuples) {
      const int e = std::min(end, b + kBlockTuples);
      {
        const double* col = data.column_data(0);
        const double pv = col[pivot];
        for (int t = b; t < e; ++t) {
          const double d = col[t] - pv;
          lo[t] = d;
          hi[t] = d;
        }
      }
      for (int a = 1; a < m; ++a) {
        const double* col = data.column_data(a);
        const double pv = col[pivot];
        for (int t = b; t < e; ++t) {
          const double d = col[t] - pv;
          lo[t] = std::min(lo[t], d);
          hi[t] = std::max(hi[t], d);
        }
      }
    }
  });
}

__attribute__((aligned(64))) void CountScoresAbove(
    const double* scores, int n, const double* thresholds, int k,
    CountAboveScratch* scratch, int* counts) {
  if (k == 0) return;
  std::vector<int>& order = scratch->order;
  order.resize(k);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [thresholds](int a, int b) {
    return thresholds[a] < thresholds[b];
  });
  std::vector<double>& sorted = scratch->sorted;
  sorted.resize(k);
  for (int j = 0; j < k; ++j) sorted[j] = thresholds[order[j]];

  // slots[j] = #{s : exactly j thresholds lie strictly below scores[s]}.
  // A score beats sorted[j] iff its slot exceeds j. Slot 0 (beats nothing)
  // needs no tally, and it is where most scores land when the thresholds
  // sit at the top of the ranking, so one well-predicted compare skips it.
  std::vector<int>& slots = scratch->slots;
  slots.assign(k + 1, 0);
  const double* first = sorted.data();
  const double lowest = first[0];
  for (int s = 0; s < n; ++s) {
    const double x = scores[s];
    if (!(x > lowest)) continue;
    // Branch-free lower_bound: the slot always lies in
    // [base − first, base − first + len], and len halves each step.
    const double* base = first;
    int len = k;
    while (len > 1) {
      const int half = len / 2;
      base = base[half] < x ? base + half : base;
      len -= half;
    }
    ++slots[(base - first) + (*base < x)];
  }
  int beating = 0;
  for (int j = k - 1; j >= 0; --j) {
    beating += slots[j + 1];
    counts[order[j]] = beating;
  }
}

void FusedExactRankPositions(const Dataset& data,
                             const std::vector<double>& weights,
                             const std::vector<int>& tuples, double tie_eps,
                             const ExactSignFn& exact_sign,
                             ExactRankScratch* scratch,
                             std::vector<int>* positions_out,
                             long* exact_comparisons, long* total_comparisons,
                             ThreadPool* pool) {
  const int n = data.num_tuples();
  const int k = static_cast<int>(tuples.size());
  positions_out->resize(k);
  scratch->scores.resize(n);
  scratch->err.resize(n);
  double* scores = scratch->scores.data();
  double* err = scratch->err.data();
  BatchScoresWithErrorBound(data, weights, scores, err, pool);

  std::atomic<long> exact_used{0};

  // One pivot: the branch-free blocked scan. Per pair (t, pivot) this is
  // literally the scalar verifier's decision — x = f(t) − f(r) − ε against
  // the certified band err[t] + err[r]; blocks that contain uncertain pairs
  // are rescanned to resolve them exactly.
  auto linear_pivot = [&](int r) {
    // x must be the scalar verifier's exact expression
    // fl(fl(f(t) − f(r)) − ε): the two subtractions round differently from
    // fl(f(t) − (f(r)+ε)), and the equivalence tests assert bit-identical
    // exact-fallback counts against the scalar loop.
    const double score_r = scores[r];
    const double err_r = err[r];
    int beats = 0;
    long exact = 0;
    for (int b = 0; b < n; b += kBlockTuples) {
      const int e = std::min(n, b + kBlockTuples);
      int block_beats = 0;
      int block_uncertain = 0;
      for (int t = b; t < e; ++t) {
        const double x = (scores[t] - score_r) - tie_eps;
        const double band = err[t] + err_r;
        block_beats += static_cast<int>(x > band);
        block_uncertain +=
            static_cast<int>(x <= band) & static_cast<int>(x >= -band);
      }
      beats += block_beats;
      if (block_uncertain > 0) {
        for (int t = b; t < e; ++t) {
          if (t == r) continue;
          const double x = (scores[t] - score_r) - tie_eps;
          const double band = err[t] + err_r;
          if (x <= band && x >= -band) {
            ++exact;
            if (exact_sign(t, r) > 0) ++beats;
          }
        }
      }
    }
    // The pivot itself never lands in the branch-free beats count
    // (x = −ε <= band), so only its possible uncertain hit was excluded
    // above; nothing to subtract.
    exact_used.fetch_add(exact, std::memory_order_relaxed);
    return beats;
  };

  // Many pivots: sort tuples by score once, then each pivot's certain
  // regions collapse to two binary searches and only the conservative
  // uncertainty window — entries whose decision value x lands within
  // ±(err_r + emax) — is scanned with the per-pair scalar decision.
  // x = fl(fl(score − f(r)) − ε) is monotone in score (round-to-nearest is
  // monotone), so partition_point applies directly to the decision value;
  // outside the window |x| > err_r + emax >= band, meaning the scalar test
  // was already certain there and the exact-fallback set is unchanged.
  const bool use_sorted = n > 0 && k >= 4 * std::max(1, CeilLog2(n));
  std::vector<ExactRankEntry>& sorted = scratch->sorted;
  double emax = 0;
  if (use_sorted) {
    sorted.resize(n);
    for (int t = 0; t < n; ++t) {
      sorted[t] = ExactRankEntry{scores[t], err[t], t};
      emax = std::max(emax, err[t]);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const ExactRankEntry& a, const ExactRankEntry& b) {
                return a.score < b.score;
              });
  }
  auto sorted_pivot = [&](int r) {
    const double score_r = scores[r];
    const double err_r = err[r];
    const double pad = err_r + emax;
    const auto decide = [score_r, tie_eps](double score) {
      return (score - score_r) - tie_eps;
    };
    auto lo = std::partition_point(
        sorted.begin(), sorted.end(),
        [&](const ExactRankEntry& entry) { return decide(entry.score) < -pad; });
    auto hi = std::partition_point(lo, sorted.end(), [&](const ExactRankEntry& entry) {
      return !(decide(entry.score) > pad);
    });
    int beats = static_cast<int>(sorted.end() - hi);
    long exact = 0;
    for (auto it = lo; it != hi; ++it) {
      if (it->id == r) continue;
      const double x = decide(it->score);
      const double band = it->err + err_r;
      if (x > band) {
        ++beats;
      } else if (x < -band) {
        // certainly does not beat
      } else {
        ++exact;
        if (exact_sign(it->id, r) > 0) ++beats;
      }
    }
    exact_used.fetch_add(exact, std::memory_order_relaxed);
    return beats;
  };

  int* positions = positions_out->data();
  const long pair_work = static_cast<long>(n) * std::max(k, 1);
  ParallelChunks(pool, k, pair_work >= kParallelMinTuples ? 1 : k + 1,
                 /*align=*/1, [&](int begin, int end) {
                   for (int i = begin; i < end; ++i) {
                     const int r = tuples[i];
                     const int beats =
                         use_sorted ? sorted_pivot(r) : linear_pivot(r);
                     positions[i] = beats + 1;
                   }
                 });

  if (exact_comparisons != nullptr) {
    *exact_comparisons = exact_used.load(std::memory_order_relaxed);
  }
  if (total_comparisons != nullptr) {
    *total_comparisons = static_cast<long>(k) * std::max(0, n - 1);
  }
}

}  // namespace kernels
}  // namespace rankhow
