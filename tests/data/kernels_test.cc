// Kernel-vs-scalar equivalence for the batched scoring layer (data/kernels.h).
// The kernels' contract is not "close": scores must be BIT-identical to the
// scalar per-tuple loops (same per-tuple accumulation order over attributes),
// rank positions and dominance verdicts must match exactly — including at
// block boundaries and for ties sitting right at tie_eps — and the parallel
// path must produce the same bits at any worker count (1/2/8; the tsan label
// on data_tests races this under the sanitizer). The rank-counting kernel
// must equal a naive count on tie-heavy grids, and the objectives built on
// it the sort-based definition it replaced. Gathered scores must equal
// BatchScores' at the same indices, and per-tuple score ranges
// DotRangeOnSimplexBox's, bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/kernels.h"
#include "math/simplex_box.h"
#include "ranking/objective.h"
#include "ranking/ranking.h"
#include "ranking/score_ranking.h"
#include "ranking/verifier.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace rankhow {
namespace {

/// Random dataset with deliberate tie structure: blocks of duplicated rows
/// (score difference exactly 0) and, when the weight vector is known,
/// rows nudged on one attribute by tie_eps / w[a] — putting the score
/// difference AT the tie tolerance up to rounding, i.e. inside the
/// certified uncertainty band, so the fused kernel's exact-fallback path is
/// exercised and not just the certain fast path.
Dataset TieHeavyDataset(int n, int m, uint64_t seed, double tie_eps,
                        const std::vector<double>* w = nullptr) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int a = 0; a < m; ++a) names.push_back("A" + std::to_string(a));
  Dataset d(names, n);
  for (int t = 0; t < n; ++t) {
    if (t > 0 && rng.NextDouble() < 0.25) {
      int src = static_cast<int>(rng.Next() % t);
      for (int a = 0; a < m; ++a) d.set_value(t, a, d.value(src, a));
      if (rng.NextDouble() < 0.5) {
        int a = static_cast<int>(rng.Next() % m);
        const double unit = w != nullptr ? tie_eps / (*w)[a] : tie_eps;
        // Mostly dead-on ε (ambiguous under rounding); sometimes scaled off
        // it, creating certain pairs right next to the band.
        const double factor =
            rng.NextDouble() < 0.7 ? 1.0 : rng.NextUniform(0.0, 2.0);
        d.set_value(t, a, d.value(t, a) + unit * factor);
      }
    } else {
      for (int a = 0; a < m; ++a) d.set_value(t, a, rng.NextDouble());
    }
  }
  return d;
}

std::vector<double> RandomSimplexWeights(int m, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(m);
  double sum = 0;
  for (double& v : w) {
    v = rng.NextDouble();
    sum += v;
  }
  for (double& v : w) v /= sum;
  return w;
}

/// The pre-kernel scalar reference: per-tuple attribute-order accumulation
/// (exactly Dataset::ScoreOf) with the certified (m+3)·u·Σ|term| bound.
void ScalarScoresWithErr(const Dataset& data, const std::vector<double>& w,
                         std::vector<double>* scores,
                         std::vector<double>* err) {
  const int n = data.num_tuples();
  const int m = data.num_attributes();
  const double u = std::ldexp(1.0, -53);
  scores->assign(n, 0.0);
  err->assign(n, 0.0);
  for (int t = 0; t < n; ++t) {
    double sum = 0;
    double abs_sum = 0;
    for (int a = 0; a < m; ++a) {
      double term = w[a] * data.value(t, a);
      sum += term;
      abs_sum += std::abs(term);
    }
    (*scores)[t] = sum;
    (*err)[t] = (m + 3) * u * abs_sum;
  }
}

/// The pre-kernel scalar verifier loop, kept verbatim as the reference the
/// fused kernel must reproduce pair for pair.
std::vector<int> ScalarExactPositions(const Dataset& data,
                                      const std::vector<double>& w,
                                      const std::vector<int>& tuples,
                                      double tie_eps, long* exact_used_out,
                                      long* total_out) {
  std::vector<double> scores;
  std::vector<double> err;
  ScalarScoresWithErr(data, w, &scores, &err);
  const int n = data.num_tuples();
  long exact_used = 0;
  long total = 0;
  std::vector<int> positions;
  for (int r : tuples) {
    int beats = 0;
    for (int s = 0; s < n; ++s) {
      if (s == r) continue;
      ++total;
      double diff = scores[s] - scores[r];
      double band = err[s] + err[r];
      if (diff - tie_eps > band) {
        ++beats;
      } else if (diff - tie_eps < -band) {
        // certainly does not beat
      } else {
        ++exact_used;
        if (ExactScoreDiffSign(data, w, s, r, tie_eps) > 0) ++beats;
      }
    }
    positions.push_back(beats + 1);
  }
  if (exact_used_out != nullptr) *exact_used_out = exact_used;
  if (total_out != nullptr) *total_out = total;
  return positions;
}

// Sizes chosen to straddle the kernel block size (2048): partial single
// block, exact block, one element over, and a couple of full blocks plus
// spill.
const int kBoundarySizes[] = {1, 2, 7, 2047, 2048, 2049, 4097};

TEST(KernelsTest, BatchScoresBitIdenticalToScoreOf) {
  for (int n : kBoundarySizes) {
    Dataset d = TieHeavyDataset(n, 4, /*seed=*/n, /*tie_eps=*/1e-9);
    std::vector<double> w = RandomSimplexWeights(4, /*seed=*/n + 1);
    std::vector<double> batched(n);
    kernels::BatchScores(d, w, batched.data());
    for (int t = 0; t < n; ++t) {
      // EXPECT_EQ, not NEAR: the accumulation order per tuple is identical,
      // so the bits must be.
      EXPECT_EQ(batched[t], d.ScoreOf(t, w)) << "n=" << n << " t=" << t;
    }
  }
}

TEST(KernelsTest, BatchScoresSkipsZeroWeightColumnsWithoutChangingBits) {
  const int n = 4097;
  Dataset d = TieHeavyDataset(n, 5, /*seed=*/7, /*tie_eps=*/1e-9);
  std::vector<double> w = RandomSimplexWeights(5, /*seed=*/8);
  w[1] = 0.0;
  w[3] = 0.0;
  std::vector<double> batched(n);
  kernels::BatchScores(d, w, batched.data());
  for (int t = 0; t < n; ++t) {
    EXPECT_EQ(batched[t], d.ScoreOf(t, w)) << "t=" << t;
  }
}

TEST(KernelsTest, GatherScoresBitIdenticalToBatchScores) {
  for (int n : kBoundarySizes) {
    const int m = 5;
    Dataset d = TieHeavyDataset(n, m, /*seed=*/700 + n, /*tie_eps=*/1e-9);
    // Signed zeros in the columns, and a negated one: ±0.0 terms must add
    // exactly as they do in BatchScores.
    d.NegateColumn(4);
    for (int t = 0; t < n; t += 3) d.set_value(t, t % m, t % 2 ? -0.0 : 0.0);
    std::vector<double> w = RandomSimplexWeights(m, /*seed=*/n + 2);
    w[1] = 0.0;
    w[3] = -0.0;
    std::vector<double> full(n);
    kernels::BatchScores(d, w, full.data());
    // Every index once, shuffled so consecutive reads jump across blocks,
    // plus repeats.
    Rng rng(n);
    std::vector<int> idx(n);
    for (int t = 0; t < n; ++t) idx[t] = t;
    rng.Shuffle(&idx);
    for (int i = 0; i < 5; ++i) idx.push_back(static_cast<int>(rng.NextBelow(n)));
    const int count = static_cast<int>(idx.size());
    std::vector<double> got(count);
    kernels::GatherScores(d, w, idx.data(), count, got.data());
    std::vector<double> want(count);
    for (int i = 0; i < count; ++i) want[i] = full[idx[i]];
    EXPECT_EQ(std::memcmp(got.data(), want.data(), count * sizeof(double)), 0)
        << "n=" << n;
  }
}

TEST(KernelsTest, ScoreRangeOnSimplexBoxBitIdenticalToDotRange) {
  Rng rng(41);
  for (int m : {1, 2, 3, 5, 8, 17}) {
    for (int n : {1, 7, 2049}) {
      Dataset d = TieHeavyDataset(n, m, /*seed=*/900 + 10 * m + n,
                                  /*tie_eps=*/1e-9);
      // Raw scales far from [0, 1], a negated column, and signed zeros.
      for (int t = 0; t < n; ++t) {
        d.set_value(t, 0, d.value(t, 0) * 1e4);
        if (m > 1) d.set_value(t, m - 1, d.value(t, m - 1) * 1e-3);
      }
      if (m > 2) d.NegateColumn(1);
      for (int t = 0; t < n; t += 5) d.set_value(t, t % m, t % 2 ? -0.0 : 0.0);
      std::vector<WeightBox> boxes = {WeightBox::FullSimplex(m)};
      for (double width : {0.01, 0.1, 0.5}) {
        boxes.push_back(WeightBox::CellAround(rng.NextSimplexPoint(m), width));
      }
      for (const WeightBox& box : boxes) {
        if (!box.IntersectsSimplex()) continue;
        std::vector<double> lo(n);
        std::vector<double> hi(n);
        kernels::ScoreRangeOnSimplexBox(d, box, lo.data(), hi.data());
        std::vector<double> x(m);
        for (int t = 0; t < n; ++t) {
          for (int a = 0; a < m; ++a) x[a] = d.value(t, a);
          Result<DotRange> want = DotRangeOnSimplexBox(x, box);
          ASSERT_TRUE(want.ok()) << want.status().ToString();
          EXPECT_EQ(std::memcmp(&lo[t], &want->min, sizeof(double)), 0)
              << "m=" << m << " n=" << n << " t=" << t;
          EXPECT_EQ(std::memcmp(&hi[t], &want->max, sizeof(double)), 0)
              << "m=" << m << " n=" << n << " t=" << t;
        }
      }
    }
  }
}

TEST(KernelsTest, BatchScoresWithErrorBoundMatchesScalarReference) {
  for (int n : kBoundarySizes) {
    Dataset d = TieHeavyDataset(n, 3, /*seed=*/100 + n, /*tie_eps=*/1e-9);
    std::vector<double> w = RandomSimplexWeights(3, /*seed=*/n);
    std::vector<double> ref_scores;
    std::vector<double> ref_err;
    ScalarScoresWithErr(d, w, &ref_scores, &ref_err);
    std::vector<double> scores(n);
    std::vector<double> err(n);
    kernels::BatchScoresWithErrorBound(d, w, scores.data(), err.data());
    for (int t = 0; t < n; ++t) {
      EXPECT_EQ(scores[t], ref_scores[t]) << "n=" << n << " t=" << t;
      EXPECT_EQ(err[t], ref_err[t]) << "n=" << n << " t=" << t;
    }
  }
}

TEST(KernelsTest, DiffVectorIntoMatchesDiffVector) {
  Dataset d = TieHeavyDataset(64, 5, /*seed=*/3, /*tie_eps=*/1e-9);
  std::vector<double> buf(5);
  for (int s = 0; s < 64; s += 7) {
    for (int r = 0; r < 64; r += 11) {
      d.DiffVectorInto(s, r, buf.data());
      EXPECT_EQ(buf, d.DiffVector(s, r)) << "s=" << s << " r=" << r;
    }
  }
}

TEST(KernelsTest, DiffRangeAgainstMatchesScalarMinMax) {
  for (int n : kBoundarySizes) {
    const int m = 4;
    Dataset d = TieHeavyDataset(n, m, /*seed=*/300 + n, /*tie_eps=*/1e-9);
    const int pivot = n / 2;
    std::vector<double> lo(n);
    std::vector<double> hi(n);
    kernels::DiffRangeAgainst(d, pivot, lo.data(), hi.data());
    for (int s = 0; s < n; ++s) {
      double rlo = d.value(s, 0) - d.value(pivot, 0);
      double rhi = rlo;
      for (int a = 1; a < m; ++a) {
        double v = d.value(s, a) - d.value(pivot, a);
        rlo = std::min(rlo, v);
        rhi = std::max(rhi, v);
      }
      EXPECT_EQ(lo[s], rlo) << "n=" << n << " s=" << s;
      EXPECT_EQ(hi[s], rhi) << "n=" << n << " s=" << s;
    }
  }
}

TEST(KernelsTest, FusedExactRankPositionsMatchesScalarVerifierExactly) {
  // tie_eps = 0 makes every exact-duplicate pair ambiguous (x = 0 inside
  // the band); tie_eps = 1e-9 relies on the weight-aware nudges that park
  // score differences at ε up to rounding.
  for (double tie_eps : {0.0, 1e-9}) {
  for (int n : kBoundarySizes) {
    std::vector<double> w = RandomSimplexWeights(4, /*seed=*/n * 3 + 1);
    Dataset d = TieHeavyDataset(n, 4, /*seed=*/900 + n, tie_eps, &w);
    // Two pivot-set sizes: small k (linear path) and large k (sorted path).
    for (int k : {1, std::min(n, 3), n}) {
      std::vector<int> tuples;
      for (int i = 0; i < k; ++i) tuples.push_back((i * 13) % n);
      long ref_exact = 0;
      long ref_total = 0;
      std::vector<int> ref =
          ScalarExactPositions(d, w, tuples, tie_eps, &ref_exact, &ref_total);
      kernels::ExactRankScratch scratch;
      std::vector<int> got;
      long got_exact = 0;
      long got_total = 0;
      kernels::FusedExactRankPositions(
          d, w, tuples, tie_eps,
          [&](int s, int r) { return ExactScoreDiffSign(d, w, s, r, tie_eps); },
          &scratch, &got, &got_exact, &got_total);
      EXPECT_EQ(got, ref) << "n=" << n << " k=" << k;
      EXPECT_EQ(got_exact, ref_exact) << "n=" << n << " k=" << k;
      EXPECT_EQ(got_total, ref_total) << "n=" << n << " k=" << k;
      if (n >= 2047 && k == n) {
        EXPECT_GT(got_exact, 0)
            << "tie-heavy data must exercise the exact fallback (n=" << n
            << " k=" << k << " eps=" << tie_eps << ")";
      }
    }
  }
  }
}

TEST(KernelsTest, VerifierWrapperUsesTheFusedKernel) {
  const double tie_eps = 1e-9;
  Dataset d = TieHeavyDataset(2049, 3, /*seed=*/77, tie_eps);
  std::vector<double> w = RandomSimplexWeights(3, /*seed=*/78);
  std::vector<int> tuples = {0, 17, 2048, 1024, 33};
  long ref_exact = 0;
  long ref_total = 0;
  std::vector<int> ref =
      ScalarExactPositions(d, w, tuples, tie_eps, &ref_exact, &ref_total);
  long got_exact = 0;
  long got_total = 0;
  std::vector<int> got = ExactScoreRankPositionsOf(d, w, tuples, tie_eps,
                                                   &got_exact, &got_total);
  EXPECT_EQ(got, ref);
  EXPECT_EQ(got_exact, ref_exact);
  EXPECT_EQ(got_total, ref_total);
}

/// Tie-heavy scores on a grid of multiples of `step` (exact duplicates
/// everywhere), mixed with +0.0, -0.0 and subnormals of both signs.
std::vector<double> GridScores(int n, double step, uint64_t seed) {
  Rng rng(seed);
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> scores(n);
  for (double& score : scores) {
    switch (rng.NextBelow(8)) {
      case 0:
        score = 0.0;
        break;
      case 1:
        score = -0.0;
        break;
      case 2:
        score = tiny * static_cast<double>(rng.NextBelow(5)) *
                (rng.NextBelow(2) == 0 ? 1.0 : -1.0);
        break;
      default:
        score = step * (static_cast<double>(rng.NextBelow(41)) - 20.0);
        break;
    }
  }
  return scores;
}

/// Thresholds that mostly sit exactly on a score (the strict boundary),
/// else on ±0.0, a subnormal, or a grid point between or beyond the
/// scores. k > number of distinct values forces duplicates.
std::vector<double> GridThresholds(const std::vector<double>& scores, int k,
                                   double step, uint64_t seed) {
  Rng rng(seed);
  const int n = static_cast<int>(scores.size());
  std::vector<double> thresholds(k);
  for (double& threshold : thresholds) {
    switch (rng.NextBelow(6)) {
      case 0:
        threshold = rng.NextBelow(2) == 0 ? 0.0 : -0.0;
        break;
      case 1:
        threshold = std::numeric_limits<double>::denorm_min() *
                    (static_cast<double>(rng.NextBelow(5)) - 2.0);
        break;
      case 2:
        threshold = step * (static_cast<double>(rng.NextBelow(49)) - 24.5);
        break;
      default:
        threshold = n > 0 ? scores[rng.NextBelow(n)] : step;
        break;
    }
  }
  return thresholds;
}

TEST(KernelsTest, CountScoresAboveMatchesNaiveCount) {
  kernels::CountAboveScratch scratch;  // reused: stale state must not leak
  for (int n : {0, 1, 2047, 2048, 2049, 5000}) {
    const std::vector<double> scores = GridScores(n, 0.25, /*seed=*/n + 1);
    for (int k : {0, 1, 7, n, 3 * n}) {
      const std::vector<double> thresholds =
          GridThresholds(scores, k, 0.25, /*seed=*/n * 7 + k);
      std::vector<int> counts(k, -1);
      kernels::CountScoresAbove(scores.data(), n, thresholds.data(), k,
                                &scratch, counts.data());
      for (int i = 0; i < k; ++i) {
        int naive = 0;
        for (double score : scores) naive += score > thresholds[i] ? 1 : 0;
        ASSERT_EQ(counts[i], naive)
            << "n=" << n << " k=" << k << " i=" << i
            << " threshold=" << thresholds[i];
      }
    }
  }
}

/// The sort-based position the counting kernel replaced: a descending copy
/// of the scores, then ρ = 1 + the index of lower_bound(value + ε).
int SortedDescendingPosition(const std::vector<double>& sorted_desc,
                             double value, double tie_eps) {
  return static_cast<int>(std::lower_bound(sorted_desc.begin(),
                                           sorted_desc.end(), value + tie_eps,
                                           std::greater<double>()) -
                          sorted_desc.begin()) +
         1;
}

// With ε equal to the grid step, a tuple one step above another sits
// exactly on the strict boundary, which must not count as beating it.
TEST(KernelsTest, PositionObjectivesMatchTheSortedDefinition) {
  for (double step : {0.25, 0.1}) {
    for (int n : {1, 2049, 5000}) {
      const std::vector<double> grid = GridScores(n, step, /*seed=*/n + 3);
      Dataset data({"A0", "A1"}, n);
      for (int t = 0; t < n; ++t) {
        data.set_value(t, 0, grid[t]);
        data.set_value(t, 1, 1.0);
      }
      const std::vector<double> w = {1.0, 0.0};
      const std::vector<double> scores = data.Scores(w);
      // π ranks a random top 10 that disagrees with the scores.
      Rng rng(n + 5);
      std::vector<double> order_key(n);
      for (double& key : order_key) key = rng.NextDouble();
      const Ranking given = Ranking::FromScores(order_key, std::min(n, 10), 0);
      const RankingObjectiveSpec top_heavy =
          RankingObjectiveSpec::TopHeavy(given.k());

      std::vector<double> sorted_desc = scores;
      std::sort(sorted_desc.begin(), sorted_desc.end(),
                std::greater<double>());
      long position_error = 0;
      long weighted_error = 0;
      for (int t : given.ranked_tuples()) {
        const long diff = std::labs(
            static_cast<long>(
                SortedDescendingPosition(sorted_desc, scores[t], step)) -
            given.position(t));
        position_error += diff;
        weighted_error += top_heavy.PenaltyAt(given.position(t)) * diff;
      }
      EXPECT_EQ(PositionErrorFromScores(scores, given, step), position_error)
          << "step=" << step << " n=" << n;
      EXPECT_EQ(ObjectiveOf(data, given, w, step, RankingObjectiveSpec{}),
                position_error)
          << "step=" << step << " n=" << n;
      EXPECT_EQ(ObjectiveOf(data, given, w, step, top_heavy), weighted_error)
          << "step=" << step << " n=" << n;
    }
  }
}

// Parallel path: bit-identical results at every worker count. n is above
// kParallelMinTuples so the pool actually engages; the tsan label on
// data_tests runs this under the race detector.
TEST(KernelsTest, ParallelKernelsBitIdenticalAcrossWorkerCounts) {
  const int n = kernels::kParallelMinTuples + 4097;  // > threshold, odd spill
  const int m = 4;
  const double tie_eps = 1e-9;
  Dataset d = TieHeavyDataset(n, m, /*seed=*/42, tie_eps);
  std::vector<double> w = RandomSimplexWeights(m, /*seed=*/43);

  std::vector<double> serial_scores(n);
  std::vector<double> serial_err(n);
  kernels::BatchScoresWithErrorBound(d, w, serial_scores.data(),
                                     serial_err.data());
  std::vector<double> serial_lo(n);
  std::vector<double> serial_hi(n);
  kernels::DiffRangeAgainst(d, 5, serial_lo.data(), serial_hi.data());

  std::vector<int> tuples;
  for (int i = 0; i < 64; ++i) tuples.push_back((i * 511) % n);
  kernels::ExactRankScratch scratch;
  std::vector<int> serial_pos;
  long serial_exact = 0;
  auto exact_sign = [&](int s, int r) {
    return ExactScoreDiffSign(d, w, s, r, tie_eps);
  };
  kernels::FusedExactRankPositions(d, w, tuples, tie_eps, exact_sign, &scratch,
                                   &serial_pos, &serial_exact, nullptr);

  for (int workers : {1, 2, 8}) {
    ThreadPool pool(workers);
    std::vector<double> scores(n);
    std::vector<double> err(n);
    kernels::BatchScoresWithErrorBound(d, w, scores.data(), err.data(), &pool);
    EXPECT_EQ(std::memcmp(scores.data(), serial_scores.data(),
                          n * sizeof(double)),
              0)
        << "workers=" << workers;
    EXPECT_EQ(std::memcmp(err.data(), serial_err.data(), n * sizeof(double)),
              0)
        << "workers=" << workers;

    std::vector<double> lo(n);
    std::vector<double> hi(n);
    kernels::DiffRangeAgainst(d, 5, lo.data(), hi.data(), &pool);
    EXPECT_EQ(
        std::memcmp(lo.data(), serial_lo.data(), n * sizeof(double)), 0)
        << "workers=" << workers;
    EXPECT_EQ(
        std::memcmp(hi.data(), serial_hi.data(), n * sizeof(double)), 0)
        << "workers=" << workers;

    kernels::ExactRankScratch pscratch;
    std::vector<int> pos;
    long exact = 0;
    kernels::FusedExactRankPositions(d, w, tuples, tie_eps, exact_sign,
                                     &pscratch, &pos, &exact, nullptr, &pool);
    EXPECT_EQ(pos, serial_pos) << "workers=" << workers;
    EXPECT_EQ(exact, serial_exact) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace rankhow
