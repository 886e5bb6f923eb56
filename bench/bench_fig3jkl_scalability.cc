// Figures 3j/3k/3l: SYM-GD scalability on large synthetic data. One panel
// per distribution (uniform / correlated / anti-correlated); each dataset is
// ranked by the non-linear function sum(A_i^3); k varies in {5,10,15,20,25};
// SYM-GD runs with cell size 0.01 from the ordinal-regression seed.
//
// Paper settings: 1M tuples, m = 5, eps1 = 1e-5; error stays below ~1.5 per
// tuple and each run finishes within the hour. We default to 100k tuples
// (laptop scale; use --n=1000000 for the paper's size) — the shape (low
// error, time growing mildly with k, correlated easiest) is preserved.
//
// With --compare=1 (default) every configuration also runs with the legacy
// cold-start node LPs, and the table reports LP iterations for both engines
// (BnbStats::lp_iterations: iterations of the node LP solves that returned
// a solution) plus the cold/warm ratio — the acceptance metric for the
// warm-started incremental LP subsystem (DESIGN.md "Incremental LP
// architecture"). Pivot counts are zero for configurations the auto
// strategy routes to the spatial search with no general P rows (no LP runs
// at all there).
//
// A second section measures the *parallel search engine*: the n=10000
// exact solve (auto strategy) at 1/2/4/8 worker threads, asserting the
// proven objective is thread-count invariant and recording wall-clock
// speedups to BENCH_parallel_scaling.json (the acceptance artifact for the
// thread-pooled branch-and-bound; meaningful speedups need >= 8 hardware
// threads — the file records hardware_concurrency so readers can tell).
//
// Flags: --n, --m, --seed, --datasets (replicas per distribution; the paper
// averages 3), --budget, --compare, --table, --scaling, --scaling-n,
// --scaling-budget, --threads-max.

#include <cstdio>
#include <thread>

#include "bench/harness_include.h"
#include "data/kernels.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace rankhow;
using namespace rankhow::bench;

namespace {

/// One thread-count measurement of the exact solve.
struct ScalingRun {
  int threads = 0;
  double seconds = 0;
  long error = -1;
  long bound = -1;
  bool proven = false;
  int64_t nodes = 0;
};

/// The n=10^6 synthetic point the batched-kernel layer exists for: generate
/// a million-tuple dataset, score it, and run the exact fused verification
/// end-to-end. Returns the JSON fragment recorded under
/// "million_tuple_kernel_point" in BENCH_parallel_scaling.json.
struct KernelPoint {
  int n = 0;
  double generate_seconds = 0;
  double batch_scores_seconds = 0;
  double fused_verify_seconds = 0;
  long exact_comparisons = 0;
  long total_comparisons = 0;
  bool verified = false;
};

KernelPoint RunMillionTupleKernelPoint(int kernel_n, int m, uint64_t seed) {
  std::cout << "\n=== Million-tuple kernel point: n=" << kernel_n << " ===\n";
  KernelPoint point;
  point.n = kernel_n;

  WallTimer gen_timer;
  SyntheticSpec spec;
  spec.num_tuples = kernel_n;
  spec.num_attributes = m;
  spec.distribution = SyntheticDistribution::kUniform;
  spec.seed = seed;
  Dataset data = GenerateSynthetic(spec);
  Ranking given = PowerSumRanking(data, 3, 100);
  point.generate_seconds = gen_timer.ElapsedSeconds();

  std::vector<double> w(m, 1.0 / m);
  std::vector<double> scores(kernel_n);
  WallTimer score_timer;
  kernels::BatchScores(data, w, scores.data());
  point.batch_scores_seconds = score_timer.ElapsedSeconds();

  WallTimer verify_timer;
  std::vector<int> positions = ExactScoreRankPositionsOf(
      data, w, given.ranked_tuples(), SyntheticEps().tie_eps,
      &point.exact_comparisons, &point.total_comparisons);
  point.fused_verify_seconds = verify_timer.ElapsedSeconds();
  point.verified = static_cast<int>(positions.size()) == given.k();

  std::cout << "  generate " << FormatDouble(point.generate_seconds, 2)
            << "s, batch-scores " << FormatDouble(point.batch_scores_seconds, 4)
            << "s, fused exact verification of k=" << given.k() << " pivots "
            << FormatDouble(point.fused_verify_seconds, 3) << "s ("
            << point.exact_comparisons << "/" << point.total_comparisons
            << " comparisons needed exact arithmetic)\n";
  return point;
}

int RunParallelScaling(int scaling_n, int m, uint64_t seed,
                       double per_solve_budget, int threads_max,
                       int kernel_n) {
  std::cout << "\n=== Parallel scaling: exact solve at n=" << scaling_n
            << " (threads 1.." << threads_max << ") ===\n";
  SyntheticSpec spec;
  spec.num_tuples = scaling_n;
  spec.num_attributes = m;
  spec.distribution = SyntheticDistribution::kUniform;
  spec.seed = seed;
  Dataset data = GenerateSynthetic(spec);
  Ranking given = PowerSumRanking(data, 3, 10);
  EpsilonConfig eps = SyntheticEps();

  std::vector<ScalingRun> runs;
  TablePrinter table({"threads", "seconds", "error", "bound", "proven",
                      "nodes", "speedup"});
  for (int threads = 1; threads <= threads_max; threads *= 2) {
    RankHowOptions options;
    options.eps = eps;
    options.time_limit_seconds = per_solve_budget;
    options.num_threads = threads;
    RankHow solver(data, given, options);
    auto result = solver.Solve();
    ScalingRun run;
    run.threads = threads;
    if (result.ok()) {
      run.seconds = result->seconds;
      run.error = result->error;
      run.bound = result->bound;
      run.proven = result->proven_optimal;
      run.nodes = result->stats.nodes_explored;
    } else {
      std::cout << "  threads=" << threads
                << " FAILED: " << result.status().ToString() << "\n";
    }
    double speedup =
        !runs.empty() && runs.front().seconds > 0 && run.seconds > 0
            ? runs.front().seconds / run.seconds
            : 1.0;
    table.AddRow({std::to_string(threads), FormatDouble(run.seconds, 2),
                  std::to_string(run.error), std::to_string(run.bound),
                  run.proven ? "yes" : "no",
                  std::to_string(static_cast<long>(run.nodes)),
                  FormatDouble(speedup, 2)});
    std::cout << "  threads=" << threads << ": "
              << FormatDouble(run.seconds, 2) << "s, error=" << run.error
              << (run.proven ? " (proven)" : " (budget-limited)")
              << ", speedup " << FormatDouble(speedup, 2) << "x\n";
    runs.push_back(run);
  }
  std::cout << table.ToText();

  // Cross-thread-count invariant: every *proven* run must agree.
  long proven_error = -1;
  bool consistent = true;
  for (const ScalingRun& run : runs) {
    if (!run.proven) continue;
    if (proven_error < 0) {
      proven_error = run.error;
    } else if (run.error != proven_error) {
      consistent = false;
    }
  }
  if (!consistent) {
    std::cout << "ERROR: proven objectives disagree across thread counts\n";
  }

  KernelPoint kernel_point;
  if (kernel_n > 0) {
    kernel_point = RunMillionTupleKernelPoint(kernel_n, m, seed);
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::FILE* f = std::fopen("BENCH_parallel_scaling.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "failed to write BENCH_parallel_scaling.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"parallel_scaling\",\n");
  int max_threads = 1;
  for (const ScalingRun& run : runs) {
    max_threads = std::max(max_threads, run.threads);
  }
  WriteBenchMetadataJson(f, max_threads, BenchTimestampUtc());
  std::fprintf(f,
               "  \"workload\": \"exact solve, uniform synthetic, "
               "ranking sum(A^3), k=10\",\n"
               "  \"n\": %d,\n  \"m\": %d,\n  \"seed\": %llu,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"objectives_consistent\": %s,\n  \"runs\": [\n",
               scaling_n, m, static_cast<unsigned long long>(seed), hw,
               consistent ? "true" : "false");
  for (size_t i = 0; i < runs.size(); ++i) {
    const ScalingRun& run = runs[i];
    double speedup = runs.front().seconds > 0 && run.seconds > 0
                         ? runs.front().seconds / run.seconds
                         : 1.0;
    std::fprintf(f,
                 "    {\"threads\": %d, \"seconds\": %.4f, \"error\": %ld, "
                 "\"bound\": %ld, \"proven\": %s, \"nodes\": %lld, "
                 "\"speedup_vs_1\": %.3f}%s\n",
                 run.threads, run.seconds, run.error, run.bound,
                 run.proven ? "true" : "false",
                 static_cast<long long>(run.nodes), speedup,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]");
  if (kernel_point.n > 0) {
    std::fprintf(
        f,
        ",\n  \"million_tuple_kernel_point\": {\"n\": %d, "
        "\"generate_seconds\": %.4f, \"batch_scores_seconds\": %.6f, "
        "\"fused_verify_seconds\": %.4f, \"exact_comparisons\": %ld, "
        "\"total_comparisons\": %ld, \"verified\": %s}",
        kernel_point.n, kernel_point.generate_seconds,
        kernel_point.batch_scores_seconds, kernel_point.fused_verify_seconds,
        kernel_point.exact_comparisons, kernel_point.total_comparisons,
        kernel_point.verified ? "true" : "false");
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::cout << "(written to BENCH_parallel_scaling.json; hardware threads: "
            << hw << ")\n";
  return consistent ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  int n = static_cast<int>(flags.GetInt("n", 10000,
                                        "tuples (paper: 1000000)"));
  int m = static_cast<int>(flags.GetInt("m", 5, "attributes"));
  int replicas = static_cast<int>(flags.GetInt("datasets", 1,
                                               "datasets per distribution"));
  uint64_t seed = flags.GetInt("seed", 31, "generation seed");
  double budget = flags.GetDouble("budget", 20,
                                  "SYM-GD budget per run (s); paper <1h");
  bool compare = flags.GetInt("compare", 1,
                              "also run cold-start node LPs and report "
                              "the pivot ratio") != 0;
  bool run_table = flags.GetInt("table", 1,
                                "run the Fig 3j/3k/3l SYM-GD table") != 0;
  bool run_scaling = flags.GetInt("scaling", 1,
                                  "run the parallel-scaling section") != 0;
  int scaling_n = static_cast<int>(flags.GetInt(
      "scaling-n", 10000, "tuples for the parallel-scaling exact solve"));
  double scaling_budget = flags.GetDouble(
      "scaling-budget", 120, "per-thread-count solve budget (s)");
  int threads_max = static_cast<int>(flags.GetInt(
      "threads-max", 8, "largest thread count measured (doubling from 1)"));
  int kernel_n = static_cast<int>(flags.GetInt(
      "kernel-n", 1000000,
      "tuples for the batched-kernel point recorded with --scaling "
      "(0 disables)"));
  if (!flags.Finish()) return 0;

  if (!run_table) {
    return run_scaling ? RunParallelScaling(scaling_n, m, seed,
                                            scaling_budget, threads_max,
                                            kernel_n)
                       : 0;
  }

  std::cout << "=== Fig 3j/3k/3l: Sym-GD scalability (n=" << n
            << ", ranking sum(A^3)) ===\n";
  EpsilonConfig eps = SyntheticEps();

  TablePrinter table({"distribution", "k", "error_per_tuple", "seconds",
                      "cells", "warm_pivots", "cold_pivots", "pivot_ratio"});
  long total_warm_pivots = 0;
  long total_cold_pivots = 0;
  double total_warm_secs = 0;
  double total_cold_secs = 0;
  for (auto dist : {SyntheticDistribution::kUniform,
                    SyntheticDistribution::kCorrelated,
                    SyntheticDistribution::kAntiCorrelated}) {
    for (int k : {5, 10, 15, 20, 25}) {
      double error_sum = 0;
      double time_sum = 0;
      long cells = 0;
      long warm_pivots = 0;
      long cold_pivots = 0;
      int ok_count = 0;
      bool have_cold = false;
      for (int rep = 0; rep < replicas; ++rep) {
        SyntheticSpec spec;
        spec.num_tuples = n;
        spec.num_attributes = m;
        spec.distribution = dist;
        spec.seed = seed + 1000 * rep;
        Dataset data = GenerateSynthetic(spec);
        Ranking given = PowerSumRanking(data, 3, k);
        SymGdResult raw;
        MethodRow row = RunSymGd(data, given, eps, /*cell=*/0.01,
                                 budget, /*adaptive=*/true, "Sym-GD",
                                 /*warm_lp=*/true, &raw);
        if (row.error >= 0) {
          error_sum += row.error / std::max(1, given.k());
          time_sum += row.seconds;
          cells += raw.iterations;
          warm_pivots += raw.total_lp_pivots;
          total_warm_secs += row.seconds;
          ++ok_count;
        }
        if (compare) {
          SymGdResult cold_raw;
          MethodRow cold_row = RunSymGd(data, given, eps, /*cell=*/0.01,
                                        budget, /*adaptive=*/true,
                                        "Sym-GD-cold", /*warm_lp=*/false,
                                        &cold_raw);
          if (cold_row.error >= 0) {
            cold_pivots += cold_raw.total_lp_pivots;
            total_cold_secs += cold_row.seconds;
            have_cold = true;
          }
        }
      }
      if (ok_count == 0) {
        table.AddRow({SyntheticDistributionName(dist), std::to_string(k),
                      "fail", "-", "-", "-", "-", "-"});
        continue;
      }
      total_warm_pivots += warm_pivots;
      total_cold_pivots += cold_pivots;
      std::string ratio =
          have_cold && warm_pivots > 0
              ? FormatDouble(static_cast<double>(cold_pivots) / warm_pivots,
                             2)
              : "-";
      table.AddRow({SyntheticDistributionName(dist), std::to_string(k),
                    FormatDouble(error_sum / ok_count, 4),
                    FormatDouble(time_sum / ok_count, 2),
                    std::to_string(cells), std::to_string(warm_pivots),
                    have_cold ? std::to_string(cold_pivots) : "-", ratio});
      std::cout << "  " << SyntheticDistributionName(dist) << " k=" << k
                << ": " << FormatDouble(error_sum / ok_count, 3)
                << "/tuple in " << FormatDouble(time_sum / ok_count, 1)
                << "s, " << warm_pivots << " warm pivots"
                << (have_cold
                        ? " vs " + std::to_string(cold_pivots) + " cold"
                        : "")
                << "\n";
    }
  }

  Emit("fig3jkl_scalability", table);
  if (compare && total_warm_pivots > 0) {
    std::cout << "Warm-start totals: " << total_warm_pivots
              << " pivots (" << FormatDouble(total_warm_secs, 1)
              << "s) vs cold " << total_cold_pivots << " pivots ("
              << FormatDouble(total_cold_secs, 1) << "s) -> pivot ratio "
              << FormatDouble(static_cast<double>(total_cold_pivots) /
                                  total_warm_pivots,
                              2)
              << "x\n";
  }
  std::cout << "Paper shape: error <= ~1.5 per tuple across k and "
               "distributions; runtime grows mildly with k and stays within "
               "budget.\n";
  if (run_scaling) {
    return RunParallelScaling(scaling_n, m, seed, scaling_budget,
                              threads_max, kernel_n);
  }
  return 0;
}
