// Determinism/equivalence suite for the parallel search engine: on
// randomized instances, num_threads ∈ {1, 2, 8} must prove the *same*
// optimum on both exact paths (the indicator MILP and the spatial
// subdivision) — thread count buys wall-clock, never changes the answer —
// budget and cancel stops must leave a sound bound, and the SYM-GD
// portfolio must never do worse than its own single ordinal-regression
// seed. Carries the ctest label `tsan`; see thread_pool_test.cc.

#include <atomic>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/opt_model_builder.h"
#include "core/rankhow.h"
#include "core/seeding.h"
#include "core/spatial_bnb.h"
#include "core/sym_gd.h"
#include "milp/branch_and_bound.h"
#include "util/random.h"

namespace rankhow {
namespace {

EpsilonConfig TestEps() {
  EpsilonConfig eps;
  eps.tie_eps = 5e-7;
  eps.eps1 = 1e-6;
  eps.eps2 = 0.0;
  return eps;
}

Ranking MustCreate(std::vector<int> positions) {
  auto r = Ranking::Create(std::move(positions));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *std::move(r);
}

Dataset RandomDataset(Rng& rng, int n, int m) {
  std::vector<std::string> names;
  for (int a = 0; a < m; ++a) names.push_back("A" + std::to_string(a));
  Dataset d(names, n);
  for (int t = 0; t < n; ++t) {
    for (int a = 0; a < m; ++a) d.set_value(t, a, rng.NextUniform(0, 1));
  }
  return d;
}

Ranking RandomRanking(Rng& rng, int n, int k) {
  std::vector<int> tuples(n);
  for (int t = 0; t < n; ++t) tuples[t] = t;
  rng.Shuffle(&tuples);
  std::vector<int> positions(n, kUnranked);
  for (int p = 0; p < k; ++p) positions[tuples[p]] = p + 1;
  return MustCreate(std::move(positions));
}

/// Solves one instance at every thread count and checks all runs prove the
/// same optimum. `pure_milp` turns off the true-error primal heuristic and
/// presolve: those inject incumbents under the ε-tie semantics, which can
/// legitimately *beat* the (ε₂, ε₁)-gap MILP optimum, and which of those
/// bonus incumbents gets discovered depends on the explored node set — a
/// schedule artifact, not an invariant. What IS invariant: the pure MILP
/// optimum, the spatial (true-semantics) optimum, and the sound band
/// between them (next test).
long CheckThreadCountInvariance(SolveStrategy strategy, uint64_t seed,
                                int n, int m, int k, bool pure_milp,
                                const std::vector<int>& thread_counts = {
                                    1, 2, 8}) {
  Rng rng(seed);
  Dataset data = RandomDataset(rng, n, m);
  Ranking given = RandomRanking(rng, n, k);

  long reference_error = -1;
  for (int threads : thread_counts) {
    RankHowOptions options;
    options.eps = TestEps();
    options.strategy = strategy;
    options.num_threads = threads;
    if (pure_milp) {
      options.use_primal_heuristic = false;
      options.use_presolve = false;
    }
    RankHow solver(data, given, options);
    auto result = solver.Solve();
    EXPECT_TRUE(result.ok())
        << SolveStrategyName(strategy) << " seed=" << seed
        << " threads=" << threads << ": " << result.status().ToString();
    if (!result.ok()) return -1;
    EXPECT_TRUE(result->proven_optimal)
        << SolveStrategyName(strategy) << " seed=" << seed
        << " threads=" << threads;
    EXPECT_EQ(result->bound, result->claimed_error);
    EXPECT_TRUE(result->verification.has_value());
    if (result->verification.has_value()) {
      EXPECT_TRUE(result->verification->consistent);
    }
    if (reference_error < 0) {
      reference_error = result->error;
    } else {
      EXPECT_EQ(result->error, reference_error)
          << SolveStrategyName(strategy) << " seed=" << seed
          << " threads=" << threads
          << ": parallel run proved a different optimum";
    }
  }
  return reference_error;
}

TEST(ParallelSearchTest, MilpProvenOptimumIsThreadCountInvariant) {
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    CheckThreadCountInvariance(SolveStrategy::kIndicatorMilp, seed,
                               /*n=*/12, /*m=*/3, /*k=*/6,
                               /*pure_milp=*/true);
  }
}

TEST(ParallelSearchTest, SpatialProvenOptimumIsThreadCountInvariant) {
  // The spatial search optimizes the true ε-tie objective directly, so its
  // proven optimum is invariant with every feature on.
  for (uint64_t seed : {21u, 22u, 23u, 24u}) {
    CheckThreadCountInvariance(SolveStrategy::kSpatial, seed,
                               /*n=*/14, /*m=*/3, /*k=*/7,
                               /*pure_milp=*/false);
  }
}

TEST(ParallelSearchTest, SatProvenOptimumIsThreadCountInvariant) {
  // The one strategy the original suite skipped: SAT binary search proves
  // the same (ε₂, ε₁)-gap optimum as the pure MILP, one feasibility MILP
  // per probe. Probes re-run whole search trees, so the instances stay
  // small and the thread sweep stops at 2 workers.
  for (uint64_t seed : {31u, 32u, 33u}) {
    CheckThreadCountInvariance(SolveStrategy::kSatBinarySearch, seed,
                               /*n=*/10, /*m=*/3, /*k=*/5,
                               /*pure_milp=*/true, /*thread_counts=*/{1, 2});
  }
}

TEST(ParallelSearchTest, MilpHeuristicIncumbentsStayInTheSoundBand) {
  // Full-featured MILP runs may return schedule-dependent bonus incumbents
  // (true-error candidates better than the gap-relaxation optimum), but
  // every one must land in [spatial true optimum, pure MILP optimum] — a
  // violation on either side means a lost or unsound incumbent install.
  for (uint64_t seed : {13u, 14u}) {
    Rng rng(seed);
    Dataset data = RandomDataset(rng, 12, 3);
    Ranking given = RandomRanking(rng, 12, 6);

    RankHowOptions pure;
    pure.eps = TestEps();
    pure.strategy = SolveStrategy::kIndicatorMilp;
    pure.use_primal_heuristic = false;
    pure.use_presolve = false;
    auto milp_opt = RankHow(data, given, pure).Solve();
    ASSERT_TRUE(milp_opt.ok()) << milp_opt.status().ToString();
    ASSERT_TRUE(milp_opt->proven_optimal);

    RankHowOptions spatial;
    spatial.eps = TestEps();
    spatial.strategy = SolveStrategy::kSpatial;
    auto true_opt = RankHow(data, given, spatial).Solve();
    ASSERT_TRUE(true_opt.ok()) << true_opt.status().ToString();
    ASSERT_TRUE(true_opt->proven_optimal);
    ASSERT_LE(true_opt->error, milp_opt->error)
        << "the ε-tie optimum can never exceed the gap-relaxation optimum";

    for (int threads : {1, 2, 8}) {
      RankHowOptions options;
      options.eps = TestEps();
      options.strategy = SolveStrategy::kIndicatorMilp;
      options.num_threads = threads;
      RankHow solver(data, given, options);
      auto result = solver.Solve();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(result->proven_optimal) << "threads=" << threads;
      EXPECT_GE(result->error, true_opt->error)
          << "seed=" << seed << " threads=" << threads
          << ": incumbent below the true optimum (unsound install)";
      EXPECT_LE(result->error, milp_opt->error)
          << "seed=" << seed << " threads=" << threads
          << ": worse than the MILP optimum despite a completed search "
             "(lost incumbent)";
    }
  }
}

TEST(ParallelSearchTest, MilpHonorsConstraintsAcrossThreadCounts) {
  // Side constraints exercise the incumbent-rejection paths under
  // concurrency. Pure MILP (no heuristic/presolve) so the optimum value
  // is the strict invariant — see CheckThreadCountInvariance.
  Rng rng(31);
  Dataset data = RandomDataset(rng, 10, 3);
  Ranking given = RandomRanking(rng, 10, 5);
  long reference_error = -1;
  for (int threads : {1, 2, 8}) {
    RankHowOptions options;
    options.eps = TestEps();
    options.strategy = SolveStrategy::kIndicatorMilp;
    options.num_threads = threads;
    options.use_primal_heuristic = false;
    options.use_presolve = false;
    RankHow solver(data, given, options);
    solver.problem().constraints.AddMinWeight(0, 0.2, "A0");
    solver.problem().constraints.AddMaxWeight(1, 0.6, "A1");
    auto result = solver.Solve();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->proven_optimal);
    EXPECT_GE(result->function.weights[0], 0.2 - 1e-6);
    EXPECT_LE(result->function.weights[1], 0.6 + 1e-6);
    if (reference_error < 0) {
      reference_error = result->error;
    } else {
      EXPECT_EQ(result->error, reference_error) << "threads=" << threads;
    }
  }
}

TEST(ParallelSearchTest, BudgetedParallelRunStaysSound) {
  // Under a node cap the parallel search may return an unproven incumbent;
  // its bound must still be a valid lower bound (i.e. <= the true optimum
  // proven by an unlimited run).
  Rng rng(41);
  Dataset data = RandomDataset(rng, 12, 3);
  Ranking given = RandomRanking(rng, 12, 6);
  RankHowOptions options;
  options.eps = TestEps();
  options.strategy = SolveStrategy::kIndicatorMilp;
  RankHow reference_solver(data, given, options);
  auto reference = reference_solver.Solve();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(reference->proven_optimal);

  options.num_threads = 4;
  options.max_nodes = 5;
  options.use_presolve = false;
  RankHow budgeted_solver(data, given, options);
  auto budgeted = budgeted_solver.Solve();
  if (!budgeted.ok()) {
    // A 5-node budget may legitimately end with no incumbent at all.
    EXPECT_EQ(budgeted.status().code(), StatusCode::kResourceExhausted);
    return;
  }
  EXPECT_LE(budgeted->bound, reference->error);
  EXPECT_GE(budgeted->error, reference->error);
  // Each worker checks the cap before it counts its node, so at most the
  // other three can slip past it.
  EXPECT_LE(budgeted->stats.nodes_explored, 5 + 3);
}

// The stop paths of the shared best-first worker loop, driven at the
// engine level: a box cap and a cancel flag set before the solve. Either
// run must end budget-limited — no incumbent at all (kResourceExhausted),
// or an unproven incumbent whose bound still lies at or below the optimum.
template <typename EngineResult>
void ExpectBudgetLimited(const EngineResult& result, double optimum,
                         const std::string& label) {
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << label << ": " << result.status().ToString();
    return;
  }
  EXPECT_FALSE(result->proven_optimal) << label;
  if constexpr (std::is_same_v<EngineResult, Result<SpatialBnbResult>>) {
    EXPECT_LE(result->bound, optimum) << label;
    EXPECT_GE(result->error, optimum) << label;
  } else {
    EXPECT_LE(result->best_bound, optimum) << label;
    EXPECT_GE(result->objective, optimum) << label;
  }
}

OptProblem MakeProblem(const Dataset& data, const Ranking& given) {
  OptProblem problem;
  problem.data = &data;
  problem.given = &given;
  problem.eps = TestEps();
  return problem;
}

TEST(ParallelSearchTest, SpatialBoxCapAtFourThreadsStaysSound) {
  Rng rng(42);
  Dataset data = RandomDataset(rng, 14, 3);
  Ranking given = RandomRanking(rng, 14, 7);
  const OptProblem problem = MakeProblem(data, given);
  auto reference =
      SpatialBnb(problem, SpatialBnbOptions{}).Solve(WeightBox::FullSimplex(3));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(reference->proven_optimal);
  ASSERT_GT(reference->stats.boxes_explored, 40);

  SpatialBnbOptions options;
  options.max_boxes = 5;
  options.num_threads = 4;
  auto capped = SpatialBnb(problem, options).Solve(WeightBox::FullSimplex(3));
  ExpectBudgetLimited(capped, reference->error, "max_boxes 5");
  if (capped.ok()) {
    // Each worker checks the cap before it counts its box, so at most the
    // other three can slip past it.
    EXPECT_LE(capped->stats.boxes_explored, 5 + 3);
  }
}

TEST(ParallelSearchTest, SpatialCancelledBeforeSolveIsBudgetLimited) {
  Rng rng(43);
  Dataset data = RandomDataset(rng, 14, 3);
  Ranking given = RandomRanking(rng, 14, 7);
  const OptProblem problem = MakeProblem(data, given);
  auto reference =
      SpatialBnb(problem, SpatialBnbOptions{}).Solve(WeightBox::FullSimplex(3));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(reference->proven_optimal);

  const std::atomic<bool> cancel{true};
  for (int threads : {1, 4}) {
    for (bool seeded : {false, true}) {
      SpatialBnbOptions options;
      options.num_threads = threads;
      options.cancel = &cancel;
      if (seeded) options.initial_weights = {1.0 / 3, 1.0 / 3, 1.0 / 3};
      auto result =
          SpatialBnb(problem, options).Solve(WeightBox::FullSimplex(3));
      const std::string label = "threads=" + std::to_string(threads) +
                                (seeded ? " seeded" : " unseeded");
      ExpectBudgetLimited(result, reference->error, label);
      if (result.ok()) {
        EXPECT_EQ(result->stats.boxes_explored, 0) << label;
      }
      EXPECT_EQ(result.ok(), seeded) << label;
    }
  }
}

TEST(ParallelSearchTest, MilpCancelledBeforeSolveIsBudgetLimited) {
  Rng rng(44);
  Dataset data = RandomDataset(rng, 12, 3);
  Ranking given = RandomRanking(rng, 12, 6);
  const OptProblem problem = MakeProblem(data, given);
  auto model = BuildOptModel(problem, WeightBox::FullSimplex(3));
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  BnbOptions base;
  base.objective_is_integral = true;
  auto reference = BranchAndBound(base).Solve(model->milp);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(reference->proven_optimal);

  const std::atomic<bool> cancel{true};
  for (int threads : {1, 4}) {
    for (bool seeded : {false, true}) {
      BnbOptions options = base;
      options.num_threads = threads;
      options.cancel = &cancel;
      if (seeded) {
        options.initial_incumbent = reference->objective;
        options.initial_values = reference->values;
      }
      auto result = BranchAndBound(options).Solve(model->milp);
      const std::string label = "threads=" + std::to_string(threads) +
                                (seeded ? " seeded" : " unseeded");
      ExpectBudgetLimited(result, reference->objective, label);
      if (result.ok()) {
        EXPECT_EQ(result->stats.nodes_explored, 0) << label;
      }
      EXPECT_EQ(result.ok(), seeded) << label;
    }
  }
}

TEST(PortfolioTest, PortfolioNeverLosesToItsOwnOrdinalSeed) {
  for (uint64_t seed : {51u, 52u}) {
    Rng rng(seed);
    Dataset data = RandomDataset(rng, 16, 3);
    Ranking given = RandomRanking(rng, 16, 8);

    SymGdOptions options;
    options.cell_size = 0.2;
    options.solver.eps = TestEps();
    options.num_seeds = 4;
    options.solver.num_threads = 2;
    SymGd symgd(data, given, options);

    auto ordinal = OrdinalRegressionSeed(data, given, options.solver.eps.eps1);
    ASSERT_TRUE(ordinal.ok()) << ordinal.status().ToString();
    auto single = symgd.Run(*ordinal);
    ASSERT_TRUE(single.ok()) << single.status().ToString();

    auto portfolio = symgd.RunPortfolio();
    ASSERT_TRUE(portfolio.ok()) << portfolio.status().ToString();
    // The portfolio includes the ordinal seed, so with no time budget its
    // winner is at least as good as the single-seed descent.
    EXPECT_LE(portfolio->error, single->error) << "seed=" << seed;
    ASSERT_EQ(static_cast<int>(portfolio->portfolio.size()), 4);
    ASSERT_GE(portfolio->winning_seed, 0);
    ASSERT_LT(portfolio->winning_seed, 4);
    EXPECT_EQ(portfolio->portfolio[portfolio->winning_seed].error,
              portfolio->error);
    EXPECT_EQ(portfolio->portfolio[0].seed_name, "ordinal");
    for (const SeedRun& run : portfolio->portfolio) {
      if (run.error >= 0) {
        EXPECT_EQ(static_cast<int>(run.error_trajectory.size()),
                  run.iterations);
      }
    }
  }
}

TEST(PortfolioTest, SingleAttributeDatasetTerminates) {
  // m == 1: the simplex is the single point {1}, so every random draw is a
  // duplicate — seed construction must accept duplicates after a bounded
  // number of rejections instead of spinning forever.
  Rng rng(71);
  Dataset data = RandomDataset(rng, 8, 1);
  Ranking given = RandomRanking(rng, 8, 4);
  std::vector<PortfolioSeed> seeds =
      BuildPortfolioSeeds(data, given, 1e-6, 4, 17);
  ASSERT_EQ(static_cast<int>(seeds.size()), 4);

  SymGdOptions options;
  options.cell_size = 0.2;
  options.solver.eps = TestEps();
  options.num_seeds = 3;
  options.solver.num_threads = 2;
  SymGd symgd(data, given, options);
  auto result = symgd.RunPortfolio();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->error, 0);
}

TEST(PortfolioTest, PortfolioIsDeterministic) {
  Rng rng(61);
  Dataset data = RandomDataset(rng, 14, 3);
  Ranking given = RandomRanking(rng, 14, 7);
  SymGdOptions options;
  options.cell_size = 0.2;
  options.solver.eps = TestEps();
  options.num_seeds = 5;
  options.solver.num_threads = 3;
  long first_error = -1;
  for (int run = 0; run < 2; ++run) {
    SymGd symgd(data, given, options);
    auto result = symgd.RunPortfolio();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (first_error < 0) {
      first_error = result->error;
    } else {
      EXPECT_EQ(result->error, first_error);
    }
    // Seed construction itself is schedule-independent.
    ASSERT_EQ(static_cast<int>(result->portfolio.size()), 5);
    EXPECT_EQ(result->portfolio[0].seed_name, "ordinal");
  }
}

}  // namespace
}  // namespace rankhow
