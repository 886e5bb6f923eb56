#include "core/sym_gd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/seeding.h"
#include "math/simplex_box.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rankhow {

SymGd::SymGd(const Dataset& data, const Ranking& given, SymGdOptions options)
    : options_(std::move(options)), solver_(data, given, options_.solver) {}

Result<SymGdResult> SymGd::Run(const std::vector<double>& seed) const {
  // Cell size is user input (Sec. IV-C: any value in (0, 2)); report
  // misuse as a status, not a crash.
  if (!(options_.cell_size > 0 && options_.cell_size < 2)) {
    return Status::Invalid(StrFormat("cell size must lie in (0, 2), got %g",
                                     options_.cell_size));
  }
  const int m = solver_.problem().data->num_attributes();
  if (static_cast<int>(seed.size()) != m) {
    return Status::Invalid("seed weight arity mismatch");
  }
  double seed_sum = 0;
  for (double w : seed) {
    if (!(w >= -1e-9)) {
      return Status::Invalid("seed weights must be non-negative");
    }
    seed_sum += w;
  }
  if (std::abs(seed_sum - 1.0) > 1e-6) {
    return Status::Invalid(StrFormat(
        "seed weights must sum to 1 (got %g): SYM-GD cells are boxes "
        "around a point on the weight simplex",
        seed_sum));
  }
  constexpr int kMaxIterations = 1000;  // safety cap on descent steps
  // Largest cell the adaptive variant grows to: cells must stay below 2.
  constexpr double kMaxCellSize = 1.999;
  Deadline deadline(options_.time_budget_seconds);
  WallTimer timer;
  // The portfolio's kill switch reads like an expired budget: the descent
  // winds down at the next iteration boundary and keeps its best iterate.
  auto stopped = [&] {
    return deadline.Expired() ||
           (options_.external_stop != nullptr &&
            options_.external_stop->load(std::memory_order_relaxed));
  };

  // The first cell is centred on the seed. A seed outside P's weight
  // bounds (a regression fit knows nothing of them) can leave that cell
  // without a point inside them, so such a seed first moves toward a point
  // of the bounds until it enters them. A seed inside is used as given.
  std::vector<double> current = seed;
  const WeightBox bounds =
      solver_.problem().constraints.TightenBox(WeightBox::FullSimplex(m));
  if (!bounds.Contains(current)) {
    RH_ASSIGN_OR_RETURN(std::vector<double> anchor,
                        AnyPointOnSimplexBox(bounds));
    current = BlendIntoBox(current, anchor, bounds, 1.0).value_or(anchor);
  }

  SymGdResult result;
  long current_error = -1;  // unknown until the first solve
  double cell = options_.cell_size;

  // Outer loop = Algorithm 2's cell doubling; a single pass when
  // non-adaptive (Algorithm 1).
  while (true) {
    // Inner loop = Algorithm 1: move to the cell optimum until stuck.
    while (result.iterations < kMaxIterations) {
      if (stopped()) break;
      // Budget the inner MILP so one oversized cell cannot eat t_total
      // (Sec. IV-C's motivation for the adaptive variant).
      RankHow inner = solver_;
      if (deadline.HasBudget()) {
        // RemainingOrZero clamps a live budget away from 0, which every
        // downstream time_limit field reads as "unlimited".
        double remaining = deadline.RemainingOrZero();
        double prior = inner.options().time_limit_seconds;
        inner.options().time_limit_seconds =
            prior > 0 ? std::min(prior, remaining) : remaining;
      }
      WeightBox box = WeightBox::CellAround(current, cell);
      auto step = inner.SolveInBox(box, &current);
      if (!step.ok()) {
        if (step.status().code() == StatusCode::kResourceExhausted) break;
        return step.status();
      }
      ++result.iterations;
      result.error_trajectory.push_back(step->error);
      result.total_nodes += step->stats.nodes_explored;
      result.total_free_indicators += step->num_free_indicators;
      result.total_lp_pivots += step->stats.lp_iterations;
      result.total_lp_warm_solves += step->stats.lp_warm_solves;
      result.total_lp_cold_solves += step->stats.lp_cold_solves;
      result.total_lp_rebuilds += step->stats.lp_rebuilds;
      result.total_lp_certified_infeasible +=
          step->stats.lp_certified_infeasible;

      bool improved = current_error < 0 || step->error < current_error;
      if (current_error < 0 || step->error <= current_error) {
        current = step->function.weights;
        current_error = step->error;
        result.function = std::move(step->function);
        result.error = step->error;
      }
      // error(W_i) == error(W_{i-1}) is a local optimum; a perfect ranking
      // has nothing left to improve.
      if ((!improved && result.iterations > 1) || current_error == 0) break;
    }
    if (!options_.adaptive || stopped() ||
        result.iterations >= kMaxIterations || current_error == 0) {
      break;
    }
    // Algorithm 2, line 6. A cell that cannot grow would re-solve the same
    // box around the same iterate: the descent is over.
    const double grown = std::min(cell * 2, kMaxCellSize);
    if (!(grown > cell)) break;
    cell = grown;
  }

  result.final_cell_size = cell;
  result.seconds = timer.ElapsedSeconds();
  if (current_error < 0) {
    return Status::ResourceExhausted(
        "SYM-GD budget expired before the first cell solve finished");
  }
  return result;
}

Result<SymGdResult> SymGd::RunPortfolio() const {
  const OptProblem& problem = solver_.problem();
  const Dataset& data = *problem.data;
  const Ranking& given = *problem.given;
  const int num_seeds = std::max(1, options_.num_seeds);
  // Base of the deterministic Rng::SplitStream family that supplies the
  // random seeds — portfolio results are a pure function of (instance,
  // options), independent of thread schedule.
  constexpr uint64_t kPortfolioSeed = 17;
  // The budget covers building the seeds, not only the race.
  Deadline deadline(options_.time_budget_seconds);
  WallTimer timer;
  std::vector<PortfolioSeed> seeds =
      BuildPortfolioSeeds(data, given, options_.solver.eps.eps1, num_seeds,
                          kPortfolioSeed, deadline);
  RH_CHECK(static_cast<int>(seeds.size()) == num_seeds);

  std::atomic<bool> stop{false};
  std::vector<Result<SymGdResult>> outcomes(
      seeds.size(), Status::ResourceExhausted(
                        "portfolio budget expired before this seed started"));

  // One independent descent per seed. Each runner is a fresh SymGd (its
  // RankHow gets a private spatial-oracle slot — the shared slot is a
  // serial-sweep optimization, and sharing it across racing descents
  // would race one tableau), seeded with whatever budget remains when the
  // task actually starts (on a narrow pool, later seeds start later).
  auto run_seed = [&](int i) {
    if (stop.load(std::memory_order_relaxed) || deadline.Expired()) return;
    SymGdOptions run_options = options_;
    run_options.num_seeds = 1;
    run_options.external_stop = &stop;
    // The race already saturates the pool; nested search parallelism
    // would oversubscribe the hardware.
    run_options.solver.num_threads = 1;
    if (deadline.HasBudget()) {
      // Clamped: an exactly-exhausted budget must not hand this seed an
      // unlimited (0) one.
      run_options.time_budget_seconds = deadline.RemainingOrZero();
    }
    SymGd runner(data, given, run_options);
    // Whole-struct copy so every customization the caller made through
    // problem() — eps included, and any field added later — carries over;
    // the data/given pointers already reference the same objects.
    runner.problem() = problem;
    outcomes[i] = runner.Run(seeds[i].weights);
    if (outcomes[i].ok() && outcomes[i]->error == 0) {
      // A perfect function cannot be beaten: wind the other descents down.
      stop.store(true, std::memory_order_relaxed);
    }
  };

  const int race_width =
      std::min(ThreadPool::ResolveThreadCount(options_.solver.num_threads),
               static_cast<int>(seeds.size()));
  if (race_width <= 1) {
    for (size_t i = 0; i < seeds.size(); ++i) run_seed(static_cast<int>(i));
  } else {
    ThreadPool pool(race_width);
    TaskGroup group(&pool);
    for (size_t i = 0; i < seeds.size(); ++i) {
      group.Spawn([&run_seed, i] { run_seed(static_cast<int>(i)); });
    }
    group.Wait();
  }

  // Winner: smallest verified error; ties break to the earlier seed (the
  // portfolio order is deterministic, so the result is too).
  SymGdResult result;
  int winner = -1;
  for (size_t i = 0; i < seeds.size(); ++i) {
    if (!outcomes[i].ok()) continue;
    if (winner < 0 || outcomes[i]->error < outcomes[winner]->error) {
      winner = static_cast<int>(i);
    }
  }
  if (winner < 0) {
    // Every descent failed; surface the first real failure.
    for (const auto& outcome : outcomes) {
      if (!outcome.ok()) return outcome.status();
    }
    return Status::Internal("empty portfolio");
  }
  result = *outcomes[winner];
  result.winning_seed = winner;
  result.total_nodes = 0;
  result.total_free_indicators = 0;
  result.total_lp_pivots = 0;
  result.total_lp_warm_solves = 0;
  result.total_lp_cold_solves = 0;
  result.total_lp_rebuilds = 0;
  result.total_lp_certified_infeasible = 0;
  result.portfolio.reserve(seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    SeedRun run;
    run.seed_name = seeds[i].name;
    run.seed_weights = seeds[i].weights;
    if (outcomes[i].ok()) {
      run.error = outcomes[i]->error;
      run.iterations = outcomes[i]->iterations;
      run.error_trajectory = outcomes[i]->error_trajectory;
      run.seconds = outcomes[i]->seconds;
      result.total_nodes += outcomes[i]->total_nodes;
      result.total_free_indicators += outcomes[i]->total_free_indicators;
      result.total_lp_pivots += outcomes[i]->total_lp_pivots;
      result.total_lp_warm_solves += outcomes[i]->total_lp_warm_solves;
      result.total_lp_cold_solves += outcomes[i]->total_lp_cold_solves;
      result.total_lp_rebuilds += outcomes[i]->total_lp_rebuilds;
      result.total_lp_certified_infeasible +=
          outcomes[i]->total_lp_certified_infeasible;
    }
    result.portfolio.push_back(std::move(run));
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace rankhow
