// The three solver workloads: cold_spatial and cold_milp (one cold
// RankHow::Solve per repetition) and symgd_full (ordinal-regression seed
// plus one Sym-GD descent per repetition). All run single-threaded so
// their work counts repeat exactly.
//
// Untraced repetitions call the public end-to-end entry points. Traced
// repetitions call the public functions RankHow::Solve is composed of
// (PresolveIncumbent, BuildOptModel, SolveOptModelMilp, SpatialBnb::Solve,
// ComputeIndicatorFixing, VerifySolutionObjective) with a span around each,
// and must reproduce the untraced answer and work counts exactly.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/indicator_fixing.h"
#include "core/opt_model_builder.h"
#include "core/presolve.h"
#include "core/rankhow.h"
#include "core/seeding.h"
#include "core/spatial_bnb.h"
#include "core/sym_gd.h"
#include "ranking/verifier.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace perfbench {

namespace {

using namespace rankhow;

struct SolverSpec {
  int n = 0;
  int m = 0;
  int k = 0;
  /// Shuffle tuple order by the workload seed. Only where the search is
  /// order-invariant (spatial B&B): the MILP tree and the Sym-GD descent
  /// depend on tuple order, so their instance is held fixed.
  bool permute = false;
  bool symgd = false;
  double cell = 0.05;
  long expected_error = -1;
  SolveStrategy expected_strategy = SolveStrategy::kAuto;
};

SolverSpec SpecFor(const RunConfig& config) {
  SolverSpec spec;
  if (config.workload == "cold_spatial") {
    spec = {config.tiny ? 60 : 300, 5, 6, true, false, 0, config.tiny ? 6 : 14,
            SolveStrategy::kSpatial};
  } else if (config.workload == "cold_milp") {
    spec = {config.tiny ? 30 : 50, 8, 4, false, false, 0, config.tiny ? 2 : 3,
            SolveStrategy::kIndicatorMilp};
  } else {
    // Sym-GD has no cheaper stand-in: smaller n or k descend through
    // many more cells, so the tiny mode runs the full instance.
    spec = {22840, 5, 10, false, true, 0.05, 96, SolveStrategy::kAuto};
  }
  if (config.expect_error >= 0) spec.expected_error = config.expect_error;
  return spec;
}

/// What one repetition produced. Work counts must repeat exactly.
struct Outcome {
  bool ok = false;
  std::string error_text;
  double seconds = 0;
  long error = -1;
  long bound = -1;
  bool proven = false;
  bool consistent = false;
  SolveStrategy strategy = SolveStrategy::kAuto;
  int64_t nodes = 0;  // spatial boxes, B&B nodes, or summed cell nodes
  int64_t pivots = 0;
  int64_t cells = 0;
  int64_t presolve_evaluated = -1;  // traced repetitions only
  std::vector<double> weights;
};

std::string WorkCounts(const Outcome& o) {
  return StrFormat("error=%ld bound=%ld nodes=%lld pivots=%lld cells=%lld",
                   o.error, o.bound, static_cast<long long>(o.nodes),
                   static_cast<long long>(o.pivots),
                   static_cast<long long>(o.cells));
}

/// Per-layer values of one traced repetition.
struct LayerSample {
  double presolve_s = 0;
  double model_build_s = 0;
  double spatial_s = 0;
  double bnb_s = 0;
  double verify_s = 0;
  double verify_exact_frac = 0;
  double seed_s = 0;
  double symgd_s = 0;
  SpatialBnbStats spatial;
  BnbStats bnb;
  long free_indicators = 0;
  std::vector<double> seed_weights;
};

OptProblem ProblemOf(const Instance& instance, const RankHowOptions& options) {
  OptProblem problem;
  problem.data = &instance.data;
  problem.given = &instance.given;
  problem.eps = options.eps;
  return problem;
}

Outcome UntracedCold(const Instance& instance) {
  Outcome out;
  const double t0 = Now();
  RankHow solver(instance.data, instance.given, BenchSolverOptions());
  Result<RankHowResult> result = solver.Solve();
  out.seconds = Now() - t0;
  if (!result.ok()) {
    out.error_text = result.status().ToString();
    return out;
  }
  out.ok = true;
  out.error = result->error;
  out.bound = result->bound;
  out.proven = result->proven_optimal;
  out.consistent = result->verification && result->verification->consistent;
  out.strategy = result->strategy_used;
  out.nodes = result->stats.nodes_explored;
  out.pivots = result->stats.lp_iterations;
  out.weights = result->function.weights;
  return out;
}

/// RankHow::Solve composed from its public parts, exactly as
/// RankHow::SolveInBox and SolveOptSpatial compose them.
Outcome TracedCold(const Instance& instance, Tracer* tracer, int64_t trace_id,
                   LayerSample* layer) {
  Outcome out;
  const RankHowOptions options = BenchSolverOptions();
  const double t0 = Now();
  ScopedSpan root(tracer, "rankhow.solve", -1, trace_id);
  const OptProblem problem = ProblemOf(instance, options);
  const WeightBox box = WeightBox::FullSimplex(instance.data.num_attributes());
  Deadline deadline(options.time_limit_seconds);

  ExactSolveSeed seed;
  {
    ScopedSpan span(tracer, "core.presolve", root.id(), trace_id);
    const double s0 = Now();
    Result<PresolveResult> pre = PresolveIncumbent(
        problem, box, ClampedPresolveOptions(options, deadline));
    layer->presolve_s = Now() - s0;
    if (pre.ok()) {
      out.presolve_evaluated = pre->evaluated;
      if (pre->found()) seed.warm_weights = pre->weights;
    }
  }
  out.strategy = ResolveSolveStrategy(problem, options, box);

  long claimed = -1;
  if (out.strategy == SolveStrategy::kSpatial) {
    std::unique_ptr<BoxFeasibilityOracle> oracle_slot;
    seed.box_oracle = EnsureWarmBoxOracle(problem, options, &oracle_slot);
    SpatialBnbOptions spatial_options;
    spatial_options.time_limit_seconds = deadline.RemainingOrZero();
    spatial_options.max_boxes = options.max_nodes;
    spatial_options.use_warm_start = options.use_warm_start;
    spatial_options.num_threads = options.num_threads;
    spatial_options.initial_weights = seed.warm_weights;
    spatial_options.external_lower_bound = std::max(0L, seed.lower_bound);
    spatial_options.cancel = options.cancel;
    SpatialBnb spatial(problem, spatial_options);
    if (seed.box_oracle != nullptr) spatial.SetOracle(seed.box_oracle);
    Result<SpatialBnbResult> sres = Status::Internal("not run");
    {
      ScopedSpan span(tracer, "core.spatial", root.id(), trace_id);
      const double s0 = Now();
      sres = spatial.Solve(box);
      layer->spatial_s = Now() - s0;
    }
    if (!sres.ok()) {
      out.error_text = sres.status().ToString();
      return out;
    }
    layer->spatial = sres->stats;
    out.weights =
        ScoringFunction::FromWeights(instance.data, sres->weights).weights;
    claimed = sres->error;
    out.bound = sres->bound;
    out.proven = sres->proven_optimal;
    out.nodes = sres->stats.boxes_explored;
    out.pivots = sres->stats.lp_pivots;
    {
      // SolveOptSpatial's root-box indicator accounting (its counts are
      // reported from the fixing probe after the window).
      ScopedSpan span(tracer, "core.fixing", root.id(), trace_id);
      (void)ComputeIndicatorFixing(instance.data,
                                   instance.given.ranked_tuples(),
                                   problem.constraints.TightenBox(box),
                                   problem.eps.eps1, problem.eps.eps2);
    }
  } else {
    Result<OptModel> model = Status::Internal("not run");
    {
      ScopedSpan span(tracer, "core.model_build", root.id(), trace_id);
      const double s0 = Now();
      model = BuildOptModel(problem, box, options.use_indicator_fixing,
                            options.use_strengthening_cuts,
                            options.use_tight_big_m);
      layer->model_build_s = Now() - s0;
    }
    if (!model.ok()) {
      out.error_text = model.status().ToString();
      return out;
    }
    RankHowOptions unverified = options;
    unverified.verify = false;  // verification gets its own span below
    Result<RankHowResult> result = Status::Internal("not run");
    {
      ScopedSpan span(tracer, "milp.bnb", root.id(), trace_id);
      const double s0 = Now();
      result = SolveOptModelMilp(problem, unverified, *model, seed, deadline);
      layer->bnb_s = Now() - s0;
    }
    if (!result.ok()) {
      out.error_text = result.status().ToString();
      return out;
    }
    layer->bnb = result->stats;
    out.weights = result->function.weights;
    claimed = result->claimed_error;
    out.bound = result->bound;
    out.proven = result->proven_optimal;
    out.nodes = result->stats.nodes_explored;
    out.pivots = result->stats.lp_iterations;
  }

  Result<VerificationReport> report = Status::Internal("not run");
  {
    ScopedSpan span(tracer, "ranking.verify", root.id(), trace_id);
    const double s0 = Now();
    report = VerifySolutionObjective(instance.data, instance.given, out.weights,
                                     problem.eps.tie_eps, claimed,
                                     problem.objective);
    layer->verify_s = Now() - s0;
  }
  if (!report.ok()) {
    out.error_text = report.status().ToString();
    return out;
  }
  out.seconds = Now() - t0;
  out.ok = true;
  out.error = report->exact_error;
  out.consistent = report->consistent;
  layer->verify_exact_frac =
      report->total_comparisons > 0
          ? static_cast<double>(report->exact_comparisons) /
                report->total_comparisons
          : 0;
  return out;
}

/// One Sym-GD repetition: ordinal-regression seed, then Algorithm 1 to
/// convergence. Spans (when tracing) cover the two public calls.
Outcome RunSymGd(const Instance& instance, double cell, Tracer* tracer,
                 int64_t trace_id, LayerSample* layer) {
  Outcome out;
  const RankHowOptions options = BenchSolverOptions();
  const double t0 = Now();
  ScopedSpan root(tracer, "symgd.solve", -1, trace_id);
  Result<std::vector<double>> seed = Status::Internal("not run");
  {
    ScopedSpan span(tracer, "baselines.seed", root.id(), trace_id);
    const double s0 = Now();
    seed = OrdinalRegressionSeed(instance.data, instance.given,
                                 options.eps.eps1);
    layer->seed_s = Now() - s0;
  }
  if (!seed.ok()) {
    out.error_text = seed.status().ToString();
    return out;
  }
  layer->seed_weights = *seed;
  SymGdOptions symgd_options;
  symgd_options.cell_size = cell;
  symgd_options.solver = options;
  SymGd symgd(instance.data, instance.given, symgd_options);
  Result<SymGdResult> result = Status::Internal("not run");
  {
    ScopedSpan span(tracer, "core.symgd", root.id(), trace_id);
    const double s0 = Now();
    result = symgd.Run(*seed);
    layer->symgd_s = Now() - s0;
  }
  out.seconds = Now() - t0;
  if (!result.ok()) {
    out.error_text = result.status().ToString();
    return out;
  }
  out.ok = true;
  out.error = result->error;
  out.nodes = result->total_nodes;
  out.pivots = result->total_lp_pivots;
  out.cells = result->iterations;
  out.weights = result->function.weights;
  layer->free_indicators = result->total_free_indicators;
  layer->bnb.nodes_explored = result->total_nodes;
  layer->bnb.lp_iterations = result->total_lp_pivots;
  layer->bnb.lp_warm_solves = result->total_lp_warm_solves;
  layer->bnb.lp_cold_solves = result->total_lp_cold_solves;
  return out;
}

/// Times `fn` `reps` times; returns the median seconds.
template <typename Fn>
double MedianSeconds(int reps, Fn fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const double t0 = Now();
    fn();
    times.push_back(Now() - t0);
  }
  return Median(times);
}

}  // namespace

void RunSolverWorkload(const RunConfig& config, Report* report) {
  const SolverSpec spec = SpecFor(config);

  // Set-up: instance generation, repeated; the median is reported. Solver
  // workloads are single-threaded, so their timings are the thread's CPU
  // time (on a shared machine wall time adds, at random, the time the
  // thread waited for a processor), speed-adjusted (see kReferenceSeconds).
  std::vector<double> setup;
  Instance instance;
  for (int i = 0; i < 15; ++i) {
    const double reference_s = ReferenceCpuSeconds();
    const double t0 = ThreadCpuSeconds();
    instance = MakeNbaInstance(spec.n, spec.m, spec.k,
                               spec.permute ? config.seed : 0);
    setup.push_back((ThreadCpuSeconds() - t0) * kReferenceSeconds /
                    reference_s);
  }
  report->Set("setup_s", Median(setup), "s", static_cast<long>(setup.size()));
  report->Info("instance", StrFormat("NBA n=%d m=%d k=%d%s", spec.n, spec.m,
                                     spec.k,
                                     spec.permute ? " permuted by seed" : ""));

  const RankHowOptions options = BenchSolverOptions();
  const OptProblem problem = ProblemOf(instance, options);
  Tracer tracer(config.trace);
  std::vector<double> untraced_seconds;  // wall
  std::vector<double> untraced_cpu;
  std::vector<double> adjusted;  // speed-adjusted CPU
  std::vector<double> references;
  std::vector<double> traced_seconds;
  std::vector<LayerSample> layers;
  std::optional<Outcome> reference;
  long traced_presolve_evaluated = -1;

  // Every repetition is checked: the expected verified answer, a proof
  // and consistent exact verification for exact workloads, and work counts
  // identical to the first repetition (a changed count means a wall-clock
  // cap or nondeterminism changed the work being measured).
  auto check = [&](Outcome& o, bool traced) {
    report->Attempt();
    std::string why;
    if (o.ok && spec.symgd) {
      Result<VerificationReport> verified = VerifySolutionObjective(
          instance.data, instance.given, o.weights, problem.eps.tie_eps,
          o.error, problem.objective);
      o.consistent = verified.ok() && verified->consistent &&
                     verified->exact_error == o.error;
    }
    if (!o.ok) {
      why = "solve failed: " + o.error_text;
    } else if (o.error != spec.expected_error) {
      why = StrFormat("verified error %ld, expected %ld", o.error,
                      spec.expected_error);
    } else if (!o.consistent) {
      why = "exact verification inconsistent";
    } else if (!spec.symgd && !o.proven) {
      why = "exact solve did not prove optimality";
    } else if (!spec.symgd && o.strategy != spec.expected_strategy) {
      why = StrFormat("strategy %s, expected %s",
                      SolveStrategyName(o.strategy),
                      SolveStrategyName(spec.expected_strategy));
    } else if (reference && WorkCounts(o) != WorkCounts(*reference)) {
      why = "work counts differ between repetitions: " + WorkCounts(o) +
            " vs " + WorkCounts(*reference);
    } else if (traced && traced_presolve_evaluated >= 0 &&
               o.presolve_evaluated != traced_presolve_evaluated) {
      why = "presolve evaluations differ between repetitions";
    }
    if (!why.empty()) {
      report->Fail((traced ? "traced: " : "") + why);
      return;
    }
    if (!reference) reference = o;
    if (traced) traced_presolve_evaluated = o.presolve_evaluated;
  };

  // Measurement window. With tracing, untraced and traced repetitions
  // alternate so the overhead compares like with like.
  const double start = Now();
  const int min_reps = (config.trace ? 4 : 3) - (config.tiny ? 1 : 0);
  for (int rep = 0; rep < min_reps || Now() - start < config.seconds; ++rep) {
    const bool traced = config.trace && rep % 2 == 1;
    LayerSample layer;
    Tracer off(false);
    Tracer* t = traced ? &tracer : &off;
    const double reference_s = traced ? 0 : ReferenceCpuSeconds();
    const double c0 = ThreadCpuSeconds();
    Outcome o = spec.symgd ? RunSymGd(instance, spec.cell, t, rep, &layer)
                : traced  ? TracedCold(instance, t, rep, &layer)
                          : UntracedCold(instance);
    if (!traced) {
      untraced_cpu.push_back(ThreadCpuSeconds() - c0);
      references.push_back(reference_s);
      adjusted.push_back(untraced_cpu.back() * kReferenceSeconds /
                         reference_s);
    }
    check(o, traced);
    (traced ? traced_seconds : untraced_seconds).push_back(o.seconds);
    if (traced) layers.push_back(layer);
  }

  const long samples_untraced = static_cast<long>(adjusted.size());
  report->Set("solve_s", Median(adjusted), "s", samples_untraced);
  double total = 0;
  for (double s : adjusted) total += s;
  report->Set("ops_per_s", total > 0 ? samples_untraced / total : 0, "1/s",
              samples_untraced);
  report->Set("error", reference ? static_cast<double>(reference->error) : -1,
              "count");
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  // The unadjusted timings, for the record.
  report->Info("wall_median_s", StrFormat("%.6f", Median(untraced_seconds)));
  report->Info("cpu_median_s", StrFormat("%.6f", Median(untraced_cpu)));
  report->Info("reference_median_s", StrFormat("%.6f", Median(references)));
  if (reference) {
    report->Info("work_counts", WorkCounts(*reference));
  }

  // Presolve wall-clock cap: with no solve time limit the multi-start
  // presolve still stops at PresolveOptions::time_budget_seconds, which on
  // a slow box would silently change the work measured above.
  if (!spec.symgd) {
    Result<PresolveResult> pre = PresolveIncumbent(
        problem, WeightBox::FullSimplex(spec.m),
        ClampedPresolveOptions(options, Deadline(options.time_limit_seconds)));
    if (!pre.ok()) {
      report->Fail("presolve probe failed: " + pre.status().ToString());
    } else {
      report->Info("presolve_evaluated", std::to_string(pre->evaluated));
      if (pre->seconds >= 0.9 * options.presolve.time_budget_seconds) {
        report->Fail("presolve reached its wall-clock cap");
      }
      if (traced_presolve_evaluated >= 0 &&
          traced_presolve_evaluated != pre->evaluated) {
        report->Fail("presolve evaluations differ from the probe");
      }
    }
  }
  report->SetOkFrac();
  if (!config.trace || !reference || layers.empty()) return;

  // ---- per-layer metrics (traced run) ----
  auto median_of = [&](double LayerSample::*field) {
    std::vector<double> v;
    for (const LayerSample& l : layers) v.push_back(l.*field);
    return Median(v);
  };
  const long samples = static_cast<long>(layers.size());
  const LayerSample& first = layers.front();
  const double traced_median = Median(traced_seconds);
  const double untraced_median = Median(untraced_seconds);
  report->Set("trace.overhead_frac",
              untraced_median > 0 ? traced_median / untraced_median - 1 : 0,
              "fraction", samples);
  const std::map<std::string, double> self = tracer.SelfSeconds();
  const std::string root = spec.symgd ? "symgd.solve" : "rankhow.solve";
  report->Set("core.solve.self_s",
              self.count(root) ? self.at(root) / samples : 0, "s", samples);

  // Root-box indicator fixing: the spatial path's accounting call, the
  // first step of BuildOptModel on the MILP path, and for Sym-GD the
  // fixing of the first cell around the seed.
  const WeightBox fixing_box =
      spec.symgd ? WeightBox::CellAround(first.seed_weights, spec.cell)
                 : WeightBox::FullSimplex(spec.m);
  Result<FixingSummary> fixing = Status::Internal("not run");
  const double fixing_s = MedianSeconds(3, [&] {
    fixing = ComputeIndicatorFixing(
        instance.data, instance.given.ranked_tuples(),
        problem.constraints.TightenBox(fixing_box), problem.eps.eps1,
        problem.eps.eps2);
  });
  if (fixing.ok()) {
    const double fixed =
        static_cast<double>(fixing->total_fixed_one + fixing->total_fixed_zero);
    report->Set("core.fixing.root_s", fixing_s, "s", 3);
    report->Set("core.fixing.free", fixing->total_free, "count");
    report->Set("core.fixing.fixed_frac", fixed / (fixed + fixing->total_free),
                "fraction");
  }

  // One true-error evaluation at the answer's weights.
  const double true_error_s = MedianSeconds(
      5, [&] { (void)EvaluateTrueError(problem, reference->weights); });
  report->Set("ranking.true_error.us", true_error_s * 1e6, "us", 5);

  if (spec.symgd) {
    const double cells = static_cast<double>(reference->cells);
    const double symgd_s = median_of(&LayerSample::symgd_s);
    report->Set("baselines.seed_s", median_of(&LayerSample::seed_s), "s",
                samples);
    report->Set("core.symgd.cells", cells, "count");
    report->Set("core.symgd.s_per_cell", cells > 0 ? symgd_s / cells : 0, "s",
                samples);
    report->Set("core.symgd.free_indicators", first.free_indicators, "count");
    const double verify_s = MedianSeconds(3, [&] {
      (void)VerifySolutionObjective(instance.data, instance.given,
                                    reference->weights, problem.eps.tie_eps,
                                    reference->error, problem.objective);
    });
    report->Set("ranking.verify.s", verify_s, "s", 3);
    Result<VerificationReport> verified = VerifySolutionObjective(
        instance.data, instance.given, reference->weights, problem.eps.tie_eps,
        reference->error, problem.objective);
    if (verified.ok() && verified->total_comparisons > 0) {
      report->Set("ranking.verify.exact_frac",
                  static_cast<double>(verified->exact_comparisons) /
                      verified->total_comparisons,
                  "fraction");
    }
    report->Set("milp.nodes", first.bnb.nodes_explored, "count");
    report->Set("milp.nodes_per_s",
                symgd_s > 0 ? first.bnb.nodes_explored / symgd_s : 0, "1/s",
                samples);
  } else {
    report->Set("core.presolve.s", median_of(&LayerSample::presolve_s), "s",
                samples);
    report->Set("core.presolve.evaluated", traced_presolve_evaluated, "count");
    report->Set("ranking.verify.s", median_of(&LayerSample::verify_s), "s",
                samples);
    report->Set("ranking.verify.exact_frac",
                median_of(&LayerSample::verify_exact_frac), "fraction",
                samples);
  }

  if (reference->strategy == SolveStrategy::kSpatial) {
    const SpatialBnbStats& s = first.spatial;
    const double spatial_s = median_of(&LayerSample::spatial_s);
    report->Set("core.spatial.s", spatial_s, "s", samples);
    report->Set("core.spatial.boxes", s.boxes_explored, "count");
    report->Set("core.spatial.boxes_per_s",
                spatial_s > 0 ? s.boxes_explored / spatial_s : 0, "1/s",
                samples);
    report->Set("core.spatial.pruned_bound", s.boxes_pruned_bound, "count");
    report->Set("core.spatial.pruned_infeasible", s.boxes_pruned_infeasible,
                "count");
    report->Set("core.spatial.floor_misses", s.floor_misses, "count");
    report->Set("lp.pivots", s.lp_pivots, "count");
    report->Set("lp.warm_solves", s.lp_warm_solves, "count");
    report->Set("lp.cold_solves", s.lp_cold_solves, "count");
  } else {
    const BnbStats& b = first.bnb;
    if (!spec.symgd) {
      const double bnb_s = median_of(&LayerSample::bnb_s);
      report->Set("core.model_build.s", median_of(&LayerSample::model_build_s),
                  "s", samples);
      report->Set("milp.bnb.s", bnb_s, "s", samples);
      report->Set("milp.nodes", b.nodes_explored, "count");
      report->Set("milp.nodes_per_s", bnb_s > 0 ? b.nodes_explored / bnb_s : 0,
                  "1/s", samples);
      report->Set("milp.incumbent_updates", b.incumbent_updates, "count");
      report->Set("milp.lazy_rounds", b.lazy_rounds, "count");
      report->Set("milp.numerical_drops", b.numerical_drops, "count");
      report->Set("lp.rebuilds", b.lp_rebuilds, "count");
      report->Set("lp.fallback_solves", b.lp_fallback_solves, "count");
    }
    report->Set("lp.pivots", b.lp_iterations, "count");
    report->Set("lp.pivots_per_node",
                b.nodes_explored > 0
                    ? static_cast<double>(b.lp_iterations) / b.nodes_explored
                    : 0,
                "count");
    report->Set("lp.warm_solves", b.lp_warm_solves, "count");
    report->Set("lp.cold_solves", b.lp_cold_solves, "count");
  }

  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  const std::string path = config.out_dir + "/trace-" + config.workload +
                           "-" + std::to_string(config.seed) + ".jsonl";
  if (tracer.WriteJsonLines(path)) report->Info("trace_file", path);
}

}  // namespace perfbench
