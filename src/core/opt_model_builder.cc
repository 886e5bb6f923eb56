#include "core/opt_model_builder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>

#include "util/logging.h"
#include "util/string_util.h"

namespace rankhow {

namespace {

/// Near-zero big-M values create badly scaled rows that destabilize the
/// simplex, so M is clamped away from the noise floor (the extra slack
/// only loosens the relaxation marginally). Shared by the build and the
/// ε-patch so a patched model is bit-identical to a fresh build.
constexpr double kMinBigM = 1e-6;

double TightBigM(double slack) {
  return std::max(slack, kMinBigM) * (1 + 1e-9);
}

/// How far, relative to the data's scale, a tuple's max score may sit below
/// the lowest ranked tuple's threshold and still be screened out. It lets
/// the screen cover points up to about half this L1 distance outside
/// box ∩ simplex; LP vertices sit within about 1e-7 of it.
constexpr double kScreenReach = 1e-6;

/// The screen over the build's tightened box, from its fixing's score
/// ranges and the model's groups.
ScoreScreen BuildScoreScreen(const OptProblem& problem, const WeightBox& box,
                             const FixingSummary& fixing,
                             const std::vector<OptModel::TupleGroup>& groups) {
  const Dataset& data = *problem.data;
  const int n = data.num_tuples();
  ScoreScreen screen;
  screen.box = box;
  screen.scale = fixing.score_scale;
  screen.guard = ScoreRangeGuard(screen.scale, data.num_attributes());
  screen.lowest_ranked = std::numeric_limits<double>::infinity();
  std::vector<char> keep(n, 0);
  for (int r : problem.given->ranked_tuples()) {
    screen.lowest_ranked = std::min(screen.lowest_ranked, fixing.score_min[r]);
    keep[r] = 1;
  }
  screen.cut = screen.lowest_ranked + problem.eps.tie_eps -
               (kScreenReach * screen.scale + screen.guard);
  for (const OptModel::TupleGroup& group : groups) {
    keep[group.tuple] = 1;
    for (const auto& [s, var] : group.delta_vars) {
      (void)var;
      keep[s] = 1;
    }
  }
  for (int t = 0; t < n; ++t) {
    if (keep[t] || fixing.score_max[t] > screen.cut) {
      screen.candidates.push_back(t);
    }
  }
  return screen;
}

}  // namespace

bool ScoreScreen::Covers(const std::vector<double>& w, double tie_eps) const {
  // Clamping w into the box moves it by `excursion` in L1, and moving the
  // clamped point to the simplex inside the box (which meets it) by
  // |Σ clamped − 1| more.
  double excursion = 0;
  double sum = 0;
  for (int a = 0; a < box.dim(); ++a) {
    const double clamped = std::clamp(w[a], box.lo[a], box.hi[a]);
    excursion += std::abs(w[a] - clamped);
    sum += clamped;
  }
  const double dist = excursion + std::abs(sum - 1.0);
  return cut + 2 * scale * dist + guard <= lowest_ranked + tie_eps;
}

std::vector<double> OptModel::ExtractWeights(
    const std::vector<double>& values) const {
  std::vector<double> w;
  w.reserve(weight_vars.size());
  for (int var : weight_vars) {
    RH_DCHECK(var < static_cast<int>(values.size()));
    // Clip the solver's tolerance dust so downstream evaluation sees a
    // clean simplex point.
    w.push_back(std::max(0.0, std::min(1.0, values[var])));
  }
  return w;
}

void AppendWeightConstraintRow(const WeightConstraint& constraint,
                               OptModel* model) {
  AppendWeightConstraintTo(constraint, &model->milp.lp(),
                           model->weight_vars);
}

void AppendOrderConstraintRow(const OptProblem& problem,
                              const PairwiseOrderConstraint& oc,
                              OptModel* model) {
  const Dataset& data = *problem.data;
  LinearExpr expr;
  for (int a = 0; a < data.num_attributes(); ++a) {
    expr += LinearExpr::Term(
        model->weight_vars[a],
        data.value(oc.above, a) - data.value(oc.below, a));
  }
  model->order_rows.push_back(model->milp.lp().AddConstraint(
      std::move(expr), RelOp::kGe, problem.eps.eps1,
      StrFormat("order_%d_above_%d", oc.above, oc.below)));
}

bool PatchEpsilonInPlace(const EpsilonConfig& eps, OptModel* model) {
  if (eps.eps1 > model->min_fixed_one_diff) return false;
  if (eps.eps2 < model->max_fixed_zero_diff) return false;
  for (const OptModel::EpsSite& site : model->eps_sites) {
    IndicatorConstraint& ge = model->milp.mutable_indicator(site.ind_ge);
    ge.rhs = eps.eps1;
    if (model->built_tight_big_m) ge.big_m = TightBigM(eps.eps1 - site.diff_min);
    IndicatorConstraint& le = model->milp.mutable_indicator(site.ind_le);
    le.rhs = eps.eps2;
    if (model->built_tight_big_m) le.big_m = TightBigM(site.diff_max - eps.eps2);
  }
  for (int row : model->order_rows) {
    model->milp.lp().mutable_constraint(row).rhs = eps.eps1;
  }
  return true;
}

Result<OptModel> BuildOptModel(const OptProblem& problem,
                               const WeightBox& box, bool enable_fixing,
                               bool enable_cuts, bool tight_big_m) {
  RH_RETURN_NOT_OK(problem.Validate());
  const Dataset& data = *problem.data;
  const Ranking& given = *problem.given;
  const int m = data.num_attributes();

  WeightBox tight = problem.constraints.TightenBox(box);
  if (!tight.IntersectsSimplex()) {
    return Status::Infeasible("weight box ∩ simplex ∩ P bounds is empty");
  }

  OptModel model;
  LpModel& lp = model.milp.lp();

  // Weight variables with box bounds + the simplex row.
  LinearExpr weight_sum;
  for (int a = 0; a < m; ++a) {
    int var = lp.AddVariable(tight.lo[a], tight.hi[a],
                             "w_" + data.attribute_name(a));
    model.weight_vars.push_back(var);
    weight_sum += LinearExpr::Term(var, 1.0);
  }
  lp.AddConstraint(weight_sum, RelOp::kEq, 1.0, "simplex");

  // The predicate P.
  problem.constraints.AppendTo(&lp, model.weight_vars);

  // Pairwise order constraints: w·d(above, below) >= eps1 (pure weight rows,
  // no indicators needed).
  for (const PairwiseOrderConstraint& oc : problem.order_constraints) {
    LinearExpr expr;
    for (int a = 0; a < m; ++a) {
      expr += LinearExpr::Term(
          model.weight_vars[a],
          data.value(oc.above, a) - data.value(oc.below, a));
    }
    model.order_rows.push_back(
        lp.AddConstraint(std::move(expr), RelOp::kGe, problem.eps.eps1,
                         StrFormat("order_%d_above_%d", oc.above, oc.below)));
  }

  // Group tuples: every ranked tuple, plus position-constrained extras.
  std::vector<int> group_tuples = given.ranked_tuples();
  for (const PositionConstraint& pc : problem.position_constraints) {
    if (!given.IsRanked(pc.tuple) &&
        std::find(group_tuples.begin(), group_tuples.end(), pc.tuple) ==
            group_tuples.end()) {
      group_tuples.push_back(pc.tuple);
    }
  }

  RH_ASSIGN_OR_RETURN(
      FixingSummary fixing,
      ComputeIndicatorFixing(data, group_tuples, tight, problem.eps.eps1,
                             problem.eps.eps2, enable_fixing));
  model.num_free_indicators = fixing.total_free;
  model.num_fixed_indicators =
      fixing.total_fixed_one + fixing.total_fixed_zero;
  model.min_fixed_one_diff = fixing.min_fixed_one_diff;
  model.max_fixed_zero_diff = fixing.max_fixed_zero_diff;
  model.built_tight_big_m = tight_big_m;

  // Indicator variables + error variables per group.
  LinearExpr objective;
  for (const TupleFixing& fx : fixing.groups) {
    OptModel::TupleGroup group;
    group.tuple = fx.tuple;
    group.given_position = given.position(fx.tuple);
    group.fixed_one = fx.fixed_one;

    LinearExpr s_free;  // Σ free δ_sr
    for (const FreePair& pair : fx.free) {
      int delta = model.milp.AddBinaryVariable(
          StrFormat("d_%d_%d", pair.s, fx.tuple));
      group.delta_vars.emplace_back(pair.s, delta);
      s_free += LinearExpr::Term(delta, 1.0);

      // w·d(s, r) as an expression over the weight variables.
      LinearExpr score_diff;
      for (int a = 0; a < m; ++a) {
        score_diff += LinearExpr::Term(
            model.weight_vars[a],
            data.value(pair.s, a) - data.value(fx.tuple, a));
      }
      // Tight per-pair big-M from the exact range of w·d over the box:
      //   δ=1 ⇒ diff >= ε₁ needs M >= ε₁ − diff_min,
      //   δ=0 ⇒ diff <= ε₂ needs M >= diff_max − ε₂.
      // With fixing disabled (ablation) a pair may have negative slack (a
      // zero M would still be valid) — TightBigM clamps it. -1 requests the
      // solver's loose bounds-derived M (ablation A3).
      const double m1 =
          tight_big_m ? TightBigM(problem.eps.eps1 - pair.diff_min) : -1.0;
      const double m0 =
          tight_big_m ? TightBigM(pair.diff_max - problem.eps.eps2) : -1.0;
      OptModel::EpsSite site;
      site.diff_min = pair.diff_min;
      site.diff_max = pair.diff_max;
      site.ind_ge = model.milp.indicators().size();
      model.milp.AddIndicator({delta, true, score_diff, RelOp::kGe,
                               problem.eps.eps1, m1});
      site.ind_le = model.milp.indicators().size();
      model.milp.AddIndicator({delta, false, std::move(score_diff),
                               RelOp::kLe, problem.eps.eps2, m0});
      model.eps_sites.push_back(site);
    }

    const bool inversion_objective =
        problem.objective.kind == ObjectiveKind::kInversions;
    if (given.IsRanked(fx.tuple) && !inversion_objective) {
      // Error variable + |·| linearization:
      //   e_r >= t_r − S_free   and   e_r >= S_free − t_r
      // with t_r = π(r) − 1 − fixed_one. The per-tuple objective coefficient
      // is the (integral) position penalty — 1 for plain Definition 3.
      double t_r = group.given_position - 1 - fx.fixed_one;
      group.error_var = lp.AddVariable(0.0, kInfinity,
                                       StrFormat("e_%d", fx.tuple));
      objective += LinearExpr::Term(
          group.error_var,
          static_cast<double>(
              problem.objective.PenaltyAt(group.given_position)));
      LinearExpr above = LinearExpr::Term(group.error_var, 1.0) + s_free;
      lp.AddConstraint(std::move(above), RelOp::kGe, t_r,
                       StrFormat("abs_lo_%d", fx.tuple));
      LinearExpr below = LinearExpr::Term(group.error_var, 1.0) - s_free;
      lp.AddConstraint(std::move(below), RelOp::kGe, -t_r,
                       StrFormat("abs_hi_%d", fx.tuple));
    }

    model.groups.push_back(std::move(group));
  }
  if (!fixing.score_min.empty()) {
    model.screen = BuildScoreScreen(problem, tight, fixing, model.groups);
  }

  // Inversion objective (Sec. I's Kendall-tau distance): for every ranked
  // pair a-strictly-above-b, the pair is discordant iff δ_ba = 1 (group a,
  // s = b). Free pairs contribute their δ variable; interval-fixed ones a
  // constant. No |·| machinery is needed at all.
  if (problem.objective.kind == ObjectiveKind::kInversions) {
    const std::vector<int>& ranked = given.ranked_tuples();
    std::vector<double> d(m);
    for (size_t i = 0; i < ranked.size(); ++i) {
      for (size_t j = i + 1; j < ranked.size(); ++j) {
        int a = ranked[i];
        int b = ranked[j];
        if (given.position(a) == given.position(b)) continue;  // π-tie
        if (given.position(a) > given.position(b)) std::swap(a, b);
        // Find δ_ba in group a.
        const OptModel::TupleGroup* group = nullptr;
        for (const auto& g : model.groups) {
          if (g.tuple == a) {
            group = &g;
            break;
          }
        }
        RH_CHECK(group != nullptr);
        int var = -1;
        for (const auto& [s, delta] : group->delta_vars) {
          if (s == b) {
            var = delta;
            break;
          }
        }
        if (var >= 0) {
          objective += LinearExpr::Term(var, 1.0);
          continue;
        }
        // Interval-fixed pair: recompute its orientation over the box.
        for (int attr = 0; attr < m; ++attr) {
          d[attr] = data.value(b, attr) - data.value(a, attr);
        }
        RH_ASSIGN_OR_RETURN(DotRange range, DotRangeOnSimplexBox(d, tight));
        if (range.min >= problem.eps.eps1) objective.AddConstant(1.0);
      }
    }
  }

  // Strengthening rows: two tuples cannot strictly beat each other, so
  // whenever both δ_sr and δ_rs exist as variables, add δ_sr + δ_rs <= 1.
  // This is implied at integral points by the indicator semantics (ε₁ > ε₂)
  // but cuts off fractional LP points like δ_sr = δ_rs = 0.75, noticeably
  // tightening the branch-and-bound lower bounds.
  {
    std::map<std::pair<int, int>, std::vector<int>> mutual;
    for (const OptModel::TupleGroup& group : model.groups) {
      for (const auto& [s, var] : group.delta_vars) {
        int a = std::min(s, group.tuple);
        int b = std::max(s, group.tuple);
        mutual[{a, b}].push_back(var);
      }
    }
    for (const auto& [pair_key, vars] : mutual) {
      (void)pair_key;
      if (vars.size() == 2) {
        // Lazy: the branch-and-bound pulls the row into a node LP only when
        // violated, keeping node LPs small (see MilpModel::AddLazyCut).
        model.milp.AddLazyCut(LinearExpr::Term(vars[0], 1.0) +
                                  LinearExpr::Term(vars[1], 1.0),
                              RelOp::kLe, 1.0);
      }
    }
  }

  // Transitivity cuts over mutually-ranked triples: diff(a,c) = diff(a,b) +
  // diff(b,c), so δ_ab = 1 ∧ δ_bc = 1 forces diff(a,c) >= 2ε₁, whose only
  // MILP-consistent indicator value is δ_ac = 1. The linear form
  //   δ_ac >= δ_ab + δ_bc − 1
  // is valid and substantially tightens the LP bound (the plain big-M
  // relaxation can scatter fractional δ with no order structure at all).
  // Capped to keep the LP row count sane on large k.
  {
    // (s, r) -> free δ_sr variable, or -2 fixed-one / -3 fixed-zero.
    std::map<std::pair<int, int>, int> delta_of;
    for (const OptModel::TupleGroup& group : model.groups) {
      for (const auto& [s, var] : group.delta_vars) {
        delta_of[{s, group.tuple}] = var;
      }
    }
    auto lookup = [&](int s, int r) -> std::optional<int> {
      auto it = delta_of.find({s, r});
      if (it == delta_of.end()) return std::nullopt;
      return it->second;
    };
    const std::vector<int>& ranked = given.ranked_tuples();
    const size_t kr = ranked.size();
    constexpr size_t kMaxTransitivityRows = 4000;
    if (enable_cuts && kr >= 3 && kr * kr * kr <= kMaxTransitivityRows * 2) {
      size_t rows_added = 0;
      for (size_t ia = 0; ia < kr && rows_added < kMaxTransitivityRows;
           ++ia) {
        for (size_t ib = 0; ib < kr; ++ib) {
          if (ib == ia) continue;
          for (size_t ic = 0; ic < kr; ++ic) {
            if (ic == ia || ic == ib) continue;
            auto d_ab = lookup(ranked[ia], ranked[ib]);
            auto d_bc = lookup(ranked[ib], ranked[ic]);
            auto d_ac = lookup(ranked[ia], ranked[ic]);
            // Only emit the cut when all three are live variables; fixed
            // indicators were already propagated by interval analysis.
            if (!d_ab || !d_bc || !d_ac) continue;
            LinearExpr cut = LinearExpr::Term(*d_ac, 1.0) -
                             LinearExpr::Term(*d_ab, 1.0) -
                             LinearExpr::Term(*d_bc, 1.0);
            model.milp.AddLazyCut(std::move(cut), RelOp::kGe, -1.0);
            if (++rows_added >= kMaxTransitivityRows) break;
          }
          if (rows_added >= kMaxTransitivityRows) break;
        }
      }
    }
  }

  // Position-range constraints: position(r) = 1 + fixed_one + S_free must
  // lie in [min, max].
  for (const PositionConstraint& pc : problem.position_constraints) {
    const OptModel::TupleGroup* group = nullptr;
    for (const auto& g : model.groups) {
      if (g.tuple == pc.tuple) {
        group = &g;
        break;
      }
    }
    RH_CHECK(group != nullptr);
    LinearExpr s_free;
    for (const auto& [s, var] : group->delta_vars) {
      (void)s;
      s_free += LinearExpr::Term(var, 1.0);
    }
    // S_free >= min_position − 1 − fixed_one.
    double lo = pc.min_position - 1.0 - group->fixed_one;
    if (lo > 0) {
      lp.AddConstraint(s_free, RelOp::kGe, lo,
                       StrFormat("pos_min_%d", pc.tuple));
    }
    if (pc.max_position < std::numeric_limits<int>::max()) {
      double hi = pc.max_position - 1.0 - group->fixed_one;
      lp.AddConstraint(s_free, RelOp::kLe, hi,
                       StrFormat("pos_max_%d", pc.tuple));
    }
  }

  lp.SetObjective(std::move(objective), ObjectiveSense::kMinimize);
  return model;
}

}  // namespace rankhow
