#ifndef RANKHOW_CORE_OPT_MODEL_BUILDER_H_
#define RANKHOW_CORE_OPT_MODEL_BUILDER_H_

/// \file opt_model_builder.h
/// Compiles an OPT instance into the MILP of Equation (2):
///
///   min Σ_{r ∈ Rπ(k)} | π(r) − 1 − Σ_{s≠r} δ_sr |
///   s.t. P(w),  Σw = 1,  w >= 0,
///        δ_sr = 1 ⇒ w·d(s,r) >= ε₁,
///        δ_sr = 0 ⇒ w·d(s,r) <= ε₂,
///
/// with the |·| objective linearized through per-tuple error variables,
/// indicators already fixed by interval analysis substituted as constants
/// (Sec. V-B / IV-A), per-pair tight big-M values from the exact w·d ranges,
/// and the Example-1 side constraints (position ranges, pairwise orders)
/// lowered onto the same indicator variables.

#include <optional>
#include <vector>

#include "core/indicator_fixing.h"
#include "core/opt_problem.h"
#include "math/simplex_box.h"
#include "milp/milp_model.h"
#include "util/status.h"

namespace rankhow {

/// The tuples a weight evaluation near the build box has to score (DESIGN.md
/// "Screened cell fixing and evaluation"). A tuple left out scores at or
/// below f(r) + tie_eps for every ranked tuple r at any w the screen
/// Covers, in floating point, so it beats none of them: counting positions
/// over the candidates alone gives the counts a pass over all n gives.
struct ScoreScreen {
  /// The box the score ranges hold over: the build's tightened box.
  WeightBox box;
  /// Ascending: the ranked tuples, the group tuples and the s of their free
  /// pairs, and every tuple whose max score over box ∩ simplex exceeds
  /// `cut`.
  std::vector<int> candidates;
  /// The least min score over box ∩ simplex of a ranked tuple.
  double lowest_ranked = 0;
  double cut = 0;
  /// Σ_a max_t |A_a(t)|, and ScoreRangeGuard of it.
  double scale = 0;
  double guard = 0;

  /// True when the candidates suffice at `w` under tie tolerance `tie_eps`:
  /// with dist(w) an upper bound on the L1 distance from w to box ∩
  /// simplex, cut + 2·scale·dist(w) + guard <= lowest_ranked + tie_eps.
  /// Every score moves by at most scale·dist(w) between w and box ∩
  /// simplex, and `guard` covers the rounding of the ranges and scores.
  bool Covers(const std::vector<double>& w, double tie_eps) const;
};

/// The compiled model plus the variable maps needed to interpret solutions.
struct OptModel {
  MilpModel milp;
  /// Model variable ids of w₁..w_m.
  std::vector<int> weight_vars;

  /// One group per tuple that needed indicator variables (every ranked tuple
  /// plus any position-constrained unranked tuple).
  struct TupleGroup {
    int tuple = -1;
    /// π(r) for ranked tuples, kUnranked otherwise.
    int given_position = kUnranked;
    /// Error variable id (only for ranked tuples; -1 otherwise).
    int error_var = -1;
    /// Free indicator variables: (s, model var id).
    std::vector<std::pair<int, int>> delta_vars;
    /// Number of δ_sr fixed to 1.
    int fixed_one = 0;
  };
  std::vector<TupleGroup> groups;

  long num_free_indicators = 0;
  long num_fixed_indicators = 0;

  /// Where ε lives in the compiled model (the PatchEpsilonInPlace map).
  /// Each free pair owns exactly two indicator constraints whose rhs are
  /// ε₁/ε₂ and whose tight big-M values are ε-linear in the recorded exact
  /// w·d range; each order constraint owns one LP row with rhs ε₁.
  struct EpsSite {
    size_t ind_ge = 0;  ///< indicator index of δ=1 ⇒ w·d >= ε₁
    size_t ind_le = 0;  ///< indicator index of δ=0 ⇒ w·d <= ε₂
    double diff_min = 0;
    double diff_max = 0;
  };
  std::vector<EpsSite> eps_sites;
  /// LP row ids of the order-constraint rows (rhs = ε₁), including rows
  /// appended after compilation by AppendOrderConstraintRow.
  std::vector<int> order_rows;
  /// Fixing slack copied from the FixingSummary the model was built with:
  /// an ε move keeps every baked-in fixed indicator (and the inversion
  /// objective's fixed-pair constants) valid exactly when
  /// eps1' <= min_fixed_one_diff and eps2' >= max_fixed_zero_diff.
  double min_fixed_one_diff = 0;
  double max_fixed_zero_diff = 0;
  /// Whether the model was compiled with tight per-pair big-M (patching
  /// recomputes them) or the loose-auto ablation (patching leaves them -1).
  bool built_tight_big_m = true;
  /// Set when the fixing computed score ranges (a box other than the full
  /// simplex, fixing on). It depends on neither ε₁, ε₂ nor the order
  /// constraints, and it is checked against the problem's current tie_eps
  /// at every evaluation, so no session edit that keeps the model stales it.
  std::optional<ScoreScreen> screen;

  /// Extracts the weight vector from a model-variable assignment.
  std::vector<double> ExtractWeights(const std::vector<double>& values) const;
};

/// Builds the MILP restricted to weight box `box` (the full simplex for the
/// global RankHow solve; a small cell for SYM-GD). The box is first
/// tightened with P's single-variable bounds. `enable_fixing == false`
/// disables the Sec. V-B / IV-A indicator substitution (ablation);
/// `enable_cuts == false` drops the transitivity strengthening rows;
/// `tight_big_m == false` discards the per-pair exact Ms so the relaxation
/// falls back to loose bounds-derived values (ablation A3).
Result<OptModel> BuildOptModel(const OptProblem& problem,
                               const WeightBox& box,
                               bool enable_fixing = true,
                               bool enable_cuts = true,
                               bool tight_big_m = true);

/// Delta-aware rebuild (the SolveSession fast path): appends the single LP
/// row for a weight constraint that was added to the problem *after* `model`
/// was compiled, leaving every existing variable and row id untouched — so
/// warm bases exported against the model stay valid. The cached model keeps
/// the indicator fixing and big-M values it was built with; both were
/// derived over a superset of the new feasible box, which is sound (fixing
/// and M tightness affect solve speed, never the optimum). A from-scratch
/// BuildOptModel over the shrunk box may fix more indicators; the session
/// trades that tightness for skipping the full recompile.
void AppendWeightConstraintRow(const WeightConstraint& constraint,
                               OptModel* model);

/// Same contract for a pairwise order constraint added after compilation:
/// appends the pure weight row w·d(above, below) >= ε₁.
void AppendOrderConstraintRow(const OptProblem& problem,
                              const PairwiseOrderConstraint& oc,
                              OptModel* model);

/// Moves a compiled model to new ε thresholds without recompiling: rewrites
/// the indicator rhs (and their tight big-M, which is ε-linear in the
/// recorded w·d ranges) and the order-row rhs in place. Sound only while
/// every indicator the build fixed as a constant stays fixed — checked via
/// the recorded fixing slack — since those constants (δ substitutions, t_r
/// offsets, inversion-objective pair constants) are baked into rows the
/// patch cannot reach. Returns false, touching nothing, when the slack test
/// fails; the caller must rebuild. Variable and row ids never change, so
/// warm bases exported against the model stay valid.
bool PatchEpsilonInPlace(const EpsilonConfig& eps, OptModel* model);

}  // namespace rankhow

#endif  // RANKHOW_CORE_OPT_MODEL_BUILDER_H_
