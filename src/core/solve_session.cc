#include "core/solve_session.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "core/presolve.h"
#include "math/simplex_box.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace rankhow {

SolveSession::SolveSession(Dataset data, Ranking given,
                           RankHowOptions options)
    : SolveSession(SharedDataset(std::move(data)),
                   SharedRanking(std::move(given)), std::move(options)) {}

SolveSession::SolveSession(SharedDataset data, Ranking given,
                           RankHowOptions options)
    : SolveSession(std::move(data), SharedRanking(std::move(given)),
                   std::move(options)) {}

SolveSession::SolveSession(SharedDataset data, SharedRanking given,
                           RankHowOptions options)
    : data_(std::move(data)),
      given_(std::move(given)),
      options_(std::move(options)) {
  problem_.data = &data_.get();
  problem_.given = &given_.get();
  problem_.eps = options_.eps;
}

void SolveSession::NoteEdit(SessionDeltaKind kind) {
  switch (kind) {
    case SessionDeltaKind::kTighten:
      // Feasible set shrank, objective unchanged: the previous proven
      // optimum stays a valid lower bound (bound_valid_ untouched).
      break;
    case SessionDeltaKind::kRelax:
    case SessionDeltaKind::kStructural:
      bound_valid_ = false;
      model_dirty_ = true;
      pending_weight_rows_.clear();
      pending_order_rows_.clear();
      break;
  }
}

Status SolveSession::AddWeightConstraint(WeightConstraint constraint) {
  if (constraint.terms.empty()) {
    return Status::Invalid("weight constraint has no terms");
  }
  for (const auto& [attr, coeff] : constraint.terms) {
    (void)coeff;
    if (attr < 0 || attr >= data().num_attributes()) {
      return Status::Invalid(
          StrFormat("weight constraint references unknown attribute %d",
                    attr));
    }
  }
  problem_.constraints.Add(constraint);
  if (!model_dirty_) pending_weight_rows_.push_back(std::move(constraint));
  NoteEdit(SessionDeltaKind::kTighten);
  return Status();
}

Status SolveSession::RemoveWeightConstraint(const std::string& name) {
  if (problem_.constraints.RemoveByName(name) == 0) {
    return Status::NotFound("no weight constraint named " + name);
  }
  NoteEdit(SessionDeltaKind::kRelax);
  return Status();
}

Status SolveSession::AddOrderConstraint(int above, int below) {
  if (above < 0 || above >= data().num_tuples() || below < 0 ||
      below >= data().num_tuples() || above == below) {
    return Status::Invalid(
        StrFormat("bad order constraint %d > %d", above, below));
  }
  problem_.order_constraints.push_back({above, below});
  if (!model_dirty_) pending_order_rows_.push_back({above, below});
  NoteEdit(SessionDeltaKind::kTighten);
  return Status();
}

Status SolveSession::AddPositionConstraint(PositionConstraint constraint) {
  if (constraint.tuple < 0 || constraint.tuple >= data().num_tuples()) {
    return Status::Invalid(
        StrFormat("position constraint on unknown tuple %d",
                  constraint.tuple));
  }
  if (constraint.min_position < 1 ||
      constraint.min_position > constraint.max_position) {
    return Status::Invalid("position constraint range is empty");
  }
  problem_.position_constraints.push_back(constraint);
  // Semantically a tightening (the objective is untouched, so the bound
  // survives), but the compiled model lowers position ranges onto the
  // group's indicator variables — and an unranked tuple may need a whole
  // new group — so the model recompiles either way.
  model_dirty_ = true;
  pending_weight_rows_.clear();
  pending_order_rows_.clear();
  NoteEdit(SessionDeltaKind::kTighten);
  return Status();
}

Status SolveSession::SetEpsilon(const EpsilonConfig& eps) {
  if (!eps.Valid()) {
    return Status::Invalid(
        "epsilons must be finite and satisfy eps2 <= eps < eps1");
  }
  const EpsilonConfig old = problem_.eps;
  problem_.eps = eps;
  options_.eps = eps;
  // ε only lives in indicator/order-row right-hand sides (and their
  // ε-linear big-M), so a compiled model moves to the new thresholds by an
  // in-place rhs patch — no recompile, warm bases and the incumbent pool
  // untouched. The patch refuses (and we fall back to a full rebuild) when
  // the move would un-fix an interval-fixed indicator the build baked in
  // as a constant.
  if (model_ != nullptr && !model_dirty_ &&
      PatchEpsilonInPlace(eps, model_.get())) {
    ++stats_.eps_patches;
  } else {
    model_dirty_ = true;
    pending_weight_rows_.clear();
    pending_order_rows_.clear();
  }
  // Bound validity is a separate question from patchability: raising ε₁
  // and lowering ε₂ shrinks the (w, δ) feasible set — strict separation
  // gets harder both ways — so the proven optimum survives as a lower
  // bound, exactly like a kTighten edit. Any other move (including a
  // tie_eps change, which rewrites what the objective counts as an error)
  // relaxes it.
  const bool tighten = eps.eps1 >= old.eps1 && eps.eps2 <= old.eps2 &&
                       eps.tie_eps == old.tie_eps;
  if (!tighten) bound_valid_ = false;
  return Status();
}

Status SolveSession::SetObjective(const RankingObjectiveSpec& objective) {
  problem_.objective = objective;
  NoteEdit(SessionDeltaKind::kStructural);
  return Status();
}

Status SolveSession::AppendTuple(const std::vector<double>& values,
                                 int* id_out) {
  if (static_cast<int>(values.size()) != data().num_attributes()) {
    return Status::Invalid(
        StrFormat("tuple has %d values, dataset has %d attributes",
                  static_cast<int>(values.size()), data().num_attributes()));
  }
  // Validate before mutating: no edit removes a tuple, and a non-finite
  // value would fail every later solve.
  for (int a = 0; a < data().num_attributes(); ++a) {
    if (!std::isfinite(values[a])) {
      return Status::Invalid(StrFormat("attribute %s value %g is not finite",
                                       data().attribute_name(a).c_str(),
                                       values[a]));
    }
  }
  std::vector<int> positions = given_.get().positions();
  positions.push_back(kUnranked);
  RH_ASSIGN_OR_RETURN(Ranking grown, Ranking::Create(std::move(positions)));
  const int64_t rank_forks_before = given_.forks();
  // Copy-on-write: appending forks a private snapshot iff siblings share
  // this one; either way both handles may re-point, so the problem's
  // dataset and ranking views must be refreshed.
  int id = data_.AppendTuple(values);
  problem_.data = &data_.get();
  given_.Reset(std::move(grown));
  problem_.given = &given_.get();
  stats_.ranking_forks += given_.forks() - rank_forks_before;
  have_dataset_fp_ = false;  // instance changed; re-fingerprint lazily
  if (id_out != nullptr) *id_out = id;
  NoteEdit(SessionDeltaKind::kStructural);
  return Status();
}

Result<const OptModel*> SolveSession::EnsureModel() {
  if (!model_dirty_ && model_ != nullptr) {
    for (const WeightConstraint& c : pending_weight_rows_) {
      AppendWeightConstraintRow(c, model_.get());
      ++stats_.model_patches;
    }
    for (const PairwiseOrderConstraint& oc : pending_order_rows_) {
      AppendOrderConstraintRow(problem_, oc, model_.get());
      ++stats_.model_patches;
    }
    pending_weight_rows_.clear();
    pending_order_rows_.clear();
    return model_.get();
  }
  RH_ASSIGN_OR_RETURN(
      OptModel built,
      BuildOptModel(problem_, WeightBox::FullSimplex(data().num_attributes()),
                    options_.use_indicator_fixing,
                    options_.use_strengthening_cuts,
                    options_.use_tight_big_m));
  model_ = std::make_unique<OptModel>(std::move(built));
  model_dirty_ = false;
  pending_weight_rows_.clear();
  pending_order_rows_.clear();
  ++stats_.model_builds;
  return model_.get();
}

ProblemFingerprint SolveSession::CurrentFingerprint() {
  if (!have_dataset_fp_) {
    cached_dataset_fp_ = DatasetFingerprint(data(), given());
    have_dataset_fp_ = true;
  }
  if (!have_constraint_hash_ ||
      cached_constraint_rev_ != problem_.constraints.revision()) {
    cached_constraint_hash_ = HashWeightConstraints(problem_.constraints);
    cached_constraint_rev_ = problem_.constraints.revision();
    have_constraint_hash_ = true;
  }
  return FingerprintProblem(cached_dataset_fp_, cached_constraint_hash_,
                            problem_);
}

Result<RankHowResult> SolveSession::Solve() {
  WallTimer timer;
  Deadline deadline(options_.time_limit_seconds);
  ++stats_.solves;
  const WeightBox box = WeightBox::FullSimplex(data().num_attributes());
  const SolveStrategy strategy =
      ResolveSolveStrategy(problem_, options_, box);
  // The semantics of what this solve will *prove*: the spatial strategy
  // proves the true ε-tie optimum, MILP/SAT the (ε₂, ε₁)-gap optimum,
  // which the true optimum never exceeds. Both the session's own bound
  // reuse and the warm-cache bound eligibility compare like with like.
  const bool gap_semantics = strategy != SolveStrategy::kSpatial;

  ExactSolveSeed seed;
  // Warm incumbent: revalidate the pool against the edited problem; fall
  // back to the cold multi-start only when nothing in the pool survives.
  // Both passes run under the clamped presolve budget so warm-start
  // discovery cannot eat the exact search's share of a tight time limit.
  const PresolveOptions presolve = ClampedPresolveOptions(options_, deadline);
  bool pool_warm = false;
  std::vector<std::vector<double>> pooled;
  pooled.reserve(pool_.size());
  for (const PoolEntry& entry : pool_) pooled.push_back(entry.weights);
  if (shared_pool_ != nullptr) {
    // Cross-client candidates: only the entries published since this
    // session's last draw (revision-checked — see shared_incumbent_pool.h).
    // They join the session's own pool in the revalidation pass below, so
    // they are re-evaluated under *this* session's problem before any use.
    shared_pool_->CollectNew(data_.snapshot_id(), this, &shared_seen_seq_,
                             &pooled);
  }
  ProblemFingerprint fp;
  if (warm_cache_ != nullptr) {
    fp = CurrentFingerprint();
    const uint64_t gen = warm_cache_->generation();
    // Generation-checked draw: an unchanged cache is not re-drawn for an
    // unchanged fingerprint + semantics (entries already drawn that proved
    // useful re-entered through the session pool).
    if (!cache_drawn_ || fp != cache_drawn_fp_ ||
        gen != cache_drawn_generation_ ||
        gap_semantics != cache_drawn_gap_semantics_) {
      WarmCache::Draw draw = warm_cache_->DrawFor(fp, gap_semantics);
      // Exact matches and demoted candidates alike enter as revalidation
      // candidates (re-evaluated under *this* problem before any use);
      // only the exact matches' semantics-checked bound survives as is.
      for (WarmCache::Entry& entry : draw.exact) {
        pooled.push_back(std::move(entry.weights));
      }
      for (std::vector<double>& weights : draw.candidates) {
        pooled.push_back(std::move(weights));
      }
      cache_bound_ = draw.bound;
      cache_drawn_ = true;
      cache_drawn_fp_ = fp;
      cache_drawn_generation_ = gen;
      cache_drawn_gap_semantics_ = gap_semantics;
    }
  }
  if (!pooled.empty()) {
    auto re = RevalidateIncumbents(problem_, box, pooled, presolve);
    if (re.ok() && re->found()) {
      seed.warm_weights = std::move(re->weights);
      pool_warm = true;
      ++stats_.pool_hits;
    }
  }
  if (!pool_warm && options_.use_presolve) {
    auto pre = PresolveIncumbent(problem_, box, presolve);
    ++stats_.presolve_runs;
    if (pre.ok() && pre->found()) seed.warm_weights = std::move(pre->weights);
    // Presolve failure is non-fatal: the exact search runs cold.
  }

  // Bound reuse: valid only across constraints-only tightening edits, and
  // only comparing like semantics with like — a spatial bound also seeds a
  // gap re-solve but not vice versa (see gap_semantics above).
  if (have_proven_ && bound_valid_ && proven_optimum_ >= 0 &&
      (proven_true_semantics_ || gap_semantics)) {
    seed.lower_bound = proven_optimum_;
    ++stats_.bound_seeds;
  }
  // Warm-cache bound: an exact-fingerprint entry proved the optimum of
  // *this very problem* (semantics-checked in DrawFor), so it seeds the
  // same tighten-only external bound path. Mismatched entries never reach
  // here — DrawFor demotes them to candidates with no bound.
  if (warm_cache_ != nullptr && cache_bound_ >= 0 &&
      cache_bound_ > seed.lower_bound) {
    seed.lower_bound = cache_bound_;
    ++stats_.fingerprint_bound_seeds;
  }

  RankHowResult result;
  if (strategy == SolveStrategy::kSpatial) {
    // One warm P-feasibility oracle across the whole query sequence.
    seed.box_oracle = EnsureWarmBoxOracle(problem_, options_, &box_oracle_);
    RH_ASSIGN_OR_RETURN(
        result, SolveOptSpatial(problem_, options_, box, seed, deadline));
  } else {
    RH_ASSIGN_OR_RETURN(const OptModel* model, EnsureModel());
    if (strategy == SolveStrategy::kSatBinarySearch) {
      RH_ASSIGN_OR_RETURN(result, SolveOptModelSat(problem_, options_,
                                                   *model, seed, deadline));
    } else {
      RH_ASSIGN_OR_RETURN(result, SolveOptModelMilp(problem_, options_,
                                                    *model, seed, deadline));
    }
  }
  result.strategy_used = strategy;
  result.seconds = timer.ElapsedSeconds();

  // Pool maintenance: the solve's winner first (with its verified error),
  // then the warm seed that fed it (they differ when the search improved
  // on the seed).
  Remember(result.function.weights, /*winner=*/true, result.error);
  Remember(seed.warm_weights, /*winner=*/false, /*known_error=*/-1);

  // Cross-client sharing publishes *proven* winners only: unproven
  // incumbents churn the siblings' revalidation passes for candidates the
  // publisher itself may discard next solve. The warm cache gets the same
  // winners, fingerprint-stamped.
  if (result.proven_optimal && !result.function.weights.empty()) {
    if (shared_pool_ != nullptr) {
      shared_pool_->Publish(data_.snapshot_id(), this,
                            result.function.weights, result.claimed_error);
    }
    if (warm_cache_ != nullptr) {
      WarmCache::Entry entry;
      entry.fp = fp;
      entry.true_semantics = strategy == SolveStrategy::kSpatial;
      entry.error = result.claimed_error;
      entry.weights = result.function.weights;
      warm_cache_->Publish(entry);
    }
  }

  have_proven_ = result.proven_optimal;
  proven_optimum_ = result.claimed_error;
  proven_true_semantics_ = strategy == SolveStrategy::kSpatial;
  bound_valid_ = true;
  return result;
}

std::vector<long> SolveSession::incumbent_pool_errors() const {
  std::vector<long> errors;
  errors.reserve(pool_.size());
  for (const PoolEntry& entry : pool_) errors.push_back(entry.error);
  return errors;
}

void SolveSession::Remember(const std::vector<double>& weights, bool winner,
                            long known_error) {
  if (weights.empty()) return;
  for (PoolEntry& have : pool_) {
    if (SameWeights(have.weights, weights)) {
      // Same vector re-surfaced: upgrade its credentials instead of
      // duplicating (a winner flag is sticky — once optimal for some past
      // constraint set, always "a past winner").
      have.winner = have.winner || winner;
      if (known_error >= 0) have.error = known_error;
      return;
    }
  }
  PoolEntry entry;
  entry.weights = weights;
  entry.winner = winner;
  entry.error = known_error >= 0
                    ? known_error
                    : EvaluateTrueError(problem_, weights).value_or(-1);
  pool_.insert(pool_.begin(), std::move(entry));
  const size_t cap =
      static_cast<size_t>(std::max(1, options_.incumbent_pool_cap));
  while (pool_.size() > cap) EvictOne();
}

void SolveSession::EvictOne() {
  // Dominated-entry eviction (ROADMAP's "keep only entries optimal for
  // some past constraint set"). Everything here is a warm-start heuristic:
  // pool entries are candidates, never bounds, so any policy is sound —
  // this one is chosen so a long tighten run does not flush the low-error
  // incumbents a later relax edit warm-starts from.
  //
  // Per-entry standing under the *current* problem: cur = the true ε-tie
  // objective, or nullopt when the entry violates the current constraints.
  // Objective values also refresh stale recorded errors (ε/objective may
  // have changed structurally since the entry was recorded).
  const size_t n = pool_.size();
  std::vector<std::optional<long>> cur(n);
  for (size_t i = 0; i < n; ++i) {
    cur[i] = EvaluateTrueError(problem_, pool_[i].weights);
    if (cur[i].has_value()) pool_[i].error = *cur[i];
  }
  auto evict = [this](size_t victim) {
    pool_.erase(pool_.begin() + victim);
    ++stats_.pool_evictions;
  };

  // 1. Seed echoes first: a non-winner that is currently infeasible, or
  //    whose objective another entry matches or beats, was never uniquely
  //    valuable. Stalest such entry goes (index n-1 is oldest).
  for (size_t i = n; i-- > 0;) {
    const PoolEntry& x = pool_[i];
    if (x.winner) continue;
    bool covered = !cur[i].has_value();
    for (size_t j = 0; j < n && !covered; ++j) {
      covered = j != i && cur[j].has_value() &&
                (!cur[i].has_value() || *cur[j] <= *cur[i]);
    }
    if (covered) return evict(i);
  }

  // 2. Winners: protect (a) the lowest-recorded-error anchor — it re-warms
  //    the deepest relax edits — and (b) the best currently-feasible entry,
  //    which is the next solve's warm start. Among the rest, evict the
  //    entry most redundant in error space: the one whose recorded error
  //    lies closest to another surviving entry's (its neighbor covers the
  //    relax depths it served). Ties: higher error, then oldest.
  size_t anchor = 0, best_feasible = n;
  for (size_t i = 0; i < n; ++i) {
    if (pool_[i].error >= 0 &&
        (pool_[anchor].error < 0 || pool_[i].error < pool_[anchor].error)) {
      anchor = i;
    }
    if (cur[i].has_value() &&
        (best_feasible == n || *cur[i] < *cur[best_feasible])) {
      best_feasible = i;
    }
  }
  size_t victim = n;
  long victim_gap = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == anchor || i == best_feasible) continue;
    long gap = std::numeric_limits<long>::max();
    for (size_t j = 0; j < n; ++j) {
      if (j == i || pool_[j].error < 0 || pool_[i].error < 0) continue;
      gap = std::min(gap, std::abs(pool_[i].error - pool_[j].error));
    }
    const bool better =
        victim == n || gap < victim_gap ||
        (gap == victim_gap && (pool_[i].error > pool_[victim].error ||
                               (pool_[i].error == pool_[victim].error &&
                                i > victim)));
    if (better) {
      victim = i;
      victim_gap = gap;
    }
  }
  // Fallback (everything protected — a 2-entry pool): evict the oldest.
  evict(victim != n ? victim : n - 1);
}

}  // namespace rankhow
