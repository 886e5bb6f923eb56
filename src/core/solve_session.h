#ifndef RANKHOW_CORE_SOLVE_SESSION_H_
#define RANKHOW_CORE_SOLVE_SESSION_H_

/// \file solve_session.h
/// The persistent cross-query solver layer: one SolveSession serves a
/// *sequence* of OPT queries that differ by deltas — add/remove/tighten a
/// weight constraint, add an order or position constraint, change ε or the
/// objective, append tuples — reusing everything the previous queries paid
/// for instead of rebuilding the world per RankHow::Solve():
///
///  * **Model cache** — the compiled Equation-(2) MILP survives across
///    solves; constraint-add edits patch it in place (one appended LP row,
///    every existing variable/row id stable — see AppendWeightConstraintRow)
///    and only structural edits (ε, objective, tuples, removals) trigger a
///    full BuildOptModel recompile.
///  * **Incumbent pool** — every solve's winning weight vector (plus the
///    presolve winner that seeded it) is pooled; the next solve re-validates
///    the pool against the edited problem (presolve.h's
///    RevalidateIncumbents) instead of multi-starting cold. A tightening
///    edit keeps many entries feasible; a relaxing edit keeps all of them.
///  * **Bound reuse** — after a constraints-only *tightening* edit, the
///    feasible set shrank while the objective is unchanged, so the previous
///    solve's proven optimum is a valid lower bound on the new optimum. The
///    session seeds it into the exact search (BnbOptions /
///    SpatialBnbOptions external_lower_bound, the SAT search's initial lo);
///    when a pooled incumbent still meets it, the search closes at the root
///    with zero nodes. Any relaxing or structural edit invalidates the
///    bound (the pool is still reused).
///  * **Warm spatial oracle** — serial spatial re-solves share one
///    BoxFeasibilityOracle across queries (rebuilt on constraint-set
///    revision change), so adjacent queries resolve their box-feasibility
///    LPs from each other's bases.
///
/// Soundness rules (the "incumbent-pool soundness" contract; see DESIGN.md
/// "Session architecture"):
///  * Pool entries are *candidates*, never bounds: each is re-evaluated
///    under the current problem before use, so stale entries cost time,
///    never correctness.
///  * The reused lower bound must compare like semantics with like: the
///    spatial strategy proves the true ε-tie optimum while the MILP/SAT
///    strategies prove the (ε₂, ε₁)-gap optimum, which the true optimum
///    never exceeds. A spatial bound therefore also seeds a MILP/SAT
///    re-solve, but not the other way around.
///  * Edits must go through the edit API below. Mutating problem() behind
///    the session's back would desynchronize the caches; problem() is
///    exposed read-only.
///
/// Typical use (the Sec. I RankHow scenario):
///   SolveSession session(data, given, options);
///   auto r0 = session.Solve();                       // cold
///   session.AddWeightConstraint({{{pts, 1.0}}, RelOp::kGe, 0.1, "min_PTS"});
///   auto r1 = session.Solve();                       // patched + warm
///   session.RemoveWeightConstraint("min_PTS");
///   auto r2 = session.Solve();                       // rebuilt, pool warm

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/opt_model_builder.h"
#include "core/opt_problem.h"
#include "core/rankhow.h"
#include "core/shared_incumbent_pool.h"
#include "core/warm_cache.h"
#include "data/dataset.h"
#include "data/shared_dataset.h"
#include "ranking/ranking.h"
#include "ranking/shared_ranking.h"
#include "util/status.h"

namespace rankhow {

/// Reuse accounting for one session (cumulative across its solves).
struct SolveSessionStats {
  int64_t solves = 0;
  /// Full BuildOptModel compilations (first solve + structural edits).
  int64_t model_builds = 0;
  /// Delta row appends on the cached model (constraint-add edits).
  int64_t model_patches = 0;
  /// Cold multi-start presolves (first solve + pool wipe-outs).
  int64_t presolve_runs = 0;
  /// Pool revalidation passes that produced a warm incumbent.
  int64_t pool_hits = 0;
  /// Solves entered with a reusable proven lower bound.
  int64_t bound_seeds = 0;
  /// Pool-overflow evictions (dominated-entry policy; see DESIGN.md).
  int64_t pool_evictions = 0;
  /// Pure-ε edits absorbed as in-place rhs patches on the cached model
  /// (vs the full recompile they used to force; see PatchEpsilonInPlace).
  int64_t eps_patches = 0;
  /// Solves whose external lower bound came from an exact-fingerprint
  /// warm-cache entry (tighten-only; semantics-checked like bound_seeds).
  /// The cache counts its own draws and publishes (WarmCache::Stats); only
  /// the session sees whether a drawn bound was used.
  int64_t fingerprint_bound_seeds = 0;
  /// Private ranking copies this session made (Reset on a shared snapshot).
  int64_t ranking_forks = 0;
};

/// The per-query delta classes (see DESIGN.md "Session architecture").
enum class SessionDeltaKind {
  /// Feasible set shrank, objective unchanged: previous proven optimum
  /// stays a lower bound; pool entries re-validate individually.
  kTighten,
  /// Feasible set grew, objective unchanged: every pool entry stays
  /// feasible (upper bounds); the previous lower bound is void.
  kRelax,
  /// Objective or instance changed (ε, objective spec, appended tuples):
  /// bounds void, model recompiled, pool entries re-validate individually.
  kStructural,
};

/// A long-lived solver session over one dataset + given ranking. Both are
/// held through copy-on-write handles: sessions constructed from the same
/// SharedDataset/SharedRanking handles read one immutable snapshot each,
/// and the edits that mutate them (AppendTuple) fork private copies only
/// for the editing session (the server's many-clients-few-datasets shape;
/// see DESIGN.md "Server architecture"). Not thread-safe — run concurrent
/// sessions on separate instances (see SessionRegistry / rankhow_cli's
/// batch mode); each solve may still use options.num_threads workers
/// internally.
class SolveSession {
 public:
  /// Wraps the dataset into a fresh private snapshot (the pre-server
  /// single-session constructor; nothing shares until the caller copies
  /// shared_data()).
  SolveSession(Dataset data, Ranking given,
               RankHowOptions options = RankHowOptions());
  /// Shares the dataset handle's snapshot; the ranking gets a fresh
  /// private snapshot.
  SolveSession(SharedDataset data, Ranking given,
               RankHowOptions options = RankHowOptions());
  /// Shares both snapshots with every other session holding the handles
  /// (the registry path: K sessions on one dataset + one given ranking
  /// hold one physical copy of each).
  SolveSession(SharedDataset data, SharedRanking given,
               RankHowOptions options = RankHowOptions());

  /// Not movable/copyable: problem_ holds pointers into the owned dataset
  /// and ranking. Heap-allocate (see rankhow_cli) to pass sessions around.
  SolveSession(const SolveSession&) = delete;
  SolveSession& operator=(const SolveSession&) = delete;

  // ------------------------------------------------------------- queries
  const OptProblem& problem() const { return problem_; }
  const Dataset& data() const { return data_.get(); }
  /// The COW handle (copy it to share the snapshot with a new session).
  const SharedDataset& shared_data() const { return data_; }
  const Ranking& given() const { return given_.get(); }
  /// The COW ranking handle (copy it to share the snapshot).
  const SharedRanking& shared_given() const { return given_; }
  const SolveSessionStats& stats() const { return stats_; }
  /// The per-solve wall-clock budget (RankHowOptions::time_limit_seconds;
  /// 0 = unlimited). Mutable so per-request deadlines (the wire `deadline`
  /// verb) can narrow one solve and restore the configured limit after —
  /// a budget knob only, never a cache-invalidating edit.
  double time_limit_seconds() const { return options_.time_limit_seconds; }
  void set_time_limit_seconds(double seconds) {
    options_.time_limit_seconds = seconds;
  }
  size_t incumbent_pool_size() const { return pool_.size(); }
  /// Recorded true errors of the pooled incumbents, most recent first
  /// (diagnostics; the eviction regression test reads this).
  std::vector<long> incumbent_pool_errors() const;

  /// Attaches the registry-level cross-client incumbent pool (non-owning;
  /// must outlive the session; nullptr detaches). Every subsequent Solve
  /// draws the siblings' newly published winners as extra revalidation
  /// *candidates* — never bounds — and publishes its own proven winner
  /// back. The pool is internally locked; the session itself stays
  /// single-threaded.
  void SetSharedIncumbentPool(SharedIncumbentPool* pool) {
    shared_pool_ = pool;
  }

  /// Attaches the persistent warm-start cache (non-owning; must outlive
  /// the session; nullptr detaches). Every subsequent Solve fingerprints
  /// its problem and draws matching entries — exact matches join the
  /// revalidation pool and may seed a tighten-only external bound
  /// (semantics-checked), mismatches are demoted to candidates — and
  /// publishes its proven winner back.
  void AttachWarmCache(WarmCache* cache) { warm_cache_ = cache; }

  // ------------------------------------------------------------- edits
  /// Adds a predicate-P constraint (kTighten; patches the cached model).
  Status AddWeightConstraint(WeightConstraint constraint);
  /// Removes every P constraint named `name` (kRelax; recompiles the model
  /// on the next solve). kNotFound when no constraint carries the name.
  Status RemoveWeightConstraint(const std::string& name);
  /// Adds "above must outscore below" (kTighten; patches the cached model).
  Status AddOrderConstraint(int above, int below);
  /// Adds a position-range constraint (kTighten). Structural when the tuple
  /// is unranked and new to the model (it needs indicator variables).
  Status AddPositionConstraint(PositionConstraint constraint);
  /// Changes the ε machinery (kStructural).
  Status SetEpsilon(const EpsilonConfig& eps);
  /// Changes the ranking objective (kStructural).
  Status SetObjective(const RankingObjectiveSpec& objective);
  /// Appends an unranked tuple — one value per attribute (kStructural:
  /// every ranked tuple gains an indicator pair against it). Returns the
  /// new tuple id through `id_out` when non-null.
  Status AppendTuple(const std::vector<double>& values, int* id_out = nullptr);

  // ------------------------------------------------------------- solving
  /// Solves the current problem state, reusing the session caches. The
  /// result is exactly what a fresh RankHow::Solve() of the same problem
  /// would prove (the session equivalence suite asserts this per edit
  /// step); only the work to get there shrinks.
  Result<RankHowResult> Solve();

 private:
  void NoteEdit(SessionDeltaKind kind);
  /// The cached-or-rebuilt compiled model for MILP/SAT strategies.
  Result<const OptModel*> EnsureModel();
  /// The canonical fingerprint of the current problem, with the expensive
  /// components cached (dataset hash until the instance changes, the
  /// constraint hash at WeightConstraintSet::revision() granularity).
  ProblemFingerprint CurrentFingerprint();

  SharedDataset data_;
  SharedRanking given_;
  RankHowOptions options_;
  OptProblem problem_;
  SolveSessionStats stats_;

  // Model cache (MILP/SAT strategies). `model_dirty_` forces a recompile;
  // `pending_patch_rows_` holds constraint-add deltas to apply in place.
  std::unique_ptr<OptModel> model_;
  bool model_dirty_ = true;
  std::vector<WeightConstraint> pending_weight_rows_;
  std::vector<PairwiseOrderConstraint> pending_order_rows_;

  // Incumbent pool: most recent first, capped at
  // options_.incumbent_pool_cap. Overflow evicts by domination, not
  // recency: entries that were a solve's winner ("optimal for some past
  // constraint set", per ROADMAP) outlive seed echoes, the lowest-error
  // anchor is never evicted (it re-warms deep relax edits), and among
  // redundant winners the one whose recorded error its neighbors already
  // cover goes first. See Remember/EvictOne in solve_session.cc.
  struct PoolEntry {
    std::vector<double> weights;
    /// True ε-tie objective when recorded; refreshed from the current
    /// problem during eviction (stale after structural edits until then).
    long error = -1;
    /// This entry was a solve's winning incumbent (vs a warm-seed echo).
    bool winner = false;
  };
  void Remember(const std::vector<double>& weights, bool winner,
                long known_error);
  void EvictOne();
  std::vector<PoolEntry> pool_;

  // Previous-solve snapshot for bound reuse.
  bool have_proven_ = false;
  long proven_optimum_ = -1;
  bool proven_true_semantics_ = false;  // spatial (true ε-tie) vs MILP gap
  bool bound_valid_ = true;  // false after any relax/structural edit

  // Serial spatial solves share one warm oracle across queries.
  std::unique_ptr<BoxFeasibilityOracle> box_oracle_;

  // Cross-client sharing (see shared_incumbent_pool.h): draws are
  // revision-checked through `shared_seen_seq_`, so an unchanged pool costs
  // one lock per solve and no entry is revalidated twice by one session.
  SharedIncumbentPool* shared_pool_ = nullptr;
  uint64_t shared_seen_seq_ = 0;

  // Persistent warm cache (see core/warm_cache.h). Draws are
  // generation-checked: an unchanged cache is not re-drawn for an
  // unchanged fingerprint (entries already drawn re-enter through the
  // session pool if they proved useful). `cache_bound_` is the external
  // lower bound drawn with the current fingerprint (-1 = none), valid for
  // exactly as long as the fingerprint it was drawn under.
  WarmCache* warm_cache_ = nullptr;
  uint64_t cached_dataset_fp_ = 0;
  bool have_dataset_fp_ = false;
  uint64_t cached_constraint_hash_ = 0;
  uint64_t cached_constraint_rev_ = 0;
  bool have_constraint_hash_ = false;
  bool cache_drawn_ = false;
  ProblemFingerprint cache_drawn_fp_;
  uint64_t cache_drawn_generation_ = 0;
  bool cache_drawn_gap_semantics_ = false;
  long cache_bound_ = -1;
};

}  // namespace rankhow

#endif  // RANKHOW_CORE_SOLVE_SESSION_H_
