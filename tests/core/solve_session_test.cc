// Randomized session-vs-cold equivalence suite for SolveSession: apply a
// random sequence of constraint/ε edits and assert that the session's
// proven optimum equals a cold RankHow::Solve() of the identical problem at
// every step, at 1 and 4 workers.
//
// Semantics note (mirrors tests/concurrency/parallel_search_test.cc): the
// exact-equality assertion runs on the spatial strategy (its true ε-tie
// optimum is fully invariant) and on the pure indicator MILP (heuristic and
// presolve off — but the session's *pool* can still inject true-error warm
// incumbents, which may legitimately beat the (ε₂, ε₁)-gap optimum). The
// MILP-path test therefore asserts the sound band: spatial optimum <=
// session claimed <= pure-MILP optimum, with exact equality whenever the
// band is a single point (which, at these ε, it almost always is).

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rankhow.h"
#include "core/solve_session.h"
#include "math/simplex_box.h"
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

/// A cold solver over exactly the session's current problem state.
Result<RankHowResult> ColdSolve(const SolveSession& session,
                                const RankHowOptions& options) {
  RankHow cold(session.data(), session.given(), options);
  cold.problem() = session.problem();
  cold.problem().data = &session.data();
  cold.problem().given = &session.given();
  return cold.Solve();
}

/// Applies one random edit to the session; returns a description. Edits are
/// chosen to keep the instance feasible: weight floors stay small, ceilings
/// stay above 1/m, removals target previously added names.
std::string RandomEdit(Rng& rng, SolveSession* session, int m,
                       std::vector<std::string>* added, int* name_counter) {
  const int kind = static_cast<int>(rng.NextBelow(10));
  if (kind < 5 || added->empty()) {
    // Add a weight floor/ceiling.
    const int attr = static_cast<int>(rng.NextBelow(m));
    const bool is_min = rng.NextBelow(2) == 0;
    const double bound = is_min ? rng.NextUniform(0.0, 0.12)
                                : rng.NextUniform(0.5, 1.0);
    WeightConstraint c;
    c.terms = {{attr, 1.0}};
    c.op = is_min ? RelOp::kGe : RelOp::kLe;
    c.rhs = bound;
    c.name = "edit" + std::to_string((*name_counter)++);
    (*added).push_back(c.name);
    EXPECT_TRUE(session->AddWeightConstraint(c).ok());
    return (is_min ? "min w" : "max w") + std::to_string(attr);
  }
  if (kind < 7) {
    // Remove a previously added constraint (relaxing edit).
    const size_t i = rng.NextBelow(added->size());
    std::string name = (*added)[i];
    added->erase(added->begin() + i);
    EXPECT_TRUE(session->RemoveWeightConstraint(name).ok());
    return "drop " + name;
  }
  if (kind < 9) {
    // Scale ε₁ (structural edit). tie_eps stays between eps2 and eps1.
    EpsilonConfig eps = session->problem().eps;
    eps.eps1 = rng.NextBelow(2) == 0 ? 2e-6 : 1e-6;
    EXPECT_TRUE(session->SetEpsilon(eps).ok());
    return "eps1";
  }
  // Append an unranked tuple (structural edit).
  std::vector<double> values(m);
  for (int a = 0; a < m; ++a) values[a] = rng.NextUniform(0, 1);
  EXPECT_TRUE(session->AppendTuple(values).ok());
  return "append";
}

TEST(SolveSessionTest, SpatialEqualsColdUnderRandomEdits) {
  // The headline equivalence: full-featured spatial solves, session vs
  // cold, at 1 and 4 workers, over randomized edit sequences.
  for (int threads : {1, 4}) {
    for (uint64_t seed : {41u, 42u, 43u}) {
      Rng rng(seed);
      Dataset data = RandomDataset(rng, 13, 3);
      Ranking given = RandomRanking(rng, 13, 6);

      RankHowOptions options;
      options.eps = TestEps();
      options.strategy = SolveStrategy::kSpatial;
      options.num_threads = threads;

      SolveSession session(data, given, options);
      std::vector<std::string> added;
      int name_counter = 0;
      for (int step = 0; step < 7; ++step) {
        std::string desc = step == 0
                               ? "cold"
                               : RandomEdit(rng, &session, 3, &added,
                                            &name_counter);
        auto sres = session.Solve();
        auto cres = ColdSolve(session, options);
        ASSERT_TRUE(sres.ok()) << "seed=" << seed << " step=" << step
                               << " (" << desc
                               << "): " << sres.status().ToString();
        ASSERT_TRUE(cres.ok()) << "seed=" << seed << " step=" << step
                               << " (" << desc
                               << "): " << cres.status().ToString();
        EXPECT_TRUE(sres->proven_optimal)
            << "seed=" << seed << " step=" << step << " (" << desc << ")";
        EXPECT_TRUE(cres->proven_optimal)
            << "seed=" << seed << " step=" << step << " (" << desc << ")";
        EXPECT_EQ(sres->error, cres->error)
            << "seed=" << seed << " threads=" << threads << " step=" << step
            << " (" << desc << "): session and cold disagree";
      }
      EXPECT_EQ(session.stats().solves, 7);
      EXPECT_GT(session.stats().pool_hits, 0);
    }
  }
}

TEST(SolveSessionTest, MilpStaysInSoundBandUnderRandomEdits) {
  // Pure-MILP session vs cold: the session's pool may inject true-error
  // incumbents the cold pure run has no access to, so assert the sound band
  // [spatial true optimum, pure MILP optimum] instead of blind equality.
  RankHowOptions pure;
  pure.eps = TestEps();
  pure.strategy = SolveStrategy::kIndicatorMilp;
  pure.use_primal_heuristic = false;
  pure.use_presolve = false;

  RankHowOptions spatial = pure;
  spatial.strategy = SolveStrategy::kSpatial;

  for (uint64_t seed : {51u, 52u}) {
    Rng rng(seed);
    Dataset data = RandomDataset(rng, 12, 3);
    Ranking given = RandomRanking(rng, 12, 6);

    SolveSession session(data, given, pure);
    std::vector<std::string> added;
    int name_counter = 0;
    for (int step = 0; step < 5; ++step) {
      if (step > 0) RandomEdit(rng, &session, 3, &added, &name_counter);
      auto sres = session.Solve();
      auto milp = ColdSolve(session, pure);
      auto spat = ColdSolve(session, spatial);
      ASSERT_TRUE(sres.ok()) << sres.status().ToString();
      ASSERT_TRUE(milp.ok()) << milp.status().ToString();
      ASSERT_TRUE(spat.ok()) << spat.status().ToString();
      EXPECT_TRUE(sres->proven_optimal) << "seed=" << seed
                                        << " step=" << step;
      EXPECT_GE(sres->claimed_error, spat->claimed_error)
          << "seed=" << seed << " step=" << step
          << ": session claimed below the true optimum (unsound)";
      EXPECT_LE(sres->claimed_error, milp->claimed_error)
          << "seed=" << seed << " step=" << step
          << ": session claimed above the pure MILP optimum (lost "
             "incumbent)";
    }
  }
}

TEST(SolveSessionTest, ConstraintAddsPatchTheCachedModel) {
  Rng rng(61);
  Dataset data = RandomDataset(rng, 12, 4);
  Ranking given = RandomRanking(rng, 12, 6);

  RankHowOptions options;
  options.eps = TestEps();
  options.strategy = SolveStrategy::kIndicatorMilp;

  SolveSession session(data, given, options);
  ASSERT_TRUE(session.Solve().ok());
  EXPECT_EQ(session.stats().model_builds, 1);

  WeightConstraint c;
  c.terms = {{0, 1.0}};
  c.op = RelOp::kGe;
  c.rhs = 0.05;
  c.name = "floor0";
  ASSERT_TRUE(session.AddWeightConstraint(c).ok());
  ASSERT_TRUE(session.AddOrderConstraint(given.ranked_tuples()[0],
                                         given.ranked_tuples()[1])
                  .ok());
  auto r = session.Solve();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Both edits were row appends on the cached model — no recompile.
  EXPECT_EQ(session.stats().model_builds, 1);
  EXPECT_EQ(session.stats().model_patches, 2);

  // A removal is structural for the model: next solve recompiles.
  ASSERT_TRUE(session.RemoveWeightConstraint("floor0").ok());
  ASSERT_TRUE(session.Solve().ok());
  EXPECT_EQ(session.stats().model_builds, 2);
}

TEST(SolveSessionTest, EpsilonEditsPatchRhsInPlace) {
  // The ε-edit carry-over bugfix: eps* verbs only move indicator/order-row
  // right-hand sides, so they must patch the compiled model in place — no
  // recompile, warm state intact — while still matching a cold solve of the
  // new thresholds exactly.
  Rng rng(66);
  Dataset data = RandomDataset(rng, 12, 3);
  Ranking given = RandomRanking(rng, 12, 6);

  RankHowOptions options;
  options.eps = TestEps();
  options.strategy = SolveStrategy::kIndicatorMilp;

  SolveSession session(data, given, options);
  ASSERT_TRUE(session.Solve().ok());
  EXPECT_EQ(session.stats().model_builds, 1);
  EXPECT_EQ(session.stats().eps_patches, 0);

  // Tighten: ε₁ up, ε₂ down. Dataset diffs are O(0.1), so the fixing slack
  // dwarfs the new thresholds and the patch must succeed.
  EpsilonConfig tightened = session.problem().eps;
  tightened.eps1 = 2e-6;
  tightened.eps2 = -1e-7;
  ASSERT_TRUE(session.SetEpsilon(tightened).ok());
  auto after_tighten = session.Solve();
  ASSERT_TRUE(after_tighten.ok()) << after_tighten.status().ToString();
  EXPECT_TRUE(after_tighten->proven_optimal);
  EXPECT_EQ(session.stats().model_builds, 1)
      << "an ε-only tighten recompiled the model (patch regression)";
  EXPECT_EQ(session.stats().eps_patches, 1);

  // Relax back: still rhs-only, still a patch, and the re-solve must agree
  // with a cold solve at the restored thresholds.
  ASSERT_TRUE(session.SetEpsilon(TestEps()).ok());
  auto relaxed = session.Solve();
  auto cold = ColdSolve(session, options);
  ASSERT_TRUE(relaxed.ok()) << relaxed.status().ToString();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(relaxed->proven_optimal);
  EXPECT_EQ(relaxed->error, cold->error);
  EXPECT_EQ(session.stats().model_builds, 1);
  EXPECT_EQ(session.stats().eps_patches, 2);

  // A genuinely structural edit still rebuilds — the patch path must not
  // have eaten the recompile logic.
  ASSERT_TRUE(session.AppendTuple({0.5, 0.5, 0.5}).ok());
  ASSERT_TRUE(session.Solve().ok());
  EXPECT_EQ(session.stats().model_builds, 2);
}

TEST(SolveSessionTest, ScreenedModelSurvivesEpsilonPatchAndOrderRow) {
  // A weight floor makes the model's box more than the full simplex's
  // corner, so the build fixes through score ranges and the model keeps a
  // score screen for its primal heuristic. The session then edits that
  // model twice in place: an ε patch that lowers tie_eps, and an order row
  // on a low-scoring unranked tuple the screen leaves out. Every solve must
  // equal a cold solve of the same problem.
  Rng rng(72);
  const int n = 1000;
  const int m = 3;
  Dataset data = RandomDataset(rng, n, m);
  std::vector<double> noisy = data.Scores({0.7, 0.2, 0.1});
  for (double& score : noisy) score += rng.NextUniform(0.0, 0.02);
  Ranking given = Ranking::FromScores(noisy, 6, 0.0);

  RankHowOptions options;
  options.eps.tie_eps = 1e-3;
  options.eps.eps1 = 2e-3;
  options.eps.eps2 = 0.0;
  options.strategy = SolveStrategy::kIndicatorMilp;
  SolveSession session(data, given, options);
  WeightConstraint floor;
  floor.terms = {{0, 1.0}};
  floor.op = RelOp::kGe;
  floor.rhs = 0.7;
  floor.name = "floor0";
  ASSERT_TRUE(session.AddWeightConstraint(floor).ok());

  std::vector<double> optimum;
  int64_t nodes = 0;
  auto expect_cold = [&](const char* step) {
    auto warm = session.Solve();
    auto cold = ColdSolve(session, options);
    ASSERT_TRUE(warm.ok()) << step << ": " << warm.status().ToString();
    ASSERT_TRUE(cold.ok()) << step << ": " << cold.status().ToString();
    EXPECT_TRUE(warm->proven_optimal) << step;
    EXPECT_TRUE(cold->proven_optimal) << step;
    EXPECT_EQ(warm->error, cold->error) << step;
    optimum = warm->function.weights;
    nodes = warm->stats.nodes_explored;
  };
  expect_cold("first solve");
  EXPECT_EQ(session.stats().model_builds, 1);

  EpsilonConfig lowered = session.problem().eps;
  lowered.tie_eps = 0.0;
  ASSERT_TRUE(session.SetEpsilon(lowered).ok());
  expect_cold("tie_eps lowered");
  EXPECT_EQ(session.stats().eps_patches, 1);

  // An order constraint between two low-scoring unranked tuples, against
  // their order at the last optimum but satisfiable elsewhere in the box:
  // the pooled optimum breaks it, so the re-solve searches with the row.
  ASSERT_EQ(optimum.size(), static_cast<size_t>(m));
  const std::vector<double> scores = data.Scores(optimum);
  std::vector<int> low(n);
  for (int t = 0; t < n; ++t) low[t] = t;
  std::sort(low.begin(), low.end(),
            [&](int a, int b) { return scores[a] < scores[b]; });
  WeightBox floor_box = WeightBox::FullSimplex(m);
  floor_box.lo[0] = floor.rhs;
  std::optional<PairwiseOrderConstraint> against;
  for (int i = 0; i < 20 && !against.has_value(); ++i) {
    for (int j = i + 1; j < 20; ++j) {
      auto range =
          DotRangeOnSimplexBox(data.DiffVector(low[i], low[j]), floor_box);
      ASSERT_TRUE(range.ok());
      if (range->max > 0.01) {
        against = PairwiseOrderConstraint{low[i], low[j]};
        break;
      }
    }
  }
  ASSERT_TRUE(against.has_value());
  ASSERT_FALSE(given.IsRanked(against->above));
  ASSERT_FALSE(given.IsRanked(against->below));
  ASSERT_TRUE(
      session.AddOrderConstraint(against->above, against->below).ok());
  expect_cold("order row appended");
  EXPECT_GT(nodes, 0) << "the re-solve closed without searching";
  EXPECT_EQ(session.stats().model_builds, 1)
      << "the ε patch or the order row recompiled the model";
  EXPECT_EQ(session.stats().model_patches, 1);
}

TEST(SolveSessionTest, SessionsShareOneRankingBuffer) {
  // The deep-copy carry-over bugfix: K sessions built from one SharedRanking
  // handle read one physical π buffer; an AppendTuple re-points only the
  // editing session (counted as a ranking fork) and frees the shared
  // snapshot only when the last holder drops it.
  Rng rng(67);
  SharedDataset data(RandomDataset(rng, 12, 3));
  SharedRanking given(RandomRanking(rng, 12, 6));
  std::weak_ptr<const Ranking> observer = given.snapshot();

  RankHowOptions options;
  options.eps = TestEps();
  options.strategy = SolveStrategy::kSpatial;

  {
    SolveSession a(data, SharedRanking(given), options);
    SolveSession b(data, SharedRanking(given), options);
    EXPECT_TRUE(a.shared_given().SharesSnapshotWith(b.shared_given()));
    EXPECT_EQ(&a.given(), &b.given());

    ASSERT_TRUE(a.AppendTuple({0.5, 0.5, 0.5}).ok());
    EXPECT_EQ(a.stats().ranking_forks, 1);
    EXPECT_FALSE(a.shared_given().SharesSnapshotWith(b.shared_given()));
    EXPECT_EQ(b.given().position(0), given.get().position(0));
    EXPECT_EQ(b.stats().ranking_forks, 0);
  }
  EXPECT_FALSE(observer.expired()) << "the local handle still holds it";
  given = SharedRanking();
  EXPECT_TRUE(observer.expired())
      << "last handle dropped; the shared ranking must be freed";
}

TEST(SolveSessionTest, RedundantTighteningClosesAtTheRoot) {
  // A tightening edit that does not change the optimum: the pooled
  // incumbent still meets the seeded bound, so the re-solve must close at
  // the root without exploring a single node/box.
  Rng rng(62);
  Dataset data = RandomDataset(rng, 13, 3);
  Ranking given = RandomRanking(rng, 13, 6);

  RankHowOptions options;
  options.eps = TestEps();
  options.strategy = SolveStrategy::kSpatial;

  SolveSession session(data, given, options);
  auto first = session.Solve();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->proven_optimal);

  WeightConstraint noop;  // w0 >= 0 holds everywhere on the simplex
  noop.terms = {{0, 1.0}};
  noop.op = RelOp::kGe;
  noop.rhs = 0.0;
  noop.name = "noop";
  ASSERT_TRUE(session.AddWeightConstraint(noop).ok());
  auto second = session.Solve();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->proven_optimal);
  EXPECT_EQ(second->error, first->error);
  EXPECT_EQ(second->stats.nodes_explored, 0)
      << "bound seed + pool incumbent should close the search at the root";
  EXPECT_GT(session.stats().bound_seeds, 0);
}

TEST(SolveSessionTest, EditValidation) {
  Rng rng(63);
  Dataset data = RandomDataset(rng, 10, 3);
  Ranking given = RandomRanking(rng, 10, 5);
  SolveSession session(data, given, RankHowOptions{});

  EXPECT_EQ(session.RemoveWeightConstraint("nope").code(),
            StatusCode::kNotFound);
  WeightConstraint bad;
  bad.terms = {{7, 1.0}};
  EXPECT_EQ(session.AddWeightConstraint(bad).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.AddOrderConstraint(0, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.AppendTuple({1.0}).code(),
            StatusCode::kInvalidArgument);
  EpsilonConfig bad_eps;
  bad_eps.eps1 = 0;
  bad_eps.tie_eps = 1;
  EXPECT_EQ(session.SetEpsilon(bad_eps).code(),
            StatusCode::kInvalidArgument);
}

TEST(SolveSessionTest, RelaxAfterLongTightenWarmStartsFromDominatedEntry) {
  // ROADMAP's incumbent-pool diversity item: a long tighten run used to
  // flush the pool's low-error entries by pure recency, so relaxing back
  // fell to a cold presolve. Dominated-entry eviction keeps the cold
  // optimum w0 as the low-error anchor — it is optimal for a *past*
  // constraint set (the empty one) even while the tighter states dominate
  // it — and the relax re-solve warm-starts from it.
  Rng rng(65);
  Dataset data = RandomDataset(rng, 13, 3);
  Ranking given = RandomRanking(rng, 13, 6);

  RankHowOptions options;
  options.eps = TestEps();
  options.strategy = SolveStrategy::kSpatial;
  options.incumbent_pool_cap = 3;  // small cap: overflow after a few edits

  SolveSession session(data, given, options);
  auto first = session.Solve();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->proven_optimal);
  const long e0 = first->error;

  // Tighten run: alternate rising floors across attributes so each step's
  // optimum (and pooled winner) keeps moving.
  const std::pair<int, double> floors[] = {
      {0, 0.20}, {1, 0.20}, {2, 0.20}, {0, 0.32}, {1, 0.30}};
  int added = 0;
  for (const auto& [attr, floor] : floors) {
    WeightConstraint c;
    c.terms = {{attr, 1.0}};
    c.op = RelOp::kGe;
    c.rhs = floor;
    c.name = "tighten" + std::to_string(added++);
    ASSERT_TRUE(session.AddWeightConstraint(c).ok());
    auto r = session.Solve();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->proven_optimal);
  }
  ASSERT_GT(session.stats().pool_evictions, 0)
      << "the tighten run never overflowed the cap — tighten harder";
  std::vector<long> pooled = session.incumbent_pool_errors();
  EXPECT_NE(std::find(pooled.begin(), pooled.end(), e0), pooled.end())
      << "the dominated low-error anchor was evicted (recency regression)";

  // Relax everything: revalidation must warm-start from the anchor (no
  // cold presolve fallback on THIS step — mid-tighten fallbacks are legal
  // when a floor knocks out every pooled entry) and the re-solve re-proves
  // the original optimum.
  const int64_t pool_hits = session.stats().pool_hits;
  const int64_t presolves_before_relax = session.stats().presolve_runs;
  for (int i = 0; i < added; ++i) {
    ASSERT_TRUE(
        session.RemoveWeightConstraint("tighten" + std::to_string(i)).ok());
  }
  auto relaxed = session.Solve();
  ASSERT_TRUE(relaxed.ok()) << relaxed.status().ToString();
  EXPECT_TRUE(relaxed->proven_optimal);
  EXPECT_EQ(relaxed->error, e0);
  EXPECT_EQ(session.stats().presolve_runs, presolves_before_relax)
      << "the relax re-solve fell back to a cold multi-start";
  EXPECT_GT(session.stats().pool_hits, pool_hits);
}

TEST(SolveSessionTest, AppendTupleMatchesColdSolve) {
  Rng rng(64);
  Dataset data = RandomDataset(rng, 12, 3);
  Ranking given = RandomRanking(rng, 12, 6);

  RankHowOptions options;
  options.eps = TestEps();
  options.strategy = SolveStrategy::kSpatial;

  SolveSession session(data, given, options);
  ASSERT_TRUE(session.Solve().ok());
  for (int i = 0; i < 2; ++i) {
    std::vector<double> values(3);
    for (double& v : values) v = rng.NextUniform(0, 1);
    int id = -1;
    ASSERT_TRUE(session.AppendTuple(values, &id).ok());
    EXPECT_EQ(id, 12 + i);
    auto sres = session.Solve();
    auto cres = ColdSolve(session, options);
    ASSERT_TRUE(sres.ok());
    ASSERT_TRUE(cres.ok());
    EXPECT_TRUE(sres->proven_optimal);
    EXPECT_EQ(sres->error, cres->error);
  }
  EXPECT_EQ(session.data().num_tuples(), 14);
}

}  // namespace
}  // namespace rankhow
