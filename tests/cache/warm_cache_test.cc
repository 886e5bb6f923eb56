// The persistent warm-start cache suite: on-disk round-trips with the
// journal's torn-tail/CRC-corruption tolerance, the fingerprint soundness
// rule (exact match may seed a tighten-only bound under the semantics
// check; ANY mismatch demotes to a revalidation candidate and NEVER
// surfaces a bound), canonical fingerprint invariance, and end-to-end
// SolveSession draws — a second session over the identical problem must
// report the identical proven error while drawing warm state, and a
// constraint-edited session must see demotions only.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/solve_session.h"
#include "core/warm_cache.h"
#include "util/random.h"

namespace rankhow {
namespace {

/// A self-deleting scratch directory for cache files.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/rankhow_cache_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "/tmp";
  }
  ~TempDir() {
    ::remove((path + "/warm.cache").c_str());
    ::rmdir(path.c_str());
  }
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

WarmCacheOptions SyncOptions() {
  WarmCacheOptions options;
  options.synchronous_appends = true;  // tests reopen right after publishing
  return options;
}

WarmCache::Entry MakeEntry(uint64_t dfp, uint64_t pfp, long error,
                           std::vector<double> weights,
                           bool true_semantics = true) {
  WarmCache::Entry e;
  e.fp.dataset_fp = dfp;
  e.fp.problem_fp = pfp;
  e.true_semantics = true_semantics;
  e.error = error;
  e.weights = std::move(weights);
  return e;
}

TEST(WarmCacheTest, RoundTripsAcrossReopen) {
  TempDir dir;
  {
    auto cache = WarmCache::Open(dir.path, SyncOptions());
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    (*cache)->Publish(MakeEntry(0x11, 0xaa, 3, {0.25, 0.75}));
    (*cache)->Publish(MakeEntry(0x11, 0xbb, 5, {1.0 / 3.0, 2.0 / 3.0}));
  }
  auto cache = WarmCache::Open(dir.path, SyncOptions());
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  WarmCacheStats stats = (*cache)->Stats();
  EXPECT_EQ(stats.loaded, 2);
  EXPECT_EQ(stats.skipped, 0);
  EXPECT_EQ(stats.truncated, 0);
  EXPECT_EQ(stats.entries, 2);

  WarmCache::Draw draw = (*cache)->DrawFor({0x11, 0xaa}, /*gap_semantics=*/true);
  ASSERT_EQ(draw.exact.size(), 1u);
  EXPECT_EQ(draw.exact[0].error, 3);
  // %.17g framing: the awkward binary fraction round-trips bit-exactly.
  ASSERT_EQ(draw.candidates.size(), 1u);
  EXPECT_EQ(draw.candidates[0][0], 1.0 / 3.0);
  EXPECT_EQ(draw.bound, 3);
}

TEST(WarmCacheTest, MismatchDemotesToCandidateAndNeverSeedsABound) {
  // The soundness negative test: a same-dataset entry whose problem
  // fingerprint mismatches the draw is handed out as a revalidation
  // candidate with its recorded error DISCARDED — Draw::bound must stay -1
  // no matter how good the stale entry's error looks.
  TempDir dir;
  auto cache = WarmCache::Open(dir.path, SyncOptions());
  ASSERT_TRUE(cache.ok());
  (*cache)->Publish(MakeEntry(0x11, 0xaa, /*error=*/0, {0.5, 0.5}));

  WarmCache::Draw draw = (*cache)->DrawFor({0x11, 0xdead}, true);
  EXPECT_TRUE(draw.exact.empty());
  ASSERT_EQ(draw.candidates.size(), 1u);
  EXPECT_EQ(draw.candidates[0], (std::vector<double>{0.5, 0.5}));
  EXPECT_EQ(draw.bound, -1)
      << "a fingerprint-mismatched entry seeded a bound (UNSOUND)";
  EXPECT_EQ((*cache)->Stats().demotions, 1);
  EXPECT_EQ((*cache)->Stats().hits, 0);
  EXPECT_EQ((*cache)->Stats().misses, 1);
}

TEST(WarmCacheTest, OtherDatasetsNeverSurface) {
  // Entries over a different dataset are not even dimension-compatible:
  // they must not appear as candidates either.
  TempDir dir;
  auto cache = WarmCache::Open(dir.path, SyncOptions());
  ASSERT_TRUE(cache.ok());
  (*cache)->Publish(MakeEntry(0x11, 0xaa, 2, {0.5, 0.5}));

  WarmCache::Draw draw = (*cache)->DrawFor({0x22, 0xaa}, true);
  EXPECT_TRUE(draw.exact.empty());
  EXPECT_TRUE(draw.candidates.empty());
  EXPECT_EQ(draw.bound, -1);
}

TEST(WarmCacheTest, SemanticsGateTheBoundButNotTheWarmStart) {
  // A gap-semantics entry (MILP/SAT) proves the (ε₂, ε₁)-gap optimum; that
  // does NOT bound a spatial (true ε-tie) solve, so the draw hands out the
  // weights but no bound. A true-semantics entry bounds both.
  TempDir dir;
  auto cache = WarmCache::Open(dir.path, SyncOptions());
  ASSERT_TRUE(cache.ok());
  (*cache)->Publish(
      MakeEntry(0x11, 0xaa, 4, {0.5, 0.5}, /*true_semantics=*/false));

  WarmCache::Draw spatial = (*cache)->DrawFor({0x11, 0xaa}, false);
  ASSERT_EQ(spatial.exact.size(), 1u);
  EXPECT_EQ(spatial.bound, -1)
      << "a gap-semantics entry bounded a true-semantics solve (UNSOUND)";

  WarmCache::Draw gap = (*cache)->DrawFor({0x11, 0xaa}, true);
  EXPECT_EQ(gap.bound, 4);

  (*cache)->Publish(MakeEntry(0x11, 0xaa, 3, {0.25, 0.75}, true));
  spatial = (*cache)->DrawFor({0x11, 0xaa}, false);
  EXPECT_EQ(spatial.bound, 3) << "true semantics bounds either solve kind";
}

TEST(WarmCacheTest, TornTailIsTruncatedAndIntactRecordsSurvive) {
  TempDir dir;
  {
    auto cache = WarmCache::Open(dir.path, SyncOptions());
    ASSERT_TRUE(cache.ok());
    (*cache)->Publish(MakeEntry(0x11, 0xaa, 3, {0.5, 0.5}));
    (*cache)->Publish(MakeEntry(0x11, 0xbb, 4, {0.25, 0.75}));
  }
  const std::string file = dir.path + "/warm.cache";
  // A crash mid-append leaves a partial record with no trailing newline.
  std::string bytes = ReadFile(file);
  WriteFile(file, bytes + "RHW1 00000000 40 win 11 cc");

  auto cache = WarmCache::Open(dir.path, SyncOptions());
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ((*cache)->Stats().loaded, 2);
  EXPECT_EQ((*cache)->Stats().truncated, 1);
  EXPECT_EQ((*cache)->DrawFor({0x11, 0xaa}, true).exact.size(), 1u);
}

TEST(WarmCacheTest, CorruptRecordIsSkippedAndTheRestLoad) {
  TempDir dir;
  {
    auto cache = WarmCache::Open(dir.path, SyncOptions());
    ASSERT_TRUE(cache.ok());
    (*cache)->Publish(MakeEntry(0x11, 0xaa, 3, {0.5, 0.5}));
    (*cache)->Publish(MakeEntry(0x11, 0xbb, 4, {0.25, 0.75}));
    (*cache)->Publish(MakeEntry(0x11, 0xcc, 5, {0.75, 0.25}));
  }
  const std::string file = dir.path + "/warm.cache";
  std::string bytes = ReadFile(file);
  // Flip one payload byte of the middle record; its CRC no longer matches,
  // and line resynchronization must carry the loader to record three.
  const size_t second = bytes.find("RHW1", 1);
  ASSERT_NE(second, std::string::npos);
  const size_t win = bytes.find("win", second);
  ASSERT_NE(win, std::string::npos);
  bytes[win] = 'x';
  WriteFile(file, bytes);

  auto cache = WarmCache::Open(dir.path, SyncOptions());
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ((*cache)->Stats().loaded, 2);
  EXPECT_EQ((*cache)->Stats().skipped, 1);
  EXPECT_EQ((*cache)->DrawFor({0x11, 0xcc}, true).exact.size(), 1u);
}

TEST(WarmCacheTest, PublishDeduplicatesAndRefreshesOnBetterError) {
  TempDir dir;
  auto cache = WarmCache::Open(dir.path, SyncOptions());
  ASSERT_TRUE(cache.ok());
  (*cache)->Publish(MakeEntry(0x11, 0xaa, 5, {0.5, 0.5}));
  const uint64_t gen = (*cache)->generation();
  // Identical winner again: no new entry, no generation churn (sessions
  // skip redrawing an unchanged cache on the generation counter).
  (*cache)->Publish(MakeEntry(0x11, 0xaa, 5, {0.5, 0.5}));
  EXPECT_EQ((*cache)->Stats().entries, 1);
  EXPECT_EQ((*cache)->generation(), gen);
  // Same weights, better proven error: refresh in place.
  (*cache)->Publish(MakeEntry(0x11, 0xaa, 2, {0.5, 0.5}));
  EXPECT_EQ((*cache)->Stats().entries, 1);
  EXPECT_GT((*cache)->generation(), gen);
  EXPECT_EQ((*cache)->DrawFor({0x11, 0xaa}, true).bound, 2);
}

TEST(WarmCacheTest, PerKeyCapKeepsTheNewestEntries) {
  TempDir dir;
  WarmCacheOptions options = SyncOptions();
  options.max_entries_per_key = 2;
  auto cache = WarmCache::Open(dir.path, options);
  ASSERT_TRUE(cache.ok());
  for (int i = 0; i < 4; ++i) {
    (*cache)->Publish(MakeEntry(0x11, 0xaa, 4 - i, {0.1 * (i + 1), 0.5}));
  }
  EXPECT_EQ((*cache)->Stats().entries, 2);
  WarmCache::Draw draw = (*cache)->DrawFor({0x11, 0xaa}, true);
  EXPECT_EQ(draw.exact.size(), 2u) << "cap kept the wrong number of entries";
  // The oldest two (errors 4, 3) were evicted; the strongest surviving
  // bound is the max over the retained entries.
  EXPECT_EQ(draw.bound, 2);
}

// ---------------------------------------------------------------------------
// Canonical fingerprint invariance.

TEST(WarmCacheTest, ConstraintHashIsOrderIndependent) {
  WeightConstraintSet forward;
  WeightConstraintSet backward;
  WeightConstraint a;
  a.terms = {{0, 1.0}, {1, -0.5}};
  a.op = RelOp::kGe;
  a.rhs = 0.1;
  a.name = "a";
  WeightConstraint b;
  b.terms = {{1, -0.5}, {0, 1.0}};  // same terms, listed backwards
  b.op = RelOp::kGe;
  b.rhs = 0.1;
  b.name = "b-different-name";  // names affect removal, not the feasible set
  WeightConstraint c;
  c.terms = {{2, 1.0}};
  c.op = RelOp::kLe;
  c.rhs = 0.9;
  c.name = "c";

  forward.Add(a);
  forward.Add(c);
  backward.Add(c);
  backward.Add(b);
  EXPECT_EQ(HashWeightConstraints(forward), HashWeightConstraints(backward));

  WeightConstraint d = c;
  d.rhs = 0.8;
  backward.Add(d);
  EXPECT_NE(HashWeightConstraints(forward), HashWeightConstraints(backward));
}

TEST(WarmCacheTest, EpsilonAndObjectiveChangeTheProblemFingerprint) {
  OptProblem problem;
  problem.eps.eps1 = 1e-6;
  problem.eps.eps2 = 0.0;
  problem.eps.tie_eps = 5e-7;
  const ProblemFingerprint base = FingerprintProblem(7, 13, problem);
  EXPECT_EQ(base, FingerprintProblem(7, 13, problem));

  OptProblem eps_moved = problem;
  eps_moved.eps.eps1 = 2e-6;
  EXPECT_NE(base, FingerprintProblem(7, 13, eps_moved));

  OptProblem objective_moved = problem;
  objective_moved.objective.kind = ObjectiveKind::kInversions;
  EXPECT_NE(base, FingerprintProblem(7, 13, objective_moved));

  OptProblem order_moved = problem;
  order_moved.order_constraints.push_back({1, 2});
  EXPECT_NE(base, FingerprintProblem(7, 13, order_moved));
}

// ---------------------------------------------------------------------------
// End-to-end through SolveSession.

EpsilonConfig TestEps() {
  EpsilonConfig eps;
  eps.tie_eps = 5e-7;
  eps.eps1 = 1e-6;
  eps.eps2 = 0.0;
  return eps;
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
  auto r = Ranking::Create(std::move(positions));
  EXPECT_TRUE(r.ok());
  return *std::move(r);
}

TEST(WarmCacheSessionTest, RestartWarmSolveMatchesColdExactly) {
  // The acceptance property, in-process: a fresh session over the identical
  // problem and a reopened cache must close with the bit-identical proven
  // error while actually drawing warm state.
  Rng rng(71);
  Dataset data = RandomDataset(rng, 13, 3);
  Ranking given = RandomRanking(rng, 13, 6);
  RankHowOptions options;
  options.eps = TestEps();
  options.strategy = SolveStrategy::kSpatial;

  TempDir dir;
  long cold_error = -1;
  {
    auto cache = WarmCache::Open(dir.path, SyncOptions());
    ASSERT_TRUE(cache.ok());
    SolveSession session(data, given, options);
    session.AttachWarmCache(cache->get());
    auto r = session.Solve();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->proven_optimal);
    cold_error = r->error;
    EXPECT_EQ((*cache)->Stats().misses, 1);
    EXPECT_GT((*cache)->Stats().published, 0);
  }
  // "Restart": a brand-new cache object over the same directory and a
  // brand-new session — nothing carries over but the file.
  auto cache = WarmCache::Open(dir.path, SyncOptions());
  ASSERT_TRUE(cache.ok());
  ASSERT_GT((*cache)->Stats().loaded, 0) << "nothing was persisted";
  SolveSession session(data, given, options);
  session.AttachWarmCache(cache->get());
  auto warm = session.Solve();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->proven_optimal);
  EXPECT_EQ(warm->error, cold_error)
      << "restart-warm equivalence broken: warm first solve disagrees";
  EXPECT_EQ((*cache)->Stats().hits, 1);
  EXPECT_GT(session.stats().fingerprint_bound_seeds, 0);
  EXPECT_EQ(warm->stats.nodes_explored, 0)
      << "an exact-fingerprint winner + bound must close at the root";
}

TEST(WarmCacheSessionTest, EditedProblemDrawsDemotionsAndNeverABound) {
  // The end-to-end negative test: constraint edits change the fingerprint,
  // so the cached winner comes back as a revalidation candidate — the
  // session must report demotions and zero cache bound seeds, and still
  // agree with a cold solve of the edited problem.
  Rng rng(72);
  Dataset data = RandomDataset(rng, 13, 3);
  Ranking given = RandomRanking(rng, 13, 6);
  RankHowOptions options;
  options.eps = TestEps();
  options.strategy = SolveStrategy::kSpatial;

  TempDir dir;
  {
    auto cache = WarmCache::Open(dir.path, SyncOptions());
    ASSERT_TRUE(cache.ok());
    SolveSession session(data, given, options);
    session.AttachWarmCache(cache->get());
    ASSERT_TRUE(session.Solve().ok());
  }
  auto cache = WarmCache::Open(dir.path, SyncOptions());
  ASSERT_TRUE(cache.ok());
  SolveSession session(data, given, options);
  session.AttachWarmCache(cache->get());
  WeightConstraint floor;
  floor.terms = {{0, 1.0}};
  floor.op = RelOp::kGe;
  floor.rhs = 0.25;
  floor.name = "floor0";
  ASSERT_TRUE(session.AddWeightConstraint(floor).ok());
  auto edited = session.Solve();
  ASSERT_TRUE(edited.ok()) << edited.status().ToString();
  EXPECT_TRUE(edited->proven_optimal);
  EXPECT_GT((*cache)->Stats().demotions, 0)
      << "the stale winner never surfaced as a candidate";
  EXPECT_EQ(session.stats().fingerprint_bound_seeds, 0)
      << "a mismatched cache entry seeded a bound (UNSOUND)";

  SolveSession cold(data, given, options);
  ASSERT_TRUE(cold.AddWeightConstraint(floor).ok());
  auto cold_result = cold.Solve();
  ASSERT_TRUE(cold_result.ok());
  EXPECT_EQ(edited->error, cold_result->error);
}

TEST(WarmCacheTest, ConcurrentPublishAndDrawIsRaceFree) {
  // The tsan-gate hammer: many threads publishing distinct winners and
  // drawing across several dataset keys while the background writer drains.
  TempDir dir;
  auto opened = WarmCache::Open(dir.path);
  ASSERT_TRUE(opened.ok());
  WarmCache* cache = opened->get();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([cache, t] {
      for (int i = 0; i < 50; ++i) {
        const uint64_t dfp = 0x10 + (i % 3);
        cache->Publish(MakeEntry(dfp, 0x100 * t + i, i % 7,
                                 {0.5 + 0.001 * t, 0.5 - 0.001 * t}));
        WarmCache::Draw draw =
            cache->DrawFor({dfp, static_cast<uint64_t>(0x100 * t + (i % 5))},
                           (t + i) % 2 == 0);
        for (const WarmCache::Entry& e : draw.exact) {
          ASSERT_EQ(e.weights.size(), 2u);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  cache->Flush();
  WarmCacheStats stats = cache->Stats();
  EXPECT_EQ(stats.published, 200);
  EXPECT_FALSE(stats.degraded);
  EXPECT_GT(stats.appended, 0);
}

}  // namespace
}  // namespace rankhow
