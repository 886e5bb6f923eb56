// Golden `stats` lines. A fixed script — one command at a time on one pool
// worker, so every counter is deterministic — runs through a RegistryRouter
// with the journal and the warm cache on, and its full stats line must
// equal a literal; the same kind of script through a standalone
// SessionRegistry must land on exact counter values. The line is wire
// contract (docs/PROTOCOL.md "stats fields"): clients, the coordinator's
// aggregation and perfbench read it by field name, so a renamed, reordered
// or differently counted field fails here. The script covers the events
// counted outside the sessions: cache and shared-pool traffic, a
// copy-on-write `append`, a failed edit, graceful and aborted closes, and a
// registry eviction. The transport fields ServerMetrics appends to `stats`,
// and its `metrics` line, are pinned the same way.

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "app/cli_driver.h"
#include "core/warm_cache.h"
#include "server/registry_router.h"
#include "server/session_registry.h"
#include "server/wire.h"
#include "util/histogram.h"
#include "util/random.h"

namespace rankhow {
namespace {

/// A self-deleting scratch directory.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/rankhow_golden_XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) path = tmpl;
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
  std::string Subdir(const std::string& name) const {
    const std::string dir = path + "/" + name;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return dir;
  }
};

constexpr int kTuples = 10;

Dataset RandomDataset(Rng& rng) {
  Dataset d({"A0", "A1", "A2"}, kTuples);
  for (int t = 0; t < kTuples; ++t) {
    for (int a = 0; a < 3; ++a) d.set_value(t, a, rng.NextUniform(0, 1));
  }
  return d;
}

Ranking RandomRanking(Rng& rng) {
  std::vector<int> tuples(kTuples);
  for (int t = 0; t < kTuples; ++t) tuples[t] = t;
  rng.Shuffle(&tuples);
  std::vector<int> positions(kTuples, kUnranked);
  for (int p = 0; p < 4; ++p) positions[tuples[p]] = p + 1;
  auto ranking = Ranking::Create(std::move(positions));
  EXPECT_TRUE(ranking.ok()) << ranking.status().ToString();
  return *std::move(ranking);
}

std::vector<std::string> TupleLabels() {
  std::vector<std::string> labels;
  for (int t = 0; t < kTuples; ++t) labels.push_back("t" + std::to_string(t));
  return labels;
}

ServerOptions SerialServerOptions() {
  ServerOptions options;
  options.solver.eps.tie_eps = 5e-7;
  options.solver.eps.eps1 = 1e-6;
  options.solver.eps.eps2 = 0.0;
  options.solver.strategy = SolveStrategy::kSpatial;
  options.num_workers = 1;
  return options;
}

/// Submits one session-script line and waits for it; the outcome (a failed
/// edit included) is not the point — the counters it moves are.
template <typename Backend>
void RunLine(Backend* backend, const std::string& client,
             const std::string& line) {
  auto parsed = ParseSessionScript(line);
  ASSERT_TRUE(parsed.ok() && parsed->size() == 1) << line;
  ASSERT_TRUE(backend
                  ->Submit(client, parsed->front(),
                           [](const std::string&,
                              const Result<SessionStepOutcome>&) {})
                  .ok())
      << line;
  backend->Drain();
}

TEST(StatsGoldenTest, RegistryCountersAreStable) {
  TempDir dir;
  WarmCacheOptions cache_options;
  cache_options.synchronous_appends = true;
  auto cache = WarmCache::Open(dir.path, cache_options);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();

  Rng rng(1201);
  ServerOptions options = SerialServerOptions();
  options.warm_cache = cache->get();
  Dataset data = RandomDataset(rng);
  Ranking given = RandomRanking(rng);
  SessionRegistry registry(SharedDataset(std::move(data)), std::move(given),
                           TupleLabels(), options);
  ASSERT_TRUE(registry.Open("alice").ok());
  ASSERT_TRUE(registry.Open("bob").ok());
  RunLine(&registry, "alice", "solve");
  RunLine(&registry, "bob", "solve");
  RunLine(&registry, "alice", "min-weight A0 0.05");
  RunLine(&registry, "alice", "append 0.9 0.9 0.9");
  RunLine(&registry, "bob", "max-weight A1 0.6");
  RunLine(&registry, "bob", "drop nope");
  ASSERT_TRUE(registry.Close("alice", /*graceful=*/true).ok());
  registry.Drain();

  const StatsValues r = registry.Stats();
  EXPECT_EQ(r[kStatClients], 1);
  EXPECT_EQ(r[kStatDatasets], 1);
  EXPECT_EQ(r[kStatCommands], 6);
  EXPECT_EQ(r[kStatForks], 1);
  EXPECT_EQ(r[kStatSharedPublished], 5);
  EXPECT_EQ(r[kStatSharedDrawn], 2);
  EXPECT_EQ(r[kStatPending], 0);
  EXPECT_EQ(r[kStatShed], 0);
  EXPECT_EQ(r[kStatClosedGraceful], 1);
  EXPECT_EQ(r[kStatClosedAborted], 0);
  const WarmCacheStats c = (*cache)->Stats();
  EXPECT_EQ(c.hits, 1);
  EXPECT_EQ(c.misses, 4);
  EXPECT_EQ(c.demotions, 3);
  EXPECT_EQ(c.published, 5);
}

TEST(StatsGoldenTest, RouterLineIsByteStable) {
  TempDir dir;
  RouterOptions options;
  options.server = SerialServerOptions();
  options.max_resident_registries = 1;
  options.journal_dir = dir.Subdir("journal");
  options.journal.fsync_every = 2;
  options.warm_cache_dir = dir.Subdir("cache");
  options.warm_cache.synchronous_appends = true;
  RegistryRouter router(options);

  Rng rng(1202);
  for (const char* id : {"d0", "d1"}) {
    Dataset data = RandomDataset(rng);
    Ranking given = RandomRanking(rng);
    ASSERT_TRUE(router
                    .RegisterDataset(
                        id,
                        [data, given]() -> Result<RegistryRouter::DatasetBundle> {
                          RegistryRouter::DatasetBundle bundle;
                          bundle.data = SharedDataset(Dataset(data));
                          bundle.given = Ranking(given);
                          bundle.labels = TupleLabels();
                          return bundle;
                        })
                    .ok());
  }
  ASSERT_TRUE(router.Open("alice", "d0").ok());
  ASSERT_TRUE(router.Open("bob", "d0").ok());
  RunLine(&router, "alice", "solve");
  RunLine(&router, "bob", "solve");
  RunLine(&router, "alice", "append 0.9 0.9 0.9");
  RunLine(&router, "bob", "min-weight A0 0.05");
  ASSERT_TRUE(router.Close("alice", /*graceful=*/true).ok());
  ASSERT_TRUE(router.Close("bob", /*graceful=*/false).ok());
  // d0 has no clients left, so loading d1 evicts its registry.
  ASSERT_TRUE(router.Open("carol", "d1").ok());
  RunLine(&router, "carol", "solve");
  RunLine(&router, "carol", "max-weight A1 0.6");
  router.Drain();

  EXPECT_EQ(RouterStatsLine(router),
            "registries=1 clients=1 datasets=1 commands=6 forks=1 loaded=2 "
            "evicted_registries=1 evicted_sessions=0 shared_published=6 "
            "shared_drawn=1 pending=0 shed=0 closed_graceful=1 "
            "closed_aborted=1 journal_records=8 journal_fsyncs=4 "
            "journal_fsync_failures=0 journal_degraded=0 "
            "recover_replayed=0 recover_truncated=0 recover_skipped=0 "
            "recover_sessions=0 cache_hits=1 cache_misses=5 "
            "cache_demotions=2 cache_publishes=6 cache_entries=5 "
            "cache_appended=5 cache_loaded=0 cache_skipped=0 "
            "cache_degraded=0");
}

TEST(StatsGoldenTest, ServerMetricsLinesAreByteStable) {
  ServerMetrics metrics;
  metrics.connections_current = 3;
  metrics.connections_peak = 5;
  metrics.connections_total = 11;
  metrics.frames_binary = 42;
  metrics.backpressure_closes = 1;
  metrics.idle_closes = 2;
  metrics.eof_closes = 4;
  metrics.writes_queued_peak = 8192;
  metrics.writes_retried = 7;
  metrics.protocol_errors = 6;
  metrics.RecordVerb(WireVerb::kOpen, 120);
  metrics.RecordVerb(WireVerb::kStats, 35);
  metrics.RecordVerb(WireVerb::kEdit, 900);
  metrics.RecordVerb(WireVerb::kSolve, 1500);
  metrics.RecordVerb(WireVerb::kSolve, 3000);
  metrics.RecordVerb(WireVerb::kSolve, 250000);

  EXPECT_EQ(metrics.RenderStatsFields(),
            "connections=3 frames_binary=42 backpressure_closes=1 "
            "writes_queued_peak=8192 writes_retried=7 aborted_idle=2 "
            "aborted_backpressure=1 aborted_eof=4");
  EXPECT_EQ(metrics.RenderWireLine(),
            "connections=3 connections_peak=5 connections_total=11 "
            "frames_binary=42 backpressure_closes=1 idle_closes=2 "
            "eof_closes=4 writes_queued_peak=8192 writes_retried=7 "
            "protocol_errors=6 "
            "open.count=1 open.mean_us=120 open.p50_us=64 open.p99_us=64 "
            "open.max_us=120 open.sum_us=120 open.buckets=6:1 "
            "stats.count=1 stats.mean_us=35 stats.p50_us=32 stats.p99_us=32 "
            "stats.max_us=35 stats.sum_us=35 stats.buckets=5:1 "
            "edit.count=1 edit.mean_us=900 edit.p50_us=512 edit.p99_us=512 "
            "edit.max_us=900 edit.sum_us=900 edit.buckets=9:1 "
            "solve.count=3 solve.mean_us=84833 solve.p50_us=2048 "
            "solve.p99_us=131072 solve.max_us=250000 solve.sum_us=254500 "
            "solve.buckets=10:1,11:1,17:1");
}

}  // namespace
}  // namespace rankhow
