// RegistryRouter suite (runs under `ctest -L tsan` via the server test
// binary's tsan label):
//
//  * open-by-dataset-id routing: clients bound to different catalog
//    entries prove exactly what a serial single-session replay over the
//    same dataset proves; `open` without an id binds the default.
//  * lazy loading: a registered dataset costs zero loader calls until the
//    first `open` names it, and exactly one while it stays resident.
//  * LRU eviction: loading past max_resident_registries evicts the
//    least-recently-used *zero-client* registry; registries with open
//    clients are never touched, and when every resident registry has
//    clients the open fails with kResourceExhausted instead of blocking.
//  * idle-session LRU: opening past max_open_sessions closes the least
//    recently used idle session (its next command answers kNotFound, the
//    survivors keep solving).
//  * shared-pool equivalence: with cross-client incumbent sharing on,
//    every *proven* optimum is identical to the sharing-off run, and the
//    second client actually draws the first client's published winners.
//  * the router-backed wire protocol: dataset-form opens ack with the
//    bound id, stats aggregates across registries.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "app/cli_driver.h"
#include "core/solve_session.h"
#include "server/registry_router.h"
#include "server/wire.h"
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

std::vector<std::string> TupleLabels(int n) {
  std::vector<std::string> labels;
  for (int t = 0; t < n; ++t) labels.push_back("t" + std::to_string(t));
  return labels;
}

RankHowOptions SpatialOptions() {
  RankHowOptions options;
  options.eps = TestEps();
  options.strategy = SolveStrategy::kSpatial;
  options.num_threads = 1;
  return options;
}

SessionCommand Cmd(SessionCommand::Kind kind, std::string arg = "",
                   double value = 0, int line = 1) {
  SessionCommand cmd;
  cmd.kind = kind;
  cmd.arg = std::move(arg);
  cmd.value = value;
  cmd.line = line;
  return cmd;
}

/// A catalog fixture: `count` independent random datasets ("d0".."dN-1"),
/// each with a per-dataset loader-invocation counter.
struct Catalog {
  std::vector<Dataset> datasets;
  std::vector<Ranking> rankings;
  std::vector<std::shared_ptr<int>> loads;

  explicit Catalog(int count, uint64_t seed = 101, int n = 10, int m = 3,
                   int k = 4) {
    Rng rng(seed);
    for (int i = 0; i < count; ++i) {
      datasets.push_back(RandomDataset(rng, n, m));
      rankings.push_back(RandomRanking(rng, n, k));
      loads.push_back(std::make_shared<int>(0));
    }
  }

  void Register(RegistryRouter* router) const {
    for (size_t i = 0; i < datasets.size(); ++i) {
      const Dataset& data = datasets[i];
      const Ranking& given = rankings[i];
      std::shared_ptr<int> counter = loads[i];
      ASSERT_TRUE(router
                      ->RegisterDataset(
                          "d" + std::to_string(i),
                          [data, given, counter]()
                              -> Result<RegistryRouter::DatasetBundle> {
                            ++*counter;
                            RegistryRouter::DatasetBundle bundle;
                            bundle.data = SharedDataset(Dataset(data));
                            bundle.given = Ranking(given);
                            bundle.labels =
                                TupleLabels(data.num_tuples());
                            return bundle;
                          })
                      .ok());
    }
  }
};

RouterOptions SmallRouterOptions(int workers = 2) {
  RouterOptions options;
  options.server.solver = SpatialOptions();
  options.server.num_workers = workers;
  return options;
}

struct Slot {
  Result<SessionStepOutcome> outcome = Status::Internal("unset");
};

void SubmitAndWait(RegistryRouter* router, const std::string& client,
                   SessionCommand cmd, Slot* slot) {
  ASSERT_TRUE(router
                  ->Submit(client, std::move(cmd),
                           [slot](const std::string&,
                                  const Result<SessionStepOutcome>& out) {
                             slot->outcome = out;
                           })
                  .ok());
  router->Drain();
}

TEST(RegistryRouterTest, RoutesOpensByDatasetIdAndMatchesSerialReplay) {
  Catalog catalog(2);
  RegistryRouter router(SmallRouterOptions());
  catalog.Register(&router);

  ASSERT_TRUE(router.Open("a", "d0").ok());
  ASSERT_TRUE(router.Open("b", "d1").ok());
  ASSERT_TRUE(router.Open("c", "").ok());  // default = first registered
  EXPECT_EQ(router.ClientDataset("a"), "d0");
  EXPECT_EQ(router.ClientDataset("b"), "d1");
  EXPECT_EQ(router.ClientDataset("c"), "d0");

  EXPECT_EQ(router.Open("x", "nope").code(), StatusCode::kNotFound);
  // Client names are router-global: the same name cannot live twice, even
  // against another dataset.
  EXPECT_EQ(router.Open("a", "d1").code(), StatusCode::kAlreadyExists);

  Slot a, b, c;
  SubmitAndWait(&router, "a", Cmd(SessionCommand::Kind::kSolve), &a);
  SubmitAndWait(&router, "b", Cmd(SessionCommand::Kind::kSolve), &b);
  SubmitAndWait(&router, "c", Cmd(SessionCommand::Kind::kSolve), &c);
  ASSERT_TRUE(a.outcome.ok()) << a.outcome.status().ToString();
  ASSERT_TRUE(b.outcome.ok()) << b.outcome.status().ToString();
  ASSERT_TRUE(c.outcome.ok()) << c.outcome.status().ToString();

  // Per-dataset ground truth: a serial session over the same bundle.
  for (int i = 0; i < 2; ++i) {
    SolveSession replay(Dataset(catalog.datasets[i]),
                        Ranking(catalog.rankings[i]), SpatialOptions());
    auto want = replay.Solve();
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(want->proven_optimal);
    const Slot& got = i == 0 ? a : b;
    EXPECT_TRUE(got.outcome->result.proven_optimal);
    EXPECT_EQ(got.outcome->result.error, want->error)
        << "dataset d" << i << " routed to the wrong registry?";
    if (i == 0) {
      EXPECT_EQ(c.outcome->result.error, want->error)
          << "default-dataset open did not land on d0";
    }
  }

  EXPECT_EQ(router.registered_datasets(), 2);
  StatsValues stats = router.Stats();
  EXPECT_EQ(stats[kStatRegistries], 2);
  EXPECT_EQ(stats[kStatClients], 3);
  EXPECT_EQ(stats[kStatCommands], 3);
}

TEST(RegistryRouterTest, LoadsLazilyOncePerResidence) {
  Catalog catalog(3);
  RegistryRouter router(SmallRouterOptions(1));
  catalog.Register(&router);

  EXPECT_EQ(*catalog.loads[0], 0) << "registration must not load";
  EXPECT_EQ(*catalog.loads[1], 0);
  EXPECT_EQ(router.Stats()[kStatRegistries], 0);

  ASSERT_TRUE(router.Open("a", "d0").ok());
  EXPECT_EQ(*catalog.loads[0], 1);
  ASSERT_TRUE(router.Open("b", "d0").ok());
  EXPECT_EQ(*catalog.loads[0], 1) << "a resident dataset must not reload";
  EXPECT_EQ(*catalog.loads[1], 0) << "d1 was never opened";
  EXPECT_EQ(*catalog.loads[2], 0);
  EXPECT_EQ(router.Stats()[kStatRegistries], 1);
  EXPECT_EQ(router.Stats()[kStatLoaded], 1);
}

TEST(RegistryRouterTest, LruEvictsIdleRegistryAndSparesBusyOnes) {
  Catalog catalog(3);
  RouterOptions options = SmallRouterOptions();
  options.max_resident_registries = 2;
  RegistryRouter router(options);
  catalog.Register(&router);

  ASSERT_TRUE(router.Open("a", "d0").ok());
  ASSERT_TRUE(router.Open("b", "d1").ok());
  Slot a, b;
  SubmitAndWait(&router, "a", Cmd(SessionCommand::Kind::kSolve), &a);
  SubmitAndWait(&router, "b", Cmd(SessionCommand::Kind::kSolve), &b);
  ASSERT_TRUE(a.outcome.ok());
  ASSERT_TRUE(b.outcome.ok());

  // Both registries have clients: loading d2 has nothing idle to evict.
  EXPECT_EQ(router.Open("c", "d2").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(*catalog.loads[2], 1)
      << "the load happened before the budget check could see it fail";
  EXPECT_EQ(router.Stats()[kStatRegistries], 2);

  // Freeing d1 (LRU once 'a' is touched again) makes room: d1 is evicted,
  // d0 — busy with an open client — is untouched.
  ASSERT_TRUE(router.Close("b", /*graceful=*/true).ok());
  Slot touch;
  SubmitAndWait(&router, "a", Cmd(SessionCommand::Kind::kSolve), &touch);
  ASSERT_TRUE(touch.outcome.ok());
  ASSERT_TRUE(router.Open("c", "d2").ok());
  StatsValues stats = router.Stats();
  EXPECT_EQ(stats[kStatRegistries], 2);
  EXPECT_EQ(stats[kStatEvictedRegistries], 1);

  // The survivor's client kept its full session state.
  Slot after;
  SubmitAndWait(&router, "a",
                Cmd(SessionCommand::Kind::kMinWeight, "A0", 0.05), &after);
  ASSERT_TRUE(after.outcome.ok()) << after.outcome.status().ToString();
  EXPECT_TRUE(after.outcome->result.proven_optimal);

  // Re-opening the evicted dataset reloads it (the loader runs again).
  ASSERT_TRUE(router.Close("c", /*graceful=*/true).ok());
  ASSERT_TRUE(router.Close("a", /*graceful=*/true).ok());
  ASSERT_TRUE(router.Open("back", "d1").ok());
  EXPECT_EQ(*catalog.loads[1], 2)
      << "an evicted dataset must lazy-load again on its next open";
  EXPECT_EQ(router.Stats()[kStatCommands], 4)
      << "eviction must not erase executed-command totals";
}

TEST(RegistryRouterTest, IdleSessionLruEvictionFreesTheOldestIdleClient) {
  Catalog catalog(1);
  RouterOptions options = SmallRouterOptions();
  options.max_open_sessions = 2;
  RegistryRouter router(options);
  catalog.Register(&router);

  ASSERT_TRUE(router.Open("a", "d0").ok());
  ASSERT_TRUE(router.Open("b", "d0").ok());
  // Touch 'a' so 'b' becomes the LRU idle session.
  Slot a;
  SubmitAndWait(&router, "a", Cmd(SessionCommand::Kind::kSolve), &a);
  ASSERT_TRUE(a.outcome.ok());

  ASSERT_TRUE(router.Open("c", "d0").ok())
      << "opening at the budget must evict an idle session, not fail";
  StatsValues stats = router.Stats();
  EXPECT_EQ(stats[kStatClients], 2);
  EXPECT_EQ(stats[kStatEvictedSessions], 1);

  // The evicted client is gone; the survivors keep working.
  EXPECT_EQ(router
                .Submit("b", Cmd(SessionCommand::Kind::kSolve),
                        [](const std::string&,
                           const Result<SessionStepOutcome>&) {})
                .code(),
            StatusCode::kNotFound)
      << "the LRU idle session should have been evicted";
  Slot c;
  SubmitAndWait(&router, "c", Cmd(SessionCommand::Kind::kSolve), &c);
  ASSERT_TRUE(c.outcome.ok());
  EXPECT_TRUE(c.outcome->result.proven_optimal);
}

TEST(RegistryRouterTest, SharedPoolProvesIdenticalOptimaAndSeedsSiblings) {
  // The cross-client sharing acceptance property: shared vs per-session
  // pools prove identical optima on every step, and the second client
  // demonstrably draws the first one's published winners.
  Catalog catalog(1, /*seed=*/202, /*n=*/12, /*m=*/3, /*k=*/5);
  const std::vector<SessionCommand> script = {
      Cmd(SessionCommand::Kind::kSolve),
      Cmd(SessionCommand::Kind::kMinWeight, "A0", 0.05),
      Cmd(SessionCommand::Kind::kMaxWeight, "A1", 0.6),
      Cmd(SessionCommand::Kind::kDrop, "min_A0"),
  };

  std::vector<long> errors[2];
  for (int shared = 0; shared < 2; ++shared) {
    RouterOptions options = SmallRouterOptions();
    options.server.share_incumbents = shared == 1;
    RegistryRouter router(options);
    catalog.Register(&router);
    // Client A proves the whole script first, then B replays it — the
    // sequential schedule makes B's draws deterministic.
    for (const char* client : {"alice", "bob"}) {
      ASSERT_TRUE(router.Open(client, "d0").ok());
      for (const SessionCommand& cmd : script) {
        Slot slot;
        SubmitAndWait(&router, client, cmd, &slot);
        ASSERT_TRUE(slot.outcome.ok())
            << slot.outcome.status().ToString();
        ASSERT_TRUE(slot.outcome->result.proven_optimal);
        errors[shared].push_back(slot.outcome->result.error);
      }
    }
    StatsValues stats = router.Stats();
    if (shared == 1) {
      EXPECT_GT(stats[kStatSharedPublished], 0)
          << "proven winners must flow into the registry pool";
      EXPECT_GT(stats[kStatSharedDrawn], 0)
          << "bob never drew alice's published winners";
    } else {
      EXPECT_EQ(stats[kStatSharedPublished], 0);
      EXPECT_EQ(stats[kStatSharedDrawn], 0);
    }
  }
  ASSERT_EQ(errors[0].size(), errors[1].size());
  for (size_t i = 0; i < errors[0].size(); ++i) {
    EXPECT_EQ(errors[0][i], errors[1][i])
        << "step " << i
        << ": cross-client sharing changed a proven optimum (candidates "
           "must never act as bounds)";
  }
}

TEST(RegistryRouterTest, WireProtocolRoutesDatasetOpens) {
  Catalog catalog(2);
  RegistryRouter router(SmallRouterOptions());
  catalog.Register(&router);

  std::istringstream in(
      "open alice d0\n"
      "open bob d1\n"
      "open carol\n"        // default dataset, echoed in the ack
      "open dave nope\n"    // unknown dataset id
      "alice solve\n"
      "bob solve\n"
      "stats\n"
      "close bob\n"
      "quit\n");
  std::ostringstream out;
  ASSERT_TRUE(ServeStream(&router, in, out).ok());
  const std::string output = out.str();

  EXPECT_NE(output.find("ok open alice d0"), std::string::npos) << output;
  EXPECT_NE(output.find("ok open bob d1"), std::string::npos) << output;
  EXPECT_NE(output.find("ok open carol d0"), std::string::npos)
      << "the default dataset must be echoed: " << output;
  EXPECT_NE(output.find("err dave unknown dataset id: nope"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("ok alice line=5"), std::string::npos) << output;
  EXPECT_NE(output.find("ok bob line=6"), std::string::npos) << output;
  EXPECT_NE(output.find("ok stats registries=2 clients=3 datasets=2"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("ok close bob"), std::string::npos) << output;
  EXPECT_EQ(output.rfind("ok quit\n"), output.size() - 8) << output;
}

}  // namespace
}  // namespace rankhow
