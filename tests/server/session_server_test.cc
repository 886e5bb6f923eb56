// The session server suite (runs under `ctest -L tsan` via the tsan CMake
// label):
//
//  * Randomized multi-client equivalence harness: K scripted clients with
//    interleaved edit schedules run concurrently through a SessionRegistry
//    (1 and 4 pool workers) over ONE copy-on-write dataset snapshot; every
//    client's per-step proven optimum must be bit-identical to a serial
//    single-session replay of its script. Concurrency and snapshot sharing
//    must be invisible in the results.
//  * COW lifecycle through the registry: resident dataset copies stay at 1
//    across any number of clients until a structural `append` edit forks,
//    and sibling sessions re-prove bit-identical optima after the fork.
//  * Fuzz-style negative tests for the wire grammar and the script
//    execution layer: truncated lines, unknown verbs, out-of-range eps,
//    duplicate constraint names — Status errors only, and the session
//    keeps solving the exact same problem afterwards (no crashes, no
//    silent state corruption).
//  * Cooperative cancellation: a cancelled client's solve comes back
//    budget-limited with its warm incumbent, siblings unaffected.

#include <atomic>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "app/cli_driver.h"
#include "core/solve_session.h"
#include "server/registry_router.h"
#include "server/session_registry.h"
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
                   double value = 0, int line = 0) {
  SessionCommand cmd;
  cmd.kind = kind;
  cmd.arg = std::move(arg);
  cmd.value = value;
  cmd.line = line;
  return cmd;
}

/// A random feasible edit schedule: weight floors/ceilings under fresh
/// names, drops of previously added names, ε₁ flips, and tuple appends.
/// Every command is valid by construction (the negative suite covers the
/// invalid ones).
std::vector<SessionCommand> RandomScript(Rng& rng, int m, int steps) {
  std::vector<SessionCommand> script;
  std::vector<std::pair<bool, std::string>> active;  // (is_min, attr name)
  script.push_back(Cmd(SessionCommand::Kind::kSolve, "", 0, 1));
  for (int s = 1; s < steps; ++s) {
    const int line = s + 1;
    const int kind = static_cast<int>(rng.NextBelow(10));
    const std::string attr = "A" + std::to_string(rng.NextBelow(m));
    if (kind < 3) {
      bool have = false;
      for (const auto& [is_min, a] : active) have |= is_min && a == attr;
      if (!have) {
        active.emplace_back(true, attr);
        script.push_back(Cmd(SessionCommand::Kind::kMinWeight, attr,
                             rng.NextUniform(0.0, 0.10), line));
        continue;
      }
    } else if (kind < 5) {
      bool have = false;
      for (const auto& [is_min, a] : active) have |= !is_min && a == attr;
      if (!have) {
        active.emplace_back(false, attr);
        script.push_back(Cmd(SessionCommand::Kind::kMaxWeight, attr,
                             rng.NextUniform(0.55, 1.0), line));
        continue;
      }
    } else if (kind < 7 && !active.empty()) {
      const size_t i = rng.NextBelow(active.size());
      const std::string name =
          (active[i].first ? "min_" : "max_") + active[i].second;
      active.erase(active.begin() + i);
      script.push_back(Cmd(SessionCommand::Kind::kDrop, name, 0, line));
      continue;
    } else if (kind < 9) {
      script.push_back(Cmd(SessionCommand::Kind::kEps1, "",
                           rng.NextBelow(2) == 0 ? 2e-6 : 1e-6, line));
      continue;
    } else {
      std::string values;
      for (int a = 0; a < m; ++a) {
        if (a > 0) values += ' ';
        values += std::to_string(rng.NextUniform(0, 1));
      }
      script.push_back(Cmd(SessionCommand::Kind::kAppend, values, 0, line));
      continue;
    }
    script.push_back(Cmd(SessionCommand::Kind::kSolve, "", 0, line));
  }
  return script;
}

TEST(SessionServerTest, ConcurrentClientsMatchSerialReplay) {
  // The headline harness: K interleaved scripted clients over one shared
  // snapshot vs a serial replay of each script, at 1 and 4 pool workers.
  const int n = 12, m = 3, k = 5, kClients = 4, kSteps = 6;
  for (int workers : {1, 4}) {
    Rng rng(71);
    Dataset data = RandomDataset(rng, n, m);
    Ranking given = RandomRanking(rng, n, k);
    std::vector<std::string> labels = TupleLabels(n);

    std::vector<std::vector<SessionCommand>> scripts;
    for (int c = 0; c < kClients; ++c) {
      scripts.push_back(RandomScript(rng, m, kSteps));
    }

    ServerOptions server_options;
    server_options.solver = SpatialOptions();
    server_options.num_workers = workers;
    // This harness asserts *bit-identical* weights against a serial
    // replay; cross-client sharing keeps every proven error identical but
    // may surface a different optimal weight vector depending on sibling
    // timing, so it stays off here (registry_router_test covers the
    // shared-pool equivalence property on proven optima).
    server_options.share_incumbents = false;
    SessionRegistry registry(SharedDataset(Dataset(data)), Ranking(given),
                             labels, server_options);
    auto runs = RunScriptedClients(&registry, scripts, kClients);
    ASSERT_TRUE(runs.ok()) << runs.status().ToString();
    ASSERT_EQ(runs->size(), static_cast<size_t>(kClients));

    for (int c = 0; c < kClients; ++c) {
      const ScriptedClientRun& run = (*runs)[c];
      ASSERT_TRUE(run.status.ok())
          << "workers=" << workers << " client=" << c << ": "
          << run.status.ToString();
      ASSERT_EQ(run.outcomes.size(), scripts[c].size());

      // Serial single-session replay of this client's script, same code
      // path (ExecuteSessionCommand), fresh private snapshot.
      SolveSession replay(Dataset(data), Ranking(given), SpatialOptions());
      for (size_t s = 0; s < scripts[c].size(); ++s) {
        auto expected = ExecuteSessionCommand(&replay, scripts[c][s], labels);
        ASSERT_TRUE(expected.ok())
            << "client=" << c << " step=" << s << ": "
            << expected.status().ToString();
        const RankHowResult& got = run.outcomes[s].result;
        const RankHowResult& want = expected->result;
        EXPECT_TRUE(got.proven_optimal && want.proven_optimal)
            << "workers=" << workers << " client=" << c << " step=" << s;
        EXPECT_EQ(got.error, want.error)
            << "workers=" << workers << " client=" << c << " step=" << s
            << ": concurrent client and serial replay disagree";
        EXPECT_EQ(got.function.weights, want.function.weights)
            << "workers=" << workers << " client=" << c << " step=" << s;
      }
    }
  }
}

TEST(SessionServerTest, ResidentCopiesStayAtOneUntilAForkAndSiblingsHold) {
  // The COW acceptance walk, staged so the snapshot count is observable
  // between phases: 4 clients solving over one dataset = 1 resident copy;
  // one client appends (forks) = 2 copies; siblings re-prove bit-identical
  // optima after the fork.
  Rng rng(81);
  Dataset data = RandomDataset(rng, 12, 3);
  Ranking given = RandomRanking(rng, 12, 5);
  std::vector<std::string> labels = TupleLabels(12);

  ServerOptions server_options;
  server_options.solver = SpatialOptions();
  server_options.num_workers = 4;
  // Off for the same reason as the equivalence harness: this test asserts
  // weight identity across a sibling's fork.
  server_options.share_incumbents = false;
  SessionRegistry registry(SharedDataset(std::move(data)), std::move(given),
                           labels, server_options);

  struct Slot {
    Result<SessionStepOutcome> outcome = Status::Internal("unset");
  };
  auto submit_solve = [&registry](const std::string& client, Slot* slot) {
    ASSERT_TRUE(registry
                    .Submit(client, Cmd(SessionCommand::Kind::kSolve),
                            [slot](const std::string&,
                                   const Result<SessionStepOutcome>& out) {
                              slot->outcome = out;
                            })
                    .ok());
  };

  std::vector<std::string> names = {"alice", "bob", "carol", "dave"};
  for (const std::string& name : names) {
    ASSERT_TRUE(registry.Open(name).ok());
  }
  std::vector<Slot> first(names.size());
  for (size_t i = 0; i < names.size(); ++i) submit_solve(names[i], &first[i]);
  registry.Drain();

  StatsValues stats = registry.Stats();
  EXPECT_EQ(stats[kStatClients], 4);
  EXPECT_EQ(stats[kStatDatasets], 1)
      << "4 concurrent sessions over one dataset must hold ONE snapshot";
  EXPECT_EQ(stats[kStatForks], 0);
  for (size_t i = 0; i < names.size(); ++i) {
    ASSERT_TRUE(first[i].outcome.ok());
    EXPECT_TRUE(first[i].outcome->result.proven_optimal);
    // Same immutable snapshot, same options: all four prove one optimum.
    EXPECT_EQ(first[i].outcome->result.error, first[0].outcome->result.error);
  }

  // dave appends a tuple: his session forks a private copy.
  Slot forked;
  ASSERT_TRUE(registry
                  .Submit("dave",
                          Cmd(SessionCommand::Kind::kAppend, "0.9 0.9 0.9"),
                          [&forked](const std::string&,
                                    const Result<SessionStepOutcome>& out) {
                            forked.outcome = out;
                          })
                  .ok());
  registry.Drain();
  stats = registry.Stats();
  EXPECT_EQ(stats[kStatDatasets], 2)
      << "the structural edit must fork exactly one private copy";
  EXPECT_EQ(stats[kStatForks], 1);
  ASSERT_TRUE(forked.outcome.ok());

  // Siblings re-solve on the untouched snapshot: bit-identical to before.
  std::vector<Slot> second(3);
  for (int i = 0; i < 3; ++i) submit_solve(names[i], &second[i]);
  registry.Drain();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(second[i].outcome.ok());
    EXPECT_EQ(second[i].outcome->result.error, first[i].outcome->result.error)
        << names[i] << "'s results changed across a sibling's fork";
    EXPECT_EQ(second[i].outcome->result.function.weights,
              first[i].outcome->result.function.weights);
  }

  // Closing dave drops the forked copy; the fork counter stays cumulative.
  ASSERT_TRUE(registry.Close("dave").ok());
  EXPECT_EQ(registry.Stats()[kStatDatasets], 1);
  EXPECT_EQ(registry.Stats()[kStatForks], 1)
      << "closing the forking client must not erase its fork from stats";
}

TEST(SessionServerTest, WireGrammarRejectsMalformedLines) {
  // Parse-level fuzzing: every malformed shape is a Status error with the
  // offending token in the message — never a crash, never a partial parse.
  EXPECT_EQ(ParseWireLine("").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ParseWireLine("   # comment").status().code(),
            StatusCode::kNotFound);
  for (const char* bad : {
           "open",                      // truncated: no client
           "open a b c",                // too many args
           "close",                     // truncated
           "close a b",                 // close never takes a dataset
           "stats now",                 // arity
           "quit now",                  // arity
           "c0",                        // truncated: client without command
           "c0 frobnicate",             // unknown verb
           "c0 min-weight PTS",         // truncated command
           "c0 min-weight PTS 1.5",     // out-of-range bound
           "c0 min-weight PTS nan",     // non-numeric
           "c0 eps1 huge",              // non-numeric eps
           "c0 order Jokic",            // no '>'
           "c0 append",                 // no values
           "c0 append 0.1 oops",        // non-numeric value
           "c0 solve extra",            // arity
       }) {
    auto parsed = ParseWireLine(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  // The happy path still parses.
  auto ok = ParseWireLine("c0 min-weight A0 0.25");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->kind, WireRequest::Kind::kCommand);
  EXPECT_EQ(ok->client, "c0");
  EXPECT_EQ(ok->command.kind, SessionCommand::Kind::kMinWeight);
  // The dataset form of open (routed servers; PROTOCOL.md).
  auto routed = ParseWireLine("open alice nba");
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed->kind, WireRequest::Kind::kOpen);
  EXPECT_EQ(routed->client, "alice");
  EXPECT_EQ(routed->dataset, "nba");
  auto plain = ParseWireLine("open alice");
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->dataset.empty());
}

TEST(SessionServerTest, BadCommandsErrorAndLeaveTheSessionIntact) {
  // Execution-level fuzzing: each bad command answers a Status error and
  // the session keeps proving the exact same optimum afterwards.
  Rng rng(91);
  Dataset data = RandomDataset(rng, 12, 3);
  Ranking given = RandomRanking(rng, 12, 5);
  std::vector<std::string> labels = TupleLabels(12);

  ServerOptions server_options;
  server_options.solver = SpatialOptions();
  server_options.num_workers = 1;
  SessionRegistry registry(SharedDataset(std::move(data)), std::move(given),
                           labels, server_options);
  ASSERT_TRUE(registry.Open("c").ok());

  Result<SessionStepOutcome> last = Status::Internal("unset");
  auto run = [&](SessionCommand cmd) {
    last = Status::Internal("unset");
    EXPECT_TRUE(registry
                    .Submit("c", std::move(cmd),
                            [&last](const std::string&,
                                    const Result<SessionStepOutcome>& out) {
                              last = out;
                            })
                    .ok());
    registry.Drain();
  };

  // Baseline: a floor plus a solve.
  run(Cmd(SessionCommand::Kind::kMinWeight, "A0", 0.05, 1));
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  const long baseline_error = last->result.error;
  ASSERT_TRUE(last->result.proven_optimal);

  struct BadCase {
    SessionCommand cmd;
    StatusCode want;
  };
  const BadCase cases[] = {
      // Duplicate constraint name: must drop before re-adding.
      {Cmd(SessionCommand::Kind::kMinWeight, "A0", 0.08, 2),
       StatusCode::kAlreadyExists},
      // Unknown attribute (AttributeIndex reports kNotFound).
      {Cmd(SessionCommand::Kind::kMinWeight, "BOGUS", 0.05, 3),
       StatusCode::kNotFound},
      // Unknown drop name.
      {Cmd(SessionCommand::Kind::kDrop, "min_A2", 0, 4),
       StatusCode::kNotFound},
      // Out-of-range ε edits (pass parsing, fail validation).
      {Cmd(SessionCommand::Kind::kEps1, "", -1.0, 5),
       StatusCode::kInvalidArgument},
      {Cmd(SessionCommand::Kind::kEps2, "", 0.5, 6),
       StatusCode::kInvalidArgument},
      // Unknown labels / self-order.
      {Cmd(SessionCommand::Kind::kOrder, "nope>t1", 0, 7),
       StatusCode::kInvalidArgument},
      {Cmd(SessionCommand::Kind::kOrder, "t1>t1", 0, 8),
       StatusCode::kInvalidArgument},
      // Append arity mismatch (m=3).
      {Cmd(SessionCommand::Kind::kAppend, "0.5", 0, 9),
       StatusCode::kInvalidArgument},
      // Unknown objective.
      {Cmd(SessionCommand::Kind::kObjective, "chaos", 0, 10),
       StatusCode::kInvalidArgument},
      // Non-finite values parse as doubles but fail validation: an
      // appended nan/inf tuple would break every later solve, and no edit
      // removes a tuple.
      {Cmd(SessionCommand::Kind::kAppend, "nan 0.5 0.5", 0, 11),
       StatusCode::kInvalidArgument},
      {Cmd(SessionCommand::Kind::kAppend, "0.5 inf 0.5", 0, 12),
       StatusCode::kInvalidArgument},
      {Cmd(SessionCommand::Kind::kEps1, "",
           std::numeric_limits<double>::infinity(), 13),
       StatusCode::kInvalidArgument},
  };
  for (const BadCase& bad : cases) {
    run(bad.cmd);
    EXPECT_FALSE(last.ok()) << "command on line " << bad.cmd.line
                            << " was accepted";
    EXPECT_EQ(last.status().code(), bad.want)
        << "line " << bad.cmd.line << ": " << last.status().ToString();
  }

  // The session still proves the baseline problem, unchanged.
  run(Cmd(SessionCommand::Kind::kSolve, "", 0, 14));
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_TRUE(last->result.proven_optimal);
  EXPECT_EQ(last->result.error, baseline_error)
      << "rejected edits corrupted the session state";

  // Exactly one min_A0 exists (the duplicate never stacked): dropping it
  // once succeeds, dropping again is kNotFound.
  run(Cmd(SessionCommand::Kind::kDrop, "min_A0", 0, 15));
  EXPECT_TRUE(last.ok()) << last.status().ToString();
  run(Cmd(SessionCommand::Kind::kDrop, "min_A0", 0, 16));
  EXPECT_EQ(last.status().code(), StatusCode::kNotFound);
}

TEST(SessionServerTest, RegistryValidatesClientLifecycles) {
  Rng rng(92);
  ServerOptions server_options;
  server_options.solver = SpatialOptions();
  server_options.num_workers = 1;
  server_options.max_clients = 2;
  SessionRegistry registry(SharedDataset(RandomDataset(rng, 10, 3)),
                           RandomRanking(rng, 10, 4), TupleLabels(10),
                           server_options);

  EXPECT_EQ(registry.Open("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Open("quit").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Open("metrics").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Open("frame").code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(registry.Open("a").ok());
  EXPECT_EQ(registry.Open("a").code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(registry.Open("b").ok());
  EXPECT_EQ(registry.Open("c").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(registry.Submit("ghost", Cmd(SessionCommand::Kind::kSolve),
                            nullptr)
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.Close("ghost").code(), StatusCode::kNotFound);
  ASSERT_TRUE(registry.Close("a").ok());
  EXPECT_EQ(registry.Stats()[kStatClients], 1);
  ASSERT_TRUE(registry.Open("c").ok()) << "closing freed a slot";
}

TEST(SessionServerTest, CancelledSolveReturnsBudgetLimitedWithIncumbent) {
  Rng rng(93);
  Dataset data = RandomDataset(rng, 12, 3);
  Ranking given = RandomRanking(rng, 12, 5);

  ServerOptions server_options;
  server_options.solver = SpatialOptions();
  server_options.num_workers = 2;
  SessionRegistry registry(SharedDataset(std::move(data)), std::move(given),
                           TupleLabels(12), server_options);
  ASSERT_TRUE(registry.Open("victim").ok());
  ASSERT_TRUE(registry.Open("bystander").ok());

  struct Slot {
    Result<SessionStepOutcome> outcome = Status::Internal("unset");
  };
  Slot warm, cancelled, bystander;
  auto capture = [](Slot* slot) {
    return [slot](const std::string&,
                  const Result<SessionStepOutcome>& out) {
      slot->outcome = out;
    };
  };

  // Warm the victim (installs a pool incumbent), then cancel it: the next
  // solve must wind down at the root, keeping the warm incumbent but not
  // claiming a proof.
  ASSERT_TRUE(registry
                  .Submit("victim", Cmd(SessionCommand::Kind::kSolve),
                          capture(&warm))
                  .ok());
  registry.Drain();
  ASSERT_TRUE(warm.outcome.ok());
  ASSERT_TRUE(warm.outcome->result.proven_optimal);

  registry.Cancel("victim");
  ASSERT_TRUE(registry
                  .Submit("victim", Cmd(SessionCommand::Kind::kSolve),
                          capture(&cancelled))
                  .ok());
  ASSERT_TRUE(registry
                  .Submit("bystander", Cmd(SessionCommand::Kind::kSolve),
                          capture(&bystander))
                  .ok());
  registry.Drain();

  ASSERT_TRUE(cancelled.outcome.ok())
      << cancelled.outcome.status().ToString();
  EXPECT_FALSE(cancelled.outcome->result.proven_optimal)
      << "a cancelled search must not claim a proof";
  EXPECT_EQ(cancelled.outcome->result.error, warm.outcome->result.error)
      << "the pooled incumbent should survive the cancelled re-solve";

  ASSERT_TRUE(bystander.outcome.ok());
  EXPECT_TRUE(bystander.outcome->result.proven_optimal)
      << "cancelling one client must not leak into siblings";

  // The flag is consumed by the cancelled command: the victim's next
  // solve runs to a proof again (no permanent poisoning).
  Slot after;
  ASSERT_TRUE(registry
                  .Submit("victim", Cmd(SessionCommand::Kind::kSolve),
                          capture(&after))
                  .ok());
  registry.Drain();
  ASSERT_TRUE(after.outcome.ok());
  EXPECT_TRUE(after.outcome->result.proven_optimal)
      << "a one-shot Cancel poisoned every later solve";
}

TEST(SessionServerTest, ServeStreamSpeaksTheLineProtocol) {
  Rng rng(94);
  RouterOptions router_options;
  router_options.server.solver = SpatialOptions();
  router_options.server.num_workers = 2;
  RegistryRouter router(router_options);
  Dataset data = RandomDataset(rng, 10, 3);
  Ranking given = RandomRanking(rng, 10, 4);
  ASSERT_TRUE(router
                  .RegisterDataset(
                      "players",
                      [data, given]() -> Result<RegistryRouter::DatasetBundle> {
                        return RegistryRouter::DatasetBundle{
                            SharedDataset(Dataset(data)), given,
                            TupleLabels(10)};
                      })
                  .ok());

  std::istringstream in(
      "open alice\n"
      "# a comment line\n"
      "alice solve\n"
      "alice min-weight A0 0.05\n"
      "alice frobnicate 1\n"
      "open alice\n"
      "close bob\n"
      "open carol nba\n"
      "quit\n"
      "alice solve\n");  // after quit: never read
  std::ostringstream out;
  ASSERT_TRUE(ServeStream(&router, in, out).ok());
  const std::string output = out.str();

  EXPECT_NE(output.find("ok open alice players\n"), std::string::npos)
      << output;
  EXPECT_NE(output.find("ok alice line=3"), std::string::npos) << output;
  EXPECT_NE(output.find("ok alice line=4"), std::string::npos) << output;
  EXPECT_NE(output.find("err - wire line 5"), std::string::npos) << output;
  EXPECT_NE(output.find("err alice client already open"), std::string::npos)
      << output;
  EXPECT_NE(output.find("err bob"), std::string::npos) << output;
  // The one-entry catalog knows only its own dataset id.
  EXPECT_NE(output.find("err carol unknown dataset id: nba"),
            std::string::npos)
      << output;
  // quit drains before acking, so it is the last line.
  EXPECT_EQ(output.rfind("ok quit\n"), output.size() - 8) << output;
}

}  // namespace
}  // namespace rankhow
