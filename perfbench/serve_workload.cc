// serve_edits: interactive what-if traffic against the serving stack.
//
// One in-process worker (RegistryRouter + ReactorServer on loopback, with
// the write-ahead journal and the persistent warm cache on, in fresh
// directories) and one in-process CoordServer in front of it. Four
// closed-loop text-framed connections each open their own session on the
// same NBA instance and replay a scripted edit cycle; two talk to the
// worker directly, two go through the coordinator.
//
// Each cycle of a connection's script, with values drawn per (seed,
// connection, cycle) so no two cycles or connections share a constraint
// set, and chosen so the base optimum stays feasible:
//   * tighten    add K weight bounds one by one; each search closes at the
//                root on the reused bound;
//   * relax_miss drop the first bound: a set nobody has proven, so a full
//                search;
//   * tighten    add it back (a set proven earlier in the cycle);
//   * relax_hit  drop the bounds last-in first-out: every step returns to
//                a set proven earlier, served by the warm cache's
//                exact-fingerprint path;
// with a `stats` read after every edit. Afterwards every ack is checked
// against a serial in-process SolveSession replay of the same script.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "app/cli_driver.h"
#include "bench_common.h"
#include "coord/coordinator.h"
#include "coord/shard_map.h"
#include "core/solve_session.h"
#include "core/warm_cache.h"
#include "data/shared_dataset.h"
#include "net/dial.h"
#include "net/reactor.h"
#include "net/socket_server.h"
#include "server/registry_router.h"
#include "server/wire.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/string_util.h"

namespace perfbench {

namespace {

using namespace rankhow;

constexpr int kConnections = 4;  // 0, 1 direct; 2, 3 through the coordinator
constexpr int kDirectConnections = 2;
const char* const kAttributes[] = {"PTS", "REB", "AST", "STL", "BLK"};

enum class Cls { kTighten, kRelaxMiss, kRelaxHit, kRead };
const char* ClsName(Cls cls) {
  switch (cls) {
    case Cls::kTighten:
      return "tighten";
    case Cls::kRelaxMiss:
      return "relax_miss";
    case Cls::kRelaxHit:
      return "relax_hit";
    case Cls::kRead:
      return "read";
  }
  return "?";
}

struct Step {
  Cls cls = Cls::kRead;
  /// The session-script command (edits) or the verb (reads).
  std::string command;
};

/// Appends cycle `cycle` of connection `conn` to `steps`. `base` is the
/// base problem's optimal weights: every bound keeps them feasible.
void AppendCycle(const std::vector<double>& base, uint64_t seed, int conn,
                 int cycle, std::vector<Step>* steps) {
  Rng rng(seed * 1000003ULL + static_cast<uint64_t>(conn) * 7919ULL +
          static_cast<uint64_t>(cycle) + 1);
  std::vector<std::string> adds;
  std::vector<std::string> names;
  for (int a = 0; a < 5; ++a) {
    const double ceiling = std::min(1.0, base[a] + 0.05 + 0.15 * rng.NextDouble());
    adds.push_back(StrFormat("max-weight %s %.6f", kAttributes[a], ceiling));
    names.push_back(std::string("max_") + kAttributes[a]);
  }
  for (int a = 0; a < 5; ++a) {
    if (base[a] < 0.02) continue;  // a floor there would cut the optimum off
    const double floor = base[a] * (0.3 + 0.5 * rng.NextDouble());
    adds.push_back(StrFormat("min-weight %s %.6f", kAttributes[a], floor));
    names.push_back(std::string("min_") + kAttributes[a]);
  }
  auto push = [steps](Cls cls, std::string command) {
    steps->push_back(Step{cls, std::move(command)});
    steps->push_back(Step{Cls::kRead, "stats"});
  };
  for (const std::string& add : adds) push(Cls::kTighten, add);
  push(Cls::kRelaxMiss, "drop " + names[0]);
  push(Cls::kTighten, adds[0]);
  for (size_t j = names.size(); j-- > 0;) {
    push(Cls::kRelaxHit, "drop " + names[j]);
  }
}

struct Ack {
  bool ok = false;
  long error = -1;
  bool proven = false;
  double seconds = 0;
  long nodes = -1;
};

/// "ok CLIENT line=N error=E bound=B proven=yes seconds=S nodes=K".
Ack ParseAck(const std::string& line, const std::string& client) {
  Ack ack;
  if (line.rfind("ok " + client + " line=", 0) != 0) return ack;
  std::map<std::string, std::string> fields;
  for (const std::string& token : Split(line, ' ')) {
    const size_t eq = token.find('=');
    if (eq != std::string::npos) fields[token.substr(0, eq)] = token.substr(eq + 1);
  }
  if (!fields.count("error") || !fields.count("seconds") ||
      !fields.count("nodes")) {
    return ack;
  }
  ack.ok = true;
  ack.error = std::atol(fields["error"].c_str());
  ack.proven = fields["proven"] == "yes";
  ack.seconds = std::atof(fields["seconds"].c_str());
  ack.nodes = std::atol(fields["nodes"].c_str());
  return ack;
}

/// "ok VERB k=v k=v ..." -> {k: v} (empty when the line is not `ok VERB`).
std::map<std::string, double> ParseFields(const std::optional<std::string>& line,
                                          const std::string& verb) {
  std::map<std::string, double> fields;
  if (!line || line->rfind("ok " + verb + " ", 0) != 0) return fields;
  for (const std::string& token : Split(*line, ' ')) {
    const size_t eq = token.find('=');
    if (eq != std::string::npos) {
      fields[token.substr(0, eq)] = std::atof(token.substr(eq + 1).c_str());
    }
  }
  return fields;
}

struct Sample {
  Cls cls = Cls::kRead;
  double ms = 0;
  bool ok = false;
  std::string reply;  // kept for failed requests only
  Ack ack;
  size_t step = 0;
};

/// One connection's client: its session name, script, and what it saw.
struct Client {
  int index = 0;
  std::string name;
  LineClient conn;
  long base_error = -1;
  std::vector<Step> steps;
  std::vector<Sample> samples;
  Tracer tracer{false};
};

/// The serving stack: worker (router + reactor) and coordinator.
struct Stack {
  std::string dir;
  ServerMetrics metrics;
  std::unique_ptr<RegistryRouter> router;
  std::unique_ptr<ReactorServer> server;
  std::unique_ptr<CoordServer> coord;
  int worker_port = 0;
  int coord_port = 0;

  Status Start(const Instance& instance, const std::string& root) {
    dir = root;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir + "/journal", ec);
    std::filesystem::create_directories(dir + "/cache", ec);
    if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());
    RouterOptions options;
    options.server.solver = BenchSolverOptions();
    options.server.num_workers = kConnections;
    options.journal_dir = dir + "/journal";
    options.warm_cache_dir = dir + "/cache";
    router = std::make_unique<RegistryRouter>(options);
    const Dataset data = instance.data;
    const Ranking given = instance.given;
    Status registered = router->RegisterDataset(
        "nba", [data, given]() -> Result<RegistryRouter::DatasetBundle> {
          RegistryRouter::DatasetBundle bundle;
          bundle.data = SharedDataset(Dataset(data));
          bundle.given = Ranking(given);
          for (int t = 0; t < data.num_tuples(); ++t) {
            bundle.labels.push_back("t" + std::to_string(t));
          }
          return bundle;
        });
    if (!registered.ok()) return registered;
    ServeStreamOptions serve_options;
    serve_options.connection_scoped_clients = true;
    serve_options.metrics = &metrics;
    ReactorOptions reactor_options;
    reactor_options.metrics = &metrics;
    reactor_options.num_loops = 2;
    server = std::make_unique<ReactorServer>(
        MakeWireReactorCallbacks(router.get(), serve_options), reactor_options);
    ListenAddress address;
    address.kind = ListenAddress::Kind::kTcp;
    address.host = "127.0.0.1";
    address.port = 0;
    Status started = server->Start(address);
    if (!started.ok()) return started;
    worker_port = server->bound().port;

    auto map = ShardMap::Parse("127.0.0.1:" + std::to_string(worker_port), "");
    if (!map.ok()) return map.status();
    coord = std::make_unique<CoordServer>(*std::move(map), CoordOptions());
    started = coord->Start(address);
    if (!started.ok()) return started;
    coord_port = coord->bound().port;
    return Status::OK();
  }

  void Stop() {
    if (coord != nullptr) coord->Stop();
    if (server != nullptr) server->Stop();
    coord.reset();
    server.reset();
    router.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

std::optional<std::string> RoundTrip(LineClient* conn, const std::string& line) {
  if (!conn->SendLine(line)) return std::nullopt;
  return conn->ReadLine();
}

/// Connects client `c`, opens its session and runs the base solve.
Status OpenClient(const Stack& stack, int c, Client* client) {
  client->index = c;
  client->name = "c" + std::to_string(c);
  const int port = c < kDirectConnections ? stack.worker_port : stack.coord_port;
  if (!client->conn.ConnectTcp("127.0.0.1", port)) {
    return Status::IoError("cannot connect to port " + std::to_string(port));
  }
  auto opened = RoundTrip(&client->conn, "open " + client->name + " nba");
  if (!opened || opened->rfind("ok open " + client->name, 0) != 0) {
    return Status::Internal("open failed: " + opened.value_or("<eof>"));
  }
  auto solved = RoundTrip(&client->conn, client->name + " solve");
  const Ack ack = ParseAck(solved.value_or(""), client->name);
  if (!ack.ok || !ack.proven) {
    return Status::Internal("base solve failed: " + solved.value_or("<eof>"));
  }
  client->base_error = ack.error;
  return Status::OK();
}

/// Closed loop: next request only after the previous reply.
void DriveClient(Client* client, const std::vector<double>& base, uint64_t seed,
                 double end_time) {
  int cycle = 0;
  for (size_t pos = 0; Now() < end_time; ++pos) {
    if (pos == client->steps.size()) {
      AppendCycle(base, seed, client->index, cycle++, &client->steps);
    }
    const Step& step = client->steps[pos];
    const std::string line = step.cls == Cls::kRead
                                 ? step.command
                                 : client->name + " " + step.command;
    ScopedSpan span(&client->tracer, std::string("wire.") + ClsName(step.cls),
                    -1, client->index * 1000000LL + static_cast<int64_t>(pos));
    const double t0 = Now();
    std::optional<std::string> reply = RoundTrip(&client->conn, line);
    Sample sample;
    sample.ms = (Now() - t0) * 1e3;
    sample.cls = step.cls;
    sample.step = pos;
    sample.reply = reply.value_or("<eof>");
    if (step.cls == Cls::kRead) {
      sample.ok = sample.reply.rfind("ok stats ", 0) == 0;
    } else {
      sample.ack = ParseAck(sample.reply, client->name);
      sample.ok = sample.ack.ok && sample.ack.proven;
    }
    if (sample.ok) sample.reply.clear();
    client->samples.push_back(std::move(sample));
    if (!reply) break;
  }
}

/// The script's constraint state as a canonical key.
std::string StateKey(const std::map<std::string, std::string>& state) {
  std::string key;
  for (const auto& [name, command] : state) key += command + ";";
  return key;
}

/// Serial in-process replay of one client's executed script through a
/// fresh SolveSession with its own warm cache (so returning to a proven
/// set stays cheap, as on the server). The expected error of a step is the
/// replay's *first* proof of that constraint set, so a served cache hit is
/// checked against an independent search, not against another cache hit.
/// Returns the expected error of every executed edit, keyed by step index.
std::map<size_t, long> Replay(const Instance& instance, const Client& client,
                              const std::string& cache_dir, long* base_error,
                              std::string* failure) {
  std::map<size_t, long> expected;
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  auto cache = WarmCache::Open(cache_dir);
  if (!cache.ok()) {
    *failure = "replay cache: " + cache.status().ToString();
    return expected;
  }
  SolveSession session(SharedDataset(Dataset(instance.data)),
                       Ranking(instance.given), BenchSolverOptions());
  session.AttachWarmCache(cache->get());
  std::vector<std::string> labels;
  for (int t = 0; t < instance.data.num_tuples(); ++t) {
    labels.push_back("t" + std::to_string(t));
  }
  Result<RankHowResult> base = session.Solve();
  if (!base.ok() || !base->proven_optimal) {
    *failure = "replay base solve failed";
    return expected;
  }
  *base_error = base->error;
  std::map<std::string, std::string> state;  // constraint name -> command
  std::map<std::string, long> proven = {{StateKey(state), base->error}};
  for (const Sample& sample : client.samples) {
    if (sample.cls == Cls::kRead) continue;
    const std::string& text = client.steps[sample.step].command;
    auto parsed = ParseSessionScript(text);
    if (!parsed.ok() || parsed->size() != 1) {
      *failure = "unparsable script line: " + text;
      return expected;
    }
    const SessionCommand& cmd = parsed->front();
    if (cmd.kind == SessionCommand::Kind::kDrop) {
      state.erase(cmd.arg);
    } else {
      state[(cmd.kind == SessionCommand::Kind::kMinWeight ? "min_" : "max_") +
            cmd.arg] = text;
    }
    auto outcome = ExecuteSessionCommand(&session, cmd, labels);
    if (!outcome.ok() || !outcome->result.proven_optimal) {
      *failure = "replay solve failed: " + text;
      return expected;
    }
    auto [known, first] = proven.emplace(StateKey(state), outcome->result.error);
    if (!first && known->second != outcome->result.error) {
      *failure = "replay disagrees with its own earlier proof: " + text;
      return expected;
    }
    expected[sample.step] = known->second;
  }
  return expected;
}

double MeanOf(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / v.size();
}

}  // namespace

void RunServeWorkload(const RunConfig& config, Report* report) {
  const int n = config.tiny ? 40 : 100;
  const int setups = config.tiny ? 1 : 5;
  const std::string root =
      config.out_dir + "/serve-" + std::to_string(getpid());

  // Set-up, repeated on fresh directories; the last stack serves. Each
  // round: instance generation, worker and coordinator start, four
  // connections opening their sessions and running the base solve.
  std::vector<double> setup_seconds;
  Instance instance;
  std::unique_ptr<Stack> stack;
  std::vector<Client> clients;
  for (int round = 0; round < setups; ++round) {
    clients.clear();  // closing a connection closes its session
    if (stack != nullptr) stack->Stop();
    stack = std::make_unique<Stack>();
    clients = std::vector<Client>(kConnections);
    const double reference_s = ReferenceCpuSeconds();
    const double t0 = Now();
    instance = MakeNbaInstance(n, 5, 6, config.seed);
    Status status = stack->Start(instance, root + "-" + std::to_string(round));
    std::vector<Status> opened(kConnections);
    std::vector<std::thread> openers;
    for (int c = 0; c < kConnections && status.ok(); ++c) {
      openers.emplace_back(
          [&, c] { opened[c] = OpenClient(*stack, c, &clients[c]); });
    }
    for (std::thread& t : openers) t.join();
    for (const Status& s : opened) {
      if (status.ok() && !s.ok()) status = s;
    }
    if (!status.ok()) {
      report->Attempt();
      report->Fail("set-up failed: " + status.ToString());
      clients.clear();
      stack->Stop();
      return;
    }
    setup_seconds.push_back((Now() - t0) * kReferenceSeconds / reference_s);
  }
  report->Set("setup_s", Median(setup_seconds), "s",
              static_cast<long>(setup_seconds.size()));
  report->Info("instance", StrFormat("NBA n=%d m=5 k=6 permuted by seed", n));

  // The base optimum's weights, from the same session code the server
  // runs; every scripted bound keeps them feasible.
  SolveSession probe(SharedDataset(Dataset(instance.data)),
                     Ranking(instance.given), BenchSolverOptions());
  Result<RankHowResult> base = probe.Solve();
  if (!base.ok()) {
    report->Attempt();
    report->Fail("base solve failed: " + base.status().ToString());
    clients.clear();
    stack->Stop();
    return;
  }
  const std::vector<double> base_weights = base->function.weights;

  LineClient scraper;
  scraper.ConnectTcp("127.0.0.1", stack->worker_port);
  const auto stats_before = ParseFields(RoundTrip(&scraper, "stats"), "stats");
  const auto metrics_before =
      ParseFields(RoundTrip(&scraper, "metrics"), "metrics");

  // Machine speed next to the window (see kReferenceSeconds), measured
  // while the clients are idle.
  std::vector<double> references;
  for (int i = 0; i < 5; ++i) references.push_back(ReferenceCpuSeconds());

  // Measurement window.
  const double start = Now();
  const double end_time = start + config.seconds;
  std::vector<std::thread> drivers;
  for (Client& client : clients) {
    client.tracer = Tracer(config.trace);
    drivers.emplace_back([&client, &base_weights, &config, end_time] {
      DriveClient(&client, base_weights, config.seed, end_time);
    });
  }
  for (std::thread& t : drivers) t.join();
  const double window = Now() - start;

  const auto stats_after = ParseFields(RoundTrip(&scraper, "stats"), "stats");
  const auto metrics_after =
      ParseFields(RoundTrip(&scraper, "metrics"), "metrics");
  for (Client& client : clients) {
    report->Attempt();
    auto quit = RoundTrip(&client.conn, "quit");
    if (!quit || *quit != "ok quit") {
      report->Fail(client.name + ": quit failed: " + quit.value_or("<eof>"));
    }
  }
  (void)RoundTrip(&scraper, "quit");
  stack->Stop();
  // The serving process's peak, before the checking replay below.
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  for (int i = 0; i < 5; ++i) references.push_back(ReferenceCpuSeconds());
  const double speed = kReferenceSeconds / Median(references);
  report->Info("reference_median_s", StrFormat("%.6f", Median(references)));

  if (config.corrupt_ack) {
    for (Sample& s : clients[0].samples) {
      if (s.cls != Cls::kRead && s.ack.ok) {
        ++s.ack.error;
        break;
      }
    }
  }

  // Serial replay per connection (connections are independent, so the
  // four replays run side by side), then every ack is checked.
  std::vector<std::map<size_t, long>> expected(kConnections);
  std::vector<long> replay_base(kConnections, -1);
  std::vector<std::string> replay_failure(kConnections);
  {
    std::vector<std::thread> replays;
    for (int c = 0; c < kConnections; ++c) {
      replays.emplace_back([&, c] {
        expected[c] = Replay(instance, clients[c],
                             root + "-replay-" + std::to_string(c),
                             &replay_base[c], &replay_failure[c]);
      });
    }
    for (std::thread& t : replays) t.join();
    std::error_code ec;
    for (int c = 0; c < kConnections; ++c) {
      std::filesystem::remove_all(root + "-replay-" + std::to_string(c), ec);
    }
  }

  std::map<std::string, std::vector<double>> ms;  // "<leg>.<class>" -> ms
  std::map<Cls, std::vector<double>> ack_seconds;
  long edit_acks = 0;
  long root_closes = 0;
  long direct_commands = 0;
  for (int c = 0; c < kConnections; ++c) {
    const Client& client = clients[c];
    const bool direct = c < kDirectConnections;
    report->Attempt();  // the base solve
    if (client.base_error != base->error || replay_base[c] != base->error) {
      report->Fail(StrFormat("%s: base error %ld, replay %ld, in-process %ld",
                             client.name.c_str(), client.base_error,
                             replay_base[c], base->error));
    }
    if (!replay_failure[c].empty()) {
      report->Fail(client.name + ": " + replay_failure[c]);
    }
    for (const Sample& s : client.samples) {
      report->Attempt();
      if (direct) ++direct_commands;
      const std::string& command = client.steps[s.step].command;
      if (s.cls == Cls::kRead) {
        if (!s.ok) {
          report->Fail(client.name + ": stats failed: " + s.reply);
          continue;
        }
      } else {
        auto want = expected[c].find(s.step);
        if (!s.ack.ok) {
          report->Fail(client.name + " " + command + ": " + s.reply);
          continue;
        }
        if (!s.ack.proven) {
          report->Fail(client.name + " " + command + ": not proven: " + s.reply);
          continue;
        }
        if (want == expected[c].end() || want->second != s.ack.error) {
          report->Fail(StrFormat(
              "%s %s: ack error %ld, serial replay %ld", client.name.c_str(),
              command.c_str(), s.ack.error,
              want == expected[c].end() ? -1L : want->second));
          continue;
        }
        ++edit_acks;
        if (s.ack.nodes == 0) ++root_closes;
        ack_seconds[s.cls].push_back(s.ack.seconds);
      }
      ms[std::string(direct ? "direct." : "coord.") + ClsName(s.cls)].push_back(
          s.ms);
    }
  }

  auto series = [&ms](const std::string& key) -> const std::vector<double>& {
    static const std::vector<double> kEmpty;
    auto it = ms.find(key);
    return it == ms.end() ? kEmpty : it->second;
  };
  auto latency = [&](const std::string& name, const std::string& key,
                     double q) {
    const std::vector<double>& v = series(key);
    report->Set(name, Quantile(v, q), "ms", static_cast<long>(v.size()));
    if (SamplesBeyond(static_cast<long>(v.size()), q) < 10) {
      report->Info(name, "fewer than 10 samples beyond the percentile");
    }
  };

  // End-to-end, speed-adjusted (the per-class latencies below are not).
  const std::vector<double>& misses = series("direct.relax_miss");
  report->Set("solve_s", Median(misses) / 1e3 * speed, "s",
              static_cast<long>(misses.size()));
  report->Set("ops_per_s", direct_commands / window / speed, "1/s",
              direct_commands);
  report->Set("error", static_cast<double>(base->error), "count");
  report->SetOkFrac();

  // Per-class client latencies (direct leg unless named otherwise).
  report->Set("cmds_per_s", direct_commands / window, "1/s", direct_commands);
  latency("tighten_p50_ms", "direct.tighten", 0.50);
  latency("tighten_p99_ms", "direct.tighten", 0.99);
  latency("relax_miss_p50_ms", "direct.relax_miss", 0.50);
  latency("relax_miss_p90_ms", "direct.relax_miss", 0.90);
  latency("relax_hit_p50_ms", "direct.relax_hit", 0.50);
  latency("read_p99_ms", "direct.read", 0.99);
  latency("coord_tighten_p50_ms", "coord.tighten", 0.50);

  // Session and cache layers, from the acks and the stats scrapes.
  for (Cls cls : {Cls::kTighten, Cls::kRelaxMiss, Cls::kRelaxHit}) {
    const std::vector<double>& v = ack_seconds[cls];
    report->Set(std::string("core.session.solve_ms.") + ClsName(cls),
                MeanOf(v) * 1e3, "ms", static_cast<long>(v.size()));
  }
  report->Set("core.session.root_close_frac",
              edit_acks > 0 ? static_cast<double>(root_closes) / edit_acks : 0,
              "fraction", edit_acks);
  auto delta = [&](const std::map<std::string, double>& before,
                   const std::map<std::string, double>& after,
                   const std::string& field) {
    auto b = before.find(field);
    auto a = after.find(field);
    return (a == after.end() ? 0 : a->second) -
           (b == before.end() ? 0 : b->second);
  };
  auto stat = [&](const std::string& name, const std::string& field) {
    report->Set(name, delta(stats_before, stats_after, field), "count");
  };
  stat("core.warm_cache.hits", "cache_hits");
  stat("core.warm_cache.misses", "cache_misses");
  stat("core.warm_cache.demotions", "cache_demotions");
  stat("core.warm_cache.publishes", "cache_publishes");
  stat("core.shared_pool.draws", "shared_drawn");
  stat("core.shared_pool.publishes", "shared_published");
  stat("server.journal.records", "journal_records");
  stat("server.journal.fsyncs", "journal_fsyncs");
  stat("server.shed", "shed");
  report->Set("net.writes_retried",
              delta(metrics_before, metrics_after, "writes_retried"), "count");
  report->Set("net.protocol_errors",
              delta(metrics_before, metrics_after, "protocol_errors"), "count");

  // Server, network and coordinator layers. The worker's `edit` latency
  // (dispatch to response) is cumulative since start; every edit it served
  // ran inside the window.
  std::vector<double> all_acks;
  for (const auto& [cls, v] : ack_seconds) {
    all_acks.insert(all_acks.end(), v.begin(), v.end());
  }
  const double edit_server_us =
      metrics_after.count("edit.mean_us") ? metrics_after.at("edit.mean_us") : 0;
  std::vector<double> direct_edits = series("direct.tighten");
  for (const char* key : {"direct.relax_miss", "direct.relax_hit"}) {
    const std::vector<double>& v = series(key);
    direct_edits.insert(direct_edits.end(), v.begin(), v.end());
  }
  report->Set("server.queue_session_us", edit_server_us - MeanOf(all_acks) * 1e6,
              "us", static_cast<long>(all_acks.size()));
  report->Set("net.transport_us", MeanOf(direct_edits) * 1e3 - edit_server_us,
              "us", static_cast<long>(direct_edits.size()));
  report->Set("net.stats_server_us",
              metrics_after.count("stats.mean_us") ? metrics_after.at("stats.mean_us")
                                                   : 0,
              "us");
  report->Set("coord.overhead_us",
              (MeanOf(series("coord.tighten")) - MeanOf(series("direct.tighten"))) *
                  1e3,
              "us", static_cast<long>(series("coord.tighten").size()));

  if (!config.trace) return;
  double tracer_seconds = 0;
  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  const std::string path = config.out_dir + "/trace-serve_edits-" +
                           std::to_string(config.seed) + ".jsonl";
  bool written = true;
  for (Client& client : clients) {
    tracer_seconds += client.tracer.overhead_seconds();
    written = client.tracer.WriteJsonLines(path, client.index > 0) && written;
  }
  if (written) report->Info("trace_file", path);
  report->Set("trace.overhead_frac", tracer_seconds / (window * kConnections),
              "fraction");
}

}  // namespace perfbench
