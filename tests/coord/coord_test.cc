// Shard-coordinator suite (coord/tsan-labelled; see CMakeLists.txt):
//
//  * ShardMap unit coverage: --workers/--shard-map parsing, fixed pins,
//    sticky round-robin assignment, fall-over without rebinding, and the
//    clean kIoError when nothing is alive.
//  * AggregateFieldLines over real worker lines: identity on one line,
//    each field merged by its declared kind (journal_degraded summed,
//    high-water marks max-merged), and the merge property — latencies split
//    across 1-4 workers merge to the quantiles of one histogram of the
//    union.
//  * The routing acceptance walk: two in-process workers behind an
//    in-process CoordServer, two clients on different pinned shards, every
//    proven result equal to a serial single-session replay, and each
//    worker demonstrably owning exactly its pinned session.
//  * Health transitions against a fake worker: stop answering probes ->
//    down after the failure threshold; resume -> up on one success.
//  * `open` against an unreachable worker answers a clean `err` line
//    (never a hang) after the dial-probe-reroute loop runs dry.
//  * Scatter-gather arithmetic over real workers: session counters sum,
//    coord_* fields and the per-worker up/down breakdown appear, and the
//    fleet's solve latencies are the bucket-wise merge of the workers'.
//  * The docs/PROTOCOL.md conformance walk (tests/support) replayed
//    through the coordinator — byte-identical behavior to a direct
//    worker, modulo worker-side transport gauges.
//
// SIGKILL-based coordinator failover lives in tests/chaos (chaos label);
// this suite keeps everything in-process so it can run under tsan.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "app/cli_driver.h"
#include "coord/coordinator.h"
#include "coord/health.h"
#include "coord/shard_map.h"
#include "core/solve_session.h"
#include "net/dial.h"
#include "net/reactor.h"
#include "net/socket_server.h"
#include "server/registry_router.h"
#include "server/wire.h"
#include "tests/support/protocol_conformance.h"
#include "util/fault.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/string_util.h"

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

/// One in-process worker: the same router-backed reactor stack
/// `rankhow_cli --listen` runs, serving datasets d0/d1. A non-empty
/// `journal_dir` journals every record with an fsync, so an armed fsync
/// fault degrades a dataset's journal at its first open.
struct WorkerFixture {
  std::vector<Dataset> datasets;
  std::vector<Ranking> rankings;
  ServerMetrics metrics;
  std::unique_ptr<RegistryRouter> router;
  std::unique_ptr<ReactorServer> server;
  int port = 0;

  explicit WorkerFixture(uint64_t seed = 401, int n = 8, int k = 3,
                         const std::string& journal_dir = "") {
    Rng rng(seed);
    for (int i = 0; i < 2; ++i) {
      datasets.push_back(RandomDataset(rng, n, 3));
      rankings.push_back(RandomRanking(rng, n, k));
    }
    RouterOptions options;
    options.server.solver = SpatialOptions();
    options.server.num_workers = 2;
    options.journal_dir = journal_dir;
    options.journal.fsync_every = 1;
    options.journal.max_retries = 1;
    router = std::make_unique<RegistryRouter>(options);
    for (int i = 0; i < 2; ++i) {
      const Dataset& data = datasets[i];
      const Ranking& given = rankings[i];
      EXPECT_TRUE(router
                      ->RegisterDataset(
                          "d" + std::to_string(i),
                          [data, given]()
                              -> Result<RegistryRouter::DatasetBundle> {
                            RegistryRouter::DatasetBundle bundle;
                            bundle.data = SharedDataset(Dataset(data));
                            bundle.given = Ranking(given);
                            bundle.labels = TupleLabels(data.num_tuples());
                            return bundle;
                          })
                      .ok());
    }
    ServeStreamOptions serve_options;
    serve_options.connection_scoped_clients = true;
    serve_options.metrics = &metrics;
    ReactorOptions reactor_options;
    reactor_options.metrics = &metrics;
    reactor_options.num_loops = 2;
    server = std::make_unique<ReactorServer>(
        MakeWireReactorCallbacks(router.get(), serve_options),
        reactor_options);
  }

  ~WorkerFixture() {
    if (server != nullptr) server->Stop();
  }

  Status StartTcp() {
    ListenAddress address;
    address.kind = ListenAddress::Kind::kTcp;
    address.host = "127.0.0.1";
    address.port = 0;
    Status started = server->Start(address);
    if (started.ok()) port = server->bound().port;
    return started;
  }

  std::string Spec() const { return "127.0.0.1:" + std::to_string(port); }
};

/// Coordinator over already-started workers, with test-speed health
/// settings. Stops on destruction.
struct CoordFixture {
  std::unique_ptr<CoordServer> coord;
  ListenAddress endpoint;

  Status Start(const std::string& workers_spec,
               const std::string& shard_map_spec,
               int dial_timeout_ms = 2000) {
    auto map = ShardMap::Parse(workers_spec, shard_map_spec);
    if (!map.ok()) return map.status();
    CoordOptions options;
    options.health.interval_ms = 100;
    options.health.timeout_ms = 1000;
    options.health.failure_threshold = 2;
    options.health.dial_timeout_ms = dial_timeout_ms;
    coord = std::make_unique<CoordServer>(*std::move(map), options);
    ListenAddress listen;
    listen.kind = ListenAddress::Kind::kTcp;
    listen.host = "127.0.0.1";
    listen.port = 0;
    Status started = coord->Start(listen);
    if (started.ok()) endpoint = coord->bound();
    return started;
  }

  ~CoordFixture() {
    if (coord != nullptr) coord->Stop();
  }
};

/// "... name=V ..." -> V, or -1 when absent/garbled.
long long ParseField(const std::string& text, const std::string& name) {
  const std::string needle = " " + name + "=";
  size_t at = text.find(needle);
  if (at == std::string::npos) {
    if (text.rfind(name + "=", 0) != 0) return -1;
    at = 0;
  } else {
    at += 1;
  }
  const size_t begin = text.find('=', at) + 1;
  const size_t end = text.find(' ', begin);
  auto value = ParseInt(
      text.substr(begin, end == std::string::npos ? end : end - begin));
  return value.ok() ? static_cast<long long>(*value) : -1;
}

/// Runs `script` through the worker's router over one stdio stream (the
/// worker's own wire code, no socket; queued commands finish before it
/// returns) and returns the body of its last `ok VERB ...` reply ("" when
/// there is none, e.g. for VERB "" when the script runs for its effects).
std::string ServeBody(WorkerFixture* worker, const std::string& script,
                      const std::string& verb) {
  std::istringstream in(script);
  std::ostringstream out;
  ServeStreamOptions options;
  options.metrics = &worker->metrics;
  EXPECT_TRUE(ServeStream(worker->router.get(), in, out, options).ok());
  const std::string prefix = "ok " + verb + " ";
  std::string body;
  for (const std::string& reply : Split(out.str(), '\n')) {
    if (reply.rfind(prefix, 0) == 0) body = reply.substr(prefix.size());
  }
  return body;
}

/// A self-deleting scratch directory.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/rankhow_coord_XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) path = tmpl;
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

/// Disarms every fault point when the test ends, pass or fail.
struct FaultGuard {
  ~FaultGuard() { FaultInjector::Global().Reset(); }
};

/// A minimal stand-in worker for health tests: answers every text line
/// with a plausible `ok stats` line, until stopped. Restartable on the
/// same port (SO_REUSEADDR), which is how the up-transition is staged.
class FakeWorker {
 public:
  ~FakeWorker() { Stop(); }

  bool Start(int port = 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return false;
    int one = 1;
    (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof(one));
    sockaddr_in sin;
    std::memset(&sin, 0, sizeof(sin));
    sin.sin_family = AF_INET;
    sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sin.sin_port = htons(static_cast<uint16_t>(port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sin),
               sizeof(sin)) != 0 ||
        ::listen(listen_fd_, 16) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    socklen_t len = sizeof(sin);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&sin),
                      &len) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    port_ = ntohs(sin.sin_port);
    stopping_.store(false);
    accept_thread_ = std::thread([this, fd = listen_fd_] { AcceptLoop(fd); });
    return true;
  }

  void Stop() {
    stopping_.store(true);
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int fd : conns_) ::shutdown(fd, SHUT_RDWR);
    }
    if (accept_thread_.joinable()) accept_thread_.join();
    for (std::thread& t : conn_threads_) {
      if (t.joinable()) t.join();
    }
    conn_threads_.clear();
    for (int fd : conns_) ::close(fd);
    conns_.clear();
  }

  int port() const { return port_; }

 private:
  /// Takes the listening fd by value: Stop() resets listen_fd_ while this
  /// thread may still be parked in accept().
  void AcceptLoop(int listen_fd) {
    for (;;) {
      int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load()) {
        ::close(fd);
        return;
      }
      conns_.push_back(fd);
      conn_threads_.emplace_back([this, fd] { Serve(fd); });
    }
  }

  void Serve(int fd) {
    std::string buffer;
    char chunk[256];
    for (;;) {
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return;
      buffer.append(chunk, static_cast<size_t>(n));
      size_t nl;
      while ((nl = buffer.find('\n')) != std::string::npos) {
        buffer.erase(0, nl + 1);
        const char reply[] = "ok stats fake=1\n";
        if (::send(fd, reply, sizeof(reply) - 1, MSG_NOSIGNAL) < 0) return;
      }
    }
  }

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::mutex mu_;
  std::vector<int> conns_;
  std::vector<std::thread> conn_threads_;
};

/// Polls `pred` until it holds or ~`deadline_ms` lapses.
bool WaitFor(const std::function<bool()>& pred, int deadline_ms = 15000) {
  for (int waited = 0; waited < deadline_ms; waited += 20) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

TEST(ShardMapTest, ParsesWorkersAndPins) {
  auto map = ShardMap::Parse("127.0.0.1:9001,127.0.0.1:9002",
                             "nba=127.0.0.1:9001,csr=127.0.0.1:9003");
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  // Workers named only in the shard map join the worker list.
  ASSERT_EQ(map->workers().size(), 3u);
  EXPECT_EQ(map->workers()[2].spec, "127.0.0.1:9003");
  EXPECT_EQ(map->num_fixed_shards(), 2);
  EXPECT_EQ(map->PrimaryFor("nba"), 0);
  EXPECT_EQ(map->PrimaryFor("csr"), 2);
  EXPECT_EQ(map->PrimaryFor(""), 0) << "default dataset lives on worker 0";
  EXPECT_EQ(map->PrimaryFor("unassigned"), -1);

  EXPECT_FALSE(ShardMap::Parse("", "").ok()) << "no workers at all";
  EXPECT_FALSE(ShardMap::Parse("127.0.0.1:1,", "").ok());
  EXPECT_FALSE(ShardMap::Parse("", "nba=127.0.0.1:1,nba=127.0.0.1:2").ok())
      << "duplicate dataset pin";
  EXPECT_FALSE(ShardMap::Parse("", "nba").ok()) << "missing '='";
  EXPECT_FALSE(ShardMap::Parse("notaport", "").ok());
}

TEST(ShardMapTest, RoutingIsStickyAndFallsOverWithoutRebinding) {
  auto map = ShardMap::Parse("h:1,h:2,h:3", "pinned=h:2");
  ASSERT_TRUE(map.ok());
  std::vector<bool> alive = {true, true, true};
  auto is_alive = [&alive](int i) { return alive[static_cast<size_t>(i)]; };

  // Fresh datasets round-robin and stick.
  auto a = map->Route("a", is_alive);
  auto b = map->Route("b", is_alive);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b) << "round-robin assigned two datasets to one worker";
  for (int repeat = 0; repeat < 3; ++repeat) {
    auto again = map->Route("a", is_alive);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *a) << "sticky assignment wandered";
  }
  // Pins always win.
  auto pinned = map->Route("pinned", is_alive);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(*pinned, 1);

  // A down primary falls over in list order WITHOUT rebinding: the
  // sticky/fixed assignment survives for when it comes back.
  alive[static_cast<size_t>(*a)] = false;
  auto failed_over = map->Route("a", is_alive);
  ASSERT_TRUE(failed_over.ok());
  EXPECT_NE(*failed_over, *a);
  EXPECT_EQ(map->PrimaryFor("a"), *a) << "fall-over rebound the primary";
  alive[static_cast<size_t>(*a)] = true;
  auto back = map->Route("a", is_alive);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, *a) << "primary did not resume after recovery";

  // Nothing alive: a clean error, with the dataset named.
  alive = {false, false, false};
  auto none = map->Route("a", is_alive);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kIoError);
  EXPECT_NE(none.status().message().find("'a'"), std::string::npos)
      << none.status().ToString();
  // A fresh dataset with nothing alive must not get a sticky binding.
  EXPECT_FALSE(map->Route("fresh", is_alive).ok());
  EXPECT_EQ(map->PrimaryFor("fresh"), -1);
}

TEST(AggregateTest, SingleLineIsIdentity) {
  // A real worker's `stats` and `metrics` bodies pass through unchanged,
  // histogram blocks spanning several buckets included.
  WorkerFixture worker;
  for (uint64_t usec : {3, 90, 1500, 250000}) {
    worker.metrics.RecordVerb(WireVerb::kSolve, usec);
  }
  ServeBody(&worker, "open a d0\na solve\na min-weight A0 0.05\n", "");
  for (const std::string verb : {"stats", "metrics"}) {
    const std::string body = ServeBody(&worker, verb + "\n", verb);
    ASSERT_NE(body.find("="), std::string::npos) << verb;
    EXPECT_EQ(AggregateFieldLines({body}), body);
  }
}

TEST(AggregateTest, SumsCountersAndMaxMergesGauges) {
  // Two real workers, each with one journal that degraded at its first
  // open: journal_degraded counts journals, so the fleet has 2.
  TempDir dir0, dir1;
  FaultGuard guard;
  FaultInjector::Global().Arm(faults::kJournalFsyncFail, 1, /*count=*/-1);
  WorkerFixture w0(/*seed=*/401, 8, 3, dir0.path);
  WorkerFixture w1(/*seed=*/402, 8, 3, dir1.path);
  ServeBody(&w0, "open a d0\na solve\n", "");
  ServeBody(&w1, "open b d1\nb solve\nb min-weight A0 0.05\n", "");
  FaultInjector::Global().Reset();
  w0.metrics.writes_queued_peak = 100;
  w1.metrics.writes_queued_peak = 700;
  const std::string s0 = ServeBody(&w0, "stats\n", "stats");
  const std::string s1 = ServeBody(&w1, "stats\n", "stats");
  ASSERT_EQ(ParseField(s0, "journal_degraded"), 1) << s0;
  ASSERT_EQ(ParseField(s1, "journal_degraded"), 1) << s1;

  const std::string merged = AggregateFieldLines({s0, s1});
  EXPECT_EQ(ParseField(merged, "journal_degraded"), 2) << merged;
  EXPECT_EQ(ParseField(merged, "clients"), 2) << merged;
  EXPECT_EQ(ParseField(merged, "commands"), 3) << merged;
  EXPECT_EQ(ParseField(merged, "journal_records"),
            ParseField(s0, "journal_records") +
                ParseField(s1, "journal_records"))
      << merged;
  EXPECT_EQ(ParseField(merged, "writes_queued_peak"), 700) << merged;
  EXPECT_EQ(ParseField(merged, "cache_degraded"), 0) << merged;
}

TEST(AggregateTest, FleetQuantilesAreQuantilesOfTheSampleUnion) {
  // Random latencies split across 1-4 workers: for every verb, the merged
  // `metrics` line reports what one worker fed every sample reports.
  Rng rng(2207);
  for (int trial = 0; trial < 40; ++trial) {
    const int workers = static_cast<int>(rng.NextInt(1, 4));
    std::vector<std::unique_ptr<ServerMetrics>> fleet;
    for (int w = 0; w < workers; ++w) {
      fleet.push_back(std::make_unique<ServerMetrics>());
    }
    ServerMetrics all;
    for (int v = 0; v < kNumWireVerbs; ++v) {
      const int samples = static_cast<int>(rng.NextInt(0, 30));
      for (int i = 0; i < samples; ++i) {
        // Log-uniform over 1 us .. 1 s, so samples span many buckets.
        const uint64_t usec = static_cast<uint64_t>(
            std::exp(rng.NextUniform(0, std::log(1e6))));
        const WireVerb verb = static_cast<WireVerb>(v);
        fleet[rng.NextBelow(workers)]->RecordVerb(verb, usec);
        all.RecordVerb(verb, usec);
      }
    }
    std::vector<std::string> lines;
    for (const auto& metrics : fleet) lines.push_back(metrics->RenderWireLine());
    const std::string merged = AggregateFieldLines(lines);
    const std::string want = all.RenderWireLine();
    for (int v = 0; v < kNumWireVerbs; ++v) {
      for (const char* field :
           {"count", "mean_us", "p50_us", "p99_us", "max_us"}) {
        const std::string name =
            std::string(kVerbHistograms[v].name) + "." + field;
        EXPECT_EQ(ParseField(merged, name), ParseField(want, name))
            << "trial " << trial << ", " << workers << " workers, " << name
            << "\n merged: " << merged << "\n union:  " << want;
      }
    }
  }
}

TEST(CoordTest, RoutesByShardMapAndMatchesSerialReplay) {
  WorkerFixture w0(/*seed=*/401);
  WorkerFixture w1(/*seed=*/402);
  Status s0 = w0.StartTcp();
  Status s1 = w1.StartTcp();
  if (!s0.ok() || !s1.ok()) {
    GTEST_SKIP() << "loopback TCP unavailable";
  }
  CoordFixture coord;
  // d0 pinned to worker 0, d1 to worker 1 — distinct datasets on the two
  // workers, so a misrouted open would produce a *different* optimum.
  Status started =
      coord.Start(w0.Spec() + "," + w1.Spec(),
                  "d0=" + w0.Spec() + ",d1=" + w1.Spec());
  ASSERT_TRUE(started.ok()) << started.ToString();

  const std::vector<std::string> script = {
      "solve", "min-weight A0 0.05", "max-weight A1 0.6", "drop min_A0"};
  WorkerFixture* workers[2] = {&w0, &w1};
  LineClient clients[2];
  for (int c = 0; c < 2; ++c) {
    Status connected = clients[c].Connect(coord.endpoint);
    ASSERT_TRUE(connected.ok()) << connected.ToString();
    std::string payload =
        "open c" + std::to_string(c) + " d" + std::to_string(c) + "\n";
    for (const std::string& line : script) {
      payload += "c" + std::to_string(c) + " " + line + "\n";
    }
    ASSERT_TRUE(clients[c].Send(payload));
  }

  for (int c = 0; c < 2; ++c) {
    const std::string name = "c" + std::to_string(c);
    auto ack = clients[c].ReadLine();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(*ack, "ok open " + name + " d" + std::to_string(c));

    // Serial ground truth over the dataset the pinned worker serves.
    WorkerFixture& worker = *workers[c];
    SolveSession replay(Dataset(worker.datasets[c]),
                        Ranking(worker.rankings[c]), SpatialOptions());
    auto parsed = ParseSessionScript(
        script[0] + "\n" + script[1] + "\n" + script[2] + "\n" + script[3]);
    ASSERT_TRUE(parsed.ok());
    std::vector<std::string> labels =
        TupleLabels(worker.datasets[c].num_tuples());
    for (size_t s = 0; s < parsed->size(); ++s) {
      auto want = ExecuteSessionCommand(&replay, (*parsed)[s], labels);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(want->result.proven_optimal);
      auto line = clients[c].ReadLine();
      ASSERT_TRUE(line.has_value()) << name << " step " << s;
      const std::string expect_prefix =
          "ok " + name + " line=" + std::to_string(s + 2) +
          " error=" + std::to_string(want->result.error) + " bound=";
      EXPECT_EQ(line->rfind(expect_prefix, 0), 0u)
          << name << " step " << s << ": got '" << *line
          << "', want prefix '" << expect_prefix
          << "' (coordinator result differs from serial replay)";
      EXPECT_NE(line->find("proven=yes"), std::string::npos) << *line;
    }
  }

  // Each worker owns exactly its pinned session: ask them directly.
  for (int w = 0; w < 2; ++w) {
    LineClient direct;
    ASSERT_TRUE(direct.ConnectTcp("127.0.0.1", workers[w]->port));
    ASSERT_TRUE(direct.SendLine("stats"));
    auto stats = direct.ReadLine();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(ParseField(*stats, "clients"), 1)
        << "worker " << w << ": " << *stats
        << " (shard map routed a session to the wrong worker)";
  }

  for (int c = 0; c < 2; ++c) {
    ASSERT_TRUE(clients[c].SendLine("quit"));
    auto quit = clients[c].ReadLine();
    ASSERT_TRUE(quit.has_value());
    EXPECT_EQ(*quit, "ok quit");
  }
  EXPECT_EQ(coord.coord->counters().sessions_opened, 2);
  EXPECT_EQ(coord.coord->counters().commands_proxied, 8);
}

TEST(CoordTest, HealthMarksWorkersDownThenUpAgain) {
  FakeWorker fake;
  ASSERT_TRUE(fake.Start());
  const int port = fake.port();

  std::vector<WorkerSpec> specs(1);
  specs[0].spec = "127.0.0.1:" + std::to_string(port);
  auto address = ParseListenSpec(specs[0].spec);
  ASSERT_TRUE(address.ok());
  specs[0].address = *address;

  HealthOptions options;
  options.interval_ms = 50;
  options.timeout_ms = 1000;
  options.dial_timeout_ms = 500;
  options.failure_threshold = 2;
  WorkerSupervisor supervisor(std::move(specs), options);
  supervisor.Start();

  // Probes succeed: up, and stays up.
  ASSERT_TRUE(WaitFor([&] { return supervisor.counters().probes >= 2; }));
  EXPECT_TRUE(supervisor.IsAlive(0));
  EXPECT_EQ(supervisor.num_up(), 1);
  EXPECT_EQ(supervisor.counters().down_transitions, 0);

  // Kill the fake: consecutive failures cross the threshold -> down.
  fake.Stop();
  ASSERT_TRUE(WaitFor([&] { return !supervisor.IsAlive(0); }))
      << "worker never marked down after its port closed";
  EXPECT_EQ(supervisor.num_up(), 0);
  EXPECT_GE(supervisor.counters().down_transitions, 1);

  // Resurrect on the same port: one successful probe -> up.
  ASSERT_TRUE(fake.Start(port)) << "could not rebind fake worker port";
  ASSERT_TRUE(WaitFor([&] { return supervisor.IsAlive(0); }))
      << "worker never marked up after resurrection";
  EXPECT_GE(supervisor.counters().up_transitions, 1);

  supervisor.Stop();
  fake.Stop();
}

TEST(CoordTest, OpenAgainstUnreachableWorkerFailsCleanlyNotHangs) {
  // A port with provably nobody behind it: bind, learn, close.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in sin;
  std::memset(&sin, 0, sizeof(sin));
  sin.sin_family = AF_INET;
  sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)),
            0);
  socklen_t len = sizeof(sin);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&sin), &len),
            0);
  const int dead_port = ntohs(sin.sin_port);
  ::close(probe);

  CoordFixture coord;
  Status started = coord.Start("127.0.0.1:" + std::to_string(dead_port), "",
                               /*dial_timeout_ms=*/500);
  ASSERT_TRUE(started.ok()) << started.ToString();

  LineClient client;
  DialOptions dial;
  dial.recv_timeout_s = 30;  // the assertion: an answer well before this
  Status connected = client.Connect(coord.endpoint, dial);
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  ASSERT_TRUE(client.SendLine("open c1 d0"));
  auto response = client.ReadLine();
  ASSERT_TRUE(response.has_value())
      << "coordinator hung or dropped the connection instead of answering";
  EXPECT_EQ(response->rfind("err c1 ", 0), 0u) << *response;
  // The session must not half-exist: the name is free to retry.
  ASSERT_TRUE(client.SendLine("open c1 d0"));
  auto retry = client.ReadLine();
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->rfind("err c1 ", 0), 0u) << *retry;
  ASSERT_TRUE(client.SendLine("quit"));
  auto quit = client.ReadLine();
  ASSERT_TRUE(quit.has_value());
  EXPECT_EQ(*quit, "ok quit");
}

TEST(CoordTest, ScatterGatherSumsWorkerStatsWithBreakdown) {
  WorkerFixture w0(/*seed=*/403);
  WorkerFixture w1(/*seed=*/404);
  Status s0 = w0.StartTcp();
  Status s1 = w1.StartTcp();
  if (!s0.ok() || !s1.ok()) {
    GTEST_SKIP() << "loopback TCP unavailable";
  }
  CoordFixture coord;
  Status started =
      coord.Start(w0.Spec() + "," + w1.Spec(),
                  "d0=" + w0.Spec() + ",d1=" + w1.Spec());
  ASSERT_TRUE(started.ok()) << started.ToString();

  LineClient client;
  Status connected = client.Connect(coord.endpoint);
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  // One session on each worker, through one downstream connection.
  ASSERT_TRUE(client.SendLine("open a d0"));
  auto ack_a = client.ReadLine();
  ASSERT_TRUE(ack_a.has_value());
  EXPECT_EQ(*ack_a, "ok open a d0");
  ASSERT_TRUE(client.SendLine("open b d1"));
  auto ack_b = client.ReadLine();
  ASSERT_TRUE(ack_b.has_value());
  EXPECT_EQ(*ack_b, "ok open b d1");

  // Ground truth, straight from the workers.
  long long want_clients = 0;
  long long want_registries = 0;
  for (WorkerFixture* worker : {&w0, &w1}) {
    LineClient direct;
    ASSERT_TRUE(direct.ConnectTcp("127.0.0.1", worker->port));
    ASSERT_TRUE(direct.SendLine("stats"));
    auto stats = direct.ReadLine();
    ASSERT_TRUE(stats.has_value());
    want_clients += ParseField(*stats, "clients");
    want_registries += ParseField(*stats, "registries");
  }
  EXPECT_EQ(want_clients, 2);

  // The aggregated line: counters sum across the fleet, the coord_*
  // suffix and per-worker breakdown name every worker with its state.
  ASSERT_TRUE(client.SendLine("stats"));
  auto merged = client.ReadLine();
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->rfind("ok stats registries=", 0), 0u) << *merged;
  EXPECT_EQ(ParseField(*merged, "clients"), want_clients) << *merged;
  EXPECT_EQ(ParseField(*merged, "registries"), want_registries) << *merged;
  EXPECT_EQ(ParseField(*merged, "coord_workers"), 2) << *merged;
  EXPECT_EQ(ParseField(*merged, "coord_up"), 2) << *merged;
  EXPECT_EQ(ParseField(*merged, "coord_sessions"), 2) << *merged;
  // The whole coord_* suffix, byte for byte, right before the breakdown.
  EXPECT_NE(merged->find(" coord_workers=2 coord_up=2 coord_sessions=2 "
                         "coord_commands=0 coord_failovers=0 "
                         "coord_failover_sessions=0 "
                         "coord_failover_failures=0 coord_replayed=0 "
                         "coord_replay_errors=0 w0="),
            std::string::npos)
      << *merged;
  EXPECT_NE(merged->find(" w0=" + w0.Spec() + ":up"), std::string::npos)
      << *merged;
  EXPECT_NE(merged->find(" w1=" + w1.Spec() + ":up"), std::string::npos)
      << *merged;

  // One solve on each worker. A worker records the sample just after it
  // sends the ack, so wait until each worker's own `metrics` shows it
  // (health probes send only `stats`, so `solve` stays put after that).
  ASSERT_TRUE(client.SendLine("a solve"));
  ASSERT_TRUE(client.SendLine("b solve"));
  for (int i = 0; i < 2; ++i) {
    auto ack = client.ReadLine();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->rfind("ok ", 0), 0u) << *ack;
  }
  std::vector<std::string> worker_metrics;
  for (WorkerFixture* worker : {&w0, &w1}) {
    LineClient direct;
    ASSERT_TRUE(direct.ConnectTcp("127.0.0.1", worker->port));
    std::optional<std::string> line;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      ASSERT_TRUE(direct.SendLine("metrics"));
      line = direct.ReadLine();
      ASSERT_TRUE(line.has_value());
      if (ParseField(*line, "solve.count") == 1 ||
          std::chrono::steady_clock::now() >= deadline) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(ParseField(*line, "solve.count"), 1) << *line;
    worker_metrics.push_back(line->substr(std::strlen("ok metrics ")));
  }

  // metrics scatter-gathers through the same path: the aggregate leads
  // with summed connection gauges, and its solve block is the bucket-wise
  // merge of the workers' blocks.
  ASSERT_TRUE(client.SendLine("metrics"));
  auto metrics = client.ReadLine();
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->rfind("ok metrics connections=", 0), 0u) << *metrics;
  EXPECT_NE(metrics->find(" stats.count="), std::string::npos) << *metrics;
  EXPECT_NE(metrics->find(" solve.buckets="), std::string::npos) << *metrics;
  EXPECT_NE(metrics->find(" coord_workers=2"), std::string::npos)
      << *metrics;
  const std::string want = AggregateFieldLines(worker_metrics);
  EXPECT_EQ(ParseField(*metrics, "solve.count"), 2) << *metrics;
  EXPECT_EQ(ParseField(*metrics, "solve.max_us"),
            std::max(ParseField(worker_metrics[0], "solve.max_us"),
                     ParseField(worker_metrics[1], "solve.max_us")))
      << *metrics;
  // One sample per worker: the union's median is the lower sample, read
  // at its bucket's lower edge — the smaller of the workers' own p50s.
  EXPECT_EQ(ParseField(*metrics, "solve.p50_us"),
            std::min(ParseField(worker_metrics[0], "solve.p50_us"),
                     ParseField(worker_metrics[1], "solve.p50_us")))
      << *metrics;
  for (const char* field : {"solve.count", "solve.p50_us", "solve.max_us"}) {
    EXPECT_EQ(ParseField(*metrics, field), ParseField(want, field))
        << field << "\n fleet: " << *metrics << "\n merge: " << want;
  }

  ASSERT_TRUE(client.SendLine("quit"));
  auto quit = client.ReadLine();
  ASSERT_TRUE(quit.has_value());
  EXPECT_EQ(*quit, "ok quit");
}

TEST(CoordTest, ProtocolConformanceWalkPassesThroughTheCoordinator) {
  // The acceptance criterion for transparency: the byte-for-byte verb
  // walk that tests/net runs against a worker directly (the same fixture
  // code) passes against the worker behind the coordinator. Only
  // worker-side transport gauges are relaxed — the coordinator's health
  // probes show up in the worker's connection counts.
  WorkerFixture worker(/*seed=*/302);  // the net suite's walk seed
  Status started_worker = worker.StartTcp();
  if (!started_worker.ok()) {
    GTEST_SKIP() << "loopback TCP unavailable";
  }
  CoordFixture coord;
  Status started = coord.Start(worker.Spec(), "");
  ASSERT_TRUE(started.ok()) << started.ToString();

  conformance::ConformanceOptions options;
  options.exact_transport_gauges = false;
  conformance::RunProtocolVerbWalk(coord.endpoint, options);
}

}  // namespace
}  // namespace rankhow
