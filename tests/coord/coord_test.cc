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
//    worker, modulo worker-side transport gauges — in text and with its
//    tail in binary frames.
//  * Commands pipelined at a worker whose reactor just stopped answer in
//    line order with serial-replay results once failover rebinds their
//    session.
//  * Scripted fake workers: an UpstreamConn whose worker died keeps later
//    forwards in its unacked tail; a worker that stops reading stalls
//    only its own clients, and past the outbox bound fails over; a
//    replacement that dies during failover passes the session on; a
//    worker that dies after acking a close answers the commands behind
//    it, and `quit` still finds nothing in flight.
//
// SIGKILL-based coordinator failover lives in tests/chaos (chaos label);
// this suite keeps everything in-process so it can run under tsan.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
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
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "app/cli_driver.h"
#include "coord/coordinator.h"
#include "coord/health.h"
#include "coord/shard_map.h"
#include "coord/upstream.h"
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

/// What a scripted FakeWorker does with one request line.
struct FakeReply {
  std::string text;    ///< sent with a newline unless empty
  bool stall = false;  ///< then stops reading this connection
  bool die = false;    ///< then closes its listener and every connection
};

/// A minimal stand-in worker: answers `stats` (what health probes send)
/// with a plausible `ok stats` line and every other line through an
/// optional script (default: the same stats line), until stopped. A TCP
/// one is restartable on the same port (SO_REUSEADDR), which is how the
/// up-transition is staged. A Unix-socket one has the small fixed socket
/// buffers of that family, so a peer writing to a connection it stopped
/// reading backs up within a few hundred KiB.
class FakeWorker {
 public:
  using Script = std::function<FakeReply(const std::string& line)>;

  FakeWorker() = default;
  explicit FakeWorker(Script script) : script_(std::move(script)) {}
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
    socklen_t len = sizeof(sin);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sin),
               sizeof(sin)) != 0 ||
        ::listen(listen_fd_, 16) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&sin),
                      &len) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    port_ = ntohs(sin.sin_port);
    spec_ = "127.0.0.1:" + std::to_string(port_);
    return Run();
  }

  bool StartUnix(const std::string& path) {
    sockaddr_un sun;
    std::memset(&sun, 0, sizeof(sun));
    sun.sun_family = AF_UNIX;
    if (path.size() >= sizeof(sun.sun_path)) return false;
    std::memcpy(sun.sun_path, path.c_str(), path.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return false;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sun),
               sizeof(sun)) != 0 ||
        ::listen(listen_fd_, 16) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    unix_path_ = path;
    spec_ = "unix:" + path;
    return Run();
  }

  void Stop() {
    Die();
    if (accept_thread_.joinable()) accept_thread_.join();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (std::thread& t : conn_threads_) {
      if (t.joinable()) t.join();
    }
    conn_threads_.clear();
    for (int fd : conns_) ::close(fd);
    conns_.clear();
    if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
  }

  int port() const { return port_; }
  const std::string& Spec() const { return spec_; }

 private:
  bool Run() {
    stopping_ = false;
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return true;
  }

  /// Refuses new connections and cuts the live ones, as a killed worker
  /// would; Stop() still joins the threads.
  void Die() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
      if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
      for (int fd : conns_) ::shutdown(fd, SHUT_RDWR);
    }
    stop_cv_.notify_all();
  }

  void AcceptLoop() {
    for (;;) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      conns_.push_back(fd);
      conn_threads_.emplace_back([this, fd] { Serve(fd); });
    }
  }

  void Serve(int fd) {
    std::string buffer;
    char chunk[4096];
    for (;;) {
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return;
      buffer.append(chunk, static_cast<size_t>(n));
      size_t nl;
      while ((nl = buffer.find('\n')) != std::string::npos) {
        const std::string line = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        FakeReply reply;
        if (line == "stats" || !script_) {
          reply.text = "ok stats fake=1";
        } else {
          std::lock_guard<std::mutex> lock(script_mu_);
          reply = script_(line);
        }
        if (!reply.text.empty()) {
          const std::string out = reply.text + "\n";
          if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) < 0) return;
        }
        if (reply.die) {
          Die();
          return;
        }
        if (reply.stall) {
          std::unique_lock<std::mutex> lock(mu_);
          stop_cv_.wait(lock, [this] { return stopping_; });
          return;
        }
      }
    }
  }

  const Script script_;
  std::mutex script_mu_;  // scripts may keep state across connections
  int listen_fd_ = -1;
  int port_ = 0;
  std::string spec_;
  std::string unix_path_;
  std::thread accept_thread_;
  std::mutex mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
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

TEST(CoordTest, ProtocolConformanceWalkInBinaryFramingPassesThrough) {
  // The same walk with its tail in binary frames: the coordinator
  // re-frames the client leg only and relays each worker's text answer
  // as a frame.
  WorkerFixture worker(/*seed=*/302);
  Status started_worker = worker.StartTcp();
  if (!started_worker.ok()) {
    GTEST_SKIP() << "loopback TCP unavailable";
  }
  CoordFixture coord;
  Status started = coord.Start(worker.Spec(), "");
  ASSERT_TRUE(started.ok()) << started.ToString();

  conformance::ConformanceOptions options;
  options.exact_transport_gauges = false;
  options.binary_framing = true;
  conformance::RunProtocolVerbWalk(coord.endpoint, options);
}

TEST(CoordTest, CommandsPipelinedAtADeadWorkerAnswerInLineOrder) {
  // Both workers serve the same datasets, so a session moved from w0 to
  // w1 must prove what a serial replay of its script proves. Commands
  // written while the coordinator is still noticing w0's death ride the
  // dead connection's unacked tail (sent, or recorded unsent) or go
  // straight to w1 — each must answer, in line order, with the
  // serial-replay error.
  WorkerFixture w0(/*seed=*/405);
  WorkerFixture w1(/*seed=*/405);
  Status s0 = w0.StartTcp();
  Status s1 = w1.StartTcp();
  if (!s0.ok() || !s1.ok()) {
    GTEST_SKIP() << "loopback TCP unavailable";
  }
  CoordFixture coord;
  Status started = coord.Start(w0.Spec() + "," + w1.Spec(), "d0=" + w0.Spec());
  ASSERT_TRUE(started.ok()) << started.ToString();

  LineClient client;
  Status connected = client.Connect(coord.endpoint);
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  ASSERT_TRUE(client.SendLine("open c d0"));
  auto opened = client.ReadLine();
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, "ok open c d0");
  ASSERT_TRUE(client.SendLine("c min-weight A0 0.05"));
  auto acked = client.ReadLine();
  ASSERT_TRUE(acked.has_value());
  EXPECT_EQ(acked->rfind("ok c line=2 ", 0), 0u) << *acked;

  w0.server->Stop();
  const std::vector<std::string> tail = {"solve", "max-weight A1 0.6",
                                         "solve"};
  ASSERT_TRUE(client.Send("c " + tail[0] + "\nc " + tail[1] + "\nc " +
                          tail[2] + "\n"));

  SolveSession replay(Dataset(w0.datasets[0]), Ranking(w0.rankings[0]),
                      SpatialOptions());
  auto parsed = ParseSessionScript("min-weight A0 0.05\n" + tail[0] + "\n" +
                                   tail[1] + "\n" + tail[2]);
  ASSERT_TRUE(parsed.ok());
  const std::vector<std::string> labels =
      TupleLabels(w0.datasets[0].num_tuples());
  for (size_t s = 0; s < parsed->size(); ++s) {
    auto want = ExecuteSessionCommand(&replay, (*parsed)[s], labels);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    if (s == 0) continue;  // acked before the stop
    auto line = client.ReadLine();
    ASSERT_TRUE(line.has_value()) << "step " << s << ": no answer";
    const std::string expect_prefix =
        "ok c line=" + std::to_string(s + 2) +
        " error=" + std::to_string(want->result.error) + " bound=";
    EXPECT_EQ(line->rfind(expect_prefix, 0), 0u)
        << "step " << s << ": got '" << *line << "', want prefix '"
        << expect_prefix << "'";
  }

  EXPECT_EQ(coord.coord->counters().failover_sessions, 1);
  ASSERT_TRUE(client.SendLine("open c d0"));
  auto adopted = client.ReadLine();
  ASSERT_TRUE(adopted.has_value());
  EXPECT_EQ(*adopted, "ok open c d0 recovered");
  ASSERT_TRUE(client.SendLine("quit"));
  auto quit = client.ReadLine();
  ASSERT_TRUE(quit.has_value());
  EXPECT_EQ(*quit, "ok quit");
}

/// A fake worker script that acks `open C D` as a worker would.
FakeReply AckOpen(const std::string& line) {
  FakeReply reply;
  if (line.rfind("open ", 0) == 0) reply.text = "ok " + line;
  return reply;
}

TEST(UpstreamConnTest, EntriesForwardedToADeadConnectionRideItsTail) {
  FakeWorker fake([](const std::string& line) {
    FakeReply reply = AckOpen(line);
    reply.die = reply.text.empty();  // dies at its first command
    return reply;
  });
  ASSERT_TRUE(fake.Start());
  auto address = ParseListenSpec(fake.Spec());
  ASSERT_TRUE(address.ok());
  WorkerSpec worker;
  worker.spec = fake.Spec();
  worker.address = *address;

  std::atomic<int> answered{0};
  std::atomic<bool> broken{false};
  UpstreamConn::Callbacks callbacks;
  callbacks.on_response = [&](const ProxyEntry&, const std::string&) {
    answered.fetch_add(1);
  };
  callbacks.on_broken = [&](UpstreamConn*) { broken.store(true); };
  ThreadGate gate;
  auto dialed = UpstreamConn::Dial(worker, 1000, callbacks, &gate);
  ASSERT_TRUE(dialed.ok()) << dialed.status().ToString();
  std::shared_ptr<UpstreamConn> conn = *dialed;

  auto entry = [](ProxyEntry::Kind kind, const std::string& payload) {
    ProxyEntry e;
    e.kind = kind;
    e.payload = payload;
    e.client = "c";
    return e;
  };
  ASSERT_TRUE(conn->Forward(entry(ProxyEntry::Kind::kOpen, "open c d0")));
  ASSERT_TRUE(WaitFor([&] { return answered.load() == 1; }));
  ASSERT_TRUE(conn->Forward(entry(ProxyEntry::Kind::kCommand, "c solve")));
  ASSERT_TRUE(WaitFor([&] { return broken.load(); }));
  EXPECT_TRUE(conn->failed());

  // Dead but its tail not yet taken: accepted without a send, in order.
  ASSERT_TRUE(conn->Forward(entry(ProxyEntry::Kind::kCommand, "c eps 0")));
  ASSERT_TRUE(conn->Forward(entry(ProxyEntry::Kind::kClose, "close c")));
  std::vector<ProxyEntry> tail = conn->TakeUnacked();
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].payload, "c solve");
  EXPECT_EQ(tail[1].payload, "c eps 0");
  EXPECT_EQ(tail[2].payload, "close c");
  // Once taken, the connection refuses: the caller must route elsewhere.
  EXPECT_FALSE(conn->Forward(entry(ProxyEntry::Kind::kCommand, "c solve")));
  EXPECT_TRUE(conn->TakeUnacked().empty());
  conn.reset();
  EXPECT_TRUE(gate.WaitIdle(5000));
}

TEST(CoordTest, AWorkerThatStopsReadingStallsOnlyItsOwnClients) {
  // The coordinator forwards on its one event loop. The stalled worker is
  // on a Unix socket, whose buffer fills after a few hundred KiB; a
  // blocking write there would hold the loop, and with it the client of
  // the healthy worker.
  TempDir dir;
  WorkerFixture healthy(/*seed=*/406);
  if (!healthy.StartTcp().ok()) GTEST_SKIP() << "loopback TCP unavailable";
  CoordFixture coord;
  // Declared after the coordinator, so it stops first and cuts whatever
  // the coordinator still writes to it.
  FakeWorker stalled([](const std::string& line) {
    FakeReply reply = AckOpen(line);
    reply.stall = true;  // reads nothing after the open
    return reply;
  });
  ASSERT_TRUE(stalled.StartUnix(dir.path + "/stalled.sock"));
  Status started =
      coord.Start(stalled.Spec() + "," + healthy.Spec(),
                  "dz=" + stalled.Spec() + ",d0=" + healthy.Spec());
  ASSERT_TRUE(started.ok()) << started.ToString();

  DialOptions dial;
  dial.recv_timeout_s = 20;
  LineClient flooder;
  LineClient other;
  ASSERT_TRUE(flooder.Connect(coord.endpoint, dial).ok());
  ASSERT_TRUE(other.Connect(coord.endpoint, dial).ok());
  ASSERT_TRUE(other.SendLine("open b d0"));
  auto opened = other.ReadLine();
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, "ok open b d0");
  ASSERT_TRUE(flooder.SendLine("open a dz"));
  opened = flooder.ReadLine();
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, "ok open a dz");

  // 1 MiB of edits: several times the socket buffer, a quarter of the
  // outbox bound, so the stalled worker is not yet failed over.
  const std::string edit = "a drop " + std::string(2041, 'x') + "\n";
  std::string flood;
  for (int i = 0; i < 512; ++i) flood += edit;
  ASSERT_TRUE(flooder.Send(flood));

  ASSERT_TRUE(other.SendLine("b solve"));
  auto solved = other.ReadLine();
  ASSERT_TRUE(solved.has_value())
      << "a worker that stopped reading stalled another worker's client";
  EXPECT_EQ(solved->rfind("ok b line=2 ", 0), 0u) << *solved;
  ASSERT_TRUE(other.SendLine("quit"));
  auto quit = other.ReadLine();
  ASSERT_TRUE(quit.has_value());
  EXPECT_EQ(*quit, "ok quit");
  EXPECT_EQ(coord.coord->counters().failovers, 0);
}

TEST(CoordTest, AWorkerThatLeavesTheOutboxFullIsFailedOver) {
  // Past UpstreamConn::kMaxOutboxBytes unread, a worker counts as dead:
  // its connection breaks and, with no replacement, every entry in its
  // tail answers `worker SPEC died` in line order.
  TempDir dir;
  CoordFixture coord;
  FakeWorker stalled([](const std::string& line) {
    FakeReply reply = AckOpen(line);
    reply.stall = true;
    return reply;
  });
  ASSERT_TRUE(stalled.StartUnix(dir.path + "/stalled.sock"));
  ASSERT_TRUE(coord.Start(stalled.Spec(), "dz=" + stalled.Spec()).ok());

  DialOptions dial;
  dial.recv_timeout_s = 20;
  LineClient client;
  ASSERT_TRUE(client.Connect(coord.endpoint, dial).ok());
  ASSERT_TRUE(client.SendLine("open a dz"));
  auto opened = client.ReadLine();
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, "ok open a dz");

  const int kEdits = 2600;  // ~5.3 MB
  const std::string edit = "a drop " + std::string(2041, 'x') + "\n";
  std::string flood;
  for (int i = 0; i < kEdits; ++i) flood += edit;
  ASSERT_TRUE(client.Send(flood));

  // The tail answers first, in order; edits read after failover dropped
  // the session find no client.
  const std::string died = " worker " + stalled.Spec() + " died: ";
  int tail = 0;
  for (int i = 0; i < kEdits; ++i) {
    auto answer = client.ReadLine();
    ASSERT_TRUE(answer.has_value()) << "edit " << i << " never answered";
    if (answer->find(died) != std::string::npos) {
      ASSERT_EQ(tail, i) << "a tail answer after a no-client one: " << *answer;
      EXPECT_EQ(answer->rfind("err a line=" + std::to_string(i + 2) + died,
                              0),
                0u)
          << *answer;
      ++tail;
    } else {
      EXPECT_EQ(*answer, NoClientError("a"));
    }
  }
  EXPECT_GT(tail, 0);
  EXPECT_EQ(coord.coord->counters().failover_failures, 1);
  ASSERT_TRUE(client.SendLine("quit"));
  auto quit = client.ReadLine();
  ASSERT_TRUE(quit.has_value());
  EXPECT_EQ(*quit, "ok quit");
}

TEST(CoordTest, AReplacementThatDiesDuringFailoverPassesTheSessionOn) {
  // Two fakes die in turn: the primary at its first command, the first
  // replacement at the replayed open. The session ends on the real
  // worker, whose answers must match a serial replay of the commands.
  WorkerFixture real(/*seed=*/407);
  if (!real.StartTcp().ok()) GTEST_SKIP() << "loopback TCP unavailable";
  FakeWorker primary([](const std::string& line) {
    FakeReply reply = AckOpen(line);
    reply.die = reply.text.empty();
    return reply;
  });
  FakeWorker replacement([](const std::string&) {
    FakeReply reply;
    reply.die = true;
    return reply;
  });
  ASSERT_TRUE(primary.Start());
  ASSERT_TRUE(replacement.Start());
  CoordFixture coord;
  Status started = coord.Start(
      primary.Spec() + "," + replacement.Spec() + "," + real.Spec(),
      "d0=" + primary.Spec());
  ASSERT_TRUE(started.ok()) << started.ToString();

  LineClient client;
  ASSERT_TRUE(client.Connect(coord.endpoint).ok());
  ASSERT_TRUE(client.SendLine("open c d0"));
  auto opened = client.ReadLine();
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, "ok open c d0");
  const std::vector<std::string> script = {"min-weight A0 0.05", "solve"};
  ASSERT_TRUE(client.Send("c " + script[0] + "\nc " + script[1] + "\n"));

  SolveSession replay(Dataset(real.datasets[0]), Ranking(real.rankings[0]),
                      SpatialOptions());
  auto parsed = ParseSessionScript(script[0] + "\n" + script[1]);
  ASSERT_TRUE(parsed.ok());
  const std::vector<std::string> labels =
      TupleLabels(real.datasets[0].num_tuples());
  for (size_t s = 0; s < parsed->size(); ++s) {
    auto want = ExecuteSessionCommand(&replay, (*parsed)[s], labels);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto line = client.ReadLine();
    ASSERT_TRUE(line.has_value()) << "step " << s << ": no answer";
    const std::string expect_prefix =
        "ok c line=" + std::to_string(s + 2) +
        " error=" + std::to_string(want->result.error) + " bound=";
    EXPECT_EQ(line->rfind(expect_prefix, 0), 0u)
        << "step " << s << ": got '" << *line << "', want prefix '"
        << expect_prefix << "'";
  }
  EXPECT_EQ(coord.coord->counters().failovers, 2);
  EXPECT_EQ(coord.coord->counters().failover_sessions, 2);
  ASSERT_TRUE(client.SendLine("open c d0"));
  auto adopted = client.ReadLine();
  ASSERT_TRUE(adopted.has_value());
  EXPECT_EQ(*adopted, "ok open c d0 recovered");
  ASSERT_TRUE(client.SendLine("quit"));
  auto quit = client.ReadLine();
  ASSERT_TRUE(quit.has_value());
  EXPECT_EQ(*quit, "ok quit");
}

TEST(CoordTest, CommandsAfterAnAckedCloseAnswerWhenTheWorkerDies) {
  // The worker reads the two commands behind `close c`, acks the close
  // and dies: the commands, sent but unanswered, belong to no session
  // anymore. Each answers `worker SPEC died` in line order, and `quit`
  // finds nothing left in flight.
  int after_close = -1;
  FakeWorker worker([&after_close](const std::string& line) {
    FakeReply reply = AckOpen(line);
    if (line == "close c") {
      after_close = 0;
    } else if (after_close >= 0 && ++after_close == 2) {
      reply.text = "ok close c";
      reply.die = true;
    }
    return reply;
  });
  ASSERT_TRUE(worker.Start());
  CoordFixture coord;
  ASSERT_TRUE(coord.Start(worker.Spec(), "d0=" + worker.Spec()).ok());

  DialOptions dial;
  dial.recv_timeout_s = 10;  // well under the 30 s quit cap
  LineClient client;
  ASSERT_TRUE(client.Connect(coord.endpoint, dial).ok());
  ASSERT_TRUE(client.SendLine("open c d0"));
  auto opened = client.ReadLine();
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, "ok open c d0");
  ASSERT_TRUE(client.Send("close c\nc solve\nc solve\n"));
  const std::string died = " worker " + worker.Spec() + " died";
  for (const std::string& want :
       {std::string("ok close c"), "err c line=3" + died,
        "err c line=4" + died}) {
    auto line = client.ReadLine();
    ASSERT_TRUE(line.has_value()) << "no answer; want '" << want << "'";
    EXPECT_EQ(*line, want);
  }
  ASSERT_TRUE(client.SendLine("quit"));
  auto quit = client.ReadLine();
  ASSERT_TRUE(quit.has_value()) << "quit waited on an entry nobody answers";
  EXPECT_EQ(*quit, "ok quit");
}

}  // namespace
}  // namespace rankhow
