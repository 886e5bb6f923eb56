// Reactor transport suite (tsan/net-labelled; see CMakeLists.txt):
//
//  * ParseListenSpec unit coverage (unix:/tcp:/bare forms, bad ports).
//  * The acceptance walk over real loopback TCP: two concurrent
//    connections open sessions against *different dataset ids* on one
//    router-backed server and replay scripted edits; every proven result
//    must equal a serial single-session replay of the same script.
//  * A Unix-domain round-trip of the complete documented verb set — every
//    verb in docs/PROTOCOL.md (including metrics, deadline, and frame)
//    answers the documented ok/err shape over a real socket; the same
//    walk again over TCP, finishing in binary frames.
//  * Binary-framing equivalence: the same script over a `frame binary`
//    connection produces results byte-identical to serial replay (framing
//    changes the envelope, never the grammar).
//  * The framing switch under a racing sender: another thread Sends
//    while the loop acks `frame binary`, and nothing after the ack may
//    arrive as text.
//  * Wire + frame fuzz over real sockets: truncated text lines, truncated
//    binary length prefixes, text bytes on a binary connection (the
//    mode-switch-mid-stream corruption), and connections dropped mid-solve
//    must each abort-close exactly one connection, leaving sibling
//    sessions intact and freeing the victim's client names.
//  * Backpressure chaos: a deliberately stalled reader (tiny SO_SNDBUF +
//    tiny --max-conn-buffer) is abort-closed when its write queue
//    overflows, without delaying a sibling's solve.
//  * A many-idle-connections smoke proving one process multiplexes
//    hundreds of parked connections over a fixed thread set.
//
// Tests skip cleanly (GTEST_SKIP) where the socket family is unavailable.

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "app/cli_driver.h"
#include "core/solve_session.h"
#include "net/frame.h"
#include "net/reactor.h"
#include "net/socket_server.h"
#include "server/registry_router.h"
#include "server/wire.h"
#include "tests/support/protocol_conformance.h"
#include "util/histogram.h"
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

/// A blocking test client over one socket speaking both framings, with a
/// receive timeout so a server bug can never hang the suite.
class WireClient {
 public:
  WireClient() = default;
  ~WireClient() { Close(); }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;
  WireClient(WireClient&& other) noexcept { *this = std::move(other); }
  WireClient& operator=(WireClient&& other) noexcept {
    Close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
    return *this;
  }

  /// rcvbuf > 0 pins SO_RCVBUF before connect (disables autotuning — the
  /// backpressure test needs a client that genuinely cannot absorb data).
  bool ConnectTcp(const std::string& host, int port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    if (rcvbuf > 0) {
      (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf));
    }
    sockaddr_in sin;
    std::memset(&sin, 0, sizeof(sin));
    sin.sin_family = AF_INET;
    sin.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &sin.sin_addr) != 1) return false;
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) != 0) {
      return false;
    }
    return SetTimeout();
  }

  bool ConnectUnix(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un sun;
    std::memset(&sun, 0, sizeof(sun));
    sun.sun_family = AF_UNIX;
    if (path.size() >= sizeof(sun.sun_path)) return false;
    std::memcpy(sun.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&sun), sizeof(sun)) != 0) {
      return false;
    }
    return SetTimeout();
  }

  bool Send(const std::string& text) {
    const char* p = text.data();
    size_t left = text.size();
    while (left > 0) {
      ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
      if (n <= 0) return false;
      p += n;
      left -= static_cast<size_t>(n);
    }
    return true;
  }

  /// One binary frame: 4-byte big-endian length + payload.
  bool SendFrame(const std::string& payload) {
    std::string framed;
    EncodeFrame(FrameMode::kBinary, payload, &framed);
    return Send(framed);
  }

  /// One response line (without the newline); nullopt on EOF/timeout.
  std::optional<std::string> ReadLine() {
    for (;;) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      if (!Fill()) return std::nullopt;
    }
  }

  /// One binary frame's payload; nullopt on EOF/timeout/oversized length.
  std::optional<std::string> ReadFrame() {
    while (buffer_.size() < 4) {
      if (!Fill()) return std::nullopt;
    }
    const auto* b = reinterpret_cast<const unsigned char*>(buffer_.data());
    const size_t len = (static_cast<size_t>(b[0]) << 24) |
                       (static_cast<size_t>(b[1]) << 16) |
                       (static_cast<size_t>(b[2]) << 8) |
                       static_cast<size_t>(b[3]);
    if (len > kMaxFrameBytes) return std::nullopt;
    while (buffer_.size() < 4 + len) {
      if (!Fill()) return std::nullopt;
    }
    std::string payload = buffer_.substr(4, len);
    buffer_.erase(0, 4 + len);
    return payload;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  bool connected() const { return fd_ >= 0; }

 private:
  bool Fill() {
    char chunk[1024];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  bool SetTimeout() {
    timeval tv;
    tv.tv_sec = 60;  // generous: solves on a loaded 1-core box are slow
    tv.tv_usec = 0;
    return ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0;
  }

  int fd_ = -1;
  std::string buffer_;
};

/// A two-dataset router-backed reactor stack for the transport tests.
/// Member order is destruction order in reverse: metrics outlives the
/// router, which outlives the server — teardown callbacks running inside
/// ReactorServer::Stop touch both.
struct ServerFixture {
  std::vector<Dataset> datasets;
  std::vector<Ranking> rankings;
  ServerMetrics metrics;
  std::unique_ptr<RegistryRouter> router;
  std::unique_ptr<ReactorServer> server;

  explicit ServerFixture(uint64_t seed = 301, int n = 10, int k = 4,
                         ReactorOptions reactor_options = ReactorOptions()) {
    Rng rng(seed);
    for (int i = 0; i < 2; ++i) {
      datasets.push_back(RandomDataset(rng, n, 3));
      rankings.push_back(RandomRanking(rng, n, k));
    }
    RouterOptions options;
    options.server.solver = SpatialOptions();
    options.server.num_workers = 2;
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
                            bundle.labels =
                                TupleLabels(data.num_tuples());
                            return bundle;
                          })
                      .ok());
    }
    ServeStreamOptions serve_options;
    serve_options.connection_scoped_clients = true;
    serve_options.metrics = &metrics;
    reactor_options.metrics = &metrics;
    if (reactor_options.num_loops == 0) {
      // Two loops even on a 1-core CI box, so cross-loop paths (the
      // round-robin accept handoff, per-loop deadline sweeps) get
      // exercised everywhere.
      reactor_options.num_loops = 2;
    }
    server = std::make_unique<ReactorServer>(
        MakeWireReactorCallbacks(router.get(), serve_options),
        reactor_options);
  }

  ~ServerFixture() {
    // Stop the transport before the router: connection teardowns hold raw
    // router pointers.
    if (server != nullptr) server->Stop();
  }

  Status StartTcp(int* port) {
    ListenAddress address;
    address.kind = ListenAddress::Kind::kTcp;
    address.host = "127.0.0.1";
    address.port = 0;
    Status started = server->Start(address);
    if (started.ok()) *port = server->bound().port;
    return started;
  }
};

/// Polls a predicate over fresh `stats` connections until it holds or the
/// deadline lapses — connection teardown runs on the reactor's ops thread,
/// so gauges update asynchronously to client-side observations.
bool PollStats(int port,
               const std::function<bool(const std::string&)>& pred,
               int attempts = 200) {
  for (int attempt = 0; attempt < attempts; ++attempt) {
    WireClient probe;
    if (!probe.ConnectTcp("127.0.0.1", port)) return false;
    if (!probe.Send("stats\nquit\n")) return false;
    auto line = probe.ReadLine();
    if (line.has_value() && pred(*line)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

TEST(ParseListenSpecTest, AcceptsTheDocumentedForms) {
  auto unix_explicit = ParseListenSpec("unix:/tmp/rankhow.sock");
  ASSERT_TRUE(unix_explicit.ok());
  EXPECT_EQ(unix_explicit->kind, ListenAddress::Kind::kUnix);
  EXPECT_EQ(unix_explicit->path, "/tmp/rankhow.sock");

  auto unix_bare = ParseListenSpec("/run/rankhow/api.sock");
  ASSERT_TRUE(unix_bare.ok());
  EXPECT_EQ(unix_bare->kind, ListenAddress::Kind::kUnix);

  auto tcp = ParseListenSpec("127.0.0.1:8731");
  ASSERT_TRUE(tcp.ok());
  EXPECT_EQ(tcp->kind, ListenAddress::Kind::kTcp);
  EXPECT_EQ(tcp->host, "127.0.0.1");
  EXPECT_EQ(tcp->port, 8731);

  auto ephemeral = ParseListenSpec("tcp:localhost:0");
  ASSERT_TRUE(ephemeral.ok());
  EXPECT_EQ(ephemeral->port, 0);

  for (const char* bad :
       {"", "unix:", "8731", "host:port", "1.2.3.4:99999", "1.2.3.4:-1"}) {
    EXPECT_FALSE(ParseListenSpec(bad).ok()) << "accepted: " << bad;
  }
  EXPECT_EQ(ListenSpecString(*tcp), "127.0.0.1:8731");
  EXPECT_EQ(ListenSpecString(*unix_explicit), "unix:/tmp/rankhow.sock");
}

TEST(ReactorServerTest, TwoTcpClientsOnDifferentDatasetsMatchSerialReplay) {
  // The PR 5 acceptance walk, now over the reactor: >= 2 concurrent TCP
  // clients, different dataset ids, scripted edits, results identical to
  // serial replay.
  ServerFixture fixture;
  int port = 0;
  Status started = fixture.StartTcp(&port);
  if (!started.ok()) {
    GTEST_SKIP() << "loopback TCP unavailable: " << started.ToString();
  }

  // Both connections open and stream their whole script before either
  // reads a response — the commands of the two clients are genuinely in
  // flight together on the strand pool.
  const std::vector<std::string> script = {
      "solve", "min-weight A0 0.05", "max-weight A1 0.6", "drop min_A0"};
  WireClient clients[2];
  for (int c = 0; c < 2; ++c) {
    ASSERT_TRUE(clients[c].ConnectTcp("127.0.0.1", port));
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

    // Serial ground truth: the same script through ExecuteSessionCommand
    // on a private session over the same dataset.
    SolveSession replay(Dataset(fixture.datasets[c]),
                        Ranking(fixture.rankings[c]), SpatialOptions());
    auto parsed = ParseSessionScript(
        script[0] + "\n" + script[1] + "\n" + script[2] + "\n" + script[3]);
    ASSERT_TRUE(parsed.ok());
    std::vector<std::string> labels =
        TupleLabels(fixture.datasets[c].num_tuples());
    for (size_t s = 0; s < parsed->size(); ++s) {
      auto want = ExecuteSessionCommand(&replay, (*parsed)[s], labels);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(want->result.proven_optimal);
      auto line = clients[c].ReadLine();
      ASSERT_TRUE(line.has_value())
          << name << " step " << s << ": no response";
      // "ok cN line=L error=E bound=B proven=yes seconds=..."
      const std::string expect_prefix =
          "ok " + name + " line=" + std::to_string(s + 2) +
          " error=" + std::to_string(want->result.error) + " bound=";
      EXPECT_EQ(line->rfind(expect_prefix, 0), 0u)
          << name << " step " << s << ": got '" << *line << "', want prefix '"
          << expect_prefix << "' (network result differs from serial replay)";
      EXPECT_NE(line->find("proven=yes"), std::string::npos) << *line;
    }
    ASSERT_TRUE(clients[c].Send("quit\n"));
    auto quit = clients[c].ReadLine();
    ASSERT_TRUE(quit.has_value());
    EXPECT_EQ(*quit, "ok quit");
  }
  EXPECT_EQ(fixture.server->connections_accepted(), 2);
  fixture.server->Stop();
}

TEST(ReactorServerTest, EveryDocumentedVerbRoundTripsOverAUnixSocket) {
  // docs/PROTOCOL.md's round-trip guarantee: every verb it documents is
  // exercised over a real socket and answers the documented shape. The
  // walk itself lives in tests/support/protocol_conformance.cc so the
  // coordinator suite can replay it verbatim through rankhow_coord.
  ServerFixture fixture(/*seed=*/302, /*n=*/8, /*k=*/3);
  ListenAddress address;
  address.kind = ListenAddress::Kind::kUnix;
  address.path = testing::TempDir() + "rankhow_verbs.sock";
  Status started = fixture.server->Start(address);
  if (!started.ok()) {
    GTEST_SKIP() << "unix sockets unavailable: " << started.ToString();
  }
  conformance::RunProtocolVerbWalk(address);
  fixture.server->Stop();
}

TEST(ReactorServerTest, BinaryFramingMatchesSerialReplay) {
  // The framing-equivalence acceptance walk: a connection negotiates
  // `frame binary` (the ack arrives in the old text framing), then runs
  // the same script as the text acceptance test entirely in binary
  // frames. Every result must equal serial replay — the envelope changed,
  // the session semantics must not.
  ServerFixture fixture;
  int port = 0;
  Status started = fixture.StartTcp(&port);
  if (!started.ok()) {
    GTEST_SKIP() << "loopback TCP unavailable: " << started.ToString();
  }

  WireClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", port));
  ASSERT_TRUE(client.Send("frame binary\n"));
  auto ack = client.ReadLine();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(*ack, "ok frame binary");

  ASSERT_TRUE(client.SendFrame("open c0 d0"));
  auto opened = client.ReadFrame();
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, "ok open c0 d0");

  const std::vector<std::string> script = {
      "solve", "min-weight A0 0.05", "max-weight A1 0.6", "drop min_A0"};
  SolveSession replay(Dataset(fixture.datasets[0]),
                      Ranking(fixture.rankings[0]), SpatialOptions());
  auto parsed = ParseSessionScript(
      script[0] + "\n" + script[1] + "\n" + script[2] + "\n" + script[3]);
  ASSERT_TRUE(parsed.ok());
  std::vector<std::string> labels =
      TupleLabels(fixture.datasets[0].num_tuples());
  for (size_t s = 0; s < parsed->size(); ++s) {
    ASSERT_TRUE(client.SendFrame("c0 " + script[s]));
    auto want = ExecuteSessionCommand(&replay, (*parsed)[s], labels);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto frame = client.ReadFrame();
    ASSERT_TRUE(frame.has_value()) << "step " << s << ": no frame";
    const std::string expect_prefix =
        "ok c0 line=" + std::to_string(s + 3) +
        " error=" + std::to_string(want->result.error) + " bound=";
    EXPECT_EQ(frame->rfind(expect_prefix, 0), 0u)
        << "step " << s << ": got '" << *frame << "', want prefix '"
        << expect_prefix << "' (binary framing diverged from serial replay)";
  }

  // The frames_binary gauge counted each decoded request frame.
  ASSERT_TRUE(client.SendFrame("stats"));
  auto stats = client.ReadFrame();
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->find(" frames_binary="), std::string::npos) << *stats;
  EXPECT_EQ(stats->find(" frames_binary=0 "), std::string::npos) << *stats;

  ASSERT_TRUE(client.SendFrame("quit"));
  auto quit = client.ReadFrame();
  ASSERT_TRUE(quit.has_value());
  EXPECT_EQ(*quit, "ok quit");
  fixture.server->Stop();
}

TEST(ReactorServerTest, SendsRacingAFrameSwitchNeverFollowTheAckAsText) {
  // A response from another thread (a strand completion, a coordinator's
  // upstream reader) racing the `frame binary` ack: everything queued
  // after the ack must be a binary frame, or the client desynchronizes.
  // The sender's last message follows the switch, so each trial ends in a
  // frame the client must decode.
  struct Race {
    std::mutex mu;
    std::condition_variable cv;
    std::shared_ptr<ReactorConn> conn;
    std::atomic<bool> switched{false};
  } race;
  ReactorCallbacks callbacks;
  callbacks.on_open = [&race](ReactorConn& conn) -> void* {
    std::lock_guard<std::mutex> lock(race.mu);
    race.conn = conn.shared_from_this();
    race.cv.notify_all();
    return nullptr;
  };
  callbacks.on_message = [&race](ReactorConn& conn,
                                 const std::string& payload) {
    if (payload != "frame binary") return;
    conn.SwitchMode(FrameMode::kBinary, "ok frame binary");
    race.switched.store(true);
  };
  callbacks.on_close = [](ReactorConn&, CloseReason) {};
  ReactorOptions options;
  options.num_loops = 1;
  ReactorServer server(std::move(callbacks), options);
  ListenAddress address;
  address.kind = ListenAddress::Kind::kTcp;
  address.host = "127.0.0.1";
  address.port = 0;
  Status started = server.Start(address);
  if (!started.ok()) {
    GTEST_SKIP() << "loopback TCP unavailable: " << started.ToString();
  }

  constexpr int kTrials = 200;
  int desynced = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    WireClient client;
    ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.bound().port));
    std::shared_ptr<ReactorConn> conn;
    {
      std::unique_lock<std::mutex> lock(race.mu);
      ASSERT_TRUE(race.cv.wait_for(lock, std::chrono::seconds(30), [&race] {
        return race.conn != nullptr;
      }));
      conn.swap(race.conn);
    }
    race.switched.store(false);
    std::thread sender([&race, conn] {
      while (!race.switched.load()) (void)conn->Send("tick");
      (void)conn->Send("last");
    });
    // Ask for the switch once ticks flow, so it lands mid-burst.
    std::optional<std::string> line = client.ReadLine();
    bool decoded = line.has_value() && client.Send("frame binary\n");
    while (decoded && *line == "tick") {
      line = client.ReadLine();
      decoded = line.has_value();
    }
    decoded = decoded && *line == "ok frame binary";
    while (decoded) {
      std::optional<std::string> frame = client.ReadFrame();
      decoded = frame.has_value() && (*frame == "tick" || *frame == "last");
      if (decoded && *frame == "last") break;
    }
    sender.join();
    if (!decoded) ++desynced;
  }
  EXPECT_EQ(desynced, 0) << desynced << " of " << kTrials
                         << " trials read a text message after the binary "
                            "ack";
  server.Stop();
}

TEST(ReactorServerTest, DocumentedVerbWalkRunsInBinaryFraming) {
  // The conformance walk again, switching to `frame binary` midway: the
  // error replies, a solve, close and quit then travel as frames.
  ServerFixture fixture(/*seed=*/302, /*n=*/8, /*k=*/3);
  int port = 0;
  Status started = fixture.StartTcp(&port);
  if (!started.ok()) {
    GTEST_SKIP() << "loopback TCP unavailable: " << started.ToString();
  }
  ListenAddress address;
  address.kind = ListenAddress::Kind::kTcp;
  address.host = "127.0.0.1";
  address.port = port;
  conformance::ConformanceOptions options;
  options.binary_framing = true;
  conformance::RunProtocolVerbWalk(address, options);
  fixture.server->Stop();
}

TEST(ReactorServerTest, TruncatedLinesAndDropsLeaveSiblingsIntact) {
  ServerFixture fixture(/*seed=*/303, /*n=*/12, /*k=*/5);
  int port = 0;
  Status started = fixture.StartTcp(&port);
  if (!started.ok()) {
    GTEST_SKIP() << "loopback TCP unavailable: " << started.ToString();
  }

  // The long-lived sibling whose session must survive everything below.
  WireClient sibling;
  ASSERT_TRUE(sibling.ConnectTcp("127.0.0.1", port));
  ASSERT_TRUE(sibling.Send("open keeper d0\nkeeper min-weight A0 0.05\n"));
  auto opened = sibling.ReadLine();
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, "ok open keeper d0");
  auto first = sibling.ReadLine();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->rfind("ok keeper line=2 error=", 0), 0u) << *first;
  const std::string baseline = *first;

  // Fuzz 1: a connection that dies mid-verb — no trailing newline. The
  // reactor sees EOF with a partial line buffered and winds the
  // connection down without touching anyone else.
  {
    WireClient trunc;
    ASSERT_TRUE(trunc.ConnectTcp("127.0.0.1", port));
    ASSERT_TRUE(trunc.Send("open doomed d0\n"));
    auto ack = trunc.ReadLine();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(*ack, "ok open doomed d0");
    ASSERT_TRUE(trunc.Send("doomed min-wei"));  // mid-verb, then gone
    trunc.Close();
  }

  // Fuzz 2: a connection dropped with solves still queued mid-flight.
  {
    WireClient dropper;
    ASSERT_TRUE(dropper.ConnectTcp("127.0.0.1", port));
    ASSERT_TRUE(dropper.Send("open burst d1\n"));
    auto ack = dropper.ReadLine();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(*ack, "ok open burst d1");
    // Queue several solves and vanish without reading a single response.
    ASSERT_TRUE(
        dropper.Send("burst solve\nburst solve\nburst solve\nburst solve\n"));
    dropper.Close();
  }

  // Fuzz 3: binary-mode corruption. A connection negotiates binary and
  // then sends plain text — the decoder reads "open" as a ~1.9 GB length
  // prefix, a fatal framing error. The server's last word is a framed
  // `err`, then an abort-close; nobody else notices.
  {
    WireClient corrupt;
    ASSERT_TRUE(corrupt.ConnectTcp("127.0.0.1", port));
    // One write carrying the negotiation AND stale text after it: the
    // worst case, because the text bytes are already buffered when the
    // mode switches.
    ASSERT_TRUE(corrupt.Send("frame binary\nopen late d0\n"));
    auto ack = corrupt.ReadLine();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(*ack, "ok frame binary");
    auto last_word = corrupt.ReadFrame();
    if (last_word.has_value()) {  // best-effort: may lose the race to close
      EXPECT_EQ(last_word->rfind("err - ", 0), 0u) << *last_word;
    }
    EXPECT_FALSE(corrupt.ReadFrame().has_value()) << "connection not closed";
    corrupt.Close();
  }

  // Fuzz 4: a binary frame truncated mid-length-prefix, then EOF.
  {
    WireClient half;
    ASSERT_TRUE(half.ConnectTcp("127.0.0.1", port));
    ASSERT_TRUE(half.Send("frame binary\n"));
    auto ack = half.ReadLine();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(*ack, "ok frame binary");
    ASSERT_TRUE(half.Send(std::string("\x00\x00", 2)));  // 2 of 4 bytes
    half.Close();
  }

  // Fuzz 5: an oversized binary length prefix (0x7fffffff >> 1 MiB cap).
  {
    WireClient huge;
    ASSERT_TRUE(huge.ConnectTcp("127.0.0.1", port));
    ASSERT_TRUE(huge.Send("frame binary\n"));
    auto ack = huge.ReadLine();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(*ack, "ok frame binary");
    ASSERT_TRUE(huge.Send(std::string("\x7f\xff\xff\xff", 4)));
    auto last_word = huge.ReadFrame();
    if (last_word.has_value()) {
      EXPECT_EQ(last_word->rfind("err - ", 0), 0u) << *last_word;
    }
    EXPECT_FALSE(huge.ReadFrame().has_value()) << "connection not closed";
    huge.Close();
  }

  // The sibling's session state survived every incident bit-identically:
  // the same re-solve proves the same optimum.
  ASSERT_TRUE(sibling.Send("keeper solve\n"));
  auto again = sibling.ReadLine();
  ASSERT_TRUE(again.has_value());
  // Identical problem, identical session → identical error (the line
  // number differs, so compare the tail from "error=").
  const std::string want_tail = baseline.substr(baseline.find("error="));
  EXPECT_NE(again->find(want_tail.substr(0, want_tail.find(" seconds="))),
            std::string::npos)
      << "sibling state corrupted: baseline '" << baseline << "' vs '"
      << *again << "'";

  // The dropped connections' client names were abort-closed and are free
  // again (EOF without quit closes owned clients). Teardown runs on the
  // ops thread, so retry briefly until it lands.
  WireClient reuser;
  ASSERT_TRUE(reuser.ConnectTcp("127.0.0.1", port));
  auto open_with_retry = [&reuser](const std::string& name,
                                   const std::string& dataset) {
    for (int attempt = 0; attempt < 200; ++attempt) {
      if (!reuser.Send("open " + name + " " + dataset + "\n")) return false;
      auto line = reuser.ReadLine();
      if (!line.has_value()) return false;
      if (line->rfind("ok open " + name, 0) == 0) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
  };
  EXPECT_TRUE(open_with_retry("doomed", "d0"))
      << "truncated connection's client never freed — abort-close leaked";
  EXPECT_TRUE(open_with_retry("burst", "d1"))
      << "dropped connection's client never freed — abort-close leaked";
  ASSERT_TRUE(reuser.Send("quit\n"));
  auto reuser_quit = reuser.ReadLine();
  ASSERT_TRUE(reuser_quit.has_value());
  EXPECT_EQ(*reuser_quit, "ok quit");

  ASSERT_TRUE(sibling.Send("quit\n"));
  auto quit = sibling.ReadLine();
  ASSERT_TRUE(quit.has_value());
  EXPECT_EQ(*quit, "ok quit");

  // The framing victims were counted: protocol_errors >= 2 (fuzz 3 and
  // 5), and the EOF-abort gauge caught the vanished peers.
  EXPECT_TRUE(PollStats(port, [](const std::string& line) {
    return line.find(" aborted_eof=") != std::string::npos &&
           line.find(" aborted_eof=0") == std::string::npos;
  })) << "EOF abort-closes never reached the stats gauges";
  fixture.server->Stop();
}

TEST(ReactorServerTest, StalledReaderBackpressureAbortsOnlyThatConnection) {
  // The backpressure chaos walk: a peer that stops reading while the
  // server keeps answering must be abort-closed when its write queue hits
  // --max-conn-buffer, without delaying anyone else's solve. Tiny
  // SO_SNDBUF (server) + pinned tiny SO_RCVBUF (client) make the kernel
  // absorb almost nothing, so the queue fills fast.
  ReactorOptions reactor_options;
  reactor_options.sndbuf_bytes = 4096;
  reactor_options.max_conn_buffer = 16 * 1024;
  ServerFixture fixture(/*seed=*/304, /*n=*/10, /*k=*/4, reactor_options);
  int port = 0;
  Status started = fixture.StartTcp(&port);
  if (!started.ok()) {
    GTEST_SKIP() << "loopback TCP unavailable: " << started.ToString();
  }

  WireClient sibling;
  ASSERT_TRUE(sibling.ConnectTcp("127.0.0.1", port));
  ASSERT_TRUE(sibling.Send("open keeper d0\n"));
  auto opened = sibling.ReadLine();
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, "ok open keeper d0");

  // The staller: floods stats requests (each answer is a few hundred
  // bytes) and never reads a byte back.
  WireClient staller;
  ASSERT_TRUE(staller.ConnectTcp("127.0.0.1", port, /*rcvbuf=*/4096));
  std::string flood;
  for (int i = 0; i < 2000; ++i) flood += "stats\n";
  // The send may fail partway once the server abort-closes — that IS the
  // expected outcome, so the return value is deliberately ignored.
  (void)staller.Send(flood);

  // While the staller is being strangled, the sibling's solve completes
  // normally (the acceptance criterion: one stalled reader costs one
  // connection, never a strand or an event loop).
  ASSERT_TRUE(sibling.Send("keeper solve\n"));
  auto solved = sibling.ReadLine();
  ASSERT_TRUE(solved.has_value()) << "sibling starved by a stalled reader";
  EXPECT_EQ(solved->rfind("ok keeper line=2 error=", 0), 0u) << *solved;

  // The backpressure abort-close lands and is attributed in the gauges.
  EXPECT_TRUE(PollStats(port, [](const std::string& line) {
    return line.find(" aborted_backpressure=") != std::string::npos &&
           line.find(" aborted_backpressure=0") == std::string::npos;
  })) << "stalled reader never abort-closed (backpressure gauge still 0)";

  // The staller's socket really is dead: reads drain whatever was in
  // flight, then hit EOF/reset rather than blocking forever.
  while (staller.ReadLine().has_value()) {
  }
  staller.Close();

  ASSERT_TRUE(sibling.Send("quit\n"));
  auto quit = sibling.ReadLine();
  ASSERT_TRUE(quit.has_value());
  EXPECT_EQ(*quit, "ok quit");
  fixture.server->Stop();
}

TEST(ReactorServerTest, IdleTimeoutSweepAbortsSilentConnections) {
  // --idle-timeout now rides the reactor's once-per-second deadline sweep
  // (the old transport used SO_RCVTIMEO): a silent connection is
  // abort-closed and attributed to the idle gauge; an active sibling
  // keeps its session.
  ReactorOptions reactor_options;
  reactor_options.idle_timeout_seconds = 1;
  ServerFixture fixture(/*seed=*/305, /*n=*/8, /*k=*/3, reactor_options);
  int port = 0;
  Status started = fixture.StartTcp(&port);
  if (!started.ok()) {
    GTEST_SKIP() << "loopback TCP unavailable: " << started.ToString();
  }

  WireClient idler;
  ASSERT_TRUE(idler.ConnectTcp("127.0.0.1", port));
  ASSERT_TRUE(idler.Send("open sleepy d0\n"));
  auto ack = idler.ReadLine();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(*ack, "ok open sleepy d0");

  // ... then silence. The sweep should cut the connection within ~2-3s;
  // the blocking read returns EOF when it does.
  EXPECT_FALSE(idler.ReadLine().has_value())
      << "idle connection outlived the timeout sweep";
  idler.Close();

  EXPECT_TRUE(PollStats(port, [](const std::string& line) {
    return line.find(" aborted_idle=") != std::string::npos &&
           line.find(" aborted_idle=0") == std::string::npos;
  })) << "idle abort-close never attributed to the idle gauge";
  fixture.server->Stop();
}

TEST(ReactorServerTest, HundredsOfIdleConnectionsOnAFixedThreadSet) {
  // The multiplexing smoke (the full >= 1000-connection scaling walk
  // lives in bench_session_resolve's connection_scaling section): a few
  // hundred parked connections on 2 event loops, while one active client
  // works normally. Thread-per-connection would need 300 stacks here; the
  // reactor needs 4 threads total.
  ServerFixture fixture(/*seed=*/306, /*n=*/8, /*k=*/3);
  int port = 0;
  Status started = fixture.StartTcp(&port);
  if (!started.ok()) {
    GTEST_SKIP() << "loopback TCP unavailable: " << started.ToString();
  }

  constexpr int kIdle = 300;
  std::vector<WireClient> idle(kIdle);
  for (int i = 0; i < kIdle; ++i) {
    ASSERT_TRUE(idle[i].ConnectTcp("127.0.0.1", port))
        << "connect " << i << " failed: " << std::strerror(errno);
  }

  // One active client does real work through the crowd. Sequential
  // round-trips: `stats` answers inline on the event loop while a solve
  // completes on a strand, so pipelining them would race the responses.
  WireClient active;
  ASSERT_TRUE(active.ConnectTcp("127.0.0.1", port));
  ASSERT_TRUE(active.Send("open worker d1\n"));
  auto ack = active.ReadLine();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(*ack, "ok open worker d1");
  ASSERT_TRUE(active.Send("worker solve\n"));
  auto solved = active.ReadLine();
  ASSERT_TRUE(solved.has_value());
  EXPECT_EQ(solved->rfind("ok worker line=2 error=", 0), 0u) << *solved;
  ASSERT_TRUE(active.Send("stats\n"));
  auto stats = active.ReadLine();
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->find(" connections=" + std::to_string(kIdle + 1)),
            std::string::npos)
      << *stats << " (want " << kIdle + 1 << " live connections)";

  // Every parked connection still answers — sample a spread of them.
  for (int i = 0; i < kIdle; i += 37) {
    ASSERT_TRUE(idle[i].Send("stats\n"));
    auto line = idle[i].ReadLine();
    ASSERT_TRUE(line.has_value()) << "idle connection " << i << " dead";
    EXPECT_EQ(line->rfind("ok stats ", 0), 0u);
  }

  ASSERT_TRUE(active.Send("quit\n"));
  auto quit = active.ReadLine();
  ASSERT_TRUE(quit.has_value());
  EXPECT_EQ(*quit, "ok quit");
  EXPECT_EQ(fixture.server->num_loops(), 2);
  EXPECT_EQ(fixture.server->connections_accepted(), kIdle + 1);
  fixture.server->Stop();
}

}  // namespace
}  // namespace rankhow
