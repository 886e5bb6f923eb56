// Coordinator failover chaos (the distributed half of the chaos suite;
// docs/OPERATIONS.md "Distributed serving"):
//
//  * the headline acceptance test: two real `rankhow_cli --listen` workers
//    behind an in-process CoordServer, a session with acked edits pinned
//    to one of them, SIGKILL that worker mid-session — the failed-over
//    session's next solve proves the EXACT optimum a serial uninterrupted
//    replay of its acked edit script proves, the sibling session on the
//    surviving worker is untouched, and the next `open` adopts the moved
//    session with the ` recovered` ack suffix;
//  * an edit that stuck behind a failed re-solve (acked `err ... solve
//    failed after edit applied`) is replayed onto the replacement like an
//    ok-acked one;
//  * the no-replacement variant: killing the only worker answers every
//    affected request with a clean `err` line — never a hang — and frees
//    the session name.
//
// Like the rest of the kill tests, these locate the CLI binary through
// RANKHOW_CLI and skip when absent; chaos_tests_nokill filters them out
// of the tsan run (names match *Kill*).

#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "app/cli_driver.h"
#include "coord/coordinator.h"
#include "coord/shard_map.h"
#include "core/solve_session.h"
#include "net/dial.h"
#include "util/csv.h"
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

/// A self-deleting scratch directory (flat: CSVs and stderr logs only).
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/rankhow_coord_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "/tmp";
  }
  ~TempDir() {
    DIR* d = ::opendir(path.c_str());
    if (d == nullptr) return;
    while (dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((path + "/" + name).c_str());
    }
    ::closedir(d);
    ::rmdir(path.c_str());
  }
  std::string File(const std::string& name) const {
    return path + "/" + name;
  }
};

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string CliBinaryOrEmpty() {
  const char* env = ::getenv("RANKHOW_CLI");
  std::string path = env != nullptr ? env : "./rankhow_cli";
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || (st.st_mode & S_IXUSR) == 0) {
    return "";
  }
  return path;
}

/// A spawned worker process (same shape as the journal kill tests'
/// harness: stderr to a file the test polls for the listening banner).
struct WorkerProcess {
  pid_t pid = -1;
  std::string stderr_path;
  int port = -1;

  static WorkerProcess Spawn(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::string& stderr_path) {
    WorkerProcess proc;
    proc.stderr_path = stderr_path;
    pid_t pid = ::fork();
    if (pid == 0) {
      const int err = ::open(stderr_path.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (err >= 0) {
        ::dup2(err, 2);
        ::dup2(err, 1);
        ::close(err);
      }
      std::vector<char*> argv;
      std::vector<std::string> storage = args;
      storage.insert(storage.begin(), binary);
      for (std::string& a : storage) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    proc.pid = pid;
    return proc;
  }

  /// Polls stderr for "listening on HOST:PORT"; false on timeout/death.
  bool WaitForPort(int timeout_ms = 20000) {
    for (int waited = 0; waited < timeout_ms; waited += 50) {
      const std::string text = ReadWholeFile(stderr_path);
      const size_t at = text.find("listening on ");
      if (at != std::string::npos) {
        const size_t begin = at + std::strlen("listening on ");
        const size_t end = text.find(' ', begin);
        if (end == std::string::npos) continue;  // banner mid-write
        const std::string spec = text.substr(begin, end - begin);
        const size_t colon = spec.rfind(':');
        if (colon == std::string::npos) return false;
        auto parsed = ParseInt(spec.substr(colon + 1));
        if (!parsed.ok()) return false;
        port = static_cast<int>(*parsed);
        return true;
      }
      int status = 0;
      if (pid > 0 && ::waitpid(pid, &status, WNOHANG) == pid) {
        pid = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
  }

  std::string Spec() const { return "127.0.0.1:" + std::to_string(port); }

  /// SIGKILL + reap: the no-goodbyes death failover must absorb.
  void Kill() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }

  ~WorkerProcess() { Kill(); }
};

/// The shared fixture: a fixed ranked CSV served as two dataset ids
/// (alpha/beta), worker flags matching the serial solver options, and
/// the in-process serial ground truth.
struct CoordKillRig {
  TempDir dir;
  std::string alpha_csv;
  std::string beta_csv;
  CliProblem problem;
  bool ok = false;

  CoordKillRig() {
    alpha_csv = dir.File("alpha.csv");
    beta_csv = dir.File("beta.csv");
    // The journal kill tests' fixed instance: these edits stay provable
    // in milliseconds (random tables occasionally blow the budget).
    const char* csv_text =
        "id,A0,A1,A2\n"
        "t0,0.701572,0.053770,0.153893\n"
        "t1,0.284070,0.472286,0.695374\n"
        "t2,0.170754,0.476345,0.164456\n"
        "t3,0.708557,0.220187,0.037273\n"
        "t4,0.415417,0.960246,0.512896\n"
        "t5,0.076767,0.612669,0.529445\n"
        "t6,0.231850,0.510558,0.282811\n"
        "t7,0.676359,0.861859,0.629128\n"
        "t8,0.822337,0.790560,0.102615\n"
        "t9,0.205545,0.977423,0.952639\n";
    for (const std::string& path : {alpha_csv, beta_csv}) {
      std::ofstream out(path);
      out << csv_text;
    }

    CliDataSpec spec;
    spec.id_column = "id";
    spec.k = 4;
    auto table = ReadCsvFile(alpha_csv);
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    if (!table.ok()) return;
    auto assembled = AssembleCliProblem(*table, spec);
    EXPECT_TRUE(assembled.ok()) << assembled.status().ToString();
    if (!assembled.ok()) return;
    problem = *std::move(assembled);
    ok = true;
  }

  std::vector<std::string> WorkerArgs() const {
    return {"--listen=127.0.0.1:0",
            "--data=" + alpha_csv + "," + beta_csv,
            "--strategy=spatial",
            "--threads=1",
            "--id=id",
            "--k=4",
            "--eps=5e-7",
            "--eps1=1e-6",
            "--eps2=0"};
  }

  RankHowOptions SolverOptions() const {
    RankHowOptions options;
    options.eps = TestEps();
    options.strategy = SolveStrategy::kSpatial;
    options.num_threads = 1;
    options.time_limit_seconds = 60;
    return options;
  }

  /// Serial uninterrupted replay of `edit_lines` + solve: the proven
  /// error the failed-over session must reproduce exactly.
  long SerialReplayError(const std::vector<std::string>& edit_lines) const {
    SolveSession replay(Dataset(problem.data), Ranking(problem.given),
                        SolverOptions());
    std::string script;
    for (const std::string& line : edit_lines) script += line + "\n";
    script += "solve\n";
    auto parsed = ParseSessionScript(script);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    long error = -1;
    for (const SessionCommand& cmd : *parsed) {
      auto out = ExecuteSessionCommand(&replay, cmd, problem.labels);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_TRUE(out->result.proven_optimal);
      error = out->result.error;
    }
    return error;
  }
};

/// In-process coordinator with test-speed health settings.
struct CoordHarness {
  std::unique_ptr<CoordServer> coord;
  ListenAddress endpoint;

  Status Start(const std::string& workers_spec,
               const std::string& shard_map_spec) {
    auto map = ShardMap::Parse(workers_spec, shard_map_spec);
    if (!map.ok()) return map.status();
    CoordOptions options;
    options.health.interval_ms = 100;
    options.health.timeout_ms = 1000;
    options.health.dial_timeout_ms = 1000;
    options.health.failure_threshold = 2;
    coord = std::make_unique<CoordServer>(*std::move(map), options);
    ListenAddress listen;
    listen.kind = ListenAddress::Kind::kTcp;
    listen.host = "127.0.0.1";
    listen.port = 0;
    Status started = coord->Start(listen);
    if (started.ok()) endpoint = coord->bound();
    return started;
  }

  ~CoordHarness() {
    if (coord != nullptr) coord->Stop();
  }
};

/// "... name=V ..." -> V, or -1.
long ParseLongField(const std::string& text, const std::string& name) {
  const std::string needle = " " + name + "=";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return -1;
  const size_t begin = at + needle.size();
  const size_t end = text.find(' ', begin);
  auto value = ParseInt(
      text.substr(begin, end == std::string::npos ? end : end - begin));
  return value.ok() ? static_cast<long>(*value) : -1;
}

bool WaitForCounter(const std::function<long long()>& read, long long want,
                    int deadline_ms = 15000) {
  for (int waited = 0; waited < deadline_ms; waited += 20) {
    if (read() >= want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return read() >= want;
}

TEST(CoordFailoverKillTest, SigkilledWorkerSessionFailsOverToIdenticalOptima) {
  const std::string binary = CliBinaryOrEmpty();
  if (binary.empty()) {
    GTEST_SKIP() << "rankhow_cli not found (set RANKHOW_CLI)";
  }
  CoordKillRig rig;
  ASSERT_TRUE(rig.ok);

  WorkerProcess w1 = WorkerProcess::Spawn(binary, rig.WorkerArgs(),
                                          rig.dir.File("w1.err"));
  WorkerProcess w2 = WorkerProcess::Spawn(binary, rig.WorkerArgs(),
                                          rig.dir.File("w2.err"));
  if (!w1.WaitForPort() || !w2.WaitForPort()) {
    GTEST_SKIP() << "workers failed to start: "
                 << ReadWholeFile(w1.stderr_path)
                 << ReadWholeFile(w2.stderr_path);
  }

  CoordHarness coord;
  Status started = coord.Start(w1.Spec() + "," + w2.Spec(),
                               "alpha=" + w1.Spec() + ",beta=" + w2.Spec());
  ASSERT_TRUE(started.ok()) << started.ToString();

  LineClient client;
  Status connected = client.Connect(coord.endpoint);
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  auto roundtrip = [&client](const std::string& request) -> std::string {
    if (!client.SendLine(request)) return "<send failed>";
    auto line = client.ReadLine();
    return line.has_value() ? *line : "<no response>";
  };

  // s1 on alpha (pinned to w1) takes three acked edits; s2 on beta
  // (pinned to w2) takes one. Lines 1-6 on this connection.
  const std::vector<std::string> s1_edits = {
      "min-weight A0 0.05", "max-weight A1 0.6", "order t0>t1"};
  const std::vector<std::string> s2_edits = {"min-weight A0 0.05"};
  EXPECT_EQ(roundtrip("open s1 alpha"), "ok open s1 alpha");
  for (size_t e = 0; e < s1_edits.size(); ++e) {
    const std::string ack = roundtrip("s1 " + s1_edits[e]);
    EXPECT_EQ(ack.rfind("ok s1 line=" + std::to_string(e + 2) + " ", 0), 0u)
        << ack;
  }
  EXPECT_EQ(roundtrip("open s2 beta"), "ok open s2 beta");
  EXPECT_EQ(roundtrip("s2 " + s2_edits[0]).rfind("ok s2 line=6 ", 0), 0u);

  // SIGKILL the pinned worker: no goodbyes. Every edit above was acked,
  // so the coordinator's captured edit script is exactly the serial one.
  w1.Kill();
  ASSERT_TRUE(WaitForCounter(
      [&] { return coord.coord->counters().failover_sessions; }, 1))
      << "failover never completed after SIGKILL";

  // The failed-over session's solve (line 7) proves the exact optimum a
  // serial uninterrupted replay of its acked edit script proves.
  const long want_s1 = rig.SerialReplayError(s1_edits);
  const std::string solved = roundtrip("s1 solve");
  EXPECT_EQ(solved.rfind("ok s1 line=7 error=" + std::to_string(want_s1) +
                             " bound=",
                         0),
            0u)
      << "failed-over solve '" << solved << "' differs from serial replay "
      << "(want error=" << want_s1 << ")";
  EXPECT_NE(solved.find("proven=yes"), std::string::npos) << solved;

  // The sibling on the surviving worker is untouched (line 8).
  const long want_s2 = rig.SerialReplayError(s2_edits);
  const std::string sibling = roundtrip("s2 solve");
  EXPECT_EQ(sibling.rfind("ok s2 line=8 error=" + std::to_string(want_s2) +
                              " bound=",
                          0),
            0u)
      << sibling;

  // Re-opening the moved client adopts it with the same ` recovered`
  // suffix a journal-recovering worker uses.
  EXPECT_EQ(roundtrip("open s1 alpha"), "ok open s1 alpha recovered");

  // The books: one failover, one moved session, three replayed edits,
  // no failures — and the fleet view shows w1 down, w2 up.
  const CoordCounters counters = coord.coord->counters();
  EXPECT_EQ(counters.failovers, 1);
  EXPECT_EQ(counters.failover_sessions, 1);
  EXPECT_EQ(counters.failover_failures, 0);
  EXPECT_EQ(counters.replayed_edits, 3);
  EXPECT_EQ(counters.replay_errors, 0);
  const std::string stats = roundtrip("stats");
  EXPECT_EQ(ParseLongField(stats, "coord_up"), 1) << stats;
  EXPECT_NE(stats.find(":down"), std::string::npos) << stats;
  EXPECT_EQ(roundtrip("quit"), "ok quit");
}

TEST(CoordFailoverKillTest, EditStuckBehindFailedSolveSurvivesKill) {
  const std::string binary = CliBinaryOrEmpty();
  if (binary.empty()) {
    GTEST_SKIP() << "rankhow_cli not found (set RANKHOW_CLI)";
  }
  CoordKillRig rig;
  ASSERT_TRUE(rig.ok);

  WorkerProcess w1 = WorkerProcess::Spawn(binary, rig.WorkerArgs(),
                                          rig.dir.File("w1.err"));
  WorkerProcess w2 = WorkerProcess::Spawn(binary, rig.WorkerArgs(),
                                          rig.dir.File("w2.err"));
  if (!w1.WaitForPort() || !w2.WaitForPort()) {
    GTEST_SKIP() << "workers failed to start: "
                 << ReadWholeFile(w1.stderr_path)
                 << ReadWholeFile(w2.stderr_path);
  }

  CoordHarness coord;
  Status started =
      coord.Start(w1.Spec() + "," + w2.Spec(), "alpha=" + w1.Spec());
  ASSERT_TRUE(started.ok()) << started.ToString();

  LineClient client;
  Status connected = client.Connect(coord.endpoint);
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  auto roundtrip = [&client](const std::string& request) -> std::string {
    if (!client.SendLine(request)) return "<send failed>";
    auto line = client.ReadLine();
    return line.has_value() ? *line : "<no response>";
  };

  // The second floor makes P empty (0.7 + 0.7 > 1): its re-solve fails,
  // but the edit stuck on w1 (PROTOCOL.md "Error semantics").
  const std::string stuck =
      "err s1 line=3 session script line 1: solve failed after edit applied";
  EXPECT_EQ(roundtrip("open s1 alpha"), "ok open s1 alpha");
  EXPECT_EQ(roundtrip("s1 min-weight A0 0.7").rfind("ok s1 line=2 ", 0), 0u);
  const std::string failed = roundtrip("s1 min-weight A1 0.7");
  EXPECT_EQ(failed.rfind(stuck, 0), 0u) << failed;

  w1.Kill();
  ASSERT_TRUE(WaitForCounter(
      [&] { return coord.coord->counters().failover_sessions; }, 1))
      << "failover never completed after SIGKILL";

  // The replacement holds both floors, exactly as w1 or a journal-recovered
  // w1 would: the solve still fails, and min_A1 exists to be dropped.
  const std::string solved = roundtrip("s1 solve");
  EXPECT_EQ(solved.rfind("err s1 line=4 session script line 1: solve failed "
                         "after edit applied",
                         0),
            0u)
      << solved;
  const std::string dropped = roundtrip("s1 drop min_A1");
  EXPECT_EQ(dropped.rfind("ok s1 line=5 ", 0), 0u) << dropped;

  // Both edits replayed; the stuck one's failed re-solve on the
  // replacement is not a replay error.
  const CoordCounters counters = coord.coord->counters();
  EXPECT_EQ(counters.replayed_edits, 2);
  EXPECT_EQ(counters.replay_errors, 0);
  EXPECT_EQ(roundtrip("quit"), "ok quit");
}

TEST(CoordFailoverKillTest, KillWithNoReplacementAnswersCleanErrors) {
  const std::string binary = CliBinaryOrEmpty();
  if (binary.empty()) {
    GTEST_SKIP() << "rankhow_cli not found (set RANKHOW_CLI)";
  }
  CoordKillRig rig;
  ASSERT_TRUE(rig.ok);

  WorkerProcess w1 = WorkerProcess::Spawn(binary, rig.WorkerArgs(),
                                          rig.dir.File("only.err"));
  if (!w1.WaitForPort()) {
    GTEST_SKIP() << "worker failed to start: "
                 << ReadWholeFile(w1.stderr_path);
  }
  CoordHarness coord;
  Status started = coord.Start(w1.Spec(), "");
  ASSERT_TRUE(started.ok()) << started.ToString();

  LineClient client;
  Status connected = client.Connect(coord.endpoint);
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  auto roundtrip = [&client](const std::string& request) -> std::string {
    if (!client.SendLine(request)) return "<send failed>";
    auto line = client.ReadLine();
    return line.has_value() ? *line : "<no response>";
  };

  EXPECT_EQ(roundtrip("open s1 alpha"), "ok open s1 alpha");
  EXPECT_EQ(roundtrip("s1 min-weight A0 0.05").rfind("ok s1 line=2 ", 0),
            0u);

  w1.Kill();
  ASSERT_TRUE(WaitForCounter(
      [&] { return coord.coord->counters().failover_failures; }, 1))
      << "failover (to nowhere) never ran after SIGKILL";

  // The session could not be rebound: it is gone, and every subsequent
  // request answers a clean `err` line immediately — never a hang.
  const std::string after = roundtrip("s1 solve");
  EXPECT_EQ(after, "err s1 no client named s1 on this connection") << after;
  // The name is free again; the re-open itself fails cleanly too (no
  // worker is alive to route to).
  const std::string reopen = roundtrip("open s1 alpha");
  EXPECT_EQ(reopen.rfind("err s1 ", 0), 0u) << reopen;
  // Scatter-gather degrades to a clean error as well.
  const std::string stats = roundtrip("stats");
  EXPECT_EQ(stats, "err - stats unavailable: no worker reachable") << stats;
  EXPECT_EQ(roundtrip("quit"), "ok quit");
}

}  // namespace
}  // namespace rankhow
