// rankhow_cli — synthesize a linear scoring function for a ranked CSV.
//
// The end-user entry point to the library: point it at any CSV whose rows
// are ranked (either by a rank column or by file order) and it prints the
// most accurate simple linear scoring function, its verified position
// error, and a before/after table of the ranked tuples. Supports the
// paper's constraint exploration (weight floors/ceilings, pairwise order),
// the three objectives, all exact strategies, and SYM-GD for large inputs.
//
// Examples:
//   build/rankhow_cli --data=players.csv --id=PLR --rank=mvp_rank
//   build/rankhow_cli --data=players.csv --id=PLR --k=10
//       --attrs=PTS,REB,AST,STL,BLK --min-weight=PTS:0.1
//       --order="Jokic>Tatum" --strategy=milp --time-limit=30
//   build/rankhow_cli --data=big.csv --k=25 --sym-gd --cell=0.01

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include <sys/stat.h>

#include "app/cli_driver.h"
#include "core/seeding.h"
#include "core/solve_session.h"
#include "core/sym_gd.h"
#include "data/shared_dataset.h"
#include "net/reactor.h"
#include "ranking/score_ranking.h"
#include "server/registry_router.h"
#include "server/session_registry.h"
#include "server/wire.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

using namespace rankhow;

namespace {

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

/// Prints the ranked tuples' given vs. synthesized positions.
void PrintComparison(const CliProblem& problem,
                     const std::vector<double>& weights, double tie_eps) {
  const Ranking& given = problem.given;
  std::vector<double> scores = problem.data.Scores(weights);
  std::vector<int> positions =
      ScoreRankPositionsOf(scores, given.ranked_tuples(), tie_eps);
  TablePrinter table({"label", "given", "synthesized", "score"});
  for (size_t i = 0; i < given.ranked_tuples().size(); ++i) {
    int t = given.ranked_tuples()[i];
    table.AddRow({problem.labels[t], std::to_string(given.position(t)),
                  std::to_string(positions[i]),
                  FormatDouble(scores[t], 4)});
  }
  std::cout << table.ToText();
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open session script: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct ParsedScripts {
  std::vector<std::string> paths;
  std::vector<std::vector<SessionCommand>> scripts;
};

/// Parses every --session script up front so a typo on script 3 fails
/// before script 1 burns its solve budget.
Result<ParsedScripts> ParseSessionScripts(const std::string& session_spec) {
  ParsedScripts out;
  for (const std::string& p : Split(session_spec, ',')) {
    std::string path(Trim(p));
    if (path.empty()) continue;
    RH_ASSIGN_OR_RETURN(std::string text, ReadTextFile(path));
    RH_ASSIGN_OR_RETURN(std::vector<SessionCommand> script,
                        ParseSessionScript(text));
    if (script.empty()) {
      return Status::Invalid("session script is empty: " + path);
    }
    out.paths.push_back(std::move(path));
    out.scripts.push_back(std::move(script));
  }
  if (out.paths.empty()) {
    return Status::Invalid("--session lists no script files");
  }
  return out;
}

/// Renders a run's per-line proven error/bound table (sessions and
/// scripted server clients share the format).
void PrintOutcomeTable(const std::vector<SessionStepOutcome>& outcomes) {
  TablePrinter table({"line", "command", "error", "bound", "proven",
                      "seconds"});
  for (const SessionStepOutcome& step : outcomes) {
    const char* kind = "solve";
    switch (step.command.kind) {
      case SessionCommand::Kind::kSolve: kind = "solve"; break;
      case SessionCommand::Kind::kMinWeight: kind = "min-weight"; break;
      case SessionCommand::Kind::kMaxWeight: kind = "max-weight"; break;
      case SessionCommand::Kind::kDrop: kind = "drop"; break;
      case SessionCommand::Kind::kOrder: kind = "order"; break;
      case SessionCommand::Kind::kEps: kind = "eps"; break;
      case SessionCommand::Kind::kEps1: kind = "eps1"; break;
      case SessionCommand::Kind::kEps2: kind = "eps2"; break;
      case SessionCommand::Kind::kObjective: kind = "objective"; break;
      case SessionCommand::Kind::kAppend: kind = "append"; break;
    }
    std::string command = kind;
    if (!step.command.arg.empty()) command += " " + step.command.arg;
    table.AddRow({std::to_string(step.command.line), command,
                  std::to_string(step.result.error),
                  std::to_string(step.result.bound),
                  step.result.proven_optimal ? "yes" : "no",
                  FormatDouble(step.result.seconds, 3)});
  }
  std::cout << table.ToText();
}

/// Renders one script's outcomes plus the session's reuse counters.
void PrintSessionOutcomes(const std::string& script_name,
                          const std::vector<SessionStepOutcome>& outcomes,
                          const SolveSessionStats& stats) {
  std::cout << "session " << script_name << ":\n";
  PrintOutcomeTable(outcomes);
  std::cout << StrFormat(
      "  (model builds %lld, patches %lld, presolves %lld, pool hits %lld, "
      "bound seeds %lld)\n\n",
      static_cast<long long>(stats.model_builds),
      static_cast<long long>(stats.model_patches),
      static_cast<long long>(stats.presolve_runs),
      static_cast<long long>(stats.pool_hits),
      static_cast<long long>(stats.bound_seeds));
}

/// Builds a fresh session over the assembled problem and applies the
/// flag-level constraints through the session edit API (they are part of
/// the base problem every script line edits against). The session shares
/// `data`'s snapshot copy-on-write — batch/serve fan-out holds one resident
/// dataset however many sessions run.
Result<std::unique_ptr<SolveSession>> MakeSession(
    const SharedDataset& data, const CliProblem& problem,
    const RankHowOptions& options, const RankingObjectiveSpec& objective,
    const std::string& min_weights, const std::string& max_weights,
    const std::string& orders) {
  auto session = std::make_unique<SolveSession>(SharedDataset(data),
                                                problem.given, options);
  RH_RETURN_NOT_OK(session->SetObjective(objective));
  WeightConstraintSet base;
  RH_RETURN_NOT_OK(
      ApplyWeightBounds(session->data(), min_weights, true, &base));
  RH_RETURN_NOT_OK(
      ApplyWeightBounds(session->data(), max_weights, false, &base));
  for (const WeightConstraint& c : base.constraints()) {
    RH_RETURN_NOT_OK(session->AddWeightConstraint(c));
  }
  std::vector<PairwiseOrderConstraint> base_orders;
  RH_RETURN_NOT_OK(ApplyOrderConstraints(problem.labels, orders,
                                         &base_orders));
  for (const PairwiseOrderConstraint& oc : base_orders) {
    RH_RETURN_NOT_OK(session->AddOrderConstraint(oc.above, oc.below));
  }
  return session;
}

/// "path/to/players.csv" -> "players": the dataset id a catalog entry
/// serves under (`open CLIENT players`).
std::string DatasetIdFromPath(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
  return base;
}

/// `--listen` mode: the epoll reactor serving the wire protocol over a
/// Unix-domain/TCP listener, routing across a lazily-loaded multi-dataset
/// catalog (`--data` takes a comma-separated CSV list; dataset ids are the
/// file basenames; the first is the default). Runs until the process is
/// terminated.
int RunListenServer(const std::string& listen_spec,
                    const std::string& data_paths, const CliDataSpec& spec,
                    const RouterOptions& router_options,
                    const ReactorOptions& reactor_options_in) {
  auto address = ParseListenSpec(listen_spec);
  if (!address.ok()) return Fail(address.status());

  // Declared before the router and the server: teardown callbacks running
  // inside ReactorServer::Stop touch both, so they must be destroyed last.
  ServerMetrics metrics;
  RegistryRouter router(router_options);
  std::vector<std::string> ids;
  for (const std::string& p : Split(data_paths, ',')) {
    const std::string path(Trim(p));
    if (path.empty()) continue;
    const std::string id = DatasetIdFromPath(path);
    // Lazy loader: the CSV is parsed on the first `open` that names the
    // dataset (and again if the registry was LRU-evicted meanwhile).
    Status registered = router.RegisterDataset(
        id, [path, spec]() -> Result<RegistryRouter::DatasetBundle> {
          RH_ASSIGN_OR_RETURN(CsvTable csv, ReadCsvFile(path));
          RH_ASSIGN_OR_RETURN(CliProblem problem,
                              AssembleCliProblem(csv, spec));
          RegistryRouter::DatasetBundle bundle;
          bundle.data = SharedDataset(std::move(problem.data));
          bundle.given = std::move(problem.given);
          bundle.labels = std::move(problem.labels);
          return bundle;
        });
    if (!registered.ok()) return Fail(registered);
    ids.push_back(id);
  }
  if (ids.empty()) {
    std::cerr << "error: --listen needs --data=a.csv[,b.csv...]\n";
    return 1;
  }

  if (!router_options.journal_dir.empty()) {
    // Crash recovery before serving: rebuild every journaled session's
    // constraint state through the serial replay path (no solves re-run —
    // incumbents come back lazily), then report the `recover` accounting.
    auto recovered = router.RecoverFromJournals();
    if (!recovered.ok()) return Fail(recovered.status());
    std::cerr << StrFormat(
        "rankhow: recover replayed=%lld truncated=%lld skipped=%lld "
        "datasets=%d sessions=%d fingerprint_mismatches=%lld "
        "replay_failures=%lld\n",
        static_cast<long long>(recovered->replayed),
        static_cast<long long>(recovered->truncated),
        static_cast<long long>(recovered->skipped), recovered->datasets,
        recovered->sessions,
        static_cast<long long>(recovered->fingerprint_mismatches),
        static_cast<long long>(recovered->replay_failures));
  }

  ServeStreamOptions serve_options;
  // Network semantics: every connection owns the clients it opens, and
  // its end (quit/EOF/drop) closes them without draining siblings.
  serve_options.connection_scoped_clients = true;
  serve_options.metrics = &metrics;
  ReactorOptions reactor_options = reactor_options_in;
  reactor_options.metrics = &metrics;
  ReactorServer server(MakeWireReactorCallbacks(&router, serve_options),
                       reactor_options);
  Status started = server.Start(*address);
  if (!started.ok()) return Fail(started);
  std::cerr << "rankhow: listening on " << server.bound_spec() << " ("
            << ids.size() << " dataset" << (ids.size() == 1 ? "" : "s")
            << ": " << Join(ids, ", ") << "; default " << ids[0] << "; "
            << server.num_loops() << " event loop"
            << (server.num_loops() == 1 ? "" : "s") << ")\n";
  server.Wait();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  std::string data_path =
      flags.GetString("data", "", "CSV file with the ranked relation");
  std::string id_column =
      flags.GetString("id", "", "label column (not used for scoring)");
  std::string rank_column = flags.GetString(
      "rank", "", "column with given positions (blank/-/na = unranked)");
  int k = static_cast<int>(flags.GetInt(
      "k", 10, "ranking length when --rank is absent (file order ranks)"));
  std::string attrs = flags.GetString(
      "attrs", "", "comma-separated ranking attributes (default: all)");
  std::string negate = flags.GetString(
      "negate", "", "attributes where lower is better (negated)");
  bool normalize =
      flags.GetBool("normalize", true, "min-max rescale attributes to [0,1]");
  bool offset = flags.GetBool(
      "offset-ranking", false,
      "accept rankings that start above position 1 (mid-ranking windows)");
  bool drop_duplicates = flags.GetBool(
      "drop-duplicates", false, "keep one of identically-valued tuples");
  std::string min_weights = flags.GetString(
      "min-weight", "", "weight floors, e.g. PTS:0.1,AST:0.05");
  std::string max_weights =
      flags.GetString("max-weight", "", "weight ceilings, e.g. BLK:0.3");
  std::string orders = flags.GetString(
      "order", "", "pairwise orders by label, e.g. 'Jokic>Tatum'");
  std::string objective_name = flags.GetString(
      "objective", "position", "position | topheavy | inversions");
  std::string strategy_name =
      flags.GetString("strategy", "auto", "auto | milp | spatial | sat");
  double tie_eps = flags.GetDouble("eps", 5e-5, "tie tolerance ε (Def. 2)");
  double eps1 = flags.GetDouble("eps1", 1e-4, "beats threshold ε₁ (Eq. 2)");
  double eps2 = flags.GetDouble("eps2", 0.0, "tie threshold ε₂ (Eq. 2)");
  std::string time_limit_spec = flags.GetString(
      "time-limit", "60", "solve budget in seconds (0 = none)");
  std::string threads_spec = flags.GetString(
      "threads", "1",
      "search worker threads: 1 = serial, 'all' (or 0) = every hardware "
      "thread, n = exactly n");
  std::string session_spec = flags.GetString(
      "session", "",
      "scripted session mode: an edit script (one edit+solve per line; see "
      "README), or a comma-separated list of scripts fanned out as "
      "independent sessions across the thread pool");
  bool serve = flags.GetBool(
      "serve", false,
      "session server mode: route per-client edit streams (line protocol "
      "on stdin/stdout; see README) to SolveSessions sharing the dataset "
      "copy-on-write, scheduled on the --threads pool");
  int clients = static_cast<int>(flags.GetInt(
      "clients", 0,
      "with --serve: run N scripted clients (client i streams the i-th "
      "--session script, round-robin) instead of reading a transport — "
      "deterministic multi-client mode for testing and benchmarks"));
  std::string listen_spec = flags.GetString(
      "listen", "",
      "network session server: serve the wire protocol on unix:PATH (or a "
      "bare path containing '/') or HOST:PORT (port 0 = ephemeral, "
      "printed on stderr); --data may list several CSVs — dataset ids are "
      "the file basenames, selected per client via 'open CLIENT DATASET' "
      "(see docs/PROTOCOL.md and docs/OPERATIONS.md)");
  int max_registries = static_cast<int>(flags.GetInt(
      "max-registries", 4,
      "with --listen: resident dataset registries; loading beyond this "
      "LRU-evicts an idle zero-client registry"));
  int max_sessions = static_cast<int>(flags.GetInt(
      "max-sessions", 64,
      "with --listen: total open client sessions across all datasets; "
      "opening beyond this LRU-closes idle sessions"));
  std::string journal_dir = flags.GetString(
      "journal-dir", "",
      "with --listen: write-ahead session journals (one per dataset) in "
      "this directory, and recover journaled sessions on startup (see "
      "docs/OPERATIONS.md 'Durability & recovery'); empty = no journal");
  int journal_fsync = static_cast<int>(flags.GetInt(
      "journal-fsync", 32,
      "with --journal-dir: fsync the journal after every N records (1 = "
      "every record, 0 = let the OS flush)"));
  std::string warm_cache_dir = flags.GetString(
      "warm-cache-dir", "",
      "with --listen: persist proven winners to <dir>/warm.cache keyed by "
      "problem fingerprint, and seed warm starts from it across restarts "
      "and registry evictions (see docs/OPERATIONS.md 'Warm-start cache'); "
      "empty = no cache");
  int idle_timeout = static_cast<int>(flags.GetInt(
      "idle-timeout", 0,
      "with --listen: drop connections silent for this many seconds (their "
      "sessions abort-close like a vanished peer); 0 = never"));
  int loops = static_cast<int>(flags.GetInt(
      "loops", 0,
      "with --listen: epoll event-loop threads multiplexing the "
      "connections; 0 = min(4, hardware threads)"));
  int64_t max_conn_buffer = flags.GetInt(
      "max-conn-buffer", 4 << 20,
      "with --listen: per-connection queued-response byte bound — a peer "
      "that stops reading past this is abort-closed (backpressure) instead "
      "of stalling the server");
  int max_pending = static_cast<int>(flags.GetInt(
      "max-pending", 256,
      "with --listen: per-dataset overload watermark — queued + in-flight "
      "commands beyond this shed new submits with a RETRY-AFTER hint; "
      "0 = never shed"));
  bool share_incumbents = flags.GetBool(
      "share-incumbents", true,
      "with --serve/--listen: registry-level cross-client incumbent "
      "sharing — clients over one snapshot warm-start from each other's "
      "proven winners (candidates only, revalidated per client)");
  bool use_sym_gd = flags.GetBool(
      "sym-gd", false, "approximate with symbolic gradient descent (Sec. IV)");
  double cell = flags.GetDouble("cell", 0.01, "SYM-GD cell size c");
  bool adaptive = flags.GetBool(
      "adaptive", true, "SYM-GD Algorithm 2 (double the cell when stuck)");
  std::string seeds_spec = flags.GetString(
      "seeds", "1",
      "SYM-GD portfolio size: race this many diverse seeds across the "
      "thread pool and keep the best (requires --sym-gd)");
  bool show_table =
      flags.GetBool("show-table", true, "print given vs synthesized table");
  if (!flags.Finish()) return 0;

  if (data_path.empty()) {
    std::cerr << "error: --data is required (try --help)\n";
    return 1;
  }

  CliDataSpec spec;
  if (!attrs.empty()) {
    for (const std::string& a : Split(attrs, ',')) {
      spec.attributes.emplace_back(Trim(a));
    }
  }
  if (!negate.empty()) {
    for (const std::string& a : Split(negate, ',')) {
      spec.negate.emplace_back(Trim(a));
    }
  }
  spec.id_column = id_column;
  spec.rank_column = rank_column;
  spec.k = k;
  spec.normalize = normalize;
  spec.offset_ranking = offset;
  spec.drop_duplicates = drop_duplicates;

  auto strategy = ParseStrategy(strategy_name);
  if (!strategy.ok()) return Fail(strategy.status());
  auto threads = ParseThreadCount(threads_spec);
  if (!threads.ok()) return Fail(threads.status());
  auto time_limit_parsed = ParseTimeLimit(time_limit_spec);
  if (!time_limit_parsed.ok()) return Fail(time_limit_parsed.status());
  const double time_limit = *time_limit_parsed;
  auto seeds_parsed = ParsePositiveCount("seeds", seeds_spec);
  if (!seeds_parsed.ok()) return Fail(seeds_parsed.status());
  const int seeds = *seeds_parsed;

  RankHowOptions options;
  options.eps.tie_eps = tie_eps;
  options.eps.eps1 = eps1;
  options.eps.eps2 = eps2;
  options.strategy = *strategy;
  options.time_limit_seconds = time_limit;
  options.num_threads = *threads;
  if (!options.eps.Valid()) {
    std::cerr << "error: epsilons must be finite and satisfy eps2 <= eps < "
                 "eps1\n";
    return 1;
  }

  if (!listen_spec.empty()) {
    // Network serving loads its datasets lazily (first `open` per id), so
    // this mode never touches the CSVs up front.
    if (serve || clients != 0 || !session_spec.empty() || use_sym_gd ||
        !min_weights.empty() || !max_weights.empty() || !orders.empty()) {
      std::cerr << "error: --listen is a standalone server mode; drop "
                   "--serve/--clients/--session/--sym-gd and the "
                   "constraint flags (clients script their own "
                   "constraints)\n";
      return 1;
    }
    // The default objective for every client session; `objective` edits
    // re-derive per-dataset ladders from each session's own ranking, so
    // the --k flag only sizes the default spec here.
    auto objective = ParseObjectiveSpec(objective_name, k);
    if (!objective.ok()) return Fail(objective.status());
    RouterOptions router_options;
    router_options.server.solver = options;
    router_options.server.objective = *objective;
    router_options.server.num_workers = *threads;
    router_options.server.share_incumbents = share_incumbents;
    router_options.max_resident_registries = max_registries;
    router_options.max_open_sessions = max_sessions;
    if (max_registries < 1 || max_sessions < 1) {
      std::cerr << "error: --max-registries/--max-sessions want positive "
                   "counts\n";
      return 1;
    }
    if (journal_fsync < 0 || max_pending < 0 || idle_timeout < 0 ||
        loops < 0 || max_conn_buffer < 1) {
      std::cerr << "error: --journal-fsync/--max-pending/--idle-timeout/"
                   "--loops want non-negative counts and --max-conn-buffer "
                   "a positive byte count\n";
      return 1;
    }
    router_options.server.max_clients = max_sessions;
    router_options.server.max_pending_commands = max_pending;
    if (!journal_dir.empty()) {
      // Best-effort create; an unusable directory degrades per dataset
      // (the router serves without durability, loudly) rather than
      // refusing to start.
      ::mkdir(journal_dir.c_str(), 0755);
      router_options.journal_dir = journal_dir;
      router_options.journal.fsync_every = journal_fsync;
    }
    if (!warm_cache_dir.empty()) {
      // Same best-effort contract as the journal: an unusable directory
      // serves cache-off, loudly, rather than refusing to start.
      ::mkdir(warm_cache_dir.c_str(), 0755);
      router_options.warm_cache_dir = warm_cache_dir;
    }
    ReactorOptions reactor_options;
    reactor_options.num_loops = loops;
    reactor_options.idle_timeout_seconds = idle_timeout;
    reactor_options.max_conn_buffer = static_cast<size_t>(max_conn_buffer);
    return RunListenServer(listen_spec, data_path, spec, router_options,
                           reactor_options);
  }

  auto csv = ReadCsvFile(data_path);
  if (!csv.ok()) return Fail(csv.status());

  auto problem = AssembleCliProblem(*csv, spec);
  if (!problem.ok()) return Fail(problem.status());

  auto objective = ParseObjectiveSpec(objective_name, problem->given.k());
  if (!objective.ok()) return Fail(objective.status());

  // In wire-serve mode stdout carries ONLY tagged protocol responses; the
  // banner goes to stderr so strict line parsers never see it.
  (serve && clients == 0 ? std::cerr : std::cout)
      << "rankhow: " << problem->data.num_tuples() << " tuples, "
      << problem->data.num_attributes() << " attributes, k="
      << problem->given.k() << "\n";

  if (clients != 0 && !serve) {
    std::cerr << "error: --clients is a --serve mode\n";
    return 1;
  }
  if (serve) {
    if (use_sym_gd) {
      std::cerr << "error: --serve drives the exact solver; drop --sym-gd\n";
      return 1;
    }
    if (!min_weights.empty() || !max_weights.empty() || !orders.empty()) {
      std::cerr << "error: --serve clients own their constraints; drop "
                   "--min-weight/--max-weight/--order (script them per "
                   "client)\n";
      return 1;
    }
    if (clients < 0) {
      std::cerr << "error: --clients wants a positive count\n";
      return 1;
    }
    if (clients == 0 && !session_spec.empty()) {
      std::cerr << "error: --serve reads the wire protocol from stdin; "
                   "use --clients=N to stream --session scripts\n";
      return 1;
    }
    ServerOptions server_options;
    server_options.solver = options;
    server_options.objective = *objective;
    server_options.num_workers = *threads;
    server_options.max_clients = std::max(64, clients);
    server_options.share_incumbents = share_incumbents;
    if (clients > 0) {
      // Deterministic scripted-client mode: client i streams the i-th
      // --session script (round-robin) — no transport, used by tests and
      // the throughput bench.
      if (session_spec.empty()) {
        std::cerr << "error: --serve --clients=N needs --session scripts\n";
        return 1;
      }
      auto parsed = ParseSessionScripts(session_spec);
      if (!parsed.ok()) return Fail(parsed.status());
      SessionRegistry registry(SharedDataset(problem->data), problem->given,
                               problem->labels, server_options);
      auto runs = RunScriptedClients(&registry, parsed->scripts, clients);
      if (!runs.ok()) return Fail(runs.status());
      int exit_code = 0;
      for (const ScriptedClientRun& run : *runs) {
        std::cout << "client " << run.client << ":\n";
        PrintOutcomeTable(run.outcomes);
        if (!run.status.ok()) {
          std::cout << "  first failed step: " << run.status.ToString()
                    << "\n";
          exit_code = 1;
        }
      }
      const StatsValues stats = registry.Stats();
      std::cout << StrFormat(
          "server: %lld clients, %lld resident dataset copies, %lld "
          "commands, %lld COW forks\n",
          static_cast<long long>(stats[kStatClients]),
          static_cast<long long>(stats[kStatDatasets]),
          static_cast<long long>(stats[kStatCommands]),
          static_cast<long long>(stats[kStatForks]));
      return exit_code;
    }
    // The stdio stream serves a one-entry catalog named like a --listen
    // dataset. The CSV is already loaded (errors surfaced above), so the
    // loader hands out that snapshot.
    ServerMetrics metrics;
    RouterOptions router_options;
    router_options.server = server_options;
    router_options.max_open_sessions = server_options.max_clients;
    RegistryRouter router(router_options);
    Status registered = router.RegisterDataset(
        DatasetIdFromPath(data_path),
        [data = SharedDataset(problem->data), given = problem->given,
         labels = problem->labels]() -> Result<RegistryRouter::DatasetBundle> {
          return RegistryRouter::DatasetBundle{data, given, labels};
        });
    if (!registered.ok()) return Fail(registered);
    // The stdio stream still gets verb latencies (`metrics` works over a
    // pipe too); there is no transport, so the gauges stay zero.
    ServeStreamOptions stdio_options;
    stdio_options.metrics = &metrics;
    Status served = ServeStream(&router, std::cin, std::cout, stdio_options);
    if (!served.ok()) return Fail(served);
    return 0;
  }

  if (!session_spec.empty()) {
    if (use_sym_gd) {
      std::cerr << "error: --session drives the exact solver; drop "
                   "--sym-gd\n";
      return 1;
    }
    auto parsed = ParseSessionScripts(session_spec);
    if (!parsed.ok()) return Fail(parsed.status());
    std::vector<std::string>& paths = parsed->paths;
    std::vector<std::vector<SessionCommand>>& scripts = parsed->scripts;
    SharedDataset shared(problem->data);

    if (paths.size() == 1) {
      // Single scripted session; inner solves use the --threads workers.
      auto session = MakeSession(shared, *problem, options, *objective,
                                 min_weights, max_weights, orders);
      if (!session.ok()) return Fail(session.status());
      auto outcomes =
          RunSessionScript(session->get(), scripts[0], problem->labels);
      if (!outcomes.ok()) return Fail(outcomes.status());
      PrintSessionOutcomes(paths[0], *outcomes, (*session)->stats());
      return 0;
    }

    // Batch mode: independent sessions fanned across the thread pool, each
    // solving serially (the pool supplies the parallelism).
    RankHowOptions batch_options = options;
    batch_options.num_threads = 1;
    struct BatchRun {
      Status status;
      std::vector<SessionStepOutcome> outcomes;
      SolveSessionStats stats;
    };
    std::vector<BatchRun> runs(paths.size());
    {
      ThreadPool pool(ThreadPool::ResolveThreadCount(*threads));
      TaskGroup group(&pool);
      for (size_t i = 0; i < paths.size(); ++i) {
        group.Spawn([&, i] {
          auto session = MakeSession(shared, *problem, batch_options,
                                     *objective, min_weights, max_weights,
                                     orders);
          if (!session.ok()) {
            runs[i].status = session.status();
            return;
          }
          auto outcomes =
              RunSessionScript(session->get(), scripts[i], problem->labels);
          if (!outcomes.ok()) {
            runs[i].status = outcomes.status();
            return;
          }
          runs[i].outcomes = *std::move(outcomes);
          runs[i].stats = (*session)->stats();
        });
      }
      group.Wait();
    }
    int exit_code = 0;
    for (size_t i = 0; i < paths.size(); ++i) {
      if (!runs[i].status.ok()) {
        std::cerr << "session " << paths[i]
                  << " failed: " << runs[i].status.ToString() << "\n";
        exit_code = 1;
        continue;
      }
      PrintSessionOutcomes(paths[i], runs[i].outcomes, runs[i].stats);
    }
    return exit_code;
  }

  ScoringFunction function;
  long error = 0;
  std::string summary;
  if (use_sym_gd) {
    SymGdOptions sym_options;
    sym_options.cell_size = cell;
    sym_options.adaptive = adaptive;
    sym_options.time_budget_seconds = time_limit;
    sym_options.num_seeds = seeds;
    sym_options.solver = options;
    sym_options.solver.strategy = SolveStrategy::kAuto;
    SymGd symgd(problem->data, problem->given, sym_options);
    symgd.problem().objective = *objective;
    Status st = ApplyWeightBounds(problem->data, min_weights, true,
                                  &symgd.problem().constraints);
    if (st.ok()) {
      st = ApplyWeightBounds(problem->data, max_weights, false,
                             &symgd.problem().constraints);
    }
    if (st.ok()) {
      st = ApplyOrderConstraints(problem->labels, orders,
                                 &symgd.problem().order_constraints);
    }
    if (!st.ok()) return Fail(st);
    Result<SymGdResult> result = Status::Internal("unset");
    if (seeds > 1) {
      result = symgd.RunPortfolio();
    } else {
      auto seed = OrdinalRegressionSeed(problem->data, problem->given, eps1);
      if (!seed.ok()) return Fail(seed.status());
      result = symgd.Run(*seed);
    }
    if (!result.ok()) return Fail(result.status());
    function = std::move(result->function);
    error = result->error;
    summary = StrFormat("sym-gd: %d cells, final cell %.4g, %.2fs",
                        result->iterations, result->final_cell_size,
                        result->seconds);
    if (!result->portfolio.empty()) {
      summary += StrFormat("\nportfolio (%d seeds, winner %s):",
                           static_cast<int>(result->portfolio.size()),
                           result->portfolio[result->winning_seed]
                               .seed_name.c_str());
      for (const SeedRun& run : result->portfolio) {
        summary += StrFormat("\n  %-10s error %ld in %d cells (%.2fs)",
                             run.seed_name.c_str(), run.error,
                             run.iterations, run.seconds);
      }
    }
  } else {
    RankHow solver(problem->data, problem->given, options);
    solver.problem().objective = *objective;
    Status st = ApplyWeightBounds(problem->data, min_weights, true,
                                  &solver.problem().constraints);
    if (st.ok()) {
      st = ApplyWeightBounds(problem->data, max_weights, false,
                             &solver.problem().constraints);
    }
    if (st.ok()) {
      st = ApplyOrderConstraints(problem->labels, orders,
                                 &solver.problem().order_constraints);
    }
    if (!st.ok()) return Fail(st);
    auto result = solver.Solve();
    if (!result.ok()) return Fail(result.status());
    function = std::move(result->function);
    error = result->error;
    summary = StrFormat(
        "%s: %s, bound %ld, %lld nodes, %.2fs",
        SolveStrategyName(result->strategy_used),
        result->proven_optimal ? "proven optimal" : "best incumbent",
        result->bound, static_cast<long long>(result->stats.nodes_explored),
        result->seconds);
    if (result->verification && !result->verification->consistent) {
      summary += "  [NUMERICALLY INCONSISTENT — raise --eps1]";
    }
  }

  std::cout << "\nscoring function:  " << function.ToString(3) << "\n";
  std::cout << "verified " << ObjectiveKindName(objective->kind)
            << " error: " << error;
  if (problem->given.k() > 0) {
    std::cout << StrFormat("  (%.3f per ranked tuple)",
                           static_cast<double>(error) / problem->given.k());
  }
  std::cout << "\n" << summary << "\n\n";
  if (show_table) PrintComparison(*problem, function.weights, tie_eps);
  return 0;
}
