#ifndef RANKHOW_SERVER_WIRE_H_
#define RANKHOW_SERVER_WIRE_H_

/// \file wire.h
/// The serving wire protocol (`rankhow_cli --serve` / `--listen`) plus the
/// deterministic scripted-client runner (`--serve --clients=N`, the
/// bench/test harness mode that needs no transport at all).
///
/// The complete protocol reference — every verb, response format, error
/// reply, and a worked multi-client transcript — lives in docs/PROTOCOL.md;
/// this header keeps only the shape. One request per message (a text line
/// by default; a length-prefixed binary frame after `frame binary` — see
/// net/frame.h), over any byte stream (stdin/stdout pipe, or a connection
/// owned by the epoll reactor in net/reactor.h):
///
///   open CLIENT [DATASET]  create a session for CLIENT; DATASET selects a
///                          catalog entry (the default dataset when
///                          omitted)
///   close CLIENT           finish CLIENT's queued commands, then drop it
///   stats                  router counters plus, on a metered server,
///                          transport fields (see PROTOCOL.md)
///   metrics                per-verb latency histograms and connection /
///                          backpressure gauges (see docs/OPERATIONS.md)
///   deadline MS            per-request deadline for this stream's later
///                          commands: each solve's wall-clock budget is
///                          capped at MS milliseconds (0 restores the
///                          server default). Stream-scoped, not journaled.
///   frame binary|text      switch this connection's message framing; the
///                          ack is sent in the OLD framing, everything
///                          after it in the new one. Socket transport
///                          only (the stdio stream answers `err`).
///   quit                   end this command stream
///   CLIENT <command>       one session-script command for CLIENT — the
///                          exact PR 3 grammar (solve / min-weight /
///                          max-weight / drop / order / eps* / objective /
///                          append; see app/cli_driver.h)
///
/// One response message per request, tagged with the client so
/// interleaving stays parseable (solves of different clients complete in
/// pool order; per client, responses arrive in submission order):
///
///   ok open CLIENT DATASET
///   ok CLIENT line=1 error=3 bound=3 proven=yes seconds=0.012 nodes=17
///   err CLIENT line=4 session script line 1: no weight constraint ...
///   ok stats registries=1 clients=2 datasets=1 commands=17 ...
///   ok metrics connections=3 ... solve.p99_us=41820 ...
///   ok frame binary
///   ok quit
///
/// (`line=` is the wire line of the request; the "script line" inside a
/// command error message is always 1 — each wire command is a one-line
/// script.)
///
/// A malformed or failing request answers `err ...` and never corrupts or
/// closes the named session. Parse and *edit* failures leave its state
/// byte-identical (edits validate before mutating) — asserted by the
/// fuzz-style negative suite in tests/server/session_server_test.cc and,
/// over a real socket, tests/net/socket_server_test.cc. A *solve* failure
/// is different: the edit already stuck, and the error message says "solve
/// failed after edit applied" so a client knows to reverse it explicitly
/// (e.g. `drop NAME`) rather than assume rejection. The one fatal class is
/// a *framing* error (oversized length prefix, unterminated megabyte
/// line): a length-prefixed stream cannot resynchronize, so the connection
/// abort-closes after a best-effort `err` — its sessions abort, siblings
/// are untouched.
///
/// Connection scoping: a stream served with
/// ServeStreamOptions::connection_scoped_clients (every network
/// connection) owns the clients it opened. `quit` gracefully closes them
/// (queued commands finish and answer first); EOF without `quit` — a
/// vanished peer and a clean FIN are indistinguishable on a socket, and
/// either way nobody reads the responses — abort-closes them (the
/// in-flight solve is cancelled cooperatively, queued commands fail).
/// Siblings on other connections are untouched either way. A connection
/// can only address the clients it opened (responses route to the opening
/// connection's stream). The stdin mode instead drains everything and
/// leaves clients open (the process exits anyway).

#include <chrono>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "app/cli_driver.h"
#include "net/frame.h"
#include "net/reactor.h"
#include "server/registry_router.h"
#include "server/session_registry.h"
#include "util/histogram.h"
#include "util/status.h"

namespace rankhow {

/// One parsed wire line.
struct WireRequest {
  enum class Kind {
    kOpen,
    kClose,
    kStats,
    kMetrics,
    kQuit,
    kCommand,
    kDeadline,
    kFrame,
  };
  Kind kind = Kind::kCommand;
  std::string client;      // open/close/command
  std::string dataset;     // kOpen only; "" = the server's default
  SessionCommand command;  // kCommand only
  int64_t deadline_ms = 0;  // kDeadline only; 0 = restore the default
  bool frame_binary = false;  // kFrame only
};

/// Parses one request line (no trailing newline; '#' comments and blank
/// lines are kNotFound — callers skip those, they get no response).
/// kInvalidArgument for everything malformed: unknown verbs, missing
/// client, bad command grammar.
Result<WireRequest> ParseWireLine(const std::string& line);

/// The proxy hooks (PR 10): a routing tier in front of N workers
/// (src/coord/) forwards requests verbatim and must classify the
/// responses coming back — which client a response belongs to and whether
/// it is line-tagged (a session-command ack, matched to its request by
/// the worker-side wire line number) or a verb response (open / close /
/// stats / quit acks, answered in request order). Keeping the response
/// head grammar here, next to the code that EMITS those responses,
/// is what stops the coordinator and the server from drifting.
struct WireResponseTag {
  bool ok = false;       ///< "ok ..." vs "err ..."
  std::string client;    ///< second token ("-" for wire-level errors)
  bool has_line = false; ///< third token was "line=N"
  int64_t line = 0;      ///< N, when has_line
};

/// Classifies one response message. kInvalidArgument when the message
/// does not start with "ok "/"err " or has no second token — a proxy
/// treats that as a worker protocol violation.
Result<WireResponseTag> ParseWireResponseTag(const std::string& response);

/// True when `response` answers an edit that stuck on the worker: an "ok"
/// ack, or an "err" whose solve failed after the edit applied
/// (kSolveFailedAfterEdit). A proxy that replays a session's edits must
/// replay both kinds.
bool WireResponseEditApplied(const std::string& response);

/// Rewrites the "line=N" token of a line-tagged response to `line`. A
/// proxy counts wire lines per DOWNSTREAM stream, while each worker
/// counts the lines the proxy sent IT — so every forwarded ack's line
/// number is translated back before delivery (docs/PROTOCOL.md
/// "Coordinator transparency"). Returns the input unchanged when no
/// "line=" token exists.
std::string RewriteWireResponseLine(const std::string& response,
                                    int64_t line);

/// The answers a server gives without consulting a session. The worker's
/// WireConnection and the coordinator (src/coord/) both emit them, so the
/// texts live here once and a coordinated client reads the same bytes.
std::string WireLineError(int64_t line, const std::string& message);
std::string FramingError(const std::string& message);
std::string NoClientError(const std::string& client);
std::string ClientAlreadyOpenError(const std::string& client);
std::string DeadlineAck(int64_t ms);
std::string FrameAck(bool binary);

/// The body after "ok stats ": the router's counters and gauges in wire
/// order (docs/PROTOCOL.md "stats fields").
std::string RouterStatsLine(const RegistryRouter& router);

struct ServeStreamOptions {
  /// Network semantics: the stream owns the clients it opened — `quit`
  /// gracefully closes them, EOF without `quit` abort-closes them, and
  /// the router is NOT drained when the stream ends (sibling connections
  /// keep solving). Off = the stdin semantics (drain everything at
  /// quit/EOF, leave clients open).
  bool connection_scoped_clients = false;
  /// Per-verb latency histograms + transport gauges; enables the
  /// `metrics` verb and the transport fields of `stats`. May be null
  /// (both degrade gracefully).
  ServerMetrics* metrics = nullptr;
};

/// How a WireConnection talks back to its transport. Only `emit` is
/// required; the rest degrade: no switch_mode → `frame` answers err, no
/// defer → blocking verbs run inline (the single-threaded stdio serve
/// loop), no request_close → `quit` just marks the stream finished.
struct WireConnectionHooks {
  /// Queues one response message on the transport. Must be callable from
  /// any thread (strand completions race the serve path) and must not
  /// block.
  std::function<void(const std::string& message)> emit;
  /// Queues the `frame` ack in the old framing and switches the
  /// transport's framing (input and output) under one lock, so no
  /// response another thread emits lands after the ack in the old mode
  /// (net/reactor.h SwitchMode). Called on the serve path.
  std::function<void(FrameMode mode, const std::string& ack)> switch_mode;
  /// Runs `fn` off the serve path with this connection's input paused
  /// (net/reactor.h Defer): `open`, `close`, and `quit` may block on
  /// dataset loads and strand drains, which must never stall an event
  /// loop.
  std::function<void(std::function<void()> fn)> defer;
  /// Asks the transport to gracefully close once queued responses flush
  /// (called after `ok quit` is emitted).
  std::function<void()> request_close;
};

/// The transport-free per-stream protocol machine: verb dispatch, owned
/// clients, the stream deadline, response formatting, per-verb latency
/// stamping. The stdio ServeStream wraps one around getline; the reactor
/// glue (MakeWireReactorCallbacks) hangs one off every connection.
///
/// Threading: HandleMessage runs on the transport's serve path (reactor
/// loop thread / the stdio loop); deferred verb handlers and EndStream run
/// on the reactor's ops thread. The transport guarantees those never
/// overlap for one connection (input is paused during a deferred verb;
/// teardown runs after delivery stopped), but the internal mutex keeps the
/// invariants local instead of relying on that at a distance.
class WireConnection {
 public:
  /// `router` must outlive the connection.
  WireConnection(RegistryRouter* router, const ServeStreamOptions& options,
                 WireConnectionHooks hooks);

  /// Dispatches one complete request message (no framing, no newline).
  void HandleMessage(const std::string& payload);

  /// Ends the stream exactly once (idempotent): graceful finishes the
  /// owned clients' queued work, abort cancels it; non-connection-scoped
  /// streams drain the whole router instead. Safe to call after `quit`
  /// already ended the stream (no-op).
  void EndStream(bool graceful);

  /// True once `quit` was processed — the stdio serve loop's exit signal.
  bool finished() const;

 private:
  void Emit(const std::string& message);
  void RecordVerb(WireVerb verb,
                  std::chrono::steady_clock::time_point start);
  /// The blocking-verb bodies (run deferred when hooks_.defer exists).
  void DoOpen(const WireRequest& request);
  void DoClose(const WireRequest& request);
  void DoQuit();
  bool Owns(const std::string& client) const;

  RegistryRouter* router_;
  ServeStreamOptions options_;
  WireConnectionHooks hooks_;

  mutable std::mutex mu_;
  std::vector<std::string> owned_;
  int line_no_ = 0;
  int64_t deadline_ms_ = 0;
  bool ended_ = false;
  bool finished_ = false;
};

/// Reactor glue: callbacks that serve the wire protocol on every accepted
/// connection with connection-scoped client semantics (a WireConnection
/// per connection; `options.connection_scoped_clients` is forced on).
/// The router must outlive the ReactorServer.
ReactorCallbacks MakeWireReactorCallbacks(RegistryRouter* router,
                                          ServeStreamOptions options);

/// Serves the line protocol over a stream pair until `quit` or EOF.
/// Thread-safe response writing (responses from concurrent strand
/// completions interleave whole-line). Returns the first transport-level
/// error; protocol-level errors are `err` responses. `frame binary`
/// answers err on this transport (framing is a socket-transport concern).
Status ServeStream(RegistryRouter* router, std::istream& in,
                   std::ostream& out,
                   const ServeStreamOptions& options = ServeStreamOptions());

/// One scripted client's outcome under RunScriptedClients.
struct ScriptedClientRun {
  std::string client;
  /// Per-step outcomes in script order. Steps whose edit failed carry the
  /// error in `status` below and are absent here.
  std::vector<SessionStepOutcome> outcomes;
  /// First failed step's status (the remaining steps still ran — server
  /// semantics: a failed edit leaves the session intact).
  Status status;
};

/// Deterministic multi-client mode: opens `num_clients` clients
/// ("c0".."cN-1"), client i streaming scripts[i % scripts.size()], all
/// concurrently on the registry pool, then drains. This is the
/// transport-free harness the equivalence tests and the throughput bench
/// drive; per-client results are ordered and complete when it returns.
Result<std::vector<ScriptedClientRun>> RunScriptedClients(
    SessionRegistry* registry,
    const std::vector<std::vector<SessionCommand>>& scripts,
    int num_clients);

}  // namespace rankhow

#endif  // RANKHOW_SERVER_WIRE_H_
