#include "server/wire.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <utility>

#include "util/string_util.h"

namespace rankhow {

namespace {

/// Splits "CLIENT rest-of-line" at the first run of whitespace.
void SplitHead(const std::string& line, std::string* head,
               std::string* tail) {
  size_t sep = line.find_first_of(" \t");
  if (sep == std::string::npos) {
    *head = line;
    tail->clear();
    return;
  }
  *head = line.substr(0, sep);
  *tail = std::string(Trim(line.substr(sep + 1)));
}

uint64_t ElapsedUsec(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

Result<WireRequest> ParseWireLine(const std::string& raw) {
  std::string line(Trim(raw));
  if (size_t hash = line.find('#'); hash != std::string::npos) {
    line = std::string(Trim(line.substr(0, hash)));
  }
  if (line.empty()) return Status::NotFound("blank line");

  WireRequest request;
  std::string head, tail;
  SplitHead(line, &head, &tail);
  if (head == "quit" || head == "stats" || head == "metrics") {
    if (!tail.empty()) {
      return Status::Invalid("'" + head + "' takes no argument");
    }
    request.kind = head == "quit"    ? WireRequest::Kind::kQuit
                   : head == "stats" ? WireRequest::Kind::kStats
                                     : WireRequest::Kind::kMetrics;
    return request;
  }
  if (head == "open") {
    std::string client, dataset;
    SplitHead(tail, &client, &dataset);
    if (client.empty() ||
        dataset.find_first_of(" \t") != std::string::npos) {
      return Status::Invalid(
          "'open' takes a client name and an optional dataset id");
    }
    request.kind = WireRequest::Kind::kOpen;
    request.client = std::move(client);
    request.dataset = std::move(dataset);
    return request;
  }
  if (head == "deadline") {
    Result<int64_t> ms = ParseInt(tail);
    if (tail.empty() || !ms.ok() || *ms < 0) {
      return Status::Invalid(
          "'deadline' takes one non-negative millisecond count (0 restores "
          "the server default)");
    }
    request.kind = WireRequest::Kind::kDeadline;
    request.deadline_ms = *ms;
    return request;
  }
  if (head == "frame") {
    if (tail != "binary" && tail != "text") {
      return Status::Invalid("'frame' takes 'binary' or 'text'");
    }
    request.kind = WireRequest::Kind::kFrame;
    request.frame_binary = tail == "binary";
    return request;
  }
  if (head == "close") {
    if (tail.empty() || tail.find_first_of(" \t") != std::string::npos) {
      return Status::Invalid("'close' takes exactly one client name");
    }
    request.kind = WireRequest::Kind::kClose;
    request.client = tail;
    return request;
  }
  // CLIENT <session-script command>: reuse the script parser on the tail so
  // the wire grammar and --session files can never drift apart.
  if (tail.empty()) {
    return Status::Invalid("truncated request: '" + head +
                           "' (want CLIENT COMMAND..., open/close/stats/"
                           "metrics/deadline/frame/quit)");
  }
  RH_ASSIGN_OR_RETURN(std::vector<SessionCommand> parsed,
                      ParseSessionScript(tail));
  if (parsed.size() != 1) {
    return Status::Invalid("exactly one command per wire line");
  }
  request.kind = WireRequest::Kind::kCommand;
  request.client = head;
  request.command = std::move(parsed[0]);
  return request;
}

Result<WireResponseTag> ParseWireResponseTag(const std::string& response) {
  WireResponseTag tag;
  std::string head, rest;
  SplitHead(response, &head, &rest);
  if (head == "ok") {
    tag.ok = true;
  } else if (head == "err") {
    tag.ok = false;
  } else {
    return Status::Invalid("response without ok/err head: " + response);
  }
  std::string second, tail;
  SplitHead(rest, &second, &tail);
  if (second.empty()) {
    return Status::Invalid("response without a second token: " + response);
  }
  tag.client = second;
  std::string third, unused;
  SplitHead(tail, &third, &unused);
  if (StartsWith(third, "line=")) {
    Result<int64_t> line = ParseInt(third.substr(5));
    if (line.ok()) {
      tag.has_line = true;
      tag.line = *line;
    }
  }
  return tag;
}

bool WireResponseEditApplied(const std::string& response) {
  return StartsWith(response, "ok ") ||
         (StartsWith(response, "err ") &&
          response.find(kSolveFailedAfterEdit) != std::string::npos);
}

std::string RewriteWireResponseLine(const std::string& response,
                                    int64_t line) {
  const size_t at = response.find(" line=");
  if (at == std::string::npos) return response;
  const size_t begin = at + std::strlen(" line=");
  size_t end = begin;
  while (end < response.size() && response[end] != ' ') ++end;
  return response.substr(0, begin) + std::to_string(line) +
         response.substr(end);
}

std::string WireLineError(int64_t line, const std::string& message) {
  return "err - wire line " + std::to_string(line) + ": " + message;
}

std::string FramingError(const std::string& message) {
  return "err - " + message;
}

std::string NoClientError(const std::string& client) {
  return "err " + client + " no client named " + client +
         " on this connection";
}

std::string ClientAlreadyOpenError(const std::string& client) {
  return "err " + client + " client already open: " + client;
}

std::string DeadlineAck(int64_t ms) {
  return "ok deadline " + std::to_string(ms);
}

std::string FrameAck(bool binary) {
  return binary ? "ok frame binary" : "ok frame text";
}

std::string RouterStatsLine(const RegistryRouter& router) {
  const StatsValues stats = router.Stats();
  std::string line;
  for (int f = 0; f < kNumStats; ++f) {
    AppendField(&line, kStatsFields[f].name, stats[f]);
  }
  return line;
}

// ---------------------------------------------------------------------------
// WireConnection
// ---------------------------------------------------------------------------

WireConnection::WireConnection(RegistryRouter* router,
                               const ServeStreamOptions& options,
                               WireConnectionHooks hooks)
    : router_(router), options_(options), hooks_(std::move(hooks)) {}

void WireConnection::Emit(const std::string& message) {
  hooks_.emit(message);
}

void WireConnection::RecordVerb(WireVerb verb,
                                std::chrono::steady_clock::time_point start) {
  if (options_.metrics != nullptr) {
    options_.metrics->RecordVerb(verb, ElapsedUsec(start));
  }
}

bool WireConnection::Owns(const std::string& client) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::find(owned_.begin(), owned_.end(), client) != owned_.end();
}

bool WireConnection::finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_;
}

void WireConnection::DoOpen(const WireRequest& request) {
  bool adopted = false;
  Status status = router_->Open(request.client, request.dataset, &adopted);
  if (status.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      owned_.push_back(request.client);
    }
    // Echo the dataset actually bound so `open C` reveals the default;
    // "recovered" tells a reconnecting client it adopted its journal-
    // rebuilt session, constraint state intact (see docs/PROTOCOL.md).
    Emit("ok open " + request.client + " " +
         router_->ClientDataset(request.client) +
         (adopted ? " recovered" : ""));
  } else if (status.code() == StatusCode::kAlreadyExists) {
    Emit(ClientAlreadyOpenError(request.client));
  } else {
    Emit(StrFormat("err %s %s", request.client.c_str(),
                   status.message().c_str()));
  }
}

void WireConnection::DoClose(const WireRequest& request) {
  // Graceful: the stream submitted this client's queued commands itself,
  // so `close` lets them finish instead of dropping them.
  Status status = router_->Close(request.client, /*graceful=*/true);
  if (status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    owned_.erase(std::remove(owned_.begin(), owned_.end(), request.client),
                 owned_.end());
  }
  Emit(status.ok() ? "ok close " + request.client
                   : StrFormat("err %s %s", request.client.c_str(),
                               status.message().c_str()));
}

void WireConnection::DoQuit() {
  EndStream(/*graceful=*/true);
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished_ = true;
  }
  // "ok quit" is the stream's last word: the owned clients' final
  // responses were emitted inside EndStream's graceful closes, which
  // block until each strand drained.
  Emit("ok quit");
  if (hooks_.request_close) hooks_.request_close();
}

void WireConnection::EndStream(bool graceful) {
  std::vector<std::string> owned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ended_) return;
    ended_ = true;
    owned.swap(owned_);
  }
  if (options_.connection_scoped_clients) {
    // Graceful (quit): queued commands finish and answer before the
    // session drops. Abort (transport death): cancel the in-flight solve,
    // fail the queue — the peer is gone anyway.
    for (const std::string& client : owned) {
      (void)router_->Close(client, graceful);
    }
  } else {
    router_->Drain();
  }
}

void WireConnection::HandleMessage(const std::string& payload) {
  const auto start = std::chrono::steady_clock::now();
  int line_no;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ended_) return;  // late pipelined input after quit
    line_no = ++line_no_;
  }
  auto request = ParseWireLine(payload);
  if (!request.ok()) {
    if (request.status().code() == StatusCode::kNotFound) return;  // blank
    Emit(WireLineError(line_no, request.status().message()));
    return;
  }
  switch (request->kind) {
    case WireRequest::Kind::kQuit: {
      auto work = [this, start] {
        DoQuit();
        RecordVerb(WireVerb::kQuit, start);
      };
      if (hooks_.defer) {
        hooks_.defer(std::move(work));
      } else {
        work();
      }
      break;
    }
    case WireRequest::Kind::kStats: {
      std::string line = "ok stats " + RouterStatsLine(*router_);
      if (options_.metrics != nullptr) {
        line += " " + options_.metrics->RenderStatsFields();
      }
      Emit(line);
      RecordVerb(WireVerb::kStats, start);
      break;
    }
    case WireRequest::Kind::kMetrics: {
      if (options_.metrics == nullptr) {
        Emit("err - metrics unavailable on this server");
        break;
      }
      Emit("ok metrics " + options_.metrics->RenderWireLine());
      RecordVerb(WireVerb::kMetrics, start);
      break;
    }
    case WireRequest::Kind::kDeadline: {
      int64_t ms = request->deadline_ms;
      {
        std::lock_guard<std::mutex> lock(mu_);
        deadline_ms_ = ms;
      }
      Emit(DeadlineAck(ms));
      RecordVerb(WireVerb::kDeadline, start);
      break;
    }
    case WireRequest::Kind::kFrame: {
      if (!hooks_.switch_mode) {
        Emit("err - frame negotiation requires the socket transport");
        break;
      }
      // The ack travels in the OLD framing (a text-mode client reads a
      // plain "ok frame binary" line and only then starts length-prefix
      // parsing); everything queued after it is framed anew.
      hooks_.switch_mode(
          request->frame_binary ? FrameMode::kBinary : FrameMode::kText,
          FrameAck(request->frame_binary));
      RecordVerb(WireVerb::kFrame, start);
      break;
    }
    case WireRequest::Kind::kOpen: {
      auto work = [this, request = *request, start] {
        DoOpen(request);
        RecordVerb(WireVerb::kOpen, start);
      };
      if (hooks_.defer) {
        hooks_.defer(std::move(work));
      } else {
        work();
      }
      break;
    }
    case WireRequest::Kind::kClose: {
      if (options_.connection_scoped_clients && !Owns(request->client)) {
        Emit(NoClientError(request->client));
        break;
      }
      auto work = [this, request = *request, start] {
        DoClose(request);
        RecordVerb(WireVerb::kClose, start);
      };
      if (hooks_.defer) {
        hooks_.defer(std::move(work));
      } else {
        work();
      }
      break;
    }
    case WireRequest::Kind::kCommand: {
      if (options_.connection_scoped_clients && !Owns(request->client)) {
        Emit(NoClientError(request->client));
        break;
      }
      const int request_line = line_no;
      {
        std::lock_guard<std::mutex> lock(mu_);
        request->command.deadline_ms = deadline_ms_;
      }
      const WireVerb verb = request->command.kind == SessionCommand::Kind::kSolve
                                ? WireVerb::kSolve
                                : WireVerb::kEdit;
      Status submitted = router_->Submit(
          request->client, request->command,
          [this, request_line, verb, start](
              const std::string& client,
              const Result<SessionStepOutcome>& outcome) {
            if (!outcome.ok()) {
              Emit(StrFormat("err %s line=%d %s", client.c_str(),
                             request_line,
                             outcome.status().message().c_str()));
            } else {
              const RankHowResult& r = outcome->result;
              Emit(StrFormat(
                  "ok %s line=%d error=%ld bound=%ld proven=%s "
                  "seconds=%.3f nodes=%lld",
                  client.c_str(), request_line, r.error, r.bound,
                  r.proven_optimal ? "yes" : "no", r.seconds,
                  static_cast<long long>(r.stats.nodes_explored)));
            }
            RecordVerb(verb, start);
          });
      if (!submitted.ok()) {
        Emit(StrFormat("err %s %s", request->client.c_str(),
                       submitted.message().c_str()));
        RecordVerb(verb, start);
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Reactor glue
// ---------------------------------------------------------------------------

ReactorCallbacks MakeWireReactorCallbacks(RegistryRouter* router,
                                          ServeStreamOptions options) {
  // Every network connection owns its clients; drain-the-world stream
  // semantics belong to stdin only.
  options.connection_scoped_clients = true;
  ReactorCallbacks callbacks;
  callbacks.on_open = [router, options](ReactorConn& conn) -> void* {
    ReactorConn* c = &conn;
    WireConnectionHooks hooks;
    hooks.emit = [c](const std::string& message) { (void)c->Send(message); };
    hooks.switch_mode = [c](FrameMode mode, const std::string& ack) {
      c->SwitchMode(mode, ack);
    };
    hooks.defer = [c](std::function<void()> fn) { c->Defer(std::move(fn)); };
    hooks.request_close = [c] { c->Close(); };
    return new WireConnection(router, options, std::move(hooks));
  };
  callbacks.on_message = [](ReactorConn& conn, const std::string& payload) {
    static_cast<WireConnection*>(conn.user())->HandleMessage(payload);
  };
  callbacks.on_protocol_error = [](ReactorConn& conn,
                                   const std::string& error) {
    // Best-effort last word before the abort-close; a length-prefixed
    // stream cannot resync, so no recovery is offered.
    (void)conn.Send(FramingError(error));
  };
  callbacks.on_close = [](ReactorConn& conn, CloseReason reason) {
    auto* wire = static_cast<WireConnection*>(conn.user());
    if (wire == nullptr) return;
    // kLocalClose follows a quit whose handler already ended the stream
    // gracefully (EndStream is idempotent). Everything else is the
    // vanished-peer abort path.
    wire->EndStream(/*graceful=*/reason == CloseReason::kLocalClose);
    delete wire;
  };
  return callbacks;
}

// ---------------------------------------------------------------------------
// Stream transport (stdin mode, stringstream tests)
// ---------------------------------------------------------------------------

Status ServeStream(RegistryRouter* router, std::istream& in,
                   std::ostream& out, const ServeStreamOptions& options) {
  // Whole-line writes under one mutex: strand completions race the serve
  // loop's own acks, and interleaved half-lines would be unparseable. The
  // mutex lives on the heap because solve callbacks of clients this stream
  // leaves open (non-connection-scoped mode) can outlive this frame.
  auto out_mu = std::make_shared<std::mutex>();
  std::ostream* outp = &out;
  WireConnectionHooks hooks;
  hooks.emit = [outp, out_mu](const std::string& message) {
    std::lock_guard<std::mutex> lock(*out_mu);
    *outp << message << "\n" << std::flush;
  };
  // No switch_mode (frame answers err), no defer (this loop may block),
  // no request_close (returning ends the stream).
  WireConnection conn(router, options, std::move(hooks));
  std::string line;
  while (std::getline(in, line)) {
    conn.HandleMessage(line);
    if (conn.finished()) return Status();
  }
  // EOF without quit: the peer is gone (a socket surfaces a clean FIN and
  // a dead peer identically), so responses are undeliverable — abort the
  // owned clients (cancel in-flight, fail queued) rather than burn solve
  // budget nobody will read. A polite client says `quit`, which drains.
  conn.EndStream(/*graceful=*/false);
  return Status();
}

Result<std::vector<ScriptedClientRun>> RunScriptedClients(
    SessionRegistry* registry,
    const std::vector<std::vector<SessionCommand>>& scripts,
    int num_clients) {
  if (scripts.empty() || num_clients < 1) {
    return Status::Invalid("scripted-client mode needs >= 1 script and "
                           ">= 1 client");
  }
  auto runs = std::make_shared<std::vector<ScriptedClientRun>>(num_clients);
  // Per-run mutation is safe without locks: callbacks of one client run on
  // its strand, serialized; runs never reallocates.
  for (int i = 0; i < num_clients; ++i) {
    ScriptedClientRun& run = (*runs)[i];
    run.client = "c" + std::to_string(i);
    RH_RETURN_NOT_OK(registry->Open(run.client));
  }
  for (int i = 0; i < num_clients; ++i) {
    ScriptedClientRun* run = &(*runs)[i];
    for (const SessionCommand& command :
         scripts[static_cast<size_t>(i) % scripts.size()]) {
      RH_RETURN_NOT_OK(registry->Submit(
          run->client, command,
          [runs, run](const std::string& client,
                      const Result<SessionStepOutcome>& outcome) {
            (void)client;
            if (outcome.ok()) {
              run->outcomes.push_back(*outcome);
            } else if (run->status.ok()) {
              run->status = outcome.status();
            }
          }));
    }
  }
  registry->Drain();
  return *runs;
}

}  // namespace rankhow
