#include "coord/coordinator.h"

#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "server/wire.h"
#include "util/histogram.h"
#include "util/string_util.h"

namespace rankhow {

namespace {

/// Bound on the graceful quit drain: the reactor closes a connection
/// whose drain has not finished by then, without `ok quit`.
constexpr int kQuitDrainSeconds = 30;

}  // namespace

// ---------------------------------------------------------------------------
// Downstream: one client connection on the coordinator's reactor
// ---------------------------------------------------------------------------

class CoordServer::Downstream
    : public std::enable_shared_from_this<CoordServer::Downstream> {
 public:
  Downstream(CoordServer* server, std::shared_ptr<ReactorConn> conn)
      : server_(server), conn_(std::move(conn)) {}

  /// Loop thread: one decoded request. `open`, `stats` and `metrics`
  /// block, so they run deferred on the ops thread with this connection's
  /// input paused; everything else answers or forwards here.
  void HandleLine(const std::string& payload);
  /// Ops thread (on_close): drops every session and shuts the upstream
  /// connections.
  void Cleanup();

 private:
  struct Session {
    std::string requested_dataset;  ///< what `open` asked for (routing key)
    std::string bound_dataset;      ///< what the worker's ack echoed
    std::string open_payload;       ///< canonical open line, for replay
    int worker = -1;
    bool open_acked = false;
    bool recovered_pending = false;  ///< failed over; next open adopts
    std::vector<std::string> acked_edits;  ///< edits that stuck, in order
  };

  void HandleOpen(const WireRequest& request);
  void HandleSessionVerb(int64_t line_no, const WireRequest& request,
                         const std::string& payload);
  void HandleDeadline(int64_t ms);
  void HandleScatter(bool metrics);
  void HandleQuit();
  /// After `quit`, once every in-flight entry is answered: `ok quit` and
  /// a graceful close.
  void FinishQuitIfDrainedLocked();

  void OnUpstreamResponse(const ProxyEntry& entry,
                          const std::string& response);
  void OnUpstreamBroken(int worker, UpstreamConn* conn);

  /// Existing healthy connection to `worker`, or a fresh dial. nullptr
  /// with *error set when the dial fails. Called under mu_ (the dial
  /// blocks responses for up to dial_timeout_ms — correctness of the swap
  /// wants atomicity).
  std::shared_ptr<UpstreamConn> GetOrCreateUpstreamLocked(
      int worker, std::string* error);
  /// Pushes the stream deadline to `conn` as a swallowed `deadline MS`.
  void ForwardDeadlineLocked(UpstreamConn& conn);

  /// Queues one response; dropped once the connection closed. Any thread.
  void Emit(const std::string& payload) { (void)conn_->Send(payload); }

  CoordServer* server_;
  /// Held, not borrowed: upstream I/O threads answer after on_close too.
  const std::shared_ptr<ReactorConn> conn_;
  int64_t line_no_ = 0;  ///< loop thread only

  // Proxy state shared with the ops thread and upstream I/O threads.
  // Responses are emitted under it, so they leave in state-machine order.
  std::mutex mu_;
  std::map<std::string, Session> sessions_;
  std::map<int, std::shared_ptr<UpstreamConn>> upstreams_;
  int64_t inflight_ = 0;  ///< forwarded entries awaiting answers
  int64_t deadline_ms_ = 0;
  bool deadline_set_ = false;
  bool quitting_ = false;  ///< `quit` read; draining
  bool ended_ = false;     ///< quit or teardown: drop, don't fail over
};

void CoordServer::Downstream::HandleLine(const std::string& payload) {
  const int64_t line_no = ++line_no_;
  Result<WireRequest> request = ParseWireLine(payload);
  if (!request.ok()) {
    if (request.status().code() != StatusCode::kNotFound) {  // not blank
      Emit(WireLineError(line_no, request.status().message()));
    }
    return;
  }
  auto self = shared_from_this();
  switch (request->kind) {
    case WireRequest::Kind::kQuit:
      HandleQuit();
      break;
    case WireRequest::Kind::kStats:
      conn_->Defer([self] { self->HandleScatter(/*metrics=*/false); });
      break;
    case WireRequest::Kind::kMetrics:
      conn_->Defer([self] { self->HandleScatter(/*metrics=*/true); });
      break;
    case WireRequest::Kind::kOpen:
      conn_->Defer([self, open = *std::move(request)] {
        self->HandleOpen(open);
      });
      break;
    case WireRequest::Kind::kDeadline:
      HandleDeadline(request->deadline_ms);
      break;
    case WireRequest::Kind::kFrame:
      conn_->SwitchMode(
          request->frame_binary ? FrameMode::kBinary : FrameMode::kText,
          FrameAck(request->frame_binary));
      break;
    case WireRequest::Kind::kClose:
    case WireRequest::Kind::kCommand:
      HandleSessionVerb(line_no, *request, payload);
      break;
  }
}

void CoordServer::Downstream::Cleanup() {
  std::vector<std::shared_ptr<UpstreamConn>> ups;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ended_ = true;
    for (auto& [worker, conn] : upstreams_) ups.push_back(conn);
    upstreams_.clear();
    sessions_.clear();
  }
  // Closing the upstream connections makes each worker abort-close the
  // clients they carried — identical to those clients' own connections
  // dying, which is the transparency we owe the protocol.
  for (auto& conn : ups) conn->Shutdown();
}

void CoordServer::Downstream::HandleDeadline(int64_t ms) {
  std::lock_guard<std::mutex> lock(mu_);
  deadline_ms_ = ms;
  deadline_set_ = true;
  // Deadlines are per-connection worker state: push to every live
  // upstream now, and GetOrCreateUpstreamLocked seeds future ones.
  for (auto& [worker, conn] : upstreams_) ForwardDeadlineLocked(*conn);
  Emit(DeadlineAck(ms));
}

void CoordServer::Downstream::ForwardDeadlineLocked(UpstreamConn& conn) {
  ProxyEntry entry;
  entry.kind = ProxyEntry::Kind::kDeadline;
  entry.payload =
      StrFormat("deadline %lld", static_cast<long long>(deadline_ms_));
  entry.swallow = true;
  if (conn.Forward(std::move(entry))) ++inflight_;
}

void CoordServer::Downstream::HandleOpen(const WireRequest& request) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = sessions_.find(request.client);
  if (it != sessions_.end()) {
    if (it->second.recovered_pending) {
      // The session failed over to a replacement worker; this open
      // adopts it, carrying the same suffix a journal-recovering worker
      // uses (docs/PROTOCOL.md "Recovery").
      it->second.recovered_pending = false;
      Emit("ok open " + request.client + " " + it->second.bound_dataset +
           " recovered");
    } else {
      Emit(ClientAlreadyOpenError(request.client));
    }
    return;
  }

  const int num_workers =
      static_cast<int>(server_->shard_map_.workers().size());
  std::string last_error = "no alive worker";
  for (int attempt = 0; attempt <= num_workers; ++attempt) {
    Result<int> route = server_->shard_map_.Route(
        request.dataset,
        [this](int i) { return server_->supervisor_->IsAlive(i); });
    if (!route.ok()) {
      last_error = route.status().message();
      break;
    }
    std::string dial_error;
    std::shared_ptr<UpstreamConn> up =
        GetOrCreateUpstreamLocked(*route, &dial_error);
    if (up == nullptr) {
      // The route said alive but the dial says dead: fast-probe (marks
      // the worker down on confirmation) and re-route.
      last_error = dial_error;
      const int dead = *route;
      lock.unlock();
      server_->supervisor_->ReportFailure(dead);
      lock.lock();
      continue;
    }
    Session session;
    session.requested_dataset = request.dataset;
    session.open_payload =
        "open " + request.client +
        (request.dataset.empty() ? "" : " " + request.dataset);
    session.worker = *route;
    ProxyEntry entry;
    entry.kind = ProxyEntry::Kind::kOpen;
    entry.payload = session.open_payload;
    entry.client = request.client;
    if (!up->Forward(std::move(entry))) continue;  // raced its death
    sessions_[request.client] = std::move(session);
    ++inflight_;
    server_->c_sessions_opened_.fetch_add(1);
    return;  // the worker's ack flows back through OnUpstreamResponse
  }
  Emit("err " + request.client + " " + last_error);
}

void CoordServer::Downstream::HandleSessionVerb(int64_t line_no,
                                                const WireRequest& request,
                                                const std::string& payload) {
  ProxyEntry entry;
  entry.client = request.client;
  entry.downstream_line = line_no;
  if (request.kind == WireRequest::Kind::kClose) {
    entry.kind = ProxyEntry::Kind::kClose;
    entry.payload = "close " + request.client;
  } else {
    entry.kind = ProxyEntry::Kind::kCommand;
    entry.payload = payload;
    entry.is_edit = request.command.kind != SessionCommand::Kind::kSolve;
  }
  const bool is_command = entry.kind == ProxyEntry::Kind::kCommand;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(request.client);
  // A live session's worker always has a connection in upstreams_. If it
  // died, Forward records the entry in its unacked tail, which failover
  // takes under this mutex and re-sends or answers in request order.
  auto up = it == sessions_.end() ? upstreams_.end()
                                  : upstreams_.find(it->second.worker);
  if (up == upstreams_.end() || !up->second->Forward(std::move(entry))) {
    Emit(NoClientError(request.client));
    return;
  }
  ++inflight_;
  if (is_command) server_->c_commands_proxied_.fetch_add(1);
}

std::shared_ptr<UpstreamConn>
CoordServer::Downstream::GetOrCreateUpstreamLocked(int worker,
                                                   std::string* error) {
  auto it = upstreams_.find(worker);
  if (it != upstreams_.end() && !it->second->failed()) return it->second;
  auto self = shared_from_this();
  UpstreamConn::Callbacks callbacks;
  callbacks.on_response = [self](const ProxyEntry& entry,
                                 const std::string& response) {
    self->OnUpstreamResponse(entry, response);
  };
  callbacks.on_broken = [self, worker](UpstreamConn* conn) {
    self->OnUpstreamBroken(worker, conn);
  };
  Result<std::shared_ptr<UpstreamConn>> dialed = UpstreamConn::Dial(
      server_->shard_map_.workers()[static_cast<size_t>(worker)],
      server_->options_.health.dial_timeout_ms, std::move(callbacks),
      &server_->gate_);
  if (!dialed.ok()) {
    *error = dialed.status().message();
    return nullptr;
  }
  // A failed predecessor may still sit in the map: its on_broken erases
  // by pointer identity, so overwriting here cannot orphan anything.
  upstreams_[worker] = *dialed;
  if (deadline_set_) ForwardDeadlineLocked(**dialed);
  return *dialed;
}

void CoordServer::Downstream::OnUpstreamResponse(const ProxyEntry& entry,
                                                 const std::string& response) {
  const bool ok = StartsWith(response, "ok ");
  // An edit whose re-solve failed still stuck on the worker (PROTOCOL.md
  // "Error semantics"), so failover must replay it like an ok-acked one.
  const bool edit_stuck = entry.is_edit && WireResponseEditApplied(response);
  std::lock_guard<std::mutex> lock(mu_);
  --inflight_;
  auto it = sessions_.find(entry.client);
  if (entry.swallow) {
    if (!ok && !edit_stuck && entry.kind != ProxyEntry::Kind::kClose) {
      server_->c_replay_errors_.fetch_add(1);
      std::fprintf(stderr, "rankhow_coord: swallowed %s failed: %s\n",
                   entry.payload.c_str(), response.c_str());
    }
    if (ok && entry.kind == ProxyEntry::Kind::kOpen) {
      // Replayed open: refresh the bound dataset from the new ack.
      std::vector<std::string> tokens = Split(response, ' ');
      if (it != sessions_.end() && tokens.size() >= 4) {
        it->second.bound_dataset = tokens[3];
      }
    }
  } else if (entry.kind == ProxyEntry::Kind::kCommand) {
    if (edit_stuck && it != sessions_.end()) {
      it->second.acked_edits.push_back(entry.payload);
    }
    Emit(RewriteWireResponseLine(response, entry.downstream_line));
  } else {
    if (entry.kind == ProxyEntry::Kind::kOpen) {
      if (ok && it != sessions_.end()) {
        std::vector<std::string> tokens = Split(response, ' ');
        it->second.bound_dataset = tokens.size() >= 4 ? tokens[3] : "";
        it->second.open_acked = true;
      } else if (!ok) {
        sessions_.erase(entry.client);
      }
    } else if (entry.kind == ProxyEntry::Kind::kClose && ok) {
      sessions_.erase(entry.client);
    }
    Emit(response);  // deadlines are always swallowed
  }
  FinishQuitIfDrainedLocked();
}

void CoordServer::Downstream::OnUpstreamBroken(int worker,
                                               UpstreamConn* conn) {
  // Probe before locking: confirms the death (marks the worker down so
  // routing skips it) without stalling response forwarding.
  server_->supervisor_->ReportFailure(worker);
  std::lock_guard<std::mutex> lock(mu_);
  // Taken under the proxy mutex, so every entry forwarded to this
  // connection before now is in the tail, and every later one goes to the
  // session's new connection.
  std::vector<ProxyEntry> unacked = conn->TakeUnacked();
  auto uit = upstreams_.find(worker);
  if (uit != upstreams_.end() && uit->second.get() == conn) {
    upstreams_.erase(uit);
  }
  if (ended_) {
    inflight_ -= static_cast<int64_t>(unacked.size());
    return;
  }
  // Swallowed entries (deadlines included) don't replay from here:
  // deadlines are re-seeded per new connection, and replayed opens/edits
  // are regenerated from the session's acked_edits below.
  std::map<std::string, std::vector<ProxyEntry>> pending_by_client;
  for (ProxyEntry& entry : unacked) {
    if (entry.swallow) {
      --inflight_;
      continue;
    }
    pending_by_client[entry.client].push_back(std::move(entry));
  }

  std::vector<std::string> affected;
  for (auto& [client, session] : sessions_) {
    if (session.worker == worker) affected.push_back(client);
  }
  if (!affected.empty()) server_->c_failovers_.fetch_add(1);

  const std::string dead_spec =
      server_->shard_map_.workers()[static_cast<size_t>(worker)].spec;
  // Settles an entry failover cannot place:
  // `err CLIENT [line=N] worker SPEC died[: WHY]`.
  auto answer_died = [&](const ProxyEntry& entry, const std::string& why) {
    --inflight_;
    const std::string line =
        entry.kind == ProxyEntry::Kind::kCommand
            ? StrFormat(" line=%d", static_cast<int>(entry.downstream_line))
            : "";
    Emit("err " + entry.client + line + " worker " + dead_spec + " died" +
         (why.empty() ? "" : ": " + why));
  };
  for (const std::string& client : affected) {
    Session& session = sessions_[client];
    std::vector<ProxyEntry> pending = std::move(pending_by_client[client]);
    pending_by_client.erase(client);

    std::shared_ptr<UpstreamConn> replacement;
    int replacement_index = -1;
    std::string why = "no replacement available";
    const int num_workers =
        static_cast<int>(server_->shard_map_.workers().size());
    for (int attempt = 0; attempt < num_workers; ++attempt) {
      Result<int> route = server_->shard_map_.Route(
          session.requested_dataset, [this, worker](int i) {
            return i != worker && server_->supervisor_->IsAlive(i);
          });
      if (!route.ok()) {
        why = route.status().message();
        break;
      }
      std::string dial_error;
      replacement = GetOrCreateUpstreamLocked(*route, &dial_error);
      if (replacement != nullptr) {
        replacement_index = *route;
        break;
      }
      why = dial_error;
      server_->supervisor_->ReportUnreachable(*route, dial_error);
    }

    if (replacement == nullptr) {
      server_->c_failover_failures_.fetch_add(1);
      for (const ProxyEntry& entry : pending) answer_died(entry, why);
      sessions_.erase(client);
      continue;
    }

    // Rebuild the session on the replacement: a swallowed open, the
    // acked edit script in ack order (this is exactly the state the
    // journal guarantees — acked ⊆ journaled ⊆ replayable), then the
    // pending entries verbatim. The worker serializes per client, so no
    // waiting between lines is needed.
    bool open_in_tail = false;
    for (const ProxyEntry& entry : pending) {
      if (entry.kind == ProxyEntry::Kind::kOpen) open_in_tail = true;
    }
    if (!open_in_tail) {
      ProxyEntry open_entry;
      open_entry.kind = ProxyEntry::Kind::kOpen;
      open_entry.payload = session.open_payload;
      open_entry.client = client;
      open_entry.swallow = true;
      if (replacement->Forward(std::move(open_entry))) ++inflight_;
      for (const std::string& edit : session.acked_edits) {
        ProxyEntry replay;
        replay.kind = ProxyEntry::Kind::kCommand;
        replay.payload = edit;
        replay.client = client;
        replay.is_edit = true;
        replay.swallow = true;
        if (replacement->Forward(std::move(replay))) {
          ++inflight_;
          server_->c_replayed_edits_.fetch_add(1);
        }
      }
    }
    session.worker = replacement_index;
    for (ProxyEntry& entry : pending) {
      // A replacement that dies inside this failover keeps the entries in
      // its own tail; its on_broken, waiting on this mutex, moves them on.
      if (!replacement->Forward(entry)) answer_died(entry, why);
    }
    if (session.open_acked) session.recovered_pending = true;
    server_->c_failover_sessions_.fetch_add(1);
  }

  // Entries whose client has no session (closed concurrently or open
  // already rejected): nothing to rebind, answer cleanly.
  for (auto& [client, pending] : pending_by_client) {
    for (const ProxyEntry& entry : pending) answer_died(entry, "");
  }
  FinishQuitIfDrainedLocked();
}

void CoordServer::Downstream::HandleScatter(bool metrics) {
  const char* verb = metrics ? "metrics" : "stats";
  const std::string prefix = std::string("ok ") + verb + " ";
  std::vector<std::string> field_lines;
  std::string breakdown;
  const int num_workers = server_->supervisor_->num_workers();
  for (int w = 0; w < num_workers; ++w) {
    bool got = false;
    if (server_->supervisor_->IsAlive(w)) {
      Result<std::string> response =
          server_->supervisor_->ControlRoundTrip(w, verb);
      if (response.ok() && StartsWith(*response, prefix)) {
        field_lines.push_back(response->substr(prefix.size()));
        got = true;
      }
    }
    breakdown += StrFormat(
        " w%d=%s:%s", w,
        server_->shard_map_.workers()[static_cast<size_t>(w)].spec.c_str(),
        got ? "up" : "down");
  }
  if (field_lines.empty()) {
    Emit(StrFormat("err - %s unavailable: no worker reachable", verb));
    return;
  }
  const CoordCounters counters = server_->counters();
  std::string line = prefix + AggregateFieldLines(field_lines);
  AppendField(&line, "coord_workers", num_workers);
  AppendField(&line, "coord_up", static_cast<int64_t>(field_lines.size()));
  AppendField(&line, "coord_sessions", counters.sessions_opened);
  AppendField(&line, "coord_commands", counters.commands_proxied);
  AppendField(&line, "coord_failovers", counters.failovers);
  AppendField(&line, "coord_failover_sessions", counters.failover_sessions);
  AppendField(&line, "coord_failover_failures", counters.failover_failures);
  AppendField(&line, "coord_replayed", counters.replayed_edits);
  AppendField(&line, "coord_replay_errors", counters.replay_errors);
  line += breakdown;
  Emit(line);
}

void CoordServer::Downstream::HandleQuit() {
  // Graceful drain: ask each worker to close its clients (their queued
  // commands finish and answer first — the worker's own close semantics)
  // and hold `ok quit` until every in-flight response came back; the
  // callback that settles the last one sends it. Input ends here, so a
  // client that half-closes after `quit` still gets every response.
  // Failover keeps running meanwhile.
  conn_->EndInput(kQuitDrainSeconds);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [client, session] : sessions_) {
    auto up = upstreams_.find(session.worker);
    if (up == upstreams_.end()) continue;
    ProxyEntry entry;
    entry.kind = ProxyEntry::Kind::kClose;
    entry.payload = "close " + client;
    entry.client = client;
    entry.swallow = true;
    if (up->second->Forward(std::move(entry))) ++inflight_;
  }
  quitting_ = true;
  FinishQuitIfDrainedLocked();
}

void CoordServer::Downstream::FinishQuitIfDrainedLocked() {
  if (!quitting_ || ended_ || inflight_ > 0) return;
  ended_ = true;
  sessions_.clear();
  Emit("ok quit");
  conn_->Close();
}

// ---------------------------------------------------------------------------
// CoordServer
// ---------------------------------------------------------------------------

CoordServer::CoordServer(ShardMap shard_map, CoordOptions options)
    : shard_map_(std::move(shard_map)), options_(options) {
  supervisor_ = std::make_unique<WorkerSupervisor>(shard_map_.workers(),
                                                   options_.health);
  // The user state is a heap shared_ptr: upstream I/O threads keep the
  // Downstream alive past on_close, which only drops this reference.
  using Handle = std::shared_ptr<Downstream>;
  ReactorCallbacks callbacks;
  callbacks.on_open = [this](ReactorConn& conn) -> void* {
    return new Handle(
        std::make_shared<Downstream>(this, conn.shared_from_this()));
  };
  callbacks.on_message = [](ReactorConn& conn, const std::string& payload) {
    (*static_cast<Handle*>(conn.user()))->HandleLine(payload);
  };
  callbacks.on_protocol_error = [](ReactorConn& conn,
                                   const std::string& error) {
    // The same last word a worker gives before the abort-close: a
    // length-prefixed stream cannot resync.
    (void)conn.Send(FramingError(error));
  };
  callbacks.on_close = [](ReactorConn& conn, CloseReason) {
    auto* handle = static_cast<Handle*>(conn.user());
    (*handle)->Cleanup();
    delete handle;
  };
  // One event loop: a downstream message costs a parse and a forward
  // (DESIGN.md "Shard coordinator").
  ReactorOptions reactor_options;
  reactor_options.num_loops = 1;
  reactor_ = std::make_unique<ReactorServer>(std::move(callbacks),
                                             reactor_options);
}

CoordServer::~CoordServer() { Stop(); }

Status CoordServer::Start(const ListenAddress& listen) {
  RH_RETURN_NOT_OK(reactor_->Start(listen));
  supervisor_->Start();
  return Status();
}

void CoordServer::Stop() {
  // Every downstream's on_close shuts its upstream connections, whose
  // I/O threads then exit.
  reactor_->Stop();
  if (!gate_.WaitIdle(15000)) {
    std::fprintf(stderr,
                 "rankhow_coord: threads did not quiesce within 15s\n");
  }
  supervisor_->Stop();
}

CoordCounters CoordServer::counters() const {
  CoordCounters counters;
  counters.sessions_opened = c_sessions_opened_.load();
  counters.commands_proxied = c_commands_proxied_.load();
  counters.failovers = c_failovers_.load();
  counters.failover_sessions = c_failover_sessions_.load();
  counters.failover_failures = c_failover_failures_.load();
  counters.replayed_edits = c_replayed_edits_.load();
  counters.replay_errors = c_replay_errors_.load();
  return counters;
}

}  // namespace rankhow
