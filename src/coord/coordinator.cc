#include "coord/coordinator.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "net/frame.h"
#include "server/wire.h"
#include "util/histogram.h"
#include "util/string_util.h"

namespace rankhow {

namespace {

/// How long a command waits for failover to rebind its session before
/// giving up with a clean error (covers one dial plus probe slack).
constexpr int kForwardRetryMs = 8000;
/// Bound on the graceful quit drain (mirrors the reactor's 10 s drain
/// deadline).
constexpr int kQuitDrainMs = 30000;

}  // namespace

// ---------------------------------------------------------------------------
// Downstream: one accepted client connection
// ---------------------------------------------------------------------------

class CoordServer::Downstream
    : public std::enable_shared_from_this<CoordServer::Downstream> {
 public:
  Downstream(CoordServer* server, int fd) : server_(server), fd_(fd) {}
  ~Downstream() {
    if (fd_ >= 0) ::close(fd_);
  }
  Downstream(const Downstream&) = delete;
  Downstream& operator=(const Downstream&) = delete;

  /// The session thread: read, decode, dispatch — until EOF, a framing
  /// error, or an acked quit.
  void Run();
  /// Any thread: wakes Run() out of recv so it tears the session down.
  void Abort() { ::shutdown(fd_, SHUT_RDWR); }

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

  void HandleLine(const std::string& payload);
  void HandleOpen(int64_t line_no, const WireRequest& request);
  void HandleSessionVerb(int64_t line_no, const WireRequest& request,
                         const std::string& payload);
  void HandleDeadline(int64_t ms);
  void HandleFrame(bool binary);
  void HandleScatter(bool metrics);
  void HandleQuit();
  void Cleanup();

  void OnUpstreamResponse(int worker, const ProxyEntry& entry,
                          const std::string& response);
  void OnUpstreamBroken(int worker, UpstreamConn* conn,
                        std::vector<ProxyEntry> unacked);

  /// Existing healthy connection to `worker`, or a fresh dial. nullptr
  /// with *error set when the dial fails. Called under mu_ (the dial
  /// blocks responses for up to dial_timeout_ms — a coordinator fronts
  /// few downstreams, and correctness of the swap wants atomicity).
  std::shared_ptr<UpstreamConn> GetOrCreateUpstreamLocked(
      int worker, std::string* error);

  /// Forwards a close/command entry to its session's current worker,
  /// waiting out an in-progress failover rebind. Consumes `lock`-held
  /// mu_; returns with mu_ held.
  void ForwardSessionEntry(std::unique_lock<std::mutex>& lock,
                           const std::string& client, ProxyEntry entry);

  void Emit(const std::string& payload);
  void SendAllLocked(const std::string& bytes);

  CoordServer* server_;
  int fd_;

  // Session-thread-only state.
  FrameDecoder decoder_;
  int64_t line_no_ = 0;
  bool finished_ = false;  ///< quit acked; stop reading

  // Downstream write side: whole-message writes under one lock, encoded
  // in the mode current at send time (reader threads race the session
  // thread here, exactly like reactor conns).
  std::mutex write_mu_;
  FrameMode send_mode_ = FrameMode::kText;

  // Proxy state shared with upstream reader threads.
  std::mutex mu_;
  std::condition_variable drain_cv_;
  std::map<std::string, Session> sessions_;
  std::map<int, std::shared_ptr<UpstreamConn>> upstreams_;
  int64_t inflight_ = 0;  ///< forwarded entries awaiting a response
  int64_t deadline_ms_ = 0;
  bool deadline_set_ = false;
  bool ended_ = false;  ///< quit or teardown: drop, don't fail over
};

void CoordServer::Downstream::Run() {
  char buf[4096];
  bool fatal = false;
  while (!fatal && !finished_) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) break;
    decoder_.Feed(buf, static_cast<size_t>(n));
    std::string payload;
    for (;;) {
      const FrameDecoder::Next next = decoder_.Pop(&payload);
      if (next == FrameDecoder::Next::kNeedMore) break;
      if (next == FrameDecoder::Next::kError) {
        // Same last word the reactor gives before an abort-close: a
        // length-prefixed stream cannot resync.
        Emit(FramingError(decoder_.error()));
        fatal = true;
        break;
      }
      HandleLine(payload);
      if (finished_) break;
    }
  }
  Cleanup();
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

void CoordServer::Downstream::Emit(const std::string& payload) {
  std::lock_guard<std::mutex> lock(write_mu_);
  std::string out;
  EncodeFrame(send_mode_, payload, &out);
  SendAllLocked(out);
}

void CoordServer::Downstream::SendAllLocked(const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // peer gone; Run() sees the EOF shortly
    off += static_cast<size_t>(n);
  }
}

void CoordServer::Downstream::HandleLine(const std::string& payload) {
  const int64_t line_no = ++line_no_;
  Result<WireRequest> request = ParseWireLine(payload);
  if (!request.ok()) {
    if (request.status().code() == StatusCode::kNotFound) return;  // blank
    server_->c_local_errors_.fetch_add(1);
    Emit(WireLineError(line_no, request.status().message()));
    return;
  }
  switch (request->kind) {
    case WireRequest::Kind::kQuit:
      HandleQuit();
      break;
    case WireRequest::Kind::kStats:
      HandleScatter(/*metrics=*/false);
      break;
    case WireRequest::Kind::kMetrics:
      HandleScatter(/*metrics=*/true);
      break;
    case WireRequest::Kind::kDeadline:
      HandleDeadline(request->deadline_ms);
      break;
    case WireRequest::Kind::kFrame:
      HandleFrame(request->frame_binary);
      break;
    case WireRequest::Kind::kOpen:
      HandleOpen(line_no, *request);
      break;
    case WireRequest::Kind::kClose:
    case WireRequest::Kind::kCommand:
      HandleSessionVerb(line_no, *request, payload);
      break;
  }
}

void CoordServer::Downstream::HandleDeadline(int64_t ms) {
  const std::string canonical =
      StrFormat("deadline %lld", static_cast<long long>(ms));
  {
    std::lock_guard<std::mutex> lock(mu_);
    deadline_ms_ = ms;
    deadline_set_ = true;
    // Deadlines are per-connection worker state: push to every live
    // upstream now, and GetOrCreateUpstreamLocked seeds future ones.
    for (auto& [worker, conn] : upstreams_) {
      ProxyEntry entry;
      entry.kind = ProxyEntry::Kind::kDeadline;
      entry.payload = canonical;
      entry.swallow = true;
      if (conn->Forward(std::move(entry))) ++inflight_;
    }
  }
  Emit(DeadlineAck(ms));
}

void CoordServer::Downstream::HandleFrame(bool binary) {
  {
    // Ack in the OLD mode, switch everything queued after — the same
    // contract the reactor documents for SwitchMode.
    std::lock_guard<std::mutex> lock(write_mu_);
    std::string out;
    EncodeFrame(send_mode_, FrameAck(binary), &out);
    SendAllLocked(out);
    send_mode_ = binary ? FrameMode::kBinary : FrameMode::kText;
  }
  decoder_.set_mode(binary ? FrameMode::kBinary : FrameMode::kText);
}

void CoordServer::Downstream::HandleOpen(int64_t line_no,
                                         const WireRequest& request) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = sessions_.find(request.client);
  if (it != sessions_.end()) {
    if (it->second.recovered_pending) {
      // The session failed over to a replacement worker; this open
      // adopts it, carrying the same suffix a journal-recovering worker
      // uses (docs/PROTOCOL.md "Recovery").
      it->second.recovered_pending = false;
      const std::string ack = "ok open " + request.client + " " +
                              it->second.bound_dataset + " recovered";
      lock.unlock();
      Emit(ack);
      return;
    }
    server_->c_local_errors_.fetch_add(1);
    lock.unlock();
    Emit(ClientAlreadyOpenError(request.client));
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
    sessions_[request.client] = std::move(session);
    ProxyEntry entry;
    entry.kind = ProxyEntry::Kind::kOpen;
    entry.payload = sessions_[request.client].open_payload;
    entry.client = request.client;
    entry.downstream_line = line_no;
    if (!up->Forward(std::move(entry))) {
      sessions_.erase(request.client);  // raced the conn's death; retry
      continue;
    }
    ++inflight_;
    server_->c_sessions_opened_.fetch_add(1);
    return;  // the worker's ack flows back through OnUpstreamResponse
  }
  server_->c_local_errors_.fetch_add(1);
  lock.unlock();
  Emit("err " + request.client + " " + last_error);
}

void CoordServer::Downstream::HandleSessionVerb(int64_t line_no,
                                                const WireRequest& request,
                                                const std::string& payload) {
  std::unique_lock<std::mutex> lock(mu_);
  if (sessions_.find(request.client) == sessions_.end()) {
    server_->c_local_errors_.fetch_add(1);
    lock.unlock();
    Emit(NoClientError(request.client));
    return;
  }
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
    server_->c_commands_proxied_.fetch_add(1);
  }
  ForwardSessionEntry(lock, request.client, std::move(entry));
}

void CoordServer::Downstream::ForwardSessionEntry(
    std::unique_lock<std::mutex>& lock, const std::string& client,
    ProxyEntry entry) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kForwardRetryMs);
  for (;;) {
    auto it = sessions_.find(client);
    if (it == sessions_.end()) {
      // The session died mid-retry (failover found no replacement).
      server_->c_local_errors_.fetch_add(1);
      lock.unlock();
      Emit(NoClientError(client));
      lock.lock();
      return;
    }
    auto up = upstreams_.find(it->second.worker);
    if (up != upstreams_.end() && !up->second->failed() &&
        up->second->Forward(entry)) {
      ++inflight_;
      return;
    }
    // The bound worker's connection is dead or dying: failover (on the
    // broken reader's thread) will rebind the session; wait it out.
    if (std::chrono::steady_clock::now() >= deadline) break;
    lock.unlock();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    lock.lock();
  }
  server_->c_local_errors_.fetch_add(1);
  std::string err;
  if (entry.kind == ProxyEntry::Kind::kCommand) {
    err = StrFormat("err %s line=%d worker unavailable: failover did not "
                    "complete",
                    client.c_str(),
                    static_cast<int>(entry.downstream_line));
  } else {
    err = StrFormat("err %s worker unavailable: failover did not complete",
                    client.c_str());
  }
  lock.unlock();
  Emit(err);
  lock.lock();
}

std::shared_ptr<UpstreamConn>
CoordServer::Downstream::GetOrCreateUpstreamLocked(int worker,
                                                   std::string* error) {
  auto it = upstreams_.find(worker);
  if (it != upstreams_.end() && !it->second->failed()) return it->second;
  auto self = shared_from_this();
  UpstreamConn::Callbacks callbacks;
  callbacks.on_response = [self, worker](const ProxyEntry& entry,
                                         const std::string& response) {
    self->OnUpstreamResponse(worker, entry, response);
  };
  callbacks.on_broken = [self, worker](UpstreamConn* conn,
                                       std::vector<ProxyEntry> unacked) {
    self->OnUpstreamBroken(worker, conn, std::move(unacked));
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
  if (deadline_set_) {
    ProxyEntry entry;
    entry.kind = ProxyEntry::Kind::kDeadline;
    entry.payload =
        StrFormat("deadline %lld", static_cast<long long>(deadline_ms_));
    entry.swallow = true;
    if ((*dialed)->Forward(std::move(entry))) ++inflight_;
  }
  return *dialed;
}

void CoordServer::Downstream::OnUpstreamResponse(int worker,
                                                 const ProxyEntry& entry,
                                                 const std::string& response) {
  (void)worker;
  const bool ok = StartsWith(response, "ok ");
  // An edit whose re-solve failed still stuck on the worker (PROTOCOL.md
  // "Error semantics"), so failover must replay it like an ok-acked one.
  const bool edit_stuck = entry.is_edit && WireResponseEditApplied(response);
  std::string out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
    drain_cv_.notify_all();
    if (entry.swallow) {
      if (!ok && !edit_stuck && entry.kind != ProxyEntry::Kind::kClose) {
        server_->c_replay_errors_.fetch_add(1);
        std::fprintf(stderr,
                     "rankhow_coord: swallowed %s failed: %s\n",
                     entry.payload.c_str(), response.c_str());
      }
      if (ok && entry.kind == ProxyEntry::Kind::kOpen) {
        // Replayed open: refresh the bound dataset from the new ack.
        auto it = sessions_.find(entry.client);
        std::vector<std::string> tokens = Split(response, ' ');
        if (it != sessions_.end() && tokens.size() >= 4) {
          it->second.bound_dataset = tokens[3];
        }
      }
      return;
    }
    switch (entry.kind) {
      case ProxyEntry::Kind::kCommand: {
        if (edit_stuck) {
          auto it = sessions_.find(entry.client);
          if (it != sessions_.end()) {
            it->second.acked_edits.push_back(entry.payload);
          }
        }
        out = RewriteWireResponseLine(response, entry.downstream_line);
        break;
      }
      case ProxyEntry::Kind::kOpen: {
        auto it = sessions_.find(entry.client);
        if (ok && it != sessions_.end()) {
          std::vector<std::string> tokens = Split(response, ' ');
          it->second.bound_dataset = tokens.size() >= 4 ? tokens[3] : "";
          it->second.open_acked = true;
        } else if (!ok) {
          sessions_.erase(entry.client);
        }
        out = response;
        break;
      }
      case ProxyEntry::Kind::kClose: {
        if (ok) sessions_.erase(entry.client);
        out = response;
        break;
      }
      case ProxyEntry::Kind::kDeadline:
        out = response;  // unreachable: deadlines are always swallowed
        break;
    }
  }
  Emit(out);
}

void CoordServer::Downstream::OnUpstreamBroken(
    int worker, UpstreamConn* conn, std::vector<ProxyEntry> unacked) {
  // Probe before locking: confirms the death (marks the worker down so
  // routing skips it) without stalling response forwarding.
  server_->supervisor_->ReportFailure(worker);
  std::vector<std::string> emits;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto uit = upstreams_.find(worker);
    if (uit != upstreams_.end() && uit->second.get() == conn) {
      upstreams_.erase(uit);
    }
    if (ended_) {
      inflight_ -= static_cast<int64_t>(unacked.size());
      drain_cv_.notify_all();
      return;
    }
    // Swallowed entries don't replay from here: deadlines are re-seeded
    // per new connection, and replayed opens/edits are regenerated from
    // the session's acked_edits below.
    std::map<std::string, std::vector<ProxyEntry>> pending_by_client;
    int64_t dropped = 0;
    for (ProxyEntry& entry : unacked) {
      if (entry.swallow || entry.kind == ProxyEntry::Kind::kDeadline) {
        ++dropped;
        continue;
      }
      pending_by_client[entry.client].push_back(std::move(entry));
    }
    inflight_ -= dropped;

    std::vector<std::string> affected;
    for (auto& [client, session] : sessions_) {
      if (session.worker == worker) affected.push_back(client);
    }
    if (!affected.empty()) server_->c_failovers_.fetch_add(1);

    const std::string dead_spec =
        server_->shard_map_.workers()[static_cast<size_t>(worker)].spec;
    for (const std::string& client : affected) {
      Session& session = sessions_[client];
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

      std::vector<ProxyEntry>& pending = pending_by_client[client];
      if (replacement == nullptr) {
        server_->c_failover_failures_.fetch_add(1);
        for (ProxyEntry& entry : pending) {
          --inflight_;
          if (entry.kind == ProxyEntry::Kind::kCommand) {
            emits.push_back(StrFormat(
                "err %s line=%d worker %s died: %s", client.c_str(),
                static_cast<int>(entry.downstream_line), dead_spec.c_str(),
                why.c_str()));
          } else {
            emits.push_back("err " + client + " worker " + dead_spec +
                            " died: " + why);
          }
        }
        pending.clear();
        sessions_.erase(client);
        continue;
      }

      // Rebuild the session on the replacement: a swallowed open, the
      // acked edit script in ack order (this is exactly the state the
      // journal guarantees — acked ⊆ journaled ⊆ replayable), then the
      // unacked tail verbatim. The worker serializes per client, so no
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
      for (ProxyEntry& entry : pending) {
        if (!replacement->Forward(std::move(entry))) {
          // The replacement died inside the same failover; its own
          // on_broken cannot know this entry, so fail it here.
          --inflight_;
          emits.push_back(StrFormat(
              "err %s line=%d worker unavailable: replacement died",
              client.c_str(), static_cast<int>(entry.downstream_line)));
        }
      }
      pending.clear();
      session.worker = replacement_index;
      if (session.open_acked) session.recovered_pending = true;
      server_->c_failover_sessions_.fetch_add(1);
    }

    // Entries whose client has no session (closed concurrently or open
    // already rejected): nothing to rebind, answer cleanly.
    for (auto& [client, pending] : pending_by_client) {
      for (ProxyEntry& entry : pending) {
        --inflight_;
        if (entry.kind == ProxyEntry::Kind::kCommand) {
          emits.push_back(StrFormat("err %s line=%d worker %s died",
                                    client.c_str(),
                                    static_cast<int>(entry.downstream_line),
                                    dead_spec.c_str()));
        } else {
          emits.push_back("err " + client + " worker " + dead_spec +
                          " died");
        }
      }
    }
    drain_cv_.notify_all();
  }
  for (const std::string& message : emits) Emit(message);
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
    server_->c_local_errors_.fetch_add(1);
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
  std::unique_lock<std::mutex> lock(mu_);
  // Graceful drain: ask each worker to close its clients (their queued
  // commands finish and answer first — the worker's own close semantics)
  // and hold `ok quit` until every in-flight response came back.
  for (auto& [client, session] : sessions_) {
    auto up = upstreams_.find(session.worker);
    if (up == upstreams_.end() || up->second->failed()) continue;
    ProxyEntry entry;
    entry.kind = ProxyEntry::Kind::kClose;
    entry.payload = "close " + client;
    entry.client = client;
    entry.swallow = true;
    if (up->second->Forward(std::move(entry))) ++inflight_;
  }
  ended_ = true;
  drain_cv_.wait_for(lock, std::chrono::milliseconds(kQuitDrainMs),
                     [this] { return inflight_ == 0; });
  sessions_.clear();
  lock.unlock();
  Emit("ok quit");
  finished_ = true;
}

// ---------------------------------------------------------------------------
// CoordServer
// ---------------------------------------------------------------------------

CoordServer::CoordServer(ShardMap shard_map, CoordOptions options)
    : shard_map_(std::move(shard_map)), options_(options) {
  supervisor_ = std::make_unique<WorkerSupervisor>(shard_map_.workers(),
                                                   options_.health);
}

CoordServer::~CoordServer() { Stop(); }

Status CoordServer::Start(const ListenAddress& listen) {
  if (started_) return Status::Invalid("coordinator already started");
  RH_ASSIGN_OR_RETURN(listen_fd_,
                      OpenListenSocket(listen, &bound_, &unlink_path_));
  stopping_.store(false);
  started_ = true;
  supervisor_->Start();
  gate_.Enter();
  std::thread([this] {
    AcceptLoop();
    gate_.Exit();
  }).detach();
  return Status();
}

void CoordServer::Stop() {
  if (!started_) return;
  stopping_.store(true);
  // SHUT_RDWR wakes the accept loop; the close waits until every thread
  // is provably out of the fd.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  std::vector<std::shared_ptr<Downstream>> snapshot;
  {
    std::lock_guard<std::mutex> lock(downstreams_mu_);
    for (auto& [key, downstream] : downstreams_) {
      snapshot.push_back(downstream);
    }
  }
  for (auto& downstream : snapshot) downstream->Abort();
  if (!gate_.WaitIdle(15000)) {
    std::fprintf(stderr,
                 "rankhow_coord: threads did not quiesce within 15s\n");
  }
  supervisor_->Stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(downstreams_mu_);
    downstreams_.clear();
  }
  if (!unlink_path_.empty()) {
    ::unlink(unlink_path_.c_str());
    unlink_path_.clear();
  }
  started_ = false;
}

void CoordServer::AcceptLoop() {
  const int listen_fd = listen_fd_;
  for (;;) {
    const int client_fd = ::accept(listen_fd, nullptr, nullptr);
    if (client_fd < 0) {
      if (errno == EINTR) continue;
      break;  // stopping, or the listener is gone
    }
    if (stopping_.load()) {
      ::close(client_fd);
      break;
    }
    c_connections_.fetch_add(1);
    auto downstream = std::make_shared<Downstream>(this, client_fd);
    {
      std::lock_guard<std::mutex> lock(downstreams_mu_);
      downstreams_[downstream.get()] = downstream;
    }
    gate_.Enter();
    std::thread([this, downstream] {
      downstream->Run();
      RemoveDownstream(downstream.get());
      gate_.Exit();
    }).detach();
  }
}

void CoordServer::RemoveDownstream(Downstream* key) {
  std::lock_guard<std::mutex> lock(downstreams_mu_);
  downstreams_.erase(key);
}

CoordCounters CoordServer::counters() const {
  CoordCounters counters;
  counters.connections = c_connections_.load();
  counters.sessions_opened = c_sessions_opened_.load();
  counters.commands_proxied = c_commands_proxied_.load();
  counters.local_errors = c_local_errors_.load();
  counters.failovers = c_failovers_.load();
  counters.failover_sessions = c_failover_sessions_.load();
  counters.failover_failures = c_failover_failures_.load();
  counters.replayed_edits = c_replayed_edits_.load();
  counters.replay_errors = c_replay_errors_.load();
  return counters;
}

}  // namespace rankhow
