#include "server/session_registry.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>

#include "util/fault.h"
#include "util/string_util.h"

namespace rankhow {

namespace {

/// The RETRY-AFTER hint (milliseconds) embedded in shed responses.
constexpr int kShedRetryAfterMs = 250;

/// Every head verb ParseWireLine (wire.cc) recognizes: a client named
/// like one could be opened but never sent a command.
bool IsReservedClientName(const std::string& name) {
  for (const char* verb :
       {"open", "close", "stats", "metrics", "quit", "deadline", "frame"}) {
    if (name == verb) return true;
  }
  return false;
}

Status ClosedStatus() {
  return Status::ResourceExhausted("session closed before the command ran");
}

}  // namespace

SessionRegistry::SessionRegistry(SharedDataset data, Ranking given,
                                 std::vector<std::string> labels,
                                 ServerOptions options)
    : base_(std::move(data)),
      given_(SharedRanking(std::move(given))),
      labels_(std::move(labels)),
      options_(std::move(options)),
      pool_(ThreadPool::ResolveThreadCount(options_.num_workers)) {
  // One strand solves serially; the pool supplies the parallelism.
  options_.solver.num_threads = 1;
  if (options_.share_incumbents) {
    shared_pool_ = std::make_unique<SharedIncumbentPool>();
  }
}

SessionRegistry::~SessionRegistry() {
  // Cancel everything, fail whatever never ran, wait for the strands.
  std::vector<std::pair<std::string, Callback>> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, client] : clients_) {
      client->closing = true;
      client->cancel->store(true, std::memory_order_relaxed);
      if (!client->running) {
        while (!client->queue.empty()) {
          dropped.emplace_back(name, std::move(client->queue.front().second));
          client->queue.pop_front();
          --stats_[kStatPending];
        }
      }
    }
  }
  for (auto& [name, cb] : dropped) {
    if (cb) cb(name, ClosedStatus());
  }
  Drain();
  // Sessions are destroyed before pool_ (member order), after all strands
  // returned — no task can touch a dead session.
  std::lock_guard<std::mutex> lock(mu_);
  clients_.clear();
}

Status SessionRegistry::Open(const std::string& client) {
  return OpenInternal(client, /*recovered=*/false);
}

Status SessionRegistry::OpenRecovered(const std::string& client) {
  return OpenInternal(client, /*recovered=*/true);
}

Status SessionRegistry::OpenInternal(const std::string& client,
                                     bool recovered) {
  if (client.empty() || IsReservedClientName(client)) {
    return Status::Invalid("bad client name '" + client +
                           "' (non-empty, not a wire verb)");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (clients_.count(client) > 0) {
      return Status::AlreadyExists("client already open: " + client);
    }
    if (static_cast<int>(clients_.size()) >= options_.max_clients) {
      return Status::ResourceExhausted(
          "registry is at max_clients=" +
          std::to_string(options_.max_clients));
    }
    auto entry = std::make_shared<Client>();
    entry->cancel = std::make_unique<std::atomic<bool>>(false);
    entry->recovered = recovered;
    RankHowOptions solver = options_.solver;
    solver.cancel = entry->cancel.get();
    // Handle copies = one refcount bump each: the new session reads the
    // registry's dataset and ranking snapshots until it forks.
    entry->session = std::make_unique<SolveSession>(
        SharedDataset(base_), SharedRanking(given_), solver);
    RH_RETURN_NOT_OK(entry->session->SetObjective(options_.objective));
    if (shared_pool_ != nullptr) {
      entry->session->SetSharedIncumbentPool(shared_pool_.get());
    }
    if (options_.warm_cache != nullptr) {
      entry->session->AttachWarmCache(options_.warm_cache);
    }
    entry->snapshot_id = entry->session->shared_data().snapshot_id();
    clients_.emplace(client, std::move(entry));
  }
  // Journal off-lock: the append may fsync (with backoff), and nothing
  // here needs mu_ — the journal has its own lock. During recovery the
  // journal's recording gate is off, so replayed opens don't re-journal.
  if (options_.journal != nullptr) options_.journal->LogOpen(client);
  return Status();
}

bool SessionRegistry::Adopt(const std::string& client) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = clients_.find(client);
  if (it == clients_.end() || !it->second->recovered) return false;
  it->second->recovered = false;
  return true;
}

Status SessionRegistry::ReplayEdit(const std::string& client,
                                   const SessionCommand& cmd) {
  std::shared_ptr<Client> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = clients_.find(client);
    if (it == clients_.end()) {
      return Status::NotFound("no open client named " + client);
    }
    entry = it->second;
  }
  // Single-threaded recovery: no strand is running, so touching the
  // session off-lock is safe.
  RH_RETURN_NOT_OK(ApplySessionCommand(entry->session.get(), cmd, labels_));
  std::lock_guard<std::mutex> lock(mu_);
  NoteSnapshotLocked(entry.get());
  return Status();
}

void SessionRegistry::NoteSnapshotLocked(Client* client) {
  const void* id = client->session->shared_data().snapshot_id();
  if (id != client->snapshot_id) ++stats_[kStatForks];
  client->snapshot_id = id;
}

Status SessionRegistry::Submit(const std::string& client,
                               SessionCommand command, Callback done) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = clients_.find(client);
  if (it == clients_.end() || it->second->closing || it->second->draining) {
    return Status::NotFound("no open client named " + client);
  }
  // Overload shedding: reject *new* work at the watermark with a retry
  // hint, before it ever queues — commands already accepted always run.
  if (options_.max_pending_commands > 0 &&
      stats_[kStatPending] >= options_.max_pending_commands) {
    ++stats_[kStatShed];
    return Status::ResourceExhausted(
        "server overloaded (" + std::to_string(stats_[kStatPending]) +
        " pending commands) RETRY-AFTER=" +
        std::to_string(kShedRetryAfterMs) + "ms");
  }
  std::shared_ptr<Client> entry = it->second;
  entry->queue.emplace_back(std::move(command), std::move(done));
  ++stats_[kStatPending];
  if (!entry->running) {
    entry->running = true;
    pool_.Submit([this, client, entry] { RunStrand(client, entry); });
  }
  return Status();
}

void SessionRegistry::RunStrand(const std::string& name,
                                std::shared_ptr<Client> client) {
  for (;;) {
    SessionCommand command;
    Callback done;
    bool dropped = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (client->queue.empty()) {
        client->running = false;
        idle_cv_.notify_all();
        return;
      }
      command = std::move(client->queue.front().first);
      done = std::move(client->queue.front().second);
      client->queue.pop_front();
      dropped = client->closing;
      if (dropped) --stats_[kStatPending];
    }
    if (dropped) {
      if (done) done(name, ClosedStatus());
      continue;
    }
    // Chaos hook: an armed strand-delay widens the window between dequeue
    // and execution so tests can race kills/cancels deterministically.
    {
      FaultInjector& faults = FaultInjector::Global();
      if (faults.Hit(faults::kStrandDelayMs)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(faults.Param(faults::kStrandDelayMs)));
      }
    }
    bool edit_applied = false;
    Result<SessionStepOutcome> outcome = ExecuteSessionCommand(
        client->session.get(), command, labels_, &edit_applied);
    // Acked ⊆ journaled: the edit's journal record lands (and, per the
    // fsync policy, syncs) before the completion callback can observe
    // success — a crash after the ack never loses an acked edit beyond
    // the configured batching window.
    if (edit_applied && options_.journal != nullptr) {
      options_.journal->LogCommand(name, command);
    }
    // Consume the cancel flag: it targets the command that was in flight
    // when Cancel() fired (or, for an idle client, the next one — the one
    // that just ran), never the commands queued behind it. Clearing after
    // execution means a Cancel racing the tail of a solve is spent here
    // rather than poisoning every future solve; that one-command
    // imprecision is inherent to cooperative cancellation.
    client->cancel->store(false, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      NoteSnapshotLocked(client.get());
      ++stats_[kStatCommands];
      --stats_[kStatPending];
    }
    if (done) done(name, outcome);
  }
}

void SessionRegistry::Cancel(const std::string& client) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = clients_.find(client);
  if (it != clients_.end()) {
    it->second->cancel->store(true, std::memory_order_relaxed);
  }
}

Status SessionRegistry::Close(const std::string& client, bool graceful) {
  std::shared_ptr<Client> entry;
  std::vector<Callback> dropped;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = clients_.find(client);
    if (it == clients_.end()) {
      return Status::NotFound("no open client named " + client);
    }
    entry = it->second;
    entry->draining = true;  // no new submits either way
    if (!graceful) {
      entry->closing = true;
      entry->cancel->store(true, std::memory_order_relaxed);
      if (!entry->running) {
        // Idle strand: nothing will drain the queue — fail it here.
        while (!entry->queue.empty()) {
          dropped.push_back(std::move(entry->queue.front().second));
          entry->queue.pop_front();
          --stats_[kStatPending];
        }
      }
    }
  }
  for (Callback& cb : dropped) {
    if (cb) cb(client, ClosedStatus());
  }
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&entry] {
    return !entry->running && entry->queue.empty();
  });
  // Re-check identity before erasing: a concurrent Close may have finished
  // first (and a third party may even have re-Opened the name) — erasing
  // by name alone would destroy the wrong, live client and double-count
  // the close.
  auto again = clients_.find(client);
  bool erased = false;
  if (again != clients_.end() && again->second == entry) {
    clients_.erase(again);
    erased = true;
    ++stats_[graceful ? kStatClosedGraceful : kStatClosedAborted];
  }
  lock.unlock();
  if (erased && options_.journal != nullptr) options_.journal->LogClose(client);
  return Status();
}

void SessionRegistry::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    for (const auto& [name, client] : clients_) {
      (void)name;
      if (client->running || !client->queue.empty()) return false;
    }
    return true;
  });
}

StatsValues SessionRegistry::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatsValues stats = stats_;
  std::set<const void*> snapshots = {base_.snapshot_id()};
  for (const auto& [name, client] : clients_) {
    (void)name;
    snapshots.insert(client->snapshot_id);
  }
  stats[kStatClients] = static_cast<int64_t>(clients_.size());
  stats[kStatDatasets] = static_cast<int64_t>(snapshots.size());
  if (shared_pool_ != nullptr) {
    // The pool has its own lock and counts its own traffic.
    const SharedIncumbentPoolStats pool = shared_pool_->Stats();
    stats[kStatSharedPublished] = pool.published;
    stats[kStatSharedDrawn] = pool.drawn;
  }
  return stats;
}

bool SessionRegistry::Busy() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, client] : clients_) {
    (void)name;
    if (client->running || !client->queue.empty()) return true;
  }
  return false;
}

bool SessionRegistry::ClientBusy(const std::string& client) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = clients_.find(client);
  return it != clients_.end() &&
         (it->second->running || !it->second->queue.empty());
}

}  // namespace rankhow
