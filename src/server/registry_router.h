#ifndef RANKHOW_SERVER_REGISTRY_ROUTER_H_
#define RANKHOW_SERVER_REGISTRY_ROUTER_H_

/// \file registry_router.h
/// The multi-dataset routing layer over SessionRegistry (see DESIGN.md
/// "Network transport & routing"): one SessionRegistry serves exactly one
/// dataset+ranking, so a server that fronts several datasets needs a layer
/// that (a) routes each client to its dataset's registry, (b) materializes
/// registries lazily — a catalog maps dataset ids to loader callbacks, and
/// a dataset costs nothing until the first `open` names it — and (c) keeps
/// the resident set bounded: idle *sessions* are LRU-closed under a total
/// session budget, and whole idle *registries* (zero clients) are
/// LRU-evicted when loading a new dataset would exceed the registry budget.
///
/// Client names are router-global (the wire protocol routes `CLIENT cmd`
/// lines by client name alone, so one name cannot live in two registries).
/// `Open(client, dataset_id)` binds the name to a dataset for its lifetime;
/// an empty dataset id means the router's default (the first registered).
///
/// Eviction contract: eviction only ever touches *idle* state — a session
/// with no running or queued command, a registry with no open clients — so
/// a busy sibling is never cancelled to make room. An evicted session is
/// indistinguishable from a closed one to its client (the next command
/// answers kNotFound; re-open and rebuild — the wire protocol documents
/// this in docs/PROTOCOL.md). When nothing is evictable the Open fails with
/// kResourceExhausted rather than blocking.
///
/// Thread-safety: fully internally locked, like SessionRegistry. Slow
/// operations (dataset loading, registry destruction, graceful close)
/// run off the router lock; the map handed to concurrent callers holds
/// shared_ptr registries so an eviction never pulls a registry out from
/// under an in-flight Submit.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/journal.h"
#include "server/session_registry.h"
#include "util/status.h"

namespace rankhow {

struct RouterOptions {
  /// Per-registry configuration (solver, objective, strand pool width,
  /// per-registry max_clients, incumbent sharing). Every registry the
  /// router materializes gets a copy. Note each registry owns its own
  /// strand pool of `server.num_workers` threads.
  ServerOptions server;
  /// Resident-registry budget: loading a dataset beyond this LRU-evicts an
  /// idle zero-client registry, or fails with kResourceExhausted when every
  /// resident registry still has clients.
  int max_resident_registries = 4;
  /// Total open sessions across all registries: opening beyond this
  /// LRU-closes idle sessions first, then fails with kResourceExhausted.
  int max_open_sessions = 64;
  /// Durability (see docs/OPERATIONS.md "Durability & recovery"): when
  /// non-empty, every materialized registry writes a write-ahead session
  /// journal to `<journal_dir>/<dataset-id>.journal`, and
  /// RecoverFromJournals() rebuilds journaled sessions on startup. Empty =
  /// journaling off. The directory must exist.
  std::string journal_dir;
  /// Per-journal write policy (fsync batching, rotation, backoff).
  JournalOptions journal;
  /// Persistent warm-start cache (see core/warm_cache.h and
  /// docs/OPERATIONS.md "Warm-start cache"): when non-empty, the router
  /// owns one `<warm_cache_dir>/warm.cache` of fingerprint-keyed proven
  /// winners shared by every registry it materializes — warm state
  /// survives registry eviction and process restarts. Empty = cache off.
  /// The directory must exist. A cache that fails to open serves cache-off,
  /// loudly.
  std::string warm_cache_dir;
  /// Warm-cache policy (per-key caps, fsync batching).
  WarmCacheOptions warm_cache;
};

/// What RecoverFromJournals() rebuilt (the `recover` stats section).
struct RecoverReport {
  int64_t replayed = 0;      // intact journal records read back
  int64_t truncated = 0;     // torn trailing records dropped
  int64_t skipped = 0;       // CRC/framing-corrupt records dropped
  int datasets = 0;          // registries materialized for recovery
  int sessions = 0;          // sessions rebuilt (recovered-unadopted)
  /// Sessions refused because their journaled open fingerprint disagrees
  /// with the freshly loaded dataset (the CSV changed under the journal).
  int64_t fingerprint_mismatches = 0;
  /// Sessions dropped because a journaled edit failed to re-apply (should
  /// not happen — it succeeded live — but divergence is worse than loss).
  int64_t replay_failures = 0;
};

class RegistryRouter {
 public:
  /// What a dataset loader yields: everything a SessionRegistry needs.
  struct DatasetBundle {
    SharedDataset data;
    Ranking given;
    std::vector<std::string> labels;
  };
  /// Invoked (off the router lock) the first time an `open` names the
  /// dataset, and again after an eviction dropped it. Must be safe to call
  /// more than once.
  using Loader = std::function<Result<DatasetBundle>()>;

  explicit RegistryRouter(RouterOptions options);
  /// Cancels and drains every resident registry.
  ~RegistryRouter();

  RegistryRouter(const RegistryRouter&) = delete;
  RegistryRouter& operator=(const RegistryRouter&) = delete;

  /// Registers a dataset id in the catalog (setup time, before serving).
  /// kAlreadyExists for a duplicate id, kInvalidArgument for an empty one.
  /// The first registered id becomes the default (`open CLIENT` without
  /// an id).
  Status RegisterDataset(const std::string& id, Loader loader);

  /// Opens `client` against `dataset_id` ("" = default), lazily loading
  /// the dataset and evicting idle sessions/registries as the budgets
  /// require. kNotFound for an unknown dataset id or a dataset whose load
  /// failed (the catalog entry stays retryable — a fixed CSV serves the
  /// next open), kAlreadyExists for a live client name (in any registry),
  /// kResourceExhausted when a budget is exhausted and nothing idle can be
  /// evicted.
  ///
  /// Adoption: when `client` names a journal-recovered session no
  /// connection has claimed yet, the open *adopts* it — constraint state
  /// intact — instead of failing kAlreadyExists, and `*adopted` (when
  /// non-null) reports it. An explicit dataset_id must match the session's
  /// recovered binding; "" adopts whatever it was bound to.
  Status Open(const std::string& client, const std::string& dataset_id,
              bool* adopted = nullptr);

  /// Rebuilds every live journaled session from
  /// `<journal_dir>/<id>.journal` (see docs/OPERATIONS.md). Call once at
  /// startup, before serving — replay is single-threaded and runs the
  /// edits through the same ApplySessionCommand path the live server used;
  /// no solves re-run. No-op when journal_dir is empty or no journals
  /// exist. The report's record and session counts are also `stats`
  /// fields (recover_*).
  Result<RecoverReport> RecoverFromJournals();

  /// Routes one command to the client's registry strand. kNotFound for
  /// unknown (or evicted) clients.
  Status Submit(const std::string& client, SessionCommand command,
                SessionCallback done);

  /// Cooperatively cancels the client's in-flight solve (see
  /// SessionRegistry::Cancel). No-op for unknown clients.
  void Cancel(const std::string& client);

  /// Closes a client (graceful lets its queued commands finish). kNotFound
  /// for unknown clients. Do not call from a SessionCallback.
  Status Close(const std::string& client, bool graceful = false);

  /// Blocks until every resident registry is idle. Do not call from a
  /// SessionCallback.
  void Drain();

  /// The `stats` fields: the resident registries' summed by kind, plus
  /// the counters of evicted ones (so `commands`/`forks` never go
  /// backwards), the router's own load and eviction counts, and what the
  /// journals, the warm cache and RecoverFromJournals() report.
  StatsValues Stats() const;
  /// Catalog entries, loaded or not.
  int registered_datasets() const;

  /// The dataset id a client is bound to (empty when unknown) — the wire
  /// layer's `open` ack echoes it.
  std::string ClientDataset(const std::string& client) const;

 private:
  struct CatalogEntry {
    Loader loader;
    std::shared_ptr<SessionRegistry> registry;  // null until first open
    /// The dataset's write-ahead journal (null when journaling is off or
    /// the journal failed to open). Created at first materialization and
    /// kept across registry evictions — it must outlive every registry
    /// that points at it (ServerOptions::journal is non-owning).
    std::unique_ptr<SessionJournal> journal;
    uint64_t last_used = 0;                     // logical LRU clock
  };
  struct Route {
    std::string dataset;
    uint64_t last_used = 0;
  };

  /// Returns the client's registry, touching LRU stamps. Must be called
  /// under mu_.
  std::shared_ptr<SessionRegistry> RouteLocked(const std::string& client);

  /// Evicts LRU idle sessions until the open-session count drops below the
  /// budget (or nothing idle remains). Called with mu_ held; releases and
  /// re-acquires it around the blocking closes.
  void EvictIdleSessionsLocked(std::unique_lock<std::mutex>& lock);

  /// `<journal_dir>/<id>.journal` (journal_dir is known non-empty).
  std::string JournalPath(const std::string& id) const;
  /// Opens the journal of a freshly loaded dataset; null, loudly, when
  /// that fails — the dataset then serves without durability.
  std::unique_ptr<SessionJournal> OpenJournal(const std::string& id,
                                              uint64_t fingerprint) const;
  /// Builds `entry`'s registry over a loaded bundle. The entry keeps the
  /// journal it already has (journals outlive registry evictions) and
  /// otherwise takes `journal`; the registry writes to that journal and
  /// draws on the warm cache. Counts the load. Must hold mu_.
  void InstallRegistryLocked(CatalogEntry* entry, DatasetBundle bundle,
                             std::unique_ptr<SessionJournal> journal);

  RouterOptions options_;
  /// The router-owned persistent warm cache (null = off). Registries point
  /// at it through ServerOptions::warm_cache (non-owning), so it must — and
  /// does — outlive every registry: the destructor body drains and
  /// destroys registries before members die, and eviction only releases
  /// registry pointers.
  std::unique_ptr<WarmCache> warm_cache_;

  mutable std::mutex mu_;
  std::map<std::string, CatalogEntry> catalog_;
  std::map<std::string, Route> routes_;
  std::string default_dataset_;
  uint64_t clock_ = 0;
  /// What the router counts itself — loads, evictions, the recovery
  /// report — plus what evicted registries counted (their non-gauge
  /// fields, so totals stay cumulative), in their `stats` slots.
  StatsValues counted_{};
};

}  // namespace rankhow

#endif  // RANKHOW_SERVER_REGISTRY_ROUTER_H_
