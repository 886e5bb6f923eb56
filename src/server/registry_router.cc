#include "server/registry_router.h"

#include <cstdio>

#include <algorithm>
#include <utility>

namespace rankhow {

namespace {

/// Adds one registry's `stats` fields into `into`, each by its kind.
/// Without gauges it keeps only what outlives an evicted registry.
void MergeStats(const StatsValues& from, bool gauges, StatsValues* into) {
  for (int f = 0; f < kNumStats; ++f) {
    if (gauges || kStatsFields[f].kind != kGauge) {
      (*into)[f] = MergeMetric(kStatsFields[f].kind, (*into)[f], from[f]);
    }
  }
}

}  // namespace

RegistryRouter::RegistryRouter(RouterOptions options)
    : options_(std::move(options)) {
  if (!options_.warm_cache_dir.empty()) {
    Result<std::unique_ptr<WarmCache>> cache =
        WarmCache::Open(options_.warm_cache_dir, options_.warm_cache);
    if (cache.ok()) {
      warm_cache_ = cache.MoveValue();
    } else {
      // Warm starts are best-effort by design: serve cache-off, loudly.
      std::fprintf(stderr,
                   "rankhow: warm cache open failed in %s: %s "
                   "(serving cache-off)\n",
                   options_.warm_cache_dir.c_str(),
                   cache.status().message().c_str());
    }
  }
}

RegistryRouter::~RegistryRouter() {
  // Registries drain themselves in their destructors; detach them under
  // the lock, destroy outside (a strand callback may be calling Submit —
  // it holds a shared_ptr, so the last release happens off our lock).
  // Journals detach too but die strictly AFTER the registries: a draining
  // strand may still be appending through its ServerOptions::journal.
  std::vector<std::shared_ptr<SessionRegistry>> doomed;
  std::vector<std::unique_ptr<SessionJournal>> doomed_journals;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, entry] : catalog_) {
      (void)id;
      if (entry.registry != nullptr) doomed.push_back(std::move(entry.registry));
      if (entry.journal != nullptr) {
        doomed_journals.push_back(std::move(entry.journal));
      }
    }
    catalog_.clear();
    routes_.clear();
  }
  doomed.clear();
  doomed_journals.clear();
}

std::string RegistryRouter::JournalPath(const std::string& id) const {
  return options_.journal_dir + "/" + id + ".journal";
}

std::unique_ptr<SessionJournal> RegistryRouter::OpenJournal(
    const std::string& id, uint64_t fingerprint) const {
  Result<std::unique_ptr<SessionJournal>> journal = SessionJournal::Open(
      JournalPath(id), id, fingerprint, options_.journal);
  if (journal.ok()) return journal.MoveValue();
  // Durability is best-effort by design: serve without it, loudly.
  std::fprintf(stderr,
               "rankhow: journal open failed for dataset %s: %s "
               "(serving without durability)\n",
               id.c_str(), journal.status().message().c_str());
  return nullptr;
}

void RegistryRouter::InstallRegistryLocked(
    CatalogEntry* entry, DatasetBundle bundle,
    std::unique_ptr<SessionJournal> journal) {
  if (entry->journal == nullptr) entry->journal = std::move(journal);
  ServerOptions server = options_.server;
  server.journal = entry->journal.get();
  server.warm_cache = warm_cache_.get();
  entry->registry = std::make_shared<SessionRegistry>(
      std::move(bundle.data), std::move(bundle.given),
      std::move(bundle.labels), server);
  ++counted_[kStatLoaded];
}

Status RegistryRouter::RegisterDataset(const std::string& id, Loader loader) {
  if (id.empty()) return Status::Invalid("dataset id must be non-empty");
  if (loader == nullptr) {
    return Status::Invalid("dataset " + id + " has no loader");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (catalog_.count(id) > 0) {
    return Status::AlreadyExists("dataset already registered: " + id);
  }
  CatalogEntry entry;
  entry.loader = std::move(loader);
  catalog_.emplace(id, std::move(entry));
  if (default_dataset_.empty()) default_dataset_ = id;
  return Status();
}

void RegistryRouter::EvictIdleSessionsLocked(
    std::unique_lock<std::mutex>& lock) {
  // Pick LRU idle victims until one slot frees up (the caller is opening
  // exactly one session). Busy-ness is a best-effort peek: a command
  // racing the eviction fails with the same "session closed" status an
  // explicit Close produces.
  while (static_cast<int>(routes_.size()) >= options_.max_open_sessions) {
    std::string victim;
    uint64_t oldest = 0;
    std::shared_ptr<SessionRegistry> registry;
    for (const auto& [name, route] : routes_) {
      auto it = catalog_.find(route.dataset);
      if (it == catalog_.end() || it->second.registry == nullptr) continue;
      if (it->second.registry->ClientBusy(name)) continue;
      if (victim.empty() || route.last_used < oldest) {
        victim = name;
        oldest = route.last_used;
        registry = it->second.registry;
      }
    }
    if (victim.empty()) return;  // everything is busy; the caller fails
    routes_.erase(victim);
    ++counted_[kStatEvictedSessions];
    lock.unlock();
    // Abort mode: the victim was idle (queue empty), so this just frees
    // the session. kNotFound (a concurrent Close won) is fine.
    (void)registry->Close(victim, /*graceful=*/false);
    lock.lock();
  }
}

Status RegistryRouter::Open(const std::string& client,
                            const std::string& dataset_id, bool* adopted) {
  if (adopted != nullptr) *adopted = false;
  std::unique_lock<std::mutex> lock(mu_);
  {
    auto route = routes_.find(client);
    if (route != routes_.end()) {
      // The name is live. If it names a journal-recovered session no
      // connection has claimed yet, this open *adopts* it — constraint
      // state intact — provided the caller didn't name a different
      // dataset ("" adopts the recovered binding).
      auto owner = catalog_.find(route->second.dataset);
      std::shared_ptr<SessionRegistry> registry =
          owner != catalog_.end() ? owner->second.registry : nullptr;
      if (registry != nullptr &&
          (dataset_id.empty() || dataset_id == route->second.dataset) &&
          registry->Adopt(client)) {
        ++clock_;
        route->second.last_used = clock_;
        owner->second.last_used = clock_;
        if (adopted != nullptr) *adopted = true;
        return Status();
      }
      return Status::AlreadyExists("client already open: " + client);
    }
  }
  const std::string dataset =
      dataset_id.empty() ? default_dataset_ : dataset_id;
  if (dataset.empty()) return Status::NotFound("router has no datasets");
  auto it = catalog_.find(dataset);
  if (it == catalog_.end()) {
    return Status::NotFound("unknown dataset id: " + dataset);
  }
  if (routes_.count(client) > 0) {
    return Status::AlreadyExists("client already open: " + client);
  }

  if (it->second.registry == nullptr) {
    // Lazy load, off the lock (CSV parsing and fingerprinting can be
    // slow). Tolerate the benign race where a concurrent Open loads the
    // same dataset first: the loser's bundle is dropped.
    Loader loader = it->second.loader;
    lock.unlock();
    Result<DatasetBundle> bundle = loader();
    std::unique_ptr<SessionJournal> fresh_journal;
    if (bundle.ok() && !options_.journal_dir.empty()) {
      fresh_journal = OpenJournal(
          dataset, DatasetFingerprint(bundle->data.get(), bundle->given));
    }
    lock.lock();
    if (!bundle.ok()) {
      // A failed load answers a clean, documented kNotFound, and the
      // catalog entry stays retryable — the loader runs again on the next
      // open naming this dataset (a fixed CSV serves without a restart).
      return Status::NotFound("dataset " + dataset +
                              " unavailable (load failed: " +
                              bundle.status().message() + ")");
    }
    it = catalog_.find(dataset);
    if (it == catalog_.end()) {
      return Status::NotFound("dataset evicted while loading: " + dataset);
    }
    if (it->second.registry == nullptr) {
      // Constructed under the lock (unlike the load): the registry must
      // bind whichever journal the catalog entry owns — recovery or an
      // earlier residence may have opened it first — and that is only
      // knowable here.
      InstallRegistryLocked(&it->second, bundle.MoveValue(),
                            std::move(fresh_journal));
      // Enforce the resident budget: LRU-evict an idle zero-client
      // registry (never the one just installed); if every other resident
      // registry still has clients, roll back this load and fail.
      std::vector<std::shared_ptr<SessionRegistry>> doomed;
      auto resident = [this] {
        int count = 0;
        for (const auto& [id, entry] : catalog_) {
          (void)id;
          if (entry.registry != nullptr) ++count;
        }
        return count;
      };
      while (resident() > options_.max_resident_registries) {
        std::map<std::string, CatalogEntry>::iterator victim = catalog_.end();
        for (auto cit = catalog_.begin(); cit != catalog_.end(); ++cit) {
          if (cit->second.registry == nullptr || cit->first == dataset) {
            continue;
          }
          if (cit->second.registry->Stats()[kStatClients] > 0 ||
              cit->second.registry->Busy()) {
            continue;
          }
          if (victim == catalog_.end() ||
              cit->second.last_used < victim->second.last_used) {
            victim = cit;
          }
        }
        if (victim == catalog_.end()) {
          // Roll the load back (`loaded` keeps counting the loader
          // invocation — it is the lazy-load cost metric, not residency).
          doomed.push_back(std::move(it->second.registry));
          it->second.registry = nullptr;
          lock.unlock();
          doomed.clear();
          return Status::ResourceExhausted(
              "router is at max_resident_registries=" +
              std::to_string(options_.max_resident_registries) +
              " and every resident dataset has open clients");
        }
        // The registry and its shared pool die here, so their counters
        // move to the retired total; the journal and the warm cache
        // outlive it and keep counting their own.
        MergeStats(victim->second.registry->Stats(), /*gauges=*/false,
                   &counted_);
        ++counted_[kStatEvictedRegistries];
        doomed.push_back(std::move(victim->second.registry));
        victim->second.registry = nullptr;
      }
      if (!doomed.empty()) {
        // Destroy outside the lock: a registry destructor drains strands.
        lock.unlock();
        doomed.clear();
        lock.lock();
        it = catalog_.find(dataset);
        if (it == catalog_.end() || it->second.registry == nullptr) {
          return Status::NotFound("dataset evicted while loading: " +
                                  dataset);
        }
      }
    }
    // else: a concurrent Open won the load; this bundle (and
    // fresh_journal, if one was opened) dies with this scope — neither
    // ever wrote anything.
    if (routes_.count(client) > 0) {
      return Status::AlreadyExists("client already open: " + client);
    }
  }

  // Session budget, enforced at the point of commitment: the lock may
  // have been dropped above (lazy load, registry eviction), so a check
  // any earlier can go stale while a concurrent Open fills the budget.
  if (static_cast<int>(routes_.size()) >= options_.max_open_sessions) {
    EvictIdleSessionsLocked(lock);
    // Re-resolve everything: eviction drops the lock, so the world moved
    // (a concurrent Open may even have evicted this zero-client registry).
    it = catalog_.find(dataset);
    if (it == catalog_.end() || it->second.registry == nullptr) {
      return Status::NotFound("dataset evicted while opening: " + dataset);
    }
    if (routes_.count(client) > 0) {
      return Status::AlreadyExists("client already open: " + client);
    }
    if (static_cast<int>(routes_.size()) >= options_.max_open_sessions) {
      return Status::ResourceExhausted(
          "router is at max_open_sessions=" +
          std::to_string(options_.max_open_sessions) +
          " and every session is busy");
    }
  }

  std::shared_ptr<SessionRegistry> registry = it->second.registry;
  RH_RETURN_NOT_OK(registry->Open(client));
  ++clock_;
  routes_[client] = Route{dataset, clock_};
  it->second.last_used = clock_;
  return Status();
}

Result<RecoverReport> RegistryRouter::RecoverFromJournals() {
  RecoverReport report;
  if (options_.journal_dir.empty()) return report;
  // Recovery runs once, at startup, before any connection is served —
  // everything below is effectively single-threaded; the lock dances are
  // only for discipline.
  std::vector<std::string> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, entry] : catalog_) {
      (void)entry;
      ids.push_back(id);
    }
  }
  for (const std::string& id : ids) {
    const std::string path = JournalPath(id);
    Result<JournalReadback> readback = SessionJournal::Read(path);
    if (!readback.ok()) {
      std::fprintf(stderr, "rankhow: journal %s unreadable: %s (skipped)\n",
                   path.c_str(), readback.status().message().c_str());
      continue;
    }
    report.replayed += readback->replayed;
    report.truncated += readback->truncated;
    report.skipped += readback->skipped;
    // Fold the record stream into the set of sessions live at the crash:
    // an open (re)creates, a close erases (a duplicate close is a no-op),
    // a command appends to its client's edit script.
    struct LiveSession {
      uint64_t fingerprint = 0;
      std::vector<std::string> commands;
    };
    std::map<std::string, LiveSession> live;
    for (const JournalRecord& record : readback->records) {
      switch (record.kind) {
        case JournalRecord::Kind::kOpen:
          live[record.client] = LiveSession{record.fingerprint, {}};
          break;
        case JournalRecord::Kind::kClose:
          live.erase(record.client);
          break;
        case JournalRecord::Kind::kCommand: {
          auto session = live.find(record.client);
          if (session != live.end()) {
            session->second.commands.push_back(record.command);
          }
          break;
        }
      }
    }
    if (live.empty()) continue;  // history, but nothing to rebuild

    Loader loader;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto entry = catalog_.find(id);
      if (entry == catalog_.end()) continue;
      if (entry->second.registry != nullptr) continue;  // already resident
      loader = entry->second.loader;
    }
    Result<DatasetBundle> bundle = loader();
    if (!bundle.ok()) {
      std::fprintf(stderr,
                   "rankhow: dataset %s failed to load during recovery: %s "
                   "(%d session(s) not rebuilt)\n",
                   id.c_str(), bundle.status().message().c_str(),
                   static_cast<int>(live.size()));
      report.replay_failures += static_cast<int64_t>(live.size());
      continue;
    }
    const uint64_t fingerprint =
        DatasetFingerprint(bundle->data.get(), bundle->given);
    std::unique_ptr<SessionJournal> fresh_journal =
        OpenJournal(id, fingerprint);
    std::shared_ptr<SessionRegistry> registry;
    SessionJournal* journal = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto entry = catalog_.find(id);
      if (entry == catalog_.end() || entry->second.registry != nullptr) {
        continue;
      }
      InstallRegistryLocked(&entry->second, bundle.MoveValue(),
                            std::move(fresh_journal));
      entry->second.last_used = ++clock_;
      registry = entry->second.registry;
      journal = entry->second.journal.get();
    }
    // Recording off, so the replayed opens/edits don't re-append records
    // the log already holds.
    if (journal != nullptr) journal->set_recording(false);
    ++report.datasets;

    for (auto& [client, state] : live) {
      if (state.fingerprint != fingerprint) {
        // The CSV changed under the journal: replaying these edits would
        // target the wrong tuples. Refuse the session, keep the rest.
        ++report.fingerprint_mismatches;
        continue;
      }
      Status opened = registry->OpenRecovered(client);
      if (!opened.ok()) {
        ++report.replay_failures;
        continue;
      }
      bool replay_ok = true;
      for (const std::string& line : state.commands) {
        Result<std::vector<SessionCommand>> parsed = ParseSessionScript(line);
        if (!parsed.ok() || parsed->size() != 1) {
          replay_ok = false;
          break;
        }
        if (!registry->ReplayEdit(client, parsed->front()).ok()) {
          replay_ok = false;
          break;
        }
      }
      if (!replay_ok) {
        // Divergent state is worse than a lost session: drop it. The
        // journal's recording gate is off, so this close writes nothing —
        // the next recovery retries (and fails identically, harmlessly).
        ++report.replay_failures;
        (void)registry->Close(client, /*graceful=*/false);
        continue;
      }
      ++report.sessions;
      std::lock_guard<std::mutex> lock(mu_);
      routes_[client] = Route{id, ++clock_};
    }
    if (journal != nullptr) journal->set_recording(true);
  }
  std::lock_guard<std::mutex> lock(mu_);
  counted_[kStatRecoverReplayed] = report.replayed;
  counted_[kStatRecoverTruncated] = report.truncated;
  counted_[kStatRecoverSkipped] = report.skipped;
  counted_[kStatRecoverSessions] = report.sessions;
  return report;
}

std::shared_ptr<SessionRegistry> RegistryRouter::RouteLocked(
    const std::string& client) {
  auto route = routes_.find(client);
  if (route == routes_.end()) return nullptr;
  auto entry = catalog_.find(route->second.dataset);
  if (entry == catalog_.end() || entry->second.registry == nullptr) {
    return nullptr;
  }
  ++clock_;
  route->second.last_used = clock_;
  entry->second.last_used = clock_;
  return entry->second.registry;
}

Status RegistryRouter::Submit(const std::string& client,
                              SessionCommand command, SessionCallback done) {
  std::shared_ptr<SessionRegistry> registry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    registry = RouteLocked(client);
  }
  if (registry == nullptr) {
    return Status::NotFound("no open client named " + client);
  }
  return registry->Submit(client, std::move(command), std::move(done));
}

void RegistryRouter::Cancel(const std::string& client) {
  std::shared_ptr<SessionRegistry> registry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    registry = RouteLocked(client);
  }
  if (registry != nullptr) registry->Cancel(client);
}

Status RegistryRouter::Close(const std::string& client, bool graceful) {
  std::shared_ptr<SessionRegistry> registry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto route = routes_.find(client);
    if (route == routes_.end()) {
      return Status::NotFound("no open client named " + client);
    }
    auto entry = catalog_.find(route->second.dataset);
    if (entry != catalog_.end()) registry = entry->second.registry;
    routes_.erase(route);
  }
  if (registry == nullptr) {
    return Status::NotFound("no open client named " + client);
  }
  return registry->Close(client, graceful);
}

void RegistryRouter::Drain() {
  std::vector<std::shared_ptr<SessionRegistry>> registries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, entry] : catalog_) {
      (void)id;
      if (entry.registry != nullptr) registries.push_back(entry.registry);
    }
  }
  for (const auto& registry : registries) registry->Drain();
}

StatsValues RegistryRouter::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatsValues stats = counted_;
  if (warm_cache_ != nullptr) {
    const WarmCacheStats cache = warm_cache_->Stats();
    stats[kStatCacheHits] = cache.hits;
    stats[kStatCacheMisses] = cache.misses;
    stats[kStatCacheDemotions] = cache.demotions;
    stats[kStatCachePublishes] = cache.published;
    stats[kStatCacheEntries] = cache.entries;
    stats[kStatCacheAppended] = cache.appended;
    stats[kStatCacheLoaded] = cache.loaded;
    stats[kStatCacheSkipped] = cache.skipped;
    stats[kStatCacheDegraded] = cache.degraded;
  }
  for (const auto& [id, entry] : catalog_) {
    (void)id;
    if (entry.journal != nullptr) {
      const JournalStats j = entry.journal->Stats();
      stats[kStatJournalRecords] += j.records_appended;
      stats[kStatJournalFsyncs] += j.fsyncs;
      stats[kStatJournalFsyncFailures] += j.fsync_failures;
      if (j.degraded) ++stats[kStatJournalDegraded];
    }
    if (entry.registry == nullptr) continue;
    ++stats[kStatRegistries];
    MergeStats(entry.registry->Stats(), /*gauges=*/true, &stats);
  }
  return stats;
}

int RegistryRouter::registered_datasets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(catalog_.size());
}

std::string RegistryRouter::ClientDataset(const std::string& client) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto route = routes_.find(client);
  return route == routes_.end() ? std::string() : route->second.dataset;
}

}  // namespace rankhow
