#ifndef RANKHOW_CORE_WARM_CACHE_H_
#define RANKHOW_CORE_WARM_CACHE_H_

/// \file warm_cache.h
/// The persistent warm-start cache (ROADMAP's "persistent warm-start cache
/// keyed by canonical problem fingerprint"): proven winners survive process
/// restarts and registry evictions by living in an append-only on-disk log,
/// keyed by a *canonical problem fingerprint* — so the restart-after-crash
/// story from the journal (which recovers sessions but serves them cold)
/// becomes restart-*warm* serving.
///
/// Fingerprint canonicalization (see DESIGN.md "Persistent warm cache"):
///
///   dataset_fp  — DatasetFingerprint(data, given): FNV-1a over the shape,
///                 attribute names, every value's bit pattern, and the given
///                 ranking. The same identity the journal stamps into open
///                 records.
///   problem_fp  — FNV-1a over the *canonicalized* constraint set (terms
///                 sorted within each constraint, constraints sorted, so two
///                 sessions that added the same predicate in different order
///                 agree), the pairwise order and position constraints, the
///                 ε triple's bit patterns, and the objective (kind +
///                 penalty ladder). The constraint component is cached by
///                 callers at WeightConstraintSet::revision() granularity.
///
/// Soundness rule (the PR 5 "candidates-never-bounds" argument, extended):
/// an entry whose fingerprint matches the drawing solve EXACTLY is a proven
/// optimum of the *same* problem, so it may seed a tighten-only external
/// lower bound — subject to the semantics check (a spatial entry proves the
/// true ε-tie optimum, which never exceeds the MILP/SAT (ε₂, ε₁)-gap
/// optimum, so true-semantics entries seed gap re-solves but not vice
/// versa). ANY mismatch — different constraints, ε, objective, or a stale
/// dataset — demotes the entry to a revalidation *candidate*: its weight
/// vector is re-evaluated under the drawing session's problem before any
/// use, and its recorded error/bound is discarded. A stale entry costs one
/// evaluation, never correctness.
///
/// On-disk format — one record per line in the CRC-framed format the
/// session journal also uses (util/framed_records.h: torn-tail truncation,
/// CRC-corrupt skip, line resynchronization):
///
///   RHW1 <crc32-hex> <len> <payload>\n
///   payload := win <dataset_fp> <problem_fp> <sem> <error> <k> w1 ... wk
///
/// with <sem> 1 for true ε-tie semantics (spatial) and 0 for gap semantics,
/// and weights in %.17g (bit round-trip). Appends run on a background
/// writer thread (publish never blocks a solve on disk); write/fsync
/// failures degrade LOUDLY to cache-off-for-writes — stderr plus
/// Stats().degraded — while the in-memory side keeps serving.
///
/// Thread-safety: fully internally locked (sessions on different registry
/// strands publish and draw concurrently; the router shares one cache
/// across every registry it materializes, and the cache outlives them all).

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/opt_problem.h"
#include "data/dataset.h"
#include "ranking/ranking.h"
#include "util/status.h"

namespace rankhow {

/// A cheap identity for "the same dataset + given ranking": FNV-1a over the
/// shape, attribute names, every value's bit pattern, and the ranked
/// (tuple, position) pairs. The journal stamps it into open records
/// (recovery refuses to replay against a swapped CSV) and the warm cache
/// uses it as the dataset component of the problem fingerprint.
uint64_t DatasetFingerprint(const Dataset& data, const Ranking& given);

/// The canonical identity of one OPT problem instance.
struct ProblemFingerprint {
  uint64_t dataset_fp = 0;  // dataset + given ranking (DatasetFingerprint)
  uint64_t problem_fp = 0;  // constraints + ε + objective (canonicalized)

  bool operator==(const ProblemFingerprint& other) const {
    return dataset_fp == other.dataset_fp && problem_fp == other.problem_fp;
  }
  bool operator!=(const ProblemFingerprint& other) const {
    return !(*this == other);
  }
};

/// Order-independent hash of the predicate P: terms are sorted within each
/// constraint and the serialized constraints sorted before mixing, so the
/// same set built in any order hashes identically. Cache the result at
/// WeightConstraintSet::revision() granularity (every Add*/RemoveByName
/// bumps the revision).
uint64_t HashWeightConstraints(const WeightConstraintSet& constraints);

/// The full canonical fingerprint. `constraint_hash` is
/// HashWeightConstraints of problem.constraints (passed in so sessions can
/// cache it by revision); everything else — order/position constraints, ε,
/// objective — is hashed here.
ProblemFingerprint FingerprintProblem(uint64_t dataset_fp,
                                      uint64_t constraint_hash,
                                      const OptProblem& problem);

struct WarmCacheOptions {
  /// Resident (and durable-dedup) cap per exact fingerprint.
  int max_entries_per_key = 4;
  /// Publish blocks until the record is on disk (tests/benches that
  /// kill/reopen right after publishing; production keeps this off).
  bool synchronous_appends = false;
};

/// Aggregate counters (snapshot; the wire `stats` verb reads them here —
/// the cache is the one place draws and publishes are counted).
struct WarmCacheStats {
  /// Draws that found >= 1 exact-fingerprint entry.
  int64_t hits = 0;
  int64_t misses = 0;
  /// Entries handed out as revalidation candidates because their
  /// fingerprint mismatched the drawing solve (never bounds).
  int64_t demotions = 0;
  int64_t published = 0;
  int64_t appended = 0;   // records written to disk
  int64_t loaded = 0;     // intact records read back at Open
  int64_t skipped = 0;    // CRC/framing-corrupt records dropped at Open
  int64_t truncated = 0;  // torn trailing records dropped at Open
  int entries = 0;        // resident entries right now
  /// Cache-off-for-writes: a write/fsync failure exhausted its welcome.
  /// Draws keep serving the resident entries.
  bool degraded = false;
};

class WarmCache {
 public:
  /// One proven winner.
  struct Entry {
    ProblemFingerprint fp;
    /// True ε-tie semantics (spatial strategy) vs (ε₂, ε₁)-gap (MILP/SAT).
    bool true_semantics = false;
    /// The proven optimum at publication time.
    long error = -1;
    std::vector<double> weights;
  };

  /// What one draw hands the session.
  struct Draw {
    /// Exact-fingerprint entries (weights join the revalidation pool too).
    std::vector<Entry> exact;
    /// Demoted entries: same dataset, different problem — candidates only.
    std::vector<std::vector<double>> candidates;
    /// Tighten-only external lower bound from the semantics-compatible
    /// exact entries; -1 = none. The ONLY path by which cache state may
    /// seed a bound.
    long bound = -1;
  };

  /// Opens (creates or appends to) `<dir>/warm.cache`, loading every intact
  /// resident record. Torn/corrupt records are dropped, counted, and
  /// reported on stderr — a vandalized file degrades to an empty cache, it
  /// never fails the open or poisons results. kIoError when the directory
  /// itself is unusable (the caller then serves cache-off, loudly).
  static Result<std::unique_ptr<WarmCache>> Open(
      const std::string& dir, WarmCacheOptions options = WarmCacheOptions());

  /// Drains pending appends (best effort), then joins the writer.
  ~WarmCache();

  WarmCache(const WarmCache&) = delete;
  WarmCache& operator=(const WarmCache&) = delete;

  /// Inserts a proven winner (in memory, deduplicated) and queues its disk
  /// append. Never blocks on disk unless options.synchronous_appends.
  void Publish(const Entry& entry);

  /// Draws everything relevant to `fp`: exact matches (bound-eligible under
  /// the semantics rule — pass the drawing solve's semantics), plus every
  /// same-dataset entry with a mismatched problem fingerprint, demoted to a
  /// candidate. Entries from other datasets never surface (their weight
  /// vectors would not even be dimension-compatible).
  Draw DrawFor(const ProblemFingerprint& fp, bool gap_semantics);

  /// Bumped on every Publish that added or refreshed an entry; sessions
  /// skip re-drawing an unchanged cache for an unchanged fingerprint.
  uint64_t generation() const;

  /// Blocks until every queued append is on disk (tests, clean shutdown).
  void Flush();

  WarmCacheStats Stats() const;
  const std::string& path() const { return path_; }

 private:
  WarmCache(int fd, std::string path, WarmCacheOptions options);

  /// In-memory insert/refresh; true when the caller should append to disk.
  bool InsertLocked(const Entry& entry);
  void WriterLoop();
  void AppendBatch(const std::vector<std::string>& records);

  std::string path_;
  WarmCacheOptions options_;

  mutable std::mutex mu_;
  /// dataset_fp -> entries over that dataset (exact + demotable together;
  /// DrawFor splits by problem_fp). Insertion order is preserved per key.
  std::map<uint64_t, std::vector<Entry>> by_dataset_;
  /// Oldest-first key order for whole-group eviction at the resident cap.
  std::deque<uint64_t> key_order_;
  int resident_ = 0;
  uint64_t generation_ = 0;
  WarmCacheStats stats_;

  // Writer thread state (its own lock so Publish never waits on disk).
  mutable std::mutex write_mu_;
  std::condition_variable write_cv_;
  std::condition_variable drained_cv_;
  std::deque<std::string> write_queue_;
  bool writer_stop_ = false;
  bool writer_busy_ = false;
  int64_t appended_ = 0;
  int fd_ = -1;
  bool degraded_ = false;
  std::thread writer_;
};

}  // namespace rankhow

#endif  // RANKHOW_CORE_WARM_CACHE_H_
