#ifndef RANKHOW_UTIL_HISTOGRAM_H_
#define RANKHOW_UTIL_HISTOGRAM_H_

/// \file histogram.h
/// Lock-free latency histograms for the serving stack (the `metrics` wire
/// verb; see docs/OPERATIONS.md "Reading `metrics`"), and the declaration
/// of every served metric with its merge kind (below the histograms).
///
/// Shape: recording happens on hot threads (reactor event loops, strand
/// pool completions) and must never contend; reading happens rarely (a
/// `metrics` request) and may be slow. So a histogram is a fixed array of
/// relaxed atomic counters over log2 microsecond buckets, *sharded* — each
/// recording thread hashes to one of a small fixed set of shard arrays, so
/// two event loops never bounce the same cache line — and a read merges
/// the shards into a plain snapshot. Recording is wait-free; snapshots are
/// not atomic across buckets (counts recorded mid-merge may straddle), which
/// is fine for an operational metric. A snapshot's count is the sum of its
/// buckets, so its quantiles and its exported buckets always agree.
///
/// Quantiles are estimated from the merged buckets by linear interpolation
/// inside the winning bucket: with log2 buckets the estimate is within 2x
/// of the true value, which is the operationally useful precision for a
/// latency percentile (the bucket boundaries, not the interpolation, carry
/// the information).

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace rankhow {

/// Merged, plain-value view of one histogram (see LatencyHistogram::
/// Snapshot). All latencies in microseconds.
struct HistogramSnapshot {
  static constexpr int kBuckets = 40;
  uint64_t buckets[kBuckets] = {0};
  uint64_t count = 0;  ///< the sum of `buckets`
  uint64_t sum_usec = 0;
  uint64_t max_usec = 0;

  /// Estimated q-quantile (q in [0,1]) in microseconds: the nearest-rank
  /// sample (the ceil(q * count)-th smallest), interpolated within its
  /// log2 bucket. 0 when empty.
  double QuantileUsec(double q) const;

  /// Appends the `metrics` block `NAME.count NAME.mean_us NAME.p50_us
  /// NAME.p99_us NAME.max_us NAME.sum_us NAME.buckets` (buckets lists the
  /// non-empty ones as `B:N,...`) to a field line; nothing when empty.
  void AppendFields(const char* name, std::string* line) const;
  /// Adds one field of that block (`field` is what follows "NAME.") to
  /// this snapshot, so that reading the blocks of several histograms
  /// yields the histogram of all their samples. The derived fields
  /// (count, mean, quantiles) and malformed values are skipped.
  void MergeField(const std::string& field, const std::string& value);
};

/// One log-bucketed latency histogram: bucket b counts samples in
/// [2^b, 2^(b+1)) microseconds (bucket 0 additionally holds sub-usec
/// samples). Sharded: Record() touches only the calling thread's shard.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = HistogramSnapshot::kBuckets;
  /// Enough shards that a handful of event loops plus the strand pool
  /// rarely collide; each shard's counters are padded apart by layout.
  static constexpr int kShards = 4;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Wait-free; safe from any thread.
  void Record(uint64_t usec);

  /// Merges every shard into one plain snapshot.
  HistogramSnapshot Snapshot() const;

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kBuckets] = {};
    std::atomic<uint64_t> sum_usec{0};
    std::atomic<uint64_t> max_usec{0};
  };
  Shard shards_[kShards];
};

// ---------------------------------------------------------------------------
// The served metrics: every field a worker puts on its `stats` and `metrics`
// lines is declared once — its wire name next to its MetricKind — in the
// tables below (the transport fields' table is in histogram.cc, next to the
// ServerMetrics members it reads). The worker's renderers, the router's sum
// over its registries and the coordinator's fleet merge all read them.
// ---------------------------------------------------------------------------

/// How a served metric merges across a router's registries and across a
/// coordinator's workers.
enum MetricKind {
  kCounter,    ///< cumulative count: summed; kept when a registry is evicted
  kGauge,      ///< current value: summed; dropped when a registry is evicted
  kMax,        ///< high-water mark or 0/1 flag: the largest value
  kHistogram,  ///< latency histogram: merged bucket-wise
};

/// One served metric's declaration.
struct MetricDef {
  const char* name;  ///< wire name
  MetricKind kind;
};

/// `into` merged with `value` by a scalar kind: the larger for kMax, the
/// sum otherwise.
inline int64_t MergeMetric(MetricKind kind, int64_t into, int64_t value) {
  return kind == kMax ? (value > into ? value : into) : into + value;
}

/// The `stats` line (docs/PROTOCOL.md "stats fields"), one field per line
/// in wire order: the id its owner fills, the wire name, and how it merges
/// (MetricKind). A SessionRegistry fills what it counts (clients,
/// datasets, commands, forks, shared_*, pending, shed, closed_*); the
/// RegistryRouter (server/registry_router.h) sums its registries and fills
/// the rest.
#define RANKHOW_STATS_FIELDS(X)                                      \
  X(kStatRegistries, "registries", kGauge)                           \
  X(kStatClients, "clients", kGauge)                                 \
  X(kStatDatasets, "datasets", kGauge)                               \
  X(kStatCommands, "commands", kCounter)                             \
  X(kStatForks, "forks", kCounter)                                   \
  X(kStatLoaded, "loaded", kCounter)                                 \
  X(kStatEvictedRegistries, "evicted_registries", kCounter)          \
  X(kStatEvictedSessions, "evicted_sessions", kCounter)              \
  X(kStatSharedPublished, "shared_published", kCounter)              \
  X(kStatSharedDrawn, "shared_drawn", kCounter)                      \
  X(kStatPending, "pending", kGauge)                                 \
  X(kStatShed, "shed", kCounter)                                     \
  X(kStatClosedGraceful, "closed_graceful", kCounter)                \
  X(kStatClosedAborted, "closed_aborted", kCounter)                  \
  X(kStatJournalRecords, "journal_records", kCounter)                \
  X(kStatJournalFsyncs, "journal_fsyncs", kCounter)                  \
  X(kStatJournalFsyncFailures, "journal_fsync_failures", kCounter)   \
  X(kStatJournalDegraded, "journal_degraded", kGauge)                \
  X(kStatRecoverReplayed, "recover_replayed", kCounter)              \
  X(kStatRecoverTruncated, "recover_truncated", kCounter)            \
  X(kStatRecoverSkipped, "recover_skipped", kCounter)                \
  X(kStatRecoverSessions, "recover_sessions", kCounter)              \
  X(kStatCacheHits, "cache_hits", kCounter)                          \
  X(kStatCacheMisses, "cache_misses", kCounter)                      \
  X(kStatCacheDemotions, "cache_demotions", kCounter)                \
  X(kStatCachePublishes, "cache_publishes", kCounter)                \
  X(kStatCacheEntries, "cache_entries", kGauge)                      \
  X(kStatCacheAppended, "cache_appended", kCounter)                  \
  X(kStatCacheLoaded, "cache_loaded", kCounter)                      \
  X(kStatCacheSkipped, "cache_skipped", kCounter)                    \
  X(kStatCacheDegraded, "cache_degraded", kMax)

/// The wire verbs a latency histogram is kept for, one line each: the id
/// the dispatch records under, the histogram's wire name, and its kind.
/// kEdit covers every session-script command except `solve` (constraint
/// edits re-solve too, but their latency profile is the interesting
/// split).
#define RANKHOW_WIRE_VERBS(X)          \
  X(kOpen, "open", kHistogram)         \
  X(kClose, "close", kHistogram)       \
  X(kStats, "stats", kHistogram)       \
  X(kMetrics, "metrics", kHistogram)   \
  X(kDeadline, "deadline", kHistogram) \
  X(kFrame, "frame", kHistogram)       \
  X(kQuit, "quit", kHistogram)         \
  X(kEdit, "edit", kHistogram)         \
  X(kSolve, "solve", kHistogram)

#define RANKHOW_METRIC_ID(id, name, kind) id,
#define RANKHOW_METRIC_DEF(id, name, kind) {name, kind},
enum StatId : int { RANKHOW_STATS_FIELDS(RANKHOW_METRIC_ID) kNumStats };
inline constexpr MetricDef kStatsFields[kNumStats] = {
    RANKHOW_STATS_FIELDS(RANKHOW_METRIC_DEF)};
enum class WireVerb { RANKHOW_WIRE_VERBS(RANKHOW_METRIC_ID) };
constexpr int kNumWireVerbs = 9;
/// Each verb's latency histogram, indexed by WireVerb.
inline constexpr MetricDef kVerbHistograms[kNumWireVerbs] = {
    RANKHOW_WIRE_VERBS(RANKHOW_METRIC_DEF)};
#undef RANKHOW_METRIC_ID
#undef RANKHOW_METRIC_DEF

/// One `stats` snapshot, indexed by StatId; fields an owner does not fill
/// stay 0.
using StatsValues = std::array<int64_t, kNumStats>;

/// Everything the serving transport + wire layer counts, shared by the
/// reactor (connection/backpressure gauges) and the wire dispatch
/// (per-verb latencies). One instance per server process; plain struct so
/// tests can own one on the stack.
struct ServerMetrics {
  LatencyHistogram per_verb[kNumWireVerbs];

  // -------- transport gauges (maintained by the reactor) --------
  std::atomic<int64_t> connections_current{0};
  std::atomic<int64_t> connections_peak{0};
  std::atomic<int64_t> connections_total{0};
  /// Complete binary frames decoded across all connections.
  std::atomic<int64_t> frames_binary{0};
  /// Connections abort-closed because their bounded write queue overflowed
  /// (a stalled reader), by idle timeout, and by EOF/transport error — the
  ///`closed_aborted` causes the stats verb distinguishes.
  std::atomic<int64_t> backpressure_closes{0};
  std::atomic<int64_t> idle_closes{0};
  std::atomic<int64_t> eof_closes{0};
  /// High-water mark of any single connection's queued write bytes.
  std::atomic<int64_t> writes_queued_peak{0};
  /// Short/interrupted socket writes the reactor retried instead of
  /// failing (partial sends resumed from the outbox).
  std::atomic<int64_t> writes_retried{0};
  /// Requests dropped because a frame/line failed to decode (the
  /// connection abort-closes; siblings are untouched).
  std::atomic<int64_t> protocol_errors{0};

  void RecordVerb(WireVerb verb, uint64_t usec) {
    per_verb[static_cast<int>(verb)].Record(usec);
  }

  /// Monotonically raises a peak gauge.
  static void RaisePeak(std::atomic<int64_t>& peak, int64_t value);

  /// The single-line `ok metrics ...` body: the transport fields, then
  /// the HistogramSnapshot::AppendFields block of every verb with samples
  /// (see docs/PROTOCOL.md).
  std::string RenderWireLine() const;
  /// The transport fields the `stats` verb appends.
  std::string RenderStatsFields() const;
};

/// The coordinator's fleet merge of worker `stats`/`metrics` bodies: each
/// declared field merges by its MetricKind — counters and gauges sum,
/// high-water marks and flags take the max, and latency histograms merge
/// bucket-wise and re-render, so a fleet quantile is the quantile of the
/// union of samples. Fields keep the order they first appear in, so one
/// line merges to itself byte for byte; undeclared fields are dropped.
std::string AggregateFieldLines(const std::vector<std::string>& lines);

}  // namespace rankhow

#endif  // RANKHOW_UTIL_HISTOGRAM_H_
