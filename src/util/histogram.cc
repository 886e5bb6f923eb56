#include "util/histogram.h"

#include <functional>
#include <thread>

#include "util/string_util.h"

namespace rankhow {

namespace {

/// Bucket index for a microsecond sample: floor(log2(usec)), clamped.
int BucketOf(uint64_t usec) {
  if (usec < 2) return 0;
  int b = 63 - __builtin_clzll(usec);
  return b < HistogramSnapshot::kBuckets ? b
                                         : HistogramSnapshot::kBuckets - 1;
}

/// The calling thread's shard index. A hashed thread id is stable for the
/// thread's lifetime, so each recorder keeps hitting the same shard.
int ShardOf() {
  static thread_local const int shard = static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      LatencyHistogram::kShards);
  return shard;
}

}  // namespace

double HistogramSnapshot::QuantileUsec(double q) const {
  if (count == 0) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  uint64_t rank = static_cast<uint64_t>(q * (count - 1));
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (seen + buckets[b] > rank) {
      // Interpolate inside [2^b, 2^(b+1)) by the rank's position in it.
      double lo = b == 0 ? 0.0 : static_cast<double>(1ull << b);
      double hi = static_cast<double>(1ull << (b + 1));
      double frac = static_cast<double>(rank - seen) / buckets[b];
      double est = lo + frac * (hi - lo);
      return est > max_usec ? static_cast<double>(max_usec) : est;
    }
    seen += buckets[b];
  }
  return static_cast<double>(max_usec);
}

void LatencyHistogram::Record(uint64_t usec) {
  Shard& shard = shards_[ShardOf()];
  shard.buckets[BucketOf(usec)].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum_usec.fetch_add(usec, std::memory_order_relaxed);
  uint64_t seen = shard.max_usec.load(std::memory_order_relaxed);
  while (usec > seen && !shard.max_usec.compare_exchange_weak(
                            seen, usec, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot out;
  for (const Shard& shard : shards_) {
    for (int b = 0; b < kBuckets; ++b) {
      out.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
    }
    out.count += shard.count.load(std::memory_order_relaxed);
    out.sum_usec += shard.sum_usec.load(std::memory_order_relaxed);
    uint64_t m = shard.max_usec.load(std::memory_order_relaxed);
    if (m > out.max_usec) out.max_usec = m;
  }
  return out;
}

const char* WireVerbName(WireVerb verb) {
  switch (verb) {
    case WireVerb::kOpen: return "open";
    case WireVerb::kClose: return "close";
    case WireVerb::kStats: return "stats";
    case WireVerb::kMetrics: return "metrics";
    case WireVerb::kDeadline: return "deadline";
    case WireVerb::kFrame: return "frame";
    case WireVerb::kQuit: return "quit";
    case WireVerb::kEdit: return "edit";
    case WireVerb::kSolve: return "solve";
  }
  return "?";
}

void ServerMetrics::RaisePeak(std::atomic<int64_t>& peak, int64_t value) {
  int64_t seen = peak.load(std::memory_order_relaxed);
  while (value > seen && !peak.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

std::string ServerMetrics::RenderWireLine() const {
  std::string out = RenderStatsLine({
      {"connections", connections_current.load()},
      {"connections_peak", connections_peak.load()},
      {"connections_total", connections_total.load()},
      {"frames_binary", frames_binary.load()},
      {"backpressure_closes", backpressure_closes.load()},
      {"idle_closes", idle_closes.load()},
      {"eof_closes", eof_closes.load()},
      {"writes_queued_peak", writes_queued_peak.load()},
      {"writes_retried", writes_retried.load()},
      {"protocol_errors", protocol_errors.load()},
  });
  for (int v = 0; v < kNumWireVerbs; ++v) {
    HistogramSnapshot snap = per_verb[v].Snapshot();
    if (snap.count == 0) continue;
    const char* name = WireVerbName(static_cast<WireVerb>(v));
    out += StrFormat(
        " %s.count=%llu %s.mean_us=%.0f %s.p50_us=%.0f %s.p99_us=%.0f "
        "%s.max_us=%llu",
        name, static_cast<unsigned long long>(snap.count), name,
        snap.MeanUsec(), name, snap.QuantileUsec(0.5), name,
        snap.QuantileUsec(0.99), name,
        static_cast<unsigned long long>(snap.max_usec));
  }
  return out;
}

std::string ServerMetrics::RenderStatsFields() const {
  return RenderStatsLine({
      {"connections", connections_current.load()},
      {"frames_binary", frames_binary.load()},
      {"backpressure_closes", backpressure_closes.load()},
      {"writes_queued_peak", writes_queued_peak.load()},
      {"writes_retried", writes_retried.load()},
      {"aborted_idle", idle_closes.load()},
      {"aborted_backpressure", backpressure_closes.load()},
      {"aborted_eof", eof_closes.load()},
  });
}

}  // namespace rankhow
