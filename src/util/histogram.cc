#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
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

using M = ServerMetrics;

/// The transport fields, one line each, in the order both lines render
/// them: the `stats` tail takes the kOnStats ones, `metrics` the
/// kOnMetrics ones (docs/PROTOCOL.md, docs/OPERATIONS.md).
enum : int { kOnStats = 1, kOnMetrics = 2, kOnBoth = 3 };
struct TransportField {
  MetricDef def;
  std::atomic<int64_t> ServerMetrics::*value;
  int lines;
};
constexpr TransportField kTransportFields[] = {
    {{"connections", kGauge}, &M::connections_current, kOnBoth},
    {{"connections_peak", kMax}, &M::connections_peak, kOnMetrics},
    {{"connections_total", kCounter}, &M::connections_total, kOnMetrics},
    {{"frames_binary", kCounter}, &M::frames_binary, kOnBoth},
    {{"backpressure_closes", kCounter}, &M::backpressure_closes, kOnBoth},
    {{"idle_closes", kCounter}, &M::idle_closes, kOnMetrics},
    {{"eof_closes", kCounter}, &M::eof_closes, kOnMetrics},
    {{"writes_queued_peak", kMax}, &M::writes_queued_peak, kOnBoth},
    {{"writes_retried", kCounter}, &M::writes_retried, kOnBoth},
    {{"protocol_errors", kCounter}, &M::protocol_errors, kOnMetrics},
    {{"aborted_idle", kCounter}, &M::idle_closes, kOnStats},
    {{"aborted_backpressure", kCounter}, &M::backpressure_closes, kOnStats},
    {{"aborted_eof", kCounter}, &M::eof_closes, kOnStats},
};

/// The declaration of a served field, by wire name; null when none.
const MetricDef* FindServedMetric(const std::string& name) {
  for (const MetricDef& def : kStatsFields) {
    if (name == def.name) return &def;
  }
  for (const TransportField& field : kTransportFields) {
    if (name == field.def.name) return &field.def;
  }
  for (const MetricDef& def : kVerbHistograms) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

std::string RenderTransportFields(const ServerMetrics& metrics, int line) {
  std::string out;
  for (const TransportField& field : kTransportFields) {
    if ((field.lines & line) != 0) {
      AppendField(&out, field.def.name, (metrics.*field.value).load());
    }
  }
  return out;
}

}  // namespace

double HistogramSnapshot::QuantileUsec(double q) const {
  if (count == 0) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Nearest rank: the ceil(q * count)-th smallest sample, 0-based.
  const double nearest = std::ceil(q * static_cast<double>(count));
  const uint64_t rank =
      nearest < 1 ? 0 : static_cast<uint64_t>(nearest) - 1;
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

void HistogramSnapshot::AppendFields(const char* name,
                                     std::string* line) const {
  if (count == 0) return;
  if (!line->empty()) *line += ' ';
  *line += StrFormat(
      "%s.count=%llu %s.mean_us=%.0f %s.p50_us=%.0f %s.p99_us=%.0f "
      "%s.max_us=%llu %s.sum_us=%llu %s.buckets=",
      name, static_cast<unsigned long long>(count), name,
      static_cast<double>(sum_usec) / count, name,
      QuantileUsec(0.5), name, QuantileUsec(0.99), name,
      static_cast<unsigned long long>(max_usec), name,
      static_cast<unsigned long long>(sum_usec), name);
  const char* sep = "";
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    *line += sep + std::to_string(b) + ":" + std::to_string(buckets[b]);
    sep = ",";
  }
}

void HistogramSnapshot::MergeField(const std::string& field,
                                   const std::string& value) {
  if (field == "buckets") {
    for (const std::string& entry : Split(value, ',')) {
      const size_t colon = entry.find(':');
      Result<int64_t> b = ParseInt(entry.substr(0, colon));
      Result<int64_t> n = ParseInt(
          colon == std::string::npos ? "" : entry.substr(colon + 1));
      if (b.ok() && n.ok() && *b >= 0 && *b < kBuckets && *n >= 0) {
        buckets[*b] += static_cast<uint64_t>(*n);
        count += static_cast<uint64_t>(*n);
      }
    }
    return;
  }
  Result<int64_t> parsed = ParseInt(value);
  if (!parsed.ok() || *parsed < 0) return;
  const uint64_t v = static_cast<uint64_t>(*parsed);
  if (field == "sum_us") sum_usec += v;
  if (field == "max_us" && v > max_usec) max_usec = v;
}

void LatencyHistogram::Record(uint64_t usec) {
  Shard& shard = shards_[ShardOf()];
  shard.buckets[BucketOf(usec)].fetch_add(1, std::memory_order_relaxed);
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
      const uint64_t n = shard.buckets[b].load(std::memory_order_relaxed);
      out.buckets[b] += n;
      out.count += n;
    }
    out.sum_usec += shard.sum_usec.load(std::memory_order_relaxed);
    uint64_t m = shard.max_usec.load(std::memory_order_relaxed);
    if (m > out.max_usec) out.max_usec = m;
  }
  return out;
}

void ServerMetrics::RaisePeak(std::atomic<int64_t>& peak, int64_t value) {
  int64_t seen = peak.load(std::memory_order_relaxed);
  while (value > seen && !peak.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

std::string ServerMetrics::RenderWireLine() const {
  std::string out = RenderTransportFields(*this, kOnMetrics);
  for (int v = 0; v < kNumWireVerbs; ++v) {
    per_verb[v].Snapshot().AppendFields(kVerbHistograms[v].name, &out);
  }
  return out;
}

std::string ServerMetrics::RenderStatsFields() const {
  return RenderTransportFields(*this, kOnStats);
}

std::string AggregateFieldLines(const std::vector<std::string>& lines) {
  struct Field {
    int64_t value = 0;
    HistogramSnapshot histogram;
  };
  std::vector<const MetricDef*> order;
  std::map<const MetricDef*, Field> fields;
  for (const std::string& line : lines) {
    for (const std::string& token : Split(line, ' ')) {
      // NAME=VALUE, or NAME.FIELD=VALUE in a histogram's block.
      const size_t eq = token.find('=');
      if (eq == std::string::npos) continue;
      const size_t dot = std::min(token.find('.'), eq);
      const MetricDef* def = FindServedMetric(token.substr(0, dot));
      if (def == nullptr || (def->kind == kHistogram) != (dot < eq)) continue;
      auto [it, fresh] = fields.try_emplace(def);
      if (fresh) order.push_back(def);
      if (def->kind == kHistogram) {
        it->second.histogram.MergeField(token.substr(dot + 1, eq - dot - 1),
                                        token.substr(eq + 1));
      } else if (Result<int64_t> v = ParseInt(token.substr(eq + 1)); v.ok()) {
        it->second.value =
            fresh ? *v : MergeMetric(def->kind, it->second.value, *v);
      }
    }
  }
  std::string out;
  for (const MetricDef* def : order) {
    if (def->kind == kHistogram) {
      fields[def].histogram.AppendFields(def->name, &out);
    } else {
      AppendField(&out, def->name, fields[def].value);
    }
  }
  return out;
}

}  // namespace rankhow
