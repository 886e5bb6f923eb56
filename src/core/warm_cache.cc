#include "core/warm_cache.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "math/simplex_box.h"
#include "util/framed_records.h"
#include "util/string_util.h"

namespace rankhow {

namespace {

void FnvMix(uint64_t* h, const void* bytes, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;  // FNV-1a prime
  }
}

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

constexpr char kMagic[] = "RHW1";
constexpr char kFileName[] = "warm.cache";

/// Total resident entries across all keys; overflow drops the oldest key
/// group (pure warm-start state — any policy is sound).
constexpr int kMaxResidentEntries = 65536;

std::string FormatEntry(const WarmCache::Entry& entry) {
  std::string payload = StrFormat(
      "win %016llx %016llx %d %ld %d",
      static_cast<unsigned long long>(entry.fp.dataset_fp),
      static_cast<unsigned long long>(entry.fp.problem_fp),
      entry.true_semantics ? 1 : 0, entry.error,
      static_cast<int>(entry.weights.size()));
  for (double w : entry.weights) {
    payload += StrFormat(" %.17g", w);
  }
  return payload;
}

bool ParseHex64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(s.c_str(), &end, 16);
  return end != nullptr && *end == '\0' && errno == 0;
}

/// Parses one record payload; false = corrupt (the reader counts it).
bool ParseEntry(const std::string& payload, WarmCache::Entry* out) {
  // Payload grammar: "win <dfp> <pfp> <sem> <error> <k> w1 ... wk".
  std::vector<std::string> fields = Split(payload, ' ');
  if (fields.size() < 6 || fields[0] != "win") return false;
  WarmCache::Entry entry;
  if (!ParseHex64(fields[1], &entry.fp.dataset_fp)) return false;
  if (!ParseHex64(fields[2], &entry.fp.problem_fp)) return false;
  if (fields[3] != "0" && fields[3] != "1") return false;
  entry.true_semantics = fields[3] == "1";
  auto error = ParseInt(fields[4]);
  if (!error.ok() || *error < 0) return false;
  entry.error = static_cast<long>(*error);
  auto k = ParseInt(fields[5]);
  if (!k.ok() || *k <= 0 ||
      fields.size() != static_cast<size_t>(6 + *k)) {
    return false;
  }
  entry.weights.reserve(static_cast<size_t>(*k));
  for (int64_t i = 0; i < *k; ++i) {
    auto w = ParseDouble(fields[static_cast<size_t>(6 + i)]);
    if (!w.ok() || !std::isfinite(*w)) return false;
    entry.weights.push_back(*w);
  }
  *out = std::move(entry);
  return true;
}

}  // namespace

uint64_t DatasetFingerprint(const Dataset& data, const Ranking& given) {
  uint64_t h = kFnvOffset;
  const int64_t n = data.num_tuples();
  const int64_t m = data.num_attributes();
  FnvMix(&h, &n, sizeof(n));
  FnvMix(&h, &m, sizeof(m));
  for (int a = 0; a < data.num_attributes(); ++a) {
    const std::string& name = data.attribute_name(a);
    FnvMix(&h, name.data(), name.size());
    for (int t = 0; t < data.num_tuples(); ++t) {
      const double v = data.value(t, a);
      FnvMix(&h, &v, sizeof(v));  // bit pattern, not rounded text
    }
  }
  for (int t : given.ranked_tuples()) {
    const int pos = given.position(t);
    FnvMix(&h, &t, sizeof(t));
    FnvMix(&h, &pos, sizeof(pos));
  }
  return h;
}

uint64_t HashWeightConstraints(const WeightConstraintSet& constraints) {
  // Serialize each constraint with its terms sorted by attribute, then sort
  // the serialized forms: {w0>=0.1, w1<=0.4} hashes the same no matter the
  // insertion order or the names the wire clients picked (names affect
  // removal semantics, not the feasible set).
  std::vector<std::string> keys;
  keys.reserve(constraints.size());
  for (const WeightConstraint& c : constraints.constraints()) {
    std::vector<std::pair<int, double>> terms = c.terms;
    std::sort(terms.begin(), terms.end());
    std::string key = StrFormat("%d %.17g", static_cast<int>(c.op), c.rhs);
    for (const auto& term : terms) {
      key += StrFormat(" %d:%.17g", term.first, term.second);
    }
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  uint64_t h = kFnvOffset;
  for (const std::string& key : keys) {
    FnvMix(&h, key.data(), key.size());
    const char sep = '\n';
    FnvMix(&h, &sep, 1);
  }
  return h;
}

ProblemFingerprint FingerprintProblem(uint64_t dataset_fp,
                                      uint64_t constraint_hash,
                                      const OptProblem& problem) {
  ProblemFingerprint fp;
  fp.dataset_fp = dataset_fp;
  uint64_t h = kFnvOffset;
  FnvMix(&h, &constraint_hash, sizeof(constraint_hash));
  // ε triple, bit patterns (a solver-visible parameter change must miss).
  FnvMix(&h, &problem.eps.tie_eps, sizeof(double));
  FnvMix(&h, &problem.eps.eps1, sizeof(double));
  FnvMix(&h, &problem.eps.eps2, sizeof(double));
  // Objective: kind + the integral penalty ladder.
  const int kind = static_cast<int>(problem.objective.kind);
  FnvMix(&h, &kind, sizeof(kind));
  const int64_t np = static_cast<int64_t>(problem.objective.penalties.size());
  FnvMix(&h, &np, sizeof(np));
  for (long p : problem.objective.penalties) {
    FnvMix(&h, &p, sizeof(p));
  }
  // Position bands, in order (duplicates/reorderings are different scripts
  // but the same feasible set is rare enough not to canonicalize; a false
  // mismatch costs a demotion, never correctness).
  std::vector<std::string> pos_keys;
  pos_keys.reserve(problem.position_constraints.size());
  for (const PositionConstraint& pc : problem.position_constraints) {
    pos_keys.push_back(
        StrFormat("%d %d %d", pc.tuple, pc.min_position, pc.max_position));
  }
  std::sort(pos_keys.begin(), pos_keys.end());
  for (const std::string& key : pos_keys) {
    FnvMix(&h, key.data(), key.size());
  }
  std::vector<std::string> ord_keys;
  ord_keys.reserve(problem.order_constraints.size());
  for (const PairwiseOrderConstraint& oc : problem.order_constraints) {
    ord_keys.push_back(StrFormat("%d %d", oc.above, oc.below));
  }
  std::sort(ord_keys.begin(), ord_keys.end());
  for (const std::string& key : ord_keys) {
    FnvMix(&h, key.data(), key.size());
  }
  fp.problem_fp = h;
  return fp;
}

Result<std::unique_ptr<WarmCache>> WarmCache::Open(const std::string& dir,
                                                   WarmCacheOptions options) {
  const std::string path = dir + "/" + kFileName;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IoError("warm cache open(" + path +
                           "): " + std::strerror(errno));
  }
  std::unique_ptr<WarmCache> cache(new WarmCache(fd, path, options));

  // Load whatever intact history the file holds. Torn/corrupt records are
  // dropped and counted, never fatal: a vandalized cache degrades to fewer
  // warm starts, and the loud stderr line is the operator's cue.
  const FramedReadCounts counts = ReadFramedRecords(
      path, kMagic, [&cache](const std::string& payload) {
        Entry entry;
        if (!ParseEntry(payload, &entry)) return false;
        cache->InsertLocked(entry);  // single-threaded here; lock not needed
        return true;
      });
  cache->stats_.loaded = counts.intact;
  cache->stats_.skipped = counts.skipped;
  cache->stats_.truncated = counts.truncated;
  if (cache->stats_.skipped > 0 || cache->stats_.truncated > 0) {
    std::fprintf(stderr,
                 "rankhow: warm cache %s: dropped %lld corrupt and %lld torn "
                 "record(s); serving the %lld intact one(s)\n",
                 path.c_str(),
                 static_cast<long long>(cache->stats_.skipped),
                 static_cast<long long>(cache->stats_.truncated),
                 static_cast<long long>(cache->stats_.loaded));
  }
  cache->writer_ = std::thread(&WarmCache::WriterLoop, cache.get());
  return cache;
}

WarmCache::WarmCache(int fd, std::string path, WarmCacheOptions options)
    : path_(std::move(path)), options_(options), fd_(fd) {}

WarmCache::~WarmCache() {
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    writer_stop_ = true;
  }
  write_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool WarmCache::InsertLocked(const Entry& entry) {
  if (entry.weights.empty() || entry.error < 0) return false;
  std::vector<Entry>& group = by_dataset_[entry.fp.dataset_fp];
  if (group.empty()) key_order_.push_back(entry.fp.dataset_fp);

  // Dedup against same-fingerprint entries: a re-proof of the same problem
  // with the same weights refreshes in place (an improved error wins).
  int per_key = 0;
  for (Entry& existing : group) {
    if (existing.fp != entry.fp) continue;
    ++per_key;
    if (SameWeights(existing.weights, entry.weights)) {
      if (entry.error < existing.error ||
          (entry.true_semantics && !existing.true_semantics)) {
        existing.error = entry.error;
        existing.true_semantics = entry.true_semantics;
        ++generation_;
        return true;
      }
      return false;  // already known, nothing new to persist
    }
  }
  if (per_key >= options_.max_entries_per_key) {
    // Evict the oldest entry of this exact fingerprint.
    for (auto it = group.begin(); it != group.end(); ++it) {
      if (it->fp == entry.fp) {
        group.erase(it);
        --resident_;
        break;
      }
    }
  }
  group.push_back(entry);
  ++resident_;
  ++generation_;

  // Whole-group eviction at the resident cap (oldest dataset first). Pure
  // warm-start state: dropping entries costs warmth, never correctness.
  while (resident_ > kMaxResidentEntries && key_order_.size() > 1) {
    const uint64_t victim = key_order_.front();
    key_order_.pop_front();
    auto it = by_dataset_.find(victim);
    if (it != by_dataset_.end()) {
      resident_ -= static_cast<int>(it->second.size());
      by_dataset_.erase(it);
    }
  }
  return true;
}

void WarmCache::Publish(const Entry& entry) {
  bool persist = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.published;
    persist = InsertLocked(entry);
  }
  if (!persist) return;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (degraded_ || writer_stop_) return;
    write_queue_.push_back(FormatEntry(entry));
  }
  write_cv_.notify_one();
  if (options_.synchronous_appends) Flush();
}

WarmCache::Draw WarmCache::DrawFor(const ProblemFingerprint& fp,
                                   bool gap_semantics) {
  Draw draw;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_dataset_.find(fp.dataset_fp);
  if (it != by_dataset_.end()) {
    for (const Entry& entry : it->second) {
      if (entry.fp == fp) {
        // Exact match: candidate AND (semantics permitting) bound. A
        // true-semantics optimum never exceeds the gap optimum, so it may
        // seed a gap re-solve; the reverse direction is unsound.
        if (entry.true_semantics || gap_semantics) {
          draw.bound = std::max(draw.bound, entry.error);
        }
        draw.exact.push_back(entry);
      } else {
        // Same dataset, different problem: the weight vector is still a
        // plausible warm start (dimensions match by construction), but its
        // recorded error means nothing here. Candidate, never bound.
        draw.candidates.push_back(entry.weights);
      }
    }
  }
  if (!draw.exact.empty()) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  stats_.demotions += static_cast<int64_t>(draw.candidates.size());
  return draw;
}

uint64_t WarmCache::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

void WarmCache::Flush() {
  std::unique_lock<std::mutex> lock(write_mu_);
  drained_cv_.wait(lock, [this] {
    return (write_queue_.empty() && !writer_busy_) || degraded_;
  });
}

WarmCacheStats WarmCache::Stats() const {
  WarmCacheStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats = stats_;
    stats.entries = resident_;
  }
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    stats.degraded = degraded_;
    stats.appended = appended_;
  }
  return stats;
}

void WarmCache::WriterLoop() {
  std::unique_lock<std::mutex> lock(write_mu_);
  while (true) {
    write_cv_.wait(lock,
                   [this] { return writer_stop_ || !write_queue_.empty(); });
    if (write_queue_.empty()) {
      if (writer_stop_) return;
      continue;
    }
    std::vector<std::string> batch(write_queue_.begin(), write_queue_.end());
    write_queue_.clear();
    writer_busy_ = true;
    lock.unlock();
    AppendBatch(batch);
    lock.lock();
    writer_busy_ = false;
    drained_cv_.notify_all();
    if (writer_stop_ && write_queue_.empty()) return;
  }
}

void WarmCache::AppendBatch(const std::vector<std::string>& records) {
  // One write() per record (O_APPEND atomic tail append, like the journal:
  // a crash mid-write leaves at most one torn final record, which Open()
  // truncates away), one fsync per batch.
  std::string failure;
  for (const std::string& payload : records) {
    Result<int64_t> written = AppendFramedRecord(fd_, kMagic, payload);
    if (!written.ok()) {
      failure = written.status().message();
      break;
    }
    std::lock_guard<std::mutex> lock(write_mu_);
    ++appended_;
  }
  if (failure.empty() && ::fsync(fd_) != 0) {
    failure = StrFormat("fsync failed (%s)", std::strerror(errno));
  }
  if (!failure.empty()) {
    // Degrade loudly to cache-off-for-writes: the resident entries keep
    // serving draws, but this process can no longer promise persistence.
    std::fprintf(stderr,
                 "rankhow: warm cache %s %s: degrading to cache-off for "
                 "writes (in-memory warm starts keep serving)\n",
                 path_.c_str(), failure.c_str());
    std::lock_guard<std::mutex> lock(write_mu_);
    degraded_ = true;
    write_queue_.clear();
    drained_cv_.notify_all();
  }
}

}  // namespace rankhow
