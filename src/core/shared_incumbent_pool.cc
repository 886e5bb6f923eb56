#include "core/shared_incumbent_pool.h"

#include "math/simplex_box.h"

namespace rankhow {

namespace {

/// Resident-entry bound; overflow evicts the oldest (pure warm-start
/// heuristics — any policy is sound).
constexpr size_t kCapacity = 32;

}  // namespace

void SharedIncumbentPool::Publish(const void* snapshot_id,
                                  const void* publisher,
                                  const std::vector<double>& weights,
                                  long error) {
  if (weights.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++published_;
  for (Entry& have : entries_) {
    if (have.snapshot == snapshot_id && SameWeights(have.weights, weights)) {
      // Re-proven vector: refresh credentials in place. The sequence stays
      // put — siblings that saw it once must not re-validate it per solve.
      have.error = error;
      have.publisher = publisher;
      return;
    }
  }
  Entry entry;
  entry.snapshot = snapshot_id;
  entry.publisher = publisher;
  entry.weights = weights;
  entry.error = error;
  entry.seq = next_seq_++;
  entries_.push_back(std::move(entry));
  if (entries_.size() > kCapacity) entries_.erase(entries_.begin());
}

void SharedIncumbentPool::CollectNew(
    const void* snapshot_id, const void* drawer, uint64_t* seen_seq,
    std::vector<std::vector<double>>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& entry : entries_) {
    if (entry.seq <= *seen_seq) continue;
    if (entry.snapshot != snapshot_id || entry.publisher == drawer) continue;
    out->push_back(entry.weights);
    ++drawn_;
  }
  *seen_seq = next_seq_ - 1;
}

SharedIncumbentPoolStats SharedIncumbentPool::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SharedIncumbentPoolStats stats;
  stats.published = published_;
  stats.drawn = drawn_;
  return stats;
}

}  // namespace rankhow
