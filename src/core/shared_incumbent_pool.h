#ifndef RANKHOW_CORE_SHARED_INCUMBENT_POOL_H_
#define RANKHOW_CORE_SHARED_INCUMBENT_POOL_H_

/// \file shared_incumbent_pool.h
/// The registry-level cross-client incumbent pool (ROADMAP's "cross-client
/// incumbent sharing"; see DESIGN.md "Network transport & routing").
///
/// Shape: N clients solve over ONE immutable dataset snapshot with
/// overlapping constraint sets — the classic what-if crowd, where many
/// clients probe the same region of weight space. Each client's
/// SolveSession already pools its *own* winners; this pool lets sessions
/// share them: a session publishes every proven winner here, and every
/// solve draws the entries its siblings published since its last draw.
///
/// Soundness is inherited, not re-argued: a drawn entry enters the drawing
/// session exactly where its own pool entries do — as a *candidate* for
/// `RevalidateIncumbents`, re-evaluated under the drawing session's current
/// problem before any use. A stale or cross-constrained entry costs one
/// evaluation, never correctness, and no bound information crosses clients
/// (proven bounds stay per-session, where the tighten-only rule that makes
/// them sound is enforceable).
///
/// Entries are tagged with the snapshot id they were proven over, and draws
/// filter on the drawer's current snapshot: a client that COW-forked its
/// dataset stops matching the base snapshot's entries (they would merely
/// waste revalidation time — the filter is an optimization, not a soundness
/// requirement). Draws are *revision-checked*: every entry carries a
/// monotonic sequence number and each session remembers the last sequence
/// it drew, so an unchanged pool costs one atomic read per solve and a
/// session never re-validates an entry it has already seen (a drawn entry
/// that proved useful re-enters through the session's own pool).
///
/// Thread-safety: fully internally locked — sessions on different registry
/// strands publish and draw concurrently. The pool must outlive every
/// session pointed at it (the registry owns both and destroys sessions
/// first).

#include <cstdint>
#include <mutex>
#include <vector>

namespace rankhow {

/// The pool's own traffic counters (snapshot; registry Stats() and the
/// wire `stats` verb read them here).
struct SharedIncumbentPoolStats {
  int64_t published = 0;
  int64_t drawn = 0;
};

class SharedIncumbentPool {
 public:
  SharedIncumbentPool() = default;
  SharedIncumbentPool(const SharedIncumbentPool&) = delete;
  SharedIncumbentPool& operator=(const SharedIncumbentPool&) = delete;

  /// Publishes a proven winner found over `snapshot_id` by `publisher` (an
  /// opaque session token used so a session never re-draws its own
  /// entries). `error` is the proven objective at publication time — a
  /// hint for diagnostics only; drawers re-evaluate under their own
  /// problem. A duplicate weight vector over the same snapshot refreshes
  /// the existing entry in place without bumping its sequence (so sibling
  /// sessions are not woken for a vector they already saw).
  void Publish(const void* snapshot_id, const void* publisher,
               const std::vector<double>& weights, long error);

  /// Appends to `*out` every entry over `snapshot_id` published by someone
  /// other than `drawer` with sequence > `*seen_seq`, then advances
  /// `*seen_seq` to the pool's current sequence.
  void CollectNew(const void* snapshot_id, const void* drawer,
                  uint64_t* seen_seq,
                  std::vector<std::vector<double>>* out) const;

  SharedIncumbentPoolStats Stats() const;

 private:
  struct Entry {
    const void* snapshot = nullptr;
    const void* publisher = nullptr;
    std::vector<double> weights;
    long error = -1;
    uint64_t seq = 0;
  };

  mutable std::mutex mu_;
  std::vector<Entry> entries_;  // publication order (oldest first)
  uint64_t next_seq_ = 1;
  mutable int64_t drawn_ = 0;
  int64_t published_ = 0;
};

}  // namespace rankhow

#endif  // RANKHOW_CORE_SHARED_INCUMBENT_POOL_H_
