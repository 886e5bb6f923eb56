#ifndef RANKHOW_CORE_SEARCH_COORDINATOR_H_
#define RANKHOW_CORE_SEARCH_COORDINATOR_H_

/// \file search_coordinator.h
/// Shared state for one parallel exact search (see DESIGN.md "Parallel
/// search architecture"), and the worker loop that drives it. Three pieces:
///
///  * `SearchCoordinator` — the global incumbent (installed with
///    compare-and-swap semantics under a mutex: objectives here are exact
///    integers stored in double, so the compare is exact arithmetic, not a
///    floating-point tolerance dance), the shared wall-clock deadline, and
///    cooperative stop/error propagation. Workers read the incumbent
///    objective lock-free (a stale read only delays a prune — soundness
///    never depends on freshness, because incumbents only improve).
///
///  * `ShardedFrontier<Node, Order>` — the open-node pool. Each shard is an
///    independently locked best-first heap; pushes spread round-robin and
///    pops take the best of the shard tops, so workers contend on 1/K of
///    the frontier instead of one global heap. Pop blocks until a node is
///    available and returns nullopt exactly when the search is over: a stop
///    was requested, or the frontier is empty while no worker is busy (no
///    new nodes can appear). With one shard and one worker the pop sequence
///    is identical to a plain std::priority_queue — the serial search is
///    the K = W = 1 special case of the parallel one, not a separate code
///    path.
///
///  * `RunBestFirstWorkers` — the one worker loop of both exact searches
///    (the indicator MILP's branch-and-bound and the spatial B&B): stop,
///    pop, cap, prune, process, balance. An engine supplies only its
///    per-worker setup, its per-node function and its prune margin.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <queue>
#include <vector>

#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rankhow {

/// Global incumbent + deadline + stop/error hub shared by the workers of
/// one search. Thread-safe.
class SearchCoordinator {
 public:
  /// `improvement_tol`: a candidate is installed iff its objective is
  /// strictly below best − improvement_tol at install time (the MILP path
  /// passes its kAbsGap; the spatial path passes 0 — its objectives are
  /// integral longs, so strict `<` is exact). `external_cancel`, when
  /// non-null, is an owner-held cooperative cancel flag (a session server
  /// client's): workers poll it alongside the deadline and treat a set flag
  /// exactly like deadline expiry — wind down within one node and report
  /// the result as budget-limited, never proven. The flag must outlive the
  /// search.
  SearchCoordinator(double time_limit_seconds, double improvement_tol,
                    const std::atomic<bool>* external_cancel = nullptr)
      : deadline_(time_limit_seconds),
        improvement_tol_(improvement_tol),
        external_cancel_(external_cancel) {}

  const Deadline& deadline() const { return deadline_; }

  /// True when the owner cancelled the search from outside (relaxed load:
  /// like a stale incumbent read, a late observation only delays the wind
  /// down by a node, never soundness).
  bool ExternalCancelRequested() const {
    return external_cancel_ != nullptr &&
           external_cancel_->load(std::memory_order_relaxed);
  }

  /// Lock-free incumbent objective snapshot (+inf = none). May be stale by
  /// one install — stale is always on the conservative (higher) side.
  double best_objective() const {
    return best_objective_.load(std::memory_order_acquire);
  }

  /// Seeds the incumbent before workers start (no locking needed yet).
  void SeedIncumbent(double objective, std::vector<double> values) {
    best_objective_.store(objective, std::memory_order_release);
    best_values_ = std::move(values);
  }

  /// Compare-and-swap install: re-checks `objective < best − tol` under the
  /// mutex so two workers racing the same improvement install exactly one.
  /// Returns whether this call won.
  bool OfferIncumbent(double objective, const std::vector<double>& values);

  /// The values of the winning incumbent (copy; call after workers joined
  /// or accept a consistent-but-racing snapshot).
  std::vector<double> incumbent_values() const;

  int64_t incumbent_updates() const {
    return incumbent_updates_.load(std::memory_order_relaxed);
  }

  /// A worker hit the node cap or the deadline: the final result must be
  /// reported as budget-limited, not proven.
  void RequestLimitStop() {
    limit_stop_.store(true, std::memory_order_release);
  }
  bool limit_stop() const {
    return limit_stop_.load(std::memory_order_acquire);
  }

  /// First hard error wins; every later worker sees StopRequested.
  void ReportError(const Status& status);
  bool has_error() const {
    return error_stop_.load(std::memory_order_acquire);
  }
  Status first_error() const;

  bool StopRequested() const { return limit_stop() || has_error(); }

 private:
  Deadline deadline_;
  double improvement_tol_;
  const std::atomic<bool>* external_cancel_ = nullptr;
  mutable std::mutex mu_;
  std::atomic<double> best_objective_{std::numeric_limits<double>::infinity()};
  std::vector<double> best_values_;
  std::atomic<int64_t> incumbent_updates_{0};
  std::atomic<bool> limit_stop_{false};
  std::atomic<bool> error_stop_{false};
  Status first_error_ = Status::OK();
};

/// Best-first open-node pool, sharded for contention. `Node` must expose
/// `double frontier_bound() const` (the subtree lower bound, used for the
/// best-of-tops pop heuristic and the final global-bound accounting);
/// `Order` is the per-shard heap comparator (std::priority_queue
/// convention).
///
/// Protocol: every successful Pop MUST be balanced by exactly one Done()
/// after the node's children (if any) were pushed — the busy count is how
/// the frontier distinguishes "momentarily empty" from "search exhausted".
template <typename Node, typename Order>
class ShardedFrontier {
 public:
  explicit ShardedFrontier(int num_shards)
      : shards_(std::max(1, num_shards)) {}

  void Push(Node node) {
    const size_t shard =
        next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
    {
      std::lock_guard<std::mutex> lock(shards_[shard].mu);
      shards_[shard].heap.push(std::move(node));
    }
    state_.fetch_add(kSizeUnit, std::memory_order_acq_rel);
    cv_.notify_one();
  }

  /// Blocks until a node is available (marking the caller busy), the
  /// search is exhausted, or a stop was requested (the latter two return
  /// nullopt). Best-of-tops selection: the returned node is the best among
  /// the shard tops at scan time — not necessarily the global best, which
  /// is fine: best-first order is a search heuristic, never a soundness
  /// requirement.
  std::optional<Node> Pop() {
    for (;;) {
      if (stop_.load(std::memory_order_acquire)) return std::nullopt;
      const int64_t state = state_.load(std::memory_order_acquire);
      if (SizeOf(state) > 0) {
        std::optional<Node> node = TryPopBest();
        if (node.has_value()) return node;
        continue;  // raced with another popper; rescan
      }
      if (BusyOf(state) == 0) {
        // The single packed load read size == 0 AND busy == 0 together:
        // no node exists and none is in flight anywhere, so none can ever
        // appear (pops move size→busy in one RMW; pushes only happen from
        // busy workers). Exhausted. Two separate counters could not give
        // this guarantee — a concurrent pop's busy++/size-- pair could
        // split across the two reads.
        cv_.notify_all();  // wake siblings so they observe exhaustion too
        return std::nullopt;
      }
      std::unique_lock<std::mutex> lock(mu_);
      if (stop_.load(std::memory_order_acquire)) return std::nullopt;
      if (state_.load(std::memory_order_acquire) == state) {
        // Timed wait: pushes signal without holding mu_, so a notification
        // can slip between the state check and the wait. The timeout turns
        // that race into bounded latency instead of a stall.
        cv_.wait_for(lock, std::chrono::milliseconds(2));
      }
    }
  }

  /// Balances a successful Pop (call after pushing the node's children).
  void Done() {
    state_.fetch_sub(kBusyUnit, std::memory_order_acq_rel);
    cv_.notify_all();
  }

  /// Cooperative cancel: every current and future Pop returns nullopt.
  /// Pushes stay allowed — a stopping worker re-pushes its unfinished node
  /// so the final bound accounting sees it.
  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    cv_.notify_all();
  }
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  bool Empty() const {
    return SizeOf(state_.load(std::memory_order_acquire)) == 0;
  }

  /// Min frontier_bound over all remaining nodes' *heap tops* (each shard
  /// heap's top is its shard minimum under best-first Order); +inf when
  /// empty. Call after workers joined.
  double MinBound() {
    double best = std::numeric_limits<double>::infinity();
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (!shard.heap.empty()) {
        best = std::min(best, shard.heap.top().frontier_bound());
      }
    }
    return best;
  }

 private:
  struct Shard {
    std::mutex mu;
    std::priority_queue<Node, std::vector<Node>, Order> heap;
  };

  /// Scans shard tops, then pops from the shard whose top looked best.
  /// Returns nullopt when every shard turned out empty.
  std::optional<Node> TryPopBest() {
    int best_shard = -1;
    double best_key = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < shards_.size(); ++i) {
      std::lock_guard<std::mutex> lock(shards_[i].mu);
      if (shards_[i].heap.empty()) continue;
      double key = shards_[i].heap.top().frontier_bound();
      if (best_shard < 0 || key < best_key) {
        best_shard = static_cast<int>(i);
        best_key = key;
      }
    }
    if (best_shard < 0) return std::nullopt;
    std::lock_guard<std::mutex> lock(shards_[best_shard].mu);
    if (shards_[best_shard].heap.empty()) return std::nullopt;
    // size→busy in ONE atomic RMW: siblings must never observe "empty and
    // nobody busy" while this node is in flight, or they would report
    // exhaustion and retire early (with two counters the pair of updates
    // could split across a sibling's two reads, whatever their order).
    state_.fetch_add(kBusyUnit - kSizeUnit, std::memory_order_acq_rel);
    // const_cast-free move-out: top() is const, so copy-pop. Nodes are
    // cheap to copy (shared_ptr row sets / small vectors).
    Node node = shards_[best_shard].heap.top();
    shards_[best_shard].heap.pop();
    return node;
  }

  /// Frontier accounting packed into one atomic: size in the high 32 bits,
  /// busy (pops not yet Done'd) in the low 32. A pop converts size→busy in
  /// a single RMW, so any single load sees a consistent (size, busy) pair —
  /// the exhaustion invariant "size == 0 ∧ busy == 0 ⇒ no node can ever
  /// appear" needs exactly that consistency.
  static constexpr int64_t kSizeUnit = int64_t{1} << 32;
  static constexpr int64_t kBusyUnit = 1;
  static int64_t SizeOf(int64_t state) { return state >> 32; }
  static int BusyOf(int64_t state) {
    return static_cast<int>(state & 0xffffffff);
  }

  std::vector<Shard> shards_;
  std::atomic<size_t> next_shard_{0};
  std::atomic<int64_t> state_{0};
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable cv_;
};

/// What one best-first run counted: the nodes handed to `process`, and the
/// nodes discarded at pop because their bound could not beat the incumbent.
struct BestFirstCounts {
  int64_t explored = 0;
  int64_t pruned_at_pop = 0;
};

/// Runs `num_workers` workers over `frontier` until it is exhausted or a
/// stop is requested: worker 0 on the calling thread, the others on a pool
/// of num_workers − 1 threads. Worker w calls `setup(w)` once on its own
/// thread, then loops:
///  * a passed deadline or an external cancel stops every worker, and the
///    result is budget-limited, never proven;
///  * once `max_nodes` nodes were explored (0 = no cap), the popped node is
///    pushed back, so the final bound accounting sees it, and the run stops
///    the same way;
///  * a node whose bound is >= incumbent − `prune_margin` is discarded. A
///    single worker just popped the global frontier minimum, so everything
///    left is equally prunable and the search is over. With several workers
///    that inference is unsound (best-of-tops pops are approximate and a
///    sibling mid-node may still push better-bounded children), so they
///    drain their shards instead;
///  * otherwise `process(w, node)` explores the node, pushing its children.
/// Every successful pop is balanced by one Done().
template <typename Node, typename Order, typename Setup, typename Process>
BestFirstCounts RunBestFirstWorkers(SearchCoordinator& coordinator,
                                    ShardedFrontier<Node, Order>& frontier,
                                    int num_workers, int64_t max_nodes,
                                    double prune_margin, Setup setup,
                                    Process process) {
  std::atomic<int64_t> explored{0};
  std::atomic<int64_t> pruned_at_pop{0};
  auto stop_at_limit = [&] {
    coordinator.RequestLimitStop();
    frontier.RequestStop();
  };
  auto run_worker = [&](int w) {
    setup(w);
    int64_t pruned = 0;
    while (!coordinator.StopRequested()) {
      if (coordinator.deadline().Expired() ||
          coordinator.ExternalCancelRequested()) {
        stop_at_limit();
        break;
      }
      std::optional<Node> node = frontier.Pop();
      if (!node.has_value()) break;  // exhausted or stopped
      if (max_nodes > 0 &&
          explored.load(std::memory_order_relaxed) >= max_nodes) {
        frontier.Push(std::move(*node));
        frontier.Done();
        stop_at_limit();
        break;
      }
      if (node->frontier_bound() >=
          coordinator.best_objective() - prune_margin) {
        ++pruned;
        frontier.Done();
        if (num_workers == 1) {
          frontier.RequestStop();  // completion — not a limit stop
          break;
        }
        continue;
      }
      explored.fetch_add(1, std::memory_order_relaxed);
      process(w, std::move(*node));
      frontier.Done();
    }
    pruned_at_pop.fetch_add(pruned, std::memory_order_relaxed);
  };
  if (num_workers == 1) {
    run_worker(0);
  } else {
    ThreadPool pool(num_workers - 1);
    TaskGroup group(&pool);
    for (int w = 1; w < num_workers; ++w) {
      group.Spawn([&run_worker, w] { run_worker(w); });
    }
    run_worker(0);
    group.Wait();
  }
  return {explored.load(), pruned_at_pop.load()};
}

}  // namespace rankhow

#endif  // RANKHOW_CORE_SEARCH_COORDINATOR_H_
