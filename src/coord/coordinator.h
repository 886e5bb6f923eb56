#ifndef RANKHOW_COORD_COORDINATOR_H_
#define RANKHOW_COORD_COORDINATOR_H_

/// \file coordinator.h
/// CoordServer: the shard coordinator behind `rankhow_coord`. Accepts
/// wire-protocol connections (docs/PROTOCOL.md — clients see the exact
/// worker protocol, including framing negotiation), routes each `open` to
/// a worker by the catalog shard map, proxies session traffic verbatim
/// over per-worker upstream connections, health-checks the fleet, and
/// fails sessions over by replaying their acked edit scripts onto a
/// replacement worker.
///
/// Architecture (DESIGN.md "Shard coordinator"): client connections run
/// on the same epoll reactor as the workers (net/reactor.h) with one
/// event loop, so the thread set is fixed however many clients connect:
/// the accept thread, the loop, the ops thread (the blocking verbs `open`,
/// `stats` and `metrics`, deferred with the connection's input paused)
/// and the supervisor's probe thread (coord/health.h). Each upstream
/// worker connection keeps one detached I/O thread (coord/upstream.h),
/// tracked by a ThreadGate so Stop() waits for quiescence; forwarding
/// never blocks the loop, because an upstream's writes that its socket
/// does not take wait in that connection's outbox.
///
/// Transparency contract, in brief:
///   * parse errors, unknown-client, duplicate-open, `deadline`, and
///     `frame` are answered locally with byte-identical worker texts —
///     line numbers and deadlines are per-downstream-connection state the
///     workers must not see doubled;
///   * `open`/`close`/commands forward verbatim; command responses get
///     their `line=` rewritten from worker numbering to downstream
///     numbering (the only byte the coordinator changes);
///   * `stats`/`metrics` scatter-gather across up workers into one
///     aggregated line (AggregateFieldLines, util/histogram.h: each field
///     merges by its declared kind — counters and gauges sum, high-water
///     marks and degraded flags take the max, latency histograms merge
///     bucket-wise) plus `coord_*` fields and a per-worker up/down
///     breakdown;
///   * worker death: each affected session's acked edits (captured
///     coordinator-side, mirroring the journal's acked ⊆ journaled
///     invariant) replay onto a replacement, followed by its unacked
///     requests, which include the commands forwarded to the dead
///     connection before failover took its tail (recorded there unsent,
///     never polled); a subsequent `open` of that client answers
///     `ok open C DATASET recovered`, the same adoption suffix a
///     journal-recovered worker uses;
///   * a client that stops reading is abort-closed by the reactor's
///     backpressure, exactly like a worker's.

#include <atomic>
#include <memory>
#include <string>

#include "coord/health.h"
#include "coord/shard_map.h"
#include "coord/upstream.h"
#include "net/reactor.h"
#include "util/status.h"

namespace rankhow {

struct CoordOptions {
  HealthOptions health;
};

/// Monotonic counters, exposed on the aggregated `stats` line as
/// `coord_*` fields and to tests via CoordServer::counters().
struct CoordCounters {
  long long sessions_opened = 0;    ///< opens routed to a worker
  long long commands_proxied = 0;   ///< command lines forwarded
  long long failovers = 0;          ///< worker deaths with live sessions
  long long failover_sessions = 0;  ///< sessions moved to a replacement
  long long failover_failures = 0;  ///< sessions dropped (no replacement)
  long long replayed_edits = 0;     ///< acked edits replayed on failover
  long long replay_errors = 0;      ///< replayed lines a replacement erred
};

class CoordServer {
 public:
  CoordServer(ShardMap shard_map, CoordOptions options);
  ~CoordServer();

  CoordServer(const CoordServer&) = delete;
  CoordServer& operator=(const CoordServer&) = delete;

  /// Binds `listen`, starts the reactor and the supervisor.
  Status Start(const ListenAddress& listen);
  /// Stops accepting, aborts live downstreams (workers abort-close their
  /// clients, exactly as if those connections died), waits for threads.
  void Stop();

  const ListenAddress& bound() const { return reactor_->bound(); }
  std::string bound_spec() const { return reactor_->bound_spec(); }

  ShardMap& shard_map() { return shard_map_; }
  WorkerSupervisor& supervisor() { return *supervisor_; }
  CoordCounters counters() const;

 private:
  class Downstream;

  ShardMap shard_map_;
  CoordOptions options_;
  std::unique_ptr<WorkerSupervisor> supervisor_;
  ThreadGate gate_;  ///< upstream I/O threads
  std::unique_ptr<ReactorServer> reactor_;

  std::atomic<long long> c_sessions_opened_{0};
  std::atomic<long long> c_commands_proxied_{0};
  std::atomic<long long> c_failovers_{0};
  std::atomic<long long> c_failover_sessions_{0};
  std::atomic<long long> c_failover_failures_{0};
  std::atomic<long long> c_replayed_edits_{0};
  std::atomic<long long> c_replay_errors_{0};
};

}  // namespace rankhow

#endif  // RANKHOW_COORD_COORDINATOR_H_
