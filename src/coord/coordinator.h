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
/// Architecture (DESIGN.md "Shard coordinator"): one accept thread, one
/// session thread per downstream connection (a coordinator fronts tens of
/// analysts, not the reactor's ten thousand idle sockets), one detached
/// reader thread per upstream connection (coord/upstream.h), and the
/// supervisor's probe thread (coord/health.h). All are tracked by a
/// ThreadGate so Stop() waits for quiescence.
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
///     invariant) replay onto a replacement; a subsequent `open` of that
///     client answers `ok open C DATASET recovered`, the same adoption
///     suffix a journal-recovered worker uses.

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "coord/health.h"
#include "coord/shard_map.h"
#include "coord/upstream.h"
#include "net/socket_server.h"
#include "util/status.h"

namespace rankhow {

struct CoordOptions {
  HealthOptions health;
};

/// Monotonic counters, exposed on the aggregated `stats` line as
/// `coord_*` fields and to tests via CoordServer::counters().
struct CoordCounters {
  long long connections = 0;        ///< downstream connections accepted
  long long sessions_opened = 0;    ///< opens routed to a worker
  long long commands_proxied = 0;   ///< command lines forwarded
  long long local_errors = 0;       ///< requests answered err locally
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

  /// Binds `listen`, starts the supervisor and the accept thread.
  Status Start(const ListenAddress& listen);
  /// Stops accepting, aborts live downstreams (workers abort-close their
  /// clients, exactly as if those connections died), waits for threads.
  void Stop();

  const ListenAddress& bound() const { return bound_; }
  std::string bound_spec() const { return ListenSpecString(bound_); }

  ShardMap& shard_map() { return shard_map_; }
  WorkerSupervisor& supervisor() { return *supervisor_; }
  CoordCounters counters() const;

 private:
  class Downstream;

  void AcceptLoop();
  void RemoveDownstream(Downstream* key);

  ShardMap shard_map_;
  CoordOptions options_;
  std::unique_ptr<WorkerSupervisor> supervisor_;
  ThreadGate gate_;

  ListenAddress bound_;
  std::string unlink_path_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::mutex downstreams_mu_;
  std::map<Downstream*, std::shared_ptr<Downstream>> downstreams_;

  std::atomic<long long> c_connections_{0};
  std::atomic<long long> c_sessions_opened_{0};
  std::atomic<long long> c_commands_proxied_{0};
  std::atomic<long long> c_local_errors_{0};
  std::atomic<long long> c_failovers_{0};
  std::atomic<long long> c_failover_sessions_{0};
  std::atomic<long long> c_failover_failures_{0};
  std::atomic<long long> c_replayed_edits_{0};
  std::atomic<long long> c_replay_errors_{0};
};

}  // namespace rankhow

#endif  // RANKHOW_COORD_COORDINATOR_H_
