#ifndef RANKHOW_COORD_UPSTREAM_H_
#define RANKHOW_COORD_UPSTREAM_H_

/// \file upstream.h
/// The coordinator's half of a proxied worker connection: forward wire
/// lines verbatim, track every in-flight request, and hand the unacked
/// tail to the failover machinery when the worker dies.
///
/// Forward never blocks. It writes to the socket with MSG_DONTWAIT and
/// leaves what the socket does not take in an outbox that the
/// connection's one I/O thread flushes when the socket turns writable.
/// The coordinator forwards from its event loop, so a worker that stops
/// reading stalls only its own entries. If the outbox grows past
/// kMaxOutboxBytes, the worker is treated as dead: the connection breaks
/// and its sessions fail over.
///
/// Response matching leans on two worker invariants (src/server/wire.cc):
///
///   * command responses carry `line=N` where N is the WORKER-side line
///     number of the request — and the coordinator sends exactly one line
///     per ProxyEntry, so its per-connection send counter IS the worker's
///     line counter; `line=N` keys `pending_` directly;
///   * non-command acks (open/close/deadline) are emitted in request
///     order: deadline acks are synchronous in on_message, open/close
///     acks run deferred with the connection's INPUT PAUSED until the
///     deferred work finishes (ReactorConn::Defer), so no later request
///     is even read before the earlier verb's ack is queued. A FIFO of
///     outstanding verb entries therefore matches by shape in order.
///
/// The one ambiguous shape is a bare `err CLIENT msg` (no line=): either
/// a verb failure or a synchronous submit rejection (overload shedding).
/// The verb FIFO gets first claim; otherwise the oldest pending command
/// for that client is charged. Either way the payload is forwarded to
/// the downstream verbatim, so a misattribution under shedding costs
/// bookkeeping accuracy, never protocol bytes.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "coord/shard_map.h"
#include "net/dial.h"
#include "util/status.h"

namespace rankhow {

/// Tracks detached helper threads so CoordServer::Stop can wait for
/// quiescence instead of racing I/O-thread teardown at shutdown.
class ThreadGate {
 public:
  void Enter();
  void Exit();
  /// True when all entered threads exited within timeout_ms.
  bool WaitIdle(int timeout_ms);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int active_ = 0;
};

/// One proxied request: the exact line sent upstream plus the routing
/// metadata needed to deliver (or replay) its response.
struct ProxyEntry {
  enum class Kind { kOpen, kClose, kCommand, kDeadline };

  Kind kind = Kind::kCommand;
  std::string payload;          ///< exact wire line sent to the worker
  std::string client;           ///< owning client ("" for deadline)
  bool is_edit = false;         ///< state-mutating command (not solve)
  bool swallow = false;         ///< coordinator consumes the response
  int64_t downstream_line = 0;  ///< downstream request line (rewritten in)
};

/// A session-traffic connection to one worker. Forward() records the
/// entry and queues its payload; the connection's I/O thread writes the
/// queue out, matches each worker response back to its entry and runs
/// on_response (line numbers already rewritten to downstream numbering).
/// When the connection dies it fires on_broken, and the callee takes the
/// unacked entries with TakeUnacked() — the coordinator replays them onto
/// a replacement worker.
class UpstreamConn : public std::enable_shared_from_this<UpstreamConn> {
 public:
  /// Unwritten bytes a worker may leave in the outbox before the
  /// connection counts as dead (the bound a reactor puts on a client's
  /// outbox by default).
  static constexpr size_t kMaxOutboxBytes = 4u << 20;

  struct Callbacks {
    /// One matched response. Runs on the I/O thread with no
    /// UpstreamConn lock held (it may take downstream locks).
    std::function<void(const ProxyEntry&, const std::string& response)>
        on_response;
    /// Connection death. Not fired after Shutdown(). Runs on the I/O
    /// thread, no lock held; it takes the unacked entries with
    /// TakeUnacked() under the lock that orders it against Forward().
    /// `conn` identifies the dead connection (the coordinator may have
    /// already replaced it in its per-worker table).
    std::function<void(UpstreamConn* conn)> on_broken;
  };

  /// Connects and starts the I/O thread. The thread keeps a shared_ptr
  /// to the connection, so dropping the returned pointer never races it.
  static Result<std::shared_ptr<UpstreamConn>> Dial(const WorkerSpec& worker,
                                                    int dial_timeout_ms,
                                                    Callbacks callbacks,
                                                    ThreadGate* gate);

  ~UpstreamConn() = default;
  UpstreamConn(const UpstreamConn&) = delete;
  UpstreamConn& operator=(const UpstreamConn&) = delete;

  /// Queues `entry.payload` as the connection's next line; never blocks.
  /// False once TakeUnacked() or Shutdown() ran: the entry was NOT
  /// accepted. True means the entry is owned here: it either gets a
  /// response or is in the tail TakeUnacked() returns. A connection that
  /// failed but whose tail is still untaken records the entry without
  /// sending it, so no entry is ever owned twice or dropped.
  bool Forward(ProxyEntry entry);
  /// Marks the connection failed and returns every unanswered entry in
  /// send order; later Forward() calls return false. For on_broken.
  std::vector<ProxyEntry> TakeUnacked();

  bool failed() const;
  const std::string& spec() const { return worker_.spec; }
  const WorkerSpec& worker() const { return worker_; }

  /// Closes the connection without firing on_broken (downstream quit or
  /// abort: the worker's connection-scoped close semantics take over).
  void Shutdown();

 private:
  UpstreamConn(WorkerSpec worker, int fd, int wake_fd)
      : worker_(std::move(worker)), fd_(fd), wake_fd_(wake_fd) {}

  void IoLoop();
  /// Writes what the socket takes without blocking. Called under mu_.
  void FlushLocked();
  /// Stops sending and cuts the socket, so the I/O thread sees EOF and
  /// fires on_broken. Called under mu_.
  void BreakLocked();
  /// Pops the entry a response belongs to. False = unmatchable (logged
  /// and dropped). Called under mu_.
  bool MatchLocked(const std::string& response, ProxyEntry* entry);

  const WorkerSpec worker_;
  Callbacks callbacks_;
  ThreadGate* gate_ = nullptr;

  mutable std::mutex mu_;
  int fd_ = -1;       ///< non-blocking; closed by the I/O thread
  int wake_fd_ = -1;  ///< eventfd: the outbox needs POLLOUT
  std::string outbox_;     ///< queued bytes the socket has not taken
  size_t outbox_off_ = 0;  ///< bytes of outbox_ already written
  int64_t seq_ = 0;  ///< lines sent == worker-side line numbers
  std::map<int64_t, ProxyEntry> pending_;
  std::deque<int64_t> verb_order_;  ///< outstanding non-command seqs
  bool failed_ = false;  ///< no more sends
  bool sealed_ = false;  ///< tail taken or shut down: Forward refuses
  bool shutdown_ = false;
};

}  // namespace rankhow

#endif  // RANKHOW_COORD_UPSTREAM_H_
