#include "net/reactor.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/histogram.h"

namespace rankhow {

namespace {

/// The loop currently running on this thread, for Send()'s inline-flush
/// fast path (a loop-thread Send skips the eventfd round trip).
thread_local void* t_current_loop = nullptr;

/// Cap on a graceful close flushing its final bytes.
constexpr int kDrainDeadlineSeconds = 10;

}  // namespace

const char* CloseReasonName(CloseReason reason) {
  switch (reason) {
    case CloseReason::kEof: return "eof";
    case CloseReason::kProtocolError: return "protocol_error";
    case CloseReason::kIdleTimeout: return "idle_timeout";
    case CloseReason::kBackpressure: return "backpressure";
    case CloseReason::kLocalClose: return "local_close";
    case CloseReason::kServerStop: return "server_stop";
  }
  return "?";
}

struct ReactorServer::Loop {
  int index = 0;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;

  std::mutex ops_mu;
  std::vector<std::function<void()>> ops;  ///< FIFO, run a batch at a time

  // -------- loop-thread-only --------
  std::unordered_map<int, ConnPtr> conns;  // fd -> connection
  /// Connections closed during the current event batch, kept alive so
  /// stale epoll events in the same batch can still dereference their
  /// data.ptr (they see closed_ and bail). Cleared per iteration.
  std::vector<ConnPtr> graveyard;
  bool stop = false;
  int64_t now_tick = 0;  ///< coarse seconds since server start
  int64_t last_sweep_tick = -1;
};

// ---------------------------------------------------------------------------
// ReactorConn
// ---------------------------------------------------------------------------

bool ReactorConn::Send(const std::string& payload) {
  return Queue(payload, nullptr);
}

void ReactorConn::SwitchMode(FrameMode mode, const std::string& ack) {
  decoder_.set_mode(mode);
  (void)Queue(ack, &mode);
}

bool ReactorConn::Queue(const std::string& payload,
                        const FrameMode* switch_to) {
  ServerMetrics* metrics = server_->options_.metrics;
  bool kick = false;
  bool trip = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closing_ || drain_requested_) return false;
    const bool idle = outbox_off_ == outbox_.size();
    EncodeFrame(send_mode_, payload, &outbox_);
    if (switch_to != nullptr) send_mode_ = *switch_to;
    if (metrics != nullptr) {
      ServerMetrics::RaisePeak(
          metrics->writes_queued_peak,
          static_cast<int64_t>(outbox_.size() - outbox_off_));
    }
    if (idle) {
      // Nothing queued ahead: write from this thread, no loop round trip.
      // The fd is open while closing_ is false under this lock (CloseConn
      // sets it before close). A remainder or an error goes to the loop.
      const size_t pending = outbox_.size() - outbox_off_;
      const ssize_t n = ::send(fd_, outbox_.data() + outbox_off_, pending,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) outbox_off_ += static_cast<size_t>(n);
      if (n > 0 && static_cast<size_t>(n) < pending && metrics != nullptr) {
        metrics->writes_retried.fetch_add(1, std::memory_order_relaxed);
      }
      if (outbox_off_ == outbox_.size()) {
        outbox_.clear();
        outbox_off_ = 0;
        return true;
      }
    }
    const size_t queued = outbox_.size() - outbox_off_;
    if (queued > server_->options_.max_conn_buffer) {
      // The peer stopped reading. Reject further sends right here (under
      // the same lock that accepted this one) so the queue stops growing,
      // and let the owning loop do the accounting and the fd close.
      closing_ = true;
      trip = true;
    } else if (!kick_pending_) {
      kick_pending_ = true;
      kick = true;
    }
  }
  ReactorServer::Loop* loop = server_->loops_[loop_index_].get();
  if (trip) {
    auto self = shared_from_this();
    server_->PostToLoop(*loop, [this, self, loop] {
      if (!closed_) {
        server_->CloseConn(*loop, self, CloseReason::kBackpressure);
      }
    });
    return false;
  }
  if (kick) {
    if (t_current_loop == loop) {
      // Already on the owning loop thread (a cheap verb answered inline):
      // flush now, no wake round trip.
      {
        std::lock_guard<std::mutex> lock(mu_);
        kick_pending_ = false;
      }
      server_->FlushConn(*loop, shared_from_this());
    } else {
      auto self = shared_from_this();
      server_->PostToLoop(*loop, [this, self, loop] {
        {
          std::lock_guard<std::mutex> lock(mu_);
          kick_pending_ = false;
        }
        if (!closed_) server_->FlushConn(*loop, self);
      });
    }
  }
  return true;
}

void ReactorConn::Defer(std::function<void()> fn) {
  // on_message runs on the owning loop thread, so the loop-thread fields
  // are ours to touch here.
  ReactorServer::Loop* loop = server_->loops_[loop_index_].get();
  paused_ = true;
  server_->UpdateEpoll(*loop, *this);
  auto self = shared_from_this();
  server_->PostToOps([this, self, loop, fn = std::move(fn)] {
    fn();
    server_->PostToLoop(*loop, [this, self, loop] {
      if (closed_) return;
      bool draining;
      {
        std::lock_guard<std::mutex> lock(mu_);
        draining = drain_requested_ || closing_;
      }
      if (draining) return;  // a Close() raced in; input stays off
      paused_ = false;
      server_->UpdateEpoll(*loop, *this);
      server_->DrainMessages(*loop, self);
    });
  });
}

void ReactorConn::EndInput(int seconds) {
  // on_message runs on the owning loop thread, so the loop-thread fields
  // are ours to touch here. Nothing resumes input after this.
  ReactorServer::Loop* loop = server_->loops_[loop_index_].get();
  paused_ = true;
  drain_deadline_tick_ = loop->now_tick + seconds;
  server_->UpdateEpoll(*loop, *this);
}

void ReactorConn::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closing_ || drain_requested_) return;
    drain_requested_ = true;
  }
  ReactorServer::Loop* loop = server_->loops_[loop_index_].get();
  auto self = shared_from_this();
  server_->PostToLoop(*loop, [this, self, loop] {
    if (!closed_) server_->BeginDrain(*loop, self);
  });
}

// ---------------------------------------------------------------------------
// ReactorServer
// ---------------------------------------------------------------------------

ReactorServer::ReactorServer(ReactorCallbacks callbacks,
                             ReactorOptions options)
    : callbacks_(std::move(callbacks)), options_(std::move(options)) {}

ReactorServer::~ReactorServer() { Stop(); }

Status ReactorServer::Start(const ListenAddress& address) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return Status::Invalid("server already started");
  }
  auto fd = OpenListenSocket(address, &bound_, &unlink_path_);
  if (!fd.ok()) return fd.status();
  listen_fd_ = *fd;

  int num_loops = options_.num_loops;
  if (num_loops <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    num_loops = static_cast<int>(std::min(4u, std::max(1u, hw)));
  }
  for (int i = 0; i < num_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->index = i;
    loop->epoll_fd = ::epoll_create1(0);
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (loop->epoll_fd < 0 || loop->wake_fd < 0) {
      Status status = Status::IoError("epoll/eventfd: " +
                                      std::string(std::strerror(errno)));
      if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
      if (loop->wake_fd >= 0) ::close(loop->wake_fd);
      for (auto& l : loops_) {
        ::close(l->epoll_fd);
        ::close(l->wake_fd);
      }
      loops_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // nullptr marks the wake eventfd
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    loops_.push_back(std::move(loop));
  }
  for (auto& loop : loops_) {
    Loop* l = loop.get();
    l->thread = std::thread([this, l] { RunLoop(*l); });
  }
  ops_thread_ = std::thread([this] { OpsLoop(); });
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
  }
  return Status();
}

int ReactorServer::connections_accepted() const {
  return next_conn_id_.load(std::memory_order_relaxed);
}

void ReactorServer::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_cv_.wait(lock, [this] { return !started_ || stopped_; });
}

void ReactorServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
  }
  // 1. Stop accepting: shutdown unblocks the parked accept; the fd stays
  //    open until the thread joined so the descriptor can't be recycled
  //    under an in-flight accept call.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // 2. Each loop closes its connections (teardowns land on the ops queue)
  //    and exits.
  for (auto& loop : loops_) {
    Loop* l = loop.get();
    PostToLoop(*l, [this, l] {
      std::vector<ConnPtr> live;
      live.reserve(l->conns.size());
      for (const auto& [fd, conn] : l->conns) live.push_back(conn);
      for (const ConnPtr& conn : live) {
        CloseConn(*l, conn, CloseReason::kServerStop);
      }
      l->stop = true;
    });
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // 3. The ops thread drains the remaining teardowns, then exits.
  {
    std::lock_guard<std::mutex> lock(ops_mu_);
    ops_stop_ = true;
  }
  ops_cv_.notify_all();
  if (ops_thread_.joinable()) ops_thread_.join();
  for (auto& loop : loops_) {
    ::close(loop->epoll_fd);
    ::close(loop->wake_fd);
  }
  if (!unlink_path_.empty()) {
    ::unlink(unlink_path_.c_str());
    unlink_path_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  stop_cv_.notify_all();
}

void ReactorServer::WakeLoop(Loop& loop) {
  uint64_t one = 1;
  ssize_t n = ::write(loop.wake_fd, &one, sizeof(one));
  (void)n;  // EAGAIN means a wake is already pending — good enough
}

void ReactorServer::PostToLoop(Loop& loop, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(loop.ops_mu);
    loop.ops.push_back(std::move(fn));
  }
  WakeLoop(loop);
}

void ReactorServer::PostToOps(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(ops_mu_);
    ops_queue_.push_back(std::move(fn));
  }
  ops_cv_.notify_one();
}

void ReactorServer::OpsLoop() {
  for (;;) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(ops_mu_);
      ops_cv_.wait(lock, [this] { return ops_stop_ || !ops_queue_.empty(); });
      if (ops_queue_.empty()) return;  // stopping and drained
      fn = std::move(ops_queue_.front());
      ops_queue_.pop_front();
    }
    fn();
  }
}

void ReactorServer::AcceptLoop() {
  for (;;) {
    int conn_fd = ::accept(listen_fd_, nullptr, nullptr);
    if (conn_fd >= 0) {
      ::fcntl(conn_fd, F_SETFL,
              ::fcntl(conn_fd, F_GETFL, 0) | O_NONBLOCK);
    }
    if (conn_fd < 0) {
      const int err = errno;  // the lock below may clobber errno
      bool stopping;
      {
        std::lock_guard<std::mutex> lock(mu_);
        stopping = stopping_;
      }
      if (stopping) return;
      // Transient accept failures (peer aborted the handshake, fd
      // pressure from many live connections) must not kill the server —
      // a listener that exits on EMFILE drops every live client. Back
      // off briefly on resource exhaustion and keep accepting; only an
      // unexpected fatal errno ends the loop.
      if (err == EINTR || err == ECONNABORTED || err == EPROTO ||
          err == EAGAIN || err == EWOULDBLOCK) {
        continue;
      }
      if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
          err == ENOMEM) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      return;  // listener closed / fatal accept error
    }
    if (bound_.kind == ListenAddress::Kind::kTcp) {
      int one = 1;
      ::setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    if (options_.sndbuf_bytes > 0) {
      ::setsockopt(conn_fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                   sizeof(options_.sndbuf_bytes));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        ::close(conn_fd);
        return;
      }
    }
    const int id =
        next_conn_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    const int loop_index =
        round_robin_.fetch_add(1, std::memory_order_relaxed) %
        static_cast<int>(loops_.size());
    ConnPtr conn(new ReactorConn());
    conn->server_ = this;
    conn->loop_index_ = loop_index;
    conn->id_ = id;
    conn->fd_ = conn_fd;
    if (options_.metrics != nullptr) {
      ServerMetrics* m = options_.metrics;
      m->connections_total.fetch_add(1, std::memory_order_relaxed);
      int64_t cur =
          m->connections_current.fetch_add(1, std::memory_order_relaxed) + 1;
      ServerMetrics::RaisePeak(m->connections_peak, cur);
    }
    Loop* loop = loops_[loop_index].get();
    PostToLoop(*loop, [this, loop, conn] { AddConn(*loop, conn); });
  }
}

void ReactorServer::AddConn(Loop& loop, const ConnPtr& conn) {
  if (loop.stop) {
    // Raced with shutdown; never opened, so no on_close either.
    ::close(conn->fd_);
    if (options_.metrics != nullptr) {
      options_.metrics->connections_current.fetch_sub(
          1, std::memory_order_relaxed);
    }
    return;
  }
  conn->last_active_tick_ = loop.now_tick;
  loop.conns[conn->fd_] = conn;
  if (callbacks_.on_open) conn->user_ = callbacks_.on_open(*conn);
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.ptr = conn.get();
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, conn->fd_, &ev);
}

void ReactorServer::UpdateEpoll(Loop& loop, ReactorConn& conn) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = (conn.paused_ ? 0u : static_cast<uint32_t>(EPOLLIN)) |
              (conn.want_write_armed_ ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.ptr = &conn;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd_, &ev);
}

void ReactorServer::HandleReadable(Loop& loop, const ConnPtr& conn) {
  // Bounded read burst: level-triggered epoll re-delivers whatever a
  // fast pipelining client still has queued, so capping the burst keeps
  // one chatty connection from starving its loop siblings.
  char buf[16384];
  bool eof = false;
  for (int burst = 0; burst < 4; ++burst) {
    ssize_t n = ::read(conn->fd_, buf, sizeof(buf));
    if (n > 0) {
      conn->decoder_.Feed(buf, static_cast<size_t>(n));
      conn->last_active_tick_ = loop.now_tick;
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    eof = true;  // hard transport error reads like a vanished peer
    break;
  }
  DrainMessages(loop, conn);
  if (conn->closed_) return;
  if (eof) CloseConn(loop, conn, CloseReason::kEof);
}

void ReactorServer::DrainMessages(Loop& loop, const ConnPtr& conn) {
  while (!conn->closed_ && !conn->paused_) {
    std::string payload;
    FrameDecoder::Next next = conn->decoder_.Pop(&payload);
    if (next == FrameDecoder::Next::kNeedMore) return;
    if (next == FrameDecoder::Next::kError) {
      if (options_.metrics != nullptr) {
        options_.metrics->protocol_errors.fetch_add(
            1, std::memory_order_relaxed);
      }
      if (callbacks_.on_protocol_error) {
        callbacks_.on_protocol_error(*conn, conn->decoder_.error());
      }
      CloseConn(loop, conn, CloseReason::kProtocolError);
      return;
    }
    if (options_.metrics != nullptr &&
        conn->decoder_.mode() == FrameMode::kBinary) {
      options_.metrics->frames_binary.fetch_add(1, std::memory_order_relaxed);
    }
    callbacks_.on_message(*conn, payload);
  }
}

void ReactorServer::FlushConn(Loop& loop, const ConnPtr& conn) {
  if (conn->closed_) return;
  bool want_write = false;
  bool drain_done = false;
  bool dead = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu_);
    while (conn->outbox_off_ < conn->outbox_.size()) {
      const size_t pending = conn->outbox_.size() - conn->outbox_off_;
      ssize_t n = ::send(conn->fd_, conn->outbox_.data() + conn->outbox_off_,
                         pending, MSG_NOSIGNAL);
      if (n > 0) {
        if (static_cast<size_t>(n) < pending &&
            options_.metrics != nullptr) {
          options_.metrics->writes_retried.fetch_add(
              1, std::memory_order_relaxed);
        }
        conn->outbox_off_ += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) {
        if (options_.metrics != nullptr) {
          options_.metrics->writes_retried.fetch_add(
              1, std::memory_order_relaxed);
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        want_write = true;
        break;
      }
      dead = true;  // EPIPE/ECONNRESET: peer gone
      break;
    }
    if (conn->outbox_off_ == conn->outbox_.size()) {
      conn->outbox_.clear();
      conn->outbox_off_ = 0;
      drain_done = conn->drain_requested_;
    } else if (conn->outbox_off_ > (256u << 10)) {
      // Compact occasionally so a long-lived slow-ish connection doesn't
      // pin the already-sent prefix forever.
      conn->outbox_.erase(0, conn->outbox_off_);
      conn->outbox_off_ = 0;
    }
  }
  if (dead) {
    CloseConn(loop, conn, CloseReason::kEof);
    return;
  }
  if (drain_done) {
    CloseConn(loop, conn, CloseReason::kLocalClose);
    return;
  }
  if (want_write != conn->want_write_armed_) {
    conn->want_write_armed_ = want_write;
    UpdateEpoll(loop, *conn);
  }
}

void ReactorServer::BeginDrain(Loop& loop, const ConnPtr& conn) {
  conn->paused_ = true;  // a gracefully-closing peer gets no more input
  conn->drain_deadline_tick_ = loop.now_tick + kDrainDeadlineSeconds;
  UpdateEpoll(loop, *conn);
  FlushConn(loop, conn);  // closes immediately if nothing is pending
}

void ReactorServer::CountClose(CloseReason reason) {
  ServerMetrics* m = options_.metrics;
  if (m == nullptr) return;
  m->connections_current.fetch_sub(1, std::memory_order_relaxed);
  switch (reason) {
    case CloseReason::kEof:
    case CloseReason::kProtocolError:
      m->eof_closes.fetch_add(1, std::memory_order_relaxed);
      break;
    case CloseReason::kIdleTimeout:
      m->idle_closes.fetch_add(1, std::memory_order_relaxed);
      break;
    case CloseReason::kBackpressure:
      m->backpressure_closes.fetch_add(1, std::memory_order_relaxed);
      break;
    case CloseReason::kLocalClose:
    case CloseReason::kServerStop:
      break;  // graceful; not an abort cause
  }
}

void ReactorServer::CloseConn(Loop& loop, const ConnPtr& conn,
                              CloseReason reason) {
  if (conn->closed_) return;
  conn->closed_ = true;
  {
    std::lock_guard<std::mutex> lock(conn->mu_);
    conn->closing_ = true;
    if (reason != CloseReason::kBackpressure &&
        conn->outbox_off_ < conn->outbox_.size()) {
      // Best-effort farewell (e.g. the framing-error diagnostic): one
      // non-blocking send of whatever is queued. Backpressure closes
      // skip it — their queue is exactly what the peer won't read.
      ssize_t n = ::send(conn->fd_, conn->outbox_.data() + conn->outbox_off_,
                         conn->outbox_.size() - conn->outbox_off_,
                         MSG_NOSIGNAL | MSG_DONTWAIT);
      (void)n;
    }
    conn->outbox_.clear();
    conn->outbox_off_ = 0;
  }
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, conn->fd_, nullptr);
  ::close(conn->fd_);
  loop.conns.erase(conn->fd_);
  loop.graveyard.push_back(conn);
  CountClose(reason);
  ConnPtr hold = conn;
  PostToOps([this, hold, reason] {
    if (callbacks_.on_close) callbacks_.on_close(*hold, reason);
  });
}

void ReactorServer::SweepDeadlines(Loop& loop) {
  std::vector<std::pair<ConnPtr, CloseReason>> doomed;
  for (const auto& [fd, conn] : loop.conns) {
    (void)fd;
    if (conn->drain_deadline_tick_ > 0) {
      if (loop.now_tick >= conn->drain_deadline_tick_) {
        doomed.emplace_back(conn, CloseReason::kLocalClose);
      }
      continue;
    }
    if (options_.idle_timeout_seconds > 0 && !conn->paused_ &&
        loop.now_tick - conn->last_active_tick_ >=
            options_.idle_timeout_seconds) {
      doomed.emplace_back(conn, CloseReason::kIdleTimeout);
    }
  }
  for (const auto& [conn, reason] : doomed) CloseConn(loop, conn, reason);
}

void ReactorServer::RunLoop(Loop& loop) {
  t_current_loop = &loop;
  const auto start = std::chrono::steady_clock::now();
  std::vector<epoll_event> events(256);
  while (!loop.stop) {
    int n = ::epoll_wait(loop.epoll_fd, events.data(),
                         static_cast<int>(events.size()), 500);
    loop.now_tick = std::chrono::duration_cast<std::chrono::seconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — only happens at teardown
    }
    // Consume the wake before running the ops it announced: a post that
    // lands after this read signals the eventfd again, so the next
    // epoll_wait returns at once instead of sleeping on a queued op.
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr != nullptr) continue;
      uint64_t drained;
      while (::read(loop.wake_fd, &drained, sizeof(drained)) > 0) {
      }
    }
    // Cross-thread ops posted so far (new connections, write kicks,
    // resumes, stop). Ops posted while these run wait one iteration, so a
    // thread that keeps sending cannot starve this loop's sockets.
    std::vector<std::function<void()>> ops;
    {
      std::lock_guard<std::mutex> lock(loop.ops_mu);
      ops.swap(loop.ops);
    }
    for (std::function<void()>& fn : ops) fn();
    for (int i = 0; i < n && !loop.stop; ++i) {
      if (events[i].data.ptr == nullptr) continue;  // the wake, read above
      auto* raw = static_cast<ReactorConn*>(events[i].data.ptr);
      if (raw->closed_) continue;  // closed earlier in this batch
      auto it = loop.conns.find(raw->fd_);
      if (it == loop.conns.end() || it->second.get() != raw) continue;
      ConnPtr conn = it->second;
      const uint32_t ev = events[i].events;
      if (ev & (EPOLLERR | EPOLLHUP)) {
        CloseConn(loop, conn, CloseReason::kEof);
        continue;
      }
      if (ev & EPOLLOUT) {
        FlushConn(loop, conn);
        if (conn->closed_) continue;
      }
      if (ev & EPOLLIN) HandleReadable(loop, conn);
    }
    if (loop.now_tick != loop.last_sweep_tick) {
      loop.last_sweep_tick = loop.now_tick;
      SweepDeadlines(loop);
    }
    loop.graveyard.clear();
  }
  t_current_loop = nullptr;
}

}  // namespace rankhow
