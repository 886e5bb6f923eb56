#include "coord/upstream.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "server/wire.h"

namespace rankhow {

void ThreadGate::Enter() {
  std::lock_guard<std::mutex> lock(mu_);
  ++active_;
}

void ThreadGate::Exit() {
  // Notify under the lock: WaitIdle's caller may destroy the gate as soon
  // as it sees active_ == 0, so the notify must finish before it can.
  std::lock_guard<std::mutex> lock(mu_);
  --active_;
  cv_.notify_all();
}

bool ThreadGate::WaitIdle(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [this] { return active_ == 0; });
}

Result<std::shared_ptr<UpstreamConn>> UpstreamConn::Dial(
    const WorkerSpec& worker, int dial_timeout_ms, Callbacks callbacks,
    ThreadGate* gate) {
  // No receive timeout: a proxied solve may legitimately be silent for
  // minutes. Death is detected by EOF/RST on the I/O thread, plus the
  // supervisor's out-of-band probes.
  DialOptions options;
  options.timeout_ms = dial_timeout_ms;
  options.recv_timeout_s = 0;
  RH_ASSIGN_OR_RETURN(int fd, DialSocket(worker.address, options));
  const int wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd < 0 ||
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK) < 0) {
    Status status =
        Status::IoError(std::string("upstream setup: ") + std::strerror(errno));
    ::close(fd);
    if (wake_fd >= 0) ::close(wake_fd);
    return status;
  }
  std::shared_ptr<UpstreamConn> conn(new UpstreamConn(worker, fd, wake_fd));
  conn->callbacks_ = std::move(callbacks);
  conn->gate_ = gate;
  if (gate != nullptr) gate->Enter();
  std::thread([conn] { conn->IoLoop(); }).detach();
  return conn;
}

bool UpstreamConn::Forward(ProxyEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sealed_) return false;
  const int64_t seq = ++seq_;
  if (entry.kind != ProxyEntry::Kind::kCommand) verb_order_.push_back(seq);
  // Record before sending: if the send breaks the connection, the entry
  // must already be in the unacked tail that failover replays.
  const std::string& payload =
      pending_.emplace(seq, std::move(entry)).first->second.payload;
  if (failed_) return true;  // rides the tail on_broken will take
  const bool idle = outbox_off_ == outbox_.size();
  outbox_ += payload;
  outbox_ += '\n';
  if (outbox_.size() - outbox_off_ > kMaxOutboxBytes) {
    BreakLocked();  // the worker stopped reading: fail over
  } else if (idle) {
    FlushLocked();
    if (!failed_ && outbox_off_ < outbox_.size()) {
      // The socket is full: have the I/O thread wait for POLLOUT.
      const uint64_t one = 1;
      const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
      (void)n;  // EAGAIN means a wake is already pending
    }
  }
  return true;
}

void UpstreamConn::FlushLocked() {
  while (outbox_off_ < outbox_.size()) {
    const ssize_t n =
        ::send(fd_, outbox_.data() + outbox_off_,
               outbox_.size() - outbox_off_, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      outbox_off_ += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (outbox_off_ > outbox_.size() / 2) {  // drop the written prefix
        outbox_.erase(0, outbox_off_);
        outbox_off_ = 0;
      }
      return;
    } else {
      BreakLocked();  // EPIPE/ECONNRESET: the I/O thread sees it too
      return;
    }
  }
  outbox_.clear();
  outbox_off_ = 0;
}

void UpstreamConn::BreakLocked() {
  failed_ = true;
  outbox_.clear();
  outbox_off_ = 0;
  // SHUT_RDWR (not close) wakes the I/O thread's poll without freeing
  // the descriptor under it; the I/O thread owns the actual close.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

bool UpstreamConn::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

void UpstreamConn::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = true;
  sealed_ = true;
  BreakLocked();
}

std::vector<ProxyEntry> UpstreamConn::TakeUnacked() {
  std::lock_guard<std::mutex> lock(mu_);
  failed_ = true;
  sealed_ = true;
  std::vector<ProxyEntry> unacked;
  unacked.reserve(pending_.size());
  for (auto& [seq, entry] : pending_) unacked.push_back(std::move(entry));
  pending_.clear();
  verb_order_.clear();
  return unacked;
}

bool UpstreamConn::MatchLocked(const std::string& response,
                               ProxyEntry* entry) {
  Result<WireResponseTag> tag = ParseWireResponseTag(response);
  if (!tag.ok()) return false;
  if (tag->has_line) {
    auto it = pending_.find(tag->line);
    if (it == pending_.end()) return false;
    *entry = std::move(it->second);
    pending_.erase(it);
    return true;
  }
  // Verb acks arrive in send order (see file comment): take the oldest
  // outstanding verb whose shape this response can answer.
  for (auto it = verb_order_.begin(); it != verb_order_.end();) {
    auto pending = pending_.find(*it);
    if (pending == pending_.end()) {  // stale: already matched by line=
      it = verb_order_.erase(it);
      continue;
    }
    const ProxyEntry& candidate = pending->second;
    bool matches = false;
    if (tag->ok) {
      matches = (tag->client == "open" &&
                 candidate.kind == ProxyEntry::Kind::kOpen) ||
                (tag->client == "close" &&
                 candidate.kind == ProxyEntry::Kind::kClose) ||
                (tag->client == "deadline" &&
                 candidate.kind == ProxyEntry::Kind::kDeadline);
    } else {
      matches = candidate.kind != ProxyEntry::Kind::kCommand &&
                tag->client == candidate.client;
    }
    if (matches) {
      *entry = std::move(pending->second);
      pending_.erase(pending);
      verb_order_.erase(it);
      return true;
    }
    ++it;
  }
  // No verb wants it: a line-less `err CLIENT msg` is a synchronous
  // submit rejection — charge the oldest pending command of that client.
  if (!tag->ok) {
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->second.kind == ProxyEntry::Kind::kCommand &&
          it->second.client == tag->client) {
        *entry = std::move(it->second);
        pending_.erase(it);
        return true;
      }
    }
  }
  return false;
}

void UpstreamConn::IoLoop() {
  std::shared_ptr<UpstreamConn> self = shared_from_this();
  std::string buffer;  // response bytes not yet split into lines
  char chunk[16384];
  for (;;) {
    pollfd fds[2];
    fds[0].fd = fd_;
    fds[0].events = POLLIN;
    fds[1].fd = wake_fd_;
    fds[1].events = POLLIN;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!failed_ && outbox_off_ < outbox_.size()) fds[0].events |= POLLOUT;
    }
    fds[0].revents = fds[1].revents = 0;
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) {
      uint64_t drained;
      while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
      }
    }
    if ((fds[0].revents & POLLOUT) != 0) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!failed_) FlushLocked();
    }
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;
    }
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t begin = 0;
    for (size_t nl; (nl = buffer.find('\n', begin)) != std::string::npos;
         begin = nl + 1) {
      const std::string response = buffer.substr(begin, nl - begin);
      ProxyEntry entry;
      bool matched;
      {
        std::lock_guard<std::mutex> lock(mu_);
        matched = MatchLocked(response, &entry);
      }
      if (matched) {
        if (callbacks_.on_response) callbacks_.on_response(entry, response);
      } else {
        std::fprintf(stderr,
                     "rankhow_coord: dropping unmatched response from %s: "
                     "%s\n",
                     worker_.spec.c_str(), response.c_str());
      }
    }
    buffer.erase(0, begin);
  }
  bool notify;
  {
    std::lock_guard<std::mutex> lock(mu_);
    notify = !shutdown_;
    failed_ = true;
    outbox_.clear();
    outbox_off_ = 0;
    ::close(fd_);
    ::close(wake_fd_);
    fd_ = wake_fd_ = -1;
  }
  if (notify && callbacks_.on_broken) callbacks_.on_broken(this);
  if (gate_ != nullptr) gate_->Exit();
}

}  // namespace rankhow
