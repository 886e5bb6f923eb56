#include "coord/upstream.h"

#include <sys/socket.h>

#include <chrono>
#include <cstdio>
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
  // minutes. Death is detected by EOF/RST on the reader, plus the
  // supervisor's out-of-band probes.
  DialOptions options;
  options.timeout_ms = dial_timeout_ms;
  options.recv_timeout_s = 0;
  std::shared_ptr<UpstreamConn> conn(new UpstreamConn(worker));
  RH_RETURN_NOT_OK(conn->client_.Connect(worker.address, options));
  conn->callbacks_ = std::move(callbacks);
  conn->gate_ = gate;
  if (gate != nullptr) gate->Enter();
  std::thread([conn] { conn->ReaderLoop(); }).detach();
  return conn;
}

bool UpstreamConn::Forward(ProxyEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_) return false;
  const int64_t seq = ++seq_;
  if (entry.kind != ProxyEntry::Kind::kCommand) verb_order_.push_back(seq);
  // Record before sending: if the send itself breaks the connection the
  // entry must already be in the unacked tail that on_broken replays.
  pending_.emplace(seq, std::move(entry));
  if (!client_.SendLine(pending_[seq].payload)) {
    failed_ = true;  // reader sees the same death and fires on_broken
  }
  return true;
}

int64_t UpstreamConn::Pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(pending_.size());
}

bool UpstreamConn::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

void UpstreamConn::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = true;
  failed_ = true;
  // SHUT_RDWR (not close) wakes the reader blocked in recv without
  // freeing the descriptor under it; the reader owns the actual close.
  if (client_.connected()) ::shutdown(client_.fd(), SHUT_RDWR);
}

std::vector<ProxyEntry> UpstreamConn::CollectBroken() {
  std::lock_guard<std::mutex> lock(mu_);
  failed_ = true;
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

void UpstreamConn::ReaderLoop() {
  std::shared_ptr<UpstreamConn> self = shared_from_this();
  for (;;) {
    std::optional<std::string> response = client_.ReadLine();
    if (!response.has_value()) break;
    ProxyEntry entry;
    bool matched;
    {
      std::lock_guard<std::mutex> lock(mu_);
      matched = MatchLocked(*response, &entry);
    }
    if (matched) {
      if (callbacks_.on_response) callbacks_.on_response(entry, *response);
    } else {
      std::fprintf(stderr,
                   "rankhow_coord: dropping unmatched response from %s: "
                   "%s\n",
                   worker_.spec.c_str(), response->c_str());
    }
  }
  bool notify;
  {
    std::lock_guard<std::mutex> lock(mu_);
    notify = !shutdown_;
    client_.Close();
  }
  if (notify) {
    std::vector<ProxyEntry> unacked = CollectBroken();
    if (callbacks_.on_broken) {
      callbacks_.on_broken(this, std::move(unacked));
    }
  }
  if (gate_ != nullptr) gate_->Exit();
}

}  // namespace rankhow
