#include "util/fault.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>

#include <unistd.h>

#include "util/string_util.h"

namespace rankhow {

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

FaultInjector::FaultInjector() {
  const char* env = std::getenv("RANKHOW_FAULTS");
  if (env == nullptr || env[0] == '\0') return;
  // "point=N[:COUNT]" entries, comma-separated. A malformed entry is a
  // loud no-op (stderr) rather than an abort: the variable may leak into
  // child processes that never asked for faults.
  for (const std::string& raw : Split(env, ',')) {
    std::string entry(Trim(raw));
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    auto bad = [&entry] {
      std::fprintf(stderr,
                   "rankhow: ignoring malformed RANKHOW_FAULTS entry '%s' "
                   "(want point=N[:COUNT])\n",
                   entry.c_str());
    };
    if (eq == std::string::npos || eq == 0) {
      bad();
      continue;
    }
    const std::string point(Trim(entry.substr(0, eq)));
    std::string value = entry.substr(eq + 1);
    int64_t count = 1;
    if (const size_t colon = value.find(':'); colon != std::string::npos) {
      auto c = ParseInt(Trim(value.substr(colon + 1)));
      if (!c.ok()) {
        bad();
        continue;
      }
      count = *c;
      value = value.substr(0, colon);
    }
    auto n = ParseInt(Trim(value));
    if (!n.ok()) {
      bad();
      continue;
    }
    Arm(point, *n, count);
  }
}

void FaultInjector::Arm(const std::string& point, int64_t n, int64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  Point& p = points_[point];
  p = Point();
  p.threshold = n;
  p.count = count;
  armed_.store(static_cast<int>(points_.size()), std::memory_order_relaxed);
}

void FaultInjector::Disarm(const std::string& point) {
  std::lock_guard<std::mutex> lock(mu_);
  points_.erase(point);
  armed_.store(static_cast<int>(points_.size()), std::memory_order_relaxed);
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
  armed_.store(0, std::memory_order_relaxed);
}

bool FaultInjector::Hit(const std::string& point) {
  if (armed_.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  if (it == points_.end() || it->second.exhausted) return false;
  Point& p = it->second;
  ++p.hits;
  if (p.hits < p.threshold) return false;
  // At or past the threshold: fire while the count lasts.
  if (p.count < 0) return true;  // forever
  const int64_t fired = p.hits - p.threshold;  // 0-based firing index
  if (fired < p.count) {
    if (fired + 1 == p.count) p.exhausted = true;
    return true;
  }
  p.exhausted = true;
  return false;
}

int64_t FaultInjector::Param(const std::string& point) {
  if (armed_.load(std::memory_order_relaxed) == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.threshold;
}

void FaultInjector::MaybeCrash(const std::string& point) {
  if (!Hit(point)) return;
  // SIGKILL, not abort/exit: no atexit handlers, no stream flushes, no
  // destructors — the torn state a real crash leaves behind.
  ::kill(::getpid(), SIGKILL);
}

}  // namespace rankhow
