#ifndef RANKHOW_UTIL_TIMER_H_
#define RANKHOW_UTIL_TIMER_H_

/// \file timer.h
/// Wall-clock timing and deadline helpers used by the solvers' time budgets.

#include <algorithm>
#include <chrono>
#include <optional>

namespace rankhow {

/// Monotonic wall-clock stopwatch, started at construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A soft deadline: `Expired()` becomes true `budget_seconds` after
/// construction. A non-positive budget means "no deadline".
class Deadline {
 public:
  explicit Deadline(double budget_seconds) : budget_(budget_seconds) {}

  bool HasBudget() const { return budget_ > 0; }
  bool Expired() const {
    return HasBudget() && timer_.ElapsedSeconds() >= budget_;
  }
  /// Remaining budget, or nullopt for an unlimited deadline. "No deadline"
  /// used to be a 1e18 sentinel that callers had to remember never to feed
  /// into budget arithmetic; the optional makes forgetting a type error.
  std::optional<double> Remaining() const {
    if (!HasBudget()) return std::nullopt;
    double rem = budget_ - timer_.ElapsedSeconds();
    return rem > 0 ? rem : 0;
  }
  /// Remaining budget under the solver convention "0 = no deadline" (what
  /// the SimplexSolver constructor and IncrementalLp::Solve expect).
  /// A LIVE deadline never maps to the 0 sentinel: an exactly-exhausted
  /// budget comes back as a microsecond, so the downstream solver returns
  /// kResourceExhausted promptly instead of running unlimited — the exact
  /// confusion this type replaced the old 1e18 sentinel to prevent.
  double RemainingOrZero() const {
    if (!HasBudget()) return 0;
    return std::max(*Remaining(), 1e-6);
  }
  double ElapsedSeconds() const { return timer_.ElapsedSeconds(); }

 private:
  double budget_;
  WallTimer timer_;
};

}  // namespace rankhow

#endif  // RANKHOW_UTIL_TIMER_H_
