#ifndef RANKHOW_UTIL_FAULT_H_
#define RANKHOW_UTIL_FAULT_H_

/// \file fault.h
/// The fault-injection harness behind the chaos suite (tests/chaos/): a
/// process-global registry of named injection points that production code
/// consults at the few places where failures are interesting — journal
/// fsync/rotate and append, and the strand executor — and that
/// tests (or the RANKHOW_FAULTS environment variable, for spawned server
/// processes) arm to force those failures deterministically.
///
/// Injection points are plain string names (constants below). An unarmed
/// injector costs one relaxed atomic load per check — the fast path never
/// takes the lock — so the hooks stay in release builds and the chaos
/// suite exercises the exact binaries production runs.
///
/// Arming semantics: Arm(point, n, count) makes the point *fire* on its
/// n-th Hit() and for `count-1` further hits (count = -1 fires forever).
/// Parameter-style points (delays) read the armed value without consuming
/// it via Param().
///
/// Environment syntax (parsed once, on first Global() use):
///   RANKHOW_FAULTS="crash-after-journal-append=3,journal-fsync-fail=1:-1"
/// i.e. comma-separated `point=N[:COUNT]` entries.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace rankhow {

namespace faults {
/// Journal: the next fsync (or rotate rename) reports failure; the writer's
/// bounded backoff and journal-off degradation paths run for real.
inline constexpr char kJournalFsyncFail[] = "journal-fsync-fail";
inline constexpr char kJournalRotateFail[] = "journal-rotate-fail";
/// Journal: SIGKILL the process immediately before/after the record write
/// lands — the two sides of the crash-recovery contract (a command acked
/// is journaled; a command journaled-but-unacked replays harmlessly).
inline constexpr char kCrashBeforeJournalAppend[] =
    "crash-before-journal-append";
inline constexpr char kCrashAfterJournalAppend[] =
    "crash-after-journal-append";
/// Strand executor: sleep this many milliseconds before each command runs
/// (a parameter point — widens race/shedding windows deterministically).
inline constexpr char kStrandDelayMs[] = "strand-delay-ms";
}  // namespace faults

class FaultInjector {
 public:
  /// The process-global injector. First use parses RANKHOW_FAULTS.
  static FaultInjector& Global();

  /// Arms `point` to fire on its n-th Hit (n >= 1) and for count-1 further
  /// hits (count = -1: forever). For Param points, `n` is the parameter
  /// value.
  void Arm(const std::string& point, int64_t n, int64_t count = 1);
  void Disarm(const std::string& point);
  /// Disarms everything (tests call this between cases).
  void Reset();

  /// Trigger-point check: true when `point` is armed and this hit crossed
  /// the arming threshold. Consumes one firing from the count.
  bool Hit(const std::string& point);

  /// Parameter-point read: the armed value (0 when unarmed). Never
  /// consumes.
  int64_t Param(const std::string& point);

  /// Crash-point: if Hit(point) fires, SIGKILL this process — the genuine
  /// no-destructors, no-flush death the recovery path must survive.
  void MaybeCrash(const std::string& point);

 private:
  FaultInjector();

  struct Point {
    int64_t threshold = 1;  // fire on this hit (1-based) / param
    int64_t count = 1;      // firings remaining after threshold (-1 = inf)
    int64_t hits = 0;       // Hit() calls so far
    bool exhausted = false;
  };

  /// Armed-point count; == 0 lets every check return without locking.
  std::atomic<int> armed_{0};
  std::mutex mu_;
  std::map<std::string, Point> points_;
};

}  // namespace rankhow

#endif  // RANKHOW_UTIL_FAULT_H_
