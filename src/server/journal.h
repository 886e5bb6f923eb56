#ifndef RANKHOW_SERVER_JOURNAL_H_
#define RANKHOW_SERVER_JOURNAL_H_

/// \file journal.h
/// The write-ahead session journal (see docs/OPERATIONS.md "Durability &
/// recovery"): a per-registry append-only log of every accepted session
/// edit, plus open/close records, from which a restarted server rebuilds
/// every live session's constraint state. Solves are never journaled or
/// re-run on recovery — a session's edit script is a deterministic
/// serializable log (ROADMAP), so replaying the edits through the same
/// ApplySessionCommand path reproduces the exact solver-visible state, and
/// warm incumbents flow back lazily through the SharedIncumbentPool.
///
/// On-disk format — one record per line in the CRC-framed format of
/// util/framed_records.h, magic "RHJ1":
///
///   RHJ1 <crc32-hex> <len> <payload>\n
///
/// Payloads:
///
///   open <client> <dataset> <fingerprint-hex>   session opened
///   close <client>                              session closed
///   cmd <client> <session-script line>          accepted edit, in the PR 3
///                                               grammar verbatim
///                                               (FormatSessionCommand)
///
/// Read-back tolerates the failure modes an append-only log actually has:
/// a torn final record (the crash landed mid-write) is truncated away and
/// counted; a CRC-corrupt record is skipped and counted; everything intact
/// replays. Records after a skipped one still replay — framing is
/// line-synchronized, so one bad sector never severs the tail.
///
/// Write path: appends go to an O_APPEND fd with fsync batching
/// (fsync_every records; 1 = every record, the strict-durability mode the
/// overhead bench prices). fsync/rotate failures retry under bounded
/// exponential backoff and then degrade LOUDLY to journal-off mode —
/// stderr, Stats().degraded — rather than ever blocking or failing a
/// solve: durability is best-effort by design, serving is not.
///
/// Rotation: the active segment rotates to `<path>.<seq>` past
/// rotate_bytes; Read() replays rotated segments in sequence order, then
/// the active one.
///
/// Thread-safety: fully internally locked (strands of one registry append
/// concurrently).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/cli_driver.h"
#include "data/dataset.h"
#include "ranking/ranking.h"
#include "util/status.h"

#include <mutex>

namespace rankhow {

struct JournalOptions {
  /// fsync after every N appended records (1 = every record, 0 = never —
  /// the OS flushes whenever it pleases).
  int fsync_every = 32;
  /// Rotate the active segment past this many bytes (0 = never).
  int64_t rotate_bytes = 8 * 1024 * 1024;
  /// Backoff attempts on fsync/rotate failure (1ms, 2ms, 4ms, ...) before
  /// degrading to journal-off mode.
  int max_retries = 5;
};

/// Writer-side counters (snapshot; the wire stats line surfaces these).
struct JournalStats {
  int64_t records_appended = 0;
  int64_t fsyncs = 0;
  int64_t fsync_failures = 0;  // individual failed attempts (pre-backoff)
  int64_t rotations = 0;
  /// Journal-off mode: backoff exhausted; appends are dropped from here on
  /// (loudly — this bit is the "loudly" part, next to the stderr line).
  bool degraded = false;
};

/// One intact record read back from disk.
struct JournalRecord {
  enum class Kind { kOpen, kClose, kCommand };
  Kind kind = Kind::kCommand;
  std::string client;
  std::string dataset;       // kOpen
  uint64_t fingerprint = 0;  // kOpen
  std::string command;       // kCommand: the session-script line
};

/// Read-back outcome: the intact records plus the torn/corrupt accounting
/// the `recover` stats section reports.
struct JournalReadback {
  std::vector<JournalRecord> records;
  int64_t replayed = 0;   // == records.size()
  int64_t skipped = 0;    // CRC/framing-corrupt records dropped
  int64_t truncated = 0;  // torn trailing records dropped (no newline)
};

class SessionJournal {
 public:
  /// Opens (creates or appends to) the active segment at `path`. The
  /// dataset/fingerprint identity is stamped into every open record this
  /// journal writes.
  static Result<std::unique_ptr<SessionJournal>> Open(
      const std::string& path, const std::string& dataset,
      uint64_t fingerprint, JournalOptions options = JournalOptions());

  /// Flushes and fsyncs best-effort (a clean shutdown loses nothing).
  ~SessionJournal();

  SessionJournal(const SessionJournal&) = delete;
  SessionJournal& operator=(const SessionJournal&) = delete;

  void LogOpen(const std::string& client);
  void LogClose(const std::string& client);
  /// Appends one accepted command in the script grammar
  /// (FormatSessionCommand). Hosts the crash-before/after-journal-append
  /// fault points.
  void LogCommand(const std::string& client, const SessionCommand& cmd);

  /// Forces the buffered tail to disk now (rotation/shutdown path).
  void Sync();

  /// Recording gate: recovery replays with recording off so replayed
  /// opens/edits don't re-journal records the log already holds.
  bool recording() const;
  void set_recording(bool on);

  JournalStats Stats() const;
  const std::string& path() const { return path_; }
  const std::string& dataset() const { return dataset_; }
  uint64_t fingerprint() const { return fingerprint_; }

  /// Reads back `path` plus its rotated segments `<path>.<seq>` in write
  /// order. A missing file is an empty readback, not an error (a fresh
  /// server has no history).
  static Result<JournalReadback> Read(const std::string& path);

 private:
  SessionJournal(int fd, std::string path, std::string dataset,
                 uint64_t fingerprint, JournalOptions options,
                 int64_t active_bytes, int next_segment);

  /// Appends one framed record; all failure handling (backoff,
  /// degradation, rotation) lives here. Must hold mu_.
  void AppendLocked(const std::string& payload);
  /// fsync with bounded backoff; flips degraded_ when it never sticks.
  void FsyncLocked();
  void RotateLocked();

  std::string path_;
  std::string dataset_;
  uint64_t fingerprint_ = 0;
  JournalOptions options_;

  mutable std::mutex mu_;
  int fd_ = -1;
  bool recording_ = true;
  bool degraded_ = false;
  int64_t active_bytes_ = 0;   // size of the active segment
  int next_segment_ = 1;       // next rotation suffix
  int unsynced_records_ = 0;   // since the last fsync
  JournalStats stats_;
};

}  // namespace rankhow

#endif  // RANKHOW_SERVER_JOURNAL_H_
