#include "server/journal.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/fault.h"
#include "util/framed_records.h"
#include "util/string_util.h"

namespace rankhow {

namespace {

constexpr char kMagic[] = "RHJ1";

}  // namespace

Result<std::unique_ptr<SessionJournal>> SessionJournal::Open(
    const std::string& path, const std::string& dataset,
    uint64_t fingerprint, JournalOptions options) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IoError("journal open(" + path +
                           "): " + std::strerror(errno));
  }
  struct stat st;
  const int64_t bytes = ::fstat(fd, &st) == 0 ? st.st_size : 0;
  // Continue the rotation numbering where a previous process left off.
  int next_segment = 1;
  while (true) {
    struct stat seg;
    const std::string candidate = path + "." + std::to_string(next_segment);
    if (::stat(candidate.c_str(), &seg) != 0) break;
    ++next_segment;
  }
  return std::unique_ptr<SessionJournal>(
      new SessionJournal(fd, path, dataset, fingerprint, options, bytes,
                         next_segment));
}

SessionJournal::SessionJournal(int fd, std::string path, std::string dataset,
                               uint64_t fingerprint, JournalOptions options,
                               int64_t active_bytes, int next_segment)
    : path_(std::move(path)),
      dataset_(std::move(dataset)),
      fingerprint_(fingerprint),
      options_(options),
      fd_(fd),
      active_bytes_(active_bytes),
      next_segment_(next_segment) {}

SessionJournal::~SessionJournal() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    if (!degraded_ && unsynced_records_ > 0) {
      (void)::fsync(fd_);  // best effort; the process is leaving anyway
    }
    ::close(fd_);
    fd_ = -1;
  }
}

void SessionJournal::LogOpen(const std::string& client) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!recording_ || degraded_) return;
  AppendLocked(StrFormat("open %s %s %016llx", client.c_str(),
                         dataset_.c_str(),
                         static_cast<unsigned long long>(fingerprint_)));
}

void SessionJournal::LogClose(const std::string& client) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!recording_ || degraded_) return;
  AppendLocked("close " + client);
}

void SessionJournal::LogCommand(const std::string& client,
                                const SessionCommand& cmd) {
  FaultInjector::Global().MaybeCrash(faults::kCrashBeforeJournalAppend);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (recording_ && !degraded_) {
      AppendLocked("cmd " + client + " " + FormatSessionCommand(cmd));
    }
  }
  FaultInjector::Global().MaybeCrash(faults::kCrashAfterJournalAppend);
}

void SessionJournal::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (degraded_ || fd_ < 0 || unsynced_records_ == 0) return;
  FsyncLocked();
}

bool SessionJournal::recording() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recording_;
}

void SessionJournal::set_recording(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  recording_ = on;
}

JournalStats SessionJournal::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  JournalStats stats = stats_;
  stats.degraded = degraded_;
  return stats;
}

void SessionJournal::AppendLocked(const std::string& payload) {
  if (fd_ < 0 || degraded_) return;
  // O_APPEND makes each write() one atomic tail append; a crash mid-write
  // leaves at most one torn final record, which Read() truncates away.
  Result<int64_t> written = AppendFramedRecord(fd_, kMagic, payload);
  if (!written.ok()) {
    // A failed append is handled like a failed fsync: this process can
    // no longer promise durability, so degrade loudly and keep serving.
    ++stats_.fsync_failures;
    degraded_ = true;
    std::fprintf(stderr,
                 "rankhow: journal %s %s: degrading to journal-off mode\n",
                 path_.c_str(), written.status().message().c_str());
    return;
  }
  active_bytes_ += *written;
  ++stats_.records_appended;
  ++unsynced_records_;
  if (options_.fsync_every > 0 && unsynced_records_ >= options_.fsync_every) {
    FsyncLocked();
  }
  if (!degraded_ && options_.rotate_bytes > 0 &&
      active_bytes_ >= options_.rotate_bytes) {
    RotateLocked();
  }
}

void SessionJournal::FsyncLocked() {
  // Bounded exponential backoff (1, 2, 4, ... ms), then journal-off mode.
  // Never propagates to the caller: a solve must not block on, or fail
  // because of, durability bookkeeping.
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    const bool injected =
        FaultInjector::Global().Hit(faults::kJournalFsyncFail);
    if (!injected && ::fsync(fd_) == 0) {
      unsynced_records_ = 0;
      ++stats_.fsyncs;
      return;
    }
    ++stats_.fsync_failures;
    if (attempt < options_.max_retries) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1LL << attempt));
    }
  }
  degraded_ = true;
  std::fprintf(stderr,
               "rankhow: journal %s fsync failed %d times: degrading to "
               "journal-off mode (sessions stay up, durability is lost)\n",
               path_.c_str(), options_.max_retries + 1);
}

void SessionJournal::RotateLocked() {
  // Flush the segment we are sealing first: a rotated file must be intact.
  FsyncLocked();
  if (degraded_) return;
  const std::string sealed = path_ + "." + std::to_string(next_segment_);
  const bool injected =
      FaultInjector::Global().Hit(faults::kJournalRotateFail);
  if (injected || ::rename(path_.c_str(), sealed.c_str()) != 0) {
    // Rotation is an optimization (bounded segment size), not a
    // correctness requirement — on failure keep appending to the oversize
    // active segment and retry at the next threshold crossing.
    std::fprintf(stderr,
                 "rankhow: journal rotate %s -> %s failed (%s); continuing "
                 "on the active segment\n",
                 path_.c_str(), sealed.c_str(),
                 injected ? "fault injected" : std::strerror(errno));
    active_bytes_ = 0;  // don't re-attempt on every single append
    return;
  }
  const int fresh =
      ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fresh < 0) {
    // The sealed file is safe; without a fresh segment we cannot journal.
    degraded_ = true;
    std::fprintf(stderr,
                 "rankhow: journal reopen after rotate failed (%s): "
                 "degrading to journal-off mode\n",
                 std::strerror(errno));
    return;
  }
  ::close(fd_);
  fd_ = fresh;
  active_bytes_ = 0;
  ++next_segment_;
  ++stats_.rotations;
}

namespace {

/// Parses one record payload; false = corrupt (the reader counts it).
bool ParseRecordPayload(const std::string& payload, JournalRecord* out) {
  // Payload grammar: "open C D FP" | "close C" | "cmd C <line>".
  std::vector<std::string> head = Split(payload, ' ');
  if (head.empty()) return false;
  JournalRecord record;
  if (head[0] == "open" && head.size() == 4) {
    record.kind = JournalRecord::Kind::kOpen;
    record.client = head[1];
    record.dataset = head[2];
    char* end = nullptr;
    record.fingerprint = std::strtoull(head[3].c_str(), &end, 16);
    if (end == nullptr || *end != '\0') return false;
  } else if (head[0] == "close" && head.size() == 2) {
    record.kind = JournalRecord::Kind::kClose;
    record.client = head[1];
  } else if (head[0] == "cmd" && head.size() >= 3) {
    record.kind = JournalRecord::Kind::kCommand;
    record.client = head[1];
    // The command text starts after "cmd <client> " — the space that ends
    // the client name is the first one at or past index 4.
    const size_t cmd_at = payload.find(' ', 4);
    record.command = payload.substr(cmd_at + 1);
  } else {
    return false;
  }
  *out = std::move(record);
  return true;
}

void ReadSegment(const std::string& path, JournalReadback* out) {
  const FramedReadCounts counts =
      ReadFramedRecords(path, kMagic, [out](const std::string& payload) {
        JournalRecord record;
        if (!ParseRecordPayload(payload, &record)) return false;
        out->records.push_back(std::move(record));
        return true;
      });
  out->replayed += counts.intact;
  out->skipped += counts.skipped;
  out->truncated += counts.truncated;
}

}  // namespace

Result<JournalReadback> SessionJournal::Read(const std::string& path) {
  JournalReadback out;
  // Rotated segments first (in rotation order), then the active file —
  // the exact order the records were written.
  for (int seg = 1;; ++seg) {
    const std::string sealed = path + "." + std::to_string(seg);
    struct stat st;
    if (::stat(sealed.c_str(), &st) != 0) break;
    ReadSegment(sealed, &out);
  }
  ReadSegment(path, &out);
  return out;
}

}  // namespace rankhow
