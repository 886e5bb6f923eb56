#ifndef RANKHOW_UTIL_FRAMED_RECORDS_H_
#define RANKHOW_UTIL_FRAMED_RECORDS_H_

/// \file framed_records.h
/// The CRC-framed text record format shared by the session journal (magic
/// "RHJ1") and the warm cache ("RHW1"): one record per line,
///
///   MAGIC <crc32-hex> <len> <payload>\n
///
/// where <len> is the payload's byte length and the CRC-32 covers exactly
/// the payload. Writers append each record to an O_APPEND fd, so a crash
/// tears at most the final record. Readers truncate that torn tail, skip
/// any line whose frame or payload does not check out, and resume at the
/// next newline — one bad record never severs the records after it.

#include <cstdint>
#include <functional>
#include <string>

#include "util/status.h"

namespace rankhow {

/// CRC-32 (IEEE, zlib-compatible) of the payload bytes.
uint32_t FrameCrc32(const std::string& payload);

/// Appends `payload` to `fd` as one framed record, resuming after EINTR
/// and short writes. Returns the record's length in bytes, or kIoError
/// naming the failed write.
Result<int64_t> AppendFramedRecord(int fd, const char* magic,
                                   const std::string& payload);

/// What one read-back of a record file counted.
struct FramedReadCounts {
  int64_t intact = 0;     // records `parse` accepted
  int64_t skipped = 0;    // lines with a corrupt frame, CRC or payload
  int64_t truncated = 0;  // a torn final record (no newline)
};

/// Reads every record of `path` (a missing file reads as empty) and hands
/// each checksum-valid payload to `parse`, which returns false to reject
/// it as corrupt.
FramedReadCounts ReadFramedRecords(
    const std::string& path, const char* magic,
    const std::function<bool(const std::string& payload)>& parse);

}  // namespace rankhow

#endif  // RANKHOW_UTIL_FRAMED_RECORDS_H_
