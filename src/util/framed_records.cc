#include "util/framed_records.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "util/string_util.h"

namespace rankhow {

namespace {

/// The zlib CRC-32 table, built once (polynomial 0xEDB88320).
const uint32_t* Crc32Table() {
  static uint32_t table[256];
  static bool built = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return true;
  }();
  (void)built;
  return table;
}

/// The payload of one framed line; false when the magic, the CRC field,
/// the length or the checksum does not check out.
bool UnframeLine(const std::string& line, const char* magic,
                 std::string* payload) {
  const std::string head = std::string(magic) + " ";
  if (!StartsWith(line, head)) return false;
  const size_t crc_begin = head.size();
  const size_t crc_end = line.find(' ', crc_begin);
  if (crc_end == std::string::npos) return false;
  const size_t len_end = line.find(' ', crc_end + 1);
  if (len_end == std::string::npos) return false;
  const std::string hex = line.substr(crc_begin, crc_end - crc_begin);
  if (hex.size() != 8) return false;
  char* end = nullptr;
  const uint32_t crc =
      static_cast<uint32_t>(std::strtoul(hex.c_str(), &end, 16));
  if (end == nullptr || *end != '\0') return false;
  auto len = ParseInt(line.substr(crc_end + 1, len_end - crc_end - 1));
  if (!len.ok() || *len < 0) return false;
  *payload = line.substr(len_end + 1);
  return static_cast<int64_t>(payload->size()) == *len &&
         FrameCrc32(*payload) == crc;
}

}  // namespace

uint32_t FrameCrc32(const std::string& payload) {
  const uint32_t* table = Crc32Table();
  uint32_t c = 0xFFFFFFFFu;
  for (unsigned char ch : payload) {
    c = table[(c ^ ch) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

Result<int64_t> AppendFramedRecord(int fd, const char* magic,
                                   const std::string& payload) {
  const std::string record =
      StrFormat("%s %08x %d ", magic, FrameCrc32(payload),
                static_cast<int>(payload.size())) +
      payload + "\n";
  const char* p = record.data();
  size_t left = record.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::IoError(
          StrFormat("write failed (%s)", std::strerror(errno)));
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  return static_cast<int64_t>(record.size());
}

FramedReadCounts ReadFramedRecords(
    const std::string& path, const char* magic,
    const std::function<bool(const std::string& payload)>& parse) {
  FramedReadCounts counts;
  std::ifstream in(path, std::ios::binary);
  if (!in) return counts;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      // Torn tail: the crash landed mid-append. Everything before this
      // line is intact; the fragment is dropped and counted.
      ++counts.truncated;
      break;
    }
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    std::string payload;
    if (UnframeLine(line, magic, &payload) && parse(payload)) {
      ++counts.intact;
    } else {
      ++counts.skipped;
    }
  }
  return counts;
}

}  // namespace rankhow
