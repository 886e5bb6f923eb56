#ifndef RANKHOW_UTIL_STRING_UTIL_H_
#define RANKHOW_UTIL_STRING_UTIL_H_

/// \file string_util.h
/// Small string helpers shared by CSV I/O, harness flag parsing,
/// human-readable formatting of scoring functions, and the counter lines
/// the server and the coordinator put on the wire.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace rankhow {

/// Splits on `sep`, keeping empty fields ("a,,b" -> {"a", "", "b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses a double; fails on trailing garbage.
Result<double> ParseDouble(std::string_view s);

/// Parses a signed 64-bit integer; fails on trailing garbage.
Result<int64_t> ParseInt(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats a double compactly ("0.14", "1e-05") for tables/functions.
std::string FormatDouble(double v, int precision = 6);

/// Joins items with a separator.
std::string Join(const std::vector<std::string>& items, std::string_view sep);

/// Appends "name=value" to a space-separated field line — the shape of
/// every counter list the server and the coordinator put on the wire.
void AppendField(std::string* line, std::string_view name, int64_t value);

/// Very small command-line flag parser for harnesses/examples.
///
/// Understands `--name=value` and `--name value`. Unknown flags are fatal
/// (typo safety); positional arguments are rejected.
class FlagParser {
 public:
  FlagParser(int argc, char** argv);

  /// Registers a flag and returns its value (or the default). `help` is shown
  /// by --help output.
  double GetDouble(const std::string& name, double default_value,
                   const std::string& help);
  int64_t GetInt(const std::string& name, int64_t default_value,
                 const std::string& help);
  bool GetBool(const std::string& name, bool default_value,
               const std::string& help);
  std::string GetString(const std::string& name,
                        const std::string& default_value,
                        const std::string& help);

  /// Call after all Get* registrations: handles --help and rejects unknown
  /// flags. Returns false if the program should exit (help was printed).
  bool Finish();

 private:
  struct Entry {
    std::string value;
    bool used = false;
  };
  std::string program_;
  std::vector<std::pair<std::string, Entry>> flags_;
  std::vector<std::string> help_lines_;
  bool help_requested_ = false;

  Entry* Find(const std::string& name);
};

}  // namespace rankhow

#endif  // RANKHOW_UTIL_STRING_UTIL_H_
