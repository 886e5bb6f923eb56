#include "util/string_util.h"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "util/logging.h"

namespace rankhow {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

Result<double> ParseDouble(std::string_view s) {
  std::string buf(Trim(s));
  if (buf.empty()) return Status::Invalid("empty number");
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) {
    return Status::Invalid("cannot parse double: '" + buf + "'");
  }
  return v;
}

Result<int64_t> ParseInt(std::string_view s) {
  std::string buf(Trim(s));
  if (buf.empty()) return Status::Invalid("empty integer");
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) {
    return Status::Invalid("cannot parse int: '" + buf + "'");
  }
  return static_cast<int64_t>(v);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(needed > 0 ? needed : 0, '\0');
  if (needed > 0) {
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string FormatDouble(double v, int precision) {
  std::string s = StrFormat("%.*g", precision, v);
  return s;
}

std::string Join(const std::vector<std::string>& items,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

void AppendField(std::string* line, std::string_view name, int64_t value) {
  if (!line->empty()) *line += ' ';
  *line += name;
  *line += '=';
  *line += std::to_string(value);
}

FlagParser::FlagParser(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "prog";
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (!StartsWith(arg, "--")) {
      std::cerr << "Unexpected positional argument: " << arg << "\n";
      std::exit(2);
    }
    arg.remove_prefix(2);
    size_t eq = arg.find('=');
    std::string name;
    Entry entry;
    if (eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      entry.value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
      if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
        entry.value = argv[++i];
      } else {
        entry.value = "true";  // bare boolean flag
      }
    }
    flags_.emplace_back(name, entry);
  }
}

FlagParser::Entry* FlagParser::Find(const std::string& name) {
  for (auto& [n, e] : flags_) {
    if (n == name) return &e;
  }
  return nullptr;
}

double FlagParser::GetDouble(const std::string& name, double default_value,
                             const std::string& help) {
  help_lines_.push_back(StrFormat("  --%s (default %s): %s", name.c_str(),
                                  FormatDouble(default_value).c_str(),
                                  help.c_str()));
  Entry* e = Find(name);
  if (e == nullptr) return default_value;
  e->used = true;
  auto r = ParseDouble(e->value);
  RH_CHECK(r.ok()) << "bad value for --" << name << ": " << e->value;
  return *r;
}

int64_t FlagParser::GetInt(const std::string& name, int64_t default_value,
                           const std::string& help) {
  help_lines_.push_back(StrFormat("  --%s (default %lld): %s", name.c_str(),
                                  static_cast<long long>(default_value),
                                  help.c_str()));
  Entry* e = Find(name);
  if (e == nullptr) return default_value;
  e->used = true;
  auto r = ParseInt(e->value);
  RH_CHECK(r.ok()) << "bad value for --" << name << ": " << e->value;
  return *r;
}

bool FlagParser::GetBool(const std::string& name, bool default_value,
                         const std::string& help) {
  help_lines_.push_back(StrFormat("  --%s (default %s): %s", name.c_str(),
                                  default_value ? "true" : "false",
                                  help.c_str()));
  Entry* e = Find(name);
  if (e == nullptr) return default_value;
  e->used = true;
  std::string v = e->value;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value,
                                  const std::string& help) {
  help_lines_.push_back(StrFormat("  --%s (default '%s'): %s", name.c_str(),
                                  default_value.c_str(), help.c_str()));
  Entry* e = Find(name);
  if (e == nullptr) return default_value;
  e->used = true;
  return e->value;
}

bool FlagParser::Finish() {
  if (help_requested_) {
    std::cerr << "Usage: " << program_ << " [flags]\n";
    for (const auto& line : help_lines_) std::cerr << line << "\n";
    return false;
  }
  for (const auto& [name, e] : flags_) {
    if (!e.used) {
      std::cerr << "Unknown flag --" << name << " (see --help)\n";
      std::exit(2);
    }
  }
  return true;
}

}  // namespace rankhow
