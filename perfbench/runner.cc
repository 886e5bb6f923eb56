// perfbench_runner: runs one benchmark workload and prints its result as
// one JSON object on the last line of standard output. perfbench/run.py
// builds and drives it; run it directly for debugging:
//
//   .bench_build/perfbench_runner --workload cold_spatial --seed 1
//       --seconds 10 --trace 0
//
// Workloads: cold_spatial, cold_milp, symgd_full, serve_edits.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "data/nba.h"
#include "util/random.h"

namespace perfbench {

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit, long samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::SetOkFrac() {
  Set("ok_frac",
      attempted_ > 0 ? static_cast<double>(attempted_ - failed_) / attempted_
                     : 0,
      "fraction", attempted_);
}

void Report::Fail(const std::string& why) {
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(why);
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    out << (first ? "" : ", ") << JsonString(name)
        << ": {\"value\": " << JsonNumber(metric.value)
        << ", \"unit\": " << JsonString(metric.unit)
        << ", \"samples\": " << metric.samples << "}";
    first = false;
  }
  out << "}, \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(failures_[i]);
  }
  out << "], \"info\": {";
  first = true;
  for (const auto& [key, value] : info_) {
    out << (first ? "" : ", ") << JsonString(key) << ": " << JsonString(value);
    first = false;
  }
  out << "}}";
  return out.str();
}

int Tracer::Begin(const std::string& name, int parent, int64_t trace_id) {
  if (!enabled_) return -1;
  const double t0 = Now();
  spans_.push_back(Span{name, parent, trace_id, 0, 0});
  const int id = static_cast<int>(spans_.size()) - 1;
  spans_[id].start = Now();
  overhead_ += spans_[id].start - t0;
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[id].end = Now();
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  // Children of one parent never overlap (every workload records spans
  // from one thread per trace), so covered time is the sum of child
  // durations.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) covered[span.parent] += span.end - span.start;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].end - spans_[i].start - covered[i];
  }
  return self;
}

bool Tracer::WriteJsonLines(const std::string& path, bool append) const {
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"parent\": " << s.parent << ", \"trace\": " << s.trace_id
        << ", \"start_s\": " << JsonNumber(s.start)
        << ", \"end_s\": " << JsonNumber(s.end) << "}\n";
  }
  return static_cast<bool>(out);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuSeconds() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

double ReferenceCpuSeconds() {
  constexpr int kRows = 22840;
  constexpr int kAttrs = 5;
  static const std::vector<double> table = [] {
    std::vector<double> t(kRows * kAttrs);
    uint64_t state = 0x9E3779B97F4A7C15ULL;
    for (double& x : t) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      x = static_cast<double>(state >> 11) * 0x1.0p-53;
    }
    return t;
  }();
  const double t0 = ThreadCpuSeconds();
  std::vector<double> scores(kRows);
  std::vector<int> order(kRows);
  double sink = 0;
  for (int round = 0; round < 8; ++round) {
    const double w[kAttrs] = {0.1 + 0.01 * round, 0.2, 0.3, 0.15,
                              0.25 - 0.01 * round};
    for (int i = 0; i < kRows; ++i) {
      double s = 0;
      for (int a = 0; a < kAttrs; ++a) s += w[a] * table[i * kAttrs + a];
      scores[i] = s;
      order[i] = i;
    }
    std::sort(order.begin(), order.end(),
              [&](int x, int y) { return scores[x] > scores[y]; });
    sink += scores[order[round]];
  }
  volatile double keep = sink;
  (void)keep;
  return ThreadCpuSeconds() - t0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  long rank = static_cast<long>(std::ceil(q * values.size()));
  rank = std::clamp(rank, 1L, static_cast<long>(values.size()));
  return values[rank - 1];
}

long SamplesBeyond(long n, double q) {
  return n - std::clamp(static_cast<long>(std::ceil(q * n)), 0L, n);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

rankhow::RankHowOptions BenchSolverOptions() {
  rankhow::RankHowOptions options;
  options.eps.tie_eps = 5e-5;
  options.eps.eps1 = 1e-4;
  options.eps.eps2 = 0.0;
  options.num_threads = 1;
  return options;
}

Instance MakeNbaInstance(int n, int m, int k, uint64_t permutation_seed) {
  // The generator draws tuples sequentially, so the first n rows of the
  // full table are the same players at every n; generating the full table
  // keeps set-up cost independent of the instance size.
  rankhow::NbaData nba = rankhow::GenerateNba({.num_tuples = 22840, .seed = 1});
  std::vector<int> rows(n);
  for (int i = 0; i < n; ++i) rows[i] = i;
  if (permutation_seed != 0) {
    rankhow::Rng rng(permutation_seed);
    rng.Shuffle(&rows);
  }
  std::vector<int> attrs;
  for (int a = 0; a < m; ++a) attrs.push_back(a);
  Instance instance;
  instance.data = nba.table.SelectTuples(rows).SelectAttributes(attrs);
  instance.data.NormalizeMinMax();
  std::vector<double> score(n);
  for (int i = 0; i < n; ++i) score[i] = nba.mp_times_per[rows[i]];
  instance.given = rankhow::Ranking::FromScores(score, k, 0.0);
  return instance;
}

}  // namespace perfbench

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--tiny] [--expect-error E] [--corrupt-ack] "
               "[--out-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--expect-error" && has_value) {
      config.expect_error = std::atol(argv[++i]);
    } else if (arg == "--out-dir" && has_value) {
      config.out_dir = argv[++i];
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--corrupt-ack") {
      config.corrupt_ack = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (config.seconds <= 0) return Usage(argv[0]);

  perfbench::Report report;
  if (config.workload == "serve_edits") {
    perfbench::RunServeWorkload(config, &report);
  } else if (config.workload == "cold_spatial" ||
             config.workload == "cold_milp" ||
             config.workload == "symgd_full") {
    perfbench::RunSolverWorkload(config, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
