#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

// Shared plumbing of the benchmark runner: the run configuration, the
// result report (metrics with units and sample counts, attempted/failed
// operations, failure reasons), the in-memory span tracer used by traced
// runs, and small statistics helpers. See perfbench/README.md.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/rankhow.h"
#include "data/dataset.h"
#include "ranking/ranking.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small instances and short windows, for the benchmark's own tests.
  bool tiny = false;
  /// Test hook: replaces the workload's expected answer, so a wrong
  /// expectation must surface as failed operations.
  long expect_error = -1;
  /// Test hook: perturbs one served ack before the serial-replay check.
  bool corrupt_ack = false;
  /// Directory (inside the checkout) for span dumps and server temp dirs.
  std::string out_dir = ".bench_out";
};

struct Metric {
  double value = 0;
  std::string unit;
  long samples = 0;
};

/// Everything one run reports. Operations are counted as attempted and
/// failed; a failure also records its reason (the first few are kept).
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           long samples = 1);
  void Attempt(long count = 1) { attempted_ += count; }
  void Fail(const std::string& why);
  void Info(const std::string& key, const std::string& value) {
    info_[key] = value;
  }

  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  /// (attempted - failed) / attempted, as the `ok_frac` metric.
  void SetOkFrac();

  /// One JSON object: correct, attempted, failed, metrics (value, unit,
  /// samples), failures, info.
  std::string ToJson() const;

 private:
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> info_;
};

/// Spans recorded in memory around calls into the program's layers, and
/// written out once at the end. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int64_t trace_id = 0;
    double start = 0;
    double end = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its id (-1 when disabled).
  int Begin(const std::string& name, int parent, int64_t trace_id);
  void End(int id);

  /// Self time per span name, summed over all spans of that name: a
  /// span's duration minus the part its children cover.
  std::map<std::string, double> SelfSeconds() const;
  /// Seconds spent inside Begin/End themselves (the tracer's own cost).
  double overhead_seconds() const { return overhead_; }

  /// Writes (or appends) the spans as JSON lines; false on I/O failure.
  bool WriteJsonLines(const std::string& path, bool append = false) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  double overhead_ = 0;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent,
             int64_t trace_id)
      : tracer_(tracer), id_(tracer->Begin(name, parent, trace_id)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Monotonic seconds.
double Now();
/// CPU seconds consumed by the calling thread.
double ThreadCpuSeconds();

/// Timings on a shared machine drift with its load: identical solves took
/// anywhere from 1.26 to 1.81 CPU seconds over a few minutes. The reference
/// kernel (scoring and sorting 22 840 rows, in the benchmark's own code, so
/// no change to the program moves it) drifts with them. End-to-end timings
/// are reported speed-adjusted: measured x kReferenceSeconds / the
/// reference's CPU time measured next to them, i.e. seconds on a machine
/// where the reference takes kReferenceSeconds (about its time on an idle
/// 4-vCPU x86-64 cloud VM).
inline constexpr double kReferenceSeconds = 0.016;
/// CPU seconds of one run of the reference kernel.
double ReferenceCpuSeconds();
double Median(std::vector<double> values);
/// Nearest-rank quantile (q in (0, 1]).
double Quantile(std::vector<double> values, double q);
/// Samples strictly beyond the nearest-rank q-quantile of `n` samples.
long SamplesBeyond(long n, double q);
double PeakRssMb();

/// The NBA-simulator instance every workload draws from: the first `n`
/// rows of the paper-size (22 840 player-season) table, the first `m`
/// ranking attributes min-max normalized, ranked top-`k` by MP x PER.
/// A non-zero `permutation_seed` shuffles the tuple order.
struct Instance {
  rankhow::Dataset data;
  rankhow::Ranking given;
};
Instance MakeNbaInstance(int n, int m, int k, uint64_t permutation_seed);

/// Solver configuration of every workload: the paper's NBA epsilons
/// (Sec. VI-A), one thread, no time limit.
rankhow::RankHowOptions BenchSolverOptions();

void RunSolverWorkload(const RunConfig& config, Report* report);
void RunServeWorkload(const RunConfig& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
