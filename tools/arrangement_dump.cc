// arrangement_dump — regenerate the geometry of Figures 1 and 2.
//
// Figure 1 of the paper shows weight vectors over the 2-simplex with the
// oblique tie lines (weights where some pair of tuples scores equally)
// separating tie-free regions; Figure 2 shows Example 5's solution space
// with the indicator boundaries for (r, s, t) and the region containing a
// perfect scoring function. This tool emits both as CSV:
//
//   segments.csv : one row per indicator boundary segment clipped to the
//                  simplex — s, r, level, and the two barycentric endpoints
//   field.csv    : position error sampled on a barycentric grid (the
//                  terrain whose cells Fig. 1 illustrates)
//
// By default it reproduces Example 4/5's three tuples exactly; point it at
// any 3-attribute CSV with --data (first 3 numeric columns are used).
//
// Run: ./build/arrangement_dump [--resolution=60]
//      [--eps1=1e-6] [--eps2=0] [--data=file.csv --k=...]

#include <fstream>
#include <iostream>

#include "app/cli_driver.h"
#include "core/arrangement.h"
#include "util/string_util.h"

using namespace rankhow;

namespace {

Status WriteSegments(const std::string& path,
                     const std::vector<SimplexSegment>& segments) {
  std::ofstream out(path);
  if (!out) return Status::Invalid("cannot open " + path);
  out << "s,r,level,a_w1,a_w2,a_w3,b_w1,b_w2,b_w3\n";
  for (const SimplexSegment& seg : segments) {
    out << seg.s << ',' << seg.r << ',' << seg.level;
    for (double v : seg.a) out << ',' << v;
    for (double v : seg.b) out << ',' << v;
    out << '\n';
  }
  return Status();
}

Status WriteField(const std::string& path,
                  const std::vector<ErrorSample>& field) {
  std::ofstream out(path);
  if (!out) return Status::Invalid("cannot open " + path);
  out << "w1,w2,w3,error\n";
  for (const ErrorSample& sample : field) {
    out << sample.w[0] << ',' << sample.w[1] << ',' << sample.w[2] << ','
        << sample.error << '\n';
  }
  return Status();
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  std::string data_path = flags.GetString(
      "data", "", "optional 3-attribute CSV (default: Example 4's tuples)");
  std::string rank_column =
      flags.GetString("rank", "", "rank column of --data");
  int k = static_cast<int>(
      flags.GetInt("k", 2, "ranking length when --data has no rank column"));
  int resolution = static_cast<int>(
      flags.GetInt("resolution", 60, "barycentric grid subdivisions"));
  double eps1 = flags.GetDouble("eps1", 1e-6, "ε₁ boundary level (Fig. 2)");
  double eps2 = flags.GetDouble("eps2", 0.0, "ε₂ boundary level (Fig. 2)");
  double tie_eps = flags.GetDouble("eps", 0.0, "tie ε for the error field");
  if (!flags.Finish()) return 0;

  Dataset data;
  Ranking given;
  if (data_path.empty()) {
    // Example 4: r = (3,2,8), s = (4,1,15), t = (1,1,14), π = [1, 2, ⊥].
    data = Dataset({"A1", "A2", "A3"}, 3);
    const double rows[3][3] = {{3, 2, 8}, {4, 1, 15}, {1, 1, 14}};
    for (int t = 0; t < 3; ++t) {
      for (int a = 0; a < 3; ++a) data.set_value(t, a, rows[t][a]);
    }
    auto ranking = Ranking::Create({1, 2, kUnranked});
    if (!ranking.ok()) return 1;
    given = *std::move(ranking);
    std::cout << "Using Example 4/5's instance (Fig. 2 geometry).\n";
  } else {
    auto csv = ReadCsvFile(data_path);
    if (!csv.ok()) {
      std::cerr << csv.status().ToString() << "\n";
      return 1;
    }
    CliDataSpec spec;
    spec.rank_column = rank_column;
    spec.k = k;
    spec.normalize = false;
    auto problem = AssembleCliProblem(*csv, spec);
    if (!problem.ok()) {
      std::cerr << problem.status().ToString() << "\n";
      return 1;
    }
    if (problem->data.num_attributes() != 3) {
      std::cerr << "need exactly 3 attributes, got "
                << problem->data.num_attributes() << "\n";
      return 1;
    }
    data = std::move(problem->data);
    given = std::move(problem->given);
  }

  std::vector<int> tuples;
  for (int t = 0; t < data.num_tuples(); ++t) tuples.push_back(t);

  // Tie boundaries (Fig. 1's oblique lines) plus the ε₁/ε₂ indicator
  // levels (Fig. 2 / Equation 2).
  std::vector<SimplexSegment> all;
  for (double level : {0.0, eps1, eps2}) {
    auto segments = TieBoundarySegments(data, tuples, level);
    if (!segments.ok()) {
      std::cerr << segments.status().ToString() << "\n";
      return 1;
    }
    all.insert(all.end(), segments->begin(), segments->end());
  }
  Status st = WriteSegments("arrangement_segments.csv", all);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  auto field = ErrorField(data, given, resolution, tie_eps);
  if (!field.ok()) {
    std::cerr << field.status().ToString() << "\n";
    return 1;
  }
  st = WriteField("arrangement_field.csv", *field);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }

  long best = field->front().error;
  long worst = best;
  for (const ErrorSample& sample : *field) {
    best = std::min(best, sample.error);
    worst = std::max(worst, sample.error);
  }
  std::cout << all.size() << " boundary segments -> arrangement_segments.csv\n"
            << field->size() << " grid samples -> arrangement_field.csv "
            << "(error range " << best << ".." << worst << ")\n"
            << "Plot: color the simplex by `error`, draw the segments; the "
               "star of Fig. 1 is any minimum-error sample.\n";
  return 0;
}
