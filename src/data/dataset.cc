#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "data/kernels.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace rankhow {

Dataset::Dataset(std::vector<std::string> attribute_names, int num_tuples)
    : names_(std::move(attribute_names)), num_tuples_(num_tuples) {
  columns_.reserve(names_.size());
  for (size_t i = 0; i < names_.size(); ++i) {
    columns_.push_back(
        std::make_shared<std::vector<double>>(num_tuples, 0.0));
  }
}

Result<int> Dataset::AttributeIndex(const std::string& name) const {
  for (int i = 0; i < num_attributes(); ++i) {
    if (names_[i] == name) return i;
  }
  return Status::NotFound("no attribute named " + name);
}

int Dataset::AddColumn(std::string name, std::vector<double> values) {
  RH_CHECK(static_cast<int>(values.size()) == num_tuples_ ||
           num_attributes() == 0)
      << "column size mismatch";
  if (num_attributes() == 0) num_tuples_ = static_cast<int>(values.size());
  names_.push_back(std::move(name));
  columns_.push_back(std::make_shared<std::vector<double>>(std::move(values)));
  return num_attributes() - 1;
}

int Dataset::AppendTuple(const std::vector<double>& values) {
  RH_CHECK(static_cast<int>(values.size()) == num_attributes())
      << "tuple size mismatch";
  for (int a = 0; a < num_attributes(); ++a) {
    MutableColumn(a).push_back(values[a]);
  }
  return num_tuples_++;
}

double Dataset::ScoreOf(int tuple, const std::vector<double>& weights) const {
  RH_DCHECK(static_cast<int>(weights.size()) == num_attributes());
  double score = 0;
  for (int a = 0; a < num_attributes(); ++a) {
    score += weights[a] * (*columns_[a])[tuple];
  }
  return score;
}

std::vector<double> Dataset::Scores(const std::vector<double>& weights) const {
  RH_DCHECK(static_cast<int>(weights.size()) == num_attributes());
  std::vector<double> scores(num_tuples_, 0.0);
  kernels::BatchScores(*this, weights, scores.data());
  return scores;
}

std::vector<double> Dataset::DiffVector(int s, int r) const {
  std::vector<double> d(num_attributes());
  DiffVectorInto(s, r, d.data());
  return d;
}

void Dataset::DiffVectorInto(int s, int r, double* out) const {
  for (int a = 0; a < num_attributes(); ++a) {
    const std::vector<double>& col = *columns_[a];
    out[a] = col[s] - col[r];
  }
}

void Dataset::NegateColumn(int attr) {
  for (double& v : MutableColumn(attr)) v = -v;
}

std::vector<std::pair<double, double>> Dataset::NormalizeMinMax() {
  std::vector<std::pair<double, double>> ranges;
  ranges.reserve(num_attributes());
  for (int a = 0; a < num_attributes(); ++a) {
    std::vector<double>& col = MutableColumn(a);
    double lo = col.empty() ? 0 : col[0];
    double hi = lo;
    for (double v : col) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    ranges.emplace_back(lo, hi);
    double span = hi - lo;
    for (double& v : col) v = span > 0 ? (v - lo) / span : 0.0;
  }
  return ranges;
}

Dataset Dataset::SelectTuples(const std::vector<int>& tuples) const {
  Dataset out(names_, static_cast<int>(tuples.size()));
  for (int a = 0; a < num_attributes(); ++a) {
    const std::vector<double>& src = *columns_[a];
    std::vector<double>& dst = out.MutableColumn(a);
    for (size_t i = 0; i < tuples.size(); ++i) {
      dst[i] = src[tuples[i]];
    }
  }
  return out;
}

Dataset Dataset::SelectAttributes(const std::vector<int>& attrs) const {
  Dataset out;
  out.num_tuples_ = num_tuples_;
  for (int a : attrs) {
    RH_CHECK(a >= 0 && a < num_attributes());
    out.names_.push_back(names_[a]);
    out.columns_.push_back(columns_[a]);  // shared buffer, COW on mutation
  }
  return out;
}

std::vector<int> Dataset::DropDuplicateTuples() {
  // Hash rows; compare exact values on collision.
  std::unordered_map<size_t, std::vector<int>> buckets;
  std::vector<int> keep;
  keep.reserve(num_tuples_);
  auto row_equal = [&](int a, int b) {
    for (int c = 0; c < num_attributes(); ++c) {
      if ((*columns_[c])[a] != (*columns_[c])[b]) return false;
    }
    return true;
  };
  for (int t = 0; t < num_tuples_; ++t) {
    size_t h = 0xcbf29ce484222325ULL;
    for (int c = 0; c < num_attributes(); ++c) {
      uint64_t bits;
      double v = (*columns_[c])[t];
      std::memcpy(&bits, &v, sizeof(bits));
      h = (h ^ bits) * 0x100000001b3ULL;
    }
    auto& bucket = buckets[h];
    bool duplicate = false;
    for (int other : bucket) {
      if (row_equal(other, t)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      bucket.push_back(t);
      keep.push_back(t);
    }
  }
  if (static_cast<int>(keep.size()) != num_tuples_) {
    *this = SelectTuples(keep);
  }
  return keep;
}

Result<Dataset> Dataset::FromCsv(const CsvTable& csv) {
  Dataset out(csv.header, static_cast<int>(csv.rows.size()));
  for (size_t c = 0; c < csv.header.size(); ++c) {
    std::vector<double>& col = out.MutableColumn(static_cast<int>(c));
    for (size_t r = 0; r < csv.rows.size(); ++r) {
      auto v = ParseDouble(csv.rows[r][c]);
      if (!v.ok()) {
        return Status::Invalid(StrFormat(
            "non-numeric cell at row %zu column '%s'", r,
            csv.header[c].c_str()));
      }
      col[r] = *v;
    }
  }
  return out;
}

}  // namespace rankhow
