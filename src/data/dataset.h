#ifndef RANKHOW_DATA_DATASET_H_
#define RANKHOW_DATA_DATASET_H_

/// \file dataset.h
/// Column-major numeric relation R(A1..Am). Columns are the ranking
/// attributes; higher values are assumed desirable (use NegateColumn for
/// undesirable properties like turnovers, per Sec. I of the paper).
///
/// Storage invariants (see DESIGN.md "Dataset layout & kernel contracts"):
///  * Structure-of-arrays: each attribute is one contiguous double array of
///    length num_tuples(); there is no row object anywhere.
///  * Column buffers are refcounted and copy-on-write at COLUMN granularity:
///    copying a Dataset shares every buffer (O(m) pointer copies), and each
///    mutating operation unshares only the columns it touches. Value
///    semantics are preserved — a copy never observes a sibling's mutation.
///  * Scan-heavy callers (scoring, ranking verification, indicator fixing)
///    must go through data/kernels.h, which runs blocked, allocation-free
///    loops over column_data(); `value()` is for incidental element access.

#include <memory>
#include <string>
#include <vector>

#include "util/csv.h"
#include "util/status.h"

namespace rankhow {

/// A dense numeric table with named attributes, stored column-major for the
/// scan-heavy access patterns (scoring, indicator fixing).
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::vector<std::string> attribute_names, int num_tuples);

  int num_tuples() const { return num_tuples_; }
  int num_attributes() const { return static_cast<int>(columns_.size()); }

  const std::string& attribute_name(int attr) const { return names_[attr]; }
  const std::vector<std::string>& attribute_names() const { return names_; }
  /// Index of a named attribute.
  Result<int> AttributeIndex(const std::string& name) const;

  double value(int tuple, int attr) const { return (*columns_[attr])[tuple]; }
  void set_value(int tuple, int attr, double v) {
    MutableColumn(attr)[tuple] = v;
  }
  const std::vector<double>& column(int attr) const { return *columns_[attr]; }
  /// Contiguous storage of one attribute — the kernel entry point. Valid
  /// until the next mutating call on this Dataset.
  const double* column_data(int attr) const { return columns_[attr]->data(); }
  /// Physical identity of a column buffer. Two Datasets returning the same
  /// id for an attribute share that buffer (per-column COW accounting).
  const void* column_id(int attr) const { return columns_[attr].get(); }
  /// The refcounted buffer itself — for tests holding a weak_ptr to assert
  /// a column is freed, and for zero-copy readers that must outlive *this.
  std::shared_ptr<const std::vector<double>> column_handle(int attr) const {
    return columns_[attr];
  }

  /// Appends a column; must match num_tuples. Returns its index.
  int AddColumn(std::string name, std::vector<double> values);

  /// Appends a tuple (one value per attribute, in column order) and returns
  /// its id. The SolveSession append-tuples delta; cheap because the storage
  /// is column-major (one push_back per column; shared columns unshare).
  int AppendTuple(const std::vector<double>& values);

  /// f_W(r) = Σ wᵢ·Aᵢ(r) for one tuple.
  double ScoreOf(int tuple, const std::vector<double>& weights) const;
  /// Scores for all tuples. Batched column-at-a-time; for allocation-free
  /// repeated evaluation use kernels::BatchScores with a reused buffer.
  std::vector<double> Scores(const std::vector<double>& weights) const;

  /// Attribute difference vector d(s,r) with dᵢ = s.Aᵢ − r.Aᵢ. The score
  /// difference f_W(s) − f_W(r) equals w·d (the indicator hyperplanes of
  /// Eq. (2)).
  std::vector<double> DiffVector(int s, int r) const;
  /// Allocation-free variant: writes d(s,r) into out[0..m). The hot-path
  /// form — every per-pair caller (arrangement, indicator fixing, tree
  /// baseline) uses this with a reused buffer.
  void DiffVectorInto(int s, int r, double* out) const;

  /// Flips the sign of a column (for undesirable attributes). Unshares only
  /// this column.
  void NegateColumn(int attr);

  /// Rescales every column to [0,1] (min-max). Constant columns map to 0.
  /// Returns per-column (min, max) used, for interpreting weights later.
  std::vector<std::pair<double, double>> NormalizeMinMax();

  /// New dataset with the given tuple rows (in the given order).
  Dataset SelectTuples(const std::vector<int>& tuples) const;
  /// New dataset with the given attribute columns (in the given order).
  /// O(1) per column: the result shares the column buffers.
  Dataset SelectAttributes(const std::vector<int>& attrs) const;

  /// Removes tuples that are exact duplicates of an earlier tuple across all
  /// attributes (the paper keeps one of identically-statted players).
  /// Returns the kept tuple ids (in original order).
  std::vector<int> DropDuplicateTuples();

  /// Loads numeric columns from a parsed CSV (all columns by default).
  static Result<Dataset> FromCsv(const CsvTable& csv);

 private:
  /// The column with *this as its sole owner, unsharing (one buffer copy)
  /// if the buffer is shared with sibling Datasets. Same single-owner race
  /// argument as SharedDataset::Mutable: both sharers copy before writing,
  /// so nobody mutates a buffer another Dataset can still read.
  std::vector<double>& MutableColumn(int attr) {
    if (columns_[attr].use_count() > 1) {
      columns_[attr] = std::make_shared<std::vector<double>>(*columns_[attr]);
    }
    return *columns_[attr];
  }

  std::vector<std::string> names_;
  std::vector<std::shared_ptr<std::vector<double>>> columns_;
  int num_tuples_ = 0;
};

}  // namespace rankhow

#endif  // RANKHOW_DATA_DATASET_H_
