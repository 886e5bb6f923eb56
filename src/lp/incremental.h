#ifndef RANKHOW_LP_INCREMENTAL_H_
#define RANKHOW_LP_INCREMENTAL_H_

/// \file incremental.h
/// Warm-started incremental LP solving. One `IncrementalLp` owns a compiled
/// bounded-variable simplex instance for the lifetime of a branch-and-bound
/// tree (or a SYM-GD cell sweep) and supports the three mutations those
/// searches actually perform between solves:
///
///   * `SetVariableBounds` — indicator fixings / box moves (bound flips),
///   * `AddRow` + `SetRowActive` — lazy row separation with cheap undo
///     (deactivating a row frees its slack instead of shrinking the tableau),
///   * `Solve(warm_basis)` — re-optimization from the previous (or an
///     imported parent) basis.
///
/// Unlike SimplexSolver (lp/simplex.h), which compiles every finite upper
/// bound into an extra row and cold-starts two-phase primal simplex per
/// call, this engine treats variable bounds natively (nonbasic variables sit
/// at either bound) and persists the dense `B⁻¹A` tableau between calls, so
/// a child node whose parent basis became primal-infeasible after a bound
/// flip is repaired by a few *dual* simplex pivots instead of a full
/// Phase-1/Phase-2 restart. SimplexSolver stays as the cold-start fallback
/// and cross-check oracle (see DESIGN.md "Incremental LP architecture").
///
/// One tableau can live thousands of pivots without a refactorization, so no
/// answer rests on it alone. A feasible point is checked against the
/// original rows. An infeasibility verdict from warm state must pass a
/// Farkas certificate recomputed from the original rows
/// (`CertifiesInfeasible`), or it is re-confirmed on a rebuilt tableau. A
/// solve that pivoted on an element tiny against its row is repeated on a
/// rebuilt tableau. Pivot-row entries below 1e-11 are dropped as round-off,
/// which keeps the tableau as sparse as the rows it came from.

#include <cstdint>
#include <vector>

#include "lp/model.h"
#include "lp/simplex.h"
#include "util/status.h"
#include "util/timer.h"

namespace rankhow {

/// A simplex basis snapshot: which column is basic in each row, and which
/// nonbasic columns sit at their upper bound. Exported after a node solve
/// and threaded to the node's children as their warm start. Snapshots stay
/// valid as the instance grows: rows/columns added later simply keep their
/// own (slack-basic / at-bound) state on import.
struct LpBasis {
  std::vector<int> basic;         ///< row -> basic column
  std::vector<uint8_t> at_upper;  ///< per column: nonbasic at upper bound
};

/// Cumulative counters over the life of one IncrementalLp.
struct IncrementalLpStats {
  int64_t solves = 0;
  /// Solves that reused a persisted/imported basis.
  int64_t warm_solves = 0;
  /// Solves that started from the all-slack basis: the first solve only. A
  /// rebuild inside a solve counts in `rebuilds`, not here.
  int64_t cold_solves = 0;
  int64_t primal_pivots = 0;
  int64_t dual_pivots = 0;
  /// Zero-cost dual pivots restoring primal feasibility on cold starts.
  int64_t repair_pivots = 0;
  /// Pivots spent steering the tableau toward an imported basis.
  int64_t import_pivots = 0;
  /// Nonbasic bound-to-bound moves (cheap: no elimination).
  int64_t bound_flips = 0;
  /// Full tableau rebuilds: after a failed post-solve check, after a pivot
  /// that multiplied round-off past the growth limit, or to confirm an
  /// infeasibility verdict from a warm basis that no certificate proved.
  int64_t rebuilds = 0;
  /// Infeasibility verdicts from a warm basis accepted on a Farkas
  /// certificate (CertifiesInfeasible), without a rebuild.
  int64_t certified_infeasible = 0;

  int64_t total_pivots() const {
    return primal_pivots + dual_pivots + repair_pivots + import_pivots;
  }
};

/// A mutable, warm-startable LP instance. Not thread-safe; one instance per
/// search tree.
///
/// Error codes from Solve: kInfeasible, kUnbounded, kResourceExhausted
/// (iteration/deadline caps), kNumerical (post-solve check failed even
/// after a rebuild — callers should fall back to SimplexSolver).
class IncrementalLp {
 public:
  /// Compiles `base`: its variables (with bounds), rows, and objective.
  /// Row ids returned by AddRow continue the base row numbering. Pivoting
  /// reads the same tolerances as SimplexSolver (lp/simplex.h).
  explicit IncrementalLp(const LpModel& base);

  int num_variables() const { return num_structural_; }
  int num_rows() const { return static_cast<int>(rows_.size()); }

  /// Replaces the bounds of a base-model variable. Cheap: the factorized
  /// state is kept; the next Solve repairs primal feasibility dually.
  void SetVariableBounds(int var, double lower, double upper);
  double variable_lower(int var) const { return lower_[var]; }
  double variable_upper(int var) const { return upper_[var]; }

  /// Appends a row (active). Returns its id. The expression's constant is
  /// folded into the rhs. The tableau grows by one row + one slack column;
  /// the current basis is extended with the new slack, so a subsequent warm
  /// Solve repairs the (possibly violated) new row dually.
  int AddRow(const LinearExpr& expr, RelOp op, double rhs);

  /// Enables/disables a row without touching the tableau shape: a disabled
  /// row's slack becomes free, which is equivalent to deleting the row.
  void SetRowActive(int row, bool active);
  bool row_active(int row) const { return rows_[row].active; }

  /// Re-optimizes from the persisted state. `warm` (optional) steers the
  /// basis toward a snapshot exported from a related solve first; pass
  /// nullptr to reuse the current basis. `deadline_seconds` <= 0 means no
  /// deadline.
  Result<LpSolution> Solve(const LpBasis* warm = nullptr,
                           double deadline_seconds = 0);

  /// Snapshot of the current basis (after a successful Solve).
  LpBasis ExportBasis() const;

  /// The safe Farkas test of Neumaier & Shcherbina (Math. Prog. 2004) on the
  /// current rows and bounds. Every row reads a·x + s = b, with its slack s
  /// bounded by the row's sense (free when the row is inactive). `y` holds
  /// one multiplier per row. Returns true when yᵀb lies outside the range of
  /// yᵀ[A I] z over the current column and slack bounds by more than 1e-9
  /// times the summed magnitudes of the terms, which proves that no point
  /// within the bounds satisfies the active rows. yᵀA and yᵀb are computed
  /// from the original rows. A nonzero coefficient on a column whose needed
  /// bound is infinite leaves that side of the range unbounded, and one
  /// within its own rounding error of zero needs both of its column's bounds.
  bool CertifiesInfeasible(const std::vector<double>& y) const;

  const IncrementalLpStats& stats() const { return stats_; }

 private:
  enum ColStatus : int8_t { kAtLower, kAtUpper, kBasic, kFreeAtZero };

  struct RowData {
    std::vector<std::pair<int, double>> terms;  // structural columns only
    RelOp op = RelOp::kLe;
    double rhs = 0.0;  // jittered, constant folded
    bool active = true;
  };

  double Value(int col) const;
  void SlackBounds(const RowData& row, double* lo, double* up) const;
  void ApplyColumnBoundsStatus(int col);
  /// Builds the tableau from the original row data with the all-slack basis.
  void Factorize();
  /// Gauss–Jordan pivot on (row, col): tableau, rhs column, reduced costs.
  /// Updates only the pivot row's nonzero column pairs.
  void PivotTab(int row, int col);
  /// Nonbasic placement for a column leaving the basis (finite bound
  /// preferred; honors an at-upper hint when given).
  void PlaceLeavingColumn(int col, bool prefer_upper);
  /// Recomputes basic values / reduced costs from the tableau (cheap:
  /// O(rows·cols); removes drift accumulated by bound edits between solves).
  void RefreshBeta();
  void RefreshCosts();
  bool PrimalFeasible() const;
  bool DualFeasible() const;
  void ImportBasis(const LpBasis& basis, int* iterations);
  Status RunPrimal(const Deadline& deadline, int* iterations);
  /// `repair_mode`: treat all costs as zero (pure feasibility restoration).
  /// An infeasibility verdict records its row in `infeasible_row_`.
  Status RunDual(const Deadline& deadline, int* iterations, bool repair_mode);
  Status OptimizeFromCurrentBasis(const Deadline& deadline, int* iterations);
  /// Checks the solution against original rows/bounds (magnitude-aware).
  bool SolutionConsistent(const std::vector<double>& values) const;
  /// Multipliers for CertifiesInfeasible from tableau row `row`: its slack
  /// columns, which hold row `row` of B⁻¹. Entries of inactive rows and
  /// entries below kPivotTol times the largest are zeroed (any y is a valid
  /// multiplier; these only add rounding).
  std::vector<double> FarkasMultipliers(int row) const;

  int num_structural_ = 0;
  LinearExpr objective_;          // original, for reporting
  std::vector<double> cost_;      // minimization costs, structural columns
  std::vector<double> lower_, upper_;  // per column (structural + slack)
  std::vector<RowData> rows_;

  // Factorized state (valid once factorized_ is set).
  bool factorized_ = false;
  std::vector<std::vector<double>> tab_;  // rows × columns, B⁻¹A
  std::vector<double> rhs0_;              // B⁻¹b
  std::vector<int> basic_;                // row -> column
  std::vector<int8_t> status_;            // per column
  std::vector<double> beta_;              // basic variable values
  std::vector<double> d_;                 // reduced costs
  std::vector<int> pivot_pairs_;          // PivotTab's nonzero column pairs
  int infeasible_row_ = -1;               // RunDual's last verdict row
  /// Set by a pivot whose scaled pivot row exceeds kGrowthLimit (its
  /// round-off was multiplied that much into the touched rows); cleared by
  /// Factorize. Answers from such a tableau are re-solved on a rebuild.
  bool unstable_ = false;
  /// Pivots since the last clean factorization. An infeasibility verdict
  /// reached with none read the original rows and needs no certificate.
  int64_t pivots_since_factorize_ = 0;

  IncrementalLpStats stats_;
};

}  // namespace rankhow

#endif  // RANKHOW_LP_INCREMENTAL_H_
