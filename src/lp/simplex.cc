#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/logging.h"
#include "util/timer.h"

namespace rankhow {

namespace {

/// How an original model variable maps into standard-form columns.
struct VarMap {
  enum Kind {
    kShifted,   // x = lower + x'        (finite lower bound)
    kNegated,   // x = upper − x'        (lower = −inf, finite upper)
    kSplit,     // x = x'₊ − x'₋          (free)
  } kind = kShifted;
  int col = -1;       // primary standard-form column
  int col_neg = -1;   // second column for kSplit
  double shift = 0;   // lower (kShifted) or upper (kNegated)
};

/// Dense standard-form tableau with two objective rows (phase 1 and 2).
class Tableau {
 public:
  Tableau(int rows, int cols)
      : rows_(rows),
        cols_(cols),
        data_(static_cast<size_t>(rows + 2) * (cols + 1), 0.0),
        basis_(rows, -1),
        active_(rows, true) {}

  double& At(int r, int c) {
    return data_[static_cast<size_t>(r) * (cols_ + 1) + c];
  }
  double At(int r, int c) const {
    return data_[static_cast<size_t>(r) * (cols_ + 1) + c];
  }
  double& Rhs(int r) { return At(r, cols_); }
  double Rhs(int r) const { return At(r, cols_); }
  // Objective rows: phase-2 at rows_, phase-1 at rows_+1.
  int Phase2Row() const { return rows_; }
  int Phase1Row() const { return rows_ + 1; }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int& BasisVar(int r) { return basis_[r]; }
  bool IsActive(int r) const { return active_[r]; }
  void Deactivate(int r) {
    active_[r] = false;
    for (int c = 0; c <= cols_; ++c) At(r, c) = 0.0;
    basis_[r] = -1;
  }

  /// Gauss–Jordan pivot on (row, col), updating both objective rows.
  /// `drop_tol`: rows whose pivot-column factor is at most this magnitude
  /// are not eliminated at all — the entry is zeroed directly, trading a
  /// sub-tolerance perturbation (already treated as zero by every
  /// pricing/ratio test) for skipping an O(cols) row update.
  void Pivot(int row, int col, double drop_tol = 0.0) {
    double* prow = RowPtr(row);
    double inv = 1.0 / prow[col];
    for (int c = 0; c <= cols_; ++c) prow[c] *= inv;
    prow[col] = 1.0;  // exact
    for (int r = 0; r < rows_ + 2; ++r) {
      if (r == row || !RowRelevant(r)) continue;
      double* rrow = RowPtr(r);
      double factor = rrow[col];
      if (factor == 0.0) continue;
      if (std::abs(factor) <= drop_tol) {
        rrow[col] = 0.0;
        continue;
      }
      for (int c = 0; c <= cols_; ++c) rrow[c] -= factor * prow[c];
      rrow[col] = 0.0;  // exact
    }
    basis_[row] = col;
  }

 private:
  bool RowRelevant(int r) const {
    return r >= rows_ || active_[r];
  }
  double* RowPtr(int r) {
    return data_.data() + static_cast<size_t>(r) * (cols_ + 1);
  }

  int rows_;
  int cols_;
  std::vector<double> data_;
  std::vector<int> basis_;
  std::vector<bool> active_;
};

struct StandardForm {
  Tableau tableau;
  std::vector<VarMap> var_map;
  int num_structural = 0;   // standard-form structural columns
  int first_artificial = 0; // columns >= this are artificial
  double objective_shift = 0;
  bool maximize = false;
};

}  // namespace

namespace {

Result<StandardForm> BuildStandardForm(const LpModel& model) {
  const int n_vars = model.num_variables();

  // 1. Map variables to non-negative standard-form columns.
  std::vector<VarMap> var_map(n_vars);
  int next_col = 0;
  int extra_upper_rows = 0;
  for (int j = 0; j < n_vars; ++j) {
    const LpVariable& v = model.variable(j);
    if (std::isinf(v.lower) && std::isinf(v.upper)) {
      var_map[j] = {VarMap::kSplit, next_col, next_col + 1, 0.0};
      next_col += 2;
    } else if (std::isinf(v.lower)) {
      var_map[j] = {VarMap::kNegated, next_col, -1, v.upper};
      next_col += 1;
    } else {
      var_map[j] = {VarMap::kShifted, next_col, -1, v.lower};
      next_col += 1;
      if (!std::isinf(v.upper) && v.upper > v.lower) ++extra_upper_rows;
      if (!std::isinf(v.upper) && v.upper == v.lower) {
        // Fixed variable: column bounded by an equality row below.
        ++extra_upper_rows;
      }
    }
  }
  const int num_structural = next_col;

  // 2. Collect rows: model constraints + upper-bound rows.
  struct Row {
    std::vector<std::pair<int, double>> terms;  // (standard col, coeff)
    RelOp op;
    double rhs;
  };
  std::vector<Row> rows;
  rows.reserve(model.num_constraints() + extra_upper_rows);

  auto substitute = [&](const LinearExpr& expr, RelOp op,
                        double rhs_in) -> Row {
    Row row;
    row.op = op;
    double rhs = rhs_in - expr.constant();
    for (const auto& [var, coeff] : expr.terms()) {
      const VarMap& vm = var_map[var];
      switch (vm.kind) {
        case VarMap::kShifted:
          row.terms.emplace_back(vm.col, coeff);
          rhs -= coeff * vm.shift;
          break;
        case VarMap::kNegated:
          row.terms.emplace_back(vm.col, -coeff);
          rhs -= coeff * vm.shift;
          break;
        case VarMap::kSplit:
          row.terms.emplace_back(vm.col, coeff);
          row.terms.emplace_back(vm.col_neg, -coeff);
          break;
      }
    }
    row.rhs = rhs;
    return row;
  };

  for (int i = 0; i < model.num_constraints(); ++i) {
    const LpConstraint& c = model.constraint(i);
    rows.push_back(substitute(c.expr, c.op, c.rhs));
  }
  for (int j = 0; j < n_vars; ++j) {
    const LpVariable& v = model.variable(j);
    const VarMap& vm = var_map[j];
    if (vm.kind == VarMap::kShifted && !std::isinf(v.upper)) {
      if (v.upper > v.lower) {
        rows.push_back(Row{{{vm.col, 1.0}}, RelOp::kLe, v.upper - v.lower});
      } else {
        rows.push_back(Row{{{vm.col, 1.0}}, RelOp::kEq, 0.0});
      }
    }
  }

  // 2b. Anti-degeneracy jitter: relax every inequality by a tiny
  // deterministic, row-dependent amount. Ties in the ratio test are what
  // make Bland-mode stalls long; distinct right-hand sides break them.
  // Relaxation only enlarges the feasible set (see kDegeneracyJitter).
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].op == RelOp::kLe) {
      rows[i].rhs += DegeneracyJitter(i);
    } else if (rows[i].op == RelOp::kGe) {
      rows[i].rhs -= DegeneracyJitter(i);
    }
  }

  // 3. Normalize rhs >= 0 and count slack/artificial columns.
  int num_slack = 0;
  int num_artificial = 0;
  for (auto& row : rows) {
    if (row.rhs < 0) {
      row.rhs = -row.rhs;
      for (auto& [col, coeff] : row.terms) coeff = -coeff;
      if (row.op == RelOp::kLe) {
        row.op = RelOp::kGe;
      } else if (row.op == RelOp::kGe) {
        row.op = RelOp::kLe;
      }
    }
    if (row.op != RelOp::kEq) ++num_slack;
    if (row.op != RelOp::kLe) ++num_artificial;
  }

  const int m = static_cast<int>(rows.size());
  const int total_cols = num_structural + num_slack + num_artificial;
  StandardForm sf{Tableau(m, total_cols), std::move(var_map),
                  num_structural, num_structural + num_slack, 0.0,
                  model.sense() == ObjectiveSense::kMaximize};

  // 4. Fill the tableau.
  int slack_col = num_structural;
  int art_col = num_structural + num_slack;
  Tableau& tab = sf.tableau;
  for (int i = 0; i < m; ++i) {
    for (const auto& [col, coeff] : rows[i].terms) tab.At(i, col) += coeff;
    tab.Rhs(i) = rows[i].rhs;
    switch (rows[i].op) {
      case RelOp::kLe:
        tab.At(i, slack_col) = 1.0;
        tab.BasisVar(i) = slack_col++;
        break;
      case RelOp::kGe:
        tab.At(i, slack_col) = -1.0;
        ++slack_col;
        tab.At(i, art_col) = 1.0;
        tab.BasisVar(i) = art_col++;
        break;
      case RelOp::kEq:
        tab.At(i, art_col) = 1.0;
        tab.BasisVar(i) = art_col++;
        break;
    }
  }

  // 5. Phase-2 objective row (minimization of the standard-form objective).
  const LinearExpr& obj = model.objective();
  double sign = sf.maximize ? -1.0 : 1.0;
  sf.objective_shift = sign * obj.constant();
  for (const auto& [var, coeff] : obj.terms()) {
    const VarMap& vm = sf.var_map[var];
    double c = sign * coeff;
    switch (vm.kind) {
      case VarMap::kShifted:
        tab.At(tab.Phase2Row(), vm.col) += c;
        sf.objective_shift += c * vm.shift;
        break;
      case VarMap::kNegated:
        tab.At(tab.Phase2Row(), vm.col) -= c;
        sf.objective_shift += c * vm.shift;
        break;
      case VarMap::kSplit:
        tab.At(tab.Phase2Row(), vm.col) += c;
        tab.At(tab.Phase2Row(), vm.col_neg) -= c;
        break;
    }
  }

  // 6. Phase-1 objective: minimize the sum of artificials, priced out for
  // the initial basis (subtract every row whose basic variable is
  // artificial).
  for (int c = sf.first_artificial; c < total_cols; ++c) {
    tab.At(tab.Phase1Row(), c) = 1.0;
  }
  for (int i = 0; i < m; ++i) {
    if (tab.BasisVar(i) >= sf.first_artificial) {
      for (int c = 0; c <= total_cols; ++c) {
        tab.At(tab.Phase1Row(), c) -= tab.At(i, c);
      }
    }
  }
  return sf;
}

/// Runs the simplex loop on the given objective row. Returns kOk/kUnbounded/
/// kResourceExhausted; optimality is reached when no reduced cost is
/// sufficiently negative.
Status RunSimplex(Tableau& tab, int obj_row, int usable_cols,
                  int* iterations, const Deadline& deadline) {
  const int max_iter = SimplexIterationCap(tab.rows(), tab.cols());
  bool bland = false;
  int stalled = 0;
  double last_obj = tab.Rhs(obj_row);

  while (true) {
    if (*iterations >= max_iter) {
      return Status::ResourceExhausted("simplex iteration limit");
    }
    // Checked every pivot: a pivot costs O(rows·cols) floating-point work
    // (hundreds of milliseconds on the biggest tableaus), so a clock read is
    // free by comparison, and any coarser granularity blows time budgets on
    // exactly the instances where budgets matter.
    if (deadline.Expired()) {
      return Status::ResourceExhausted("simplex deadline");
    }
    // Pricing.
    int enter = -1;
    double best = -kCostTol;
    for (int c = 0; c < usable_cols; ++c) {
      double rc = tab.At(obj_row, c);
      if (rc < -kCostTol) {
        if (bland) {
          enter = c;
          break;
        }
        if (rc < best) {
          best = rc;
          enter = c;
        }
      }
    }
    if (enter < 0) return Status::OK();  // optimal

    // Ratio test.
    int leave = -1;
    double best_ratio = 0;
    for (int r = 0; r < tab.rows(); ++r) {
      if (!tab.IsActive(r)) continue;
      double a = tab.At(r, enter);
      if (a <= kPivotTol) continue;
      double ratio = tab.Rhs(r) / a;
      if (leave < 0 || ratio < best_ratio - 1e-12 ||
          (std::abs(ratio - best_ratio) <= 1e-12 && bland &&
           tab.BasisVar(r) < tab.BasisVar(leave))) {
        leave = r;
        best_ratio = ratio;
      }
    }
    if (leave < 0) return Status::Unbounded("LP objective unbounded");

    tab.Pivot(leave, enter, kPivotTol);
    ++*iterations;

    // Invariant: Rhs(obj_row) == -z, so minimizing z drives the corner up.
    double obj = tab.Rhs(obj_row);
    if (obj > last_obj + 1e-12) {
      stalled = 0;
      last_obj = obj;
    } else if (++stalled >= kDegenerateLimit && !bland) {
      bland = true;  // anti-cycling
    }
  }
}

}  // namespace

Result<LpSolution> SimplexSolver::Solve(const LpModel& model) const {
  if (model.num_variables() == 0) {
    // Degenerate but legal: constant objective, no variables.
    for (int i = 0; i < model.num_constraints(); ++i) {
      const LpConstraint& c = model.constraint(i);
      double lhs = c.expr.constant();
      bool ok = (c.op == RelOp::kLe && lhs <= c.rhs + 1e-12) ||
                (c.op == RelOp::kGe && lhs >= c.rhs - 1e-12) ||
                (c.op == RelOp::kEq && std::abs(lhs - c.rhs) <= 1e-12);
      if (!ok) return Status::Infeasible("constant constraint violated");
    }
    return LpSolution{{}, model.objective().constant(), 0};
  }

  // One deadline across standard-form construction and both phases.
  Deadline deadline(deadline_seconds_);
  RH_ASSIGN_OR_RETURN(StandardForm sf, BuildStandardForm(model));
  Tableau& tab = sf.tableau;
  int iterations = 0;

  // Phase 1 (only when artificials exist).
  if (sf.first_artificial < tab.cols()) {
    // Objective row invariant: Rhs(obj) == -objective value.
    RH_RETURN_NOT_OK(RunSimplex(tab, tab.Phase1Row(), tab.cols(),
                                &iterations, deadline));
    double phase1_obj = -tab.Rhs(tab.Phase1Row());
    if (phase1_obj > kPhase1Tol) {
      return Status::Infeasible("phase-1 optimum > 0");
    }
    // Drive remaining artificials out of the basis.
    for (int r = 0; r < tab.rows(); ++r) {
      if (!tab.IsActive(r) || tab.BasisVar(r) < sf.first_artificial) continue;
      int pivot_col = -1;
      for (int c = 0; c < sf.first_artificial; ++c) {
        if (std::abs(tab.At(r, c)) > kPivotTol) {
          pivot_col = c;
          break;
        }
      }
      if (pivot_col >= 0) {
        tab.Pivot(r, pivot_col, kPivotTol);
        ++iterations;
      } else {
        tab.Deactivate(r);  // redundant row
      }
    }
  }

  // Phase 2: optimize the real objective over structural + slack columns.
  RH_RETURN_NOT_OK(RunSimplex(tab, tab.Phase2Row(), sf.first_artificial,
                              &iterations, deadline));

  // Recover standard-form variable values.
  std::vector<double> std_values(tab.cols(), 0.0);
  for (int r = 0; r < tab.rows(); ++r) {
    if (tab.IsActive(r) && tab.BasisVar(r) >= 0) {
      std_values[tab.BasisVar(r)] = tab.Rhs(r);
    }
  }
  // Map back to model variables.
  LpSolution solution;
  solution.values.resize(model.num_variables());
  for (int j = 0; j < model.num_variables(); ++j) {
    const VarMap& vm = sf.var_map[j];
    switch (vm.kind) {
      case VarMap::kShifted:
        solution.values[j] = vm.shift + std_values[vm.col];
        break;
      case VarMap::kNegated:
        solution.values[j] = vm.shift - std_values[vm.col];
        break;
      case VarMap::kSplit:
        solution.values[j] = std_values[vm.col] - std_values[vm.col_neg];
        break;
    }
  }
  // Dense Gauss–Jordan tableaus accumulate elimination error over long
  // degenerate runs; a corrupted "optimal" point would silently poison
  // branch-and-bound pruning. Certify the answer: recompute the objective
  // from the solution itself (not the tableau corner) and check every row
  // at a magnitude-aware tolerance, reporting kNumerical on failure so
  // callers can recover.
  for (int i = 0; i < model.num_constraints(); ++i) {
    const LpConstraint& c = model.constraint(i);
    double lhs = c.expr.Evaluate(solution.values);
    double scale = std::max(1.0, std::abs(c.rhs));
    for (const auto& [var, coeff] : c.expr.terms()) {
      scale = std::max(scale, std::abs(coeff * solution.values[var]));
    }
    double tol = 1e-7 * scale;
    bool ok = true;
    switch (c.op) {
      case RelOp::kLe:
        ok = lhs <= c.rhs + tol;
        break;
      case RelOp::kGe:
        ok = lhs >= c.rhs - tol;
        break;
      case RelOp::kEq:
        ok = std::abs(lhs - c.rhs) <= tol;
        break;
    }
    if (!ok) {
      return Status::Numerical(
          "simplex solution failed the post-solve feasibility check");
    }
  }
  for (int j = 0; j < model.num_variables(); ++j) {
    const LpVariable& v = model.variable(j);
    double span = std::max({1.0, std::abs(v.lower), std::abs(v.upper)});
    if (solution.values[j] < v.lower - 1e-7 * span ||
        solution.values[j] > v.upper + 1e-7 * span) {
      return Status::Numerical(
          "simplex solution failed the post-solve bounds check");
    }
  }
  solution.objective = model.objective().Evaluate(solution.values);
  solution.iterations = iterations;
  return solution;
}

Result<std::vector<double>> SimplexSolver::FindFeasiblePoint(
    const LpModel& model) const {
  LpModel copy = model;
  copy.SetObjective(LinearExpr(), ObjectiveSense::kMinimize);
  RH_ASSIGN_OR_RETURN(LpSolution sol, Solve(copy));
  return std::move(sol.values);
}

}  // namespace rankhow
