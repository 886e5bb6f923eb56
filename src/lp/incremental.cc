#include "lp/incremental.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace rankhow {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Primal feasibility tolerance, magnitude-aware: tableau elimination noise
/// scales with the data, so comparing against bounds needs the same scale.
inline double FeasTol(double bound) {
  return 1e-9 * std::max(1.0, std::abs(bound));
}

inline bool Finite(double v) { return std::isfinite(v); }

/// Pivot-row entries below this magnitude, after scaling, are zeroed: they
/// are elimination round-off, not structure, and each one kept would be
/// eliminated into every touched row at every later pivot. 100x below
/// kPivotTol, so no such entry could have been chosen as a pivot.
constexpr double kFillDropTol = 1e-11;

/// A pivot whose scaled pivot row holds an entry above this multiplies the
/// round-off of every row it touches by as much, which can carry it past the
/// 1e-7 post-solve check: from then on a point can pass that check and still
/// be a suboptimal vertex, so the solve is repeated on a rebuilt tableau.
constexpr double kGrowthLimit = 1e9;

/// Relative margin of the Farkas test: the certificate must clear its bound
/// by this much times the summed magnitudes of the terms.
constexpr double kFarkasMargin = 1e-9;

}  // namespace

IncrementalLp::IncrementalLp(const LpModel& base) {
  num_structural_ = base.num_variables();
  lower_.reserve(num_structural_);
  upper_.reserve(num_structural_);
  for (int j = 0; j < num_structural_; ++j) {
    lower_.push_back(base.variable(j).lower);
    upper_.push_back(base.variable(j).upper);
  }
  status_.assign(num_structural_, kAtLower);
  objective_ = base.objective();
  cost_.assign(num_structural_, 0.0);
  const double sign =
      base.sense() == ObjectiveSense::kMaximize ? -1.0 : 1.0;
  for (const auto& [var, coeff] : objective_.terms()) {
    cost_[var] += sign * coeff;
  }
  rows_.reserve(base.num_constraints());
  for (int i = 0; i < base.num_constraints(); ++i) {
    const LpConstraint& c = base.constraint(i);
    AddRow(c.expr, c.op, c.rhs);
  }
}

double IncrementalLp::Value(int col) const {
  switch (static_cast<ColStatus>(status_[col])) {
    case kAtLower:
      return lower_[col];
    case kAtUpper:
      return upper_[col];
    case kFreeAtZero:
      return 0.0;
    case kBasic:
      break;
  }
  RH_CHECK(false) << "Value() called on a basic column";
  return 0.0;
}

void IncrementalLp::SlackBounds(const RowData& row, double* lo,
                                double* up) const {
  if (!row.active) {
    *lo = -kInf;
    *up = kInf;
    return;
  }
  switch (row.op) {
    case RelOp::kLe:
      *lo = 0.0;
      *up = kInf;
      break;
    case RelOp::kGe:
      *lo = -kInf;
      *up = 0.0;
      break;
    case RelOp::kEq:
      *lo = 0.0;
      *up = 0.0;
      break;
  }
}

void IncrementalLp::ApplyColumnBoundsStatus(int col) {
  // Re-places a nonbasic column after its bounds changed, preserving value
  // continuity (a binary un-fixed from [1,1] back to [0,1] stays at 1).
  double prev;
  switch (static_cast<ColStatus>(status_[col])) {
    case kAtLower:
      prev = lower_[col];
      break;
    case kAtUpper:
      prev = upper_[col];
      break;
    default:
      prev = 0.0;
      break;
  }
  const bool lf = Finite(lower_[col]);
  const bool uf = Finite(upper_[col]);
  if (lf && uf) {
    status_[col] = std::abs(prev - upper_[col]) < std::abs(prev - lower_[col])
                       ? kAtUpper
                       : kAtLower;
  } else if (lf) {
    status_[col] = kAtLower;
  } else if (uf) {
    status_[col] = kAtUpper;
  } else {
    status_[col] = kFreeAtZero;
  }
}

void IncrementalLp::SetVariableBounds(int var, double lower, double upper) {
  RH_CHECK(var >= 0 && var < num_structural_);
  // The nonbasic re-placement reads the *old* status against the *new*
  // bounds, which is exactly the continuity we want; a basic column needs
  // nothing (the next Solve repairs any bound violation dually).
  lower_[var] = lower;
  upper_[var] = upper;
  if (factorized_ && status_[var] != kBasic) ApplyColumnBoundsStatus(var);
}

int IncrementalLp::AddRow(const LinearExpr& expr, RelOp op, double rhs) {
  const int id = static_cast<int>(rows_.size());
  RowData rd;
  rd.op = op;
  rd.rhs = rhs - expr.constant();
  rd.terms.reserve(expr.terms().size());
  for (const auto& [var, coeff] : expr.terms()) {
    RH_CHECK(var >= 0 && var < num_structural_)
        << "AddRow may only reference base-model variables";
    rd.terms.emplace_back(var, coeff);
  }
  // Same anti-degeneracy relaxation as SimplexSolver (kDegeneracyJitter).
  if (op != RelOp::kEq) {
    const double jit = DegeneracyJitter(id);
    rd.rhs += op == RelOp::kLe ? jit : -jit;
  }
  rows_.push_back(std::move(rd));
  const RowData& row = rows_.back();
  double slo, sup;
  SlackBounds(row, &slo, &sup);
  lower_.push_back(slo);
  upper_.push_back(sup);
  status_.push_back(kBasic);

  if (!factorized_) return id;

  // Extend the factorized state: one slack column everywhere, then the new
  // row with the current basic variables eliminated (each basic column is a
  // unit vector, so a single subtraction pass per row suffices). The slack
  // becomes basic, keeping the basis dual-feasible; the (possibly violated)
  // new row is repaired by the next Solve's dual pass.
  const int m_old = static_cast<int>(tab_.size());
  const int ncols = num_structural_ + static_cast<int>(rows_.size());
  for (auto& trow : tab_) trow.push_back(0.0);
  d_.push_back(0.0);
  std::vector<double> nr(ncols, 0.0);
  for (const auto& [var, coeff] : row.terms) nr[var] += coeff;
  nr[ncols - 1] = 1.0;
  double nrhs = row.rhs;
  for (int i = 0; i < m_old; ++i) {
    const double f = nr[basic_[i]];
    if (f == 0.0) continue;
    const std::vector<double>& pr = tab_[i];
    for (int c = 0; c < ncols; ++c) nr[c] -= f * pr[c];
    nr[basic_[i]] = 0.0;  // exact
    nrhs -= f * rhs0_[i];
  }
  tab_.push_back(std::move(nr));
  rhs0_.push_back(nrhs);
  basic_.push_back(ncols - 1);
  beta_.push_back(0.0);  // recomputed at the next Solve
  return id;
}

void IncrementalLp::SetRowActive(int row, bool active) {
  RH_CHECK(row >= 0 && row < static_cast<int>(rows_.size()));
  if (rows_[row].active == active) return;
  rows_[row].active = active;
  const int scol = num_structural_ + row;
  SlackBounds(rows_[row], &lower_[scol], &upper_[scol]);
  if (factorized_ && status_[scol] != kBasic) ApplyColumnBoundsStatus(scol);
}

void IncrementalLp::Factorize() {
  const int m = static_cast<int>(rows_.size());
  const int ncols = num_structural_ + m;
  // A search rebuilds many times over one instance: reuse the row buffers.
  tab_.resize(m);
  for (std::vector<double>& row : tab_) row.assign(ncols, 0.0);
  rhs0_.assign(m, 0.0);
  basic_.assign(m, -1);
  beta_.assign(m, 0.0);
  d_.assign(ncols, 0.0);
  for (int i = 0; i < m; ++i) {
    for (const auto& [var, coeff] : rows_[i].terms) tab_[i][var] += coeff;
    tab_[i][num_structural_ + i] = 1.0;
    rhs0_[i] = rows_[i].rhs;
    basic_[i] = num_structural_ + i;
    status_[num_structural_ + i] = kBasic;
  }
  for (int j = 0; j < num_structural_; ++j) {
    status_[j] = kAtLower;  // placeholder; re-placed against the bounds
    ApplyColumnBoundsStatus(j);
  }
  factorized_ = true;
  unstable_ = false;
  pivots_since_factorize_ = 0;
}

void IncrementalLp::PivotTab(int row, int col) {
  const int ncols = static_cast<int>(d_.size());
  std::vector<double>& pr = tab_[row];
  const double inv = 1.0 / pr[col];
  rhs0_[row] *= inv;
  // Row-sparse elimination. The pivot row is scaled, its round-off entries
  // are dropped (kFillDropTol), and its nonzero columns are gathered, all in
  // one pass, as the column pairs {c, c + 1} (c even) holding a nonzero.
  // Every update below touches only those pairs, a pair at a time (one
  // two-wide vector operation). Skipping an all-zero pair leaves its
  // entries as they were, except possibly for the sign of a zero, which no
  // ratio test, tolerance check or pivot choice can see.
  double growth = 0;
  auto scale = [&](double& a) {
    a *= inv;
    if (std::abs(a) < kFillDropTol) a = 0.0;
    growth = std::max(growth, std::abs(a));
  };
  std::vector<int>& pairs = pivot_pairs_;
  pairs.clear();
  for (int c = 0; c + 1 < ncols; c += 2) {
    scale(pr[c]);
    scale(pr[c + 1]);
    if (pr[c] != 0.0 || pr[c + 1] != 0.0) pairs.push_back(c);
  }
  if (ncols % 2 == 1) scale(pr[ncols - 1]);
  pr[col] = 1.0;  // exact; its pair was gathered, |pr[col] * inv| being ~1
  if (growth > kGrowthLimit) unstable_ = true;
  const bool odd_tail = ncols % 2 == 1 && pr[ncols - 1] != 0.0;
  const double* p = pr.data();
  auto eliminate = [&](double f, double* t) {
    for (int c : pairs) {
      // Both loads come before both stores, so the compiler can pack the
      // pair without proving that t and p do not alias.
      const double t0 = t[c] - f * p[c];
      const double t1 = t[c + 1] - f * p[c + 1];
      t[c] = t0;
      t[c + 1] = t1;
    }
    if (odd_tail) t[ncols - 1] -= f * p[ncols - 1];
  };
  const double drop = kPivotTol;
  const int m = static_cast<int>(tab_.size());
  for (int i = 0; i < m; ++i) {
    if (i == row) continue;
    std::vector<double>& tr = tab_[i];
    const double f = tr[col];
    if (std::abs(f) <= drop) {
      tr[col] = 0.0;
      continue;
    }
    eliminate(f, tr.data());
    tr[col] = 0.0;  // exact
    rhs0_[i] -= f * rhs0_[row];
  }
  const double fd = d_[col];
  if (std::abs(fd) > 0.0) eliminate(fd, d_.data());
  d_[col] = 0.0;  // exact
  ++pivots_since_factorize_;
}

void IncrementalLp::RefreshBeta() {
  const int m = static_cast<int>(tab_.size());
  const int ncols = static_cast<int>(status_.size());
  beta_ = rhs0_;
  for (int j = 0; j < ncols; ++j) {
    if (status_[j] == kBasic) continue;
    const double v = Value(j);
    if (v == 0.0) continue;
    for (int i = 0; i < m; ++i) beta_[i] -= tab_[i][j] * v;
  }
}

void IncrementalLp::RefreshCosts() {
  const int m = static_cast<int>(tab_.size());
  const int ncols = static_cast<int>(status_.size());
  d_.assign(ncols, 0.0);
  for (int j = 0; j < num_structural_; ++j) d_[j] = cost_[j];
  for (int i = 0; i < m; ++i) {
    const double cb = basic_[i] < num_structural_ ? cost_[basic_[i]] : 0.0;
    if (cb == 0.0) continue;
    const std::vector<double>& tr = tab_[i];
    for (int c = 0; c < ncols; ++c) d_[c] -= cb * tr[c];
  }
  for (int i = 0; i < m; ++i) d_[basic_[i]] = 0.0;  // exact
}

void IncrementalLp::PlaceLeavingColumn(int col, bool prefer_upper) {
  if (prefer_upper && Finite(upper_[col])) {
    status_[col] = kAtUpper;
  } else if (Finite(lower_[col])) {
    status_[col] = kAtLower;
  } else if (Finite(upper_[col])) {
    status_[col] = kAtUpper;
  } else {
    status_[col] = kFreeAtZero;
  }
}

bool IncrementalLp::PrimalFeasible() const {
  const int m = static_cast<int>(tab_.size());
  for (int i = 0; i < m; ++i) {
    const int b = basic_[i];
    if (Finite(lower_[b]) && beta_[i] < lower_[b] - FeasTol(lower_[b])) {
      return false;
    }
    if (Finite(upper_[b]) && beta_[i] > upper_[b] + FeasTol(upper_[b])) {
      return false;
    }
  }
  return true;
}

bool IncrementalLp::DualFeasible() const {
  // Deliberately looser than the pricing tolerance: recomputed reduced
  // costs carry O(1e-8) elimination noise on big tableaus, and a sign wrong
  // by that little is cheaper to clean up with ordinary primal pivots than
  // by re-routing the whole solve through flips and repair.
  const double tol = std::max(kCostTol, 1e-7);
  const int ncols = static_cast<int>(status_.size());
  for (int j = 0; j < ncols; ++j) {
    if (status_[j] == kBasic || lower_[j] == upper_[j]) continue;
    const double dj = d_[j];
    switch (static_cast<ColStatus>(status_[j])) {
      case kAtLower:
        if (dj < -tol) return false;
        break;
      case kAtUpper:
        if (dj > tol) return false;
        break;
      case kFreeAtZero:
        if (std::abs(dj) > tol) return false;
        break;
      case kBasic:
        break;
    }
  }
  return true;
}

void IncrementalLp::ImportBasis(const LpBasis& basis, int* iterations) {
  // Best-effort steering toward the snapshot: for every column the snapshot
  // wants basic but the tableau has nonbasic, pivot it in against a row
  // whose current basic variable the snapshot does not want (skipping
  // numerically unsafe pivots). Rows/columns created after the snapshot was
  // exported keep their current state.
  if (basis.basic.empty()) return;
  const int m = static_cast<int>(tab_.size());
  const int ncols = static_cast<int>(status_.size());
  std::vector<char> target(ncols, 0);
  for (size_t i = 0; i < basis.basic.size() && i < static_cast<size_t>(m);
       ++i) {
    const int col = basis.basic[i];
    if (col >= 0 && col < ncols) target[col] = 1;
  }
  for (size_t i = basis.basic.size(); i < static_cast<size_t>(m); ++i) {
    target[basic_[i]] = 1;  // rows added since the snapshot: keep
  }
  std::vector<char> is_basic(ncols, 0);
  for (int i = 0; i < m; ++i) is_basic[basic_[i]] = 1;
  constexpr double kImportPivotTol = 1e-6;
  for (int q = 0; q < ncols; ++q) {
    if (!target[q] || is_basic[q]) continue;
    int best_row = -1;
    double best_abs = kImportPivotTol;
    for (int i = 0; i < m; ++i) {
      if (target[basic_[i]]) continue;
      const double a = std::abs(tab_[i][q]);
      if (a > best_abs) {
        best_abs = a;
        best_row = i;
      }
    }
    if (best_row < 0) continue;  // unreachable without instability: skip
    const int p = basic_[best_row];
    PivotTab(best_row, q);
    basic_[best_row] = q;
    is_basic[q] = 1;
    is_basic[p] = 0;
    status_[q] = kBasic;
    const bool hint_upper =
        p < static_cast<int>(basis.at_upper.size()) && basis.at_upper[p];
    if (hint_upper && Finite(upper_[p])) {
      status_[p] = kAtUpper;
    } else if (Finite(lower_[p])) {
      status_[p] = kAtLower;
    } else if (Finite(upper_[p])) {
      status_[p] = kAtUpper;
    } else {
      status_[p] = kFreeAtZero;
    }
    ++stats_.import_pivots;
    ++*iterations;
  }
  // Nonbasic bound sides from the snapshot (where still meaningful).
  for (int j = 0; j < ncols && j < static_cast<int>(basis.at_upper.size());
       ++j) {
    if (status_[j] == kAtLower && basis.at_upper[j] && Finite(upper_[j])) {
      status_[j] = kAtUpper;
    } else if (status_[j] == kAtUpper && !basis.at_upper[j] &&
               Finite(lower_[j])) {
      status_[j] = kAtLower;
    }
  }
}

LpBasis IncrementalLp::ExportBasis() const {
  LpBasis basis;
  basis.basic = basic_;
  basis.at_upper.assign(status_.size(), 0);
  for (size_t j = 0; j < status_.size(); ++j) {
    basis.at_upper[j] = status_[j] == kAtUpper ? 1 : 0;
  }
  return basis;
}

Status IncrementalLp::RunPrimal(const Deadline& deadline, int* iterations) {
  const int m = static_cast<int>(tab_.size());
  const int ncols = static_cast<int>(status_.size());
  const int max_iter = SimplexIterationCap(m, ncols);
  bool bland = false;
  int stalled = 0;
  while (true) {
    if (*iterations >= max_iter) {
      return Status::ResourceExhausted("incremental primal iteration limit");
    }
    if (deadline.Expired()) {
      return Status::ResourceExhausted("incremental primal deadline");
    }
    // Pricing: nonbasic columns that can move against their reduced cost.
    int q = -1;
    int dir = 0;
    double best = kCostTol;
    for (int j = 0; j < ncols; ++j) {
      if (status_[j] == kBasic || lower_[j] == upper_[j]) continue;
      const double dj = d_[j];
      int cand_dir = 0;
      if (status_[j] != kAtUpper && dj < -kCostTol) {
        cand_dir = 1;
      } else if (status_[j] != kAtLower && dj > kCostTol) {
        cand_dir = -1;
      } else {
        continue;
      }
      if (bland) {
        q = j;
        dir = cand_dir;
        break;
      }
      if (std::abs(dj) > best) {
        best = std::abs(dj);
        q = j;
        dir = cand_dir;
      }
    }
    if (q < 0) return Status::OK();  // optimal

    // Bounded ratio test: basic variables hitting a bound compete with the
    // entering variable's own bound-to-bound flip.
    double t = kInf;
    if (status_[q] != kFreeAtZero && Finite(lower_[q]) && Finite(upper_[q])) {
      t = upper_[q] - lower_[q];
    }
    int leave = -1;
    bool leave_to_upper = false;
    double leave_abs = 0;
    for (int i = 0; i < m; ++i) {
      const double a = tab_[i][q] * dir;
      const int b = basic_[i];
      double ratio;
      bool to_upper;
      if (a > kPivotTol) {
        if (!Finite(lower_[b])) continue;
        ratio = (beta_[i] - lower_[b]) / a;
        to_upper = false;
      } else if (a < -kPivotTol) {
        if (!Finite(upper_[b])) continue;
        ratio = (upper_[b] - beta_[i]) / (-a);
        to_upper = true;
      } else {
        continue;
      }
      if (ratio < 0) ratio = 0;  // degenerate: clamp tiny negatives
      bool take = false;
      if (ratio < t - 1e-12) {
        take = true;
      } else if (leave >= 0 && ratio <= t + 1e-12) {
        // Tie: Bland mode picks the smallest basic index (anti-cycling);
        // otherwise prefer the larger pivot magnitude for stability.
        take = bland ? basic_[i] < basic_[leave] : std::abs(a) > leave_abs;
      }
      if (take) {
        t = ratio;
        leave = i;
        leave_to_upper = to_upper;
        leave_abs = std::abs(a);
      }
    }
    if (!Finite(t)) return Status::Unbounded("incremental LP unbounded");

    const double delta = dir * t;
    const double dq = d_[q];
    if (leave < 0) {
      // Bound-to-bound flip: no elimination work at all.
      for (int i = 0; i < m; ++i) beta_[i] -= tab_[i][q] * delta;
      status_[q] = dir > 0 ? kAtUpper : kAtLower;
      ++stats_.bound_flips;
    } else {
      const int p = basic_[leave];
      const double entering_value = Value(q) + delta;
      for (int i = 0; i < m; ++i) {
        if (i != leave) beta_[i] -= tab_[i][q] * delta;
      }
      status_[p] = leave_to_upper ? kAtUpper : kAtLower;
      PivotTab(leave, q);
      basic_[leave] = q;
      status_[q] = kBasic;
      beta_[leave] = entering_value;
      ++stats_.primal_pivots;
    }
    ++*iterations;
    const double improvement = -(dq * delta);
    if (improvement > 1e-12) {
      stalled = 0;
    } else if (++stalled >= kDegenerateLimit && !bland) {
      bland = true;  // anti-cycling
    }
  }
}

Status IncrementalLp::RunDual(const Deadline& deadline, int* iterations,
                              bool repair_mode) {
  const int m = static_cast<int>(tab_.size());
  const int ncols = static_cast<int>(status_.size());
  const int max_iter = SimplexIterationCap(m, ncols);
  bool bland = false;
  int stalled = 0;
  double last_viol = kInf;
  while (true) {
    if (*iterations >= max_iter) {
      return Status::ResourceExhausted("incremental dual iteration limit");
    }
    if (deadline.Expired()) {
      return Status::ResourceExhausted("incremental dual deadline");
    }
    // Leaving row: a basic variable outside its bounds (most violated, or
    // the smallest row index in Bland mode).
    int r = -1;
    bool below = false;
    double worst = 0;
    double viol_sum = 0;
    for (int i = 0; i < m; ++i) {
      const int b = basic_[i];
      double v = 0;
      bool v_below = false;
      if (Finite(lower_[b]) && beta_[i] < lower_[b] - FeasTol(lower_[b])) {
        v = lower_[b] - beta_[i];
        v_below = true;
      } else if (Finite(upper_[b]) &&
                 beta_[i] > upper_[b] + FeasTol(upper_[b])) {
        v = beta_[i] - upper_[b];
      } else {
        continue;
      }
      viol_sum += v;
      if (r < 0 || (!bland && v > worst)) {
        r = i;
        below = v_below;
        worst = v;
      }
    }
    if (r < 0) return Status::OK();  // primal feasible
    if (viol_sum < last_viol - 1e-15) {
      stalled = 0;
    } else if (++stalled >= kDegenerateLimit) {
      bland = true;
    }
    last_viol = viol_sum;

    // Entering column via the dual ratio test. The sign condition keeps the
    // leaving variable's post-pivot reduced cost on the right side for the
    // bound it leaves to; in repair mode all costs are treated as zero, so
    // every ratio ties at 0 and Bland's order decides.
    const int p = basic_[r];
    const std::vector<double>& alpha = tab_[r];
    int q = -1;
    double best_ratio = kInf;
    double best_abs = 0;
    for (int j = 0; j < ncols; ++j) {
      if (status_[j] == kBasic || lower_[j] == upper_[j]) continue;
      const double D = alpha[j];
      if (std::abs(D) <= kPivotTol) continue;
      bool eligible;
      if (status_[j] == kFreeAtZero) {
        eligible = true;
      } else if (below) {
        eligible = status_[j] == kAtLower ? D < 0 : D > 0;
      } else {
        eligible = status_[j] == kAtLower ? D > 0 : D < 0;
      }
      if (!eligible) continue;
      const double ratio = repair_mode ? 0.0 : std::abs(d_[j]) / std::abs(D);
      bool take = false;
      if (q < 0 || ratio < best_ratio - 1e-12) {
        take = true;
      } else if (ratio <= best_ratio + 1e-12) {
        take = bland ? j < q : std::abs(D) > best_abs;
      }
      if (take) {
        q = j;
        best_ratio = ratio;
        best_abs = std::abs(D);
      }
    }
    if (q < 0) {
      // Row r proves the bound system inconsistent: no admissible column
      // can move the violated basic variable back into range.
      infeasible_row_ = r;
      return Status::Infeasible("incremental dual simplex: no entering column");
    }

    const double target = below ? lower_[p] : upper_[p];
    const double delta = (beta_[r] - target) / alpha[q];
    const double entering_value = Value(q) + delta;
    for (int i = 0; i < m; ++i) {
      if (i != r) beta_[i] -= tab_[i][q] * delta;
    }
    status_[p] = below ? kAtLower : kAtUpper;
    PivotTab(r, q);
    basic_[r] = q;
    status_[q] = kBasic;
    beta_[r] = entering_value;
    if (repair_mode) {
      ++stats_.repair_pivots;
    } else {
      ++stats_.dual_pivots;
    }
    ++*iterations;
  }
}

Status IncrementalLp::OptimizeFromCurrentBasis(const Deadline& deadline,
                                               int* iterations) {
  RefreshBeta();
  RefreshCosts();
  const int m = static_cast<int>(tab_.size());
  const int ncols = static_cast<int>(status_.size());

  // Restore dual feasibility cheaply before choosing an algorithm. Node
  // moves in best-first order un-fix and re-fix many bounds at once, which
  // routinely leaves the inherited basis neither primal- nor dual-feasible;
  // the zero-cost repair fallback is far slower than dual reoptimization,
  // so it pays to manufacture dual feasibility first:
  //  (a) a bounded nonbasic column whose reduced cost has the wrong sign is
  //      flipped to its opposite bound, which flips the sign requirement
  //      (no elimination work at all);
  //  (b) a wrong-signed column with no opposite bound to flip to — an
  //      error variable on [0, ∞), a ≥-row slack, the freed slack of a
  //      deactivated row — is driven into the basis instead: basic columns
  //      carry no sign requirement. Driving can hand the wrong sign to the
  //      leaving column, so the flip/drive pair iterates to a fixpoint
  //      (almost always one pass).
  bool beta_stale = false;
  const double dual_tol = std::max(kCostTol, 1e-7);
  for (int pass = 0; pass < 4 && !DualFeasible(); ++pass) {
    bool changed = false;
    for (int j = 0; j < ncols; ++j) {
      if (status_[j] == kBasic || lower_[j] == upper_[j]) continue;
      const double dj = d_[j];
      bool wrong;
      switch (static_cast<ColStatus>(status_[j])) {
        case kAtLower:
          wrong = dj < -dual_tol;
          break;
        case kAtUpper:
          wrong = dj > dual_tol;
          break;
        default:
          wrong = std::abs(dj) > dual_tol;
          break;
      }
      if (!wrong) continue;
      if (status_[j] == kAtLower && Finite(upper_[j])) {
        status_[j] = kAtUpper;
        ++stats_.bound_flips;
        beta_stale = changed = true;
        continue;
      }
      if (status_[j] == kAtUpper && Finite(lower_[j])) {
        status_[j] = kAtLower;
        ++stats_.bound_flips;
        beta_stale = changed = true;
        continue;
      }
      int best_row = -1;
      double best_abs = 1e-6;
      for (int i = 0; i < m; ++i) {
        const double a = std::abs(tab_[i][j]);
        if (a > best_abs) {
          best_abs = a;
          best_row = i;
        }
      }
      if (best_row < 0) continue;  // numerically empty column: leave it
      const int p = basic_[best_row];
      PivotTab(best_row, j);
      basic_[best_row] = j;
      status_[j] = kBasic;
      PlaceLeavingColumn(p, /*prefer_upper=*/false);
      ++stats_.repair_pivots;
      ++*iterations;
      beta_stale = changed = true;
    }
    if (!changed) break;
  }
  if (beta_stale) RefreshBeta();

  if (!PrimalFeasible()) {
    // With dual feasibility restored above (the common case), this is the
    // dual-simplex resolve that makes warm starts pay; the zero-ratio
    // repair remains only for numerically stubborn leftovers.
    Status st = RunDual(deadline, iterations, !DualFeasible());
    if (!st.ok()) return st;
  }
  return RunPrimal(deadline, iterations);
}

bool IncrementalLp::SolutionConsistent(
    const std::vector<double>& values) const {
  // Same magnitude-aware certification as SimplexSolver: dense Gauss–Jordan
  // tableaus drift, and this instance's tableau lives across an entire
  // search tree, so never report a point that fails the original rows.
  for (const RowData& row : rows_) {
    if (!row.active) continue;
    double lhs = 0;
    double scale = std::max(1.0, std::abs(row.rhs));
    for (const auto& [var, coeff] : row.terms) {
      lhs += coeff * values[var];
      scale = std::max(scale, std::abs(coeff * values[var]));
    }
    const double tol = 1e-7 * scale;
    bool ok = true;
    switch (row.op) {
      case RelOp::kLe:
        ok = lhs <= row.rhs + tol;
        break;
      case RelOp::kGe:
        ok = lhs >= row.rhs - tol;
        break;
      case RelOp::kEq:
        ok = std::abs(lhs - row.rhs) <= tol;
        break;
    }
    if (!ok) return false;
  }
  for (int j = 0; j < num_structural_; ++j) {
    const double span =
        std::max({1.0, std::abs(lower_[j]), std::abs(upper_[j])});
    if (values[j] < lower_[j] - 1e-7 * span ||
        values[j] > upper_[j] + 1e-7 * span) {
      return false;
    }
  }
  return true;
}

std::vector<double> IncrementalLp::FarkasMultipliers(int row) const {
  const int m = static_cast<int>(rows_.size());
  const double* slack = tab_[row].data() + num_structural_;
  std::vector<double> y(m, 0.0);
  double largest = 0;
  for (int i = 0; i < m; ++i) {
    if (rows_[i].active) largest = std::max(largest, std::abs(slack[i]));
  }
  for (int i = 0; i < m; ++i) {
    if (rows_[i].active && std::abs(slack[i]) >= kPivotTol * largest) {
      y[i] = slack[i];
    }
  }
  return y;
}

bool IncrementalLp::CertifiesInfeasible(const std::vector<double>& y) const {
  RH_CHECK(y.size() == rows_.size());
  // Every z with [A I] z = b has yᵀ[A I] z = yᵀb, so yᵀb outside the range
  // [low, high] of yᵀ[A I] z over the bounds leaves no such z inside them.
  // The range sums one term c_j·z_j per column; each end is widened by the
  // margin times the term's magnitude, |c|·|bound| with |c| summed before
  // cancellation, and yᵀb by the margin times its own.
  double low = 0;
  double high = 0;
  // c is known to within ±e (its rounding error). Inside that band its sign
  // is open, so the term needs both bounds. An infinite bound that a term
  // needs makes its end infinite (c and c_magnitude are nonzero here, so
  // no 0·∞ arises), and then that end certifies nothing.
  auto add = [&](double c, double e, double c_magnitude, double lo,
                 double hi) {
    if (std::abs(c) <= e) {
      const double reach = (std::abs(c) + e + kFarkasMargin * c_magnitude) *
                           std::max(std::abs(lo), std::abs(hi));
      low -= reach;
      high += reach;
      return;
    }
    const double at_low = c > 0 ? lo : hi;
    const double at_high = c > 0 ? hi : lo;
    low += c * at_low - kFarkasMargin * c_magnitude * std::abs(at_low);
    high += c * at_high + kFarkasMargin * c_magnitude * std::abs(at_high);
  };
  std::vector<double> c(num_structural_, 0.0);
  std::vector<double> c_magnitude(num_structural_, 0.0);
  double yb = 0;
  double yb_magnitude = 0;
  int multipliers = 0;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (y[i] == 0.0) continue;
    ++multipliers;
    yb += y[i] * rows_[i].rhs;
    yb_magnitude += std::abs(y[i] * rows_[i].rhs);
    for (const auto& [var, coeff] : rows_[i].terms) {
      c[var] += y[i] * coeff;
      c_magnitude[var] += std::abs(y[i] * coeff);
    }
    const int scol = num_structural_ + static_cast<int>(i);
    add(y[i], 0.0, std::abs(y[i]), lower_[scol], upper_[scol]);  // exact
  }
  // A sum of k products is off by at most k·DBL_EPSILON of its magnitude.
  const double rounding =
      (multipliers + 1) * std::numeric_limits<double>::epsilon();
  for (int j = 0; j < num_structural_; ++j) {
    if (c_magnitude[j] == 0.0) continue;
    add(c[j], rounding * c_magnitude[j], c_magnitude[j], lower_[j],
        upper_[j]);
  }
  const double yb_margin = kFarkasMargin * yb_magnitude;
  return yb + yb_margin < low || yb - yb_margin > high;
}

Result<LpSolution> IncrementalLp::Solve(const LpBasis* warm,
                                        double deadline_seconds) {
  ++stats_.solves;
  Deadline deadline(deadline_seconds);
  int iterations = 0;
  const bool warm_start = factorized_;
  if (!factorized_) {
    Factorize();
  } else if (warm != nullptr) {
    ImportBasis(*warm, &iterations);
  }
  if (warm_start) {
    ++stats_.warm_solves;
  } else {
    ++stats_.cold_solves;
  }

  auto extract = [&](std::vector<double>* values) {
    values->assign(num_structural_, 0.0);
    for (int j = 0; j < num_structural_; ++j) {
      if (status_[j] != kBasic) (*values)[j] = Value(j);
    }
    for (size_t i = 0; i < basic_.size(); ++i) {
      if (basic_[i] < num_structural_) (*values)[basic_[i]] = beta_[i];
    }
  };
  bool rebuilt = false;
  auto rebuild = [&] {
    ++stats_.rebuilds;
    rebuilt = true;
    Factorize();
    return OptimizeFromCurrentBasis(deadline, &iterations);
  };

  Status st = OptimizeFromCurrentBasis(deadline, &iterations);
  // A tableau that went through a high-growth pivot answers nothing, a
  // consistent point included.
  if (unstable_) st = rebuild();
  std::vector<double> values;
  if (st.ok()) {
    extract(&values);
    if (!SolutionConsistent(values) && !rebuilt) {
      // Drifted tableau: rebuild from the original rows and re-solve once.
      st = rebuild();
      if (st.ok()) extract(&values);
    }
    if (st.ok() && !SolutionConsistent(values)) {
      return Status::Numerical(
          "incremental LP solution failed the post-solve check after a "
          "rebuild");
    }
  } else if (st.code() == StatusCode::kInfeasible && warm_start &&
             !rebuilt && pivots_since_factorize_ > 0) {
    // An infeasibility verdict reached from warm state is never trusted
    // on the tableau's word: bound flips and row (de)activations can leave
    // the warm basis in a state whose dual ray is an artifact of dropped
    // tableau entries, and in branch-and-bound a single false prune
    // silently corrupts the "proven" optimum (caught by
    // tests/concurrency/parallel_search_test.cc's cross-strategy
    // equivalence). The verdict row's multipliers are checked as a Farkas
    // certificate against the original rows; a verdict they do not prove is
    // re-confirmed on a tableau rebuilt from the original rows (equivalent
    // to a fresh engine on the current bounds). Feasible verdicts need no
    // such guard: their points are checked against the original rows above.
    if (CertifiesInfeasible(FarkasMultipliers(infeasible_row_))) {
      ++stats_.certified_infeasible;
      return st;
    }
    st = rebuild();
    if (st.ok()) {
      extract(&values);
      if (!SolutionConsistent(values)) {
        return Status::Numerical(
            "incremental LP solution failed the post-solve check after an "
            "infeasibility re-check");
      }
    }
  }
  if (!st.ok()) return st;
  LpSolution solution;
  solution.values = std::move(values);
  solution.objective = objective_.Evaluate(solution.values);
  solution.iterations = iterations;
  return solution;
}

}  // namespace rankhow
