// Warm-vs-cold equivalence for the incremental LP engine: after any
// sequence of bound flips, row additions, and row (de)activations, a
// warm-started IncrementalLp::Solve must reach the same objective as a
// cold SimplexSolver solve of the equivalent LpModel. SimplexSolver is the
// oracle here (see DESIGN.md "Incremental LP architecture").

#include "lp/incremental.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lp/model.h"
#include "lp/simplex.h"
#include "util/random.h"

namespace rankhow {
namespace {

constexpr double kObjTol = 1e-5;

// A mirrored instance: the IncrementalLp under test plus the plain LpModel
// data needed to rebuild the equivalent cold model at any point.
struct Mirror {
  LpModel base;                    // variables + objective (bounds mutable)
  std::vector<LpConstraint> rows;  // all rows ever added
  std::vector<bool> active;
};

LpModel BuildCold(const Mirror& m) {
  LpModel cold;
  for (int j = 0; j < m.base.num_variables(); ++j) {
    const LpVariable& v = m.base.variable(j);
    cold.AddVariable(v.lower, v.upper, v.name);
  }
  cold.SetObjective(m.base.objective(), m.base.sense());
  for (size_t i = 0; i < m.rows.size(); ++i) {
    if (m.active[i]) {
      cold.AddConstraint(m.rows[i].expr, m.rows[i].op, m.rows[i].rhs);
    }
  }
  return cold;
}

// Compares a warm incremental solve against the cold oracle on the current
// mirrored state. Both must agree on feasibility; objectives must match,
// within kObjTol times max(1, |objective|) when `relative_tol` is set.
// `infeasible`, when given, is set to whether the oracle found none.
void ExpectAgreement(IncrementalLp& inc, const Mirror& m,
                     const std::string& context, bool* infeasible = nullptr,
                     bool relative_tol = false) {
  auto warm = inc.Solve();
  auto cold = SimplexSolver().Solve(BuildCold(m));
  if (infeasible != nullptr) {
    *infeasible = cold.status().code() == StatusCode::kInfeasible;
  }
  if (cold.ok()) {
    ASSERT_TRUE(warm.ok()) << context
                           << ": warm failed: " << warm.status().ToString()
                           << " but cold found " << cold->objective;
    const double tol =
        relative_tol ? kObjTol * std::max(1.0, std::abs(cold->objective))
                     : kObjTol;
    EXPECT_NEAR(warm->objective, cold->objective, tol) << context;
  } else if (cold.status().code() == StatusCode::kInfeasible) {
    ASSERT_FALSE(warm.ok()) << context << ": warm found " << warm->objective
                            << " but cold is infeasible";
    EXPECT_EQ(warm.status().code(), StatusCode::kInfeasible) << context;
  } else if (cold.status().code() == StatusCode::kUnbounded) {
    ASSERT_FALSE(warm.ok()) << context << ": warm found " << warm->objective
                            << " but cold is unbounded";
    EXPECT_EQ(warm.status().code(), StatusCode::kUnbounded) << context;
  }
  // Other oracle outcomes (numerical, iteration caps) make no claim.
}

TEST(IncrementalLpTest, MatchesColdOnTextbookInstance) {
  // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18 -> 36 at (2, 6).
  LpModel m;
  int x = m.AddVariable(0, kInfinity, "x");
  int y = m.AddVariable(0, kInfinity, "y");
  m.AddConstraint(LinearExpr::Term(x, 1), RelOp::kLe, 4);
  m.AddConstraint(LinearExpr::Term(y, 2), RelOp::kLe, 12);
  m.AddConstraint(LinearExpr::Term(x, 3) + LinearExpr::Term(y, 2),
                  RelOp::kLe, 18);
  m.SetObjective(LinearExpr::Term(x, 3) + LinearExpr::Term(y, 5),
                 ObjectiveSense::kMaximize);
  IncrementalLp inc(m);
  auto sol = inc.Solve();
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_NEAR(sol->objective, 36.0, 1e-6);
  EXPECT_NEAR(sol->values[x], 2.0, 1e-6);
  EXPECT_NEAR(sol->values[y], 6.0, 1e-6);
}

TEST(IncrementalLpTest, BoundFlipResolvesDually) {
  // Fix a variable the optimum uses, re-solve warm, then un-fix: both
  // resolves must agree with cold solves, and the warm path must not
  // restart from scratch (second solve is counted warm).
  LpModel m;
  int x = m.AddVariable(0, 10, "x");
  int y = m.AddVariable(0, 10, "y");
  m.AddConstraint(LinearExpr::Term(x, 1) + LinearExpr::Term(y, 1),
                  RelOp::kLe, 12);
  m.SetObjective(LinearExpr::Term(x, -2) + LinearExpr::Term(y, -1));
  IncrementalLp inc(m);
  auto first = inc.Solve();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_NEAR(first->objective, -22.0, 1e-6);  // x=10, y=2

  inc.SetVariableBounds(x, 3, 3);
  auto fixed = inc.Solve();
  ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
  EXPECT_NEAR(fixed->objective, -15.0, 1e-6);  // x=3, y=9

  inc.SetVariableBounds(x, 0, 10);
  auto relaxed = inc.Solve();
  ASSERT_TRUE(relaxed.ok()) << relaxed.status().ToString();
  EXPECT_NEAR(relaxed->objective, -22.0, 1e-6);
  EXPECT_EQ(inc.stats().cold_solves, 1);
  EXPECT_EQ(inc.stats().warm_solves, 2);
}

TEST(IncrementalLpTest, RowAdditionAndDeactivation) {
  LpModel m;
  int x = m.AddVariable(0, kInfinity, "x");
  int y = m.AddVariable(0, kInfinity, "y");
  m.AddConstraint(LinearExpr::Term(x, 1) + LinearExpr::Term(y, 1),
                  RelOp::kLe, 10);
  m.SetObjective(LinearExpr::Term(x, -1) + LinearExpr::Term(y, -1));
  IncrementalLp inc(m);
  auto base = inc.Solve();
  ASSERT_TRUE(base.ok());
  EXPECT_NEAR(base->objective, -10.0, 1e-6);

  int cut = inc.AddRow(LinearExpr::Term(x, 1), RelOp::kLe, 2.0);
  auto cut_sol = inc.Solve();
  ASSERT_TRUE(cut_sol.ok());
  EXPECT_NEAR(cut_sol->objective, -10.0, 1e-6);  // y picks up the slack
  EXPECT_LE(cut_sol->values[x], 2.0 + 1e-6);

  int cut2 = inc.AddRow(LinearExpr::Term(y, 1), RelOp::kLe, 3.0);
  auto both = inc.Solve();
  ASSERT_TRUE(both.ok());
  EXPECT_NEAR(both->objective, -5.0, 1e-6);

  inc.SetRowActive(cut, false);
  auto reopened = inc.Solve();
  ASSERT_TRUE(reopened.ok());
  EXPECT_NEAR(reopened->objective, -10.0, 1e-6);

  inc.SetRowActive(cut, true);
  inc.SetRowActive(cut2, false);
  auto swapped = inc.Solve();
  ASSERT_TRUE(swapped.ok());
  EXPECT_NEAR(swapped->objective, -10.0, 1e-6);
}

TEST(IncrementalLpTest, DetectsInfeasibilityAfterTightening) {
  LpModel m;
  int x = m.AddVariable(0, kInfinity, "x");
  m.AddConstraint(LinearExpr::Term(x, 1), RelOp::kGe, 5);
  m.SetObjective(LinearExpr::Term(x, 1));
  IncrementalLp inc(m);
  auto ok = inc.Solve();
  ASSERT_TRUE(ok.ok());
  EXPECT_NEAR(ok->objective, 5.0, 1e-6);

  inc.SetVariableBounds(x, 0, 3);
  auto bad = inc.Solve();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInfeasible);

  inc.SetVariableBounds(x, 0, kInfinity);
  auto again = inc.Solve();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_NEAR(again->objective, 5.0, 1e-6);
}

// CertifiesInfeasible on hand-made multipliers. Rows read a·x + s = b with
// the slack's sign set by the row's sense, so x + y >= 1.5 and x - y >= 0.8
// over [0, 1]² add up to 2x + s0 + s1 = 2.3 with s0, s1 <= 0: the left side
// reaches at most 2, so y = (1, 1) proves the pair infeasible.
LpModel TwoRowSystem(double second_rhs) {
  LpModel m;
  int x = m.AddVariable(0, 1, "x");
  int y = m.AddVariable(0, 1, "y");
  m.AddConstraint(LinearExpr::Term(x, 1) + LinearExpr::Term(y, 1), RelOp::kGe,
                  1.5);
  m.AddConstraint(LinearExpr::Term(x, 1) + LinearExpr::Term(y, -1),
                  RelOp::kGe, second_rhs);
  return m;
}

TEST(FarkasCertificateTest, ValidMultipliersProveInfeasibleSystem) {
  IncrementalLp inc(TwoRowSystem(0.8));
  EXPECT_TRUE(inc.CertifiesInfeasible({1.0, 1.0}));
  EXPECT_EQ(inc.Solve().status().code(), StatusCode::kInfeasible);
}

TEST(FarkasCertificateTest, SameMultipliersFailOnceARowIsRelaxed) {
  // x - y >= 0.4 admits x = 1, y = 0.55: the combination now sums to 1.9,
  // inside the left side's range.
  IncrementalLp inc(TwoRowSystem(0.4));
  EXPECT_FALSE(inc.CertifiesInfeasible({1.0, 1.0}));
  EXPECT_TRUE(inc.Solve().ok());
}

TEST(FarkasCertificateTest, CoefficientOnUnboundedColumnFails) {
  // 2x + z >= 3.5 with x in [0, 1]: infeasible while z <= 1, feasible once
  // z is unbounded above, where 2x + z has no upper end.
  LpModel m;
  int x = m.AddVariable(0, 1, "x");
  int z = m.AddVariable(0, 1, "z");
  m.AddConstraint(LinearExpr::Term(x, 2) + LinearExpr::Term(z, 1), RelOp::kGe,
                  3.5);
  IncrementalLp inc(m);
  EXPECT_TRUE(inc.CertifiesInfeasible({1.0}));
  inc.SetVariableBounds(z, 0, kInfinity);
  EXPECT_FALSE(inc.CertifiesInfeasible({1.0}));
  EXPECT_TRUE(inc.Solve().ok());
}

TEST(FarkasCertificateTest, ViolationInsideTheMarginFails) {
  // x + y = 1 (no jitter on an equality) with x, y <= 0.5 - gap: the left
  // side falls short by 2·gap. The margin is 1e-9 times the summed
  // magnitudes, here 1 + 2·(0.5 - gap), so 2·gap must exceed about 2e-9.
  auto system = [](double gap) {
    LpModel m;
    int x = m.AddVariable(0, 0.5 - gap, "x");
    int y = m.AddVariable(0, 0.5 - gap, "y");
    m.AddConstraint(LinearExpr::Term(x, 1) + LinearExpr::Term(y, 1),
                    RelOp::kEq, 1.0);
    return m;
  };
  EXPECT_FALSE(IncrementalLp(system(1e-12)).CertifiesInfeasible({1.0}));
  EXPECT_FALSE(IncrementalLp(system(5e-10)).CertifiesInfeasible({1.0}));
  EXPECT_TRUE(IncrementalLp(system(1e-8)).CertifiesInfeasible({1.0}));
}

TEST(IncrementalLpTest, BasisExportImportRoundTrips) {
  LpModel m;
  int x = m.AddVariable(0, 4, "x");
  int y = m.AddVariable(0, 4, "y");
  m.AddConstraint(LinearExpr::Term(x, 1) + LinearExpr::Term(y, 2),
                  RelOp::kLe, 6);
  m.SetObjective(LinearExpr::Term(x, -3) + LinearExpr::Term(y, -2));
  IncrementalLp inc(m);
  auto sol = inc.Solve();
  ASSERT_TRUE(sol.ok());
  LpBasis basis = inc.ExportBasis();

  // Perturb the instance away from that basis, then restore and re-import:
  // the solve from the imported basis must match the original optimum.
  inc.SetVariableBounds(x, 0, 0);
  ASSERT_TRUE(inc.Solve().ok());
  inc.SetVariableBounds(x, 0, 4);
  auto back = inc.Solve(&basis);
  ASSERT_TRUE(back.ok());
  EXPECT_NEAR(back->objective, sol->objective, 1e-6);
}

// The core randomized property: 100+ random models, each mutated through a
// random trajectory of bound flips / fixings / row additions /
// deactivations, warm-resolved at every step and checked against a cold
// SimplexSolver solve of the equivalent model.
class IncrementalEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(IncrementalEquivalenceTest, WarmMatchesColdThroughMutations) {
  Rng rng(GetParam() * 7919 + 17);
  const int n = static_cast<int>(rng.NextInt(2, 8));
  const int base_rows = static_cast<int>(rng.NextInt(1, 10));

  Mirror mirror;
  std::vector<int> vars(n);
  for (int j = 0; j < n; ++j) {
    double lo = rng.NextUniform(-2, 1);
    double hi = lo + rng.NextUniform(0.1, 4);
    if (rng.NextDouble() < 0.15) lo = -kInfinity;  // one-sided
    vars[j] = mirror.base.AddVariable(lo, hi);
  }
  LinearExpr obj;
  for (int j = 0; j < n; ++j) {
    obj += LinearExpr::Term(vars[j], rng.NextGaussian());
  }
  const bool maximize = rng.NextDouble() < 0.5;
  mirror.base.SetObjective(obj, maximize ? ObjectiveSense::kMaximize
                                         : ObjectiveSense::kMinimize);

  auto random_row = [&]() {
    LpConstraint c;
    for (int j = 0; j < n; ++j) {
      if (rng.NextDouble() < 0.7) {
        c.expr += LinearExpr::Term(vars[j], rng.NextGaussian());
      }
    }
    double roll = rng.NextDouble();
    c.op = roll < 0.45 ? RelOp::kLe : roll < 0.9 ? RelOp::kGe : RelOp::kEq;
    c.rhs = rng.NextGaussian();
    return c;
  };
  for (int i = 0; i < base_rows; ++i) {
    mirror.rows.push_back(random_row());
    mirror.active.push_back(true);
  }

  LpModel seed = BuildCold(mirror);
  IncrementalLp inc(seed);
  ExpectAgreement(inc, mirror, "initial solve");

  const int steps = static_cast<int>(rng.NextInt(4, 10));
  for (int s = 0; s < steps; ++s) {
    double roll = rng.NextDouble();
    std::string context = "step " + std::to_string(s);
    if (roll < 0.40) {
      // Bound mutation: tighten, relax, or fix a variable.
      int j = static_cast<int>(rng.NextBelow(n));
      double kind = rng.NextDouble();
      double lo, hi;
      if (kind < 0.3) {
        lo = hi = rng.NextUniform(-1, 1);  // fix (a B&B branching decision)
      } else {
        lo = rng.NextUniform(-3, 1);
        hi = lo + rng.NextUniform(0.1, 5);
      }
      mirror.base.mutable_variable(vars[j]).lower = lo;
      mirror.base.mutable_variable(vars[j]).upper = hi;
      inc.SetVariableBounds(vars[j], lo, hi);
      context += " (bounds)";
    } else if (roll < 0.70) {
      // Lazy separation: a new row arrives.
      LpConstraint c = random_row();
      mirror.rows.push_back(c);
      mirror.active.push_back(true);
      inc.AddRow(c.expr, c.op, c.rhs);
      context += " (add row)";
    } else {
      // Toggle one row's activation (node-to-node delta undo/redo).
      size_t i = rng.NextBelow(mirror.rows.size());
      mirror.active[i] = !mirror.active[i];
      inc.SetRowActive(static_cast<int>(i), mirror.active[i]);
      context += " (toggle row)";
    }
    ExpectAgreement(inc, mirror, context);
  }
}

// The sparse family: the shape of the indicator MILP's node LPs. Rows have
// 2–4 terms (some with a big-M-like coefficient) over 20–60 variables, so
// tableau rows stay mostly exact zeros, and trajectories run 20–40
// mutations, so rows arrive after many pivots have already filled the
// tableau in. The elimination skips a pivot row's all-zero column pairs;
// a skip that drops a column it should not is caught here, where the dense
// family above almost never puts an exact zero in a pivot row.
TEST_P(IncrementalEquivalenceTest, SparseRowsMatchColdThroughLongTrajectories) {
  Rng rng(GetParam() * 104729 + 31);
  const int n = static_cast<int>(rng.NextInt(20, 60));

  // Every row holds at a reference point inside the initial bounds, and
  // most bound moves keep it inside, so most solves are feasible (about
  // 58 % over the 120 seeds; 30 % infeasible, 12 % unbounded) and run long
  // pivot sequences.
  Mirror mirror;
  std::vector<int> vars(n);
  std::vector<double> x0(n);
  for (int j = 0; j < n; ++j) {
    const double lo = rng.NextUniform(-1, 0.5);
    const double hi = rng.NextDouble() < 0.1 ? kInfinity
                                             : lo + rng.NextUniform(0.5, 3);
    vars[j] = mirror.base.AddVariable(lo, hi);
    x0[j] = lo + rng.NextUniform(0, std::isfinite(hi) ? hi - lo : 2);
  }
  LinearExpr obj;
  for (int j = 0; j < n; ++j) {
    if (rng.NextDouble() < 0.5) {
      obj += LinearExpr::Term(vars[j], rng.NextGaussian());
    }
  }
  mirror.base.SetObjective(obj, rng.NextDouble() < 0.5
                                    ? ObjectiveSense::kMaximize
                                    : ObjectiveSense::kMinimize);

  auto sparse_row = [&]() {
    LpConstraint c;
    const int terms = static_cast<int>(rng.NextInt(2, 4));
    std::vector<int> picked;
    double at_x0 = 0;
    while (static_cast<int>(picked.size()) < terms) {
      const int j = static_cast<int>(rng.NextBelow(n));
      if (std::find(picked.begin(), picked.end(), j) != picked.end()) continue;
      picked.push_back(j);
      double coeff = rng.NextGaussian();
      if (rng.NextDouble() < 0.25) coeff *= 20;  // big-M-like
      c.expr += LinearExpr::Term(vars[j], coeff);
      at_x0 += coeff * x0[j];
    }
    const double roll = rng.NextDouble();
    const double slack = std::abs(rng.NextGaussian());
    if (roll < 0.45) {
      c.op = RelOp::kLe;
      c.rhs = at_x0 + slack;
    } else if (roll < 0.9) {
      c.op = RelOp::kGe;
      c.rhs = at_x0 - slack;
    } else {
      c.op = RelOp::kEq;
      c.rhs = at_x0;
    }
    return c;
  };
  const int base_rows = static_cast<int>(rng.NextInt(n / 2, 2 * n));
  for (int i = 0; i < base_rows; ++i) {
    mirror.rows.push_back(sparse_row());
    mirror.active.push_back(true);
  }

  IncrementalLp inc(BuildCold(mirror));
  ExpectAgreement(inc, mirror, "initial solve");

  const int steps = static_cast<int>(rng.NextInt(20, 40));
  for (int s = 0; s < steps; ++s) {
    const double roll = rng.NextDouble();
    std::string context = "step " + std::to_string(s);
    if (roll < 0.40) {
      // Fix a variable (a branching decision) at the reference point or at
      // a bound, or move its box around the reference point.
      const int j = static_cast<int>(rng.NextBelow(n));
      LpVariable& v = mirror.base.mutable_variable(vars[j]);
      double lo, hi;
      const double kind = rng.NextDouble();
      if (kind < 0.3) {
        lo = hi = x0[j];
      } else if (kind < 0.45 && std::isfinite(v.upper)) {
        lo = hi = rng.NextDouble() < 0.5 ? v.lower : v.upper;
      } else {
        lo = x0[j] - rng.NextUniform(0, 1.5);
        hi = x0[j] + rng.NextUniform(0, 1.5);
      }
      v.lower = lo;
      v.upper = hi;
      inc.SetVariableBounds(vars[j], lo, hi);
      context += " (bounds)";
    } else if (roll < 0.75) {
      // Lazy separation: a new row arrives into a tableau many pivots old.
      LpConstraint c = sparse_row();
      mirror.rows.push_back(c);
      mirror.active.push_back(true);
      inc.AddRow(c.expr, c.op, c.rhs);
      context += " (add row after " +
                 std::to_string(inc.stats().total_pivots()) + " pivots)";
    } else {
      const size_t i = rng.NextBelow(mirror.rows.size());
      mirror.active[i] = !mirror.active[i];
      inc.SetRowActive(static_cast<int>(i), mirror.active[i]);
      context += " (toggle row)";
    }
    ExpectAgreement(inc, mirror, context);
  }
}

// The long-lifetime family: one tableau living through 200–260 mutations,
// with a quarter or more of its verdicts infeasible. Warm infeasibility
// verdicts are accepted on a Farkas certificate instead of a rebuild, so
// the tableau is refactorized only when a check fails, and the round-off a
// long life accumulates is where a wrong certificate, a wrongly dropped
// entry or a vertex that only looks optimal would show. Objectives are
// compared relative to their size: the cold model leaves inactive rows
// out, so its rows are numbered, and jittered (DegeneracyJitter), unlike
// the warm engine's, and objectives in the hundreds then differ by the
// duals times about 1e-9.
TEST_P(IncrementalEquivalenceTest, LongLivedTableauMatchesColdThroughVerdicts) {
  Rng rng(GetParam() * 15485863 + 7);
  const int n = static_cast<int>(rng.NextInt(12, 24));

  // Rows hold at a reference point x0 inside the initial bounds. Bound
  // moves that leave x0 outside, and rows built around another point, make
  // verdicts infeasible; restoring a variable's first box relaxes them.
  // Moves draw from [lo0, top0], top0 standing in for an infinite hi0.
  Mirror mirror;
  std::vector<int> vars(n);
  std::vector<double> x0(n), lo0(n), hi0(n), top0(n);
  for (int j = 0; j < n; ++j) {
    lo0[j] = rng.NextUniform(-1, 0.5);
    hi0[j] = rng.NextDouble() < 0.1 ? kInfinity
                                    : lo0[j] + rng.NextUniform(0.5, 3);
    top0[j] = std::isfinite(hi0[j]) ? hi0[j] : lo0[j] + 3;
    vars[j] = mirror.base.AddVariable(lo0[j], hi0[j]);
    x0[j] = lo0[j] + rng.NextUniform(0, std::isfinite(hi0[j])
                                            ? hi0[j] - lo0[j]
                                            : 2);
  }
  LinearExpr obj;
  for (int j = 0; j < n; ++j) {
    obj += LinearExpr::Term(vars[j], rng.NextGaussian());
  }
  mirror.base.SetObjective(obj, rng.NextDouble() < 0.5
                                    ? ObjectiveSense::kMaximize
                                    : ObjectiveSense::kMinimize);

  auto row_at = [&](const std::vector<double>& point) {
    LpConstraint c;
    const int terms = static_cast<int>(rng.NextInt(2, 5));
    std::vector<int> picked;
    double at_point = 0;
    while (static_cast<int>(picked.size()) < terms) {
      const int j = static_cast<int>(rng.NextBelow(n));
      if (std::find(picked.begin(), picked.end(), j) != picked.end()) continue;
      picked.push_back(j);
      double coeff = rng.NextGaussian();
      if (rng.NextDouble() < 0.2) coeff *= 20;  // big-M-like
      c.expr += LinearExpr::Term(vars[j], coeff);
      at_point += coeff * point[j];
    }
    const double slack = 0.3 * std::abs(rng.NextGaussian());
    const double roll = rng.NextDouble();
    if (roll < 0.45) {
      c.op = RelOp::kLe;
      c.rhs = at_point + slack;
    } else if (roll < 0.9) {
      c.op = RelOp::kGe;
      c.rhs = at_point - slack;
    } else {
      c.op = RelOp::kEq;
      c.rhs = at_point;
    }
    return c;
  };
  const int base_rows = static_cast<int>(rng.NextInt(n / 2, n));
  for (int i = 0; i < base_rows; ++i) {
    mirror.rows.push_back(row_at(x0));
    mirror.active.push_back(true);
  }

  IncrementalLp inc(BuildCold(mirror));
  ExpectAgreement(inc, mirror, "initial solve");

  const int steps = static_cast<int>(rng.NextInt(200, 260));
  int infeasible_verdicts = 0;
  std::vector<int> moved;  // variables whose box is not their first one
  bool last_infeasible = false;
  for (int s = 0; s < steps; ++s) {
    const double roll = rng.NextDouble();
    std::string context = "step " + std::to_string(s) + " after " +
                          std::to_string(inc.stats().total_pivots()) +
                          " pivots";
    if (roll < 0.35 || (roll < 0.60 && moved.empty())) {
      // Move a variable's box somewhere inside its first one. After an
      // infeasible verdict the new box keeps x0 inside; after a feasible
      // one it usually excludes x0, which keeps both kinds of verdict
      // coming on every trajectory.
      const int j = static_cast<int>(rng.NextBelow(n));
      double lo, hi;
      if (last_infeasible) {
        lo = rng.NextUniform(lo0[j], x0[j]);
        hi = rng.NextUniform(x0[j], top0[j]);
      } else {
        lo = rng.NextUniform(lo0[j], top0[j]);
        hi = rng.NextDouble() < 0.4 ? lo : rng.NextUniform(lo, top0[j]);
      }
      mirror.base.mutable_variable(vars[j]).lower = lo;
      mirror.base.mutable_variable(vars[j]).upper = hi;
      inc.SetVariableBounds(vars[j], lo, hi);
      if (std::find(moved.begin(), moved.end(), j) == moved.end()) {
        moved.push_back(j);
      }
      context += " (bounds)";
    } else if (roll < 0.60) {
      // Restore a moved variable's first box (undo a branching decision).
      const size_t k = rng.NextBelow(moved.size());
      const int j = moved[k];
      moved.erase(moved.begin() + k);
      mirror.base.mutable_variable(vars[j]).lower = lo0[j];
      mirror.base.mutable_variable(vars[j]).upper = hi0[j];
      inc.SetVariableBounds(vars[j], lo0[j], hi0[j]);
      context += " (restore bounds)";
    } else if (roll < 0.70 && mirror.rows.size() < 2 * static_cast<size_t>(n)) {
      // A new row, around x0 or around another point of the first box.
      std::vector<double> point = x0;
      if (rng.NextDouble() < 0.5) {
        for (int j = 0; j < n; ++j) point[j] = rng.NextUniform(lo0[j], top0[j]);
      }
      LpConstraint c = row_at(point);
      mirror.rows.push_back(c);
      mirror.active.push_back(true);
      inc.AddRow(c.expr, c.op, c.rhs);
      context += " (add row)";
    } else {
      const size_t i = rng.NextBelow(mirror.rows.size());
      mirror.active[i] = !mirror.active[i];
      inc.SetRowActive(static_cast<int>(i), mirror.active[i]);
      context += " (toggle row)";
    }
    ExpectAgreement(inc, mirror, context, &last_infeasible,
                    /*relative_tol=*/true);
    if (HasFatalFailure()) return;
    infeasible_verdicts += last_infeasible ? 1 : 0;
  }
  EXPECT_GE(4 * infeasible_verdicts, steps) << infeasible_verdicts;
  EXPECT_GT(inc.stats().certified_infeasible, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 120));

}  // namespace
}  // namespace rankhow
