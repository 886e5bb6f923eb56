#ifndef RANKHOW_MATH_SIMPLEX_BOX_H_
#define RANKHOW_MATH_SIMPLEX_BOX_H_

/// \file simplex_box.h
/// The weight-space geometry primitive shared by three parts of the paper:
///  * dominance pruning (Sec. V-B) = indicator fixing over the whole simplex,
///  * SYM-GD cell reduction (Sec. IV-A) = indicator fixing over a small box,
///  * tight big-M values for the MILP's indicator constraints.
///
/// All three need the exact range of a linear score difference w·d over
/// W = { w : sum w = 1, lo <= w <= hi }, which this file computes with a
/// greedy fractional-knapsack argument in O(m log m).

#include <optional>
#include <utility>
#include <vector>

#include "util/status.h"

namespace rankhow {

/// An axis-aligned box in weight space, interpreted as box ∩ simplex.
struct WeightBox {
  std::vector<double> lo;
  std::vector<double> hi;

  /// The whole feasible region [0,1]^m (∩ simplex).
  static WeightBox FullSimplex(int m);

  /// The SYM-GD cell of size `c` around `center` (Sec. IV-A):
  /// max(wᵢ−c/2, 0) ≤ wᵢ ≤ min(wᵢ+c/2, 1).
  static WeightBox CellAround(const std::vector<double>& center, double c);

  int dim() const { return static_cast<int>(lo.size()); }

  /// True iff box ∩ simplex is non-empty: lo ≤ hi, Σlo ≤ 1 ≤ Σhi.
  bool IntersectsSimplex() const;

  /// True iff w lies in the box (no simplex check).
  bool Contains(const std::vector<double>& w, double tol = 1e-12) const;

  /// Componentwise intersection with another box (same dim).
  WeightBox Intersect(const WeightBox& other) const;

  /// Clamps a point into the box; does not re-normalize onto the simplex.
  std::vector<double> Clamp(const std::vector<double>& w) const;

  /// The largest side hi[i] − lo[i].
  double MaxWidth() const;

  /// The two closed halves of the box cut at the midpoint of its widest side
  /// (the first on ties), lower half first. Both keep the cut, so the halves
  /// cover every point of the box, hyperplane boundaries included. How the
  /// spatial B&B and the grid seed subdivide weight space.
  std::pair<WeightBox, WeightBox> SplitWidest() const;
};

/// True when `a` and `b` have the same dimension and each coordinate differs
/// by less than 1e-12: the one test by which the incumbent pools and the
/// warm cache recognize a weight vector they already hold.
bool SameWeights(const std::vector<double>& a, const std::vector<double>& b);

/// Exact minimum and maximum of d·w over box ∩ simplex.
struct DotRange {
  double min;
  double max;
};

/// Computes the exact range of Σᵢ dᵢwᵢ subject to Σw = 1, lo ≤ w ≤ hi.
/// Fails with kInfeasible when box ∩ simplex is empty.
Result<DotRange> DotRangeOnSimplexBox(const std::vector<double>& d,
                                      const WeightBox& box);

/// Fast path for the whole simplex: range is [min dᵢ, max dᵢ].
DotRange DotRangeOnFullSimplex(const std::vector<double>& d);

/// Returns a point of box ∩ simplex (the "most interior" greedy point), or
/// kInfeasible. Used to seed evaluations inside SYM-GD cells.
Result<std::vector<double>> AnyPointOnSimplexBox(const WeightBox& box);

/// Moves simplex point `p` toward `anchor`, a point of box ∩ simplex, until
/// it enters the box: the point anchor + t·(p − anchor), with t = `scale`
/// times the largest t in [0, 1] that keeps it in the box. Both ends lie on the
/// simplex, so every such point does; scale 1 keeps as much of `p` as the
/// box allows. With an anchor outside the box the result may be nullopt.
std::optional<std::vector<double>> BlendIntoBox(
    const std::vector<double>& p, const std::vector<double>& anchor,
    const WeightBox& box, double scale);

}  // namespace rankhow

#endif  // RANKHOW_MATH_SIMPLEX_BOX_H_
