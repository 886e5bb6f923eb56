#include "math/simplex_box.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace rankhow {

WeightBox WeightBox::FullSimplex(int m) {
  WeightBox box;
  box.lo.assign(m, 0.0);
  box.hi.assign(m, 1.0);
  return box;
}

WeightBox WeightBox::CellAround(const std::vector<double>& center, double c) {
  WeightBox box;
  box.lo.reserve(center.size());
  box.hi.reserve(center.size());
  for (double w : center) {
    box.lo.push_back(std::max(w - c / 2, 0.0));
    box.hi.push_back(std::min(w + c / 2, 1.0));
  }
  return box;
}

bool WeightBox::IntersectsSimplex() const {
  double sum_lo = 0;
  double sum_hi = 0;
  for (int i = 0; i < dim(); ++i) {
    if (lo[i] > hi[i]) return false;
    sum_lo += lo[i];
    sum_hi += hi[i];
  }
  // Small slack: boxes are built from floating-point centers.
  return sum_lo <= 1.0 + 1e-12 && sum_hi >= 1.0 - 1e-12;
}

bool WeightBox::Contains(const std::vector<double>& w, double tol) const {
  if (static_cast<int>(w.size()) != dim()) return false;
  for (int i = 0; i < dim(); ++i) {
    if (w[i] < lo[i] - tol || w[i] > hi[i] + tol) return false;
  }
  return true;
}

WeightBox WeightBox::Intersect(const WeightBox& other) const {
  RH_DCHECK(dim() == other.dim());
  WeightBox out;
  out.lo.resize(dim());
  out.hi.resize(dim());
  for (int i = 0; i < dim(); ++i) {
    out.lo[i] = std::max(lo[i], other.lo[i]);
    out.hi[i] = std::min(hi[i], other.hi[i]);
  }
  return out;
}

std::vector<double> WeightBox::Clamp(const std::vector<double>& w) const {
  RH_DCHECK(static_cast<int>(w.size()) == dim());
  std::vector<double> out(w.size());
  for (int i = 0; i < dim(); ++i) {
    out[i] = std::min(std::max(w[i], lo[i]), hi[i]);
  }
  return out;
}

double WeightBox::MaxWidth() const {
  double width = 0;
  for (int i = 0; i < dim(); ++i) width = std::max(width, hi[i] - lo[i]);
  return width;
}

std::pair<WeightBox, WeightBox> WeightBox::SplitWidest() const {
  int widest_dim = 0;
  double widest = -1;
  for (int i = 0; i < dim(); ++i) {
    const double width = hi[i] - lo[i];
    if (width > widest) {
      widest = width;
      widest_dim = i;
    }
  }
  const double mid = 0.5 * (lo[widest_dim] + hi[widest_dim]);
  std::pair<WeightBox, WeightBox> halves{*this, *this};
  halves.first.hi[widest_dim] = mid;
  halves.second.lo[widest_dim] = mid;
  return halves;
}

bool SameWeights(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) >= 1e-12) return false;
  }
  return true;
}

namespace {

/// Exact min of c·w over {Σw=1, lo≤w≤hi} by greedy filling, for c = d or,
/// with kNegate, c = −d: start at lo and distribute the remaining mass
/// 1−Σlo to coordinates in ascending c order. The order goes into a
/// thread-local buffer, so a range query allocates nothing.
template <bool kNegate>
Result<double> MinDot(const std::vector<double>& d, const WeightBox& box) {
  const int m = static_cast<int>(d.size());
  auto c = [&d](int i) { return kNegate ? -d[i] : d[i]; };
  double sum_lo = 0;
  for (int i = 0; i < m; ++i) {
    if (box.lo[i] > box.hi[i] + 1e-15) {
      return Status::Infeasible("empty box");
    }
    sum_lo += box.lo[i];
  }
  double remaining = 1.0 - sum_lo;
  if (remaining < -1e-12) return Status::Infeasible("sum lo > 1");

  double value = 0;
  for (int i = 0; i < m; ++i) value += c(i) * box.lo[i];

  static thread_local std::vector<int> order;
  order.resize(m);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return c(a) < c(b); });
  for (int idx : order) {
    if (remaining <= 0) break;
    double slack = box.hi[idx] - box.lo[idx];
    double take = std::min(slack, remaining);
    value += c(idx) * take;
    remaining -= take;
  }
  if (remaining > 1e-9) return Status::Infeasible("sum hi < 1");
  return value;
}

}  // namespace

Result<DotRange> DotRangeOnSimplexBox(const std::vector<double>& d,
                                      const WeightBox& box) {
  RH_DCHECK(static_cast<int>(d.size()) == box.dim());
  RH_ASSIGN_OR_RETURN(double mn, MinDot</*kNegate=*/false>(d, box));
  // max d·w = −min (−d)·w. Negation is exact, so negating each coefficient
  // where it is read gives what a negated copy of d would, bit for bit.
  RH_ASSIGN_OR_RETURN(double neg_min, MinDot</*kNegate=*/true>(d, box));
  return DotRange{mn, -neg_min};
}

DotRange DotRangeOnFullSimplex(const std::vector<double>& d) {
  RH_DCHECK(!d.empty());
  double mn = d[0];
  double mx = d[0];
  for (double v : d) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  return DotRange{mn, mx};
}

Result<std::vector<double>> AnyPointOnSimplexBox(const WeightBox& box) {
  const int m = box.dim();
  double sum_lo = 0;
  for (int i = 0; i < m; ++i) {
    if (box.lo[i] > box.hi[i] + 1e-15) {
      return Status::Infeasible("empty box");
    }
    sum_lo += box.lo[i];
  }
  double remaining = 1.0 - sum_lo;
  if (remaining < -1e-12) return Status::Infeasible("sum lo > 1");
  std::vector<double> w = box.lo;
  // Distribute the remaining mass proportionally to the available slack,
  // yielding a point away from the box boundary when possible.
  double total_slack = 0;
  for (int i = 0; i < m; ++i) total_slack += box.hi[i] - box.lo[i];
  if (remaining > total_slack + 1e-9) {
    return Status::Infeasible("sum hi < 1");
  }
  if (total_slack > 0) {
    double frac = std::min(1.0, remaining / total_slack);
    for (int i = 0; i < m; ++i) w[i] += frac * (box.hi[i] - box.lo[i]);
  }
  // Fix residual rounding by a final greedy pass.
  double sum = std::accumulate(w.begin(), w.end(), 0.0);
  double residual = 1.0 - sum;
  for (int i = 0; i < m && std::abs(residual) > 1e-15; ++i) {
    double nw = std::min(std::max(w[i] + residual, box.lo[i]), box.hi[i]);
    residual -= nw - w[i];
    w[i] = nw;
  }
  return w;
}

std::optional<std::vector<double>> BlendIntoBox(
    const std::vector<double>& p, const std::vector<double>& anchor,
    const WeightBox& box, double scale) {
  const int m = box.dim();
  double t_max = 1.0;
  for (int i = 0; i < m; ++i) {
    double dir = p[i] - anchor[i];
    if (dir > 0) {
      t_max = std::min(t_max, (box.hi[i] - anchor[i]) / dir);
    } else if (dir < 0) {
      t_max = std::min(t_max, (box.lo[i] - anchor[i]) / dir);
    }
  }
  if (t_max < 0) return std::nullopt;
  double t = std::clamp(t_max * scale, 0.0, 1.0);
  std::vector<double> out(m);
  for (int i = 0; i < m; ++i) {
    out[i] = std::clamp(anchor[i] + t * (p[i] - anchor[i]), box.lo[i],
                        box.hi[i]);
  }
  return out;
}

}  // namespace rankhow
