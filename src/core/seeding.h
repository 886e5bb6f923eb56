#ifndef RANKHOW_CORE_SEEDING_H_
#define RANKHOW_CORE_SEEDING_H_

/// \file seeding.h
/// Seed-point strategies for SYM-GD (Sec. IV-B). The paper's default is an
/// ordinal-regression fit ("optimizes the wrong loss, but that loss is
/// correlated with rank-position error"); alternatives are linear
/// regression, the grid-lower-bound search over weight-space cells, and
/// plain random draws.

#include <cstdint>
#include <string>
#include <vector>

#include "core/indicator_fixing.h"
#include "data/dataset.h"
#include "math/simplex_box.h"
#include "ranking/ranking.h"
#include "util/random.h"
#include "util/status.h"
#include "util/timer.h"

namespace rankhow {

/// Clamps negatives to zero and rescales to Σw = 1 (uniform fallback when
/// everything is non-positive). Positive rescaling never changes the
/// induced ranking, so this is a safe way to move regression coefficients
/// onto the simplex.
std::vector<double> ProjectWeightsToSimplex(std::vector<double> weights);

/// Ordinal-regression seed (the SYM-GD default; margin = eps1).
Result<std::vector<double>> OrdinalRegressionSeed(const Dataset& data,
                                                  const Ranking& given,
                                                  double eps1);

/// Linear-regression seed (OLS projected onto the simplex).
Result<std::vector<double>> LinearRegressionSeed(const Dataset& data,
                                                 const Ranking& given);

struct GridSeedOptions {
  /// Stop refining a cell once its width falls to this size.
  double target_cell_size = 0.1;
  /// Budget on cell-bound evaluations.
  int max_cells = 2000;
  double eps1 = 1e-9;
  double eps2 = 0.0;
};

/// Error bounds for a weight-space cell (Sec. IV-B): each indicator δ_sr is
/// fixed 1, fixed 0, or free over the cell, which brackets every ranked
/// tuple's position and therefore the position error of EVERY weight vector
/// in the cell.
struct CellErrorBounds {
  /// No weight vector in the cell achieves error below this.
  long lower = 0;
  /// Some weight vector in the cell is guaranteed to achieve at most this
  /// (conservative: derived from the same brackets).
  long upper = 0;
};

/// The bounds of a cell whose fixing for `given.ranked_tuples()` is
/// `fixing`.
CellErrorBounds BoundCellError(const Ranking& given, const FixingState& fixing);

/// The paper's second strategy: search weight-space cells by error lower
/// bound (Sec. IV-B). Implemented as best-first box subdivision — cells are
/// refined in ascending lower-bound order instead of enumerating all
/// (1/c)^m at once, which visits the same cells the exhaustive grid would
/// but reaches the winning one much sooner. Only the root cell gets a full
/// fixing pass; every other cell refines its parent's fixing state, as the
/// spatial B&B does. No cell is split once `deadline` has expired; the most
/// promising open cell then gives the seed, as when `max_cells` runs out.
Result<std::vector<double>> GridLowerBoundSeed(
    const Dataset& data, const Ranking& given,
    const GridSeedOptions& options = GridSeedOptions(),
    const Deadline& deadline = Deadline(0));

/// Uniform random simplex point.
std::vector<double> RandomSeed(int num_attributes, uint64_t seed);

/// Uniform random simplex point drawn from a caller-owned stream — the
/// parallel-friendly variant: hand each worker `base.SplitStream(i)` and
/// every draw is deterministic and disjoint across workers.
std::vector<double> RandomSeed(int num_attributes, Rng* rng);

/// A named member of a SYM-GD portfolio (Sec. IV seed strategies).
struct PortfolioSeed {
  std::string name;
  std::vector<double> weights;
};

/// Builds `count` diverse seeds for the SYM-GD portfolio, in fixed order:
/// ordinal regression (the paper's default), linear regression, the grid
/// lower-bound search, then uniform random draws — each random draw from
/// its own disjoint `Rng(stream_seed).SplitStream(i)` stream, so the set
/// is a pure function of (data, given, count, stream_seed) regardless of
/// which worker later runs which seed. Deterministic generators that fail
/// (singular fits, budget exhaustion) or duplicate an earlier seed are
/// replaced by random draws, so exactly `count` seeds come back. No
/// deterministic generator starts once `deadline` has expired (its slot
/// goes to a random draw too), and the grid search stops splitting at it.
std::vector<PortfolioSeed> BuildPortfolioSeeds(
    const Dataset& data, const Ranking& given, double eps1, int count,
    uint64_t stream_seed, const Deadline& deadline = Deadline(0));

}  // namespace rankhow

#endif  // RANKHOW_CORE_SEEDING_H_
