// Tour construction heuristics. Quick-Borůvka is the construction the paper
// uses (ABCC's default, §2.1); the others serve as baselines, test oracles,
// and fallbacks (greedy for tour merging, nearest-neighbor for sanity
// comparisons, space-filling curve for O(n log n) starts, random for kicks
// and restarts).
#pragma once

#include <vector>

#include "tsp/instance.h"
#include "tsp/neighbors.h"
#include "util/rng.h"

namespace distclk {

/// Uniformly random permutation.
std::vector<int> randomTour(const Instance& inst, Rng& rng);

/// Nearest-neighbor chain from `start` (kd-tree accelerated when the
/// instance has coordinates).
std::vector<int> nearestNeighborTour(const Instance& inst, int start = 0);

/// Greedy edge matching: repeatedly add the shortest edge that keeps
/// degrees <= 2 and creates no premature cycle; leftover path fragments are
/// stitched nearest-endpoint-first (a kd-tree search over the open
/// endpoints for planar metrics, a scan for GEO and EXPLICIT; DESIGN.md
/// §13). Candidate-list restricted.
std::vector<int> greedyTour(const Instance& inst, const CandidateLists& cand);

/// Quick-Borůvka (Applegate/Cook/Rohe): process cities in coordinate order;
/// each city with degree < 2 picks its cheapest valid incident edge
/// (no subtour, other endpoint degree < 2). At most two passes, then the
/// same fragment stitching as greedyTour. The paper's CLK starts from this
/// tour.
std::vector<int> quickBoruvkaTour(const Instance& inst,
                                  const CandidateLists& cand);

/// Hilbert space-filling-curve order (geometric instances only; throws for
/// explicit matrices). O(n log n), surprisingly good starts for large n.
std::vector<int> spaceFillingTour(const Instance& inst);

/// Christofides-style construction (§2.1 contrasts ABCC's Quick-Borůvka
/// against HK-Christofides): minimum spanning tree + matching on the
/// odd-degree vertices + Euler-tour shortcut. The matching is greedy
/// nearest-pair (kd-accelerated) rather than minimum-weight perfect
/// matching, so the 1.5-approximation guarantee is forfeited but the
/// characteristic tour structure is preserved.
std::vector<int> christofidesLikeTour(const Instance& inst);

}  // namespace distclk
