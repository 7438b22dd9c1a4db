// Fixed per-instance reference lengths for the excess metrics. Computed by
// the benchmark alone, from coordinates, outside every timed region, so a
// parent commit and a change see exactly the same reference for the same
// seed whatever they do to the library.
#pragma once

#include "tsp/instance.h"

namespace perfbench {

/// Held–Karp-style reference: the best 1-tree Lagrangian found by Polyak
/// subgradient ascent over the symmetric 10-nearest-neighbour graph (made
/// connected by nearest inter-component edges). Restricting the 1-trees to
/// that graph makes it an estimate, not a proof of a lower bound. On a
/// 3000-city drill plate, 300 iterations came within 1% of the library's
/// exact Held–Karp bound (200 dense iterations) in 4% of its run time.
double heldKarpReference(const distclk::Instance& inst, int iterations);

/// Beardwood–Halton–Hammersley estimate 0.7124 * sqrt(n * A) of the
/// optimal tour through n uniform cities in a square of area A.
double bhhEstimate(int n, double side);

}  // namespace perfbench
