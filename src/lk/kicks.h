// Double-bridge kick strategies of ABCC's Chained Lin-Kernighan (§2.1 of
// the paper): Random, Geometric, Close and Random-walk differ only in how
// the four "relevant cities" whose successor edges get cut are selected.
#pragma once

#include <string>
#include <vector>

#include "lk/lk_workspace.h"
#include "tsp/big_tour.h"
#include "tsp/neighbors.h"
#include "tsp/tour.h"
#include "util/rng.h"

namespace distclk {

enum class KickStrategy {
  kRandom,      ///< four cities uniformly at random (strong, degenerating)
  kGeometric,   ///< three cities from the k nearest neighbors of a random v
  kClose,       ///< nearest-in-random-subset rule with parameter beta
  kRandomWalk,  ///< endpoints of three random walks on the candidate graph
};

const char* toString(KickStrategy s) noexcept;
KickStrategy kickStrategyFromString(const std::string& s);

struct KickOptions {
  int geometricK = 10;    ///< neighborhood size for Geometric
  double closeBeta = 0.10;  ///< subset fraction for Close
  int walkLength = 8;     ///< steps per walk for Random-walk
};

/// Picks the four "relevant cities" for a kick (strategy-dependent, tour
/// independent). Falls back to uniform selection when a strategy cannot
/// produce four distinct cities.
std::vector<int> selectKickCities(const Instance& inst, KickStrategy strategy,
                                  const CandidateLists& cand, Rng& rng,
                                  const KickOptions& opt = {});

/// Applies one double-bridge move whose four cut edges are the successor
/// edges of strategy-selected cities. Returns the cities incident to the
/// changed edges (seed these into LK's don't-look queue to re-optimize
/// locally).
std::vector<int> applyKick(Tour& tour, KickStrategy strategy,
                           const CandidateLists& cand, Rng& rng,
                           const KickOptions& opt = {});

/// The same kick on the segment-list tour, realized as three O(sqrt n)
/// path reversals instead of an O(n) array rebuild.
std::vector<int> applyKick(BigTour& tour, KickStrategy strategy,
                           const CandidateLists& cand, Rng& rng,
                           const KickOptions& opt = {});

/// Allocation-free selection: fills `out` with the four relevant cities,
/// consuming the RNG stream exactly as selectKickCities does. `scratch` is
/// strategy-local working memory (the Close subset).
void selectKickCitiesInto(const Instance& inst, KickStrategy strategy,
                          const CandidateLists& cand, Rng& rng,
                          const KickOptions& opt, std::vector<int>& out,
                          std::vector<int>& scratch);

/// Workspace kicks: identical tour mutation and RNG consumption as the
/// vector-returning overloads, but the dirty cities land in ws.dirty and
/// the undo information (an ArrayKick record for Tour, flip tokens in
/// ws.undoLog for BigTour) is retained so the CLK driver can mutate the
/// champion in place and roll a losing kick back in O(changed). Callers
/// start a kick cycle with ws.resetUndo() and end it with commitKick() or
/// rollbackKick(). The BigTour kick is realized rotation-free as (up to)
/// three recorded path reversals, so the whole kick lives in ws.undoLog as
/// flip tokens; the array Tour's kick keeps its rotation-based
/// construction (a different — equally legitimate — double bridge on the
/// same cities; see tests/test_big_tour.cpp).
void applyKick(Tour& tour, KickStrategy strategy, const CandidateLists& cand,
               Rng& rng, const KickOptions& opt, LkWorkspace& ws);
void applyKick(BigTour& tour, KickStrategy strategy,
               const CandidateLists& cand, Rng& rng, const KickOptions& opt,
               LkWorkspace& ws);

/// Accepts the kicked-and-repaired tour: O(1), just drops the undo state.
void commitKick(LkWorkspace& ws);

/// Restores the exact pre-kick tour: rewinds the logged repair flips LIFO,
/// then inverts the kick itself. Cost proportional to the changed region.
void rollbackKick(Tour& tour, LkWorkspace& ws);
void rollbackKick(BigTour& tour, LkWorkspace& ws);

}  // namespace distclk
