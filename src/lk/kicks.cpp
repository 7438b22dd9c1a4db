#include "lk/kicks.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "tsp/dist_kernel.h"
#include "util/audit.h"

namespace distclk {

const char* toString(KickStrategy s) noexcept {
  switch (s) {
    case KickStrategy::kRandom: return "Random";
    case KickStrategy::kGeometric: return "Geometric";
    case KickStrategy::kClose: return "Close";
    case KickStrategy::kRandomWalk: return "Random-walk";
  }
  return "?";
}

KickStrategy kickStrategyFromString(const std::string& s) {
  if (s == "Random" || s == "random") return KickStrategy::kRandom;
  if (s == "Geometric" || s == "geometric") return KickStrategy::kGeometric;
  if (s == "Close" || s == "close") return KickStrategy::kClose;
  if (s == "Random-walk" || s == "random-walk" || s == "walk")
    return KickStrategy::kRandomWalk;
  throw std::invalid_argument("unknown kick strategy: " + s);
}

namespace {

// The selectors fill a caller-provided buffer instead of returning a fresh
// vector, so the CLK kick loop selects without allocating; each consumes
// the RNG stream exactly as its by-value predecessor did (fallbacks clear
// the buffer and restart uniform selection).

bool pushUnique(std::vector<int>& v, int c) {
  if (std::find(v.begin(), v.end(), c) != v.end()) return false;
  v.push_back(c);
  return true;
}

void selectRandomInto(int n, Rng& rng, std::vector<int>& out) {
  out.clear();
  while (out.size() < 4)
    pushUnique(out, static_cast<int>(rng.below(std::uint64_t(n))));
}

void selectGeometricInto(int n, const CandidateLists& cand, Rng& rng, int k,
                         std::vector<int>& out) {
  const int v = static_cast<int>(rng.below(std::uint64_t(n)));
  const auto nbrs = cand.of(v);
  const int avail = std::min<int>(k, static_cast<int>(nbrs.size()));
  if (avail < 3) {
    selectRandomInto(n, rng, out);
    return;
  }
  out.assign(1, v);
  for (int attempts = 0; out.size() < 4 && attempts < 64; ++attempts)
    pushUnique(out, nbrs[rng.below(std::uint64_t(avail))]);
  if (out.size() < 4) selectRandomInto(n, rng, out);
}

void selectCloseInto(const Instance& inst, Rng& rng, double beta,
                     std::vector<int>& out, std::vector<int>& subset) {
  const DistanceKernel dist(inst);
  const int n = inst.n();
  const int v = static_cast<int>(rng.below(std::uint64_t(n)));
  const int subsetSize =
      std::clamp(static_cast<int>(beta * n), 8, std::max(8, n - 1));
  subset.clear();
  subset.reserve(static_cast<std::size_t>(subsetSize));
  for (int attempts = 0;
       static_cast<int>(subset.size()) < subsetSize && attempts < 4 * subsetSize;
       ++attempts) {
    const int c = static_cast<int>(rng.below(std::uint64_t(n)));
    if (c != v) pushUnique(subset, c);
  }
  if (subset.size() < 6) {
    selectRandomInto(n, rng, out);
    return;
  }
  // Six subset cities nearest to v; pick three of them.
  std::partial_sort(subset.begin(), subset.begin() + 6, subset.end(),
                    [&](int a, int b) {
                      const auto da = dist(v, a), db = dist(v, b);
                      return da != db ? da < db : a < b;
                    });
  out.assign(1, v);
  for (int attempts = 0; out.size() < 4 && attempts < 64; ++attempts)
    pushUnique(out, subset[rng.below(6)]);
  if (out.size() < 4) selectRandomInto(n, rng, out);
}

void selectRandomWalkInto(int n, const CandidateLists& cand, Rng& rng,
                          int walkLength, std::vector<int>& out) {
  const int v = static_cast<int>(rng.below(std::uint64_t(n)));
  out.assign(1, v);
  for (int walk = 0; walk < 3; ++walk) {
    bool placed = false;
    for (int retry = 0; retry < 10 && !placed; ++retry) {
      int cur = v;
      for (int step = 0; step < walkLength; ++step) {
        const auto nbrs = cand.of(cur);
        if (nbrs.empty()) break;
        cur = nbrs[rng.below(nbrs.size())];
      }
      placed = cur != v && pushUnique(out, cur);
    }
    if (!placed) {
      selectRandomInto(n, rng, out);
      return;
    }
  }
}

/// Shared prologue of every kick: select the four cut cities into
/// ws.kickCities and collect the dirty cities (each cut edge's endpoints)
/// before anything mutates.
template <typename TourT>
void prepareKick(TourT& tour, KickStrategy strategy,
                 const CandidateLists& cand, Rng& rng, const KickOptions& opt,
                 LkWorkspace& ws) {
  if (tour.n() < 8)
    throw std::invalid_argument("applyKick: tour too small for a 4-exchange");
  selectKickCitiesInto(tour.instance(), strategy, cand, rng, opt,
                       ws.kickCities, ws.kickScratch);
  ws.dirty.clear();
  for (int c : ws.kickCities) {
    ws.dirty.push_back(c);
    ws.dirty.push_back(tour.next(c));
  }
}

/// Flip-token double bridge behind the BigTour workspace kick: sort the
/// cut cities in cyclic tour order (anchor = cities[0]) and recombine the
/// segments A C B D via three recorded path reversals. The caller has
/// already checked the tour size.
void applyKickCities(BigTour& tour, const std::array<int, 4>& cities,
                     LkWorkspace& ws) {
  ws.dirty.clear();
  for (int c : cities) {
    ws.dirty.push_back(c);
    ws.dirty.push_back(tour.next(c));
  }

  std::array<int, 4> q = cities;
  std::sort(q.begin() + 1, q.end(),
            [&](int x, int y) { return tour.between(q[0], x, y); });

  const int b1 = tour.next(q[0]);
  const int b2 = q[1];
  const int c1 = tour.next(q[1]);
  const int c2 = q[2];
  auto record = [&](BigTour::FlipToken token) {
    ws.undoLog.push_back({token.first, token.second});
  };
  record(tour.flipForward(b1, c2));
  if (c1 != c2) record(tour.flipForward(c2, c1));
  if (b1 != b2) record(tour.flipForward(b2, b1));
  ws.kick.active = false;  // the kick lives entirely in the flip log
  DISTCLK_AUDIT_HOOK(ws.auditCheck("applyKickCities"));
}

template <typename TourT>
void rollbackFlips(TourT& tour, LkWorkspace& ws) {
  for (auto it = ws.undoLog.rbegin(); it != ws.undoLog.rend(); ++it)
    tour.unflip({it->a, it->b});
  ws.undoLog.clear();
}

}  // namespace

void selectKickCitiesInto(const Instance& inst, KickStrategy strategy,
                          const CandidateLists& cand, Rng& rng,
                          const KickOptions& opt, std::vector<int>& out,
                          std::vector<int>& scratch) {
  switch (strategy) {
    case KickStrategy::kRandom: selectRandomInto(inst.n(), rng, out); return;
    case KickStrategy::kGeometric:
      selectGeometricInto(inst.n(), cand, rng, opt.geometricK, out);
      return;
    case KickStrategy::kClose:
      selectCloseInto(inst, rng, opt.closeBeta, out, scratch);
      return;
    case KickStrategy::kRandomWalk:
      selectRandomWalkInto(inst.n(), cand, rng, opt.walkLength, out);
      return;
  }
  selectRandomInto(inst.n(), rng, out);
}

std::vector<int> selectKickCities(const Instance& inst, KickStrategy strategy,
                                  const CandidateLists& cand, Rng& rng,
                                  const KickOptions& opt) {
  std::vector<int> out;
  std::vector<int> scratch;
  selectKickCitiesInto(inst, strategy, cand, rng, opt, out, scratch);
  return out;
}

void applyKick(Tour& tour, KickStrategy strategy, const CandidateLists& cand,
               Rng& rng, const KickOptions& opt, LkWorkspace& ws) {
  prepareKick(tour, strategy, cand, rng, opt, ws);
  ws.ensure(tour.n());

  std::array<int, 4> q{};
  for (std::size_t i = 0; i < 4; ++i) q[i] = tour.pos(ws.kickCities[i]);
  std::sort(q.begin(), q.end());

  // Same anchoring as the allocating path: rotate so the cut after q[3]
  // becomes the array boundary, the other three cuts become the interior
  // double-bridge positions — realized as one in-place pass.
  const int n = tour.n();
  const int s = (q[3] + 1) % n;
  const int p1 = (q[0] - s + n) % n + 1;
  const int p2 = (q[1] - s + n) % n + 1;
  const int p3 = (q[2] - s + n) % n + 1;
  const std::int64_t delta = tour.kickDoubleBridge(s, p1, p2, p3,
                                                   ws.tourScratch);
  ws.kick = {s, p1, p2, p3, delta, true};
  DISTCLK_AUDIT_HOOK(ws.auditCheck("applyKick(Tour)"));
}

void applyKick(BigTour& tour, KickStrategy strategy,
               const CandidateLists& cand, Rng& rng, const KickOptions& opt,
               LkWorkspace& ws) {
  // Selection first (same throw-before-RNG order as prepareKick), then the
  // shared flip-token double bridge; rollbackKick rewinds the recorded
  // tokens LIFO with the repair flips.
  if (tour.n() < 8)
    throw std::invalid_argument("applyKick: tour too small for a 4-exchange");
  selectKickCitiesInto(tour.instance(), strategy, cand, rng, opt,
                       ws.kickCities, ws.kickScratch);
  applyKickCities(
      tour,
      {ws.kickCities[0], ws.kickCities[1], ws.kickCities[2], ws.kickCities[3]},
      ws);
}

void commitKick(LkWorkspace& ws) {
  ws.resetUndo();
  DISTCLK_AUDIT_HOOK(ws.auditUndoEmpty("commitKick"));
}

void rollbackKick(Tour& tour, LkWorkspace& ws) {
  rollbackFlips(tour, ws);
  if (ws.kick.active) {
    tour.undoKickDoubleBridge(ws.kick.s, ws.kick.p1, ws.kick.p2, ws.kick.p3,
                              ws.kick.delta, ws.tourScratch);
    ws.kick.active = false;
  }
  DISTCLK_AUDIT_HOOK(ws.auditUndoEmpty("rollbackKick(Tour)"));
}

void rollbackKick(BigTour& tour, LkWorkspace& ws) {
  rollbackFlips(tour, ws);
  ws.kick.active = false;
  DISTCLK_AUDIT_HOOK(ws.auditUndoEmpty("rollbackKick(BigTour)"));
}

std::vector<int> applyKick(Tour& tour, KickStrategy strategy,
                           const CandidateLists& cand, Rng& rng,
                           const KickOptions& opt) {
  if (tour.n() < 8)
    throw std::invalid_argument("applyKick: tour too small for a 4-exchange");

  const std::vector<int> cities =
      selectKickCities(tour.instance(), strategy, cand, rng, opt);

  // The cut edges are (c, next(c)). Ensure the four cut positions are
  // distinct and non-degenerate; collect the dirty cities before mutating.
  std::vector<int> dirty;
  for (int c : cities) {
    dirty.push_back(c);
    dirty.push_back(tour.next(c));
  }

  std::array<int, 4> q{};
  for (std::size_t i = 0; i < 4; ++i) q[i] = tour.pos(cities[i]);
  std::sort(q.begin(), q.end());

  // Rotate so the cut after q[3] becomes the array boundary, then the other
  // three cuts are the interior double-bridge positions.
  const int n = tour.n();
  const int s = (q[3] + 1) % n;
  std::vector<int> rotated;
  rotated.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) rotated.push_back(tour.at((s + i) % n));
  tour.setOrder(std::move(rotated));
  const int p1 = (q[0] - s + n) % n + 1;
  const int p2 = (q[1] - s + n) % n + 1;
  const int p3 = (q[2] - s + n) % n + 1;
  tour.doubleBridge(p1, p2, p3);
  return dirty;
}

std::vector<int> applyKick(BigTour& tour, KickStrategy strategy,
                           const CandidateLists& cand, Rng& rng,
                           const KickOptions& opt) {
  if (tour.n() < 8)
    throw std::invalid_argument("applyKick: tour too small for a 4-exchange");
  const std::vector<int> cities =
      selectKickCities(tour.instance(), strategy, cand, rng, opt);

  std::vector<int> dirty;
  for (int c : cities) {
    dirty.push_back(c);
    dirty.push_back(tour.next(c));
  }

  // Sort the four cut cities in cyclic tour order (anchor = cities[0]).
  std::array<int, 4> q{cities[0], cities[1], cities[2], cities[3]};
  std::sort(q.begin() + 1, q.end(),
            [&](int x, int y) { return tour.between(q[0], x, y); });

  // Segments A=(next(q3)..q0) B=(next(q0)..q1) C=(next(q1)..q2)
  // D=(next(q2)..q3); recombine A C B D — the same double bridge the array
  // implementation performs — via three path reversals:
  //   flip(B C) -> C^r B^r, then un-reverse each block.
  const int b1 = tour.next(q[0]);
  const int b2 = q[1];
  const int c1 = tour.next(q[1]);
  const int c2 = q[2];
  tour.reverseForward(b1, c2);
  if (c1 != c2) tour.reverseForward(c2, c1);
  if (b1 != b2) tour.reverseForward(b2, b1);
  return dirty;
}

}  // namespace distclk
