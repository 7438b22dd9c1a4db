#include "lk/chained_lk.h"

#include <vector>

#include "util/timer.h"

namespace distclk {

namespace {

/// Pre-workspace kick loop: champion stays in `tour`, each challenger is a
/// full tour copy. Kept verbatim as the reference path — parity tests pin
/// the fast path's trajectory against it, and benchmarks price the copies.
template <typename TourT>
ClkResult clkReferenceImpl(TourT& tour, const CandidateLists& cand, Rng& rng,
                           const ClkOptions& opt,
                           const AnytimeCallback& onImprove) {
  Timer timer;
  ClkResult res;

  const LkStats initial = linKernighanOptimize(tour, cand, opt.lk);
  res.flips += initial.flips;
  res.undoneFlips += initial.undoneFlips;
  if (onImprove) onImprove(timer.seconds(), tour.length());

  auto hitTarget = [&] {
    return opt.targetLength >= 0 && tour.length() <= opt.targetLength;
  };
  auto timeUp = [&] {
    return opt.timeLimitSeconds > 0 && timer.seconds() >= opt.timeLimitSeconds;
  };

  // The champion lives in `tour`; kicked challengers are built in `work` and
  // copied back only when they win, so a bad kick never damages the champion.
  TourT work = tour;
  for (std::int64_t kick = 0;
       kick < opt.maxKicks && !hitTarget() && !timeUp(); ++kick) {
    ++res.kicks;
    work = tour;
    const std::vector<int> dirty =
        applyKick(work, opt.kick, cand, rng, opt.kickOpt);
    const LkStats repair = linKernighanOptimize(work, cand, dirty, opt.lk);
    res.flips += repair.flips;
    res.undoneFlips += repair.undoneFlips;
    // ABCC-style acceptance: keep ties as well, so plateaus stay mobile.
    if (work.length() <= tour.length()) {
      const bool strict = work.length() < tour.length();
      tour = work;
      if (strict) {
        ++res.improvements;
        if (onImprove) onImprove(timer.seconds(), tour.length());
      }
    }
  }

  res.length = tour.length();
  res.seconds = timer.seconds();
  res.hitTarget = hitTarget();
  return res;
}

/// Workspace kick loop: the champion is kicked and repaired in place; a
/// losing kick is rolled back from the undo log (repair flips LIFO, then
/// the kick inverse), a winning kick commits by dropping the log. Steady
/// state performs zero heap allocations — every buffer lives in `ws` —
/// and the trajectory (tours, RNG stream, flip counters) is bit-identical
/// to the reference path above: the same moves are applied to the same
/// arrays, only the champion bookkeeping differs.
template <typename TourT>
ClkResult clkFastImpl(TourT& tour, const CandidateLists& cand, Rng& rng,
                      const ClkOptions& opt, const AnytimeCallback& onImprove,
                      LkWorkspace& ws) {
  Timer timer;
  ClkResult res;

  const LkStats initial = linKernighanOptimize(tour, cand, opt.lk, ws);
  res.flips += initial.flips;
  res.undoneFlips += initial.undoneFlips;
  if (onImprove) onImprove(timer.seconds(), tour.length());

  auto hitTarget = [&] {
    return opt.targetLength >= 0 && tour.length() <= opt.targetLength;
  };
  auto timeUp = [&] {
    return opt.timeLimitSeconds > 0 && timer.seconds() >= opt.timeLimitSeconds;
  };

  for (std::int64_t kick = 0;
       kick < opt.maxKicks && !hitTarget() && !timeUp(); ++kick) {
    ++res.kicks;
    const std::int64_t championLen = tour.length();
    ws.resetUndo();
    applyKick(tour, opt.kick, cand, rng, opt.kickOpt, ws);
    ws.recording = true;
    const LkStats repair = linKernighanOptimize(tour, cand, ws.dirty,
                                                opt.lk, ws);
    ws.recording = false;
    res.flips += repair.flips;
    res.undoneFlips += repair.undoneFlips;
    // ABCC-style acceptance: keep ties as well, so plateaus stay mobile.
    if (tour.length() <= championLen) {
      const bool strict = tour.length() < championLen;
      commitKick(ws);
      if (strict) {
        ++res.improvements;
        if (onImprove) onImprove(timer.seconds(), tour.length());
      }
    } else {
      // Rollback reversals are deliberately not counted in flips or
      // undoneFlips: the reference path performs no equivalent work, and
      // the modeled-cost proxy must stay identical across both paths.
      rollbackKick(tour, ws);
      ++res.rollbacks;
    }
  }

  res.length = tour.length();
  res.seconds = timer.seconds();
  res.hitTarget = hitTarget();
  return res;
}

template <typename TourT>
ClkResult chainedLkImpl(TourT& tour, const CandidateLists& cand, Rng& rng,
                        const ClkOptions& opt,
                        const AnytimeCallback& onImprove, LkWorkspace& ws) {
  if (opt.referenceKickPath)
    return clkReferenceImpl(tour, cand, rng, opt, onImprove);
  return clkFastImpl(tour, cand, rng, opt, onImprove, ws);
}

}  // namespace

ClkResult chainedLinKernighan(Tour& tour, const CandidateLists& cand,
                              Rng& rng, const ClkOptions& opt,
                              const AnytimeCallback& onImprove) {
  LkWorkspace ws;
  return chainedLkImpl(tour, cand, rng, opt, onImprove, ws);
}

ClkResult chainedLinKernighan(BigTour& tour, const CandidateLists& cand,
                              Rng& rng, const ClkOptions& opt,
                              const AnytimeCallback& onImprove) {
  LkWorkspace ws;
  return chainedLkImpl(tour, cand, rng, opt, onImprove, ws);
}

ClkResult chainedLinKernighan(Tour& tour, const CandidateLists& cand,
                              Rng& rng, LkWorkspace& ws, const ClkOptions& opt,
                              const AnytimeCallback& onImprove) {
  return chainedLkImpl(tour, cand, rng, opt, onImprove, ws);
}

ClkResult chainedLinKernighan(BigTour& tour, const CandidateLists& cand,
                              Rng& rng, LkWorkspace& ws, const ClkOptions& opt,
                              const AnytimeCallback& onImprove) {
  return chainedLkImpl(tour, cand, rng, opt, onImprove, ws);
}

}  // namespace distclk
