// Chained Lin-Kernighan (Martin/Otto/Felten 1991, ABCC implementation
// style): LK-optimize, then repeatedly kick the champion tour with a
// double-bridge move, re-optimize locally, and keep the result iff it is no
// worse. This is both the paper's baseline ("ABCC-CLK") and the local
// engine inside every distributed node.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "lk/kicks.h"
#include "lk/lin_kernighan.h"
#include "tsp/neighbors.h"
#include "tsp/tour.h"
#include "util/rng.h"

namespace distclk {

struct ClkOptions {
  KickStrategy kick = KickStrategy::kRandomWalk;  ///< linkern's default
  KickOptions kickOpt;
  LkOptions lk;
  /// Stop after this many kicks (the paper sets it effectively unlimited
  /// and lets time/target terminate).
  std::int64_t maxKicks = std::numeric_limits<std::int64_t>::max();
  /// Stop once the champion reaches this length (e.g. a known optimum).
  std::int64_t targetLength = -1;
  /// Stop after this many seconds of wall time (<= 0: unlimited).
  double timeLimitSeconds = -1.0;
  /// Run the pre-workspace kick loop (copy the champion into a challenger,
  /// repair the copy, copy back on a win) instead of the in-place undo-log
  /// loop. Trajectories are bit-identical either way; this exists so parity
  /// tests and benchmarks can measure the copy-based path head-to-head.
  bool referenceKickPath = false;
};

struct ClkResult {
  std::int64_t length = 0;
  std::int64_t kicks = 0;
  std::int64_t improvements = 0;
  /// Forward LK segment reversals across all optimizations. Together with
  /// undoneFlips this is a deterministic proxy for CPU work, used by the
  /// simulator's modeled-cost mode.
  std::int64_t flips = 0;
  /// Rewound reversals of failed LK chains (each also cost a physical
  /// reversal); total reversals performed == flips + undoneFlips.
  std::int64_t undoneFlips = 0;
  /// Losing kicks rolled back in place (fast path; the reference path
  /// discards its challenger copy instead, so it reports 0). Rollback
  /// reversals are not counted in flips/undoneFlips — the modeled-cost
  /// proxy stays identical across both paths.
  std::int64_t rollbacks = 0;
  double seconds = 0.0;
  bool hitTarget = false;
};

/// Invoked on every champion improvement with (elapsed seconds, length).
using AnytimeCallback = std::function<void(double, std::int64_t)>;

/// Runs Chained LK on `tour` in place. The initial tour is first optimized
/// to an LK local optimum, then kicked maxKicks times (or until the time
/// limit / target triggers).
ClkResult chainedLinKernighan(Tour& tour, const CandidateLists& cand,
                              Rng& rng, const ClkOptions& opt = {},
                              const AnytimeCallback& onImprove = {});

/// The same driver on the segment-list BigTour: O(sqrt n) flips and kicks,
/// the configuration for six-digit city counts (the paper's pla85900).
ClkResult chainedLinKernighan(BigTour& tour, const CandidateLists& cand,
                              Rng& rng, const ClkOptions& opt = {},
                              const AnytimeCallback& onImprove = {});

/// Workspace variants: same trajectories (the overloads above delegate
/// through a temporary workspace), but a caller-owned LkWorkspace carries
/// the queue, scratch, and undo buffers across calls, making the steady-
/// state kick loop allocation-free. The distributed node owns one per node.
ClkResult chainedLinKernighan(Tour& tour, const CandidateLists& cand,
                              Rng& rng, LkWorkspace& ws,
                              const ClkOptions& opt = {},
                              const AnytimeCallback& onImprove = {});
ClkResult chainedLinKernighan(BigTour& tour, const CandidateLists& cand,
                              Rng& rng, LkWorkspace& ws,
                              const ClkOptions& opt = {},
                              const AnytimeCallback& onImprove = {});

}  // namespace distclk
