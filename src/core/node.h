// The distributed EA node of Fig. 1: perturb the best-known tour with
// variable-strength double-bridge moves, re-optimize with Chained LK, merge
// with tours received from neighbors, broadcast local wins, and restart
// from a fresh construction when c_r consecutive non-improvements pile up.
// DistNode is pure logic — transports and clocks live in the drivers, so
// the identical node runs under the discrete-event simulator and under real
// threads.
#pragma once

#include <cstdint>
#include <vector>

#include "lk/chained_lk.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "tsp/neighbors.h"
#include "tsp/tour.h"
#include "util/rng.h"

namespace distclk {

/// Metric handles a DistNode records into (shared by all nodes of a run;
/// per-node detail lives in the event trace). With a null registry every
/// probe is a single pointer test — the un-traced fast path.
struct NodeMetrics {
  obs::MetricsRegistry* registry = nullptr;
  obs::MetricId steps;            ///< EA iterations (counter)
  obs::MetricId perturbations;    ///< double bridges applied (counter)
  obs::MetricId lkFlips;          ///< inner-CLK applied flips (counter)
  obs::MetricId lkUndoneFlips;    ///< inner-CLK rewound flips (counter)
  obs::MetricId initialLkFlips;   ///< initial steps' applied flips (counter)
  obs::MetricId initialLkUndoneFlips;  ///< initial steps' rewound flips
  obs::MetricId lkKicks;          ///< inner-CLK kicks (counter)
  obs::MetricId clkRollbacks;     ///< inner-CLK losing kicks rolled back
  obs::MetricId restarts;         ///< c_r-triggered restarts (counter)
  obs::MetricId mergeLocalWin;    ///< merge kept the locally optimized tour
  obs::MetricId mergeReceivedWin; ///< merge kept a received tour
  obs::MetricId mergeStagnant;    ///< merge found no improvement
  obs::MetricId toursReceived;    ///< kTour messages considered (counter)
  obs::MetricId computeSeconds;   ///< wall time of compute phases (histogram)
  obs::MetricId initialSeconds;   ///< wall time of initial steps (histogram)
  obs::MetricId restartDepth;     ///< NumNoImprovements at restart (histogram)

  /// Registers all node metrics on `registry` (idempotent by name).
  static NodeMetrics attach(obs::MetricsRegistry& registry);
};

struct DistParams {
  int cv = 64;   ///< perturbation-strength divisor (paper default)
  int cr = 256;  ///< restart threshold (paper default)
  /// Kick strategy handed to the inner CLK (the EA-level perturbation is
  /// always random double bridges, as in the paper).
  KickStrategy clkKick = KickStrategy::kRandomWalk;
  KickOptions kickOpt;
  LkOptions lk;
  /// Kicks per inner CLK call; <= 0 means "instance size" (linkern's
  /// default of one kick per city).
  std::int64_t clkKicksPerCall = 0;
  /// Ablation switch: disable the EA-level double-bridge perturbation
  /// (paper §4.2 "running without DBMs").
  bool usePerturbation = true;
  /// Known optimum (or calibrated target); termination criterion 1.
  std::int64_t targetLength = -1;
};

class DistNode {
 public:
  DistNode(const Instance& inst, const CandidateLists& cand, DistParams params,
           int id, std::uint64_t seed);

  struct StepOutcome {
    std::int64_t bestLength = 0;
    bool broadcast = false;     ///< caller must broadcast best() to neighbors
    bool improvedByMessage = false;
    bool foundTarget = false;
    std::int64_t modelCost = 0;  ///< deterministic work units (LK flips)
    double measuredSeconds = 0;  ///< wall time of the compute phase
    int perturbations = 0;       ///< double bridges applied this step
    bool restarted = false;
    /// NumNoImprovements when the restart fired (0 when !restarted); the
    /// kRestart trace event carries this value.
    int noImprovementsAtRestart = 0;
    /// Sender of the adopted tour when improvedByMessage, else -1. Feeds
    /// the causal-trace "adopt" record (provenance analysis).
    int improvedFromNode = -1;
  };

  /// The compute half of an EA iteration: perturbation + inner CLK. The
  /// simulator charges virtual time for this phase before delivering the
  /// messages that arrived while it "ran" (the paper's nodes poll their
  /// receive queue only after CLK returns).
  ///
  /// A phase reads only this node's own state, and leaves s_best / s_prev
  /// alone, so the simulator may run it on a worker thread ahead of its
  /// commit and drop it unobserved when the run ends first. Its CLK
  /// statistics ride along and reach the metrics only at commit.
  struct ComputePhase {
    Tour s;                      ///< the locally optimized challenger
    std::int64_t modelCost = 0;  ///< deterministic work units (LK flips)
    double measuredSeconds = 0;  ///< wall time of the phase
    int perturbations = 0;
    bool restarted = false;
    int noImprovementsAtRestart = 0;
    ClkResult clk;               ///< the inner CLK call's counters
  };

  /// Compute half of the first step: construct (Quick-Borůvka) and
  /// CLK-optimize the initial tour. Throws once commitInitial() ran.
  ComputePhase initialCompute();
  /// Commit half of the first step: the phase's tour becomes s_best and
  /// s_prev. Must be called exactly once, before merge().
  StepOutcome commitInitial(ComputePhase phase);
  /// Convenience: initialCompute + commitInitial in one call (tests).
  StepOutcome initialStep();

  ComputePhase compute();

  /// The merge half (the commit of a compute phase): SELECTBESTTOUR over
  /// received ∪ {s} ∪ {s_prev}, counter bookkeeping, the broadcast
  /// decision, and the phase's metrics.
  StepOutcome merge(ComputePhase phase, const std::vector<Message>& received);

  /// Convenience: compute + merge in one call (tests, benches).
  StepOutcome step(const std::vector<Message>& received);

  int id() const noexcept { return id_; }
  const Tour& best() const noexcept { return sBest_; }
  int noImprovements() const noexcept { return numNoImprovements_; }
  /// Current perturbation level (NumPerturbations the next step will use).
  int perturbationLevel() const noexcept {
    return numNoImprovements_ / params_.cv + 1;
  }
  std::int64_t restarts() const noexcept { return restarts_; }

  /// Builds the broadcast message for the current best tour.
  Message makeTourMessage() const;

  /// Attaches metric probes (default: none; recording is then skipped).
  /// Metrics are pure observation — attaching them never changes the
  /// node's RNG stream or decisions.
  void setMetrics(const NodeMetrics& metrics) noexcept { metrics_ = metrics; }

  /// Shares a precomputed Quick-Borůvka order (InstanceContext's cached
  /// construction) used by initialStep() and every restart instead of
  /// recomputing it. Must equal quickBoruvkaTour(inst, cand) and outlive
  /// the node. Trajectory-neutral: the construction is deterministic and
  /// the modeled-cost charge is unchanged; only wall time shrinks.
  void setConstructionOrder(const std::vector<int>* order) noexcept {
    constructionOrder_ = order;
  }

 private:
  Tour initialTour();
  std::int64_t innerKicks() const noexcept;

  const Instance& inst_;
  const CandidateLists& cand_;
  const std::vector<int>* constructionOrder_ = nullptr;
  DistParams params_;
  int id_;
  Rng rng_;
  Tour sPrev_;
  Tour sBest_;
  int numNoImprovements_ = 0;
  std::int64_t restarts_ = 0;
  bool initialized_ = false;
  NodeMetrics metrics_;
  /// Reusable kick/repair buffers for the inner CLK: one workspace per node
  /// keeps the steady-state compute phase free of heap allocations.
  LkWorkspace ws_;
};

}  // namespace distclk
