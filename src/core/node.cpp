#include "core/node.h"

#include <algorithm>
#include <stdexcept>

#include "construct/construct.h"
#include "util/timer.h"

namespace distclk {

NodeMetrics NodeMetrics::attach(obs::MetricsRegistry& registry) {
  NodeMetrics m;
  m.registry = &registry;
  m.steps = registry.counter("node.steps");
  m.perturbations = registry.counter("node.perturbations");
  m.lkFlips = registry.counter("node.lk_flips");
  m.lkUndoneFlips = registry.counter("node.lk_undone_flips");
  m.initialLkFlips = registry.counter("node.initial_lk_flips");
  m.initialLkUndoneFlips = registry.counter("node.initial_lk_undone_flips");
  m.lkKicks = registry.counter("node.lk_kicks");
  m.clkRollbacks = registry.counter("node.clk_rollbacks");
  m.restarts = registry.counter("node.restarts");
  m.mergeLocalWin = registry.counter("node.merge_local_win");
  m.mergeReceivedWin = registry.counter("node.merge_received_win");
  m.mergeStagnant = registry.counter("node.merge_stagnant");
  m.toursReceived = registry.counter("node.tours_received");
  m.computeSeconds = registry.histogram(
      "node.compute_seconds",
      obs::MetricsRegistry::exponentialBounds(1e-4, 4.0, 10));
  m.initialSeconds = registry.histogram(
      "node.initial_seconds",
      obs::MetricsRegistry::exponentialBounds(1e-4, 4.0, 10));
  m.restartDepth = registry.histogram(
      "node.restart_depth", obs::MetricsRegistry::linearBounds(64.0, 8));
  return m;
}

DistNode::DistNode(const Instance& inst, const CandidateLists& cand,
                   DistParams params, int id, std::uint64_t seed)
    : inst_(inst), cand_(cand), params_(params), id_(id), rng_(seed),
      sPrev_(inst), sBest_(inst) {
  if (params_.cv < 1 || params_.cr < 1)
    throw std::invalid_argument("DistNode: c_v and c_r must be >= 1");
}

Tour DistNode::initialTour() {
  if (constructionOrder_ != nullptr) return Tour(inst_, *constructionOrder_);
  return Tour(inst_, quickBoruvkaTour(inst_, cand_));
}

std::int64_t DistNode::innerKicks() const noexcept {
  return params_.clkKicksPerCall > 0 ? params_.clkKicksPerCall : inst_.n();
}

DistNode::ComputePhase DistNode::initialCompute() {
  if (initialized_) throw std::logic_error("DistNode: initialStep called twice");
  Timer timer;
  ComputePhase phase{initialTour(), 0, 0.0, 0, false, 0, {}};
  ClkOptions co;
  co.kick = params_.clkKick;
  co.kickOpt = params_.kickOpt;
  co.lk = params_.lk;
  co.maxKicks = innerKicks();
  co.targetLength = params_.targetLength;
  phase.clk = chainedLinKernighan(phase.s, cand_, rng_, ws_, co);
  // Total physical reversals (applied + rewound): the same deterministic
  // work proxy as before the flips/undoneFlips telemetry split.
  phase.modelCost = phase.clk.flips + phase.clk.undoneFlips + inst_.n();
  phase.measuredSeconds = timer.seconds();
  return phase;
}

DistNode::StepOutcome DistNode::commitInitial(ComputePhase phase) {
  if (initialized_) throw std::logic_error("DistNode: initialStep called twice");
  initialized_ = true;
  sBest_ = std::move(phase.s);
  sPrev_ = sBest_;
  if (metrics_.registry != nullptr) {
    // Kept apart from the EA-step counters, which count merge() commits.
    obs::MetricsRegistry& reg = *metrics_.registry;
    reg.add(metrics_.initialLkFlips, phase.clk.flips);
    reg.add(metrics_.initialLkUndoneFlips, phase.clk.undoneFlips);
    reg.observe(metrics_.initialSeconds, phase.measuredSeconds);
  }
  StepOutcome out;
  out.bestLength = sBest_.length();
  out.modelCost = phase.modelCost;
  out.measuredSeconds = phase.measuredSeconds;
  out.foundTarget =
      params_.targetLength >= 0 && out.bestLength <= params_.targetLength;
  return out;
}

DistNode::StepOutcome DistNode::initialStep() {
  return commitInitial(initialCompute());
}

DistNode::ComputePhase DistNode::compute() {
  if (!initialized_)
    throw std::logic_error("DistNode: compute before initialStep");
  Timer timer;
  ComputePhase phase{sBest_, 0, 0.0, 0, false, 0, {}};

  // PERTURBATE(s_best): fresh construction after c_r stagnant iterations,
  // otherwise NumNoImprovements / c_v + 1 random double bridges.
  if (params_.usePerturbation) {
    if (numNoImprovements_ > params_.cr) {
      phase.noImprovementsAtRestart = numNoImprovements_;
      numNoImprovements_ = 0;
      ++restarts_;
      phase.restarted = true;
      phase.s = initialTour();
      phase.modelCost += inst_.n();  // construction work
    } else {
      phase.perturbations = numNoImprovements_ / params_.cv + 1;
      for (int i = 0; i < phase.perturbations; ++i)
        applyKick(phase.s, KickStrategy::kRandom, cand_, rng_, KickOptions{},
                  ws_);
    }
  }

  // CHAINEDLINKERNIGHAN(s).
  ClkOptions co;
  co.kick = params_.clkKick;
  co.kickOpt = params_.kickOpt;
  co.lk = params_.lk;
  co.maxKicks = innerKicks();
  co.targetLength = params_.targetLength;
  phase.clk = chainedLinKernighan(phase.s, cand_, rng_, ws_, co);
  phase.modelCost += phase.clk.flips + phase.clk.undoneFlips + phase.clk.kicks;
  phase.measuredSeconds = timer.seconds();
  return phase;
}

DistNode::StepOutcome DistNode::merge(ComputePhase phase,
                                      const std::vector<Message>& received) {
  if (metrics_.registry != nullptr) {
    // Recorded at commit, not in compute(): a phase computed ahead on a
    // worker thread must not show up in a snapshot taken before its turn.
    obs::MetricsRegistry& reg = *metrics_.registry;
    reg.add(metrics_.steps);
    reg.add(metrics_.lkFlips, phase.clk.flips);
    reg.add(metrics_.lkUndoneFlips, phase.clk.undoneFlips);
    reg.add(metrics_.lkKicks, phase.clk.kicks);
    reg.add(metrics_.clkRollbacks, phase.clk.rollbacks);
    if (phase.perturbations > 0)
      reg.add(metrics_.perturbations, phase.perturbations);
    if (phase.restarted) {
      reg.add(metrics_.restarts);
      reg.observe(metrics_.restartDepth,
                  double(phase.noImprovementsAtRestart));
    }
    reg.observe(metrics_.computeSeconds, phase.measuredSeconds);
  }
  StepOutcome out;
  out.modelCost = phase.modelCost;
  out.measuredSeconds = phase.measuredSeconds;
  out.perturbations = phase.perturbations;
  out.restarted = phase.restarted;
  out.noImprovementsAtRestart = phase.noImprovementsAtRestart;
  Tour& s = phase.s;

  // SELECTBESTTOUR over {received} ∪ {s} ∪ {s_prev}.
  const Tour* best = &s;
  if (sPrev_.length() < best->length()) best = &sPrev_;
  Tour receivedBest(sPrev_);  // storage for the best received tour, if any
  bool haveReceived = false;
  int receivedFrom = -1;
  for (const Message& msg : received) {
    if (msg.type != MessageType::kTour) continue;
    if (metrics_.registry != nullptr)
      metrics_.registry->add(metrics_.toursReceived);
    if (msg.length >= best->length()) continue;  // cheap reject before O(n)
    std::vector<int> order(msg.order.begin(), msg.order.end());
    Tour t(inst_, std::move(order));
    if (t.length() < best->length()) {
      receivedBest = std::move(t);
      haveReceived = true;
      receivedFrom = msg.from;
      best = &receivedBest;
    }
  }

  // Counter bookkeeping and broadcast decision (Fig. 1): stagnation bumps
  // the counter; any strict improvement resets it; only locally produced
  // improvements are re-broadcast.
  if (best->length() == sPrev_.length()) {
    ++numNoImprovements_;
  } else {
    numNoImprovements_ = 0;
    if (best == &s) out.broadcast = true;
    out.improvedByMessage = haveReceived && best == &receivedBest;
    if (out.improvedByMessage) out.improvedFromNode = receivedFrom;
  }
  if (metrics_.registry != nullptr) {
    metrics_.registry->add(out.improvedByMessage ? metrics_.mergeReceivedWin
                           : out.broadcast       ? metrics_.mergeLocalWin
                                                 : metrics_.mergeStagnant);
  }

  sBest_ = *best;
  sPrev_ = sBest_;
  out.bestLength = sBest_.length();
  out.foundTarget =
      params_.targetLength >= 0 && out.bestLength <= params_.targetLength;
  return out;
}

DistNode::StepOutcome DistNode::step(const std::vector<Message>& received) {
  return merge(compute(), received);
}

Message DistNode::makeTourMessage() const {
  Message msg;
  msg.type = MessageType::kTour;
  msg.from = id_;
  msg.length = sBest_.length();
  const auto order = sBest_.order();
  msg.order.assign(order.begin(), order.end());
  return msg;
}

}  // namespace distclk
