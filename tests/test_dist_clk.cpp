#include "core/runtime.h"

#include <gtest/gtest.h>

#include "tsp/gen.h"
#include "tsp/tour.h"

namespace distclk {
namespace {

// Deterministic, cheap simulation settings for tests: modeled cost, few
// inner kicks, tiny virtual budgets.
RunConfig testOptions(double budget = 3.0) {
  RunConfig o;
  o.costModel = CostModel::kModeled;
  o.modeledWorkPerSecond = 1e5;
  o.node.clkKicksPerCall = 5;
  o.timeLimitPerNode = budget;
  o.seed = 7;
  return o;
}

TEST(SimDistClk, RunsAndProducesValidTour) {
  const Instance inst = uniformSquare("d", 100, 111);
  const CandidateLists cand(inst, 8);
  const RunResult res = runDistributed(inst, cand, testOptions());
  Tour best(inst, res.bestOrder);
  EXPECT_EQ(best.length(), res.bestLength);
  EXPECT_GT(res.totalSteps, 8);
  EXPECT_EQ(res.nodeClocks.size(), 8u);
}

TEST(SimDistClk, DeterministicInModeledMode) {
  const Instance inst = uniformSquare("d", 80, 112);
  const CandidateLists cand(inst, 8);
  const RunResult a = runDistributed(inst, cand, testOptions());
  const RunResult b = runDistributed(inst, cand, testOptions());
  EXPECT_EQ(a.bestLength, b.bestLength);
  EXPECT_EQ(a.bestOrder, b.bestOrder);
  EXPECT_EQ(a.totalSteps, b.totalSteps);
  EXPECT_EQ(a.net.messagesSent, b.net.messagesSent);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].node, b.events[i].node);
    EXPECT_EQ(a.events[i].value, b.events[i].value);
  }
}

TEST(SimDistClk, DifferentSeedsDiverge) {
  const Instance inst = uniformSquare("d", 80, 113);
  const CandidateLists cand(inst, 8);
  RunConfig o1 = testOptions(), o2 = testOptions();
  o2.seed = 8;
  const RunResult a = runDistributed(inst, cand, o1);
  const RunResult b = runDistributed(inst, cand, o2);
  EXPECT_NE(a.bestOrder, b.bestOrder);
}

TEST(SimDistClk, CurveIsMonotone) {
  const Instance inst = uniformSquare("d", 120, 114);
  const CandidateLists cand(inst, 8);
  const RunResult res = runDistributed(inst, cand, testOptions());
  for (std::size_t i = 1; i < res.curve.size(); ++i) {
    EXPECT_LT(res.curve[i].length, res.curve[i - 1].length);
  }
}

TEST(SimDistClk, EventsSortedByTime) {
  const Instance inst = uniformSquare("d", 100, 115);
  const CandidateLists cand(inst, 8);
  const RunResult res = runDistributed(inst, cand, testOptions());
  for (std::size_t i = 1; i < res.events.size(); ++i)
    EXPECT_LE(res.events[i - 1].time, res.events[i].time);
}

TEST(SimDistClk, RespectsBudget) {
  const Instance inst = uniformSquare("d", 100, 116);
  const CandidateLists cand(inst, 8);
  const RunResult res = runDistributed(inst, cand, testOptions(1.0));
  // Each node may only exceed the budget by its final in-flight step.
  for (double clock : res.nodeClocks) EXPECT_LT(clock, 2.0);
}

TEST(SimDistClk, TargetStopsSimulation) {
  const Instance inst = uniformSquare("d", 60, 117);
  const CandidateLists cand(inst, 8);
  // Learn an achievable length, then re-run demanding it.
  const RunResult probe = runDistributed(inst, cand, testOptions());
  RunConfig o = testOptions(1e6);
  o.node.targetLength = probe.bestLength;
  const RunResult res = runDistributed(inst, cand, o);
  EXPECT_TRUE(res.hitTarget);
  EXPECT_LT(res.targetTime, 1e6);
  EXPECT_LE(res.bestLength, probe.bestLength);
  // A target event must be present.
  bool sawTarget = false;
  for (const auto& e : res.events)
    sawTarget |= e.type == NodeEventType::kTargetReached;
  EXPECT_TRUE(sawTarget);
}

TEST(SimDistClk, SingleNodeWorks) {
  const Instance inst = uniformSquare("d", 80, 118);
  const CandidateLists cand(inst, 8);
  RunConfig o = testOptions();
  o.nodes = 1;
  const RunResult res = runDistributed(inst, cand, o);
  EXPECT_EQ(res.net.messagesSent, 0);  // nobody to talk to
  EXPECT_GT(res.totalSteps, 1);
  Tour best(inst, res.bestOrder);
  EXPECT_TRUE(best.valid());
}

TEST(SimDistClk, MoreBudgetNeverHurts) {
  const Instance inst = uniformSquare("d", 150, 119);
  const CandidateLists cand(inst, 8);
  const RunResult shortRun = runDistributed(inst, cand, testOptions(0.5));
  const RunResult longRun = runDistributed(inst, cand, testOptions(6.0));
  EXPECT_LE(longRun.bestLength, shortRun.bestLength);
}

TEST(SimDistClk, BroadcastsHappen) {
  const Instance inst = uniformSquare("d", 150, 120);
  const CandidateLists cand(inst, 8);
  const RunResult res = runDistributed(inst, cand, testOptions());
  EXPECT_GT(res.net.broadcasts, 0);
  // Hypercube of 8: every broadcast reaches exactly 3 neighbors.
  EXPECT_EQ(res.net.messagesSent, res.net.broadcasts * 3);
}

TEST(SimDistClk, FailureInjectionStopsNode) {
  const Instance inst = uniformSquare("d", 80, 121);
  const CandidateLists cand(inst, 8);
  RunConfig o = testOptions(5.0);
  o.failures = {{0, 0.5}, {1, 0.5}};
  const RunResult res = runDistributed(inst, cand, o);
  // The dead nodes' clocks froze near the failure time.
  EXPECT_LT(res.nodeClocks[0], 5.0);
  EXPECT_LT(res.nodeClocks[1], 5.0);
  // The rest kept running and produced a valid result.
  Tour best(inst, res.bestOrder);
  EXPECT_TRUE(best.valid());
  EXPECT_GT(res.nodeClocks[2], 1.0);
}

TEST(SimDistClk, AllNodesFailingStillTerminates) {
  const Instance inst = uniformSquare("d", 60, 122);
  const CandidateLists cand(inst, 8);
  RunConfig o = testOptions(100.0);
  for (int i = 0; i < 8; ++i) o.failures.emplace_back(i, 0.01);
  const RunResult res = runDistributed(inst, cand, o);
  EXPECT_FALSE(res.hitTarget);
  EXPECT_GE(res.totalSteps, 8);  // at least the initial steps ran
}

TEST(SimDistClk, TopologiesAllRun) {
  const Instance inst = uniformSquare("d", 60, 123);
  const CandidateLists cand(inst, 8);
  for (TopologyKind k :
       {TopologyKind::kHypercube, TopologyKind::kRing, TopologyKind::kGrid,
        TopologyKind::kComplete, TopologyKind::kStar}) {
    RunConfig o = testOptions(1.0);
    o.topology = k;
    const RunResult res = runDistributed(inst, cand, o);
    Tour best(inst, res.bestOrder);
    EXPECT_TRUE(best.valid()) << toString(k);
  }
}

TEST(SimDistClk, LateJoinersParticipate) {
  const Instance inst = uniformSquare("d", 80, 125);
  const CandidateLists cand(inst, 8);
  RunConfig o = testOptions(4.0);
  o.joins = {{6, 2.0}, {7, 2.0}};
  const RunResult res = runDistributed(inst, cand, o);
  // The late nodes' clocks start at the join time, so they end past it but
  // within the budget (+ one in-flight step).
  EXPECT_GE(res.nodeClocks[6], 2.0);
  EXPECT_GE(res.nodeClocks[7], 2.0);
  // Their initial-tour events carry times after the join.
  int lateInits = 0;
  for (const auto& e : res.events) {
    if (e.type != NodeEventType::kInitialTour) continue;
    if (e.node >= 6) {
      EXPECT_GE(e.time, 2.0);
      ++lateInits;
    } else {
      EXPECT_LT(e.time, 2.0);
    }
  }
  EXPECT_EQ(lateInits, 2);
  Tour best(inst, res.bestOrder);
  EXPECT_TRUE(best.valid());
}

TEST(SimDistClk, JoinAfterBudgetMeansNodeNeverRuns) {
  const Instance inst = uniformSquare("d", 60, 126);
  const CandidateLists cand(inst, 8);
  RunConfig o = testOptions(1.0);
  o.joins = {{5, 100.0}};
  const RunResult res = runDistributed(inst, cand, o);
  for (const auto& e : res.events) EXPECT_NE(e.node, 5);
}

TEST(SimDistClk, JoinsValidateNodeIndex) {
  const Instance inst = uniformSquare("d", 30, 127);
  const CandidateLists cand(inst, 8);
  RunConfig o = testOptions();
  o.joins = {{99, 1.0}};
  EXPECT_THROW(runDistributed(inst, cand, o), std::invalid_argument);
}

TEST(SimDistClk, RejectsBadNodeCount) {
  const Instance inst = uniformSquare("d", 30, 124);
  const CandidateLists cand(inst, 8);
  RunConfig o = testOptions();
  o.nodes = 0;
  EXPECT_THROW(runDistributed(inst, cand, o), std::invalid_argument);
}

}  // namespace
}  // namespace distclk
