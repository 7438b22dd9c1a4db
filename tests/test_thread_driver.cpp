#include "core/runtime.h"

#include <gtest/gtest.h>

#include "tsp/gen.h"
#include "tsp/tour.h"

namespace distclk {
namespace {

RunConfig testOptions() {
  RunConfig o;
  o.runtime = RuntimeKind::kThreads;
  o.nodes = 2;
  o.timeLimitPerNode = 0.3;
  o.node.clkKicksPerCall = 3;
  return o;
}

TEST(ThreadDriver, CompletesAndProducesValidTour) {
  const Instance inst = uniformSquare("t", 80, 131);
  const CandidateLists cand(inst, 8);
  const RunResult res = runDistributed(inst, cand, testOptions());
  Tour best(inst, res.bestOrder);
  EXPECT_EQ(best.length(), res.bestLength);
  EXPECT_EQ(res.nodeBest.size(), 2u);
  EXPECT_GE(res.totalSteps, 2);
  for (std::int64_t nb : res.nodeBest) EXPECT_GE(nb, res.bestLength);
}

TEST(ThreadDriver, HitsEasyTarget) {
  const Instance inst = uniformSquare("t", 60, 132);
  const CandidateLists cand(inst, 8);
  // Probe once for an achievable value.
  const RunResult probe = runDistributed(inst, cand, testOptions());
  RunConfig o = testOptions();
  o.timeLimitPerNode = 30.0;  // termination should come from the target
  o.node.targetLength = probe.bestLength;
  const RunResult res = runDistributed(inst, cand, o);
  EXPECT_TRUE(res.hitTarget);
  EXPECT_LE(res.bestLength, probe.bestLength);
}

TEST(ThreadDriver, EightNodeHypercubeRuns) {
  const Instance inst = uniformSquare("t", 60, 133);
  const CandidateLists cand(inst, 8);
  RunConfig o = testOptions();
  o.nodes = 8;
  const RunResult res = runDistributed(inst, cand, o);
  EXPECT_EQ(res.nodeBest.size(), 8u);
  Tour best(inst, res.bestOrder);
  EXPECT_TRUE(best.valid());
}

TEST(ThreadDriver, RecordsPerNodeCurvesAndEvents) {
  const Instance inst = uniformSquare("t", 100, 135);
  const CandidateLists cand(inst, 8);
  RunConfig o = testOptions();
  o.nodes = 3;
  const RunResult res = runDistributed(inst, cand, o);
  ASSERT_EQ(res.nodeCurves.size(), 3u);
  for (const auto& curve : res.nodeCurves) {
    ASSERT_FALSE(curve.empty());  // at least the initial tour is recorded
    for (std::size_t i = 1; i < curve.size(); ++i) {
      EXPECT_GE(curve[i].time, curve[i - 1].time);
      EXPECT_LT(curve[i].length, curve[i - 1].length);
    }
  }
  // Every node logged its initial tour; events are time-sorted.
  int inits = 0;
  for (std::size_t i = 0; i < res.events.size(); ++i) {
    if (res.events[i].type == NodeEventType::kInitialTour) ++inits;
    if (i > 0) {
      EXPECT_GE(res.events[i].time, res.events[i - 1].time);
    }
    EXPECT_GE(res.events[i].node, 0);
    EXPECT_LT(res.events[i].node, 3);
  }
  EXPECT_EQ(inits, 3);
  // The best curve tail matches the reported per-node bests.
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(res.nodeCurves[std::size_t(i)].back().length,
              res.nodeBest[std::size_t(i)]);
}

TEST(ThreadDriver, RejectsBadNodeCount) {
  const Instance inst = uniformSquare("t", 30, 134);
  const CandidateLists cand(inst, 8);
  RunConfig o = testOptions();
  o.nodes = 0;
  EXPECT_THROW(runDistributed(inst, cand, o), std::invalid_argument);
}

}  // namespace
}  // namespace distclk
