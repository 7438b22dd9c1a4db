// End-to-end checks across the whole stack: construction -> candidates ->
// CLK -> distributed cooperation, validated against the Held-Karp bound and
// the paper's headline claims at miniature scale.
#include <gtest/gtest.h>

#include <sstream>

#include "bound/held_karp.h"
#include "core/runtime.h"
#include "experiments/harness.h"
#include "tsp/gen.h"
#include "tsp/tour.h"
#include "tsp/tsplib.h"

namespace distclk {
namespace {

TEST(Integration, ClkGetsCloseToHeldKarpOnUniform) {
  const Instance inst = uniformSquare("i", 400, 161);
  const CandidateLists cand(inst, 10);
  const ClkRunSummary run =
      runClkExperiment(inst, cand, KickStrategy::kRandomWalk, 1.5, -1, 1);
  const double hk = heldKarpBound(inst).bound;
  // HK is typically within ~1% of optimal; CLK should land within ~3% of HK.
  EXPECT_LT(static_cast<double>(run.finalLength), hk * 1.03);
}

TEST(Integration, DistributedMatchesLongClkOnClustered) {
  // On extreme clustered geometry the Held-Karp bound has a large genuine
  // duality gap (~8% here; verified against exact DP at small n), so the
  // reference is a long single-process CLK run instead.
  const Instance inst = clustered("i", 300, 10, 162);
  const CandidateLists cand(inst, 10);
  const ClkRunSummary longClk =
      runClkExperiment(inst, cand, KickStrategy::kRandomWalk, 2.0, -1, 9);
  RunConfig opt;
  opt.nodes = 4;
  opt.timeLimitPerNode = 0.4;
  opt.node.clkKicksPerCall = 50;
  opt.seed = 1;
  const RunResult res = runDistributed(inst, cand, opt);
  EXPECT_LT(static_cast<double>(res.bestLength),
            static_cast<double>(longClk.finalLength) * 1.02);
  Tour best(inst, res.bestOrder);
  EXPECT_TRUE(best.valid());
}

TEST(Integration, CooperationBeatsIsolationOnDrillPlates) {
  // The paper's headline: on fl-type instances plain CLK stagnates while
  // the distributed variant keeps improving. Compare 8 cooperating nodes
  // against 8 isolated nodes (same total budget) on a small drill plate.
  const Instance inst = drillPlate("i", 400, 163);
  const CandidateLists cand(inst, 10);

  auto bestOf = [&](bool cooperate, bool perturb, std::uint64_t seed) {
    RunConfig o;
    o.nodes = 8;
    o.timeLimitPerNode = 0.35;
    o.node.clkKicksPerCall = 40;
    o.node.usePerturbation = perturb;
    // Isolation: a latency beyond the budget means no broadcast ever
    // arrives — 8 independent CLK processes, best-of reported.
    o.latencySeconds = cooperate ? 1e-3 : 1e9;
    o.seed = seed;
    return runDistributed(inst, cand, o).bestLength;
  };

  double coop = 0, naked = 0;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    coop += static_cast<double>(bestOf(true, true, s));
    naked += static_cast<double>(bestOf(false, false, s));
  }
  EXPECT_LE(coop, naked * 1.001);
}

TEST(Integration, MessagesCarryValidToursAcrossTheStack) {
  // Run a short sim and re-validate every broadcast recorded in the event
  // log against the final tour-length invariants.
  const Instance inst = uniformSquare("i", 200, 164);
  const CandidateLists cand(inst, 8);
  RunConfig opt;
  opt.nodes = 8;
  opt.timeLimitPerNode = 0.25;
  opt.node.clkKicksPerCall = 30;
  const RunResult res = runDistributed(inst, cand, opt);
  std::int64_t lastBroadcast = std::numeric_limits<std::int64_t>::max();
  for (const auto& e : res.events) {
    if (e.type != NodeEventType::kBroadcastSent) continue;
    EXPECT_GT(e.value, 0);
    lastBroadcast = e.value;
  }
  if (lastBroadcast != std::numeric_limits<std::int64_t>::max()) {
    EXPECT_GE(lastBroadcast, res.bestLength);
  }
}

TEST(Integration, TsplibRoundtripThroughSolver) {
  // Generate -> write TSPLIB -> parse back; distance tables and therefore
  // any solver run must agree exactly between original and round-tripped
  // instances.
  const Instance orig = clustered("rt", 120, 5, 165);
  std::stringstream s;
  writeTsplib(s, orig);
  const Instance back = parseTsplib(s);
  ASSERT_EQ(back.n(), orig.n());
  for (int i = 0; i < orig.n(); ++i)
    for (int j = 0; j < orig.n(); ++j)
      ASSERT_EQ(back.dist(i, j), orig.dist(i, j));
  const CandidateLists cand(back, 8);
  const ClkRunSummary runBack =
      runClkExperiment(back, cand, KickStrategy::kGeometric, 0.2, -1, 2);
  EXPECT_GT(runBack.finalLength, 0);
}

}  // namespace
}  // namespace distclk
