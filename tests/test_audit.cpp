// Tests for the invariant audit mode (util/audit.h). auditCheck() methods
// are compiled in every build flavor, so this suite runs (and must pass)
// with DISTCLK_AUDIT both OFF and ON; under -DDISTCLK_AUDIT=ON the same
// operations additionally self-audit through the compiled-in hooks, which
// is what the tier-1 audit pass (build-audit, ASan) exercises.
#include <gtest/gtest.h>

#include <vector>

#include "core/runtime.h"
#include "lk/chained_lk.h"
#include "lk/lk_workspace.h"
#include "tsp/big_tour.h"
#include "tsp/gen.h"
#include "tsp/neighbors.h"
#include "tsp/tour.h"
#include "tsp/twolevel.h"
#include "util/audit.h"
#include "util/rng.h"

namespace distclk {
namespace {

TEST(Audit, TourSurvivesRandomMoves) {
  const Instance inst = uniformSquare("audit-tour", 64, 7);
  Tour tour(inst);
  Rng rng(11);
  for (int it = 0; it < 200; ++it) {
    const int a = static_cast<int>(rng.below(64));
    const int b = static_cast<int>(rng.below(64));
    if (a == b) continue;
    tour.reverseSegment(a, b);
    tour.auditCheck("test:reverseSegment");
  }
  const int n = tour.n();
  tour.doubleBridge(n / 4, n / 2, 3 * n / 4);
  tour.auditCheck("test:doubleBridge");
  tour.twoOptMove(tour.at(0), tour.at(5));
  tour.auditCheck("test:twoOptMove");
}

TEST(Audit, BigTourSurvivesRandomFlips) {
  const Instance inst = uniformSquare("audit-big", 128, 3);
  BigTour tour(inst);
  Rng rng(5);
  for (int it = 0; it < 100; ++it) {
    const int a = static_cast<int>(rng.below(128));
    const int b = static_cast<int>(rng.below(128));
    if (a == b) continue;
    tour.reverseForward(a, b);
    tour.auditCheck("test:reverseForward");
  }
}

TEST(Audit, TwoLevelListSurvivesReversals) {
  std::vector<int> order(200);
  for (int i = 0; i < 200; ++i) order[std::size_t(i)] = i;
  TwoLevelList list(order);
  Rng rng(17);
  for (int it = 0; it < 150; ++it) {
    const int a = static_cast<int>(rng.below(200));
    const int b = static_cast<int>(rng.below(200));
    if (a == b) continue;
    list.reverse(a, b);
    list.auditCheck("test:reverse");
  }
}

TEST(Audit, CandidateListsSurviveMakeSymmetric) {
  const Instance inst = clustered("audit-cand", 150, 5, 23);
  CandidateLists cand(inst, 8, CandidateLists::Kind::kQuadrant);
  cand.auditCheck("test:construct");
  cand.makeSymmetric();
  cand.auditCheck("test:makeSymmetric");
  EXPECT_TRUE(cand.distanceSorted());
}

TEST(Audit, CandidateListsAuditCatchesFalseSortedClaim) {
  const Instance inst = uniformSquare("audit-bad", 16, 9);
  // Descending-by-distance lists falsely claimed ascending: the audit must
  // abort with a diagnostic (and under -DDISTCLK_AUDIT=ON the constructor
  // hook itself would catch it).
  auto buildAndAudit = [&] {
    std::vector<std::vector<int>> lists(16);
    CandidateLists probe(inst, 6);
    for (int c = 0; c < 16; ++c) {
      const auto of = probe.of(c);
      lists[std::size_t(c)].assign(of.rbegin(), of.rend());
    }
    CandidateLists bad(inst, std::move(lists), /*distanceSorted=*/true);
    bad.auditCheck("test:false-sorted");
  };
  EXPECT_DEATH(buildAndAudit(), "CandidateLists audit failed");
}

TEST(Audit, NodeRunnerCurvesMonotoneUnderSim) {
  const Instance inst = uniformSquare("audit-run", 120, 41);
  CandidateLists cand(inst, 8);
  cand.makeSymmetric();
  RunConfig cfg;
  cfg.runtime = RuntimeKind::kSim;
  cfg.nodes = 4;
  cfg.costModel = CostModel::kModeled;
  cfg.modeledWorkPerSecond = 1e5;
  cfg.timeLimitPerNode = 2.0;
  cfg.seed = 13;
  const RunResult res = runDistributed(inst, cand, cfg);
  ASSERT_FALSE(res.curve.empty());
  for (std::size_t i = 1; i < res.curve.size(); ++i) {
    EXPECT_LT(res.curve[i].length, res.curve[i - 1].length);
    EXPECT_GE(res.curve[i].time, res.curve[i - 1].time);
  }
  for (const AnytimeCurve& c : res.nodeCurves)
    for (std::size_t i = 1; i < c.size(); ++i)
      EXPECT_LT(c[i].length, c[i - 1].length);
  EXPECT_EQ(res.bestLength, Tour(inst, res.bestOrder).length());
}

TEST(Audit, LkWorkspaceSurvivesKickLoop) {
  const Instance inst = uniformSquare("audit-ws", 200, 19);
  CandidateLists cand(inst, 8);
  Tour tour(inst);
  Rng rng(31);
  LkWorkspace ws;
  ClkOptions opt;
  opt.maxKicks = 40;
  chainedLinKernighan(tour, cand, rng, ws, opt);
  // Every kick ended in commitKick or rollbackKick, so the undo state must
  // be fully drained and the queue coherent with its epoch stamps.
  ws.auditCheck("test:post-clk");
  ws.auditUndoEmpty("test:post-clk");
}

TEST(Audit, DontLookQueueAuditCatchesCorruptStamp) {
  auto corruptAndAudit = [] {
    DontLookQueue q;
    q.reset(8);
    q.push(2);
    q.push(5);
    // A pending entry whose stamp belongs to a dead epoch: membership and
    // queue disagree, which is exactly the corruption the audit pins.
    q.testCorruptMark(5, 0);
    q.auditCheck("test:corrupt-stamp");
  };
  EXPECT_DEATH(corruptAndAudit(), "DontLookQueue audit failed");
}

TEST(Audit, LkWorkspaceAuditCatchesLeftoverUndoLog) {
  auto leftoverAndAudit = [] {
    LkWorkspace ws;
    ws.undoLog.push_back({3, 7});  // a flip nobody committed or rolled back
    ws.auditUndoEmpty("test:leftover-undo");
  };
  EXPECT_DEATH(leftoverAndAudit(), "LkWorkspace audit failed");
}

TEST(Audit, ModeFlagMatchesBuild) {
#ifdef DISTCLK_AUDIT_ENABLED
  EXPECT_TRUE(audit::kEnabled);
#else
  EXPECT_FALSE(audit::kEnabled);
#endif
}

}  // namespace
}  // namespace distclk
