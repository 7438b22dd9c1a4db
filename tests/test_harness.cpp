#include "experiments/harness.h"

#include <gtest/gtest.h>

#include "tsp/gen.h"
#include "tsp/tour.h"

namespace distclk {
namespace {

Args makeArgs(std::vector<std::string> argv) {
  static std::vector<std::vector<char>> storage;
  storage.clear();
  std::vector<char*> ptrs;
  storage.emplace_back(std::vector<char>{'x', '\0'});
  ptrs.push_back(storage.back().data());
  for (auto& s : argv) {
    storage.emplace_back(s.begin(), s.end());
    storage.back().push_back('\0');
    ptrs.push_back(storage.back().data());
  }
  return Args(static_cast<int>(ptrs.size()), ptrs.data());
}

TEST(Args, FlagsAndValues) {
  const Args args = makeArgs({"--runs", "5", "--full", "--name", "abc"});
  EXPECT_TRUE(args.has("full"));
  EXPECT_FALSE(args.has("absent"));
  EXPECT_EQ(args.getInt("runs", 1), 5);
  EXPECT_EQ(args.getInt("missing", 7), 7);
  EXPECT_EQ(args.getString("name", ""), "abc");
  EXPECT_DOUBLE_EQ(args.getDouble("runs", 0.0), 5.0);
}

TEST(Args, MissingValueFallsBack) {
  const Args args = makeArgs({"--flag"});
  EXPECT_EQ(args.getString("flag", "def"), "def");
}

TEST(BenchConfig, DefaultsAreLaptopScale) {
  const BenchConfig cfg = BenchConfig::fromArgs(makeArgs({}));
  EXPECT_FALSE(cfg.full);
  EXPECT_EQ(cfg.runs, 2);
  EXPECT_LE(cfg.maxN, 2000);
}

TEST(BenchConfig, FullModeExpands) {
  const BenchConfig cfg = BenchConfig::fromArgs(makeArgs({"--full"}));
  EXPECT_TRUE(cfg.full);
  EXPECT_EQ(cfg.runs, 10);
  EXPECT_GE(cfg.maxN, 85900);
}

TEST(BenchConfig, OverridesApply) {
  const BenchConfig cfg = BenchConfig::fromArgs(
      makeArgs({"--runs", "2", "--clk-budget", "0.5", "--nodes", "4"}));
  EXPECT_EQ(cfg.runs, 2);
  EXPECT_DOUBLE_EQ(cfg.clkBudget, 0.5);
  EXPECT_EQ(cfg.nodes, 4);
}

TEST(BenchConfig, BudgetRatioFollowsPaperRule) {
  const BenchConfig cfg = BenchConfig::fromArgs(makeArgs({}));
  const auto* small = findPaperInstance("pr2392");
  const auto* large = findPaperInstance("sw24978");
  ASSERT_TRUE(small && large);
  EXPECT_DOUBLE_EQ(cfg.clkBudgetFor(*large), cfg.clkBudgetFor(*small) * 10.0);
  EXPECT_DOUBLE_EQ(cfg.distBudgetFor(*large),
                   cfg.distBudgetFor(*small) * 10.0);
}

TEST(BenchConfig, SizeForClampsToMaxN) {
  BenchConfig cfg;
  cfg.maxN = 1000;
  const auto* spec = findPaperInstance("sw24978");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(cfg.sizeFor(*spec), 1000);
}

TEST(Harness, ExcessMath) {
  EXPECT_NEAR(excess(110, 100.0), 0.10, 1e-12);
  EXPECT_NEAR(excess(100, 100.0), 0.0, 1e-12);
}

TEST(Harness, RunClkExperimentProducesCurve) {
  const Instance inst = uniformSquare("h", 150, 151);
  const CandidateLists cand(inst, 8);
  const ClkRunSummary s =
      runClkExperiment(inst, cand, KickStrategy::kRandomWalk, 0.3, -1, 1);
  EXPECT_GT(s.finalLength, 0);
  ASSERT_FALSE(s.curve.empty());
  EXPECT_EQ(s.curve.back().length, s.finalLength);
}

TEST(Harness, RunDistExperimentWorks) {
  const Instance inst = uniformSquare("h", 100, 152);
  const CandidateLists cand(inst, 8);
  const RunResult res = runDistExperiment(
      inst, cand, KickStrategy::kRandomWalk, 4, 0.2, -1, 3);
  Tour best(inst, res.bestOrder);
  EXPECT_TRUE(best.valid());
}

TEST(Harness, ReferenceLengthUsesHkWhenUncalibrated) {
  PaperInstance spec = *findPaperInstance("E1k.1");
  spec.presumedOptimum = -1;
  const Instance inst = makeScaledInstance(spec, 120);
  const double ref = referenceLength(spec, inst);
  EXPECT_GT(ref, 0.0);
  // Cached second call returns the same value.
  EXPECT_DOUBLE_EQ(referenceLength(spec, inst), ref);
}

TEST(Harness, ScaledNodeParamsShrinkInnerKicks) {
  const Instance big = uniformSquare("h", 1600, 153);
  const Instance small = uniformSquare("h", 100, 154);
  EXPECT_EQ(scaledNodeParams(big).clkKicksPerCall, 100);
  EXPECT_EQ(scaledNodeParams(small).clkKicksPerCall, 16);  // floor
}

TEST(Harness, CalibrateReferenceReturnsReachableLength) {
  const Instance inst = uniformSquare("h", 120, 155);
  const CandidateLists cand(inst, 8);
  const std::int64_t ref = calibrateReference(inst, cand, 0.1, 7);
  EXPECT_GT(ref, 0);
  // A long single CLK run should not beat the calibration dramatically.
  const ClkRunSummary clk =
      runClkExperiment(inst, cand, KickStrategy::kRandomWalk, 0.5, -1, 8);
  EXPECT_LT(static_cast<double>(clk.finalLength),
            static_cast<double>(ref) * 1.05);
}

TEST(Harness, ReferenceLengthPrefersCalibratedOptimum) {
  PaperInstance spec = *findPaperInstance("E1k.1");
  spec.presumedOptimum = 123456;
  spec.n = 120;
  const Instance inst = makeScaledInstance(spec, 120);
  EXPECT_DOUBLE_EQ(referenceLength(spec, inst), 123456.0);
}

}  // namespace
}  // namespace distclk
