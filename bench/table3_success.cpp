// Table 3: number of runs (out of R) that find the optimum within the time
// bound, per kick strategy, for plain CLK vs DistCLK with 8 nodes. The
// paper gives CLK 10x the per-node DistCLK budget. Since the synthetic
// stand-ins have no certified optima, a calibration pass (longer DistCLK
// run on a complete topology) establishes the presumed optimum first —
// mirroring how the paper treats instances without known optima.
//
//   table3_success [--runs R] [--clk-budget S] [--dist-budget S]
//                  [--nodes K] [--full] [--max-n N] [--csv-dir DIR]
#include <cstdio>
#include <iostream>
#include <string>

#include "experiments/harness.h"
#include "util/table.h"

using namespace distclk;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const BenchConfig cfg = BenchConfig::fromArgs(args);

  const KickStrategy kicks[] = {KickStrategy::kRandom, KickStrategy::kGeometric,
                                KickStrategy::kClose,
                                KickStrategy::kRandomWalk};

  Table table({"Instance", "n", "target", "Random CLK", "Random Dist",
               "Geometric CLK", "Geometric Dist", "Close CLK", "Close Dist",
               "Random-walk CLK", "Random-walk Dist"});

  std::printf("Table 3 reproduction: runs (out of %d) reaching the presumed "
              "optimum; CLK budget %.2fs, DistCLK %.2fs/node x %d nodes\n\n",
              cfg.runs, cfg.clkBudget, cfg.distBudget, cfg.nodes);

  for (const auto& spec : paperTestbed()) {
    if (!spec.smallSet) continue;  // the paper's Table 3 covers these only
    const int n = cfg.sizeFor(spec);
    const Instance inst = makeScaledInstance(spec, n);
    const CandidateLists cand(inst, 10);

    // Calibration: a longer cooperative run fixes the presumed optimum.
    const RunResult calib = runDistExperiment(
        inst, cand, KickStrategy::kRandomWalk, cfg.nodes,
        cfg.distBudgetFor(spec) * 4.0, /*target=*/-1, cfg.seed + 999983);
    const std::int64_t target = calib.bestLength;

    std::vector<std::string> row{spec.standinName, std::to_string(n),
                                 std::to_string(target)};
    for (KickStrategy kick : kicks) {
      int clkHits = 0, distHits = 0;
      for (int run = 0; run < cfg.runs; ++run) {
        const std::uint64_t seed =
            cfg.seed + std::uint64_t(run) * 677 + std::uint64_t(kick) * 59;
        const ClkRunSummary c = runClkExperiment(
            inst, cand, kick, cfg.clkBudgetFor(spec), target, seed);
        clkHits += c.hitTarget;
        const RunResult d =
            runDistExperiment(inst, cand, kick, cfg.nodes,
                              cfg.distBudgetFor(spec), target, seed + 1);
        distHits += d.hitTarget;
      }
      row.push_back(std::to_string(clkHits) + "/" + std::to_string(cfg.runs));
      row.push_back(std::to_string(distHits) + "/" + std::to_string(cfg.runs));
    }
    table.addRow(row);
  }

  table.print(std::cout);
  if (!cfg.csvDir.empty())
    table.writeCsvFile(cfg.csvDir + "/table3_success.csv");
  std::printf("\npaper reference (Table 3, Random-walk): C1k.1 9/10 vs "
              "10/10, E1k.1 3/10 vs 10/10, fl1577 0/10 vs 8/10, pr2392 4/10 "
              "vs 10/10, pcb3038 0/10 vs 7/10, fl3795 0/10 vs 10/10, "
              "fnl4461 0/10 vs 1/10 — DistCLK succeeds where CLK cannot.\n");
  return 0;
}
