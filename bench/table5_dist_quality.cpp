// Table 5: mean excess of DistCLK (8 nodes) after a short and a long
// per-node budget, per kicking strategy. The paper's budgets are exactly a
// tenth of Table 4's (10 s / 1e3 s per node); scaled mode keeps that 10:1
// relation via --dist-budget = --clk-budget / 10.
//
//   table5_dist_quality [--runs R] [--dist-budget S] [--nodes K] [--full]
//                       [--max-n N] [--csv-dir DIR]
#include <cstdio>
#include <iostream>
#include <string>

#include "experiments/harness.h"
#include "util/stats.h"
#include "util/table.h"

using namespace distclk;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const BenchConfig cfg = BenchConfig::fromArgs(args);

  const KickStrategy kicks[] = {KickStrategy::kRandom, KickStrategy::kGeometric,
                                KickStrategy::kClose,
                                KickStrategy::kRandomWalk};

  Table table({"Instance", "n", "Random short", "Random long",
               "Geometric short", "Geometric long", "Close short",
               "Close long", "Random-walk short", "Random-walk long"});

  std::printf("Table 5 reproduction: DistCLK (%d nodes) mean excess after "
              "short (10%%) and long (100%%) per-node budget\n",
              cfg.nodes);
  std::printf("runs=%d budget=%.2fs/node (x10 for instances >= 10^4 "
              "cities)\n\n",
              cfg.runs, cfg.distBudget);

  for (const auto& spec : paperTestbed()) {
    if (!cfg.full && !spec.smallSet) continue;
    const int n = cfg.sizeFor(spec);
    const Instance inst = makeScaledInstance(spec, n);
    const CandidateLists cand(inst, 10);
    const double budget = cfg.distBudgetFor(spec);

    // Reference = calibrated presumed optimum merged with the best final
    // observed in this table's own runs (see table4_clk_quality).
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> cells(4);
    std::int64_t ref =
        calibrateReference(inst, cand, budget * 4.0, cfg.seed + 31337);
    for (std::size_t k = 0; k < 4; ++k) {
      for (int run = 0; run < cfg.runs; ++run) {
        const RunResult res = runDistExperiment(
            inst, cand, kicks[k], cfg.nodes, budget, /*target=*/-1,
            cfg.seed + std::uint64_t(run) * 101 + std::uint64_t(k) * 31);
        cells[k].emplace_back(valueAtOrFirst(res.curve, budget * 0.1),
                              res.bestLength);
        ref = std::min(ref, res.bestLength);
      }
    }

    std::vector<std::string> row{spec.standinName, std::to_string(n)};
    for (std::size_t k = 0; k < 4; ++k) {
      RunningStats shortExcess, longExcess;
      for (const auto& [shortVal, finalVal] : cells[k]) {
        shortExcess.add(excess(shortVal, static_cast<double>(ref)));
        longExcess.add(excess(finalVal, static_cast<double>(ref)));
      }
      row.push_back(fmtPctOrOpt(shortExcess.mean(), 1e-6));
      row.push_back(fmtPctOrOpt(longExcess.mean(), 1e-6));
    }
    table.addRow(row);
  }

  table.print(std::cout);
  if (!cfg.csvDir.empty())
    table.writeCsvFile(cfg.csvDir + "/table5_dist_quality.csv");
  std::printf("\npaper reference (Table 5, Random-walk column, long budget): "
              "most small instances reach OPT; compare against Table 4's "
              "much larger excesses at 10x the total CPU.\n");
  return 0;
}
