// Ablation: node churn. The paper's P2P framing promises robustness to
// nodes joining and leaving; its evaluation only covers the degenerate
// leave-at-budget case. This bench injects mid-run failures and late
// joins and measures the quality impact against a stable 8-node run with
// the same per-node budget.
//
//   ablation_churn [--runs R] [--dist-budget S] [--max-n N]
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "experiments/harness.h"
#include "util/stats.h"
#include "util/table.h"

using namespace distclk;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const BenchConfig cfg = BenchConfig::fromArgs(args);

  const auto* spec = findPaperInstance("pcb3038");
  const int n = cfg.sizeFor(*spec);
  const Instance inst = makeScaledInstance(*spec, n);
  const CandidateLists cand(inst, 10);
  const double budget = cfg.distBudgetFor(*spec) * 2.0;

  std::printf("Churn ablation on %s (n=%d), 8 nodes, %.2fs/node, %d runs\n\n",
              spec->standinName.c_str(), n, budget, cfg.runs);

  struct Scenario {
    const char* name;
    std::vector<std::pair<int, double>> failures;
    std::vector<std::pair<int, double>> joins;
    std::vector<double> speeds;
  };
  const Scenario scenarios[] = {
      {"stable (8 nodes)", {}, {}, {}},
      {"2 nodes die at 25%", {{0, budget * 0.25}, {1, budget * 0.25}}, {}, {}},
      {"half die at 50%",
       {{0, budget / 2}, {1, budget / 2}, {2, budget / 2}, {3, budget / 2}},
       {},
       {}},
      {"2 join at 50%", {}, {{6, budget / 2}, {7, budget / 2}}, {}},
      {"die early + join late",
       {{0, budget * 0.2}, {1, budget * 0.2}},
       {{6, budget * 0.5}, {7, budget * 0.5}},
       {}},
      {"half-speed half cluster",
       {},
       {},
       {1, 1, 1, 1, 0.5, 0.5, 0.5, 0.5}},
  };

  std::vector<std::pair<std::string, std::vector<std::int64_t>>> results;
  for (const auto& scenario : scenarios) {
    std::vector<std::int64_t> lengths;
    for (int run = 0; run < cfg.runs; ++run) {
      RunConfig opt;
      opt.nodes = 8;
      opt.node = scaledNodeParams(inst);
      opt.timeLimitPerNode = budget;
      opt.failures = scenario.failures;
      opt.joins = scenario.joins;
      opt.nodeSpeeds = scenario.speeds;
      opt.seed = cfg.seed + std::uint64_t(run) * 577;
      lengths.push_back(runDistributed(inst, cand, opt).bestLength);
    }
    results.emplace_back(scenario.name, std::move(lengths));
  }

  std::int64_t best =
      calibrateReference(inst, cand, budget * 2.0, cfg.seed + 31337);
  for (const auto& [name, lengths] : results)
    for (std::int64_t len : lengths) best = std::min(best, len);

  Table table({"Scenario", "Mean excess"});
  for (const auto& [name, lengths] : results) {
    RunningStats ex;
    for (std::int64_t len : lengths)
      ex.add(excess(len, static_cast<double>(best)));
    table.addRow({name, fmtPct(ex.mean())});
  }
  table.print(std::cout);
  if (!cfg.csvDir.empty())
    table.writeCsvFile(cfg.csvDir + "/ablation_churn.csv");

  std::printf("\nexpected shape: quality degrades gracefully with lost "
              "CPU — losing half the cluster mid-run costs far less than "
              "half the quality, and late joiners still contribute. No "
              "scenario deadlocks or crashes (the P2P claim).\n");
  return 0;
}
