// Table 2: comparison with related heuristics — an LKH-style solver
// (alpha-nearness LK), a Walshaw-style multilevel CLK, and Cook/Seymour-
// style tour merging — against DistCLK's first-iteration and final
// qualities. The paper normalizes times to a 500 MHz Alpha and multiplies
// DistCLK's per-node time by 8; here every algorithm runs on the same host,
// so raw seconds are directly comparable and DistCLK total CPU = 8x its
// per-node time.
//
//   table2_related [--runs R] [--dist-budget S] [--nodes K] [--full]
//                  [--max-n N] [--csv-dir DIR]
#include <cstdio>
#include <iostream>
#include <string>

#include "baselines/lkh_style.h"
#include "baselines/multilevel.h"
#include "baselines/tour_merge.h"
#include "experiments/harness.h"
#include "util/table.h"

using namespace distclk;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const BenchConfig cfg = BenchConfig::fromArgs(args);

  const char* names[] = {"pr2392", "fl3795", "fnl4461"};
  Table table({"Instance", "Algorithm", "Excess", "CPU[s] (total)"});

  std::printf("Table 2 reproduction: related heuristics vs DistCLK "
              "(excess over reference, total CPU seconds)\n\n");

  for (const char* name : names) {
    const auto* spec = findPaperInstance(name);
    const int n = cfg.sizeFor(*spec);
    const Instance inst = makeScaledInstance(*spec, n);
    const CandidateLists cand(inst, 10);
    // Gather every algorithm's (length, seconds) first; the reference is
    // the best length observed (the paper's "distance to optimum").
    struct Entry { std::string algo; std::int64_t length; double seconds; };
    std::vector<Entry> entries;

    {  // LKH-style: alpha-nearness LK, a few trials.
      Rng rng(cfg.seed + 1);
      LkhStyleOptions opt;
      opt.trials = 4;
      opt.hkIterations = 60;
      const LkhStyleResult res = lkhStyleSolve(inst, rng, opt);
      entries.push_back({"LKH-style", res.length, res.seconds});
    }
    {  // Walshaw multilevel CLK (MLC_{N/10}LK setup).
      Rng rng(cfg.seed + 2);
      const MultilevelResult res = multilevelSolve(inst, rng);
      entries.push_back({"Multilevel-CLK", res.length, res.seconds});
    }
    {  // Cook&Seymour-style tour merging over 10 CLK runs.
      Rng rng(cfg.seed + 3);
      TourMergeOptions opt;
      opt.runs = 10;
      opt.kicksPerRun = std::max(20, n / 10);
      const TourMergeResult res = tourMergeSolve(inst, rng, opt);
      entries.push_back({"TourMerge-CLK", res.length, res.seconds});
    }
    {  // DistCLK: first-iteration quality and final quality.
      const double budget = cfg.distBudgetFor(*spec) * 4.0;
      const RunResult res =
          runDistExperiment(inst, cand, KickStrategy::kRandomWalk, cfg.nodes,
                            budget, -1, cfg.seed + 4);
      // First iteration = the best initial CLK result across nodes; that is
      // the first point of the global anytime curve. Total CPU for it is
      // roughly nodes x its per-node time.
      if (!res.curve.empty())
        entries.push_back({"DistCLK (1st iter)", res.curve.front().length,
                           res.curve.front().time * cfg.nodes});
      entries.push_back({"DistCLK (final)", res.bestLength,
                         budget * cfg.nodes});
    }

    std::int64_t best = entries.front().length;
    for (const auto& e : entries) best = std::min(best, e.length);
    for (const auto& e : entries)
      table.addRow({spec->standinName, e.algo,
                    fmtPctOrOpt(excess(e.length, static_cast<double>(best)),
                                1e-6),
                    fmt(e.seconds, 2)});
  }

  table.print(std::cout);
  if (!cfg.csvDir.empty())
    table.writeCsvFile(cfg.csvDir + "/table2_related.csv");
  std::printf("\npaper reference (Table 2): LKH reaches e.g. 0.24%% on "
              "fl3795 faster than DistCLK's first iteration; multilevel is "
              "far faster but worse (1.54%% on fl3795); tour merging is "
              "strong on small instances (OPT on pr2392 in 93s); DistCLK "
              "wins on quality for the largest instances.\n");
  return 0;
}
