// Calibration tool: establishes presumed optima for the synthetic
// stand-ins by running long cooperative DistCLK searches (complete
// topology, generous budget). Paste the printed lines into
// src/experiments/instances.cpp's registry to pin full-scale targets.
//
//   calibrate [--seconds S] [--nodes K] [--max-n N] [instance ...]
#include <cstdio>
#include <string>
#include <vector>

#include "experiments/harness.h"

using namespace distclk;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const double seconds = args.getDouble("seconds", 5.0);
  const int nodes = args.getInt("nodes", 8);
  const int maxN = args.getInt("max-n", 5000);

  std::vector<std::string> wanted;
  for (int i = 1; i < argc; ++i)
    if (argv[i][0] != '-') wanted.emplace_back(argv[i]);

  for (const auto& spec : paperTestbed()) {
    if (!wanted.empty() &&
        std::find(wanted.begin(), wanted.end(), spec.paperName) ==
            wanted.end())
      continue;
    if (wanted.empty() && spec.n > maxN) continue;
    const Instance inst = makeInstance(spec);
    const CandidateLists cand(inst, 10);
    RunConfig opt;
    opt.nodes = nodes;
    opt.topology = TopologyKind::kComplete;  // fastest spread for calibration
    opt.timeLimitPerNode = seconds;
    opt.seed = 424243;
    const RunResult res = runDistributed(inst, cand, opt);
    std::printf("%-12s n=%-6d presumedOptimum <= %lld  (steps=%lld)\n",
                spec.standinName.c_str(), spec.n,
                static_cast<long long>(res.bestLength),
                static_cast<long long>(res.totalSteps));
  }
  return 0;
}
