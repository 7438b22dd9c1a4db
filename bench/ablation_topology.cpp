// Ablation: network topology and node count. The paper fixes an 8-node
// hypercube; this bench sweeps topologies at 8 nodes (hypercube, ring,
// grid, complete, star) and node counts 1..16 on the hypercube, holding the
// per-node budget constant, to show (a) topology matters little at this
// scale (diameter 1-4) and (b) quality improves with node count.
//
//   ablation_topology [--runs R] [--dist-budget S] [--max-n N]
#include <cstdio>
#include <iostream>

#include "experiments/harness.h"
#include "util/stats.h"
#include "util/table.h"

using namespace distclk;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const BenchConfig cfg = BenchConfig::fromArgs(args);

  const auto* spec = findPaperInstance("fl3795");
  const int n = cfg.sizeFor(*spec);
  const Instance inst = makeScaledInstance(*spec, n);
  const CandidateLists cand(inst, 10);
  const double budget = cfg.distBudgetFor(*spec) * 2.0;

  std::printf("Topology ablation on %s (n=%d), %.2fs/node, %d runs\n\n",
              spec->standinName.c_str(), n, budget, cfg.runs);

  // Gather all variants, then measure excess against the best length seen
  // anywhere (plus a calibration run), as in the quality tables.
  struct TopoResult {
    TopologyKind kind;
    std::vector<std::int64_t> lengths;
    RunningStats broadcasts;
  };
  std::vector<TopoResult> topoResults;
  for (TopologyKind kind :
       {TopologyKind::kHypercube, TopologyKind::kRing, TopologyKind::kGrid,
        TopologyKind::kComplete, TopologyKind::kStar}) {
    TopoResult r{kind, {}, {}};
    for (int run = 0; run < cfg.runs; ++run) {
      RunConfig opt;
      opt.node = scaledNodeParams(inst);
      opt.nodes = 8;
      opt.topology = kind;
      opt.timeLimitPerNode = budget;
      opt.seed = cfg.seed + std::uint64_t(run) * 43;
      const RunResult res = runDistributed(inst, cand, opt);
      r.lengths.push_back(res.bestLength);
      r.broadcasts.add(static_cast<double>(res.net.broadcasts));
    }
    topoResults.push_back(std::move(r));
  }

  struct NodeResult {
    int nodes;
    std::vector<std::int64_t> lengths;
  };
  std::vector<NodeResult> nodeResults;
  for (int nodes : {1, 2, 4, 8, 16}) {
    NodeResult r{nodes, {}};
    for (int run = 0; run < cfg.runs; ++run) {
      RunConfig opt;
      opt.node = scaledNodeParams(inst);
      opt.nodes = nodes;
      opt.timeLimitPerNode = budget;
      opt.seed = cfg.seed + std::uint64_t(run) * 47 + std::uint64_t(nodes);
      r.lengths.push_back(runDistributed(inst, cand, opt).bestLength);
    }
    nodeResults.push_back(std::move(r));
  }

  std::int64_t best =
      calibrateReference(inst, cand, budget * 2.0, cfg.seed + 31337);
  for (const auto& r : topoResults)
    for (std::int64_t len : r.lengths) best = std::min(best, len);
  for (const auto& r : nodeResults)
    for (std::int64_t len : r.lengths) best = std::min(best, len);
  const double ref = static_cast<double>(best);
  auto meanExcess = [&](const std::vector<std::int64_t>& lengths) {
    RunningStats ex;
    for (std::int64_t len : lengths) ex.add(excess(len, ref));
    return ex.mean();
  };

  Table topoTable({"Topology", "Diameter", "Mean excess", "Broadcasts"});
  for (const auto& r : topoResults)
    topoTable.addRow({toString(r.kind),
                      std::to_string(diameter(buildTopology(r.kind, 8))),
                      fmtPct(meanExcess(r.lengths)),
                      fmt(r.broadcasts.mean(), 1)});
  topoTable.print(std::cout);

  std::printf("\nNode-count sweep (hypercube, same per-node budget => total "
              "CPU grows with nodes):\n");
  Table nodeTable({"Nodes", "Mean excess", "Total CPU [s]"});
  for (const auto& r : nodeResults)
    nodeTable.addRow({std::to_string(r.nodes), fmtPct(meanExcess(r.lengths)),
                      fmt(budget * r.nodes, 2)});
  nodeTable.print(std::cout);

  std::printf("\nexpected shape: denser topologies (complete) spread tours "
              "fastest but all five behave similarly at 8 nodes; excess "
              "shrinks monotonically-ish with node count (the paper's "
              "Table 1 / Fig 3 claim).\n");
  return 0;
}
