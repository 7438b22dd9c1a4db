// Ablation: the design choices of §2.3/§4.2 —
//   * the variable-strength perturbation (c_v) and restart rule (c_r),
//   * running with perturbation disabled (the paper's "without DBMs"),
//   * link latency sensitivity (communication is claimed to be negligible).
//
//   ablation_params [--runs R] [--dist-budget S] [--max-n N]
#include <cstdio>
#include <iostream>

#include "experiments/harness.h"
#include "util/stats.h"
#include "util/table.h"

using namespace distclk;

namespace {

/// Collects the final best lengths of `runs` simulations of one variant.
std::vector<std::int64_t> runVariant(const Instance& inst,
                                     const CandidateLists& cand,
                                     const BenchConfig& cfg, double budget,
                                     const DistParams& params,
                                     double latency = 1e-3) {
  std::vector<std::int64_t> lengths;
  for (int run = 0; run < cfg.runs; ++run) {
    RunConfig opt;
    opt.nodes = cfg.nodes;
    opt.node = params;
    opt.node.clkKicksPerCall = scaledNodeParams(inst).clkKicksPerCall;
    opt.timeLimitPerNode = budget;
    opt.latencySeconds = latency;
    opt.seed = cfg.seed + std::uint64_t(run) * 211;
    lengths.push_back(runDistributed(inst, cand, opt).bestLength);
  }
  return lengths;
}

/// Mean excess of a variant's lengths over a shared reference.
double meanExcessOver(const std::vector<std::int64_t>& lengths, double ref) {
  RunningStats ex;
  for (std::int64_t len : lengths) ex.add(excess(len, ref));
  return ex.mean();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const BenchConfig cfg = BenchConfig::fromArgs(args);

  const auto* spec = findPaperInstance("fl3795");
  const int n = cfg.sizeFor(*spec);
  const Instance inst = makeScaledInstance(*spec, n);
  const CandidateLists cand(inst, 10);
  const double budget = cfg.distBudgetFor(*spec) * 2.0;

  std::printf("Parameter ablation on %s (n=%d), %d nodes, %.2fs/node, %d "
              "runs\n\n",
              spec->standinName.c_str(), n, cfg.nodes, budget, cfg.runs);

  // Run every variant first; excesses are relative to the best length any
  // variant (or the calibration run) achieved.
  std::vector<std::pair<std::string, std::vector<std::int64_t>>> variants;
  auto add = [&](std::string label, std::vector<std::int64_t> lengths) {
    variants.emplace_back(std::move(label), std::move(lengths));
  };

  for (int cv : {4, 16, 64, 256}) {
    DistParams p;
    p.cv = cv;
    add("c_v=" + std::to_string(cv), runVariant(inst, cand, cfg, budget, p));
  }
  for (int cr : {8, 64, 256, 4096}) {
    DistParams p;
    p.cr = cr;
    add("c_r=" + std::to_string(cr), runVariant(inst, cand, cfg, budget, p));
  }
  {
    DistParams off;
    off.usePerturbation = false;
    add("no-DBM", runVariant(inst, cand, cfg, budget, off));
  }
  for (double lat : {1e-4, 1e-3, 0.05, 0.5}) {
    DistParams p;
    add("latency=" + fmt(lat, 4),
        runVariant(inst, cand, cfg, budget, p, lat));
  }

  std::int64_t best =
      calibrateReference(inst, cand, budget * 2.0, cfg.seed + 31337);
  for (const auto& [label, lengths] : variants)
    for (std::int64_t len : lengths) best = std::min(best, len);
  const double ref = static_cast<double>(best);

  Table t({"Variant", "Mean excess"});
  for (const auto& [label, lengths] : variants)
    t.addRow({label, fmtPct(meanExcessOver(lengths, ref))});
  t.print(std::cout);

  std::printf("\nexpected shape: defaults (c_v=64, c_r=256, with DBM, LAN "
              "latency) are at or near the best; no-DBM is worst; latency "
              "only matters once it rivals a CLK call's duration.\n");
  return 0;
}
