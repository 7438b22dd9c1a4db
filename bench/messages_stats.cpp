// §4 message statistics: broadcasts per run, messages per node, the timing
// of the first 10 broadcasts (the paper: most traffic happens early), and
// the byte volume — demonstrating that communication overhead is
// negligible next to computation.
//
//   messages_stats [--runs R] [--dist-budget S] [--nodes K] [--max-n N]
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "experiments/harness.h"
#include "util/stats.h"
#include "util/table.h"

using namespace distclk;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const BenchConfig cfg = BenchConfig::fromArgs(args);

  const auto* spec = findPaperInstance("sw24978");  // the paper's example
  const int n = cfg.sizeFor(*spec);
  const Instance inst = makeScaledInstance(*spec, n);
  const CandidateLists cand(inst, 10);
  const double budget = cfg.distBudgetFor(*spec) * 4.0;

  std::printf("Message statistics on %s (n=%d), %d nodes, %.2fs/node, "
              "%d runs\n\n",
              spec->standinName.c_str(), n, cfg.nodes, budget, cfg.runs);

  RunningStats broadcasts, perNode, bytes, earlyFrac;
  std::vector<double> firstTenTimes;
  for (int run = 0; run < cfg.runs; ++run) {
    const RunResult res =
        runDistExperiment(inst, cand, KickStrategy::kRandomWalk, cfg.nodes,
                          budget, -1, cfg.seed + std::uint64_t(run) * 3);
    broadcasts.add(static_cast<double>(res.net.broadcasts));
    perNode.add(static_cast<double>(res.net.messagesSent) / cfg.nodes);
    bytes.add(static_cast<double>(res.net.bytesSent));
    // Broadcast send times.
    std::vector<double> times;
    for (const auto& e : res.events)
      if (e.type == NodeEventType::kBroadcastSent) times.push_back(e.time);
    std::sort(times.begin(), times.end());
    for (std::size_t i = 0; i < times.size() && i < 10; ++i)
      firstTenTimes.push_back(times[i]);
    if (!times.empty()) {
      const auto early = static_cast<double>(
          std::count_if(times.begin(), times.end(),
                        [&](double t) { return t < budget * 0.25; }));
      earlyFrac.add(early / static_cast<double>(times.size()));
    }
  }

  Table table({"Metric", "Mean", "Min", "Max"});
  table.addRow({"broadcasts per run", fmt(broadcasts.mean(), 1),
                fmt(broadcasts.min(), 0), fmt(broadcasts.max(), 0)});
  table.addRow({"deliveries per node", fmt(perNode.mean(), 1),
                fmt(perNode.min(), 0), fmt(perNode.max(), 0)});
  table.addRow({"bytes per run", fmt(bytes.mean(), 0), fmt(bytes.min(), 0),
                fmt(bytes.max(), 0)});
  table.addRow({"share of broadcasts in first quarter",
                fmtPct(earlyFrac.mean(), 1), fmtPct(earlyFrac.min(), 1),
                fmtPct(earlyFrac.max(), 1)});
  if (!firstTenTimes.empty())
    table.addRow({"median time of first-10 broadcasts [s]",
                  fmt(median(firstTenTimes), 3), "-", "-"});
  table.print(std::cout);

  std::printf("\npaper reference (§4): 84.9 broadcasts per run on sw24978 "
              "(about 11 messages per node over 1e4 s); the first 10 "
              "messages go out before 1.6%% of the budget; total overhead "
              "negligible.\n");
  return 0;
}
