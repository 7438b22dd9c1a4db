// Pipelined-simulator scaling harness: wall time of one simulated DistCLK
// run in the dist-sim shape (8 peers, uniform n=3000, modeled cost, 0.25
// virtual seconds per node) at 1, 2 and 4 compute workers. The arms are
// interleaved rep by rep, so a drift of the host's speed hits all of them
// alike; each arm reports the median wall time over kReps runs with its
// p25/p75. Every run must return the same tour, step count and broadcast
// count as the 1-worker run ("identical"). Emits one JSON object per line;
// scripts/bench.sh merges them into BENCH_lk.json under "sim_parallel".
//
//   sim_parallel
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "core/runtime_detail.h"
#include "experiments/harness.h"
#include "obs/json.h"
#include "tsp/gen.h"
#include "util/stats.h"
#include "util/timer.h"

using namespace distclk;

namespace {
constexpr int kReps = 7;
constexpr int kN = 3000;
constexpr std::uint64_t kSeed = 1;
}  // namespace

int main() {
  const auto inst = std::make_shared<const Instance>(
      uniformSquare("sim-parallel", kN, kSeed));
  const auto ctx = InstanceContext::build(inst);
  RunConfig cfg;
  cfg.nodes = 8;
  cfg.node = scaledNodeParams(*inst);
  cfg.costModel = CostModel::kModeled;
  cfg.modeledWorkPerSecond = 4e6;
  cfg.timeLimitPerNode = 0.25;
  cfg.seed = kSeed;

  const std::vector<int> arms = {1, 2, 4};
  std::map<int, std::vector<double>> walls;
  const RunResult serial = detail::runSimWorkers(*ctx, cfg, 1);
  bool identical = true;
  for (int r = 0; r < kReps; ++r) {
    for (const int workers : arms) {
      const Timer t;
      const RunResult res = detail::runSimWorkers(*ctx, cfg, workers);
      walls[workers].push_back(t.seconds());
      identical = identical && res.bestOrder == serial.bestOrder &&
                  res.totalSteps == serial.totalSteps &&
                  res.net.broadcasts == serial.net.broadcasts;
    }
  }

  const double base = median(walls[1]);
  for (const int workers : arms) {
    const std::vector<double>& w = walls[workers];
    obs::JsonObject o;
    o.field("bench", "sim_parallel");
    o.field("n", kN);
    o.field("nodes", cfg.nodes);
    o.field("workers", workers);
    o.field("reps", kReps);
    o.field("wall_s", median(w));
    o.field("wall_p25_s", quantile(w, 0.25));
    o.field("wall_p75_s", quantile(w, 0.75));
    o.field("speedup_vs_1", base / median(w));
    o.field("identical", identical);
    o.field("best_length", serial.bestLength);
    o.field("total_steps", serial.totalSteps);
    std::printf("%s\n", o.str().c_str());
  }
  return identical ? 0 : 1;
}
