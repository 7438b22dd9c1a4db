// Micro-benchmarks of the network substrate: message codec throughput,
// simulated broadcast/collect, topology construction, and one full
// simulated EA step — quantifying the paper's claim that communication is
// negligible next to CLK computation.
#include <benchmark/benchmark.h>

#include "core/runtime.h"
#include "net/message.h"
#include "net/sim_network.h"
#include "net/topology.h"
#include "tsp/gen.h"
#include "tsp/neighbors.h"

namespace {

using namespace distclk;

Message tourMessage(int n) {
  Message m;
  m.type = MessageType::kTour;
  m.from = 1;
  m.length = 123456789;
  m.order.resize(std::size_t(n));
  for (int i = 0; i < n; ++i) m.order[std::size_t(i)] = i;
  return m;
}

void BM_Serialize(benchmark::State& state) {
  const Message msg = tourMessage(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(serialize(msg));
  state.SetBytesProcessed(state.iterations() *
                          (21 + state.range(0) * 4));
}
BENCHMARK(BM_Serialize)->Arg(1000)->Arg(25000);

void BM_Deserialize(benchmark::State& state) {
  const auto buf = serialize(tourMessage(static_cast<int>(state.range(0))));
  for (auto _ : state) benchmark::DoNotOptimize(deserialize(buf));
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_Deserialize)->Arg(1000)->Arg(25000);

void BM_TopologyBuild(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        buildTopology(TopologyKind::kHypercube,
                      static_cast<int>(state.range(0))));
}
BENCHMARK(BM_TopologyBuild)->Arg(8)->Arg(64)->Arg(1024);

void BM_BroadcastCollect(benchmark::State& state) {
  SimNetwork net(buildTopology(TopologyKind::kHypercube, 8), 1e-3);
  const Message msg = tourMessage(1000);
  double t = 0;
  for (auto _ : state) {
    net.broadcast(0, t, msg);
    for (int node : {1, 2, 4})
      benchmark::DoNotOptimize(net.collect(node, t + 1.0));
    t += 1.0;
  }
}
BENCHMARK(BM_BroadcastCollect);

// One full simulated distributed run at miniature scale: dominated by CLK
// compute, which is the point of the comparison with the codec numbers.
void BM_SimulatedRun(benchmark::State& state) {
  const Instance inst = uniformSquare("bm", 200, 9);
  const CandidateLists cand(inst, 8);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    RunConfig opt;
    opt.nodes = 4;
    opt.costModel = CostModel::kModeled;
    opt.modeledWorkPerSecond = 1e6;
    opt.node.clkKicksPerCall = 10;
    opt.timeLimitPerNode = 0.2;
    opt.seed = seed++;
    benchmark::DoNotOptimize(runDistributed(inst, cand, opt));
  }
}
BENCHMARK(BM_SimulatedRun)->Unit(benchmark::kMillisecond);

}  // namespace
