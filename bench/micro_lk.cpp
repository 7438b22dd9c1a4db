// Micro-benchmarks of the local-search engine: full 2-opt / Or-opt / LK
// passes from a construction, the kick-and-repair cycle that dominates CLK
// runtime, and the four kick strategies.
#include <benchmark/benchmark.h>

#include "construct/construct.h"
#include "lk/chained_lk.h"
#include "lk/kicks.h"
#include "lk/lin_kernighan.h"
#include "lk/or_opt.h"
#include "lk/two_opt.h"
#include "tsp/big_tour.h"
#include "tsp/gen.h"
#include "util/rng.h"

namespace {

using namespace distclk;

struct Fixture {
  explicit Fixture(int n)
      : inst(uniformSquare("bm", n, std::uint64_t(n) + 1)),
        cand(inst, 10),
        start(inst, quickBoruvkaTour(inst, cand)),
        opt(start) {
    linKernighanOptimize(opt, cand);
  }
  Instance inst;
  CandidateLists cand;
  Tour start;
  Tour opt;  // LK-optimized start: the CLK steady-state launch point
};

Fixture& fixtureOf(int n) {
  static std::map<int, Fixture> cache;
  auto it = cache.find(n);
  // try_emplace constructs in place: the Tour member points at the Instance
  // member, so the fixture must never be moved after construction.
  if (it == cache.end()) it = cache.try_emplace(n, n).first;
  return it->second;
}

void BM_TwoOptPass(benchmark::State& state) {
  Fixture& f = fixtureOf(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Tour t = f.start;
    benchmark::DoNotOptimize(twoOptOptimize(t, f.cand));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TwoOptPass)->Arg(1000)->Arg(3000);

void BM_OrOptPass(benchmark::State& state) {
  Fixture& f = fixtureOf(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Tour t = f.start;
    benchmark::DoNotOptimize(orOptOptimize(t, f.cand));
  }
}
BENCHMARK(BM_OrOptPass)->Arg(1000)->Arg(3000);

// The pre-workspace Or-opt loop (repeated full sweeps, O(len) inside-segment
// walk). Reaches the same sweep-local optimum as the don't-look pass above,
// so the time ratio is the pure queueing win.
void BM_OrOptPassSweep(benchmark::State& state) {
  Fixture& f = fixtureOf(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Tour t = f.start;
    benchmark::DoNotOptimize(
        orOptOptimize(t, f.cand, 3, OrOptStyle::kFullSweep));
  }
}
BENCHMARK(BM_OrOptPassSweep)->Arg(1000)->Arg(3000);

void BM_LinKernighanPass(benchmark::State& state) {
  Fixture& f = fixtureOf(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Tour t = f.start;
    benchmark::DoNotOptimize(linKernighanOptimize(t, f.cand));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LinKernighanPass)->Arg(1000)->Arg(3000);

// Head-to-head of the distance hot path. ref=0 is the default fast path
// (metric-specialized kernel + annotated candidate distances); ref=1 is the
// seed path re-routed through the Instance::dist() switch
// (LkOptions::referenceDistances). Both retrace the identical trajectory —
// same flips, same final tour — so the steps_per_sec ratio is the pure
// distance-path speedup. Steps count physical reversals (applied + rewound),
// the unit node telemetry reports as node.lk_flips/node.lk_undone_flips.
void BM_LkPassDistPath(benchmark::State& state) {
  Fixture& f = fixtureOf(static_cast<int>(state.range(0)));
  LkOptions opt;
  opt.referenceDistances = state.range(1) != 0;
  std::int64_t steps = 0;
  for (auto _ : state) {
    Tour t = f.start;
    const LkStats stats = linKernighanOptimize(t, f.cand, opt);
    steps += stats.flips + stats.undoneFlips;
  }
  state.counters["steps_per_sec"] =
      benchmark::Counter(double(steps), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LkPassDistPath)
    ->ArgsProduct({{1000, 10000}, {0, 1}})
    ->ArgNames({"n", "ref"});

// The same comparison on the CLK steady state: kick an optimized tour and
// repair the dirty cities, which is where DistCLK spends its runtime.
void BM_KickRepairDistPath(benchmark::State& state) {
  Fixture& f = fixtureOf(static_cast<int>(state.range(0)));
  LkOptions opt;
  opt.referenceDistances = state.range(1) != 0;
  Rng rng(5);
  Tour t = f.start;
  linKernighanOptimize(t, f.cand, opt);
  std::int64_t steps = 0;
  for (auto _ : state) {
    Tour work = t;
    const auto dirty = applyKick(work, KickStrategy::kRandomWalk, f.cand, rng);
    const LkStats stats = linKernighanOptimize(work, f.cand, dirty, opt);
    steps += stats.flips + stats.undoneFlips;
  }
  state.counters["steps_per_sec"] =
      benchmark::Counter(double(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KickRepairDistPath)
    ->ArgsProduct({{1000, 10000}, {0, 1}})
    ->ArgNames({"n", "ref"});

// Distance-path head-to-head on the segment-list BigTour, the configuration
// for six-digit city counts: flips cost O(sqrt n) instead of O(n), so the
// candidate-scan distance evaluations carry a larger share of the runtime
// and the kernel + annotation win shows up at pass level.
void BM_LkPassBigTourDistPath(benchmark::State& state) {
  Fixture& f = fixtureOf(static_cast<int>(state.range(0)));
  LkOptions opt;
  opt.referenceDistances = state.range(1) != 0;
  std::int64_t steps = 0;
  for (auto _ : state) {
    BigTour t(f.inst, f.start.orderVector());
    const LkStats stats = linKernighanOptimize(t, f.cand, opt);
    steps += stats.flips + stats.undoneFlips;
  }
  state.counters["steps_per_sec"] =
      benchmark::Counter(double(steps), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LkPassBigTourDistPath)
    ->ArgsProduct({{10000}, {0, 1}})
    ->ArgNames({"n", "ref"});

// The inner loop of Chained LK: kick the optimized tour, repair locally.
void BM_KickRepairCycle(benchmark::State& state) {
  Fixture& f = fixtureOf(1000);
  Rng rng(5);
  Tour t = f.start;
  linKernighanOptimize(t, f.cand);
  for (auto _ : state) {
    Tour work = t;
    const auto dirty = applyKick(work, KickStrategy::kRandomWalk, f.cand, rng);
    benchmark::DoNotOptimize(
        linKernighanOptimize(work, f.cand, dirty, LkOptions{}));
  }
}
BENCHMARK(BM_KickRepairCycle);

void BM_KickApply(benchmark::State& state) {
  Fixture& f = fixtureOf(1000);
  Rng rng(6);
  const auto strategy = static_cast<KickStrategy>(state.range(0));
  Tour t = f.start;
  for (auto _ : state) benchmark::DoNotOptimize(applyKick(t, strategy, f.cand, rng));
}
BENCHMARK(BM_KickApply)
    ->Arg(static_cast<int>(KickStrategy::kRandom))
    ->Arg(static_cast<int>(KickStrategy::kGeometric))
    ->Arg(static_cast<int>(KickStrategy::kClose))
    ->Arg(static_cast<int>(KickStrategy::kRandomWalk));

// 100 CLK kicks from the optimized tour — the steady state a DistNode lives
// in. ref=0 runs the workspace fast path (in-place kick, undo-log champion);
// ref=1 runs the pre-workspace reference loop (per-kick tour copy). Both
// trace the identical trajectory, so kicks_per_sec ratio is the pure
// kick-path overhead win. Starting from f.opt (not f.start) keeps the first
// full LK pass out of the measurement that used to dominate this benchmark.
void BM_Clk100Kicks(benchmark::State& state) {
  Fixture& f = fixtureOf(static_cast<int>(state.range(0)));
  ClkOptions opt;
  opt.maxKicks = 100;
  opt.referenceKickPath = state.range(1) != 0;
  Rng rng(7);
  std::int64_t kicks = 0;
  for (auto _ : state) {
    Tour t = f.opt;
    const ClkResult res = chainedLinKernighan(t, f.cand, rng, opt);
    kicks += res.kicks;
  }
  state.counters["kicks_per_sec"] =
      benchmark::Counter(double(kicks), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Clk100Kicks)
    ->ArgsProduct({{1000, 10000}, {0, 1}})
    ->ArgNames({"n", "ref"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
