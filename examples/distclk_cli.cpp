// Full command-line solver: the entry point a downstream user would adopt.
// Loads a TSPLIB file or generates a synthetic family, runs the selected
// algorithm, reports quality against the Held-Karp bound, and optionally
// writes the tour in TSPLIB format.
//
//   distclk_cli [options]
//     --file F.tsp          load a TSPLIB instance (else --gen)
//     --gen FAMILY          uniform | clustered | drill | grid | road
//     --n N                 size for --gen (default 1000)
//     --gen-seed S          generator seed (default 1)
//     --algo A              clk | dist | dist-threads | lk | 2opt |
//                           lkh | multilevel | tourmerge   (default dist)
//     --seconds S           time budget (per node for dist*)  (default 2)
//     --kick K              Random|Geometric|Close|Random-walk
//     --candidates K        candidate list size (default 10)
//     --quadrant            use quadrant candidate lists
//     --prep-threads T      preprocessing build parallelism (default 1;
//                           byte-identical output for any T)
//     --prep-only           build the preprocessing context, print the
//                           phase times, and exit (pipeline smoke/bench)
//     --seed S              solver seed (default 1)
//     --out F.tour          write the best tour
//     --trace F.jsonl       stream a JSONL run trace (dist*, see
//                           EXPERIMENTS.md "Capturing and reading traces";
//                           read it back with tools/trace_report)
//     --trace-flush-interval S
//                           flush the trace file at least every S wall
//                           seconds (default 0 = only at run end; crashes
//                           additionally trigger a best-effort flush)
//     --print-events        print the distributed event trace to stdout
//
//   Distributed flags (--algo dist / dist-threads), parsed by the shared
//   runConfigFromArgs helper (experiments/harness.h):
//     --runtime R           sim | threads — which substrate runs the EA
//                           (--algo dist-threads == --algo dist --runtime
//                           threads)
//     --nodes K             node count                        (default 8)
//     --topology T          hypercube|ring|grid|complete|star (default hypercube)
//     --latency S           sim link latency in seconds
//     --modeled-work R      charge modeled compute cost (R units/second)
//                           instead of measured wall time, making simulated
//                           runs deterministic for a fixed seed
//     --metrics-interval S  periodic metric snapshots in the trace
//                           (seconds; default 0 = final snapshot only);
//                           also paces the node-best series and the
//                           --metrics-out exposition
//     --metrics-out FILE    write a Prometheus-style text snapshot of the
//                           live metrics to FILE (atomic rename) every
//                           metrics interval and at run end
//     --stall S             log a stall event when no improvement lands
//                           for S per-node seconds (default 0 = off)
//     --fail N:T[,N:T...]   kill node N at per-node time T
//     --join N:T[,N:T...]   node N joins (late) at time T
//     --speeds S0,S1,...    relative node speeds, one per node
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "baselines/lkh_style.h"
#include "baselines/multilevel.h"
#include "baselines/tour_merge.h"
#include "bound/held_karp.h"
#include "core/runtime.h"
#include "experiments/harness.h"
#include "lk/two_opt.h"
#include "obs/trace_sink.h"
#include "tsp/gen.h"
#include "tsp/tsplib.h"
#include "util/timer.h"

using namespace distclk;

namespace {

Instance makeInstanceFromArgs(const Args& args) {
  const std::string file = args.getString("file", "");
  if (!file.empty()) return loadTsplibFile(file);
  const std::string family = args.getString("gen", "uniform");
  const int n = args.getInt("n", 1000);
  const auto seed = static_cast<std::uint64_t>(args.getInt("gen-seed", 1));
  if (family == "uniform") return uniformSquare("cli-uniform", n, seed);
  if (family == "clustered") return clustered("cli-clustered", n, 10, seed);
  if (family == "drill") return drillPlate("cli-drill", n, seed);
  if (family == "grid") return perforatedGrid("cli-grid", n, seed);
  if (family == "road") return roadNetwork("cli-road", n, seed);
  throw std::invalid_argument("unknown --gen family: " + family);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  // One preprocessing build path (tsp/instance_context.h): candidate
  // lists, kd-tree, and the construction tour come from the shared
  // immutable context instead of ad-hoc per-algorithm setup.
  const PreprocessParams prep = preprocessParamsFromArgs(args);
  const std::shared_ptr<const InstanceContext> ctx =
      makeContext(makeInstanceFromArgs(args), prep);
  const Instance& inst = ctx->instance();
  const CandidateLists& cand = ctx->candidates();
  const double seconds = args.getDouble("seconds", 2.0);
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  const KickStrategy kick =
      kickStrategyFromString(args.getString("kick", "Random-walk"));
  const std::string algo = args.getString("algo", "dist");

  std::printf("instance : %s (n=%d, %s)\n", inst.name().c_str(), inst.n(),
              toString(inst.weightType()));
  std::printf("algorithm: %s, %.1fs, kick=%s, candidates=%d\n", algo.c_str(),
              seconds, toString(kick), prep.candidateK);
  const PreprocessBuildStats& prepStats = ctx->buildStats();
  std::printf("prep     : kdtree %.1fms, candidates %.1fms, construct %.1fms"
              " (threads=%d, total %.1fms)\n",
              prepStats.kdtreeMs, prepStats.candMs, prepStats.constructMs,
              prepStats.threads, prepStats.totalMs);
  if (args.has("prep-only")) {
    std::printf("result   : construction %lld (prep-only)\n",
                static_cast<long long>(ctx->constructionLength()));
    return 0;
  }

  Timer timer;
  std::vector<int> bestOrder;

  // JSONL run trace (dist algorithms only — the single-process baselines
  // have no node/network activity to record).
  const std::string tracePath = args.getString("trace", "");
  std::optional<obs::JsonlTraceSink> traceSink;
  if (!tracePath.empty()) {
    if (algo != "dist" && algo != "dist-threads") {
      std::fprintf(stderr, "--trace requires --algo dist or dist-threads\n");
      return 1;
    }
    traceSink.emplace(tracePath);
    // Durability: bound how much trace a hard kill can lose (the crash
    // handlers flush best-effort; this flushes on a wall-clock cadence).
    const double flushEvery = args.getDouble("trace-flush-interval", 0.0);
    if (flushEvery > 0.0) traceSink->setFlushIntervalSeconds(flushEvery);
  }

  if (algo == "clk") {
    Rng rng(seed);
    Tour tour(inst, ctx->constructionOrder());
    ClkOptions opt;
    opt.kick = kick;
    opt.timeLimitSeconds = seconds;
    const ClkResult res = chainedLinKernighan(tour, cand, rng, opt);
    bestOrder = tour.orderVector();
    std::printf("result   : %lld (%lld kicks, %lld improvements)\n",
                static_cast<long long>(res.length),
                static_cast<long long>(res.kicks),
                static_cast<long long>(res.improvements));
  } else if (algo == "dist" || algo == "dist-threads") {
    RunConfig cfg = runConfigFromArgs(args, inst);
    if (algo == "dist-threads") cfg.runtime = RuntimeKind::kThreads;
    cfg.timeLimitPerNode = seconds;
    cfg.seed = seed;
    if (traceSink) cfg.trace = &*traceSink;
    const RunResult res = runDistributed(ctx, cfg);
    bestOrder = res.bestOrder;
    std::printf("result   : %lld on %s runtime (%lld steps, %lld broadcasts, "
                "%lld restarts, %lld wire bytes)\n",
                static_cast<long long>(res.bestLength), toString(cfg.runtime),
                static_cast<long long>(res.totalSteps),
                static_cast<long long>(res.net.broadcasts),
                static_cast<long long>(res.totalRestarts),
                static_cast<long long>(res.net.bytesSent));
    if (args.has("print-events")) {
      for (const auto& e : res.events)
        std::printf("  t=%8.3fs node %d  %-18s %lld\n", e.time, e.node,
                    toString(e.type), static_cast<long long>(e.value));
    }
  } else if (algo == "lk" || algo == "2opt") {
    Tour tour(inst, ctx->constructionOrder());
    if (algo == "lk")
      linKernighanOptimize(tour, cand);
    else
      twoOptOptimize(tour, cand);
    bestOrder = tour.orderVector();
    std::printf("result   : %lld\n", static_cast<long long>(tour.length()));
  } else if (algo == "lkh") {
    Rng rng(seed);
    LkhStyleOptions opt;
    opt.timeLimitSeconds = seconds;
    opt.trials = 1000000;  // time-bounded
    const LkhStyleResult res = lkhStyleSolve(inst, rng, opt);
    bestOrder = res.order;
    std::printf("result   : %lld (%d trials)\n",
                static_cast<long long>(res.length), res.trialsRun);
  } else if (algo == "multilevel") {
    Rng rng(seed);
    const MultilevelResult res = multilevelSolve(inst, rng);
    bestOrder = res.order;
    std::printf("result   : %lld (%d levels)\n",
                static_cast<long long>(res.length), res.levels);
  } else if (algo == "tourmerge") {
    Rng rng(seed);
    const TourMergeResult res = tourMergeSolve(inst, rng);
    bestOrder = res.order;
    std::printf("result   : %lld (union %d edges, best run %lld)\n",
                static_cast<long long>(res.length), res.unionEdges,
                static_cast<long long>(res.bestRunLength));
  } else {
    std::fprintf(stderr, "unknown --algo '%s'\n", algo.c_str());
    return 1;
  }

  const std::int64_t length = inst.tourLength(bestOrder);
  std::printf("wall time: %.2fs\n", timer.seconds());
  if (inst.n() <= 20000) {
    const HeldKarpResult hk = heldKarpBound(inst);
    std::printf("held-karp: %.0f -> %.3f%% above (NB: loose on clustered "
                "geometry)\n",
                hk.bound,
                (static_cast<double>(length) / hk.bound - 1.0) * 100.0);
  }

  const std::string out = args.getString("out", "");
  if (!out.empty()) {
    std::ofstream stream(out);
    writeTsplibTour(stream, inst.name() + ".best", bestOrder);
    std::printf("wrote    : %s\n", out.c_str());
  }
  if (traceSink)
    std::printf("trace    : %s (%lld records)\n", tracePath.c_str(),
                static_cast<long long>(traceSink->linesWritten()));
  return 0;
}
