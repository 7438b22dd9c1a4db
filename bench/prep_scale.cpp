// Preprocessing-pipeline scaling harness: times every phase of
// InstanceContext::build (kd-tree, candidate CSR, construction) at large n
// across prep-thread counts, plus the warm ContextCache hit path. Each
// phase is reported as the median over --reps builds with its p25/p75, so
// one record shows whether a later change moved a phase beyond the noise.
// Emits one JSON object per line; scripts/bench.sh merges them into
// BENCH_lk.json under "prep_scale".
//
//   prep_scale [--max-n N] [--candidates K] [--reps R]
//
// The million-city arm is gated on /proc/meminfo MemAvailable: hosts
// without the headroom emit an explicit {"skipped":...} record instead of
// silently thrashing (visible skip, DESIGN.md "no silent caps").
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "experiments/harness.h"
#include "obs/json.h"
#include "tsp/gen.h"
#include "tsp/instance_context.h"
#include "util/stats.h"
#include "util/timer.h"

using namespace distclk;

namespace {

/// MemAvailable in MiB, or -1 when /proc/meminfo is unreadable.
long memAvailableMiB() {
  std::ifstream in("/proc/meminfo");
  std::string key;
  long valueKb = 0;
  std::string unit;
  while (in >> key >> valueKb >> unit)
    if (key == "MemAvailable:") return valueKb / 1024;
  return -1;
}

void emit(const obs::JsonObject& o) { std::printf("%s\n", o.str().c_str()); }

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const int maxN = args.getInt("max-n", 1000000);
  const int k = args.getInt("candidates", 10);
  const int reps = std::max(1, args.getInt("reps", 5));

  for (const int n : {100000, 1000000}) {
    if (n > maxN) continue;
    // Rough working set: points + CSR(int32+int64 per slot) + kd-tree
    // nodes + construction scratch; 3x slack for the transient peaks.
    const long needMiB = long(double(n) * (16.0 + k * 12.0 + 64.0) * 3.0 /
                              (1024.0 * 1024.0));
    const long haveMiB = memAvailableMiB();
    if (haveMiB >= 0 && haveMiB < needMiB) {
      obs::JsonObject skip;
      skip.field("bench", "prep_scale");
      skip.field("n", n);
      skip.field("skipped", "insufficient memory");
      skip.field("mem_available_mib", std::int64_t(haveMiB));
      skip.field("mem_needed_mib", std::int64_t(needMiB));
      emit(skip);
      continue;
    }
    auto inst = std::make_shared<const Instance>(
        uniformSquare("prep-scale", n, 1));

    for (const int threads : {1, 4, 8}) {
      PreprocessParams params;
      params.candidateK = k;
      params.prepThreads = threads;
      std::vector<double> kdtree, cand, construct, total;
      for (int r = 0; r < reps; ++r) {
        const auto ctx = InstanceContext::build(inst, params);
        const PreprocessBuildStats& s = ctx->buildStats();
        kdtree.push_back(s.kdtreeMs);
        cand.push_back(s.candMs);
        construct.push_back(s.constructMs);
        total.push_back(s.totalMs);
      }
      obs::JsonObject o;
      o.field("bench", "prep_scale");
      o.field("n", n);
      o.field("threads", threads);
      o.field("reps", reps);
      const auto spread = [&o](const std::string& phase,
                               const std::vector<double>& ms) {
        o.field(phase + "_ms", median(ms));
        o.field(phase + "_p25_ms", quantile(ms, 0.25));
        o.field(phase + "_p75_ms", quantile(ms, 0.75));
      };
      spread("kdtree", kdtree);
      spread("cand", cand);
      spread("construct", construct);
      spread("total", total);
      emit(o);
    }

    // Warm-cache arm: a second same-key request must skip the build.
    {
      ContextCache cache(2);
      PreprocessParams params;
      params.candidateK = k;
      bool hit = false;
      cache.get(inst, params, &hit);
      const Timer t;
      cache.get(inst, params, &hit);
      obs::JsonObject o;
      o.field("bench", "prep_scale_warm");
      o.field("n", n);
      o.field("cache_hit", hit);
      o.field("hit_ms", t.millis());
      emit(o);
    }
  }
  return 0;
}
