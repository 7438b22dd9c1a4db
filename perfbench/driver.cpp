// In-process end-to-end benchmark driver for the DistCLK library.
//
//   perfbench_driver --workload dist-sim|dist-threads|serve-mix|prep-large
//                    --seed N --seconds S --trace 0|1
//                    [--size full|tiny] [--out-dir DIR] [--revision REV]
//
// Links the library and calls its public API directly, so process start
// never lands in a timing. With --trace 0 the last stdout line is a JSON
// object carrying every end-to-end metric; with --trace 1 the workload runs
// again with in-memory trace sinks and the line carries every per-layer
// metric instead. Earlier lines carry provenance, exact counts, sample
// counts and (traced runs) the self time per span; the same content is
// written to DIR as JSON records.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <thread>

#include "obs/json.h"
#include "obs/trace_sink.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Outcome;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The gated end-to-end metrics, printed by every workload (BENCHMARK.json
// lists the same names; the benchmark's tests check the two agree).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_s", "s"},
    {"excess_pct", "%"},
    {"construct_excess_pct", "%"},
    {"ok_share", "ratio"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics of the traced run; a layer a workload does not use
// reports 0.
constexpr MetricDef kPerLayer[] = {
    {"tsp.kdtree_ms", "ms"},
    {"tsp.cand_ms", "ms"},
    {"tsp.cache_hit_share", "ratio"},
    {"tsp.cache_builds", "count"},
    {"construct.ms", "ms"},
    {"construct.len", "count"},
    {"lk.flips", "count"},
    {"lk.undone_flips", "count"},
    {"lk.kicks", "count"},
    {"clk.rollbacks", "count"},
    {"lk.kicks_per_s", "1/s"},
    {"lk.improve_share", "ratio"},
    {"lk.initial_ms", "ms"},
    {"lk.probe_kicks_per_s", "1/s"},
    {"core.steps", "count"},
    {"core.restarts", "count"},
    {"core.perturbations", "count"},
    {"core.step_p50_ms", "ms"},
    {"core.compute_share", "ratio"},
    {"core.unaccounted_share", "ratio"},
    {"core.merge_received_win_share", "ratio"},
    {"core.excess_auc_pct", "%"},
    {"net.broadcasts", "count"},
    {"net.bytes", "bytes"},
    {"net.message_age_p50_s", "s"},
    {"net.codec_us", "us"},
    {"svc.queue_p50_s", "s"},
    {"svc.queue_tail_s", "s"},
    {"svc.setup_hit_p50_ms", "ms"},
    {"svc.setup_miss_p50_ms", "ms"},
    {"svc.solve_p50_s", "s"},
    {"svc.queue_depth_max", "count"},
    {"svc.gen_late_tail_s", "s"},
    {"svc.latency_tail_s", "s"},
    {"svc.latency_tail_pct", "percentile"},
    {"svc.latency_samples", "count"},
    {"svc.jobs_per_s", "1/s"},
    {"layers.coverage_share", "ratio"},
    {"obs.trace_overhead_pct", "%"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--out-dir DIR] [--revision REV]\n",
               why.c_str());
  std::exit(2);
}

std::string jsonString(const std::string& s) {
  return "\"" + distclk::obs::jsonEscape(s) + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string revision = "unknown";
  bool sawWorkload = false, sawSeed = false, sawSeconds = false, sawTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
        sawWorkload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        sawSeed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        sawSeconds = true;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        sawTrace = true;
      } else if (a == "--size") {
        if (v != "full" && v != "tiny") usage("--size takes full or tiny");
        opt.tiny = v == "tiny";
      } else if (a == "--out-dir") {
        opt.outDir = v;
      } else if (a == "--revision") {
        revision = v;
      } else {
        usage("unknown option " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!sawWorkload || !sawSeed || !sawSeconds || !sawTrace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (!(opt.seconds > 0.0 && opt.seconds <= 120.0))
    usage("--seconds must be in (0, 120]");

  using Runner = Outcome (*)(const Options&, perfbench::SpanLog*);
  const std::map<std::string, Runner> runners = {
      {"dist-sim", perfbench::runDistSim},
      {"dist-threads", perfbench::runDistThreads},
      {"serve-mix", perfbench::runServeMix},
      {"prep-large", perfbench::runPrepLarge},
  };
  const auto runner = runners.find(opt.workload);
  if (runner == runners.end()) usage("unknown workload " + opt.workload);

  const std::string loadStart = perfbench::loadAverage();
  const auto jiffiesStart = perfbench::cpuJiffies();
  perfbench::SpanLog spans;
  Outcome out;
  try {
    out = runner->second(opt, opt.trace ? &spans : nullptr);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  const std::string loadEnd = perfbench::loadAverage();
  const auto jiffiesEnd = perfbench::cpuJiffies();
  const double stealShare =
      double(jiffiesEnd.second - jiffiesStart.second) /
      double(std::max<std::int64_t>(1, jiffiesEnd.first - jiffiesStart.first));

  std::map<std::string, double> values(out.metrics.begin(), out.metrics.end());
  if (!opt.trace) {
    values["ok_share"] =
        out.attempted > 0 ? 1.0 - double(out.failed) / double(out.attempted) : 0.0;
  }
  std::string metrics;
  for (const MetricDef& m : opt.trace ? std::span<const MetricDef>(kPerLayer)
                                      : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = values.find(m.name);
    // A median over mostly failed serve-mix jobs is infinite: no number to
    // report, so the run fails instead of printing a result.
    if ((it == values.end() && !opt.trace) ||
        (it != values.end() && !std::isfinite(it->second))) {
      std::fprintf(stderr, "perfbench_driver: %s did not measure %s\n",
                   opt.workload.c_str(), m.name);
      return 3;
    }
    if (!metrics.empty()) metrics += ',';
    metrics += jsonString(m.name) + ":" +
               distclk::obs::JsonObject()
                   .field("value", it == values.end() ? 0.0 : it->second)
                   .field("unit", m.unit)
                   .str();
  }

  // Provenance, exact counts and sample counts: printed and recorded, not
  // gated.
  distclk::obs::JsonObject info;
  for (const auto& [k, v] : out.info) info.field(k, v);
  std::string problems = "[";
  for (std::size_t i = 0; i < out.problems.size(); ++i)
    problems += (i ? "," : "") + jsonString(out.problems[i]);
  problems += "]";
  const std::string provenance =
      distclk::obs::JsonObject()
          .field("workload", opt.workload)
          .field("seed", opt.seed)
          .field("seconds", opt.seconds)
          .field("trace", opt.trace)
          .field("size", opt.tiny ? "tiny" : "full")
          .field("host_cpus", static_cast<int>(std::thread::hardware_concurrency()))
          .field("loadavg_start", loadStart)
          .field("loadavg_end", loadEnd)
          .field("host_steal_share", stealShare)
          .field("revision", revision)
          .field("library_version", distclk::obs::buildVersion())
          .field("build_type", PERFBENCH_BUILD_TYPE)
          .raw("info", info.str())
          .raw("problems", problems)
          .str();
  std::printf("{\"provenance\":%s}\n", provenance.c_str());
  if (opt.trace)
    for (const auto& t : spans.selfTimes())
      std::printf("span %-28s count %6lld  total %10.2f ms  self %10.2f ms\n",
                  t.name.c_str(), static_cast<long long>(t.count), t.totalMs,
                  t.selfMs);

  const std::string result =
      "{\"correct\":" + std::string(out.incorrect == 0 ? "true" : "false") +
      ",\"attempted\":" + std::to_string(out.attempted) +
      ",\"failed\":" + std::to_string(out.failed) + ",\"metrics\":{" + metrics +
      "}}";
  if (!opt.outDir.empty()) {
    const std::string stem = opt.outDir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0");
    std::ofstream(stem + ".json")
        << "{\"provenance\":" << provenance << ",\"result\":" << result << "}\n";
    if (opt.trace) std::ofstream(stem + "-spans.json") << spans.toJson() << "\n";
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
