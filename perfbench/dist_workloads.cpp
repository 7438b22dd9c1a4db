// dist-sim and dist-threads: the paper's distributed CLK on K instances
// of n≈3000 uniform cities, once on the deterministic simulator with the
// modeled cost (fixed work, so wall time measures code speed only) and
// once on real threads with a per-node wall budget (real concurrency).
#include <algorithm>
#include <map>
#include <string>

#include "core/runtime.h"
#include "experiments/harness.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {

using distclk::Instance;
using distclk::InstanceContext;
using distclk::RunConfig;
using distclk::RunResult;

namespace {

struct DistSetup {
  std::vector<std::shared_ptr<const Instance>> instances;
  std::vector<std::shared_ptr<const InstanceContext>> contexts;
  std::vector<double> references;
};

struct Sizes {
  int n;
  int instances;
  int setupReps;
  int referenceIterations;
};

Sizes sizesFor(const Options& opt, bool threads) {
  if (opt.tiny) return {300, 2, 2, 30};
  return {3000, threads ? 5 : 4, 7, 300};
}

// Set-up = generate the instances and build their contexts cold. Repeated
// `reps` times; each repetition's wall time is one set-up sample.
DistSetup setUp(const Options& opt, const Sizes& s, std::vector<double>& times,
                SpanLog* spans) {
  DistSetup d;
  for (int rep = 0; rep < s.setupReps; ++rep) {
    ScopedSpan span(rep + 1 == s.setupReps ? spans : nullptr, "setup");
    const double t0 = nowSeconds();
    d.instances.clear();
    d.contexts.clear();
    for (int k = 0; k < s.instances; ++k) {
      auto inst = std::make_shared<const Instance>(
          uniformCities(s.n, mixSeed(opt.seed, std::uint64_t(k))));
      d.contexts.push_back(InstanceContext::build(inst));
      d.instances.push_back(std::move(inst));
    }
    times.push_back(nowSeconds() - t0);
  }
  return d;
}

void computeReferences(const Sizes& s, DistSetup& d) {
  d.references.assign(d.instances.size(), 0.0);
  parallelFor(d.instances.size(), [&](std::size_t k) {
    d.references[k] = heldKarpReference(*d.instances[k], s.referenceIterations);
  });
}

void addBuildStats(const InstanceContext& ctx, Outcome& out) {
  out.set("tsp.kdtree_ms", ctx.buildStats().kdtreeMs);
  out.set("tsp.cand_ms", ctx.buildStats().candMs);
  out.set("construct.ms", ctx.buildStats().constructMs);
}

// Best-so-far excess averaged over [0, budget]; every node holds the
// construction tour until the curve's first point.
double excessAucPct(const distclk::AnytimeCurve& curve, double budget,
                    double constructionLength, double reference) {
  double area = 0.0, prevT = 0.0, prevL = constructionLength;
  for (const auto& p : curve) {
    const double t = std::min(p.time, budget);
    area += (t - prevT) * excessPct(prevL, reference);
    prevT = t;
    prevL = double(p.length);
  }
  area += (budget - prevT) * excessPct(prevL, reference);
  return area / budget;
}

RunConfig simConfig(const Options& opt, const Instance& inst) {
  RunConfig cfg;
  cfg.runtime = distclk::RuntimeKind::kSim;
  cfg.nodes = 8;
  cfg.topology = distclk::TopologyKind::kHypercube;
  cfg.node = distclk::scaledNodeParams(inst);
  cfg.costModel = distclk::CostModel::kModeled;
  cfg.modeledWorkPerSecond = 4e6;
  cfg.timeLimitPerNode = opt.tiny ? 0.05 : 0.25;
  return cfg;
}

// Exact figures of one deterministic sim run, compared across repeats.
struct Exact {
  std::int64_t length = 0;
  std::int64_t steps = 0;
  std::int64_t broadcasts = 0;
  bool operator==(const Exact&) const = default;
};

void checkTour(const Instance& inst, const RunResult& res, Outcome& out,
               const std::string& what) {
  const std::string why = tourProblem(inst, res.bestOrder, res.bestLength);
  if (!why.empty()) out.fail(what + ": " + why, true);
}

}  // namespace

Outcome runDistSim(const Options& opt, SpanLog* spans) {
  const Sizes s = sizesFor(opt, false);
  Outcome out;
  std::vector<double> setupTimes;
  DistSetup d = setUp(opt, s, setupTimes, spans);
  const int K = s.instances;

  std::map<int, Exact> exact;
  auto solve = [&](int k, distclk::obs::TraceSink* sink, double& wall) {
    RunConfig cfg = simConfig(opt, *d.instances[std::size_t(k)]);
    cfg.seed = mixSeed(opt.seed, 100 + std::uint64_t(k));
    cfg.trace = sink;
    ScopedSpan span(spans, sink ? "solve.traced" : "solve");
    const double t0 = nowSeconds();
    RunResult res = distclk::runDistributed(d.contexts[std::size_t(k)], cfg);
    wall = nowSeconds() - t0;
    ++out.attempted;
    checkTour(*d.instances[std::size_t(k)], res, out, "dist-sim");
    const Exact e{res.bestLength, res.totalSteps, res.net.broadcasts};
    const auto [it, fresh] = exact.emplace(k, e);
    if (!fresh && !(it->second == e))
      out.fail("dist-sim: instance " + std::to_string(k) +
                   " did not repeat its trajectory",
               true);
    return res;
  };

  if (!opt.trace) {
    // Passes over all instances while the measured phase has room for one
    // more; at least two, so every instance repeats and the determinism
    // check always fires.
    std::vector<double> walls;
    std::vector<RunResult> first(static_cast<std::size_t>(K));
    const double start = nowSeconds();
    for (int pass = 0; pass < 8; ++pass) {
      const double elapsed = nowSeconds() - start;
      if (pass >= 2 && elapsed + elapsed / pass > opt.seconds) break;
      for (int k = 0; k < K; ++k) {
        double wall = 0.0;
        RunResult res = solve(k, nullptr, wall);
        walls.push_back(wall);
        if (pass == 0) first[std::size_t(k)] = std::move(res);
      }
    }
    const double rss = peakRssMb();
    computeReferences(s, d);
    std::vector<double> excess, constructExcess, auc;
    for (int k = 0; k < K; ++k) {
      const double ref = d.references[std::size_t(k)];
      const RunResult& r = first[std::size_t(k)];
      const double budget = simConfig(opt, *d.instances[std::size_t(k)]).timeLimitPerNode;
      excess.push_back(excessPct(double(r.bestLength), ref));
      constructExcess.push_back(
          excessPct(double(d.contexts[std::size_t(k)]->constructionLength()), ref));
      auc.push_back(excessAucPct(r.curve, budget,
                                 double(d.contexts[std::size_t(k)]->constructionLength()),
                                 ref));
      const Exact& e = exact[k];
      out.note("exact.instance" + std::to_string(k),
               "length=" + std::to_string(e.length) +
                   " steps=" + std::to_string(e.steps) +
                   " broadcasts=" + std::to_string(e.broadcasts));
    }
    out.set("setup_s", median(setupTimes));
    out.set("latency_p50_s", median(walls));
    out.set("peak_rss_mb", rss);
    out.set("excess_pct", mean(excess));
    out.set("construct_excess_pct", mean(constructExcess));
    out.note("samples.setup_s", std::to_string(setupTimes.size()));
    out.note("samples.latency_p50_s", std::to_string(walls.size()) + " solves");
    out.note("excess_auc_pct", fmt("%.4f", mean(auc)));
    out.note("instances", std::to_string(K) + " x uniform n=" + std::to_string(s.n));
    return out;
  }

  // Traced run: instance 0, untraced and traced solves interleaved (the
  // trajectory must not change), then the direct layer probes.
  std::vector<double> plain, traced;
  MemorySink firstSink;
  RunResult tracedRes;
  for (int rep = 0; rep < 2; ++rep) {
    double wall = 0.0;
    solve(0, nullptr, wall);
    plain.push_back(wall);
    MemorySink scratch;
    RunResult res = solve(0, rep == 0 ? &firstSink : &scratch, wall);
    traced.push_back(wall);
    if (rep == 0) tracedRes = std::move(res);
  }
  computeReferences(s, d);
  const RunMetrics m = finalRunMetrics(firstSink.lines());
  addRunLayerMetrics(m, traced.front(), 1, out);
  out.set("net.bytes", double(tracedRes.net.bytesSent));
  out.set("layers.coverage_share",
          m.histogram("node.compute_seconds").sum / traced.front());
  out.set("obs.trace_overhead_pct", 100.0 * (median(traced) / median(plain) - 1.0));
  out.set("core.excess_auc_pct",
          excessAucPct(tracedRes.curve, simConfig(opt, *d.instances[0]).timeLimitPerNode,
                       double(d.contexts[0]->constructionLength()), d.references[0]));
  addBuildStats(*d.contexts[0], out);
  probeLayers(*d.instances[0], true, spans, out);
  return out;
}

Outcome runDistThreads(const Options& opt, SpanLog* spans) {
  const Sizes s = sizesFor(opt, true);
  Outcome out;
  std::vector<double> setupTimes;
  DistSetup d = setUp(opt, s, setupTimes, spans);
  // Three passes over the instances (one run when traced); every run gets
  // an equal share of the measured phase as its per-node budget.
  const int passes = 3;
  const double budget = std::max(0.1, opt.seconds / (s.instances * passes));
  const int K = opt.trace ? 1 : s.instances;
  const int runs = opt.trace ? 1 : passes;

  // Each peer's initial construct + CLK is fixed work, run by the four
  // peers at once; its end is when that peer first holds a tour.
  std::vector<double> firstTour;
  std::vector<double> excess, auc, constructExcess;
  std::vector<std::pair<int, RunResult>> results;
  MemorySink sink;
  double tracedWall = 0.0;
  for (int pass = 0; pass < runs; ++pass)
    for (int k = 0; k < K; ++k) {
      RunConfig cfg;
      cfg.runtime = distclk::RuntimeKind::kThreads;
      cfg.nodes = 4;
      cfg.topology = distclk::TopologyKind::kHypercube;
      cfg.node = distclk::scaledNodeParams(*d.instances[std::size_t(k)]);
      cfg.timeLimitPerNode = budget;
      cfg.seed = mixSeed(opt.seed, 200 + std::uint64_t(pass * K + k));
      if (opt.trace) cfg.trace = &sink;
      ScopedSpan span(spans, "solve");
      const double t0 = nowSeconds();
      RunResult res = distclk::runDistributed(d.contexts[std::size_t(k)], cfg);
      tracedWall = nowSeconds() - t0;
      ++out.attempted;
      checkTour(*d.instances[std::size_t(k)], res, out, "dist-threads");
      for (const auto& curve : res.nodeCurves)
        if (!curve.empty()) firstTour.push_back(curve.front().time);
      results.emplace_back(k, std::move(res));
    }
  const double rss = peakRssMb();
  computeReferences(s, d);
  for (int k = 0; k < K; ++k)
    constructExcess.push_back(excessPct(
        double(d.contexts[std::size_t(k)]->constructionLength()),
        d.references[std::size_t(k)]));
  for (const auto& [k, res] : results) {
    const double ref = d.references[std::size_t(k)];
    excess.push_back(excessPct(double(res.bestLength), ref));
    auc.push_back(excessAucPct(
        res.curve, budget,
        double(d.contexts[std::size_t(k)]->constructionLength()), ref));
  }

  if (!opt.trace) {
    out.set("setup_s", median(setupTimes));
    out.set("latency_p50_s", median(firstTour));
    out.set("excess_pct", mean(excess));
    out.set("construct_excess_pct", mean(constructExcess));
    out.set("peak_rss_mb", rss);
    out.note("samples.setup_s", std::to_string(setupTimes.size()));
    out.note("samples.latency_p50_s",
             std::to_string(firstTour.size()) + " peer starts");
    out.note("latency_p50_s.meaning", "per-peer time to first tour");
    out.note("excess_auc_pct", fmt("%.4f", mean(auc)));
    out.note("budget_per_node_s", fmt("%.3f", budget));
    out.note("instances", std::to_string(K) + " x uniform n=" + std::to_string(s.n));
    return out;
  }

  const RunResult& traced = results.front().second;
  const RunMetrics m = finalRunMetrics(sink.lines());
  addRunLayerMetrics(m, tracedWall, 4, out);
  out.set("net.bytes", double(traced.net.bytesSent));
  out.set("layers.coverage_share",
          m.histogram("node.compute_seconds").sum / (4.0 * tracedWall));
  out.set("core.excess_auc_pct", auc.front());
  addBuildStats(*d.contexts[0], out);
  probeLayers(*d.instances[0], true, spans, out);
  return out;
}

}  // namespace perfbench
