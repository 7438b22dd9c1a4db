// prep-large: cold InstanceContext builds of one 2x10^5-city uniform
// instance at four preprocessing threads. Only at this scale do the
// quadratic fragment stitcher of the construction and the parallel
// kd-tree and candidate phases dominate what a user waits for.
#include <utility>

#include "reference.h"
#include "workloads.h"

namespace perfbench {

using distclk::Instance;
using distclk::InstanceContext;

namespace {

constexpr double kSide = 1e6;
constexpr int kPrepThreads = 4;
constexpr int kSetupReps = 15;

}  // namespace

Outcome runPrepLarge(const Options& opt, SpanLog* spans) {
  const int n = opt.tiny ? 5000 : 200000;
  Outcome out;

  // Set-up: generating the instance is all there is before the timed
  // builds; repeated so the reported figure is a median.
  std::vector<double> setupTimes;
  std::shared_ptr<const Instance> inst;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ScopedSpan span(rep + 1 == kSetupReps ? spans : nullptr, "setup");
    const double t0 = nowSeconds();
    inst = std::make_shared<const Instance>(
        uniformCities(n, mixSeed(opt.seed, 400), kSide));
    setupTimes.push_back(nowSeconds() - t0);
  }

  distclk::PreprocessParams params;
  params.prepThreads = kPrepThreads;
  std::vector<double> walls, kd, cand, cons, coverage;
  std::vector<int> firstOrder;
  std::int64_t length = 0;
  const double start = nowSeconds();
  const int minBuilds = opt.trace ? 2 : 3;
  for (int i = 0; i < 50; ++i) {
    if (i >= minBuilds && nowSeconds() - start >= opt.seconds) break;
    const int span = spans ? spans->open("build") : -1;
    const double t0 = nowSeconds();
    std::shared_ptr<const InstanceContext> ctx = InstanceContext::build(inst, params);
    const double wall = nowSeconds() - t0;
    if (spans) spans->close(span);
    walls.push_back(wall);
    const auto& bs = ctx->buildStats();
    kd.push_back(bs.kdtreeMs);
    cand.push_back(bs.candMs);
    cons.push_back(bs.constructMs);
    coverage.push_back((bs.kdtreeMs + bs.candMs + bs.constructMs) / 1e3 / wall);
    if (spans) {
      // The build's own phase timings, laid out as children of its span.
      double t = t0;
      for (const auto& [name, ms] : {std::pair{"build.kdtree", bs.kdtreeMs},
                                     std::pair{"build.candidates", bs.candMs},
                                     std::pair{"build.construct", bs.constructMs}}) {
        spans->add(name, span, t, t + ms / 1e3);
        t += ms / 1e3;
      }
    }
    ++out.attempted;
    const std::string why =
        tourProblem(*inst, ctx->constructionOrder(), ctx->constructionLength());
    if (!why.empty()) {
      out.fail("construction tour: " + why, true);
    } else if (firstOrder.empty()) {
      firstOrder = ctx->constructionOrder();
      length = ctx->constructionLength();
    } else if (ctx->constructionOrder() != firstOrder) {
      out.fail("construction tour changed between builds", true);
    }
  }
  const double rss = peakRssMb();
  const double excess = excessPct(double(length), bhhEstimate(n, kSide));

  if (!opt.trace) {
    out.set("setup_s", median(setupTimes));
    out.set("latency_p50_s", median(walls));
    out.set("peak_rss_mb", rss);
    out.set("excess_pct", excess);
    out.set("construct_excess_pct", excess);
    out.note("samples.setup_s", std::to_string(setupTimes.size()));
    out.note("samples.latency_p50_s", std::to_string(walls.size()) + " builds");
    out.note("latency_p50_s.meaning", "cold InstanceContext::build");
    out.note("construction_length", std::to_string(length));
    std::string wallList;
    for (double w : walls) wallList += fmt("%.4f ", w);
    out.note("build_walls_s", wallList);
    out.note("phases_ms", "kdtree " + fmt("%.1f", median(kd)) + ", candidates " +
                              fmt("%.1f", median(cand)) + ", construct " +
                              fmt("%.1f", median(cons)));
    return out;
  }

  out.set("tsp.kdtree_ms", median(kd));
  out.set("tsp.cand_ms", median(cand));
  out.set("construct.ms", median(cons));
  out.set("layers.coverage_share", median(coverage));
  probeLayers(*inst, false, spans, out);
  return out;
}

}  // namespace perfbench
