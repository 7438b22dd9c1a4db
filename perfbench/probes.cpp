// Per-layer figures of the traced run: direct probes of the layers that
// runDistributed hides, and the node/net counters of traced runs.
#include <optional>

#include "construct/construct.h"
#include "lk/chained_lk.h"
#include "lk/lin_kernighan.h"
#include "net/message.h"
#include "tsp/kdtree.h"
#include "tsp/neighbors.h"
#include "tsp/tour.h"
#include "workloads.h"

namespace perfbench {

void probeLayers(const distclk::Instance& inst, bool withLk, SpanLog* spans,
                 Outcome& out) {
  ScopedSpan all(spans, "probe");
  std::optional<distclk::KdTree> tree;
  {
    ScopedSpan s(spans, "probe.kdtree");
    tree.emplace(inst.points());
  }
  std::optional<distclk::CandidateLists> cand;
  {
    ScopedSpan s(spans, "probe.candidates");
    cand.emplace(inst, 10, distclk::CandidateLists::Kind::kNearest, &*tree,
                 nullptr);
  }
  std::vector<int> order;
  {
    ScopedSpan s(spans, "probe.construct");
    order = distclk::quickBoruvkaTour(inst, *cand);
  }
  const std::int64_t len = inst.tourLength(order);
  const std::string why = tourProblem(inst, order, len);
  ++out.attempted;
  if (!why.empty()) out.fail("construction probe: " + why, true);
  out.set("construct.len", double(len));

  if (withLk) {
    distclk::Tour tour(inst, order);
    distclk::LkWorkspace ws(inst.n());
    double t0 = nowSeconds();
    {
      ScopedSpan s(spans, "probe.lk_initial");
      distclk::linKernighanOptimize(tour, *cand, distclk::LkOptions{}, ws);
    }
    out.set("lk.initial_ms", (nowSeconds() - t0) * 1e3);
    distclk::ClkOptions clk;
    clk.maxKicks = std::max(100, inst.n() / 3);
    distclk::Rng rng(0x5eed);
    t0 = nowSeconds();
    distclk::ClkResult r;
    {
      ScopedSpan s(spans, "probe.clk_fixed_kicks");
      r = distclk::chainedLinKernighan(tour, *cand, rng, ws, clk);
    }
    out.set("lk.probe_kicks_per_s", double(r.kicks) / (nowSeconds() - t0));
    const std::string lkWhy = tourProblem(inst, tour.order(), tour.length());
    ++out.attempted;
    if (!lkWhy.empty()) out.fail("CLK probe: " + lkWhy, true);
  }

  // Wire codec: one tour message at this instance's size, encoded and
  // decoded repeatedly (about two million cities' worth of payload).
  distclk::Message msg;
  msg.type = distclk::MessageType::kTour;
  msg.from = 0;
  msg.length = len;
  msg.order.assign(order.begin(), order.end());
  const int reps = std::max(3, 2'000'000 / std::max(1, inst.n()));
  bool same = true;
  const double t0 = nowSeconds();
  {
    ScopedSpan s(spans, "probe.codec");
    for (int i = 0; i < reps; ++i)
      same = same && distclk::deserialize(distclk::serialize(msg)) == msg;
  }
  out.set("net.codec_us", (nowSeconds() - t0) / reps * 1e6);
  ++out.attempted;
  if (!same) out.fail("codec probe: round trip changed the message", true);
}

void addRunLayerMetrics(const RunMetrics& m, double wallSeconds,
                        int parallelNodes, Outcome& out) {
  const double kicks = double(m.counter("node.lk_kicks"));
  const double rollbacks = double(m.counter("node.clk_rollbacks"));
  const distclk::obs::HistogramData compute =
      m.histogram("node.compute_seconds");
  out.set("lk.flips", double(m.counter("node.lk_flips")));
  out.set("lk.undone_flips", double(m.counter("node.lk_undone_flips")));
  out.set("lk.kicks", kicks);
  out.set("clk.rollbacks", rollbacks);
  out.set("lk.kicks_per_s", compute.sum > 0 ? kicks / compute.sum : 0.0);
  // Share of kicks kept (not rolled back): the inner CLK's useful outcomes.
  out.set("lk.improve_share", kicks > 0 ? 1.0 - rollbacks / kicks : 0.0);
  out.set("core.steps", double(m.counter("node.steps")));
  out.set("core.restarts", double(m.counter("node.restarts")));
  out.set("core.perturbations", double(m.counter("node.perturbations")));
  out.set("core.step_p50_ms", histogramQuantile(compute, 0.5) * 1e3);
  const double share =
      wallSeconds > 0 ? compute.sum / (parallelNodes * wallSeconds) : 0.0;
  out.set("core.compute_share", share);
  out.set("core.unaccounted_share", 1.0 - share);
  const double merges = double(m.counter("node.merge_local_win") +
                               m.counter("node.merge_received_win") +
                               m.counter("node.merge_stagnant"));
  out.set("core.merge_received_win_share",
          merges > 0 ? double(m.counter("node.merge_received_win")) / merges
                     : 0.0);
  out.set("net.broadcasts", double(m.counter("net.broadcasts")));
  out.set("net.message_age_p50_s",
          histogramQuantile(m.histogram("net.message_age_seconds"), 0.5));
}

}  // namespace perfbench
