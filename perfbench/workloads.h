// The four workloads of the end-to-end benchmark. Each one generates its
// inputs from the seed, sets up (timed in-process), runs its measured
// phase for about Options::seconds, validates every tour it gets back and
// fills an Outcome: the end-to-end metrics when tracing is off, the
// per-layer metrics (plus spans) when it is on.
#pragma once

#include <memory>
#include <vector>

#include "common.h"
#include "tsp/instance_context.h"

namespace perfbench {

Outcome runDistSim(const Options& opt, SpanLog* spans);
Outcome runDistThreads(const Options& opt, SpanLog* spans);
Outcome runServeMix(const Options& opt, SpanLog* spans);
Outcome runPrepLarge(const Options& opt, SpanLog* spans);

/// Direct timings of the layers that are otherwise reachable only inside
/// runDistributed, taken on one instance by calling their public entry
/// points: kd-tree, candidate lists, Quick-Borůvka, initial LK, Chained LK
/// with a fixed kick count, and the wire codec at the instance's size.
/// `withLk` = false skips the two LK probes (too slow at 10^5 cities).
void probeLayers(const distclk::Instance& inst, bool withLk, SpanLog* spans,
                 Outcome& out);

/// Per-layer metrics read from the final metrics records of traced runs
/// (node.*, net.* counters and histograms). `wallSeconds` is the wall time
/// the runs took and `parallelNodes` how many nodes ran concurrently (1
/// under the single-threaded simulator), for the compute-share figures.
void addRunLayerMetrics(const RunMetrics& m, double wallSeconds,
                        int parallelNodes, Outcome& out);

}  // namespace perfbench
