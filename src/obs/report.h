// Offline analytics over JSONL run traces: loading (skip-and-count on
// garbled lines), reconstruction of per-node and global best-length
// timelines, and the propagation / provenance / convergence analyses that
// tools/trace_report renders. Lives in the library (not the tool) so tests
// can run the analyses in-process against freshly captured traces.
//
// The causal reconstruction leans on three record families the runtime
// emits when tracing is on:
//   msg-sent / msg-recv — wire-v3 stamps (per-sender seq + Lamport time)
//                         at the NodeRunner broadcast/collect boundaries
//   adopt               — which sender's tour a merge actually kept
//   node-best           — periodic per-node best series (gap-to-best)
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/trace.h"
#include "obs/json.h"

namespace distclk::obs {

struct TraceMsgSent {
  double t = 0.0;
  int node = -1;
  std::uint64_t seq = 0;
  std::uint64_t lamport = 0;
  std::int64_t len = 0;
  std::int64_t bytes = 0;
  int run = -1;  ///< index of the enclosing run bracket (-1 = before any)
};

struct TraceMsgRecv {
  double t = 0.0;
  int node = -1;
  int from = -1;
  std::uint64_t seq = 0;
  std::uint64_t lamport = 0;      ///< sender's Lamport time at send
  std::uint64_t recvLamport = 0;  ///< receiver's Lamport time after receive
  std::int64_t len = 0;
  int run = -1;  ///< index of the enclosing run bracket (-1 = before any)
};

struct TraceAdopt {
  double t = 0.0;
  int node = -1;
  int from = -1;
  std::int64_t len = 0;
};

struct TraceNodeBest {
  double t = 0.0;
  int node = -1;
  std::int64_t len = 0;
  std::int64_t noImprove = 0;
};

/// One run-meta/run-end bracket in a (possibly multi-run) trace stream.
/// A serve daemon appends one bracket per job to a shared trace file; a
/// standalone run writes exactly one.
struct TraceRun {
  std::optional<JsonValue> meta;
  std::optional<JsonValue> runEnd;
};

/// A job lifecycle record the service layer appends after each job's run
/// bracket (src/svc/solver_pool.cpp).
struct TraceJob {
  double t = 0.0;
  std::string id;
  std::string state;  ///< completed | cancelled | expired | failed
  int priority = 0;
  std::int64_t best = 0;
  double queueSeconds = 0.0;
  double setupSeconds = 0.0;
  double solveSeconds = 0.0;
  bool cacheHit = false;
  /// Cache-miss preprocessing decomposition; zero when the record predates
  /// these fields or the job hit the context cache.
  double prepKdtreeMs = 0.0;
  double prepCandMs = 0.0;
  double prepConstructMs = 0.0;
};

/// One parsed trace. Garbled/unknown lines are skipped and counted, with
/// the first few diagnostics retained; callers decide whether bad lines are
/// fatal (trace_report exits non-zero when badLines > 0).
///
/// Multi-run streams: each run-meta opens a new entry in `runs`; the next
/// run-end closes it. `meta`/`runEnd` keep the single-run view (first meta,
/// last end) so existing analyses keep working on concatenated traces.
struct LoadedTrace {
  std::optional<JsonValue> meta;    ///< first run-meta (legacy single-run view)
  std::optional<JsonValue> runEnd;  ///< last run-end (legacy single-run view)
  std::optional<JsonValue> lastMetrics;
  std::vector<TraceRun> runs;  ///< run brackets in stream order
  int strayRunEnds = 0;        ///< run-end records with no open run-meta
  EventLog events;  ///< sorted by (time, node)
  std::vector<TraceMsgSent> sent;
  std::vector<TraceMsgRecv> recv;
  std::vector<TraceAdopt> adopts;
  std::vector<TraceNodeBest> series;
  std::vector<TraceJob> jobs;  ///< service-layer job records, stream order
  int parsedLines = 0;
  int badLines = 0;
  std::vector<std::string> problems;  ///< first diagnostics, capped

  /// Node count: run-meta's "nodes" when present, else 1 + the highest
  /// node id observed anywhere in the trace.
  int nodeCount() const;
};

LoadedTrace loadTrace(std::istream& in);

/// Global best-so-far curve over the length-carrying events (the same
/// reconstruction the paper's Fig. 2/3 curves use).
AnytimeCurve globalBestCurve(const LoadedTrace& trace);

/// Per-node best-so-far curves from events plus the node-best series.
std::map<int, AnytimeCurve> nodeBestCurves(const LoadedTrace& trace);

// ---------------------------------------------------------------------------
// --propagation: per-improvement broadcast tree

/// How one global improvement spread: who produced it, how many nodes its
/// value reached, how deep the relay tree ran (hops through adopted tours),
/// and the latency percentiles to coverage. A node counts as covered once
/// its local best reaches the improvement's length or better — the value
/// can also arrive via a later, better tour, which still covers it.
struct PropagationSummary {
  std::int64_t len = 0;  ///< the improvement's tour length
  int origin = -1;       ///< node that produced it
  double t0 = 0.0;       ///< when (origin's clock)
  int reached = 0;       ///< nodes covered by end of trace (incl. origin)
  int total = 0;         ///< cluster size
  int maxHops = 0;       ///< deepest relay chain among covered nodes
  /// Latencies from t0 until 50% / 90% / all of the cluster is covered;
  /// -1 when that coverage level was never reached.
  double t50 = -1.0;
  double t90 = -1.0;
  double tFull = -1.0;
};

std::vector<PropagationSummary> propagationSummaries(
    const LoadedTrace& trace);

// ---------------------------------------------------------------------------
// --provenance: which node each node's final tour descends from

/// Lineage of a node's final tour, reconstructed by walking adopt records
/// backwards: each adoption hands the lineage to the sender as of the
/// adoption time; a node with no earlier adoption is the lineage origin.
/// Local refinements (DBM + inner CLK) preserve lineage by construction;
/// a restart that out-improves the held tour is indistinguishable from a
/// local refinement in the trace and counts as one (documented
/// approximation).
struct ProvenanceRow {
  int node = -1;
  std::int64_t finalLen = 0;
  int origin = -1;     ///< root of the adoption chain
  int chainLen = 0;    ///< adoptions walked (0 = self-made tour)
  std::string chain;   ///< e.g. "4 <- 2 <- 0"
};

std::vector<ProvenanceRow> provenanceRows(const LoadedTrace& trace);

// ---------------------------------------------------------------------------
// --convergence: time-to-within-x% per node and global

struct ConvergenceReport {
  std::vector<double> levels;  ///< fractions over the final global best
  std::int64_t finalBest = 0;
  /// Per node and level: first time the node's local best is within the
  /// level of finalBest (infinity = never).
  std::map<int, std::vector<double>> nodeTimes;
  std::vector<double> globalTimes;  ///< same lookup on the global curve
  struct Stall {
    double t = 0.0;
    int node = -1;
    double stalledSeconds = 0.0;  ///< how long progress had been absent
  };
  std::vector<Stall> stalls;  ///< stall-detector events, in time order
};

ConvergenceReport convergenceReport(const LoadedTrace& trace,
                                    const std::vector<double>& levels);

// ---------------------------------------------------------------------------
// --jobs: service-layer job table + SLO aggregates

/// Aggregates over the trace's job records (one per job the service layer
/// finished). Seconds fields aggregate completed jobs only — cancelled or
/// expired jobs have truncated phases that would skew the SLO picture.
struct JobsReport {
  int total = 0;
  int completed = 0;
  int cancelled = 0;
  int expired = 0;
  int failed = 0;
  int cacheHits = 0;  ///< jobs whose InstanceContext came from the cache
  double meanQueueSeconds = 0.0;
  double meanSetupSeconds = 0.0;
  double meanSolveSeconds = 0.0;
  double maxLatencySeconds = 0.0;  ///< max queue+setup+solve over completed
};

JobsReport jobsReport(const LoadedTrace& trace);

// ---------------------------------------------------------------------------
// LK throughput, from the last metrics snapshot

/// Inner-CLK work summed over both kinds of compute phase, the initial
/// steps and the EA steps, so the flips and the seconds cover the same
/// calls.
struct LkWork {
  double appliedFlips = 0.0;
  double rewoundFlips = 0.0;
  double computeSeconds = 0.0;  ///< summed wall time of those phases
};

/// Nullopt when the trace has no metrics snapshot with LK counters.
std::optional<LkWork> lkWork(const LoadedTrace& trace);

// ---------------------------------------------------------------------------
// --validate: trace schema / causal-consistency check

struct ValidationResult {
  int records = 0;   ///< parseable records seen
  int badLines = 0;  ///< unparseable or unknown lines
  std::vector<std::string> problems;  ///< schema/causality violations
  bool ok() const noexcept {
    return records > 0 && badLines == 0 && problems.empty();
  }
};

/// Validates record schemas plus the causal invariants the tracer
/// guarantees: every msg-recv matches an emitted msg-sent (sender, seq),
/// receive Lamport times exceed send stamps, node ids are in range, and
/// run-meta/run-end brackets pair up. Streams with several brackets (a
/// serve daemon appends one per job) are validated per run: each run must
/// close before the next opens, and message causality is scoped to its
/// enclosing run (per-sender seq counters restart across runs).
ValidationResult validateTrace(std::istream& in);

/// Parses a "--levels" spec: comma-separated fractions ("0.05,0.01,0").
std::vector<double> parseLevels(const std::string& spec);

}  // namespace distclk::obs
