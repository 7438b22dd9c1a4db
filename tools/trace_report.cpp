// Reads a JSONL run trace (distclk_cli --trace, or any driver with a
// JsonlTraceSink attached) and renders the per-node behavior the paper
// narrates in §4: improvement timelines, broadcast/receive ratios, restart
// depths, and time-to-quality lookups on the reconstructed global anytime
// curve. The causal views reconstruct the message graph from the wire-v3
// stamps (msg-sent/msg-recv/adopt records); all analysis lives in
// src/obs/report.* so tests exercise it in-process.
//
//   trace_report RUN.jsonl [view] [--levels 0.05,0.02,0.01,0.005,0]
//     (no view)            per-node summary + time-to-quality + metrics
//     --propagation        per-improvement broadcast tree: origin, hop
//                          depth, latency to 50%/90%/full coverage
//     --provenance         which node each node's final tour descends from
//     --convergence        time-to-within-x% per node and global, plus any
//                          stall-detector events
//     --validate           schema + causal-consistency check; exit status
//                          reports the verdict. Tolerates multi-run streams
//                          (a serve daemon appends one run bracket per job)
//                          and checks per-run bracketing/causality
//     --jobs               service-layer job table (distclk_serve traces):
//                          per-job state, queue/setup/solve split, cache
//                          hits, plus SLO aggregates; falls back to a run-
//                          bracket summary when no job records are present
//     --levels L1,L2,...   quality levels (fraction over final best) for
//                          the time-to-quality / convergence tables
//   trace_report --compare A.jsonl B.jsonl [--levels ...]
//                          side-by-side time-to-quality of two runs
//
// Exits non-zero when the trace contains unparseable or unknown lines
// (they are skipped and counted, and the count is reported) — a truncated
// trace should fail loudly in CI, not silently under-report.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/trace.h"
#include "obs/json.h"
#include "obs/report.h"
#include "util/table.h"

using namespace distclk;

namespace {

struct NodeSummary {
  int improvements = 0;          ///< locally produced improvements
  int toursReceived = 0;         ///< improving tours adopted from neighbors
  int broadcasts = 0;
  int restarts = 0;
  int stalls = 0;                ///< stall-detector episodes
  double joinedAt = -1.0;        ///< churn: when the node entered (<0: t=0)
  double failedAt = -1.0;        ///< injected failure time (<0: none)
  std::vector<std::int64_t> restartDepths;  ///< NumNoImprovements at restart
  int maxPerturbLevel = 1;
  std::int64_t bestLength = -1;
  double bestTime = 0.0;
};

std::map<int, NodeSummary> summarizeNodes(const obs::LoadedTrace& trace) {
  std::map<int, NodeSummary> nodes;
  for (const NodeEvent& ev : trace.events) {
    NodeSummary& node = nodes[ev.node];
    switch (ev.type) {
      case NodeEventType::kInitialTour:
        break;
      case NodeEventType::kImprovement:
        ++node.improvements;
        break;
      case NodeEventType::kBroadcastSent:
        ++node.broadcasts;
        break;
      case NodeEventType::kTourReceived:
        ++node.toursReceived;
        break;
      case NodeEventType::kPerturbationLevel:
        node.maxPerturbLevel =
            std::max(node.maxPerturbLevel, static_cast<int>(ev.value));
        break;
      case NodeEventType::kRestart:
        ++node.restarts;
        node.restartDepths.push_back(ev.value);
        break;
      case NodeEventType::kNodeJoined:
        node.joinedAt = ev.time;
        break;
      case NodeEventType::kNodeFailed:
        node.failedAt = ev.time;
        break;
      case NodeEventType::kStall:
        ++node.stalls;
        break;
      case NodeEventType::kTargetReached:
        break;
    }
    // Track each node's best-seen length from length-carrying events.
    if (ev.type == NodeEventType::kInitialTour ||
        ev.type == NodeEventType::kImprovement ||
        ev.type == NodeEventType::kTourReceived ||
        ev.type == NodeEventType::kBroadcastSent) {
      if (node.bestLength < 0 || ev.value < node.bestLength) {
        node.bestLength = ev.value;
        node.bestTime = ev.time;
      }
    }
  }
  return nodes;
}

std::string fmtCount(std::int64_t v) { return std::to_string(v); }

std::string fmtLatency(double seconds) {
  return seconds < 0 ? "-" : fmt(seconds, 3) + "s";
}

std::string fmtReach(double seconds) {
  return std::isinf(seconds) ? "never" : fmt(seconds, 3) + "s";
}

void printSummary(const obs::LoadedTrace& trace,
                  const std::vector<double>& levels) {
  if (trace.meta) {
    const auto& m = *trace.meta;
    std::printf("run      : %s (n=%lld) — %s, %lld nodes, %s topology\n",
                m.str("instance").c_str(),
                static_cast<long long>(m.integer("n")),
                m.str("algorithm").c_str(),
                static_cast<long long>(m.integer("nodes")),
                m.str("topology").c_str());
    std::printf("params   : seed=%lld c_v=%lld c_r=%lld kick=%s "
                "budget=%.3gs/node clock=%s git=%s\n",
                static_cast<long long>(m.integer("seed")),
                static_cast<long long>(m.integer("cv")),
                static_cast<long long>(m.integer("cr")), m.str("kick").c_str(),
                m.num("time_limit_per_node"), m.str("clock").c_str(),
                m.str("git").c_str());
    // Traces predating the runtime layer carry neither field; stay quiet.
    if (m.find("runtime") != nullptr)
      std::printf("runtime  : %s (wire v%lld)\n", m.str("runtime").c_str(),
                  static_cast<long long>(m.integer("wire_version")));
  }
  std::printf("records  : %d parsed, %d skipped, %zu events, %zu stamped "
              "sends, %zu receives\n\n",
              trace.parsedLines, trace.badLines, trace.events.size(),
              trace.sent.size(), trace.recv.size());

  // Per-node summary: the §4.2.1 narrative in table form.
  const std::map<int, NodeSummary> nodes = summarizeNodes(trace);
  Table nodeTable({"node", "improve", "recv", "bcast", "recv/bcast",
                   "restarts", "max-perturb", "best", "best@t", "churn"});
  for (const auto& [id, node] : nodes) {
    const double ratio =
        node.broadcasts > 0
            ? static_cast<double>(node.toursReceived) / node.broadcasts
            : 0.0;
    std::string churn;
    if (node.joinedAt >= 0) churn += "join@" + fmt(node.joinedAt, 2);
    if (node.failedAt >= 0) {
      if (!churn.empty()) churn += " ";
      churn += "fail@" + fmt(node.failedAt, 2);
    }
    if (node.stalls > 0) {
      if (!churn.empty()) churn += " ";
      churn += "stallx" + std::to_string(node.stalls);
    }
    if (churn.empty()) churn = "-";
    nodeTable.addRow({std::to_string(id), fmtCount(node.improvements),
                      fmtCount(node.toursReceived), fmtCount(node.broadcasts),
                      fmt(ratio, 2), fmtCount(node.restarts),
                      fmtCount(node.maxPerturbLevel),
                      node.bestLength >= 0 ? std::to_string(node.bestLength)
                                           : "-",
                      fmt(node.bestTime, 3), churn});
  }
  std::printf("Per-node summary\n");
  nodeTable.print(std::cout);

  // Improvement timeline: global best vs time, one row per level.
  const AnytimeCurve curve = obs::globalBestCurve(trace);
  if (!curve.empty()) {
    const std::int64_t finalBest = curve.back().length;
    Table quality({"level", "target", "time-to-reach"});
    for (const double level : levels) {
      const auto target = static_cast<std::int64_t>(
          std::ceil(double(finalBest) * (1.0 + level)));
      quality.addRow({fmtPct(level, 1), std::to_string(target),
                      fmtReach(timeToReach(curve, target))});
    }
    std::printf("\nTime to quality (vs final best %lld, %zu improvements)\n",
                static_cast<long long>(finalBest), curve.size());
    quality.print(std::cout);
  }

  // Restart histogram: how deep stagnation ran before each restart.
  bool anyRestart = false;
  Table restarts({"node", "restarts", "depth-min", "depth-mean", "depth-max"});
  for (const auto& [id, node] : nodes) {
    if (node.restartDepths.empty()) continue;
    anyRestart = true;
    const auto [minIt, maxIt] = std::minmax_element(
        node.restartDepths.begin(), node.restartDepths.end());
    double sum = 0;
    for (const auto d : node.restartDepths) sum += double(d);
    restarts.addRow({std::to_string(id),
                     fmtCount(std::int64_t(node.restartDepths.size())),
                     std::to_string(*minIt),
                     fmt(sum / double(node.restartDepths.size()), 1),
                     std::to_string(*maxIt)});
  }
  if (anyRestart) {
    std::printf("\nRestart depths (NumNoImprovements when c_r fired)\n");
    restarts.print(std::cout);
  }

  // Final metric snapshot: counters plus histogram means.
  if (trace.lastMetrics) {
    const obs::JsonValue* metrics = trace.lastMetrics->find("metrics");
    if (metrics != nullptr) {
      std::printf("\nFinal metrics (t=%.3fs)\n", trace.lastMetrics->num("t"));
      Table counters({"counter", "value"});
      if (const obs::JsonValue* c = metrics->find("counters"))
        for (const auto& [name, v] : c->object)
          counters.addRow({name, std::to_string(
                                     static_cast<std::int64_t>(v.number))});
      counters.print(std::cout);
      Table hists({"histogram", "count", "mean", "min", "max"});
      bool anyHist = false;
      if (const obs::JsonValue* h = metrics->find("histograms")) {
        for (const auto& [name, v] : h->object) {
          const double count = v.num("count");
          if (count <= 0) continue;
          anyHist = true;
          hists.addRow({name, fmtCount(static_cast<std::int64_t>(count)),
                        fmt(v.num("sum") / count, 6), fmt(v.num("min"), 6),
                        fmt(v.num("max"), 6)});
        }
      }
      if (anyHist) {
        std::printf("\n");
        hists.print(std::cout);
      }
      // LK throughput, from the applied/rewound flip split: search steps
      // per second of summed compute time (EA steps and initial steps)
      // across all nodes.
      if (const std::optional<obs::LkWork> work = obs::lkWork(trace)) {
        const double steps = work->appliedFlips + work->rewoundFlips;
        std::printf("\nLK work  : %.0f applied + %.0f rewound flips",
                    work->appliedFlips, work->rewoundFlips);
        if (steps > 0)
          std::printf(" (%.1f%% applied)", 100.0 * work->appliedFlips / steps);
        if (work->computeSeconds > 0)
          std::printf(", %.3g steps/s over %.3fs compute",
                      steps / work->computeSeconds, work->computeSeconds);
        std::printf("\n");
      }
    }
  }

  if (trace.runEnd) {
    const auto& e = *trace.runEnd;
    const obs::JsonValue* hit = e.find("hit_target");
    std::printf("\nrun end  : best=%lld steps=%lld messages=%lld "
                "hit-target=%s at t=%.3fs\n",
                static_cast<long long>(e.integer("best_length")),
                static_cast<long long>(e.integer("total_steps")),
                static_cast<long long>(e.integer("messages_sent")),
                hit != nullptr && hit->boolean ? "yes" : "no", e.num("t"));
  }
}

// Deterministic tables only (no run-meta/git header): this view is pinned
// by the golden-file ctest.
void printPropagation(const obs::LoadedTrace& trace) {
  const std::vector<obs::PropagationSummary> summaries =
      obs::propagationSummaries(trace);
  std::printf("Propagation (%zu improvements, %d nodes)\n", summaries.size(),
              trace.nodeCount());
  Table table({"improvement", "origin", "t0", "reached", "max-hops", "t50",
               "t90", "t-full"});
  for (const obs::PropagationSummary& s : summaries) {
    table.addRow({std::to_string(s.len), std::to_string(s.origin),
                  fmt(s.t0, 3),
                  std::to_string(s.reached) + "/" + std::to_string(s.total),
                  std::to_string(s.maxHops), fmtLatency(s.t50),
                  fmtLatency(s.t90), fmtLatency(s.tFull)});
  }
  table.print(std::cout);
}

void printProvenance(const obs::LoadedTrace& trace) {
  const std::vector<obs::ProvenanceRow> rows = obs::provenanceRows(trace);
  std::printf("Provenance of final tours (%d nodes)\n", trace.nodeCount());
  Table table({"node", "final", "origin", "adoptions", "lineage"});
  for (const obs::ProvenanceRow& row : rows) {
    table.addRow({std::to_string(row.node), std::to_string(row.finalLen),
                  std::to_string(row.origin), std::to_string(row.chainLen),
                  row.chain});
  }
  table.print(std::cout);
}

// Deterministic tables only — also golden-pinned.
void printConvergence(const obs::LoadedTrace& trace,
                      const std::vector<double>& levels) {
  const obs::ConvergenceReport report =
      obs::convergenceReport(trace, levels);
  std::printf("Convergence to within levels of final best %lld\n",
              static_cast<long long>(report.finalBest));
  std::vector<std::string> header{"node"};
  for (const double level : levels) header.push_back(fmtPct(level, 1));
  Table table(header);
  {
    std::vector<std::string> row{"global"};
    for (const double t : report.globalTimes) row.push_back(fmtReach(t));
    table.addRow(row);
  }
  for (const auto& [node, times] : report.nodeTimes) {
    std::vector<std::string> row{std::to_string(node)};
    for (const double t : times) row.push_back(fmtReach(t));
    table.addRow(row);
  }
  table.print(std::cout);

  if (!report.stalls.empty()) {
    std::printf("\nStall events (no improvement for the configured budget)\n");
    Table stalls({"t", "node", "stalled-for"});
    for (const auto& s : report.stalls)
      stalls.addRow({fmt(s.t, 3), std::to_string(s.node),
                     fmt(s.stalledSeconds, 3) + "s"});
    stalls.print(std::cout);
  }
}

// Service-layer view: one row per job record (distclk_serve appends one
// after each job's run bracket) plus SLO aggregates over completed jobs.
void printJobs(const obs::LoadedTrace& trace) {
  if (trace.jobs.empty()) {
    // No job records — still useful on a plain multi-run stream: show the
    // run brackets so "what did this file capture" has an answer.
    std::printf("No job records; %zu run bracket(s) in stream\n",
                trace.runs.size());
    if (trace.runs.empty()) return;
    Table runsTable({"run", "job", "instance", "nodes", "best", "ended"});
    for (std::size_t i = 0; i < trace.runs.size(); ++i) {
      const obs::TraceRun& run = trace.runs[i];
      std::string job = "-";
      std::string instance = "-";
      std::string nodes = "-";
      if (run.meta.has_value()) {
        const std::string j = run.meta->str("job");
        if (!j.empty()) job = j;
        instance = run.meta->str("instance");
        nodes = std::to_string(run.meta->integer("nodes"));
      }
      runsTable.addRow(
          {std::to_string(i), job, instance, nodes,
           run.runEnd.has_value()
               ? std::to_string(run.runEnd->integer("best_length"))
               : "-",
           run.runEnd.has_value() ? "yes" : "no"});
    }
    runsTable.print(std::cout);
    return;
  }

  std::printf("Jobs (%zu records over %zu run brackets)\n", trace.jobs.size(),
              trace.runs.size());
  Table table({"job", "state", "prio", "best", "queue", "setup", "solve",
               "latency", "cache", "prep"});
  for (const obs::TraceJob& j : trace.jobs) {
    const double prepMs = j.prepKdtreeMs + j.prepCandMs + j.prepConstructMs;
    table.addRow({j.id, j.state, std::to_string(j.priority),
                  j.best > 0 ? std::to_string(j.best) : "-",
                  fmt(j.queueSeconds, 3) + "s", fmt(j.setupSeconds, 3) + "s",
                  fmt(j.solveSeconds, 3) + "s",
                  fmt(j.queueSeconds + j.setupSeconds + j.solveSeconds, 3) +
                      "s",
                  j.cacheHit ? "hit" : "miss",
                  prepMs > 0.0 ? fmt(prepMs, 1) + "ms" : "-"});
  }
  table.print(std::cout);

  const obs::JobsReport report = obs::jobsReport(trace);
  std::printf("\nSLO      : %d jobs — %d completed, %d cancelled, %d expired,"
              " %d failed\n",
              report.total, report.completed, report.cancelled, report.expired,
              report.failed);
  std::printf("cache    : %d/%d context cache hits\n", report.cacheHits,
              report.total);
  if (report.completed > 0) {
    std::printf("completed: mean queue %.3fs, mean setup %.3fs, mean solve "
                "%.3fs, max latency %.3fs\n",
                report.meanQueueSeconds, report.meanSetupSeconds,
                report.meanSolveSeconds, report.maxLatencySeconds);
  }
}

void printCompare(const std::string& pathA, const obs::LoadedTrace& a,
                  const std::string& pathB, const obs::LoadedTrace& b,
                  const std::vector<double>& levels) {
  const AnytimeCurve curveA = obs::globalBestCurve(a);
  const AnytimeCurve curveB = obs::globalBestCurve(b);
  const std::int64_t bestA = curveA.empty() ? 0 : curveA.back().length;
  const std::int64_t bestB = curveB.empty() ? 0 : curveB.back().length;
  std::printf("A: %s (final best %lld, %zu improvements)\n", pathA.c_str(),
              static_cast<long long>(bestA), curveA.size());
  std::printf("B: %s (final best %lld, %zu improvements)\n\n", pathB.c_str(),
              static_cast<long long>(bestB), curveB.size());

  // Shared targets from the better final tour, so both runs chase the same
  // absolute quality (comparing times at run-relative targets would flatter
  // the weaker run).
  const std::int64_t reference = std::min(bestA, bestB);
  Table table({"level", "target", "time-A", "time-B"});
  for (const double level : levels) {
    const auto target = static_cast<std::int64_t>(
        std::ceil(double(reference) * (1.0 + level)));
    table.addRow({fmtPct(level, 1), std::to_string(target),
                  fmtReach(timeToReach(curveA, target)),
                  fmtReach(timeToReach(curveB, target))});
  }
  table.print(std::cout);
}

/// Reports skipped lines (to stderr) and converts them into a failing exit
/// status: a truncated or garbled trace must not pass silently.
int finishWithBadLineCheck(const std::string& path,
                           const obs::LoadedTrace& trace) {
  if (trace.badLines == 0) return 0;
  for (const std::string& p : trace.problems)
    std::fprintf(stderr, "%s: %s\n", path.c_str(), p.c_str());
  std::fprintf(stderr, "%s: %d bad line%s skipped (trace truncated or "
               "garbled)\n",
               path.c_str(), trace.badLines, trace.badLines == 1 ? "" : "s");
  return 1;
}

obs::LoadedTrace loadOrDie(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  return obs::loadTrace(in);
}

}  // namespace

int main(int argc, char** argv) {
  enum class View {
    kSummary,
    kPropagation,
    kProvenance,
    kConvergence,
    kCompare,
    kValidate,
    kJobs,
  };
  View view = View::kSummary;
  std::vector<std::string> paths;
  std::string levelSpec = "0.05,0.02,0.01,0.005,0";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--levels" && i + 1 < argc) {
      levelSpec = argv[++i];
    } else if (arg == "--propagation") {
      view = View::kPropagation;
    } else if (arg == "--provenance") {
      view = View::kProvenance;
    } else if (arg == "--convergence") {
      view = View::kConvergence;
    } else if (arg == "--compare") {
      view = View::kCompare;
    } else if (arg == "--validate") {
      view = View::kValidate;
    } else if (arg == "--jobs") {
      view = View::kJobs;
    } else if (!arg.empty() && arg[0] != '-') {
      paths.push_back(arg);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 1;
    }
  }
  const std::size_t wantPaths = view == View::kCompare ? 2u : 1u;
  if (paths.size() != wantPaths) {
    std::fprintf(stderr,
                 "usage: trace_report RUN.jsonl [--propagation | --provenance"
                 " | --convergence | --validate | --jobs]"
                 " [--levels 0.05,...]\n"
                 "       trace_report --compare A.jsonl B.jsonl\n");
    return 1;
  }
  const std::vector<double> levels = obs::parseLevels(levelSpec);

  if (view == View::kValidate) {
    std::ifstream in(paths[0]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", paths[0].c_str());
      return 1;
    }
    const obs::ValidationResult result = obs::validateTrace(in);
    if (result.ok()) {
      std::printf("%s: OK (%d records, schema and causal invariants hold)\n",
                  paths[0].c_str(), result.records);
      return 0;
    }
    for (const std::string& p : result.problems)
      std::fprintf(stderr, "%s: %s\n", paths[0].c_str(), p.c_str());
    std::fprintf(stderr, "%s: INVALID (%d records, %d bad lines, %zu "
                 "problems)\n",
                 paths[0].c_str(), result.records, result.badLines,
                 result.problems.size());
    return 1;
  }

  if (view == View::kCompare) {
    const obs::LoadedTrace a = loadOrDie(paths[0]);
    const obs::LoadedTrace b = loadOrDie(paths[1]);
    printCompare(paths[0], a, paths[1], b, levels);
    const int rcA = finishWithBadLineCheck(paths[0], a);
    const int rcB = finishWithBadLineCheck(paths[1], b);
    return rcA != 0 ? rcA : rcB;
  }

  const obs::LoadedTrace trace = loadOrDie(paths[0]);
  if (trace.parsedLines == 0) {
    std::fprintf(stderr, "%s: no parseable records\n", paths[0].c_str());
    return 1;
  }
  switch (view) {
    case View::kPropagation: printPropagation(trace); break;
    case View::kProvenance: printProvenance(trace); break;
    case View::kConvergence: printConvergence(trace, levels); break;
    case View::kJobs: printJobs(trace); break;
    default: printSummary(trace, levels); break;
  }
  return finishWithBadLineCheck(paths[0], trace);
}
