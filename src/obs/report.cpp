#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

namespace distclk::obs {

namespace {

constexpr std::size_t kMaxProblems = 20;

void addProblem(std::vector<std::string>& problems, std::string msg) {
  if (problems.size() < kMaxProblems) {
    problems.push_back(std::move(msg));
  } else if (problems.size() == kMaxProblems) {
    problems.push_back("... further problems suppressed");
  }
}

bool carriesLength(NodeEventType t) noexcept {
  return t == NodeEventType::kInitialTour ||
         t == NodeEventType::kImprovement ||
         t == NodeEventType::kBroadcastSent ||
         t == NodeEventType::kTourReceived;
}

/// One step of a node's local best-length timeline, annotated with how the
/// value arrived (locally vs via an adopted broadcast) for hop analysis.
struct CoverEntry {
  double t = 0.0;
  std::int64_t len = 0;
  bool viaReceive = false;
  int from = -1;  ///< adopting sender when known, else -1
};

/// Per-node timelines of best-length changes, time-sorted. Receive entries
/// are annotated with the sender from the matching adopt record (a node's
/// best strictly decreases on adoption, so (node, len) identifies it).
std::map<int, std::vector<CoverEntry>> coverTimelines(
    const LoadedTrace& trace) {
  std::map<std::pair<int, std::int64_t>, int> adoptSender;
  for (const TraceAdopt& a : trace.adopts) {
    adoptSender.emplace(std::pair<int, std::int64_t>{a.node, a.len}, a.from);
  }
  std::map<int, std::vector<CoverEntry>> timelines;
  for (const NodeEvent& e : trace.events) {
    if (!carriesLength(e.type)) continue;
    CoverEntry entry{e.time, e.value, e.type == NodeEventType::kTourReceived,
                     -1};
    if (entry.viaReceive) {
      const auto it = adoptSender.find({e.node, e.value});
      if (it != adoptSender.end()) entry.from = it->second;
    }
    timelines[e.node].push_back(entry);
  }
  for (const TraceNodeBest& s : trace.series) {
    timelines[s.node].push_back(CoverEntry{s.t, s.len, false, -1});
  }
  for (auto& [node, entries] : timelines) {
    (void)node;
    std::stable_sort(entries.begin(), entries.end(),
                     [](const CoverEntry& a, const CoverEntry& b) {
                       if (a.t != b.t) return a.t < b.t;
                       return a.len > b.len;
                     });
  }
  return timelines;
}

/// First time the timeline reaches length <= target; nullopt when never.
std::optional<CoverEntry> firstAtOrBelow(const std::vector<CoverEntry>& tl,
                                         std::int64_t target) {
  for (const CoverEntry& e : tl) {
    if (e.len <= target) return e;
  }
  return std::nullopt;
}

}  // namespace

int LoadedTrace::nodeCount() const {
  if (meta.has_value()) {
    const std::int64_t n = meta->integer("nodes");
    if (n > 0) return static_cast<int>(n);
  }
  int maxNode = -1;
  for (const NodeEvent& e : events) maxNode = std::max(maxNode, e.node);
  for (const TraceMsgSent& s : sent) maxNode = std::max(maxNode, s.node);
  for (const TraceMsgRecv& r : recv) {
    maxNode = std::max(maxNode, std::max(r.node, r.from));
  }
  for (const TraceAdopt& a : adopts) {
    maxNode = std::max(maxNode, std::max(a.node, a.from));
  }
  for (const TraceNodeBest& s : series) maxNode = std::max(maxNode, s.node);
  return maxNode + 1;
}

LoadedTrace loadTrace(std::istream& in) {
  LoadedTrace trace;
  std::string line;
  std::int64_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    JsonValue v;
    try {
      v = parseJson(line);
    } catch (const std::exception& e) {
      ++trace.badLines;
      addProblem(trace.problems, "line " + std::to_string(lineNo) +
                                     ": unparseable JSON (" + e.what() + ")");
      continue;
    }
    if (!v.isObject()) {
      ++trace.badLines;
      addProblem(trace.problems,
                 "line " + std::to_string(lineNo) + ": not a JSON object");
      continue;
    }
    const std::string type = v.str("type");
    // Index of the run bracket currently open; new message records are
    // stamped with it so validation can scope causality per run.
    const int curRun = static_cast<int>(trace.runs.size()) - 1;
    if (type == "run-meta") {
      if (!trace.meta.has_value()) trace.meta = v;
      trace.runs.push_back(TraceRun{});
      trace.runs.back().meta = std::move(v);
    } else if (type == "run-end") {
      if (!trace.runs.empty() && !trace.runs.back().runEnd.has_value()) {
        trace.runs.back().runEnd = v;
      } else {
        ++trace.strayRunEnds;
      }
      trace.runEnd = std::move(v);
    } else if (type == "metrics") {
      trace.lastMetrics = std::move(v);
    } else if (type == "event") {
      const std::string name = v.str("event");
      const std::optional<NodeEventType> et = nodeEventTypeFromString(name);
      if (!et.has_value()) {
        ++trace.badLines;
        addProblem(trace.problems, "line " + std::to_string(lineNo) +
                                       ": unknown event type \"" + name +
                                       "\"");
        continue;
      }
      trace.events.push_back(NodeEvent{
          v.num("t"), static_cast<int>(v.integer("node", -1)), *et,
          v.integer("value")});
    } else if (type == "msg-sent") {
      trace.sent.push_back(TraceMsgSent{
          v.num("t"), static_cast<int>(v.integer("node", -1)),
          static_cast<std::uint64_t>(v.integer("seq")),
          static_cast<std::uint64_t>(v.integer("lamport")), v.integer("len"),
          v.integer("bytes"), curRun});
    } else if (type == "msg-recv") {
      trace.recv.push_back(TraceMsgRecv{
          v.num("t"), static_cast<int>(v.integer("node", -1)),
          static_cast<int>(v.integer("from", -1)),
          static_cast<std::uint64_t>(v.integer("seq")),
          static_cast<std::uint64_t>(v.integer("lamport")),
          static_cast<std::uint64_t>(v.integer("recv_lamport")),
          v.integer("len"), curRun});
    } else if (type == "adopt") {
      trace.adopts.push_back(TraceAdopt{
          v.num("t"), static_cast<int>(v.integer("node", -1)),
          static_cast<int>(v.integer("from", -1)), v.integer("len")});
    } else if (type == "node-best") {
      trace.series.push_back(TraceNodeBest{
          v.num("t"), static_cast<int>(v.integer("node", -1)),
          v.integer("len"), v.integer("no_improve")});
    } else if (type == "job") {
      const JsonValue* hit = v.find("cache_hit");
      trace.jobs.push_back(TraceJob{
          v.num("t"), v.str("id"), v.str("state"),
          static_cast<int>(v.integer("priority")), v.integer("best"),
          v.num("queue_seconds"), v.num("setup_seconds"),
          v.num("solve_seconds"),
          hit != nullptr && hit->kind == JsonValue::Kind::kBool &&
              hit->boolean,
          v.num("prep_kdtree_ms"), v.num("prep_cand_ms"),
          v.num("prep_construct_ms")});
    } else {
      ++trace.badLines;
      addProblem(trace.problems, "line " + std::to_string(lineNo) +
                                     ": unknown record type \"" + type +
                                     "\"");
      continue;
    }
    ++trace.parsedLines;
  }
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const NodeEvent& a, const NodeEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.node < b.node;
                   });
  return trace;
}

AnytimeCurve globalBestCurve(const LoadedTrace& trace) {
  AnytimeCurve curve;
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (const NodeEvent& e : trace.events) {
    if (!carriesLength(e.type)) continue;
    if (e.value < best) {
      best = e.value;
      curve.push_back(AnytimePoint{e.time, best});
    }
  }
  return curve;
}

std::map<int, AnytimeCurve> nodeBestCurves(const LoadedTrace& trace) {
  std::map<int, AnytimeCurve> curves;
  for (const auto& [node, timeline] : coverTimelines(trace)) {
    AnytimeCurve& curve = curves[node];
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (const CoverEntry& e : timeline) {
      if (e.len < best) {
        best = e.len;
        curve.push_back(AnytimePoint{e.t, best});
      }
    }
  }
  return curves;
}

std::vector<PropagationSummary> propagationSummaries(
    const LoadedTrace& trace) {
  const int total = trace.nodeCount();
  const std::map<int, std::vector<CoverEntry>> timelines =
      coverTimelines(trace);

  // Global improvements, each tagged with the node whose event set it.
  struct Improvement {
    double t0;
    std::int64_t len;
    int origin;
  };
  std::vector<Improvement> improvements;
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (const NodeEvent& e : trace.events) {
    if (!carriesLength(e.type)) continue;
    if (e.value < best) {
      best = e.value;
      improvements.push_back(Improvement{e.time, best, e.node});
    }
  }

  std::vector<PropagationSummary> out;
  out.reserve(improvements.size());
  for (const Improvement& imp : improvements) {
    PropagationSummary s;
    s.len = imp.len;
    s.origin = imp.origin;
    s.t0 = imp.t0;
    s.total = total;

    // Coverage: for every node, the first timeline step at or below the
    // improvement's length (the value may arrive via an even better tour).
    struct Covered {
      int node;
      CoverEntry entry;
    };
    std::vector<Covered> covered;
    for (const auto& [node, timeline] : timelines) {
      const std::optional<CoverEntry> entry =
          firstAtOrBelow(timeline, imp.len);
      if (entry.has_value()) covered.push_back(Covered{node, *entry});
    }
    std::sort(covered.begin(), covered.end(),
              [](const Covered& a, const Covered& b) {
                if (a.entry.t != b.entry.t) return a.entry.t < b.entry.t;
                return a.node < b.node;
              });

    // Hop depth in coverage order: the origin (and any independent local
    // discovery) is depth 0; a node covered by an adopted tour sits one
    // past its sender; an adopted tour with unknown sender counts as 1.
    std::map<int, int> hops;
    for (const Covered& c : covered) {
      int hop = 0;
      if (c.node == s.origin) {
        hop = 0;
      } else if (c.entry.viaReceive) {
        const auto it =
            c.entry.from >= 0 ? hops.find(c.entry.from) : hops.end();
        hop = it != hops.end() ? it->second + 1 : 1;
      }
      hops[c.node] = hop;
      s.maxHops = std::max(s.maxHops, hop);
    }

    s.reached = static_cast<int>(covered.size());
    const auto latencyAt = [&](double fraction) -> double {
      const int k = static_cast<int>(
          std::ceil(fraction * static_cast<double>(total)));
      if (k <= 0 || s.reached < k) return -1.0;
      return covered[static_cast<std::size_t>(k - 1)].entry.t - imp.t0;
    };
    s.t50 = latencyAt(0.5);
    s.t90 = latencyAt(0.9);
    s.tFull = s.reached == total && !covered.empty()
                  ? covered.back().entry.t - imp.t0
                  : -1.0;
    out.push_back(s);
  }
  return out;
}

std::vector<ProvenanceRow> provenanceRows(const LoadedTrace& trace) {
  // Adoptions per node, time-sorted, for the backwards lineage walk.
  std::map<int, std::vector<const TraceAdopt*>> byNode;
  for (const TraceAdopt& a : trace.adopts) byNode[a.node].push_back(&a);
  for (auto& [node, list] : byNode) {
    (void)node;
    std::stable_sort(list.begin(), list.end(),
                     [](const TraceAdopt* a, const TraceAdopt* b) {
                       return a->t < b->t;
                     });
  }
  // The last adoption of `node` strictly before `t`; nullptr when none.
  const auto lastAdoptBefore = [&](int node, double t) -> const TraceAdopt* {
    const auto it = byNode.find(node);
    if (it == byNode.end()) return nullptr;
    const TraceAdopt* found = nullptr;
    for (const TraceAdopt* a : it->second) {
      if (a->t >= t) break;
      found = a;
    }
    return found;
  };

  std::vector<ProvenanceRow> rows;
  for (const auto& [node, curve] : nodeBestCurves(trace)) {
    ProvenanceRow row;
    row.node = node;
    row.finalLen = curve.empty() ? 0 : curve.back().length;
    row.chain = std::to_string(node);
    // Walk adoption edges back in time. The sender's relevant adoption
    // strictly precedes the receive (transport latency > 0), so the time
    // cursor strictly decreases and the walk terminates.
    int cur = node;
    double cursor = std::numeric_limits<double>::infinity();
    while (true) {
      const TraceAdopt* a = lastAdoptBefore(cur, cursor);
      if (a == nullptr || a->from < 0) break;
      row.chain += " <- " + std::to_string(a->from);
      ++row.chainLen;
      cur = a->from;
      cursor = a->t;
    }
    row.origin = cur;
    rows.push_back(std::move(row));
  }
  return rows;
}

ConvergenceReport convergenceReport(const LoadedTrace& trace,
                                    const std::vector<double>& levels) {
  ConvergenceReport report;
  report.levels = levels;

  const AnytimeCurve global = globalBestCurve(trace);
  if (trace.runEnd.has_value()) {
    report.finalBest = trace.runEnd->integer("best_length");
  } else if (!global.empty()) {
    report.finalBest = global.back().length;
  }

  const auto threshold = [&](double level) {
    return static_cast<std::int64_t>(std::floor(
        static_cast<double>(report.finalBest) * (1.0 + level) + 1e-9));
  };
  for (const double level : levels) {
    report.globalTimes.push_back(timeToReach(global, threshold(level)));
  }
  for (const auto& [node, curve] : nodeBestCurves(trace)) {
    std::vector<double>& times = report.nodeTimes[node];
    times.reserve(levels.size());
    for (const double level : levels) {
      times.push_back(timeToReach(curve, threshold(level)));
    }
  }
  for (const NodeEvent& e : trace.events) {
    if (e.type != NodeEventType::kStall) continue;
    report.stalls.push_back(ConvergenceReport::Stall{
        e.time, e.node, static_cast<double>(e.value) * 1e-3});
  }
  return report;
}

ValidationResult validateTrace(std::istream& in) {
  const LoadedTrace trace = loadTrace(in);
  ValidationResult result;
  result.records = trace.parsedLines;
  result.badLines = trace.badLines;
  result.problems = trace.problems;

  // Bracketing, per run: every run-meta must be closed by a run-end before
  // the next run-meta opens (a serve daemon appends one bracket per job).
  const int runCount = static_cast<int>(trace.runs.size());
  if (runCount == 0) {
    addProblem(result.problems, "missing run-meta record");
  }
  for (int i = 0; i < runCount; ++i) {
    if (trace.runs[static_cast<std::size_t>(i)].runEnd.has_value()) continue;
    if (runCount == 1) {
      addProblem(result.problems, "missing run-end record");
    } else if (i + 1 < runCount) {
      std::ostringstream os;
      os << "run " << i << " has no run-end before run " << i + 1
         << "'s run-meta opens";
      addProblem(result.problems, os.str());
    } else {
      std::ostringstream os;
      os << "run " << i << " is missing its run-end record";
      addProblem(result.problems, os.str());
    }
  }
  if (trace.strayRunEnds > 0) {
    std::ostringstream os;
    os << trace.strayRunEnds
       << " run-end record(s) without a matching open run-meta";
    addProblem(result.problems, os.str());
  }

  // Node-id range: the widest cluster any run declares (jobs in one stream
  // may use different node counts), else the observed maximum.
  int nodes = 0;
  for (const TraceRun& run : trace.runs) {
    if (run.meta.has_value()) {
      nodes = std::max(nodes, static_cast<int>(run.meta->integer("nodes")));
    }
  }
  if (nodes <= 0) nodes = trace.nodeCount();
  const auto checkNode = [&](int node, const char* what) {
    if (node < 0 || node >= nodes) {
      std::ostringstream os;
      os << what << " references node " << node << " outside [0, " << nodes
         << ")";
      addProblem(result.problems, os.str());
    }
  };
  for (const NodeEvent& e : trace.events) checkNode(e.node, "event");
  for (const TraceNodeBest& s : trace.series) checkNode(s.node, "node-best");
  for (const TraceAdopt& a : trace.adopts) {
    checkNode(a.node, "adopt");
    checkNode(a.from, "adopt.from");
  }

  // Causal invariants of the v3 stamps, scoped to the enclosing run (the
  // per-sender seq counters restart with every run bracket): per-run
  // (node, seq) pairs are unique, every receive matches a send emitted in
  // the same run, and the Lamport receive rule ran (receiver's time
  // strictly exceeds the sender stamp).
  std::set<std::tuple<int, int, std::uint64_t>> sentKeys;
  for (const TraceMsgSent& s : trace.sent) {
    checkNode(s.node, "msg-sent");
    if (!sentKeys.insert({s.run, s.node, s.seq}).second) {
      std::ostringstream os;
      os << "duplicate msg-sent seq " << s.seq << " from node " << s.node;
      if (runCount > 1) os << " in run " << s.run;
      addProblem(result.problems, os.str());
    }
  }
  for (const TraceMsgRecv& r : trace.recv) {
    checkNode(r.node, "msg-recv");
    checkNode(r.from, "msg-recv.from");
    if (sentKeys.find({r.run, r.from, r.seq}) == sentKeys.end()) {
      std::ostringstream os;
      os << "msg-recv at node " << r.node << " (from " << r.from << ", seq "
         << r.seq << ") has no matching msg-sent";
      if (runCount > 1) os << " in run " << r.run;
      addProblem(result.problems, os.str());
    }
    if (r.recvLamport <= r.lamport) {
      std::ostringstream os;
      os << "Lamport receive rule violated at node " << r.node << ": recv "
         << r.recvLamport << " <= send stamp " << r.lamport;
      addProblem(result.problems, os.str());
    }
  }
  return result;
}

JobsReport jobsReport(const LoadedTrace& trace) {
  JobsReport report;
  report.total = static_cast<int>(trace.jobs.size());
  double queueSum = 0.0;
  double setupSum = 0.0;
  double solveSum = 0.0;
  for (const TraceJob& j : trace.jobs) {
    if (j.state == "completed") {
      ++report.completed;
    } else if (j.state == "cancelled") {
      ++report.cancelled;
    } else if (j.state == "expired") {
      ++report.expired;
    } else if (j.state == "failed") {
      ++report.failed;
    }
    if (j.cacheHit) ++report.cacheHits;
    if (j.state != "completed") continue;
    queueSum += j.queueSeconds;
    setupSum += j.setupSeconds;
    solveSum += j.solveSeconds;
    report.maxLatencySeconds =
        std::max(report.maxLatencySeconds,
                 j.queueSeconds + j.setupSeconds + j.solveSeconds);
  }
  if (report.completed > 0) {
    const double inv = 1.0 / static_cast<double>(report.completed);
    report.meanQueueSeconds = queueSum * inv;
    report.meanSetupSeconds = setupSum * inv;
    report.meanSolveSeconds = solveSum * inv;
  }
  return report;
}

std::optional<LkWork> lkWork(const LoadedTrace& trace) {
  if (!trace.lastMetrics) return std::nullopt;
  const JsonValue* metrics = trace.lastMetrics->find("metrics");
  const JsonValue* counters =
      metrics != nullptr ? metrics->find("counters") : nullptr;
  if (counters == nullptr || counters->find("node.lk_flips") == nullptr)
    return std::nullopt;
  const auto counter = [&](const char* name) {
    const JsonValue* c = counters->find(name);
    return c != nullptr ? c->number : 0.0;
  };
  LkWork work;
  work.appliedFlips =
      counter("node.lk_flips") + counter("node.initial_lk_flips");
  work.rewoundFlips = counter("node.lk_undone_flips") +
                      counter("node.initial_lk_undone_flips");
  if (const JsonValue* h = metrics->find("histograms"))
    for (const char* name : {"node.compute_seconds", "node.initial_seconds"})
      if (const JsonValue* hist = h->find(name))
        work.computeSeconds += hist->num("sum");
  return work;
}

std::vector<double> parseLevels(const std::string& spec) {
  std::vector<double> levels;
  std::istringstream is(spec);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (item.empty()) continue;
    levels.push_back(std::stod(item));
  }
  return levels;
}

}  // namespace distclk::obs
