// Tests for the trace analytics library (obs/report.h): loading with
// skip-and-count, causal propagation/provenance reconstruction, convergence
// lookups, and trace validation — run in-process against freshly captured
// churn fixtures on BOTH runtime substrates, exactly as tools/trace_report
// would consume them from disk.
#include "obs/report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>

#include "core/runtime.h"
#include "obs/trace_sink.h"
#include "tsp/gen.h"
#include "tsp/neighbors.h"

namespace distclk {
namespace {

/// One traced churn run (late join + injected failure) on the requested
/// substrate; returns the captured JSONL.
std::string capturedChurnTrace(RuntimeKind kind) {
  const Instance inst = uniformSquare("report-test", 120, 42);
  const CandidateLists cand(inst, 8);
  RunConfig cfg;
  cfg.runtime = kind;
  cfg.nodes = 8;
  cfg.node.clkKicksPerCall = 5;
  cfg.node.cr = 12;
  cfg.node.cv = 4;
  cfg.seed = 2026;
  if (kind == RuntimeKind::kSim) {
    cfg.costModel = CostModel::kModeled;
    cfg.modeledWorkPerSecond = 1e5;
    cfg.timeLimitPerNode = 6.0;
    cfg.joins = {{5, 0.4}};
    cfg.failures = {{2, 0.5}};
    cfg.metricsIntervalSeconds = 1.0;
  } else {
    cfg.timeLimitPerNode = 0.4;  // wall seconds: keep the suite fast
    cfg.joins = {{5, 0.05}};
    cfg.failures = {{2, 0.1}};
    cfg.metricsIntervalSeconds = 0.1;
  }
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  cfg.trace = &sink;
  runDistributed(inst, cand, cfg);
  return out.str();
}

obs::LoadedTrace load(const std::string& jsonl) {
  std::istringstream in(jsonl);
  return obs::loadTrace(in);
}

class ChurnTraces : public ::testing::TestWithParam<RuntimeKind> {};

INSTANTIATE_TEST_SUITE_P(BothRuntimes, ChurnTraces,
                         ::testing::Values(RuntimeKind::kSim,
                                           RuntimeKind::kThreads),
                         [](const auto& info) {
                           return std::string(toString(info.param));
                         });

TEST_P(ChurnTraces, ValidatesCleanUnderChurn) {
  const std::string jsonl = capturedChurnTrace(GetParam());
  std::istringstream in(jsonl);
  const obs::ValidationResult result = obs::validateTrace(in);
  EXPECT_TRUE(result.ok()) << (result.problems.empty()
                                   ? "bad lines or no records"
                                   : result.problems.front());
  EXPECT_EQ(result.badLines, 0);
  EXPECT_GT(result.records, 0);
}

TEST_P(ChurnTraces, PropagationReconstructsBroadcastTree) {
  const obs::LoadedTrace trace = load(capturedChurnTrace(GetParam()));
  EXPECT_EQ(trace.nodeCount(), 8);
  EXPECT_FALSE(trace.sent.empty());
  EXPECT_FALSE(trace.recv.empty());

  const std::vector<obs::PropagationSummary> summaries =
      obs::propagationSummaries(trace);
  ASSERT_FALSE(summaries.empty());
  const AnytimeCurve global = obs::globalBestCurve(trace);
  ASSERT_EQ(summaries.size(), global.size());
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const obs::PropagationSummary& s = summaries[i];
    EXPECT_EQ(s.len, global[i].length);
    EXPECT_GE(s.origin, 0);
    EXPECT_LT(s.origin, 8);
    EXPECT_EQ(s.total, 8);
    EXPECT_GE(s.reached, 1);  // at least the origin itself
    EXPECT_LE(s.reached, s.total);
    EXPECT_GE(s.maxHops, 0);
    EXPECT_LT(s.maxHops, 8);
    // Coverage percentiles are ordered where defined.
    if (s.t50 >= 0 && s.t90 >= 0) {
      EXPECT_LE(s.t50, s.t90);
    }
    if (s.t90 >= 0 && s.tFull >= 0) {
      EXPECT_LE(s.t90, s.tFull);
    }
    // Full coverage implies the percentiles exist.
    if (s.tFull >= 0) {
      EXPECT_EQ(s.reached, s.total);
      EXPECT_GE(s.t50, 0.0);
      EXPECT_GE(s.t90, 0.0);
    }
  }
  // The run's early improvements must actually spread past their origin —
  // that is the point of the broadcast layer (the last one may land too
  // close to the budget to travel).
  EXPECT_GT(summaries.front().reached, 1);
}

TEST_P(ChurnTraces, ProvenanceRowsAreConsistent) {
  const obs::LoadedTrace trace = load(capturedChurnTrace(GetParam()));
  const std::vector<obs::ProvenanceRow> rows = obs::provenanceRows(trace);
  ASSERT_FALSE(rows.empty());
  for (const obs::ProvenanceRow& row : rows) {
    EXPECT_GE(row.node, 0);
    EXPECT_LT(row.node, 8);
    EXPECT_GE(row.origin, 0);
    EXPECT_LT(row.origin, 8);
    EXPECT_GT(row.finalLen, 0);
    if (row.chainLen == 0) {
      // Self-made tour: the lineage is just the node itself.
      EXPECT_EQ(row.origin, row.node);
      EXPECT_EQ(row.chain, std::to_string(row.node));
    } else {
      // The chain string ends at the origin.
      const std::string tail = std::to_string(row.origin);
      ASSERT_GE(row.chain.size(), tail.size());
      EXPECT_EQ(row.chain.substr(row.chain.size() - tail.size()), tail);
    }
  }
}

TEST_P(ChurnTraces, ConvergenceTimesTightenMonotonically) {
  const obs::LoadedTrace trace = load(capturedChurnTrace(GetParam()));
  const std::vector<double> levels{0.05, 0.01, 0.0};
  const obs::ConvergenceReport report =
      obs::convergenceReport(trace, levels);
  ASSERT_TRUE(trace.runEnd.has_value());
  EXPECT_EQ(report.finalBest, trace.runEnd->integer("best_length"));
  ASSERT_EQ(report.globalTimes.size(), levels.size());
  // Tighter levels can only be reached later (times non-decreasing).
  for (std::size_t i = 1; i < levels.size(); ++i)
    EXPECT_LE(report.globalTimes[i - 1], report.globalTimes[i]);
  // The global curve reaches its own final best at a finite time.
  EXPECT_FALSE(std::isinf(report.globalTimes.back()));
  for (const auto& [node, times] : report.nodeTimes) {
    ASSERT_EQ(times.size(), levels.size());
    for (std::size_t i = 1; i < times.size(); ++i)
      EXPECT_LE(times[i - 1], times[i]);
  }
}

TEST_P(ChurnTraces, LkWorkCoversInitialAndEaPhases) {
  const obs::LoadedTrace trace = load(capturedChurnTrace(GetParam()));
  const std::optional<obs::LkWork> work = obs::lkWork(trace);
  ASSERT_TRUE(work.has_value());
  const obs::JsonValue* metrics = trace.lastMetrics->find("metrics");
  const obs::JsonValue* counters = metrics->find("counters");
  const obs::JsonValue* hists = metrics->find("histograms");
  EXPECT_GT(counters->num("node.initial_lk_flips"), 0.0);
  EXPECT_EQ(work->appliedFlips, counters->num("node.lk_flips") +
                                    counters->num("node.initial_lk_flips"));
  EXPECT_EQ(work->rewoundFlips,
            counters->num("node.lk_undone_flips") +
                counters->num("node.initial_lk_undone_flips"));
  EXPECT_DOUBLE_EQ(work->computeSeconds,
                   hists->find("node.compute_seconds")->num("sum") +
                       hists->find("node.initial_seconds")->num("sum"));
}

TEST(TraceReport, LkWorkCountsARunOfInitialStepsOnly) {
  // A budget that ends right after the initial step: no EA step runs, yet
  // the initial CLK calls did the work that their seconds measure.
  const Instance inst = uniformSquare("report-test", 120, 42);
  const CandidateLists cand(inst, 8);
  RunConfig cfg;
  cfg.nodes = 2;
  cfg.costModel = CostModel::kModeled;
  cfg.timeLimitPerNode = 1e-9;
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  cfg.trace = &sink;
  const RunResult res = runDistributed(inst, cand, cfg);
  ASSERT_EQ(res.totalSteps, cfg.nodes);
  const std::optional<obs::LkWork> work = obs::lkWork(load(out.str()));
  ASSERT_TRUE(work.has_value());
  EXPECT_GT(work->appliedFlips, 0.0);
  EXPECT_GT(work->computeSeconds, 0.0);
}

TEST(TraceReport, GarbledLinesAreCountedAndFailValidation) {
  std::string jsonl = capturedChurnTrace(RuntimeKind::kSim);
  jsonl += "this is not json\n";
  jsonl += "{\"type\":\"mystery-record\"}\n";
  jsonl += "{\"type\":\"event\",\"event\":\"not-an-event\"}\n";
  const obs::LoadedTrace trace = load(jsonl);
  EXPECT_EQ(trace.badLines, 3);
  EXPECT_EQ(static_cast<int>(trace.problems.size()), 3);
  std::istringstream in(jsonl);
  const obs::ValidationResult result = obs::validateTrace(in);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.badLines, 3);
}

TEST(TraceReport, TruncatedTraceStillLoadsWhatItCan) {
  const std::string jsonl = capturedChurnTrace(RuntimeKind::kSim);
  // Cut mid-line, as a killed process would: the partial tail line is
  // counted bad, everything before it loads. The cut lands a few bytes
  // into the line that spans the 2/3 mark, so it never falls on a line
  // boundary (which would leave no partial line at all).
  const std::size_t lineStart = jsonl.rfind('\n', jsonl.size() * 2 / 3) + 1;
  const std::string cut = jsonl.substr(0, lineStart + 5);
  const obs::LoadedTrace full = load(jsonl);
  const obs::LoadedTrace part = load(cut);
  EXPECT_EQ(part.badLines, 1);
  EXPECT_GT(part.parsedLines, 0);
  EXPECT_LT(part.parsedLines, full.parsedLines);
  // A truncated trace is missing run-end: validation must fail.
  std::istringstream in(cut);
  EXPECT_FALSE(obs::validateTrace(in).ok());
}

TEST(TraceReport, ValidateCatchesCausalViolations) {
  const auto validate = [](const std::string& jsonl) {
    std::istringstream in(jsonl);
    return obs::validateTrace(in);
  };
  const std::string meta =
      "{\"type\":\"run-meta\",\"nodes\":2}\n"
      "{\"type\":\"run-end\",\"best_length\":1}\n";

  // Receive without a matching send (sender, seq).
  const obs::ValidationResult orphan = validate(
      meta +
      "{\"type\":\"msg-recv\",\"t\":1,\"node\":0,\"from\":1,\"seq\":3,"
      "\"lamport\":5,\"recv_lamport\":6,\"len\":10}\n");
  EXPECT_FALSE(orphan.ok());

  // Lamport receive rule violated: recv stamp not past the send stamp.
  const obs::ValidationResult lamport = validate(
      meta +
      "{\"type\":\"msg-sent\",\"t\":1,\"node\":1,\"seq\":3,\"lamport\":5,"
      "\"len\":10,\"bytes\":37}\n"
      "{\"type\":\"msg-recv\",\"t\":2,\"node\":0,\"from\":1,\"seq\":3,"
      "\"lamport\":5,\"recv_lamport\":5,\"len\":10}\n");
  EXPECT_FALSE(lamport.ok());

  // Node id out of the run-meta range.
  const obs::ValidationResult range = validate(
      meta + "{\"type\":\"node-best\",\"t\":1,\"node\":7,\"len\":10,"
             "\"no_improve\":0}\n");
  EXPECT_FALSE(range.ok());

  // The same shape, consistent: passes.
  const obs::ValidationResult ok = validate(
      meta +
      "{\"type\":\"msg-sent\",\"t\":1,\"node\":1,\"seq\":3,\"lamport\":5,"
      "\"len\":10,\"bytes\":37}\n"
      "{\"type\":\"msg-recv\",\"t\":2,\"node\":0,\"from\":1,\"seq\":3,"
      "\"lamport\":5,\"recv_lamport\":6,\"len\":10}\n");
  EXPECT_TRUE(ok.ok()) << (ok.problems.empty() ? "?" : ok.problems.front());
}

// -----------------------------------------------------------------------
// Multi-run streams: a serve daemon appends one run bracket per job to a
// shared trace file; loading and validation must scope per run instead of
// assuming a single bracket.

TEST(TraceReportMultiRun, ConcatenatedRunsValidateCleanly) {
  // Two complete runs back to back — per-sender seq counters restart at
  // the second run-meta, which a single-run validator would misread as
  // duplicate sends.
  const std::string jsonl = capturedChurnTrace(RuntimeKind::kSim) +
                            capturedChurnTrace(RuntimeKind::kSim);
  const obs::LoadedTrace trace = load(jsonl);
  ASSERT_EQ(trace.runs.size(), 2u);
  EXPECT_TRUE(trace.runs[0].meta.has_value());
  EXPECT_TRUE(trace.runs[0].runEnd.has_value());
  EXPECT_TRUE(trace.runs[1].meta.has_value());
  EXPECT_TRUE(trace.runs[1].runEnd.has_value());
  EXPECT_EQ(trace.strayRunEnds, 0);
  // Messages are stamped with their enclosing run.
  ASSERT_FALSE(trace.sent.empty());
  EXPECT_EQ(trace.sent.front().run, 0);
  EXPECT_EQ(trace.sent.back().run, 1);

  std::istringstream in(jsonl);
  const obs::ValidationResult result = obs::validateTrace(in);
  EXPECT_TRUE(result.ok()) << (result.problems.empty()
                                   ? "bad lines or no records"
                                   : result.problems.front());
}

TEST(TraceReportMultiRun, LegacySingleRunViewIsFirstMetaLastEnd) {
  const std::string jsonl = capturedChurnTrace(RuntimeKind::kSim) +
                            capturedChurnTrace(RuntimeKind::kSim);
  const obs::LoadedTrace trace = load(jsonl);
  ASSERT_TRUE(trace.meta.has_value());
  ASSERT_TRUE(trace.runEnd.has_value());
  // meta is the FIRST run's, runEnd the LAST run's — the view concatenated
  // pre-multi-run traces always produced.
  EXPECT_EQ(trace.meta->integer("seed"),
            trace.runs[0].meta->integer("seed"));
  EXPECT_EQ(trace.runEnd->integer("best_length"),
            trace.runs[1].runEnd->integer("best_length"));
}

TEST(TraceReportMultiRun, UnterminatedRunBeforeNextBracketIsFlagged) {
  const obs::ValidationResult result = [] {
    std::istringstream in(
        "{\"type\":\"run-meta\",\"nodes\":2}\n"
        "{\"type\":\"run-meta\",\"nodes\":2}\n"
        "{\"type\":\"run-end\",\"best_length\":1}\n");
    return obs::validateTrace(in);
  }();
  EXPECT_FALSE(result.ok());
  ASSERT_FALSE(result.problems.empty());
  EXPECT_NE(result.problems.front().find("no run-end before run 1"),
            std::string::npos)
      << result.problems.front();
}

TEST(TraceReportMultiRun, TruncatedLastRunIsFlagged) {
  const obs::ValidationResult result = [] {
    std::istringstream in(
        "{\"type\":\"run-meta\",\"nodes\":2}\n"
        "{\"type\":\"run-end\",\"best_length\":1}\n"
        "{\"type\":\"run-meta\",\"nodes\":2}\n");
    return obs::validateTrace(in);
  }();
  EXPECT_FALSE(result.ok());
  ASSERT_FALSE(result.problems.empty());
  EXPECT_NE(result.problems.front().find("run 1 is missing its run-end"),
            std::string::npos)
      << result.problems.front();
}

TEST(TraceReportMultiRun, StrayRunEndIsFlagged) {
  const obs::ValidationResult result = [] {
    std::istringstream in(
        "{\"type\":\"run-end\",\"best_length\":1}\n"
        "{\"type\":\"run-meta\",\"nodes\":2}\n"
        "{\"type\":\"run-end\",\"best_length\":2}\n");
    return obs::validateTrace(in);
  }();
  EXPECT_FALSE(result.ok());
  ASSERT_FALSE(result.problems.empty());
  EXPECT_NE(result.problems.front().find("without a matching open run-meta"),
            std::string::npos)
      << result.problems.front();
}

TEST(TraceReportMultiRun, SingleRunMessagesKeepTheLegacyStrings) {
  // The exact single-run diagnostics are part of the tool's contract.
  {
    std::istringstream in("{\"type\":\"run-end\",\"best_length\":1}\n");
    const obs::ValidationResult r = obs::validateTrace(in);
    ASSERT_FALSE(r.problems.empty());
    EXPECT_EQ(r.problems.front(), "missing run-meta record");
  }
  {
    std::istringstream in("{\"type\":\"run-meta\",\"nodes\":2}\n");
    const obs::ValidationResult r = obs::validateTrace(in);
    ASSERT_FALSE(r.problems.empty());
    EXPECT_EQ(r.problems.front(), "missing run-end record");
  }
}

TEST(TraceReportMultiRun, CrossRunSeqReuseIsNotADuplicateButCrossRunRecvIs) {
  const std::string twoRuns =
      "{\"type\":\"run-meta\",\"nodes\":2}\n"
      "{\"type\":\"msg-sent\",\"t\":1,\"node\":0,\"seq\":1,\"lamport\":1,"
      "\"len\":5,\"bytes\":10}\n"
      "{\"type\":\"run-end\",\"best_length\":1}\n"
      "{\"type\":\"run-meta\",\"nodes\":2}\n"
      "{\"type\":\"msg-sent\",\"t\":1,\"node\":0,\"seq\":1,\"lamport\":1,"
      "\"len\":5,\"bytes\":10}\n";
  {
    // Same (node, seq) in two different runs: legal.
    std::istringstream in(twoRuns + "{\"type\":\"run-end\","
                                    "\"best_length\":1}\n");
    const obs::ValidationResult r = obs::validateTrace(in);
    EXPECT_TRUE(r.ok()) << (r.problems.empty() ? "?" : r.problems.front());
  }
  {
    // A receive in run 1 referencing a send that only exists in run 0 of a
    // DIFFERENT sender: the match must be scoped to the receive's own run.
    std::istringstream in(
        twoRuns +
        "{\"type\":\"msg-recv\",\"t\":2,\"node\":1,\"from\":0,\"seq\":2,"
        "\"lamport\":1,\"recv_lamport\":2,\"len\":5}\n"
        "{\"type\":\"run-end\",\"best_length\":1}\n");
    const obs::ValidationResult r = obs::validateTrace(in);
    EXPECT_FALSE(r.ok());  // seq 2 was never sent in run 1
  }
}

TEST(TraceReportMultiRun, JobRecordsLoadAndAggregate) {
  std::istringstream in(
      "{\"type\":\"run-meta\",\"nodes\":2,\"job\":\"a\"}\n"
      "{\"type\":\"run-end\",\"best_length\":100}\n"
      "{\"type\":\"job\",\"t\":1.5,\"id\":\"a\",\"state\":\"completed\","
      "\"priority\":2,\"best\":100,\"queue_seconds\":0.25,"
      "\"setup_seconds\":0.5,\"solve_seconds\":1.0,\"cache_hit\":false}\n"
      "{\"type\":\"run-meta\",\"nodes\":2,\"job\":\"b\"}\n"
      "{\"type\":\"run-end\",\"best_length\":90}\n"
      "{\"type\":\"job\",\"t\":2.5,\"id\":\"b\",\"state\":\"completed\","
      "\"priority\":0,\"best\":90,\"queue_seconds\":0.75,"
      "\"setup_seconds\":0.5,\"solve_seconds\":1.0,\"cache_hit\":true}\n"
      "{\"type\":\"job\",\"t\":2.6,\"id\":\"c\",\"state\":\"cancelled\","
      "\"priority\":0,\"best\":0,\"queue_seconds\":9.0,"
      "\"setup_seconds\":0,\"solve_seconds\":0,\"cache_hit\":false}\n");
  const obs::LoadedTrace trace = obs::loadTrace(in);
  ASSERT_EQ(trace.jobs.size(), 3u);
  EXPECT_EQ(trace.jobs[0].id, "a");
  EXPECT_EQ(trace.jobs[0].priority, 2);
  EXPECT_FALSE(trace.jobs[0].cacheHit);
  EXPECT_TRUE(trace.jobs[1].cacheHit);
  EXPECT_EQ(trace.runs.size(), 2u);
  EXPECT_EQ(trace.runs[1].meta->str("job"), "b");

  const obs::JobsReport report = obs::jobsReport(trace);
  EXPECT_EQ(report.total, 3);
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.cancelled, 1);
  EXPECT_EQ(report.expired, 0);
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.cacheHits, 1);
  // Aggregates cover completed jobs only — the cancelled job's 9s queue
  // wait must not leak into the SLO means.
  EXPECT_DOUBLE_EQ(report.meanQueueSeconds, 0.5);
  EXPECT_DOUBLE_EQ(report.meanSetupSeconds, 0.5);
  EXPECT_DOUBLE_EQ(report.meanSolveSeconds, 1.0);
  EXPECT_DOUBLE_EQ(report.maxLatencySeconds, 2.25);
}

TEST(TraceReport, ParseLevelsSplitsFractions) {
  const std::vector<double> levels = obs::parseLevels("0.05,0.01,0");
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_DOUBLE_EQ(levels[0], 0.05);
  EXPECT_DOUBLE_EQ(levels[1], 0.01);
  EXPECT_DOUBLE_EQ(levels[2], 0.0);
}

}  // namespace
}  // namespace distclk
