#include "obs/trace_sink.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>

#include "core/runtime.h"
#include "obs/json.h"
#include "tsp/gen.h"
#include "tsp/neighbors.h"

namespace distclk {
namespace {

using obs::JsonValue;
using obs::parseJson;

TEST(Json, EscapeRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  const std::string doc = "{\"k\":\"" + obs::jsonEscape(nasty) + "\"}";
  const JsonValue v = parseJson(doc);
  EXPECT_EQ(v.str("k"), nasty);
}

TEST(Json, ParsesScalarsArraysObjects) {
  const JsonValue v = parseJson(
      R"({"i":42,"f":-1.5e2,"s":"x","b":true,"n":null,"a":[1,2,3],"o":{"k":1}})");
  EXPECT_EQ(v.integer("i"), 42);
  EXPECT_DOUBLE_EQ(v.num("f"), -150.0);
  EXPECT_EQ(v.str("s"), "x");
  ASSERT_NE(v.find("b"), nullptr);
  EXPECT_TRUE(v.find("b")->boolean);
  EXPECT_EQ(v.find("n")->kind, JsonValue::Kind::kNull);
  ASSERT_TRUE(v.find("a")->isArray());
  EXPECT_EQ(v.find("a")->array.size(), 3u);
  EXPECT_EQ(v.find("o")->integer("k"), 1);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parseJson("{"), std::runtime_error);
  EXPECT_THROW(parseJson("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(parseJson("[1,2"), std::runtime_error);
  EXPECT_THROW(parseJson("{} trailing"), std::runtime_error);
  EXPECT_THROW(parseJson("\"unterminated"), std::runtime_error);
}

TEST(Json, ObjectBuilderEmitsStableOrder) {
  const std::string doc = obs::JsonObject()
                              .field("b", 1)
                              .field("a", "x")
                              .field("t", true)
                              .raw("nested", "[1,2]")
                              .str();
  EXPECT_EQ(doc, R"({"b":1,"a":"x","t":true,"nested":[1,2]})");
  EXPECT_NO_THROW(parseJson(doc));
}

TEST(TraceSink, JsonlLinesAreParseable) {
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  sink.write(obs::eventRecord({1.5, 3, NodeEventType::kImprovement, 4242}));
  sink.write(obs::runEndRecord(2.0, 4242, false, 10, 4));
  sink.flush();
  EXPECT_EQ(sink.linesWritten(), 2);
  std::istringstream in(out.str());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NO_THROW(parseJson(line)) << line;
  }
  EXPECT_EQ(lines, 2);
}

TEST(TraceSink, EventRecordRoundTrips) {
  const NodeEvent ev{0.25, 5, NodeEventType::kBroadcastSent, 1234};
  const JsonValue v = parseJson(obs::eventRecord(ev));
  EXPECT_EQ(v.str("type"), "event");
  EXPECT_DOUBLE_EQ(v.num("t"), 0.25);
  EXPECT_EQ(v.integer("node"), 5);
  EXPECT_EQ(nodeEventTypeFromString(v.str("event")),
            NodeEventType::kBroadcastSent);
  EXPECT_EQ(v.integer("value"), 1234);
}

TEST(TraceSink, RunMetaCarriesVersionAndParams) {
  obs::RunMeta meta;
  meta.instance = "uniform-100";
  meta.n = 100;
  meta.algorithm = "dist-sim";
  meta.nodes = 8;
  meta.topology = "hypercube";
  meta.seed = 7;
  meta.cv = 64;
  meta.cr = 256;
  meta.kick = "Random-walk";
  meta.timeLimitPerNode = 0.5;
  meta.clock = "virtual";
  const JsonValue v = parseJson(obs::runMetaRecord(meta));
  EXPECT_EQ(v.str("type"), "run-meta");
  EXPECT_EQ(v.integer("nodes"), 8);
  EXPECT_EQ(v.integer("cv"), 64);
  EXPECT_EQ(v.str("clock"), "virtual");
  EXPECT_FALSE(v.str("git").empty());
}

TEST(TraceSink, CausalRecordBuildersRoundTrip) {
  const JsonValue sent = parseJson(obs::msgSentRecord(1.5, 3, 7, 42, 999, 61));
  EXPECT_EQ(sent.str("type"), "msg-sent");
  EXPECT_EQ(sent.integer("node"), 3);
  EXPECT_EQ(sent.integer("seq"), 7);
  EXPECT_EQ(sent.integer("lamport"), 42);
  EXPECT_EQ(sent.integer("len"), 999);
  EXPECT_EQ(sent.integer("bytes"), 61);

  const JsonValue recv =
      parseJson(obs::msgRecvRecord(1.6, 1, 3, 7, 42, 43, 999));
  EXPECT_EQ(recv.str("type"), "msg-recv");
  EXPECT_EQ(recv.integer("from"), 3);
  EXPECT_EQ(recv.integer("seq"), 7);
  EXPECT_EQ(recv.integer("lamport"), 42);
  EXPECT_EQ(recv.integer("recv_lamport"), 43);

  const JsonValue adopt = parseJson(obs::adoptRecord(1.6, 1, 3, 999));
  EXPECT_EQ(adopt.str("type"), "adopt");
  EXPECT_EQ(adopt.integer("node"), 1);
  EXPECT_EQ(adopt.integer("from"), 3);

  const JsonValue best = parseJson(obs::nodeBestRecord(2.0, 1, 990, 4));
  EXPECT_EQ(best.str("type"), "node-best");
  EXPECT_EQ(best.integer("len"), 990);
  EXPECT_EQ(best.integer("no_improve"), 4);
}

TEST(TraceSink, FlushIntervalAndTerminationFlushKeepFileCurrent) {
  const std::string path = ::testing::TempDir() + "/flush_test.jsonl";
  const auto fileContents = [&path] {
    std::ifstream is(path);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
  };
  obs::JsonlTraceSink sink(path);
  // With a (tiny) flush interval, every write lands on disk immediately —
  // no explicit flush() needed.
  sink.setFlushIntervalSeconds(1e-9);
  sink.write(R"({"type":"event"})");
  EXPECT_NE(fileContents().find("\"type\":\"event\""), std::string::npos);
  // The abnormal-termination path flushes registered file sinks.
  sink.setFlushIntervalSeconds(0.0);
  sink.write(R"({"type":"run-end"})");
  obs::flushAllTraceSinks();
  EXPECT_NE(fileContents().find("\"type\":\"run-end\""), std::string::npos);
  EXPECT_EQ(sink.linesWritten(), 2);
}

TEST(TraceSink, SignalHandlerOnlyRecordsTheSignal) {
  // The SIGTERM/SIGINT handler must be async-signal-safe: it records the
  // signal in an atomic and returns — no registry mutex, no stream I/O.
  // Creating a file-backed sink installs the handler.
  const std::string path = ::testing::TempDir() + "/signal_record.jsonl";
  obs::JsonlTraceSink sink(path);
  obs::clearPendingTraceSignal();
  ASSERT_EQ(obs::pendingTraceSignal(), 0);
  std::raise(SIGTERM);
  // Still alive: the handler deferred everything to normal context.
  EXPECT_EQ(obs::pendingTraceSignal(), SIGTERM);
  obs::clearPendingTraceSignal();
  EXPECT_EQ(obs::pendingTraceSignal(), 0);
}

TEST(TraceSinkDeath, FlushesBufferedLinesBeforeSignalDeath) {
  const std::string path = ::testing::TempDir() + "/signal_flush.jsonl";
  // Child: buffer a line, take the signal, write once more. The write's
  // pending-signal service must flush BOTH lines, then re-raise SIGTERM
  // with the default action (killed-by-signal exit).
  EXPECT_EXIT(
      {
        obs::JsonlTraceSink sink(path);
        obs::clearPendingTraceSignal();
        sink.write(R"({"type":"before-signal"})");
        std::raise(SIGTERM);
        sink.write(R"({"type":"after-signal"})");
        // Unreachable: the write above services the signal and dies.
        std::_Exit(0);
      },
      ::testing::KilledBySignal(SIGTERM), "");
  std::ifstream is(path);
  const std::string contents{std::istreambuf_iterator<char>(is),
                             std::istreambuf_iterator<char>()};
  EXPECT_NE(contents.find("\"type\":\"before-signal\""), std::string::npos);
  EXPECT_NE(contents.find("\"type\":\"after-signal\""), std::string::npos);
}

TEST(TraceSinkDeath, SecondSignalBeforeServiceDiesImmediately) {
  // Escape hatch: if the process never reaches a service point (wedged
  // run), a second delivery restores the default action and re-raises from
  // inside the handler.
  EXPECT_EXIT(
      {
        const std::string path =
            ::testing::TempDir() + "/signal_second.jsonl";
        obs::JsonlTraceSink sink(path);
        obs::clearPendingTraceSignal();
        std::raise(SIGTERM);  // recorded, deferred
        std::raise(SIGTERM);  // second delivery: immediate default action
        std::_Exit(0);        // unreachable
      },
      ::testing::KilledBySignal(SIGTERM), "");
}

class TracedRuns : public ::testing::Test {
 protected:
  TracedRuns()
      : inst_(uniformSquare("trace-test", 120, 5)), cand_(inst_, 8) {}

  RunConfig simOptions() const {
    RunConfig opt;
    opt.nodes = 4;
    opt.costModel = CostModel::kModeled;
    opt.modeledWorkPerSecond = 1e6;
    opt.node.clkKicksPerCall = 10;
    opt.node.cr = 8;  // force restarts so the trace has kRestart records
    opt.timeLimitPerNode = 0.5;
    opt.seed = 99;
    return opt;
  }

  Instance inst_;
  CandidateLists cand_;
};

TEST_F(TracedRuns, SimulatedTraceIsCompleteAndParseable) {
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  RunConfig opt = simOptions();
  opt.trace = &sink;
  opt.metricsIntervalSeconds = 0.1;
  const RunResult res = runDistributed(inst_, cand_, opt);

  std::istringstream in(out.str());
  std::string line;
  int meta = 0, events = 0, metrics = 0, runEnd = 0;
  int msgSent = 0, msgRecv = 0, adopts = 0, nodeBest = 0;
  while (std::getline(in, line)) {
    const JsonValue v = parseJson(line);  // throws on malformed output
    const std::string type = v.str("type");
    if (type == "run-meta") ++meta;
    else if (type == "event") ++events;
    else if (type == "metrics") ++metrics;
    else if (type == "run-end") ++runEnd;
    else if (type == "msg-sent") ++msgSent;
    else if (type == "msg-recv") ++msgRecv;
    else if (type == "adopt") ++adopts;
    else if (type == "node-best") ++nodeBest;
    else FAIL() << "unknown record type " << type;
  }
  EXPECT_EQ(meta, 1);
  EXPECT_EQ(runEnd, 1);
  EXPECT_GE(metrics, 2);  // periodic + final
  EXPECT_EQ(events, static_cast<int>(res.events.size()));
  // Causal layer: one msg-sent per broadcast, one msg-recv per delivery,
  // adopts only where a received tour won a merge, and a periodic per-node
  // best series paced by the metrics interval.
  EXPECT_EQ(msgSent, static_cast<int>(res.net.broadcasts));
  EXPECT_EQ(msgRecv, static_cast<int>(res.net.messagesSent));
  EXPECT_LE(adopts, msgRecv);
  EXPECT_GT(nodeBest, 0);
}

TEST_F(TracedRuns, TracingDoesNotChangeSimulatedResults) {
  const RunResult bare = runDistributed(inst_, cand_, simOptions());

  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  RunConfig traced = simOptions();
  traced.trace = &sink;
  traced.metricsIntervalSeconds = 0.05;
  const RunResult withTrace = runDistributed(inst_, cand_, traced);

  // Determinism guarantee: observation must not perturb the run.
  EXPECT_EQ(bare.bestLength, withTrace.bestLength);
  EXPECT_EQ(bare.bestOrder, withTrace.bestOrder);
  EXPECT_EQ(bare.totalSteps, withTrace.totalSteps);
  EXPECT_EQ(bare.events.size(), withTrace.events.size());
  EXPECT_EQ(bare.net.messagesSent, withTrace.net.messagesSent);
}

TEST_F(TracedRuns, SimulatedTraceMetricsMatchResultCounters) {
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  RunConfig opt = simOptions();
  opt.trace = &sink;
  const RunResult res = runDistributed(inst_, cand_, opt);

  // The final metrics record's net counters must agree with NetworkStats.
  std::istringstream in(out.str());
  std::string line, lastMetrics;
  while (std::getline(in, line))
    if (line.find("\"type\":\"metrics\"") != std::string::npos)
      lastMetrics = line;
  ASSERT_FALSE(lastMetrics.empty());
  const JsonValue v = parseJson(lastMetrics);
  const JsonValue* m = v.find("metrics");
  ASSERT_NE(m, nullptr);
  const JsonValue* counters = m->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->integer("net.sends"), res.net.messagesSent);
  EXPECT_EQ(counters->integer("net.broadcasts"), res.net.broadcasts);
  EXPECT_EQ(counters->integer("node.restarts"), res.totalRestarts);
  // Every EA step is counted: initial steps show up in totalSteps only.
  EXPECT_EQ(counters->integer("node.steps") + opt.nodes, res.totalSteps);
  // Initial steps have their own wall-time histogram, one sample per node;
  // EA steps land in compute_seconds.
  const JsonValue* hists = m->find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* initial = hists->find("node.initial_seconds");
  ASSERT_NE(initial, nullptr);
  EXPECT_EQ(initial->integer("count"), opt.nodes);
  EXPECT_GT(initial->num("sum"), 0.0);
  const JsonValue* compute = hists->find("node.compute_seconds");
  ASSERT_NE(compute, nullptr);
  EXPECT_EQ(compute->integer("count"), counters->integer("node.steps"));
}

TEST_F(TracedRuns, ThreadedTraceIsParseableAndConsistent) {
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  RunConfig opt;
  opt.runtime = RuntimeKind::kThreads;
  opt.nodes = 4;
  opt.node.clkKicksPerCall = 10;
  opt.timeLimitPerNode = 0.3;
  opt.seed = 3;
  opt.trace = &sink;
  opt.metricsIntervalSeconds = 0.1;
  const RunResult res = runDistributed(inst_, cand_, opt);

  std::istringstream in(out.str());
  std::string line;
  int events = 0;
  std::string last;
  while (std::getline(in, line)) {
    EXPECT_NO_THROW(parseJson(line)) << line;
    if (line.find("\"type\":\"event\"") != std::string::npos) ++events;
    last = line;
  }
  EXPECT_EQ(events, static_cast<int>(res.events.size()));
  // The final line is the run-end record with the same aggregates.
  const JsonValue v = parseJson(last);
  EXPECT_EQ(v.str("type"), "run-end");
  EXPECT_EQ(v.integer("best_length"), res.bestLength);
  EXPECT_EQ(v.integer("messages_sent"), res.messagesSent);
}

}  // namespace
}  // namespace distclk
