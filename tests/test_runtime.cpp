// Tests for the unified runtime layer (core/runtime.h): determinism parity
// against a fixture recorded with the pre-refactor simulated driver,
// transport-agnostic traffic accounting, and the injection capabilities
// (failures, churn, speeds) the thread runtime gained from the refactor.
#include "core/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <regex>
#include <set>
#include <sstream>
#include <thread>

#include "core/runtime_detail.h"
#include "experiments/harness.h"
#include "obs/report.h"
#include "net/sim_network.h"
#include "net/thread_network.h"
#include "tsp/gen.h"
#include "tsp/tour.h"
#include "util/timer.h"

namespace distclk {
namespace {

// FNV-1a over the event log; must match the recorder that produced the
// fixture below (time bits, node, type, value of every event, in order).
std::uint64_t eventLogHash(const EventLog& events) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const NodeEvent& e : events) {
    std::uint64_t timeBits;
    static_assert(sizeof(timeBits) == sizeof(e.time));
    __builtin_memcpy(&timeBits, &e.time, sizeof(timeBits));
    mix(timeBits);
    mix(static_cast<std::uint64_t>(e.node));
    mix(static_cast<std::uint64_t>(e.type));
    mix(static_cast<std::uint64_t>(e.value));
  }
  return h;
}

// -----------------------------------------------------------------------
// Determinism parity: this fixture was recorded by running the PRE-refactor
// runSimulatedDistClk (commit 9ae0fd9) with exactly this configuration.
// The runtime-layer refactor must reproduce the trajectory bit for bit:
// same tour, same curve (times AND lengths), same event log (hashed), same
// traffic. If this test fails, the refactor changed scheduling, cost
// accounting, RNG consumption, or event emission order — all of which are
// observable behavior, not implementation detail.

RunConfig parityConfig() {
  RunConfig cfg;
  cfg.nodes = 8;
  cfg.costModel = CostModel::kModeled;
  cfg.modeledWorkPerSecond = 1e5;
  cfg.node.clkKicksPerCall = 5;
  cfg.node.cr = 12;  // force restarts into the fixture trajectory
  cfg.node.cv = 4;   // force perturbation-level changes too
  cfg.timeLimitPerNode = 6.0;
  cfg.seed = 2026;
  return cfg;
}

TEST(RuntimeParity, SimMatchesPreRefactorFixture) {
  const Instance inst = uniformSquare("parity", 120, 42);
  const CandidateLists cand(inst, 8);
  const RunResult res = runDistributed(inst, cand, parityConfig());

  EXPECT_EQ(res.bestLength, 8126701);
  EXPECT_EQ(res.totalSteps, 351);
  EXPECT_EQ(res.totalRestarts, 17);
  EXPECT_EQ(res.net.messagesSent, 24);
  EXPECT_EQ(res.net.broadcasts, 8);
  EXPECT_EQ(res.net.bytesSent, 12024);
  ASSERT_EQ(res.events.size(), 113u);
  EXPECT_EQ(eventLogHash(res.events), 15090688922916996318ULL);
  ASSERT_EQ(res.curve.size(), 2u);
  EXPECT_EQ(res.curve[0].time, 0.15969);
  EXPECT_EQ(res.curve[0].length, 8132600);
  EXPECT_EQ(res.curve[1].time, 0.57315000000000005);
  EXPECT_EQ(res.curve[1].length, 8126701);
  // The fixture predates per-node curves; they are additive and must agree
  // with the global result.
  ASSERT_EQ(res.nodeCurves.size(), 8u);
  std::int64_t bestOfNodes = std::numeric_limits<std::int64_t>::max();
  for (const auto& curve : res.nodeCurves) {
    ASSERT_FALSE(curve.empty());
    bestOfNodes = std::min(bestOfNodes, curve.back().length);
  }
  EXPECT_EQ(bestOfNodes, res.bestLength);
}

// Tracing must be a pure observer: with a sink attached (and stamps on the
// wire), the fixture trajectory — tour, steps, curve, event-log hash — is
// bit-identical. Only bytesSent moves, by exactly one 16-byte trace trailer
// per delivered message.
TEST(RuntimeParity, TracingOnPreservesFixtureTrajectory) {
  const Instance inst = uniformSquare("parity", 120, 42);
  const CandidateLists cand(inst, 8);
  std::ostringstream jsonl;
  obs::JsonlTraceSink sink(jsonl);
  RunConfig cfg = parityConfig();
  cfg.trace = &sink;
  cfg.metricsIntervalSeconds = 1.0;
  const RunResult res = runDistributed(inst, cand, cfg);

  EXPECT_EQ(res.bestLength, 8126701);
  EXPECT_EQ(res.totalSteps, 351);
  EXPECT_EQ(res.totalRestarts, 17);
  EXPECT_EQ(res.net.messagesSent, 24);
  EXPECT_EQ(res.net.broadcasts, 8);
  EXPECT_EQ(res.net.bytesSent,
            12024 + 24 * std::int64_t(kTraceTrailerBytes));
  ASSERT_EQ(res.events.size(), 113u);
  EXPECT_EQ(eventLogHash(res.events), 15090688922916996318ULL);
  ASSERT_EQ(res.curve.size(), 2u);
  EXPECT_EQ(res.curve[0].time, 0.15969);
  EXPECT_EQ(res.curve[0].length, 8132600);
  EXPECT_EQ(res.curve[1].time, 0.57315000000000005);
  EXPECT_EQ(res.curve[1].length, 8126701);

  // The captured trace carries the causal layer and passes validation.
  std::istringstream in(jsonl.str());
  const obs::ValidationResult validation = obs::validateTrace(in);
  EXPECT_TRUE(validation.ok()) << (validation.problems.empty()
                                       ? "bad lines"
                                       : validation.problems.front());
  std::istringstream in2(jsonl.str());
  const obs::LoadedTrace trace = obs::loadTrace(in2);
  EXPECT_EQ(trace.sent.size(), 8u);   // one msg-sent per broadcast call
  EXPECT_EQ(trace.recv.size(), 24u);  // one msg-recv per delivery
}

// The stall detector adds kStall events to the log but never feeds back
// into the search: the fixture's tour, step count, and traffic are intact.
TEST(RuntimeParity, StallDetectorIsObservationOnly) {
  const Instance inst = uniformSquare("parity", 120, 42);
  const CandidateLists cand(inst, 8);
  RunConfig cfg = parityConfig();
  cfg.stallSeconds = 1.5;  // last fixture improvement lands at t=0.573
  const RunResult res = runDistributed(inst, cand, cfg);
  EXPECT_EQ(res.bestLength, 8126701);
  EXPECT_EQ(res.totalSteps, 351);
  EXPECT_EQ(res.net.messagesSent, 24);
  int stalls = 0;
  for (const auto& e : res.events)
    if (e.type == NodeEventType::kStall) {
      ++stalls;
      // Value documents the drought length in milliseconds.
      EXPECT_GE(e.value, 1500);
    }
  EXPECT_GT(stalls, 0);
}

TEST(RuntimeParity, SerialEntryEqualsRunDistributed) {
  const Instance inst = uniformSquare("parity", 120, 42);
  const CandidateLists cand(inst, 8);
  // One worker is the serial scheduler: the same fixture trajectory as the
  // worker count runDistributed picks.
  const RunResult serial = detail::runSimWorkers(
      *InstanceContext::borrow(inst, cand), parityConfig(), 1);
  EXPECT_EQ(serial.bestLength, 8126701);
  EXPECT_EQ(serial.totalSteps, 351);
  EXPECT_EQ(eventLogHash(serial.events), 15090688922916996318ULL);
}

// -----------------------------------------------------------------------
// Byte accounting: both transports price traffic with serializedSize(), so
// identical traffic over an identical topology yields identical stats.

Message tourMsg(int from, std::vector<std::int32_t> order) {
  Message m;
  m.type = MessageType::kTour;
  m.from = from;
  m.length = 1000 + from;
  m.order = std::move(order);
  return m;
}

TEST(RuntimeTransports, NetworksReportIdenticalBytesForIdenticalTraffic) {
  const Adjacency adj = buildTopology(TopologyKind::kHypercube, 8);
  SimNetwork sim(adj);
  ThreadNetwork threads(adj);
  SimTransport simT(sim);
  ThreadTransport threadT(threads);

  // Same scripted traffic on both, including sends involving dead nodes
  // (dropped — and not billed — by both).
  for (Transport* t : {static_cast<Transport*>(&simT),
                       static_cast<Transport*>(&threadT)}) {
    t->broadcast(0, 0.0, tourMsg(0, {5, 2, 4, 1, 3, 0}));
    t->send(1, 2, 0.1, tourMsg(1, {0, 1, 2}));
    t->kill(3);
    t->broadcast(3, 0.2, tourMsg(3, {9, 8}));    // dead sender: dropped
    t->send(2, 3, 0.3, tourMsg(2, {1}));         // dead receiver: dropped
    t->broadcast(7, 0.4, tourMsg(7, {}));        // empty payload still billed
  }

  const NetworkStats a = simT.stats();
  const NetworkStats b = threadT.stats();
  EXPECT_GT(a.messagesSent, 0);
  EXPECT_EQ(a.messagesSent, b.messagesSent);
  EXPECT_EQ(a.broadcasts, b.broadcasts);
  EXPECT_EQ(a.bytesSent, b.bytesSent);
  EXPECT_EQ(a.sentByNode, b.sentByNode);

  // And the count is the exact wire size of what was actually delivered:
  // node 0's broadcast reaches its 3 hypercube neighbors, node 7's reaches
  // only 2 because its neighbor 3 is dead by then.
  std::int64_t expected = 0;
  expected += 3 * std::int64_t(serializedSize(tourMsg(0, {5, 2, 4, 1, 3, 0})));
  expected += std::int64_t(serializedSize(tourMsg(1, {0, 1, 2})));
  expected += 2 * std::int64_t(serializedSize(tourMsg(7, {})));
  EXPECT_EQ(a.bytesSent, expected);
}

// -----------------------------------------------------------------------
// Cross-driver parity: the same RunConfig produces the same deterministic
// trajectory on the simulator no matter which entry point dispatched it,
// and the thread runtime accepts the identical config (injection schedules
// included) without translation.

TEST(RuntimeDispatch, SameConfigSameSimTrajectory) {
  const Instance inst = uniformSquare("dispatch", 90, 7);
  const CandidateLists cand(inst, 8);
  RunConfig cfg = parityConfig();
  cfg.timeLimitPerNode = 2.0;
  cfg.failures = {{2, 0.5}};
  cfg.joins = {{5, 0.4}};
  cfg.runtime = RuntimeKind::kSim;
  const RunResult a = runDistributed(inst, cand, cfg);
  const RunResult b = runDistributed(inst, cand, cfg);
  EXPECT_EQ(a.bestLength, b.bestLength);
  EXPECT_EQ(a.bestOrder, b.bestOrder);
  EXPECT_EQ(a.totalSteps, b.totalSteps);
  EXPECT_EQ(eventLogHash(a.events), eventLogHash(b.events));
  // The injected failure and join show up as first-class events.
  bool sawFailure = false, sawJoin = false;
  for (const auto& e : a.events) {
    if (e.type == NodeEventType::kNodeFailed && e.node == 2) sawFailure = true;
    if (e.type == NodeEventType::kNodeJoined && e.node == 5) sawJoin = true;
  }
  EXPECT_TRUE(sawFailure);
  EXPECT_TRUE(sawJoin);
}

// -----------------------------------------------------------------------
// Thread runtime injection (new with the runtime layer): failures fire
// against wall clocks, the run terminates cleanly, and the topology
// degrades instead of wedging.

TEST(RuntimeThreads, FailureInjectionTerminatesAndDegradesTopology) {
  const Instance inst = uniformSquare("threads-fail", 80, 17);
  const CandidateLists cand(inst, 8);
  RunConfig cfg;
  cfg.runtime = RuntimeKind::kThreads;
  cfg.nodes = 4;
  cfg.node.clkKicksPerCall = 3;
  cfg.timeLimitPerNode = 0.6;
  cfg.failures = {{0, 0.05}, {1, 0.05}};
  const RunResult res = runDistributed(inst, cand, cfg);

  // Clean termination with a valid global tour.
  Tour best(inst, res.bestOrder);
  EXPECT_EQ(best.length(), res.bestLength);
  ASSERT_EQ(res.nodeBest.size(), 4u);
  ASSERT_EQ(res.nodeClocks.size(), 4u);

  // Both scheduled failures were logged, at their scheduled times.
  std::set<int> failed;
  for (const auto& e : res.events)
    if (e.type == NodeEventType::kNodeFailed) {
      failed.insert(e.node);
      EXPECT_DOUBLE_EQ(e.time, 0.05);
    }
  EXPECT_EQ(failed, (std::set<int>{0, 1}));

  // Degraded topology: the dead nodes stopped well before the budget, the
  // survivors ran it out.
  EXPECT_LT(res.nodeClocks[0], 0.5);
  EXPECT_LT(res.nodeClocks[1], 0.5);
  EXPECT_GE(res.nodeClocks[2], 0.5);
  EXPECT_GE(res.nodeClocks[3], 0.5);
}

TEST(RuntimeThreads, LateJoinerParticipatesUnderThreads) {
  const Instance inst = uniformSquare("threads-join", 70, 18);
  const CandidateLists cand(inst, 8);
  RunConfig cfg;
  cfg.runtime = RuntimeKind::kThreads;
  cfg.nodes = 3;
  cfg.node.clkKicksPerCall = 3;
  cfg.timeLimitPerNode = 0.4;
  cfg.joins = {{2, 0.15}};
  const RunResult res = runDistributed(inst, cand, cfg);

  bool joined = false;
  double joinTime = 0.0, initTime = 0.0;
  for (const auto& e : res.events) {
    if (e.node != 2) continue;
    if (e.type == NodeEventType::kNodeJoined) {
      joined = true;
      joinTime = e.time;
    }
    if (e.type == NodeEventType::kInitialTour) initTime = e.time;
  }
  EXPECT_TRUE(joined);
  EXPECT_GE(joinTime, 0.15);
  EXPECT_GE(initTime, joinTime);
  ASSERT_EQ(res.nodeCurves.size(), 3u);
  EXPECT_FALSE(res.nodeCurves[2].empty());
}

TEST(RuntimeThreads, ThrottledNodeDoesLessWork) {
  const Instance inst = uniformSquare("threads-speed", 70, 19);
  const CandidateLists cand(inst, 8);
  RunConfig cfg;
  cfg.runtime = RuntimeKind::kThreads;
  cfg.nodes = 2;
  cfg.topology = TopologyKind::kComplete;
  cfg.node.clkKicksPerCall = 3;
  cfg.timeLimitPerNode = 0.4;
  cfg.nodeSpeeds = {1.0, 0.25};  // node 1 is a 4x slower machine
  const RunResult res = runDistributed(inst, cand, cfg);
  std::int64_t activity[2] = {0, 0};
  for (const auto& e : res.events) ++activity[e.node];
  // Both nodes ran; the assertion is deliberately coarse (wall-clock
  // scheduling is noisy) — the throttle's correctness is that the slow
  // node still participates and the run terminates on time.
  EXPECT_GT(activity[0], 0);
  EXPECT_GT(activity[1], 0);
}

TEST(RuntimeThreads, ValidationUnifiedAcrossRuntimes) {
  const Instance inst = uniformSquare("validate", 30, 20);
  const CandidateLists cand(inst, 8);
  for (const RuntimeKind kind : {RuntimeKind::kSim, RuntimeKind::kThreads}) {
    RunConfig bad;
    bad.runtime = kind;
    bad.nodes = 0;
    EXPECT_THROW(runDistributed(inst, cand, bad), std::invalid_argument);
    RunConfig badJoin;
    badJoin.runtime = kind;
    badJoin.joins = {{99, 1.0}};
    EXPECT_THROW(runDistributed(inst, cand, badJoin), std::invalid_argument);
    RunConfig badSpeeds;
    badSpeeds.runtime = kind;
    badSpeeds.nodeSpeeds = {1.0};  // size != nodes
    EXPECT_THROW(runDistributed(inst, cand, badSpeeds), std::invalid_argument);
  }
}

TEST(RuntimeKindNames, RoundTrip) {
  EXPECT_STREQ(toString(RuntimeKind::kSim), "sim");
  EXPECT_STREQ(toString(RuntimeKind::kThreads), "threads");
  EXPECT_EQ(runtimeKindFromString("sim"), RuntimeKind::kSim);
  EXPECT_EQ(runtimeKindFromString("threads"), RuntimeKind::kThreads);
  EXPECT_THROW(runtimeKindFromString("mpi"), std::invalid_argument);
}

// -----------------------------------------------------------------------
// The job layer's hooks on RunConfig: context-based dispatch, cooperative
// cancellation, the incremental-best stream, and the run-meta job label.

TEST(RuntimeContext, ContextOverloadReproducesFixture) {
  const auto inst =
      std::make_shared<const Instance>(uniformSquare("parity", 120, 42));
  PreprocessParams params;
  params.candidateK = 8;
  const auto ctx = InstanceContext::build(inst, params);
  const RunResult res = runDistributed(ctx, parityConfig());
  EXPECT_EQ(res.bestLength, 8126701);
  EXPECT_EQ(res.totalSteps, 351);
  EXPECT_EQ(eventLogHash(res.events), 15090688922916996318ULL);
  EXPECT_THROW(runDistributed(nullptr, parityConfig()),
               std::invalid_argument);
}

TEST(RuntimeCancel, CancelStopsSimRunEarly) {
  const Instance inst = uniformSquare("parity", 120, 42);
  const CandidateLists cand(inst, 8);
  std::atomic<bool> cancel{false};
  RunConfig cfg = parityConfig();
  cfg.cancel = &cancel;
  // Flip the flag from the first improvement: the run must stop at the
  // next scheduling boundary, well short of the fixture's 351 steps.
  cfg.onBest = [&](double, std::int64_t) { cancel.store(true); };
  const RunResult res = runDistributed(inst, cand, cfg);
  EXPECT_GT(res.totalSteps, 0);
  EXPECT_LT(res.totalSteps, 351);
  EXPECT_GT(res.bestLength, 0);
}

TEST(RuntimeCancel, CancelStopsThreadsRunEarly) {
  const Instance inst = uniformSquare("parity", 120, 42);
  const CandidateLists cand(inst, 8);
  std::atomic<bool> cancel{false};
  RunConfig cfg;
  cfg.runtime = RuntimeKind::kThreads;
  cfg.nodes = 2;
  cfg.node.clkKicksPerCall = 5;
  cfg.timeLimitPerNode = 30.0;  // would dominate the suite if not cancelled
  cfg.seed = 7;
  cfg.cancel = &cancel;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    cancel.store(true);
  });
  const auto start = std::chrono::steady_clock::now();
  const RunResult res = runDistributed(inst, cand, cfg);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  canceller.join();
  EXPECT_LT(wall, 10.0) << "cancellation must beat the 30s budget";
  EXPECT_GT(res.bestLength, 0);
}

TEST(RuntimeOnBest, StreamMirrorsTheAnytimeCurve) {
  const Instance inst = uniformSquare("parity", 120, 42);
  const CandidateLists cand(inst, 8);
  AnytimeCurve streamed;
  RunConfig cfg = parityConfig();
  cfg.onBest = [&](double t, std::int64_t len) {
    streamed.push_back(AnytimePoint{t, len});
  };
  const RunResult res = runDistributed(inst, cand, cfg);
  ASSERT_EQ(streamed.size(), res.curve.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].time, res.curve[i].time);
    EXPECT_EQ(streamed[i].length, res.curve[i].length);
  }
}

TEST(RuntimeJobLabel, AppearsInRunMetaOnlyWhenSet) {
  const Instance inst = uniformSquare("parity", 120, 42);
  const CandidateLists cand(inst, 8);
  const auto capture = [&](const std::string& label) {
    std::ostringstream jsonl;
    obs::JsonlTraceSink sink(jsonl);
    RunConfig cfg = parityConfig();
    cfg.trace = &sink;
    cfg.jobLabel = label;
    runDistributed(inst, cand, cfg);
    std::istringstream in(jsonl.str());
    const obs::LoadedTrace trace = obs::loadTrace(in);
    EXPECT_TRUE(trace.meta.has_value());
    return trace.meta.has_value() ? trace.meta->str("job") : std::string();
  };
  EXPECT_EQ(capture("tenant-a/job-1"), "tenant-a/job-1");
  EXPECT_EQ(capture(""), "");  // standalone runs: key omitted, goldens stable
}

// -----------------------------------------------------------------------
// Pipelined simulator: the compute phases run on a worker pool, the commits
// stay in virtual-time order. Every worker count must reproduce the serial
// run exactly — result, event log, trace records and metric counters. Only
// wall-time histograms differ, and the comparison drops them.

/// The trace minus what measures wall time: the compute and initial phase
/// histograms of every metrics record.
std::string deterministicTrace(const std::string& jsonl) {
  static const std::regex wallHistogram(
      R"(,?"node\.(compute|initial)_seconds":\{[^}]*\})");
  return std::regex_replace(jsonl, wallHistogram, "");
}

void expectSameRun(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.bestLength, b.bestLength);
  EXPECT_EQ(a.bestOrder, b.bestOrder);
  EXPECT_EQ(a.hitTarget, b.hitTarget);
  EXPECT_EQ(a.targetTime, b.targetTime);
  const auto sameCurve = [](const AnytimeCurve& x, const AnytimeCurve& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i)
      if (x[i].time != y[i].time || x[i].length != y[i].length) return false;
    return true;
  };
  EXPECT_TRUE(sameCurve(a.curve, b.curve));
  ASSERT_EQ(a.nodeCurves.size(), b.nodeCurves.size());
  for (std::size_t i = 0; i < a.nodeCurves.size(); ++i)
    EXPECT_TRUE(sameCurve(a.nodeCurves[i], b.nodeCurves[i])) << "node " << i;
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(eventLogHash(a.events), eventLogHash(b.events));
  EXPECT_EQ(a.nodeBest, b.nodeBest);
  EXPECT_EQ(a.nodeClocks, b.nodeClocks);
  EXPECT_EQ(a.totalSteps, b.totalSteps);
  EXPECT_EQ(a.totalRestarts, b.totalRestarts);
  EXPECT_EQ(a.net.messagesSent, b.net.messagesSent);
  EXPECT_EQ(a.net.broadcasts, b.net.broadcasts);
  EXPECT_EQ(a.net.bytesSent, b.net.bytesSent);
  EXPECT_EQ(a.net.sentByNode, b.net.sentByNode);
}

/// Runs `cfg` at 1 worker and at 2, 3, 4 and 8 and requires identical runs.
/// `prepare` rebuilds per-run state (trace sink, cancel flag) and returns
/// the config to run; the traces must match too.
void expectWorkerCountInvariant(
    const InstanceContext& ctx,
    const std::function<RunConfig(obs::TraceSink*)>& prepare,
    RunResult* serialOut = nullptr) {
  std::ostringstream serialTrace;
  obs::JsonlTraceSink serialSink(serialTrace);
  const RunResult serial =
      detail::runSimWorkers(ctx, prepare(&serialSink), 1);
  serialSink.flush();
  for (const int workers : {2, 3, 4, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::ostringstream trace;
    obs::JsonlTraceSink sink(trace);
    const RunResult pipelined =
        detail::runSimWorkers(ctx, prepare(&sink), workers);
    sink.flush();
    expectSameRun(serial, pipelined);
    EXPECT_EQ(deterministicTrace(serialTrace.str()),
              deterministicTrace(trace.str()));
  }
  if (serialOut != nullptr) *serialOut = serial;
}

TEST(RuntimePipeline, DistSimShapeMatchesSerialAtAnyWorkerCount) {
  // The dist-sim benchmark's shape: 8 peers, uniform n=3000, modeled cost,
  // a quarter of a virtual second per node.
  const auto inst =
      std::make_shared<const Instance>(uniformSquare("dist-sim", 3000, 11));
  const auto ctx = InstanceContext::build(inst);
  RunResult serial;
  expectWorkerCountInvariant(
      *ctx,
      [&](obs::TraceSink*) {
        RunConfig cfg;
        cfg.node = scaledNodeParams(*inst);
        cfg.costModel = CostModel::kModeled;
        cfg.timeLimitPerNode = 0.25;
        cfg.seed = 5;
        return cfg;
      },
      &serial);
  EXPECT_GT(serial.totalSteps, 8);
}

TEST(RuntimePipeline, TracedChurnFixtureMatchesSerialAtAnyWorkerCount) {
  const Instance inst = uniformSquare("parity", 120, 42);
  const CandidateLists cand(inst, 8);
  RunResult serial;
  expectWorkerCountInvariant(
      *InstanceContext::borrow(inst, cand),
      [](obs::TraceSink* sink) {
        RunConfig cfg = parityConfig();
        cfg.joins = {{5, 0.4}};
        cfg.failures = {{2, 0.5}};
        cfg.trace = sink;
        cfg.metricsIntervalSeconds = 0.5;
        cfg.stallSeconds = 1.0;
        return cfg;
      },
      &serial);
  int stalls = 0;
  for (const auto& e : serial.events)
    if (e.type == NodeEventType::kStall) ++stalls;
  EXPECT_GT(stalls, 0);
}

TEST(RuntimePipeline, HeterogeneousSpeedsMatchSerialAtAnyWorkerCount) {
  const Instance inst = uniformSquare("parity", 120, 42);
  const CandidateLists cand(inst, 8);
  expectWorkerCountInvariant(
      *InstanceContext::borrow(inst, cand), [](obs::TraceSink* sink) {
        RunConfig cfg = parityConfig();
        cfg.timeLimitPerNode = 3.0;
        cfg.nodeSpeeds = {1.0, 0.5, 2.0, 1.0, 0.75, 1.5, 1.0, 0.25};
        cfg.trace = sink;
        return cfg;
      });
}

TEST(RuntimePipeline, TargetAtInitialTickMatchesSerialAtAnyWorkerCount) {
  const Instance inst = uniformSquare("parity", 120, 42);
  const CandidateLists cand(inst, 8);
  const auto ctx = InstanceContext::borrow(inst, cand);
  const RunResult probe = detail::runSimWorkers(*ctx, parityConfig(), 1);
  // Node 0's initial tour: all clocks start at 0, so node 0 commits first
  // and reaches it while the other nodes' initial phases are in flight.
  // Those must leave no trace; their nodeBest stays the unoptimized start
  // tour.
  std::int64_t target = -1;
  for (const auto& e : probe.events)
    if (e.type == NodeEventType::kInitialTour && e.node == 0) target = e.value;
  ASSERT_GT(target, 0);
  RunResult serial;
  expectWorkerCountInvariant(
      *ctx,
      [&](obs::TraceSink* sink) {
        RunConfig cfg = parityConfig();
        cfg.node.targetLength = target;
        cfg.trace = sink;
        return cfg;
      },
      &serial);
  EXPECT_TRUE(serial.hitTarget);
  EXPECT_EQ(serial.totalSteps, 1);
}

TEST(RuntimePipeline, TargetMidRunMatchesSerialAtAnyWorkerCount) {
  const Instance inst = uniformSquare("parity", 120, 42);
  const CandidateLists cand(inst, 8);
  RunResult serial;
  expectWorkerCountInvariant(
      *InstanceContext::borrow(inst, cand),
      [](obs::TraceSink* sink) {
        RunConfig cfg = parityConfig();
        cfg.node.targetLength = 8126701;  // the fixture's final best
        cfg.trace = sink;
        return cfg;
      },
      &serial);
  EXPECT_TRUE(serial.hitTarget);
  EXPECT_GT(serial.totalSteps, 8);
  EXPECT_LT(serial.totalSteps, 351);
}

TEST(RuntimePipeline, CancelFromOnBestMatchesSerialAtAnyWorkerCount) {
  const Instance inst = uniformSquare("parity", 120, 42);
  const CandidateLists cand(inst, 8);
  // Fresh flag and counter per run; the run stops at the scheduling
  // boundary after its second global best (the fixture's last, mid-run).
  std::atomic<bool> cancel{false};
  int bests = 0;
  RunResult serial;
  expectWorkerCountInvariant(
      *InstanceContext::borrow(inst, cand),
      [&](obs::TraceSink* sink) {
        cancel.store(false);
        bests = 0;
        RunConfig cfg = parityConfig();
        cfg.cancel = &cancel;
        cfg.onBest = [&](double, std::int64_t) {
          if (++bests == 2) cancel.store(true);
        };
        cfg.trace = sink;
        return cfg;
      },
      &serial);
  EXPECT_EQ(serial.curve.size(), 2u);
  EXPECT_GT(serial.totalSteps, 8);
  EXPECT_LT(serial.totalSteps, 351);
}

TEST(RuntimePipeline, MeasuredRunChargesPhasesThatNeverOverlap) {
  // Under CostModel::kMeasured a phase's charge is its own wall time, so
  // runDistributed runs one phase at a time: the summed charges (the node
  // clocks) fit inside the run's wall time. Phases run at once on several
  // cores would charge more than the wall time that passed.
  const Instance inst = uniformSquare("measured", 400, 7);
  const CandidateLists cand(inst, 8);
  RunConfig cfg;
  cfg.nodes = 8;
  cfg.costModel = CostModel::kMeasured;
  cfg.node.clkKicksPerCall = 50;
  cfg.timeLimitPerNode = 0.05;
  cfg.seed = 11;
  const Timer wall;
  const RunResult res = runDistributed(inst, cand, cfg);
  const double elapsed = wall.seconds();
  double charged = 0.0;
  for (const double clock : res.nodeClocks) {
    EXPECT_GE(clock, cfg.timeLimitPerNode);  // every node spent its budget
    charged += clock;
  }
  EXPECT_LE(charged, elapsed);
}

}  // namespace
}  // namespace distclk
