// Unified runtime layer: the distributed EA of Fig. 1 as ONE event loop
// (NodeRunner) parameterized by a Transport (how messages move) and a Clock
// (how time passes). Both substrates — the discrete-event simulator with
// virtual per-node CPU clocks and the real-thread runtime with wall-clock
// budgets — are thin instantiations of this layer, so every injection
// capability (failures, late-join churn, heterogeneous node speeds) and
// every observation hook works identically on both. Adding a backend (e.g.
// a socket transport speaking the net/message wire format) means writing a
// Transport adapter, not a driver.
//
//   RunConfig  — one option struct for every substrate
//   RunResult  — one result struct
//   Transport  — broadcast/send/collect + membership (kill, setAlive)
//   Clock      — per-node now() + compute-phase charging (virtual or wall)
//   NodeRunner — the per-node Fig.-1 iteration: compute, then commit
//                (collect, merge, trace, broadcast)
//
// Determinism guarantee: for a fixed seed the simulated substrate produces
// bit-identical tours, curves, and event logs to the pre-refactor driver
// (tests/test_runtime.cpp pins a recorded fixture), at any number of
// compute workers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/node.h"
#include "core/trace.h"
#include "net/net_metrics.h"
#include "net/topology.h"
#include "obs/trace_sink.h"
#include "tsp/instance.h"
#include "tsp/instance_context.h"
#include "tsp/neighbors.h"

namespace distclk {

enum class CostModel {
  kMeasured,  ///< virtual seconds = wall time of the compute phase
  kModeled,   ///< virtual seconds = modelCost / modeledWorkPerSecond
};

enum class RuntimeKind {
  kSim,      ///< discrete-event simulator, virtual clocks (deterministic)
  kThreads,  ///< one std::jthread per node, wall clocks
};

const char* toString(RuntimeKind k) noexcept;
/// Parses "sim" | "threads"; throws std::invalid_argument otherwise.
RuntimeKind runtimeKindFromString(const std::string& name);

/// One option struct for every substrate. Fields that only apply to one
/// runtime are documented as such and ignored by the other.
struct RunConfig {
  RuntimeKind runtime = RuntimeKind::kSim;
  int nodes = 8;                     ///< paper's default cluster size
  TopologyKind topology = TopologyKind::kHypercube;
  DistParams node;                   ///< EA parameters (c_v=64, c_r=256, ...)
  double timeLimitPerNode = 10.0;    ///< CPU seconds per node (virtual | wall)
  double latencySeconds = 1e-3;      ///< sim only: link latency (Gbit LAN)
  CostModel costModel = CostModel::kMeasured;  ///< sim only
  double modeledWorkPerSecond = 4e6; ///< flips/second in kModeled mode
  std::uint64_t seed = 1;            ///< master seed; nodes get split streams
  /// Failure injection: (node, time) pairs; the node stops stepping and
  /// stops receiving messages from that time on. Runs on both substrates.
  std::vector<std::pair<int, double>> failures;
  /// Churn injection: (node, time) pairs; the node joins the network only
  /// at that time (its clock starts there, messages sent to it earlier are
  /// lost). Nodes not listed join at time 0. Its budget still ends at
  /// timeLimitPerNode, as a late joiner's would. Runs on both substrates.
  std::vector<std::pair<int, double>> joins;
  /// Heterogeneous cluster: relative speed per node. Empty = homogeneous
  /// (the paper's 8 identical P4s). Must be empty or size == nodes,
  /// entries > 0. The simulator divides virtual cost by the speed; the
  /// thread runtime throttles nodes with speed < 1 to the same effect.
  std::vector<double> nodeSpeeds;
  /// Optional JSONL trace sink (null = no tracing, zero overhead). Under
  /// threads the sink is called concurrently from all node threads —
  /// JsonlTraceSink serializes internally. Traced simulated runs stay
  /// deterministic and produce identical tours to un-traced ones.
  obs::TraceSink* trace = nullptr;
  /// Seconds between periodic metric snapshots (<= 0: only the final
  /// snapshot is written). Also paces the per-node node-best trace series
  /// and --metrics-out exposition. Ignored without a sink or metricsOutPath.
  double metricsIntervalSeconds = 0.0;
  /// Stall detector budget in per-node seconds (<= 0: disabled). When a
  /// node sees no improvement (global under sim's centralized view, local
  /// under threads) for this long, it logs one kStall event and re-arms on
  /// the next improvement. Observation-only: trajectories are unchanged.
  double stallSeconds = 0.0;
  /// Live exposition: when non-empty, a Prometheus-style text snapshot of
  /// the metrics registry is atomically renamed into this path every
  /// metricsIntervalSeconds and once at run end. Works with or without a
  /// trace sink.
  std::string metricsOutPath;
  /// Cooperative cancellation (the job layer's kill switch). When non-null
  /// and set, the run winds down at the next scheduling boundary: the
  /// simulator stops before the next node step, thread nodes exit their
  /// loop. Null (the default) leaves every trajectory untouched.
  std::atomic<bool>* cancel = nullptr;
  /// Incremental best streaming: called with (per-node seconds, length) on
  /// every new best — global bests under sim's centralized view, node-local
  /// bests under threads (where it may be called concurrently from node
  /// threads; the callback must be thread-safe). Observation-only.
  std::function<void(double, std::int64_t)> onBest;
  /// Multi-tenant attribution: when non-empty, stamped into the trace
  /// run-meta record as "job" so one trace file can carry many runs.
  std::string jobLabel;
};

/// One result struct for every substrate. Per-substrate notes: under sim,
/// `curve` and event times are virtual seconds and bit-deterministic for a
/// fixed seed; under threads they are per-node wall seconds and `curve` is
/// the post-hoc merge of `nodeCurves`.
struct RunResult {
  std::int64_t bestLength = 0;
  std::vector<int> bestOrder;
  bool hitTarget = false;
  /// Per-node time at which the target was first reached.
  double targetTime = 0.0;
  /// Global best length vs per-node CPU time.
  AnytimeCurve curve;
  /// Per-node anytime curves (each node's local best over its own clock).
  std::vector<AnytimeCurve> nodeCurves;
  EventLog events;
  NetworkStats net;
  std::int64_t messagesSent = 0;    ///< == net.messagesSent (convenience)
  /// Per-node final best lengths (the paper collects results from each
  /// node's local output, there being no global control).
  std::vector<std::int64_t> nodeBest;
  std::vector<double> nodeClocks;   ///< final per-node time
  std::int64_t totalSteps = 0;      ///< EA iterations across all nodes
  std::int64_t totalRestarts = 0;
};

/// How messages move between nodes. Implementations must tolerate calls
/// for dead nodes (drops, like the real network losing packets to a downed
/// host). Thread-runtime adapters must be thread-safe; the simulator calls
/// from a single thread.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Delivers `msg` to every live neighbor of `from`. `now` is the
  /// sender's clock (simulated delivery timestamps; wall transports may
  /// ignore it).
  virtual void broadcast(int from, double now, const Message& msg) = 0;
  virtual void send(int from, int to, double now, const Message& msg) = 0;
  /// Removes and returns everything that has arrived at `node` by `now`.
  virtual std::vector<Message> collect(int node, double now) = 0;
  /// Membership: kill = permanent leave; setAlive toggles churn state.
  virtual void kill(int node) = 0;
  virtual void setAlive(int node, bool alive) = 0;
  virtual bool isAlive(int node) const = 0;
  /// Termination criterion 2: the target finder notifies the cluster.
  /// Wall transports broadcast kOptimumFound; the simulator ends the run
  /// centrally, so its adapter is a no-op.
  virtual void announceTarget(int from, std::int64_t length) = 0;
  virtual NetworkStats stats() const = 0;
  virtual const char* name() const noexcept = 0;  ///< run-meta "runtime"
};

class SimNetwork;
class ThreadNetwork;

/// Transport over the discrete-event SimNetwork.
class SimTransport final : public Transport {
 public:
  explicit SimTransport(SimNetwork& net) : net_(net) {}
  void broadcast(int from, double now, const Message& msg) override;
  void send(int from, int to, double now, const Message& msg) override;
  std::vector<Message> collect(int node, double now) override;
  void kill(int node) override;
  void setAlive(int node, bool alive) override;
  bool isAlive(int node) const override;
  void announceTarget(int from, std::int64_t length) override;
  NetworkStats stats() const override;
  const char* name() const noexcept override { return "sim"; }

 private:
  SimNetwork& net_;
};

/// Transport over the concurrent ThreadNetwork mailboxes.
class ThreadTransport final : public Transport {
 public:
  explicit ThreadTransport(ThreadNetwork& net) : net_(net) {}
  void broadcast(int from, double now, const Message& msg) override;
  void send(int from, int to, double now, const Message& msg) override;
  std::vector<Message> collect(int node, double now) override;
  void kill(int node) override;
  void setAlive(int node, bool alive) override;
  bool isAlive(int node) const override;
  void announceTarget(int from, std::int64_t length) override;
  NetworkStats stats() const override;
  const char* name() const noexcept override { return "threads"; }

 private:
  ThreadNetwork& net_;
};

/// How time passes for a node: budgets, snapshot intervals, and trace
/// timestamps all come from here, so the event loop never touches a timer
/// or a virtual-clock array directly.
class Clock {
 public:
  virtual ~Clock() = default;
  /// The node's current local time (virtual seconds or wall seconds since
  /// the node started).
  virtual double now(int node) const = 0;
  /// Accounts one compute phase and returns the node's time after it. The
  /// virtual clock advances by the charged cost; the wall clock has
  /// already elapsed and may throttle nodes with speed < 1.
  virtual double chargeCompute(int node, std::int64_t modelCost,
                               double measuredSeconds) = 0;
  virtual const char* kindName() const noexcept = 0;  ///< run-meta "clock"
};

/// Deterministic per-node virtual clocks (the simulator's time source).
class VirtualClock final : public Clock {
 public:
  VirtualClock(int nodes, CostModel model, double modeledWorkPerSecond,
               std::vector<double> nodeSpeeds);
  double now(int node) const override { return clocks_[std::size_t(node)]; }
  double chargeCompute(int node, std::int64_t modelCost,
                       double measuredSeconds) override;
  /// Churn: a late joiner's clock starts at its join time.
  void setNow(int node, double t) { clocks_[std::size_t(node)] = t; }
  const char* kindName() const noexcept override { return "virtual"; }

 private:
  CostModel model_;
  double workPerSecond_;
  std::vector<double> speeds_;  ///< empty = homogeneous
  std::vector<double> clocks_;
};

/// Per-node wall clocks (the thread runtime's time source). Each node's
/// epoch is set by its own thread via startNode(); nodes with configured
/// speed < 1 are throttled inside chargeCompute by sleeping the extra time
/// a proportionally slower machine would have needed.
class WallClock final : public Clock {
 public:
  WallClock(int nodes, std::vector<double> nodeSpeeds);
  /// Sets node's epoch to the current wall time. Call once, from the
  /// node's own thread, before its first now().
  void startNode(int node);
  double now(int node) const override;
  double chargeCompute(int node, std::int64_t modelCost,
                       double measuredSeconds) override;
  const char* kindName() const noexcept override { return "wall"; }

 private:
  std::vector<double> speeds_;
  std::vector<std::int64_t> epochNs_;
};

/// Cross-node best tracking for substrates with a centralized view (the
/// simulator): global best tour, global anytime curve. Single-threaded.
struct GlobalBest {
  std::int64_t bestLength = std::numeric_limits<std::int64_t>::max();
  std::vector<int> bestOrder;
  AnytimeCurve curve;
};

/// Periodic metric snapshots over one clock. The simulator shares one
/// instance across all nodes (any step may cross a boundary); the thread
/// runtime hands it to node 0's runner only. Each crossed boundary emits a
/// metrics trace record (when a sink is attached) and refreshes the
/// Prometheus snapshot file (when promPath is non-empty).
class Snapshotter {
 public:
  Snapshotter(obs::TraceSink* sink, obs::MetricsRegistry& registry,
              double intervalSeconds, std::string promPath = {});
  void maybe(double now);

 private:
  obs::TraceSink* sink_;
  obs::MetricsRegistry& registry_;
  double interval_;
  double next_;
  std::string promPath_;
};

/// The Fig.-1 per-node iteration, shared by every substrate: compute
/// (perturb + inner CLK), then commit — charge the clock, collect neighbor
/// messages, merge, then bookkeeping: events, curves, broadcast, snapshot,
/// target. One runner per node; runners never touch each other's state, so
/// the thread runtime runs them concurrently without locks. The simulator
/// runs the compute halves on a worker pool, ahead of time, and commits
/// them from one thread in virtual-time order (DESIGN.md §6.1).
class NodeRunner {
 public:
  /// Run-wide environment shared by all runners (everything in it must
  /// outlive them). `globalBest` non-null selects centralized improvement
  /// semantics (kImprovement = new global best, as the simulator reports);
  /// null selects local semantics (kImprovement = new node-local best not
  /// caused by a received tour, as thread nodes report).
  struct Env {
    Transport& transport;
    Clock& clock;
    const RunConfig& cfg;
    obs::TraceSink* sink = nullptr;
    std::atomic<bool>* stop = nullptr;
    GlobalBest* globalBest = nullptr;
  };

  /// `log` is where events land: the simulator passes one shared log (to
  /// preserve its deterministic emission order), the thread runtime one
  /// log per node. `snapshotter` may be null. `joinTime` > 0 marks a late
  /// joiner (logs kNodeJoined when it enters).
  NodeRunner(DistNode& node, const Env& env, EventLog& log,
             Snapshotter* snapshotter, double joinTime = 0.0);

  /// Joins the network (a late joiner also logs kNodeJoined). Call once,
  /// before the first commit: the simulator calls it at that commit's
  /// turn, the thread runtime before its first compute, so peers'
  /// broadcasts during the initial CLK reach the node's mailbox.
  void enter();
  /// The compute half of the next tick: construction + CLK before the
  /// first commit, perturbation + inner CLK after it. Touches only this
  /// node's DistNode, so it may run on another thread than the commit.
  DistNode::ComputePhase compute();
  /// The commit half. Returns true when the target was reached.
  bool commit(DistNode::ComputePhase phase);
  /// compute + commit on the calling thread.
  bool tick() { return commit(compute()); }

  /// Scheduler-level membership changes (budget exhaustion, injected
  /// failure). `failed` additionally logs kNodeFailed at `when`.
  void leave(double when, bool failed);

  const AnytimeCurve& curve() const noexcept { return curve_; }

  /// Audit-mode invariant check: the node-local anytime curve must be
  /// strictly improving in length and non-decreasing in time, and when the
  /// runner maintains the centralized global best, the global curve must be
  /// too. Hooked after every recordBest() in -DDISTCLK_AUDIT=ON builds;
  /// broadcasts additionally round-trip through the versioned wire codec.
  void auditCheck(const char* where) const;

  std::int64_t steps() const noexcept { return steps_; }
  std::int64_t restarts() const noexcept { return restarts_; }
  bool hitTarget() const noexcept { return hitTarget_; }
  double targetTime() const noexcept { return targetTime_; }
  const DistNode& node() const noexcept { return node_; }

 private:
  bool commitInitial(DistNode::ComputePhase phase);
  bool commitStep(DistNode::ComputePhase phase);
  bool reachTarget(double end, std::int64_t length);
  void logEvent(double t, NodeEventType type, std::int64_t value);
  void recordBest(double now, std::int64_t length, bool improvedByMessage,
                  bool logImprovement);
  void maybeEmitNodeBest(double now);
  void checkStall(double now);

  DistNode& node_;
  Env env_;
  EventLog& log_;
  Snapshotter* snapshotter_;
  double joinTime_;
  AnytimeCurve curve_;       ///< node-local best over the node's clock
  int lastPerturbLevel_ = 1;
  std::int64_t steps_ = 0;
  std::int64_t restarts_ = 0;
  bool hitTarget_ = false;
  double targetTime_ = 0.0;
  // Causal-trace state (only touched when a sink is attached). The Lamport
  // clock follows the textbook rules — send: ++L, stamp; receive:
  // L = max(L, stamp) + 1 — and is observation-only: no node decision ever
  // reads it, so traced runs reproduce un-traced trajectories exactly.
  std::uint64_t lamport_ = 0;
  std::uint64_t sendSeq_ = 0;   ///< per-sender broadcast counter (1-based)
  double seriesNext_ = 0.0;     ///< next node-best series boundary
  bool stalled_ = false;        ///< stall episode already reported
};

/// Runs the distributed algorithm on the substrate selected by
/// cfg.runtime. The simulated substrate is deterministic under
/// CostModel::kModeled; the thread substrate blocks until all node threads
/// join.
RunResult runDistributed(const Instance& inst, const CandidateLists& cand,
                         const RunConfig& cfg);

/// Context-based entry point: consumes shared immutable preprocessing (one
/// candidate build + construction tour for any number of runs). The legacy
/// (Instance, CandidateLists) overload wraps the references in a borrowed
/// context and forwards here, so there is exactly one execution path.
RunResult runDistributed(const std::shared_ptr<const InstanceContext>& ctx,
                         const RunConfig& cfg);

}  // namespace distclk
