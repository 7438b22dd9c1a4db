#include "core/runtime.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/runtime_detail.h"
#include "net/sim_network.h"
#include "net/thread_network.h"
#include "obs/prom.h"
#include "util/audit.h"
#include "util/rng.h"
#include "util/sync.h"
#include "util/timer.h"

namespace distclk {

namespace {

[[maybe_unused]] void auditCurve(const AnytimeCurve& curve, const char* name,
                                 const char* where) {
  for (std::size_t i = 1; i < curve.size(); ++i) {
    if (curve[i].length >= curve[i - 1].length)
      audit::fail(name, where, "anytime curve not strictly improving");
    if (curve[i].time < curve[i - 1].time)
      audit::fail(name, where, "anytime curve time not monotone");
  }
}

/// Broadcast audit: the message must encode at exactly serializedSize()
/// bytes, carry the wire version matching its stamp state (v3 with a trace
/// trailer, v2 without), and survive a codec round trip.
[[maybe_unused]] void auditWireMessage(const Message& msg, const char* where) {
  const auto buf = serialize(msg);
  if (buf.size() != serializedSize(msg))
    audit::fail("NodeRunner", where, "serialize() size != serializedSize()");
  const std::uint8_t expected =
      msg.trace.has_value() ? kWireVersion : kWireVersionPlain;
  if (buf.size() < 4 || buf[3] != expected)
    audit::fail("NodeRunner", where, "wire version mismatch in encoded message");
  if (deserialize(buf) != msg)
    audit::fail("NodeRunner", where, "message codec round trip not identical");
}

}  // namespace

const char* toString(RuntimeKind k) noexcept {
  switch (k) {
    case RuntimeKind::kSim: return "sim";
    case RuntimeKind::kThreads: return "threads";
  }
  return "?";
}

RuntimeKind runtimeKindFromString(const std::string& name) {
  if (name == "sim") return RuntimeKind::kSim;
  if (name == "threads") return RuntimeKind::kThreads;
  throw std::invalid_argument("unknown runtime '" + name +
                              "' (expected sim|threads)");
}

// ---------------------------------------------------------------------------
// Transports

void SimTransport::broadcast(int from, double now, const Message& msg) {
  net_.broadcast(from, now, msg);
}
void SimTransport::send(int from, int to, double now, const Message& msg) {
  net_.send(from, to, now, msg);
}
std::vector<Message> SimTransport::collect(int node, double now) {
  return net_.collect(node, now);
}
void SimTransport::kill(int node) { net_.killNode(node); }
void SimTransport::setAlive(int node, bool alive) { net_.setAlive(node, alive); }
bool SimTransport::isAlive(int node) const { return net_.isAlive(node); }
void SimTransport::announceTarget(int, std::int64_t) {
  // Termination criterion 2 is centralized under simulation: the scheduler
  // halts the whole run the moment any node reports the target, so there
  // is no cluster left to notify.
}
NetworkStats SimTransport::stats() const { return net_.stats(); }

void ThreadTransport::broadcast(int from, double, const Message& msg) {
  net_.broadcast(from, msg);
}
void ThreadTransport::send(int from, int to, double, const Message& msg) {
  net_.send(from, to, msg);
}
std::vector<Message> ThreadTransport::collect(int node, double) {
  return net_.mailbox(node).drain();
}
void ThreadTransport::kill(int node) { net_.killNode(node); }
void ThreadTransport::setAlive(int node, bool alive) {
  net_.setAlive(node, alive);
}
bool ThreadTransport::isAlive(int node) const { return net_.isAlive(node); }
void ThreadTransport::announceTarget(int from, std::int64_t length) {
  Message msg;
  msg.type = MessageType::kOptimumFound;
  msg.from = from;
  msg.length = length;
  net_.broadcast(from, msg);
}
NetworkStats ThreadTransport::stats() const { return net_.stats(); }

// ---------------------------------------------------------------------------
// Clocks

VirtualClock::VirtualClock(int nodes, CostModel model,
                           double modeledWorkPerSecond,
                           std::vector<double> nodeSpeeds)
    : model_(model),
      workPerSecond_(modeledWorkPerSecond),
      speeds_(std::move(nodeSpeeds)),
      clocks_(std::size_t(nodes), 0.0) {}

double VirtualClock::chargeCompute(int node, std::int64_t modelCost,
                                   double measuredSeconds) {
  double cost = model_ == CostModel::kMeasured
                    ? measuredSeconds
                    : static_cast<double>(modelCost) / workPerSecond_;
  if (!speeds_.empty()) cost /= speeds_[std::size_t(node)];
  clocks_[std::size_t(node)] += cost;
  return clocks_[std::size_t(node)];
}

namespace {
std::int64_t steadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

WallClock::WallClock(int nodes, std::vector<double> nodeSpeeds)
    : speeds_(std::move(nodeSpeeds)),
      epochNs_(std::size_t(nodes), steadyNowNs()) {}

void WallClock::startNode(int node) {
  epochNs_[std::size_t(node)] = steadyNowNs();
}

double WallClock::now(int node) const {
  return double(steadyNowNs() - epochNs_[std::size_t(node)]) * 1e-9;
}

double WallClock::chargeCompute(int node, std::int64_t /*modelCost*/,
                                double measuredSeconds) {
  // A node with speed s < 1 models a machine 1/s times slower: the same
  // compute phase would have taken measured/s seconds there, so sleep off
  // the difference. Speeds > 1 cannot make real hardware faster and are
  // left as-is (the virtual clock handles both directions exactly).
  if (!speeds_.empty()) {
    const double s = speeds_[std::size_t(node)];
    if (s < 1.0 && measuredSeconds > 0.0)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(measuredSeconds * (1.0 / s - 1.0)));
  }
  return now(node);
}

// ---------------------------------------------------------------------------
// Snapshotter

Snapshotter::Snapshotter(obs::TraceSink* sink, obs::MetricsRegistry& registry,
                         double intervalSeconds, std::string promPath)
    : sink_(sink),
      registry_(registry),
      interval_(intervalSeconds),
      next_((sink != nullptr || !promPath.empty()) && intervalSeconds > 0
                ? intervalSeconds
                : std::numeric_limits<double>::infinity()),
      promPath_(std::move(promPath)) {}

void Snapshotter::maybe(double now) {
  // One record per crossed boundary, stamped with the time of the step
  // that crossed it (matching the pre-refactor simulator).
  while (now >= next_) {
    const obs::MetricsSnapshot snap = registry_.snapshot();
    if (sink_ != nullptr) sink_->write(obs::metricsRecord(now, snap));
    if (!promPath_.empty())
      obs::writePrometheusSnapshot(promPath_, snap, now);
    next_ += interval_;
  }
}

// ---------------------------------------------------------------------------
// NodeRunner

NodeRunner::NodeRunner(DistNode& node, const Env& env, EventLog& log,
                       Snapshotter* snapshotter, double joinTime)
    : node_(node),
      env_(env),
      log_(log),
      snapshotter_(snapshotter),
      joinTime_(joinTime),
      seriesNext_(env.sink != nullptr && env.cfg.metricsIntervalSeconds > 0
                      ? env.cfg.metricsIntervalSeconds
                      : std::numeric_limits<double>::infinity()) {}

void NodeRunner::maybeEmitNodeBest(double now) {
  if (now < seriesNext_) return;
  env_.sink->write(obs::nodeBestRecord(now, node_.id(),
                                       node_.best().length(),
                                       node_.noImprovements()));
  // Jump to the next boundary after `now` instead of incrementing, so a
  // late joiner does not flood the trace catching up on missed intervals.
  const double interval = env_.cfg.metricsIntervalSeconds;
  seriesNext_ = (std::floor(now / interval) + 1.0) * interval;
}

void NodeRunner::checkStall(double now) {
  if (env_.cfg.stallSeconds <= 0.0) return;
  // Last improvement: the global curve tail under the simulator's
  // centralized view, the node-local tail under threads; before any
  // improvement, progress is counted from the node's join.
  double last = joinTime_;
  if (env_.globalBest != nullptr) {
    if (!env_.globalBest->curve.empty())
      last = env_.globalBest->curve.back().time;
  } else if (!curve_.empty()) {
    last = curve_.back().time;
  }
  const double stalledFor = now - last;
  if (stalledFor >= env_.cfg.stallSeconds) {
    if (!stalled_) {
      stalled_ = true;
      logEvent(now, NodeEventType::kStall,
               std::llround(stalledFor * 1000.0));
    }
  } else {
    stalled_ = false;  // progress resumed: re-arm the detector
  }
}

void NodeRunner::logEvent(double t, NodeEventType type, std::int64_t value) {
  log_.push_back({t, node_.id(), type, value});
  if (env_.sink != nullptr) env_.sink->write(obs::eventRecord(log_.back()));
}

void NodeRunner::recordBest(double now, std::int64_t length,
                            bool improvedByMessage, bool logImprovement) {
  // Node-local anytime curve (strictly improving, like the merge result).
  const bool localImprovement =
      curve_.empty() || length < curve_.back().length;
  if (localImprovement) curve_.push_back({now, length});

  if (env_.globalBest != nullptr) {
    // Centralized semantics (simulator): kImprovement marks a new GLOBAL
    // best, and the global curve is maintained here. Event before curve
    // update, exactly as the pre-refactor driver emitted them.
    GlobalBest& g = *env_.globalBest;
    if (length < g.bestLength) {
      if (logImprovement)
        logEvent(now, NodeEventType::kImprovement, length);
      g.bestLength = length;
      g.bestOrder = node_.best().orderVector();
      g.curve.push_back({now, length});
      if (env_.cfg.onBest) env_.cfg.onBest(now, length);
    }
  } else {
    if (localImprovement && !improvedByMessage && logImprovement) {
      // Local semantics (threads): kImprovement marks a locally computed new
      // node best; received tours are already logged as kTourReceived.
      logEvent(now, NodeEventType::kImprovement, length);
    }
    // Streaming sees every node-local best (adopted or computed); the job
    // layer dedups across nodes by value. Observation-only either way.
    if (localImprovement && env_.cfg.onBest) env_.cfg.onBest(now, length);
  }
  DISTCLK_AUDIT_HOOK(auditCheck("NodeRunner::recordBest"));
}

void NodeRunner::auditCheck(const char* where) const {
  auditCurve(curve_, "NodeRunner", where);
  if (env_.globalBest != nullptr) {
    auditCurve(env_.globalBest->curve, "NodeRunner(global)", where);
    if (!env_.globalBest->curve.empty() &&
        env_.globalBest->curve.back().length != env_.globalBest->bestLength)
      audit::fail("NodeRunner", where, "global best != global curve tail");
  }
}

void NodeRunner::enter() {
  env_.transport.setAlive(node_.id(), true);
  if (joinTime_ > 0.0) logEvent(env_.clock.now(node_.id()),
                                NodeEventType::kNodeJoined, 1);
}

DistNode::ComputePhase NodeRunner::compute() {
  // steps_ counts commits, so zero means the initial step is still due.
  return steps_ == 0 ? node_.initialCompute() : node_.compute();
}

bool NodeRunner::commit(DistNode::ComputePhase phase) {
  return steps_ == 0 ? commitInitial(std::move(phase))
                     : commitStep(std::move(phase));
}

bool NodeRunner::reachTarget(double end, std::int64_t length) {
  hitTarget_ = true;
  targetTime_ = end;
  logEvent(end, NodeEventType::kTargetReached, length);
  if (env_.stop != nullptr) env_.stop->store(true, std::memory_order_relaxed);
  env_.transport.announceTarget(node_.id(), length);
  return true;
}

bool NodeRunner::commitInitial(DistNode::ComputePhase phase) {
  const auto out = node_.commitInitial(std::move(phase));
  const double end =
      env_.clock.chargeCompute(node_.id(), out.modelCost, out.measuredSeconds);
  ++steps_;
  logEvent(end, NodeEventType::kInitialTour, out.bestLength);
  recordBest(end, out.bestLength, /*improvedByMessage=*/false,
             /*logImprovement=*/false);
  if (snapshotter_ != nullptr) snapshotter_->maybe(end);
  if (out.foundTarget) return reachTarget(end, out.bestLength);
  return false;
}

bool NodeRunner::commitStep(DistNode::ComputePhase phase) {
  const int id = node_.id();
  // Fig. 1: perturb + inner CLK first; the messages that arrived while the
  // compute phase "ran" are only seen afterwards (the paper's nodes poll
  // their receive queue once CLK returns).
  const double end =
      env_.clock.chargeCompute(id, phase.modelCost, phase.measuredSeconds);
  const int perturbations = phase.perturbations;
  const bool restarted = phase.restarted;
  const auto received = env_.transport.collect(id, end);
  // Causal trace, receive side: apply the Lamport receive rule per stamped
  // message and pair it with the sender's msg-sent record via (from, seq).
  if (env_.sink != nullptr) {
    for (const Message& m : received) {
      if (!m.trace.has_value()) continue;
      lamport_ = std::max(lamport_, m.trace->lamport) + 1;
      env_.sink->write(obs::msgRecvRecord(end, id, m.from, m.trace->seq,
                                          m.trace->lamport, lamport_,
                                          m.length));
    }
  }
  const auto out = node_.merge(std::move(phase), received);
  ++steps_;

  if (restarted) {
    ++restarts_;
    // Event value documents how deep the stagnation ran (trace.h).
    logEvent(end, NodeEventType::kRestart, out.noImprovementsAtRestart);
    lastPerturbLevel_ = 1;
  } else if (perturbations != lastPerturbLevel_) {
    lastPerturbLevel_ = perturbations;
    logEvent(end, NodeEventType::kPerturbationLevel, perturbations);
  }
  if (out.improvedByMessage) {
    logEvent(end, NodeEventType::kTourReceived, out.bestLength);
    // Provenance edge: merge kept `from`'s tour over everything local.
    if (env_.sink != nullptr && out.improvedFromNode >= 0)
      env_.sink->write(
          obs::adoptRecord(end, id, out.improvedFromNode, out.bestLength));
  }
  if (out.broadcast) {
    logEvent(end, NodeEventType::kBroadcastSent, out.bestLength);
    Message msg = node_.makeTourMessage();
    // Causal trace, send side: stamp with this sender's next sequence
    // number and Lamport send time. Unstamped messages (tracing off) still
    // encode as wire v2, keeping byte accounting identical to seed runs.
    if (env_.sink != nullptr) {
      msg.trace = TraceStamp{++sendSeq_, ++lamport_};
      env_.sink->write(obs::msgSentRecord(
          end, id, sendSeq_, lamport_, msg.length,
          static_cast<std::int64_t>(serializedSize(msg))));
    }
    DISTCLK_AUDIT_HOOK(auditWireMessage(msg, "NodeRunner::commit"));
    env_.transport.broadcast(id, end, msg);
  }
  recordBest(end, out.bestLength, out.improvedByMessage,
             /*logImprovement=*/true);
  checkStall(end);
  if (env_.sink != nullptr) maybeEmitNodeBest(end);
  if (snapshotter_ != nullptr) snapshotter_->maybe(end);
  if (out.foundTarget) return reachTarget(end, out.bestLength);
  // Termination criterion 2, receiver side: a peer announced the target.
  if (env_.stop != nullptr) {
    for (const Message& msg : received)
      if (msg.type == MessageType::kOptimumFound)
        env_.stop->store(true, std::memory_order_relaxed);
  }
  return false;
}

void NodeRunner::leave(double when, bool failed) {
  env_.transport.kill(node_.id());
  if (failed) logEvent(when, NodeEventType::kNodeFailed, 0);
}

// ---------------------------------------------------------------------------
// Shared driver plumbing

namespace {

void validateConfig(const RunConfig& cfg) {
  if (cfg.nodes < 1) throw std::invalid_argument("RunConfig: nodes >= 1");
  if (!cfg.nodeSpeeds.empty()) {
    if (static_cast<int>(cfg.nodeSpeeds.size()) != cfg.nodes)
      throw std::invalid_argument("RunConfig: nodeSpeeds size != nodes");
    for (double s : cfg.nodeSpeeds)
      if (s <= 0.0)
        throw std::invalid_argument("RunConfig: node speeds must be > 0");
  }
  for (const auto& [node, when] : cfg.joins)
    if (node < 0 || node >= cfg.nodes)
      throw std::invalid_argument("RunConfig: join node out of range");
  for (const auto& [node, when] : cfg.failures)
    if (node < 0 || node >= cfg.nodes)
      throw std::invalid_argument("RunConfig: failure node out of range");
}

std::vector<DistNode> buildNodes(const InstanceContext& ctx,
                                 const RunConfig& cfg) {
  Rng master(cfg.seed);
  std::vector<DistNode> nodes;
  nodes.reserve(std::size_t(cfg.nodes));
  for (int i = 0; i < cfg.nodes; ++i) {
    nodes.emplace_back(ctx.instance(), ctx.candidates(), cfg.node, i,
                       master());
    // All nodes (and all restarts) start from the context's cached
    // construction order — trajectory-identical to recomputing it, since
    // quick-Boruvka is a pure function of (instance, candidates).
    nodes.back().setConstructionOrder(&ctx.constructionOrder());
  }
  return nodes;
}

bool cancelled(const RunConfig& cfg) {
  return cfg.cancel != nullptr && cfg.cancel->load(std::memory_order_relaxed);
}

// Wires network + node probes and writes the run-meta record. Observation
// never feeds back into node decisions, so traced simulated runs reproduce
// un-traced results exactly. Metrics probes attach for either consumer
// (trace sink or --metrics-out exposition); the run-meta record needs a
// sink.
template <typename Network>
void attachObservation(const InstanceContext& ctx, const RunConfig& cfg,
                       const char* algorithm, const char* clockName,
                       Network& net, std::vector<DistNode>& nodes,
                       obs::MetricsRegistry& registry) {
  const Instance& inst = ctx.instance();
  if (cfg.trace == nullptr && cfg.metricsOutPath.empty()) return;
  net.attachMetrics(registry);
  const NodeMetrics nodeMetrics = NodeMetrics::attach(registry);
  for (auto& node : nodes) node.setMetrics(nodeMetrics);
  // Preprocessing phase wall times for this run's context (zero when the
  // context was borrowed, e.g. legacy call sites without a full build).
  // Gauges, not histograms: one context per run; the Prometheus snapshot
  // (distclk_prep_kdtree_ms, ...) and the trace's metrics record carry
  // them to dashboards and trace_report.
  if (!ctx.borrowed()) {
    const PreprocessBuildStats& prep = ctx.buildStats();
    registry.set(registry.gauge("prep.kdtree_ms"), prep.kdtreeMs);
    registry.set(registry.gauge("prep.cand_ms"), prep.candMs);
    registry.set(registry.gauge("prep.construct_ms"), prep.constructMs);
    registry.set(registry.gauge("prep.threads"), double(prep.threads));
  }
  if (cfg.trace == nullptr) return;
  obs::RunMeta meta;
  meta.instance = inst.name();
  meta.n = inst.n();
  meta.algorithm = algorithm;
  meta.nodes = cfg.nodes;
  meta.topology = toString(cfg.topology);
  meta.seed = cfg.seed;
  meta.cv = cfg.node.cv;
  meta.cr = cfg.node.cr;
  meta.kick = toString(cfg.node.clkKick);
  meta.timeLimitPerNode = cfg.timeLimitPerNode;
  meta.clock = clockName;
  meta.runtime = toString(cfg.runtime);
  meta.wireVersion = kWireVersion;
  meta.job = cfg.jobLabel;
  cfg.trace->write(obs::runMetaRecord(meta));
}

void sortEvents(EventLog& events) {
  std::sort(events.begin(), events.end(),
            [](const NodeEvent& a, const NodeEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.node < b.node;
            });
}

void writeRunEnd(const RunConfig& cfg, obs::MetricsRegistry& registry,
                 double finalTime, const RunResult& res) {
  if (cfg.trace == nullptr && cfg.metricsOutPath.empty()) return;
  const obs::MetricsSnapshot snap = registry.snapshot();
  if (cfg.trace != nullptr) {
    cfg.trace->write(obs::metricsRecord(finalTime, snap));
    cfg.trace->write(obs::runEndRecord(finalTime, res.bestLength,
                                       res.hitTarget, res.totalSteps,
                                       res.net.messagesSent));
    cfg.trace->flush();
  }
  // Final exposition snapshot, so post-run scrapes see the run's totals.
  if (!cfg.metricsOutPath.empty())
    obs::writePrometheusSnapshot(cfg.metricsOutPath, snap, finalTime);
}

// ---------------------------------------------------------------------------
// Compute pipeline: runs the simulated nodes' compute phases ahead of their
// commits. A node's next compute reads only its own DistNode, and messages
// are read only at commit, so the phases of different nodes are independent
// and may run at once; the scheduler still commits them one at a time in
// virtual-time order. See DESIGN.md §6.1.

class SimPipeline {
 public:
  /// Spawns `workers - 1` threads; the scheduler thread is the remaining
  /// worker (see take()). With one worker nothing is spawned and take()
  /// runs every phase inline, which is exactly the serial order.
  SimPipeline(std::vector<NodeRunner>& runners, int workers)
      : runners_(runners), slots_(runners.size()) {
    try {
      for (int i = 1; i < workers; ++i)
        threads_.emplace_back([this] { workerLoop(); });
    } catch (...) {
      stop();  // a failed spawn must not leave the started ones joinable
      throw;
    }
  }

  /// Joins every worker. In-flight phases (at most one per worker) finish
  /// and are dropped unobserved.
  ~SimPipeline() { stop(); }

  SimPipeline(const SimPipeline&) = delete;
  SimPipeline& operator=(const SimPipeline&) = delete;

  /// Queues `node`'s next compute; `start` (its clock) orders the queue.
  void launch(int node, double start) {
    {
      const sync::MutexLock lock(mu_);
      Slot& slot = slots_[std::size_t(node)];
      slot.state = State::kQueued;
      slot.start = start;
    }
    work_.notifyOne();
  }

  /// Returns `node`'s launched phase; rethrows what it threw. Until the
  /// phase is done the calling (scheduler) thread works like any worker:
  /// it runs `node`'s phase itself if no worker has started it, otherwise
  /// the next queued one, and sleeps only when nothing is queued. (Merely
  /// waiting would idle it: the workers take phases in the scheduler's own
  /// order, so the one it needs next is usually already running.)
  DistNode::ComputePhase take(int node) {
    while (true) {
      int run = -1;
      {
        const sync::MutexLock lock(mu_);
        Slot& slot = slots_[std::size_t(node)];
        if (slot.state == State::kIdle)
          throw std::logic_error("SimPipeline: take() without launch()");
        if (slot.state == State::kDone) {
          slot.state = State::kIdle;
          if (slot.error) std::rethrow_exception(std::exchange(slot.error, {}));
          DistNode::ComputePhase phase = std::move(*slot.phase);
          slot.phase.reset();
          return phase;
        }
        run = slot.state == State::kQueued ? node : nextQueued();
        if (run < 0) {
          done_.wait(mu_);
          continue;
        }
        slots_[std::size_t(run)].state = State::kRunning;
      }
      execute(run);
    }
  }

 private:
  enum class State { kIdle, kQueued, kRunning, kDone };
  struct Slot {
    State state = State::kIdle;
    double start = 0.0;
    std::optional<DistNode::ComputePhase> phase;
    std::exception_ptr error;
  };

  void stop() {
    {
      const sync::MutexLock lock(mu_);
      stopping_ = true;
    }
    work_.notifyAll();
    for (std::thread& t : threads_) t.join();
  }

  void workerLoop() {
    while (true) {
      int node = -1;
      {
        const sync::MutexLock lock(mu_);
        while (!stopping_ && (node = nextQueued()) < 0) work_.wait(mu_);
        if (stopping_) return;
        slots_[std::size_t(node)].state = State::kRunning;
      }
      execute(node);
    }
  }

  /// The queued phase the scheduler will need first: smallest
  /// (start, node), the scheduler's own order. -1 when none is queued.
  int nextQueued() const DISTCLK_REQUIRES(mu_) {
    int best = -1;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].state != State::kQueued) continue;
      if (best < 0 || slots_[i].start < slots_[std::size_t(best)].start)
        best = int(i);
    }
    return best;
  }

  /// Runs one phase outside the lock (it touches only its node's state)
  /// and publishes the result.
  void execute(int node) {
    std::optional<DistNode::ComputePhase> phase;
    std::exception_ptr error;
    try {
      phase.emplace(runners_[std::size_t(node)].compute());
    } catch (...) {
      error = std::current_exception();
    }
    {
      const sync::MutexLock lock(mu_);
      Slot& slot = slots_[std::size_t(node)];
      slot.phase = std::move(phase);
      slot.error = error;
      slot.state = State::kDone;
    }
    done_.notifyAll();
  }

  std::vector<NodeRunner>& runners_;
  // Leaf lock: nothing is acquired under it, and phases run outside it.
  sync::Mutex mu_{sync::LockRank::kSimPipeline, "SimPipeline.mu"};
  sync::CondVar work_;  ///< a phase was queued, or stopping
  sync::CondVar done_;  ///< a phase finished
  std::vector<Slot> slots_ DISTCLK_GUARDED_BY(mu_);
  bool stopping_ DISTCLK_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

/// The worker count runDistributed gives a simulated run: min(nodes,
/// hardware threads) under CostModel::kModeled, 1 under kMeasured (whose
/// virtual time is the wall time of each phase, so phases running at once
/// would inflate each other's charge).
int simWorkers(const RunConfig& cfg) {
  if (cfg.costModel == CostModel::kMeasured) return 1;
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(cfg.nodes, hardware));
}

// ---------------------------------------------------------------------------
// Simulated substrate: deterministic discrete-event scheduler over
// SimTransport + VirtualClock. Always commits the node with the smallest
// virtual clock (strict <, ties to the lowest id), so runs are bit-exact
// reproductions for a fixed seed at any worker count.

RunResult runSim(const InstanceContext& ctx, const RunConfig& cfg,
                 int workers) {
  SimNetwork net(buildTopology(cfg.topology, cfg.nodes), cfg.latencySeconds);
  SimTransport transport(net);
  VirtualClock clock(cfg.nodes, cfg.costModel, cfg.modeledWorkPerSecond,
                     cfg.nodeSpeeds);
  std::vector<DistNode> nodes = buildNodes(ctx, cfg);

  obs::MetricsRegistry metricsReg;
  attachObservation(ctx, cfg, "dist-sim", clock.kindName(), net, nodes,
                    metricsReg);
  // One shared snapshotter: any node's step may cross an interval boundary.
  Snapshotter snapshotter(cfg.trace, metricsReg, cfg.metricsIntervalSeconds,
                          cfg.metricsOutPath);
  GlobalBest global;
  EventLog events;  // one log, in emission order (event parity depends on it)

  // Churn: late joiners start their clock at the join time and are dead to
  // the network until then.
  std::vector<double> joinTimes(std::size_t(cfg.nodes), 0.0);
  for (const auto& [node, when] : cfg.joins) {
    joinTimes[std::size_t(node)] = when;
    clock.setNow(node, when);
    net.setAlive(node, false);
  }
  std::vector<double> failTimes(std::size_t(cfg.nodes),
                                std::numeric_limits<double>::infinity());
  for (const auto& [node, when] : cfg.failures)
    failTimes[std::size_t(node)] =
        std::min(failTimes[std::size_t(node)], when);

  NodeRunner::Env env{transport, clock,   cfg,
                      cfg.trace, nullptr, &global};
  std::vector<NodeRunner> runners;
  runners.reserve(std::size_t(cfg.nodes));
  for (int i = 0; i < cfg.nodes; ++i)
    runners.emplace_back(nodes[std::size_t(i)], env, events, &snapshotter,
                         joinTimes[std::size_t(i)]);

  RunResult res;
  {
    // Declared after nodes and runners, and scoped: every worker is joined
    // before they die, on every exit path, and before the result below
    // reads them.
    SimPipeline pipeline(runners, workers);
    // Launch rule: queue a node's next phase only when its commit is
    // certain unless the whole run stops (target, cancel). The scheduler
    // below retires a node at its first failure time or budget end, and
    // both are checked against the clock the phase would start at. A
    // cancelled run launches nothing more: the scheduler stops at its next
    // check, and the pipeline would only have to wait for the phase. The
    // first cancel seen sticks, so a skipped launch always ends the run.
    bool stopped = false;
    auto stopRequested = [&] { return stopped = stopped || cancelled(cfg); };
    auto launchIfDue = [&](int i) {
      const double t = clock.now(i);
      if (t < cfg.timeLimitPerNode && t < failTimes[std::size_t(i)] &&
          !stopRequested())
        pipeline.launch(i, t);
    };
    for (int i = 0; i < cfg.nodes; ++i) launchIfDue(i);

    std::vector<char> active(std::size_t(cfg.nodes), 1);
    auto failures = cfg.failures;
    while (true) {
      // Cooperative cancellation: wind down before the next scheduled step.
      // With cfg.cancel unset this is dead code, so trajectories are pinned.
      if (stopRequested()) break;
      int nodeId = -1;
      double start = std::numeric_limits<double>::infinity();
      for (int i = 0; i < cfg.nodes; ++i) {
        if (!active[std::size_t(i)]) continue;
        if (clock.now(i) < start) {
          start = clock.now(i);
          nodeId = i;
        }
      }
      if (nodeId == -1) break;  // everyone done

      // Inject failures due at or before this step's start.
      bool killed = false;
      for (auto it = failures.begin(); it != failures.end();) {
        if (it->second <= start) {
          active[std::size_t(it->first)] = 0;
          runners[std::size_t(it->first)].leave(it->second, /*failed=*/true);
          if (it->first == nodeId) killed = true;
          it = failures.erase(it);
        } else {
          ++it;
        }
      }
      if (killed) continue;

      if (start >= cfg.timeLimitPerNode) {
        // Paper: nodes run out of budget one by one, degenerating the
        // topology; dead nodes stop receiving. Not a failure — no event.
        active[std::size_t(nodeId)] = 0;
        runners[std::size_t(nodeId)].leave(start, /*failed=*/false);
        continue;
      }

      NodeRunner& runner = runners[std::size_t(nodeId)];
      if (runner.steps() == 0) runner.enter();
      // Termination criterion 2: the finder notifies the cluster; the
      // simulation ends here and the remaining nodes' clocks stay put.
      if (runner.commit(pipeline.take(nodeId))) break;
      launchIfDue(nodeId);
    }
  }

  res.bestLength = global.bestLength;
  res.bestOrder = std::move(global.bestOrder);
  res.curve = std::move(global.curve);
  res.events = std::move(events);
  for (int i = 0; i < cfg.nodes; ++i) {
    const NodeRunner& runner = runners[std::size_t(i)];
    if (runner.hitTarget()) {
      res.hitTarget = true;
      res.targetTime = runner.targetTime();
    }
    res.nodeBest.push_back(nodes[std::size_t(i)].best().length());
    res.nodeCurves.push_back(runner.curve());
    res.nodeClocks.push_back(clock.now(i));
    res.totalSteps += runner.steps();
    res.totalRestarts += runner.restarts();
  }
  res.net = transport.stats();
  res.messagesSent = res.net.messagesSent;

  double finalTime = 0.0;
  for (const double t : res.nodeClocks) finalTime = std::max(finalTime, t);
  writeRunEnd(cfg, metricsReg, finalTime, res);
  sortEvents(res.events);
  return res;
}

// ---------------------------------------------------------------------------
// Thread substrate: the same NodeRunner on one std::jthread per node over
// ThreadTransport + WallClock. Failure and late-join injection work exactly
// as under simulation — the schedules just fire against wall time.

RunResult runThreads(const InstanceContext& ctx, const RunConfig& cfg) {
  ThreadNetwork net(buildTopology(cfg.topology, cfg.nodes));
  ThreadTransport transport(net);
  WallClock clock(cfg.nodes, cfg.nodeSpeeds);
  std::vector<DistNode> nodes = buildNodes(ctx, cfg);

  obs::MetricsRegistry metricsReg;
  attachObservation(ctx, cfg, "dist-threads", clock.kindName(), net, nodes,
                    metricsReg);
  // Node 0 doubles as the metrics reporter: snapshots merge every shard, so
  // one thread emitting suffices.
  Snapshotter snapshotter(cfg.trace, metricsReg, cfg.metricsIntervalSeconds,
                          cfg.metricsOutPath);
  std::atomic<bool> stopFlag{false};

  std::vector<double> joinTimes(std::size_t(cfg.nodes), 0.0);
  std::vector<double> failTimes(std::size_t(cfg.nodes),
                                std::numeric_limits<double>::infinity());
  // Mark late joiners dead before any thread can broadcast to them.
  for (const auto& [node, when] : cfg.joins) {
    joinTimes[std::size_t(node)] = when;
    net.setAlive(node, false);
  }
  for (const auto& [node, when] : cfg.failures)
    failTimes[std::size_t(node)] =
        std::min(failTimes[std::size_t(node)], when);

  // Per-node logs/runners are touched only by the owning thread and read
  // after the join barrier — no locking needed (CP.2: no concurrent
  // sharing). The trace sink serializes internally.
  std::vector<EventLog> logs(std::size_t(cfg.nodes));
  NodeRunner::Env env{transport, clock,     cfg,
                      cfg.trace, &stopFlag, nullptr};
  std::vector<NodeRunner> runners;
  runners.reserve(std::size_t(cfg.nodes));
  for (int i = 0; i < cfg.nodes; ++i)
    runners.emplace_back(nodes[std::size_t(i)], env, logs[std::size_t(i)],
                         i == 0 ? &snapshotter : nullptr,
                         joinTimes[std::size_t(i)]);

  std::vector<double> nodeClocks(std::size_t(cfg.nodes), 0.0);
  Timer runTimer;
  {
    std::vector<std::jthread> threads;
    threads.reserve(std::size_t(cfg.nodes));
    for (int i = 0; i < cfg.nodes; ++i) {
      threads.emplace_back([&, i] {
        clock.startNode(i);
        NodeRunner& runner = runners[std::size_t(i)];
        const double joinAt = joinTimes[std::size_t(i)];
        const double failAt = failTimes[std::size_t(i)];
        if (joinAt > 0.0)
          std::this_thread::sleep_for(std::chrono::duration<double>(joinAt));
        // A joiner whose join time is past the budget never runs (matching
        // the simulated scheduler, which kills it before its first step).
        if (clock.now(i) < cfg.timeLimitPerNode && !cancelled(cfg)) {
          runner.enter();
          bool done = runner.tick();  // the initial step
          while (!done && !stopFlag.load(std::memory_order_relaxed) &&
                 !cancelled(cfg) && clock.now(i) < cfg.timeLimitPerNode) {
            if (clock.now(i) >= failAt) {
              runner.leave(failAt, /*failed=*/true);
              break;
            }
            done = runner.tick();
          }
        }
        nodeClocks[std::size_t(i)] = clock.now(i);
      });
    }
    // jthreads join here; each loop exits on its own budget, its failure
    // schedule, or the shared target flag — no explicit stop needed.
  }

  RunResult res;
  res.bestLength = std::numeric_limits<std::int64_t>::max();
  res.targetTime = std::numeric_limits<double>::infinity();
  for (int i = 0; i < cfg.nodes; ++i) {
    const DistNode& node = nodes[std::size_t(i)];
    const NodeRunner& runner = runners[std::size_t(i)];
    res.nodeBest.push_back(node.best().length());
    if (node.best().length() < res.bestLength) {
      res.bestLength = node.best().length();
      res.bestOrder = node.best().orderVector();
    }
    if (runner.hitTarget())
      res.targetTime = std::min(res.targetTime, runner.targetTime());
    res.nodeCurves.push_back(runner.curve());
    res.nodeClocks.push_back(nodeClocks[std::size_t(i)]);
    res.totalSteps += runner.steps();
    res.totalRestarts += runner.restarts();
    res.events.insert(res.events.end(), logs[std::size_t(i)].begin(),
                      logs[std::size_t(i)].end());
  }
  res.hitTarget = stopFlag.load();
  if (!res.hitTarget) res.targetTime = 0.0;
  res.net = transport.stats();
  res.messagesSent = res.net.messagesSent;
  sortEvents(res.events);

  // Global anytime curve: per-node curves merged on the (shared-epoch-free)
  // per-node clocks — approximate across nodes, exact within each.
  {
    AnytimeCurve all;
    for (const AnytimeCurve& c : res.nodeCurves)
      all.insert(all.end(), c.begin(), c.end());
    std::sort(all.begin(), all.end(),
              [](const AnytimePoint& a, const AnytimePoint& b) {
                return a.time < b.time;
              });
    for (const AnytimePoint& p : all)
      if (res.curve.empty() || p.length < res.curve.back().length)
        res.curve.push_back(p);
  }

  writeRunEnd(cfg, metricsReg, runTimer.seconds(), res);
  return res;
}

}  // namespace

RunResult runDistributed(const Instance& inst, const CandidateLists& cand,
                         const RunConfig& cfg) {
  return runDistributed(InstanceContext::borrow(inst, cand), cfg);
}

RunResult runDistributed(const std::shared_ptr<const InstanceContext>& ctx,
                         const RunConfig& cfg) {
  if (ctx == nullptr)
    throw std::invalid_argument("runDistributed: null InstanceContext");
  validateConfig(cfg);
  switch (cfg.runtime) {
    case RuntimeKind::kSim: return runSim(*ctx, cfg, simWorkers(cfg));
    case RuntimeKind::kThreads: return runThreads(*ctx, cfg);
  }
  throw std::invalid_argument("RunConfig: unknown runtime");
}

namespace detail {

RunResult runSimWorkers(const InstanceContext& ctx, const RunConfig& cfg,
                        int workers) {
  validateConfig(cfg);
  return runSim(ctx, cfg, std::max(1, workers));
}

}  // namespace detail

}  // namespace distclk
