// Solver-as-a-service daemon: reads JSONL job requests, runs them on a
// shared SolverPool (bounded workers + priority/deadline queue + LRU
// InstanceContext cache), and streams JSONL job lifecycle records back.
// This is the multi-tenant entry point ROADMAP's "solver-as-a-service"
// item asks for: many jobs, one process, shared preprocessing.
//
//   distclk_serve --jobs FILE [options]
//     --jobs FILE           JSONL job stream ('-' = stdin), one request
//                           per line (see below)
//     --out FILE            JSONL response stream ('-' = stdout, default)
//     --workers W           pool worker threads (default 2)
//     --queue-depth D       max queued jobs, 0 = unbounded (default 0);
//                           overflow submissions are rejected (backpressure)
//     --cache C             InstanceContext LRU capacity (default 8)
//     --prep-threads T      pool-wide preprocessing thread budget: each
//                           job's requested build parallelism is clamped
//                           to what's left of T while its context builds
//                           (default 1 = serial builds)
//     --trace F.jsonl       shared JSONL trace: each job appends one
//                           contiguous run bracket plus a "job" record
//                           (read with trace_report --jobs / --validate)
//     --metrics-out FILE    Prometheus-style snapshot of the svc.* SLO
//                           metrics, atomically renamed into FILE after
//                           every job result and at exit
//
// Request records (one JSON object per line):
//   {"id":"a", "gen":"uniform", "n":1000, "gen_seed":1, "nodes":8,
//    "seconds":0.5, "seed":7, "priority":2, "deadline_seconds":10}
//     id               required, unique per process
//     file | gen       TSPLIB path, or generator family
//                      (uniform|clustered|drill|grid|road; default uniform)
//     n, gen_seed      generator size/seed (default 1000 / 1)
//     candidates       candidate-list size (default 10)
//     quadrant         true = quadrant candidate lists
//     prep_threads     requested preprocessing build parallelism (clamped
//                      to the pool's --prep-threads budget; output is
//                      byte-identical for any value)
//     nodes, topology, seconds, seed, kick, runtime, modeled_work, target
//                      RunConfig fields, same semantics as distclk_cli
//     priority         higher runs first (default 0; FIFO within a level)
//     deadline_seconds abandon the job this long after submission (<=0 off)
//   {"cancel":"a"}     cancel a queued or running job by id
//
// Response records: job-accepted, job-rejected, job-progress (streamed
// incremental bests), job-result (terminal state + SLO latency split), and
// one final serve-stats (counts + context-cache hit/miss/build/eviction).
//
// Identical instances dedupe through the context cache by content hash:
// two jobs generating the same instance share one preprocessing build, so
// warm jobs report setup_seconds near zero and cache_hit=true.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "experiments/harness.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prom.h"
#include "obs/trace_sink.h"
#include "svc/solver_pool.h"
#include "tsp/gen.h"
#include "tsp/tsplib.h"
#include "util/sync.h"

using namespace distclk;

namespace {

bool jsonBool(const obs::JsonValue& v, std::string_view key,
              bool def = false) {
  const obs::JsonValue* f = v.find(key);
  if (f == nullptr) return def;
  return f->kind == obs::JsonValue::Kind::kBool && f->boolean;
}

Instance makeInstance(const obs::JsonValue& v) {
  const std::string file = v.str("file");
  if (!file.empty()) return loadTsplibFile(file);
  const std::string family = v.str("gen", "uniform");
  const int n = static_cast<int>(v.integer("n", 1000));
  const auto seed = static_cast<std::uint64_t>(v.integer("gen_seed", 1));
  if (family == "uniform") return uniformSquare("serve-uniform", n, seed);
  if (family == "clustered") return clustered("serve-clustered", n, 10, seed);
  if (family == "drill") return drillPlate("serve-drill", n, seed);
  if (family == "grid") return perforatedGrid("serve-grid", n, seed);
  if (family == "road") return roadNetwork("serve-road", n, seed);
  throw std::invalid_argument("unknown gen family: " + family);
}

svc::JobSpec makeSpec(const obs::JsonValue& v) {
  svc::JobSpec spec;
  spec.id = v.str("id");
  spec.instance = std::make_shared<const Instance>(makeInstance(v));
  spec.preprocess.candidateK =
      static_cast<int>(v.integer("candidates", spec.preprocess.candidateK));
  if (jsonBool(v, "quadrant"))
    spec.preprocess.kind = CandidateLists::Kind::kQuadrant;
  spec.preprocess.prepThreads = static_cast<int>(
      v.integer("prep_threads", spec.preprocess.prepThreads));
  RunConfig& cfg = spec.run;
  cfg.runtime = runtimeKindFromString(v.str("runtime", "sim"));
  cfg.nodes = static_cast<int>(v.integer("nodes", cfg.nodes));
  cfg.topology = topologyFromString(v.str("topology", "hypercube"));
  cfg.node = scaledNodeParams(*spec.instance);
  cfg.node.clkKick = kickStrategyFromString(v.str("kick", "Random-walk"));
  cfg.node.targetLength = v.integer("target", 0);
  cfg.timeLimitPerNode = v.num("seconds", 2.0);
  cfg.seed = static_cast<std::uint64_t>(v.integer("seed", 1));
  const double modeledWork = v.num("modeled_work", 0.0);
  if (modeledWork > 0.0) {
    cfg.costModel = CostModel::kModeled;
    cfg.modeledWorkPerSecond = modeledWork;
  }
  spec.priority = static_cast<int>(v.integer("priority", 0));
  spec.deadlineSeconds = v.num("deadline_seconds", 0.0);
  return spec;
}

/// Streams lifecycle records for every job to one JSONL ostream. Called
/// from pool worker threads; `mu_` serializes lines and the tallies.
class ServeSink : public svc::JobSink {
 public:
  ServeSink(std::ostream& out, svc::SolverPool& pool,
            obs::MetricsRegistry* metrics, std::string metricsOut)
      : out_(out), pool_(pool), metrics_(metrics),
        metricsOut_(std::move(metricsOut)) {}

  void onProgress(const svc::JobProgress& p) override {
    obs::JsonObject o;
    o.field("type", "job-progress");
    o.field("t", pool_.nowSeconds());
    o.field("id", p.id);
    o.field("run_t", p.time);
    o.field("best", p.best);
    writeLine(o.str());
  }

  void onResult(const svc::JobResult& r) override {
    obs::JsonObject o;
    o.field("type", "job-result");
    o.field("t", pool_.nowSeconds());
    o.field("id", r.id);
    o.field("state", svc::toString(r.state));
    o.field("priority", r.priority);
    o.field("best", r.bestLength);
    o.field("cache_hit", r.cacheHit);
    o.field("queue_seconds", r.queueSeconds);
    o.field("setup_seconds", r.setupSeconds);
    o.field("solve_seconds", r.solveSeconds);
    if (!r.cacheHit && r.prepThreads > 0) {
      o.field("prep_kdtree_ms", r.prepKdtreeMs);
      o.field("prep_cand_ms", r.prepCandMs);
      o.field("prep_construct_ms", r.prepConstructMs);
      o.field("prep_threads", r.prepThreads);
    }
    o.field("steps", r.totalSteps);
    o.field("messages", r.messagesSent);
    o.field("hit_target", r.hitTarget);
    if (!r.error.empty()) o.field("error", r.error);
    {
      const sync::MutexLock lock(mu_);
      out_ << o.str() << '\n';
      out_.flush();
      switch (r.state) {
        case svc::JobState::kCompleted: ++completed_; break;
        case svc::JobState::kCancelled: ++cancelled_; break;
        case svc::JobState::kExpired: ++expired_; break;
        default: ++failed_; break;
      }
    }
    exportMetrics();
  }

  void exportMetrics() {
    if (metrics_ == nullptr || metricsOut_.empty()) return;
    obs::writePrometheusSnapshot(metricsOut_, metrics_->snapshot(),
                                 pool_.nowSeconds());
  }

  void writeLine(const std::string& line) {
    const sync::MutexLock lock(mu_);
    out_ << line << '\n';
    out_.flush();
  }

  int completed() const {
    const sync::MutexLock lock(mu_);
    return completed_;
  }
  int cancelled() const {
    const sync::MutexLock lock(mu_);
    return cancelled_;
  }
  int expired() const {
    const sync::MutexLock lock(mu_);
    return expired_;
  }
  int failed() const {
    const sync::MutexLock lock(mu_);
    return failed_;
  }

 private:
  std::ostream& out_;
  svc::SolverPool& pool_;
  obs::MetricsRegistry* metrics_;
  std::string metricsOut_;
  /// Serializes response lines and the terminal-state tallies.
  mutable sync::Mutex mu_{sync::LockRank::kServeOut, "serve.out"};
  int completed_ DISTCLK_GUARDED_BY(mu_) = 0;
  int cancelled_ DISTCLK_GUARDED_BY(mu_) = 0;
  int expired_ DISTCLK_GUARDED_BY(mu_) = 0;
  int failed_ DISTCLK_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const std::string jobsPath = args.getString("jobs", "");
  if (jobsPath.empty()) {
    std::fprintf(stderr,
                 "usage: distclk_serve --jobs FILE [--out FILE] [--workers W]"
                 " [--queue-depth D] [--cache C] [--prep-threads T]"
                 " [--trace F.jsonl] [--metrics-out FILE]\n");
    return 1;
  }

  std::ifstream jobsFile;
  std::istream* jobs = &std::cin;
  if (jobsPath != "-") {
    jobsFile.open(jobsPath);
    if (!jobsFile) {
      std::fprintf(stderr, "cannot open %s\n", jobsPath.c_str());
      return 1;
    }
    jobs = &jobsFile;
  }
  const std::string outPath = args.getString("out", "-");
  std::ofstream outFile;
  std::ostream* out = &std::cout;
  if (outPath != "-") {
    outFile.open(outPath);
    if (!outFile) {
      std::fprintf(stderr, "cannot open %s\n", outPath.c_str());
      return 1;
    }
    out = &outFile;
  }

  obs::MetricsRegistry metrics;
  std::optional<obs::JsonlTraceSink> trace;
  svc::SolverPoolOptions opts;
  opts.workers = args.getInt("workers", 2);
  opts.maxQueueDepth = static_cast<std::size_t>(args.getInt("queue-depth", 0));
  opts.contextCacheCapacity =
      static_cast<std::size_t>(args.getInt("cache", 8));
  opts.prepThreads = args.getInt("prep-threads", 1);
  opts.metrics = &metrics;
  const std::string tracePath = args.getString("trace", "");
  if (!tracePath.empty()) {
    trace.emplace(tracePath);
    opts.trace = &*trace;
  }
  svc::SolverPool pool(opts);
  ServeSink sink(*out, pool, &metrics, args.getString("metrics-out", ""));

  int submitted = 0;
  int rejected = 0;
  std::string line;
  std::int64_t lineNo = 0;
  while (std::getline(*jobs, line)) {
    ++lineNo;
    if (line.empty()) continue;
    obs::JsonValue v;
    try {
      v = obs::parseJson(line);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "jobs line %lld: unparseable JSON (%s)\n",
                   static_cast<long long>(lineNo), e.what());
      return 1;
    }
    const std::string cancelId = v.str("cancel");
    if (!cancelId.empty()) {
      const bool found = pool.cancel(cancelId);
      obs::JsonObject o;
      o.field("type", "cancel-requested");
      o.field("t", pool.nowSeconds());
      o.field("id", cancelId);
      o.field("found", found);
      sink.writeLine(o.str());
      continue;
    }
    std::string id = v.str("id");
    std::string reason;
    bool accepted = false;
    try {
      svc::JobSpec spec = makeSpec(v);
      id = spec.id;
      accepted = pool.submit(std::move(spec), &sink);
      if (!accepted) reason = "queue full or shutting down";
    } catch (const std::exception& e) {
      reason = e.what();
    }
    obs::JsonObject o;
    o.field("type", accepted ? "job-accepted" : "job-rejected");
    o.field("t", pool.nowSeconds());
    o.field("id", id);
    if (accepted) {
      ++submitted;
      o.field("queue_depth", static_cast<std::int64_t>(pool.queueDepth()));
    } else {
      ++rejected;
      o.field("reason", reason);
    }
    sink.writeLine(o.str());
  }

  pool.drain();
  pool.shutdown();

  const ContextCache::Stats cacheStats = pool.contexts().stats();
  obs::JsonObject stats;
  stats.field("type", "serve-stats");
  stats.field("t", pool.nowSeconds());
  stats.field("submitted", submitted);
  stats.field("rejected", rejected);
  stats.field("completed", sink.completed());
  stats.field("cancelled", sink.cancelled());
  stats.field("expired", sink.expired());
  stats.field("failed", sink.failed());
  stats.field("cache_hits", cacheStats.hits);
  stats.field("cache_misses", cacheStats.misses);
  stats.field("cache_builds", cacheStats.builds);
  stats.field("cache_evictions", cacheStats.evictions);
  sink.writeLine(stats.str());
  sink.exportMetrics();
  return 0;
}
