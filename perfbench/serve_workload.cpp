// serve-mix: an in-process SolverPool fed by an open-loop arrival
// schedule. Two thirds of the jobs reuse a hot set of instances that was
// built into the context cache during set-up (cache hits); the rest are
// fresh instances that pay a cold build. Each job runs the modeled
// simulator, so its work is fixed and queueing, cache hits and misses
// decide its latency.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "experiments/harness.h"
#include "reference.h"
#include "svc/solver_pool.h"
#include "workloads.h"

namespace perfbench {

using distclk::Instance;
namespace svc = distclk::svc;

namespace {

constexpr int kWorkers = 3;
constexpr std::size_t kQueueDepthLimit = 32;
constexpr std::size_t kCacheCapacity = 8;
constexpr double kDeadlineSeconds = 2.0;  ///< the per-job latency limit
constexpr double kJobBudget = 0.15;       ///< virtual seconds per node
constexpr int kReferenceIterations = 50;

struct Sizes {
  double scale;        ///< city-count multiplier
  double ratePerSecond;
  int setupReps;
};

Sizes sizesFor(const Options& opt) {
  if (opt.tiny) return {0.2, 8.0, 2};
  return {1.0, 8.0, 5};
}

using Factory = Instance (*)(int, std::uint64_t, double);

std::shared_ptr<const Instance> makeJobInstance(int family, int n,
                                                std::uint64_t seed) {
  static const Factory kFamilies[] = {
      [](int m, std::uint64_t s, double side) { return uniformCities(m, s, side); },
      [](int m, std::uint64_t s, double side) { return clusteredCities(m, s, side); },
      [](int m, std::uint64_t s, double side) { return drillCities(m, s, side); }};
  return std::make_shared<const Instance>(kFamilies[family % 3](n, seed, 1e6));
}

struct Arrival {
  double due = 0.0;  ///< seconds after the start of the measured phase
  int instance = 0;  ///< index into the job instance list
};

struct Plan {
  std::vector<std::shared_ptr<const Instance>> instances;  ///< hot set first
  std::vector<int> family;  ///< per instance: 0 uniform, 1 clustered, 2 drill
  int hot = 0;
  std::vector<Arrival> arrivals;
};

// The open-loop schedule: a Poisson process at `rate` over the measured
// phase, drawn as its count followed by uniform arrival times (the same
// process, conditioned on the count so that every seed offers the same
// load). Every third arrival is a fresh instance, cycling through the
// twelve (family, size) pairs; the others cycle through the hot set. Fixed
// proportions keep the job mix, and so the service times, the same for
// every seed; the instances and the arrival order change with it.
Plan makePlan(const Options& opt, const Sizes& s) {
  Plan p;
  const int hotSizes[] = {1000, 1500, 800, 400};
  p.hot = 4;
  for (int h = 0; h < p.hot; ++h) {
    p.instances.push_back(makeJobInstance(
        h, std::max(20, int(hotSizes[h] * s.scale)), mixSeed(opt.seed, 300 + h)));
    p.family.push_back(h % 3);
  }
  std::mt19937_64 rng(mixSeed(opt.seed, 301));
  const int count = std::max(1, int(std::lround(s.ratePerSecond * opt.seconds)));
  const int freshSizes[] = {300, 600, 1000, 1500};
  int fresh = 0, hot = 0;
  for (int i = 0; i < count; ++i) {
    Arrival a;
    a.due = double(rng() >> 11) * 0x1.0p-53 * opt.seconds;
    if (i % 3 != 2) {
      a.instance = hot++ % p.hot;
    } else {
      const int n = std::max(20, int(freshSizes[(fresh / 3) % 4] * s.scale));
      a.instance = int(p.instances.size());
      p.instances.push_back(
          makeJobInstance(fresh % 3, n, mixSeed(opt.seed, 1000 + i)));
      p.family.push_back(fresh % 3);
      ++fresh;
    }
    p.arrivals.push_back(a);
  }
  std::sort(p.arrivals.begin(), p.arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.due < b.due; });
  return p;
}

class Collector final : public svc::JobSink {
 public:
  struct Done {
    svc::JobResult result;
    double at = 0.0;
  };
  void onResult(const svc::JobResult& r) override {
    const double at = nowSeconds();
    const std::lock_guard<std::mutex> lock(mu_);
    done_.push_back({r, at});
  }
  std::vector<Done> take() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::move(done_);
  }

 private:
  std::mutex mu_;
  std::vector<Done> done_;
};

svc::SolverPoolOptions poolOptions(distclk::obs::MetricsRegistry* metrics,
                                   distclk::obs::TraceSink* trace) {
  svc::SolverPoolOptions o;
  o.workers = kWorkers;
  o.maxQueueDepth = kQueueDepthLimit;
  o.contextCacheCapacity = kCacheCapacity;
  o.prepThreads = 1;
  o.metrics = metrics;
  o.trace = trace;
  return o;
}

}  // namespace

Outcome runServeMix(const Options& opt, SpanLog* spans) {
  const Sizes s = sizesFor(opt);
  Outcome out;
  distclk::obs::MetricsRegistry registry;
  MemorySink sink;

  // Set-up: generate the job inputs, start the pool, pre-warm the hot set.
  std::vector<double> setupTimes;
  Plan plan;
  std::unique_ptr<svc::SolverPool> pool;
  for (int rep = 0; rep < s.setupReps; ++rep) {
    pool.reset();
    ScopedSpan span(rep + 1 == s.setupReps ? spans : nullptr, "setup");
    const double t0 = nowSeconds();
    plan = makePlan(opt, s);
    pool = std::make_unique<svc::SolverPool>(poolOptions(
        opt.trace ? &registry : nullptr, opt.trace ? &sink : nullptr));
    for (int h = 0; h < plan.hot; ++h)
      pool->contexts().get(plan.instances[std::size_t(h)]);
    setupTimes.push_back(nowSeconds() - t0);
  }
  const auto warm = pool->contexts().stats();

  // Measured phase: submit every arrival at its due time.
  Collector collector;
  const std::size_t jobs = plan.arrivals.size();
  std::vector<double> due(jobs), late(jobs);
  std::vector<char> rejected(jobs, 0);
  std::size_t depthMax = 0;
  const int serveSpan = spans ? spans->open("serve") : -1;
  const double start = nowSeconds();
  for (std::size_t i = 0; i < jobs; ++i) {
    const Arrival& a = plan.arrivals[i];
    due[i] = start + a.due;
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(std::chrono::duration<double>(due[i]))));
    svc::JobSpec spec;
    spec.id = std::to_string(i);
    spec.instance = plan.instances[std::size_t(a.instance)];
    spec.run.runtime = distclk::RuntimeKind::kSim;
    spec.run.nodes = 2;
    spec.run.node = distclk::scaledNodeParams(*spec.instance);
    spec.run.costModel = distclk::CostModel::kModeled;
    spec.run.modeledWorkPerSecond = 4e6;
    spec.run.timeLimitPerNode = kJobBudget;
    spec.run.seed = mixSeed(opt.seed, 5000 + i);
    spec.deadlineSeconds = kDeadlineSeconds;
    late[i] = nowSeconds() - due[i];
    if (!pool->submit(std::move(spec), &collector)) rejected[i] = 1;
    depthMax = std::max(depthMax, pool->queueDepth());
  }
  pool->drain();
  const double end = nowSeconds();
  if (spans) spans->close(serveSpan);
  const auto stats = pool->contexts().stats();
  pool.reset();
  const double rss = peakRssMb();

  // Outside the timed phase: references and construction lengths.
  std::vector<double> reference(plan.instances.size()), construction(plan.instances.size());
  parallelFor(plan.instances.size(), [&](std::size_t k) {
    reference[k] = heldKarpReference(*plan.instances[k], kReferenceIterations);
    construction[k] = double(
        distclk::InstanceContext::build(plan.instances[k])->constructionLength());
  });

  std::vector<double> latency, queue, solve, setupHit, setupMiss, kd, cand, cons,
      excess, constructExcess, coverage;
  std::map<std::size_t, std::vector<double>> jobExcess;  // by instance
  std::map<std::size_t, Collector::Done> byJob;
  for (auto& d : collector.take()) byJob.emplace(std::stoul(d.result.id), std::move(d));
  double lastResult = start;
  for (std::size_t i = 0; i < jobs; ++i) {
    ++out.attempted;
    if (rejected[i]) {
      out.fail("job " + std::to_string(i) + " rejected (queue full)", false);
      latency.push_back(INFINITY);
      continue;
    }
    const auto it = byJob.find(i);
    if (it == byJob.end()) {
      out.fail("job " + std::to_string(i) + " produced no result", false);
      latency.push_back(INFINITY);
      continue;
    }
    const svc::JobResult& r = it->second.result;
    lastResult = std::max(lastResult, it->second.at);
    if (r.state != svc::JobState::kCompleted) {
      out.fail("job " + std::to_string(i) + " " + distclk::svc::toString(r.state),
               false);
      latency.push_back(INFINITY);
      continue;
    }
    const std::size_t inst = std::size_t(plan.arrivals[i].instance);
    const std::string why = tourProblem(*plan.instances[inst], r.bestOrder, r.bestLength);
    if (!why.empty()) {
      out.fail("job " + std::to_string(i) + ": " + why, true);
      latency.push_back(INFINITY);
      continue;
    }
    const double lat = it->second.at - due[i];
    latency.push_back(lat);
    queue.push_back(r.queueSeconds);
    solve.push_back(r.solveSeconds);
    (r.cacheHit ? setupHit : setupMiss).push_back(r.setupSeconds);
    if (!r.cacheHit) {
      kd.push_back(r.prepKdtreeMs);
      cand.push_back(r.prepCandMs);
      cons.push_back(r.prepConstructMs);
    }
    jobExcess[inst].push_back(excessPct(double(r.bestLength), reference[inst]));
    coverage.push_back((r.queueSeconds + r.setupSeconds + r.solveSeconds) / lat);
    if (spans) {
      const double submitted = due[i] + late[i];
      const int job = spans->add("job", serveSpan, due[i], it->second.at);
      spans->add("job.generator_late", job, due[i], submitted);
      double t = submitted;
      spans->add("job.queue", job, t, t + r.queueSeconds);
      t += r.queueSeconds;
      spans->add(r.cacheHit ? "job.setup_hit" : "job.setup_miss", job, t,
                 t + r.setupSeconds);
      t += r.setupSeconds;
      spans->add("job.solve", job, t, t + r.solveSeconds);
    }
  }
  // Quality per distinct instance (mean over its jobs), then the median
  // within each family, averaged over the three families: the per-family
  // excesses sit in separate clusters (drill plates far above uniform), so
  // a median over all instances would jump between them from seed to seed.
  std::vector<std::vector<double>> famExcess(3), famConstruct(3);
  for (const auto& [inst, v] : jobExcess) {
    famExcess[std::size_t(plan.family[inst])].push_back(mean(v));
    famConstruct[std::size_t(plan.family[inst])].push_back(
        excessPct(construction[inst], reference[inst]));
  }
  for (std::size_t f = 0; f < 3; ++f) {
    excess.push_back(median(famExcess[f]));
    constructExcess.push_back(median(famConstruct[f]));
  }
  double busy = 0.0;
  for (double x : solve) busy += x;
  const double jobsPerSecond =
      double(queue.size()) / std::max(1e-9, lastResult - start);
  const auto tail = tailOf(latency);
  const auto lateTail = tailOf(late);

  if (!opt.trace) {
    out.set("setup_s", median(setupTimes));
    out.set("latency_p50_s", median(latency));
    out.set("peak_rss_mb", rss);
    out.set("excess_pct", mean(excess));
    out.set("construct_excess_pct", mean(constructExcess));
    out.note("samples.setup_s", std::to_string(setupTimes.size()));
    out.note("samples.latency_p50_s", std::to_string(latency.size()) + " jobs");
    out.note("samples.excess_pct", std::to_string(jobExcess.size()) + " instances");
    out.note("latency_p50_s.meaning", "job latency from due time");
    out.note("worker_busy_share", fmt("%.3f", busy / (kWorkers * (end - start))));
    if (tail)
      out.note("latency_tail_s", fmt("%.6f", tail->value) + " at p" +
                                     std::to_string(tail->percentile) + " of " +
                                     std::to_string(latency.size()));
    out.note("jobs_per_s", fmt("%.4f", jobsPerSecond));
    out.note("offered_rate_per_s", fmt("%.2f", double(jobs) / opt.seconds));
    out.note("cache_hits_measured",
             std::to_string(stats.hits - warm.hits) + " of " +
                 std::to_string(stats.hits + stats.misses - warm.hits - warm.misses));
    out.note("queue_depth_max", std::to_string(depthMax));
    return out;
  }

  const auto queueTail = tailOf(queue);
  out.set("svc.queue_p50_s", median(queue));
  out.set("svc.queue_tail_s", queueTail ? queueTail->value : 0.0);
  out.set("svc.setup_hit_p50_ms", median(setupHit) * 1e3);
  out.set("svc.setup_miss_p50_ms", median(setupMiss) * 1e3);
  out.set("svc.solve_p50_s", median(solve));
  out.set("svc.queue_depth_max", double(depthMax));
  out.set("svc.gen_late_tail_s", lateTail ? lateTail->value : 0.0);
  out.set("svc.latency_tail_s", tail ? tail->value : 0.0);
  out.set("svc.latency_tail_pct", tail ? tail->percentile : 0);
  out.set("svc.latency_samples", double(latency.size()));
  out.set("svc.jobs_per_s", jobsPerSecond);
  const double lookups = double(stats.hits + stats.misses - warm.hits - warm.misses);
  out.set("tsp.cache_hit_share",
          lookups > 0 ? double(stats.hits - warm.hits) / lookups : 0.0);
  out.set("tsp.cache_builds", double(stats.builds - warm.builds));
  out.set("tsp.kdtree_ms", median(kd));
  out.set("tsp.cand_ms", median(cand));
  out.set("construct.ms", median(cons));
  out.set("layers.coverage_share", mean(coverage));
  addRunLayerMetrics(finalRunMetrics(sink.lines()), end - start, kWorkers, out);
  probeLayers(*plan.instances[0], true, spans, out);
  return out;
}

}  // namespace perfbench
