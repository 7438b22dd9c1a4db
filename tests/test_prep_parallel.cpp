// Determinism contract of the parallel preprocessing pipeline (DESIGN.md
// §13): for ANY thread count, the kd-tree layout, candidate CSR bytes,
// and construction tours are bit-identical to the serial build — so
// prepThreads stays out of the context cache key and a parallel build may
// serve a fixture recorded against the serial path. Run under TSan/ASan/
// UBSan in tier1.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/runtime.h"
#include "svc/solver_pool.h"
#include "tsp/gen.h"
#include "tsp/instance_context.h"
#include "tsp/kdtree.h"
#include "tsp/neighbors.h"
#include "util/task_pool.h"

namespace distclk {
namespace {

// Same recorder as tests/test_runtime.cpp: FNV-1a over the event log.
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

void expectSameLists(const CandidateLists& a, const CandidateLists& b) {
  ASSERT_EQ(a.n(), b.n());
  for (int c = 0; c < a.n(); ++c) {
    const auto la = a.of(c), lb = b.of(c);
    ASSERT_EQ(la.size(), lb.size()) << "city " << c;
    for (std::size_t i = 0; i < la.size(); ++i) {
      ASSERT_EQ(la[i], lb[i]) << "city " << c << " slot " << i;
      ASSERT_EQ(a.distOf(c)[i], b.distOf(c)[i]) << "city " << c;
    }
  }
}

// ---------------------------------------------------------------------
// Layer 1: kd-tree. The parallel build must produce the SAME preorder
// node numbering and order_ permutation (n=5000 > kParallelGrain so the
// build actually forks).

TEST(PrepParallel, KdTreeOrderIdenticalAcrossThreads) {
  const Instance inst = uniformSquare("kdpar", 5000, 7);
  const KdTree serial(inst.points());
  for (int threads : {2, 8}) {
    TaskPool pool(threads);
    const KdTree parallel(inst.points(), &pool);
    EXPECT_EQ(parallel.order(), serial.order()) << threads << " threads";
  }
}

TEST(PrepParallel, KnnIntoMatchesAllocatingKnn) {
  const Instance inst = clustered("kdknn", 3000, 10, 11);
  const KdTree tree(inst.points());
  KnnScratch scratch;
  std::vector<int> out(16);
  for (int q = 0; q < inst.n(); q += 97) {
    const std::vector<int> expect = tree.knn(q, 16);
    const int got = tree.knnInto(q, 16, out, scratch);
    ASSERT_EQ(std::size_t(got), expect.size()) << "query " << q;
    for (int i = 0; i < got; ++i)
      ASSERT_EQ(out[std::size_t(i)], expect[std::size_t(i)]) << "query " << q;
  }
}

// ---------------------------------------------------------------------
// Layer 2: candidate lists. CSR contents identical for every thread
// count, across geometry families, both kinds, and the matrix fallback.

TEST(PrepParallel, CandidateCsrIdenticalAcrossThreads) {
  const Instance instances[] = {uniformSquare("u", 3000, 3),
                                clustered("c", 3000, 12, 5),
                                perforatedGrid("g", 3000, 9)};
  for (const Instance& inst : instances) {
    for (const auto kind :
         {CandidateLists::Kind::kNearest, CandidateLists::Kind::kQuadrant}) {
      const CandidateLists serial(inst, 8, kind);
      for (int threads : {2, 8}) {
        TaskPool pool(threads);
        const CandidateLists parallel(inst, 8, kind, nullptr, &pool);
        expectSameLists(serial, parallel);
      }
    }
  }
}

TEST(PrepParallel, MatrixFallbackShardsIdentical) {
  // Random-ish explicit matrix: shard the O(n^2) scan too.
  const int n = 200;
  std::vector<std::int64_t> m(std::size_t(n) * std::size_t(n), 0);
  std::uint64_t s = 99;
  for (int a = 0; a < n; ++a)
    for (int b = a + 1; b < n; ++b) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto d = std::int64_t(1 + (s >> 33) % 100000);
      m[std::size_t(a) * std::size_t(n) + std::size_t(b)] = d;
      m[std::size_t(b) * std::size_t(n) + std::size_t(a)] = d;
    }
  const Instance inst("mat", n, m);
  const CandidateLists serial(inst, 6);
  TaskPool pool(8);
  const CandidateLists parallel(inst, 6, CandidateLists::Kind::kNearest,
                                nullptr, &pool);
  expectSameLists(serial, parallel);
}

TEST(PrepParallel, SymmetricCloseAfterParallelBuildIdentical) {
  const Instance inst = uniformSquare("sym", 2500, 21);
  CandidateLists serial(inst, 8);
  serial.makeSymmetric();
  TaskPool pool(4);
  CandidateLists parallel(inst, 8, CandidateLists::Kind::kNearest, nullptr,
                          &pool);
  parallel.makeSymmetric();
  expectSameLists(serial, parallel);
}

// ---------------------------------------------------------------------
// Layer 3: the whole build() — construction tour included — and its
// cache identity.

TEST(PrepParallel, ContextBuildByteIdenticalAcrossThreads) {
  auto inst =
      std::make_shared<const Instance>(uniformSquare("ctxpar", 3000, 29));
  PreprocessParams params;
  params.candidateK = 8;
  params.symmetric = true;
  const auto serial = InstanceContext::build(inst, params);
  for (int threads : {2, 8}) {
    PreprocessParams p = params;
    p.prepThreads = threads;
    const auto parallel = InstanceContext::build(inst, p);
    EXPECT_EQ(parallel->constructionOrder(), serial->constructionOrder());
    expectSameLists(serial->candidates(), parallel->candidates());
    // Interchangeable contexts: prepThreads must not split the cache.
    EXPECT_EQ(p.cacheKey(), params.cacheKey());
    EXPECT_EQ(parallel->buildStats().threads, threads);
  }
}

TEST(PrepParallel, ContextCacheOneBuildForMixedThreadRequests) {
  ContextCache cache(4);
  auto inst =
      std::make_shared<const Instance>(uniformSquare("cachepar", 800, 31));
  std::atomic<int> misses{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      PreprocessParams p;
      p.candidateK = 8;
      p.prepThreads = 1 + t * 2;  // 1, 3, 5, 7 — all one cache key
      bool hit = false;
      auto ctx = cache.get(inst, p, &hit);
      ASSERT_NE(ctx, nullptr);
      if (!hit) ++misses;
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.stats().builds, 1);
  EXPECT_EQ(misses.load(), 1);
}

// ---------------------------------------------------------------------
// Layer 4: the pinned end-to-end fixture (tests/test_runtime.cpp) must
// reproduce bit-for-bit from a context built with 8 prep threads.

TEST(PrepParallel, PinnedFixtureTrajectoryWithParallelPrep) {
  PreprocessParams prep;
  prep.candidateK = 8;
  prep.prepThreads = 8;
  const auto ctx = InstanceContext::build(
      std::make_shared<const Instance>(uniformSquare("parity", 120, 42)),
      prep);
  RunConfig cfg;
  cfg.nodes = 8;
  cfg.costModel = CostModel::kModeled;
  cfg.modeledWorkPerSecond = 1e5;
  cfg.node.clkKicksPerCall = 5;
  cfg.node.cr = 12;
  cfg.node.cv = 4;
  cfg.timeLimitPerNode = 6.0;
  cfg.seed = 2026;
  const RunResult res = runDistributed(ctx, cfg);

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
}

// ---------------------------------------------------------------------
// Layer 5: the pool-wide prep-thread budget clamps requests but never
// changes what gets built.

TEST(PrepParallel, SolverPoolClampsPrepThreadsToBudget) {
  class ResultSink : public svc::JobSink {
   public:
    void onResult(const svc::JobResult& r) override { result = r; }
    svc::JobResult result;
  };
  svc::SolverPoolOptions opts;
  opts.workers = 1;
  opts.prepThreads = 2;  // budget below the request
  svc::SolverPool pool(opts);
  ResultSink sink;
  svc::JobSpec spec;
  spec.id = "clamped";
  spec.instance =
      std::make_shared<const Instance>(uniformSquare("budget", 600, 13));
  spec.preprocess.candidateK = 8;
  spec.preprocess.prepThreads = 8;  // requests more than the budget
  spec.run.nodes = 2;
  spec.run.costModel = CostModel::kModeled;
  spec.run.modeledWorkPerSecond = 1e5;
  spec.run.timeLimitPerNode = 0.2;
  ASSERT_TRUE(pool.submit(std::move(spec), &sink));
  pool.drain();
  pool.shutdown();
  EXPECT_EQ(sink.result.state, svc::JobState::kCompleted);
  EXPECT_FALSE(sink.result.cacheHit);
  EXPECT_EQ(sink.result.prepThreads, 2);  // granted == budget, not request
  EXPECT_GE(sink.result.prepCandMs, 0.0);
}

}  // namespace
}  // namespace distclk
