#include "tsp/instance_context.h"

#include <cstring>
#include <sstream>
#include <utility>

#include "construct/construct.h"
#include "tsp/kdtree.h"
#include "util/task_pool.h"
#include "util/timer.h"

namespace distclk {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void hashBytes(std::uint64_t& h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void hashU64(std::uint64_t& h, std::uint64_t v) { hashBytes(h, &v, sizeof v); }

void hashDouble(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  hashU64(h, bits);
}

}  // namespace

std::string PreprocessParams::cacheKey() const {
  std::ostringstream os;
  os << "k=" << candidateK
     << ";kind=" << (kind == CandidateLists::Kind::kQuadrant ? "quadrant"
                                                             : "nearest")
     << ";sym=" << (symmetric ? 1 : 0);
  if (heldKarp) {
    os << ";hk=" << heldKarpOptions.iterations << ","
       << heldKarpOptions.exactLimit << "," << heldKarpOptions.candidateK;
  }
  // prepThreads only changes the build schedule (byte-identical output)
  // and is intentionally absent.
  return os.str();
}

std::uint64_t instanceContentHash(const Instance& inst) {
  std::uint64_t h = kFnvOffset;
  hashU64(h, std::uint64_t(inst.n()));
  hashU64(h, std::uint64_t(inst.weightType()));
  for (const Point& p : inst.points()) {
    hashDouble(h, p.x);
    hashDouble(h, p.y);
  }
  for (std::int64_t v : inst.matrix()) hashU64(h, std::uint64_t(v));
  return h;
}

std::shared_ptr<const InstanceContext> InstanceContext::build(
    std::shared_ptr<const Instance> inst, const PreprocessParams& params) {
  auto ctx = std::shared_ptr<InstanceContext>(new InstanceContext());
  ctx->inst_ = std::move(inst);
  ctx->params_ = params;
  ctx->instanceHash_ = instanceContentHash(*ctx->inst_);

  // One task pool for every phase of this build. The pool only decides the
  // schedule: kd-tree layout, candidate CSR bytes, and the construction
  // tour are identical for every thread count (DESIGN.md §13), which is
  // why prepThreads stays out of the cache key.
  const int threads = params.prepThreads < 1 ? 1 : params.prepThreads;
  std::optional<TaskPool> pool;
  if (threads > 1) pool.emplace(threads);
  TaskPool* pp = pool ? &*pool : nullptr;
  PreprocessBuildStats stats;
  stats.threads = threads;
  const Timer total;

  std::optional<KdTree> tree;
  {
    const Timer t;
    if (ctx->inst_->hasCoords() && ctx->inst_->n() > 0)
      tree.emplace(ctx->inst_->points(), pp);
    stats.kdtreeMs = t.millis();
  }
  {
    const Timer t;
    auto cand = std::make_shared<CandidateLists>(
        *ctx->inst_, params.candidateK, params.kind,
        tree ? &*tree : nullptr, pp);
    if (params.symmetric) cand->makeSymmetric();
    ctx->cand_ = std::move(cand);
    stats.candMs = t.millis();
  }
  {
    const Timer t;
    ctx->constructionOrder_ = quickBoruvkaTour(*ctx->inst_, *ctx->cand_);
    ctx->constructionLength_ = ctx->inst_->tourLength(ctx->constructionOrder_);
    stats.constructMs = t.millis();
  }
  if (params.heldKarp) {
    const Timer t;
    ctx->heldKarp_ = heldKarpBound(*ctx->inst_, params.heldKarpOptions);
    stats.heldKarpMs = t.millis();
  }
  stats.totalMs = total.millis();
  ctx->buildStats_ = stats;
  return ctx;
}

std::shared_ptr<const InstanceContext> InstanceContext::borrow(
    const Instance& inst, const CandidateLists& cand) {
  auto ctx = std::shared_ptr<InstanceContext>(new InstanceContext());
  // Aliasing shared_ptrs with an empty control block: non-owning views.
  ctx->inst_ = std::shared_ptr<const Instance>(
      std::shared_ptr<const Instance>(), &inst);
  ctx->cand_ = std::shared_ptr<const CandidateLists>(
      std::shared_ptr<const CandidateLists>(), &cand);
  ctx->borrowed_ = true;
  ctx->constructionOrder_ = quickBoruvkaTour(inst, cand);
  ctx->constructionLength_ = inst.tourLength(ctx->constructionOrder_);
  return ctx;
}

std::string InstanceContext::key() const {
  std::ostringstream os;
  os << instanceHash_ << "/" << params_.cacheKey();
  return os.str();
}

ContextCache::ContextCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const InstanceContext> ContextCache::get(
    const std::shared_ptr<const Instance>& inst, const PreprocessParams& params,
    bool* wasHit) {
  std::ostringstream os;
  os << instanceContentHash(*inst) << "/" << params.cacheKey();
  const std::string key = os.str();

  const sync::MutexLock lock(mu_);
  ++tick_;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++stats_.hits;
    it->second.lastUsed = tick_;
    if (wasHit != nullptr) *wasHit = true;
    return it->second.ctx;
  }
  ++stats_.misses;
  if (wasHit != nullptr) *wasHit = false;
  // Build under the lock: concurrent requests for one key cost one build.
  auto ctx = InstanceContext::build(inst, params);
  ++stats_.builds;
  while (entries_.size() >= capacity_) {
    auto victim = entries_.begin();
    for (auto e = entries_.begin(); e != entries_.end(); ++e)
      if (e->second.lastUsed < victim->second.lastUsed) victim = e;
    entries_.erase(victim);
    ++stats_.evictions;
  }
  entries_.emplace(key, Entry{ctx, tick_});
  return ctx;
}

ContextCache::Stats ContextCache::stats() const {
  const sync::MutexLock lock(mu_);
  return stats_;
}

std::size_t ContextCache::size() const {
  const sync::MutexLock lock(mu_);
  return entries_.size();
}

void ContextCache::clear() {
  const sync::MutexLock lock(mu_);
  entries_.clear();
}

}  // namespace distclk
