// Shared, immutable per-instance preprocessing: distance kernel view,
// candidate lists (and the kd-tree work buried in their construction),
// the deterministic quick-Boruvka construction order, and an optional
// Held-Karp lower bound — built once and consumed by every run over the
// same instance. An LRU ContextCache keyed by (instance content hash,
// preprocessing params) turns repeated jobs into near-zero-setup solves.
//
// Immutability contract: after build() returns, an InstanceContext is
// never mutated; it is safe to share one shared_ptr<const InstanceContext>
// across any number of concurrent runs. Trajectory neutrality: everything
// cached here (candidate CSR, construction order, HK bound) is a pure
// deterministic function of (instance bytes, PreprocessParams), so a
// cache hit produces bit-identical run trajectories to a cold build —
// pinned by tests/test_instance_context.cpp and tests/test_svc.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bound/held_karp.h"
#include "util/sync.h"
#include "tsp/dist_kernel.h"
#include "tsp/instance.h"
#include "tsp/neighbors.h"

namespace distclk {

/// Everything that parameterizes per-instance preprocessing. Two requests
/// with equal cacheKey() over content-identical instances may share one
/// InstanceContext.
struct PreprocessParams {
  int candidateK = 10;
  CandidateLists::Kind kind = CandidateLists::Kind::kNearest;
  /// Run CandidateLists::makeSymmetric() after construction.
  bool symmetric = false;
  /// Compute a Held-Karp lower bound at build time (exposed via heldKarp()).
  bool heldKarp = false;
  HeldKarpOptions heldKarpOptions;
  /// Build-time parallelism for the preprocessing pipeline (kd-tree build,
  /// candidate shards). 1 = the exact serial path. Deliberately EXCLUDED
  /// from cacheKey(): every thread count produces byte-identical
  /// preprocessing output (DESIGN.md §13), so contexts built at different
  /// prepThreads are interchangeable.
  int prepThreads = 1;

  /// Canonical text form; equal strings == interchangeable preprocessing.
  std::string cacheKey() const;
};

/// Wall-time decomposition of one InstanceContext::build(), recorded on
/// every non-borrowed build and surfaced as prep.* metrics (obs) and the
/// svc job records.
struct PreprocessBuildStats {
  double kdtreeMs = 0.0;     ///< kd-tree construction (0 without coords)
  double candMs = 0.0;       ///< candidate CSR build (+ makeSymmetric)
  double constructMs = 0.0;  ///< Quick-Borůvka construction tour
  double heldKarpMs = 0.0;   ///< optional Held-Karp bound
  double totalMs = 0.0;      ///< whole build() wall time
  int threads = 1;           ///< parallelism actually used
};

/// FNV-1a over the instance payload (n, weight type, coordinates or the
/// explicit matrix). Two instances with equal hashes are treated as
/// content-identical by the cache regardless of name/comment.
std::uint64_t instanceContentHash(const Instance& inst);

class InstanceContext {
 public:
  /// Builds a context that co-owns `inst`. The expensive path: candidate
  /// construction (kd-tree for kNearest), construction tour, optional HK.
  static std::shared_ptr<const InstanceContext> build(
      std::shared_ptr<const Instance> inst, const PreprocessParams& params = {});

  /// Adapter for legacy call sites that already hold an Instance and
  /// CandidateLists by reference: borrows both (caller must keep them
  /// alive for the context's lifetime) and computes only the construction
  /// order. Never cached.
  static std::shared_ptr<const InstanceContext> borrow(
      const Instance& inst, const CandidateLists& cand);

  const Instance& instance() const noexcept { return *inst_; }
  const std::shared_ptr<const Instance>& instancePtr() const noexcept {
    return inst_;
  }
  const CandidateLists& candidates() const noexcept { return *cand_; }
  /// O(1) non-owning distance view (function-pointer dispatch hoisted).
  DistanceKernel kernel() const { return DistanceKernel(*inst_); }
  const PreprocessParams& params() const noexcept { return params_; }

  /// The deterministic quick-Boruvka construction order every node (and
  /// every restart) starts from. Cached so repeated runs skip the O(n k)
  /// greedy matching; identical to quickBoruvkaTour(instance(), candidates()).
  const std::vector<int>& constructionOrder() const noexcept {
    return constructionOrder_;
  }
  std::int64_t constructionLength() const noexcept {
    return constructionLength_;
  }

  /// Present iff params().heldKarp was set at build time.
  const std::optional<HeldKarpResult>& heldKarp() const noexcept {
    return heldKarp_;
  }

  /// Per-phase build wall times (all zero for borrowed contexts). Pure
  /// observability: not part of the cache identity or the trajectory.
  const PreprocessBuildStats& buildStats() const noexcept {
    return buildStats_;
  }

  std::uint64_t instanceHash() const noexcept { return instanceHash_; }
  bool borrowed() const noexcept { return borrowed_; }
  /// Full cache identity: "<instanceHash>/<params cacheKey>".
  std::string key() const;

  InstanceContext(const InstanceContext&) = delete;
  InstanceContext& operator=(const InstanceContext&) = delete;

 private:
  InstanceContext() = default;

  std::shared_ptr<const Instance> inst_;       // aliasing (non-owning) if borrowed
  std::shared_ptr<const CandidateLists> cand_; // aliasing if borrowed
  PreprocessParams params_;
  std::vector<int> constructionOrder_;
  std::int64_t constructionLength_ = 0;
  std::optional<HeldKarpResult> heldKarp_;
  PreprocessBuildStats buildStats_;
  std::uint64_t instanceHash_ = 0;
  bool borrowed_ = false;
};

/// Thread-safe LRU cache of built contexts, keyed by
/// (instance content hash, PreprocessParams::cacheKey). Contexts are
/// immutable, so a hit hands out the same shared_ptr that a concurrent
/// run may already be using. Builds happen under the cache lock: two
/// concurrent requests for the same key produce exactly one build (the
/// `builds` counter is what the determinism tests pin).
class ContextCache {
 public:
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t builds = 0;
    std::int64_t evictions = 0;
  };

  explicit ContextCache(std::size_t capacity = 8);

  /// Returns the cached context for (hash(inst), params), building and
  /// inserting it on a miss. If `wasHit` is non-null it is set to whether
  /// the lookup hit.
  std::shared_ptr<const InstanceContext> get(
      const std::shared_ptr<const Instance>& inst,
      const PreprocessParams& params = {}, bool* wasHit = nullptr);

  Stats stats() const;
  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }
  void clear();

 private:
  struct Entry {
    std::shared_ptr<const InstanceContext> ctx;
    std::int64_t lastUsed = 0;
  };

  mutable sync::Mutex mu_{sync::LockRank::kContextCache, "ContextCache.mu"};
  std::size_t capacity_;  // immutable after construction
  std::int64_t tick_ DISTCLK_GUARDED_BY(mu_) = 0;
  std::map<std::string, Entry> entries_ DISTCLK_GUARDED_BY(mu_);
  Stats stats_ DISTCLK_GUARDED_BY(mu_);
};

}  // namespace distclk
