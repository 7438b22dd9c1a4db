// Concurrency-discipline layer: capability-annotated synchronization
// wrappers. Every lock in the codebase goes through this header so that
//
//   1. Clang's thread-safety analysis can PROVE the locking contracts at
//      compile time: fields carry DISTCLK_GUARDED_BY(mu_), lock-requiring
//      private methods carry DISTCLK_REQUIRES(mu_), and the `tsa` preset
//      (clang++ -Werror=thread-safety, scripts/tier1.sh) turns any
//      unlocked access into a build error. Under GCC the attribute macros
//      expand to nothing and the wrappers compile to the std primitives.
//
//   2. Every Mutex is constructed with a documented LockRank, and under
//      -DDISTCLK_AUDIT=ON a per-thread held-lock stack aborts (via
//      util/audit.h) on out-of-rank or recursive acquisition — the
//      runtime complement to the static analysis: clang proves "guarded
//      fields are accessed under their lock", the rank audit proves "locks
//      nest in one global order", and together they rule out both unlocked
//      access and deadlock by lock-order inversion. Zero cost when OFF.
//
// The determinism lint (tools/lint_determinism.py, rule `bare-sync`) bans
// bare std::mutex / std::lock_guard / std::unique_lock /
// std::condition_variable everywhere outside this header, so the contracts
// cannot erode silently. See DESIGN.md §12 for the lock-rank table.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "util/audit.h"

#ifdef DISTCLK_AUDIT_ENABLED
#include <climits>
#include <cstdio>
#endif

// ---------------------------------------------------------------------------
// Clang thread-safety attribute macros (no-ops on other compilers).
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
// ---------------------------------------------------------------------------
#if defined(__clang__)
#define DISTCLK_TSA_ATTR(x) __attribute__((x))
#else
#define DISTCLK_TSA_ATTR(x)
#endif

#define DISTCLK_CAPABILITY(x) DISTCLK_TSA_ATTR(capability(x))
#define DISTCLK_SCOPED_CAPABILITY DISTCLK_TSA_ATTR(scoped_lockable)
#define DISTCLK_GUARDED_BY(x) DISTCLK_TSA_ATTR(guarded_by(x))
#define DISTCLK_PT_GUARDED_BY(x) DISTCLK_TSA_ATTR(pt_guarded_by(x))
#define DISTCLK_REQUIRES(...) \
  DISTCLK_TSA_ATTR(requires_capability(__VA_ARGS__))
#define DISTCLK_REQUIRES_SHARED(...) \
  DISTCLK_TSA_ATTR(requires_shared_capability(__VA_ARGS__))
#define DISTCLK_ACQUIRE(...) DISTCLK_TSA_ATTR(acquire_capability(__VA_ARGS__))
#define DISTCLK_ACQUIRE_SHARED(...) \
  DISTCLK_TSA_ATTR(acquire_shared_capability(__VA_ARGS__))
#define DISTCLK_RELEASE(...) DISTCLK_TSA_ATTR(release_capability(__VA_ARGS__))
#define DISTCLK_RELEASE_SHARED(...) \
  DISTCLK_TSA_ATTR(release_shared_capability(__VA_ARGS__))
#define DISTCLK_TRY_ACQUIRE(...) \
  DISTCLK_TSA_ATTR(try_acquire_capability(__VA_ARGS__))
#define DISTCLK_EXCLUDES(...) DISTCLK_TSA_ATTR(locks_excluded(__VA_ARGS__))
#define DISTCLK_RETURN_CAPABILITY(x) DISTCLK_TSA_ATTR(lock_returned(x))
// Escape hatch. Its use is banned outside util/sync.h (tier-1 greps for
// it); code that genuinely cannot express its discipline to the analysis
// leaves the fields unannotated and documents the ordering argument
// instead.
#define DISTCLK_NO_THREAD_SAFETY_ANALYSIS \
  DISTCLK_TSA_ATTR(no_thread_safety_analysis)

namespace distclk::sync {

/// The global lock order. A thread may only acquire a mutex whose rank is
/// STRICTLY GREATER than every rank it already holds (try-acquisitions are
/// exempt: they cannot block, hence cannot deadlock). Ranks are spaced so
/// future locks slot in without renumbering. The full table — every Mutex
/// in the codebase, its rank, and what it guards — lives in DESIGN.md §12;
/// keep both in sync when adding a lock.
///
/// Nesting edges this order legalizes (everything else is leaf-only):
///   kPoolTrace      -> kTraceSink       (SolverPool::finish writes a
///                                        finished job's block to the sink)
///   kTraceRegistry  -> kTraceSink       (flushAllTraceSinks try-flushes
///                                        each registered sink)
///   kContextCache   -> kPrepPool        (InstanceContext::build runs its
///                                        preprocessing task pool while the
///                                        cache lock is held on a miss)
///   kMetricsRegistry-> kMetricsShard    (snapshot/reset merge the shards)
enum class LockRank : int {
  kSolverPool = 10,      ///< svc/solver_pool.h   SolverPool::mu_
  kJobQueue = 20,        ///< svc/job_queue.h     JobQueue::mu_
  kContextCache = 30,    ///< tsp/instance_context.h ContextCache::mu_
  kPrepPool = 35,        ///< util/task_pool.h    TaskPool::mu_
  kHarnessCache = 45,    ///< experiments/harness.cpp HK-bound memo
  kJobProgress = 50,     ///< svc/solver_pool.cpp per-job onBest dedup
  kServeOut = 52,        ///< tools/distclk_serve.cpp response stream
  kMailbox = 55,         ///< net/thread_network.h Mailbox::mu_
  kTraceRegistry = 60,   ///< obs/trace_sink.cpp  live-sink registry
  kPoolTrace = 65,       ///< svc/solver_pool.h   SolverPool::traceMu_
  kTraceSink = 70,       ///< obs/trace_sink.h    JsonlTraceSink::mu_
  kMetricsRegistry = 80, ///< obs/metrics.h       MetricsRegistry::mu_
  kMetricsShard = 90,    ///< obs/metrics.cpp     MetricsRegistry::Shard::mu
  kSimPipeline = 95,     ///< core/runtime.cpp    SimPipeline::mu_ (leaf)
};

#ifdef DISTCLK_AUDIT_ENABLED
namespace detail {

struct HeldLock {
  const void* mu = nullptr;
  int rank = 0;
  const char* name = "";
};

/// The calling thread's held-lock stack (audit builds only). Deliberately
/// a trivially-destructible POD array, NOT a std::vector: atexit handlers
/// (the trace-sink flush) take try-locks after __call_tls_dtors has run,
/// and a destroyed thread_local vector would be a use-after-free there.
/// POD thread_locals have no destructor — their storage stays valid until
/// the thread itself ends. Depth 16 is far beyond the 14-rank hierarchy;
/// overflow is itself an audit failure.
inline constexpr int kMaxHeldLocks = 16;
inline thread_local HeldLock tHeldLocks[kMaxHeldLocks];
inline thread_local int tHeldCount = 0;

[[noreturn]] inline void rankFail(const char* where, const char* fmt,
                                  const char* name, int rank,
                                  const char* heldName, int heldRank) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, name, rank, heldName, heldRank);
  audit::fail("Mutex", where, buf);
}

[[noreturn]] inline void notHeldFail(const char* name) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "%s released by a thread that does not hold it", name);
  audit::fail("Mutex", "unlock", buf);
}

/// Pre-acquisition check: recursive acquisition always aborts; blocking
/// acquisitions additionally abort unless the new rank exceeds every held
/// rank (`ranked` is false for try-acquisitions, which cannot deadlock).
inline void auditCheckAcquire(const void* mu, int rank, const char* name,
                              bool ranked) {
  int maxRank = INT_MIN;
  const HeldLock* maxHeld = nullptr;
  for (int i = 0; i < tHeldCount; ++i) {
    const HeldLock& h = tHeldLocks[i];
    if (h.mu == mu)
      rankFail("lock", "recursive acquisition of %s (rank %d); first "
                       "acquired as %s (rank %d) by this same thread",
               name, rank, h.name, h.rank);
    if (h.rank >= maxRank) {
      maxRank = h.rank;
      maxHeld = &h;
    }
  }
  if (ranked && maxHeld != nullptr && rank <= maxRank)
    rankFail("lock", "out-of-rank acquisition of %s (rank %d) while "
                     "holding %s (rank %d)",
             name, rank, maxHeld->name, maxHeld->rank);
}

inline void auditPushHeld(const void* mu, int rank, const char* name) {
  if (tHeldCount >= kMaxHeldLocks) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "held-lock stack overflow acquiring %s (depth %d)", name,
                  tHeldCount);
    audit::fail("Mutex", "lock", buf);
  }
  tHeldLocks[tHeldCount++] = {mu, rank, name};
}

inline void auditPopHeld(const void* mu, const char* name) {
  for (int i = tHeldCount; i > 0; --i) {
    if (tHeldLocks[i - 1].mu == mu) {
      for (int j = i - 1; j + 1 < tHeldCount; ++j)
        tHeldLocks[j] = tHeldLocks[j + 1];
      --tHeldCount;
      return;
    }
  }
  notHeldFail(name);
}

}  // namespace detail

/// Number of locks the calling thread currently holds (audit builds only;
/// always 0 otherwise). Test hook for the rank-audit suite.
inline std::size_t auditHeldLockCount() noexcept {
  return static_cast<std::size_t>(detail::tHeldCount);
}

#define DISTCLK_SYNC_AUDIT(stmt) stmt
#else
inline std::size_t auditHeldLockCount() noexcept { return 0; }
#define DISTCLK_SYNC_AUDIT(stmt) ((void)0)
#endif

/// Exclusive mutex with a capability annotation and a documented lock
/// rank. Same blocking semantics as std::mutex; the rank is enforced (and
/// the held-lock stack maintained) only in -DDISTCLK_AUDIT=ON builds.
class DISTCLK_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank, const char* name) noexcept
      : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DISTCLK_ACQUIRE() {
    DISTCLK_SYNC_AUDIT(
        detail::auditCheckAcquire(this, static_cast<int>(rank_), name_,
                                  /*ranked=*/true));
    mu_.lock();
    DISTCLK_SYNC_AUDIT(
        detail::auditPushHeld(this, static_cast<int>(rank_), name_));
  }

  void unlock() DISTCLK_RELEASE() {
    DISTCLK_SYNC_AUDIT(detail::auditPopHeld(this, name_));
    mu_.unlock();
  }

  /// Non-blocking acquisition: exempt from the rank order (a try-lock can
  /// never deadlock) but not from the recursion check — try-locking a
  /// mutex this thread already holds is undefined behavior on std::mutex.
  bool tryLock() DISTCLK_TRY_ACQUIRE(true) {
    DISTCLK_SYNC_AUDIT(
        detail::auditCheckAcquire(this, static_cast<int>(rank_), name_,
                                  /*ranked=*/false));
    if (!mu_.try_lock()) return false;
    DISTCLK_SYNC_AUDIT(
        detail::auditPushHeld(this, static_cast<int>(rank_), name_));
    return true;
  }

  LockRank rank() const noexcept { return rank_; }
  const char* name() const noexcept { return name_; }

 private:
  std::mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

/// Reader/writer mutex; shared acquisitions follow the same rank rules as
/// exclusive ones (a reader blocked behind a writer deadlocks just the
/// same if it acquires out of order).
class DISTCLK_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(LockRank rank, const char* name) noexcept
      : rank_(rank), name_(name) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() DISTCLK_ACQUIRE() {
    DISTCLK_SYNC_AUDIT(
        detail::auditCheckAcquire(this, static_cast<int>(rank_), name_,
                                  /*ranked=*/true));
    mu_.lock();
    DISTCLK_SYNC_AUDIT(
        detail::auditPushHeld(this, static_cast<int>(rank_), name_));
  }

  void unlock() DISTCLK_RELEASE() {
    DISTCLK_SYNC_AUDIT(detail::auditPopHeld(this, name_));
    mu_.unlock();
  }

  void lockShared() DISTCLK_ACQUIRE_SHARED() {
    DISTCLK_SYNC_AUDIT(
        detail::auditCheckAcquire(this, static_cast<int>(rank_), name_,
                                  /*ranked=*/true));
    mu_.lock_shared();
    DISTCLK_SYNC_AUDIT(
        detail::auditPushHeld(this, static_cast<int>(rank_), name_));
  }

  void unlockShared() DISTCLK_RELEASE_SHARED() {
    DISTCLK_SYNC_AUDIT(detail::auditPopHeld(this, name_));
    mu_.unlock_shared();
  }

  LockRank rank() const noexcept { return rank_; }
  const char* name() const noexcept { return name_; }

 private:
  std::shared_mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

/// RAII exclusive lock (the project's std::lock_guard/std::scoped_lock).
class DISTCLK_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DISTCLK_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() DISTCLK_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII shared (reader) lock on a SharedMutex.
class DISTCLK_SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(SharedMutex& mu) DISTCLK_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lockShared();
  }
  ~SharedLock() DISTCLK_RELEASE() { mu_.unlockShared(); }
  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII exclusive (writer) lock on a SharedMutex.
class DISTCLK_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) DISTCLK_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterLock() DISTCLK_RELEASE() { mu_.unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable over a sync::Mutex. Waits release and re-acquire
/// through the Mutex wrapper, so the audit's held-lock stack (and the
/// rank check on re-acquisition) stays exact across waits.
///
/// Call sites use the explicit-loop form rather than predicate lambdas —
///
///   while (!ready_) cv_.wait(mu_);
///
/// — because the loop body sits in the annotated function where the
/// analysis knows `mu_` is held; a predicate lambda would be analyzed as
/// its own (lockless) function and flag every guarded read inside it.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (or spuriously woken — always re-check the
  /// condition in a loop). `mu` must be held by the caller.
  void wait(Mutex& mu) DISTCLK_REQUIRES(mu) { cv_.wait(mu); }

  /// Bounded wait; returns std::cv_status::timeout when `seconds` elapsed
  /// without a notification.
  std::cv_status waitFor(Mutex& mu, double seconds) DISTCLK_REQUIRES(mu) {
    return cv_.wait_for(mu, std::chrono::duration<double>(seconds));
  }

  template <typename Clock, typename Duration>
  std::cv_status waitUntil(Mutex& mu,
                           const std::chrono::time_point<Clock, Duration>& tp)
      DISTCLK_REQUIRES(mu) {
    return cv_.wait_until(mu, tp);
  }

  void notifyOne() noexcept { cv_.notify_one(); }
  void notifyAll() noexcept { cv_.notify_all(); }

 private:
  // _any: waits directly on the sync::Mutex wrapper (BasicLockable), which
  // is what routes the release/re-acquire through the audit bookkeeping.
  std::condition_variable_any cv_;
};

}  // namespace distclk::sync
