// Small bounded fork-join pool for the preprocessing pipeline (parallel
// kd-tree build, sharded candidate-list construction). NOT a general
// executor: one pool lives for the duration of one InstanceContext::build()
// and is destroyed afterwards, tasks must not block on each other, and the
// pool's only synchronization is its own queue mutex — task bodies write
// disjoint output slices, so the results are a pure function of the task
// set, never of the worker schedule.
//
// Determinism contract (DESIGN.md §13): callers split work into fixed
// shards (independent of worker count) and every shard writes only its own
// pre-sized output region. The pool decides WHEN work runs, never WHAT the
// result is, which is why `prepThreads` is excluded from the context cache
// key.
//
// The queue mutex ranks kPrepPool (35): builds run under ContextCache::mu_
// (rank 30), so the pool lock must nest inside it; task bodies themselves
// acquire no locks at all.
#pragma once

#include <functional>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace distclk {

class TaskPool {
 public:
  /// Spawns `threads - 1` workers; the caller's thread is the remaining
  /// unit of parallelism (it executes tasks inside runUntilIdle()).
  /// `threads <= 1` spawns nothing and submit() runs tasks inline, so a
  /// TaskPool(1) is exactly the serial code path.
  explicit TaskPool(int threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Total parallelism (workers + the caller), >= 1.
  int parallelism() const noexcept { return threads_; }

  /// Enqueues a task. Tasks may submit further tasks (the kd-tree build
  /// forks per subtree). With parallelism() == 1 the task runs inline
  /// immediately. Must not be called after the destructor started.
  void submit(std::function<void()> task);

  /// Runs queued tasks on the calling thread until the queue is empty AND
  /// no worker is still executing one (tasks spawned by running tasks are
  /// waited for too). Returns immediately when parallelism() == 1.
  void runUntilIdle();

  /// Fork-join helper: splits [0, count) into `shards` contiguous ranges
  /// (shard boundaries depend only on count and shards — never on the
  /// worker count), runs `body(begin, end)` for each, and joins. With a
  /// null pool the single range [0, count) runs inline on the caller.
  static void parallelForShards(
      TaskPool* pool, int count, int shards,
      const std::function<void(int, int)>& body);

 private:
  void workerLoop();
  /// Pops one task and runs it; returns false when the queue is empty.
  bool runOneTask();

  const int threads_;
  mutable sync::Mutex mu_{sync::LockRank::kPrepPool, "TaskPool.mu"};
  sync::CondVar workAvailable_;
  sync::CondVar idle_;
  std::vector<std::function<void()>> queue_ DISTCLK_GUARDED_BY(mu_);
  int activeTasks_ DISTCLK_GUARDED_BY(mu_) = 0;
  bool stopping_ DISTCLK_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace distclk
