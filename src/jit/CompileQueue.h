//===- jit/CompileQueue.h - Background compilation job queue ----*- C++ -*-===//
///
/// \file
/// A bounded priority queue of CompileTasks drained by N worker threads.
/// The queue does not dedup: the engine's per-function CompilePending
/// gate already keeps at most one task per function queued or running.
/// Workers run the compile callback the engine supplies; results travel
/// back through each task's atomic Result slot and are collected by the
/// main thread via takeCompleted() at dispatch boundaries. hasCompleted()
/// is a lock-free fast path so an idle pump costs one acquire load.
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_JIT_COMPILEQUEUE_H
#define JITVS_JIT_COMPILEQUEUE_H

#include "jit/CompileTask.h"

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace jitvs {

class CompileQueue {
public:
  /// Runs one task on a worker thread. \p WorkerIdx in [0, numThreads())
  /// identifies the calling worker so the engine can hand each worker
  /// its own private fold Runtime. The callback must release-store the
  /// task's Result before returning.
  using CompileFn = std::function<void(CompileTask &Task, unsigned WorkerIdx)>;

  /// Starts \p NumThreads workers. \p Bound caps the pending backlog;
  /// enqueues beyond it are rejected (the caller keeps interpreting and
  /// retries at the next hot trigger).
  CompileQueue(unsigned NumThreads, size_t Bound, CompileFn Fn);
  ~CompileQueue(); ///< shutdown() if the caller has not already.

  enum class EnqueueResult {
    Queued, ///< Accepted as a new job.
    Full,   ///< Backlog at the bound; rejected.
  };
  EnqueueResult enqueue(std::shared_ptr<CompileTask> Task);

  /// Pending (not yet picked up) jobs.
  size_t depth() const;

  /// Blocks until no job is pending or running. Completed results still
  /// await takeCompleted() — draining publishes, it does not install.
  void drain();

  /// Stops the workers: pending jobs are dropped (counted), the running
  /// ones finish and are joined. Idempotent.
  void shutdown();

  /// Lock-free check for the dispatch-boundary pump: true iff
  /// takeCompleted() would return something.
  bool hasCompleted() const {
    return CompletedFlag.load(std::memory_order_acquire);
  }
  std::vector<std::shared_ptr<CompileTask>> takeCompleted();

  struct Counters {
    uint64_t Enqueued = 0;
    uint64_t RejectedFull = 0;
    uint64_t Compiled = 0;
    uint64_t DroppedAtShutdown = 0;
  };
  Counters counters() const;

  unsigned numThreads() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// Visits every task the queue still references — pending, running and
  /// completed — under the queue lock. Main-thread only; used to GC-root
  /// the value snapshots tasks carry. The task is mutable so tracing can
  /// rewrite moved pointers, but a running task's snapshots are read
  /// concurrently by its worker — the engine tenures them at enqueue so
  /// a minor collection never actually relocates them (the visitor only
  /// writes when a pointer moved). Result stays worker-owned.
  void forEachTask(const std::function<void(CompileTask &)> &Fn) const;

private:
  void workerLoop(unsigned Idx);
  /// Pops the best pending task (lowest priority value, then FIFO).
  /// Caller holds Mu and has checked Pending is non-empty.
  std::shared_ptr<CompileTask> popBestLocked();

  mutable std::mutex Mu;
  std::condition_variable WorkCV; ///< Workers wait here for jobs.
  std::condition_variable IdleCV; ///< drain() waits here.
  std::vector<std::shared_ptr<CompileTask>> Pending;
  std::vector<std::shared_ptr<CompileTask>> Running;
  std::vector<std::shared_ptr<CompileTask>> Completed;
  /// Mirrors !Completed.empty() for the lock-free pump fast path.
  std::atomic<bool> CompletedFlag{false};
  uint64_t NextSeq = 1;
  size_t Bound;
  CompileFn Fn;
  bool Stop = false;
  unsigned Busy = 0; ///< Workers currently running a job.
  Counters Stats;
  std::vector<std::thread> Workers;
};

} // namespace jitvs

#endif // JITVS_JIT_COMPILEQUEUE_H
