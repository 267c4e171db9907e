//===- jit/CompileQueue.cpp - Background compilation job queue ------------===//

#include "jit/CompileQueue.h"

#include <algorithm>

#ifdef __linux__
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

using namespace jitvs;

/// Drops the calling thread to the lowest scheduling priority. Compile
/// workers must never preempt the mutator: on a loaded machine the whole
/// point of the background pipeline is that dispatch latency stays flat,
/// and a default-priority worker woken by enqueue() can steal the
/// caller's core for exactly the compile it was supposed to hide. At
/// nice 19 the workers soak idle CPU only (free on multicore, graceful
/// degradation on one core: compiles land late, never in a call's tail).
static void deprioritizeCurrentThread() {
#ifdef __linux__
  // setpriority is per-thread on Linux (NPTL); best-effort elsewhere.
  setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), 19);
#endif
}

CompileQueue::CompileQueue(unsigned NumThreads, size_t Bound, CompileFn Fn)
    : Bound(Bound), Fn(std::move(Fn)) {
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

CompileQueue::~CompileQueue() { shutdown(); }

CompileQueue::EnqueueResult
CompileQueue::enqueue(std::shared_ptr<CompileTask> Task) {
  std::unique_lock<std::mutex> Lock(Mu);
  if (Stop)
    return EnqueueResult::Full;
  if (Pending.size() >= Bound) {
    ++Stats.RejectedFull;
    return EnqueueResult::Full;
  }
  Task->Seq = NextSeq++;
  Pending.push_back(std::move(Task));
  ++Stats.Enqueued;
  Lock.unlock();
  WorkCV.notify_one();
  return EnqueueResult::Queued;
}

std::shared_ptr<CompileTask> CompileQueue::popBestLocked() {
  size_t Best = 0;
  for (size_t I = 1; I != Pending.size(); ++I) {
    const CompileTask &A = *Pending[I];
    const CompileTask &B = *Pending[Best];
    if (A.Priority < B.Priority ||
        (A.Priority == B.Priority && A.Seq < B.Seq))
      Best = I;
  }
  std::shared_ptr<CompileTask> Task = std::move(Pending[Best]);
  Pending.erase(Pending.begin() + static_cast<ptrdiff_t>(Best));
  return Task;
}

void CompileQueue::workerLoop(unsigned Idx) {
  deprioritizeCurrentThread();
  for (;;) {
    std::shared_ptr<CompileTask> Task;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      WorkCV.wait(Lock, [this] { return Stop || !Pending.empty(); });
      if (Stop)
        return;
      Task = popBestLocked();
      Running.push_back(Task);
      ++Busy;
    }
    Fn(*Task, Idx);
    {
      std::lock_guard<std::mutex> Lock(Mu);
      auto It = std::find(Running.begin(), Running.end(), Task);
      if (It != Running.end())
        Running.erase(It);
      Completed.push_back(std::move(Task));
      CompletedFlag.store(true, std::memory_order_release);
      ++Stats.Compiled;
      --Busy;
      if (Pending.empty() && Busy == 0)
        IdleCV.notify_all();
    }
  }
}

size_t CompileQueue::depth() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Pending.size();
}

void CompileQueue::drain() {
  std::unique_lock<std::mutex> Lock(Mu);
  IdleCV.wait(Lock, [this] {
    return Stop || (Pending.empty() && Busy == 0);
  });
}

void CompileQueue::shutdown() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Stop)
      return;
    Stop = true;
    Stats.DroppedAtShutdown += Pending.size();
    Pending.clear();
  }
  WorkCV.notify_all();
  IdleCV.notify_all();
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
}

std::vector<std::shared_ptr<CompileTask>> CompileQueue::takeCompleted() {
  std::lock_guard<std::mutex> Lock(Mu);
  CompletedFlag.store(false, std::memory_order_release);
  std::vector<std::shared_ptr<CompileTask>> Out;
  Out.swap(Completed);
  return Out;
}

CompileQueue::Counters CompileQueue::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Stats;
}

void CompileQueue::forEachTask(
    const std::function<void(CompileTask &)> &Fn) const {
  std::lock_guard<std::mutex> Lock(Mu);
  for (const auto &T : Pending)
    Fn(*T);
  for (const auto &T : Running)
    Fn(*T);
  for (const auto &T : Completed)
    Fn(*T);
}
