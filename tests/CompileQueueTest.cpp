//===- tests/CompileQueueTest.cpp - Background compiler unit tests --------===//
///
/// \file
/// The off-thread compilation pipeline: queue priority and FIFO
/// ordering, shutdown with jobs still pending, cross-thread result
/// publication through the atomic Result slot, deferred code
/// reclamation, and the engine-level drain mode, whose counts must equal
/// the inline compiles' on every program.
///
//===----------------------------------------------------------------------===//

#include "fuzz/ProgramGen.h"
#include "jit/CodeCache.h"
#include "jit/CompileQueue.h"
#include "jit/Engine.h"
#include "native/NativeCode.h"
#include "telemetry/BailoutReason.h"
#include "vm/Runtime.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace jitvs;

namespace {

std::shared_ptr<CompileTask> makeTask(FunctionInfo *Info, bool IsOsr,
                                      CompilePriority Priority) {
  auto T = std::make_shared<CompileTask>();
  T->Info = Info;
  T->IsOsr = IsOsr;
  T->Priority = Priority;
  return T;
}

/// A gate the test holds closed while it stuffs the queue, so pop order
/// is decided by the priority comparator and not by racing enqueues.
struct Gate {
  std::atomic<bool> Entered{false};
  std::atomic<bool> Open{false};
  void waitEntered() const {
    while (!Entered.load(std::memory_order_acquire))
      std::this_thread::yield();
  }
  void block() {
    Entered.store(true, std::memory_order_release);
    while (!Open.load(std::memory_order_acquire))
      std::this_thread::yield();
  }
};

TEST(CompileQueue, PopsByPriorityThenFifo) {
  FunctionInfo Gatekeeper, A, B, C, D;
  Gate G;
  std::vector<FunctionInfo *> Order;
  std::mutex OrderMu;
  CompileQueue Q(/*NumThreads=*/1, /*Bound=*/16,
                 [&](CompileTask &Task, unsigned) {
                   if (Task.Info == &Gatekeeper)
                     G.block();
                   std::lock_guard<std::mutex> Lock(OrderMu);
                   Order.push_back(Task.Info);
                 });

  // Occupy the single worker so everything below stays pending.
  ASSERT_EQ(Q.enqueue(makeTask(&Gatekeeper, false, CompilePriority::Recompile)),
            CompileQueue::EnqueueResult::Queued);
  G.waitEntered();

  for (auto [Info, Priority] :
       {std::pair{&A, CompilePriority::FirstCompile},
        std::pair{&B, CompilePriority::Recompile},
        std::pair{&C, CompilePriority::FirstCompile},
        std::pair{&D, CompilePriority::Recompile}})
    EXPECT_EQ(Q.enqueue(makeTask(Info, false, Priority)),
              CompileQueue::EnqueueResult::Queued);
  EXPECT_EQ(Q.depth(), 4u);

  G.Open.store(true, std::memory_order_release);
  Q.drain();

  // Recompiles outrank first compiles; FIFO within a priority class
  // (B before D, A before C).
  std::vector<FunctionInfo *> Expected = {&Gatekeeper, &B, &D, &A, &C};
  EXPECT_EQ(Order, Expected);

  CompileQueue::Counters Counts = Q.counters();
  EXPECT_EQ(Counts.Enqueued, 5u);
  EXPECT_EQ(Counts.Compiled, 5u);
  EXPECT_EQ(Counts.RejectedFull, 0u);
}

TEST(CompileQueue, BoundedBacklogRejectsWhenFull) {
  FunctionInfo F[4];
  CompileQueue Q(/*NumThreads=*/0, /*Bound=*/2,
                 [](CompileTask &, unsigned) {});
  EXPECT_EQ(Q.enqueue(makeTask(&F[0], false, CompilePriority::FirstCompile)),
            CompileQueue::EnqueueResult::Queued);
  EXPECT_EQ(Q.enqueue(makeTask(&F[1], false, CompilePriority::FirstCompile)),
            CompileQueue::EnqueueResult::Queued);
  EXPECT_EQ(Q.enqueue(makeTask(&F[2], false, CompilePriority::FirstCompile)),
            CompileQueue::EnqueueResult::Full);
  EXPECT_EQ(Q.counters().RejectedFull, 1u);
}

TEST(CompileQueue, ShutdownDropsPendingJobs) {
  FunctionInfo F[3];
  // No workers: everything enqueued stays pending until shutdown.
  CompileQueue Q(/*NumThreads=*/0, /*Bound=*/16,
                 [](CompileTask &, unsigned) {});
  for (auto &Fi : F)
    ASSERT_EQ(Q.enqueue(makeTask(&Fi, false, CompilePriority::FirstCompile)),
              CompileQueue::EnqueueResult::Queued);
  EXPECT_EQ(Q.depth(), 3u);
  Q.shutdown();
  EXPECT_EQ(Q.depth(), 0u);
  CompileQueue::Counters Counts = Q.counters();
  EXPECT_EQ(Counts.DroppedAtShutdown, 3u);
  EXPECT_EQ(Counts.Compiled, 0u);
  // Idempotent, and a stopped queue accepts nothing.
  Q.shutdown();
  EXPECT_EQ(Q.enqueue(makeTask(&F[0], false, CompilePriority::FirstCompile)),
            CompileQueue::EnqueueResult::Full);
}

TEST(CompileQueue, PublicationIsVisibleThroughAcquireLoad) {
  FunctionInfo FI;
  CompileQueue Q(/*NumThreads=*/1, /*Bound=*/16,
                 [](CompileTask &Task, unsigned WorkerIdx) {
                   EXPECT_EQ(WorkerIdx, 0u);
                   auto Out = std::make_unique<CompileOutcome>();
                   Out->Seconds = 1.25;
                   Out->Fused = 3;
                   Task.Result.store(Out.release(),
                                     std::memory_order_release);
                 });
  auto Task = makeTask(&FI, false, CompilePriority::FirstCompile);
  ASSERT_EQ(Q.enqueue(Task), CompileQueue::EnqueueResult::Queued);

  // Spin exactly the way the engine's pump does: acquire loads until the
  // worker's release store becomes visible. Everything the worker wrote
  // before the store must be visible after it.
  const CompileOutcome *Out;
  while (!(Out = Task->Result.load(std::memory_order_acquire)))
    std::this_thread::yield();
  EXPECT_EQ(Out->Seconds, 1.25);
  EXPECT_EQ(Out->Fused, 3u);

  while (!Q.hasCompleted())
    std::this_thread::yield();
  auto Done = Q.takeCompleted();
  ASSERT_EQ(Done.size(), 1u);
  EXPECT_EQ(Done[0].get(), Task.get());
  EXPECT_FALSE(Q.hasCompleted());
  EXPECT_TRUE(Q.takeCompleted().empty());
}

TEST(CodeReclaimer, NeverFreesCodeWithLiveReferences) {
  FunctionInfo FI;
  CodeReclaimer R;
  auto Code = std::make_shared<NativeCode>(&FI);
  std::weak_ptr<NativeCode> Watch = Code;
  std::shared_ptr<NativeCode> LiveFrame = Code; // An executing frame.

  R.retire(std::move(Code));
  EXPECT_EQ(R.pending(), 1u);
  // Epochs advance, but the live reference pins the entry indefinitely.
  for (int I = 0; I != 5; ++I)
    R.tick();
  EXPECT_EQ(R.pending(), 1u);
  EXPECT_FALSE(Watch.expired());

  // Retained entries stay visible to the GC root walk.
  size_t Visited = 0;
  R.forEachRetained([&](const NativeCode &C) {
    EXPECT_EQ(C.Info, &FI);
    ++Visited;
  });
  EXPECT_EQ(Visited, 1u);

  // Frame returns; the grace period has long elapsed, so the next epoch
  // tick reclaims it.
  LiveFrame.reset();
  R.tick();
  EXPECT_EQ(R.pending(), 0u);
  EXPECT_TRUE(Watch.expired());
}

TEST(CodeReclaimer, HonorsEpochGracePeriod) {
  FunctionInfo FI;
  CodeReclaimer R;
  R.retire(std::make_shared<NativeCode>(&FI)); // Unreferenced immediately.
  // Freeing still waits two epochs: code retired at this dispatch
  // boundary may be re-entered until the caller crosses the next one.
  R.tick();
  EXPECT_EQ(R.pending(), 1u);
  R.tick();
  EXPECT_EQ(R.pending(), 0u);
}

TEST(CodeReclaimer, SynchronousDespecializationRetiresTheOldBody) {
  EngineKnobs Knobs; // Paper policy, inline compiles, no code cache.
  Knobs.CallThreshold = 3;
  Knobs.LoopThreshold = 1000000; // Keep top-level code interpreted.
  Runtime RT;
  Engine E(RT, OptConfig::all(), Knobs);
  // The last call has a different argument: the specialized body is
  // unlinked and parked.
  RT.evaluate("function f(x) { return x + 1; }"
              "for (var i = 0; i < 10; i++) f(7);"
              "f(9);");
  ASSERT_FALSE(RT.hasError());
  EXPECT_EQ(E.stats().Despecializations, 1u);
  EXPECT_EQ(E.codeReclaimer().pending(), 1u);
  // Each call is a dispatch boundary; two later, nothing can still be
  // running the old body and it is freed.
  RT.evaluate("function g() { return 0; } g();");
  EXPECT_EQ(E.codeReclaimer().pending(), 1u);
  RT.evaluate("function h() { return 0; } h();");
  EXPECT_EQ(E.codeReclaimer().pending(), 0u);
}

/// Every count one run leaves behind: EngineStats without its two
/// wall-clock fields, and the code cache's own counters.
struct RunCounts {
  EngineStats Stats;
  CodeCache::Stats Cache;
  std::string Output;
};

RunCounts runCounted(const std::string &Source, const EngineKnobs &Knobs) {
  Runtime RT;
  Engine E(RT, OptConfig::all(), Knobs);
  RT.evaluate(Source);
  RunCounts R;
  R.Stats = E.stats();
  R.Cache = E.codeCache()->stats();
  R.Output = RT.hasError() ? "error: " + RT.errorMessage() : RT.output();
  return R;
}

/// The registry name of \p R's bailout count.
std::string bailoutCountName(size_t R) {
  return std::string("engine.bailouts.") +
         bailoutReasonName(static_cast<BailoutReason>(R));
}

/// Names each count that differs between \p A and \p B.
std::string countDiff(const RunCounts &A, const RunCounts &B) {
  std::string Diff;
  auto Check = [&](const std::string &Name, uint64_t X, uint64_t Y) {
    if (X != Y)
      Diff += " " + Name + " " + std::to_string(X) + " vs " +
              std::to_string(Y) + ";";
  };
  for (auto [Name, Field] : EngineStatCounts)
    Check(Name, A.Stats.*Field, B.Stats.*Field);
  for (size_t I = 0; I != NumBailoutReasons; ++I)
    Check(bailoutCountName(I), A.Stats.BailoutsByReason[I],
          B.Stats.BailoutsByReason[I]);
  for (auto [Name, Field] : CodeCacheStatCounts)
    Check(Name, A.Cache.*Field, B.Cache.*Field);
  if (A.Output != B.Output)
    Diff += " output;";
  return Diff;
}

/// Adds every count of \p S into \p Sum.
void addCounts(EngineStats &Sum, const EngineStats &S) {
  for (auto [Name, Field] : EngineStatCounts)
    Sum.*Field += S.*Field;
  for (size_t I = 0; I != NumBailoutReasons; ++I)
    Sum.BailoutsByReason[I] += S.BailoutsByReason[I];
}

/// "Name value" for every count of \p S, non-zero bailout reasons only.
std::string describeCounts(const EngineStats &S) {
  std::string Out;
  auto Add = [&Out](const std::string &Name, uint64_t V) {
    Out += (Out.empty() ? "" : " ") + Name + " " + std::to_string(V);
  };
  for (auto [Name, Field] : EngineStatCounts)
    Add(Name, S.*Field);
  for (size_t I = 0; I != NumBailoutReasons; ++I)
    if (S.BailoutsByReason[I])
      Add(bailoutCountName(I), S.BailoutsByReason[I]);
  return Out;
}

/// Inline-mode counts summed over each program set, as describeCounts
/// prints them; a null field is not checked.
struct PinnedCounts {
  const char *Suite = nullptr;
  const char *Generated = nullptr;
};

/// The count-parity contract of drain mode: one background worker that
/// the caller waits on after every enqueue must leave exactly the counts
/// the inline compiles leave, on the 23 suite programs at the default
/// thresholds and on 100 generated programs at the fuzzer's thresholds
/// (which despecialize, enter OSR and bail out often). With \p Pinned,
/// the inline counts summed over each set must also equal the recorded
/// ones.
void expectDrainParity(TierPolicy Policy, size_t CacheBytes,
                       const PinnedCounts &Pinned = {}) {
  EngineKnobs Suite;
  Suite.Policy = Policy;
  Suite.CodeCacheBytes = CacheBytes;
  EngineKnobs Generated = Suite;
  Generated.CallThreshold = 3;
  Generated.LoopThreshold = 20;

  struct Program {
    std::string Name, Source;
    EngineKnobs Inline;
    bool IsGenerated;
  };
  std::vector<Program> Programs;
  for (const Workload &W : allWorkloads())
    Programs.push_back({W.Name, W.Source, Suite, false});
  for (uint64_t Seed = 1; Seed <= 100; ++Seed)
    Programs.push_back({"seed " + std::to_string(Seed),
                        fuzz::generateProgram(Seed).render(), Generated, true});
  ASSERT_EQ(Programs.size(), 123u);

  size_t Differing = 0;
  EngineStats SuiteSum, GeneratedSum;
  for (const Program &P : Programs) {
    EngineKnobs Drain = P.Inline;
    Drain.CompileThreads = 1;
    Drain.CompileDrain = true;
    RunCounts A = runCounted(P.Source, P.Inline);
    RunCounts B = runCounted(P.Source, Drain);
    addCounts(P.IsGenerated ? GeneratedSum : SuiteSum, A.Stats);
    std::string Diff = countDiff(A, B);
    if (!Diff.empty() && ++Differing <= 5)
      ADD_FAILURE() << P.Name << " (inline vs drain):" << Diff;
    if (&P == &Programs.front()) {
      EXPECT_GT(A.Stats.Compilations, 0u) << P.Name;
      // Every drain blocked the caller, so stall time was recorded.
      EXPECT_GT(B.Stats.CompileStallSeconds, 0.0) << P.Name;
    }
  }
  EXPECT_EQ(Differing, 0u) << "programs whose counts differ";
  if (Pinned.Suite) {
    EXPECT_EQ(describeCounts(SuiteSum), Pinned.Suite) << "suite programs";
  }
  if (Pinned.Generated) {
    EXPECT_EQ(describeCounts(GeneratedSum), Pinned.Generated)
        << "generated programs";
  }
}

constexpr size_t ServeCacheBytes = 120 * 1024;

TEST(AsyncEngine, DrainModeCountsMatchInlinePaper) {
  // The paper policy's counts. The suite sums date from before the
  // specialized binaries moved into one table; the generated sums from
  // when overflow and out-of-bounds feedback stopped leaking from native
  // helpers to the next interpreted site. Any policy change that moves
  // them shows here. fused_ops counts code shape, not policy: it fell
  // when the register allocator stopped emitting the unbox moves and
  // in-loop constant loads that fusion used to pair up.
  PinnedCounts Pinned;
  Pinned.Suite =
      "engine.compilations 93 engine.recompilations 33 "
      "engine.compiles.specialized 61 engine.compiles.generic 32 "
      "engine.despecializations 31 engine.cache_hits 9160 "
      "engine.cache_hits.value_tier 9160 engine.cache_hits.type_tier 0 "
      "engine.tier_demotions.value_to_type 0 "
      "engine.tier_demotions.to_generic 0 engine.generic_fallbacks 0 "
      "engine.bailouts 24 engine.osr_entries 63 engine.calls.native 98115 "
      "engine.calls.interpreted 185 engine.fused_ops 192 "
      "engine.bailouts.int-overflow 12 engine.bailouts.type-guard 12";
  Pinned.Generated =
      "engine.compilations 790 engine.recompilations 362 "
      "engine.compiles.specialized 454 engine.compiles.generic 336 "
      "engine.despecializations 261 engine.cache_hits 3858 "
      "engine.cache_hits.value_tier 3858 engine.cache_hits.type_tier 0 "
      "engine.tier_demotions.value_to_type 0 "
      "engine.tier_demotions.to_generic 0 engine.generic_fallbacks 0 "
      "engine.bailouts 758 engine.osr_entries 714 engine.calls.native 63055 "
      "engine.calls.interpreted 692 engine.fused_ops 1143 "
      "engine.bailouts.int-overflow 117 engine.bailouts.negative-zero 25 "
      "engine.bailouts.type-guard 336 engine.bailouts.number-guard 139 "
      "engine.bailouts.bounds-check 118 engine.bailouts.shape-guard 23";
  expectDrainParity(TierPolicy::Paper, 0, Pinned);
}

TEST(AsyncEngine, DrainModeCountsMatchInlineTiered) {
  expectDrainParity(TierPolicy::Tiered, 0);
}

TEST(AsyncEngine, DrainModeCountsMatchInlinePaperCache) {
  expectDrainParity(TierPolicy::Paper, ServeCacheBytes);
}

TEST(AsyncEngine, DrainModeCountsMatchInlineTieredCache) {
  expectDrainParity(TierPolicy::Tiered, ServeCacheBytes);
}

TEST(AsyncEngine, FreeRunningCompilePublishesAtDispatchBoundary) {
  EngineKnobs Knobs;
  Knobs.CallThreshold = 5;
  Knobs.LoopThreshold = 1000000;
  Knobs.CompileThreads = 1; // Free-running: no drain.

  Runtime RT;
  Engine E(RT, OptConfig::all(), Knobs);
  RT.evaluate("function f(x) { return x + 1; }"
              "for (var i = 0; i < 20; i++) f(7);");
  ASSERT_FALSE(RT.hasError());

  // The compile was requested (threshold crossed) but may still be in
  // flight; the caller kept interpreting rather than stalling. Every
  // call meanwhile was interpreted or ran an installed body — never
  // blocked on the worker.
  E.drainCompiles(); // Settle, then install at this dispatch boundary.
  EXPECT_EQ(E.pendingCompiles(), 0u);
  EXPECT_EQ(E.stats().Compilations, 1u);
  EXPECT_EQ(E.stats().SpecializedCompiles, 1u);
  EXPECT_EQ(E.stats().NativeCalls + E.stats().InterpretedCalls, 20u);
}

// The queue keeps duplicates; the engine's per-function pending flag is
// what stops a second compile of a function whose first is in flight.
TEST(AsyncEngine, CompileNowWhileInFlightQueuesNothing) {
  EngineKnobs Knobs;
  Knobs.CompileThreads = 1; // Free-running: installs wait for a pump.
  Runtime RT;
  Engine E(RT, OptConfig::all(), Knobs);
  RT.evaluate("function f(x) { return x + 1; }");
  ASSERT_FALSE(RT.hasError());
  FunctionInfo *F = nullptr;
  for (size_t I = 0; I != RT.program()->numFunctions(); ++I)
    if (RT.program()->function(static_cast<uint32_t>(I))->Name == "f")
      F = RT.program()->function(static_cast<uint32_t>(I));
  ASSERT_NE(F, nullptr);

  EXPECT_EQ(E.compileNow(F, nullptr), nullptr);
  EXPECT_EQ(E.compileNow(F, nullptr), nullptr);
  E.drainCompiles();
  EXPECT_EQ(E.stats().Compilations, 1u);
}

} // namespace
