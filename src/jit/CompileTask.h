//===- jit/CompileTask.h - One unit of compilation --------------*- C++ -*-===//
///
/// \file
/// The "compile this" action the engine's policy emits. A CompileTask
/// carries everything one compile needs — the specialized argument
/// values, tier vectors, OSR frame slots and, for background builds, a
/// whole-program type-feedback snapshot — so the same task runs either
/// inline on the main thread or on a worker thread without touching any
/// state the main thread mutates. The
/// finished binary is published through a single atomic result slot: a
/// worker release-stores a CompileOutcome, the main thread acquire-loads
/// it at a dispatch boundary and links the code in.
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_JIT_COMPILETASK_H
#define JITVS_JIT_COMPILETASK_H

#include "mir/Tier.h"
#include "vm/GC.h"
#include "vm/TypeFeedback.h"
#include "vm/Value.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace jitvs {

struct FunctionInfo;
class NativeCode;

/// Queue ordering: despecialization/generic recompiles outrank first
/// compiles — a function that lost its binary is interpreting *now*,
/// while a first compile merely upgrades code that was never native.
enum class CompilePriority : uint8_t {
  Recompile = 0,    ///< Replaces a body the policy just invalidated.
  FirstCompile = 1, ///< A function's (or loop's) first binary.
};

/// What a compile hands back: the binary and what it cost. Owned by the
/// task's result slot; destroying an outcome whose donated allocations
/// were never adopted frees them on the spot (the install was skipped,
/// so nothing else references them).
struct CompileOutcome {
  CompileOutcome() = default;
  CompileOutcome(const CompileOutcome &) = delete;
  CompileOutcome &operator=(const CompileOutcome &) = delete;
  ~CompileOutcome() {
    if (!Donated.empty())
      Heap::freeChain(Donated);
  }

  std::shared_ptr<NativeCode> Code;
  /// Wall-clock spent in the pipeline (EngineStats::CompileSeconds
  /// counts this wherever it ran).
  double Seconds = 0.0;
  /// Macro-op pairs fused (folded into EngineStats at install).
  unsigned Fused = 0;

  /// Objects constant folding allocated in a worker's private heap
  /// (ConstPool entries may point into this chain); empty for inline
  /// compiles, which fold on the main heap. The install path splices
  /// them into the main heap (Heap::adoptChain) directly into the old
  /// generation — worker heaps run with the nursery disabled, so every
  /// donated object is pointer-stable and the addresses baked into the
  /// pool stay valid across minor collections.
  Heap::DetachedChain Donated;
};

/// One queued compilation. All input fields are immutable once the task
/// is enqueued; Result is the only field written afterwards (by exactly
/// one worker, with a release store).
struct CompileTask {
  CompileTask() = default;
  CompileTask(const CompileTask &) = delete;
  CompileTask &operator=(const CompileTask &) = delete;
  ~CompileTask() { delete Result.load(std::memory_order_acquire); }

  FunctionInfo *Info = nullptr;
  /// Builds an OSR entry at OsrPc. Also the queue's dedup key second
  /// component: one outstanding entry and one outstanding OSR task per
  /// function at most.
  bool IsOsr = false;
  CompilePriority Priority = CompilePriority::FirstCompile;
  /// FIFO tiebreak within a priority class (assigned by the queue).
  uint64_t Seq = 0;
  /// FuncState generation at enqueue. The install path drops the result
  /// when the function's policy state moved on (bailout discard,
  /// despecialization decision) while the compile was in flight.
  uint32_t Generation = 0;

  // --- Immutable compile inputs (tiers are chosen on the main thread
  // when the task is built; an empty tier vector means all value-tier) ---
  bool Specialized = false;
  std::vector<Value> SpecArgs; ///< GC-rooted while the task is live.
  std::vector<ParamTier> Tiers;
  uint32_t OsrPc = 0;
  /// Specialized OSR builds only: the frame slots baked in, and their
  /// tiers.
  std::vector<Value> OsrSlots; ///< GC-rooted while the task is live.
  std::vector<ParamTier> OsrTiers;

  /// Whole-program feedback snapshot captured at enqueue; the builder
  /// reads this instead of the live FunctionInfo::Feedback maps. Null for
  /// inline compiles, which read the live maps.
  std::shared_ptr<const FeedbackSnapshot> Feedback;
  uint64_t EnqueueNs = 0; ///< For the compile-wait histogram.

  /// Publication slot: null until the compile stores the finished
  /// outcome (a worker with a release store); the install path
  /// acquire-loads it exactly once.
  std::atomic<CompileOutcome *> Result{nullptr};
};

} // namespace jitvs

#endif // JITVS_JIT_COMPILETASK_H
