//===- native/Executor.h - Native-code execution ----------------*- C++ -*-===//
///
/// \file
/// The dispatch loop for NativeCode. Guard failures surface as Bailout
/// results carrying a snapshot id plus the live register file, from which
/// the JIT engine reconstructs an interpreter frame (deoptimization).
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_NATIVE_EXECUTOR_H
#define JITVS_NATIVE_EXECUTOR_H

#include "native/NativeCode.h"
#include "telemetry/BailoutReason.h"
#include "vm/GC.h"
#include "vm/Object.h"

#include <array>
#include <deque>
#include <vector>

namespace jitvs {

class Runtime;

/// Outcome of a native execution.
struct ExecResult {
  enum Kind { Ok, Bailout, Error } K = Ok;
  Value Result;
  uint32_t SnapshotId = 0;
  NOp BailOp = NOp::Nop;
  /// Why the guard failed, classified at the bail site (the taxonomy the
  /// engine's per-reason counters and telemetry events report under).
  BailoutReason BailReason = BailoutReason::Unknown;
  /// Native code offset of the failing guard: with the function identity
  /// this keys the per-site bailout counters.
  uint32_t BailPc = 0;
  /// Live register file at the bailout point (FrameSize entries). A copy,
  /// not a view of the frame's register buffer: that buffer belongs to
  /// the executor's set for this native depth, and the resumed
  /// interpreter's next native call takes the same set and overwrites
  /// it. Bailouts are rare, so the copy costs nothing on the hot path.
  std::vector<Value> RegsAtBail;
  /// Environment the native frame was using at the bailout point (either
  /// adopted from the OSR frame or created by the native prologue).
  Environment *EnvAtBail = nullptr;
};

/// How the dispatch loop advances from one instruction to the next.
enum class DispatchMode {
  Switch, ///< Portable while+switch loop (works on any compiler).
  Goto,   ///< Computed-goto threaded dispatch (GCC/Clang `&&label`).
  Count,  ///< The switch loop plus one counter per dispatched opcode.
};

/// The register file and value stacks of one native activation. The
/// executor keeps one set per native call depth and lends it to each
/// activation at that depth, so a warm call allocates nothing: the
/// vectors keep their capacity from one activation to the next.
struct FrameBuffers {
  std::vector<Value> Regs;
  std::vector<Value> Args;
  std::vector<Value> ArgStage;
  std::vector<Value> OsrSlots;
};

/// Executes native code frames.
class Executor {
public:
  /// Runs every frame with \p M (see supportedMode), fixed for the
  /// executor's lifetime.
  explicit Executor(Runtime &RT, DispatchMode M = defaultDispatchMode())
      : RT(RT), Mode(supportedMode(M)) {}

  /// True when this build supports computed-goto dispatch.
  static bool hasComputedGoto();

  /// Mode selected by `JITVS_DISPATCH=goto|switch|count` (read once);
  /// defaults to Goto where supported and silently falls back to Switch
  /// elsewhere.
  static DispatchMode defaultDispatchMode();

  /// \p M, or Switch where \p M is Goto and this build has no computed
  /// goto.
  static DispatchMode supportedMode(DispatchMode M) {
    return M == DispatchMode::Goto && !hasComputedGoto() ? DispatchMode::Switch
                                                         : M;
  }

  /// Runs \p Code. Entering at the OSR offset requires \p OsrSlots (the
  /// interpreter frame slots) and the frame's environments.
  ExecResult run(const NativeCode &Code, const Value &ThisV,
                 const Value *Args, size_t NumArgs, bool AtOsr,
                 const Value *OsrSlots, size_t NumOsrSlots,
                 Environment *Env, Environment *ClosureEnv);

  /// Instructions dispatched so far, per opcode. Only Count mode counts;
  /// a fused pair counts once, under its fused opcode.
  const std::array<uint64_t, NumNOps> &dispatchCounts() const {
    return DispatchCounts;
  }

private:
  Runtime &RT;
  const DispatchMode Mode;
  std::array<uint64_t, NumNOps> DispatchCounts{};
  /// Buffer sets indexed by native call depth. The pool grows to the
  /// deepest nesting seen (at most the runtime's MaxCallDepth), each set
  /// to the largest frame run at its depth. A deque, so adding the set
  /// for a new depth never moves the sets of activations still running.
  std::deque<FrameBuffers> Buffers;
  /// Native activations of this executor now running: the index of the
  /// set the next activation takes.
  size_t Depth = 0;
};

} // namespace jitvs

#endif // JITVS_NATIVE_EXECUTOR_H
