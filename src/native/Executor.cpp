//===- native/Executor.cpp - Register machine dispatch loop ----------------===//
//
// The instruction handlers live in DispatchLoop.inc, textually included
// three times below: as a computed-goto threaded loop (GCC/Clang
// `&&label`), as a portable while+switch loop, and as that switch loop
// with a per-opcode dispatch counter (JITVS_DISPATCH=count). Threaded
// dispatch gives each handler its own indirect jump, so the branch
// predictor keys on the current opcode's successor distribution instead
// of one shared dispatch branch — the Ertl & Gregg result macro-op
// fusion builds on.
//
// That only holds if the compiler keeps the loop state in machine
// registers and leaves each handler's dispatch where it is:
//
//  - The register file, constant pool and instruction array are raw
//    pointers (R, Pool, Insns) bound once at entry. Each buffer keeps its
//    size for the whole activation, so the pointers stay valid; going
//    through the std::vector each time costs a load per operand.
//  - Nothing in the loop may take PC's address. A `[&]` lambda that
//    reads PC makes it escape, and then every handler stores PC to the
//    stack and the dispatch reloads it. So Bail takes the failing
//    instruction N and derives BailPc = N - Insns instead of PC - 1.
//  - GCC's GCSE and cross-jumping merge the identical dispatch tails of
//    the goto-mode handlers into one shared block ending in the single
//    indirect jump, which is switch dispatch again. src/CMakeLists.txt
//    compiles this file with -fno-gcse -fno-crossjumping under GCC (the
//    GCC manual's advice for computed-goto interpreters).
//
// `objdump -d Executor.cpp.o | grep -c 'jmp *\*'` counts the indirect
// jumps: about one per goto-mode handler when the threading holds.
//
//===----------------------------------------------------------------------===//

#include "native/Executor.h"

#include "mir/MIR.h" // MathIntrinsic.
#include "support/Assert.h"
#include "telemetry/Metrics.h"
#include "vm/Bytecode.h"
#include "vm/Runtime.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

using namespace jitvs;

/// Computed-goto threaded dispatch needs the GNU `&&label` extension.
#if defined(__GNUC__) || defined(__clang__)
#define JITVS_HAVE_COMPUTED_GOTO 1
#else
#define JITVS_HAVE_COMPUTED_GOTO 0
#endif

bool Executor::hasComputedGoto() { return JITVS_HAVE_COMPUTED_GOTO != 0; }

DispatchMode Executor::defaultDispatchMode() {
  static const DispatchMode Resolved = [] {
    if (const char *E = std::getenv("JITVS_DISPATCH")) {
      if (std::strcmp(E, "switch") == 0)
        return DispatchMode::Switch;
      if (std::strcmp(E, "goto") == 0 && hasComputedGoto())
        return DispatchMode::Goto;
      if (std::strcmp(E, "count") == 0)
        return DispatchMode::Count;
    }
    return hasComputedGoto() ? DispatchMode::Goto : DispatchMode::Switch;
  }();
  return Resolved;
}

namespace {

/// Shared comparison kernel for CmpI/CmpD/CmpS and the fused BrCmp forms.
template <typename T> bool orderedCompare(Op O, const T &L, const T &R) {
  switch (O) {
  case Op::Lt:
    return L < R;
  case Op::Le:
    return L <= R;
  case Op::Gt:
    return L > R;
  case Op::Ge:
    return L >= R;
  case Op::Eq:
  case Op::StrictEq:
    return L == R;
  case Op::Ne:
  case Op::StrictNe:
    return L != R;
  default:
    JITVS_UNREACHABLE("bad comparison op");
  }
}

/// Default reason classification from the failing guard's opcode. Sites
/// that can distinguish further (e.g. -0 vs overflow) pass an explicit
/// reason instead. Fused handlers bail under the original opcode, so the
/// fused forms never reach this.
BailoutReason bailoutReasonForOp(NOp Op) {
  switch (Op) {
  case NOp::AddI:
  case NOp::SubI:
  case NOp::MulI:
  case NOp::ModI:
  case NOp::NegI:
    return BailoutReason::IntOverflow;
  case NOp::GuardTag:
    return BailoutReason::TypeGuard;
  case NOp::GuardNumber:
    return BailoutReason::NumberGuard;
  case NOp::BoundsCheck:
    return BailoutReason::BoundsCheck;
  case NOp::GuardArrLen:
    return BailoutReason::ArrayLengthGuard;
  case NOp::GuardShape:
    return BailoutReason::ShapeGuard;
  default:
    return BailoutReason::Unknown;
  }
}

/// GC root source covering a native activation.
///
/// Register visitation has two precision levels. At runtime-call sites
/// (CallV/CallM/CallT/NewCall and the slow-path helpers) the handler
/// publishes the call's stack map in CurMap, and tracing visits exactly
/// the registers the register allocator proved live across the call —
/// the rest are *poisoned* to undefined. At back-edge safepoint polls no
/// map is in effect (CurMap == nullptr) and every register is visited
/// conservatively; poisoning at the precise sites is what keeps that
/// sound — a dead register can never carry a stale pointer into a later
/// conservative visit after the referent was swept. It also converts a
/// wrong stack map into a deterministic observable divergence under GC
/// stress instead of silent heap corruption.
///
/// The frame owns no storage: it borrows the executor's buffer set for
/// its native depth and gives it back (by leaving the depth) on every
/// exit, ok, bailout or error alike. Entry clears what an earlier
/// activation left in the set. Regs is refilled with undefined rather
/// than resized, because a back-edge poll visits every register
/// conservatively: a stale pointer from an earlier activation may
/// already have been swept.
struct NativeFrame final : public RootSource {
  NativeFrame(Runtime &RT, FrameBuffers &B, size_t &Depth, size_t FrameSize)
      : RT(RT), Regs(B.Regs), ArgStage(B.ArgStage), Args(B.Args),
        OsrSlots(B.OsrSlots), Depth(Depth) {
    Regs.assign(FrameSize, Value::undefined());
    ArgStage.clear();
    ++Depth;
    RT.heap().addRootSource(this);
  }
  ~NativeFrame() override {
    RT.heap().removeRootSource(this);
    --Depth;
  }

  void traceRoots(GCVisitor &Visitor) override {
    if (CurMap) {
      // CurMap->Live is sorted ascending; walk it and poison the gaps.
      size_t Next = 0;
      for (uint16_t Reg : CurMap->Live) {
        for (; Next < Reg && Next < Regs.size(); ++Next)
          if (Regs[Next].isGCThing())
            Regs[Next] = Value::undefined();
        if (Reg < Regs.size())
          Visitor.visit(Regs[Reg]);
        Next = static_cast<size_t>(Reg) + 1;
      }
      for (; Next < Regs.size(); ++Next)
        if (Regs[Next].isGCThing())
          Regs[Next] = Value::undefined();
    } else {
      for (Value &V : Regs)
        Visitor.visit(V);
    }
    for (Value &V : ArgStage)
      Visitor.visit(V);
    for (Value &V : Args)
      Visitor.visit(V);
    for (Value &V : OsrSlots)
      Visitor.visit(V);
    Visitor.visit(ThisV);
    Visitor.visitPtr(Env);
    Visitor.visitPtr(ClosureEnv);
  }

  /// The environment visible to GetEnv/SetEnv/MakeClos. Computed on
  /// demand (not cached in a local) because a moving collection updates
  /// Env/ClosureEnv in place.
  Environment *curEnv() const { return Env ? Env : ClosureEnv; }

  Runtime &RT;
  std::vector<Value> &Regs;
  std::vector<Value> &ArgStage;
  std::vector<Value> &Args;
  std::vector<Value> &OsrSlots;
  size_t &Depth;
  Value ThisV;
  Environment *Env = nullptr;
  Environment *ClosureEnv = nullptr;
  const StackMap *CurMap = nullptr; ///< Live-register map while a
                                    ///< runtime call is in flight.
};

double mathApply(MathIntrinsic F, double A, double B) {
  switch (F) {
  case MathIntrinsic::Sin:
    return std::sin(A);
  case MathIntrinsic::Cos:
    return std::cos(A);
  case MathIntrinsic::Tan:
    return std::tan(A);
  case MathIntrinsic::Atan:
    return std::atan(A);
  case MathIntrinsic::Sqrt:
    return std::sqrt(A);
  case MathIntrinsic::Abs:
    return std::fabs(A);
  case MathIntrinsic::Floor:
    return std::floor(A);
  case MathIntrinsic::Ceil:
    return std::ceil(A);
  case MathIntrinsic::Round:
    return Runtime::jsMathRound(A);
  case MathIntrinsic::Log:
    return std::log(A);
  case MathIntrinsic::Exp:
    return std::exp(A);
  case MathIntrinsic::Pow:
    return std::pow(A, B);
  case MathIntrinsic::Atan2:
    return std::atan2(A, B);
  }
  JITVS_UNREACHABLE("bad MathIntrinsic");
}

} // namespace

ExecResult Executor::run(const NativeCode &Code, const Value &ThisV,
                         const Value *Args, size_t NumArgs, bool AtOsr,
                         const Value *OsrSlots, size_t NumOsrSlots,
                         Environment *Env, Environment *ClosureEnv) {
  // Lifetime: \p Code is borrowed for the whole run. The engine's
  // execute() pins it with a strong shared_ptr, so a background
  // recompile that unlinks this body at a reentrant dispatch boundary
  // (a Call handler below re-enters Engine::onCall, which may publish a
  // replacement and retire this one) cannot reclaim it under us — the
  // deferred-reclamation list only frees code whose use count has
  // dropped to the list's own reference.
  MetricsPhaseTimer NativePhase(Phase::NativeExec);
  if (Depth == Buffers.size())
    Buffers.emplace_back();
  NativeFrame F(RT, Buffers[Depth], Depth, Code.FrameSize);
  F.ThisV = ThisV;
  F.ClosureEnv = ClosureEnv;
  F.Env = Env;
  F.Args.assign(Args, Args + NumArgs);
  F.OsrSlots.assign(OsrSlots, OsrSlots + NumOsrSlots);

  FunctionInfo *Info = Code.Info;
  if (!AtOsr && Info->NumEnvSlots > 0) {
    F.Env = RT.heap().allocate<Environment>(ClosureEnv, Info->NumEnvSlots);
    for (auto [ParamSlot, EnvSlot] : Info->CapturedParams)
      F.Env->setSlot(EnvSlot,
                     ParamSlot < F.Args.size() ? F.Args[ParamSlot]
                                               : Value::undefined());
  }
  // Regs was sized at frame entry and ConstPool/Code never change, so
  // the raw pointers hold for the whole activation (see the file header).
  Value *const R = F.Regs.data();
  const Value *const Pool = Code.ConstPool.data();
  const NInstr *const Insns = Code.Code.data();
  uint32_t PC = AtOsr ? Code.OsrOffset : Code.EntryOffset;
  assert(PC != ~0u && "entering code without the requested entry point");

  // Captures neither PC nor R: the failing instruction \p N names the
  // bail site, so PC never escapes to memory.
  auto Bail = [&F, Insns](const NInstr *N, uint32_t Snap, NOp Op,
                          BailoutReason Reason = BailoutReason::Unknown) {
    ExecResult Res;
    Res.K = ExecResult::Bailout;
    Res.SnapshotId = Snap;
    Res.BailOp = Op;
    Res.BailReason =
        Reason != BailoutReason::Unknown ? Reason : bailoutReasonForOp(Op);
    Res.BailPc = static_cast<uint32_t>(N - Insns);
    Res.RegsAtBail = F.Regs;
    Res.EnvAtBail = F.Env;
    return Res;
  };
  auto Fail = [] {
    ExecResult Res;
    Res.K = ExecResult::Error;
    return Res;
  };

#if JITVS_HAVE_COMPUTED_GOTO
  if (Mode == DispatchMode::Goto) {
    // Threaded dispatch: a per-function static table of handler label
    // addresses, indexed by opcode; each handler ends in its own
    // indirect jump. Table order is generated from JITVS_FOREACH_NOP,
    // so it matches the NOp enum by construction.
#define JITVS_DISPATCH_ENTRY(Name, Str) &&Lbl_##Name,
#define JITVS_LOOP_BEGIN                                                       \
  static const void *const Table[] = {                                         \
      JITVS_FOREACH_NOP(JITVS_DISPATCH_ENTRY)};                                \
  static_assert(sizeof(Table) / sizeof(Table[0]) == NumNOps);                  \
  const NInstr *N;                                                             \
  JITVS_NEXT();
#define JITVS_OP(Name) Lbl_##Name:
#define JITVS_NEXT()                                                           \
  do {                                                                         \
    assert(PC < Code.Code.size() && "native pc out of range");                 \
    N = &Insns[PC];                                                            \
    ++PC;                                                                      \
    goto *Table[static_cast<size_t>(N->Op)];                                   \
  } while (false)
#define JITVS_LOOP_END

#include "native/DispatchLoop.inc"

#undef JITVS_DISPATCH_ENTRY
#undef JITVS_LOOP_BEGIN
#undef JITVS_OP
#undef JITVS_NEXT
#undef JITVS_LOOP_END
  }
#endif // JITVS_HAVE_COMPUTED_GOTO

  // Portable switch dispatch: the fallback (and the default on compilers
  // without `&&label`). The switch covers every opcode, so -Wswitch
  // keeps the handler set in sync with the op list. Count mode is a
  // second instantiation of the same loop whose fetch also bumps the
  // opcode's counter; the counter array is reached through a local
  // pointer, never through a lambda capture, so PC stays in a register.
#define JITVS_LOOP_BEGIN                                                       \
  while (true) {                                                               \
    assert(PC < Code.Code.size() && "native pc out of range");                 \
    const NInstr *N = &Insns[PC];                                              \
    ++PC;                                                                      \
    JITVS_COUNT_DISPATCH(N);                                                   \
    switch (N->Op) {
#define JITVS_OP(Name) case NOp::Name:
#define JITVS_NEXT() break
#define JITVS_LOOP_END                                                         \
    }                                                                          \
  }

  if (Mode == DispatchMode::Count) {
    uint64_t *const Counts = DispatchCounts.data();
#define JITVS_COUNT_DISPATCH(N) ++Counts[static_cast<size_t>((N)->Op)]
#include "native/DispatchLoop.inc"
#undef JITVS_COUNT_DISPATCH
  }

  {
#define JITVS_COUNT_DISPATCH(N) (void)(N)
#include "native/DispatchLoop.inc"
#undef JITVS_COUNT_DISPATCH
  }

#undef JITVS_LOOP_BEGIN
#undef JITVS_OP
#undef JITVS_NEXT
#undef JITVS_LOOP_END
}
