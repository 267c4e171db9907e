//===- native/NativeCode.h - The "native" register machine -----*- C++ -*-===//
///
/// \file
/// The compiled-code format our backend targets: a dense register-machine
/// instruction stream executed by a threaded dispatch loop. It stands in
/// for IonMonkey's x86 output (see DESIGN.md for why this substitution
/// preserves what the paper measures): instruction count is the code-size
/// metric of Figure 10, and fewer instructions/guards directly shorten
/// execution.
///
/// Instructions address 16 physical registers. The allocator (see
/// lir/Codegen.cpp) gives each value one location for its whole life: one
/// of registers 0..12, which values with disjoint live ranges share, or a
/// spill slot reachable only through LoadSpill/StoreSpill, staged through
/// the scratch registers 13..15. Constants never get a slot: one without
/// a register is reloaded with LoadConst before each use. Bailout
/// snapshots map interpreter frame slots to registers/spill
/// slots/constants so a guard failure can reconstruct the interpreter
/// frame mid-function.
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_NATIVE_NATIVECODE_H
#define JITVS_NATIVE_NATIVECODE_H

#include "vm/Value.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace jitvs {

struct FunctionInfo;
class Shape;

/// Number of addressable physical registers (instruction operands).
constexpr unsigned NumPhysRegs = 16;

/// X-macro over every native opcode: M(EnumName, "display-name"). The
/// NOp enum, nopName() and the executor's computed-goto dispatch table
/// are all generated from this list, so the three can never drift out of
/// enum order. Field conventions are documented per op below.
///
/// The trailing block lists the fused macro-ops produced by the
/// post-regalloc peephole pass (native/Fusion.cpp). A fused pair keeps
/// both code slots: slot 1 holds the fused opcode with the first
/// instruction's fields, slot 2 becomes FuseData and keeps the second
/// instruction's fields. Handlers read both slots and advance past the
/// pair in one dispatch, so jump targets, snapshot metadata and the
/// Figure-10 code-size metric are all preserved exactly.
#define JITVS_FOREACH_NOP(M)                                                   \
  M(Nop, "nop")                                                                \
  /* Moves and materialization. */                                             \
  M(Mov, "mov")               /* A=dst, B=src. */                              \
  M(LoadConst, "loadconst")   /* A=dst, Imm=constant pool index. */            \
  M(LoadSpill, "loadspill")   /* A=dst, Imm=spill slot. */                     \
  M(StoreSpill, "storespill") /* A=src, Imm=spill slot. */                     \
  M(LoadParam, "loadparam")   /* A=dst, Imm=param index (undef if absent). */  \
  M(LoadThis, "loadthis")     /* A=dst. */                                     \
  M(LoadOsr, "loadosr")       /* A=dst, Imm=frame slot of the OSR frame. */    \
  /* Int32 arithmetic; Imm = snapshot id (bails on overflow / corners). */     \
  M(AddI, "addi")                                                              \
  M(SubI, "subi")                                                              \
  M(MulI, "muli")                                                              \
  M(ModI, "modi")                                                              \
  M(NegI, "negi") /* A=dst, B=src, Imm=snapshot. */                            \
  /* Unchecked int32 arithmetic: overflow-check elimination proved the */      \
  /* result range fits (paper conclusion / Sol et al.). */                     \
  M(AddINoOvf, "addi.nc")                                                      \
  M(SubINoOvf, "subi.nc")                                                      \
  M(MulINoOvf, "muli.nc")                                                      \
  /* Double arithmetic (pure). A=dst, B=lhs, C=rhs. */                         \
  M(AddD, "addd")                                                              \
  M(SubD, "subd")                                                              \
  M(MulD, "muld")                                                              \
  M(DivD, "divd")                                                              \
  M(ModD, "modd")                                                              \
  M(NegD, "negd") /* A=dst, B=src. */                                          \
  /* Bitwise; operands int32, result int32 (UShr: double). */                  \
  M(BitAnd, "bitand")                                                          \
  M(BitOr, "bitor")                                                            \
  M(BitXor, "bitxor")                                                          \
  M(Shl, "shl")                                                                \
  M(Shr, "shr")                                                                \
  M(UShr, "ushr")                                                              \
  M(BitNot, "bitnot")           /* A=dst, B=src. */                            \
  M(TruncToInt32, "trunctoint32") /* A=dst, B=src (ECMAScript ToInt32). */     \
  M(ToDouble, "todouble")       /* A=dst, B=src (int32 or double). */          \
  /* Comparisons; A=dst(bool), B=lhs, C=rhs, Imm=comparison bytecode Op. */    \
  M(CmpI, "cmpi")                                                              \
  M(CmpD, "cmpd")                                                              \
  M(CmpS, "cmps")                                                              \
  M(CmpGeneric, "cmpgeneric")                                                  \
  M(Not, "not")       /* A=dst, B=src (boolean negation of ToBoolean). */      \
  M(Concat, "concat") /* A=dst, B=lhs, C=rhs (strings). */                     \
  M(TypeOfV, "typeof") /* A=dst, B=src. */                                     \
  /* Guards; Imm = snapshot id. */                                             \
  M(GuardTag, "guardtag")       /* A=src, B=expected ValueTag. */              \
  M(GuardNumber, "guardnumber") /* A=dst, B=src; result double. */             \
  M(BoundsCheck, "boundscheck") /* A=index(int32), B=length(int32). */         \
  M(GuardArrLen, "guardarrlen") /* A=array, C=pool index of exp. length. */    \
  M(CheckDepth, "checkdepth")   /* Recursion guard; error, no bail. */         \
  /* Arrays / strings (in-bounds guaranteed by earlier guards). */             \
  M(ArrayLen, "arraylen")         /* A=dst, B=array. */                        \
  M(StrLen, "strlen")             /* A=dst, B=string. */                       \
  M(LoadElem, "loadelem")         /* A=dst, B=array, C=index. */               \
  M(StoreElem, "storeelem")       /* A=array, B=index, C=value, Imm=GC */      \
                                  /* write-barrier flag. */                    \
  M(CharCodeAt, "charcodeat")     /* A=dst, B=string, C=index. */              \
  M(FromCharCode, "fromcharcode") /* A=dst, B=code(int32). */                  \
  /* Generic helper calls. Imm carries the bytecode op / name id. */           \
  M(GenBin, "genbin")         /* A=dst, B=lhs, C=rhs, Imm=bytecode Op. */      \
  M(GenUn, "genun")           /* A=dst, B=src, Imm=bytecode Op. */             \
  M(GenGetElem, "gengetelem") /* A=dst, B=obj, C=index. */                     \
  M(GenSetElem, "gensetelem") /* A=obj, B=index, C=value. */                   \
  M(GenGetProp, "gengetprop") /* A=dst, B=obj, Imm=name id. */                 \
  M(GenSetProp, "gensetprop") /* A=obj, B=value, Imm=name id. */               \
  /* Shape-guarded property fast paths (vm/Shape.h). GuardShape scans a */     \
  /* nullptr-terminated run of ShapePool starting at C; AddSlot's C names */   \
  /* the single pool entry holding the transition-target shape. */             \
  M(GuardShape, "guardshape") /* A=dst, B=obj, C=pool run, Imm=snapshot. */    \
  M(LoadSlot, "loadslot")     /* A=dst, B=obj, Imm=slot index. */              \
  M(StoreSlot, "storeslot")   /* A=obj, B=value, C=barrier flag, Imm=slot. */  \
  M(AddSlot, "addslot")       /* A=obj, B=value, C=pool idx, Imm=slot */       \
                              /* (no free field: always barriers). */          \
  M(GetGlobal, "getglobal")   /* A=dst, Imm=global slot. */                    \
  M(SetGlobal, "setglobal")   /* A=src, Imm=global slot. */                    \
  M(GetEnv, "getenv")         /* A=dst, B=depth, Imm=env slot. */              \
  M(SetEnv, "setenv")         /* A=src, B=depth, C=barrier flag, Imm=slot. */  \
  /* Allocation. */                                                            \
  M(NewArrElems, "newarrelems") /* A=dst, Imm=count (staged args). */          \
  M(NewArrLen, "newarrlen")     /* A=dst, B=length(int32). */                  \
  M(NewObj, "newobj")           /* A=dst. */                                   \
  M(InitProp, "initprop") /* A=obj, B=value, C=barrier flag, Imm=name id. */   \
  M(MakeClos, "makeclos")       /* A=dst, Imm=function index. */               \
  /* Calls (arguments staged with PushArg). */                                 \
  M(PushArg, "pusharg") /* A=src. */                                           \
  M(CallV, "callv")     /* A=dst, B=callee, Imm=argc. */                       \
  M(CallM, "callm")     /* A=dst, B=receiver, C=argc, Imm=name id. */          \
  M(CallT, "callt")     /* A=dst, B=callee, C=argc, Imm=name id (for the */    \
                        /* not-a-function error); args then `this` staged. */  \
  M(NewCall, "newcall") /* A=dst, B=callee, Imm=argc. */                       \
  M(MathFn, "mathfn") /* A=dst, B=arg0, C=arg1 or 0xFFFF, Imm=intrinsic. */    \
  /* Control flow. Imm = code offset. */                                       \
  M(Jmp, "jmp")                                                                \
  M(JTrue, "jtrue")   /* A=cond. */                                            \
  M(JFalse, "jfalse") /* A=cond. */                                            \
  M(Ret, "ret")       /* A=value. */                                           \
  /* --- Fused macro-ops (native/Fusion.cpp; see the header comment). --- */   \
  /* Compare+branch. Slot1: CmpI/CmpD fields. Slot2: FuseData with the */      \
  /* branch fields (A=cond, Imm=target) plus B=1 for JTrue, 0 for JFalse. */   \
  M(BrCmpII, "brcmpii")                                                        \
  M(BrCmpDD, "brcmpdd")                                                        \
  /* Constant+arithmetic. Slot1: LoadConst fields (A=const dst, Imm=pool */    \
  /* index). Slot2: FuseData with the arithmetic fields (A=dst, B=lhs, */      \
  /* C=const reg, Imm=snapshot for the checked forms). */                      \
  M(AddIImm, "addii")                                                          \
  M(SubIImm, "subii")                                                          \
  M(MulIImm, "mulii")                                                          \
  M(AddINoOvfImm, "addii.nc")                                                  \
  M(SubINoOvfImm, "subii.nc")                                                  \
  M(MulINoOvfImm, "mulii.nc")                                                  \
  M(AddDImm, "adddi")                                                          \
  M(SubDImm, "subdi")                                                          \
  M(MulDImm, "muldi")                                                          \
  M(DivDImm, "divdi")                                                          \
  /* Checked unbox: GuardTag+Mov. Slot1: GuardTag fields (A=src, B=tag, */     \
  /* Imm=snapshot). Slot2: FuseData with the Mov fields (A=dst, B=src). */     \
  M(GuardTagMov, "guardtag.mov")                                               \
  /* The preserved second slot of a fused pair: holds operand fields for */    \
  /* the fused handler, never dispatched (executes as a nop if it is). */      \
  M(FuseData, "fusedata")

enum class NOp : uint8_t {
#define JITVS_NOP_ENUM(Name, Str) Name,
  JITVS_FOREACH_NOP(JITVS_NOP_ENUM)
#undef JITVS_NOP_ENUM
};

/// Number of native opcodes (dispatch-table size).
#define JITVS_NOP_COUNT_ONE(Name, Str) +1
constexpr size_t NumNOps = 0 JITVS_FOREACH_NOP(JITVS_NOP_COUNT_ONE);
#undef JITVS_NOP_COUNT_ONE

const char *nopName(NOp O);

/// One native instruction (fixed width).
struct NInstr {
  NOp Op = NOp::Nop;
  uint16_t A = 0, B = 0, C = 0;
  int32_t Imm = 0;
};

/// Where a snapshot entry's value lives.
struct SnapshotEntry {
  bool IsConst = false;
  uint32_t Index = 0; ///< Register/spill index, or constant pool index.
};

/// Interpreter-state description for one bailout point.
struct Snapshot {
  uint32_t PC = 0; ///< Bytecode offset to re-execute from.
  std::vector<SnapshotEntry> Entries; ///< Frame slots then operand stack.
  uint32_t NumFrameSlots = 0;
};

/// Precise GC liveness for one runtime-call site: the frame locations
/// (physical registers and NumPhysRegs+spill slots) whose values are
/// live across the call, per the register allocator's live ranges (a
/// value in a lifetime hole at the call is not live there) —
/// including values kept alive only by bailout resume points, whose uses
/// the allocator already folds into the same intervals. The executor
/// publishes the current call's map while the call is in flight; tracing
/// visits exactly these locations and poisons the rest.
struct StackMap {
  uint32_t PC = 0;            ///< Instruction index of the call.
  std::vector<uint16_t> Live; ///< Live frame locations, sorted ascending.
};

/// A compiled function binary.
class NativeCode {
public:
  explicit NativeCode(FunctionInfo *Info) : Info(Info) {}

  FunctionInfo *Info;
  std::vector<NInstr> Code;
  std::vector<Value> ConstPool; ///< GC-rooted by the engine.
  /// Shapes referenced by GuardShape (nullptr-terminated runs) and
  /// AddSlot (single entries). Not GC-rooted: shapes live as long as the
  /// Runtime's ShapeTree, which outlives any compiled code.
  std::vector<const Shape *> ShapePool;
  std::vector<Snapshot> Snapshots;
  /// Per-call-site GC liveness, sorted by PC (codegen emits call sites
  /// in instruction order).
  std::vector<StackMap> StackMaps;

  uint32_t EntryOffset = 0;
  uint32_t OsrOffset = ~0u; ///< ~0 = no OSR entry.
  uint32_t OsrPc = ~0u;     ///< Bytecode LoopHead this OSR entry serves.
  /// Total frame size: NumPhysRegs + spill slots.
  uint32_t FrameSize = NumPhysRegs;

  /// Number of adjacent pairs combined by the macro-op fusion pass.
  /// Fusion keeps both slots of a pair (slot 2 becomes FuseData), so
  /// Code.size() — and with it the Figure 10 metric — is unchanged.
  uint32_t FusedPairs = 0;

  /// Code size in instructions — the Figure 10 metric. Reported from the
  /// pre-fusion stream; fusion preserves it by construction (see
  /// FusedPairs), so this is valid whether or not fusion ran.
  size_t sizeInInstructions() const { return Code.size(); }

  /// Dispatched instruction count after fusion: each fused pair executes
  /// as one macro-op, so the dynamic stream is FusedPairs shorter.
  size_t sizeInInstructionsPostFusion() const {
    return Code.size() - FusedPairs;
  }

  /// Number of instructions that can bail to the interpreter (tag/number
  /// guards, bounds/length checks, overflow-checked int32 arithmetic) —
  /// the tier-policy bench's second axis: the type tier should sit
  /// between value-specialized and generic code on this metric too.
  size_t guardCount() const;

  uint16_t addConstant(const Value &V) {
    ConstPool.push_back(V);
    return static_cast<uint16_t>(ConstPool.size() - 1);
  }

  uint16_t addShape(const Shape *S) {
    ShapePool.push_back(S);
    return static_cast<uint16_t>(ShapePool.size() - 1);
  }

  /// \returns the stack map for the call instruction at \p PC, or
  /// nullptr when none was recorded (the frame then traces every
  /// register conservatively, which is always sound — maps only tighten
  /// liveness).
  const StackMap *mapForPC(uint32_t PC) const {
    size_t Lo = 0, Hi = StackMaps.size();
    while (Lo < Hi) {
      size_t Mid = Lo + (Hi - Lo) / 2;
      if (StackMaps[Mid].PC < PC)
        Lo = Mid + 1;
      else
        Hi = Mid;
    }
    return Lo < StackMaps.size() && StackMaps[Lo].PC == PC ? &StackMaps[Lo]
                                                           : nullptr;
  }

  std::string disassemble() const;
};

/// Deferred reclamation of unlinked binaries. When the engine replaces a
/// function's code, in-flight native frames may still be executing the
/// old body (each execution pins its binary with a shared_ptr), and its
/// constant pool must stay GC-rooted until those frames drain through
/// their bailout/resume points. Retired code therefore parks here; the
/// engine ticks the epoch at dispatch boundaries (interpreter call /
/// loop-head hooks — natural safepoints where no native frame of a
/// *newly* retired body can be mid-flight without holding its pin), and
/// an entry is freed only once it is at least two epochs old *and* the
/// reclaimer holds the last reference. Single-threaded: main thread only.
class CodeReclaimer {
public:
  void retire(std::shared_ptr<NativeCode> Code) {
    if (Code)
      Retired.push_back({std::move(Code), Epoch});
  }

  /// Advances the epoch and frees every eligible entry.
  void tick() {
    ++Epoch;
    for (size_t I = 0; I != Retired.size();) {
      if (Epoch >= Retired[I].RetiredAtEpoch + 2 &&
          Retired[I].Code.use_count() == 1) {
        Retired[I] = std::move(Retired.back());
        Retired.pop_back();
      } else {
        ++I;
      }
    }
  }

  size_t pending() const { return Retired.size(); }
  uint64_t epoch() const { return Epoch; }

  /// Visits every binary still parked (GC rooting of constant pools).
  template <typename Fn> void forEachRetained(Fn F) const {
    for (const Entry &E : Retired)
      F(*E.Code);
  }

private:
  struct Entry {
    std::shared_ptr<NativeCode> Code;
    uint64_t RetiredAtEpoch = 0;
  };
  std::vector<Entry> Retired;
  uint64_t Epoch = 0;
};

} // namespace jitvs

#endif // JITVS_NATIVE_NATIVECODE_H
