//===- lir/Codegen.cpp - Lowering, regalloc, emission ----------------------===//
//
// MIR is lowered in reverse postorder to virtual-register LIR, then
// allocated by linear scan on live ranges with lifetime holes (Wimmer &
// Franz, "Linear Scan Register Allocation on SSA Form", CGO 2010), but
// without interval splitting:
//
//  - Liveness: per-block bit vectors over vregs solved to a fixed point,
//    then per-vreg ranges as sorted segments with holes.
//  - Coalescing: a Mov whose two ends have disjoint ranges merges them
//    into one group; a move whose ends share a location emits nothing.
//    Phi moves and cycle temporaries go this way; tag checks and generic
//    stores never copy in the first place (their result is their
//    operand, see resolve).
//  - Allocation: whole groups, in order of start, with active and
//    inactive sets, so a register is free inside another group's hole.
//    When none is free, the group(s) with the lowest loop-weighted use
//    density are evicted to a spill slot. Each group keeps one location
//    for its whole life, which keeps snapshots, stack maps, RegsAtBail
//    and FrameSize meaning what they always meant.
//  - Constants: one vreg per block, or per loop with its LoadConst
//    before the loop. Constants are allocated last, into registers
//    nobody else needs there; one that gets none is never spilled, but
//    reloaded from the pool right before each use.
//
// A def may take the register of a value that dies at the same
// instruction, so every handler reads its operands before it writes A
// and bails before any write (native/DispatchLoop.inc).
//
//===----------------------------------------------------------------------===//

#include "lir/Codegen.h"

#include "mir/MIRGraph.h"
#include "support/Assert.h"
#include "vm/Bytecode.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <utility>

using namespace jitvs;

namespace {

/// Virtual-register form of a native instruction.
struct LIns {
  NOp Op = NOp::Nop;
  uint32_t A = 0, B = 0, C = 0;
  int32_t Imm = 0;
};

constexpr uint32_t NoReg = ~0u;

/// Whether a value of MIR type \p T can be a GC-managed pointer. Stores
/// whose value operand is provably primitive skip the generational
/// write barrier (the flag rides in the op's spare immediate field).
bool mirTypeMayBeGC(MIRType T) {
  switch (T) {
  case MIRType::Int32:
  case MIRType::Double:
  case MIRType::Boolean:
  case MIRType::Undefined:
  case MIRType::Null:
  case MIRType::None:
    return false;
  case MIRType::Any:
  case MIRType::String:
  case MIRType::Object:
  case MIRType::Array:
  case MIRType::Function:
    return true;
  }
  return true;
}

/// Which fields of an op are register defs/uses (others are immediates).
struct OpInfo {
  bool ADef = false, AUse = false, BUse = false, CUse = false;
  bool HasSnapshot = false;
};

OpInfo opInfo(NOp O) {
  OpInfo I;
  switch (O) {
  case NOp::Nop:
  case NOp::CheckDepth:
  case NOp::Jmp:
    break;
  case NOp::Mov:
  case NOp::TruncToInt32:
  case NOp::ToDouble:
  case NOp::Not:
  case NOp::TypeOfV:
  case NOp::ArrayLen:
  case NOp::StrLen:
  case NOp::FromCharCode:
  case NOp::GenUn:
  case NOp::GenGetProp:
  case NOp::NewArrLen:
  case NOp::CallV:
  case NOp::CallM:
  case NOp::CallT:
  case NOp::LoadSlot:
  case NOp::NewCall:
  case NOp::NegD:
  case NOp::BitNot:
    I.ADef = I.BUse = true;
    break;
  case NOp::LoadConst:
  case NOp::LoadSpill:
  case NOp::LoadParam:
  case NOp::LoadThis:
  case NOp::LoadOsr:
  case NOp::GetGlobal:
  case NOp::GetEnv:
  case NOp::NewArrElems:
  case NOp::NewObj:
  case NOp::MakeClos:
    I.ADef = true;
    break;
  case NOp::StoreSpill:
  case NOp::SetGlobal:
  case NOp::SetEnv:
  case NOp::PushArg:
  case NOp::JTrue:
  case NOp::JFalse:
  case NOp::Ret:
    I.AUse = true;
    break;
  case NOp::AddI:
  case NOp::SubI:
  case NOp::MulI:
  case NOp::ModI:
    I.ADef = I.BUse = I.CUse = true;
    I.HasSnapshot = true;
    break;
  case NOp::NegI:
    I.ADef = I.BUse = true;
    I.HasSnapshot = true;
    break;
  case NOp::AddINoOvf:
  case NOp::SubINoOvf:
  case NOp::MulINoOvf:
  case NOp::AddD:
  case NOp::SubD:
  case NOp::MulD:
  case NOp::DivD:
  case NOp::ModD:
  case NOp::BitAnd:
  case NOp::BitOr:
  case NOp::BitXor:
  case NOp::Shl:
  case NOp::Shr:
  case NOp::UShr:
  case NOp::CmpI:
  case NOp::CmpD:
  case NOp::CmpS:
  case NOp::CmpGeneric:
  case NOp::Concat:
  case NOp::LoadElem:
  case NOp::CharCodeAt:
  case NOp::GenBin:
  case NOp::GenGetElem:
    I.ADef = I.BUse = I.CUse = true;
    break;
  case NOp::MathFn:
    I.ADef = I.BUse = true;
    // CUse handled specially (0xFFFF sentinel for unary intrinsics).
    break;
  case NOp::GuardTag:
    I.AUse = true;
    I.HasSnapshot = true;
    break;
  case NOp::GuardNumber:
  case NOp::GuardShape:
    I.ADef = I.BUse = true;
    I.HasSnapshot = true;
    break;
  case NOp::BoundsCheck:
    I.AUse = I.BUse = true;
    I.HasSnapshot = true;
    break;
  case NOp::GuardArrLen:
    I.AUse = true;
    I.HasSnapshot = true;
    break;
  case NOp::StoreElem:
  case NOp::GenSetElem:
    I.AUse = I.BUse = I.CUse = true;
    break;
  case NOp::InitProp:
  case NOp::GenSetProp:
  case NOp::StoreSlot:
  case NOp::AddSlot:
    I.AUse = I.BUse = true;
    break;
  case NOp::BrCmpII:
  case NOp::BrCmpDD:
  case NOp::AddIImm:
  case NOp::SubIImm:
  case NOp::MulIImm:
  case NOp::AddINoOvfImm:
  case NOp::SubINoOvfImm:
  case NOp::MulINoOvfImm:
  case NOp::AddDImm:
  case NOp::SubDImm:
  case NOp::MulDImm:
  case NOp::DivDImm:
  case NOp::GuardTagMov:
  case NOp::FuseData:
    JITVS_UNREACHABLE("fused macro-ops are created post-regalloc, not in LIR");
  }
  return I;
}

bool mathFnHasSecondArg(const LIns &L) {
  return L.Op == NOp::MathFn && L.C != 0xFFFF;
}

/// Splits edges P->S where P has several successors and S has phis, so
/// phi moves can be placed in a dedicated block.
void splitCriticalEdges(MIRGraph &Graph) {
  std::vector<MBasicBlock *> Blocks = Graph.liveBlocks();
  for (MBasicBlock *P : Blocks) {
    MInstr *T = P->terminator();
    if (!T || T->numSuccessors() < 2)
      continue;
    for (size_t S = 0, E = T->numSuccessors(); S != E; ++S) {
      MBasicBlock *Succ = T->successor(S);
      if (Succ->phis().empty() && Succ->numPredecessors() < 2)
        continue;
      if (Succ->phis().empty())
        continue;
      MBasicBlock *Mid = Graph.createBlock();
      MInstr *J = Graph.create(MirOp::Goto, MIRType::None);
      J->setSuccessor(0, Succ);
      Mid->append(J);
      T->setSuccessor(S, Mid);
      Mid->addPredecessor(P);
      Succ->replacePredecessor(P, Mid);
    }
  }
}

bool isCallOp(NOp O) {
  return O == NOp::CallV || O == NOp::CallM || O == NOp::CallT ||
         O == NOp::NewCall;
}

/// Calls \p Fn(vreg, IsOperand) for every vreg \p L reads: its register
/// operands (IsOperand), then its snapshot's register entries, which
/// only a bailout reads and which cost nothing when spilled.
template <typename FnT>
void forEachUse(const LIns &L, const std::vector<Snapshot> &Snapshots,
                FnT Fn) {
  OpInfo OI = opInfo(L.Op);
  if (OI.AUse)
    Fn(L.A, true);
  if (OI.BUse)
    Fn(L.B, true);
  if (OI.CUse || mathFnHasSecondArg(L))
    Fn(L.C, true);
  if (OI.HasSnapshot)
    for (const SnapshotEntry &E :
         Snapshots[static_cast<size_t>(L.Imm)].Entries)
      if (!E.IsConst)
        Fn(E.Index, false);
}

/// A half-open span [From, To) of LIR positions. Instruction I reads its
/// operands at 2I and writes its result at 2I+1, so a value that dies at
/// I and the value I defines never overlap.
struct Seg {
  uint32_t From, To;
};

/// True when ascending, disjoint segment lists \p A and \p B share a
/// position.
bool intersects(const std::vector<Seg> &A, const std::vector<Seg> &B) {
  size_t I = 0, J = 0;
  while (I != A.size() && J != B.size()) {
    if (A[I].To <= B[J].From)
      ++I;
    else if (B[J].To <= A[I].From)
      ++J;
    else
      return true;
  }
  return false;
}

/// Merges \p B into \p A; the two lists must not intersect.
void mergeInto(std::vector<Seg> &A, const std::vector<Seg> &B) {
  std::vector<Seg> Out;
  Out.reserve(A.size() + B.size());
  std::merge(A.begin(), A.end(), B.begin(), B.end(), std::back_inserter(Out),
             [](const Seg &X, const Seg &Y) { return X.From < Y.From; });
  size_t W = 0;
  for (size_t I = 0; I != Out.size(); ++I) {
    if (W && Out[W - 1].To == Out[I].From)
      Out[W - 1].To = Out[I].To;
    else
      Out[W++] = Out[I];
  }
  Out.resize(W);
  A = std::move(Out);
}

/// Spill weight of one operand read or result write at loop depth D:
/// an access inside a loop counts ten times one outside it.
double accessWeight(unsigned D) {
  static const double Pow10[] = {1, 10, 100, 1e3, 1e4, 1e5, 1e6};
  return Pow10[std::min(D, 6u)];
}

/// Registers the allocator hands out; 13..15 stay spill scratch.
constexpr int NumAllocatable = 13;
constexpr uint32_t NoBlock = ~0u;

class CodeGenerator {
public:
  explicit CodeGenerator(MIRGraph &Graph) : Graph(Graph) {}

  std::unique_ptr<NativeCode> run(CodegenStats *Stats);

private:
  // --- Layout and loops ---
  void analyzeLoops();
  /// True when layout block \p B lies in the loop headed by layout block
  /// \p Header.
  bool inLoop(uint32_t B, uint32_t Header) const;
  /// \p B's layout position, or NoBlock for a block outside the layout.
  uint32_t layoutOf(const MBasicBlock *B) const {
    return B->id() < LayoutOf.size() ? LayoutOf[B->id()] : NoBlock;
  }

  // --- Lowering ---
  uint32_t newVReg() {
    ConstPoolOf.push_back(-1);
    return NextVReg++;
  }
  uint32_t vregOf(MInstr *Def);
  /// The instruction whose value \p I's result is: the result of a tag
  /// check (Unbox to a non-double tag, TypeBarrier) or of a generic
  /// store is its operand's value, so it gets no register of its own.
  static MInstr *resolve(MInstr *I);
  /// Operand use. A constant is materialized once per block, or once per
  /// loop (before the loop) inside a loop.
  uint32_t use(MInstr *Def);
  /// The scope constants of the current block are cached in, plus one:
  /// the block itself, or NumBlocks + its hoisting loop's header.
  uint32_t constScopeTag() const {
    uint32_t Loop = HoistScope[CurBlock];
    return 1 + (Loop != NoBlock ? static_cast<uint32_t>(Order.size()) + Loop
                                : CurBlock);
  }
  /// Materializes both operands of a binary op in fusion-friendly order:
  /// a not-yet-materialized constant is evaluated last, so its LoadConst
  /// lands immediately before the consumer, and for \p Commutative ops a
  /// constant lhs is swapped into the rhs slot — the LoadConst+arith
  /// shape the post-regalloc macro-op fusion pass pairs up.
  std::pair<uint32_t, uint32_t> useBinOperands(MInstr *I, bool Commutative);
  void emit(NOp Op, uint32_t A = 0, uint32_t B = 0, uint32_t C = 0,
            int32_t Imm = 0) {
    LIns L;
    L.Op = Op;
    L.A = A;
    L.B = B;
    L.C = C;
    L.Imm = Imm;
    Lir.push_back(L);
  }
  uint32_t snapshotFor(MResumePoint *RP);
  void lowerBlock(uint32_t Idx);
  void lowerInstr(MInstr *I);
  void lowerPhiMoves(MBasicBlock *B, MBasicBlock *Succ);
  int32_t blockMark(MBasicBlock *B) { return static_cast<int32_t>(B->id()); }
  /// Places each loop's hoisted constants at the end of the blocks that
  /// enter the loop, before their jumps.
  void placeHoistedConstants();

  // --- Liveness & allocation ---
  void computeLiveness();
  void coalesceMoves();
  void allocateRegisters();
  uint32_t find(uint32_t V) {
    while (Parent[V] != V)
      V = Parent[V] = Parent[Parent[V]];
    return V;
  }
  bool isConst(uint32_t V) const { return ConstPoolOf[V] >= 0; }

  // --- Final emission ---
  /// True for a move whose ends share a location and for the def of a
  /// constant that is rematerialized at its uses.
  bool emitsNothing(const LIns &L);
  std::unique_ptr<NativeCode> emitFinal(CodegenStats *Stats);

  MIRGraph &Graph;
  std::unique_ptr<NativeCode> Out;

  // Layout (reverse postorder), everything indexed by layout position.
  std::vector<MBasicBlock *> Order;
  std::vector<uint32_t> LayoutOf; ///< Block id -> layout position.
  std::vector<std::vector<uint32_t>> Succs;
  std::vector<uint32_t> LoopOf;     ///< Innermost loop header, or NoBlock.
  std::vector<uint32_t> LoopParent; ///< Per header: enclosing header.
  std::vector<uint8_t> Depth;       ///< Loop nesting depth.
  /// Per block: the header of the innermost hoistable loop around it.
  std::vector<uint32_t> HoistScope;
  /// Per header: the constants materialized before the loop, as
  /// (MInstr id, vreg) pairs.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> LoopConsts;

  // LIR, with per-block [BlockStart, next BlockStart) ranges; TailL is
  // where a block's jumps begin.
  std::vector<LIns> Lir;
  std::vector<uint32_t> BlockStart, TailL;
  uint32_t CurBlock = 0;

  uint32_t NextVReg = 0;
  std::vector<uint32_t> VRegOfId; ///< MInstr id -> vreg (or NoReg).
  /// Per vreg: the constant pool index it materializes, or -1. Constant
  /// vregs are never spilled: without a register, each use reloads.
  std::vector<int32_t> ConstPoolOf;
  /// Per MInstr id: the constScopeTag() whose vreg ConstVReg holds; 0 =
  /// none.
  std::vector<uint32_t> ConstScope, ConstVReg;
  std::unordered_map<MResumePoint *, uint32_t> SnapshotIds;

  // Liveness: per-vreg segments (per coalesced group after coalescing),
  // loop-weighted access counts, and the vregs live across each call.
  std::vector<std::vector<Seg>> Ranges;
  std::vector<double> Weight;
  struct CallSite {
    uint32_t Pos;
    std::vector<uint32_t> Live;
  };
  std::vector<CallSite> Calls;

  // Allocation, per group root (find(vreg)).
  std::vector<uint32_t> Parent;
  std::vector<int> RegOf;  ///< Physical register or -1.
  std::vector<int> SlotOf; ///< Spill slot or -1 (constants: never).
  uint32_t NumSlots = 0;
};

void CodeGenerator::analyzeLoops() {
  size_t NB = Order.size();
  uint32_t MaxId = 0;
  for (MBasicBlock *B : Order)
    MaxId = std::max(MaxId, B->id());
  LayoutOf.assign(MaxId + 1, NoBlock);
  for (size_t I = 0; I != NB; ++I)
    LayoutOf[Order[I]->id()] = static_cast<uint32_t>(I);
  Succs.assign(NB, {});
  for (size_t I = 0; I != NB; ++I)
    for (size_t S = 0, E = Order[I]->numSuccessors(); S != E; ++S)
      Succs[I].push_back(layoutOf(Order[I]->successor(S)));

  LoopOf.assign(NB, NoBlock);
  LoopParent.assign(NB, NoBlock);
  Depth.assign(NB, 0);
  // Per header: whether constants used in the loop are materialized
  // before it (its entry has predecessors outside the loop to host them).
  std::vector<uint8_t> Hoistable(NB, 0);
  LoopConsts.assign(NB, {});
  auto IsRoot = [this](const MBasicBlock *B) {
    return B == Graph.entry() || B == Graph.osrBlock();
  };

  // Natural loops from the retreating edges of the layout. A latch whose
  // backward walk escapes its header (it reaches an entry point or a
  // block laid out before the header) closes no natural loop; such an
  // edge is left alone, which only costs the loop weighting and hoisting.
  std::vector<uint32_t> Mark(NB, NoBlock), Body, Work;
  for (uint32_t H = 0; H != NB; ++H) {
    Body.assign(1, H);
    Mark[H] = H;
    for (MBasicBlock *P : Order[H]->predecessors()) {
      uint32_t Latch = layoutOf(P);
      if (Latch == NoBlock || Latch < H)
        continue;
      size_t BodyBefore = Body.size();
      bool Natural = true;
      if (Mark[Latch] != H) {
        Mark[Latch] = H;
        Body.push_back(Latch);
        Work.assign(1, Latch);
      }
      while (Natural && !Work.empty()) {
        uint32_t X = Work.back();
        Work.pop_back();
        if (IsRoot(Order[X])) {
          Natural = false;
          break;
        }
        for (MBasicBlock *Q : Order[X]->predecessors()) {
          uint32_t QI = layoutOf(Q);
          if (QI == NoBlock || Mark[QI] == H)
            continue;
          if (QI < H) {
            Natural = false;
            break;
          }
          Mark[QI] = H;
          Body.push_back(QI);
          Work.push_back(QI);
        }
      }
      Work.clear();
      if (!Natural) {
        for (size_t I = BodyBefore; I != Body.size(); ++I)
          Mark[Body[I]] = NoBlock;
        Body.resize(BodyBefore);
      }
    }
    if (Body.size() == 1 && Mark[H] == H) {
      // A self-loop is a loop too; anything else with no latch is not.
      bool SelfLoop = false;
      for (uint32_t S : Succs[H])
        SelfLoop |= S == H;
      if (!SelfLoop) {
        Mark[H] = NoBlock;
        continue;
      }
    }
    LoopParent[H] = LoopOf[H];
    for (uint32_t B : Body) {
      LoopOf[B] = H;
      ++Depth[B];
    }
    bool HasEntry = false;
    for (MBasicBlock *P : Order[H]->predecessors()) {
      uint32_t PI = layoutOf(P);
      HasEntry |= PI != NoBlock && Mark[PI] != H;
    }
    Hoistable[H] = HasEntry && !IsRoot(Order[H]);
    // Clear marks of this loop's body: an enclosing loop already owns
    // its marks through Mark values equal to its own header.
    for (uint32_t B : Body)
      Mark[B] = NoBlock;
  }

  HoistScope.assign(NB, NoBlock);
  for (uint32_t B = 0; B != NB; ++B) {
    uint32_t L = LoopOf[B];
    while (L != NoBlock && !Hoistable[L])
      L = LoopParent[L];
    HoistScope[B] = L;
  }
}

bool CodeGenerator::inLoop(uint32_t B, uint32_t Header) const {
  uint32_t L = LoopOf[B];
  while (L != NoBlock && L != Header)
    L = LoopParent[L];
  return L == Header;
}

uint32_t CodeGenerator::vregOf(MInstr *Def) {
  uint32_t &V = VRegOfId[Def->id()];
  if (V == NoReg)
    V = newVReg();
  return V;
}

MInstr *CodeGenerator::resolve(MInstr *I) {
  while (true) {
    switch (I->op()) {
    case MirOp::Unbox:
      if (static_cast<MIRType>(I->AuxA) == MIRType::Double)
        return I; // GuardNumber converts: a value of its own.
      I = I->operand(0);
      continue;
    case MirOp::TypeBarrier:
      I = I->operand(0);
      continue;
    case MirOp::GenericSetElem:
      I = I->operand(2);
      continue;
    case MirOp::GenericSetProp:
      I = I->operand(1);
      continue;
    default:
      return I;
    }
  }
}

uint32_t CodeGenerator::use(MInstr *Def) {
  Def = resolve(Def);
  if (Def->op() != MirOp::Constant) {
    assert(VRegOfId[Def->id()] != NoReg &&
           "use before definition in lowering order");
    return VRegOfId[Def->id()];
  }
  uint32_t Loop = HoistScope[CurBlock];
  uint32_t Id = Def->id();
  if (ConstScope[Id] == constScopeTag())
    return ConstVReg[Id];
  uint32_t V = NoReg;
  if (Loop != NoBlock) {
    // A loop's blocks need not be contiguous in the layout, so the
    // per-instruction cache may hold another scope's vreg: look in the
    // loop's own list before making a new one.
    for (auto [CId, CV] : LoopConsts[Loop])
      if (CId == Id)
        V = CV;
    if (V == NoReg) {
      V = newVReg();
      ConstPoolOf[V] = Out->addConstant(Def->constValue());
      LoopConsts[Loop].push_back({Id, V});
    }
  } else {
    V = newVReg();
    ConstPoolOf[V] = Out->addConstant(Def->constValue());
    emit(NOp::LoadConst, V, 0, 0, ConstPoolOf[V]);
  }
  ConstScope[Id] = constScopeTag();
  ConstVReg[Id] = V;
  return V;
}

std::pair<uint32_t, uint32_t> CodeGenerator::useBinOperands(MInstr *I,
                                                           bool Commutative) {
  MInstr *L = I->operand(0), *R = I->operand(1);
  auto FreshConst = [this](MInstr *D) {
    D = resolve(D);
    return D->op() == MirOp::Constant && ConstScope[D->id()] != constScopeTag();
  };
  if (Commutative && FreshConst(L) && !FreshConst(R)) {
    uint32_t RV = use(R);
    return {RV, use(L)}; // Constant materialized last, in the rhs slot.
  }
  uint32_t LV = use(L);
  return {LV, use(R)};
}

uint32_t CodeGenerator::snapshotFor(MResumePoint *RP) {
  auto It = SnapshotIds.find(RP);
  if (It != SnapshotIds.end())
    return It->second;
  Snapshot S;
  S.PC = RP->pc();
  S.NumFrameSlots = RP->numFrameSlots();
  for (size_t I = 0, E = RP->numEntries(); I != E; ++I) {
    MInstr *Entry = resolve(RP->entry(I));
    SnapshotEntry SE;
    if (Entry->op() == MirOp::Constant) {
      SE.IsConst = true;
      SE.Index = Out->addConstant(Entry->constValue());
    } else {
      SE.IsConst = false;
      SE.Index = use(Entry); // vreg; rewritten after allocation.
    }
    S.Entries.push_back(SE);
  }
  uint32_t Id = static_cast<uint32_t>(Out->Snapshots.size());
  Out->Snapshots.push_back(std::move(S));
  SnapshotIds[RP] = Id;
  return Id;
}

void CodeGenerator::lowerPhiMoves(MBasicBlock *B, MBasicBlock *Succ) {
  if (Succ->phis().empty())
    return;
  size_t PredIdx = Succ->indexOfPredecessor(B);

  // Parallel move: (dstVReg <- src) resolved with cycle breaking.
  struct Move {
    uint32_t Dst;
    MInstr *Src;
  };
  std::vector<Move> Moves;
  for (MInstr *Phi : Succ->phis())
    Moves.push_back({vregOf(Phi), resolve(Phi->operand(PredIdx))});

  // Resolve. Sources that are constants never participate in cycles.
  std::unordered_map<uint32_t, uint32_t> Renamed; // old vreg -> temp.
  while (!Moves.empty()) {
    bool Progress = false;
    for (size_t I = 0; I < Moves.size(); ++I) {
      uint32_t Dst = Moves[I].Dst;
      // Is Dst a pending source?
      bool Blocked = false;
      for (size_t J = 0; J < Moves.size(); ++J) {
        if (J == I || Moves[J].Src->op() == MirOp::Constant)
          continue;
        uint32_t SrcV = VRegOfId[Moves[J].Src->id()];
        auto RIt = Renamed.find(SrcV);
        if (RIt != Renamed.end())
          SrcV = RIt->second;
        if (SrcV == Dst) {
          Blocked = true;
          break;
        }
      }
      if (Blocked)
        continue;
      MInstr *Src = Moves[I].Src;
      if (Src->op() == MirOp::Constant) {
        emit(NOp::LoadConst, Dst, 0, 0, Out->addConstant(Src->constValue()));
      } else {
        uint32_t SrcV = use(Src);
        auto RIt = Renamed.find(SrcV);
        if (RIt != Renamed.end())
          SrcV = RIt->second;
        if (SrcV != Dst)
          emit(NOp::Mov, Dst, SrcV);
      }
      Moves[I] = Moves.back();
      Moves.pop_back();
      Progress = true;
      break;
    }
    if (Progress)
      continue;
    // Cycle: save one pending source into a temp.
    MInstr *Src = Moves[0].Src;
    uint32_t SrcV = use(Src);
    auto RIt = Renamed.find(SrcV);
    if (RIt != Renamed.end())
      SrcV = RIt->second;
    uint32_t Temp = newVReg();
    emit(NOp::Mov, Temp, SrcV);
    Renamed[SrcV] = Temp;
  }
}

void CodeGenerator::lowerInstr(MInstr *I) {
  switch (I->op()) {
  case MirOp::Start:
  case MirOp::Constant:
  case MirOp::Phi:
    return;

  case MirOp::Parameter:
    emit(NOp::LoadParam, vregOf(I), 0, 0, static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::OsrValue:
    emit(NOp::LoadOsr, vregOf(I), 0, 0, static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::GetThis:
    emit(NOp::LoadThis, vregOf(I));
    return;

  case MirOp::Goto:
  case MirOp::Test:
  case MirOp::Return:
    JITVS_UNREACHABLE("terminators lowered by lowerBlock");

  case MirOp::Unbox: {
    MIRType Want = static_cast<MIRType>(I->AuxA);
    uint32_t Snap = snapshotFor(I->resumePoint());
    uint32_t Src = use(I->operand(0));
    if (Want == MIRType::Double) {
      emit(NOp::GuardNumber, vregOf(I), Src, 0, Snap);
      return;
    }
    ValueTag Tag;
    switch (Want) {
    case MIRType::Int32:
      Tag = ValueTag::Int32;
      break;
    case MIRType::Boolean:
      Tag = ValueTag::Boolean;
      break;
    case MIRType::String:
      Tag = ValueTag::String;
      break;
    case MIRType::Array:
      Tag = ValueTag::Array;
      break;
    case MIRType::Object:
      Tag = ValueTag::Object;
      break;
    case MIRType::Function:
      Tag = ValueTag::Function;
      break;
    default:
      JITVS_UNREACHABLE("bad unbox target");
    }
    // The checked value is the result (see resolve): no move.
    emit(NOp::GuardTag, Src, static_cast<uint32_t>(Tag), 0, Snap);
    return;
  }
  case MirOp::TypeBarrier: {
    uint32_t Snap = snapshotFor(I->resumePoint());
    uint32_t Src = use(I->operand(0));
    emit(NOp::GuardTag, Src, I->AuxA, 0, Snap);
    return;
  }
  case MirOp::ToDouble:
    emit(NOp::ToDouble, vregOf(I), use(I->operand(0)));
    return;
  case MirOp::TruncateToInt32:
    emit(NOp::TruncToInt32, vregOf(I), use(I->operand(0)));
    return;

#define LOWER_BIN_SNAP(MOP, NOPC, NOPC_NC, COMM)                               \
  case MirOp::MOP: {                                                           \
    auto [LV, RV] = useBinOperands(I, COMM);                                   \
    if (I->AuxB == 1) { /* Overflow check eliminated. */                       \
      emit(NOp::NOPC_NC, vregOf(I), LV, RV);                                   \
      return;                                                                  \
    }                                                                          \
    uint32_t Snap = snapshotFor(I->resumePoint());                             \
    emit(NOp::NOPC, vregOf(I), LV, RV, Snap);                                  \
    return;                                                                    \
  }
    LOWER_BIN_SNAP(AddI, AddI, AddINoOvf, true)
    LOWER_BIN_SNAP(SubI, SubI, SubINoOvf, false)
    LOWER_BIN_SNAP(MulI, MulI, MulINoOvf, true)
    LOWER_BIN_SNAP(ModI, ModI, ModI, false)
#undef LOWER_BIN_SNAP
  case MirOp::NegI:
    emit(NOp::NegI, vregOf(I), use(I->operand(0)), 0,
         snapshotFor(I->resumePoint()));
    return;

#define LOWER_BIN(MOP, NOPC, COMM)                                             \
  case MirOp::MOP: {                                                           \
    auto [LV, RV] = useBinOperands(I, COMM);                                   \
    emit(NOp::NOPC, vregOf(I), LV, RV);                                        \
    return;                                                                    \
  }
    LOWER_BIN(AddD, AddD, true)
    LOWER_BIN(SubD, SubD, false)
    LOWER_BIN(MulD, MulD, true)
    LOWER_BIN(DivD, DivD, false)
    LOWER_BIN(ModD, ModD, false)
    LOWER_BIN(BitAnd, BitAnd, true)
    LOWER_BIN(BitOr, BitOr, true)
    LOWER_BIN(BitXor, BitXor, true)
    LOWER_BIN(Shl, Shl, false)
    LOWER_BIN(Shr, Shr, false)
    LOWER_BIN(UShr, UShr, false)
    LOWER_BIN(Concat, Concat, false)
    LOWER_BIN(LoadElement, LoadElem, false)
    LOWER_BIN(CharCodeAt, CharCodeAt, false)
    LOWER_BIN(GenericGetElem, GenGetElem, false)
#undef LOWER_BIN
  case MirOp::NegD:
    emit(NOp::NegD, vregOf(I), use(I->operand(0)));
    return;
  case MirOp::BitNot:
    emit(NOp::BitNot, vregOf(I), use(I->operand(0)));
    return;

  case MirOp::CompareI:
  case MirOp::CompareD:
  case MirOp::CompareS:
  case MirOp::CompareGeneric: {
    NOp N = I->op() == MirOp::CompareI   ? NOp::CmpI
            : I->op() == MirOp::CompareD ? NOp::CmpD
            : I->op() == MirOp::CompareS ? NOp::CmpS
                                         : NOp::CmpGeneric;
    emit(N, vregOf(I), use(I->operand(0)), use(I->operand(1)),
         static_cast<int32_t>(I->AuxA));
    return;
  }
  case MirOp::Not:
    emit(NOp::Not, vregOf(I), use(I->operand(0)));
    return;
  case MirOp::TypeOf:
    emit(NOp::TypeOfV, vregOf(I), use(I->operand(0)));
    return;

  case MirOp::CheckOverRecursed:
    emit(NOp::CheckDepth);
    return;

  case MirOp::BoundsCheck:
    emit(NOp::BoundsCheck, use(I->operand(0)), use(I->operand(1)), 0,
         snapshotFor(I->resumePoint()));
    return;
  case MirOp::GuardArrayLength:
    emit(NOp::GuardArrLen, use(I->operand(0)), 0,
         Out->addConstant(Value::int32(static_cast<int32_t>(I->AuxA))),
         snapshotFor(I->resumePoint()));
    return;

  case MirOp::ArrayLength:
    emit(NOp::ArrayLen, vregOf(I), use(I->operand(0)));
    return;
  case MirOp::StringLength:
    emit(NOp::StrLen, vregOf(I), use(I->operand(0)));
    return;
  case MirOp::StoreElement:
    emit(NOp::StoreElem, use(I->operand(0)), use(I->operand(1)),
         use(I->operand(2)),
         mirTypeMayBeGC(I->operand(2)->type()) ? 1 : 0);
    return;
  case MirOp::FromCharCode:
    emit(NOp::FromCharCode, vregOf(I), use(I->operand(0)));
    return;

  case MirOp::GenericBinop:
    emit(NOp::GenBin, vregOf(I), use(I->operand(0)), use(I->operand(1)),
         static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::GenericUnop:
    emit(NOp::GenUn, vregOf(I), use(I->operand(0)),
         0, static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::GenericSetElem: { // The result is the stored value.
    uint32_t Val = use(I->operand(2));
    emit(NOp::GenSetElem, use(I->operand(0)), use(I->operand(1)), Val);
    return;
  }
  case MirOp::GenericGetProp:
    emit(NOp::GenGetProp, vregOf(I), use(I->operand(0)), 0,
         static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::GenericSetProp: { // The result is the stored value.
    uint32_t Val = use(I->operand(1));
    emit(NOp::GenSetProp, use(I->operand(0)), Val, 0,
         static_cast<int32_t>(I->AuxA));
    return;
  }

  case MirOp::GetGlobal:
    emit(NOp::GetGlobal, vregOf(I), 0, 0, static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::SetGlobal:
    emit(NOp::SetGlobal, use(I->operand(0)), 0, 0,
         static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::GetEnvSlot:
    emit(NOp::GetEnv, vregOf(I), I->AuxB, 0, static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::SetEnvSlot:
    emit(NOp::SetEnv, use(I->operand(0)), I->AuxB,
         mirTypeMayBeGC(I->operand(0)->type()) ? 1u : 0u,
         static_cast<int32_t>(I->AuxA));
    return;

  case MirOp::NewArray: {
    for (size_t A = 0, E = I->numOperands(); A != E; ++A)
      emit(NOp::PushArg, use(I->operand(A)));
    emit(NOp::NewArrElems, vregOf(I), 0, 0,
         static_cast<int32_t>(I->numOperands()));
    return;
  }
  case MirOp::NewArrayLen:
    emit(NOp::NewArrLen, vregOf(I), use(I->operand(0)));
    return;
  case MirOp::NewObject:
    emit(NOp::NewObj, vregOf(I));
    return;
  case MirOp::InitProp:
    emit(NOp::InitProp, use(I->operand(0)), use(I->operand(1)),
         mirTypeMayBeGC(I->operand(1)->type()) ? 1u : 0u,
         static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::MakeClosure:
    emit(NOp::MakeClos, vregOf(I), 0, 0, static_cast<int32_t>(I->AuxA));
    return;

  case MirOp::Call: {
    uint32_t Callee = use(I->operand(0));
    for (size_t A = 1, E = I->numOperands(); A != E; ++A)
      emit(NOp::PushArg, use(I->operand(A)));
    emit(NOp::CallV, vregOf(I), Callee, 0,
         static_cast<int32_t>(I->numOperands() - 1));
    return;
  }
  case MirOp::CallMethod: {
    uint32_t Recv = use(I->operand(0));
    for (size_t A = 1, E = I->numOperands(); A != E; ++A)
      emit(NOp::PushArg, use(I->operand(A)));
    emit(NOp::CallM, vregOf(I), Recv,
         static_cast<uint32_t>(I->numOperands() - 1),
         static_cast<int32_t>(I->AuxA));
    return;
  }
  case MirOp::New: {
    uint32_t Callee = use(I->operand(0));
    for (size_t A = 1, E = I->numOperands(); A != E; ++A)
      emit(NOp::PushArg, use(I->operand(A)));
    emit(NOp::NewCall, vregOf(I), Callee, 0,
         static_cast<int32_t>(I->numOperands() - 1));
    return;
  }
  case MirOp::MathFunction: {
    uint32_t A0 = use(I->operand(0));
    uint32_t A1 = I->numOperands() > 1 ? use(I->operand(1)) : 0xFFFFu;
    emit(NOp::MathFn, vregOf(I), A0, A1, static_cast<int32_t>(I->AuxA));
    return;
  }

  case MirOp::GuardShape: {
    // Copy the graph's shape set into the binary's pool as a
    // nullptr-terminated run; C names its base index.
    const std::vector<const Shape *> &Set = Graph.shapeSet(I->AuxA);
    uint16_t Base = Out->addShape(Set[0]);
    for (size_t S = 1, E = Set.size(); S != E; ++S)
      Out->addShape(Set[S]);
    Out->addShape(nullptr);
    emit(NOp::GuardShape, vregOf(I), use(I->operand(0)), Base,
         snapshotFor(I->resumePoint()));
    return;
  }
  case MirOp::LoadSlot:
    emit(NOp::LoadSlot, vregOf(I), use(I->operand(0)), 0,
         static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::StoreSlot:
    emit(NOp::StoreSlot, use(I->operand(0)), use(I->operand(1)),
         mirTypeMayBeGC(I->operand(1)->type()) ? 1u : 0u,
         static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::AddSlot:
    emit(NOp::AddSlot, use(I->operand(0)), use(I->operand(1)),
         Out->addShape(Graph.shapeSet(I->AuxA)[0]),
         static_cast<int32_t>(I->AuxB));
    return;
  case MirOp::CallWithThis: {
    uint32_t Callee = use(I->operand(0));
    for (size_t A = 2, E = I->numOperands(); A != E; ++A)
      emit(NOp::PushArg, use(I->operand(A)));
    emit(NOp::PushArg, use(I->operand(1))); // `this` is staged last.
    emit(NOp::CallT, vregOf(I), Callee,
         static_cast<uint32_t>(I->numOperands() - 2),
         static_cast<int32_t>(I->AuxB));
    return;
  }
  }
  JITVS_UNREACHABLE("bad MirOp in lowering");
}

void CodeGenerator::lowerBlock(uint32_t Idx) {
  MBasicBlock *B = Order[Idx];
  MBasicBlock *Next = Idx + 1 < Order.size() ? Order[Idx + 1] : nullptr;
  CurBlock = Idx;
  BlockStart[Idx] = static_cast<uint32_t>(Lir.size());

  // Phi destinations need vregs before any predecessor writes them.
  for (MInstr *Phi : B->phis())
    (void)vregOf(Phi);

  MInstr *Term = B->terminator();
  for (MInstr *I : B->instructions()) {
    if (I == Term)
      break;
    lowerInstr(I);
  }
  TailL[Idx] = static_cast<uint32_t>(Lir.size());

  if (!Term) {
    assert(B->instructions().empty() && "block without terminator");
    return;
  }

  switch (Term->op()) {
  case MirOp::Goto: {
    MBasicBlock *Succ = Term->successor(0);
    lowerPhiMoves(B, Succ);
    TailL[Idx] = static_cast<uint32_t>(Lir.size());
    if (Succ != Next)
      emit(NOp::Jmp, 0, 0, 0, blockMark(Succ));
    return;
  }
  case MirOp::Test: {
    uint32_t Cond = use(Term->operand(0));
    TailL[Idx] = static_cast<uint32_t>(Lir.size());
    MBasicBlock *TrueB = Term->successor(0);
    MBasicBlock *FalseB = Term->successor(1);
    assert(TrueB->phis().empty() && FalseB->phis().empty() &&
           "critical edges with phis must have been split");
    if (FalseB == Next) {
      emit(NOp::JTrue, Cond, 0, 0, blockMark(TrueB));
    } else if (TrueB == Next) {
      emit(NOp::JFalse, Cond, 0, 0, blockMark(FalseB));
    } else {
      emit(NOp::JTrue, Cond, 0, 0, blockMark(TrueB));
      emit(NOp::Jmp, 0, 0, 0, blockMark(FalseB));
    }
    return;
  }
  case MirOp::Return:
    emit(NOp::Ret, use(Term->operand(0)));
    return;
  default:
    JITVS_UNREACHABLE("bad terminator");
  }
}

void CodeGenerator::placeHoistedConstants() {
  size_t NB = Order.size();
  bool Any = false;
  for (const auto &L : LoopConsts)
    Any |= !L.empty();
  if (!Any)
    return;
  std::vector<LIns> Spliced;
  Spliced.reserve(Lir.size() + 16);
  for (uint32_t B = 0; B != NB; ++B) {
    uint32_t End = B + 1 < NB ? BlockStart[B + 1]
                              : static_cast<uint32_t>(Lir.size());
    uint32_t NewStart = static_cast<uint32_t>(Spliced.size());
    Spliced.insert(Spliced.end(), Lir.begin() + BlockStart[B],
                   Lir.begin() + TailL[B]);
    for (uint32_t S : Succs[B]) {
      if (LoopConsts[S].empty() || inLoop(B, S))
        continue;
      for (auto [Id, V] : LoopConsts[S]) {
        LIns L;
        L.Op = NOp::LoadConst;
        L.A = V;
        L.Imm = ConstPoolOf[V];
        Spliced.push_back(L);
      }
    }
    Spliced.insert(Spliced.end(), Lir.begin() + TailL[B], Lir.begin() + End);
    BlockStart[B] = NewStart;
  }
  Lir = std::move(Spliced);
}

void CodeGenerator::computeLiveness() {
  size_t NB = Order.size();
  const size_t Words = (NextVReg + 63) / 64;
  auto Test = [](const uint64_t *Row, uint32_t V) {
    return (Row[V >> 6] >> (V & 63)) & 1;
  };
  auto Set = [](uint64_t *Row, uint32_t V) {
    Row[V >> 6] |= uint64_t(1) << (V & 63);
  };
  auto Clear = [](uint64_t *Row, uint32_t V) {
    Row[V >> 6] &= ~(uint64_t(1) << (V & 63));
  };
  auto BlockEnd = [&](uint32_t B) {
    return B + 1 < NB ? BlockStart[B + 1] : static_cast<uint32_t>(Lir.size());
  };

  // Per-block upward-exposed uses and defs, then live-in sets to a fixed
  // point (reverse layout order converges in a few sweeps).
  std::vector<uint64_t> Gen(NB * Words, 0), Kill(NB * Words, 0);
  for (uint32_t B = 0; B != NB; ++B) {
    uint64_t *G = &Gen[B * Words], *K = &Kill[B * Words];
    for (uint32_t P = BlockStart[B], E = BlockEnd(B); P != E; ++P) {
      const LIns &L = Lir[P];
      forEachUse(L, Out->Snapshots, [&](uint32_t V, bool) {
        if (!Test(K, V))
          Set(G, V);
      });
      if (opInfo(L.Op).ADef)
        Set(K, L.A);
    }
  }
  std::vector<uint64_t> LiveIn(NB * Words, 0);
  std::vector<uint64_t> Live(Words);
  auto LiveOutOf = [&](uint32_t B) {
    std::fill(Live.begin(), Live.end(), 0);
    for (uint32_t S : Succs[B])
      for (size_t W = 0; W != Words; ++W)
        Live[W] |= LiveIn[S * Words + W];
  };
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (uint32_t B = static_cast<uint32_t>(NB); B-- > 0;) {
      LiveOutOf(B);
      for (size_t W = 0; W != Words; ++W) {
        uint64_t In =
            Gen[B * Words + W] | (Live[W] & ~Kill[B * Words + W]);
        if (In != LiveIn[B * Words + W]) {
          LiveIn[B * Words + W] = In;
          Changed = true;
        }
      }
    }
  }

  // Live ranges, built backwards so each vreg's segments arrive in
  // descending order (reversed at the end). A value live out of a block
  // covers the block from its def (or the block start) to the block end;
  // a value dead between a use and a later redefinition gets a hole.
  Ranges.assign(NextVReg, {});
  Weight.assign(NextVReg, 0.0);
  auto AddRange = [this](uint32_t V, uint32_t From, uint32_t To) {
    std::vector<Seg> &R = Ranges[V];
    if (!R.empty() && R.back().From <= To) {
      R.back().From = std::min(R.back().From, From);
      R.back().To = std::max(R.back().To, To);
    } else {
      R.push_back({From, To});
    }
  };
  for (uint32_t B = static_cast<uint32_t>(NB); B-- > 0;) {
    uint32_t From = 2 * BlockStart[B], To = 2 * BlockEnd(B);
    LiveOutOf(B);
    for (size_t W = 0; W != Words; ++W)
      for (uint64_t Bits = Live[W]; Bits; Bits &= Bits - 1)
        AddRange(static_cast<uint32_t>(W * 64 + __builtin_ctzll(Bits)), From,
                 To);
    double Wt = accessWeight(Depth[B]);
    for (uint32_t P = BlockEnd(B); P-- > BlockStart[B];) {
      const LIns &L = Lir[P];
      OpInfo OI = opInfo(L.Op);
      if (isCallOp(L.Op)) {
        // Live across the call: live after it, and not its result.
        CallSite CS;
        CS.Pos = P;
        for (size_t W = 0; W != Words; ++W)
          for (uint64_t Bits = Live[W]; Bits; Bits &= Bits - 1) {
            uint32_t V = static_cast<uint32_t>(W * 64 + __builtin_ctzll(Bits));
            if (V != L.A)
              CS.Live.push_back(V);
          }
        Calls.push_back(std::move(CS));
      }
      if (OI.ADef) {
        if (Test(Live.data(), L.A)) {
          assert(Ranges[L.A].back().From == From && "def of a live value");
          Ranges[L.A].back().From = 2 * P + 1;
          Clear(Live.data(), L.A);
        } else {
          AddRange(L.A, 2 * P + 1, 2 * P + 2); // Dead def.
        }
        Weight[L.A] += Wt;
      }
      forEachUse(L, Out->Snapshots, [&](uint32_t V, bool IsOperand) {
        AddRange(V, From, 2 * P + 1);
        Set(Live.data(), V);
        if (IsOperand)
          Weight[V] += Wt;
      });
    }
  }
  for (std::vector<Seg> &R : Ranges)
    std::reverse(R.begin(), R.end());
  std::reverse(Calls.begin(), Calls.end());
}

void CodeGenerator::coalesceMoves() {
  Parent.resize(NextVReg);
  for (uint32_t V = 0; V != NextVReg; ++V)
    Parent[V] = V;
  // Moves in deeper loops first: they run most often.
  std::vector<std::pair<uint8_t, uint32_t>> Moves;
  for (uint32_t B = 0, NB = static_cast<uint32_t>(Order.size()); B != NB;
       ++B) {
    uint32_t End =
        B + 1 < NB ? BlockStart[B + 1] : static_cast<uint32_t>(Lir.size());
    for (uint32_t P = BlockStart[B]; P != End; ++P)
      if (Lir[P].Op == NOp::Mov)
        Moves.push_back({Depth[B], P});
  }
  std::stable_sort(Moves.begin(), Moves.end(),
                   [](const auto &X, const auto &Y) {
                     return X.first > Y.first;
                   });
  for (auto [D, P] : Moves) {
    uint32_t Dst = find(Lir[P].A), Src = find(Lir[P].B);
    if (Dst == Src || isConst(Dst) || isConst(Src) ||
        intersects(Ranges[Dst], Ranges[Src]))
      continue;
    if (Ranges[Dst].size() < Ranges[Src].size())
      std::swap(Dst, Src);
    mergeInto(Ranges[Dst], Ranges[Src]);
    Ranges[Src].clear();
    Weight[Dst] += Weight[Src];
    Parent[Src] = Dst;
  }
}

void CodeGenerator::allocateRegisters() {
  RegOf.assign(NextVReg, -1);
  SlotOf.assign(NextVReg, -1);
  auto Length = [this](uint32_t G) {
    uint64_t L = 0;
    for (const Seg &S : Ranges[G])
      L += S.To - S.From;
    return static_cast<double>(L);
  };
  std::vector<double> Density(NextVReg, 0.0);
  std::vector<uint32_t> Unhandled, Consts;
  for (uint32_t V = 0; V != NextVReg; ++V) {
    if (Parent[V] != V || Ranges[V].empty())
      continue;
    Density[V] = Weight[V] / Length(V);
    (isConst(V) ? Consts : Unhandled).push_back(V);
  }
  std::stable_sort(Unhandled.begin(), Unhandled.end(),
                   [this](uint32_t X, uint32_t Y) {
                     return Ranges[X].front().From < Ranges[Y].front().From;
                   });

  // Linear scan over whole groups. Active groups cover the current
  // position; inactive ones are in a lifetime hole there, so their
  // register is free for any group that fits entirely in their holes.
  std::vector<uint32_t> Active, Inactive, Spilled;
  std::vector<uint32_t> Cursor(NextVReg, 0);
  auto Covers = [&](uint32_t G, uint32_t Pos) {
    const std::vector<Seg> &R = Ranges[G];
    uint32_t &C = Cursor[G];
    while (C != R.size() && R[C].To <= Pos)
      ++C;
    return C != R.size() && R[C].From <= Pos;
  };
  for (uint32_t Cur : Unhandled) {
    uint32_t Pos = Ranges[Cur].front().From;
    for (size_t I = 0; I != Active.size();) {
      uint32_t G = Active[I];
      if (Ranges[G].back().To <= Pos || !Covers(G, Pos)) {
        if (Ranges[G].back().To > Pos)
          Inactive.push_back(G);
        Active[I] = Active.back();
        Active.pop_back();
      } else {
        ++I;
      }
    }
    for (size_t I = 0; I != Inactive.size();) {
      uint32_t G = Inactive[I];
      bool Ended = Ranges[G].back().To <= Pos;
      if (Ended || Covers(G, Pos)) {
        if (!Ended)
          Active.push_back(G);
        Inactive[I] = Inactive.back();
        Inactive.pop_back();
      } else {
        ++I;
      }
    }

    // Per register: is it taken somewhere in Cur's range, and by how
    // dense a group at most.
    bool Taken[NumAllocatable] = {};
    double Cost[NumAllocatable] = {};
    for (uint32_t G : Active) {
      Taken[RegOf[G]] = true;
      Cost[RegOf[G]] = std::max(Cost[RegOf[G]], Density[G]);
    }
    for (uint32_t G : Inactive)
      if (intersects(Ranges[G], Ranges[Cur])) {
        Taken[RegOf[G]] = true;
        Cost[RegOf[G]] = std::max(Cost[RegOf[G]], Density[G]);
      }
    int Reg = -1;
    for (int R = 0; R != NumAllocatable && Reg < 0; ++R)
      if (!Taken[R])
        Reg = R;
    if (Reg < 0) {
      // No register is free for all of Cur: evict the groups holding
      // the register whose densest overlapping group is the sparsest, if
      // that is sparser than Cur; otherwise Cur goes to the stack.
      int Best = 0;
      for (int R = 1; R != NumAllocatable; ++R)
        if (Cost[R] < Cost[Best])
          Best = R;
      if (Cost[Best] >= Density[Cur]) {
        Spilled.push_back(Cur);
        continue;
      }
      Reg = Best;
      auto Evict = [&](std::vector<uint32_t> &List, bool CheckOverlap) {
        for (size_t I = 0; I != List.size();) {
          uint32_t G = List[I];
          if (RegOf[G] == Reg &&
              (!CheckOverlap || intersects(Ranges[G], Ranges[Cur]))) {
            RegOf[G] = -1;
            Spilled.push_back(G);
            List[I] = List.back();
            List.pop_back();
          } else {
            ++I;
          }
        }
      };
      Evict(Active, false);
      Evict(Inactive, true);
    }
    RegOf[Cur] = Reg;
    Active.push_back(Cur);
  }

  // Constants take only what is left: each register's occupancy is
  // known now, and a constant that fits in none is rematerialized at
  // every use instead of spilled.
  std::vector<std::vector<Seg>> Occupied(NumAllocatable);
  for (uint32_t G : Unhandled)
    if (RegOf[G] >= 0)
      Occupied[RegOf[G]].insert(Occupied[RegOf[G]].end(), Ranges[G].begin(),
                                Ranges[G].end());
  for (std::vector<Seg> &O : Occupied)
    std::sort(O.begin(), O.end(),
              [](const Seg &X, const Seg &Y) { return X.From < Y.From; });
  std::stable_sort(Consts.begin(), Consts.end(),
                   [this](uint32_t X, uint32_t Y) {
                     return Weight[X] > Weight[Y];
                   });
  for (uint32_t G : Consts)
    for (int R = 0; R != NumAllocatable; ++R)
      if (!intersects(Occupied[R], Ranges[G])) {
        RegOf[G] = R;
        mergeInto(Occupied[R], Ranges[G]);
        break;
      }

  // Spill slots, shared by groups whose ranges do not intersect.
  std::stable_sort(Spilled.begin(), Spilled.end(),
                   [this](uint32_t X, uint32_t Y) {
                     return Ranges[X].front().From < Ranges[Y].front().From;
                   });
  std::vector<std::vector<Seg>> SlotUse;
  for (uint32_t G : Spilled) {
    uint32_t S = 0;
    while (S != SlotUse.size() && intersects(SlotUse[S], Ranges[G]))
      ++S;
    if (S == SlotUse.size())
      SlotUse.emplace_back();
    mergeInto(SlotUse[S], Ranges[G]);
    SlotOf[G] = static_cast<int>(S);
  }
  NumSlots = static_cast<uint32_t>(SlotUse.size());
}

bool CodeGenerator::emitsNothing(const LIns &L) {
  if (L.Op == NOp::Mov) {
    uint32_t D = find(L.A), S = find(L.B);
    return D == S || (RegOf[D] >= 0 && RegOf[D] == RegOf[S]) ||
           (RegOf[D] < 0 && RegOf[S] < 0 && SlotOf[D] == SlotOf[S]);
  }
  return L.Op == NOp::LoadConst && isConst(L.A) && RegOf[L.A] < 0;
}

std::unique_ptr<NativeCode> CodeGenerator::emitFinal(CodegenStats *Stats) {
  // Scratch registers for spilled and rematerialized operands.
  constexpr uint16_t Scratch[3] = {13, 14, 15};
  std::vector<NInstr> &Code = Out->Code;
  Code.reserve(Lir.size());
  auto Push = [&Code](NOp Op, uint16_t A, int32_t Imm) {
    NInstr N;
    N.Op = Op;
    N.A = A;
    N.Imm = Imm;
    Code.push_back(N);
  };

  // Jump threading: a block left with nothing but a Jmp once its moves
  // are gone forwards every branch to the Jmp's target, and is dropped
  // when no block falls into it either.
  size_t NB = Order.size();
  auto BlockEnd = [&](uint32_t B) {
    return B + 1 < NB ? BlockStart[B + 1] : static_cast<uint32_t>(Lir.size());
  };
  std::vector<uint32_t> Forward(NB);
  for (uint32_t B = 0; B != NB; ++B) {
    Forward[B] = B;
    uint32_t P = BlockStart[B], End = BlockEnd(B);
    while (P != End && emitsNothing(Lir[P]))
      ++P;
    if (B != 0 && Order[B] != Graph.osrBlock() && P + 1 == End &&
        Lir[P].Op == NOp::Jmp)
      Forward[B] = LayoutOf[static_cast<uint32_t>(Lir[P].Imm)];
  }
  std::vector<uint32_t> JumpTo(NB);
  for (uint32_t B = 0; B != NB; ++B) {
    uint32_t T = B;
    for (size_t Steps = 0; Forward[T] != T && Steps != NB; ++Steps)
      T = Forward[T];
    JumpTo[B] = T;
  }
  auto Skipped = [&](uint32_t B) {
    if (JumpTo[B] == B || Forward[JumpTo[B]] != JumpTo[B])
      return false; // Not a forwarder, or one on a cycle.
    if (BlockStart[B - 1] == BlockStart[B])
      return false; // An empty block falls through.
    const LIns &Prev = Lir[BlockStart[B] - 1];
    return Prev.Op == NOp::Jmp || Prev.Op == NOp::Ret;
  };

  std::vector<uint32_t> BlockFinal(NB, 0);
  std::vector<size_t> Jumps;
  size_t NextCall = 0;
  for (uint32_t B = 0; B != NB; ++B) {
    BlockFinal[B] = static_cast<uint32_t>(Code.size());
    if (Skipped(B))
      continue;
    for (uint32_t P = BlockStart[B], End = BlockEnd(B); P != End; ++P) {
      const LIns &L = Lir[P];
      OpInfo OI = opInfo(L.Op);

      if (emitsNothing(L))
        continue;
      if (L.Op == NOp::Mov) {
        // One end on the stack turns a move into a plain reload or store.
        uint32_t D = find(L.A), S = find(L.B);
        int DR = RegOf[D], SR = RegOf[S];
        if (DR >= 0 && SR >= 0) {
          NInstr N;
          N.Op = NOp::Mov;
          N.A = static_cast<uint16_t>(DR);
          N.B = static_cast<uint16_t>(SR);
          Code.push_back(N);
        } else if (DR >= 0) {
          Push(NOp::LoadSpill, static_cast<uint16_t>(DR), SlotOf[S]);
        } else if (SR >= 0) {
          Push(NOp::StoreSpill, static_cast<uint16_t>(SR), SlotOf[D]);
        } else {
          Push(NOp::LoadSpill, Scratch[0], SlotOf[S]);
          Push(NOp::StoreSpill, Scratch[0], SlotOf[D]);
        }
        continue;
      }

      unsigned NextScratch = 0;
      auto MapUse = [&](uint32_t V) -> uint16_t {
        uint32_t G = find(V);
        if (RegOf[G] >= 0)
          return static_cast<uint16_t>(RegOf[G]);
        uint16_t S = Scratch[NextScratch++];
        if (SlotOf[G] >= 0)
          Push(NOp::LoadSpill, S, SlotOf[G]);
        else
          Push(NOp::LoadConst, S, ConstPoolOf[G]);
        return S;
      };

      NInstr N;
      N.Op = L.Op;
      N.Imm = L.Imm;
      N.B = static_cast<uint16_t>(L.B);
      N.C = static_cast<uint16_t>(L.C);
      if (L.Op == NOp::Jmp || L.Op == NOp::JTrue || L.Op == NOp::JFalse) {
        N.Imm = static_cast<int32_t>(
            JumpTo[LayoutOf[static_cast<uint32_t>(L.Imm)]]);
        Jumps.push_back(Code.size() + (OI.AUse && RegOf[find(L.A)] < 0));
      }
      if (OI.BUse)
        N.B = MapUse(L.B);
      if (OI.CUse || mathFnHasSecondArg(L))
        N.C = MapUse(L.C);

      // Record a stack map at every runtime-call site: the frame
      // locations of the values live across the call. Operands that die
      // at the call, the call's own result and values in a lifetime hole
      // are left out, and rematerialized constants have no location —
      // the executor poisons everything else, so a location omitted here
      // can never smuggle a stale pointer past a moving collection. Keyed
      // by the call's final instruction index (after the reloads of its
      // operands); emission order keeps StackMaps sorted by PC.
      if (isCallOp(L.Op)) {
        assert(NextCall < Calls.size() && Calls[NextCall].Pos == P &&
               "call sites out of step");
        StackMap M;
        M.PC = static_cast<uint32_t>(Code.size());
        for (uint32_t V : Calls[NextCall++].Live) {
          uint32_t G = find(V);
          if (RegOf[G] >= 0)
            M.Live.push_back(static_cast<uint16_t>(RegOf[G]));
          else if (SlotOf[G] >= 0)
            M.Live.push_back(static_cast<uint16_t>(NumPhysRegs + SlotOf[G]));
        }
        std::sort(M.Live.begin(), M.Live.end());
        M.Live.erase(std::unique(M.Live.begin(), M.Live.end()), M.Live.end());
        Out->StackMaps.push_back(std::move(M));
      }

      if (OI.AUse) {
        N.A = MapUse(L.A);
      } else if (OI.ADef) {
        uint32_t G = find(L.A);
        if (RegOf[G] >= 0) {
          N.A = static_cast<uint16_t>(RegOf[G]);
        } else {
          // Spilled def: write to scratch, then store.
          N.A = Scratch[NextScratch < 3 ? NextScratch : 2];
          Code.push_back(N);
          Push(NOp::StoreSpill, N.A, SlotOf[G]);
          continue;
        }
      } else {
        N.A = static_cast<uint16_t>(L.A);
      }
      Code.push_back(N);
    }
  }
  for (size_t J : Jumps)
    Code[J].Imm =
        static_cast<int32_t>(BlockFinal[static_cast<size_t>(Code[J].Imm)]);

  // Rewrite snapshot entries from vregs to final locations.
  for (Snapshot &S : Out->Snapshots) {
    for (SnapshotEntry &E : S.Entries) {
      if (E.IsConst)
        continue;
      uint32_t G = find(E.Index);
      assert((RegOf[G] >= 0 || SlotOf[G] >= 0) &&
             "snapshot entry without a location");
      E.Index = RegOf[G] >= 0 ? static_cast<uint32_t>(RegOf[G])
                              : NumPhysRegs + static_cast<uint32_t>(SlotOf[G]);
    }
  }

  Out->FrameSize = NumPhysRegs + NumSlots;
  Out->EntryOffset = 0;
  if (MBasicBlock *Osr = Graph.osrBlock()) {
    if (!Osr->isDead()) {
      Out->OsrOffset = BlockFinal[layoutOf(Osr)];
      if (Osr->entryResumePoint())
        Out->OsrPc = Osr->entryResumePoint()->pc();
    }
  }

  if (Stats) {
    Stats->NumVirtualRegs = NextVReg;
    Stats->NumSpills = NumSlots;
    Stats->NumInstructions = static_cast<uint32_t>(Code.size());
  }
  return std::move(Out);
}

std::unique_ptr<NativeCode> CodeGenerator::run(CodegenStats *Stats) {
  Out = std::make_unique<NativeCode>(Graph.functionInfo());

  splitCriticalEdges(Graph);

  Order = Graph.reversePostOrder();
  assert(!Order.empty() && Order[0] == Graph.entry() &&
         "entry must lead the code layout");
  analyzeLoops();

  VRegOfId.assign(Graph.nextInstrId(), NoReg);
  ConstScope.assign(Graph.nextInstrId(), 0);
  ConstVReg.assign(Graph.nextInstrId(), 0);
  BlockStart.assign(Order.size(), 0);
  TailL.assign(Order.size(), 0);
  for (uint32_t I = 0, E = static_cast<uint32_t>(Order.size()); I != E; ++I)
    lowerBlock(I);
  placeHoistedConstants();

  computeLiveness();
  coalesceMoves();
  allocateRegisters();
  return emitFinal(Stats);
}

} // namespace

std::unique_ptr<NativeCode> jitvs::generateCode(MIRGraph &Graph,
                                                CodegenStats *Stats) {
  CodeGenerator CG(Graph);
  return CG.run(Stats);
}
