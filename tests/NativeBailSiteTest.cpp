//===- tests/NativeBailSiteTest.cpp - Bailout sites of unfused guards -----===//
///
/// \file
/// Every failing guard reports its own instruction slot as BailPc, which
/// with the function identity keys the engine's per-site bailout
/// counters. The dispatch loop derives it from the failing instruction
/// itself, not from the advanced program counter, so these tests pin it
/// for one unfused bailing op of each kind, placed at a non-zero offset
/// and run under both dispatch modes. FusionTest pins the fused forms.
///
//===----------------------------------------------------------------------===//

#include "native/Executor.h"
#include "vm/Runtime.h"

#include <gtest/gtest.h>

#include <climits>
#include <functional>

using namespace jitvs;

namespace {

const DispatchMode BothModes[] = {DispatchMode::Switch, DispatchMode::Goto};

NInstr instr(NOp Op, uint16_t A = 0, uint16_t B = 0, uint16_t C = 0,
             int32_t Imm = 0) {
  NInstr N;
  N.Op = Op;
  N.A = A;
  N.B = B;
  N.C = C;
  N.Imm = Imm;
  return N;
}

/// One bailing op: the code that reaches it, the arguments that make it
/// fail (built in the runtime that runs the code, which may also add to
/// the code's shape pool), and what the bailout must report.
struct BailCase {
  const char *Name;
  std::vector<NInstr> Insns;
  std::function<std::vector<Value>(Runtime &, NativeCode &)> Args;
  uint32_t Pc;
  NOp Op;
  BailoutReason Reason;
  uint32_t Snapshot;
};

std::vector<BailCase> bailCases() {
  auto Ints = [](std::vector<int32_t> Is) {
    return [Is](Runtime &, NativeCode &) {
      std::vector<Value> Vs;
      for (int32_t I : Is)
        Vs.push_back(Value::int32(I));
      return Vs;
    };
  };
  auto Tag = [](ValueTag T) { return static_cast<uint16_t>(T); };
  // Shape set {root}: an object that has gained a property misses it.
  auto ObjectOffShape = [](Runtime &RT, NativeCode &Code) {
    Code.ShapePool = {RT.shapes().root(), nullptr};
    JSObject *O = RT.heap().allocate<JSObject>(RT.shapes().root());
    O->setProperty(RT.shapes(), /*NameId=*/0, Value::int32(1));
    return std::vector<Value>{Value::object(O)};
  };

  return {
      {"GuardTag",
       {instr(NOp::LoadParam, 0, 0, 0, 0), instr(NOp::Nop),
        instr(NOp::Nop), instr(NOp::GuardTag, 0, Tag(ValueTag::Int32), 0, 11),
        instr(NOp::Ret, 0)},
       [](Runtime &, NativeCode &) {
         return std::vector<Value>{Value::number(2.5)};
       },
       3, NOp::GuardTag, BailoutReason::TypeGuard, 11},
      {"BoundsCheck",
       {instr(NOp::LoadParam, 0, 0, 0, 0), instr(NOp::LoadParam, 1, 0, 0, 1),
        instr(NOp::Nop), instr(NOp::BoundsCheck, 0, 1, 0, 12),
        instr(NOp::Ret, 0)},
       Ints({5, 5}), 3, NOp::BoundsCheck, BailoutReason::BoundsCheck, 12},
      {"MulINegativeZero",
       {instr(NOp::LoadParam, 0, 0, 0, 0), instr(NOp::LoadParam, 1, 0, 0, 1),
        instr(NOp::Nop), instr(NOp::Nop), instr(NOp::MulI, 2, 0, 1, 13),
        instr(NOp::Ret, 2)},
       Ints({0, -3}), 4, NOp::MulI, BailoutReason::NegativeZero, 13},
      {"NegIOverflow",
       {instr(NOp::LoadParam, 0, 0, 0, 0), instr(NOp::Nop),
        instr(NOp::NegI, 1, 0, 0, 14), instr(NOp::Ret, 1)},
       Ints({INT32_MIN}), 2, NOp::NegI, BailoutReason::IntOverflow, 14},
      {"NegINegativeZero",
       {instr(NOp::LoadParam, 0, 0, 0, 0), instr(NOp::Nop),
        instr(NOp::NegI, 1, 0, 0, 14), instr(NOp::Ret, 1)},
       Ints({0}), 2, NOp::NegI, BailoutReason::NegativeZero, 14},
      {"ModINegativeDividend",
       {instr(NOp::LoadParam, 0, 0, 0, 0), instr(NOp::LoadParam, 1, 0, 0, 1),
        instr(NOp::ModI, 2, 0, 1, 15), instr(NOp::Ret, 2)},
       Ints({-7, 3}), 2, NOp::ModI, BailoutReason::IntOverflow, 15},
      {"GuardShapeNotAnObject",
       {instr(NOp::LoadParam, 0, 0, 0, 0), instr(NOp::Nop),
        instr(NOp::GuardShape, 1, 0, 0, 16), instr(NOp::Ret, 1)},
       [](Runtime &RT, NativeCode &Code) {
         Code.ShapePool = {RT.shapes().root(), nullptr};
         return std::vector<Value>{Value::int32(4)};
       },
       2, NOp::GuardShape, BailoutReason::ShapeGuard, 16},
      {"GuardShapeMiss",
       {instr(NOp::LoadParam, 0, 0, 0, 0), instr(NOp::Nop),
        instr(NOp::GuardShape, 1, 0, 0, 16), instr(NOp::Ret, 1)},
       ObjectOffShape, 2, NOp::GuardShape, BailoutReason::ShapeGuard, 16},
  };
}

TEST(NativeBailSite, UnfusedGuardReportsItsOwnSlot) {
  for (const BailCase &Case : bailCases()) {
    for (DispatchMode Mode : BothModes) {
      SCOPED_TRACE(std::string(Case.Name) +
                   (Mode == DispatchMode::Goto ? " goto" : " switch"));
      Runtime RT;
      FunctionInfo Info;
      NativeCode Code(&Info);
      Code.Code = Case.Insns;
      Code.FrameSize = NumPhysRegs + 2; // Two spill slots ride along.
      std::vector<Value> Args = Case.Args(RT, Code);

      Executor Exec(RT, Mode);
      ExecResult Res = Exec.run(Code, Value::undefined(), Args.data(),
                                Args.size(), /*AtOsr=*/false, nullptr, 0,
                                nullptr, nullptr);
      ASSERT_EQ(Res.K, ExecResult::Bailout);
      EXPECT_EQ(Res.BailPc, Case.Pc);
      EXPECT_EQ(Res.BailOp, Case.Op);
      EXPECT_EQ(Res.BailReason, Case.Reason);
      EXPECT_EQ(Res.SnapshotId, Case.Snapshot);
      ASSERT_EQ(Res.RegsAtBail.size(), Code.FrameSize);
      // The copy is the frame as the guard saw it: p0 is in r0.
      EXPECT_TRUE(Res.RegsAtBail[0].sameSpecializationValue(Args[0]));
    }
  }
}

} // namespace
