//===- tests/FusionTest.cpp - Macro-op fusion unit tests ------------------===//
///
/// \file
/// The post-regalloc peephole (native/Fusion.cpp): golden tests per fused
/// form on hand-built code, the legality rules (jump targets, swapped
/// operands, idempotence), the slot-preserving invariants (code size,
/// guard count, replicated register writes), bailout resume-point
/// reconstruction at fused guards, and a differential sweep of all three
/// workload suites with fusion on/off under both dispatch modes.
///
//===----------------------------------------------------------------------===//

#include "jit/Engine.h"
#include "lir/Codegen.h"
#include "mir/MIRBuilder.h"
#include "native/Executor.h"
#include "native/Fusion.h"
#include "passes/Passes.h"
#include "vm/Runtime.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace jitvs;

namespace {

/// Both dispatch modes, for tests that must hold under each. On a
/// compiler without computed goto the second entry degrades to Switch
/// inside the executor, which is exactly the shipped fallback behavior.
const DispatchMode BothModes[] = {DispatchMode::Switch, DispatchMode::Goto};

/// Executes hand-built \p Code with \p Args under \p Mode. The
/// default-constructed FunctionInfo has no environment slots, so the
/// executor prologue allocates nothing.
ExecResult runCode(const NativeCode &Code, std::vector<Value> Args,
                   DispatchMode Mode) {
  Runtime RT;
  Executor Exec(RT, Mode);
  return Exec.run(Code, Value::undefined(), Args.data(), Args.size(),
                  /*AtOsr=*/false, nullptr, 0, nullptr, nullptr);
}

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

//===----------------------------------------------------------------------===//
// Golden peephole tests: one per fused form.
//===----------------------------------------------------------------------===//

TEST(Fusion, CmpBranchGolden) {
  FunctionInfo Info;
  NativeCode Code(&Info);
  // r2 = (p0 < p1); if (r2) return r2 else return r2 — both paths return
  // the flag register, proving the fused handler still materializes it.
  Code.Code = {
      instr(NOp::LoadParam, 0, 0, 0, 0),
      instr(NOp::LoadParam, 1, 0, 0, 1),
      instr(NOp::CmpI, 2, 0, 1, static_cast<int32_t>(Op::Lt)),
      instr(NOp::JTrue, 2, 0, 0, 5),
      instr(NOp::Ret, 2),
      instr(NOp::Ret, 2),
  };

  FusionStats Stats;
  unsigned Fused = fuseMacroOps(Code, &Stats);
  EXPECT_EQ(Fused, 1u);
  EXPECT_EQ(Stats.CmpBranch, 1u);
  EXPECT_EQ(Code.FusedPairs, 1u);
  // Slot-preserving rewrite: both slots still there, fields intact.
  ASSERT_EQ(Code.Code.size(), 6u);
  EXPECT_EQ(Code.Code[2].Op, NOp::BrCmpII);
  EXPECT_EQ(Code.Code[2].B, 0);
  EXPECT_EQ(Code.Code[2].C, 1);
  EXPECT_EQ(Code.Code[2].Imm, static_cast<int32_t>(Op::Lt));
  EXPECT_EQ(Code.Code[3].Op, NOp::FuseData);
  EXPECT_EQ(Code.Code[3].A, 2);
  EXPECT_EQ(Code.Code[3].B, 1) << "JTrue sense";
  EXPECT_EQ(Code.Code[3].Imm, 5);

  for (DispatchMode Mode : BothModes) {
    ExecResult Taken = runCode(Code, {Value::int32(1), Value::int32(2)}, Mode);
    ASSERT_EQ(Taken.K, ExecResult::Ok);
    ASSERT_TRUE(Taken.Result.isBoolean());
    EXPECT_TRUE(Taken.Result.asBoolean());

    ExecResult Fall = runCode(Code, {Value::int32(5), Value::int32(2)}, Mode);
    ASSERT_EQ(Fall.K, ExecResult::Ok);
    ASSERT_TRUE(Fall.Result.isBoolean());
    EXPECT_FALSE(Fall.Result.asBoolean());
  }
}

TEST(Fusion, CmpDoubleBranchGolden) {
  FunctionInfo Info;
  NativeCode Code(&Info);
  // Non-integral literals: Value::number canonicalizes integral doubles
  // to Int32, and CmpD operands must genuinely be doubles.
  uint16_t Ten = Code.addConstant(Value::number(10.5));
  uint16_t One = Code.addConstant(Value::number(1.25));
  // if (p0 >= 10.5) return 10.5 else return 1.0, via JFalse.
  Code.Code = {
      instr(NOp::LoadParam, 0, 0, 0, 0),
      instr(NOp::LoadConst, 1, 0, 0, Ten),
      instr(NOp::CmpD, 2, 0, 1, static_cast<int32_t>(Op::Ge)),
      instr(NOp::JFalse, 2, 0, 0, 6),
      instr(NOp::LoadConst, 3, 0, 0, Ten),
      instr(NOp::Ret, 3),
      instr(NOp::LoadConst, 3, 0, 0, One),
      instr(NOp::Ret, 3),
  };

  unsigned Fused = fuseMacroOps(Code);
  EXPECT_GE(Fused, 1u);
  EXPECT_EQ(Code.Code[2].Op, NOp::BrCmpDD);
  EXPECT_EQ(Code.Code[3].Op, NOp::FuseData);
  EXPECT_EQ(Code.Code[3].B, 0) << "JFalse sense";

  for (DispatchMode Mode : BothModes) {
    ExecResult Hi = runCode(Code, {Value::number(11.5)}, Mode);
    ASSERT_EQ(Hi.K, ExecResult::Ok);
    EXPECT_EQ(Hi.Result.asDouble(), 10.5);
    ExecResult Lo = runCode(Code, {Value::number(3.5)}, Mode);
    ASSERT_EQ(Lo.K, ExecResult::Ok);
    EXPECT_EQ(Lo.Result.asDouble(), 1.25);
  }
}

TEST(Fusion, ConstArithGolden) {
  FunctionInfo Info;
  NativeCode Code(&Info);
  uint16_t Five = Code.addConstant(Value::int32(5));
  // r1 = 5; r2 = p0 + r1; return r1 — returning the constant register
  // proves the fused handler replicates the LoadConst write.
  Code.Code = {
      instr(NOp::LoadParam, 0, 0, 0, 0),
      instr(NOp::LoadConst, 1, 0, 0, Five),
      instr(NOp::AddI, 2, 0, 1, /*snapshot*/ 0),
      instr(NOp::Ret, 1),
  };

  FusionStats Stats;
  unsigned Fused = fuseMacroOps(Code, &Stats);
  EXPECT_EQ(Fused, 1u);
  EXPECT_EQ(Stats.ConstArith, 1u);
  EXPECT_EQ(Code.Code[1].Op, NOp::AddIImm);
  EXPECT_EQ(Code.Code[1].Imm, Five);
  EXPECT_EQ(Code.Code[2].Op, NOp::FuseData);
  EXPECT_EQ(Code.Code[2].A, 2);
  EXPECT_EQ(Code.Code[2].B, 0);
  EXPECT_EQ(Code.Code[2].C, 1);

  for (DispatchMode Mode : BothModes) {
    ExecResult R = runCode(Code, {Value::int32(7)}, Mode);
    ASSERT_EQ(R.K, ExecResult::Ok);
    ASSERT_TRUE(R.Result.isInt32());
    EXPECT_EQ(R.Result.asInt32(), 5) << "constant register write lost";
  }

  // Same pair, but returning the sum.
  Code.Code[3] = instr(NOp::Ret, 2);
  for (DispatchMode Mode : BothModes) {
    ExecResult R = runCode(Code, {Value::int32(7)}, Mode);
    ASSERT_EQ(R.K, ExecResult::Ok);
    EXPECT_EQ(R.Result.asInt32(), 12);
  }
}

TEST(Fusion, CommutativeSwapNormalizesConstant) {
  FunctionInfo Info;
  NativeCode Code(&Info);
  uint16_t Three = Code.addConstant(Value::int32(3));
  // r2 = r1 * p0 with the constant on the LHS: MulI is commutative, so
  // the pass swaps the operands and fuses.
  Code.Code = {
      instr(NOp::LoadParam, 0, 0, 0, 0),
      instr(NOp::LoadConst, 1, 0, 0, Three),
      instr(NOp::MulI, 2, 1, 0, /*snapshot*/ 0),
      instr(NOp::Ret, 2),
  };
  EXPECT_EQ(fuseMacroOps(Code), 1u);
  EXPECT_EQ(Code.Code[1].Op, NOp::MulIImm);
  EXPECT_EQ(Code.Code[2].B, 0) << "operands normalized: lhs = parameter";
  EXPECT_EQ(Code.Code[2].C, 1) << "operands normalized: rhs = constant";
  for (DispatchMode Mode : BothModes) {
    ExecResult R = runCode(Code, {Value::int32(14)}, Mode);
    ASSERT_EQ(R.K, ExecResult::Ok);
    EXPECT_EQ(R.Result.asInt32(), 42);
  }
}

TEST(Fusion, NonCommutativeLhsConstantStaysUnfused) {
  FunctionInfo Info;
  NativeCode Code(&Info);
  uint16_t Hundred = Code.addConstant(Value::int32(100));
  // r2 = r1 - p0 with the constant on the LHS: SubI is not commutative,
  // so no swap is legal and the pair must stay as-is.
  Code.Code = {
      instr(NOp::LoadParam, 0, 0, 0, 0),
      instr(NOp::LoadConst, 1, 0, 0, Hundred),
      instr(NOp::SubI, 2, 1, 0, /*snapshot*/ 0),
      instr(NOp::Ret, 2),
  };
  EXPECT_EQ(fuseMacroOps(Code), 0u);
  EXPECT_EQ(Code.Code[1].Op, NOp::LoadConst);
  EXPECT_EQ(Code.Code[2].Op, NOp::SubI);
  for (DispatchMode Mode : BothModes) {
    ExecResult R = runCode(Code, {Value::int32(30)}, Mode);
    ASSERT_EQ(R.K, ExecResult::Ok);
    EXPECT_EQ(R.Result.asInt32(), 70);
  }
}

TEST(Fusion, GuardTagMovGolden) {
  FunctionInfo Info;
  NativeCode Code(&Info);
  // Checked unbox: guard p0 is int32, move it into r1.
  Code.Code = {
      instr(NOp::LoadParam, 0, 0, 0, 0),
      instr(NOp::GuardTag, 0, static_cast<uint16_t>(ValueTag::Int32), 0,
            /*snapshot*/ 7),
      instr(NOp::Mov, 1, 0, 0, 0),
      instr(NOp::Ret, 1),
  };

  FusionStats Stats;
  EXPECT_EQ(fuseMacroOps(Code, &Stats), 1u);
  EXPECT_EQ(Stats.GuardMov, 1u);
  EXPECT_EQ(Code.Code[1].Op, NOp::GuardTagMov);
  EXPECT_EQ(Code.Code[2].Op, NOp::FuseData);

  for (DispatchMode Mode : BothModes) {
    ExecResult Ok = runCode(Code, {Value::int32(9)}, Mode);
    ASSERT_EQ(Ok.K, ExecResult::Ok);
    EXPECT_EQ(Ok.Result.asInt32(), 9);

    // A double fails the tag guard: the fused op must report the
    // ORIGINAL opcode, the snapshot it carried, and a BailPc equal to
    // the fused slot so per-site counters key the same instruction.
    ExecResult Bail = runCode(Code, {Value::number(2.5)}, Mode);
    ASSERT_EQ(Bail.K, ExecResult::Bailout);
    EXPECT_EQ(Bail.BailOp, NOp::GuardTag);
    EXPECT_EQ(Bail.BailReason, BailoutReason::TypeGuard);
    EXPECT_EQ(Bail.SnapshotId, 7u);
    EXPECT_EQ(Bail.BailPc, 1u);
    EXPECT_EQ(Bail.RegsAtBail.size(), Code.FrameSize);
  }
}

TEST(Fusion, FusedOverflowBailsUnderOriginalOp) {
  FunctionInfo Info;
  NativeCode Code(&Info);
  uint16_t Big = Code.addConstant(Value::int32(2000000000));
  Code.Code = {
      instr(NOp::LoadParam, 0, 0, 0, 0),
      instr(NOp::LoadConst, 1, 0, 0, Big),
      instr(NOp::AddI, 2, 0, 1, /*snapshot*/ 3),
      instr(NOp::Ret, 2),
  };
  ASSERT_EQ(fuseMacroOps(Code), 1u);
  ASSERT_EQ(Code.Code[1].Op, NOp::AddIImm);

  for (DispatchMode Mode : BothModes) {
    ExecResult Ok = runCode(Code, {Value::int32(1)}, Mode);
    ASSERT_EQ(Ok.K, ExecResult::Ok);
    EXPECT_EQ(Ok.Result.asInt32(), 2000000001);

    ExecResult Bail = runCode(Code, {Value::int32(2000000000)}, Mode);
    ASSERT_EQ(Bail.K, ExecResult::Bailout);
    EXPECT_EQ(Bail.BailOp, NOp::AddI) << "feedback must see the original op";
    EXPECT_EQ(Bail.BailReason, BailoutReason::IntOverflow);
    EXPECT_EQ(Bail.SnapshotId, 3u);
    EXPECT_EQ(Bail.BailPc, 1u) << "per-site counters key the fused slot";
  }
}

//===----------------------------------------------------------------------===//
// Legality and invariants.
//===----------------------------------------------------------------------===//

TEST(Fusion, JumpTargetBlocksFusion) {
  FunctionInfo Info;
  NativeCode Code(&Info);
  uint16_t Five = Code.addConstant(Value::int32(5));
  // JTrue can land directly on the AddINoOvf (slot 3): fusing (2,3)
  // would make the branch land mid-pair on a FuseData slot.
  Code.Code = {
      instr(NOp::LoadParam, 0, 0, 0, 0),
      instr(NOp::JTrue, 0, 0, 0, 3),
      instr(NOp::LoadConst, 1, 0, 0, Five),
      instr(NOp::AddINoOvf, 2, 0, 1, 0),
      instr(NOp::Ret, 2),
  };
  EXPECT_EQ(fuseMacroOps(Code), 0u);
  EXPECT_EQ(Code.Code[2].Op, NOp::LoadConst);
  EXPECT_EQ(Code.Code[3].Op, NOp::AddINoOvf);
}

TEST(Fusion, IdempotentAndSizePreserving) {
  FunctionInfo Info;
  NativeCode Code(&Info);
  Code.Code = {
      instr(NOp::LoadParam, 0, 0, 0, 0),
      instr(NOp::LoadParam, 1, 0, 0, 1),
      instr(NOp::CmpI, 2, 0, 1, static_cast<int32_t>(Op::Eq)),
      instr(NOp::JFalse, 2, 0, 0, 5),
      instr(NOp::Ret, 0),
      instr(NOp::Ret, 1),
  };
  size_t SizeBefore = Code.sizeInInstructions();
  ASSERT_EQ(fuseMacroOps(Code), 1u);
  // The Figure-10 metric is invariant; only the dispatched count drops.
  EXPECT_EQ(Code.sizeInInstructions(), SizeBefore);
  EXPECT_EQ(Code.sizeInInstructionsPostFusion(), SizeBefore - 1);
  // Running the pass again finds nothing new and keeps the counters.
  EXPECT_EQ(fuseMacroOps(Code), 0u);
  EXPECT_EQ(Code.FusedPairs, 1u);
  EXPECT_EQ(Code.Code[2].Op, NOp::BrCmpII);
}

TEST(Fusion, GuardCountInvariant) {
  FunctionInfo Info;
  NativeCode Code(&Info);
  uint16_t Two = Code.addConstant(Value::int32(2));
  Code.Code = {
      instr(NOp::LoadParam, 0, 0, 0, 0),
      instr(NOp::GuardTag, 0, static_cast<uint16_t>(ValueTag::Int32), 0, 0),
      instr(NOp::Mov, 1, 0, 0, 0),
      instr(NOp::LoadConst, 2, 0, 0, Two),
      instr(NOp::MulI, 3, 1, 2, 1),
      instr(NOp::Ret, 3),
  };
  size_t GuardsBefore = Code.guardCount();
  EXPECT_EQ(fuseMacroOps(Code), 2u);
  // Guards folded into fused ops still count: tier-cost comparisons
  // rely on this metric staying monotone across compilation modes.
  EXPECT_EQ(Code.guardCount(), GuardsBefore);
}

//===----------------------------------------------------------------------===//
// Through the real pipeline: codegen output, bailout reconstruction.
//===----------------------------------------------------------------------===//

struct PipelineTester {
  explicit PipelineTester(const std::string &Source) {
    RT.evaluate(Source);
    EXPECT_FALSE(RT.hasError()) << RT.errorMessage();
  }

  FunctionInfo *function(const std::string &Name) {
    for (size_t I = 0; I != RT.program()->numFunctions(); ++I) {
      FunctionInfo *F = RT.program()->function(static_cast<uint32_t>(I));
      if (F->Name == Name)
        return F;
    }
    return nullptr;
  }

  std::unique_ptr<NativeCode> compile(const std::string &Name) {
    FunctionInfo *F = function(Name);
    EXPECT_NE(F, nullptr);
    BuildOptions Opts;
    auto G = buildMIR(F, Opts);
    runGVN(*G);
    return generateCode(*G);
  }

  Runtime RT;
};

TEST(Fusion, CodegenOutputFusesAndStillComputes) {
  PipelineTester T("function f(a) { return a * 3 + 7; }"
                   "for (var i = 0; i < 5; i++) f(2);");
  auto Code = T.compile("f");
  size_t SizeBefore = Code->sizeInInstructions();
  unsigned Fused = fuseMacroOps(*Code);
  // Codegen materializes fresh constants adjacent to their (commutative)
  // consumer, so const+arith pairs must appear here.
  EXPECT_GE(Fused, 1u);
  EXPECT_EQ(Code->sizeInInstructions(), SizeBefore);

  for (DispatchMode Mode : BothModes) {
    Executor Exec(T.RT, Mode);
    Value Arg = Value::int32(10);
    ExecResult R = Exec.run(*Code, Value::undefined(), &Arg, 1,
                            /*AtOsr=*/false, nullptr, 0, nullptr, nullptr);
    ASSERT_EQ(R.K, ExecResult::Ok);
    EXPECT_EQ(R.Result.asInt32(), 37);
  }
}

TEST(Fusion, BailoutAtFusedGuardReconstructsFrame) {
  // a + <large const> fuses into AddIImm; overflowing it must bail with
  // a live snapshot whose entries all point at valid frame locations.
  PipelineTester T("function f(a) { var x = a + 2000000000; return x - 1; }"
                   "for (var i = 0; i < 5; i++) f(1);");
  auto Code = T.compile("f");
  ASSERT_GE(fuseMacroOps(*Code), 1u);

  for (DispatchMode Mode : BothModes) {
    Executor Exec(T.RT, Mode);
    Value Big = Value::int32(2000000000);
    ExecResult R = Exec.run(*Code, Value::undefined(), &Big, 1,
                            /*AtOsr=*/false, nullptr, 0, nullptr, nullptr);
    ASSERT_EQ(R.K, ExecResult::Bailout);
    EXPECT_EQ(R.BailOp, NOp::AddI);
    EXPECT_EQ(R.RegsAtBail.size(), Code->FrameSize);
    // The fused slot owns the bail site, and its snapshot is intact.
    EXPECT_EQ(Code->Code[R.BailPc].Op, NOp::AddIImm);
    ASSERT_LT(R.SnapshotId, Code->Snapshots.size());
    const Snapshot &S = Code->Snapshots[R.SnapshotId];
    for (const SnapshotEntry &E : S.Entries) {
      if (E.IsConst)
        EXPECT_LT(E.Index, Code->ConstPool.size());
      else
        EXPECT_LT(E.Index, Code->FrameSize);
    }
  }
}

TEST(Fusion, EngineLevelBailoutMatchesInterpreter) {
  const char *Source =
      "function f(a) { return a + 1000000000; }"
      "var s = 0;"
      "for (var i = 0; i < 30; i++) s = f(i);"
      "print(s, f(2000000000));"; // Overflows inside the fused add.

  Runtime Interp;
  Interp.evaluate(Source);
  ASSERT_FALSE(Interp.hasError()) << Interp.errorMessage();

  for (DispatchMode Mode : BothModes) {
    Runtime RT;
    EngineKnobs K = EngineKnobs::fromEnvironment();
    K.CallThreshold = 3;
    K.Fusion = true;
    K.Dispatch = Mode;
    Engine E(RT, OptConfig::all(), K);
    RT.evaluate(Source);
    ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
    EXPECT_EQ(RT.output(), Interp.output());
    EXPECT_GT(E.stats().FusedOps, 0u) << "fusion never fired";
    EXPECT_GT(E.stats().Bailouts, 0u) << "the overflow never bailed";
  }
}

//===----------------------------------------------------------------------===//
// Differential sweep: every workload, fusion on/off, both dispatch modes.
//===----------------------------------------------------------------------===//

class FusionDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FusionDifferential, SuiteMatchesInterpreter) {
  const char *Suite = SuiteNames[GetParam()];
  for (const Workload &W : suiteWorkloads(Suite)) {
    Runtime Interp;
    Interp.evaluate(W.Source);
    ASSERT_FALSE(Interp.hasError()) << W.Name << ": "
                                    << Interp.errorMessage();
    const std::string Expected = Interp.output();

    struct Config {
      bool Fusion;
      DispatchMode Mode;
      const char *Desc;
    };
    const Config Configs[] = {
        {false, DispatchMode::Switch, "fusion=off dispatch=switch"},
        {true, DispatchMode::Switch, "fusion=on dispatch=switch"},
        {true, DispatchMode::Goto, "fusion=on dispatch=goto"},
    };
    for (const Config &C : Configs) {
      Runtime RT;
      EngineKnobs K = EngineKnobs::fromEnvironment();
      K.Fusion = C.Fusion;
      K.Dispatch = C.Mode;
      Engine E(RT, OptConfig::all(), K);
      RT.evaluate(W.Source);
      ASSERT_FALSE(RT.hasError())
          << W.Name << " [" << C.Desc << "]: " << RT.errorMessage();
      EXPECT_EQ(RT.output(), Expected) << W.Name << " [" << C.Desc << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSuites, FusionDifferential,
                         ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int> &I) {
                           return std::string(SuiteNames[I.param]);
                         });

} // namespace
