//===- tests/CodegenTest.cpp - Backend unit tests ---------------------------===//
///
/// \file
/// Tests of the lowering / register allocation / native execution layer:
/// spill-code generation under register pressure, snapshot encoding,
/// direct executor runs, OSR entry points, and code-size accounting.
///
//===----------------------------------------------------------------------===//

#include "jit/Engine.h"
#include "lir/Codegen.h"
#include "mir/MIRBuilder.h"
#include "native/Executor.h"
#include "passes/Passes.h"
#include "vm/Runtime.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace jitvs;

namespace {

struct CodegenTester {
  explicit CodegenTester(const std::string &Source) {
    EXPECT_TRUE(RT.load(Source)) << RT.errorMessage();
    RT.run();
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

  /// Compiles \p Name (generic) and runs the native code directly.
  Value compileAndRun(const std::string &Name, std::vector<Value> Args,
                      CodegenStats *Stats = nullptr) {
    FunctionInfo *F = function(Name);
    EXPECT_NE(F, nullptr);
    BuildOptions Opts;
    auto G = buildMIR(F, Opts);
    runGVN(*G);
    auto Code = generateCode(*G, Stats);
    Executor Exec(RT);
    ExecResult R =
        Exec.run(*Code, Value::undefined(), Args.data(), Args.size(),
                 /*AtOsr=*/false, nullptr, 0, nullptr, nullptr);
    EXPECT_EQ(R.K, ExecResult::Ok);
    return R.Result;
  }

  /// Compiles \p Name (generic), as compileAndRun does, without running
  /// it.
  std::unique_ptr<NativeCode> compile(const std::string &Name) {
    FunctionInfo *F = function(Name);
    EXPECT_NE(F, nullptr);
    BuildOptions Opts;
    auto G = buildMIR(F, Opts);
    runGVN(*G);
    return generateCode(*G);
  }

  /// Runs \p Code natively and \p Name in the interpreter on \p Args,
  /// and expects the same result.
  void expectMatchesInterpreter(const NativeCode &Code,
                                const std::string &Name,
                                std::vector<Value> Args) {
    Executor Exec(RT);
    ExecResult R =
        Exec.run(Code, Value::undefined(), Args.data(), Args.size(),
                 /*AtOsr=*/false, nullptr, 0, nullptr, nullptr);
    ASSERT_EQ(R.K, ExecResult::Ok);
    Value Expected = RT.callGlobal(Name, Args);
    ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
    EXPECT_TRUE(R.Result.sameSpecializationValue(Expected))
        << Code.disassemble();
  }

  Runtime RT;
};

/// The loop of \p Code: the code from the target of its one backward
/// jump up to that jump, as [Header, BackEdge].
std::pair<size_t, size_t> loopSpan(const NativeCode &Code) {
  std::pair<size_t, size_t> Span{0, 0};
  size_t Found = 0;
  for (size_t I = 0; I != Code.Code.size(); ++I) {
    const NInstr &N = Code.Code[I];
    bool Branch =
        N.Op == NOp::Jmp || N.Op == NOp::JTrue || N.Op == NOp::JFalse;
    if (Branch && static_cast<size_t>(N.Imm) <= I) {
      Span = {static_cast<size_t>(N.Imm), I};
      ++Found;
    }
  }
  EXPECT_EQ(Found, 1u) << Code.disassemble();
  return Span;
}

size_t countInLoop(const NativeCode &Code, NOp Op) {
  auto [Header, BackEdge] = loopSpan(Code);
  size_t N = 0;
  for (size_t I = Header; I <= BackEdge; ++I)
    N += Code.Code[I].Op == Op;
  return N;
}

TEST(Codegen, SimpleArithmetic) {
  CodegenTester T("function f(a, b) { return a * b + 1; }"
                  "for (var i = 0; i < 5; i++) f(2, 3);");
  Value R = T.compileAndRun("f", {Value::int32(6), Value::int32(7)});
  ASSERT_TRUE(R.isInt32());
  EXPECT_EQ(R.asInt32(), 43);
}

TEST(Codegen, RegisterPressureForcesSpills) {
  // 20+ simultaneously-live values exceed the 13 allocatable registers.
  std::string Body = "function f(x) {\n";
  for (int I = 0; I < 24; ++I)
    Body += "  var v" + std::to_string(I) + " = x + " +
            std::to_string(I) + ";\n";
  Body += "  return 0";
  for (int I = 0; I < 24; ++I)
    Body += " + v" + std::to_string(I);
  Body += ";\n}\nfor (var i = 0; i < 5; i++) f(1);";

  CodegenTester T(Body);
  CodegenStats Stats;
  Value R = T.compileAndRun("f", {Value::int32(100)}, &Stats);
  ASSERT_TRUE(R.isInt32());
  // sum over i of (100 + i) for i in 0..23 = 24*100 + 276.
  EXPECT_EQ(R.asInt32(), 24 * 100 + 276);
  EXPECT_GT(Stats.NumSpills, 0u) << "expected spill code under pressure";
}

TEST(Codegen, SnapshotRoundTripThroughBailout) {
  // Force a bailout deep in a computation with live state on both frame
  // slots and the operand stack; the reconstructed interpreter frame must
  // produce exactly the interpreter's result.
  CodegenTester T(
      "function f(a) { var x = a + 1; var y = x * 2;"
      "  return y + (a * a); }" // a*a overflows for large a.
      "for (var i = 0; i < 5; i++) f(3);");
  FunctionInfo *F = T.function("f");
  BuildOptions Opts;
  auto G = buildMIR(F, Opts);
  runGVN(*G);
  auto Code = generateCode(*G);
  ASSERT_FALSE(Code->Snapshots.empty());
  for (const Snapshot &S : Code->Snapshots) {
    EXPECT_EQ(S.NumFrameSlots, F->NumSlots);
    EXPECT_GE(S.Entries.size(), S.NumFrameSlots);
    for (const SnapshotEntry &E : S.Entries) {
      if (!E.IsConst)
        EXPECT_LT(E.Index, Code->FrameSize);
      else
        EXPECT_LT(E.Index, Code->ConstPool.size());
    }
  }

  Executor Exec(T.RT);
  Value Big = Value::int32(100000);
  ExecResult R = Exec.run(*Code, Value::undefined(), &Big, 1,
                          /*AtOsr=*/false, nullptr, 0, nullptr, nullptr);
  ASSERT_EQ(R.K, ExecResult::Bailout);
  EXPECT_EQ(R.RegsAtBail.size(), Code->FrameSize);
}

TEST(Codegen, OsrEntryPointExists) {
  CodegenTester T("function f(n) { var s = 0;"
                  "  for (var i = 0; i < n; i++) s += i;"
                  "  return s; }"
                  "f(5);");
  FunctionInfo *F = T.function("f");
  // Find the LoopHead offset.
  uint32_t LoopHeadPC = ~0u;
  for (uint32_t PC = 0; PC < F->Code.size();
       PC += F->instructionLength(PC))
    if (F->opAt(PC) == Op::LoopHead)
      LoopHeadPC = PC;
  ASSERT_NE(LoopHeadPC, ~0u);

  BuildOptions Opts;
  Opts.OsrPc = LoopHeadPC;
  auto G = buildMIR(F, Opts);
  ASSERT_NE(G->osrBlock(), nullptr);
  runGVN(*G);
  auto Code = generateCode(*G);
  ASSERT_NE(Code->OsrOffset, ~0u);
  EXPECT_EQ(Code->OsrPc, LoopHeadPC);

  // Enter at the OSR point mid-loop: slots = [n, s, i] with i=3, s=3.
  std::vector<Value> Slots = {Value::int32(5), Value::int32(3),
                              Value::int32(3)};
  Executor Exec(T.RT);
  Value N = Value::int32(5);
  ExecResult R = Exec.run(*Code, Value::undefined(), &N, 1,
                          /*AtOsr=*/true, Slots.data(), Slots.size(),
                          nullptr, nullptr);
  ASSERT_EQ(R.K, ExecResult::Ok);
  // Remaining iterations: i=3,4 add 3+4 to s=3 -> 10.
  EXPECT_EQ(R.Result.asInt32(), 10);
}

TEST(Codegen, SpecializationShrinksCode) {
  CodegenTester T("function f(a, b, n) { var s = 0;"
                  "  for (var i = 0; i < n; i++)"
                  "    s += (a * b + i) | 0;"
                  "  return s; }"
                  "for (var k = 0; k < 6; k++) f(3, 4, 10);");
  FunctionInfo *F = T.function("f");

  BuildOptions GOpts;
  auto GG = buildMIR(F, GOpts);
  runGVN(*GG);
  auto BaseCode = generateCode(*GG);

  BuildOptions SOpts;
  SOpts.SpecializedArgs = std::vector<Value>{
      Value::int32(3), Value::int32(4), Value::int32(10)};
  auto SG = buildMIR(F, SOpts);
  OptConfig C = OptConfig::all();
  runClosureInlining(*SG, T.RT, C);
  runOptimizationPipeline(*SG, T.RT, C);
  auto SpecCode = generateCode(*SG);

  EXPECT_LT(SpecCode->sizeInInstructions(),
            BaseCode->sizeInInstructions());
}

TEST(Codegen, CountedLoopCopiesNothing) {
  // The loop-carried phis and their updates share registers, so the
  // back edge copies nothing.
  CodegenTester T("function f(n) { var s = 0;"
                  "  for (var i = 0; i < n; i++) s += i;"
                  "  return s; }"
                  "for (var k = 0; k < 5; k++) f(10);");
  auto Code = T.compile("f");
  EXPECT_EQ(countInLoop(*Code, NOp::Mov), 0u) << Code->disassemble();
  T.expectMatchesInterpreter(*Code, "f", {Value::int32(100)});
}

TEST(Codegen, LoopConstantsMaterializeBeforeTheLoop) {
  // Registers are plentiful, so the loop's constants are loaded once,
  // before the loop, and never inside it.
  CodegenTester T("function f(n) { var s = 0;"
                  "  for (var i = 0; i < n; i++) s = (s + i * 3 + 7) | 0;"
                  "  return s; }"
                  "for (var k = 0; k < 5; k++) f(10);");
  auto Code = T.compile("f");
  EXPECT_EQ(countInLoop(*Code, NOp::LoadConst), 0u) << Code->disassemble();
  T.expectMatchesInterpreter(*Code, "f", {Value::int32(100)});
}

TEST(Codegen, DeadRegisterAcrossCallIsReusedAndPoisoned) {
  // `s` holds an array. Its old value dies when it is passed to mk, and
  // its next value is mk's result, so across the allocating call its
  // register holds nothing live: the call's stack map leaves it out, and
  // the call's result takes it. Under GC stress every call collects and
  // poisons what the map leaves out, so a wrong map shows as a wrong
  // result.
  CodegenTester T("function mk(p, i) { return [p[1], p[0] + i]; }"
                  "function f(n) { var s = [1, 2];"
                  "  for (var i = 0; i < n; i++) s = mk(s, i);"
                  "  return s[0] * 1000 + s[1]; }"
                  "for (var k = 0; k < 5; k++) f(4);");
  auto Code = T.compile("f");
  auto [Header, BackEdge] = loopSpan(*Code);
  size_t Call = ~size_t(0);
  for (size_t I = Header; I <= BackEdge; ++I)
    if (Code->Code[I].Op == NOp::CallV)
      Call = I;
  ASSERT_NE(Call, ~size_t(0)) << Code->disassemble();
  const StackMap *Map = Code->mapForPC(static_cast<uint32_t>(Call));
  ASSERT_NE(Map, nullptr);
  uint16_t Result = Code->Code[Call].A;
  bool ReadBefore = false;
  for (size_t I = Header; I < Call; ++I)
    ReadBefore |= Code->Code[I].Op == NOp::PushArg &&
                  Code->Code[I].A == Result;
  EXPECT_TRUE(ReadBefore) << "the result does not reuse the dead value's "
                             "register\n"
                          << Code->disassemble();
  EXPECT_EQ(std::count(Map->Live.begin(), Map->Live.end(), Result), 0)
      << "a register dead across the call is in its stack map";

  T.RT.heap().setGCStress(true);
  T.expectMatchesInterpreter(*Code, "f", {Value::int32(50)});
  T.RT.heap().setGCStress(false);
}

TEST(Codegen, DisassemblerProducesText) {
  CodegenTester T("function f(a) { return a + 1; }"
                  "f(1);");
  FunctionInfo *F = T.function("f");
  BuildOptions Opts;
  auto G = buildMIR(F, Opts);
  auto Code = generateCode(*G);
  std::string Dis = Code->disassemble();
  EXPECT_NE(Dis.find("ret"), std::string::npos);
  EXPECT_NE(Dis.find("native f"), std::string::npos);
}

TEST(Executor, EnvironmentCreationAtEntry) {
  // A JIT-compiled function that creates closures over its parameter.
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  Engine E(RT, OptConfig::baseline(), K);
  RT.evaluate("function make(k) { return function() { return k; }; }"
              "var fs = [];"
              "for (var i = 0; i < 20; i++) fs.push(make(i));"
              "print(fs[0](), fs[7](), fs[19]());");
  ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
  EXPECT_EQ(RT.output(), "0 7 19\n");
  EXPECT_GT(E.stats().Compilations, 0u);
}

TEST(Executor, MathIntrinsicsMatchBuiltins) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 2;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate(
      "function f(x) { return Math.sqrt(x) + Math.abs(0 - x) +"
      " Math.pow(x, 2) + Math.floor(x / 3); }"
      "var r = 0;"
      "for (var i = 0; i < 20; i++) r = f(9.0);"
      "print(r);");
  ASSERT_FALSE(RT.hasError()) << RT.errorMessage();

  Runtime RT2;
  RT2.evaluate(
      "function f(x) { return Math.sqrt(x) + Math.abs(0 - x) +"
      " Math.pow(x, 2) + Math.floor(x / 3); }"
      "var r = 0;"
      "for (var i = 0; i < 20; i++) r = f(9.0);"
      "print(r);");
  EXPECT_EQ(RT.output(), RT2.output());
}

} // namespace
