//===- tests/EnginePolicyTest.cpp - Specialization policy edge cases ------===//
///
/// \file
/// The Section 4 policy in detail: threshold behavior, the one-cached-
/// argument-set rule, never-respecializing after a deopt, OSR slot
/// revalidation, bailout-limit code discarding, and the per-function
/// reports that feed the paper's tables; and how EngineKnobs is read from
/// the environment and clamped by the engine.
///
//===----------------------------------------------------------------------===//

#include "jit/Engine.h"
#include "vm/Runtime.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

using namespace jitvs;

namespace {

/// Sets one environment variable for its scope, then restores the value
/// it had (or its absence).
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    if (const char *Old = std::getenv(Name))
      Saved = Old;
    setenv(Name, Value, 1);
  }
  ~ScopedEnv() {
    if (Saved)
      setenv(Name, Saved->c_str(), 1);
    else
      unsetenv(Name);
  }

private:
  const char *Name;
  std::optional<std::string> Saved;
};

TEST(EngineKnobs, FromEnvironmentReadsEachVariable) {
  {
    ScopedEnv E("JITVS_TIER_POLICY", "tiered");
    EXPECT_EQ(EngineKnobs::fromEnvironment().Policy, TierPolicy::Tiered);
  }
  {
    ScopedEnv E("JITVS_TIER_VALUE_MAX", "3");
    EXPECT_EQ(EngineKnobs::fromEnvironment().ValueStabilityMax, 3u);
  }
  {
    ScopedEnv E("JITVS_FUSION", "off");
    EXPECT_FALSE(EngineKnobs::fromEnvironment().Fusion);
  }
  {
    ScopedEnv E("JITVS_COMPILE_THREADS", "2");
    EXPECT_EQ(EngineKnobs::fromEnvironment().CompileThreads, 2u);
  }
  {
    ScopedEnv E("JITVS_COMPILE_THREADS", "auto");
    unsigned HW = std::thread::hardware_concurrency();
    EXPECT_EQ(EngineKnobs::fromEnvironment().CompileThreads,
              HW > 1 ? HW - 1 : 1u);
  }
  {
    ScopedEnv E("JITVS_COMPILE_DRAIN", "1");
    EXPECT_TRUE(EngineKnobs::fromEnvironment().CompileDrain);
  }
  {
    ScopedEnv E("JITVS_CODE_CACHE_BYTES", "4096");
    EXPECT_EQ(EngineKnobs::fromEnvironment().CodeCacheBytes, 4096u);
  }
  {
    // Out-of-range values leave the defaults.
    ScopedEnv V("JITVS_TIER_VALUE_MAX", "0");
    ScopedEnv T("JITVS_COMPILE_THREADS", "-1");
    EngineKnobs K = EngineKnobs::fromEnvironment();
    EXPECT_EQ(K.ValueStabilityMax, EngineKnobs().ValueStabilityMax);
    EXPECT_EQ(K.CompileThreads, EngineKnobs().CompileThreads);
  }
}

TEST(EngineKnobs, EngineClampsCacheDepth) {
  Runtime RT;
  EngineKnobs K;
  K.CacheDepth = 0;
  Engine E(RT, OptConfig::all(), K);
  EXPECT_EQ(E.knobs().CacheDepth, 1u);
}

TEST(Policy, ColdFunctionsStayInterpreted) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 100;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function f(x) { return x + 1; }"
              "for (var i = 0; i < 50; i++) f(1);");
  ASSERT_FALSE(RT.hasError());
  EXPECT_EQ(E.stats().Compilations, 0u);
  EXPECT_EQ(E.stats().InterpretedCalls, 50u);
}

TEST(Policy, HotFunctionCompilesOnce) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 10;
  K.LoopThreshold = 100000; // Keep top-level code out of the JIT.
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function f(x) { return x + 1; }"
              "for (var i = 0; i < 100; i++) f(7);");
  ASSERT_FALSE(RT.hasError());
  EXPECT_EQ(E.stats().Compilations, 1u);
  EXPECT_EQ(E.stats().SpecializedCompiles, 1u);
  EXPECT_EQ(E.stats().Recompilations, 0u);
}

TEST(Policy, NeverRespecializesAfterDeopt) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 5;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function f(x) { return x * 2; }"
              "for (var i = 0; i < 10; i++) f(1);" // Specialize on 1.
              "f(2);"                              // Deopt -> generic.
              "for (var i = 0; i < 50; i++) f(3);" // Same new arg 50x...
              "print('done');");
  ASSERT_FALSE(RT.hasError());
  // ...but the paper's policy marks the function: exactly one
  // specialized compile ever, one despecialization, one generic compile.
  EXPECT_EQ(E.stats().SpecializedCompiles, 1u);
  EXPECT_EQ(E.stats().Despecializations, 1u);
  EXPECT_EQ(E.stats().GenericCompiles, 1u);
}

TEST(Policy, CacheKeyIncludesArgCount) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function f(a, b) { return a; }"
              "for (var i = 0; i < 10; i++) f(1, 2);"
              "f(1);" // Same leading arg, different arity: must deopt.
              "print('ok');");
  ASSERT_FALSE(RT.hasError());
  EXPECT_EQ(E.stats().Despecializations, 1u);
}

TEST(Policy, ObjectIdentityIsTheCacheKey) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function len(a) { return a.length; }"
              "var arr = [1, 2, 3];"
              "for (var i = 0; i < 20; i++) len(arr);" // One identity.
              "len([1, 2, 3]);"                        // New identity.
              "print('ok');");
  ASSERT_FALSE(RT.hasError());
  EXPECT_EQ(E.stats().Despecializations, 1u);
}

TEST(Policy, StringContentIsTheCacheKey) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function h(s) { return s.length; }"
              "for (var i = 0; i < 20; i++) h('ab' + 'c');"
              "print('ok');");
  ASSERT_FALSE(RT.hasError());
  // Fresh string objects with equal contents hit the cache.
  EXPECT_EQ(E.stats().Despecializations, 0u);
  EXPECT_GT(E.stats().CacheHits, 10u);
}

TEST(Policy, OsrRevalidatesBakedSlots) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.LoopThreshold = 40;
  Engine E(RT, OptConfig::all(), K);
  // The loop gets OSR-compiled inside the first call with n=200; the
  // second call enters the same loop with different slot values, which
  // must not reuse the baked OSR constants blindly.
  RT.evaluate("function work(n) { var s = 0;"
              "  for (var i = 0; i < n; i++) s = (s + i) % 99991;"
              "  return s; }"
              "print(work(200), work(300));");
  ASSERT_FALSE(RT.hasError());
  Runtime Ref;
  Ref.evaluate("function work(n) { var s = 0;"
               "  for (var i = 0; i < n; i++) s = (s + i) % 99991;"
               "  return s; }"
               "print(work(200), work(300));");
  EXPECT_EQ(RT.output(), Ref.output());
  EXPECT_GT(E.stats().OsrEntries, 0u);
}

TEST(Policy, BailoutLimitDiscardsCode) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  K.BailoutLimit = 4;
  Engine E(RT, OptConfig::baseline(), K);
  // int32 feedback, then persistent double arguments: each call bails
  // until the limit discards the code; the recompile uses the refreshed
  // feedback and stops bailing.
  RT.evaluate("function f(x) { return x + 1; }"
              "for (var i = 0; i < 10; i++) f(1);"
              "var r = 0;"
              "for (var i = 0; i < 20; i++) r = f(0.5);"
              "print(r);");
  ASSERT_FALSE(RT.hasError());
  EXPECT_EQ(RT.output(), "1.5\n");
  EXPECT_GE(E.stats().Bailouts, 1u);
  EXPECT_LE(E.stats().Bailouts, 8u); // Bounded by the limit, not 20.
  EXPECT_GT(E.stats().Recompilations, 0u);
}

TEST(Policy, FunctionReportsClassifyOutcomes) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function stable(x) { return x + 1; }"
              "function flaky(x) { return x * 2; }"
              "for (var i = 0; i < 10; i++) { stable(5); flaky(5); }"
              "flaky(6);"
              "print('ok');");
  ASSERT_FALSE(RT.hasError());
  bool SawStable = false, SawFlaky = false;
  for (const Engine::FunctionReport &R : E.functionReports()) {
    if (R.Name == "stable") {
      SawStable = true;
      EXPECT_TRUE(R.WasSpecialized);
      EXPECT_EQ(R.Despecializations, 0u);
    }
    if (R.Name == "flaky") {
      SawFlaky = true;
      EXPECT_TRUE(R.WasSpecialized);
      EXPECT_GT(R.Despecializations, 0u);
      EXPECT_GE(R.Compiles, 2u);
    }
    if (R.MinCodeSize != SIZE_MAX) {
      EXPECT_GT(R.MinCodeSize, 0u);
    }
  }
  EXPECT_TRUE(SawStable);
  EXPECT_TRUE(SawFlaky);
}

TEST(Policy, GenericConfigNeverSpecializes) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  Engine E(RT, OptConfig::baseline(), K);
  RT.evaluate("function f(x) { return x + 1; }"
              "for (var i = 0; i < 30; i++) f(1);");
  ASSERT_FALSE(RT.hasError());
  EXPECT_GT(E.stats().Compilations, 0u);
  EXPECT_EQ(E.stats().SpecializedCompiles, 0u);
  EXPECT_EQ(E.stats().CacheHits, 0u);
}

TEST(Policy, CacheDepthTwoKeepsBothSpecializations) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  K.CacheDepth = 2; // The paper's future-work heuristic.
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function f(x) { return x * 2; }"
              "for (var i = 0; i < 20; i++) f(5);"   // First slot.
              "for (var i = 0; i < 20; i++) f(9);"   // Second slot.
              "for (var i = 0; i < 20; i++) { f(5); f(9); }" // Both hit.
              "print('ok');");
  ASSERT_FALSE(RT.hasError());
  EXPECT_EQ(E.stats().Despecializations, 0u);
  EXPECT_EQ(E.stats().SpecializedCompiles, 2u);
  EXPECT_GT(E.stats().CacheHits, 60u);
}

TEST(Policy, CacheDepthTwoStillDeoptsOnThirdSet) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  K.CacheDepth = 2;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function f(x) { return x * 2; }"
              "for (var i = 0; i < 10; i++) f(5);"
              "for (var i = 0; i < 10; i++) f(9);"
              "f(1);" // Third distinct set: cache full -> deopt.
              "print(f(7));");
  ASSERT_FALSE(RT.hasError());
  EXPECT_EQ(RT.output(), "14\n");
  EXPECT_EQ(E.stats().Despecializations, 1u);
}

TEST(Policy, CacheDepthTwoDiscardsABailingSecondSlot) {
  // The second slot's body guards o.v as a number; once b.v is a string
  // every call bails. The bailout limit must unlink that body, wherever
  // it is kept, exactly as it does the first slot's.
  const char *Src = "function f(o) { return o.v * 2; }"
                    "var a = {v: 1}; var b = {v: 2};"
                    "for (var i = 0; i < 10; i++) f(a);" // First slot.
                    "for (var i = 0; i < 10; i++) f(b);" // Second slot.
                    "b.v = 'x';"
                    "var r = 0;"
                    "for (var i = 0; i < 200; i++) r = f(b);"
                    "print(r);";
  Runtime Ref; // The interpreter alone.
  Ref.evaluate(Src);
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  K.LoopThreshold = 1000000; // Keep top-level code interpreted.
  K.BailoutLimit = 12;
  K.CacheDepth = 2;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate(Src);
  ASSERT_FALSE(RT.hasError());
  EXPECT_EQ(RT.output(), Ref.output());
  EXPECT_LE(E.stats().Bailouts, 12u);
}

TEST(Policy, LoopHeadDespecializationUnlinksEverySlot) {
  // f(b) fills the second slot, overflows, bails and despecializes at
  // its loop head. Afterwards nothing may keep b (and its 2,000 padding
  // objects) alive: the heap ends as small as with one slot.
  auto LiveObjectsAfter = [](uint32_t Depth) {
    Runtime RT;
    EngineKnobs K = EngineKnobs::fromEnvironment();
    K.CallThreshold = 3;
    K.CacheDepth = Depth;
    Engine E(RT, OptConfig::all(), K);
    RT.evaluate("function f(o) { var s = 0;"
                "  for (var i = 0; i < o.n; i++) s = s + i; return s; }"
                "var a = {n: 5};"
                "for (var i = 0; i < 10; i++) f(a);"
                "var b = {n: 100000, pad: []};"
                "for (var i = 0; i < 2000; i++) b.pad.push({});"
                "f(b);"
                "b = null;"
                // Dispatch boundaries: the reclaimer frees what was
                // unlinked once no frame can still run it.
                "function g() { return 0; } g(); g(); g();");
    EXPECT_FALSE(RT.hasError());
    for (int I = 0; I != 4; ++I)
      RT.heap().collect();
    return RT.heap().objectCount();
  };
  EXPECT_EQ(LiveObjectsAfter(2), LiveObjectsAfter(1));
}

TEST(Policy, ReloadedProgramsRunTheirOwnCode) {
  // One Runtime loads program after program, each with its own f. The
  // engine keys its state and table by FunctionInfo address, so an
  // earlier program's f must stay allocated: were its address reused,
  // the new f would dispatch the old f's specialized binary.
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 2;
  Engine E(RT, OptConfig::all(), K);
  std::string Expected;
  for (int I = 0; I != 60; ++I) {
    RT.evaluate("function f(x) { return x + " + std::to_string(I) + "; }"
                "var r; for (var i = 0; i < 20; i++) r = f(5); print(r);");
    ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
    Expected += std::to_string(5 + I) + "\n";
  }
  EXPECT_EQ(RT.output(), Expected);
  EXPECT_EQ(E.stats().SpecializedCompiles, 60u);
}

TEST(Policy, CompileTimeIsAccounted) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 2;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function f(x) { var s = 0;"
              "  for (var i = 0; i < x; i++) s += i; return s; }"
              "for (var i = 0; i < 10; i++) f(50);");
  ASSERT_FALSE(RT.hasError());
  EXPECT_GT(E.stats().CompileSeconds, 0.0);
}

} // namespace
