//===- tests/TierPolicyTest.cpp - The specialization-tier ladder ----------===//
///
/// \file
/// The adaptive value -> type -> generic ladder (DESIGN.md
/// "Specialization tiers"): per-parameter demotion on misses, the
/// generic fallback as the only path to NeverSpecialize, the initial
/// tier choice from the engine's own argument records, the cache-hit
/// tier split, and differential runs against the paper policy and the
/// interpreter.
///
//===----------------------------------------------------------------------===//

#include "jit/Engine.h"
#include "telemetry/Telemetry.h"
#include "vm/Bytecode.h"
#include "vm/Runtime.h"

#include <gtest/gtest.h>

using namespace jitvs;

namespace {

/// Engine with thresholds tuned so only user functions JIT (top-level
/// loops stay interpreted and out of the stats).
struct TieredFixture {
  static EngineKnobs knobs() {
    EngineKnobs K = EngineKnobs::fromEnvironment();
    K.Policy = TierPolicy::Tiered;
    K.CallThreshold = 5;
    K.LoopThreshold = 100000;
    return K;
  }

  Runtime RT;
  Engine E{RT, OptConfig::all(), knobs()};
};

TEST(TierPolicy, DefaultPolicyIsPaper) {
  Runtime RT;
  Engine E(RT, OptConfig::all());
  EXPECT_EQ(E.knobs().Policy, TierPolicy::Paper);
}

TEST(TierPolicy, ValueMismatchDemotesToTypeTier) {
  TieredFixture F;
  F.RT.evaluate("function f(x) { return x * 2; }"
                "for (var i = 0; i < 10; i++) f(1);" // Specialize on 1.
                "f(2);" // Same tag, new value: value -> type.
                "for (var i = 0; i < 50; i++) f(3);" // Hits the type tier.
                "print(f(4));");
  ASSERT_FALSE(F.RT.hasError());
  EXPECT_EQ(F.RT.output(), "8\n");
  EXPECT_EQ(F.E.stats().Despecializations, 1u);
  EXPECT_EQ(F.E.stats().TierDemotionsValueToType, 1u);
  EXPECT_EQ(F.E.stats().TierDemotionsToGeneric, 0u);
  EXPECT_EQ(F.E.stats().GenericFallbacks, 0u);
  // The demotion recompiled specialized (type tier), not generic.
  EXPECT_EQ(F.E.stats().SpecializedCompiles, 2u);
  EXPECT_EQ(F.E.stats().GenericCompiles, 0u);
  EXPECT_GE(F.E.stats().TypeTierHits, 50u);

  bool Saw = false;
  for (const Engine::FunctionReport &R : F.E.functionReports()) {
    if (R.Name != "f")
      continue;
    Saw = true;
    EXPECT_TRUE(R.WasSpecialized);
    EXPECT_GT(R.Despecializations, 0u);
    EXPECT_EQ(R.Cause, DespecializeCause::ValueMismatch);
    EXPECT_GE(R.TypeTierHits, 50u);
  }
  EXPECT_TRUE(Saw);
}

TEST(TierPolicy, TypeMismatchFallsBackToGeneric) {
  TieredFixture F;
  F.RT.evaluate("function f(x) { return x * 2; }"
                "for (var i = 0; i < 10; i++) f(1);" // Specialize on 1.
                "var r = f(0.5);" // New tag: value -> generic fallback.
                "for (var i = 0; i < 20; i++) f(1);" // Must NOT respecialize.
                "print(r);");
  ASSERT_FALSE(F.RT.hasError());
  EXPECT_EQ(F.RT.output(), "1\n");
  EXPECT_EQ(F.E.stats().Despecializations, 1u);
  EXPECT_EQ(F.E.stats().TierDemotionsToGeneric, 1u);
  EXPECT_EQ(F.E.stats().GenericFallbacks, 1u);
  // NeverSpecialize: the original argument set returns, yet only the one
  // specialized compile ever happened.
  EXPECT_EQ(F.E.stats().SpecializedCompiles, 1u);
  EXPECT_EQ(F.E.stats().GenericCompiles, 1u);
  EXPECT_EQ(F.E.stats().TypeTierHits, 0u);

  for (const Engine::FunctionReport &R : F.E.functionReports()) {
    if (R.Name == "f") {
      EXPECT_EQ(R.Cause, DespecializeCause::TypeMismatch);
    }
  }
}

TEST(TierPolicy, ValueDemotionDoesNotSetNeverSpecialize) {
  TieredFixture F;
  // After the value -> type demotion, every later call carries a fresh
  // value of the same tag. Under the paper policy this function would be
  // generic forever; under the ladder the type-tier binary keeps hitting
  // and no further despecialization happens.
  F.RT.evaluate("function f(x) { return x + 1; }"
                "for (var i = 0; i < 10; i++) f(1);"
                "var s = 0;"
                "for (var i = 0; i < 60; i++) s = s + f(i);"
                "print(s);");
  ASSERT_FALSE(F.RT.hasError());
  EXPECT_EQ(F.RT.output(), "1830\n");
  EXPECT_EQ(F.E.stats().Despecializations, 1u);
  EXPECT_EQ(F.E.stats().GenericFallbacks, 0u);
  EXPECT_EQ(F.E.stats().SpecializedCompiles, 2u);
  EXPECT_GE(F.E.stats().TypeTierHits, 55u);
}

TEST(TierPolicy, FullLadderDescent) {
  TieredFixture F;
  F.RT.evaluate("function f(x) { return x * 2; }"
                "for (var i = 0; i < 10; i++) f(1);" // Value tier.
                "f(2);"   // value -> type.
                "for (var i = 0; i < 10; i++) f(3);"
                "f(0.5);" // type -> generic: ladder exhausted.
                "for (var i = 0; i < 30; i++) f(9);" // Stays generic.
                "print(f(6));");
  ASSERT_FALSE(F.RT.hasError());
  EXPECT_EQ(F.RT.output(), "12\n");
  EXPECT_EQ(F.E.stats().Despecializations, 2u);
  EXPECT_EQ(F.E.stats().TierDemotionsValueToType, 1u);
  EXPECT_EQ(F.E.stats().TierDemotionsToGeneric, 1u);
  EXPECT_EQ(F.E.stats().GenericFallbacks, 1u);
  EXPECT_EQ(F.E.stats().SpecializedCompiles, 2u);

  for (const Engine::FunctionReport &R : F.E.functionReports()) {
    if (R.Name == "f") {
      EXPECT_EQ(R.Cause, DespecializeCause::TypeMismatch);
    }
  }
}

TEST(TierPolicy, ArityChangeRecordsOneTransitionPerEntry) {
  telemetry().configure(TelCache, Telemetry::DefaultCapacity);
  telemetry().clear();
  TieredFixture F;
  // f is specialized on two arguments; a call with one cannot reuse any
  // per-parameter fact, so both signature entries demote to generic.
  F.RT.evaluate("function f(a, b) { return a; }"
                "for (var i = 0; i < 10; i++) f(1, 2);"
                "print(f(1));");
  std::vector<TelemetryEvent> Events = telemetry().events();
  telemetry().configure(0);
  telemetry().clear();
  ASSERT_FALSE(F.RT.hasError());
  EXPECT_EQ(F.RT.output(), "1\n");
  EXPECT_EQ(F.E.stats().TierDemotionsToGeneric, 2u);
  EXPECT_EQ(F.E.stats().GenericFallbacks, 1u);

  bool Saw = false;
  for (const Engine::FunctionReport &R : F.E.functionReports()) {
    if (R.Name != "f")
      continue;
    Saw = true;
    EXPECT_EQ(R.TierTransitions, 2u);
    EXPECT_EQ(R.Cause, DespecializeCause::TypeMismatch);
  }
  EXPECT_TRUE(Saw);

  size_t Transitions = 0;
  for (const TelemetryEvent &E : Events)
    if (E.Kind == TelemetryEventKind::TierTransition &&
        std::string(E.Func) == "f") {
      EXPECT_STREQ(E.Detail, "arity->generic");
      ++Transitions;
    }
  EXPECT_EQ(Transitions, 2u);
}

TEST(TierPolicy, HitSplitSumsToCacheHits) {
  TieredFixture F;
  F.RT.evaluate("function f(x) { return x * 2; }"
                "function g(x) { return x + 1; }"
                "for (var i = 0; i < 20; i++) { f(1); g(7); }"
                "f(2);"
                "for (var i = 0; i < 20; i++) f(i);"
                "print('ok');");
  ASSERT_FALSE(F.RT.hasError());
  const EngineStats &S = F.E.stats();
  EXPECT_EQ(S.ValueTierHits + S.TypeTierHits, S.CacheHits);
  EXPECT_GT(S.ValueTierHits, 0u); // g's stable arg set.
  EXPECT_GT(S.TypeTierHits, 0u);  // f after the demotion.
  uint64_t ValueHits = 0, TypeHits = 0;
  for (const Engine::FunctionReport &R : F.E.functionReports()) {
    ValueHits += R.ValueTierHits;
    TypeHits += R.TypeTierHits;
  }
  EXPECT_EQ(ValueHits, S.ValueTierHits);
  EXPECT_EQ(TypeHits, S.TypeTierHits);
}

TEST(TierPolicy, PaperModeCountsAllHitsAsValueTier) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 5;
  K.LoopThreshold = 100000;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function f(x) { return x + 1; }"
              "for (var i = 0; i < 30; i++) f(1);");
  ASSERT_FALSE(RT.hasError());
  EXPECT_GT(E.stats().CacheHits, 0u);
  EXPECT_EQ(E.stats().TypeTierHits, 0u);
  EXPECT_EQ(E.stats().ValueTierHits, E.stats().CacheHits);
}

// The worked example from DESIGN.md: a higher-order map whose callback
// flips identity every iteration. The paper policy despecializes map to
// generic on the first flip; the ladder demotes only the callback
// parameter to the type tier (both callbacks are Functions) and keeps a
// specialized binary. All policies must agree with the interpreter.
const char *FlippingClosureSrc =
    "function map(f, a) {"
    "  var r = [];"
    "  for (var i = 0; i < a.length; i++) r[i] = f(a[i]);"
    "  return r; }"
    "function inc(x) { return x + 1; }"
    "function dec(x) { return x - 1; }"
    "var a = [];"
    "for (var i = 0; i < 40; i++) a[i] = i;"
    "var s = 0;"
    "for (var t = 0; t < 30; t++) {"
    "  var f; if (t % 2 == 0) f = inc; else f = dec;"
    "  var m = map(f, a);"
    "  s = s + m[t % 40]; }"
    "print(s);";

TEST(TierPolicy, DifferentialFlippingClosure) {
  Runtime Ref; // Pure interpreter.
  Ref.evaluate(FlippingClosureSrc);
  ASSERT_FALSE(Ref.hasError());

  for (TierPolicy P : {TierPolicy::Paper, TierPolicy::Tiered}) {
    Runtime RT;
    EngineKnobs K = EngineKnobs::fromEnvironment();
    K.Policy = P;
    K.CallThreshold = 5;
    Engine E(RT, OptConfig::all(), K);
    RT.evaluate(FlippingClosureSrc);
    ASSERT_FALSE(RT.hasError()) << tierPolicyName(P);
    EXPECT_EQ(RT.output(), Ref.output()) << tierPolicyName(P);
    if (P == TierPolicy::Tiered) {
      // Warm-up saw both callbacks (one Function tag), so the first
      // compile already puts f on the type tier: no miss to demote.
      EXPECT_EQ(E.stats().Despecializations, 0u);
      EXPECT_EQ(E.stats().GenericFallbacks, 0u);
      EXPECT_GT(E.stats().TypeTierHits, 0u);
    }
  }
}

TEST(TierPolicy, DifferentialTypeFlip) {
  const char *Src = "function f(x) { return x * 3 - 1; }"
                    "var s = 0;"
                    "for (var i = 0; i < 40; i++) s = s + f(i);"
                    "for (var i = 0; i < 40; i++) s = s + f(i + 0.5);"
                    "print(s);";
  Runtime Ref;
  Ref.evaluate(Src);
  ASSERT_FALSE(Ref.hasError());
  for (TierPolicy P : {TierPolicy::Paper, TierPolicy::Tiered}) {
    Runtime RT;
    EngineKnobs K = EngineKnobs::fromEnvironment();
    K.Policy = P;
    K.CallThreshold = 5;
    K.LoopThreshold = 100000;
    Engine E(RT, OptConfig::all(), K);
    RT.evaluate(Src);
    ASSERT_FALSE(RT.hasError()) << tierPolicyName(P);
    EXPECT_EQ(RT.output(), Ref.output()) << tierPolicyName(P);
  }
}

// --- Initial tier choice from the engine's argument records ---

TEST(TierPolicy, StartsUnstableParamAtTypeTier) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.Policy = TierPolicy::Tiered;
  K.CallThreshold = 32; // Let warm-up see the value churn first.
  K.LoopThreshold = 100000;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function g(x) { return x + 1; }"
              "var s = 0;"
              "for (var i = 0; i < 200; i++) s = g(i);"
              "print(s);");
  ASSERT_FALSE(RT.hasError());
  EXPECT_EQ(RT.output(), "200\n");
  // Warm-up showed one tag but many values, so the first compile
  // already sits on the type tier: no value baking, no demotions.
  EXPECT_EQ(E.stats().Despecializations, 0u);
  EXPECT_EQ(E.stats().TierDemotionsValueToType, 0u);
  EXPECT_EQ(E.stats().ValueTierHits, 0u);
  EXPECT_GT(E.stats().TypeTierHits, 100u);
}

TEST(TierPolicy, KeepsStableParamAtValueTier) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.Policy = TierPolicy::Tiered;
  K.CallThreshold = 32;
  K.LoopThreshold = 100000;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function g(x) { return x + 1; }"
              "var s = 0;"
              "for (var i = 0; i < 200; i++) s = g(5);"
              "print(s);");
  ASSERT_FALSE(RT.hasError());
  EXPECT_EQ(RT.output(), "6\n");
  EXPECT_EQ(E.stats().Despecializations, 0u);
  EXPECT_EQ(E.stats().TypeTierHits, 0u);
  EXPECT_GT(E.stats().ValueTierHits, 100u);
}

TEST(TierPolicy, SkipsLadderForMixedTagParam) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.Policy = TierPolicy::Tiered;
  K.CallThreshold = 32;
  K.LoopThreshold = 100000;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function g(x) { return x + 1; }"
              "var s = 0;"
              "for (var i = 0; i < 200; i++) {"
              "  if (i % 2 == 0) s = g(i); else s = g(i + 0.5); }"
              "print(s);");
  ASSERT_FALSE(RT.hasError());
  // Two tags and many values: nothing stable to assume, so the ladder is
  // skipped entirely — one generic compile, no specialization, and
  // crucially no despecialization churn.
  EXPECT_EQ(E.stats().SpecializedCompiles, 0u);
  EXPECT_EQ(E.stats().CacheHits, 0u);
  EXPECT_EQ(E.stats().Despecializations, 0u);
}

/// Runs \p Src on a tiered engine (call threshold 8) with the given
/// ValueStabilityMax; warm-up is the first seven calls.
EngineStats runWithStabilityMax(uint32_t Max, const char *Src,
                                const char *Expected) {
  EngineKnobs K;
  K.Policy = TierPolicy::Tiered;
  K.CallThreshold = 8;
  K.LoopThreshold = 100000;
  K.ValueStabilityMax = Max;
  Runtime RT;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate(Src);
  EXPECT_FALSE(RT.hasError());
  EXPECT_EQ(RT.output(), Expected);
  return E.stats();
}

TEST(TierPolicy, ParamThatSawStabilityMaxValuesStartsAtValueTier) {
  // Warm-up passes 1 then 2; every later call passes 2.
  const char *Src = "function g(x) { return x + 1; }"
                    "var s = 0;"
                    "for (var i = 0; i < 200; i++) s = g(i < 3 ? 1 : 2);"
                    "print(s);";
  EngineStats S = runWithStabilityMax(2, Src, "3\n");
  EXPECT_EQ(S.Despecializations, 0u);
  EXPECT_EQ(S.TypeTierHits, 0u);
  EXPECT_GT(S.ValueTierHits, 100u);
  // The same warm-up is value-unstable under the default of one value.
  S = runWithStabilityMax(1, Src, "3\n");
  EXPECT_EQ(S.Despecializations, 0u);
  EXPECT_EQ(S.ValueTierHits, 0u);
  EXPECT_GT(S.TypeTierHits, 100u);
}

TEST(TierPolicy, ParamThatSawMoreThanStabilityMaxValuesStartsAtTypeTier) {
  // Warm-up passes 1, 2 and 3; every later call passes 3.
  EngineStats S = runWithStabilityMax(
      2,
      "function g(x) { return x + 1; }"
      "var s = 0;"
      "for (var i = 0; i < 200; i++) s = g(i < 2 ? 1 : i < 4 ? 2 : 3);"
      "print(s);",
      "4\n");
  EXPECT_EQ(S.Despecializations, 0u);
  EXPECT_EQ(S.TierDemotionsValueToType, 0u);
  EXPECT_EQ(S.ValueTierHits, 0u);
  EXPECT_GT(S.TypeTierHits, 100u);
}

TEST(TierPolicy, WarmUpObjectStaysOneValueAcrossMinorCollection) {
  TieredFixture F;
  F.RT.evaluate("function g(o) { return o.x; }"
                "var obj = {x: 5};"
                "g(obj); g(obj);"
                "gc();" // Moves obj out of the nursery mid-warm-up.
                "var s = 0;"
                "for (var i = 0; i < 200; i++) s = s + g(obj);"
                "print(s);");
  ASSERT_FALSE(F.RT.hasError());
  EXPECT_EQ(F.RT.output(), "1000\n");
  ASSERT_GE(F.RT.heap().minorCount(), 1u);
  // The record traces the object it holds, so the moved object is still
  // the one value warm-up saw (a record of addresses would count two).
  EXPECT_EQ(F.E.stats().Despecializations, 0u);
  EXPECT_EQ(F.E.stats().TypeTierHits, 0u);
  EXPECT_GT(F.E.stats().ValueTierHits, 100u);
}

} // namespace
