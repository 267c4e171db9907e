//===- tests/MetricsTest.cpp - Metrics registry, histograms, exporters ----===//
///
/// \file
/// The aggregation half of the observability layer: log-bucket math and
/// percentile interpolation, counter/sum saturation, the disabled-mask
/// no-op guarantee, phase self-time attribution (nested spans must not
/// double count), per-function profile merging, and a JSON snapshot
/// round-trip through the support/Json.h parser, and the engine's
/// teardown fold: every per-function count sums to its aggregate, and
/// the registry receives both under their published names.
///
//===----------------------------------------------------------------------===//

#include "telemetry/Metrics.h"

#include "jit/Engine.h"
#include "support/Json.h"
#include "vm/Runtime.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace jitvs;

namespace {

/// Resets the global registry around each test so metrics state never
/// leaks into (or out of) the rest of the suite.
class MetricsTest : public ::testing::Test {
protected:
  void SetUp() override {
    metrics().enable(false);
    metrics().reset();
  }
  void TearDown() override {
    metrics().enable(false);
    metrics().reset();
  }
};

// --- LogHistogram bucket math ----------------------------------------------

TEST_F(MetricsTest, HistogramBucketBoundaries) {
  EXPECT_EQ(LogHistogram::bucketFor(0), 0u);
  EXPECT_EQ(LogHistogram::bucketFor(1), 1u);
  EXPECT_EQ(LogHistogram::bucketFor(2), 2u);
  EXPECT_EQ(LogHistogram::bucketFor(3), 2u);
  EXPECT_EQ(LogHistogram::bucketFor(4), 3u);
  EXPECT_EQ(LogHistogram::bucketFor(1023), 10u);
  EXPECT_EQ(LogHistogram::bucketFor(1024), 11u);

  // Every value must land inside its bucket's [lo, hi] range.
  for (uint64_t V : {uint64_t(0), uint64_t(1), uint64_t(7), uint64_t(8),
                     uint64_t(1000), uint64_t(1) << 40, UINT64_MAX}) {
    size_t B = LogHistogram::bucketFor(V);
    if (B >= LogHistogram::NumBuckets)
      B = LogHistogram::NumBuckets - 1;
    EXPECT_GE(V, LogHistogram::bucketLo(B)) << "V=" << V;
    EXPECT_LE(V, LogHistogram::bucketHi(B)) << "V=" << V;
  }

  // Buckets tile the line: hi(B) + 1 == lo(B + 1).
  for (size_t B = 0; B + 2 < LogHistogram::NumBuckets; ++B)
    EXPECT_EQ(LogHistogram::bucketHi(B) + 1, LogHistogram::bucketLo(B + 1));
}

TEST_F(MetricsTest, HistogramSingleValuePercentiles) {
  LogHistogram H;
  H.record(42);
  EXPECT_EQ(H.count(), 1u);
  EXPECT_EQ(H.min(), 42u);
  EXPECT_EQ(H.max(), 42u);
  // Clamping to the observed range makes every percentile exact here.
  for (double P : {0.0, 50.0, 90.0, 99.0, 100.0})
    EXPECT_EQ(H.percentile(P), 42u) << "P=" << P;
}

TEST_F(MetricsTest, HistogramPercentileRanksAndBounds) {
  LogHistogram H;
  EXPECT_EQ(H.percentile(50), 0u); // Empty -> 0.

  for (uint64_t V = 1; V <= 1000; ++V)
    H.record(V);
  EXPECT_EQ(H.count(), 1000u);
  EXPECT_EQ(H.sum(), 500500u);
  EXPECT_EQ(H.percentile(0), 1u);
  EXPECT_EQ(H.percentile(100), 1000u);

  // Log buckets promise values exact to within 2x and monotone in P.
  uint64_t P50 = H.percentile(50), P90 = H.percentile(90),
           P99 = H.percentile(99);
  EXPECT_GE(P50, 250u);
  EXPECT_LE(P50, 1000u);
  EXPECT_GE(P90, 450u);
  EXPECT_LE(P90, 1000u);
  EXPECT_LE(P50, P90);
  EXPECT_LE(P90, P99);
  EXPECT_LE(P99, H.max());
}

TEST_F(MetricsTest, HistogramSumSaturates) {
  LogHistogram H;
  H.record(UINT64_MAX);
  H.record(10);
  EXPECT_EQ(H.sum(), UINT64_MAX); // Pegged, not wrapped.
  EXPECT_EQ(H.count(), 2u);
  EXPECT_EQ(H.max(), UINT64_MAX);
}

// --- Counters, gauges ------------------------------------------------------

TEST_F(MetricsTest, CounterSaturatesInsteadOfWrapping) {
  metrics().addCounter("sat", UINT64_MAX - 2);
  metrics().addCounter("sat", 1);
  EXPECT_EQ(metrics().counter("sat"), UINT64_MAX - 1);
  metrics().addCounter("sat", 100);
  EXPECT_EQ(metrics().counter("sat"), UINT64_MAX);
  metrics().addCounter("sat");
  EXPECT_EQ(metrics().counter("sat"), UINT64_MAX);

  EXPECT_EQ(metrics().counter("never-written"), 0u);
  metrics().setGauge("g", 2.5);
  EXPECT_DOUBLE_EQ(metrics().gauge("g"), 2.5);
  EXPECT_DOUBLE_EQ(metrics().gauge("never-written"), 0.0);
}

// --- The disabled gate -----------------------------------------------------

TEST_F(MetricsTest, DisabledTimerIsANoOp) {
  ASSERT_FALSE(metricsEnabled());
  {
    MetricsPhaseTimer T(Phase::Compile);
    MetricsPhaseTimer U(Phase::Codegen);
  }
  for (size_t I = 0; I != NumPhases; ++I)
    EXPECT_EQ(metrics().phase(static_cast<Phase>(I)).Count, 0u);
  EXPECT_EQ(metrics().totalSelfNs(), 0u);
}

TEST_F(MetricsTest, TimerLatchesEnabledStateAtConstruction) {
  metrics().enable();
  metrics().enable(false);
  // Enabling mid-span must not let the destructor pop a frame that was
  // never pushed (that would corrupt the attribution stack).
  {
    MetricsPhaseTimer T(Phase::Compile);
    metrics().enable();
  }
  EXPECT_EQ(metrics().phase(Phase::Compile).Count, 0u);

  // And the converse: a span started enabled completes even if metrics
  // are disabled before it ends.
  {
    MetricsPhaseTimer T(Phase::Compile);
    metrics().enable(false);
  }
  EXPECT_EQ(metrics().phase(Phase::Compile).Count, 1u);
}

TEST_F(MetricsTest, TimerStopEndsSpanEarlyAndOnce) {
  metrics().enable();
  {
    MetricsPhaseTimer T(Phase::Bailout);
    T.stop();
    T.stop(); // Second stop (and the destructor) must be no-ops.
    EXPECT_EQ(metrics().phase(Phase::Bailout).Count, 1u);
  }
  EXPECT_EQ(metrics().phase(Phase::Bailout).Count, 1u);
}

// --- Phase self-time attribution -------------------------------------------

TEST_F(MetricsTest, NestedPhasesAttributeSelfTimeExactly) {
  metrics().enable();
  metrics().enterPhase(Phase::Script);
  metrics().enterPhase(Phase::Interpret);
  // Do a little real work so the spans have nonzero width.
  volatile uint64_t Sink = 0;
  for (int I = 0; I != 100000; ++I)
    Sink = Sink + static_cast<uint64_t>(I) * 7;
  metrics().exitPhase(Phase::Interpret);
  metrics().exitPhase(Phase::Script);

  const Metrics::PhaseStat &S = metrics().phase(Phase::Script);
  const Metrics::PhaseStat &I = metrics().phase(Phase::Interpret);
  EXPECT_EQ(S.Count, 1u);
  EXPECT_EQ(I.Count, 1u);
  // With a single child the arithmetic is exact, not approximate:
  // script self = script inclusive - interpret inclusive.
  EXPECT_EQ(S.SelfNs + I.TotalNs, S.TotalNs);
  EXPECT_EQ(I.SelfNs, I.TotalNs); // Leaf phase: all time is self.
  EXPECT_LE(I.TotalNs, S.TotalNs);
  EXPECT_EQ(S.SpanNs.count(), 1u);
  EXPECT_EQ(S.SpanNs.max(), S.TotalNs);
}

TEST_F(MetricsTest, UnbalancedExitsAreDropped) {
  metrics().enable();
  metrics().exitPhase(Phase::GC); // Empty stack: must not crash.
  metrics().enterPhase(Phase::Compile);
  metrics().exitPhase(Phase::GC); // Mismatch: dropped, frame consumed.
  EXPECT_EQ(metrics().phase(Phase::GC).Count, 0u);
  EXPECT_EQ(metrics().phase(Phase::Compile).Count, 0u);
}

// --- Per-function profiles -------------------------------------------------

TEST_F(MetricsTest, FunctionProfilesMergeAndSort) {
  metrics().enable();
  Metrics::FunctionMetrics Tick;
  Tick.Ticks = 1;
  metrics().mergeFunction("hot", Tick);
  metrics().mergeFunction("hot", Tick);
  metrics().mergeFunction("cold", Tick);

  Metrics::FunctionMetrics Delta;
  Delta.Compiles = 2;
  Delta.CompileNs = 5000;
  Delta.NativeRuns = 10;
  Delta.Bailouts = 2;
  metrics().mergeFunction("hot", Delta);
  metrics().mergeFunction("hot", Delta);

  const auto &Funcs = metrics().functions();
  ASSERT_TRUE(Funcs.count("hot"));
  EXPECT_EQ(Funcs.at("hot").Ticks, 2u);
  EXPECT_EQ(Funcs.at("hot").Compiles, 4u);
  EXPECT_EQ(Funcs.at("hot").CompileNs, 10000u);
  EXPECT_DOUBLE_EQ(Funcs.at("hot").guardFailRate(), 4.0 / 20.0);
  EXPECT_DOUBLE_EQ(Funcs.at("cold").guardFailRate(), 0.0);

  auto Sorted = metrics().functionsByTicks();
  ASSERT_EQ(Sorted.size(), 2u);
  EXPECT_EQ(Sorted[0].first, "hot");
  EXPECT_EQ(Sorted[1].first, "cold");
}

TEST_F(MetricsTest, TickTiesSortByNameNotCompileTime) {
  metrics().enable();
  Metrics::FunctionMetrics Slow, Fast;
  Slow.Ticks = Fast.Ticks = 1;
  Slow.CompileNs = 9000;
  Fast.CompileNs = 10;
  // "expand" compiled faster than "TimeFunc"; equal ticks must still
  // list them by name, whatever the clock read.
  metrics().mergeFunction("expand", Fast);
  metrics().mergeFunction("TimeFunc", Slow);
  auto Sorted = metrics().functionsByTicks();
  ASSERT_EQ(Sorted.size(), 2u);
  EXPECT_EQ(Sorted[0].first, "TimeFunc");
  EXPECT_EQ(Sorted[1].first, "expand");

  metrics().reset();
  metrics().enable();
  metrics().mergeFunction("expand", Slow);
  metrics().mergeFunction("TimeFunc", Fast);
  Sorted = metrics().functionsByTicks();
  ASSERT_EQ(Sorted.size(), 2u);
  EXPECT_EQ(Sorted[0].first, "TimeFunc");
  EXPECT_EQ(Sorted[1].first, "expand");
}

// --- Snapshot round-trip through the JSON parser ---------------------------

TEST_F(MetricsTest, JsonSnapshotRoundTrips) {
  metrics().enable();
  metrics().addCounter("engine.compilations", 3);
  metrics().setGauge("engine.compile_seconds", 0.25);
  metrics().recordPass("GVN", 1500);
  metrics().enterPhase(Phase::Compile);
  metrics().exitPhase(Phase::Compile);
  Metrics::FunctionMetrics Delta;
  Delta.Ticks = 1;
  Delta.Bailouts = 1;
  metrics().mergeFunction("f \"quoted\"\n", Delta); // Escaping must survive.

  std::ostringstream SS;
  metrics().writeJson(SS);

  std::string Err;
  auto Doc = json::parse(SS.str(), &Err);
  ASSERT_TRUE(Doc) << Err;
  ASSERT_TRUE(Doc->isObject());
  ASSERT_TRUE(Doc->get("schema"));
  EXPECT_EQ(Doc->get("schema")->Str, Metrics::JsonSchema);

  const json::Value *Counters = Doc->get("counters");
  ASSERT_TRUE(Counters && Counters->isObject());
  ASSERT_TRUE(Counters->get("engine.compilations"));
  EXPECT_DOUBLE_EQ(Counters->get("engine.compilations")->Num, 3.0);

  const json::Value *Phases = Doc->get("phases");
  ASSERT_TRUE(Phases && Phases->isArray());
  ASSERT_EQ(Phases->Arr.size(), 1u); // Only non-empty phases appear.
  EXPECT_EQ(Phases->Arr[0].get("phase")->Str, "compile");
  EXPECT_TRUE(Phases->Arr[0].get("spans")->get("p50Ns"));

  const json::Value *Passes = Doc->get("passes");
  ASSERT_TRUE(Passes && Passes->isArray());
  ASSERT_EQ(Passes->Arr.size(), 1u);
  EXPECT_EQ(Passes->Arr[0].get("pass")->Str, "GVN");

  const json::Value *Funcs = Doc->get("functions");
  ASSERT_TRUE(Funcs && Funcs->isArray());
  ASSERT_EQ(Funcs->Arr.size(), 1u);
  EXPECT_EQ(Funcs->Arr[0].get("name")->Str, "f \"quoted\"\n");
  EXPECT_DOUBLE_EQ(Funcs->Arr[0].get("bailouts")->Num, 1.0);
}

TEST_F(MetricsTest, PrometheusExposition) {
  metrics().enable();
  metrics().addCounter("engine.bailouts", 7);
  metrics().enterPhase(Phase::GC);
  metrics().exitPhase(Phase::GC);

  std::ostringstream SS;
  metrics().writePrometheus(SS);
  std::string Out = SS.str();
  EXPECT_NE(Out.find("# TYPE jitvs_counter_total counter"),
            std::string::npos);
  EXPECT_NE(Out.find("jitvs_counter_total{name=\"engine.bailouts\"} 7"),
            std::string::npos);
  EXPECT_NE(Out.find("jitvs_phase_spans_total{phase=\"gc\"} 1"),
            std::string::npos);
  EXPECT_NE(Out.find("quantile=\"0.99\""), std::string::npos);
}

// --- End-to-end: a script run populates the registry -----------------------

TEST_F(MetricsTest, ScriptRunPopulatesPhasesAndTicks) {
  metrics().enable();
  {
    Runtime RT;
    RT.evaluate("function f(x) { return x + 1; }"
                "var s = 0; for (var i = 0; i < 10; i++) s = f(s);");
    ASSERT_FALSE(RT.hasError());
  } // Ticks are folded in when the Runtime goes away.
  EXPECT_EQ(metrics().phase(Phase::Script).Count, 1u);
  EXPECT_GE(metrics().phase(Phase::Interpret).Count, 1u);
  ASSERT_TRUE(metrics().functions().count("f"));
  EXPECT_EQ(metrics().functions().at("f").Ticks, 10u);
}

// --- End-to-end: an engine folds its counts in at teardown ------------------

TEST_F(MetricsTest, FunctionDespecializationsCountEveryLoss) {
  metrics().enable();
  EngineKnobs Knobs;
  Knobs.Policy = TierPolicy::Tiered;
  Knobs.LoopThreshold = 1000000; // Keep top-level code interpreted.
  Runtime RT;
  {
    Engine E(RT, OptConfig::all(), Knobs);
    // One value, then new values of the same tag (value -> type), then
    // a new tag (type -> generic): two losses of specialized code.
    RT.evaluate("function f(x) { return x + 1; }"
                "for (var i = 0; i < 50; i++) f(1);"
                "for (var i = 0; i < 50; i++) f(i);"
                "for (var i = 0; i < 50; i++) f('a' + i);");
    ASSERT_FALSE(RT.hasError());
    EXPECT_EQ(E.stats().Despecializations, 2u);
  }
  EXPECT_EQ(metrics().counter("engine.despecializations"), 2u);
  EXPECT_EQ(metrics().functions().at("f").Despecializations, 2u);
}

/// On every suite program, each per-function count sums to the
/// aggregate it splits; after teardown the registry holds the aggregates
/// under their published names.
TEST_F(MetricsTest, EngineCountStoresAgree) {
  metrics().enable();
  for (TierPolicy Policy : {TierPolicy::Paper, TierPolicy::Tiered}) {
    SCOPED_TRACE(tierPolicyName(Policy));
    metrics().reset();
    EngineKnobs Knobs;
    Knobs.Policy = Policy;
    EngineStats Sum;
    uint64_t Insertions = 0;
    for (const Workload &W : allWorkloads()) {
      SCOPED_TRACE(W.Name);
      Runtime RT;
      auto E = std::make_unique<Engine>(RT, OptConfig::all(), Knobs);
      RT.evaluate(W.Source);
      ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
      const EngineStats &S = E->stats();
      Engine::FunctionReport R;
      for (const Engine::FunctionReport &F : E->functionReports()) {
        R.Compiles += F.Compiles;
        R.Bailouts += F.Bailouts;
        R.ValueTierHits += F.ValueTierHits;
        R.TypeTierHits += F.TypeTierHits;
        R.TierTransitions += F.TierTransitions;
        R.Despecializations += F.Despecializations;
        R.NativeRuns += F.NativeRuns;
      }
      EXPECT_EQ(R.Compiles, S.Compilations);
      EXPECT_EQ(R.Bailouts, S.Bailouts);
      EXPECT_EQ(R.ValueTierHits, S.ValueTierHits);
      EXPECT_EQ(R.TypeTierHits, S.TypeTierHits);
      EXPECT_EQ(R.TierTransitions,
                S.TierDemotionsValueToType + S.TierDemotionsToGeneric);
      EXPECT_EQ(R.Despecializations, S.Despecializations);
      EXPECT_EQ(R.NativeRuns, S.NativeCalls + S.OsrEntries);
      Sum.SpecializedCompiles += S.SpecializedCompiles;
      Sum.Despecializations += S.Despecializations;
      for (size_t I = 0; I != NumBailoutReasons; ++I)
        Sum.BailoutsByReason[I] += S.BailoutsByReason[I];
      Insertions += E->codeCache()->stats().Insertions;
      E.reset();
    }
    auto Reason = [&Sum](BailoutReason B) {
      return Sum.BailoutsByReason[static_cast<size_t>(B)];
    };
    EXPECT_GT(Reason(BailoutReason::IntOverflow), 0u);
    EXPECT_GT(Insertions, 0u);
    EXPECT_EQ(metrics().counter("engine.compiles.specialized"),
              Sum.SpecializedCompiles);
    EXPECT_EQ(metrics().counter("engine.bailouts.int-overflow"),
              Reason(BailoutReason::IntOverflow));
    EXPECT_EQ(metrics().counter("engine.bailouts.type-guard"),
              Reason(BailoutReason::TypeGuard));
    EXPECT_EQ(metrics().counter("engine.code_cache.insertions"), Insertions);
    uint64_t FunctionDespecializations = 0;
    for (const auto &[Name, FM] : metrics().functions())
      FunctionDespecializations += FM.Despecializations;
    EXPECT_EQ(FunctionDespecializations, Sum.Despecializations);
    EXPECT_EQ(metrics().counter("engine.despecializations"),
              Sum.Despecializations);
  }
}

} // namespace
