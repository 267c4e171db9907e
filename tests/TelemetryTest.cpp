//===- tests/TelemetryTest.cpp - Telemetry ring, filters, exporters -------===//
///
/// \file
/// The observability layer: ring-buffer wraparound, category filtering,
/// per-site bailout counters, JSON/Chrome-trace well-formedness, and the
/// end-to-end plumbing (engine -> events, bailout-reason taxonomy,
/// per-function report fields).
///
//===----------------------------------------------------------------------===//

#include "telemetry/Telemetry.h"

#include "jit/Engine.h"
#include "vm/Runtime.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <sstream>

using namespace jitvs;

namespace {

/// Resets the global recorder around each test so telemetry state never
/// leaks into (or out of) the rest of the suite.
class TelemetryTest : public ::testing::Test {
protected:
  void SetUp() override {
    telemetry().configure(0, Telemetry::DefaultCapacity);
    telemetry().setSpewMask(0);
    telemetry().clear();
  }
  void TearDown() override {
    telemetry().configure(0);
    telemetry().setSpewMask(0);
    telemetry().clear();
  }

  static TelemetryEvent bailoutAt(const char *Func, uint64_t NativePc,
                                  BailoutReason Reason) {
    TelemetryEvent E;
    E.Kind = TelemetryEventKind::Bailout;
    E.Reason = Reason;
    E.setFunc(Func);
    E.A = NativePc;
    E.B = NativePc + 100; // Arbitrary bytecode pc.
    return E;
  }
};

// --- A minimal JSON validator (structure only, no object model) ------------

class JsonValidator {
public:
  explicit JsonValidator(const std::string &S) : S(S) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return P == S.size();
  }

private:
  bool value() {
    if (P >= S.size())
      return false;
    switch (S[P]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  bool object() {
    ++P; // '{'
    skipWs();
    if (P < S.size() && S[P] == '}') {
      ++P;
      return true;
    }
    while (true) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (P >= S.size() || S[P] != ':')
        return false;
      ++P;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (P < S.size() && S[P] == ',') {
        ++P;
        continue;
      }
      break;
    }
    if (P >= S.size() || S[P] != '}')
      return false;
    ++P;
    return true;
  }

  bool array() {
    ++P; // '['
    skipWs();
    if (P < S.size() && S[P] == ']') {
      ++P;
      return true;
    }
    while (true) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (P < S.size() && S[P] == ',') {
        ++P;
        continue;
      }
      break;
    }
    if (P >= S.size() || S[P] != ']')
      return false;
    ++P;
    return true;
  }

  bool string() {
    if (P >= S.size() || S[P] != '"')
      return false;
    ++P;
    while (P < S.size() && S[P] != '"') {
      if (static_cast<unsigned char>(S[P]) < 0x20)
        return false; // Unescaped control character.
      if (S[P] == '\\') {
        ++P;
        if (P >= S.size())
          return false;
      }
      ++P;
    }
    if (P >= S.size())
      return false;
    ++P;
    return true;
  }

  bool number() {
    size_t Start = P;
    if (P < S.size() && S[P] == '-')
      ++P;
    while (P < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[P])) || S[P] == '.' ||
            S[P] == 'e' || S[P] == 'E' || S[P] == '+' || S[P] == '-'))
      ++P;
    return P > Start;
  }

  bool literal(const char *L) {
    size_t N = std::strlen(L);
    if (S.compare(P, N, L) != 0)
      return false;
    P += N;
    return true;
  }

  void skipWs() {
    while (P < S.size() && (S[P] == ' ' || S[P] == '\n' || S[P] == '\t' ||
                            S[P] == '\r'))
      ++P;
  }

  const std::string &S;
  size_t P = 0;
};

// --- Ring buffer ------------------------------------------------------------

TEST_F(TelemetryTest, RecordsNothingWhenDisabled) {
  // SetUp left the mask at 0: one-branch fast path rejects everything.
  EXPECT_FALSE(telemetryEnabled(TelCompile));
  telemetry().record(bailoutAt("f", 1, BailoutReason::IntOverflow));
  EXPECT_EQ(telemetry().size(), 0u);
  EXPECT_TRUE(telemetry().bailoutSites().empty());
}

TEST_F(TelemetryTest, RingWrapsKeepingNewestEvents) {
  telemetry().configure(TelAll, /*Capacity=*/8);
  for (uint64_t I = 0; I != 20; ++I)
    telemetry().record(bailoutAt("f", I, BailoutReason::TypeGuard));

  EXPECT_EQ(telemetry().size(), 8u);
  EXPECT_EQ(telemetry().capacity(), 8u);
  EXPECT_EQ(telemetry().dropped(), 12u);

  // Oldest-first, holding the 8 newest native pcs (12..19).
  std::vector<TelemetryEvent> Events = telemetry().events();
  ASSERT_EQ(Events.size(), 8u);
  for (size_t I = 0; I != 8; ++I)
    EXPECT_EQ(Events[I].A, 12 + I);
}

TEST_F(TelemetryTest, TimestampsAreMonotonic) {
  telemetry().configure(TelAll, 64);
  for (int I = 0; I != 10; ++I)
    telemetry().record(bailoutAt("f", 0, BailoutReason::BoundsCheck));
  std::vector<TelemetryEvent> Events = telemetry().events();
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_GE(Events[I].TimeNs, Events[I - 1].TimeNs);
}

TEST_F(TelemetryTest, LongNamesAreTruncatedNotOverflowed) {
  telemetry().configure(TelAll, 8);
  std::string Long(200, 'x');
  TelemetryEvent E = bailoutAt("f", 0, BailoutReason::Unknown);
  E.setFunc(Long);
  E.setDetail(Long);
  telemetry().record(E);
  TelemetryEvent Got = telemetry().events().at(0);
  EXPECT_EQ(std::string(Got.Func), Long.substr(0, sizeof(Got.Func) - 1));
  EXPECT_EQ(std::string(Got.Detail),
            Long.substr(0, sizeof(Got.Detail) - 1));
}

// --- Category filtering -----------------------------------------------------

TEST_F(TelemetryTest, CategoryFilterDropsUnselectedKinds) {
  telemetry().configure(TelBailout, 64);

  TelemetryEvent Compile;
  Compile.Kind = TelemetryEventKind::CompileEnd;
  Compile.setFunc("f");
  telemetry().record(Compile);
  telemetry().record(bailoutAt("f", 3, BailoutReason::IntOverflow));

  std::vector<TelemetryEvent> Events = telemetry().events();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Kind, TelemetryEventKind::Bailout);
}

TEST_F(TelemetryTest, ParseCategorySpellings) {
  EXPECT_EQ(parseTelemetryCategories(nullptr), 0u);
  EXPECT_EQ(parseTelemetryCategories(""), 0u);
  EXPECT_EQ(parseTelemetryCategories("all"), static_cast<uint32_t>(TelAll));
  EXPECT_EQ(parseTelemetryCategories("compile"),
            static_cast<uint32_t>(TelCompile));
  EXPECT_EQ(parseTelemetryCategories("compile,bailout"),
            static_cast<uint32_t>(TelCompile | TelBailout));
  EXPECT_EQ(parseTelemetryCategories("pass, osr"),
            static_cast<uint32_t>(TelPass | TelOsr));
  // Unknown words are ignored, not errors.
  EXPECT_EQ(parseTelemetryCategories("bogus,cache"),
            static_cast<uint32_t>(TelCache));
}

TEST_F(TelemetryTest, EveryKindMapsToExactlyOneCategory) {
  for (uint8_t K = 0; K <= static_cast<uint8_t>(TelemetryEventKind::BenchRun);
       ++K) {
    uint32_t Cat =
        telemetryEventCategory(static_cast<TelemetryEventKind>(K));
    EXPECT_NE(Cat, 0u);
    EXPECT_EQ(Cat & (Cat - 1), 0u); // Power of two: a single bit.
  }
}

// --- Per-site bailout counters ---------------------------------------------

TEST_F(TelemetryTest, BailoutSitesAggregateByFunctionAndPc) {
  telemetry().configure(TelBailout, 64);
  for (int I = 0; I != 5; ++I)
    telemetry().record(bailoutAt("hot", 7, BailoutReason::IntOverflow));
  telemetry().record(bailoutAt("hot", 7, BailoutReason::NegativeZero));
  telemetry().record(bailoutAt("hot", 9, BailoutReason::TypeGuard));
  telemetry().record(bailoutAt("cold", 7, BailoutReason::TypeGuard));

  std::vector<Telemetry::BailoutSite> Sites = telemetry().bailoutSites();
  ASSERT_EQ(Sites.size(), 3u);
  // Hottest first.
  EXPECT_EQ(Sites[0].Func, "hot");
  EXPECT_EQ(Sites[0].NativePc, 7u);
  EXPECT_EQ(Sites[0].Total, 6u);
  EXPECT_EQ(
      Sites[0].ByReason[static_cast<size_t>(BailoutReason::IntOverflow)],
      5u);
  EXPECT_EQ(
      Sites[0].ByReason[static_cast<size_t>(BailoutReason::NegativeZero)],
      1u);
}

// --- Exporter well-formedness ----------------------------------------------

TEST_F(TelemetryTest, JsonExportIsWellFormed) {
  telemetry().configure(TelAll, 64);
  // A spread of kinds, including strings that need escaping.
  TelemetryEvent E;
  E.Kind = TelemetryEventKind::CompileEnd;
  E.setFunc("weird\"name\\with\tescapes");
  E.setDetail("PS+CP");
  E.DurNs = 1234567;
  E.C = 99;
  telemetry().record(E);
  telemetry().record(bailoutAt("f", 3, BailoutReason::BoundsCheck));
  TelemetryEvent P;
  P.Kind = TelemetryEventKind::Pass;
  P.setFunc("f");
  P.setDetail("GVN");
  P.A = 100;
  P.B = 90;
  telemetry().record(P);

  std::ostringstream OS;
  telemetry().writeJson(OS);
  std::string Json = OS.str();
  EXPECT_TRUE(JsonValidator(Json).valid()) << Json;
  EXPECT_NE(Json.find("\"bailoutSites\""), std::string::npos);
  EXPECT_NE(Json.find("bounds-check"), std::string::npos);
}

TEST_F(TelemetryTest, ChromeTraceIsWellFormedAndCarriesSpans) {
  telemetry().configure(TelAll, 64);
  TelemetryEvent E;
  E.Kind = TelemetryEventKind::CompileEnd;
  E.setFunc("f");
  E.setDetail("PS");
  E.TimeNs = 5'000'000;
  E.DurNs = 2'000'000;
  E.A = 1;
  E.C = 42;
  telemetry().record(E);
  telemetry().record(bailoutAt("f", 3, BailoutReason::TypeGuard));

  std::ostringstream OS;
  telemetry().writeChromeTrace(OS);
  std::string Trace = OS.str();
  EXPECT_TRUE(JsonValidator(Trace).valid()) << Trace;
  EXPECT_NE(Trace.find("\"traceEvents\""), std::string::npos);
  // The compile span: complete event ("X") starting at ts=3000us
  // (stamped at span end 5ms, duration 2ms) lasting 2000us.
  EXPECT_NE(Trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Trace.find("\"ts\":3000.000"), std::string::npos);
  EXPECT_NE(Trace.find("\"dur\":2000.000"), std::string::npos);
  // The bailout: an instant event with its reason in args.
  EXPECT_NE(Trace.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(Trace.find("type-guard"), std::string::npos);
}

TEST_F(TelemetryTest, EmptyExportsAreStillValidJson) {
  telemetry().configure(TelAll, 8);
  std::ostringstream J, C;
  telemetry().writeJson(J);
  telemetry().writeChromeTrace(C);
  EXPECT_TRUE(JsonValidator(J.str()).valid()) << J.str();
  EXPECT_TRUE(JsonValidator(C.str()).valid()) << C.str();
}

// --- End-to-end: engine -> telemetry ---------------------------------------

TEST_F(TelemetryTest, EngineRunEmitsCompilePassAndBailoutEvents) {
  telemetry().configure(TelAll, 4096);

  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  Engine E(RT, OptConfig::all(), K);
  // f compiles hot (specialized on 3), then overflows on a huge operand:
  // a compile, per-pass metrics, and an int-overflow bailout must all
  // surface as events.
  RT.evaluate("function f(a) { return a * a; }"
              "for (var i = 0; i < 10; i++) f(3);"
              "print(f(100000));");
  ASSERT_FALSE(RT.hasError()) << RT.errorMessage();

  bool SawCompileStart = false, SawCompileEnd = false, SawPass = false,
       SawBailout = false;
  for (const TelemetryEvent &Ev : telemetry().events()) {
    switch (Ev.Kind) {
    case TelemetryEventKind::CompileStart:
      SawCompileStart = true;
      break;
    case TelemetryEventKind::CompileEnd:
      if (std::string(Ev.Func) == "f")
        SawCompileEnd = true;
      break;
    case TelemetryEventKind::Pass:
      SawPass = true;
      EXPECT_GT(Ev.B, 0u); // Instructions remain after every pass.
      break;
    case TelemetryEventKind::Bailout:
      SawBailout = true;
      EXPECT_EQ(Ev.Reason, BailoutReason::IntOverflow);
      break;
    default:
      break;
    }
  }
  EXPECT_TRUE(SawCompileStart);
  EXPECT_TRUE(SawCompileEnd);
  EXPECT_TRUE(SawPass);
  EXPECT_TRUE(SawBailout);

  // The taxonomy also lands in the engine's aggregate counters...
  EXPECT_GE(E.stats().Bailouts, 1u);
  EXPECT_EQ(E.stats().BailoutsByReason[static_cast<size_t>(
                BailoutReason::IntOverflow)],
            E.stats().Bailouts);
  // ...and in the per-site table.
  std::vector<Telemetry::BailoutSite> Sites = telemetry().bailoutSites();
  ASSERT_FALSE(Sites.empty());
  EXPECT_EQ(Sites[0].Func, "f");
  EXPECT_GT(Sites[0].ByReason[static_cast<size_t>(
                BailoutReason::IntOverflow)],
            0u);
}

TEST_F(TelemetryTest, StatsReasonCountersSumToTotal) {
  // Telemetry disabled: the per-reason stats must work regardless.
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  K.BailoutLimit = 4;
  Engine E(RT, OptConfig::baseline(), K);
  // Int feedback then double arguments: type-guard bailouts.
  RT.evaluate("function f(x) { return x + 1; }"
              "for (var i = 0; i < 10; i++) f(1);"
              "var r = 0;"
              "for (var i = 0; i < 20; i++) r = f(0.5);"
              "print(r);");
  ASSERT_FALSE(RT.hasError());
  EXPECT_GE(E.stats().Bailouts, 1u);
  uint64_t Sum = 0;
  for (uint64_t N : E.stats().BailoutsByReason)
    Sum += N;
  EXPECT_EQ(Sum, E.stats().Bailouts);
  EXPECT_EQ(telemetry().size(), 0u); // Disabled: nothing recorded.
}

TEST_F(TelemetryTest, FunctionReportsCarryBailoutsCacheHitsAndCause) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  K.LoopThreshold = 100000; // Keep top-level code interpreted.
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function f(x) { return x * 2; }"
              "for (var i = 0; i < 10; i++) f(1);" // Specialize, hit cache.
              "f(2);"                              // Despecialize.
              "print('done');");
  ASSERT_FALSE(RT.hasError());

  const std::vector<Engine::FunctionReport> Reports = E.functionReports();
  const Engine::FunctionReport *F = nullptr;
  for (const Engine::FunctionReport &R : Reports)
    if (R.Name == "f")
      F = &R;
  ASSERT_NE(F, nullptr);
  EXPECT_TRUE(F->WasSpecialized);
  EXPECT_GT(F->Despecializations, 0u);
  EXPECT_EQ(F->Cause, DespecializeCause::DifferentArgs);
  // Same-args calls after the compile.
  EXPECT_GT(F->ValueTierHits + F->TypeTierHits, 0u);
  EXPECT_STREQ(despecializeCauseName(F->Cause), "different-args");
}

} // namespace
