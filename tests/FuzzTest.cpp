//===- tests/FuzzTest.cpp - Differential fuzzer unit tests -----------------===//
///
/// \file
/// Unit tests for the fuzz subsystem itself: the program generator is
/// deterministic and produces terminating programs, the config matrix
/// covers the required engine configurations, the differential runner
/// detects real divergence and accepts agreement, and the minimizer
/// shrinks failing programs. A small seeded sweep runs inline as a fast
/// sanity tier below the ctest fuzz_smoke binary run.
///
//===----------------------------------------------------------------------===//

#include "fuzz/DiffRunner.h"
#include "fuzz/Minimizer.h"
#include "fuzz/ProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace jitvs;
using namespace jitvs::fuzz;

namespace {

TEST(FuzzGen, SameSeedSameProgram) {
  for (uint64_t Seed : {1ull, 7ull, 42ull, 1000003ull}) {
    FuzzProgram A = generateProgram(Seed);
    FuzzProgram B = generateProgram(Seed);
    EXPECT_EQ(A.render(), B.render()) << "seed " << Seed;
    EXPECT_GT(A.statementCount(), 0u);
  }
}

TEST(FuzzGen, DifferentSeedsDiffer) {
  // Not a hard guarantee for any two seeds, but across a handful the
  // generator must not collapse to one program.
  std::set<std::string> Sources;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed)
    Sources.insert(generateProgram(Seed).render());
  EXPECT_GT(Sources.size(), 6u);
}

TEST(FuzzGen, ProgramsRunUnderTheInterpreter) {
  // Every generated program terminates and leaves the runtime healthy.
  // (Thrown errors are allowed — they are part of the observable
  // surface — but these seeds happen to run clean.)
  EngineSetup Interp;
  Interp.Name = "interp";
  Interp.UseJit = false;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    FuzzProgram P = generateProgram(Seed);
    RunOutcome O = runOnce(P.render(), Interp);
    EXPECT_FALSE(O.Output.empty()) << "seed " << Seed
                                   << " printed nothing:\n"
                                   << P.render();
  }
}

TEST(FuzzMatrix, CoversRequiredConfigurations) {
  std::vector<EngineSetup> M = defaultMatrix();
  // ISSUE acceptance: at least 6 engine configs (plus the reference).
  ASSERT_GE(M.size(), 7u);
  EXPECT_FALSE(M[0].UseJit); // Reference first.

  std::set<std::string> Names;
  bool SawTiered = false, SawPaper = false;
  bool SawFusionOff = false, SawFusionOn = false;
  bool SawSwitch = false, SawThreaded = false;
  bool SawBaselineOpt = false, SawFullOpt = false;
  for (const EngineSetup &S : M) {
    EXPECT_TRUE(Names.insert(S.Name).second) << "duplicate " << S.Name;
    if (!S.UseJit)
      continue;
    (S.Knobs.Policy == TierPolicy::Tiered ? SawTiered : SawPaper) = true;
    (S.Knobs.Fusion ? SawFusionOn : SawFusionOff) = true;
    (S.Knobs.Dispatch == DispatchMode::Switch ? SawSwitch : SawThreaded) =
        true;
    (S.Opt.ParameterSpecialization ? SawFullOpt : SawBaselineOpt) = true;
  }
  EXPECT_TRUE(SawTiered && SawPaper);
  EXPECT_TRUE(SawFusionOff && SawFusionOn);
  EXPECT_TRUE(SawSwitch && SawThreaded);
  EXPECT_TRUE(SawBaselineOpt && SawFullOpt);
}

TEST(FuzzDiff, AgreementOnAKnownGoodProgram) {
  DiffResult R = runMatrix("function f(a, b) { return a * b + 1; }"
                           "var s = 0;"
                           "for (var i = 0; i < 50; i = i + 1) {"
                           "  s = (s + f(i, 3)) % 1000003;"
                           "}"
                           "print(s, 1 / s, typeof s);",
                           defaultMatrix());
  EXPECT_FALSE(R.diverged());
}

TEST(FuzzDiff, DetectsOutputDivergence) {
  // Two hand-built setups whose observable behavior genuinely differs:
  // nothing in the real engine diverges by design, so fake it with the
  // same engine but a program reading engine-dependent state is not
  // available either — instead diff two *different sources* is not
  // possible through the API. So assert the mechanics directly on
  // RunOutcome.
  RunOutcome A, B;
  A.Output = "1\n";
  B.Output = "2\n";
  EXPECT_FALSE(A.sameObservable(B));
  B = A;
  EXPECT_TRUE(A.sameObservable(B));
  B.HadError = true;
  B.Error = "boom";
  EXPECT_FALSE(A.sameObservable(B));
  B = A;
  B.Completion = "-0";
  EXPECT_FALSE(A.sameObservable(B));
}

TEST(FuzzDiff, DivergenceReportCarriesSeedAndTelemetry) {
  Divergence D;
  D.ConfigName = "paper-all";
  // Move-assigned: GCC 12 -O3 misreports the const char * assignment as
  // a read of uninitialized memory (-Wmaybe-uninitialized).
  D.Reference.Output = std::string("1\n");
  D.Actual.Output = std::string("2\n");
  D.Actual.Stats.Compilations = 3;
  std::string Report = describeDivergence(D, 12345, "print(1);");
  EXPECT_NE(Report.find("12345"), std::string::npos);
  EXPECT_NE(Report.find("paper-all"), std::string::npos);
  EXPECT_NE(Report.find("print(1);"), std::string::npos);
  EXPECT_NE(Report.find("--seed"), std::string::npos);
}

TEST(FuzzMinimize, ShrinksToTheFailingStatement) {
  // Oracle: "still fails" iff the magic statement survives. The
  // minimizer must strip every other unit and statement.
  FuzzProgram P;
  P.Units.push_back({"function f0(a) {", {"return a;", "}"}, ""});
  P.Units.push_back(
      {"", {"var x = 1;", "print('MAGIC');", "var y = 2;", "print(y);"}, ""});
  P.Units.push_back({"", {"print('tail');"}, ""});
  size_t Calls = 0;
  FuzzProgram Min = minimize(P, [&](const std::string &Source) {
    ++Calls;
    return Source.find("MAGIC") != std::string::npos;
  });
  EXPECT_GT(Calls, 0u);
  EXPECT_EQ(Min.statementCount(), 1u);
  EXPECT_NE(Min.render().find("MAGIC"), std::string::npos);
  EXPECT_EQ(Min.render().find("tail"), std::string::npos);
}

TEST(FuzzMinimize, KeepsEverythingWhenAllLoadBearing) {
  FuzzProgram P;
  P.Units.push_back({"", {"var x = 1;", "print(x);"}, ""});
  FuzzProgram Min = minimize(P, [](const std::string &Source) {
    // Fails only with both statements present.
    return Source.find("var x") != std::string::npos &&
           Source.find("print(x)") != std::string::npos;
  });
  EXPECT_EQ(Min.statementCount(), 2u);
}

TEST(FuzzSweep, FirstSeedsAgreeAcrossTheMatrix) {
  // A miniature inline sweep (the 2000-program smoke tier runs as the
  // separate fuzz_smoke ctest via the jitvs_fuzz binary).
  std::vector<EngineSetup> M = defaultMatrix();
  for (uint64_t Seed = 1; Seed <= 15; ++Seed) {
    FuzzProgram P = generateProgram(Seed);
    DiffResult R = runMatrix(P.render(), M);
    EXPECT_FALSE(R.diverged())
        << "seed " << Seed << " diverged under "
        << (R.Divergences.empty() ? "?" : R.Divergences[0].ConfigName)
        << "\n"
        << describeDivergence(R.Divergences[0], Seed, P.render());
  }
}

TEST(FuzzSweep, TieredCache2StartsSomeFirstCompilesBelowValueTier) {
  // The column's ValueStabilityMax = 2 must reach the engine: some
  // generated program's warm-up is value-unstable, so its first compile
  // already sits on the type tier and hits there without any demotion.
  std::vector<EngineSetup> M = defaultMatrix();
  auto Col = std::find_if(M.begin(), M.end(), [](const EngineSetup &S) {
    return S.Name == "tiered-cache2";
  });
  ASSERT_NE(Col, M.end());
  unsigned BelowValueTier = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    RunOutcome O = runOnce(generateProgram(Seed).render(), *Col);
    if (O.Stats.TypeTierHits > 0 && O.Stats.TierDemotionsValueToType == 0 &&
        O.Stats.TierDemotionsToGeneric == 0)
      ++BelowValueTier;
  }
  EXPECT_GE(BelowValueTier, 1u);
}

} // namespace
