//===- tests/ProfilingTest.cpp - Section 2 instrumentation tests ----------===//

#include "profiling/CallProfiler.h"
#include "profiling/WebSession.h"
#include "support/Stats.h"
#include "vm/Runtime.h"

#include <gtest/gtest.h>

using namespace jitvs;

namespace {

TEST(CallProfiler, CountsCallsAndArgSets) {
  Runtime RT;
  CallProfiler P;
  RT.setHooks(&P);
  RT.evaluate("function once() { return 1; }"
              "function thrice(x) { return x; }"
              "once();"
              "thrice(1); thrice(1); thrice(2);");
  ASSERT_FALSE(RT.hasError());
  EXPECT_EQ(P.numFunctions(), 2u);
  EXPECT_EQ(P.totalCalls(), 4u);
  EXPECT_DOUBLE_EQ(P.fractionCalledOnce(), 0.5);
  EXPECT_DOUBLE_EQ(P.fractionSingleArgSet(), 0.5); // thrice saw {1},{2}.
  auto [Name, Calls] = P.mostCalled();
  EXPECT_EQ(Name, "thrice");
  EXPECT_EQ(Calls, 3u);
}

TEST(CallProfiler, ObjectsCountByIdentity) {
  Runtime RT;
  CallProfiler P;
  RT.setHooks(&P);
  RT.evaluate("function f(o) { return o; }"
              "var a = {k: 1};"
              "f(a); f(a);"          // Same identity: one arg set.
              "f({k: 1});");          // Fresh object: a second arg set.
  ASSERT_FALSE(RT.hasError());
  auto [Name, Sets] = P.mostVaried();
  EXPECT_EQ(Name, "f");
  EXPECT_EQ(Sets, 2u);
}

TEST(CallProfiler, StringsCountByContent) {
  Runtime RT;
  CallProfiler P;
  RT.setHooks(&P);
  RT.evaluate("function f(s) { return s; }"
              "f('ab'); f('a' + 'b');"); // Distinct objects, same content.
  ASSERT_FALSE(RT.hasError());
  EXPECT_DOUBLE_EQ(P.fractionSingleArgSet(), 1.0);
}

TEST(CallProfiler, HistogramFractionsSumToOne) {
  Runtime RT;
  CallProfiler P;
  RT.setHooks(&P);
  RT.evaluate("function a() {} function b() {} function c() {}"
              "a(); b(); b(); for (var i = 0; i < 40; i++) c();");
  ASSERT_FALSE(RT.hasError());
  FractionHistogram H = P.callCountHistogram();
  double Sum = H.TailFraction;
  for (double F : H.Fractions)
    Sum += F;
  EXPECT_NEAR(Sum, 1.0, 1e-9);
  EXPECT_GT(H.TailFraction, 0.0); // c() called 40 times > 30 buckets.
}

TEST(CallProfiler, UnitSeparation) {
  // Two runtimes may reuse heap addresses; units keep them apart.
  CallProfiler P;
  {
    Runtime RT;
    P.beginUnit();
    RT.setHooks(&P);
    RT.evaluate("function f() {} f();");
  }
  {
    Runtime RT;
    P.beginUnit();
    RT.setHooks(&P);
    RT.evaluate("function g() {} g(); g();");
  }
  EXPECT_EQ(P.numFunctions(), 2u);
  EXPECT_EQ(P.totalCalls(), 3u);
}

TEST(CallProfiler, MonomorphicParamTypes) {
  Runtime RT;
  CallProfiler P;
  RT.setHooks(&P);
  RT.evaluate("function fi(x) { return x; }"
              "function fs(x) { return x; }"
              "function poly(x) { return x; }"
              "fi(1); fi(1); fs('a'); fs('a');"
              "poly(1); poly('x');"); // Polymorphic: excluded.
  ASSERT_FALSE(RT.hasError());
  TypeDistribution D = P.monomorphicParamTypes();
  EXPECT_EQ(D.TotalParams, 2u);
  // Categories: index 4 = int, 7 = string.
  EXPECT_DOUBLE_EQ(D.Fractions[4], 0.5);
  EXPECT_DOUBLE_EQ(D.Fractions[7], 0.5);
}

TEST(Zipf, DistributionShape) {
  RNG Rand(7);
  unsigned Ones = 0;
  const unsigned N = 20000;
  for (unsigned I = 0; I != N; ++I)
    if (sampleZipf(Rand, 1.75, 2000) == 1)
      ++Ones;
  double P1 = static_cast<double>(Ones) / N;
  // zeta(1.75, truncated at 2000) puts ~49% of the mass on 1.
  EXPECT_NEAR(P1, 0.49, 0.03);
}

TEST(WebSession, ReproducesPaperHeadlineFractions) {
  WebSessionModel Model;
  Model.NumFunctions = 1200;
  Runtime RT;
  CallProfiler P;
  RT.setHooks(&P);
  RT.evaluate(generateWebSessionProgram(Model, 99));
  ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
  // The paper: 48.88% called once; 59.91% single argument set.
  EXPECT_NEAR(P.fractionCalledOnce(), 0.4888, 0.06);
  EXPECT_NEAR(P.fractionSingleArgSet(), 0.5991, 0.06);
}

TEST(WebSession, Deterministic) {
  WebSessionModel Model;
  Model.NumFunctions = 50;
  EXPECT_EQ(generateWebSessionProgram(Model, 5),
            generateWebSessionProgram(Model, 5));
  EXPECT_NE(generateWebSessionProgram(Model, 5),
            generateWebSessionProgram(Model, 6));
}

TEST(Stats, Means) {
  EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
  // Geometric mean of percentages: +10% and -9.0909..% cancel.
  EXPECT_NEAR(geometricMeanPercent({10.0, -100.0 / 11.0}), 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

} // namespace
