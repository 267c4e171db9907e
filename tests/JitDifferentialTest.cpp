//===- tests/JitDifferentialTest.cpp - Interp vs JIT config equivalence ---===//
///
/// \file
/// The core correctness property of the whole system: for every program
/// and every optimization configuration (the ten Figure-9 configs plus
/// baseline), JIT-compiled execution must produce exactly the output the
/// plain interpreter produces — including programs engineered to trigger
/// specialization-cache hits, despecialization, overflow/bounds/type
/// bailouts and on-stack replacement.
///
//===----------------------------------------------------------------------===//

#include "jit/Engine.h"
#include "vm/Runtime.h"

#include <gtest/gtest.h>

using namespace jitvs;

namespace {

struct TestProgram {
  const char *Name;
  const char *Source;
};

const TestProgram Programs[] = {
    {"paper_map_inc",
     "function inc(x) { return x + 1; }"
     "function map(s, b, n, f) { var i = b;"
     "  while (i < n) { s[i] = f(s[i]); i++; } return s; }"
     "var a = new Array(1, 2, 3, 4, 5);"
     "for (var k = 0; k < 40; k++) { map(a, 2, 5, inc); }"
     "print(a.join(','));"},

    {"hot_int_loop",
     "function sum(n) { var s = 0;"
     "  for (var i = 0; i < n; i++) s += i; return s; }"
     "var t = 0; for (var k = 0; k < 50; k++) t = sum(1000);"
     "print(t);"},

    {"same_args_cache",
     "function f(a, b) { return a * 10 + b; }"
     "var r = 0; for (var i = 0; i < 100; i++) r = f(3, 4);"
     "print(r);"},

    {"despecialization",
     "function g(a) { return a + 7; }"
     "var r = 0;"
     "for (var i = 0; i < 30; i++) r += g(1);" // Specializes on a=1.
     "for (var i = 0; i < 30; i++) r += g(i);" // Forces despecialization.
     "print(r);"},

    {"overflow_bailout",
     "function grow(x) { return x * 3; }"
     "var v = 7;"
     "for (var i = 0; i < 40; i++) { v = grow(v) % 100000007 + 1; }"
     "var big = 2000000000;"
     "print(grow(big));" // Int32 overflow in compiled code.
    },

    {"oob_bailout",
     "function read(a, i) { return a[i]; }"
     "var arr = [10, 20, 30];"
     "var s = 0;"
     "for (var i = 0; i < 60; i++) s += read(arr, i % 3);"
     "print(s, read(arr, 99));" // OOB after hot in-bounds accesses.
    },

    {"type_bailout",
     "function add2(x) { return x + 2; }"
     "var s = 0;"
     "for (var i = 0; i < 50; i++) s += add2(i % 7);"
     "print(s, add2(0.5), add2('s'));"},

    {"osr_long_loop",
     "var s = 0;"
     "for (var i = 0; i < 20000; i++) { s = (s + i) % 1000003; }"
     "print(s);"},

    {"osr_in_function",
     "function work(n) { var acc = 1;"
     "  for (var i = 1; i < n; i++) { acc = (acc * i) % 999983; }"
     "  return acc; }"
     "print(work(30000));"},

    {"closures_hot",
     "function mkcounter() { var n = 0;"
     "  return function() { n = n + 1; return n; }; }"
     "var c = mkcounter(); var last = 0;"
     "for (var i = 0; i < 200; i++) last = c();"
     "print(last);"},

    {"higher_order_inline",
     "function twice(x) { return x * 2; }"
     "function apply3(f, x) { return f(f(f(x))); }"
     "var s = 0;"
     "for (var i = 0; i < 60; i++) s += apply3(twice, 1);"
     "print(s);"},

    {"string_hot",
     "function hash(s) { var h = 0;"
     "  for (var i = 0; i < s.length; i++)"
     "    h = (h * 31 + s.charCodeAt(i)) % 1000000007;"
     "  return h; }"
     "var t = 0;"
     "for (var k = 0; k < 50; k++) t = hash('the quick brown fox');"
     "print(t);"},

    {"doubles_hot",
     "function norm(x, y) { return Math.sqrt(x * x + y * y); }"
     "var s = 0.0;"
     "for (var i = 0; i < 200; i++) s += norm(3.0, 4.0);"
     "print(s);"},

    {"objects_hot",
     "function Point(x, y) { this.x = x; this.y = y; }"
     "function dist2(p) { return p.x * p.x + p.y * p.y; }"
     "var p = new Point(3, 4); var s = 0;"
     "for (var i = 0; i < 80; i++) s += dist2(p);"
     "print(s);"},

    {"nested_loops",
     "function mat(n) { var total = 0;"
     "  for (var i = 0; i < n; i++)"
     "    for (var j = 0; j < n; j++)"
     "      total += i * j; return total; }"
     "var t = 0; for (var k = 0; k < 20; k++) t = mat(30);"
     "print(t);"},

    {"loop_with_break",
     "function find(a, v) { var idx = -1;"
     "  for (var i = 0; i < a.length; i++) {"
     "    if (a[i] == v) { idx = i; break; } } return idx; }"
     "var a = [5, 3, 9, 1, 7]; var s = 0;"
     "for (var k = 0; k < 60; k++) s += find(a, 1);"
     "print(s);"},

    {"zero_iteration_loop",
     "function maybe(n) { var s = 100;"
     "  while (n > 0) { s += n; n--; } return s; }"
     "var t = 0;"
     "for (var k = 0; k < 60; k++) t += maybe(0) + maybe(3);"
     "print(t);"},

    {"recursion_hot",
     "function fib(n) { if (n < 2) return n;"
     "  return fib(n - 1) + fib(n - 2); }"
     "print(fib(18));"},

    {"array_growth",
     "function push7(a) { a[a.length] = 7; return a.length; }"
     "var a = []; var last = 0;"
     "for (var i = 0; i < 80; i++) last = push7(a);"
     "print(last, a[79]);"},

    {"bitops_hot",
     "function bits(x) { var c = 0;"
     "  while (x != 0) { c += x & 1; x = x >>> 1; } return c; }"
     "var s = 0;"
     "for (var i = 0; i < 80; i++) s += bits(0x12345678 | 0);"
     "print(s);"},

    {"typeof_fold",
     "function kind(x) { if (typeof x == 'number') return 1;"
     "  if (typeof x == 'string') return 2; return 3; }"
     "var s = 0;"
     "for (var i = 0; i < 60; i++) s += kind(5) + kind('a') + kind({});"
     "print(s);"},

    {"env_in_jit",
     "function adder(k) { return function(x) { return x + k; }; }"
     "var add9 = adder(9); var s = 0;"
     "for (var i = 0; i < 80; i++) s += add9(i);"
     "print(s);"},

    {"mixed_numeric",
     "function mix(a, b) { return a / b + a * b - a % b; }"
     "var s = 0;"
     "for (var i = 1; i < 100; i++) s += mix(7, 2);"
     "print(s);"},

    {"ternary_and_logic",
     "function pick(a, b) { return (a && b) ? a + b : (a || b) ? 1 : 0; }"
     "var s = 0;"
     "for (var i = 0; i < 60; i++)"
     "  s += pick(1, 2) + pick(0, 5) + pick(0, 0);"
     "print(s);"},

    {"do_while",
     "function count(n) { var c = 0;"
     "  do { c++; n--; } while (n > 0); return c; }"
     "var s = 0; for (var i = 0; i < 60; i++) s += count(10);"
     "print(s);"},

    {"negative_zero_mul",
     "function m(a, b) { return a * b; }"
     "var s = 0; for (var i = 0; i < 60; i++) s = m(3, 5);"
     "print(s, 1 / m(-1, 0));" // -0 must survive specialization.
    },

    {"global_state",
     "var counter = 0;"
     "function bump() { counter = counter + 1; return counter; }"
     "var last = 0;"
     "for (var i = 0; i < 70; i++) last = bump();"
     "print(last, counter);"},
};

std::string runInterpreterOnly(const char *Source) {
  Runtime RT;
  RT.evaluate(Source);
  EXPECT_FALSE(RT.hasError()) << RT.errorMessage();
  return RT.output();
}

std::string runWithConfig(const char *Source, const OptConfig &Config) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 5;
  K.LoopThreshold = 50;
  Engine E(RT, Config, K);
  RT.evaluate(Source);
  EXPECT_FALSE(RT.hasError()) << RT.errorMessage();
  return RT.output();
}

class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(DifferentialTest, MatchesInterpreter) {
  auto [ProgIdx, CfgIdx] = GetParam();
  const TestProgram &P = Programs[ProgIdx];

  std::vector<NamedConfig> Configs = figure9Configs();
  Configs.insert(Configs.begin(), {"baseline", OptConfig::baseline()});
  OptConfig AllOce = OptConfig::all();
  AllOce.OverflowCheckElim = true;
  Configs.push_back({"ALL_OCE", AllOce});
  const NamedConfig &C = Configs[CfgIdx];

  std::string Expected = runInterpreterOnly(P.Source);
  std::string Actual = runWithConfig(P.Source, C.Config);
  EXPECT_EQ(Expected, Actual)
      << "program " << P.Name << " under config " << C.Name;
}

std::string differentialName(
    const ::testing::TestParamInfo<std::tuple<size_t, size_t>> &Info) {
  auto [ProgIdx, CfgIdx] = Info.param;
  std::vector<NamedConfig> Configs = figure9Configs();
  Configs.insert(Configs.begin(), {"baseline", OptConfig::baseline()});
  OptConfig AllOce = OptConfig::all();
  AllOce.OverflowCheckElim = true;
  Configs.push_back({"ALL_OCE", AllOce});
  std::string Cfg = Configs[CfgIdx].Name;
  for (char &C : Cfg)
    if (C == '+')
      C = '_';
  return std::string(Programs[ProgIdx].Name) + "_" + Cfg;
}

INSTANTIATE_TEST_SUITE_P(
    AllProgramsAllConfigs, DifferentialTest,
    ::testing::Combine(
        ::testing::Range<size_t>(0, std::size(Programs)),
        ::testing::Range<size_t>(0, 12)),
    differentialName);

TEST(JitEngine, ActuallyCompiles) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 5;
  K.LoopThreshold = 50;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate(Programs[0].Source);
  ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
  EXPECT_GT(E.stats().Compilations, 0u);
  EXPECT_GT(E.stats().NativeCalls, 0u);
}

TEST(JitEngine, SpecializationCacheHits) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 5;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function f(a) { return a + 1; }"
              "var s = 0; for (var i = 0; i < 100; i++) s += f(41);"
              "print(s);");
  ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
  EXPECT_EQ(RT.output(), "4200\n");
  EXPECT_GT(E.stats().CacheHits, 50u);
  EXPECT_EQ(E.stats().Despecializations, 0u);
}

TEST(JitEngine, DespecializesOnDifferentArgs) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 5;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function f(a) { return a * 2; }"
              "var s = 0;"
              "for (var i = 0; i < 20; i++) s += f(5);"
              "for (var i = 0; i < 20; i++) s += f(i);"
              "print(s);");
  ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
  EXPECT_EQ(RT.output(), "580\n");
  EXPECT_GE(E.stats().Despecializations, 1u);
  // After despecialization the generic code must keep serving calls.
  EXPECT_GT(E.stats().NativeCalls, 20u);
}

TEST(JitEngine, OsrEnters) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.LoopThreshold = 50;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("var s = 0;"
              "for (var i = 0; i < 5000; i++) s += i;"
              "print(s);");
  ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
  EXPECT_EQ(RT.output(), "12497500\n");
  EXPECT_GT(E.stats().OsrEntries, 0u);
}

TEST(JitEngine, BailoutsResumeCorrectly) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  Engine E(RT, OptConfig::baseline(), K);
  // Side effect before the overflowing op: print(a) runs, then a*a
  // overflows in native code; the bailout must not re-run print(a).
  RT.evaluate("function f(a) { print(a); return a * a; }"
              "for (var i = 0; i < 10; i++) f(3);"
              "print(f(100000));");
  ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
  std::string Expected;
  for (int I = 0; I < 10; ++I)
    Expected += "3\n";
  Expected += "100000\n10000000000\n";
  EXPECT_EQ(RT.output(), Expected);
  EXPECT_GE(E.stats().Bailouts, 1u);
}

TEST(JitEngine, GCDuringNativeExecution) {
  Runtime RT;
  // Stress mode requests a minor collection at every allocation; the low
  // old-space threshold then forces majors through promotion pressure.
  RT.heap().setGCStress(true);
  RT.heap().setGCThreshold(128);
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  K.LoopThreshold = 30;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function build(n) { var a = [];"
              "  for (var i = 0; i < n; i++) a.push('v' + i);"
              "  return a; }"
              "var last;"
              "for (var k = 0; k < 30; k++) last = build(50);"
              "print(last.length, last[49]);");
  ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
  EXPECT_EQ(RT.output(), "50 v49\n");
  EXPECT_GT(RT.heap().minorCount(), 0u);
  EXPECT_GT(RT.heap().gcCount(), 0u);
}

} // namespace
