//===- tests/RuntimeEdgeTest.cpp - Runtime and language edge cases --------===//
///
/// \file
/// Corner semantics that the optimizer must preserve and the substrate
/// must implement faithfully: JS numeric edge cases (-0, NaN, int32
/// wrapping), string/array builtin behavior at boundaries, closure
/// sharing, deep environment chains, error propagation and the
/// interplay of all of it under the JIT.
///
//===----------------------------------------------------------------------===//

#include "jit/Engine.h"
#include "vm/Bytecode.h"
#include "vm/Runtime.h"

#include <gtest/gtest.h>

using namespace jitvs;

namespace {

std::string interp(const std::string &Source) {
  Runtime RT;
  RT.evaluate(Source);
  EXPECT_FALSE(RT.hasError()) << RT.errorMessage();
  return RT.output();
}

/// Runs under the interpreter and under the full JIT; both must agree,
/// and the function returns the common output.
std::string both(const std::string &Source) {
  std::string A = interp(Source);
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  K.LoopThreshold = 30;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate(Source);
  EXPECT_FALSE(RT.hasError()) << RT.errorMessage();
  EXPECT_EQ(A, RT.output());
  return A;
}

TEST(NumericEdge, NegativeZero) {
  EXPECT_EQ(both("print(1 / (0 * -1));"), "-Infinity\n");
  EXPECT_EQ(both("print(1 / (-0.0));"), "-Infinity\n");
  EXPECT_EQ(both("print(-0.0 == 0, -0.0 === 0);"), "true true\n");
  // -0 through a hot multiply.
  EXPECT_EQ(both("function m(a, b) { return a * b; }"
                 "for (var i = 0; i < 20; i++) m(2, 3);"
                 "print(1 / m(-4, 0));"),
            "-Infinity\n");
}

TEST(NumericEdge, MathRoundHalfwayCases) {
  // floor(x + 0.5) is the classic wrong implementation: 0.5 is not
  // representable relative to these inputs, so the addition itself
  // rounds. Math.round must not.
  EXPECT_EQ(both("print(Math.round(0.49999999999999994));"), "0\n");
  // 2^52 + 1: adding 0.5 first would round up to 2^52 + 2 (printed in
  // exponent form, so compare rather than print the value itself).
  EXPECT_EQ(both("print(Math.round(4503599627370497) == 4503599627370497);"),
            "true\n");
  // Halves round toward +Infinity, including negative halves.
  EXPECT_EQ(both("print(Math.round(0.5), Math.round(1.5), Math.round(2.5));"),
            "1 2 3\n");
  EXPECT_EQ(both("print(Math.round(-0.5), Math.round(-1.5),"
                 "      Math.round(-2.5));"),
            "0 -1 -2\n");
  // x in [-0.5, 0) rounds to -0, not +0.
  EXPECT_EQ(both("print(1 / Math.round(-0.5), 1 / Math.round(-0.3));"),
            "-Infinity -Infinity\n");
  EXPECT_EQ(both("print(1 / Math.round(-0.0), 1 / Math.round(0.3));"),
            "-Infinity Infinity\n");
  // Non-finite values pass through.
  EXPECT_EQ(both("print(Math.round(0 / 0), Math.round(1 / 0),"
                 "      Math.round(-1 / 0));"),
            "NaN Infinity -Infinity\n");
  // The same semantics when Math.round sits in a hot loop (the JIT's
  // MathFn path and the constant folder, not just the builtin).
  EXPECT_EQ(both("function r(x) { return Math.round(x); }"
                 "var s = 0;"
                 "for (var i = 0; i < 40; i++) s += r(i + 0.5);"
                 "print(s, r(-2.5), 1 / r(-0.25));"),
            "820 -2 -Infinity\n");
}

TEST(NumericEdge, NaNPropagation) {
  EXPECT_EQ(both("var n = 0 / 0; print(n == n, n != n, n < 1, n >= 1);"),
            "false true false false\n");
  EXPECT_EQ(both("print((undefined + 1) == (undefined + 1));"), "false\n");
}

TEST(NumericEdge, Int32Boundaries) {
  EXPECT_EQ(both("print(2147483647 + 1, -2147483648 - 1);"),
            "2147483648 -2147483649\n");
  EXPECT_EQ(both("print((2147483647 + 1) | 0);"), "-2147483648\n");
  EXPECT_EQ(both("var x = -2147483648; print(-x);"), "2147483648\n");
  EXPECT_EQ(both("print(2147483647 * 2);"), "4294967294\n");
}

TEST(NumericEdge, ModuloSigns) {
  EXPECT_EQ(both("print(7 % 3, -7 % 3, 7 % -3);"), "1 -1 1\n");
  EXPECT_EQ(both("print(5 % 0);"), "NaN\n");
  EXPECT_EQ(both("print(5.5 % 2);"), "1.5\n");
  // Hot modulo that goes negative after warmup (ModI bails).
  EXPECT_EQ(both("function m(a, b) { return a % b; }"
                 "for (var i = 0; i < 20; i++) m(9, 4);"
                 "print(m(-9, 4));"),
            "-1\n");
}

TEST(NumericEdge, ShiftSemantics) {
  EXPECT_EQ(both("print(1 << 32, 1 << 33);"), "1 2\n"); // Count & 31.
  EXPECT_EQ(both("print(-1 >>> 0);"), "4294967295\n");
  EXPECT_EQ(both("print(-16 >> 2, -16 >>> 28);"), "-4 15\n");
}

TEST(NumericEdge, SpecializedOverflowMatchesGeneric) {
  // Warm up on small arguments so the JIT compiles the specialized
  // int32 fast paths (including the fused x + 1 / x - 1 / x * 2
  // immediate forms), then hit the boundaries: every overflow must
  // bail to the generic helpers and promote to double exactly like
  // the interpreter.
  EXPECT_EQ(both("function add(a, b) { return a + b; }"
                 "function inc(x) { return x + 1; }"
                 "function dec(x) { return x - 1; }"
                 "function dbl(x) { return x * 2; }"
                 "for (var i = 0; i < 20; i++) {"
                 "  add(i, i); inc(i); dec(i); dbl(i); }"
                 "print(add(2147483647, 1));"
                 "print(inc(2147483647));"
                 "print(dec(-2147483647 - 1));"
                 "print(dbl(2147483647));"
                 "print(add(-2147483647 - 1, -2147483647 - 1));"),
            "2147483648\n2147483648\n-2147483649\n4294967294\n"
            "-4294967296\n");
  // 46341 * 46341 is the smallest square above INT32_MAX.
  EXPECT_EQ(both("function sq(x) { return x * x; }"
                 "for (var i = 0; i < 20; i++) sq(3);"
                 "print(sq(46340), sq(46341));"),
            "2147395600 2147488281\n");
}

TEST(NumericEdge, ModIntMinByMinusOne) {
  // INT32_MIN % -1 is -0 in JS (where a naive idiv would trap);
  // observable only through 1/x. A zero remainder from a negative
  // dividend is -0 as well.
  EXPECT_EQ(both("print(1 / ((-2147483647 - 1) % -1));"), "-Infinity\n");
  EXPECT_EQ(both("function m(a, b) { return a % b; }"
                 "for (var i = 0; i < 20; i++) m(9, 4);"
                 "print(1 / m(-2147483647 - 1, -1));"
                 "print(1 / m(-4, 4), m(-4, 4) == 0);"),
            "-Infinity\n-Infinity true\n");
}

TEST(NumericEdge, ShiftCountMaskingInHotCode) {
  // The shift count is masked & 31 identically in the constant
  // folder, the interpreter, and native code.
  EXPECT_EQ(both("function sh(a, b) { return a << b; }"
                 "function sr(a, b) { return a >>> b; }"
                 "for (var i = 0; i < 20; i++) { sh(1, 1); sr(64, 2); }"
                 "print(sh(1, 32), sh(1, 33), sh(3, 34));"
                 "print(sr(-1, 32), sr(-1, 36));"),
            "1 2 12\n4294967295 268435455\n");
}

TEST(NumericEdge, UShrAboveIntMaxIsDouble) {
  // x >>> y can exceed INT32_MAX, so the result is uniformly a double
  // in every tier; arithmetic downstream of it must agree everywhere.
  EXPECT_EQ(both("print(-1 >>> 0, (-1 >>> 0) + 1, typeof (-1 >>> 0));"),
            "4294967295 4294967296 number\n");
  EXPECT_EQ(both("function u(x) { return (x >>> 1) + 1; }"
                 "for (var i = 0; i < 20; i++) u(8);"
                 "print(u(-2), u(-2) * 2);"),
            "2147483648 4294967296\n");
}

TEST(NumericEdge, SignedZeroConstantsStayDistinct) {
  // +0 and -0 constants must never merge (GVN) or fold into each
  // other (CP): Infinity + -Infinity would become 2x one of them.
  EXPECT_EQ(both("print(1 / 0.0 + 1 / -0.0);"), "NaN\n");
  EXPECT_EQ(both("function z() { return 1 / 0.0 + 1 / -0.0; }"
                 "for (var i = 0; i < 20; i++) z();"
                 "print(z());"),
            "NaN\n");
}

TEST(OsrEdge, InvertedLoopShimReTestsCondition) {
  // Regression (found by the differential fuzzer, seed 23): OSR can
  // trigger on the header visit where the loop condition is already
  // false — typically an inner loop of a nest whose cumulative trip
  // count crosses the threshold on the exit visit. The inverted
  // loop's OSR shim must re-test the condition instead of jumping
  // unconditionally into the rotated body, or the loop runs one extra
  // iteration.
  const std::string Source =
      "var g = 0.5;"
      "function f(b) {"
      "  for (var i = 0; i < 16; i = i + 1) {"
      "    for (var j = 0; j < 18; j = j + 1) {"
      "      g = g + 65535 * 65535;"
      "    }"
      "  }"
      "  return b;"
      "}"
      "for (var h = 0; h < 22; h = h + 1) { f(0.1); }"
      "print(g);";
  std::string Reference = interp(Source);
  // Loop inversion alone, with a loop threshold that fires OSR inside
  // the nest.
  OptConfig OnlyInversion = OptConfig::baseline();
  OnlyInversion.LoopInversion = true;
  for (const OptConfig &Cfg : {OnlyInversion, OptConfig::all()}) {
    Runtime RT;
    EngineKnobs K = EngineKnobs::fromEnvironment();
    K.CallThreshold = 3;
    K.LoopThreshold = 20;
    Engine E(RT, Cfg, K);
    RT.evaluate(Source);
    EXPECT_FALSE(RT.hasError()) << RT.errorMessage();
    EXPECT_EQ(Reference, RT.output());
  }
}

TEST(OsrEdge, NestedLoopsWithOneRotatedLoop) {
  // Loop inversion rotates only loops whose wrapper test folds: in each
  // nest one loop has a literal bound (rotated) and the other a varying
  // parameter bound (kept). The varying argument despecializes both
  // functions, n = 0 takes the zero-trip path, and the loop threshold
  // fires OSR inside both nests. Also in tests/fuzz/corpus/.
  const std::string Source =
      "function innerConst(n) {"
      "  var s = 0;"
      "  for (var i = 0; i < n; i = i + 1) {"
      "    for (var j = 0; j < 6; j = j + 1) { s = s + i * j; }"
      "  }"
      "  return s;"
      "}"
      "function outerConst(n) {"
      "  var s = 0;"
      "  for (var i = 0; i < 5; i = i + 1) {"
      "    for (var j = 0; j < n; j = j + 1) { s = s + i + j; }"
      "  }"
      "  return s;"
      "}"
      "var g = 0;"
      "for (var h = 0; h < 24; h = h + 1) {"
      "  g = g + innerConst(h % 4) * 3 + outerConst(3 + h % 3);"
      "}"
      "print(g);";
  std::string Reference = interp(Source);
  OptConfig OnlyInversion = OptConfig::baseline();
  OnlyInversion.LoopInversion = true;
  for (const OptConfig &Cfg : {OnlyInversion, OptConfig::all()}) {
    Runtime RT;
    EngineKnobs K = EngineKnobs::fromEnvironment();
    K.CallThreshold = 3;
    K.LoopThreshold = 20;
    Engine E(RT, Cfg, K);
    RT.evaluate(Source);
    EXPECT_FALSE(RT.hasError()) << RT.errorMessage();
    EXPECT_EQ(Reference, RT.output()) << Cfg.describe();
  }
}

TEST(StringEdge, FoldedOutOfRangeAccessesMatchInterpreter) {
  // charCodeAt out of range is NaN: the folder must decline to fold
  // (never manufacture a garbage constant) and specialized code must
  // agree with the interpreter, including for negative indices.
  EXPECT_EQ(both("function cc(s, i) { return s.charCodeAt(i); }"
                 "for (var k = 0; k < 20; k++) cc('abc', 1);"
                 "print(cc('abc', 3), cc('abc', -1), cc('', 0));"),
            "NaN NaN NaN\n");
  // Specialized-on-non-string arguments reaching string intrinsics
  // must deoptimize, not fold through the wrong payload.
  EXPECT_EQ(both("function len(s) { return s.length; }"
                 "for (var k = 0; k < 20; k++) len('xy');"
                 "print(len('hello'));"),
            "5\n");
}

TEST(ArrayEdge, OutOfBoundsReadsMatchInterpreter) {
  EXPECT_EQ(both("function at(a, i) { return a[i]; }"
                 "var xs = [1, 2, 3];"
                 "for (var k = 0; k < 20; k++) at(xs, 1);"
                 "print(at(xs, 3), at(xs, -1), at(xs, 100));"),
            "undefined undefined undefined\n");
}

/// Runs \p Source under the JIT (top-level loops stay interpreted), checks
/// that \p Native ran native code, and \returns the feedback of the first
/// \p O site of \p Cold (nullptr when that site never ran).
const SiteFeedback *coldSiteAfterNative(Runtime &RT, const std::string &Source,
                                        const std::string &Native,
                                        const std::string &Cold, Op O) {
  EngineKnobs Knobs;
  Knobs.CallThreshold = 2;
  Knobs.LoopThreshold = 1000000;
  Engine E(RT, OptConfig::all(), Knobs);
  RT.evaluate(Source);
  EXPECT_FALSE(RT.hasError()) << RT.errorMessage();
  bool RanNative = false;
  for (const Engine::FunctionReport &R : E.functionReports())
    RanNative |= R.Name == Native && R.NativeRuns > 0;
  EXPECT_TRUE(RanNative) << Native << " never ran native code";
  for (size_t I = 0; I != RT.program()->numFunctions(); ++I) {
    FunctionInfo *F = RT.program()->function(static_cast<uint32_t>(I));
    if (F->Name != Cold)
      continue;
    for (uint32_t PC = 0; PC < F->Code.size(); PC += F->instructionLength(PC))
      if (F->opAt(PC) == O)
        return F->Feedback.find(PC);
  }
  return nullptr;
}

// A native generic helper's overflow or out-of-bounds access belongs to
// its own site: the next interpreted site, anywhere, must not record it.
TEST(FeedbackEdge, NativeOverflowDoesNotLeakToNextInterpretedSite) {
  Runtime RT;
  const SiteFeedback *FB = coldSiteAfterNative(
      RT,
      "function g(a, b) { return a + b; }"
      "function h(x) { return x + 1; }"
      "for (var i = 0; i < 20; i++) { g('s', i); g(i, i); }"
      "print(g(2147483647, 1));"
      "h(5);",
      "g", "h", Op::Add);
  EXPECT_EQ(RT.output(), "2147483648\n");
  ASSERT_NE(FB, nullptr);
  EXPECT_FALSE(FB->SawIntOverflow);
}

TEST(FeedbackEdge, NativeOutOfBoundsDoesNotLeakToNextInterpretedSite) {
  Runtime RT;
  const SiteFeedback *FB = coldSiteAfterNative(
      RT,
      "function g(a, i) { return a[i]; }"
      "function h(a) { return a[0]; }"
      "var xs = [1, 2, 3];"
      "for (var i = 0; i < 20; i++) { g(xs, i % 3); g('abc', i % 3); }"
      "print(g(xs, 10));"
      "h(xs);",
      "g", "h", Op::GetElem);
  EXPECT_EQ(RT.output(), "undefined\n");
  ASSERT_NE(FB, nullptr);
  EXPECT_FALSE(FB->SawOutOfBounds);
}

TEST(ArrayEdge, HugeIndexWriteDoesNotGrowDenseStorage) {
  // Regression: `a[1e9] = x` used to resize the dense backing store to a
  // billion entries. Writes at or past MaxDenseLength are dropped;
  // reads there stay undefined, identically in both tiers.
  EXPECT_EQ(both("var a = [1, 2];"
                 "a[1000000000] = 7;"
                 "a[-5] = 8;"
                 "print(a.length, a[1000000000], a[-5], a[1]);"),
            "2 undefined undefined 2\n");
  // The boundary itself: the last index below the cap grows the array,
  // the first index at the cap does not.
  EXPECT_EQ(both("var a = [];"
                 "a[1048575] = 1;"
                 "var n1 = a.length;"
                 "a[1048576] = 2;"
                 "print(n1, a.length, a[1048575], a[1048576]);"),
            "1048576 1048576 1 undefined\n");
}

TEST(StringEdge, Boundaries) {
  EXPECT_EQ(both("print(''.length, 'a'.charCodeAt(5));"), "0 NaN\n");
  EXPECT_EQ(both("print('abc'.substring(2, 1));"), "b\n"); // Swapped.
  EXPECT_EQ(both("print('abc'.slice(-2));"), "bc\n");
  EXPECT_EQ(both("print('abc'[5]);"), "undefined\n");
  EXPECT_EQ(both("print('a' + 1 + 2, 1 + 2 + 'a');"), "a12 3a\n");
  EXPECT_EQ(both("print('' + undefined, '' + null, '' + true);"),
            "undefined null true\n");
}

TEST(ArrayEdge, HolesAndGrowth) {
  EXPECT_EQ(both("var a = []; a[3] = 1; print(a.length, a[0], a.join());"),
            "4 undefined ,,,1\n");
  EXPECT_EQ(both("var a = [1,2,3]; a.length = 1; print(a.join(), "
                 "a.length);"),
            "1 1\n");
  EXPECT_EQ(both("var a = [1,2,3]; print(a[-1], a[2.5], a[2.0]);"),
            "undefined undefined 3\n");
  EXPECT_EQ(both("var a = new Array(0); print(a.length, a.pop());"),
            "0 undefined\n");
}

TEST(ArrayEdge, NestedArraysPrint) {
  EXPECT_EQ(both("print([[1,2],[3]] + '');"), "1,2,3\n");
  EXPECT_EQ(both("var a = [1, [2, [3, 4]]]; print(a.join('|'));"),
            "1|2,3,4\n");
}

TEST(ObjectEdge, NumericAndStringKeysUnify) {
  EXPECT_EQ(both("var o = {}; o[1] = 'a'; print(o['1']);"), "a\n");
  EXPECT_EQ(both("var o = {}; o['k'] = 1; o.k += 1; print(o['k']);"),
            "2\n");
}

TEST(ClosureEdge, SharedMutableEnvironment) {
  EXPECT_EQ(both("function pair() { var n = 0;"
                 "  return [function() { n += 1; return n; },"
                 "          function() { n += 10; return n; }]; }"
                 "var p = pair(); var q = pair();"
                 "p[0](); p[1](); q[0]();"
                 "print(p[0](), q[1]());"),
            "12 11\n");
}

TEST(ClosureEdge, DeepLexicalChain) {
  EXPECT_EQ(both("function a(x) { return function(y) {"
                 "  return function(z) { return function(w) {"
                 "    return x + y + z + w; }; }; }; }"
                 "var f = a(1)(2)(3); var s = 0;"
                 "for (var i = 0; i < 40; i++) s += f(4);"
                 "print(s);"),
            "400\n");
}

TEST(ClosureEdge, LoopCapturesShareOneVar) {
  // var has function scope: all closures see the final i.
  EXPECT_EQ(both("var fs = [];"
                 "for (var i = 0; i < 3; i++)"
                 "  fs.push(function() { return i; });"
                 "print(fs[0](), fs[1](), fs[2]());"),
            "3 3 3\n");
}

TEST(ThisEdge, MethodsAndPlainCalls) {
  EXPECT_EQ(both("function f() { return typeof this; }"
                 "var o = { m: f };"
                 "print(f(), o.m());"),
            "undefined object\n");
}

TEST(ErrorEdge, PropagatesThroughJitFrames) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function inner(o) { return o.x; }"
              "function outer(o) { return inner(o) + 1; }"
              "for (var i = 0; i < 20; i++) outer({x: 1});"
              "outer(null);"); // Error deep inside compiled frames.
  EXPECT_TRUE(RT.hasError());
  EXPECT_NE(RT.errorMessage().find("property"), std::string::npos);
}

TEST(ErrorEdge, RecursionGuardInNativeCode) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 2;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function f(n) { return f(n + 1); }"
              "f(0);");
  EXPECT_TRUE(RT.hasError());
  EXPECT_NE(RT.errorMessage().find("recursion"), std::string::npos);
}

TEST(SortEdge, ComparatorCallsJitCode) {
  EXPECT_EQ(both("function cmp(a, b) { return b - a; }"
                 "for (var i = 0; i < 10; i++) cmp(1, 2);" // Make it hot.
                 "var a = [3, 1, 4, 1, 5, 9, 2, 6];"
                 "a.sort(cmp);"
                 "print(a.join());"),
            "9,6,5,4,3,2,1,1\n");
}

TEST(GCEdge, CollectionsDuringJitWithClosures) {
  Runtime RT;
  // Stress mode requests a minor collection at every allocation; the low
  // old-space threshold then forces majors through promotion pressure.
  RT.heap().setGCStress(true);
  RT.heap().setGCThreshold(64);
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  K.LoopThreshold = 30;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function mk(tag) { return function(i) {"
              "  return tag + ':' + i; }; }"
              "var out = [];"
              "var junk = [];"
              "for (var r = 0; r < 40; r++) {"
              "  var f = mk('r' + r);"
              "  for (var i = 0; i < 20; i++) {"
              "    junk.push([f(i)]);"
              "    if (i == 19) out.push(f(i));"
              "  }"
              "}"
              "print(out.length, out[0], out[39]);");
  ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
  EXPECT_EQ(RT.output(), "40 r0:19 r39:19\n");
  EXPECT_GT(RT.heap().minorCount(), 0u);
  EXPECT_GT(RT.heap().gcCount(), 0u);
}

TEST(GCEdge, AllocationNeverCollectsMidConstruction) {
  // Regression: Heap::allocate must never run a collection itself, even
  // under stress with an exhausted old-space budget. A collection inside
  // allocate would reclaim (or move) the just-returned, not-yet-rooted
  // object while its caller is still wiring it up. Collections are
  // armed at allocation and served only at safepoint(), where every
  // root source is accurate.
  Heap H;
  if (!H.nurseryEnabled())
    GTEST_SKIP() << "nursery disabled via JITVS_NURSERY_KB=0";
  H.setGCStress(true);
  H.setGCThreshold(1); // Any tenured allocation also requests a major.
  size_t Minors = H.minorCount();
  size_t Majors = H.gcCount();

  // Back-to-back unrooted allocations: the first object is exactly a
  // "partially constructed" value a mid-allocate collection would kill.
  JSString *A = H.allocate<JSString>("first");
  JSArray *Arr = H.allocate<JSArray>();
  Arr->push(Value::string(A));

  EXPECT_EQ(H.minorCount(), Minors);
  EXPECT_EQ(H.gcCount(), Majors);
  EXPECT_TRUE(H.collectionRequested());
  EXPECT_EQ(Arr->getDense(0).asString()->str(), "first");

  // The deferred collection runs at the next safepoint — and only
  // there. (Arr/A are dead at this point; do not touch them after.)
  H.safepoint();
  EXPECT_GT(H.minorCount(), Minors);
}

TEST(OutputEdge, PrintingIsDeterministicAcrossTiers) {
  EXPECT_EQ(both("print(0.1 + 0.2 == 0.3);"), "false\n");
  EXPECT_EQ(both("print(1e100);"), "1e+100\n");
  // Huge integers render with 12 significant digits (our documented
  // formatting, deterministic across interpreter and JIT — not the
  // ECMAScript shortest-round-trip algorithm; see DESIGN.md).
  EXPECT_EQ(both("print(123456789012345678);"), "1.23456789012e+17\n");
}

} // namespace
