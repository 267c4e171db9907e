//===- tests/NativeFrameReuseTest.cpp - Reused native frame buffers -------===//
///
/// \file
/// The executor keeps one register file and argument-stack set per
/// native call depth and reuses it for every activation at that depth.
/// These tests drive the ways a reused set could leak one activation's
/// state into the next: stale GC pointers seen by a conservative
/// back-edge trace, a bailout whose resumed interpreter frame calls
/// native code at the same depth, and an error unwinding hundreds of
/// native frames. Each program's output must equal the interpreter's.
///
//===----------------------------------------------------------------------===//

#include "jit/Engine.h"
#include "vm/Runtime.h"

#include <gtest/gtest.h>

using namespace jitvs;

namespace {

struct Outcome {
  std::string Output;
  std::string Error;
};

Outcome interp(const std::string &Source) {
  Runtime RT;
  RT.evaluate(Source);
  return {RT.output(), RT.hasError() ? RT.errorMessage() : ""};
}

/// A previous activation at the same depth filled many registers (and
/// spill slots) with objects and returned; the collection that follows
/// frees them. A sibling with a smaller frame then runs an allocating
/// loop, so every back-edge poll collects and visits its whole register
/// file conservatively. Registers the sibling has not written yet must
/// read undefined, not the freed objects.
TEST(NativeFrameReuse, StaleRegistersAreNeverTraced) {
  const std::string Source =
      "function fill(k) {"
      "  var a = [k], b = [k + 1], c = {x: k}, d = [k, 2], e = 'z' + k;"
      "  var f = [k], g = {y: k}, h = [k], i = [k], j = [k], l = {z: k};"
      "  var m = [k], n = [k], o = [k], p = [k], q = [k], r = [k], s = [k];"
      "  return a[0] + b[0] + c.x + d[1] + e.length + f[0] + g.y + h[0] +"
      "    i[0] + j[0] + l.z + m[0] + n[0] + o[0] + p[0] + q[0] + r[0] +"
      "    s[0]; }"
      "function spin(n) { var t = 0;"
      "  for (var i = 0; i < n; i++) { var o = [i]; t += o[0]; }"
      "  return t; }"
      "var out = 0;"
      "for (var r = 0; r < 40; r++) { out += fill(r); out += spin(25); }"
      "print(out);";
  Outcome Ref = interp(Source);
  ASSERT_EQ(Ref.Error, "");

  Runtime RT;
  RT.heap().setGCStress(true);
  RT.heap().setGCThreshold(64);
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  K.LoopThreshold = 10;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate(Source);
  ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
  EXPECT_EQ(RT.output(), Ref.Output);
  EXPECT_GT(E.stats().NativeCalls, 0u);
  EXPECT_GT(RT.heap().minorCount(), 0u);
}

/// `mid` is native and bails out on its first string argument. The
/// resumed interpreter frame then calls the native `wide` (a larger
/// frame) at the depth `mid`'s activation just left, before using the
/// values rebuilt from the bailout's register copy. The native caller
/// `top` keeps its own registers live across the call.
TEST(NativeFrameReuse, BailoutThenNativeCallAtSameDepth) {
  const std::string Source =
      "function wide(k) {"
      "  var a = [k], b = [k + 1], c = [k + 2], d = [k + 3], e = [k + 4];"
      "  var f = [k + 5], g = [k + 6], h = [k + 7], i = [k + 8];"
      "  var j = [k + 9], l = [k + 10], m = [k + 11], n = [k + 12];"
      "  var o = [k + 13], p = [k + 14], q = [k + 15], r = [k + 16];"
      "  return a[0] + b[0] + c[0] + d[0] + e[0] + f[0] + g[0] + h[0] +"
      "    i[0] + j[0] + l[0] + m[0] + n[0] + o[0] + p[0] + q[0] + r[0]; }"
      "function mid(x, y) {"
      "  var u = y * 3; var v = [y, u];"
      "  var w = x + 1;" // Bails out when x is a string.
      "  return wide(u) + ':' + w + ':' + u + ':' + v[0] + ':' + v[1]; }"
      "function top(x, y) {"
      "  var keep = [y, y * 7]; var z = y - 2;"
      "  var r = mid(x, y);"
      "  return r + '|' + keep[0] + '|' + keep[1] + '|' + z; }"
      "var out = [];"
      "for (var k = 0; k < 20; k++) out.push(top(k, k + 1));"
      "for (var k = 0; k < 4; k++) out.push(top('s' + k, k + 2));"
      "for (var k = 0; k < 4; k++) out.push(top(k, k + 3));"
      "print(out.join(' '));";
  Outcome Ref = interp(Source);
  ASSERT_EQ(Ref.Error, "");

  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 3;
  K.LoopThreshold = 10;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate(Source);
  ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
  EXPECT_EQ(RT.output(), Ref.Output);
  EXPECT_GT(E.stats().Bailouts, 0u);
}

/// A runaway recursion fails with the recursion error after 512 native
/// frames, each of which gives its buffer set back while unwinding. The
/// next native calls, and a second identical deep run, must behave as
/// the interpreter does.
TEST(NativeFrameReuse, RecursionErrorUnwindsEveryFrame) {
  const std::string Source =
      "function deep(n) { var a = [n]; return deep(n + 1) + a[0]; }"
      "function sum(a, b) { var t = [a, b]; return t[0] + t[1]; }"
      "function down(n) { return n == 0 ? 0 : down(n - 1) + 1; }"
      "for (var i = 0; i < 10; i++) { sum(i, 1); down(3); }";
  // Two rounds of: the deep run's error, then sum(40, 2) and down(300).
  auto Transcript = [&](Runtime &RT) {
    RT.evaluate(Source);
    EXPECT_FALSE(RT.hasError()) << RT.errorMessage();
    std::string Out;
    for (int Round = 0; Round != 2; ++Round) {
      RT.callGlobal("deep", {Value::int32(0)});
      Out += RT.hasError() ? RT.errorMessage() : "no error";
      RT.clearError();
      Out += ' ' + RT.callGlobal("sum", {Value::int32(40), Value::int32(2)})
                       .toDisplayString();
      Out += ' ' + RT.callGlobal("down", {Value::int32(300)}).toDisplayString();
      Out += RT.hasError() ? " " + RT.errorMessage() : "";
      Out += "\n";
    }
    return Out;
  };
  Runtime Interp;
  std::string Ref = Transcript(Interp);
  ASSERT_NE(Ref.find("recursion"), std::string::npos) << Ref;

  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 2;
  Engine E(RT, OptConfig::all(), K);
  EXPECT_EQ(Transcript(RT), Ref);
  EXPECT_GT(E.stats().NativeCalls, 1024u);
}

} // namespace
