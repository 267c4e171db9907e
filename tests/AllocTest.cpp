//===- tests/AllocTest.cpp - Heap allocations per warm native call --------===//
///
/// \file
/// A warm native call allocates nothing: the executor lends each
/// activation the frame buffers kept for its native call depth instead
/// of building a register file and argument vectors per call. This
/// binary replaces the global operator new with a counting one and
/// measures the allocations of warm calls directly. It is a binary of
/// its own so the replacement cannot touch jitvs_tests.
///
//===----------------------------------------------------------------------===//

#include "jit/Engine.h"
#include "serve/SessionWorkload.h"
#include "vm/Runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> NumAllocs{0};
} // namespace

void *operator new(std::size_t Size) {
  NumAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return ::operator new(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace jitvs;

namespace {

/// The serving site's request call, `drive(f, a)`, dispatches through
/// `fns[f](...)` to one of 96 functions: per request, one native call
/// into drive and one native-to-native call into the callee. Set up as
/// perfbench's serve workload sets up its engine (six argument values
/// per function, tiered policy, a 120 KiB code cache).
TEST(NativeCallAllocs, ServeSiteDriveCallsAllocateNothing) {
  ServeModel Model;
  Model.PoolSize = 6;
  SiteBundle Site = buildSiteBundle(Model, /*Seed=*/1);
  constexpr size_t WarmCalls = 160000, MeasuredCalls = 50000;
  std::vector<CallEvent> Calls;
  for (uint64_t Id = 0; Calls.size() < WarmCalls + MeasuredCalls; ++Id) {
    RNG Rand(Id * 2654435761ull + 1);
    std::vector<CallEvent> S = generateSession(Site, Model, Rand);
    Calls.insert(Calls.end(), S.begin(), S.end());
  }

  Runtime RT;
  EngineKnobs K;
  K.Policy = TierPolicy::Tiered;
  K.CodeCacheBytes = 120 * 1024;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate(Site.Source);
  ASSERT_FALSE(RT.hasError()) << RT.errorMessage();

  std::vector<Value> Args(2);
  size_t Errors = 0;
  auto Drive = [&](size_t From, size_t To) {
    for (size_t I = From; I != To; ++I) {
      Args[0] = Value::int32(static_cast<int32_t>(Calls[I].Func));
      Args[1] = Value::int32(static_cast<int32_t>(Calls[I].Arg));
      RT.callGlobal("drive", Args);
      if (RT.hasError()) {
        RT.clearError();
        ++Errors;
      }
    }
  };
  Drive(0, WarmCalls);
  uint64_t NativeBefore = E.stats().NativeCalls;
  uint64_t Before = NumAllocs.load();
  Drive(WarmCalls, WarmCalls + MeasuredCalls);
  uint64_t Allocs = NumAllocs.load() - Before;

  EXPECT_EQ(Errors, 0u);
  // Both calls of every request ran native code.
  EXPECT_GE(E.stats().NativeCalls - NativeBefore, 2 * MeasuredCalls);
  EXPECT_LE(static_cast<double>(Allocs) / MeasuredCalls, 0.01)
      << Allocs << " allocations in " << MeasuredCalls << " drive calls";
}

/// Native-to-native calls in a loop: `loop` runs native code and makes
/// every `add` call from it.
TEST(NativeCallAllocs, NativeToNativeCallsAllocateNothing) {
  constexpr int32_t N = 2000000;
  Runtime RT;
  Engine E(RT, OptConfig::all());
  RT.evaluate("function add(a, b) { return a + b; }"
              "function loop(n) { var s = 0;"
              "  for (var i = 0; i < n; i++) s = add(s, i);"
              "  return s; }");
  ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
  std::vector<Value> Args{Value::int32(N)};
  RT.callGlobal("loop", Args); // Compiles both functions.
  ASSERT_FALSE(RT.hasError()) << RT.errorMessage();

  uint64_t NativeBefore = E.stats().NativeCalls;
  uint64_t Before = NumAllocs.load();
  Value S = RT.callGlobal("loop", Args);
  uint64_t Allocs = NumAllocs.load() - Before;

  ASSERT_FALSE(RT.hasError()) << RT.errorMessage();
  EXPECT_EQ(S.asNumber(), static_cast<double>(N) * (N - 1) / 2);
  EXPECT_GE(E.stats().NativeCalls - NativeBefore, static_cast<uint64_t>(N));
  EXPECT_LE(static_cast<double>(Allocs) / N, 0.001)
      << Allocs << " allocations in " << N << " add calls";
}

} // namespace
