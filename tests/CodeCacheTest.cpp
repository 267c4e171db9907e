//===- tests/CodeCacheTest.cpp - Shared SpecSig code cache ----------------===//
///
/// \file
/// The specialization table (jit/CodeCache.h), unit-level
/// and through the engine: signature keying, byte accounting, the
/// cost-aware-LRU eviction order, oversize rejection, stale-generation
/// drops, the per-function signature cap with its generic-fallback
/// dispatch, despecialization invalidation, and — via drain mode — the
/// invalidation-under-eviction interleaving with a background compiler.
/// Plus the contract that matters most: without a byte budget, behavior
/// is the legacy one-binary policy, bit for bit.
///
//===----------------------------------------------------------------------===//

#include "jit/CodeCache.h"
#include "jit/Engine.h"
#include "vm/Runtime.h"

#include <gtest/gtest.h>

using namespace jitvs;

namespace {

/// Distinct map keys for unit-level tests; never dereferenced by the
/// cache.
FunctionInfo *fakeInfo(uintptr_t N) {
  static char Anchor[16];
  return reinterpret_cast<FunctionInfo *>(Anchor + N);
}

std::shared_ptr<NativeCode> fakeCode(size_t Instrs) {
  auto Code = std::make_shared<NativeCode>(nullptr);
  Code->Code.resize(Instrs);
  return Code;
}

SpecSig intSig(int32_t V) {
  Value Arg = Value::int32(V);
  return makeSpecSig(nullptr, &Arg, 1);
}

// --- Unit level -----------------------------------------------------------

TEST(CodeCache, LookupKeysOnSignatureAndGeneration) {
  CodeCache Cache(1 << 20);
  CodeReclaimer Reclaimer;
  auto Code = fakeCode(10);
  ASSERT_TRUE(Cache.insert(fakeInfo(0), /*Generation=*/0, intSig(7), Code,
                           Reclaimer));

  Value Seven = Value::int32(7), Eight = Value::int32(8);
  // Same function, same generation, same value: hit.
  EXPECT_EQ(Cache.lookup(fakeInfo(0), 0, &Seven, 1, Reclaimer), Code);
  // Different value: miss (lookup itself does not count misses).
  EXPECT_EQ(Cache.lookup(fakeInfo(0), 0, &Eight, 1, Reclaimer), nullptr);
  // Different function: miss.
  EXPECT_EQ(Cache.lookup(fakeInfo(1), 0, &Seven, 1, Reclaimer), nullptr);
  EXPECT_EQ(Cache.stats().Hits, 1u);
  EXPECT_EQ(Cache.stats().Misses, 0u);

  // Bumped generation: the stale entry is dropped on contact, through
  // the reclaimer (an in-flight frame may still be running it).
  EXPECT_EQ(Cache.lookup(fakeInfo(0), 1, &Seven, 1, Reclaimer), nullptr);
  EXPECT_EQ(Cache.stats().StaleGenerationDrops, 1u);
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.residentBytes(), 0u);
  EXPECT_EQ(Reclaimer.pending(), 1u);
}

TEST(CodeCache, EvictionPrefersStaleAndLarge) {
  // Budget fits roughly two of the three bodies.
  size_t Small = CodeCache::codeBytes(*fakeCode(8));
  size_t Large = CodeCache::codeBytes(*fakeCode(64));
  CodeCache Cache(Small + Large + Large / 2);
  CodeReclaimer Reclaimer;

  auto Hot = fakeCode(64), Cold = fakeCode(64), Tiny = fakeCode(8);
  ASSERT_TRUE(Cache.insert(fakeInfo(0), 0, intSig(1), Cold, Reclaimer));
  ASSERT_TRUE(Cache.insert(fakeInfo(1), 0, intSig(2), Hot, Reclaimer));
  // Touch Hot so Cold is the stale large entry.
  Value Two = Value::int32(2);
  ASSERT_EQ(Cache.lookup(fakeInfo(1), 0, &Two, 1, Reclaimer), Hot);

  // Inserting Tiny pushes past budget; the victim must be Cold
  // (staleness * bytes beats both the fresher Hot and the tiny entry),
  // and never the just-inserted body.
  ASSERT_TRUE(Cache.insert(fakeInfo(2), 0, intSig(3), Tiny, Reclaimer));
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  Value One = Value::int32(1), Three = Value::int32(3);
  EXPECT_EQ(Cache.lookup(fakeInfo(0), 0, &One, 1, Reclaimer), nullptr);
  EXPECT_EQ(Cache.lookup(fakeInfo(1), 0, &Two, 1, Reclaimer), Hot);
  EXPECT_EQ(Cache.lookup(fakeInfo(2), 0, &Three, 1, Reclaimer), Tiny);
  EXPECT_LE(Cache.residentBytes(), Cache.budgetBytes());
}

TEST(CodeCache, OversizeBodyIsRejectedAndRetired) {
  CodeCache Cache(64); // Smaller than any real body.
  CodeReclaimer Reclaimer;
  EXPECT_FALSE(
      Cache.insert(fakeInfo(0), 0, intSig(1), fakeCode(100), Reclaimer));
  EXPECT_EQ(Cache.stats().RejectedOversize, 1u);
  EXPECT_EQ(Cache.size(), 0u);
  // The caller still runs the body once; it must stay alive (rooted)
  // until dispatch-boundary epochs retire it.
  EXPECT_EQ(Reclaimer.pending(), 1u);
}

TEST(CodeCache, InvalidateDropsAllEntriesOfAFunction) {
  CodeCache Cache(1 << 20);
  CodeReclaimer Reclaimer;
  ASSERT_TRUE(Cache.insert(fakeInfo(0), 0, intSig(1), fakeCode(4), Reclaimer));
  ASSERT_TRUE(Cache.insert(fakeInfo(0), 0, intSig(2), fakeCode(4), Reclaimer));
  ASSERT_TRUE(Cache.insert(fakeInfo(1), 0, intSig(1), fakeCode(4), Reclaimer));
  EXPECT_EQ(Cache.entriesFor(fakeInfo(0)), 2u);

  Cache.invalidate(fakeInfo(0), Reclaimer);
  EXPECT_EQ(Cache.entriesFor(fakeInfo(0)), 0u);
  EXPECT_EQ(Cache.entriesFor(fakeInfo(1)), 1u);
  EXPECT_EQ(Cache.stats().Invalidations, 2u);
  EXPECT_EQ(Reclaimer.pending(), 2u);

  size_t Visited = 0;
  Cache.forEachEntry([&](const CodeCache::Entry &) { ++Visited; });
  EXPECT_EQ(Visited, 1u);
}

// --- Through the engine ---------------------------------------------------

EngineKnobs cacheKnobs(size_t Bytes, uint32_t Threads = 0,
                       bool Drain = false) {
  EngineKnobs Knobs;
  Knobs.CodeCacheBytes = Bytes;
  Knobs.CompileThreads = Threads;
  Knobs.CompileDrain = Drain;
  return Knobs;
}

TEST(CodeCacheEngine, CrossCallReuseOfSpecializedBodies) {
  Runtime RT;
  EngineKnobs K = cacheKnobs(1 << 20);
  K.CallThreshold = 4;
  K.LoopThreshold = 100000;
  Engine E(RT, OptConfig::all(), K);
  RT.evaluate("function f(x) { return x * 2 + 1; }"
              "for (var i = 0; i < 40; i++) f(7);");
  ASSERT_FALSE(RT.hasError());
  ASSERT_NE(E.codeCache(), nullptr);
  // One specialized compile, every later call a cache hit.
  EXPECT_EQ(E.codeCache()->stats().Insertions, 1u);
  EXPECT_GT(E.codeCache()->stats().Hits, 30u);
  EXPECT_EQ(E.stats().SpecializedCompiles, 1u);
  // The cache is the entry dispatch: no despecialization happened.
  EXPECT_EQ(E.stats().Despecializations, 0u);
}

TEST(CodeCacheEngine, DistinctValuesCoexistInsteadOfDespecializing) {
  Runtime RT;
  EngineKnobs K = cacheKnobs(1 << 20);
  K.CallThreshold = 4;
  K.LoopThreshold = 100000;
  Engine E(RT, OptConfig::all(), K);
  // The legacy policy despecializes f on the first different argument;
  // the cache holds one body per value instead.
  RT.evaluate("function f(x) { return x * 2; }"
              "for (var i = 0; i < 20; i++) f(1);"
              "for (var i = 0; i < 20; i++) f(2);"
              "for (var i = 0; i < 20; i++) f(1);");
  ASSERT_FALSE(RT.hasError());
  EXPECT_EQ(E.codeCache()->stats().Insertions, 2u);
  EXPECT_EQ(E.stats().Despecializations, 0u);
  EXPECT_EQ(E.stats().GenericCompiles, 0u);
  EXPECT_GT(E.codeCache()->stats().Hits, 40u);
}

TEST(CodeCacheEngine, SignatureCapFallsBackToGenericButKeepsEntries) {
  Runtime RT;
  EngineKnobs K = cacheKnobs(1 << 20);
  K.CallThreshold = 2;
  K.LoopThreshold = 100000;
  Engine E(RT, OptConfig::all(), K);
  // 16 distinct values > CodeCacheSigLimit (8): the cache fills its 8
  // slots, then the function gets one generic fallback; the 8 cached
  // signatures keep serving their values.
  std::string Src = "function f(x) { return x + 1; }\n";
  for (int Round = 0; Round < 3; ++Round)
    for (int V = 0; V < 16; ++V)
      Src += "f(" + std::to_string(V) + ");\n";
  RT.evaluate(Src);
  ASSERT_FALSE(RT.hasError());
  EXPECT_EQ(E.codeCache()->entriesFor(nullptr), 0u); // (API sanity)
  EXPECT_EQ(E.codeCache()->stats().Insertions,
            static_cast<uint64_t>(Engine::CodeCacheSigLimit));
  EXPECT_EQ(E.codeCache()->size(),
            static_cast<size_t>(Engine::CodeCacheSigLimit));
  EXPECT_EQ(E.stats().GenericCompiles, 1u);
  // Rounds 2 and 3 hit the cached signatures for the first 8 values.
  EXPECT_GE(E.codeCache()->stats().Hits, 16u);
}

TEST(CodeCacheEngine, BudgetEvictionStaysWithinBytes) {
  Runtime RT;
  EngineKnobs K = cacheKnobs(2048);
  K.CallThreshold = 2;
  K.LoopThreshold = 100000;
  Engine E(RT, OptConfig::all(), K);
  std::string Src;
  // Many hot functions, one value each: the 2KB budget cannot hold all
  // the bodies, so insertion evicts (while each body alone fits).
  for (int F = 0; F < 16; ++F)
    Src += "function g" + std::to_string(F) + "(x) { return x * 3 + " +
           std::to_string(F) + "; }\n";
  for (int Round = 0; Round < 6; ++Round)
    for (int F = 0; F < 16; ++F)
      Src += 'g' + std::to_string(F) + "(" + std::to_string(F) + ");\n";
  RT.evaluate(Src);
  ASSERT_FALSE(RT.hasError());
  const CodeCache *Cache = E.codeCache();
  EXPECT_GT(Cache->stats().Evictions, 0u);
  EXPECT_LE(Cache->residentBytes(), Cache->budgetBytes());
  EXPECT_GT(Cache->stats().Hits + Cache->stats().Misses, 0u);
}

TEST(CodeCacheEngine, DespecializationInvalidatesEntries) {
  Runtime RT;
  EngineKnobs K = cacheKnobs(1 << 20);
  K.CallThreshold = 2;
  K.LoopThreshold = 100000;
  K.BailoutLimit = 2;
  Engine E(RT, OptConfig::all(), K);
  // f compiles specialized on an int, then a string argument bails out
  // the int-typed body repeatedly until the bailout limit discards it
  // and invalidates the function's cache entries.
  RT.evaluate("function f(x) { return x + 1; }"
              "for (var i = 0; i < 10; i++) f(1);"
              "for (var i = 0; i < 10; i++) f('s');"
              "for (var i = 0; i < 10; i++) f(1);");
  ASSERT_FALSE(RT.hasError());
  EXPECT_GT(E.codeCache()->stats().Insertions, 0u);
  // The int body and the string body both inserted; whatever the exact
  // discard sequence, accounting must balance.
  const CodeCache::Stats &S = E.codeCache()->stats();
  EXPECT_EQ(E.codeCache()->size(),
            static_cast<size_t>(S.Insertions - S.Evictions -
                                S.Invalidations - S.StaleGenerationDrops));
}

TEST(CodeCacheEngine, DrainModeEvictionUnderBackgroundCompiles) {
  // The invalidation-under-eviction interleaving: background compiler,
  // drain mode (deterministic trigger points), tiny budget so installs
  // of freshly compiled cache bodies evict concurrently living ones.
  Runtime RT;
  EngineKnobs K = cacheKnobs(4096, /*Threads=*/2, /*Drain=*/true);
  K.CallThreshold = 2;
  K.LoopThreshold = 100000;
  Engine E(RT, OptConfig::all(), K);
  std::string Src;
  for (int F = 0; F < 8; ++F)
    Src += "function h" + std::to_string(F) + "(x) { return x * 5 + " +
           std::to_string(F) + "; }\n";
  for (int Round = 0; Round < 8; ++Round)
    for (int F = 0; F < 8; ++F)
      Src += 'h' + std::to_string(F) + "(" + std::to_string(Round % 3) +
             ");\n";
  RT.evaluate(Src);
  ASSERT_FALSE(RT.hasError());
  const CodeCache *Cache = E.codeCache();
  EXPECT_LE(Cache->residentBytes(), Cache->budgetBytes());
  EXPECT_GT(Cache->stats().Insertions, 0u);
}

TEST(CodeCacheEngine, DisabledCacheMatchesLegacyPolicy) {
  // Same program without and with a byte budget: identical observable
  // output; without one the engine must behave exactly like the legacy
  // one-binary policy (one despecialization, generic recompile).
  const char *Src = "function f(x) { return x * 2; }"
                    "var r = 0;"
                    "for (var i = 0; i < 20; i++) r = r + f(1);"
                    "for (var i = 0; i < 20; i++) r = r + f(2);"
                    "print(r);";
  std::string OutOff, OutOn;
  {
    Runtime RT;
    EngineKnobs K = cacheKnobs(0);
    K.CallThreshold = 4;
    Engine E(RT, OptConfig::all(), K);
    RT.evaluate(Src);
    ASSERT_FALSE(RT.hasError());
    EXPECT_EQ(E.codeCache()->budgetBytes(), 0u);
    EXPECT_EQ(E.stats().Despecializations, 1u);
    OutOff = RT.output();
  }
  {
    Runtime RT;
    EngineKnobs K = cacheKnobs(1 << 20);
    K.CallThreshold = 4;
    Engine E(RT, OptConfig::all(), K);
    RT.evaluate(Src);
    ASSERT_FALSE(RT.hasError());
    EXPECT_EQ(E.stats().Despecializations, 0u);
    OutOn = RT.output();
  }
  EXPECT_EQ(OutOff, OutOn);
}

} // namespace
