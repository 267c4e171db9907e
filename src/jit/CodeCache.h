//===- jit/CodeCache.h - The SpecSig-keyed specialization table -*- C++ -*-===//
///
/// \file
/// The engine's one store of specialized binaries. Every specialized body
/// the engine compiles, entry or OSR, is an entry here, keyed by
/// (function, entry SpecSig), so a later call with an equivalent
/// signature — from the same caller, another call site, or another
/// serving session replayed against the same long-lived engine — reuses
/// it. The paper keeps one such binary per function; its conclusion
/// proposes keeping several. Chevalier-Boisvert & Feeley's
/// interprocedural type specialization (PAPERS.md) keeps every version
/// of a function in one place keyed by its entry signature, as this
/// table does for the paper's value tier. Generic bodies stay with the
/// engine's per-function state.
///
/// The engine bounds the table per function with a signature cap
/// (EngineKnobs::CacheDepth, or Engine::CodeCacheSigLimit under a byte
/// budget) and decides what a miss at the cap does. The table itself
/// keeps the memory discipline:
///  - an optional byte budget (EngineKnobs::CodeCacheBytes /
///    JITVS_CODE_CACHE_BYTES; 0 = no budget) bounds resident code;
///  - going over budget evicts by cost-aware LRU: the victim maximizes
///    staleness * bytes, so a huge body idle for a while goes before a
///    small one touched at the same time;
///  - evicted, removed and invalidated bodies are NOT freed here: they
///    are retired through the engine's CodeReclaimer, whose
///    dispatch-boundary epochs guarantee no in-flight native frame still
///    running the body can observe the free (the discipline of Flückiger
///    et al., "Correctness of Speculative Optimizations", PAPERS.md);
///  - every entry is stamped with the function's policy generation at
///    insert; a bailout-limit discard bumps the generation and
///    invalidates the function's entries, and lookup double-checks the
///    stamp so a stale body can never be dispatched even if an
///    invalidation was missed.
///
/// Single-threaded by design: lookups, inserts and eviction all happen on
/// the main thread at dispatch boundaries (background compiles publish
/// through CompileQueue and are inserted at install time, also on the
/// main thread), so no locking is needed and the TSan matrix stays clean.
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_JIT_CODECACHE_H
#define JITVS_JIT_CODECACHE_H

#include "jit/SpecSig.h"
#include "native/NativeCode.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace jitvs {

struct FunctionInfo;

class CodeCache {
public:
  /// \p BudgetBytes 0 = no byte budget.
  explicit CodeCache(size_t BudgetBytes) : Budget(BudgetBytes) {}

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0; ///< Compile-eligible lookups that found nothing.
    uint64_t Insertions = 0;
    uint64_t Evictions = 0; ///< Budget-driven cost-aware-LRU removals.
    uint64_t Invalidations = 0; ///< Entries dropped by invalidate().
    uint64_t StaleGenerationDrops = 0; ///< Caught by the lookup stamp check.
    uint64_t RejectedOversize = 0; ///< Bodies larger than the whole budget.
  };

  /// One specialized binary. The signatures' value-tier entries and the
  /// body's constant pool are GC-rooted by the engine walking
  /// forEachEntry().
  struct Entry {
    SpecSig Sig;    ///< Entry signature: the dispatch key.
    SpecSig OsrSig; ///< OSR bodies: the frame slots baked in at OSR entry.
    uint32_t Generation = 0; ///< FuncState generation at insert.
    std::shared_ptr<NativeCode> Code;
    size_t Bytes = 0;
    uint64_t LastUse = 0; ///< Cache clock at the last hit (or insert).
  };

  /// Finds a body for \p Args under the function's current \p Generation.
  /// A hit refreshes the entry's LRU clock and returns the binary (with
  /// \p SigOut pointing at the matching signature, valid until the next
  /// mutating call); a mismatching generation stamp retires the entry
  /// through \p Reclaimer on the spot. Does NOT count misses — the
  /// engine reports a miss only for compile-eligible calls, via
  /// noteMiss(), so the hit rate is not diluted by cold functions that
  /// were never candidates.
  std::shared_ptr<NativeCode> lookup(const FunctionInfo *Info,
                                     uint32_t Generation, const Value *Args,
                                     size_t NumArgs, CodeReclaimer &Reclaimer,
                                     const SpecSig **SigOut = nullptr);

  /// Records one compile-eligible lookup failure (the hit-rate
  /// denominator).
  void noteMiss() { ++Counters.Misses; }

  /// Publishes a freshly compiled body (\p OsrSig non-empty for a
  /// specialized OSR body). May evict (through \p Reclaimer) to get back
  /// under budget; the new entry itself is never the victim of its own
  /// insert. \returns false when the body alone exceeds the whole budget
  /// — the caller still executes it once, routing it straight to the
  /// reclaimer so its pool stays rooted until the frame drains.
  bool insert(const FunctionInfo *Info, uint32_t Generation, SpecSig Sig,
              std::shared_ptr<NativeCode> Code, CodeReclaimer &Reclaimer,
              SpecSig OsrSig = {});

  /// Drops every entry of \p Info (a despecialization under the paper
  /// policy or CacheDepth, or a bailout-limit discard). Bodies are
  /// retired through \p Reclaimer, never freed inline: in-flight frames
  /// may still be executing them.
  void invalidate(const FunctionInfo *Info, CodeReclaimer &Reclaimer);

  /// Drops \p Info's entry for \p Code, if it has one, retiring it
  /// through \p Reclaimer.
  void remove(const FunctionInfo *Info, const NativeCode *Code,
              CodeReclaimer &Reclaimer);

  /// \p Info's entries, oldest first. Valid until the next mutating call.
  const std::vector<Entry> &entries(const FunctionInfo *Info) const;

  size_t residentBytes() const { return Bytes; }
  size_t budgetBytes() const { return Budget; }
  size_t size() const { return Count; }
  size_t entriesFor(const FunctionInfo *Info) const;
  const Stats &stats() const { return Counters; }

  /// Visits every live entry (GC rooting; main thread only). The entry
  /// is mutable so a moving collection can rewrite the pointers baked
  /// into value-tier signatures in place.
  void forEachEntry(const std::function<void(Entry &)> &Fn);

  /// Byte-cost estimate of one binary: instructions, constant pool and
  /// snapshot metadata. This is what the budget and the resident-bytes
  /// gauge count.
  static size_t codeBytes(const NativeCode &Code);

private:
  /// Evicts highest (staleness * bytes) entries until Bytes <= Budget,
  /// never touching \p Keep (the just-inserted body).
  void evictToBudget(const NativeCode *Keep, CodeReclaimer &Reclaimer);
  void removeEntry(std::vector<Entry> &Vec, size_t Idx,
                   CodeReclaimer &Reclaimer);

  std::unordered_map<const FunctionInfo *, std::vector<Entry>> Map;
  size_t Budget;
  size_t Bytes = 0;
  size_t Count = 0;
  uint64_t Clock = 0;
  Stats Counters;
};

/// Every CodeCache::Stats count under its metrics-registry name (see
/// EngineStatCounts in jit/Engine.h).
inline constexpr std::pair<const char *, uint64_t CodeCache::Stats::*>
    CodeCacheStatCounts[] = {
        {"engine.code_cache.hits", &CodeCache::Stats::Hits},
        {"engine.code_cache.misses", &CodeCache::Stats::Misses},
        {"engine.code_cache.insertions", &CodeCache::Stats::Insertions},
        {"engine.code_cache.evictions", &CodeCache::Stats::Evictions},
        {"engine.code_cache.invalidations", &CodeCache::Stats::Invalidations},
        {"engine.code_cache.stale_generation_drops",
         &CodeCache::Stats::StaleGenerationDrops},
        {"engine.code_cache.rejected_oversize",
         &CodeCache::Stats::RejectedOversize},
};

} // namespace jitvs

#endif // JITVS_JIT_CODECACHE_H
