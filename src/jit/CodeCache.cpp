//===- jit/CodeCache.cpp - The SpecSig-keyed specialization table ---------===//

#include "jit/CodeCache.h"

using namespace jitvs;

size_t CodeCache::codeBytes(const NativeCode &Code) {
  size_t Bytes = sizeof(NativeCode);
  Bytes += Code.Code.size() * sizeof(Code.Code[0]);
  Bytes += Code.ConstPool.size() * sizeof(Value);
  for (const Snapshot &Snap : Code.Snapshots)
    Bytes += sizeof(Snap) + Snap.Entries.size() * sizeof(SnapshotEntry);
  return Bytes;
}

std::shared_ptr<NativeCode> CodeCache::lookup(const FunctionInfo *Info,
                                              uint32_t Generation,
                                              const Value *Args,
                                              size_t NumArgs,
                                              CodeReclaimer &Reclaimer,
                                              const SpecSig **SigOut) {
  auto It = Map.find(Info);
  if (It == Map.end())
    return nullptr;
  std::vector<Entry> &Vec = It->second;
  for (size_t I = 0; I != Vec.size();) {
    Entry &E = Vec[I];
    if (E.Generation != Generation) {
      // A generation bump slipped past an invalidate() — retire the
      // stale body here so it can never be dispatched but stays rooted
      // (via the reclaimer) for any in-flight frame still pinning it.
      ++Counters.StaleGenerationDrops;
      removeEntry(Vec, I, Reclaimer);
      continue;
    }
    if (specSigMatches(E.Sig, Args, NumArgs)) {
      ++Counters.Hits;
      E.LastUse = ++Clock;
      if (SigOut)
        *SigOut = &E.Sig;
      return E.Code;
    }
    ++I;
  }
  return nullptr;
}

bool CodeCache::insert(const FunctionInfo *Info, uint32_t Generation,
                       SpecSig Sig, std::shared_ptr<NativeCode> Code,
                       CodeReclaimer &Reclaimer, SpecSig OsrSig) {
  size_t CodeSize = codeBytes(*Code);
  if (Budget && CodeSize > Budget) {
    ++Counters.RejectedOversize;
    Reclaimer.retire(std::move(Code));
    return false;
  }
  Entry E;
  E.Sig = std::move(Sig);
  E.OsrSig = std::move(OsrSig);
  E.Generation = Generation;
  E.Bytes = CodeSize;
  E.LastUse = ++Clock;
  const NativeCode *Keep = Code.get();
  E.Code = std::move(Code);
  Map[Info].push_back(std::move(E));
  Bytes += CodeSize;
  ++Count;
  ++Counters.Insertions;
  if (Budget && Bytes > Budget)
    evictToBudget(Keep, Reclaimer);
  return true;
}

void CodeCache::evictToBudget(const NativeCode *Keep,
                              CodeReclaimer &Reclaimer) {
  while (Bytes > Budget && Count > 1) {
    // Victim maximizes staleness * bytes so big idle bodies go first.
    std::vector<Entry> *BestVec = nullptr;
    size_t BestIdx = 0;
    uint64_t BestScore = 0;
    bool Found = false;
    for (auto &KV : Map) {
      std::vector<Entry> &Vec = KV.second;
      for (size_t I = 0; I != Vec.size(); ++I) {
        if (Vec[I].Code.get() == Keep)
          continue;
        uint64_t Staleness = Clock - Vec[I].LastUse + 1;
        uint64_t Score = Staleness * (uint64_t)Vec[I].Bytes;
        if (!Found || Score > BestScore) {
          Found = true;
          BestScore = Score;
          BestVec = &Vec;
          BestIdx = I;
        }
      }
    }
    if (!Found)
      break;
    ++Counters.Evictions;
    removeEntry(*BestVec, BestIdx, Reclaimer);
  }
}

void CodeCache::removeEntry(std::vector<Entry> &Vec, size_t Idx,
                            CodeReclaimer &Reclaimer) {
  Entry &E = Vec[Idx];
  Bytes -= E.Bytes;
  --Count;
  Reclaimer.retire(std::move(E.Code));
  Vec.erase(Vec.begin() + Idx);
}

void CodeCache::invalidate(const FunctionInfo *Info, CodeReclaimer &Reclaimer) {
  auto It = Map.find(Info);
  if (It == Map.end())
    return;
  std::vector<Entry> &Vec = It->second;
  for (Entry &E : Vec) {
    ++Counters.Invalidations;
    Bytes -= E.Bytes;
    --Count;
    Reclaimer.retire(std::move(E.Code));
  }
  Map.erase(It);
}

void CodeCache::remove(const FunctionInfo *Info, const NativeCode *Code,
                       CodeReclaimer &Reclaimer) {
  auto It = Map.find(Info);
  if (It == Map.end())
    return;
  std::vector<Entry> &Vec = It->second;
  for (size_t I = 0; I != Vec.size(); ++I) {
    if (Vec[I].Code.get() == Code) {
      removeEntry(Vec, I, Reclaimer);
      return;
    }
  }
}

const std::vector<CodeCache::Entry> &
CodeCache::entries(const FunctionInfo *Info) const {
  static const std::vector<Entry> None;
  auto It = Map.find(Info);
  return It == Map.end() ? None : It->second;
}

size_t CodeCache::entriesFor(const FunctionInfo *Info) const {
  return entries(Info).size();
}

void CodeCache::forEachEntry(const std::function<void(Entry &)> &Fn) {
  for (auto &KV : Map)
    for (Entry &E : KV.second)
      Fn(E);
}
