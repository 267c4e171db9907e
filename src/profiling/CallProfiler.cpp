//===- profiling/CallProfiler.cpp - Call instrumentation -------------------===//

#include "profiling/CallProfiler.h"

#include "telemetry/Metrics.h"

#include <cstdio>

using namespace jitvs;

bool CallProfiler::onCall(JSFunction *Callee, const Value &, const Value *Args,
                          size_t NumArgs, Value &) {
  MetricsPhaseTimer ProfilePhase(Phase::ProfileCalls);
  FunctionInfo *Info = Callee->info();
  FuncProfile &P = Profiles[{CurrentUnit, Info}];
  if (P.Calls == 0) {
    P.Name = Info->Name;
    for (size_t I = 0; I != NumArgs; ++I)
      P.FirstArgTags.push_back(Args[I].tag());
  }
  ++P.Calls;
  ++TotalCalls;

  uint64_t H = 1469598103934665603ull ^ NumArgs;
  for (size_t I = 0; I != NumArgs; ++I) {
    H ^= Args[I].specializationHash();
    H *= 1099511628211ull;
  }
  P.ArgSetHashes.insert(H);
  return false;
}

static FractionHistogram
buildHistogram(const std::vector<uint64_t> &Values, uint32_t MaxBucket) {
  FractionHistogram Hist;
  Hist.MaxBucket = MaxBucket;
  Hist.TotalFunctions = Values.size();
  Hist.Fractions.assign(MaxBucket, 0.0);
  if (Values.empty())
    return Hist;
  for (uint64_t V : Values) {
    if (V >= 1 && V <= MaxBucket)
      Hist.Fractions[V - 1] += 1.0;
    else if (V > MaxBucket)
      Hist.TailFraction += 1.0;
  }
  for (double &F : Hist.Fractions)
    F /= static_cast<double>(Values.size());
  Hist.TailFraction /= static_cast<double>(Values.size());
  return Hist;
}

FractionHistogram
CallProfiler::callCountHistogram(uint32_t MaxBucket) const {
  std::vector<uint64_t> Counts;
  for (const auto &[Key, P] : Profiles)
    Counts.push_back(P.Calls);
  return buildHistogram(Counts, MaxBucket);
}

FractionHistogram CallProfiler::argSetHistogram(uint32_t MaxBucket) const {
  std::vector<uint64_t> Counts;
  for (const auto &[Key, P] : Profiles)
    Counts.push_back(P.ArgSetHashes.size());
  return buildHistogram(Counts, MaxBucket);
}

double CallProfiler::fractionCalledOnce() const {
  if (Profiles.empty())
    return 0.0;
  size_t N = 0;
  for (const auto &[Key, P] : Profiles)
    if (P.Calls == 1)
      ++N;
  return static_cast<double>(N) / static_cast<double>(Profiles.size());
}

double CallProfiler::fractionSingleArgSet() const {
  if (Profiles.empty())
    return 0.0;
  size_t N = 0;
  for (const auto &[Key, P] : Profiles)
    if (P.ArgSetHashes.size() == 1)
      ++N;
  return static_cast<double>(N) / static_cast<double>(Profiles.size());
}

TypeDistribution CallProfiler::monomorphicParamTypes() const {
  TypeDistribution D;
  for (const auto &[Key, P] : Profiles) {
    if (P.ArgSetHashes.size() != 1)
      continue;
    for (ValueTag Tag : P.FirstArgTags) {
      size_t Idx;
      switch (Tag) {
      case ValueTag::Array:
        Idx = 0;
        break;
      case ValueTag::Boolean:
        Idx = 1;
        break;
      case ValueTag::Double:
        Idx = 2;
        break;
      case ValueTag::Function:
        Idx = 3;
        break;
      case ValueTag::Int32:
        Idx = 4;
        break;
      case ValueTag::Null:
        Idx = 5;
        break;
      case ValueTag::Object:
        Idx = 6;
        break;
      case ValueTag::String:
        Idx = 7;
        break;
      case ValueTag::Undefined:
        Idx = 8;
        break;
      default:
        continue;
      }
      D.Fractions[Idx] += 1.0;
      ++D.TotalParams;
    }
  }
  if (D.TotalParams)
    for (double &F : D.Fractions)
      F /= static_cast<double>(D.TotalParams);
  return D;
}

std::pair<std::string, uint64_t> CallProfiler::mostCalled() const {
  std::pair<std::string, uint64_t> Best{"", 0};
  for (const auto &[Key, P] : Profiles)
    if (P.Calls > Best.second)
      Best = {P.Name, P.Calls};
  return Best;
}

std::pair<std::string, uint64_t> CallProfiler::mostVaried() const {
  std::pair<std::string, uint64_t> Best{"", 0};
  for (const auto &[Key, P] : Profiles)
    if (P.ArgSetHashes.size() > Best.second)
      Best = {P.Name, P.ArgSetHashes.size()};
  return Best;
}

const char *TypeDistribution::categoryName(size_t I) {
  static const char *const Names[9] = {"array",  "bool",   "double",
                                       "function", "int",  "null",
                                       "object", "string", "undefined"};
  return Names[I];
}

std::string TypeDistribution::toTable() const {
  std::string Out;
  char Buf[64];
  for (size_t I = 0; I != 9; ++I) {
    std::snprintf(Buf, sizeof(Buf), "  %-10s %6.2f%%\n", categoryName(I),
                  Fractions[I] * 100.0);
    Out += Buf;
  }
  return Out;
}

std::string FractionHistogram::toTable(const char *MetricName) const {
  std::string Out;
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "  %-6s  %% of functions (total %llu)\n",
                MetricName, static_cast<unsigned long long>(TotalFunctions));
  Out += Buf;
  for (size_t I = 0; I != Fractions.size(); ++I) {
    if (Fractions[I] == 0.0)
      continue;
    std::string Bar(static_cast<size_t>(Fractions[I] * 100.0), '#');
    std::snprintf(Buf, sizeof(Buf), "  %-6zu  %6.2f%%  %s\n", I + 1,
                  Fractions[I] * 100.0, Bar.c_str());
    Out += Buf;
  }
  if (TailFraction > 0.0) {
    std::snprintf(Buf, sizeof(Buf), "  >%-5u  %6.2f%%\n", MaxBucket,
                  TailFraction * 100.0);
    Out += Buf;
  }
  return Out;
}
