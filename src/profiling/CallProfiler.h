//===- profiling/CallProfiler.h - Section 2 instrumentation -----*- C++ -*-===//
///
/// \file
/// Reproduces the paper's Section 2 instrumentation of the Firefox
/// browser: per-function invocation counts (Figure 1/3-top), distinct
/// argument-set counts (Figure 2/3-bottom) and the parameter-type mix of
/// functions always called with one argument set (Figure 4).
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_PROFILING_CALLPROFILER_H
#define JITVS_PROFILING_CALLPROFILER_H

#include "vm/Runtime.h"

#include <array>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace jitvs {

/// Aggregated histogram: Fraction[n] = share of functions with metric
/// value n (1-based); the tail beyond MaxBucket is combined, as in the
/// paper's figures.
struct FractionHistogram {
  std::vector<double> Fractions; ///< Index 0 -> value 1, etc.
  double TailFraction = 0.0;
  uint32_t MaxBucket = 30;
  uint64_t TotalFunctions = 0;

  std::string toTable(const char *MetricName) const;
};

/// Parameter-type distribution (Figure 4 categories).
struct TypeDistribution {
  // Order mirrors Figure 4: array, bool, double, function, int, null,
  // object, string, undefined.
  std::array<double, 9> Fractions = {};
  uint64_t TotalParams = 0;

  static const char *categoryName(size_t I);
  std::string toTable() const;
};

/// Observes every user-function call through the Runtime's call hook
/// (attach with Runtime::setHooks); it never runs a call itself.
class CallProfiler final : public ExecutionHooks {
public:
  /// Starts a new profiling unit (one program/Runtime). Function
  /// identities are per-unit: fresh runtimes reuse heap addresses, so raw
  /// FunctionInfo pointers are only unique within a unit.
  void beginUnit() { ++CurrentUnit; }

  /// Records the call and returns false: the Runtime interprets it.
  bool onCall(JSFunction *Callee, const Value &ThisV, const Value *Args,
              size_t NumArgs, Value &Result) override;

  /// Figure 1 / Figure 3 (top): how many functions were called n times.
  FractionHistogram callCountHistogram(uint32_t MaxBucket = 30) const;

  /// Figure 2 / Figure 3 (bottom): how many functions were called with n
  /// distinct argument sets.
  FractionHistogram argSetHistogram(uint32_t MaxBucket = 30) const;

  /// Figure 4: the types of the parameters of functions that were always
  /// called with a single argument set.
  TypeDistribution monomorphicParamTypes() const;

  /// Share of functions called exactly once / with exactly one arg set.
  double fractionCalledOnce() const;
  double fractionSingleArgSet() const;

  size_t numFunctions() const { return Profiles.size(); }
  uint64_t totalCalls() const { return TotalCalls; }

  /// Most-called function (name, calls) — the paper quotes these.
  std::pair<std::string, uint64_t> mostCalled() const;
  /// Function with the most distinct argument sets.
  std::pair<std::string, uint64_t> mostVaried() const;

private:
  struct FuncProfile {
    std::string Name;
    uint64_t Calls = 0;
    std::unordered_set<uint64_t> ArgSetHashes;
    /// Tags of the first call's arguments (used for Figure 4 when the
    /// function stays monomorphic).
    std::vector<ValueTag> FirstArgTags;
    bool FirstArgIsInt = false;
  };

  std::map<std::pair<uint64_t, const FunctionInfo *>, FuncProfile> Profiles;
  uint64_t CurrentUnit = 0;
  uint64_t TotalCalls = 0;
};

} // namespace jitvs

#endif // JITVS_PROFILING_CALLPROFILER_H
