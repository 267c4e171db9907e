//===- perfbench/src/Bench.h - Shared types of the benchmark ----*- C++ -*-===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "jit/Engine.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir; ///< Result and span files; empty = none.
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// What one run produced. Metrics holds the end-to-end set in an
/// untraced run and the per-layer set in a traced one.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Correct = true;
  std::vector<Metric> Metrics;
  /// Extra facts recorded with the results (knobs, samples, digests).
  std::vector<std::pair<std::string, std::string>> Notes;
  /// Share of op time per layer (traced runs).
  std::vector<Metric> Shares;
  /// The layer the workload was chosen for still does most of its work.
  bool LayerCheck = true;

  void add(std::string Name, double V, std::string Unit) {
    Metrics.push_back({std::move(Name), V, std::move(Unit)});
  }
  void note(std::string Key, std::string V) {
    Notes.emplace_back(std::move(Key), std::move(V));
  }
};

RunResult runSuites(const Options &O);
RunResult runGenprog(const Options &O);
RunResult runServe(const Options &O, bool Async);

std::string describeKnobs(const jitvs::EngineKnobs &K,
                          const jitvs::OptConfig &C);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
