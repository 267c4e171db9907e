//===- bench/bench_dispatch.cpp - Dispatch-mode throughput ----------------===//
///
/// \file
/// Measures what the native backend's loop overhead costs and what the
/// threaded-dispatch + macro-op-fusion work recovers: each loop kernel
/// runs under four execution modes —
///
///   interp       pure interpreter (no JIT)
///   switch       JIT, portable while+switch dispatch, fusion off
///   goto         JIT, computed-goto threaded dispatch, fusion off
///   goto+fuse    JIT, threaded dispatch plus macro-op fusion
///
/// The paper's speedups (Fig. 9a) come from executing fewer instructions
/// and guards; per-instruction dispatch cost dilutes that win, so the
/// goto and goto+fuse columns are the backend catching up with the
/// "as fast as the hardware allows" north star.
///
/// Two call kernels then measure the generic call path itself, under the
/// default goto+fuse mode: a loop making 2M native-to-native calls to
/// `add(a, b)`, and its twin with the body written inline. Their
/// difference divided by the call count is the dispatch cost per call
/// (Runtime::callValue, the engine's hook and table lookup, and
/// Executor::run's frame set-up).
///
/// Env: JITVS_BENCH_REPS (repetitions), JITVS_DISPATCH/JITVS_FUSION are
/// deliberately overridden per column here.
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

#include <cmath>

using namespace jitvs;
using namespace jitvs::bench;

namespace {

struct Mode {
  const char *Name;
  bool Jit;
  DispatchMode Dispatch;
  bool Fusion;
};

const Mode Modes[] = {
    {"interp", false, DispatchMode::Switch, false},
    {"switch", true, DispatchMode::Switch, false},
    {"goto", true, DispatchMode::Goto, false},
    {"goto+fuse", true, DispatchMode::Goto, true},
};
constexpr size_t NumModes = sizeof(Modes) / sizeof(Modes[0]);

/// The pipelined loop kernels: tight arithmetic/compare-branch loops
/// where dispatch overhead dominates, drawn from all three suites.
const char *const KernelNames[] = {
    "bitops-bits-in-byte", // SunSpider
    "bitops-bitwise-and",  // SunSpider
    "math-cordic",         // SunSpider
    "math-partial-sums",   // SunSpider
    "audio-oscillator",    // Kraken
    "imaging-desaturate",  // Kraken
    "navier-stokes-lite",  // V8
    "crypto-lite",         // V8
};

/// Calls the call kernel makes; the inline twin runs as many iterations.
constexpr double CallKernelCalls = 2000000;
const Workload CallKernels[] = {
    {"call", "call-add-2M",
     "function add(a, b) { return a + b; }"
     "function loop(n) { var s = 0;"
     "  for (var i = 0; i < n; i++) s = add(s, i);"
     "  return s; }"
     "loop(2000000);"},
    {"call", "call-add-2M-inline",
     "function loop(n) { var s = 0;"
     "  for (var i = 0; i < n; i++) s = s + i;"
     "  return s; }"
     "loop(2000000);"},
};
constexpr size_t NumCallKernels = sizeof(CallKernels) / sizeof(CallKernels[0]);
const Mode &DefaultMode = Modes[NumModes - 1]; // goto+fuse

double runMode(const Workload &W, const Mode &M) {
  Runtime RT;
  std::unique_ptr<Engine> E;
  OptConfig Config = OptConfig::all();
  if (M.Jit) {
    EngineKnobs K = EngineKnobs::fromEnvironment();
    K.Dispatch = M.Dispatch;
    K.Fusion = M.Fusion;
    E = std::make_unique<Engine>(RT, Config, K);
  }
  Timer T;
  RT.evaluate(W.Source);
  double Seconds = T.seconds();
  if (RT.hasError()) {
    std::fprintf(stderr, "workload %s failed: %s\n", W.Name,
                 RT.errorMessage().c_str());
    std::exit(1);
  }
  return Seconds;
}

} // namespace

int main() {
  std::vector<Workload> Kernels;
  for (const char *Name : KernelNames)
    if (const Workload *W = findWorkload(Name))
      Kernels.push_back(*W);

  int Reps = repetitions();
  if (!Executor::hasComputedGoto())
    std::printf("note: no computed-goto support in this build; 'goto' "
                "columns run the switch loop.\n");
  std::printf("Dispatch-mode throughput on loop kernels (%d reps, median "
              "ms; speedup vs switch)\n\n", Reps);

  // Interleaved sampling, same protocol as measureMatrix.
  std::vector<std::vector<std::vector<double>>> Samples(
      Kernels.size(), std::vector<std::vector<double>>(NumModes));
  std::vector<std::vector<double>> CallSamples(NumCallKernels);
  for (int R = 0; R < Reps; ++R) {
    for (size_t K = 0; K != Kernels.size(); ++K)
      for (size_t M = 0; M != NumModes; ++M)
        Samples[K][M].push_back(runMode(Kernels[K], Modes[M]));
    for (size_t K = 0; K != NumCallKernels; ++K)
      CallSamples[K].push_back(runMode(CallKernels[K], DefaultMode));
  }

  std::printf("  %-22s", "kernel");
  for (const Mode &M : Modes)
    std::printf(" %12s", M.Name);
  std::printf(" %10s\n", "fuse-gain");
  printRule(22 + 13 * NumModes + 13);

  // Per-kernel medians; geometric means of the ratios vs the switch
  // column (index 1).
  BenchReport Report("dispatch", Reps);
  Report.setMeta("computed_goto", Executor::hasComputedGoto() ? "1" : "0");
  double GeoGoto = 0.0, GeoFuse = 0.0;
  for (size_t K = 0; K != Kernels.size(); ++K) {
    double Med[NumModes];
    for (size_t M = 0; M != NumModes; ++M) {
      Med[M] = median(Samples[K][M]);
      Report.addRow(Kernels[K].Name, Modes[M].Name, Med[M], "seconds",
                    &Samples[K][M]);
    }
    std::printf("  %-22s", Kernels[K].Name);
    for (size_t M = 0; M != NumModes; ++M)
      std::printf(" %9.2f ms", Med[M] * 1e3);
    std::printf(" %+9.1f%%\n", speedupPercent(Med[1], Med[3]));
    GeoGoto += std::log(Med[1] / Med[2]);
    GeoFuse += std::log(Med[1] / Med[3]);
  }
  GeoGoto = std::exp(GeoGoto / Kernels.size());
  GeoFuse = std::exp(GeoFuse / Kernels.size());

  std::printf("\nGeometric-mean speedup vs switch dispatch: goto %+.1f%%, "
              "goto+fuse %+.1f%%\n",
              (GeoGoto - 1.0) * 100.0, (GeoFuse - 1.0) * 100.0);
  std::printf("Expected shape: goto+fuse > goto > switch on these kernels; "
              "interp trails by an order of magnitude.\n");

  double CallMed[NumCallKernels];
  std::printf("\nCall cost (%s, median ms)\n", DefaultMode.Name);
  for (size_t K = 0; K != NumCallKernels; ++K) {
    CallMed[K] = median(CallSamples[K]);
    Report.addRow(CallKernels[K].Name, DefaultMode.Name, CallMed[K], "seconds",
                  &CallSamples[K]);
    std::printf("  %-22s %9.2f ms\n", CallKernels[K].Name, CallMed[K] * 1e3);
  }
  double CallNs = (CallMed[0] - CallMed[1]) / CallKernelCalls * 1e9;
  std::printf("Dispatch cost per native-to-native call: %.0f ns\n", CallNs);

  Report.addMetric("call_dispatch_ns", CallNs);
  Report.addMetric("geomean_goto_speedup_pct", (GeoGoto - 1.0) * 100.0);
  Report.addMetric("geomean_fuse_speedup_pct", (GeoFuse - 1.0) * 100.0);
  Report.write();
  return GeoFuse > 1.0 ? 0 : 1;
}
