//===- bench/bench_fig1_2_web_histograms.cpp - Figures 1 and 2 ------------===//
///
/// \file
/// Regenerates Figures 1 and 2: the per-function invocation-count and
/// distinct-argument-set histograms of a web browsing session. The
/// paper's data came from instrumenting Firefox over the Alexa top-100;
/// we instrument a synthetic session drawn from the same distributions
/// (see DESIGN.md), then validate the headline fractions the policy is
/// built on: ~49% of functions called once, ~60% always called with the
/// same arguments.
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"
#include "profiling/CallProfiler.h"
#include "profiling/WebSession.h"
#include "vm/Runtime.h"

#include <cstdio>

using namespace jitvs;
using namespace jitvs::bench;

int main() {
  WebSessionModel Model;
  std::string Source = generateWebSessionProgram(Model, /*Seed=*/20130223);

  Runtime RT;
  CallProfiler Profiler;
  RT.setHooks(&Profiler);
  RT.evaluate(Source);
  if (RT.hasError()) {
    std::fprintf(stderr, "session failed: %s\n", RT.errorMessage().c_str());
    return 1;
  }

  std::printf("Synthetic web session: %zu functions, %llu calls\n\n",
              Profiler.numFunctions(),
              static_cast<unsigned long long>(Profiler.totalCalls()));

  std::printf("Figure 1: %% of functions called n times\n");
  std::printf("%s\n",
              Profiler.callCountHistogram().toTable("calls").c_str());

  std::printf("Figure 2: %% of functions called with n distinct argument "
              "sets\n");
  std::printf("%s\n",
              Profiler.argSetHistogram().toTable("argsets").c_str());

  auto [MostCalledName, MostCalledCount] = Profiler.mostCalled();
  std::printf("Most called function: %s (%llu calls)\n",
              MostCalledName.c_str(),
              static_cast<unsigned long long>(MostCalledCount));

  std::printf("\nSummary vs paper:\n");
  std::printf("  called exactly once:        %6.2f%%  (paper: 48.88%%)\n",
              Profiler.fractionCalledOnce() * 100.0);
  std::printf("  single argument set:        %6.2f%%  (paper: 59.91%%)\n",
              Profiler.fractionSingleArgSet() * 100.0);

  BenchReport Report("fig1_2_web_histograms", 1);
  Report.addRow("web-session", "profile",
                static_cast<double>(Profiler.numFunctions()), "functions");
  Report.addMetric("fraction_called_once_pct",
                   Profiler.fractionCalledOnce() * 100.0);
  Report.addMetric("fraction_single_argset_pct",
                   Profiler.fractionSingleArgSet() * 100.0);
  Report.write();
  return 0;
}
