//===- bench/bench_fig4_param_types.cpp - Figure 4 ------------------------===//
///
/// \file
/// Regenerates Figure 4: the most common types of parameters of
/// functions called with only one set of arguments, for each suite and
/// for the (synthetic) web session. The paper's point: benchmarks are
/// integer-heavy while the web is dominated by objects and strings —
/// which bounds how much of the specialization benefit transfers.
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"
#include "profiling/CallProfiler.h"
#include "profiling/WebSession.h"
#include "vm/Runtime.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace jitvs;
using namespace jitvs::bench;

int main() {
  std::printf("Figure 4: parameter types of monomorphic functions\n\n");

  BenchReport Report("fig4_param_types", 1);
  for (int SuiteIdx = 0; SuiteIdx != 3; ++SuiteIdx) {
    CallProfiler Profiler;
    for (const Workload &W : suiteWorkloads(SuiteNames[SuiteIdx])) {
      Runtime RT;
      Profiler.beginUnit();
      RT.setHooks(&Profiler);
      RT.evaluate(W.Source);
      if (RT.hasError()) {
        std::fprintf(stderr, "%s failed: %s\n", W.Name,
                     RT.errorMessage().c_str());
        return 1;
      }
    }
    std::printf("== %s ==\n%s\n", SuiteTitles[SuiteIdx],
                Profiler.monomorphicParamTypes().toTable().c_str());
    Report.addRow(SuiteNames[SuiteIdx], "profile",
                  static_cast<double>(Profiler.numFunctions()), "functions");
  }

  {
    WebSessionModel Model;
    Runtime RT;
    CallProfiler Profiler;
    RT.setHooks(&Profiler);
    RT.evaluate(generateWebSessionProgram(Model, /*Seed=*/20130223));
    if (RT.hasError()) {
      std::fprintf(stderr, "web session failed: %s\n",
                   RT.errorMessage().c_str());
      return 1;
    }
    std::printf("== WEB (synthetic session) ==\n%s\n",
                Profiler.monomorphicParamTypes().toTable().c_str());
    Report.addRow("web-session", "profile",
                  static_cast<double>(Profiler.numFunctions()), "functions");
  }

  std::printf("Paper reference: benchmark parameters are 33-49%% integers;\n"
              "on the web integers are only 6.36%%, with objects (35.57%%)\n"
              "and strings (32.95%%) dominating.\n");
  Report.write();
  return 0;
}
