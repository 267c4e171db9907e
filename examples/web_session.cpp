//===- examples/web_session.cpp - Specialization on web-like workloads ----===//
///
/// \file
/// Runs the synthetic Alexa-style browsing session (the population the
/// paper's Section 2 study is about) under the JIT with full value
/// specialization and reports how the policy behaves on web-shaped call
/// patterns: how often the specialization cache hits, how many functions
/// despecialize, and what the profiler sees. The profile comes from a
/// first, interpreted run (the Runtime has one call hook, and the JIT
/// does not change which calls a program makes or their arguments).
///
//===----------------------------------------------------------------------===//

#include "jit/Engine.h"
#include "profiling/CallProfiler.h"
#include "profiling/WebSession.h"
#include "vm/Runtime.h"

#include <cstdio>
#include <cstdlib>

using namespace jitvs;

int main(int argc, char **argv) {
  WebSessionModel Model;
  if (argc > 1)
    Model.NumFunctions = static_cast<unsigned>(std::atoi(argv[1]));

  std::string Source = generateWebSessionProgram(Model, /*Seed=*/42);
  std::printf("generated session: %u functions, %zu bytes of MiniJS\n",
              Model.NumFunctions, Source.size());

  CallProfiler Profiler;
  {
    Runtime RT;
    RT.setHooks(&Profiler);
    RT.evaluate(Source);
    if (RT.hasError()) {
      std::fprintf(stderr, "error: %s\n", RT.errorMessage().c_str());
      return 1;
    }
  }
  std::printf("\nprofile: %.2f%% of functions called once, "
              "%.2f%% with a single argument set\n",
              Profiler.fractionCalledOnce() * 100.0,
              Profiler.fractionSingleArgSet() * 100.0);

  Runtime RT;
  EngineKnobs Knobs = EngineKnobs::fromEnvironment();
  Knobs.CallThreshold = 4; // Web functions are rarely hot; compile early
                           // so the policy is visible.
  Engine Jit(RT, OptConfig::all(), Knobs);
  RT.evaluate(Source);
  if (RT.hasError()) {
    std::fprintf(stderr, "error: %s\n", RT.errorMessage().c_str());
    return 1;
  }

  const EngineStats &S = Jit.stats();
  std::printf("\nengine under OptConfig::all():\n");
  std::printf("  compilations:      %8llu (%llu specialized, %llu generic)\n",
              static_cast<unsigned long long>(S.Compilations),
              static_cast<unsigned long long>(S.SpecializedCompiles),
              static_cast<unsigned long long>(S.GenericCompiles));
  std::printf("  native calls:      %8llu\n",
              static_cast<unsigned long long>(S.NativeCalls));
  std::printf("  cache hits:        %8llu\n",
              static_cast<unsigned long long>(S.CacheHits));
  std::printf("  despecializations: %8llu\n",
              static_cast<unsigned long long>(S.Despecializations));
  std::printf("  bailouts:          %8llu\n",
              static_cast<unsigned long long>(S.Bailouts));
  std::printf("  compile time:      %8.2f ms\n", S.CompileSeconds * 1e3);

  uint64_t Specialized = 0, Successful = 0;
  for (const Engine::FunctionReport &R : Jit.functionReports()) {
    if (!R.WasSpecialized)
      continue;
    ++Specialized;
    if (R.Despecializations == 0)
      ++Successful;
  }
  std::printf("\npolicy outcome: %llu functions specialized, %llu kept "
              "their specialization for the whole session (%0.1f%%)\n",
              static_cast<unsigned long long>(Specialized),
              static_cast<unsigned long long>(Successful),
              Specialized ? 100.0 * Successful / Specialized : 0.0);
  std::printf("(the paper's bet: with ~60%% of web functions "
              "monomorphic, most specializations should survive)\n");
  return 0;
}
