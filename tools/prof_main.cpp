//===- tools/prof_main.cpp - jitvs_prof: profile-report CLI ---------------===//
///
/// \file
/// Runs a MiniJS program (a script file, a named workload, or a whole
/// suite) with the metrics layer enabled and prints where the time went:
/// the per-phase self-time breakdown (interpret / compile / native /
/// bailout / GC ...) and a top-N table of the hottest functions with
/// their compile cost, bailouts and guard-fail rate. The same data can
/// be exported as a JSON snapshot (--json) for tooling.
///
/// Usage:
///   jitvs_prof [options] <script.js>
///   jitvs_prof [options] --workload <name>
///   jitvs_prof [options] --suite <sunspider|v8|kraken>
///   jitvs_prof --list
/// Options:
///   --top N          rows in the function table (default 10)
///   --policy P       tier policy: paper | tiered (default: paper)
///   --json PATH      also write the metrics JSON snapshot ('-' = stdout)
///   --no-jit         interpret only (no engine attached)
///
//===----------------------------------------------------------------------===//

#include "jit/Engine.h"
#include "telemetry/Metrics.h"
#include "vm/Runtime.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace jitvs;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [options] <script.js>\n"
               "       %s [options] --workload <name>\n"
               "       %s [options] --suite <sunspider|v8|kraken>\n"
               "       %s --list\n"
               "options:\n"
               "  --top N       rows in the function table (default 10)\n"
               "  --policy P    tier policy: paper | tiered\n"
               "  --json PATH   write the metrics JSON snapshot ('-' = "
               "stdout)\n"
               "  --no-jit      interpret only\n",
               Argv0, Argv0, Argv0, Argv0);
  return 2;
}

/// Runs one source program under a fresh runtime + engine, folding the
/// engine's stats into the global metrics registry before teardown.
bool runProgram(const std::string &Source, const char *Label, bool Jit,
                TierPolicy Policy) {
  Runtime RT;
  std::unique_ptr<Engine> E;
  if (Jit) {
    EngineKnobs K = EngineKnobs::fromEnvironment();
    K.Policy = Policy;
    E = std::make_unique<Engine>(RT, OptConfig::all(), K);
  }
  RT.evaluate(Source);
  if (RT.hasError()) {
    std::fprintf(stderr, "jitvs_prof: %s failed: %s\n", Label,
                 RT.errorMessage().c_str());
    return false;
  }
  return true; // ~Engine publishes into the metrics registry.
}

void printPhaseTable() {
  const Metrics &M = metrics();
  uint64_t TotalSelf = M.totalSelfNs();
  std::printf("Phase breakdown (self time; %% of accounted run)\n");
  std::printf("  %-14s %10s %12s %8s %12s %10s %10s\n", "phase", "spans",
              "self-ms", "self-%", "incl-ms", "p50-us", "p99-us");
  for (size_t I = 0; I != NumPhases; ++I) {
    const Metrics::PhaseStat &P = M.phase(static_cast<Phase>(I));
    if (!P.Count)
      continue;
    double Pct = TotalSelf ? 100.0 * static_cast<double>(P.SelfNs) /
                                 static_cast<double>(TotalSelf)
                           : 0.0;
    std::printf("  %-14s %10llu %12.3f %7.2f%% %12.3f %10.1f %10.1f\n",
                phaseName(static_cast<Phase>(I)),
                static_cast<unsigned long long>(P.Count), P.SelfNs / 1e6,
                Pct, P.TotalNs / 1e6, P.SpanNs.percentile(50) / 1e3,
                P.SpanNs.percentile(99) / 1e3);
  }
  std::printf("  total accounted self time: %.3f ms\n\n", TotalSelf / 1e6);
}

void printFunctionTable(size_t TopN) {
  auto Funcs = metrics().functionsByTicks();
  std::printf("Hottest functions (top %zu of %zu)\n", TopN, Funcs.size());
  std::printf("  %-28s %10s %10s %8s %10s %8s %9s %8s %6s\n", "function",
              "ticks", "native", "compiles", "compile-ms", "bailouts",
              "guard-f%", "hits", "tier-t");
  size_t Shown = 0;
  for (const auto &[Name, FM] : Funcs) {
    if (Shown++ == TopN)
      break;
    std::printf("  %-28s %10llu %10llu %8llu %10.3f %8llu %8.2f%% %8llu "
                "%6llu\n",
                Name.c_str(), static_cast<unsigned long long>(FM.Ticks),
                static_cast<unsigned long long>(FM.NativeRuns),
                static_cast<unsigned long long>(FM.Compiles),
                FM.CompileNs / 1e6,
                static_cast<unsigned long long>(FM.Bailouts),
                FM.guardFailRate() * 100.0,
                static_cast<unsigned long long>(FM.CacheHits),
                static_cast<unsigned long long>(FM.TierTransitions));
  }
  if (Funcs.empty())
    std::printf("  (none recorded)\n");
}

/// Shape and inline-cache section: per-kind IC hit rates, megamorphic
/// site count and transition-tree size (published by ~Runtime from the
/// interpreter ICs; the JIT's shape guards show up as shape-guard
/// bailouts in the function table instead).
void printShapeTable() {
  const Metrics &M = metrics();
  struct Row {
    const char *Name;
    uint64_t Hits, Misses;
  };
  const Row Rows[] = {
      {"getprop", M.counter("ic.get.hits"), M.counter("ic.get.misses")},
      {"setprop", M.counter("ic.set.hits"), M.counter("ic.set.misses")},
      {"callmethod", M.counter("ic.call.hits"), M.counter("ic.call.misses")},
  };
  std::printf("\nInline caches\n");
  std::printf("  %-12s %12s %12s %8s\n", "site kind", "hits", "misses",
              "hit-%");
  for (const Row &R : Rows) {
    uint64_t Total = R.Hits + R.Misses;
    std::printf("  %-12s %12llu %12llu %7.2f%%\n", R.Name,
                static_cast<unsigned long long>(R.Hits),
                static_cast<unsigned long long>(R.Misses),
                Total ? 100.0 * static_cast<double>(R.Hits) /
                            static_cast<double>(Total)
                      : 0.0);
  }
  std::printf("  megamorphic sites: %llu, shapes allocated: %llu\n",
              static_cast<unsigned long long>(
                  M.counter("ic.sites.megamorphic")),
              static_cast<unsigned long long>(M.counter("shape.shapes")));
}

} // namespace

int main(int argc, char **argv) {
  size_t TopN = 10;
  TierPolicy Policy = TierPolicy::Paper;
  bool Jit = true;
  std::string JsonPath;
  std::string ScriptPath, WorkloadName, SuiteName;

  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    auto NeedArg = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "jitvs_prof: %s needs an argument\n", Flag);
        std::exit(2);
      }
      return argv[++I];
    };
    if (!std::strcmp(A, "--list")) {
      for (const Workload &W : allWorkloads())
        std::printf("%-12s %s\n", W.Suite, W.Name);
      return 0;
    }
    if (!std::strcmp(A, "--top")) {
      TopN = static_cast<size_t>(std::atoi(NeedArg("--top")));
    } else if (!std::strcmp(A, "--policy")) {
      const char *P = NeedArg("--policy");
      if (!std::strcmp(P, "tiered"))
        Policy = TierPolicy::Tiered;
      else if (!std::strcmp(P, "paper"))
        Policy = TierPolicy::Paper;
      else {
        std::fprintf(stderr, "jitvs_prof: unknown policy '%s'\n", P);
        return 2;
      }
    } else if (!std::strcmp(A, "--json")) {
      JsonPath = NeedArg("--json");
    } else if (!std::strcmp(A, "--workload")) {
      WorkloadName = NeedArg("--workload");
    } else if (!std::strcmp(A, "--suite")) {
      SuiteName = NeedArg("--suite");
    } else if (!std::strcmp(A, "--no-jit")) {
      Jit = false;
    } else if (A[0] == '-') {
      std::fprintf(stderr, "jitvs_prof: unknown option '%s'\n", A);
      return usage(argv[0]);
    } else {
      ScriptPath = A;
    }
  }

  int Sources = !ScriptPath.empty() + !WorkloadName.empty() +
                !SuiteName.empty();
  if (Sources != 1)
    return usage(argv[0]);

  metrics().enable();

  bool Ok = true;
  if (!ScriptPath.empty()) {
    std::ifstream In(ScriptPath);
    if (!In) {
      std::fprintf(stderr, "jitvs_prof: cannot open %s\n",
                   ScriptPath.c_str());
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Ok = runProgram(SS.str(), ScriptPath.c_str(), Jit, Policy);
  } else if (!WorkloadName.empty()) {
    const Workload *W = findWorkload(WorkloadName);
    if (!W) {
      std::fprintf(stderr,
                   "jitvs_prof: unknown workload '%s' (try --list)\n",
                   WorkloadName.c_str());
      return 1;
    }
    Ok = runProgram(W->Source, W->Name, Jit, Policy);
  } else {
    std::vector<Workload> Works = suiteWorkloads(SuiteName);
    if (Works.empty()) {
      std::fprintf(stderr, "jitvs_prof: unknown suite '%s'\n",
                   SuiteName.c_str());
      return 1;
    }
    for (const Workload &W : Works)
      Ok = runProgram(W.Source, W.Name, Jit, Policy) && Ok;
  }
  if (!Ok)
    return 1;

  printPhaseTable();
  printFunctionTable(TopN);
  printShapeTable();

  if (!JsonPath.empty()) {
    if (JsonPath == "-") {
      metrics().writeJson(std::cout);
      std::cout << "\n";
    } else if (!metrics().writeJsonFile(JsonPath)) {
      return 1;
    }
  }
  return 0;
}
