//===- bench/bench_micro_pipeline.cpp - google-benchmark micro benches ----===//
///
/// \file
/// Micro-benchmarks of the compiler pipeline and the execution tiers:
///   - interpreter vs native-code execution of a hot kernel;
///   - per-pass costs (build, GVN, constant propagation, loop inversion,
///     DCE, bounds-check elimination, code generation);
///   - the paper's "zero overhead by construction" claim for parameter
///     specialization: building a specialized graph costs no more than
///     building a generic one (Section 4, compilation overhead).
///
//===----------------------------------------------------------------------===//

#include "jit/Engine.h"
#include "lir/Codegen.h"
#include "mir/MIRBuilder.h"
#include "passes/Passes.h"
#include "vm/Runtime.h"

#include <benchmark/benchmark.h>

using namespace jitvs;

namespace {

const char *KernelSource =
    "function kernel(a, n) {"
    "  var s = 0;"
    "  for (var i = 0; i < n; i++)"
    "    s = (s + a[i % 16] * i) % 999983;"
    "  return s;"
    "}"
    "var arr = new Array(16);"
    "for (var i = 0; i < 16; i++) arr[i] = i * 3 + 1;";

/// Shared fixture: runtime with the kernel loaded and warmed up.
struct KernelFixture {
  KernelFixture() {
    RT.load(KernelSource);
    RT.run();
    Kernel = nullptr;
    for (size_t I = 0; I != RT.program()->numFunctions(); ++I)
      if (RT.program()->function(static_cast<uint32_t>(I))->Name == "kernel")
        Kernel = RT.program()->function(static_cast<uint32_t>(I));
    // Warm up type feedback.
    Arr = RT.global(RT.program()->globalSlot("arr"));
    for (int I = 0; I < 4; ++I)
      RT.callGlobal("kernel", {Arr, Value::int32(64)});
  }

  Runtime RT;
  FunctionInfo *Kernel = nullptr;
  Value Arr;
};

KernelFixture &fixture() {
  static KernelFixture F;
  return F;
}

void BM_InterpreterKernel(benchmark::State &State) {
  KernelFixture &F = fixture();
  for (auto _ : State) {
    Value R = F.RT.callGlobal("kernel", {F.Arr, Value::int32(512)});
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_InterpreterKernel);

void BM_NativeKernelGeneric(benchmark::State &State) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 1;
  Engine E(RT, OptConfig::baseline(), K);
  RT.load(KernelSource);
  RT.run();
  Value Arr = RT.global(RT.program()->globalSlot("arr"));
  for (int I = 0; I < 4; ++I)
    RT.callGlobal("kernel", {Arr, Value::int32(64)});
  for (auto _ : State) {
    Value R = RT.callGlobal("kernel", {Arr, Value::int32(512)});
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_NativeKernelGeneric);

void BM_NativeKernelSpecialized(benchmark::State &State) {
  Runtime RT;
  EngineKnobs K = EngineKnobs::fromEnvironment();
  K.CallThreshold = 1;
  Engine E(RT, OptConfig::all(), K);
  RT.load(KernelSource);
  RT.run();
  Value Arr = RT.global(RT.program()->globalSlot("arr"));
  for (int I = 0; I < 4; ++I)
    RT.callGlobal("kernel", {Arr, Value::int32(512)});
  for (auto _ : State) {
    Value R = RT.callGlobal("kernel", {Arr, Value::int32(512)});
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_NativeKernelSpecialized);

// --- Pipeline stage costs ---

void BM_BuildMIRGeneric(benchmark::State &State) {
  KernelFixture &F = fixture();
  for (auto _ : State) {
    BuildOptions Opts;
    auto G = buildMIR(F.Kernel, Opts);
    benchmark::DoNotOptimize(G->numInstructions());
  }
}
BENCHMARK(BM_BuildMIRGeneric);

void BM_BuildMIRSpecialized(benchmark::State &State) {
  KernelFixture &F = fixture();
  for (auto _ : State) {
    BuildOptions Opts;
    Opts.SpecializedArgs =
        std::vector<Value>{F.Arr, Value::int32(512)};
    auto G = buildMIR(F.Kernel, Opts);
    benchmark::DoNotOptimize(G->numInstructions());
  }
}
BENCHMARK(BM_BuildMIRSpecialized);

template <void (*Pass)(MIRGraph &)> void BM_Pass(benchmark::State &State) {
  KernelFixture &F = fixture();
  for (auto _ : State) {
    State.PauseTiming();
    BuildOptions Opts;
    Opts.SpecializedArgs =
        std::vector<Value>{F.Arr, Value::int32(512)};
    auto G = buildMIR(F.Kernel, Opts);
    State.ResumeTiming();
    Pass(*G);
    benchmark::DoNotOptimize(G->numInstructions());
  }
}

void runCP(MIRGraph &G) { runConstantPropagation(G, fixture().RT); }
void runDCEPass(MIRGraph &G) { runDeadCodeElimination(G, fixture().RT); }
void runBCE(MIRGraph &G) { runBoundsCheckElimination(G, false); }

BENCHMARK(BM_Pass<runGVN>)->Name("BM_PassGVN");
BENCHMARK(BM_Pass<runCP>)->Name("BM_PassConstantPropagation");
BENCHMARK(BM_Pass<runLoopInversion>)->Name("BM_PassLoopInversion");
BENCHMARK(BM_Pass<runDCEPass>)->Name("BM_PassDCE");
BENCHMARK(BM_Pass<runBCE>)->Name("BM_PassBoundsCheckElim");

void BM_CodeGeneration(benchmark::State &State) {
  KernelFixture &F = fixture();
  for (auto _ : State) {
    State.PauseTiming();
    BuildOptions Opts;
    auto G = buildMIR(F.Kernel, Opts);
    runGVN(*G);
    State.ResumeTiming();
    auto Code = generateCode(*G);
    benchmark::DoNotOptimize(Code->sizeInInstructions());
  }
}
BENCHMARK(BM_CodeGeneration);

void BM_FullPipelineAll(benchmark::State &State) {
  KernelFixture &F = fixture();
  OptConfig C = OptConfig::all();
  for (auto _ : State) {
    BuildOptions Opts;
    Opts.SpecializedArgs =
        std::vector<Value>{F.Arr, Value::int32(512)};
    auto G = buildMIR(F.Kernel, Opts);
    runClosureInlining(*G, F.RT, C);
    runOptimizationPipeline(*G, F.RT, C);
    auto Code = generateCode(*G);
    benchmark::DoNotOptimize(Code->sizeInInstructions());
  }
}
BENCHMARK(BM_FullPipelineAll);

void BM_ParseAndEmit(benchmark::State &State) {
  for (auto _ : State) {
    Runtime RT;
    bool Ok = RT.load(KernelSource);
    benchmark::DoNotOptimize(Ok);
  }
}
BENCHMARK(BM_ParseAndEmit);

void BM_GCCollection(benchmark::State &State) {
  Runtime RT;
  RT.evaluate("var keep = [];"
              "for (var i = 0; i < 3000; i++) keep.push({k: 'v' + i});");
  for (auto _ : State) {
    RT.heap().collect();
    benchmark::DoNotOptimize(RT.heap().objectCount());
  }
}
BENCHMARK(BM_GCCollection);

} // namespace

#include "../bench/BenchUtil.h"

namespace {

/// Console output as usual, plus a capture of every per-iteration result
/// so the custom main below can emit BENCH_micro_pipeline.json (the
/// BENCHMARK_MAIN macro leaves no hook for that).
class CapturingReporter : public benchmark::ConsoleReporter {
public:
  struct Result {
    std::string Name;
    double SecondsPerIter;
  };
  std::vector<Result> Results;

  void ReportRuns(const std::vector<Run> &Reports) override {
    for (const Run &R : Reports)
      if (R.run_type == Run::RT_Iteration && !R.error_occurred &&
          R.iterations > 0)
        Results.push_back({R.benchmark_name(),
                           R.real_accumulated_time /
                               static_cast<double>(R.iterations)});
    ConsoleReporter::ReportRuns(Reports);
  }
};

} // namespace

int main(int argc, char **argv) {
  char Arg0Default[] = "benchmark";
  char *ArgsDefault = Arg0Default;
  if (!argv) {
    argc = 1;
    argv = &ArgsDefault;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  CapturingReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();

  jitvs::bench::BenchReport Report("micro_pipeline", 1);
  for (const CapturingReporter::Result &R : Reporter.Results)
    Report.addRow(R.Name, "default", R.SecondsPerIter, "seconds");
  Report.write();
  return 0;
}
