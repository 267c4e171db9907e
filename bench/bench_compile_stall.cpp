//===- bench/bench_compile_stall.cpp - Off-thread compile stall -----------===//
///
/// \file
/// Measures the main-thread cost of compilation at dispatch boundaries:
/// the latency distribution (p50/p99) of individual calls in a stream
/// that repeatedly triggers specialization, despecialization and generic
/// recompiles across many functions, compared between the synchronous
/// pipeline (JITVS_COMPILE_THREADS=0) and the background compiler. With
/// workers, the call that used to eat the whole compile keeps
/// interpreting instead, so the tail collapses while total compile work
/// stays the same (it moves off-thread, visible in the compile-seconds
/// vs compile-stall-seconds split).
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

using namespace jitvs;
using namespace jitvs::bench;

namespace {

constexpr int NumFuncs = 40;
constexpr int CallsPerRound = 25;
constexpr int Rounds = 3; // Round 0 specializes; round 1+ despecialize.

/// NumFuncs straight-line functions with distinct constants: enough
/// arithmetic to give the compiler real work per trigger, no loops so
/// every compile is call-triggered (loop threshold is parked high).
std::string makeProgram() {
  std::string S;
  for (int F = 0; F != NumFuncs; ++F) {
    S += "function f" + std::to_string(F) + "(x, y) {\n";
    S += "  var a = x * " + std::to_string(F + 3) + " + y;\n";
    for (int I = 0; I != 24; ++I) {
      int K = (F * 31 + I * 7) % 97 + 2;
      S += "  a = a * " + std::to_string(K % 5 + 1) + " + x * " +
           std::to_string(K) + " - y + " + std::to_string(I) + ";\n";
    }
    S += "  return a;\n}\n";
  }
  return S;
}

struct StreamResult {
  std::vector<double> LatenciesNs; ///< One entry per dispatched call.
  double WallSeconds = 0.0;        ///< Whole stream, main thread.
  double StreamStallSeconds = 0.0; ///< Stall during the stream only.
  EngineStats Stats;               ///< After the settle drain.
};

/// Runs the call stream under \p Knobs: every function called
/// CallsPerRound times per round, with the arguments changing between
/// rounds to force despecialize -> recompile traffic.
StreamResult runStream(const std::string &Program, const EngineKnobs &Knobs) {
  StreamResult R;
  Runtime RT;
  Engine E(RT, OptConfig::all(), Knobs);
  RT.evaluate(Program);
  if (RT.hasError()) {
    std::fprintf(stderr, "bench_compile_stall: program failed: %s\n",
                 RT.errorMessage().c_str());
    std::exit(1);
  }

  std::vector<std::string> Names;
  for (int F = 0; F != NumFuncs; ++F)
    Names.push_back('f' + std::to_string(F));

  R.LatenciesNs.reserve(NumFuncs * CallsPerRound * Rounds);
  Timer Wall;
  for (int Round = 0; Round != Rounds; ++Round) {
    std::vector<Value> Args = {Value::int32(Round + 1),
                               Value::int32(Round * 2 + 1)};
    for (int Call = 0; Call != CallsPerRound; ++Call) {
      for (int F = 0; F != NumFuncs; ++F) {
        Timer T;
        RT.callGlobal(Names[F], Args);
        R.LatenciesNs.push_back(T.seconds() * 1e9);
      }
    }
  }
  R.WallSeconds = Wall.seconds();
  if (RT.hasError()) {
    std::fprintf(stderr, "bench_compile_stall: stream failed: %s\n",
                 RT.errorMessage().c_str());
    std::exit(1);
  }
  R.StreamStallSeconds = E.stats().CompileStallSeconds;
  E.drainCompiles(); // Outside the timed stream: settle in-flight work.
  R.Stats = E.stats();
  return R;
}

double percentile(std::vector<double> Xs, double P) {
  if (Xs.empty())
    return 0.0;
  std::sort(Xs.begin(), Xs.end());
  size_t Idx = static_cast<size_t>(P / 100.0 * (Xs.size() - 1) + 0.5);
  return Xs[std::min(Idx, Xs.size() - 1)];
}

} // namespace

int main() {
  int Reps = repetitions();
  std::string Program = makeProgram();

  EngineKnobs Sync;
  Sync.LoopThreshold = 1000000000; // Call-triggered compiles only.
  EngineKnobs Async = Sync;
  Async.CompileThreads =
      std::max(2u, std::min(4u, std::thread::hardware_concurrency() - 1));

  std::string AsyncName = "threads" + std::to_string(Async.CompileThreads);
  struct Column {
    const char *Name;
    const EngineKnobs *Knobs;
  } Columns[] = {{"sync", &Sync}, {AsyncName.c_str(), &Async}};

  std::printf("Compile-stall: per-call dispatch latency, %d funcs x %d "
              "calls x %d rounds (median of %d reps)\n\n",
              NumFuncs, CallsPerRound, Rounds, Reps);
  std::printf("%-12s %10s %10s %12s %12s %12s\n", "config", "p50(ns)",
              "p99(ns)", "stream(ms)", "compile(ms)", "stall(ms)");
  printRule(74);

  BenchReport Report("compile_stall", Reps);
  Report.setMeta("funcs", std::to_string(NumFuncs));
  Report.setMeta("threads", std::to_string(Async.CompileThreads));

  double P99ByCol[2] = {0, 0};
  for (int C = 0; C != 2; ++C) {
    // Interleaving across columns matters less than within: each rep is
    // a fresh Runtime+Engine, and the two columns run identical streams.
    std::vector<double> P50s, P99s, Walls, CompileMs, StallMs;
    for (int R = 0; R < Reps; ++R) {
      StreamResult S = runStream(Program, *Columns[C].Knobs);
      P50s.push_back(percentile(S.LatenciesNs, 50));
      P99s.push_back(percentile(S.LatenciesNs, 99));
      Walls.push_back(S.WallSeconds);
      CompileMs.push_back(S.Stats.CompileSeconds * 1e3);
      StallMs.push_back(S.StreamStallSeconds * 1e3);
    }
    double P50 = median(P50s), P99 = median(P99s);
    P99ByCol[C] = P99;
    std::printf("%-12s %10.0f %10.0f %12.3f %12.3f %12.3f\n",
                Columns[C].Name, P50, P99, median(Walls) * 1e3,
                median(CompileMs), median(StallMs));

    // Latency percentiles are the figure of merit but too jittery to
    // gate on shared runners: report them as descriptive "ns" rows.
    Report.addRow("call-stream", Columns[C].Name, P50, "p50-ns");
    Report.addRow("call-stream", Columns[C].Name, P99, "p99-ns");
    // The coarse totals are the gated rows (unit "seconds").
    Report.addRow("call-stream", Columns[C].Name, median(Walls), "seconds",
                  &Walls);
    Report.addRow("call-stream",
                  std::string(Columns[C].Name) + "-stall",
                  median(StallMs) / 1e3, "seconds");
  }

  double Ratio = P99ByCol[0] > 0 ? P99ByCol[1] / P99ByCol[0] : 0.0;
  std::printf("\nasync p99 / sync p99 = %.3f (lower is better; the "
              "background pipeline hides compile stalls)\n",
              Ratio);
  Report.addMetric("p99_async_over_sync", Ratio);
  Report.write();
  return 0;
}
