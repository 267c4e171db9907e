//===- perfbench/src/main.cpp - jitvs_perfbench: the benchmark driver -----===//
///
/// \file
/// Usage:
///   jitvs_perfbench --workload suites|genprog|serve|serve-async
///                   --seed N --seconds S --trace 0|1 [--out-dir DIR]
///
/// Prints a human-readable report, then, as the last line of stdout, one
/// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
/// gives the end-to-end metrics, --trace 1 the per-layer ones. With
/// --out-dir, the full result (knobs, build type, seed, notes) and, for
/// traced runs, the span trace are written there.
///
/// A run is hermetic: it refuses to start when any JITVS_* variable is
/// set, or when metrics or telemetry are on, because those change what
/// the engine does per call.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "telemetry/Metrics.h"
#include "telemetry/Telemetry.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

extern char **environ;

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "jitvs_perfbench: %s\nusage: jitvs_perfbench --workload "
               "suites|genprog|serve|serve-async --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               Msg);
  std::exit(2);
}

/// \returns an empty string when the process may run a timed benchmark,
/// else the reason it may not.
std::string hermeticViolation() {
  for (char **E = environ; *E; ++E)
    if (!std::strncmp(*E, "JITVS_", 6))
      return std::string("environment variable ") + *E +
             " is set; unset every JITVS_* variable";
  if (jitvs::metricsEnabled())
    return "metrics are enabled";
  if (jitvs::telemetry().categoryMask() || jitvs::telemetry().spewMask())
    return "telemetry is enabled";
  return "";
}

std::string jsonNumber(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string Out = "{";
  for (size_t I = 0; I != Ms.size(); ++I) {
    if (I)
      Out += ", ";
    Out += jsonString(Ms[I].Name) + ": {\"value\": " + jsonNumber(Ms[I].Value) +
           ", \"unit\": " + jsonString(Ms[I].Unit) + "}";
  }
  return Out + "}";
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::atof(V);
    } else if (A == "--trace") {
      O.Trace = std::atoi(V) != 0;
    } else if (A == "--out-dir") {
      O.OutDir = V;
    } else {
      usage(("unknown option " + A).c_str());
    }
  }
  if (!HaveWorkload)
    usage("--workload is required");
  if (!(O.Seconds > 0))
    usage("--seconds must be positive");
  std::string Why = hermeticViolation();
  if (!Why.empty()) {
    std::fprintf(stderr, "jitvs_perfbench: refusing to run: %s\n", Why.c_str());
    return 2;
  }

  RunResult R;
  if (O.Workload == "suites")
    R = runSuites(O);
  else if (O.Workload == "genprog")
    R = runGenprog(O);
  else if (O.Workload == "serve")
    R = runServe(O, /*Async=*/false);
  else if (O.Workload == "serve-async")
    R = runServe(O, /*Async=*/true);
  else
    usage(("unknown workload " + O.Workload).c_str());
  R.Correct = R.Correct && R.Failed == 0;
  R.note("build_type", PERFBENCH_BUILD_TYPE);

  std::printf("jitvs_perfbench %s seed=%llu seconds=%g trace=%d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0);
  for (const auto &[K, V] : R.Notes)
    std::printf("  %-26s %s\n", K.c_str(), V.c_str());
  double FailedShare = R.Attempted ? static_cast<double>(R.Failed) /
                                         static_cast<double>(R.Attempted)
                                   : 0.0;
  std::printf("  %-26s %.17g share (%llu of %llu ops)\n", "failed_ops",
              FailedShare, static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  for (const Metric &M : R.Metrics)
    std::printf("  %-26s %.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());

  if (!O.OutDir.empty()) {
    std::string Path = O.OutDir + "/result-" + O.Workload + "-seed" +
                       std::to_string(O.Seed) + "-trace" +
                       (O.Trace ? "1" : "0") + ".json";
    if (FILE *F = std::fopen(Path.c_str(), "w")) {
      std::fprintf(F, "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
                      "\"trace\": %d, \"failed_ops\": %s, \"notes\": {",
                   jsonString(O.Workload).c_str(),
                   static_cast<unsigned long long>(O.Seed),
                   jsonNumber(O.Seconds).c_str(), O.Trace ? 1 : 0,
                   jsonNumber(FailedShare).c_str());
      for (size_t I = 0; I != R.Notes.size(); ++I)
        std::fprintf(F, "%s%s: %s", I ? ", " : "",
                     jsonString(R.Notes[I].first).c_str(),
                     jsonString(R.Notes[I].second).c_str());
      std::fprintf(F, "}, \"correct\": %s, \"attempted\": %llu, "
                      "\"failed\": %llu, \"metrics\": %s}\n",
                   R.Correct ? "true" : "false",
                   static_cast<unsigned long long>(R.Attempted),
                   static_cast<unsigned long long>(R.Failed),
                   metricsJson(R.Metrics).c_str());
      std::fclose(F);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              R.Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              metricsJson(R.Metrics).c_str());
  return 0;
}
