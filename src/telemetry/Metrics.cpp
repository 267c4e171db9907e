//===- telemetry/Metrics.cpp - Aggregation, percentiles, exporters --------===//

#include "telemetry/Metrics.h"

#include "support/Json.h"
#include "support/Timer.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <sstream>

using namespace jitvs;

bool jitvs::metrics_detail::Enabled = false;

const char *jitvs::phaseName(Phase P) {
  switch (P) {
  case Phase::Script:
    return "script";
  case Phase::Interpret:
    return "interpret";
  case Phase::ProfileCalls:
    return "profile-calls";
  case Phase::Compile:
    return "compile";
  case Phase::MIRBuild:
    return "mir-build";
  case Phase::OptPass:
    return "opt-pass";
  case Phase::Codegen:
    return "codegen";
  case Phase::Fusion:
    return "fusion";
  case Phase::NativeExec:
    return "native-exec";
  case Phase::Bailout:
    return "bailout";
  case Phase::GC:
    return "gc";
  case Phase::CompileQueue:
    return "compile-queue";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// LogHistogram
//===----------------------------------------------------------------------===//

size_t LogHistogram::bucketFor(uint64_t V) {
  return V == 0 ? 0 : static_cast<size_t>(std::bit_width(V));
}

uint64_t LogHistogram::bucketLo(size_t B) {
  return B == 0 ? 0 : uint64_t(1) << (B - 1);
}

uint64_t LogHistogram::bucketHi(size_t B) {
  if (B == 0)
    return 0;
  if (B >= NumBuckets - 1)
    return UINT64_MAX;
  return (uint64_t(1) << B) - 1;
}

void LogHistogram::record(uint64_t V) {
  size_t B = bucketFor(V);
  if (B >= NumBuckets)
    B = NumBuckets - 1;
  ++Buckets[B];
  ++Count;
  // Saturate the sum: a pegged total reads as "too big", a wrapped one
  // reads as a reset.
  Sum = Sum + V < Sum ? UINT64_MAX : Sum + V;
  MinV = std::min(MinV, V);
  MaxV = std::max(MaxV, V);
}

uint64_t LogHistogram::percentile(double P) const {
  if (Count == 0)
    return 0;
  P = std::clamp(P, 0.0, 100.0);
  // Rank of the target sample, 1-based; ceil so p0 -> first sample and
  // p100 -> last.
  uint64_t Rank = static_cast<uint64_t>(P / 100.0 *
                                        static_cast<double>(Count));
  if (Rank == 0)
    Rank = 1;
  if (Rank > Count)
    Rank = Count;
  uint64_t Seen = 0;
  for (size_t B = 0; B != NumBuckets; ++B) {
    if (Buckets[B] == 0)
      continue;
    if (Seen + Buckets[B] < Rank) {
      Seen += Buckets[B];
      continue;
    }
    // Interpolate linearly inside the bucket by the rank's position.
    uint64_t Lo = bucketLo(B), Hi = bucketHi(B);
    uint64_t InBucket = Rank - Seen; // 1..Buckets[B]
    double Frac = static_cast<double>(InBucket) /
                  static_cast<double>(Buckets[B]);
    uint64_t Est =
        Lo + static_cast<uint64_t>(static_cast<double>(Hi - Lo) * Frac);
    // Never report outside the observed range.
    return std::clamp(Est, min(), max());
  }
  return max();
}

//===----------------------------------------------------------------------===//
// Metrics registry
//===----------------------------------------------------------------------===//

Metrics &Metrics::instance() {
  static Metrics M;
  return M;
}

void Metrics::enable(bool On) { metrics_detail::Enabled = On; }

namespace {

/// Per-thread phase-attribution stack: a compile worker's nested spans
/// (CompileQueue > Compile > MIRBuild > ...) never interleave with the
/// main thread's.
thread_local std::vector<Metrics::StackEntry> PhaseStack;

} // namespace

void Metrics::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  for (PhaseStat &S : Phases)
    S = PhaseStat();
  Counters.clear();
  Gauges.clear();
  PassHist.clear();
  ValueHist.clear();
  Funcs.clear();
}

void Metrics::addCounter(const std::string &Name, uint64_t Delta) {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t &V = Counters[Name];
  V = V + Delta < V ? UINT64_MAX : V + Delta;
}

void Metrics::setGauge(const std::string &Name, double V) {
  std::lock_guard<std::mutex> Lock(Mu);
  Gauges[Name] = V;
}

uint64_t Metrics::counter(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

double Metrics::gauge(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Gauges.find(Name);
  return It == Gauges.end() ? 0.0 : It->second;
}

void Metrics::enterPhase(Phase P) {
  PhaseStack.push_back({P, monotonicNowNs(), 0});
}

void Metrics::exitPhase(Phase P) {
  if (PhaseStack.empty())
    return; // Unbalanced exit: drop rather than corrupt.
  StackEntry E = PhaseStack.back();
  PhaseStack.pop_back();
  if (E.P != P)
    return;
  uint64_t Now = monotonicNowNs();
  uint64_t Incl = Now >= E.StartNs ? Now - E.StartNs : 0;
  uint64_t Self = Incl >= E.ChildNs ? Incl - E.ChildNs : 0;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    PhaseStat &S = Phases[static_cast<size_t>(P)];
    ++S.Count;
    S.SelfNs += Self;
    S.TotalNs += Incl;
    S.SpanNs.record(Incl);
  }
  if (!PhaseStack.empty())
    PhaseStack.back().ChildNs += Incl;
}

Metrics::PhaseStat Metrics::phase(Phase P) const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Phases[static_cast<size_t>(P)];
}

uint64_t Metrics::totalSelfNs() const {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t Total = 0;
  for (const PhaseStat &S : Phases)
    Total += S.SelfNs;
  return Total;
}

void Metrics::recordPass(const std::string &PassName, uint64_t DurNs) {
  std::lock_guard<std::mutex> Lock(Mu);
  PassHist[PassName].record(DurNs);
}

std::map<std::string, LogHistogram> Metrics::passes() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return PassHist;
}

void Metrics::recordValue(const std::string &Name, uint64_t V) {
  std::lock_guard<std::mutex> Lock(Mu);
  ValueHist[Name].record(V);
}

LogHistogram Metrics::valueHistogram(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = ValueHist.find(Name);
  return It == ValueHist.end() ? LogHistogram() : It->second;
}

std::map<std::string, Metrics::FunctionMetrics> Metrics::functions() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Funcs;
}

void Metrics::mergeFunction(const std::string &Name,
                            const FunctionMetrics &Delta) {
  std::lock_guard<std::mutex> Lock(Mu);
  FunctionMetrics &M = Funcs[Name];
  M.Ticks += Delta.Ticks;
  M.NativeRuns += Delta.NativeRuns;
  M.Compiles += Delta.Compiles;
  M.CompileNs += Delta.CompileNs;
  M.Bailouts += Delta.Bailouts;
  M.CacheHits += Delta.CacheHits;
  M.TierTransitions += Delta.TierTransitions;
  M.Despecializations += Delta.Despecializations;
}

std::vector<std::pair<std::string, Metrics::FunctionMetrics>>
Metrics::functionsByTicks() const {
  std::map<std::string, FunctionMetrics> Snapshot = functions();
  std::vector<std::pair<std::string, FunctionMetrics>> Out(Snapshot.begin(),
                                                           Snapshot.end());
  std::sort(Out.begin(), Out.end(), [](const auto &A, const auto &B) {
    if (A.second.Ticks != B.second.Ticks)
      return A.second.Ticks > B.second.Ticks;
    if (A.second.CompileNs != B.second.CompileNs)
      return A.second.CompileNs > B.second.CompileNs;
    return A.first < B.first;
  });
  return Out;
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

namespace {

void writeHistogramJson(std::ostream &OS, const LogHistogram &H) {
  OS << "{\"count\":" << H.count() << ",\"sumNs\":" << H.sum()
     << ",\"minNs\":" << H.min() << ",\"maxNs\":" << H.max()
     << ",\"p50Ns\":" << H.percentile(50) << ",\"p90Ns\":" << H.percentile(90)
     << ",\"p99Ns\":" << H.percentile(99) << "}";
}

} // namespace

void Metrics::writeJson(std::ostream &OS) const {
  // Snapshot everything up front so the writer never holds the registry
  // lock while doing stream I/O (functionsByTicks locks internally).
  auto Sorted = functionsByTicks();
  std::unique_lock<std::mutex> Lock(Mu);

  OS << "{\"schema\":\"" << JsonSchema << "\"";

  OS << ",\"counters\":{";
  bool First = true;
  for (const auto &[Name, V] : Counters) {
    if (!First)
      OS << ',';
    First = false;
    json::writeString(OS, Name);
    OS << ':' << V;
  }
  OS << "},\"gauges\":{";
  First = true;
  for (const auto &[Name, V] : Gauges) {
    if (!First)
      OS << ',';
    First = false;
    json::writeString(OS, Name);
    OS << ':' << V;
  }

  OS << "},\"phases\":[";
  First = true;
  for (size_t I = 0; I != NumPhases; ++I) {
    const PhaseStat &S = Phases[I];
    if (S.Count == 0)
      continue;
    if (!First)
      OS << ',';
    First = false;
    OS << "{\"phase\":";
    json::writeString(OS, phaseName(static_cast<Phase>(I)));
    OS << ",\"count\":" << S.Count << ",\"selfNs\":" << S.SelfNs
       << ",\"totalNs\":" << S.TotalNs << ",\"spans\":";
    writeHistogramJson(OS, S.SpanNs);
    OS << '}';
  }

  OS << "],\"passes\":[";
  First = true;
  for (const auto &[Name, H] : PassHist) {
    if (!First)
      OS << ',';
    First = false;
    OS << "{\"pass\":";
    json::writeString(OS, Name);
    OS << ",\"spans\":";
    writeHistogramJson(OS, H);
    OS << '}';
  }

  OS << "],\"histograms\":[";
  First = true;
  for (const auto &[Name, H] : ValueHist) {
    if (!First)
      OS << ',';
    First = false;
    OS << "{\"name\":";
    json::writeString(OS, Name);
    OS << ",\"values\":";
    writeHistogramJson(OS, H);
    OS << '}';
  }

  OS << "],\"functions\":[";
  First = true;
  for (const auto &[Name, M] : Sorted) {
    if (!First)
      OS << ',';
    First = false;
    OS << "{\"name\":";
    json::writeString(OS, Name);
    OS << ",\"ticks\":" << M.Ticks << ",\"nativeRuns\":" << M.NativeRuns
       << ",\"compiles\":" << M.Compiles << ",\"compileNs\":" << M.CompileNs
       << ",\"bailouts\":" << M.Bailouts << ",\"cacheHits\":" << M.CacheHits
       << ",\"tierTransitions\":" << M.TierTransitions
       << ",\"despecializations\":" << M.Despecializations
       << ",\"guardFailRate\":" << M.guardFailRate() << '}';
  }
  OS << "]}";
}

namespace {

/// Prometheus label values: escape backslash, quote and newline.
std::string promEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '\\' || C == '"')
      Out += '\\';
    if (C == '\n') {
      Out += "\\n";
      continue;
    }
    Out += C;
  }
  return Out;
}

} // namespace

void Metrics::writePrometheus(std::ostream &OS) const {
  char Buf[160];
  std::unique_lock<std::mutex> Lock(Mu);

  OS << "# TYPE jitvs_counter_total counter\n";
  for (const auto &[Name, V] : Counters) {
    std::snprintf(Buf, sizeof(Buf), "jitvs_counter_total{name=\"%s\"} %llu\n",
                  promEscape(Name).c_str(),
                  static_cast<unsigned long long>(V));
    OS << Buf;
  }

  OS << "# TYPE jitvs_gauge gauge\n";
  for (const auto &[Name, V] : Gauges) {
    std::snprintf(Buf, sizeof(Buf), "jitvs_gauge{name=\"%s\"} %.9g\n",
                  promEscape(Name).c_str(), V);
    OS << Buf;
  }

  OS << "# TYPE jitvs_phase_spans_total counter\n"
     << "# TYPE jitvs_phase_self_seconds_total counter\n"
     << "# TYPE jitvs_phase_span_seconds summary\n";
  for (size_t I = 0; I != NumPhases; ++I) {
    const PhaseStat &S = Phases[I];
    if (S.Count == 0)
      continue;
    const char *P = phaseName(static_cast<Phase>(I));
    std::snprintf(Buf, sizeof(Buf),
                  "jitvs_phase_spans_total{phase=\"%s\"} %llu\n", P,
                  static_cast<unsigned long long>(S.Count));
    OS << Buf;
    std::snprintf(Buf, sizeof(Buf),
                  "jitvs_phase_self_seconds_total{phase=\"%s\"} %.9f\n", P,
                  static_cast<double>(S.SelfNs) / 1e9);
    OS << Buf;
    for (double Q : {0.5, 0.9, 0.99}) {
      std::snprintf(
          Buf, sizeof(Buf),
          "jitvs_phase_span_seconds{phase=\"%s\",quantile=\"%g\"} %.9f\n", P,
          Q, static_cast<double>(S.SpanNs.percentile(Q * 100)) / 1e9);
      OS << Buf;
    }
  }

  OS << "# TYPE jitvs_pass_span_seconds summary\n";
  for (const auto &[Name, H] : PassHist) {
    for (double Q : {0.5, 0.9, 0.99}) {
      std::snprintf(
          Buf, sizeof(Buf),
          "jitvs_pass_span_seconds{pass=\"%s\",quantile=\"%g\"} %.9f\n",
          promEscape(Name).c_str(), Q,
          static_cast<double>(H.percentile(Q * 100)) / 1e9);
      OS << Buf;
    }
    std::snprintf(Buf, sizeof(Buf),
                  "jitvs_pass_span_seconds_count{pass=\"%s\"} %llu\n",
                  promEscape(Name).c_str(),
                  static_cast<unsigned long long>(H.count()));
    OS << Buf;
  }

  OS << "# TYPE jitvs_value_summary summary\n";
  for (const auto &[Name, H] : ValueHist) {
    for (double Q : {0.5, 0.9, 0.99}) {
      std::snprintf(Buf, sizeof(Buf),
                    "jitvs_value_summary{name=\"%s\",quantile=\"%g\"} %llu\n",
                    promEscape(Name).c_str(), Q,
                    static_cast<unsigned long long>(H.percentile(Q * 100)));
      OS << Buf;
    }
    std::snprintf(Buf, sizeof(Buf),
                  "jitvs_value_summary_count{name=\"%s\"} %llu\n",
                  promEscape(Name).c_str(),
                  static_cast<unsigned long long>(H.count()));
    OS << Buf;
  }

  OS << "# TYPE jitvs_function_ticks_total counter\n"
     << "# TYPE jitvs_function_compiles_total counter\n"
     << "# TYPE jitvs_function_bailouts_total counter\n"
     << "# TYPE jitvs_function_compile_seconds_total counter\n";
  for (const auto &[Name, M] : Funcs) {
    std::string L = promEscape(Name);
    std::snprintf(Buf, sizeof(Buf),
                  "jitvs_function_ticks_total{function=\"%s\"} %llu\n",
                  L.c_str(), static_cast<unsigned long long>(M.Ticks));
    OS << Buf;
    std::snprintf(Buf, sizeof(Buf),
                  "jitvs_function_compiles_total{function=\"%s\"} %llu\n",
                  L.c_str(), static_cast<unsigned long long>(M.Compiles));
    OS << Buf;
    std::snprintf(Buf, sizeof(Buf),
                  "jitvs_function_bailouts_total{function=\"%s\"} %llu\n",
                  L.c_str(), static_cast<unsigned long long>(M.Bailouts));
    OS << Buf;
    std::snprintf(
        Buf, sizeof(Buf),
        "jitvs_function_compile_seconds_total{function=\"%s\"} %.9f\n",
        L.c_str(), static_cast<double>(M.CompileNs) / 1e9);
    OS << Buf;
  }
}

bool Metrics::writeJsonFile(const std::string &Path) const {
  return json::writeFile(Path, "jitvs metrics",
                         [this](std::ostream &OS) { writeJson(OS); });
}

bool Metrics::writePrometheusFile(const std::string &Path) const {
  return json::writeFile(Path, "jitvs metrics", [this](std::ostream &OS) {
    writePrometheus(OS);
  });
}

// --- Environment activation -------------------------------------------------
//
// JITVS_METRICS=1       collect (snapshot available programmatically).
// JITVS_STATS=path|-    collect and dump the snapshot at process exit;
//                       `-` writes JSON to stdout, a path ending in
//                       `.prom` selects Prometheus text exposition.

namespace {

bool endsWith(const char *S, const char *Suffix) {
  size_t N = std::strlen(S), M = std::strlen(Suffix);
  return N >= M && std::strcmp(S + (N - M), Suffix) == 0;
}

struct MetricsEnvInit {
  MetricsEnvInit() {
    if (const char *On = std::getenv("JITVS_METRICS"))
      if (std::strcmp(On, "0") != 0 && std::strcmp(On, "off") != 0)
        Metrics::instance().enable();
    if (std::getenv("JITVS_STATS")) {
      Metrics::instance().enable();
      std::atexit([] {
        const char *Path = std::getenv("JITVS_STATS");
        if (!Path)
          return;
        Metrics &M = Metrics::instance();
        if (std::strcmp(Path, "-") == 0) {
          std::ostringstream SS;
          M.writeJson(SS);
          std::fputs(SS.str().c_str(), stdout);
          std::fputc('\n', stdout);
          return;
        }
        bool Ok = endsWith(Path, ".prom") ? M.writePrometheusFile(Path)
                                          : M.writeJsonFile(Path);
        if (Ok)
          std::fprintf(stderr, "jitvs metrics: snapshot written to %s\n",
                       Path);
      });
    }
  }
};

MetricsEnvInit InitMetricsFromEnv;

} // namespace
