//===- telemetry/Metrics.h - Aggregate engine metrics -----------*- C++ -*-===//
///
/// \file
/// The aggregation half of the observability layer. Where Telemetry.h
/// records *events* (a bounded ring of what happened, in order), this
/// subsystem answers *aggregate* questions: where do the milliseconds go
/// per engine phase, what is the p99 compile latency, which function
/// bails out most. It provides:
///
///  - saturating counters and gauges, registered by name;
///  - log2-bucketed histograms with p50/p90/p99 queries (constant
///    memory, one increment per sample);
///  - a phase-attribution stack: RAII MetricsPhaseTimer spans plumbed
///    through the interpreter, the profiler, every compiler stage,
///    native execution, bailout handling and GC. Nested spans attribute
///    *self* time correctly (a bailout inside native execution inside a
///    script does not triple-count);
///  - per-function profiles (ticks, compiles, compile-ns, bailouts,
///    cache hits, tier transitions), fed live by the runtime and folded
///    in from Engine reports at engine destruction;
///  - exporters: a schema-versioned JSON snapshot and Prometheus text
///    exposition.
///
/// Cost model: identical to Telemetry.h — every instrumentation site is
/// guarded by `metricsEnabled()`, a single load-and-test of a global
/// flag, so the disabled-by-default cost is one predictable branch per
/// site.
///
/// Activation (either works, both compose):
///  - environment: `JITVS_METRICS=1` collects; `JITVS_STATS=<path|->`
///    collects and dumps the JSON snapshot at process exit (`-` means
///    stdout; a path ending in `.prom` selects Prometheus exposition).
///  - programmatic: `metrics().enable()` then `metrics().writeJson(OS)`.
///
/// Like the tracer, the registry is process-global. It is thread-safe:
/// compile workers record phases, passes and histograms concurrently
/// with the main thread. The phase-attribution stack is thread-local
/// (each thread nests its own spans); the aggregated tables are guarded
/// by one registry mutex, taken only when metrics are enabled.
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_TELEMETRY_METRICS_H
#define JITVS_TELEMETRY_METRICS_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace jitvs {

/// Engine phases the time-attribution stack accounts. The phases nest
/// (Script > Interpret > NativeExec > Bailout > Interpret ...); self
/// time subtracts nested children so the per-phase totals answer "where
/// do the milliseconds go" without double counting.
enum class Phase : uint8_t {
  Script,       ///< One Runtime::evaluate (load + top-level run).
  Interpret,    ///< Bytecode interpreter frames.
  ProfileCalls, ///< CallProfiler::onCall bookkeeping.
  Compile,      ///< One compile pipeline run (MIR -> LIR -> native).
  MIRBuild,     ///< Bytecode -> MIR graph construction.
  OptPass,      ///< One optimization pass (per-pass split: passes()).
  Codegen,      ///< MIR -> LIR -> native code emission.
  Fusion,       ///< Post-regalloc macro-op fusion.
  NativeExec,   ///< Native-code execution (Executor::run).
  Bailout,      ///< Deoptimization: snapshot decode + frame rebuild.
  GC,           ///< Minor (nursery) and major (old-space) collections.
  CompileQueue, ///< Background compile job (worker-thread wall clock).
};
constexpr size_t NumPhases = 12;

/// \returns a stable lower-case name ("script", "interpret", ...).
const char *phaseName(Phase P);

/// Log2-bucketed histogram of uint64 samples (nanoseconds, usually).
/// Bucket B >= 1 covers [2^(B-1), 2^B); bucket 0 holds zeros. Constant
/// memory, one array increment per sample, percentile queries by linear
/// interpolation inside the winning bucket — the classic HdrHistogram
/// trade: values are exact to within 2x, ranks are exact.
class LogHistogram {
public:
  static constexpr size_t NumBuckets = 64;

  void record(uint64_t V);

  uint64_t count() const { return Count; }
  uint64_t sum() const { return Sum; }
  uint64_t min() const { return Count ? MinV : 0; }
  uint64_t max() const { return MaxV; }
  double mean() const {
    return Count ? static_cast<double>(Sum) / static_cast<double>(Count) : 0;
  }

  /// Value at percentile \p P in [0,100]: the smallest V such that at
  /// least P% of samples are <= V, interpolated within its bucket (and
  /// clamped to the observed min/max). 0 for an empty histogram.
  uint64_t percentile(double P) const;

  /// \returns the bucket index \p V lands in (0 for 0, else bit width).
  static size_t bucketFor(uint64_t V);
  /// Inclusive value bounds of bucket \p B.
  static uint64_t bucketLo(size_t B);
  static uint64_t bucketHi(size_t B);
  uint64_t bucketCount(size_t B) const { return Buckets[B]; }

private:
  uint64_t Buckets[NumBuckets] = {};
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t MinV = UINT64_MAX;
  uint64_t MaxV = 0;
};

namespace metrics_detail {
/// The hot-path flag. Read on every instrumentation site; written only
/// by Metrics::enable.
extern bool Enabled;
} // namespace metrics_detail

/// The hot-path gate: one load + test. Call before touching the registry.
inline bool metricsEnabled() { return metrics_detail::Enabled; }

/// The process-global metrics registry.
class Metrics {
public:
  static Metrics &instance();

  void enable(bool On = true);
  /// Drops all recorded data (counters, phases, functions); keeps the
  /// enabled flag and any in-flight phase stack.
  void reset();

  // --- Counters and gauges (registered by name) ---

  /// Adds \p Delta to counter \p Name, saturating at UINT64_MAX instead
  /// of wrapping (a monitoring value that jumps to ~0 after overflow
  /// reads as a reset; pegging at max reads as "too big", the truth).
  void addCounter(const std::string &Name, uint64_t Delta = 1);
  void setGauge(const std::string &Name, double V);
  /// \returns the counter's value (0 when never written).
  uint64_t counter(const std::string &Name) const;
  double gauge(const std::string &Name) const;

  // --- Phase time attribution ---

  struct PhaseStat {
    uint64_t Count = 0;   ///< Completed spans.
    uint64_t SelfNs = 0;  ///< Time attributed to this phase alone.
    uint64_t TotalNs = 0; ///< Inclusive span time (children included;
                          ///< recursive nesting counts each level).
    LogHistogram SpanNs;  ///< Inclusive durations -> p50/p90/p99.
  };

  /// Prefer MetricsPhaseTimer; these are the raw stack operations. The
  /// span stack is thread-local, so worker threads nest their own phases
  /// without interleaving with the main thread's attribution.
  void enterPhase(Phase P);
  void exitPhase(Phase P);
  /// Snapshot of one phase's aggregate (copy, for thread-safety).
  PhaseStat phase(Phase P) const;
  /// Sum of self time over all phases (the denominator for "% of run").
  uint64_t totalSelfNs() const;

  // --- Per-pass compile-time split (finer than Phase::OptPass) ---
  void recordPass(const std::string &PassName, uint64_t DurNs);
  std::map<std::string, LogHistogram> passes() const;

  // --- Named value histograms (latencies outside the phase stack) ---

  /// Records \p V into the named histogram (e.g. "compile_queue.wait_ns"
  /// = enqueue-to-install latency, "compile_queue.stall_hidden_ns" =
  /// compile wall time overlapped with interpretation).
  void recordValue(const std::string &Name, uint64_t V);
  /// Snapshot of one named histogram (copy; empty if never recorded).
  LogHistogram valueHistogram(const std::string &Name) const;

  // --- Per-function profiles ---

  struct FunctionMetrics {
    uint64_t Ticks = 0;       ///< Calls observed (any execution tier).
    uint64_t NativeRuns = 0;  ///< Executions entered in native code.
    uint64_t Compiles = 0;
    uint64_t CompileNs = 0;
    uint64_t Bailouts = 0;
    uint64_t CacheHits = 0;
    uint64_t TierTransitions = 0;
    uint64_t Despecializations = 0;
    /// Guard failures per native execution (0 when never run natively).
    double guardFailRate() const {
      return NativeRuns ? static_cast<double>(Bailouts) /
                              static_cast<double>(NativeRuns)
                        : 0.0;
    }
  };

  /// Folds \p Delta into \p Name's profile: the teardown folds of an
  /// Engine (compiles, native runs, ...) and of a Runtime (ticks).
  void mergeFunction(const std::string &Name, const FunctionMetrics &Delta);
  std::map<std::string, FunctionMetrics> functions() const;
  /// Profiles sorted hottest first (by ticks, then compile time).
  std::vector<std::pair<std::string, FunctionMetrics>>
  functionsByTicks() const;

  // --- Exporters ---

  /// Schema identifier embedded in every JSON snapshot.
  static constexpr const char *JsonSchema = "jitvs-metrics-v1";

  /// {"schema":..., "counters":{...}, "gauges":{...}, "phases":[...],
  ///  "passes":[...], "functions":[...]}.
  void writeJson(std::ostream &OS) const;
  /// Prometheus text exposition (counters, gauges, phase times with
  /// quantiles, per-function series).
  void writePrometheus(std::ostream &OS) const;
  /// File wrappers; \returns false (with a stderr note) on I/O failure.
  bool writeJsonFile(const std::string &Path) const;
  bool writePrometheusFile(const std::string &Path) const;

  /// One in-flight span on a thread's attribution stack (public only so
  /// the thread-local stack in Metrics.cpp can name it).
  struct StackEntry {
    Phase P;
    uint64_t StartNs;
    uint64_t ChildNs;
  };

private:
  Metrics() = default;

  /// Guards every aggregate table below. The phase stack itself is
  /// thread-local (see Metrics.cpp) and needs no lock.
  mutable std::mutex Mu;
  PhaseStat Phases[NumPhases];
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, double> Gauges;
  std::map<std::string, LogHistogram> PassHist;
  std::map<std::string, LogHistogram> ValueHist;
  std::map<std::string, FunctionMetrics> Funcs;
};

/// Shorthand for Metrics::instance().
inline Metrics &metrics() { return Metrics::instance(); }

/// RAII phase span. Free when metrics are disabled (one branch in the
/// constructor, one in the destructor); otherwise pushes/pops the
/// attribution stack. The enabled decision is latched at construction so
/// a mid-span enable() cannot unbalance the stack.
class MetricsPhaseTimer {
public:
  explicit MetricsPhaseTimer(Phase P) : P(P), Active(metricsEnabled()) {
    if (Active)
      Metrics::instance().enterPhase(P);
  }
  ~MetricsPhaseTimer() {
    if (Active)
      Metrics::instance().exitPhase(P);
  }
  /// Ends the span now (the destructor becomes a no-op). For spans whose
  /// natural end is mid-scope, e.g. bailout handling that tail-calls back
  /// into the interpreter.
  void stop() {
    if (Active)
      Metrics::instance().exitPhase(P);
    Active = false;
  }
  MetricsPhaseTimer(const MetricsPhaseTimer &) = delete;
  MetricsPhaseTimer &operator=(const MetricsPhaseTimer &) = delete;

private:
  Phase P;
  bool Active;
};

} // namespace jitvs

#endif // JITVS_TELEMETRY_METRICS_H
