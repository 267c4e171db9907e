//===- telemetry/Telemetry.h - Structured JIT event tracing -----*- C++ -*-===//
///
/// \file
/// The engine's observability layer: a bounded ring buffer of typed,
/// timestamped JIT events (compiles, per-pass metrics, bailouts, cache
/// hits, despecializations, OSR entries, discards), an IonMonkey-style
/// category-filtered spew channel, per-site bailout counters, and
/// exporters producing raw JSON or Chrome trace-event JSON
/// (chrome://tracing / Perfetto "traceEvents" format).
///
/// Cost model: every instrumentation site is guarded by
/// `telemetryEnabled(category)` — a single load-and-test of a global mask
/// — so the disabled-by-default cost is one predictable branch per event.
///
/// Activation (either works, both compose):
///  - environment: `JITVS_SPEW=compile,bailout` echoes matching events to
///    stderr as they happen; `JITVS_TRACE=out.json` records everything
///    and writes a Chrome trace at process exit; `JITVS_TRACE_JSON=f`
///    writes the raw event list instead.
///  - programmatic: `telemetry().configure(TelCompile | TelBailout)` then
///    `telemetry().writeChromeTrace(OS)`.
///
/// The recorder is process-global and thread-safe: compile workers emit
/// compile/pass events concurrently with the main thread, so the ring
/// and the per-site counters are guarded by a mutex (taken only when a
/// category is enabled — the disabled path is still one branch).
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_TELEMETRY_TELEMETRY_H
#define JITVS_TELEMETRY_TELEMETRY_H

#include "telemetry/BailoutReason.h"

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace jitvs {

/// Event categories (bitmask). These are also the `JITVS_SPEW` spellings:
/// `compile`, `pass`, `bailout`, `cache`, `osr`, `script`, `bench`, `all`.
enum TelemetryCategory : uint32_t {
  TelCompile = 1u << 0, ///< Compile start/end spans.
  TelPass = 1u << 1,    ///< Per-optimization-pass metrics.
  TelBailout = 1u << 2, ///< Guard-failure deoptimizations.
  TelCache = 1u << 3,   ///< Cache hits, despecializations, discards.
  TelOsr = 1u << 4,     ///< On-stack-replacement entries.
  TelScript = 1u << 5,  ///< Runtime::evaluate spans.
  TelBench = 1u << 6,   ///< Bench-harness workload-run spans.
  TelAll = (1u << 7) - 1,
};

/// \returns the spew spelling of a single category bit ("compile", ...).
const char *telemetryCategoryName(uint32_t CategoryBit);

/// \returns the bitmask for a `JITVS_SPEW`-style comma-separated list
/// ("compile,bailout"; "all"; unknown words are ignored).
uint32_t parseTelemetryCategories(const char *Spec);

/// As above, but also collects every word that did not name a category
/// into \p UnknownOut (may be null), so callers can warn about typos
/// instead of silently spewing nothing.
uint32_t parseTelemetryCategories(const char *Spec,
                                  std::vector<std::string> *UnknownOut);

/// What happened. Each kind belongs to a fixed category and documents its
/// payload-field conventions (A..D below).
enum class TelemetryEventKind : uint8_t {
  CompileStart, ///< [compile] A=1 if specialized, B=1 if OSR compile.
  CompileEnd,   ///< [compile] span; A/B as above, C=code size (instrs).
  Pass,         ///< [pass] span; A=instrs before, B=instrs after,
                ///<        C=guards removed, D=blocks after.
  CacheHit,     ///< [cache] specialized binary reused with same args.
  Despecialize, ///< [cache] Detail=cause (different-args|osr-revalidation).
  Discard,      ///< [cache] binary dropped; Detail=cause (bailout-limit).
  TierTransition, ///< [cache] a parameter moved down the specialization
                  ///< ladder; Detail=edge ("value->type"|"value->generic"|
                  ///< "type->generic"|"arity->generic"), A=parameter index.
  Bailout,      ///< [bailout] Reason set; A=native pc, B=bytecode pc.
  OsrEntry,     ///< [osr] A=loop-head bytecode pc.
  Script,       ///< [script] span; one Runtime::evaluate.
  BenchRun,     ///< [bench] span; Func=workload, Detail=config.
};

const char *telemetryEventKindName(TelemetryEventKind K);

/// \returns the category a kind reports under.
uint32_t telemetryEventCategory(TelemetryEventKind K);

/// One recorded event. Fixed-size and allocation-free so the ring buffer
/// is cheap to write and trivially copyable; names are truncated into
/// inline storage rather than heap-allocated.
struct TelemetryEvent {
  TelemetryEventKind Kind = TelemetryEventKind::CompileStart;
  BailoutReason Reason = BailoutReason::Unknown;
  uint64_t TimeNs = 0; ///< Monotonic, relative to the telemetry epoch.
  uint64_t DurNs = 0;  ///< Span kinds only; 0 for instants.
  uint64_t A = 0, B = 0, C = 0, D = 0; ///< Kind-specific (see the enum).
  char Func[40] = {};   ///< Function (or workload) identity.
  char Detail[24] = {}; ///< Kind-specific short string (pass, cause, ...).

  void setFunc(const std::string &S) { copyInto(Func, sizeof(Func), S); }
  void setDetail(const std::string &S) {
    copyInto(Detail, sizeof(Detail), S);
  }

private:
  static void copyInto(char *Dst, size_t Cap, const std::string &S) {
    size_t N = S.size() < Cap - 1 ? S.size() : Cap - 1;
    std::memcpy(Dst, S.data(), N);
    Dst[N] = '\0';
  }
};

namespace telemetry_detail {
/// Categories currently recorded (and/or spewed). Read on the hot path;
/// written only via Telemetry::configure / setSpewMask.
extern uint32_t ActiveMask;
} // namespace telemetry_detail

/// The hot-path gate: one load + test. Call before building an event.
inline bool telemetryEnabled(uint32_t Category) {
  return (telemetry_detail::ActiveMask & Category) != 0;
}

/// The process-global event recorder.
class Telemetry {
public:
  static constexpr size_t DefaultCapacity = 1 << 16;

  static Telemetry &instance();

  /// Sets which categories are recorded (TelAll, TelCompile|TelBailout,
  /// ...; 0 disables recording) and optionally resizes the ring. Keeps
  /// the spew mask. Clears previously buffered events when \p Capacity
  /// changes.
  void configure(uint32_t CategoryMask, size_t Capacity = 0);

  /// Categories additionally echoed to stderr as they happen. Spewed
  /// categories are implicitly recorded.
  void setSpewMask(uint32_t CategoryMask);

  uint32_t categoryMask() const { return Mask; }
  uint32_t spewMask() const { return Spew; }

  /// Drops all buffered events and per-site counters (masks unchanged).
  void clear();

  /// Records \p E (timestamping it if E.TimeNs == 0) when its category is
  /// enabled; spews it when its category is spew-enabled. Bailout events
  /// also feed the per-site counter table.
  void record(TelemetryEvent E);

  /// Nanoseconds since the telemetry epoch (process start, monotonic).
  uint64_t nowNs() const;

  // --- Ring access (oldest first) ---
  size_t size() const { return Count; }
  size_t capacity() const { return Ring.size(); }
  /// Events overwritten because the ring wrapped.
  uint64_t dropped() const { return Dropped; }
  /// \returns buffered events, oldest first.
  std::vector<TelemetryEvent> events() const;

  // --- Per-site bailout counters: (function, native pc) -> reasons ---
  struct BailoutSite {
    std::string Func;
    uint32_t NativePc = 0;
    uint32_t BytecodePc = 0;
    uint64_t Total = 0;
    uint64_t ByReason[NumBailoutReasons] = {};
  };
  /// \returns all sites, hottest first.
  std::vector<BailoutSite> bailoutSites() const;

  // --- Exporters ---
  /// Raw event list: {"events":[...], "dropped":N, "bailoutSites":[...]}.
  void writeJson(std::ostream &OS) const;
  /// Chrome trace-event format ({"traceEvents":[...]}): load the file in
  /// chrome://tracing or https://ui.perfetto.dev.
  void writeChromeTrace(std::ostream &OS) const;
  /// File-writing wrappers; \returns false (with a stderr note) on I/O
  /// failure.
  bool writeJsonFile(const std::string &Path) const;
  bool writeChromeTraceFile(const std::string &Path) const;

private:
  Telemetry();

  void spewEvent(const TelemetryEvent &E) const;

  /// Guards the ring, per-site counters and mask updates.
  mutable std::mutex Mu;
  uint32_t Mask = 0;
  uint32_t Spew = 0;
  std::vector<TelemetryEvent> Ring;
  size_t Head = 0;  ///< Next write position.
  size_t Count = 0; ///< Buffered events (<= capacity).
  uint64_t Dropped = 0;
  uint64_t EpochNs = 0;

  std::unordered_map<std::string, BailoutSite> Sites; ///< "func@pc" keys.
};

/// Shorthand for Telemetry::instance().
inline Telemetry &telemetry() { return Telemetry::instance(); }

} // namespace jitvs

#endif // JITVS_TELEMETRY_TELEMETRY_H
