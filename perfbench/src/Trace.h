//===- perfbench/src/Trace.h - Layer spans recorded from outside -*- C++ -*-===//
///
/// \file
/// The traced run's instrumentation. Every span is recorded by the
/// benchmark around a call into a layer's public functions — nothing
/// inside the program is instrumented:
///
///  - `op` wraps one unit of work, `parser.load` wraps Runtime::load and
///    `vm.run` wraps Runtime::run (or a serve request's drive calls);
///  - `jit.call` / `jit.loop` are opened by TracedHooks, a forwarding
///    ExecutionHooks wrapper installed with Runtime::setHooks after the
///    Engine, around every Engine::onCall / Engine::onLoopHead;
///  - `mir.build`, `passes.*` and `lir.codegen` come from the compile
///    replay, which re-runs the engine's pipeline stage by stage for each
///    function the engine compiled, with the arguments of the call that
///    triggered the compile.
///
/// A span's self time is its duration minus the part its children cover.
/// Spans of one op share the op id. Aggregates cover every span; the
/// span records themselves stay in memory (up to a cap) and are written
/// out when the run ends.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "jit/Engine.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : uint8_t {
  Op,
  ParserLoad,
  VmRun,
  JitCall,
  JitLoop,
  MirBuild,
  PassInline,
  PassGVN,
  PassCP,
  PassLI,
  PassDCE,
  PassBCE,
  LirCodegen,
  Count
};
constexpr size_t NumSpanKinds = static_cast<size_t>(SpanKind::Count);
const char *spanKindName(SpanKind K);
/// The replay spans are benchmark work, not op work: they are excluded
/// from layer shares and from the traced ops_per_s.
inline bool isReplaySpan(SpanKind K) {
  return K >= SpanKind::MirBuild && K <= SpanKind::LirCodegen;
}

/// Counts the compile replay gathers (summed over replayed compiles).
struct ReplayCounts {
  uint64_t Functions = 0;
  uint64_t MirInstrs = 0;     ///< Right after buildMIR.
  uint64_t InlinedSites = 0;  ///< runClosureInlining's return.
  uint64_t InstrsAfter[5] = {}; ///< After GVN, CP, LI, DCE, BCE.
  uint64_t VRegs = 0, Spills = 0, CodeInstrs = 0;
};

class Tracer {
public:
  explicit Tracer(size_t KeepCap) : KeepCap(KeepCap) {}

  void setOp(uint64_t Id) { OpId = Id; }
  void begin(SpanKind K, const jitvs::EngineStats *S = nullptr);
  void end(const jitvs::EngineStats *S = nullptr);

  /// Compiles the engine ran inside the innermost open span, excluding
  /// its children's: {all, specialized}.
  std::pair<uint64_t, uint64_t> selfCompiles(const jitvs::EngineStats &S) const;

  struct Agg {
    uint64_t Count = 0;
    int64_t TotalNs = 0;
    int64_t SelfNs = 0;
  };
  const Agg &agg(SpanKind K) const { return Aggs[static_cast<size_t>(K)]; }
  /// Self time of the jit.* spans minus the compile stall inside them:
  /// native execution plus engine dispatch and bailout resumes.
  int64_t nativeSelfNs() const { return NativeNs; }
  /// Compile stall inside jit.* spans (main-thread compile time).
  int64_t compileSelfNs() const { return CompileNs; }
  /// Replay time of everything recorded so far.
  int64_t replayNs() const;
  /// Median self time of the jit.* spans, in microseconds (10 ns
  /// resolution).
  double hookSelfP50Us() const;

  uint64_t HookSpans = 0, HookDeclines = 0;
  ReplayCounts Replay;

  /// Writes the kept spans as a Chrome trace (chrome://tracing).
  bool writeChromeTrace(const std::string &Path) const;

private:
  struct Open {
    SpanKind Kind;
    uint32_t Index; ///< Into Kept, or ~0u when over the cap.
    int64_t StartNs;
    int64_t ChildNs = 0;
    double StallAtStart = 0, ChildStall = 0;
    uint64_t CompilesAtStart = 0, ChildCompiles = 0;
    uint64_t SpecAtStart = 0, ChildSpec = 0;
  };
  struct Record {
    SpanKind Kind;
    uint32_t Parent; ///< ~0u for roots.
    uint64_t Op;
    int64_t StartNs, EndNs;
  };

  std::vector<Open> Stack;
  std::vector<Record> Kept;
  size_t KeepCap;
  uint64_t OpId = 0;
  Agg Aggs[NumSpanKinds];
  int64_t NativeNs = 0, CompileNs = 0;
  /// Self-time histogram of the jit.* spans, 10 ns buckets (the last
  /// bucket collects everything from 1 ms on).
  std::vector<uint64_t> HookSelfHist = std::vector<uint64_t>(100000);
};

/// The forwarding hook wrapper: times every Engine::onCall/onLoopHead and
/// replays the compile of each function the engine compiled.
class TracedHooks final : public jitvs::ExecutionHooks {
public:
  TracedHooks(jitvs::Runtime &RT, jitvs::Engine &E, Tracer &T);
  ~TracedHooks() override;
  TracedHooks(const TracedHooks &) = delete;
  TracedHooks &operator=(const TracedHooks &) = delete;

  bool onCall(jitvs::JSFunction *Callee, const jitvs::Value &ThisV,
              const jitvs::Value *Args, size_t NumArgs,
              jitvs::Value &Result) override;
  bool onLoopHead(jitvs::InterpFrame &Frame, uint32_t PC,
                  jitvs::Value &Result) override;

private:
  void replay(jitvs::FunctionInfo *Info, bool Specialized,
              const jitvs::Value *Args, size_t NumArgs, const uint32_t *OsrPc,
              const std::vector<jitvs::Value> *OsrSlots);

  jitvs::Runtime &RT;
  jitvs::Engine &E;
  Tracer &T;
  std::unordered_set<const jitvs::FunctionInfo *> Replayed;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
