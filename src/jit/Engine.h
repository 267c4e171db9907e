//===- jit/Engine.h - The JIT engine and specialization policy --*- C++ -*-===//
///
/// \file
/// The engine ties everything together, implementing the paper's policy
/// (Section 4, "Specialization policy"):
///
///  - hot functions (by call count or loop back-edge count) are compiled;
///  - under parameter specialization, the actual arguments are baked into
///    the binary, which is kept in a SpecSig-keyed table (jit/CodeCache.h);
///    a later call with the *same* arguments reuses the binary;
///  - a call with *different* arguments discards the binary, recompiles a
///    generic version, and marks the function so it is never specialized
///    again (the table's signature cap and miss rule generalize this to
///    several binaries per function);
///  - guard failures (overflow, type, bounds) bail out: the interpreter
///    frame is reconstructed from the snapshot and execution resumes in
///    the interpreter; repeated bailouts discard the binary so the next
///    compile uses the refreshed type feedback.
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_JIT_ENGINE_H
#define JITVS_JIT_ENGINE_H

#include "jit/CodeCache.h"
#include "jit/CompileQueue.h"
#include "jit/SpecSig.h"
#include "mir/Tier.h"
#include "native/Executor.h"
#include "native/NativeCode.h"
#include "passes/Passes.h"
#include "telemetry/BailoutReason.h"
#include "vm/Runtime.h"

#include <array>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace jitvs {

/// How the engine specializes and reacts to specialization misses.
enum class TierPolicy : uint8_t {
  /// The paper's Section 4 policy: specialize every parameter on its
  /// exact value; one miss discards the binary, recompiles generic, and
  /// marks the function NeverSpecialize.
  Paper,
  /// The adaptive ladder: each parameter sits on its own tier
  /// (value -> type -> generic). A value miss demotes just the offending
  /// parameters to the type tier; only a type miss forces generic. The
  /// function falls back to a fully generic binary (and NeverSpecialize)
  /// only when every parameter has been demoted to Generic.
  Tiered,
};

const char *tierPolicyName(TierPolicy P);

/// Aggregate engine statistics (Figure 9/10 and the Section 4 numbers).
struct EngineStats {
  uint64_t Compilations = 0;
  uint64_t Recompilations = 0; ///< Compiles beyond a function's first.
  uint64_t SpecializedCompiles = 0;
  uint64_t GenericCompiles = 0;
  uint64_t Despecializations = 0; ///< Different-arguments deopts.
  uint64_t CacheHits = 0;  ///< Specialized code reused (sum of the two
                           ///< tier-split counters below).
  uint64_t ValueTierHits = 0; ///< Hits on binaries baking >=1 exact value.
  uint64_t TypeTierHits = 0;  ///< Hits on type-guard-only binaries.
  /// Tiered policy: parameters demoted value->type / (value|type)->generic.
  uint64_t TierDemotionsValueToType = 0;
  uint64_t TierDemotionsToGeneric = 0;
  /// Tiered policy: functions that exhausted the ladder and recompiled a
  /// fully generic binary (the only path that sets NeverSpecialize).
  uint64_t GenericFallbacks = 0;
  uint64_t Bailouts = 0;
  /// Bailouts split by the taxonomy of telemetry/BailoutReason.h; sums
  /// to Bailouts. Index with static_cast<size_t>(BailoutReason).
  std::array<uint64_t, NumBailoutReasons> BailoutsByReason{};
  uint64_t OsrEntries = 0;
  uint64_t NativeCalls = 0;      ///< Calls executed in native code.
  uint64_t InterpretedCalls = 0; ///< Calls the engine left to the interp.
  /// Macro-op pairs fused across all compiles (native/Fusion.cpp).
  uint64_t FusedOps = 0;
  /// Total compile wall-clock, wherever it ran: synchronous compiles on
  /// the main thread plus background compiles on worker threads.
  double CompileSeconds = 0.0;
  /// The subset of compile time that actually blocked the main thread:
  /// all of CompileSeconds in synchronous mode, only explicit
  /// drainCompiles() waits in background mode. The gap between the two
  /// is the stall the off-thread pipeline hid.
  double CompileStallSeconds = 0.0;
};

/// Every EngineStats count under its metrics-registry name, the one list
/// the registry fold, the fuzzer's divergence report and the drain-parity
/// test walk. Not listed: the two wall-clock fields (published as gauges)
/// and BailoutsByReason (published as "engine.bailouts.<reason>").
inline constexpr std::pair<const char *, uint64_t EngineStats::*>
    EngineStatCounts[] = {
        {"engine.compilations", &EngineStats::Compilations},
        {"engine.recompilations", &EngineStats::Recompilations},
        {"engine.compiles.specialized", &EngineStats::SpecializedCompiles},
        {"engine.compiles.generic", &EngineStats::GenericCompiles},
        {"engine.despecializations", &EngineStats::Despecializations},
        {"engine.cache_hits", &EngineStats::CacheHits},
        {"engine.cache_hits.value_tier", &EngineStats::ValueTierHits},
        {"engine.cache_hits.type_tier", &EngineStats::TypeTierHits},
        {"engine.tier_demotions.value_to_type",
         &EngineStats::TierDemotionsValueToType},
        {"engine.tier_demotions.to_generic",
         &EngineStats::TierDemotionsToGeneric},
        {"engine.generic_fallbacks", &EngineStats::GenericFallbacks},
        {"engine.bailouts", &EngineStats::Bailouts},
        {"engine.osr_entries", &EngineStats::OsrEntries},
        {"engine.calls.native", &EngineStats::NativeCalls},
        {"engine.calls.interpreted", &EngineStats::InterpretedCalls},
        {"engine.fused_ops", &EngineStats::FusedOps},
};

/// Why a function lost its specialized binary (per-function reporting;
/// the aggregate counter is EngineStats::Despecializations).
enum class DespecializeCause : uint8_t {
  None,          ///< Still specialized (or never was).
  DifferentArgs, ///< Called with arguments other than the cached set.
  OsrRevalidation, ///< OSR re-entry found baked-in frame values stale.
  ValueMismatch, ///< Tiered: a value-tier parameter saw a new value
                 ///< (same tag) and was demoted to the type tier.
  TypeMismatch,  ///< Tiered: a parameter saw a new tag and was demoted
                 ///< to generic.
};

/// \returns a stable lower-case name ("different-args", ...).
const char *despecializeCauseName(DespecializeCause C);

/// The engine's whole configuration, fixed when the engine is built.
/// fromEnvironment() seeds it from the JITVS_* environment (convenient
/// for ad-hoc runs); harnesses that must not inherit the ambient
/// environment, like the differential fuzzer's config-matrix runner,
/// fill one in directly: what you specify is what you get.
struct EngineKnobs {
  TierPolicy Policy = TierPolicy::Paper;
  bool Fusion = true;
  DispatchMode Dispatch = DispatchMode::Goto; ///< Falls back where unsupported.
  uint32_t CallThreshold = 8;
  uint32_t LoopThreshold = 100;
  uint32_t BailoutLimit = 12;
  /// Future-work knob from the paper's conclusion: how many specialized
  /// binaries (argument sets) to cache per function — the table's
  /// signature cap when there is no byte budget. The paper uses 1 ("we
  /// cache only one binary per function. Thus, we can specialize only two
  /// different parameter sets" — the specialized one plus the generic
  /// fallback); with depth N, a call whose arguments miss every held set
  /// compiles one more while fewer than N are held, and otherwise
  /// retires them all and despecializes as usual. 0 counts as 1.
  uint32_t CacheDepth = 1;
  /// Tiered policy: a parameter whose warm-up calls carried at most this
  /// many distinct values starts at the value tier; more values but one
  /// tag start it at the type tier, several tags at generic (see
  /// Engine::chooseTiers). Env: JITVS_TIER_VALUE_MAX.
  uint32_t ValueStabilityMax = 1;
  /// Background compilation workers. 0 (the default) runs each compile
  /// inline on the calling thread; N >= 1 (at most 16) queues it for a
  /// worker while the caller keeps interpreting. The policy decisions are
  /// the same code in both modes. Env: JITVS_COMPILE_THREADS (a number,
  /// or "auto" = hw_concurrency-1).
  uint32_t CompileThreads = 0;
  /// Deterministic mode for differential testing: block on the queue
  /// right after every enqueue and run the installed binary, exactly
  /// where the inline mode would, while still exercising the
  /// cross-thread publication machinery. Every EngineStats and
  /// CodeCache::Stats count equals the inline mode's (the parity test
  /// in tests/CompileQueueTest.cpp). Env: JITVS_COMPILE_DRAIN=1.
  bool CompileDrain = false;
  /// Byte budget of the specialization table (jit/CodeCache.h). 0 (the
  /// default) sets no budget: each function holds up to CacheDepth
  /// signatures, and a miss beyond them despecializes as the paper's
  /// policy does. Non-zero is the serving mode: cost-aware LRU eviction
  /// keeps resident code under the budget, each function holds up to
  /// Engine::CodeCacheSigLimit signatures, and a miss beyond them keeps
  /// those entries beside a generic fallback. Env: JITVS_CODE_CACHE_BYTES.
  size_t CodeCacheBytes = 0;

  /// EngineKnobs' defaults, overridden by whatever of JITVS_TIER_POLICY,
  /// JITVS_TIER_VALUE_MAX, JITVS_FUSION, JITVS_DISPATCH,
  /// JITVS_COMPILE_THREADS, JITVS_COMPILE_DRAIN and JITVS_CODE_CACHE_BYTES
  /// is set to a valid value.
  static EngineKnobs fromEnvironment();
};

/// The JIT engine. Construction attaches it as its Runtime's call hook.
class Engine final : public ExecutionHooks {
public:
  /// Attaches to \p RT. \p Knobs is fixed for the engine's lifetime;
  /// out-of-range values are clamped once, here (see knobs()).
  Engine(Runtime &RT, const OptConfig &Config,
         const EngineKnobs &Knobs = EngineKnobs::fromEnvironment());
  ~Engine() override;

  bool onCall(JSFunction *Callee, const Value &ThisV, const Value *Args,
              size_t NumArgs, Value &Result) override;
  bool onLoopHead(InterpFrame &Frame, uint32_t PC, Value &Result) override;

  const EngineStats &stats() const { return Stats; }
  const OptConfig &config() const { return Config; }

  /// The configuration in force: the constructor's knobs with CacheDepth
  /// at least 1, CompileThreads at most 16 and Dispatch supported by this
  /// build.
  const EngineKnobs &knobs() const { return Knobs; }

  /// Blocks until every queued compile has finished, then installs the
  /// results. The wait is accounted to EngineStats::CompileStallSeconds.
  /// No-op in synchronous mode.
  void drainCompiles();
  /// Queued-but-unstarted background compiles (0 in synchronous mode).
  size_t pendingCompiles() const { return Queue ? Queue->depth() : 0; }
  /// The deferred-reclamation parking lot for unlinked binaries
  /// (test/introspection hook). Every replaced, discarded or evicted
  /// binary parks here until no frame can still be running it.
  const CodeReclaimer &codeReclaimer() const { return Reclaimer; }

  /// The specialization table, which holds every specialized binary
  /// (never null). Test/harness introspection: hit/miss/eviction
  /// counters, resident bytes; budgetBytes() is 0 without a byte budget.
  const CodeCache *codeCache() const { return &Cache; }

  /// The signature cap under a byte budget: distinct specialized
  /// signatures the table holds per function before further misses run
  /// a generic fallback body — the multi-signature analogue of the
  /// paper's one-miss despecialization rule.
  static constexpr uint32_t CodeCacheSigLimit = 8;

  /// Per-function facts for the reports, kept up to date in place. The
  /// counts split EngineStats by function: over all functions, Compiles,
  /// Bailouts, Despecializations and the two tier-hit counts sum to the
  /// aggregates of those names, TierTransitions to both demotion counts,
  /// and NativeRuns to NativeCalls plus OsrEntries.
  struct FunctionReport {
    std::string Name;
    bool WasSpecialized = false;
    uint32_t Despecializations = 0; ///< Losses of specialized code.
    DespecializeCause Cause = DespecializeCause::None; ///< The latest one's.
    uint32_t Compiles = 0;
    double CompileSeconds = 0.0; ///< Total spent compiling this function.
    uint64_t NativeRuns = 0; ///< Native executions entered (any binary).
    uint32_t Bailouts = 0;  ///< Lifetime total (not reset by discards).
    uint32_t TierTransitions = 0; ///< Ladder demotion steps recorded.
    uint32_t ValueTierHits = 0; ///< Reuses of value-baking binaries.
    uint32_t TypeTierHits = 0;  ///< Reuses of type-guard-only binaries.
    size_t MinCodeSize = SIZE_MAX;
    /// Smallest dispatched-instruction count after fusion (equals
    /// MinCodeSize with fusion off; the static Figure 10 metric is
    /// always MinCodeSize — fusion does not change Code.size()).
    size_t MinCodeSizePostFusion = SIZE_MAX;
    uint32_t FusedOps = 0; ///< Pairs fused across this function's compiles.
  };
  std::vector<FunctionReport> functionReports() const;

  /// Compiles \p Info immediately (test/bench hook). Returns the code (or
  /// nullptr while a free-running background compile is in flight).
  /// \p Args non-null => specialized; \p Tiers (paired with Args)
  /// selects per-parameter tiers, nullptr = all value-tier (paper
  /// behavior).
  NativeCode *compileNow(FunctionInfo *Info, const std::vector<Value> *Args,
                         const std::vector<ParamTier> *Tiers = nullptr);

private:
  /// Tiered policy: what one parameter slot carried on the calls that
  /// reached the miss path. Holds up to ValueStabilityMax distinct values;
  /// one more saturates the record and drops them, since the slot is
  /// value-unstable from then on and need not keep those objects alive.
  /// The values are traced (EngineRoots), so a moving collection cannot
  /// make one object count as two.
  struct ParamRecord {
    uint32_t TagMask = 0; ///< Bit per ValueTag.
    bool Saturated = false;
    std::vector<Value> Values;
  };

  struct FuncState {
    /// The generic body (entry or OSR); specialized ones live in Cache.
    /// Shared: in-flight executions (including recursive ones) keep the
    /// binary alive after the engine discards it.
    std::shared_ptr<NativeCode> Code;
    bool NeverSpecialize = false;
    uint32_t Bailouts = 0; ///< Since the last discard (policy counter).
    /// Bumped whenever the policy state an in-flight compile was built
    /// against is invalidated (a bailout-limit discard). A finished task
    /// whose stamped generation no longer matches is dropped at install
    /// instead of linked; table entries carry the same stamp.
    uint32_t Generation = 0;
    /// A queued/running compile exists for this function (free-running
    /// background mode only); gates policy decisions and re-enqueueing
    /// until it installs.
    bool CompilePending = false;
    /// Tiered policy: argument stability, one record per slot, the input
    /// of chooseTiers. Empty under the paper policy.
    std::vector<ParamRecord> Params;
    FunctionReport Report; ///< Reporting only; policy reads Compiles.
  };

  FuncState &state(FunctionInfo *Info);

  /// Folds this engine's counts and per-function reports into the global
  /// metrics registry (telemetry/Metrics.h), once, from the destructor
  /// when metrics are enabled: `JITVS_STATS` dumps at exit, after the
  /// engines are gone.
  void publishMetrics();

  /// Runs one policy decision's compile. Without a queue it compiles
  /// inline (live feedback, the main heap) and installs; with one it
  /// enqueues, and in drain mode also waits and installs. \returns the
  /// installed binary, or nullptr while a free-running compile is still
  /// in flight (the caller interprets meanwhile).
  std::shared_ptr<NativeCode> submit(FuncState &FS,
                                     std::unique_ptr<CompileTask> Task);

  /// Build -> inline -> optimize -> verify -> codegen -> fuse for one
  /// task. Touches no engine state; \p FoldRT supplies the heap/helpers
  /// constant folding uses (the engine's own Runtime inline, a
  /// worker-private one off-thread), and \p OnMainThread gates the
  /// GraphRoots registration (worker fold allocations are instead kept
  /// alive by the worker heap's disabled GC).
  std::unique_ptr<CompileOutcome>
  runCompilePipeline(const CompileTask &Task, Runtime &FoldRT,
                     bool OnMainThread);

  // --- Off-thread compilation ---
  /// Spawns the worker pool + per-worker fold Runtimes (no-op when
  /// Knobs.CompileThreads is 0).
  void initCompileQueue();
  /// Runs one task on a worker thread: the pipeline against \p FoldRT,
  /// then release-publication of the outcome into the task's result
  /// slot.
  void workerCompile(CompileTask &Task, Runtime &FoldRT);
  /// Installs every finished background compile (or drops stale ones),
  /// first blocking until the queue is idle when \p Wait. \returns the
  /// binary installed for \p Wanted, if it was among them.
  std::shared_ptr<NativeCode>
  installFinished(bool Wait, const CompileTask *Wanted = nullptr);
  /// The one install path: records the compile's stats, links the binary
  /// (a specialized one into the table, a generic one as FS.Code) and
  /// clears FS.CompilePending. Drops results whose generation is stale.
  std::shared_ptr<NativeCode> installCompleted(CompileTask &Task);
  /// Unlinks a binary: parks it on the reclaimer, which keeps its pool
  /// rooted and frees it once no in-flight frame can still run it.
  void retireCode(std::shared_ptr<NativeCode> Code);
  /// Enqueues a task built by the policy; sets FS.CompilePending unless
  /// the queue rejected it (backlog full — retried at the next trigger).
  void enqueueCompileTask(FuncState &FS, std::shared_ptr<CompileTask> Task);
  /// Immutable whole-program feedback copy for one background build.
  std::shared_ptr<const FeedbackSnapshot> captureFeedback(FunctionInfo *Info);

  /// Tiered policy: adds one miss-path call's arguments to \p FS.Params.
  void recordArgs(FuncState &FS, const Value *Args, size_t NumArgs);

  /// The tiers a new specialized compile starts from: Value for a slot
  /// whose record holds at most ValueStabilityMax values (or that was
  /// never recorded), otherwise Type for one tag and Generic for
  /// several. All-Value under the paper policy, which records nothing.
  /// Main-thread only; tasks carry the result.
  std::vector<ParamTier> chooseTiers(const FuncState &FS,
                                     size_t NumArgs) const;

  /// Tiered policy: the demotion step. Computes the post-miss tier of
  /// every signature entry given the observed \p Args, records demotion
  /// stats + telemetry, and reports whether any entry type-mismatched.
  /// \returns the new tier vector (all-Generic => caller falls back to a
  /// fully generic binary).
  std::vector<ParamTier> demoteTiers(FunctionInfo *Info, const SpecSig &Sig,
                                     const Value *Args, size_t NumArgs,
                                     bool &SawTypeMismatch);

  /// The miss rule, the one policy that differs between modes: whether
  /// a signature miss at the cap keeps the function's table entries.
  /// Serving (a byte budget) keeps them beside a generic fallback; the
  /// paper policy and CacheDepth retire them.
  bool keepsEntriesOnMiss() const { return Cache.budgetBytes() != 0; }
  /// Specialized signatures the table holds per function: CacheDepth, or
  /// CodeCacheSigLimit under a byte budget.
  uint32_t sigCap() const {
    return keepsEntriesOnMiss() ? CodeCacheSigLimit : Knobs.CacheDepth;
  }

  /// Records one despecialization of \p Info and applies the miss rule.
  /// The paper policy records \p PaperCause; the tiered policy demotes
  /// the missed signature \p Sig against the observed \p Vals into \p
  /// NewTiers (see demoteTiers). \returns whether to specialize again,
  /// on NewTiers; false means recompile generic.
  bool despecialize(FuncState &FS, FunctionInfo *Info,
                    DespecializeCause PaperCause, const SpecSig &Sig,
                    const Value *Vals, size_t N,
                    std::vector<ParamTier> &NewTiers);

  void recordCacheHit(FuncState &FS, const SpecSig &Sig,
                      const FunctionInfo *Info);

  /// Runs \p Code, handling bailouts (deoptimization to the
  /// interpreter). A linked body that reaches the bailout limit is
  /// unlinked, wherever it lives, with the rest of the function's table
  /// entries.
  Value execute(FuncState &FS, FunctionInfo *Info,
                std::shared_ptr<NativeCode> Code, const Value &ThisV,
                const Value *Args, size_t NumArgs, bool AtOsr,
                const std::vector<Value> *OsrSlots, Environment *Env,
                Environment *ClosureEnv);

  Runtime &RT;
  OptConfig Config;
  const EngineKnobs Knobs;
  Executor Exec;
  std::unordered_map<FunctionInfo *, FuncState> States;
  EngineStats Stats;

  // --- Off-thread compilation ---
  /// One private Runtime per worker: constant folding's heap and helper
  /// state without racing the main heap. GC is disabled on these heaps
  /// (fold temporaries are unrooted there); allocations that survive to
  /// a constant pool are donated to the main heap at install.
  std::vector<std::unique_ptr<Runtime>> WorkerRTs;
  /// Declared after WorkerRTs so workers are joined (queue destroyed)
  /// before the Runtimes they fold against go away.
  std::unique_ptr<CompileQueue> Queue;
  CodeReclaimer Reclaimer;
  /// Every specialized binary, keyed by function and SpecSig. See
  /// EngineKnobs::CodeCacheBytes and CacheDepth.
  CodeCache Cache;

  class EngineRoots;
  std::unique_ptr<EngineRoots> Roots;
};

} // namespace jitvs

#endif // JITVS_JIT_ENGINE_H
