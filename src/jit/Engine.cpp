//===- jit/Engine.cpp - Compilation driving and deoptimization ------------===//

#include "jit/Engine.h"

#include "jit/CodeCache.h"
#include "lir/Codegen.h"
#include "mir/MIRBuilder.h"
#include "native/Fusion.h"
#include "mir/Verifier.h"
#include "support/Timer.h"
#include "telemetry/Metrics.h"
#include "telemetry/Telemetry.h"
#include "vm/Bytecode.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace jitvs;

const char *jitvs::despecializeCauseName(DespecializeCause C) {
  switch (C) {
  case DespecializeCause::None:
    return "none";
  case DespecializeCause::DifferentArgs:
    return "different-args";
  case DespecializeCause::OsrRevalidation:
    return "osr-revalidation";
  case DespecializeCause::ValueMismatch:
    return "value-mismatch";
  case DespecializeCause::TypeMismatch:
    return "type-mismatch";
  }
  return "invalid";
}

const char *jitvs::tierPolicyName(TierPolicy P) {
  switch (P) {
  case TierPolicy::Paper:
    return "paper";
  case TierPolicy::Tiered:
    return "tiered";
  }
  return "invalid";
}

namespace {

/// Records a one-line cache event ([cache] hit/despecialize/discard).
void recordCacheEvent(TelemetryEventKind Kind, const FunctionInfo *Info,
                      const char *Detail = nullptr) {
  if (!telemetryEnabled(TelCache))
    return;
  TelemetryEvent E;
  E.Kind = Kind;
  E.setFunc(Info->Name);
  if (Detail)
    E.setDetail(Detail);
  telemetry().record(E);
}

} // namespace

/// Roots everything the engine keeps alive across GC: the values of the
/// tiered policy's argument records, the signatures of every table entry
/// (baked argument and OSR slot values), and the constant pools of every
/// binary that is linked, retired-but-unreclaimed or being compiled. A
/// compiling MIR graph is rooted separately via GraphRoots.
class Engine::EngineRoots final : public RootSource {
public:
  explicit EngineRoots(Engine &E) : E(E) { E.RT.heap().addRootSource(this); }
  ~EngineRoots() override { E.RT.heap().removeRootSource(this); }

  void traceRoots(GCVisitor &Visitor) override {
    // Only value-tier signature entries hold live values; type-tier
    // entries record a tag alone precisely so stale objects can die.
    auto TraceSig = [&Visitor](SpecSig &Sig) {
      for (ParamSig &P : Sig)
        if (P.Tier == ParamTier::Value)
          Visitor.visit(P.V);
    };
    auto TracePool = [&Visitor](NativeCode &Code) {
      for (Value &V : Code.ConstPool)
        Visitor.visit(V);
    };
    for (auto &[Info, FS] : E.States) {
      if (FS.Code)
        TracePool(*FS.Code);
      for (ParamRecord &P : FS.Params)
        for (Value &V : P.Values)
          Visitor.visit(V);
    }
    // Table entries: each signature's baked-in values and each body's
    // constant pool stay live for as long as the entry can be dispatched.
    E.Cache.forEachEntry([&](CodeCache::Entry &En) {
      TraceSig(En.Sig);
      TraceSig(En.OsrSig);
      TracePool(*En.Code);
    });
    // Retired-but-unreclaimed binaries: in-flight frames may still
    // execute them, so their pools must stay rooted until freed.
    E.Reclaimer.forEachRetained(TracePool);
    // Queued/running/completed compiles: the argument and OSR-slot
    // snapshots they bake in must survive until installed or dropped.
    // These were tenured at enqueue, so a minor collection never moves
    // them — the visitor reads but never writes, which keeps this walk
    // race-free against the worker reading the same vectors. (Completed
    // -but-uninstalled pools need no tracing: every main-heap value they
    // hold is one of these snapshot values or a program constant; fold
    // results live in the worker heap, which the main GC never sweeps.)
    if (E.Queue)
      E.Queue->forEachTask([&Visitor](CompileTask &T) {
        for (Value &V : T.SpecArgs)
          Visitor.visit(V);
        for (Value &V : T.OsrSlots)
          Visitor.visit(V);
      });
  }

private:
  Engine &E;
};

namespace {

/// Temporarily roots a MIR graph's constants while passes run (constant
/// folding may allocate strings, which can trigger a collection).
class GraphRoots final : public RootSource {
public:
  GraphRoots(Heap &H, MIRGraph &Graph) : H(H), Graph(Graph) {
    H.addRootSource(this);
  }
  ~GraphRoots() override { H.removeRootSource(this); }

  void traceRoots(GCVisitor &Visitor) override {
    Graph.forEachConstant([&Visitor](Value &V) { Visitor.visit(V); });
  }

private:
  Heap &H;
  MIRGraph &Graph;
};

/// The knobs an engine runs with: \p K with out-of-range values clamped.
EngineKnobs normalized(EngineKnobs K) {
  K.CacheDepth = std::max(1u, K.CacheDepth);
  K.CompileThreads = std::min(K.CompileThreads, 16u);
  K.Dispatch = Executor::supportedMode(K.Dispatch);
  return K;
}

} // namespace

EngineKnobs EngineKnobs::fromEnvironment() {
  EngineKnobs K;
  K.Dispatch = Executor::defaultDispatchMode(); // Honors JITVS_DISPATCH.
  if (const char *P = std::getenv("JITVS_TIER_POLICY")) {
    if (!std::strcmp(P, "tiered"))
      K.Policy = TierPolicy::Tiered;
    else if (!std::strcmp(P, "paper"))
      K.Policy = TierPolicy::Paper;
  }
  if (const char *N = std::getenv("JITVS_TIER_VALUE_MAX"))
    if (int V = std::atoi(N); V > 0)
      K.ValueStabilityMax = static_cast<uint32_t>(V);
  if (const char *F = std::getenv("JITVS_FUSION"))
    K.Fusion = std::strcmp(F, "0") != 0 && std::strcmp(F, "off") != 0;
  if (const char *T = std::getenv("JITVS_COMPILE_THREADS")) {
    if (!std::strcmp(T, "auto")) {
      unsigned HW = std::thread::hardware_concurrency();
      K.CompileThreads = HW > 1 ? HW - 1 : 1;
    } else if (int V = std::atoi(T); V > 0) {
      K.CompileThreads = static_cast<uint32_t>(V);
    }
  }
  if (const char *D = std::getenv("JITVS_COMPILE_DRAIN"))
    K.CompileDrain = std::strcmp(D, "0") != 0 && std::strcmp(D, "off") != 0;
  if (const char *B = std::getenv("JITVS_CODE_CACHE_BYTES"))
    if (long long V = std::atoll(B); V > 0)
      K.CodeCacheBytes = static_cast<size_t>(V);
  return K;
}

Engine::Engine(Runtime &RT, const OptConfig &Config, const EngineKnobs &K)
    : RT(RT), Config(Config), Knobs(normalized(K)), Exec(RT, Knobs.Dispatch),
      Cache(Knobs.CodeCacheBytes) {
  Roots = std::make_unique<EngineRoots>(*this);
  RT.setHooks(this);
  initCompileQueue();
}

void Engine::initCompileQueue() {
  if (Knobs.CompileThreads == 0)
    return;
  for (unsigned I = 0; I != Knobs.CompileThreads; ++I) {
    auto FoldRT = std::make_unique<Runtime>();
    // Fold temporaries are unrooted in the worker heap; a collection
    // there would sweep constants mid-compile. Surviving allocations
    // are donated to the main heap at install, so the worker heap only
    // ever holds garbage from discarded compiles — bounded and freed
    // with the Runtime. The nursery is off so every fold allocation is
    // pointer-stable and chain-linked — detachAllocatedSince hands the
    // whole run to the main heap's old space without copying.
    FoldRT->heap().setGCThreshold(SIZE_MAX);
    FoldRT->heap().setNurseryEnabled(false);
    WorkerRTs.push_back(std::move(FoldRT));
  }
  Queue = std::make_unique<CompileQueue>(
      Knobs.CompileThreads, /*Bound=*/128,
      [this](CompileTask &Task, unsigned WorkerIdx) {
        workerCompile(Task, *WorkerRTs[WorkerIdx]);
      });
}

Engine::~Engine() {
  // Stop the workers before anything they compile against can go away.
  // Pending jobs are dropped; running ones finish and are joined. The
  // queue object survives until publishMetrics has read its counters.
  if (Queue)
    Queue->shutdown();
  if (metricsEnabled())
    publishMetrics();
  Queue.reset();
  if (RT.hooks() == this)
    RT.setHooks(nullptr);
}

Engine::FuncState &Engine::state(FunctionInfo *Info) {
  auto [It, Inserted] = States.try_emplace(Info);
  if (Inserted)
    It->second.Report.Name = Info->Name;
  return It->second;
}

void Engine::recordArgs(FuncState &FS, const Value *Args, size_t NumArgs) {
  if (FS.Params.size() < NumArgs)
    FS.Params.resize(NumArgs);
  for (size_t I = 0; I != NumArgs; ++I) {
    ParamRecord &P = FS.Params[I];
    const Value &V = Args[I];
    P.TagMask |= 1u << static_cast<uint32_t>(V.tag());
    if (P.Saturated ||
        std::any_of(P.Values.begin(), P.Values.end(), [&](const Value &Seen) {
          return Seen.sameSpecializationValue(V);
        }))
      continue;
    if (P.Values.size() < Knobs.ValueStabilityMax) {
      P.Values.push_back(V);
    } else {
      P.Saturated = true;
      P.Values = {};
    }
  }
}

std::vector<ParamTier> Engine::chooseTiers(const FuncState &FS,
                                           size_t NumArgs) const {
  std::vector<ParamTier> Tiers(NumArgs, ParamTier::Value);
  for (size_t I = 0; I != NumArgs && I != FS.Params.size(); ++I)
    if (FS.Params[I].Saturated)
      Tiers[I] = std::popcount(FS.Params[I].TagMask) == 1 ? ParamTier::Type
                                                          : ParamTier::Generic;
  return Tiers;
}

std::vector<ParamTier> Engine::demoteTiers(FunctionInfo *Info,
                                           const SpecSig &Sig,
                                           const Value *Args, size_t NumArgs,
                                           bool &SawTypeMismatch) {
  SawTypeMismatch = false;
  auto RecordTransition = [&](size_t I, const char *Edge) {
    ++state(Info).Report.TierTransitions;
    if (!telemetryEnabled(TelCache))
      return;
    TelemetryEvent E;
    E.Kind = TelemetryEventKind::TierTransition;
    E.setFunc(Info->Name);
    E.setDetail(Edge);
    E.A = I;
    telemetry().record(E);
  };
  std::vector<ParamTier> NewTiers(NumArgs, ParamTier::Generic);
  if (Sig.size() != NumArgs) {
    // Arity changed underneath the cache: no per-parameter facts carry
    // over; treat as a whole-signature type mismatch, one demotion per
    // signature entry.
    SawTypeMismatch = true;
    Stats.TierDemotionsToGeneric += Sig.size();
    for (size_t I = 0; I != Sig.size(); ++I)
      RecordTransition(I, "arity->generic");
    return NewTiers;
  }
  for (size_t I = 0; I != NumArgs; ++I) {
    const ParamSig &P = Sig[I];
    switch (P.Tier) {
    case ParamTier::Value:
      if (P.V.sameSpecializationValue(Args[I])) {
        NewTiers[I] = ParamTier::Value;
      } else if (P.V.tag() == Args[I].tag()) {
        // The ladder's key step: same tag, new value -> keep the type
        // fact, drop only the exact-value assumption.
        NewTiers[I] = ParamTier::Type;
        ++Stats.TierDemotionsValueToType;
        RecordTransition(I, "value->type");
      } else {
        NewTiers[I] = ParamTier::Generic;
        SawTypeMismatch = true;
        ++Stats.TierDemotionsToGeneric;
        RecordTransition(I, "value->generic");
      }
      break;
    case ParamTier::Type:
      if (P.Tag == Args[I].tag()) {
        NewTiers[I] = ParamTier::Type;
      } else {
        NewTiers[I] = ParamTier::Generic;
        SawTypeMismatch = true;
        ++Stats.TierDemotionsToGeneric;
        RecordTransition(I, "type->generic");
      }
      break;
    case ParamTier::Generic:
      NewTiers[I] = ParamTier::Generic;
      break;
    }
  }
  return NewTiers;
}

void Engine::recordCacheHit(FuncState &FS, const SpecSig &Sig,
                            const FunctionInfo *Info) {
  ++Stats.CacheHits;
  // A binary is a "type-tier" reuse when its strongest remaining
  // assumption is a tag; anything baking at least one exact value — and
  // the degenerate zero-parameter signature, which the paper policy
  // treats as (vacuously) value-specialized — counts as a value hit.
  if (specSigTier(Sig) == ParamTier::Type) {
    ++Stats.TypeTierHits;
    ++FS.Report.TypeTierHits;
  } else {
    ++Stats.ValueTierHits;
    ++FS.Report.ValueTierHits;
  }
  recordCacheEvent(TelemetryEventKind::CacheHit, Info);
}

std::unique_ptr<CompileOutcome>
Engine::runCompilePipeline(const CompileTask &Task, Runtime &FoldRT,
                           bool OnMainThread) {
  FunctionInfo *Info = Task.Info;
  Timer T;
  MetricsPhaseTimer CompilePhase(Phase::Compile);

  if (telemetryEnabled(TelCompile)) {
    TelemetryEvent E;
    E.Kind = TelemetryEventKind::CompileStart;
    E.setFunc(Info->Name);
    E.setDetail(Config.describe());
    E.A = Task.Specialized;
    E.B = Task.IsOsr;
    telemetry().record(E);
  }

  BuildOptions Opts;
  if (Task.Specialized) {
    Opts.SpecializedArgs = Task.SpecArgs;
    Opts.ParamTiers = Task.Tiers;
  }
  if (Task.IsOsr) {
    Opts.OsrPc = Task.OsrPc;
    Opts.OsrSlotValues = Task.OsrSlots;
    Opts.OsrSlotTiers = Task.OsrTiers;
  }
  Opts.Feedback = Task.Feedback.get();

  std::unique_ptr<MIRGraph> Graph;
  {
    MetricsPhaseTimer BuildPhase(Phase::MIRBuild);
    Graph = buildMIR(Info, Opts);
  }
  // Main thread: folding allocates on the live heap, so the graph's
  // constants must be rooted across a possible collection. Workers fold
  // on a private GC-disabled heap instead — nothing can be swept there.
  std::unique_ptr<GraphRoots> RootGuard;
  if (OnMainThread)
    RootGuard = std::make_unique<GraphRoots>(RT.heap(), *Graph);

  // §3.7: closures passed as parameters become constant callees under
  // specialization; inline them immediately, without guards.
  if (Config.ParameterSpecialization) {
    MetricsPhaseTimer PassPhase(Phase::OptPass);
    Timer InlineT;
    runClosureInlining(*Graph, FoldRT, Config);
    if (metricsEnabled())
      metrics().recordPass("ClosureInlining",
                           static_cast<uint64_t>(InlineT.seconds() * 1e9));
  }

  runOptimizationPipeline(*Graph, FoldRT, Config);

#ifndef NDEBUG
  std::string Violation = verifyGraph(*Graph);
  if (!Violation.empty()) {
    std::fprintf(stderr, "MIR verification failed for %s: %s\n",
                 Info->Name.c_str(), Violation.c_str());
    reportFatal("MIR verifier failure");
  }
#endif

  auto Out = std::make_unique<CompileOutcome>();
  {
    MetricsPhaseTimer CodegenPhase(Phase::Codegen);
    Out->Code = generateCode(*Graph);
  }
  NativeCode &Code = *Out->Code;
  if (Knobs.Fusion) {
    MetricsPhaseTimer FusionPhase(Phase::Fusion);
    Timer FuseT;
    FusionStats FuseStats;
    Out->Fused = fuseMacroOps(Code, &FuseStats);
    if (telemetryEnabled(TelPass)) {
      // Same span shape as the MIR passes: A/B = dispatched instruction
      // count before/after (the static Code.size() is unchanged), C = 0
      // guards removed (fused guards still bail), D = pairs fused.
      TelemetryEvent E;
      E.Kind = TelemetryEventKind::Pass;
      E.DurNs = static_cast<uint64_t>(FuseT.seconds() * 1e9);
      E.setFunc(Info->Name);
      E.setDetail("MacroFusion");
      E.A = Code.sizeInInstructions();
      E.B = Code.sizeInInstructionsPostFusion();
      E.C = 0;
      E.D = Out->Fused;
      telemetry().record(E);
    }
  }

  Out->Seconds = T.seconds();
  if (telemetryEnabled(TelCompile)) {
    TelemetryEvent E;
    E.Kind = TelemetryEventKind::CompileEnd;
    E.setFunc(Info->Name);
    E.setDetail(Config.describe());
    E.DurNs = static_cast<uint64_t>(Out->Seconds * 1e9);
    E.A = Task.Specialized;
    E.B = Task.IsOsr;
    E.C = Code.sizeInInstructions();
    telemetry().record(E);
  }
  return Out;
}

static bool allGenericTiers(const std::vector<ParamTier> &Tiers) {
  if (Tiers.empty())
    return false;
  for (ParamTier T : Tiers)
    if (T != ParamTier::Generic)
      return false;
  return true;
}

bool Engine::despecialize(FuncState &FS, FunctionInfo *Info,
                          DespecializeCause PaperCause, const SpecSig &Sig,
                          const Value *Vals, size_t N,
                          std::vector<ParamTier> &NewTiers) {
  FunctionReport &R = FS.Report;
  if (Knobs.Policy == TierPolicy::Paper) {
    R.Cause = PaperCause;
  } else {
    bool SawTypeMismatch = false;
    NewTiers = demoteTiers(Info, Sig, Vals, N, SawTypeMismatch);
    R.Cause = SawTypeMismatch ? DespecializeCause::TypeMismatch
                              : DespecializeCause::ValueMismatch;
  }
  ++Stats.Despecializations;
  ++R.Despecializations;
  recordCacheEvent(TelemetryEventKind::Despecialize, Info,
                   despecializeCauseName(R.Cause));
  bool Kept = keepsEntriesOnMiss();
  if (!Kept)
    Cache.invalidate(Info, Reclaimer);
  // The paper's policy (Section 4) never specializes again, unless the
  // entries were kept and still answer their own signatures; the tiered
  // ladder goes fully generic only once every tier is exhausted.
  if (Knobs.Policy == TierPolicy::Paper) {
    FS.NeverSpecialize |= !Kept;
    return false;
  }
  if (!allGenericTiers(NewTiers))
    return true;
  ++Stats.GenericFallbacks;
  FS.NeverSpecialize = true;
  return false;
}

/// An entry compile of \p Info: generic when \p Tiers is null, otherwise
/// specialized on \p Args under \p Tiers (moved from).
static std::unique_ptr<CompileTask>
entryTask(FunctionInfo *Info, const Value *Args, size_t NumArgs,
          std::vector<ParamTier> *Tiers) {
  auto Task = std::make_unique<CompileTask>();
  Task->Info = Info;
  if (Tiers) {
    Task->Specialized = true;
    Task->SpecArgs.assign(Args, Args + NumArgs);
    Task->Tiers = std::move(*Tiers);
  }
  return Task;
}

/// An OSR compile at \p PC for \p Frame's function: generic when \p Tiers
/// is null, otherwise specialized on the frame's arguments under \p Tiers
/// and on its slots under \p SlotTiers.
static std::unique_ptr<CompileTask>
osrTask(const InterpFrame &Frame, uint32_t PC, std::vector<ParamTier> *Tiers,
        std::vector<ParamTier> SlotTiers = {}) {
  auto Task = entryTask(Frame.Info, Frame.OrigArgs.data(),
                        Frame.OrigArgs.size(), Tiers);
  Task->IsOsr = true;
  Task->OsrPc = PC;
  if (Tiers) {
    Task->OsrSlots = Frame.Slots;
    Task->OsrTiers = std::move(SlotTiers);
  }
  return Task;
}

void Engine::workerCompile(CompileTask &Task, Runtime &FoldRT) {
  MetricsPhaseTimer QueuePhase(Phase::CompileQueue);
  GCObject *Mark = FoldRT.heap().allocationMark();
  std::unique_ptr<CompileOutcome> Out =
      runCompilePipeline(Task, FoldRT, /*OnMainThread=*/false);
  // Fold helpers may set the error flag (they never throw to users from
  // a compile); clear it so one poisoned fold cannot taint later jobs.
  FoldRT.clearError();
  Out->Donated = FoldRT.heap().detachAllocatedSince(Mark);
  // Publication: the release store pairs with the install's acquire
  // load, making every write above (including the code buffer) visible
  // to the main thread before the pointer is.
  Task.Result.store(Out.release(), std::memory_order_release);
}

std::shared_ptr<const FeedbackSnapshot>
Engine::captureFeedback(FunctionInfo *Info) {
  auto S = std::make_shared<FeedbackSnapshot>();
  // Whole program, not just Info: closure inlining reads callee
  // feedback, and any function reachable through a constant closure can
  // be built into this graph.
  if (Program *P = Info->Parent) {
    for (size_t I = 0; I != P->numFunctions(); ++I) {
      FunctionInfo *F = P->function(static_cast<uint32_t>(I));
      S->add(F, F->Feedback);
    }
  } else {
    S->add(Info, Info->Feedback);
  }
  return S;
}

void Engine::enqueueCompileTask(FuncState &FS,
                                std::shared_ptr<CompileTask> Task) {
  Task->Feedback = captureFeedback(Task->Info);
  Task->EnqueueNs = monotonicNowNs();
  // Tenure the value snapshots before a worker can see them: a minor
  // collection moves nursery objects, and the worker reads these vectors
  // without the heap lock. After this the snapshots only reference
  // old-space objects, which never move.
  if (RT.heap().nurseryEnabled()) {
    TempRoots Roots(RT.heap());
    Roots.addVector(Task->SpecArgs);
    Roots.addVector(Task->OsrSlots);
    RT.heap().minorCollect();
  }
  if (Queue->enqueue(std::move(Task)) == CompileQueue::EnqueueResult::Queued)
    FS.CompilePending = true;
  if (metricsEnabled())
    metrics().setGauge("engine.compile_queue.depth",
                       static_cast<double>(Queue->depth()));
}

void Engine::retireCode(std::shared_ptr<NativeCode> Code) {
  Reclaimer.retire(std::move(Code));
}

std::shared_ptr<NativeCode> Engine::installFinished(bool Wait,
                                                    const CompileTask *Wanted) {
  if (Wait) {
    Timer T;
    Queue->drain();
    // Waiting on the queue is main-thread stall, the thing the background
    // pipeline exists to avoid; drain mode measures it honestly.
    Stats.CompileStallSeconds += T.seconds();
  }
  std::shared_ptr<NativeCode> WantedCode;
  if (!Queue->hasCompleted())
    return WantedCode;
  for (const auto &Task : Queue->takeCompleted()) {
    const CompileOutcome *Out = Task->Result.load(std::memory_order_acquire);
    if (Out && metricsEnabled()) {
      metrics().recordValue("compile_queue.wait_ns",
                            monotonicNowNs() - Task->EnqueueNs);
      metrics().recordValue("compile_queue.stall_hidden_ns",
                            static_cast<uint64_t>(Out->Seconds * 1e9));
    }
    std::shared_ptr<NativeCode> Code = installCompleted(*Task);
    if (Task.get() == Wanted)
      WantedCode = std::move(Code);
  }
  if (metricsEnabled())
    metrics().setGauge("engine.compile_queue.depth",
                       static_cast<double>(Queue->depth()));
  return WantedCode;
}

std::shared_ptr<NativeCode> Engine::installCompleted(CompileTask &Task) {
  CompileOutcome *Out = Task.Result.load(std::memory_order_acquire);
  FuncState &FS = state(Task.Info);
  FS.CompilePending = false;

  // The compile's wall-clock counts as compile time whether or not the
  // result still installs — the work happened.
  Stats.CompileSeconds += Out->Seconds;
  if (Task.Generation != FS.Generation || !Out->Code) {
    // The policy moved on (bailout discard, cache invalidation) while
    // this compile was in flight: drop it. The outcome destructor frees
    // the donated fold allocations nothing ever referenced.
    if (metricsEnabled())
      metrics().addCounter("engine.compile_queue.stale_results", 1);
    return nullptr;
  }

  // Adopt the worker-heap fold allocations the constant pool points
  // into before the binary becomes reachable by the GC's root walk.
  RT.heap().adoptChain(Out->Donated);
  Out->Donated = {};

  const NativeCode &Code = *Out->Code;
  FunctionReport &R = FS.Report;
  Stats.FusedOps += Out->Fused;
  ++Stats.Compilations;
  if (Task.Specialized)
    ++Stats.SpecializedCompiles;
  else
    ++Stats.GenericCompiles;
  ++R.Compiles;
  R.CompileSeconds += Out->Seconds;
  if (R.Compiles > 1)
    ++Stats.Recompilations;
  R.MinCodeSize = std::min(R.MinCodeSize, Code.sizeInInstructions());
  R.MinCodeSizePostFusion =
      std::min(R.MinCodeSizePostFusion, Code.sizeInInstructionsPostFusion());
  R.FusedOps += Code.FusedPairs;

  if (Task.Specialized) {
    R.WasSpecialized = true;
    SpecSig OsrSig;
    if (Task.IsOsr)
      OsrSig = makeSpecSig(&Task.OsrTiers, Task.OsrSlots.data(),
                           Task.OsrSlots.size());
    Cache.insert(Task.Info, FS.Generation,
                 makeSpecSig(&Task.Tiers, Task.SpecArgs.data(),
                             Task.SpecArgs.size()),
                 Out->Code, Reclaimer, std::move(OsrSig));
  } else {
    // A generic body replaces the previous one. In-flight frames of the
    // old one drain through their bailout/resume points; the reclaimer
    // frees it once they do.
    retireCode(std::move(FS.Code));
    FS.Code = Out->Code;
  }
  return Out->Code;
}

void Engine::drainCompiles() {
  if (Queue)
    installFinished(/*Wait=*/true);
}

std::shared_ptr<NativeCode> Engine::submit(FuncState &FS,
                                           std::unique_ptr<CompileTask> Task) {
  Task->Generation = FS.Generation;
  // A function that already had a binary is interpreting right now; its
  // recompile outranks first compiles in the queue.
  Task->Priority = FS.Report.Compiles ? CompilePriority::Recompile
                                      : CompilePriority::FirstCompile;
  if (!Queue) {
    // Inline: live feedback, the main heap. Folding may collect, so the
    // task's value snapshots stay rooted until the install reads them.
    TempRoots Roots(RT.heap());
    Roots.addVector(Task->SpecArgs);
    Roots.addVector(Task->OsrSlots);
    std::unique_ptr<CompileOutcome> Out =
        runCompilePipeline(*Task, RT, /*OnMainThread=*/true);
    // An inline compile blocks the caller for its whole duration.
    Stats.CompileStallSeconds += Out->Seconds;
    Task->Result.store(Out.release(), std::memory_order_relaxed);
    return installCompleted(*Task);
  }
  std::shared_ptr<CompileTask> Queued = std::move(Task);
  enqueueCompileTask(FS, Queued);
  if (!Knobs.CompileDrain || !FS.CompilePending)
    return nullptr;
  return installFinished(/*Wait=*/true, Queued.get());
}

Value Engine::execute(FuncState &FS, FunctionInfo *Info,
                      std::shared_ptr<NativeCode> Code, const Value &ThisV,
                      const Value *Args, size_t NumArgs, bool AtOsr,
                      const std::vector<Value> *OsrSlots, Environment *Env,
                      Environment *ClosureEnv) {
  // Code is held by value: nested calls may unlink this binary while we
  // are still executing it.
  ++FS.Report.NativeRuns;
  ExecResult R = Exec.run(*Code, ThisV, Args, NumArgs, AtOsr,
                          OsrSlots ? OsrSlots->data() : nullptr,
                          OsrSlots ? OsrSlots->size() : 0, Env, ClosureEnv);
  if (R.K == ExecResult::Ok)
    return R.Result;
  if (R.K == ExecResult::Error)
    return Value::undefined();

  // --- Bailout: deoptimize to the interpreter. ---
  // The phase span covers deoptimization proper (snapshot decode, frame
  // rebuild); it is stopped before resumeFrame so the resumed
  // interpretation accounts to Interpret, not Bailout.
  MetricsPhaseTimer BailoutPhase(Phase::Bailout);
  ++Stats.Bailouts;
  ++Stats.BailoutsByReason[static_cast<size_t>(R.BailReason)];
  ++FS.Bailouts;
  ++FS.Report.Bailouts;
  const Snapshot &S = Code->Snapshots[R.SnapshotId];
  if (telemetryEnabled(TelBailout)) {
    TelemetryEvent E;
    E.Kind = TelemetryEventKind::Bailout;
    E.Reason = R.BailReason;
    E.setFunc(Info->Name);
    E.setDetail(nopName(R.BailOp));
    E.A = R.BailPc;
    E.B = S.PC;
    telemetry().record(E);
  }
#ifdef JITVS_DEBUG_BAIL
  fprintf(stderr, "BAIL fn=%s pc=%u op=%s entries=%zu frameslots=%u\n",
          Info->Name.c_str(), S.PC, nopName(R.BailOp), S.Entries.size(),
          S.NumFrameSlots);
#endif

  // Feed the failure back so the next compile avoids this guard.
  switch (R.BailOp) {
  case NOp::AddI:
  case NOp::SubI:
  case NOp::MulI:
  case NOp::ModI:
  case NOp::NegI:
    Info->Feedback.at(S.PC).SawIntOverflow = true;
    break;
  case NOp::BoundsCheck:
    Info->Feedback.at(S.PC).SawOutOfBounds = true;
    break;
  default:
    break; // Tag guards: the interpreter re-records operand types.
  }

  // Reconstruct the interpreter frame from the snapshot.
  InterpFrame Frame(RT, Info);
  Frame.PC = S.PC;
  Frame.ThisV = ThisV;
  Frame.ClosureEnv = ClosureEnv;
  Frame.OrigArgs.assign(Args, Args + NumArgs);
  // The environment in effect is whatever the native frame was using
  // (adopted at OSR entry or created by the native prologue); reuse it so
  // mutations performed before the guard failure are preserved. No
  // allocation may happen between here and populating the frame: the
  // snapshot values in RegsAtBail are not GC roots.
  Frame.Env = R.EnvAtBail;

  auto DecodeEntry = [&](const SnapshotEntry &E) {
    if (E.IsConst)
      return Code->ConstPool[E.Index];
    return R.RegsAtBail[E.Index];
  };
  size_t NumEntries = S.Entries.size();
  for (size_t I = 0; I != NumEntries; ++I) {
    Value V = DecodeEntry(S.Entries[I]);
    if (I < S.NumFrameSlots) {
      if (I < Frame.Slots.size())
        Frame.Slots[I] = V;
    } else {
      Frame.Stack.push_back(V);
    }
  }

  // Repeated bailouts: the speculation was wrong. Unlink the binary
  // BEFORE resuming — the resumed interpreter may immediately re-trigger
  // OSR, and re-entering the same failing code would nest bail/resume
  // cycles on the C++ stack for the rest of the loop. Discarding first
  // bounds the nesting: the next compile uses the refreshed feedback.
  // A body no longer linked (a nested call replaced it) is left alone.
  const auto &Entries = Cache.entries(Info);
  if (FS.Bailouts >= Knobs.BailoutLimit &&
      (FS.Code == Code ||
       std::any_of(Entries.begin(), Entries.end(),
                   [&](const auto &En) { return En.Code == Code; }))) {
    recordCacheEvent(TelemetryEventKind::Discard, Info, "bailout-limit");
    if (FS.Code == Code)
      retireCode(std::move(FS.Code));
    // The function's other entries were built from the same stale
    // feedback. The generation bump invalidates any in-flight compile,
    // which would reinstate the failing guards, and backstops the
    // table's stamp check.
    Cache.invalidate(Info, Reclaimer);
    FS.Bailouts = 0;
    ++FS.Generation;
  }

  BailoutPhase.stop();
  return RT.resumeFrame(Frame);
}

bool Engine::onCall(JSFunction *Callee, const Value &ThisV,
                    const Value *Args, size_t NumArgs, Value &Result) {
  // Dispatch boundaries are the reclamation safepoints, and where
  // finished background compiles install.
  Reclaimer.tick();
  if (Queue)
    installFinished(/*Wait=*/false);
  FunctionInfo *Info = Callee->info();
  FuncState &FS = state(Info);

  auto Run = [&](std::shared_ptr<NativeCode> Code) {
    ++Stats.NativeCalls;
    Result = execute(FS, Info, std::move(Code), ThisV, Args, NumArgs,
                     /*AtOsr=*/false, nullptr, nullptr,
                     Callee->environment());
    return true;
  };
  auto Interpret = [&] {
    ++Stats.InterpretedCalls;
    return false;
  };
  // Runs the compile the policy decided on (generic when \p Tiers is
  // null), then the installed binary. The callee is rooted across it: an
  // inline compile's folding or the enqueue-time tenuring can move it.
  auto Compile = [&](std::vector<ParamTier> *Tiers) {
    TempRoots CalleeRoot(RT.heap());
    Value CalleeV = Value::function(Callee);
    CalleeRoot.add(CalleeV);
    std::shared_ptr<NativeCode> Code =
        submit(FS, entryTask(Info, Args, NumArgs, Tiers));
    Callee = CalleeV.asFunction();
    if (!Code)
      return Interpret(); // A free-running compile is in flight.
    return Run(std::move(Code));
  };

  // The table answers the signatures it holds; the generic body, if
  // there is one, answers every other call.
  const SpecSig *HitSig = nullptr;
  if (std::shared_ptr<NativeCode> Code = Cache.lookup(
          Info, FS.Generation, Args, NumArgs, Reclaimer, &HitSig)) {
    recordCacheHit(FS, *HitSig, Info);
    return Run(std::move(Code));
  }
  if (FS.Code)
    return Run(FS.Code);

  // A miss. The tiered policy records the arguments of the calls it has
  // to decide on. A function without a binary waits for its call
  // threshold, and decisions wait for an in-flight compile to install.
  if (Knobs.Policy == TierPolicy::Tiered)
    recordArgs(FS, Args, NumArgs);
  size_t Held = Cache.entriesFor(Info);
  if (!Held && Info->CallCount < Knobs.CallThreshold)
    return Interpret();
  if (FS.CompilePending)
    return Interpret();
  bool Specialize = Config.ParameterSpecialization && !FS.NeverSpecialize;
  if (Specialize)
    Cache.noteMiss();
  if (Held < sigCap()) {
    // Room for one more signature. A record that shows nothing stable
    // skips the ladder and compiles generic.
    std::vector<ParamTier> Tiers;
    if (Specialize)
      Tiers = chooseTiers(FS, NumArgs);
    return Compile(Specialize && !allGenericTiers(Tiers) ? &Tiers : nullptr);
  }
  if (keepsEntriesOnMiss()) {
    // Serving at the cap: the held signatures keep answering the hot
    // arguments and a generic body takes the polymorphic tail, instead
    // of the one-binary policy's all-or-nothing despecialization.
    recordCacheEvent(TelemetryEventKind::Despecialize, Info, "sig-cap");
    return Compile(nullptr);
  }
  // Different arguments: the paper's policy discards the binary and
  // recompiles generic; the tiered ladder demotes only the mismatching
  // parameters one tier.
  std::vector<ParamTier> NewTiers;
  bool Respecialize =
      despecialize(FS, Info, DespecializeCause::DifferentArgs,
                   Cache.entries(Info).front().Sig, Args, NumArgs, NewTiers);
  return Compile(Respecialize ? &NewTiers : nullptr);
}

bool Engine::onLoopHead(InterpFrame &Frame, uint32_t PC, Value &Result) {
  Reclaimer.tick();
  if (Queue)
    installFinished(/*Wait=*/false);
  FunctionInfo *Info = Frame.Info;
  if (Info->BackEdgeCount < Knobs.LoopThreshold)
    return false;
  FuncState &FS = state(Info);

  bool Specialize =
      Config.ParameterSpecialization && !FS.NeverSpecialize;
  // The function has at most one OSR body: the generic body or one
  // table entry. Every OSR compile replaces it.
  const std::vector<CodeCache::Entry> &Entries = Cache.entries(Info);
  auto OsrEntry =
      std::find_if(Entries.begin(), Entries.end(),
                   [](const auto &En) { return En.Code->OsrPc != ~0u; });
  std::shared_ptr<NativeCode> Code;
  if (FS.Code && FS.Code->OsrPc == PC) {
    Code = FS.Code;
  } else if (OsrEntry != Entries.end() && OsrEntry->Code->OsrPc == PC) {
    // A specialized OSR body baked the frame values in; revalidate them.
    if (specSigMatches(OsrEntry->OsrSig, Frame.Slots.data(),
                       Frame.Slots.size())) {
      Code = OsrEntry->Code;
    } else {
      if (FS.CompilePending)
        return false;
      // Tiered: demote the stale frame slots one tier and rebuild the
      // OSR binary; generic only when nothing is left to assume.
      const NativeCode *Stale = OsrEntry->Code.get();
      std::vector<ParamTier> SlotTiers;
      bool Respecialize = despecialize(
          FS, Info, DespecializeCause::OsrRevalidation, OsrEntry->OsrSig,
          Frame.Slots.data(), Frame.Slots.size(), SlotTiers);
      Cache.remove(Info, Stale, Reclaimer);
      if (!Respecialize) {
        Code = submit(FS, osrTask(Frame, PC, nullptr));
      } else {
        // Entry parameters mirror the demoted tiers of their frame
        // slots (slot I is parameter I at entry).
        std::vector<ParamTier> ParamTiers(
            SlotTiers.begin(),
            SlotTiers.begin() +
                std::min<size_t>(Info->NumParams, SlotTiers.size()));
        Code = submit(FS,
                      osrTask(Frame, PC, &ParamTiers, std::move(SlotTiers)));
      }
    }
  } else {
    if (FS.CompilePending)
      return false;
    // Avoid compile storms when several hot loops alternate in one
    // function: after a few rebuilds, leave this loop to the
    // interpreter. Checked BEFORE any policy mutation: the
    // despecialization below unlinks binaries and changes the
    // function's state, and leaving after that would strand it half
    // way.
    if ((FS.Code || !Entries.empty()) && FS.Report.Compiles > 8)
      return false;
    // Compile (or recompile) with an OSR entry at this loop head. The
    // new body replaces the generic body, the table's OSR body and the
    // entry for the frame's arguments.
    auto Match = std::find_if(
        Entries.begin(), Entries.end(), [&](const auto &En) {
          return specSigMatches(En.Sig, Frame.OrigArgs.data(),
                                Frame.OrigArgs.size());
        });
    const NativeCode *Replaced[] = {
        OsrEntry != Entries.end() ? OsrEntry->Code.get() : nullptr,
        Match != Entries.end() ? Match->Code.get() : nullptr};
    // Missed: the running frame's arguments differ from every held
    // signature.
    bool Missed = !Entries.empty() && Match == Entries.end();
    std::vector<ParamTier> Tiers;
    if (Missed && !despecialize(FS, Info, DespecializeCause::DifferentArgs,
                                Entries.front().Sig, Frame.OrigArgs.data(),
                                Frame.OrigArgs.size(), Tiers))
      Specialize = false;
    retireCode(std::move(FS.Code));
    for (const NativeCode *Old : Replaced)
      Cache.remove(Info, Old, Reclaimer);
    if (Specialize && !Missed)
      Tiers = chooseTiers(FS, Frame.OrigArgs.size());
    if (!Specialize || allGenericTiers(Tiers)) {
      Code = submit(FS, osrTask(Frame, PC, nullptr));
    } else {
      // Frame slots: parameters first (sharing the entry tiers), then
      // locals, which stay at the value tier until an OSR revalidation
      // demotes them.
      std::vector<ParamTier> SlotTiers(Frame.Slots.size(), ParamTier::Value);
      for (size_t I = 0; I != Tiers.size() && I != SlotTiers.size(); ++I)
        SlotTiers[I] = Tiers[I];
      Code = submit(FS, osrTask(Frame, PC, &Tiers, std::move(SlotTiers)));
    }
  }

  // No usable OSR entry (e.g. unreachable loop head), or a free-running
  // compile still in flight.
  if (!Code || Code->OsrOffset == ~0u)
    return false;

  ++Stats.OsrEntries;
  if (telemetryEnabled(TelOsr)) {
    TelemetryEvent E;
    E.Kind = TelemetryEventKind::OsrEntry;
    E.setFunc(Info->Name);
    E.A = PC;
    telemetry().record(E);
  }
  std::vector<Value> OsrSlots = Frame.Slots;
  Result = execute(FS, Info, std::move(Code), Frame.ThisV,
                   Frame.OrigArgs.data(), Frame.OrigArgs.size(),
                   /*AtOsr=*/true, &OsrSlots, Frame.Env, Frame.ClosureEnv);
  return true;
}

std::vector<Engine::FunctionReport> Engine::functionReports() const {
  std::vector<FunctionReport> Out;
  for (const auto &[Info, FS] : States)
    Out.push_back(FS.Report);
  return Out;
}

void Engine::publishMetrics() {
  Metrics &M = metrics();
  for (auto [Name, Field] : EngineStatCounts)
    M.addCounter(Name, Stats.*Field);
  for (size_t I = 0; I != NumBailoutReasons; ++I)
    if (Stats.BailoutsByReason[I])
      M.addCounter(std::string("engine.bailouts.") +
                       bailoutReasonName(static_cast<BailoutReason>(I)),
                   Stats.BailoutsByReason[I]);
  M.setGauge("engine.compile_seconds", Stats.CompileSeconds);
  M.setGauge("engine.compile_stall_seconds", Stats.CompileStallSeconds);
  if (Queue) {
    CompileQueue::Counters QC = Queue->counters();
    M.addCounter("engine.compile_queue.enqueued", QC.Enqueued);
    M.addCounter("engine.compile_queue.rejected_full", QC.RejectedFull);
    M.addCounter("engine.compile_queue.compiled", QC.Compiled);
    M.addCounter("engine.compile_queue.dropped_at_shutdown",
                 QC.DroppedAtShutdown);
    M.setGauge("engine.compile_queue.depth",
               static_cast<double>(Queue->depth()));
  }
  for (auto [Name, Field] : CodeCacheStatCounts)
    M.addCounter(Name, Cache.stats().*Field);
  M.setGauge("engine.code_cache.resident_bytes",
             static_cast<double>(Cache.residentBytes()));
  M.setGauge("engine.code_cache.budget_bytes",
             static_cast<double>(Cache.budgetBytes()));
  M.setGauge("engine.code_cache.entries", static_cast<double>(Cache.size()));
  // Zero unless the executor counts (JITVS_DISPATCH=count).
  const auto &Counts = Exec.dispatchCounts();
  for (size_t I = 0; I != NumNOps; ++I)
    if (Counts[I])
      M.addCounter(std::string("native.dispatch.") +
                       nopName(static_cast<NOp>(I)),
                   Counts[I]);

  for (const auto &[Info, FS] : States) {
    const FunctionReport &R = FS.Report;
    Metrics::FunctionMetrics FM;
    FM.NativeRuns = R.NativeRuns;
    FM.Compiles = R.Compiles;
    FM.CompileNs = static_cast<uint64_t>(R.CompileSeconds * 1e9);
    FM.Bailouts = R.Bailouts;
    FM.CacheHits = R.ValueTierHits + R.TypeTierHits;
    FM.TierTransitions = R.TierTransitions;
    FM.Despecializations = R.Despecializations;
    M.mergeFunction(R.Name, FM);
  }
}

NativeCode *Engine::compileNow(FunctionInfo *Info,
                               const std::vector<Value> *Args,
                               const std::vector<ParamTier> *Tiers) {
  FuncState &FS = state(Info);
  if (FS.CompilePending)
    return nullptr; // The gate is the queue's only dedup.
  std::vector<ParamTier> TaskTiers = Tiers ? *Tiers : std::vector<ParamTier>();
  return submit(FS, entryTask(Info, Args ? Args->data() : nullptr,
                              Args ? Args->size() : 0,
                              Args ? &TaskTiers : nullptr))
      .get();
}
