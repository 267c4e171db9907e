//===- perfbench/src/Workloads.cpp - The four benchmark workloads ---------===//
///
/// \file
/// suites and genprog run whole programs, each op in a fresh Runtime +
/// Engine, in a closed loop with one client. serve and serve-async drive
/// one long-lived engine with requests that arrive open loop. Every op's
/// observables are checked against an interpreter-only reference made at
/// setup. See perfbench/README.md for the workload rationale.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Calibrate.h"
#include "Trace.h"

#include "fuzz/DiffRunner.h"
#include "fuzz/ProgramGen.h"
#include "jit/CodeCache.h"
#include "serve/ServeHarness.h"
#include "serve/SessionWorkload.h"
#include "vm/Object.h"
#include "workloads/Workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>

using namespace jitvs;

namespace perfbench {

namespace {

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int SetupReps = 3;
/// Enough ops that at least ten latency samples lie beyond p99.
constexpr uint64_t MinOps = 1100;
/// Span records kept in memory for the written trace (aggregates cover
/// every span).
constexpr size_t SpanKeepCap = 100000;

double seconds(int64_t Ns) { return static_cast<double>(Ns) / 1e9; }

/// Starts a new peak-RSS window: returns freed heap to the system
/// (malloc_trim, else the window would start at whatever an earlier op
/// left cached), then resets VmHWM to the current RSS (Linux clear_refs
/// "5"). Where the reset is unavailable the peak is the process's.
void resetPeakRss() {
  malloc_trim(0);
  if (FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

double peakRssMb() {
  if (FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    long Kb = -1;
    while (Kb < 0 && std::fgets(Line, sizeof(Line), F))
      if (!std::strncmp(Line, "VmHWM:", 6))
        Kb = std::atol(Line + 6);
    std::fclose(F);
    if (Kb >= 0)
      return static_cast<double>(Kb) / 1024.0;
  }
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

uint64_t fnv1a(uint64_t H, const std::string &S) {
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ull;
  return H;
}

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx", static_cast<unsigned long long>(V));
  return Buf;
}

/// Consecutive slices a run is cut into for its medians. The host's
/// speed drifts within seconds; the median over slices keeps one slow
/// stretch from setting a run's figure.
constexpr size_t Slices = 10;

void noteList(RunResult &R, std::string Key, const std::vector<double> &Vs) {
  std::string List;
  for (double V : Vs) {
    if (!List.empty())
      List += ' ';
    List += std::to_string(V);
  }
  R.note(std::move(Key), List);
}

/// Calibrations between ops: one per this much op time.
constexpr int64_t CalibEveryNs = 40000000;
/// Calibration marks of the set-up reps, above any op index.
constexpr uint64_t SetupMark = 1ull << 62;

/// ops_per_s from per-slice op counts and times: the median over slices
/// of each slice's rate, divided by the host speed the calibrations in
/// that slice measured. Slice K covers marks [Bounds[K], Bounds[K+1]).
double scaledRate(const std::vector<double> &Ops, const std::vector<double> &Ns,
                  const std::vector<uint64_t> &Bounds, const Calibrator &Cal,
                  RunResult &R) {
  std::vector<double> Raw, Speed, Scaled;
  for (size_t K = 0; K != Ops.size(); ++K) {
    Raw.push_back(Ops[K] / seconds(static_cast<int64_t>(Ns[K])));
    Speed.push_back(Cal.speed(Bounds[K], Bounds[K + 1]));
    Scaled.push_back(Raw.back() / Speed.back());
  }
  noteList(R, "ops_per_s.slices_raw", Raw);
  noteList(R, "host_speed.slices", Speed);
  noteList(R, "ops_per_s.slices", Scaled);
  R.note("host_speed.calibrations", std::to_string(Cal.runs()));
  return median(Scaled);
}

/// ops_per_s of a closed loop whose passes run \p PassOps programs each.
/// Slices are whole passes, so every slice runs the same programs and
/// only their order differs.
double slicedRate(const std::vector<double> &LatUs, size_t PassOps,
                  const Calibrator &Cal, RunResult &R) {
  std::vector<double> Ops, Ns;
  std::vector<uint64_t> Bounds{0};
  size_t Passes = LatUs.size() / PassOps;
  size_t Per = Passes ? PassOps * std::max<size_t>(1, Passes / Slices)
                      : std::max<size_t>(1, LatUs.size() / Slices);
  for (size_t B = 0; B + Per <= LatUs.size(); B += Per) {
    double Us = 0;
    for (size_t I = B; I != B + Per; ++I)
      Us += LatUs[I];
    Ops.push_back(static_cast<double>(Per));
    Ns.push_back(Us * 1e3);
    Bounds.push_back(B + Per);
  }
  return scaledRate(Ops, Ns, Bounds, Cal, R);
}

/// Runs set-up rep \p Rep and \returns its time in seconds, scaled to the
/// reference host speed by calibrations just before and after it.
template <typename Fn>
double timedSetup(Calibrator &Cal, int Rep, Fn &&Setup) {
  uint64_t Mark = SetupMark + static_cast<uint64_t>(Rep);
  for (int I = 0; I != 5; ++I)
    Cal.run(Mark);
  int64_t T0 = clockNs();
  Setup();
  int64_t Ns = clockNs() - T0;
  for (int I = 0; I != 5; ++I)
    Cal.run(Mark);
  return seconds(Ns) * Cal.speed(Mark, Mark + 1);
}

/// lat_p50_us and lat_p99_us from per-op microseconds: nearest-rank
/// percentiles of the whole run, or with \p Sliced the medians of each
/// slice's percentiles (used where every slice holds well over a thousand
/// samples). They are reported, not gated: on a shared host the serve
/// latencies swing by more than any bound the gate allows.
void addLatency(RunResult &R, std::vector<double> Us, bool Sliced) {
  size_t Per = Sliced ? Us.size() / Slices : Us.size();
  std::vector<double> P50, P99;
  for (size_t B = 0; B + Per <= Us.size(); B += Per) {
    std::vector<double> S(Us.begin() + B, Us.begin() + B + Per);
    std::sort(S.begin(), S.end());
    P50.push_back(percentileSorted(S, 50.0));
    P99.push_back(percentileSorted(S, 99.0));
  }
  std::string List;
  for (size_t I = 0; I != P99.size(); ++I) {
    if (I)
      List += ' ';
    List += std::to_string(P50[I]) + "/" + std::to_string(P99[I]);
  }
  R.note("lat.slices_p50_p99", List);
  R.note("lat_p50_us", std::to_string(median(P50)) + " us");
  R.note("lat_p99_us", std::to_string(median(P99)) + " us");
  R.note("lat.samples", std::to_string(Us.size()) +
                            (Sliced ? " in " + std::to_string(P99.size()) +
                                          " slices, p50/p99 are slice medians"
                                    : ""));
  R.note("lat.samples_beyond_p99", std::to_string(Per / 100) +
                                       (Sliced ? " per slice" : ""));
}

/// Counters summed over the traced ops (deltas for a long-lived engine).
struct LayerTotals {
  EngineStats Engine;
  uint64_t IcHits = 0, IcLookups = 0, IcMegamorphic = 0;
  uint64_t GcMinor = 0, GcMajor = 0;
  uint64_t CodeInstrs = 0; ///< Fig. 10: sum of per-function MinCodeSize.
  CodeCache::Stats Cache;
  uint64_t ResidentBytes = 0;
  size_t QueueMax = 0;
  double QueueSum = 0;
  uint64_t QueueSamples = 0;
  uint64_t ReclaimerRetained = 0;
  double LateP99Us = 0, BacklogStart = 0, BacklogEnd = 0;
};

void addStats(EngineStats &Acc, const EngineStats &Now, const EngineStats &Base) {
#define PB_ADD(F) Acc.F += Now.F - Base.F
  PB_ADD(Compilations);
  PB_ADD(Recompilations);
  PB_ADD(SpecializedCompiles);
  PB_ADD(GenericCompiles);
  PB_ADD(Despecializations);
  PB_ADD(CacheHits);
  PB_ADD(ValueTierHits);
  PB_ADD(TypeTierHits);
  PB_ADD(TierDemotionsValueToType);
  PB_ADD(TierDemotionsToGeneric);
  PB_ADD(GenericFallbacks);
  PB_ADD(Bailouts);
  PB_ADD(OsrEntries);
  PB_ADD(NativeCalls);
  PB_ADD(InterpretedCalls);
  PB_ADD(FusedOps);
  PB_ADD(CompileSeconds);
  PB_ADD(CompileStallSeconds);
  for (size_t I = 0; I != NumBailoutReasons; ++I)
    PB_ADD(BailoutsByReason[I]);
#undef PB_ADD
}

void addCache(CodeCache::Stats &Acc, const CodeCache::Stats &Now,
              const CodeCache::Stats &Base) {
  Acc.Hits += Now.Hits - Base.Hits;
  Acc.Misses += Now.Misses - Base.Misses;
  Acc.Insertions += Now.Insertions - Base.Insertions;
  Acc.Evictions += Now.Evictions - Base.Evictions;
  Acc.StaleGenerationDrops += Now.StaleGenerationDrops - Base.StaleGenerationDrops;
}

/// Runtime-side counters (IC, GC) of one Runtime; deltas are taken by
/// subtracting a snapshot.
struct VmCounters {
  uint64_t IcHits = 0, IcLookups = 0, IcMegamorphic = 0, GcMinor = 0,
           GcMajor = 0;
  static VmCounters of(Runtime &RT) {
    const Runtime::ICStats &S = RT.icStats();
    VmCounters C;
    C.IcHits = S.GetHits + S.SetHits + S.CallHits;
    C.IcLookups = C.IcHits + S.GetMisses + S.SetMisses + S.CallMisses;
    C.IcMegamorphic = S.MegamorphicSites;
    C.GcMinor = RT.heap().minorCount();
    C.GcMajor = RT.heap().gcCount();
    return C;
  }
};

void addVm(LayerTotals &Acc, const VmCounters &Now, const VmCounters &Base) {
  Acc.IcHits += Now.IcHits - Base.IcHits;
  Acc.IcLookups += Now.IcLookups - Base.IcLookups;
  Acc.IcMegamorphic += Now.IcMegamorphic - Base.IcMegamorphic;
  Acc.GcMinor += Now.GcMinor - Base.GcMinor;
  Acc.GcMajor += Now.GcMajor - Base.GcMajor;
}

uint64_t codeInstrs(const Engine &E) {
  uint64_t N = 0;
  for (const Engine::FunctionReport &R : E.functionReports())
    if (R.Compiles && R.MinCodeSize != SIZE_MAX)
      N += R.MinCodeSize;
  return N;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

/// The per-layer metric set of a traced run, the layer shares, and the
/// layer self-test.
void addLayerMetrics(RunResult &R, Tracer &T, const LayerTotals &A,
                     double OverheadRatio, const char *DominantLayer) {
  const EngineStats &S = A.Engine;
  auto Ms = [](int64_t Ns) { return static_cast<double>(Ns) / 1e6; };
  auto Us = [](int64_t Ns) { return static_cast<double>(Ns) / 1e3; };
  auto U = [](uint64_t V) { return static_cast<double>(V); };

  R.add("parser.load_ms", Ms(T.agg(SpanKind::ParserLoad).TotalNs), "ms");
  R.add("vm.interp_ms", Ms(T.agg(SpanKind::VmRun).SelfNs), "ms");
  R.add("vm.interpreted_calls", U(S.InterpretedCalls), "count");
  R.add("vm.ic_hit_ratio", ratio(U(A.IcHits), U(A.IcLookups)), "ratio");
  R.add("vm.ic_megamorphic_sites", U(A.IcMegamorphic), "count");
  R.add("vm.gc_minor", U(A.GcMinor), "count");
  R.add("vm.gc_major", U(A.GcMajor), "count");

  R.add("jit.hook_us_p50", T.hookSelfP50Us(), "us");
  R.add("jit.decline_ratio", ratio(U(T.HookDeclines), U(T.HookSpans)), "ratio");
  R.add("jit.compiles", U(S.Compilations), "count");
  R.add("jit.specialized_compiles", U(S.SpecializedCompiles), "count");
  R.add("jit.generic_compiles", U(S.GenericCompiles), "count");
  R.add("jit.despecializations", U(S.Despecializations), "count");
  R.add("jit.osr_entries", U(S.OsrEntries), "count");
  R.add("jit.native_calls", U(S.NativeCalls), "count");
  R.add("jit.value_tier_hits", U(S.ValueTierHits), "count");
  R.add("jit.type_tier_hits", U(S.TypeTierHits), "count");
  R.add("jit.tier_demotions",
        U(S.TierDemotionsValueToType + S.TierDemotionsToGeneric), "count");
  R.add("jit.compile_ms", S.CompileSeconds * 1e3, "ms");
  R.add("jit.compile_stall_ms", S.CompileStallSeconds * 1e3, "ms");
  R.add("jit.bailouts", U(S.Bailouts), "count");
  for (size_t I = 0; I != NumBailoutReasons; ++I)
    R.add(std::string("jit.bailouts.") +
              bailoutReasonName(static_cast<BailoutReason>(I)),
          U(S.BailoutsByReason[I]), "count");
  // Base: jit.specialized_compiles.
  R.add("jit.spec_waste_ratio",
        ratio(U(S.Despecializations), U(S.SpecializedCompiles)), "ratio");

  R.add("native.exec_ms", Ms(T.nativeSelfNs()), "ms");
  R.add("native.fused_ops", U(S.FusedOps), "count");

  const ReplayCounts &C = T.Replay;
  R.add("mir.build_us", Us(T.agg(SpanKind::MirBuild).TotalNs), "us");
  R.add("mir.instrs", U(C.MirInstrs), "count");
  R.add("passes.inlined_sites", U(C.InlinedSites), "count");
  static const SpanKind PassKinds[5] = {SpanKind::PassGVN, SpanKind::PassCP,
                                        SpanKind::PassLI, SpanKind::PassDCE,
                                        SpanKind::PassBCE};
  static const char *const PassNames[5] = {"gvn", "cp", "li", "dce", "bce"};
  int64_t PassNs = T.agg(SpanKind::PassInline).TotalNs;
  for (size_t I = 0; I != 5; ++I) {
    PassNs += T.agg(PassKinds[I]).TotalNs;
    R.add(std::string("passes.") + PassNames[I] + "_us",
          Us(T.agg(PassKinds[I]).TotalNs), "us");
    R.add(std::string("passes.instrs_after_") + PassNames[I],
          U(C.InstrsAfter[I]), "count");
  }
  R.add("lir.codegen_us", Us(T.agg(SpanKind::LirCodegen).TotalNs), "us");
  R.add("lir.vregs", U(C.VRegs), "count");
  R.add("lir.spills", U(C.Spills), "count");
  R.add("lir.code_instrs", U(A.CodeInstrs), "count");

  R.add("cache.hits", U(A.Cache.Hits), "count");
  R.add("cache.misses", U(A.Cache.Misses), "count");
  R.add("cache.hit_ratio",
        ratio(U(A.Cache.Hits), U(A.Cache.Hits + A.Cache.Misses)), "ratio");
  R.add("cache.insertions", U(A.Cache.Insertions), "count");
  R.add("cache.evictions", U(A.Cache.Evictions), "count");
  R.add("cache.stale_drops", U(A.Cache.StaleGenerationDrops), "count");
  R.add("cache.resident_bytes", U(A.ResidentBytes), "bytes");

  R.add("queue.depth_max", U(A.QueueMax), "count");
  R.add("queue.depth_mean", ratio(A.QueueSum, U(A.QueueSamples)), "count");
  R.add("queue.reclaimer_retained", U(A.ReclaimerRetained), "count");

  R.add("load.late_us_p99", A.LateP99Us, "us");
  R.add("load.backlog_start", A.BacklogStart, "count");
  R.add("load.backlog_end", A.BacklogEnd, "count");

  R.add("trace.overhead_ratio", OverheadRatio, "ratio");

  // Shares of op time by layer self time. The compile stall is split
  // into mir/passes/lir by the replay's stage times.
  int64_t Parser = T.agg(SpanKind::ParserLoad).SelfNs;
  int64_t Interp = T.agg(SpanKind::VmRun).SelfNs;
  int64_t Harness = T.agg(SpanKind::Op).SelfNs;
  int64_t Native = T.nativeSelfNs(), Compile = T.compileSelfNs();
  double Total = static_cast<double>(Parser + Interp + Harness + Native + Compile);
  double Mir = static_cast<double>(T.agg(SpanKind::MirBuild).TotalNs);
  double Lir = static_cast<double>(T.agg(SpanKind::LirCodegen).TotalNs);
  double Stages = Mir + static_cast<double>(PassNs) + Lir;
  double CompileShare = ratio(static_cast<double>(Compile), Total);
  auto Share = [&](const char *Name, double V) {
    R.Shares.push_back({Name, V, "share"});
    R.add(std::string("share.") + Name, V, "share");
  };
  Share("parser", ratio(static_cast<double>(Parser), Total));
  Share("interp", ratio(static_cast<double>(Interp), Total));
  Share("native", ratio(static_cast<double>(Native), Total));
  Share("compile", CompileShare);
  Share("mir", CompileShare * ratio(Mir, Stages));
  Share("passes", CompileShare * ratio(static_cast<double>(PassNs), Stages));
  Share("lir", CompileShare * ratio(Lir, Stages));
  Share("harness", ratio(static_cast<double>(Harness), Total));

  double Dominant = 0;
  for (const Metric &M : R.Shares)
    if (M.Name == DominantLayer)
      Dominant = M.Value;
  R.LayerCheck = Dominant > 0.5;
  R.note("layer_check", std::string(DominantLayer) + " share " +
                            std::to_string(Dominant) +
                            (R.LayerCheck ? " > 0.5: pass" : " <= 0.5: FAIL"));
  R.add("selftest.layer_ok", R.LayerCheck ? 1.0 : 0.0, "bool");
}

//===----------------------------------------------------------------------===//
// suites and genprog: whole programs, one fresh Runtime + Engine per op
//===----------------------------------------------------------------------===//

struct Program {
  std::string Name;
  std::string Source;
  fuzz::RunOutcome Ref; ///< Interpreter-only observables.
};

/// Mirrors fuzz::DiffRunner's completion rendering: tags are not
/// observable, -0 is.
std::string renderCompletion(const Value &V) {
  if (V.isDouble() && V.asDouble() == 0.0 && std::signbit(V.asDouble()))
    return "-0";
  return V.toDisplayString();
}

struct ProgramWorkload {
  const char *Name;
  OptConfig Config;
  EngineKnobs Knobs;
  /// Ops of a traced run (fixed, so its counts repeat exactly).
  uint64_t TraceOps;
  const char *DominantLayer;
  /// Makes the programs and their references (the set-up).
  std::vector<Program> (*Make)(uint64_t Seed);
};

/// Interpreter-only hooks that decline every call and loop head, and
/// stop the run once it has seen more than Budget of them.
class WorkBudget final : public ExecutionHooks {
public:
  WorkBudget(Runtime &RT, uint64_t Budget) : RT(RT), Budget(Budget) {}
  bool onCall(JSFunction *, const Value &, const Value *, size_t,
              Value &) override {
    return tick();
  }
  bool onLoopHead(InterpFrame &, uint32_t, Value &) override { return tick(); }
  bool exceeded() const { return Events > Budget; }

private:
  bool tick() {
    if (++Events == Budget + 1)
      RT.fail("perfbench: work budget exceeded");
    return false;
  }
  Runtime &RT;
  uint64_t Budget;
  uint64_t Events = 0;
};

/// The reference: an interpreter-only run, rendered the way
/// fuzz::DiffRunner renders it. \returns false when the program made more
/// than \p Budget calls plus loop iterations.
bool referenceRun(const std::string &Source, uint64_t Budget,
                  fuzz::RunOutcome &Out) {
  Runtime RT;
  WorkBudget Hooks(RT, Budget);
  RT.setHooks(&Hooks);
  Value V = RT.evaluate(Source);
  if (Hooks.exceeded())
    return false;
  Out.Completion = renderCompletion(V);
  Out.Output = RT.output();
  Out.HadError = RT.hasError();
  if (Out.HadError)
    Out.Error = RT.errorMessage();
  return true;
}

std::vector<Program> makeSuitePrograms(uint64_t) {
  std::vector<Program> Ps;
  for (const Workload &W : allWorkloads()) {
    Ps.push_back({std::string(W.Suite) + "/" + W.Name, W.Source, {}});
    referenceRun(W.Source, UINT64_MAX - 1, Ps.back().Ref);
  }
  return Ps;
}

/// Programs genprog draws per run; each pass of the closed loop runs all
/// of them in a seeded order.
constexpr uint64_t GenprogPool = 400;
/// Calls plus loop iterations a generated program may make, about the
/// generator's 93rd percentile. The rare long-running programs would
/// otherwise set both the mean op time and p99 of a run by themselves,
/// and they are the ones where compilation does not dominate.
constexpr uint64_t GenprogWorkBudget = 40000;

std::vector<Program> makeGenPrograms(uint64_t Seed) {
  std::vector<Program> Ps;
  RNG Rand(Seed ^ 0x67656e70726f67ull);
  while (Ps.size() != GenprogPool) {
    uint64_t S = Rand.next();
    Program P{"gen-" + hex(S), fuzz::generateProgram(S).render(), {}};
    if (referenceRun(P.Source, GenprogWorkBudget, P.Ref))
      Ps.push_back(std::move(P));
  }
  return Ps;
}

/// Runs one op: a fresh Runtime + Engine, load, run, compare.
/// \returns true when the observables match the reference.
bool runProgramOp(const Program &P, const ProgramWorkload &W, Tracer *T,
                  LayerTotals *Acc) {
  if (T)
    T->begin(SpanKind::Op);
  bool Ok;
  {
    Runtime RT;
    Engine E(RT, W.Config, W.Knobs);
    std::optional<TracedHooks> Hooks;
    if (T) {
      Hooks.emplace(RT, E, *T);
      T->begin(SpanKind::ParserLoad);
    }
    bool Loaded = RT.load(P.Source);
    if (T)
      T->end();
    Value V = Value::undefined();
    if (Loaded) {
      if (T)
        T->begin(SpanKind::VmRun);
      V = RT.run();
      if (T)
        T->end();
    }
    fuzz::RunOutcome Got;
    Got.Completion = renderCompletion(V);
    Got.Output = RT.output();
    Got.HadError = RT.hasError();
    if (Got.HadError)
      Got.Error = RT.errorMessage();
    Ok = Got.sameObservable(P.Ref);
    if (Acc) {
      addStats(Acc->Engine, E.stats(), EngineStats{});
      addVm(*Acc, VmCounters::of(RT), VmCounters{});
      Acc->CodeInstrs += codeInstrs(E);
    }
  }
  if (T)
    T->end();
  return Ok;
}

RunResult runPrograms(const Options &O, const ProgramWorkload &W) {
  RunResult R;
  R.note("knobs", describeKnobs(W.Knobs, W.Config));

  Calibrator Cal;
  std::vector<double> SetupS;
  std::vector<Program> Progs;
  for (int Rep = 0; Rep != SetupReps; ++Rep)
    SetupS.push_back(timedSetup(Cal, Rep, [&] { Progs = W.Make(O.Seed); }));

  // Op I runs program Order[I % N] of pass I / N; each pass is a seeded
  // shuffle.
  const uint64_t N = Progs.size();
  std::vector<size_t> Order(N);
  uint64_t OrderPass = ~0ull;
  auto ProgramAt = [&](uint64_t I) -> const Program & {
    if (I / N != OrderPass) {
      OrderPass = I / N;
      for (size_t J = 0; J != N; ++J)
        Order[J] = J;
      RNG Rand(O.Seed * 0x9e3779b97f4a7c15ull + OrderPass + 1);
      for (size_t J = N; J > 1; --J)
        std::swap(Order[J - 1], Order[Rand.nextBelow(J)]);
    }
    return Progs[Order[I % N]];
  };
  // The inputs: the programs, in the order of the first pass.
  uint64_t Digest = 0xcbf29ce484222325ull;
  for (uint64_t I = 0; I != N; ++I)
    Digest = fnv1a(Digest, ProgramAt(I).Source);
  R.note("inputs.programs", std::to_string(N));
  R.note("inputs.digest", hex(Digest));

  if (!O.Trace) {
    // Closed loop with one client until the ops' own time reaches
    // --seconds. Each op's peak RSS is read between ops.
    std::vector<double> LatUs, RssMb;
    int64_t Budget = static_cast<int64_t>(O.Seconds * 1e9), Busy = 0;
    int64_t NextCalib = 0;
    uint64_t I = 0;
    while ((Busy < Budget || I < MinOps) && Busy < 3 * Budget) {
      if (Busy >= NextCalib) {
        Cal.run(I);
        NextCalib = Busy + CalibEveryNs;
      }
      const Program &P = ProgramAt(I++);
      resetPeakRss();
      int64_t T0 = clockNs();
      bool Ok = runProgramOp(P, W, nullptr, nullptr);
      int64_t Ns = clockNs() - T0;
      Busy += Ns;
      LatUs.push_back(static_cast<double>(Ns) / 1e3);
      RssMb.push_back(peakRssMb());
      if (!Ok) {
        ++R.Failed;
        std::fprintf(stderr, "perfbench: %s: op %llu (%s) differs from the "
                             "interpreter reference\n",
                     W.Name, static_cast<unsigned long long>(I - 1),
                     P.Name.c_str());
      }
    }
    R.Attempted = I;
    R.add("ops_per_s", slicedRate(LatUs, N, Cal, R), "1/s");
    addLatency(R, std::move(LatUs), /*Sliced=*/false);
    R.add("peak_rss_mb", median(RssMb), "MB");
    R.add("setup_s", median(SetupS), "s");
    return R;
  }

  // Traced run: the same fixed ops untraced, then traced; the traced
  // time excludes the compile replay.
  int64_t T0 = clockNs();
  for (uint64_t I = 0; I != W.TraceOps; ++I)
    if (!runProgramOp(ProgramAt(I), W, nullptr, nullptr))
      ++R.Failed;
  double Untraced = seconds(clockNs() - T0);
  Tracer T(SpanKeepCap);
  LayerTotals Acc;
  T0 = clockNs();
  for (uint64_t I = 0; I != W.TraceOps; ++I) {
    T.setOp(I);
    if (!runProgramOp(ProgramAt(I), W, &T, &Acc))
      ++R.Failed;
  }
  double Traced = seconds(clockNs() - T0 - T.replayNs());
  R.Attempted = 2 * W.TraceOps;
  addLayerMetrics(R, T, Acc, Untraced / Traced, W.DominantLayer);
  if (!O.OutDir.empty())
    T.writeChromeTrace(O.OutDir + "/spans-" + W.Name + "-seed" +
                       std::to_string(O.Seed) + ".json");
  return R;
}

//===----------------------------------------------------------------------===//
// serve and serve-async: one long-lived engine, open-loop requests
//===----------------------------------------------------------------------===//

/// Request arrival rate, requests/s: about a fifth of the capacity the
/// seed code reaches on a shared 4-vCPU x86-64 host (Release build).
/// Nearer half load, the host's own speed swings (+-20% over seconds)
/// moved every latency figure by more than the gate's bounds.
constexpr double ServeRate = 50000;
/// Cache byte budget: just below the site's ~126 KB working set (96
/// functions x 6 signatures), so evictions and recompiles happen every
/// run at a rate of a few per thousand requests.
constexpr size_t ServeCacheBytes = 120 * 1024;
/// Requests replayed to warm each engine before it is measured.
constexpr uint64_t ServeWarmupRequests = 20000;
/// Calibrations during the capacity replay: one per this many requests
/// (about 10 ms).
constexpr uint64_t CalibEveryRequests = 2048;
/// Share of --seconds the open loop's arrivals span; the capacity replay
/// of the same requests, interleaved with it, adds about a fifth.
constexpr double ServeOpenShare = 0.75;

/// The default site with fewer argument values per function than
/// Engine::CodeCacheSigLimit, so no function is ever pushed to a generic
/// body: every function keeps specializing, and a budget below the
/// working set (96 functions x 6 signatures) evicts and recompiles at a
/// steady rate instead of settling once every function went generic.
ServeModel serveModel() {
  ServeModel M;
  M.PoolSize = 6;
  return M;
}

/// The site is one fixed program, as a deployed site is; --seed draws its
/// traffic (sessions and arrival times).
constexpr uint64_t ServeSiteSeed = 1;

/// Interpreter result of drive(f, a).
struct CallRef {
  bool IsNumber = false;
  double Num = 0;
  std::string Str; ///< String value, or the display string of others.
};

bool matches(const Value &V, const CallRef &Ref) {
  if (Ref.IsNumber) {
    if (!V.isNumber())
      return false;
    double D = V.asNumber();
    if (std::isnan(Ref.Num))
      return std::isnan(D);
    return D == Ref.Num && std::signbit(D) == std::signbit(Ref.Num);
  }
  if (V.isString())
    return V.asString()->str() == Ref.Str;
  return !V.isNumber() && V.toDisplayString() == Ref.Str;
}

struct ServeInputs {
  ServeModel Model = serveModel();
  SiteBundle Site;
  /// drive(f, a) of the interpreter, indexed f * PoolSize + a. drive is
  /// a pure function of (f, a), so this is each request's reference.
  std::vector<CallRef> Refs;
  std::vector<CallEvent> Warmup, Stream; ///< CallsPerRequest per request.
  std::vector<int64_t> DueNs; ///< Per request, from the open-loop start.
  uint64_t requests() const { return DueNs.size(); }
};

void appendSessions(std::vector<CallEvent> &Out, const ServeInputs &In,
                    uint64_t Seed, uint64_t FirstId, uint64_t Requests) {
  uint64_t Calls = Requests * In.Model.CallsPerRequest;
  for (uint64_t Id = FirstId; Out.size() < Calls; ++Id) {
    RNG Rand(Seed * 1000003ull + Id * 2654435761ull + 1);
    std::vector<CallEvent> S = generateSession(In.Site, In.Model, Rand);
    Out.insert(Out.end(), S.begin(), S.end());
  }
  Out.resize(Calls);
}

void buildServeInputs(ServeInputs &In, uint64_t Seed, double OpenSeconds) {
  In.Site = buildSiteBundle(In.Model, ServeSiteSeed);
  {
    Runtime RT;
    RT.evaluate(In.Site.Source);
    In.Refs.assign(static_cast<size_t>(In.Model.NumFunctions) * In.Site.PoolSize,
                   CallRef{});
    std::vector<Value> Args(2);
    for (unsigned F = 0; F != In.Model.NumFunctions; ++F) {
      for (unsigned A = 0; A != In.Site.PoolSize; ++A) {
        Args[0] = Value::int32(static_cast<int32_t>(F));
        Args[1] = Value::int32(static_cast<int32_t>(A));
        Value V = RT.callGlobal("drive", Args);
        CallRef &Ref = In.Refs[F * In.Site.PoolSize + A];
        Ref.IsNumber = V.isNumber();
        if (Ref.IsNumber)
          Ref.Num = V.asNumber();
        else
          Ref.Str = V.isString() ? V.asString()->str() : V.toDisplayString();
      }
    }
  }
  // Poisson arrivals at ServeRate over the open-loop window.
  RNG Rand(Seed ^ 0x6172726976616cull);
  In.DueNs.clear();
  double T = 0;
  for (;;) {
    T += -std::log(1.0 - Rand.nextDouble()) / ServeRate;
    if (T >= OpenSeconds)
      break;
    In.DueNs.push_back(static_cast<int64_t>(T * 1e9));
  }
  In.Stream.clear();
  In.Warmup.clear();
  appendSessions(In.Stream, In, Seed, 0, In.requests());
  appendSessions(In.Warmup, In, Seed, 1ull << 32, ServeWarmupRequests);
}

struct ServeEngine {
  Runtime RT;
  Engine E;
  std::vector<Value> Args = std::vector<Value>(2);
  ServeEngine(const OptConfig &C, const EngineKnobs &K) : E(RT, C, K) {}

  /// Serves request \p I of \p Calls; \returns true when every drive
  /// result matches the interpreter.
  bool request(const std::vector<CallEvent> &Calls, uint64_t I,
               const ServeInputs &In) {
    bool Ok = true;
    unsigned Per = In.Model.CallsPerRequest;
    for (uint64_t C = I * Per, End = C + Per; C != End; ++C) {
      const CallEvent &Ev = Calls[C];
      Args[0] = Value::int32(static_cast<int32_t>(Ev.Func));
      Args[1] = Value::int32(static_cast<int32_t>(Ev.Arg));
      Value V = RT.callGlobal("drive", Args);
      if (RT.hasError()) {
        RT.clearError();
        Ok = false;
      } else if (!matches(V, In.Refs[Ev.Func * In.Site.PoolSize + Ev.Arg])) {
        Ok = false;
      }
    }
    return Ok;
  }
};

/// Per-request records of the open loop.
struct OpenLoop {
  std::vector<double> LatUs;  ///< Completion minus due time.
  std::vector<double> LateUs; ///< Issue minus due time.
  std::vector<float> Backlog; ///< Requests due but not issued, at issue.
  uint64_t Failed = 0;
};

/// Issues requests [From, To) at their due times from this one thread;
/// latency is measured from each request's due time.
void openLoop(ServeEngine &S, const ServeInputs &In, uint64_t From,
              uint64_t To, OpenLoop &L, LayerTotals &Acc) {
  int64_t Start = clockNs() + 100000 - In.DueNs[From]; // 0.1 ms lead-in
  uint64_t Arrived = From;
  for (uint64_t I = From; I != To; ++I) {
    int64_t Due = Start + In.DueNs[I];
    int64_t Now = clockNs();
    while (Now < Due)
      Now = clockNs();
    while (Arrived < To && Start + In.DueNs[Arrived] <= Now)
      ++Arrived;
    L.Backlog.push_back(static_cast<float>(Arrived - I - 1));
    L.LateUs.push_back(static_cast<double>(Now - Due) / 1e3);
    if (!S.request(In.Stream, I, In))
      ++L.Failed;
    L.LatUs.push_back(static_cast<double>(clockNs() - Due) / 1e3);
    size_t Depth = S.E.pendingCompiles();
    Acc.QueueMax = std::max(Acc.QueueMax, Depth);
    Acc.QueueSum += static_cast<double>(Depth);
    ++Acc.QueueSamples;
  }
}

/// Load-generator figures of a finished open loop.
void summarizeLoad(OpenLoop &L, const ServeEngine &S, LayerTotals &Acc) {
  size_t Tenth = std::max<size_t>(1, L.Backlog.size() / 10);
  double First = 0, Last = 0;
  for (size_t I = 0; I != Tenth; ++I) {
    First += L.Backlog[I];
    Last += L.Backlog[L.Backlog.size() - 1 - I];
  }
  Acc.BacklogStart = First / static_cast<double>(Tenth);
  Acc.BacklogEnd = Last / static_cast<double>(Tenth);
  std::sort(L.LateUs.begin(), L.LateUs.end());
  Acc.LateP99Us = percentileSorted(L.LateUs, 99.0);
  Acc.ReclaimerRetained = S.E.codeReclaimer().pending();
}

} // namespace

RunResult runSuites(const Options &O) {
  ProgramWorkload W{"suites", OptConfig::all(), EngineKnobs{}, 92, "native",
                    makeSuitePrograms};
  return runPrograms(O, W);
}

RunResult runGenprog(const Options &O) {
  EngineKnobs K; // The fuzzer's thresholds (fuzz::defaultMatrix).
  K.CallThreshold = 3;
  K.LoopThreshold = 20;
  ProgramWorkload W{"genprog", OptConfig::all(), K, GenprogPool, "compile",
                    makeGenPrograms};
  return runPrograms(O, W);
}

RunResult runServe(const Options &O, bool Async) {
  RunResult R;
  OptConfig Config = OptConfig::all();
  EngineKnobs K;
  K.Policy = TierPolicy::Tiered;
  K.CodeCacheBytes = ServeCacheBytes;
  K.CompileThreads = Async ? 1 : 0;
  R.note("knobs", describeKnobs(K, Config));
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.0f req/s, Poisson", ServeRate);
  R.note("load.rate", Buf);

  // Each set-up makes the inputs, the interpreter reference and one
  // warmed engine; the run uses all three engines.
  ServeInputs In;
  Calibrator Cal;
  std::vector<std::unique_ptr<ServeEngine>> Engines;
  std::vector<double> SetupS;
  uint64_t WarmupFailed = 0;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    SetupS.push_back(timedSetup(Cal, Rep, [&] {
      buildServeInputs(In, O.Seed, O.Seconds * ServeOpenShare);
      auto S = std::make_unique<ServeEngine>(Config, K);
      S->RT.evaluate(In.Site.Source);
      if (S->RT.hasError())
        ++WarmupFailed;
      for (uint64_t I = 0; I != ServeWarmupRequests; ++I)
        if (!S->request(In.Warmup, I, In))
          ++WarmupFailed;
      S->E.drainCompiles(); // Warm-up ends with no compile in flight.
      Engines.push_back(std::move(S));
    }));
  }
  if (WarmupFailed) {
    R.Correct = false;
    std::fprintf(stderr, "perfbench: %llu warm-up requests differ from the "
                         "interpreter reference\n",
                 static_cast<unsigned long long>(WarmupFailed));
  }
  uint64_t Digest = fnv1a(0xcbf29ce484222325ull, In.Site.Source);
  for (const CallEvent &Ev : In.Stream)
    Digest = (Digest ^ (Ev.Func * 131u + Ev.Arg)) * 0x100000001b3ull;
  R.note("inputs.requests", std::to_string(In.requests()));
  R.note("inputs.digest", hex(Digest));

  // Capacity: the same stream back to back on a second warmed engine.
  // An untraced replay calibrates every CalibEveryRequests requests.
  // \returns the time taken, calibrations excluded.
  auto Capacity = [&](ServeEngine &S, uint64_t From, uint64_t To,
                      Tracer *T) {
    int64_t T0 = clockNs(), CalibNs = 0;
    for (uint64_t I = From; I != To; ++I) {
      if (!T && I % CalibEveryRequests == 0)
        CalibNs += Cal.run(I);
      if (T) {
        T->setOp(I);
        T->begin(SpanKind::Op);
        T->begin(SpanKind::VmRun);
      }
      if (!S.request(In.Stream, I, In))
        ++R.Failed;
      if (T) {
        T->end();
        T->end();
      }
    }
    R.Attempted += To - From;
    return clockNs() - T0 - CalibNs;
  };

  // The open loop and the capacity replay alternate slice by slice, so
  // both span the whole run and see the same host.
  const uint64_t N = In.requests();
  LayerTotals Acc;
  OpenLoop Open;
  std::vector<double> SliceOps, SliceNs;
  std::vector<uint64_t> Bounds{0};
  int64_t UntracedNs = 0;
  resetPeakRss();
  for (uint64_t K = 0; K != Slices; ++K) {
    uint64_t From = N * K / Slices, To = N * (K + 1) / Slices;
    openLoop(*Engines[2], In, From, To, Open, Acc);
    int64_t Ns = Capacity(*Engines[1], From, To, nullptr);
    UntracedNs += Ns;
    SliceOps.push_back(static_cast<double>(To - From));
    SliceNs.push_back(static_cast<double>(Ns));
    Bounds.push_back(To);
  }
  R.Attempted += N;
  R.Failed += Open.Failed;
  summarizeLoad(Open, *Engines[2], Acc);

  if (!O.Trace) {
    R.add("ops_per_s", scaledRate(SliceOps, SliceNs, Bounds, Cal, R), "1/s");
    addLatency(R, std::move(Open.LatUs), /*Sliced=*/true);
    R.add("peak_rss_mb", peakRssMb(), "MB");
    R.add("setup_s", median(SetupS), "s");
    return R;
  }

  // Traced capacity replay on the third engine; counts are deltas over
  // the replay.
  ServeEngine &S = *Engines[0];
  Tracer T(SpanKeepCap);
  EngineStats Base = S.E.stats();
  VmCounters VmBase = VmCounters::of(S.RT);
  CodeCache::Stats CacheBase = S.E.codeCache()->stats();
  double TracedNs;
  {
    TracedHooks Hooks(S.RT, S.E, T);
    TracedNs = static_cast<double>(Capacity(S, 0, N, &T) - T.replayNs());
  }
  S.E.drainCompiles();
  addStats(Acc.Engine, S.E.stats(), Base);
  addVm(Acc, VmCounters::of(S.RT), VmBase);
  addCache(Acc.Cache, S.E.codeCache()->stats(), CacheBase);
  Acc.ResidentBytes = S.E.codeCache()->residentBytes();
  Acc.CodeInstrs = codeInstrs(S.E);
  addLayerMetrics(R, T, Acc, static_cast<double>(UntracedNs) / TracedNs,
                  "native");
  if (!O.OutDir.empty())
    T.writeChromeTrace(O.OutDir + "/spans-" + (Async ? "serve-async" : "serve") +
                       "-seed" + std::to_string(O.Seed) + ".json");
  return R;
}

std::string describeKnobs(const EngineKnobs &K, const OptConfig &C) {
  char Buf[320];
  std::snprintf(Buf, sizeof(Buf),
                "opt=%s policy=%s fusion=%d dispatch=%s call_threshold=%u "
                "loop_threshold=%u bailout_limit=%u cache_depth=%u "
                "value_stability_max=%u compile_threads=%u compile_drain=%d "
                "code_cache_bytes=%zu",
                C.describe().c_str(), tierPolicyName(K.Policy), K.Fusion,
                K.Dispatch == DispatchMode::Goto ? "goto" : "switch",
                K.CallThreshold, K.LoopThreshold, K.BailoutLimit, K.CacheDepth,
                K.ValueStabilityMax, K.CompileThreads, K.CompileDrain,
                K.CodeCacheBytes);
  return Buf;
}

} // namespace perfbench
