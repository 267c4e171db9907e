//===- perfbench/src/Trace.cpp - Layer spans recorded from outside --------===//

#include "Trace.h"

#include "lir/Codegen.h"
#include "mir/MIRBuilder.h"
#include "passes/Passes.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <cstdio>

using namespace jitvs;

namespace perfbench {

const char *spanKindName(SpanKind K) {
  static const char *const Names[NumSpanKinds] = {
      "op",         "parser.load", "vm.run",    "jit.call",   "jit.loop",
      "mir.build",  "passes.inline", "passes.gvn", "passes.cp", "passes.li",
      "passes.dce", "passes.bce",  "lir.codegen"};
  return Names[static_cast<size_t>(K)];
}

void Tracer::begin(SpanKind K, const EngineStats *S) {
  Open O{K, ~0u, nowNs()};
  if (S) {
    O.StallAtStart = S->CompileStallSeconds;
    O.CompilesAtStart = S->Compilations;
    O.SpecAtStart = S->SpecializedCompiles;
  }
  if (Kept.size() < KeepCap) {
    O.Index = static_cast<uint32_t>(Kept.size());
    uint32_t Parent = Stack.empty() ? ~0u : Stack.back().Index;
    Kept.push_back({K, Parent, OpId, O.StartNs, 0});
  }
  Stack.push_back(O);
}

std::pair<uint64_t, uint64_t>
Tracer::selfCompiles(const EngineStats &S) const {
  const Open &O = Stack.back();
  return {S.Compilations - O.CompilesAtStart - O.ChildCompiles,
          S.SpecializedCompiles - O.SpecAtStart - O.ChildSpec};
}

void Tracer::end(const EngineStats *S) {
  Open O = Stack.back();
  Stack.pop_back();
  int64_t End = nowNs();
  int64_t Dur = End - O.StartNs;
  int64_t Self = Dur - O.ChildNs;
  if (O.Index != ~0u)
    Kept[O.Index].EndNs = End;
  Agg &A = Aggs[static_cast<size_t>(O.Kind)];
  ++A.Count;
  A.TotalNs += Dur;
  A.SelfNs += Self;

  double Stall = 0;
  uint64_t Compiles = 0, Spec = 0;
  if (S) {
    Stall = S->CompileStallSeconds - O.StallAtStart;
    Compiles = S->Compilations - O.CompilesAtStart;
    Spec = S->SpecializedCompiles - O.SpecAtStart;
    int64_t SelfStall = static_cast<int64_t>((Stall - O.ChildStall) * 1e9);
    CompileNs += SelfStall;
    NativeNs += Self - SelfStall;
    size_t Bucket = static_cast<size_t>(std::max<int64_t>(Self, 0) / 10);
    ++HookSelfHist[std::min(Bucket, HookSelfHist.size() - 1)];
  }
  if (!Stack.empty()) {
    Open &P = Stack.back();
    P.ChildNs += Dur;
    P.ChildStall += Stall;
    P.ChildCompiles += Compiles;
    P.ChildSpec += Spec;
  }
}

int64_t Tracer::replayNs() const {
  int64_t Ns = 0;
  for (size_t K = 0; K != NumSpanKinds; ++K)
    if (isReplaySpan(static_cast<SpanKind>(K)))
      Ns += Aggs[K].TotalNs;
  return Ns;
}

double Tracer::hookSelfP50Us() const {
  uint64_t Total = 0;
  for (uint64_t N : HookSelfHist)
    Total += N;
  uint64_t Seen = 0;
  for (size_t B = 0; B != HookSelfHist.size(); ++B) {
    Seen += HookSelfHist[B];
    if (Total && 2 * Seen >= Total)
      return static_cast<double>(B) * 0.01;
  }
  return 0.0;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t Base = Kept.empty() ? 0 : Kept.front().StartNs;
  std::fprintf(F, "{\"traceEvents\":[\n");
  for (size_t I = 0; I != Kept.size(); ++I) {
    const Record &R = Kept[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"op\":%llu}}\n",
                 I ? "," : "", spanKindName(R.Kind),
                 static_cast<double>(R.StartNs - Base) / 1e3,
                 static_cast<double>(R.EndNs - R.StartNs) / 1e3, I,
                 R.Parent == ~0u ? -1LL : static_cast<long long>(R.Parent),
                 static_cast<unsigned long long>(R.Op));
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

TracedHooks::TracedHooks(Runtime &RT, Engine &E, Tracer &T)
    : RT(RT), E(E), T(T) {
  RT.setHooks(this);
}

TracedHooks::~TracedHooks() {
  if (RT.hooks() == this)
    RT.setHooks(&E);
}

bool TracedHooks::onCall(JSFunction *Callee, const Value &ThisV,
                         const Value *Args, size_t NumArgs, Value &Result) {
  // Read before the call: a collection inside it may move the callee.
  FunctionInfo *Info = Callee->info();
  T.begin(SpanKind::JitCall, &E.stats());
  bool Ran = E.onCall(Callee, ThisV, Args, NumArgs, Result);
  ++T.HookSpans;
  if (!Ran)
    ++T.HookDeclines;
  auto [Compiles, Spec] = T.selfCompiles(E.stats());
  if (Compiles && Info && Replayed.insert(Info).second)
    replay(Info, Spec != 0, Args, NumArgs, nullptr, nullptr);
  T.end(&E.stats());
  return Ran;
}

bool TracedHooks::onLoopHead(InterpFrame &Frame, uint32_t PC, Value &Result) {
  T.begin(SpanKind::JitLoop, &E.stats());
  bool Ran = E.onLoopHead(Frame, PC, Result);
  ++T.HookSpans;
  if (!Ran)
    ++T.HookDeclines;
  auto [Compiles, Spec] = T.selfCompiles(E.stats());
  if (Compiles && Replayed.insert(Frame.Info).second)
    replay(Frame.Info, Spec != 0, Frame.OrigArgs.data(), Frame.OrigArgs.size(),
           &PC, &Frame.Slots);
  T.end(&E.stats());
  return Ran;
}

/// Re-runs the engine's pipeline (jit/Engine.cpp runCompilePipeline) one
/// stage at a time, in runOptimizationPipeline's pass order. The values
/// are read after the engine returned: the caller's frame is GC-traced,
/// so they are current even if a collection moved them, and no
/// collection can run during the replay (Heap::allocate never collects).
void TracedHooks::replay(FunctionInfo *Info, bool Specialized,
                         const Value *Args, size_t NumArgs,
                         const uint32_t *OsrPc,
                         const std::vector<Value> *OsrSlots) {
  const OptConfig &Cfg = E.config();
  BuildOptions Opts;
  if (Specialized)
    Opts.SpecializedArgs = std::vector<Value>(Args, Args + NumArgs);
  if (OsrPc) {
    Opts.OsrPc = *OsrPc;
    if (Specialized)
      Opts.OsrSlotValues = *OsrSlots;
  }
  ReplayCounts &C = T.Replay;
  ++C.Functions;

  T.begin(SpanKind::MirBuild);
  std::unique_ptr<MIRGraph> G = buildMIR(Info, Opts);
  T.end();
  C.MirInstrs += G->numInstructions();

  if (Cfg.ParameterSpecialization) {
    T.begin(SpanKind::PassInline);
    C.InlinedSites += runClosureInlining(*G, RT, Cfg);
    T.end();
  }
  auto Pass = [&](bool On, SpanKind K, size_t Slot, auto &&Run) {
    if (!On)
      return;
    T.begin(K);
    Run();
    T.end();
    C.InstrsAfter[Slot] += G->numInstructions();
  };
  Pass(Cfg.GlobalValueNumbering, SpanKind::PassGVN, 0, [&] { runGVN(*G); });
  Pass(Cfg.ConstantPropagation, SpanKind::PassCP, 1,
       [&] { runConstantPropagation(*G, RT); });
  Pass(Cfg.LoopInversion, SpanKind::PassLI, 2, [&] { runLoopInversion(*G); });
  Pass(Cfg.DeadCodeElim, SpanKind::PassDCE, 3,
       [&] { runDeadCodeElimination(*G, RT); });
  Pass(Cfg.BoundsCheckElim, SpanKind::PassBCE, 4,
       [&] { runBoundsCheckElimination(*G, Cfg.RelaxedBCEAliasing); });

  T.begin(SpanKind::LirCodegen);
  CodegenStats CS;
  std::unique_ptr<NativeCode> Code = generateCode(*G, &CS);
  T.end();
  C.VRegs += CS.NumVirtualRegs;
  C.Spills += CS.NumSpills;
  C.CodeInstrs += CS.NumInstructions;
}

} // namespace perfbench
