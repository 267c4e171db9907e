//===- bench/bench_tier_policy.cpp - The specialization-tier ladder -------===//
///
/// \file
/// Quantifies the middle rung of the value -> type -> generic ladder
/// (DESIGN.md "Specialization tiers"):
///
///  1. Static cost: for every hot function of each suite model, compile
///     three binaries from the same warm profile — generic, type-tier
///     (tag guards only) and value-tier (the paper's exact-value
///     specialization) — and compare instruction counts and guard
///     counts. The type tier should sit strictly between the other two
///     on both axes.
///  2. Dynamic behavior: run each suite under the paper policy and the
///     tiered policy, reporting wall-clock, despecializations, cache-hit
///     tier split and per-suite tier-transition counts.
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

#include "mir/Tier.h"
#include "support/Timer.h"
#include "vm/GC.h"

#include <map>

using namespace jitvs;
using namespace jitvs::bench;

namespace {

/// Captures each function's call count and last-seen arguments during a
/// pure-interpreter profiling run. The captured values are GC roots: the
/// later compiles can allocate (string folding) and collect.
class ArgCapture final : public ExecutionHooks, public RootSource {
public:
  struct Rec {
    uint64_t Calls = 0;
    std::vector<Value> Args;
  };

  explicit ArgCapture(Heap &H) : H(H) { H.addRootSource(this); }
  ~ArgCapture() override { H.removeRootSource(this); }

  bool onCall(JSFunction *Callee, const Value &, const Value *Args,
              size_t NumArgs, Value &) override {
    Rec &R = Funcs[Callee->info()];
    ++R.Calls;
    R.Args.assign(Args, Args + NumArgs);
    return false;
  }

  void traceRoots(GCVisitor &Visitor) override {
    for (auto &[Info, R] : Funcs)
      for (Value &V : R.Args)
        Visitor.visit(V);
  }

  std::map<FunctionInfo *, Rec> Funcs;

private:
  Heap &H;
};

} // namespace

int main() {
  OptConfig Spec = OptConfig::all();

  // --- Part 1: static cost of each tier, per suite. ---
  std::printf("Tier ladder, static cost per suite (hot functions, same "
              "warm profile)\n\n");
  std::printf("%-12s %6s | %9s %9s %9s | %8s %8s %8s\n", "suite", "funcs",
              "gen-instr", "type-instr", "val-instr", "gen-grd",
              "type-grd", "val-grd");

  for (int SuiteIdx = 0; SuiteIdx != 3; ++SuiteIdx) {
    uint64_t Instr[3] = {}, Guards[3] = {};
    uint64_t FuncsCompiled = 0;
    for (const Workload &W : suiteWorkloads(SuiteNames[SuiteIdx])) {
      Runtime RT;
      ArgCapture Cap(RT.heap());
      RT.setHooks(&Cap);
      RT.evaluate(W.Source);
      RT.setHooks(nullptr);
      if (RT.hasError()) {
        std::fprintf(stderr, "%s failed: %s\n", W.Name,
                     RT.errorMessage().c_str());
        return 1;
      }
      Engine E(RT, Spec);
      for (auto &[Info, R] : Cap.Funcs) {
        if (R.Calls < 8 || R.Args.empty())
          continue;
        NativeCode *Gen = E.compileNow(Info, nullptr);
        std::vector<ParamTier> TypeTiers(R.Args.size(), ParamTier::Type);
        NativeCode *Typ = E.compileNow(Info, &R.Args, &TypeTiers);
        NativeCode *Val = E.compileNow(Info, &R.Args);
        if (!Gen || !Typ || !Val)
          continue;
        Instr[0] += Gen->sizeInInstructions();
        Instr[1] += Typ->sizeInInstructions();
        Instr[2] += Val->sizeInInstructions();
        Guards[0] += Gen->guardCount();
        Guards[1] += Typ->guardCount();
        Guards[2] += Val->guardCount();
        ++FuncsCompiled;
      }
    }
    std::printf("%-12s %6llu | %9llu %9llu %9llu | %8llu %8llu %8llu\n",
                SuiteNames[SuiteIdx],
                static_cast<unsigned long long>(FuncsCompiled),
                static_cast<unsigned long long>(Instr[0]),
                static_cast<unsigned long long>(Instr[1]),
                static_cast<unsigned long long>(Instr[2]),
                static_cast<unsigned long long>(Guards[0]),
                static_cast<unsigned long long>(Guards[1]),
                static_cast<unsigned long long>(Guards[2]));
    bool InstrOrdered = Instr[2] < Instr[1] && Instr[1] < Instr[0];
    bool GuardOrdered = Guards[2] < Guards[1] && Guards[1] < Guards[0];
    std::printf("             ordering value < type < generic: "
                "instructions %s, guards %s\n",
                InstrOrdered ? "yes" : "NO",
                GuardOrdered ? "yes" : "NO");
  }
  std::printf("\nExpected shape: the type tier's dispatch-validated tags\n"
              "drop the per-use unbox guards generic code keeps, but it\n"
              "cannot fold the computations the value tier turns into\n"
              "constants — so it lands strictly between the two on both\n"
              "axes.\n");

  // --- Part 2: dynamic behavior, paper policy vs tiered ladder. ---
  int Reps = repetitions(5);
  BenchReport Report("tier_policy", Reps);
  std::printf("\nDynamic policy comparison (suite totals under ALL, "
              "median of %d runs)\n\n", Reps);
  std::printf("%-12s %-7s %9s %8s %10s %10s %8s %8s %8s\n", "suite",
              "policy", "time", "despec", "hits-val", "hits-type",
              "dem-v2t", "dem-gen", "gen-fb");

  for (int SuiteIdx = 0; SuiteIdx != 3; ++SuiteIdx) {
    std::vector<Workload> Works = suiteWorkloads(SuiteNames[SuiteIdx]);
    for (TierPolicy P : {TierPolicy::Paper, TierPolicy::Tiered}) {
      std::vector<double> Times;
      uint64_t Despec = 0, HitsVal = 0, HitsType = 0;
      uint64_t DemV2T = 0, DemGen = 0, GenFB = 0;
      for (int Rep = 0; Rep != Reps; ++Rep) {
        double Seconds = 0.0;
        Despec = HitsVal = HitsType = DemV2T = DemGen = GenFB = 0;
        for (const Workload &W : Works) {
          Runtime RT;
          EngineKnobs K = EngineKnobs::fromEnvironment();
          K.Policy = P;
          Engine E(RT, Spec, K);
          Timer T;
          RT.evaluate(W.Source);
          Seconds += T.seconds();
          if (RT.hasError()) {
            std::fprintf(stderr, "%s failed: %s\n", W.Name,
                         RT.errorMessage().c_str());
            return 1;
          }
          Despec += E.stats().Despecializations;
          HitsVal += E.stats().ValueTierHits;
          HitsType += E.stats().TypeTierHits;
          DemV2T += E.stats().TierDemotionsValueToType;
          DemGen += E.stats().TierDemotionsToGeneric;
          GenFB += E.stats().GenericFallbacks;
        }
        Times.push_back(Seconds);
      }
      Report.addRow(SuiteNames[SuiteIdx], tierPolicyName(P), median(Times),
                    "seconds", &Times);
      Report.addRow(SuiteNames[SuiteIdx],
                    std::string(tierPolicyName(P)) + "/despec",
                    static_cast<double>(Despec), "count");
      std::printf("%-12s %-7s %7.1fms %8llu %10llu %10llu %8llu %8llu "
                  "%8llu\n",
                  SuiteNames[SuiteIdx], tierPolicyName(P),
                  median(Times) * 1e3,
                  static_cast<unsigned long long>(Despec),
                  static_cast<unsigned long long>(HitsVal),
                  static_cast<unsigned long long>(HitsType),
                  static_cast<unsigned long long>(DemV2T),
                  static_cast<unsigned long long>(DemGen),
                  static_cast<unsigned long long>(GenFB));
    }
  }
  std::printf("\nExpected shape: the tiered ladder converts part of the\n"
              "paper's despecialize-to-generic events into value->type\n"
              "demotions whose binaries keep producing type-tier cache\n"
              "hits; generic fallbacks (and thus NeverSpecialize) become\n"
              "rarer than under the paper policy.\n");
  Report.write();
  return 0;
}
