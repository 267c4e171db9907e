//===- vm/Runtime.h - MiniJS execution environment --------------*- C++ -*-===//
///
/// \file
/// The Runtime owns the heap, the loaded program, global variables and
/// builtins, and routes every call through a single dispatch point so one
/// ExecutionHooks listener — the JIT engine or the call profiler — can
/// observe and intercept execution: the analogue of the SpiderMonkey /
/// IonMonkey interplay in Figure 5 of the paper.
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_VM_RUNTIME_H
#define JITVS_VM_RUNTIME_H

#include "support/RNG.h"
#include "vm/Bytecode.h"
#include "vm/GC.h"
#include "vm/Object.h"
#include "vm/Shape.h"
#include "vm/Value.h"

#include <memory>
#include <string>
#include <vector>

namespace jitvs {

class Runtime;
struct InterpFrame;

/// The one call hook: the JIT engine implements it to intercept execution,
/// the Section 2 profilers (invocation and argument-set histograms,
/// parameter types) to observe calls.
class ExecutionHooks {
public:
  virtual ~ExecutionHooks();

  /// Called for every user-function invocation before interpreting. If the
  /// hook fully executes the call (native code, possibly with bailouts), it
  /// stores the result in \p Result and returns true.
  virtual bool onCall(JSFunction *Callee, const Value &ThisV,
                      const Value *Args, size_t NumArgs, Value &Result) = 0;

  /// Called by the interpreter at each LoopHead. If the hook performs
  /// on-stack replacement and finishes the frame natively, it stores the
  /// frame's return value in \p Result and returns true. The default
  /// declines.
  virtual bool onLoopHead(InterpFrame &Frame, uint32_t PC, Value &Result);
};

/// The MiniJS execution environment.
class Runtime {
public:
  Runtime();
  ~Runtime();
  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  /// Compiles \p Source and loads it (installing globals and builtins).
  /// Programs loaded earlier stay allocated for the Runtime's lifetime:
  /// an attached engine keys its state by FunctionInfo address.
  /// \returns false and sets the error message on compile errors.
  bool load(const std::string &Source);

  /// Runs the loaded program's top-level code.
  /// \returns the completion value, or undefined on error (check
  /// hasError()).
  Value run();

  /// Convenience: load + run.
  Value evaluate(const std::string &Source);

  /// Calls a global function by name with the given arguments.
  Value callGlobal(const std::string &Name, const std::vector<Value> &Args);

  // --- Call dispatch (used by interpreter, native code and embedders) ---

  /// Calls \p Callee with \p ThisV and arguments. Reports an error for
  /// non-callable values.
  Value callValue(const Value &Callee, const Value &ThisV, const Value *Args,
                  size_t NumArgs);

  /// `new Callee(args...)`.
  Value construct(const Value &Callee, const Value *Args, size_t NumArgs);

  // --- Error handling (no exceptions; MiniJS has no try/catch) ---
  void fail(const std::string &Msg) {
    if (!HadError) {
      HadError = true;
      ErrorMsg = Msg;
    }
  }
  bool hasError() const { return HadError; }
  const std::string &errorMessage() const { return ErrorMsg; }
  void clearError() {
    HadError = false;
    ErrorMsg.clear();
  }

  // --- Services used by the interpreter and native code ---
  Heap &heap() { return TheHeap; }
  Program *program() { return Prog; }
  RNG &rng() { return Rand; }

  // --- Hidden-class shapes and property inline caches (vm/Shape.h) ---
  ShapeTree &shapes() { return Shapes; }

  /// Master switch for the shape-guarded fast paths: interpreter inline
  /// caches and (because disabling also stops IC way recording) the
  /// JIT's shape-specialized property MIR. Objects always carry shapes —
  /// this gates the optimization, not the storage model. Env escape
  /// hatch: JITVS_SHAPES=off|0.
  bool shapesEnabled() const { return ShapesOn; }
  void setShapesEnabled(bool On) { ShapesOn = On; }

  /// Distinct receiver shapes a property site caches before going
  /// megamorphic (1..SiteFeedback::MaxICWays; env: JITVS_IC_WAYS).
  unsigned icWays() const { return ICWays; }
  void setICWays(unsigned N);

  /// Aggregate inline-cache counters across all sites (telemetry).
  struct ICStats {
    uint64_t GetHits = 0, GetMisses = 0;
    uint64_t SetHits = 0, SetMisses = 0;
    uint64_t CallHits = 0, CallMisses = 0;
    uint64_t MegamorphicSites = 0; ///< Sites that exhausted the way limit.
  };
  ICStats &icStats() { return TheICStats; }
  const ICStats &icStats() const { return TheICStats; }

  Value &global(uint32_t Slot) {
    assert(Slot < Globals.size() && "bad global slot");
    return Globals[Slot];
  }

  JSString *newString(std::string S) {
    return TheHeap.allocate<JSString>(std::move(S));
  }
  Value newStringValue(std::string S) {
    return Value::string(newString(std::move(S)));
  }

  /// Interns \p Name in the loaded program's name table.
  uint32_t internName(const std::string &Name) {
    return Prog->names().intern(Name);
  }
  const std::string &nameOf(uint32_t Id) const {
    return Prog->names().name(Id);
  }

  /// Pre-interned ids for hot property/method names (~0u when the program
  /// never mentions them and nothing interned them yet).
  uint32_t lengthNameId() const { return LengthId; }

  // --- Output of the print builtin ---
  void printLine(const std::string &S);
  const std::string &output() const { return Output; }
  void clearOutput() { Output.clear(); }
  void setEchoOutput(bool Echo) { EchoOutput = Echo; }

  // --- Hooks ---
  /// Installs the one call hook (an Engine, a profiler, ...), replacing
  /// any other; nullptr interprets every call.
  void setHooks(ExecutionHooks *H) { Hooks = H; }
  ExecutionHooks *hooks() { return Hooks; }

  // --- Call depth guard (checkoverrecursed) ---
  bool enterCall() {
    if (++CallDepth > MaxCallDepth) {
      fail("too much recursion");
      --CallDepth;
      return false;
    }
    return true;
  }
  void leaveCall() { --CallDepth; }

  // --- Generic operation helpers (shared by interpreter and native) ---
  // Each reports errors through fail(); results are undefined on error.
  /// On two Int32 operands, Add/Sub/Mul return an Int32 unless the int32
  /// result overflowed (or, for Mul, is -0): the interpreter's overflow
  /// feedback relies on that.
  Value genericAdd(const Value &A, const Value &B);
  Value genericSub(const Value &A, const Value &B);
  Value genericMul(const Value &A, const Value &B);
  Value genericDiv(const Value &A, const Value &B);
  Value genericMod(const Value &A, const Value &B);
  Value genericNeg(const Value &A);
  Value genericBitOp(Op O, const Value &A, const Value &B);
  Value genericBitNot(const Value &A);
  bool genericLess(const Value &A, const Value &B);      ///< A < B
  bool genericLessEq(const Value &A, const Value &B);    ///< A <= B
  bool genericLooseEquals(const Value &A, const Value &B);
  /// Element access. An out-of-bounds index, or a store that grows the
  /// array, sets \p *OutOfBounds when given (the interpreter's site
  /// feedback); other callers pass nothing and record nothing.
  Value genericGetElem(const Value &Obj, const Value &Index,
                       bool *OutOfBounds = nullptr);
  Value genericSetElem(const Value &Obj, const Value &Index, const Value &V,
                       bool *OutOfBounds = nullptr);
  Value genericGetProp(const Value &Obj, uint32_t NameId);
  Value genericSetProp(const Value &Obj, uint32_t NameId, const Value &V);
  Value callMethod(const Value &Recv, uint32_t NameId, const Value *Args,
                   size_t NumArgs);
  Value typeOfValue(const Value &V);

  /// ECMAScript-style ToNumber on our value subset.
  static double toNumber(const Value &V);
  /// ECMAScript ToInt32 (truncate modulo 2^32, signed).
  static int32_t toInt32(double D);
  /// ECMAScript Math.round. floor(x + 0.5) is wrong twice over: the
  /// addition double-rounds (0.49999999999999994 + 0.5 == 1.0), and JS
  /// rounds half toward +inf while preserving -0 for x in [-0.5, 0).
  static double jsMathRound(double D);

  /// Interprets a user function call (bypassing hooks). Used by the call
  /// dispatch path and by the engine when it declines to run native code.
  Value interpretCall(JSFunction *Callee, const Value &ThisV,
                      const Value *Args, size_t NumArgs);

  /// Resumes interpretation of a reconstructed frame (deoptimization).
  Value resumeFrame(InterpFrame &Frame);

private:
  friend class Interpreter;

  void installGlobals();
  /// Folds IC counters and the shape count into the global metrics
  /// registry under "shape.*" / "ic.*", and each called function's
  /// CallCount into its profile's ticks, once, from the destructor when
  /// metrics are enabled.
  void publishMetrics();

  Heap TheHeap;
  /// Every program loaded, oldest first; Prog is the last.
  std::vector<std::unique_ptr<Program>> Programs;
  Program *Prog = nullptr;
  std::vector<Value> Globals;
  RNG Rand;

  /// Owns every shape of this Runtime; never shrinks, so Shape pointers
  /// cached in ICs, feedback and native code stay valid for the
  /// Runtime's (and thus any attached Engine's) whole lifetime.
  ShapeTree Shapes;
  bool ShapesOn = true;
  unsigned ICWays = SiteFeedback::MaxICWays;
  ICStats TheICStats;

  bool HadError = false;
  std::string ErrorMsg;

  std::string Output;
  bool EchoOutput = false;

  ExecutionHooks *Hooks = nullptr;

  uint32_t CallDepth = 0;
  uint32_t MaxCallDepth = 512;

  uint32_t LengthId = ~0u;

  /// Values the runtime itself must keep alive (builtin functions and
  /// container objects).
  std::vector<Value> InternalRoots;
  /// Cached typeof result strings (allocated on first use).
  Value TypeofStrings[6];
  bool TypeofStringsReady = false;

  /// Roots: globals + the constants of every loaded program.
  class GlobalRoots;
  std::unique_ptr<GlobalRoots> Roots;
};

} // namespace jitvs

#endif // JITVS_VM_RUNTIME_H
