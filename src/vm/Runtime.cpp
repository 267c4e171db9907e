//===- vm/Runtime.cpp - Execution environment and generic operations ------===//

#include "vm/Runtime.h"

#include "parser/Emitter.h"
#include "telemetry/Metrics.h"
#include "telemetry/Telemetry.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace jitvs;

ExecutionHooks::~ExecutionHooks() = default;

bool ExecutionHooks::onLoopHead(InterpFrame &, uint32_t, Value &) {
  return false;
}

/// Roots owned by the runtime: globals, internal values and every
/// constant-pool entry of every loaded program.
class Runtime::GlobalRoots final : public RootSource {
public:
  explicit GlobalRoots(Runtime &RT) : RT(RT) { RT.TheHeap.addRootSource(this); }
  ~GlobalRoots() override { RT.TheHeap.removeRootSource(this); }

  void traceRoots(GCVisitor &Visitor) override {
    for (Value &V : RT.Globals)
      Visitor.visit(V);
    for (Value &V : RT.InternalRoots)
      Visitor.visit(V);
    if (RT.TypeofStringsReady)
      for (Value &V : RT.TypeofStrings)
        Visitor.visit(V);
    // Program constants are tenured at load() (compile workers read them
    // lock-free), so visiting them here never writes after that point.
    for (const std::unique_ptr<Program> &P : RT.Programs)
      for (size_t I = 0, E = P->numFunctions(); I != E; ++I)
        for (Value &C : P->function(static_cast<uint32_t>(I))->Constants)
          Visitor.visit(C);
  }

private:
  Runtime &RT;
};

Runtime::Runtime() {
  Roots = std::make_unique<GlobalRoots>(*this);
  // Shape/IC knobs are ambient-environment seeded like the dispatch-mode
  // default: harnesses that need per-instance control (the fuzz matrix)
  // override through the setters after construction.
  if (const char *E = std::getenv("JITVS_SHAPES"))
    ShapesOn = !(std::strcmp(E, "off") == 0 || std::strcmp(E, "0") == 0);
  if (const char *E = std::getenv("JITVS_IC_WAYS"))
    setICWays(static_cast<unsigned>(std::strtoul(E, nullptr, 10)));
}

Runtime::~Runtime() {
  if (metricsEnabled())
    publishMetrics();
}

void Runtime::setICWays(unsigned N) {
  ICWays = std::max(1u, std::min(N, SiteFeedback::MaxICWays));
}

void Runtime::publishMetrics() {
  Metrics &M = metrics();
  for (const std::unique_ptr<Program> &P : Programs)
    for (size_t I = 0, E = P->numFunctions(); I != E; ++I) {
      const FunctionInfo *F = P->function(static_cast<uint32_t>(I));
      if (F->CallCount) {
        Metrics::FunctionMetrics Delta;
        Delta.Ticks = F->CallCount;
        M.mergeFunction(F->Name, Delta);
      }
    }
  M.addCounter("shape.shapes", Shapes.size());
  M.addCounter("ic.get.hits", TheICStats.GetHits);
  M.addCounter("ic.get.misses", TheICStats.GetMisses);
  M.addCounter("ic.set.hits", TheICStats.SetHits);
  M.addCounter("ic.set.misses", TheICStats.SetMisses);
  M.addCounter("ic.call.hits", TheICStats.CallHits);
  M.addCounter("ic.call.misses", TheICStats.CallMisses);
  M.addCounter("ic.sites.megamorphic", TheICStats.MegamorphicSites);
}

void Runtime::printLine(const std::string &S) {
  Output += S;
  Output += '\n';
  if (EchoOutput)
    std::fwrite((S + "\n").data(), 1, S.size() + 1, stdout);
}

//===----------------------------------------------------------------------===//
// Conversions
//===----------------------------------------------------------------------===//

double Runtime::toNumber(const Value &V) {
  switch (V.tag()) {
  case ValueTag::Undefined:
    return std::nan("");
  case ValueTag::Null:
    return 0.0;
  case ValueTag::Boolean:
    return V.asBoolean() ? 1.0 : 0.0;
  case ValueTag::Int32:
    return V.asInt32();
  case ValueTag::Double:
    return V.asDouble();
  case ValueTag::String: {
    const std::string &S = V.asString()->str();
    size_t Begin = S.find_first_not_of(" \t\n\r");
    if (Begin == std::string::npos)
      return 0.0;
    size_t End = S.find_last_not_of(" \t\n\r");
    std::string Trimmed = S.substr(Begin, End - Begin + 1);
    char *EndPtr = nullptr;
    double D = std::strtod(Trimmed.c_str(), &EndPtr);
    if (EndPtr != Trimmed.c_str() + Trimmed.size())
      return std::nan("");
    return D;
  }
  case ValueTag::Object:
  case ValueTag::Array:
  case ValueTag::Function:
    return std::nan("");
  }
  JITVS_UNREACHABLE("bad ValueTag");
}

int32_t Runtime::toInt32(double D) {
  if (std::isnan(D) || std::isinf(D))
    return 0;
  // ECMAScript ToInt32: truncate, then wrap modulo 2^32 into signed range.
  double T = std::trunc(D);
  double M = std::fmod(T, 4294967296.0);
  if (M < 0)
    M += 4294967296.0;
  uint32_t U = static_cast<uint32_t>(M);
  return static_cast<int32_t>(U);
}

double Runtime::jsMathRound(double D) {
  if (!std::isfinite(D))
    return D;
  // floor-then-adjust: computing D + 0.5 first can round up through a
  // double-rounding (0.49999999999999994 + 0.5 == 1.0). JS rounds halves
  // toward +inf, so bump when the fractional part is >= 0.5 exactly.
  double R = std::floor(D);
  if (D - R >= 0.5)
    R += 1.0;
  // Math.round is -0 for x in [-0.5, 0), but the +1.0 bump above lands
  // those inputs on +0.
  if (R == 0.0 && D < 0.0)
    return -0.0;
  return R;
}

static int32_t valueToInt32(const Value &V) {
  if (V.isInt32())
    return V.asInt32();
  return Runtime::toInt32(Runtime::toNumber(V));
}

//===----------------------------------------------------------------------===//
// Generic arithmetic
//===----------------------------------------------------------------------===//

Value Runtime::genericAdd(const Value &A, const Value &B) {
  if (A.isInt32() && B.isInt32()) {
    int32_t R;
    if (!__builtin_add_overflow(A.asInt32(), B.asInt32(), &R))
      return Value::int32(R);
    return Value::makeDouble(static_cast<double>(A.asInt32()) +
                             static_cast<double>(B.asInt32()));
  }
  if (A.isString() || B.isString()) {
    // Allocation never collects (safepoint-deferred GC), so A and B need
    // no rooting across newStringValue.
    return newStringValue(A.toDisplayString() + B.toDisplayString());
  }
  return Value::number(toNumber(A) + toNumber(B));
}

Value Runtime::genericSub(const Value &A, const Value &B) {
  if (A.isInt32() && B.isInt32()) {
    int32_t R;
    if (!__builtin_sub_overflow(A.asInt32(), B.asInt32(), &R))
      return Value::int32(R);
    return Value::makeDouble(static_cast<double>(A.asInt32()) -
                             static_cast<double>(B.asInt32()));
  }
  return Value::number(toNumber(A) - toNumber(B));
}

Value Runtime::genericMul(const Value &A, const Value &B) {
  if (A.isInt32() && B.isInt32()) {
    int32_t R;
    if (!__builtin_mul_overflow(A.asInt32(), B.asInt32(), &R)) {
      // Preserve -0: int path cannot represent it.
      if (R != 0 || (A.asInt32() >= 0 && B.asInt32() >= 0))
        return Value::int32(R);
    }
    return Value::makeDouble(static_cast<double>(A.asInt32()) *
                             static_cast<double>(B.asInt32()));
  }
  return Value::number(toNumber(A) * toNumber(B));
}

Value Runtime::genericDiv(const Value &A, const Value &B) {
  return Value::number(toNumber(A) / toNumber(B));
}

Value Runtime::genericMod(const Value &A, const Value &B) {
  if (A.isInt32() && B.isInt32()) {
    int32_t L = A.asInt32(), R = B.asInt32();
    if (R != 0 && !(L == INT32_MIN && R == -1) && !(L < 0 && L % R == 0))
      return Value::int32(L % R);
  }
  return Value::number(std::fmod(toNumber(A), toNumber(B)));
}

Value Runtime::genericNeg(const Value &A) {
  if (A.isInt32()) {
    int32_t I = A.asInt32();
    if (I != 0 && I != INT32_MIN)
      return Value::int32(-I);
  }
  return Value::makeDouble(-toNumber(A));
}

Value Runtime::genericBitOp(Op O, const Value &A, const Value &B) {
  int32_t L = valueToInt32(A);
  int32_t R = valueToInt32(B);
  switch (O) {
  case Op::BitAnd:
    return Value::int32(L & R);
  case Op::BitOr:
    return Value::int32(L | R);
  case Op::BitXor:
    return Value::int32(L ^ R);
  case Op::Shl:
    return Value::int32(L << (R & 31));
  case Op::Shr:
    return Value::int32(L >> (R & 31));
  case Op::UShr: {
    // Always a Double, even when the result fits int32: the MIR type of
    // UShr is Double (the result range exceeds int32), so the
    // interpreter, the constant folder and the native backend must agree
    // on the representation a UShr yields.
    uint32_t U = static_cast<uint32_t>(L) >> (R & 31);
    return Value::makeDouble(static_cast<double>(U));
  }
  default:
    JITVS_UNREACHABLE("not a bitwise op");
  }
}

Value Runtime::genericBitNot(const Value &A) {
  return Value::int32(~valueToInt32(A));
}

bool Runtime::genericLess(const Value &A, const Value &B) {
  if (A.isString() && B.isString())
    return A.asString()->str() < B.asString()->str();
  return toNumber(A) < toNumber(B);
}

bool Runtime::genericLessEq(const Value &A, const Value &B) {
  if (A.isString() && B.isString())
    return A.asString()->str() <= B.asString()->str();
  return toNumber(A) <= toNumber(B);
}

bool Runtime::genericLooseEquals(const Value &A, const Value &B) {
  if (A.tag() == B.tag() || (A.isNumber() && B.isNumber()))
    return A.strictEquals(B);
  // null == undefined.
  if ((A.isNull() && B.isUndefined()) || (A.isUndefined() && B.isNull()))
    return true;
  // Numeric coercion for number/boolean/string mixes.
  bool ANum = A.isNumber() || A.isBoolean() || A.isString();
  bool BNum = B.isNumber() || B.isBoolean() || B.isString();
  if (ANum && BNum)
    return toNumber(A) == toNumber(B);
  return false;
}

//===----------------------------------------------------------------------===//
// Elements and properties
//===----------------------------------------------------------------------===//

/// \returns the integer index of \p V, or -1 when it is not an exact
/// non-negative integer index.
static int64_t asElementIndex(const Value &V) {
  if (V.isInt32())
    return V.asInt32() < 0 ? -1 : V.asInt32();
  if (V.isDouble()) {
    double D = V.asDouble();
    int64_t I = static_cast<int64_t>(D);
    if (static_cast<double>(I) == D && I >= 0)
      return I;
  }
  return -1;
}

Value Runtime::genericGetElem(const Value &Obj, const Value &Index,
                              bool *OutOfBounds) {
  switch (Obj.tag()) {
  case ValueTag::Array: {
    JSArray *A = Obj.asArray();
    int64_t I = asElementIndex(Index);
    if (I < 0 || static_cast<size_t>(I) >= A->length()) {
      if (OutOfBounds)
        *OutOfBounds = true;
      return Value::undefined();
    }
    return A->getDense(static_cast<size_t>(I));
  }
  case ValueTag::String: {
    JSString *S = Obj.asString();
    int64_t I = asElementIndex(Index);
    if (I < 0 || static_cast<size_t>(I) >= S->length()) {
      if (OutOfBounds)
        *OutOfBounds = true;
      return Value::undefined();
    }
    return newStringValue(std::string(1, S->str()[static_cast<size_t>(I)]));
  }
  case ValueTag::Object: {
    std::string Key = Index.toDisplayString();
    uint32_t Id = Prog->names().intern(Key);
    return Obj.asObject()->getProperty(Id);
  }
  case ValueTag::Undefined:
  case ValueTag::Null:
    fail("cannot read element of " + std::string(Obj.typeOfString()));
    return Value::undefined();
  default:
    return Value::undefined();
  }
}

Value Runtime::genericSetElem(const Value &Obj, const Value &Index,
                              const Value &V, bool *OutOfBounds) {
  switch (Obj.tag()) {
  case ValueTag::Array: {
    JSArray *A = Obj.asArray();
    int64_t I = asElementIndex(Index);
    if (OutOfBounds && (I < 0 || static_cast<size_t>(I) >= A->length()))
      *OutOfBounds = true;
    if (I < 0)
      return V; // Negative / non-index keys on arrays are ignored.
    A->setElement(I, V);
    TheHeap.writeBarrier(A, V);
    return V;
  }
  case ValueTag::Object: {
    std::string Key = Index.toDisplayString();
    uint32_t Id = Prog->names().intern(Key);
    Obj.asObject()->setProperty(Shapes, Id, V);
    TheHeap.writeBarrier(Obj.asObject(), V);
    return V;
  }
  case ValueTag::Undefined:
  case ValueTag::Null:
    fail("cannot set element of " + std::string(Obj.typeOfString()));
    return Value::undefined();
  default:
    return V;
  }
}

Value Runtime::genericGetProp(const Value &Obj, uint32_t NameId) {
  switch (Obj.tag()) {
  case ValueTag::Object:
    return Obj.asObject()->getProperty(NameId);
  case ValueTag::Array:
    if (NameId == LengthId)
      return Value::number(static_cast<double>(Obj.asArray()->length()));
    return Value::undefined();
  case ValueTag::String:
    if (NameId == LengthId)
      return Value::number(static_cast<double>(Obj.asString()->length()));
    return Value::undefined();
  case ValueTag::Undefined:
  case ValueTag::Null:
    fail("cannot read property '" + nameOf(NameId) + "' of " +
         std::string(Obj.typeOfString()));
    return Value::undefined();
  default:
    return Value::undefined();
  }
}

Value Runtime::genericSetProp(const Value &Obj, uint32_t NameId,
                              const Value &V) {
  switch (Obj.tag()) {
  case ValueTag::Object:
    Obj.asObject()->setProperty(Shapes, NameId, V);
    TheHeap.writeBarrier(Obj.asObject(), V);
    return V;
  case ValueTag::Array:
    if (NameId == LengthId) {
      int64_t NewLen = asElementIndex(V);
      if (NewLen >= 0) {
        // Resizing through the generic path; shrink or grow with holes.
        // Growth honors the same dense ceiling as setElement: a stray
        // `a.length = 1e9` must not materialize gigabytes of filler.
        NewLen = std::min(NewLen, JSArray::MaxDenseLength);
        JSArray *A = Obj.asArray();
        std::vector<Value> Elems = A->elements();
        Elems.resize(static_cast<size_t>(NewLen));
        // NOT `*A = JSArray(...)`: whole-object assignment would clobber
        // the GC header (GCObject::operator= is deleted for exactly this
        // reason — the seed's assignment here truncated the heap list).
        A->replaceElements(std::move(Elems));
        TheHeap.writeBarrierAll(A);
      }
    }
    return V;
  case ValueTag::Undefined:
  case ValueTag::Null:
    fail("cannot set property '" + nameOf(NameId) + "' of " +
         std::string(Obj.typeOfString()));
    return Value::undefined();
  default:
    return V;
  }
}

Value Runtime::typeOfValue(const Value &V) {
  // Cache the six result strings; indexes match the order below.
  static const char *const Names[6] = {"undefined", "object",  "boolean",
                                       "number",    "string",  "function"};
  if (!TypeofStringsReady) {
    for (unsigned I = 0; I != 6; ++I)
      TypeofStrings[I] = newStringValue(Names[I]);
    TypeofStringsReady = true;
  }
  unsigned Idx;
  switch (V.tag()) {
  case ValueTag::Undefined:
    Idx = 0;
    break;
  case ValueTag::Null:
  case ValueTag::Object:
  case ValueTag::Array:
    Idx = 1;
    break;
  case ValueTag::Boolean:
    Idx = 2;
    break;
  case ValueTag::Int32:
  case ValueTag::Double:
    Idx = 3;
    break;
  case ValueTag::String:
    Idx = 4;
    break;
  case ValueTag::Function:
    Idx = 5;
    break;
  default:
    JITVS_UNREACHABLE("bad ValueTag");
  }
  return TypeofStrings[Idx];
}

//===----------------------------------------------------------------------===//
// Method dispatch (array and string builtin methods)
//===----------------------------------------------------------------------===//

Value Runtime::callMethod(const Value &Recv, uint32_t NameId,
                          const Value *Args, size_t NumArgs) {
  if (Recv.isObject()) {
    Value Callee = Recv.asObject()->getProperty(NameId);
    if (!Callee.isFunction()) {
      fail("'" + nameOf(NameId) + "' is not a function");
      return Value::undefined();
    }
    return callValue(Callee, Recv, Args, NumArgs);
  }

  const std::string &Name = nameOf(NameId);

  if (Recv.isArray()) {
    JSArray *A = Recv.asArray();
    if (Name == "push") {
      for (size_t I = 0; I != NumArgs; ++I) {
        A->push(Args[I]);
        TheHeap.writeBarrier(A, Args[I]);
      }
      return Value::number(static_cast<double>(A->length()));
    }
    if (Name == "pop")
      return A->pop();
    if (Name == "join") {
      std::string Sep = NumArgs > 0 ? Args[0].toDisplayString() : ",";
      std::string Out;
      for (size_t I = 0, E = A->length(); I != E; ++I) {
        if (I)
          Out += Sep;
        const Value &Elem = A->getDense(I);
        if (!Elem.isUndefined() && !Elem.isNull())
          Out += Elem.toDisplayString();
      }
      return newStringValue(std::move(Out));
    }
    if (Name == "indexOf") {
      if (NumArgs == 0)
        return Value::int32(-1);
      for (size_t I = 0, E = A->length(); I != E; ++I)
        if (A->getDense(I).strictEquals(Args[0]))
          return Value::number(static_cast<double>(I));
      return Value::int32(-1);
    }
    if (Name == "slice") {
      int64_t Len = static_cast<int64_t>(A->length());
      int64_t Begin = NumArgs > 0 ? static_cast<int64_t>(toNumber(Args[0])) : 0;
      int64_t End = NumArgs > 1 ? static_cast<int64_t>(toNumber(Args[1])) : Len;
      if (Begin < 0)
        Begin += Len;
      if (End < 0)
        End += Len;
      Begin = std::clamp<int64_t>(Begin, 0, Len);
      End = std::clamp<int64_t>(End, Begin, Len);
      std::vector<Value> Elems(A->elements().begin() + Begin,
                               A->elements().begin() + End);
      return Value::array(TheHeap.allocate<JSArray>(std::move(Elems)));
    }
    if (Name == "reverse") {
      std::vector<Value> Elems = A->elements();
      std::reverse(Elems.begin(), Elems.end());
      for (size_t I = 0, E = Elems.size(); I != E; ++I)
        A->setDense(I, Elems[I]);
      return Recv;
    }
    if (Name == "shift") {
      if (A->length() == 0)
        return Value::undefined();
      Value First = A->getDense(0);
      std::vector<Value> Elems(A->elements().begin() + 1,
                               A->elements().end());
      // replaceElements, not `*A = JSArray(...)`: whole-object assignment
      // would clobber the GC header (see GCObject::operator=).
      A->replaceElements(std::move(Elems));
      TheHeap.writeBarrierAll(A);
      return First;
    }
    if (Name == "concat") {
      std::vector<Value> Elems = A->elements();
      for (size_t I = 0; I != NumArgs; ++I) {
        if (Args[I].isArray()) {
          const auto &More = Args[I].asArray()->elements();
          Elems.insert(Elems.end(), More.begin(), More.end());
        } else {
          Elems.push_back(Args[I]);
        }
      }
      return Value::array(TheHeap.allocate<JSArray>(std::move(Elems)));
    }
    if (Name == "sort") {
      TempRoots Roots(TheHeap);
      Value RecvRoot = Recv;
      Roots.add(RecvRoot);
      std::vector<Value> Elems = A->elements();
      Roots.addVector(Elems);
      if (NumArgs > 0 && Args[0].isFunction()) {
        // Hand-rolled bottom-up stable merge sort. std::stable_sort
        // would hold unrooted Value temporaries inside the algorithm
        // while the user comparator runs (and callValue is a safepoint
        // where the collector moves objects), so every value the sort
        // touches must live in the two rooted vectors.
        Value Cmp = Args[0];
        Roots.add(Cmp);
        std::vector<Value> Aux(Elems.size());
        Roots.addVector(Aux);
        auto Less = [this, &Cmp](const Value &X, const Value &Y) {
          if (hasError())
            return false;
          Value Pair[2] = {X, Y};
          Value R = callValue(Cmp, Value::undefined(), Pair, 2);
          return toNumber(R) < 0;
        };
        size_t N = Elems.size();
        for (size_t Width = 1; Width < N; Width *= 2) {
          for (size_t Lo = 0; Lo + Width < N; Lo += 2 * Width) {
            size_t Mid = Lo + Width;
            size_t Hi = std::min(Lo + 2 * Width, N);
            size_t L = Lo, R = Mid, O = Lo;
            while (L < Mid && R < Hi) {
              // Stable: take the left run's element unless right < left.
              if (Less(Elems[R], Elems[L]))
                Aux[O++] = Elems[R++];
              else
                Aux[O++] = Elems[L++];
            }
            while (L < Mid)
              Aux[O++] = Elems[L++];
            while (R < Hi)
              Aux[O++] = Elems[R++];
            for (size_t I = Lo; I < Hi; ++I)
              Elems[I] = Aux[I];
          }
        }
      } else {
        // No user code runs in this comparator, so no safepoint can
        // interleave with the algorithm's internal temporaries.
        std::stable_sort(Elems.begin(), Elems.end(),
                         [](const Value &X, const Value &Y) {
                           return X.toDisplayString() < Y.toDisplayString();
                         });
      }
      // The comparator may have run a moving collection: re-derive the
      // array from the rooted receiver before writing back.
      JSArray *Arr = RecvRoot.asArray();
      for (size_t I = 0, E = Elems.size(); I != E; ++I)
        Arr->setDense(I, Elems[I]);
      TheHeap.writeBarrierAll(Arr);
      return RecvRoot;
    }
    fail("array has no method '" + Name + "'");
    return Value::undefined();
  }

  if (Recv.isString()) {
    const std::string &S = Recv.asString()->str();
    int64_t Len = static_cast<int64_t>(S.size());
    if (Name == "charCodeAt") {
      int64_t I = NumArgs > 0 ? static_cast<int64_t>(toNumber(Args[0])) : 0;
      if (I < 0 || I >= Len)
        return Value::makeDouble(std::nan(""));
      return Value::int32(static_cast<unsigned char>(S[I]));
    }
    if (Name == "charAt") {
      int64_t I = NumArgs > 0 ? static_cast<int64_t>(toNumber(Args[0])) : 0;
      if (I < 0 || I >= Len)
        return newStringValue("");
      return newStringValue(std::string(1, S[I]));
    }
    if (Name == "substring" || Name == "slice") {
      int64_t Begin = NumArgs > 0 ? static_cast<int64_t>(toNumber(Args[0])) : 0;
      int64_t End = NumArgs > 1 ? static_cast<int64_t>(toNumber(Args[1])) : Len;
      if (Name == "slice") {
        if (Begin < 0)
          Begin += Len;
        if (End < 0)
          End += Len;
      }
      Begin = std::clamp<int64_t>(Begin, 0, Len);
      End = std::clamp<int64_t>(End, 0, Len);
      if (Name == "substring" && Begin > End)
        std::swap(Begin, End);
      if (Begin > End)
        return newStringValue("");
      return newStringValue(S.substr(Begin, End - Begin));
    }
    if (Name == "indexOf") {
      if (NumArgs == 0)
        return Value::int32(-1);
      size_t P = S.find(Args[0].toDisplayString());
      return Value::int32(P == std::string::npos ? -1
                                                 : static_cast<int32_t>(P));
    }
    if (Name == "split") {
      std::string Sep = NumArgs > 0 ? Args[0].toDisplayString() : "";
      // No rooting needed: allocation never collects, and nothing below
      // reaches a safepoint, so Out and the pushed strings stay put.
      JSArray *Out = TheHeap.allocate<JSArray>();
      if (Sep.empty()) {
        for (char C : S)
          Out->push(newStringValue(std::string(1, C)));
      } else {
        size_t Pos = 0;
        while (true) {
          size_t Next = S.find(Sep, Pos);
          if (Next == std::string::npos) {
            Out->push(newStringValue(S.substr(Pos)));
            break;
          }
          Out->push(newStringValue(S.substr(Pos, Next - Pos)));
          Pos = Next + Sep.size();
        }
      }
      return Value::array(Out);
    }
    if (Name == "toUpperCase" || Name == "toLowerCase") {
      std::string Out = S;
      for (char &C : Out)
        C = Name[2] == 'U' ? static_cast<char>(std::toupper(
                                 static_cast<unsigned char>(C)))
                           : static_cast<char>(std::tolower(
                                 static_cast<unsigned char>(C)));
      return newStringValue(std::move(Out));
    }
    fail("string has no method '" + Name + "'");
    return Value::undefined();
  }

  fail("cannot call method '" + Name + "' on " +
       std::string(Recv.typeOfString()));
  return Value::undefined();
}

//===----------------------------------------------------------------------===//
// Call dispatch
//===----------------------------------------------------------------------===//

namespace {

/// Roots one call's callee, receiver and argument span for the call's
/// duration. Callee/this are rooted as private copies (the caller's
/// originals may be unrooted temporaries); the argument span is rooted
/// *in place* — every callValue caller passes arguments backed by
/// updatable storage (the interpreter's value stack, the native
/// executor's ArgStage, callGlobal's vector, or builtin stack arrays),
/// so a moving collection rewrites the storage the callee will read.
class CallRoots final : public RootSource {
public:
  CallRoots(Heap &H, const Value &Callee, const Value &ThisV,
            const Value *Args, size_t NumArgs)
      : Callee(Callee), ThisV(ThisV), TheHeap(H),
        Args(const_cast<Value *>(Args)), NumArgs(NumArgs) {
    TheHeap.addRootSource(this);
  }
  ~CallRoots() override { TheHeap.removeRootSource(this); }

  void traceRoots(GCVisitor &Visitor) override {
    Visitor.visit(Callee);
    Visitor.visit(ThisV);
    for (size_t I = 0; I != NumArgs; ++I)
      Visitor.visit(Args[I]);
  }

  Value Callee; ///< Rooted copy; use instead of the ctor argument.
  Value ThisV;  ///< Rooted copy; use instead of the ctor argument.

private:
  Heap &TheHeap;
  Value *Args;
  size_t NumArgs;
};

} // namespace

Value Runtime::callValue(const Value &Callee, const Value &ThisV,
                         const Value *Args, size_t NumArgs) {
  if (hasError())
    return Value::undefined();
  if (!Callee.isFunction()) {
    fail(Callee.toDisplayString() + " is not a function");
    return Value::undefined();
  }
  if (!enterCall())
    return Value::undefined();

  // Call entry is a safepoint: with the call's inputs rooted just above,
  // any collection requested since the last dispatch boundary runs here,
  // before the callee pointer is materialized.
  CallRoots Roots(TheHeap, Callee, ThisV, Args, NumArgs);
  TheHeap.safepoint();
  JSFunction *F = Roots.Callee.asFunction();

  Value Result;
  if (F->isNative()) {
    Result = F->native()(*this, Roots.ThisV, Args, NumArgs);
  } else {
    ++F->info()->CallCount;
    bool Handled = false;
    if (Hooks)
      Handled = Hooks->onCall(F, Roots.ThisV, Args, NumArgs, Result);
    if (!Handled) {
      // The hook may have run a moving collection (it tenures compile
      // -task snapshots); re-derive the callee from its rooted slot.
      F = Roots.Callee.asFunction();
      Result = interpretCall(F, Roots.ThisV, Args, NumArgs);
    }
  }
  leaveCall();
  return Result;
}

Value Runtime::construct(const Value &Callee, const Value *Args,
                         size_t NumArgs) {
  if (!Callee.isFunction()) {
    fail(Callee.toDisplayString() + " is not a constructor");
    return Value::undefined();
  }
  JSFunction *F = Callee.asFunction();
  if (F->isNative())
    return F->native()(*this, Value::undefined(), Args, NumArgs);

  JSObject *Obj = TheHeap.allocate<JSObject>(Shapes.root());
  TempRoots Roots(TheHeap);
  Value ThisV = Value::object(Obj);
  Roots.add(ThisV);
  Value R = callValue(Callee, ThisV, Args, NumArgs);
  if (R.isObject() || R.isArray() || R.isFunction())
    return R;
  return ThisV;
}

Value Runtime::interpretCall(JSFunction *Callee, const Value &ThisV,
                             const Value *Args, size_t NumArgs) {
  Interpreter Interp(*this);
  return Interp.invoke(Callee, ThisV, Args, NumArgs);
}

Value Runtime::resumeFrame(InterpFrame &Frame) {
  Interpreter Interp(*this);
  return Interp.execute(Frame);
}

//===----------------------------------------------------------------------===//
// Builtins
//===----------------------------------------------------------------------===//

namespace {

Value builtinPrint(Runtime &RT, const Value &, const Value *Args,
                   size_t NumArgs) {
  std::string Line;
  for (size_t I = 0; I != NumArgs; ++I) {
    if (I)
      Line += ' ';
    Line += Args[I].toDisplayString();
  }
  RT.printLine(Line);
  return Value::undefined();
}

Value builtinArray(Runtime &RT, const Value &, const Value *Args,
                   size_t NumArgs) {
  if (NumArgs == 1 && Args[0].isNumber()) {
    int64_t N = static_cast<int64_t>(Runtime::toNumber(Args[0]));
    if (N < 0) {
      RT.fail("invalid array length");
      return Value::undefined();
    }
    std::vector<Value> Elems(static_cast<size_t>(N));
    return Value::array(RT.heap().allocate<JSArray>(std::move(Elems)));
  }
  std::vector<Value> Elems(Args, Args + NumArgs);
  return Value::array(RT.heap().allocate<JSArray>(std::move(Elems)));
}

Value builtinFromCharCode(Runtime &RT, const Value &, const Value *Args,
                          size_t NumArgs) {
  std::string S;
  for (size_t I = 0; I != NumArgs; ++I)
    S += static_cast<char>(Runtime::toInt32(Runtime::toNumber(Args[I])) & 0xFF);
  return RT.newStringValue(std::move(S));
}

Value builtinIsNaN(Runtime &RT, const Value &, const Value *Args,
                   size_t NumArgs) {
  double D = NumArgs > 0 ? Runtime::toNumber(Args[0]) : std::nan("");
  return Value::boolean(std::isnan(D));
}

Value builtinParseInt(Runtime &RT, const Value &, const Value *Args,
                      size_t NumArgs) {
  if (NumArgs == 0)
    return Value::makeDouble(std::nan(""));
  std::string S = Args[0].toDisplayString();
  int Radix = NumArgs > 1 ? Runtime::toInt32(Runtime::toNumber(Args[1])) : 10;
  if (Radix == 0)
    Radix = 10;
  char *End = nullptr;
  long long V = std::strtoll(S.c_str(), &End, Radix);
  if (End == S.c_str())
    return Value::makeDouble(std::nan(""));
  return Value::number(static_cast<double>(V));
}

Value builtinParseFloat(Runtime &RT, const Value &, const Value *Args,
                        size_t NumArgs) {
  if (NumArgs == 0)
    return Value::makeDouble(std::nan(""));
  std::string S = Args[0].toDisplayString();
  char *End = nullptr;
  double V = std::strtod(S.c_str(), &End);
  if (End == S.c_str())
    return Value::makeDouble(std::nan(""));
  return Value::number(V);
}

Value builtinGC(Runtime &RT, const Value &, const Value *, size_t) {
  RT.heap().collect();
  return Value::undefined();
}

double arg0(const Value *Args, size_t NumArgs) {
  return NumArgs > 0 ? Runtime::toNumber(Args[0]) : std::nan("");
}
double arg1(const Value *Args, size_t NumArgs) {
  return NumArgs > 1 ? Runtime::toNumber(Args[1]) : std::nan("");
}

Value mathSin(Runtime &, const Value &, const Value *A, size_t N) {
  return Value::makeDouble(std::sin(arg0(A, N)));
}
Value mathCos(Runtime &, const Value &, const Value *A, size_t N) {
  return Value::makeDouble(std::cos(arg0(A, N)));
}
Value mathTan(Runtime &, const Value &, const Value *A, size_t N) {
  return Value::makeDouble(std::tan(arg0(A, N)));
}
Value mathAtan(Runtime &, const Value &, const Value *A, size_t N) {
  return Value::makeDouble(std::atan(arg0(A, N)));
}
Value mathAtan2(Runtime &, const Value &, const Value *A, size_t N) {
  return Value::makeDouble(std::atan2(arg0(A, N), arg1(A, N)));
}
Value mathSqrt(Runtime &, const Value &, const Value *A, size_t N) {
  return Value::makeDouble(std::sqrt(arg0(A, N)));
}
Value mathAbs(Runtime &, const Value &, const Value *A, size_t N) {
  if (N > 0 && A[0].isInt32() && A[0].asInt32() != INT32_MIN)
    return Value::int32(std::abs(A[0].asInt32()));
  return Value::makeDouble(std::fabs(arg0(A, N)));
}
Value mathFloor(Runtime &, const Value &, const Value *A, size_t N) {
  if (N > 0 && A[0].isInt32())
    return A[0];
  return Value::number(std::floor(arg0(A, N)));
}
Value mathCeil(Runtime &, const Value &, const Value *A, size_t N) {
  if (N > 0 && A[0].isInt32())
    return A[0];
  return Value::number(std::ceil(arg0(A, N)));
}
Value mathRound(Runtime &, const Value &, const Value *A, size_t N) {
  if (N > 0 && A[0].isInt32())
    return A[0];
  return Value::number(Runtime::jsMathRound(arg0(A, N)));
}
Value mathPow(Runtime &, const Value &, const Value *A, size_t N) {
  return Value::number(std::pow(arg0(A, N), arg1(A, N)));
}
Value mathLog(Runtime &, const Value &, const Value *A, size_t N) {
  return Value::makeDouble(std::log(arg0(A, N)));
}
Value mathExp(Runtime &, const Value &, const Value *A, size_t N) {
  return Value::makeDouble(std::exp(arg0(A, N)));
}
Value mathMin(Runtime &, const Value &, const Value *A, size_t N) {
  double Best = std::numeric_limits<double>::infinity();
  for (size_t I = 0; I != N; ++I)
    Best = std::min(Best, Runtime::toNumber(A[I]));
  return Value::number(Best);
}
Value mathMax(Runtime &, const Value &, const Value *A, size_t N) {
  double Best = -std::numeric_limits<double>::infinity();
  for (size_t I = 0; I != N; ++I)
    Best = std::max(Best, Runtime::toNumber(A[I]));
  return Value::number(Best);
}
Value mathRandom(Runtime &RT, const Value &, const Value *, size_t) {
  return Value::makeDouble(RT.rng().nextDouble());
}

} // namespace

void Runtime::installGlobals() {
  Globals.assign(Prog->numGlobals(), Value::undefined());
  LengthId = Prog->names().intern("length");

  auto DefineFn = [this](const std::string &Name, NativeFn Fn) {
    Value V = Value::function(TheHeap.allocate<JSFunction>(Fn, Name));
    InternalRoots.push_back(V);
    return V;
  };

  for (uint32_t Slot = 0; Slot != Prog->numGlobals(); ++Slot) {
    const std::string &Name = Prog->globalName(Slot);
    if (Name == "print")
      Globals[Slot] = DefineFn("print", builtinPrint);
    else if (Name == "Array")
      Globals[Slot] = DefineFn("Array", builtinArray);
    else if (Name == "isNaN")
      Globals[Slot] = DefineFn("isNaN", builtinIsNaN);
    else if (Name == "parseInt")
      Globals[Slot] = DefineFn("parseInt", builtinParseInt);
    else if (Name == "parseFloat")
      Globals[Slot] = DefineFn("parseFloat", builtinParseFloat);
    else if (Name == "gc")
      Globals[Slot] = DefineFn("gc", builtinGC);
    else if (Name == "Infinity")
      Globals[Slot] = Value::makeDouble(std::numeric_limits<double>::infinity());
    else if (Name == "NaN")
      Globals[Slot] = Value::makeDouble(std::nan(""));
    else if (Name == "Math") {
      JSObject *Math = TheHeap.allocate<JSObject>(Shapes.root());
      Value MathV = Value::object(Math);
      InternalRoots.push_back(MathV);
      auto Def = [&](const char *N, NativeFn Fn) {
        Math->setProperty(Shapes, Prog->names().intern(N), DefineFn(N, Fn));
      };
      Def("sin", mathSin);
      Def("cos", mathCos);
      Def("tan", mathTan);
      Def("atan", mathAtan);
      Def("atan2", mathAtan2);
      Def("sqrt", mathSqrt);
      Def("abs", mathAbs);
      Def("floor", mathFloor);
      Def("ceil", mathCeil);
      Def("round", mathRound);
      Def("pow", mathPow);
      Def("log", mathLog);
      Def("exp", mathExp);
      Def("min", mathMin);
      Def("max", mathMax);
      Def("random", mathRandom);
      Math->setProperty(Shapes, Prog->names().intern("PI"),
                        Value::makeDouble(3.141592653589793));
      Math->setProperty(Shapes, Prog->names().intern("E"),
                        Value::makeDouble(2.718281828459045));
      Globals[Slot] = MathV;
    } else if (Name == "String") {
      JSObject *Str = TheHeap.allocate<JSObject>(Shapes.root());
      Value StrV = Value::object(Str);
      InternalRoots.push_back(StrV);
      Str->setProperty(Shapes, Prog->names().intern("fromCharCode"),
                       DefineFn("fromCharCode", builtinFromCharCode));
      Globals[Slot] = StrV;
    }
  }
}

//===----------------------------------------------------------------------===//
// Top-level entry points
//===----------------------------------------------------------------------===//

bool Runtime::load(const std::string &Source) {
  clearError();
  CompileResult CR = compileSource(Source, TheHeap);
  if (!CR.ok()) {
    fail("compile error: " + CR.Error);
    return false;
  }
  Prog = CR.Prog.get();
  Programs.push_back(std::move(CR.Prog));
  installGlobals();
  // Tenure everything allocated so far — the program's constant-pool
  // strings/functions and the builtins just installed. Compile workers
  // read the constant pool lock-free, so nothing reachable from it may
  // sit in the (moving) nursery once compiles can start.
  if (TheHeap.nurseryEnabled())
    TheHeap.minorCollect();
  return true;
}

Value Runtime::run() {
  if (!Prog) {
    fail("no program loaded");
    return Value::undefined();
  }
  FunctionInfo *Main = Prog->main();
  // Top-level code runs as a closure with no environment.
  JSFunction *MainFn = TheHeap.allocate<JSFunction>(Main, nullptr);
  TempRoots Roots(TheHeap);
  Value MainV = Value::function(MainFn);
  Roots.add(MainV);
  if (!enterCall())
    return Value::undefined();
  Value R = interpretCall(MainV.asFunction(), Value::undefined(), nullptr, 0);
  leaveCall();
  return R;
}

Value Runtime::evaluate(const std::string &Source) {
  MetricsPhaseTimer ScriptPhase(Phase::Script);
  if (!telemetryEnabled(TelScript)) {
    if (!load(Source))
      return Value::undefined();
    return run();
  }
  uint64_t StartNs = telemetry().nowNs();
  Value R = load(Source) ? run() : Value::undefined();
  TelemetryEvent E;
  E.Kind = TelemetryEventKind::Script;
  E.setDetail("evaluate");
  E.DurNs = telemetry().nowNs() - StartNs;
  telemetry().record(E);
  return R;
}

Value Runtime::callGlobal(const std::string &Name,
                          const std::vector<Value> &Args) {
  if (!Prog) {
    fail("no program loaded");
    return Value::undefined();
  }
  uint32_t Slot = Prog->globalSlot(Name);
  if (Slot >= Globals.size()) {
    fail("unknown global '" + Name + "'");
    return Value::undefined();
  }
  return callValue(Globals[Slot], Value::undefined(),
                   Args.empty() ? nullptr : Args.data(), Args.size());
}
