//===- vm/Value.cpp - Boxed value operations ------------------------------===//

#include "vm/Value.h"

#include "vm/Object.h"

#include <cinttypes>
#include <cmath>
#include <cstring>

using namespace jitvs;

const char *jitvs::valueTagName(ValueTag Tag) {
  switch (Tag) {
  case ValueTag::Undefined:
    return "undefined";
  case ValueTag::Null:
    return "null";
  case ValueTag::Boolean:
    return "boolean";
  case ValueTag::Int32:
    return "int32";
  case ValueTag::Double:
    return "double";
  case ValueTag::String:
    return "string";
  case ValueTag::Object:
    return "object";
  case ValueTag::Array:
    return "array";
  case ValueTag::Function:
    return "function";
  }
  JITVS_UNREACHABLE("bad ValueTag");
}

Value Value::string(JSString *S) {
  assert(S && "null string payload");
  Value V;
  V.Tag = ValueTag::String;
  V.Payload.Obj = S;
  return V;
}

Value Value::array(JSArray *A) {
  assert(A && "null array payload");
  Value V;
  V.Tag = ValueTag::Array;
  V.Payload.Obj = A;
  return V;
}

Value Value::object(JSObject *O) {
  assert(O && "null object payload");
  Value V;
  V.Tag = ValueTag::Object;
  V.Payload.Obj = O;
  return V;
}

Value Value::function(JSFunction *F) {
  assert(F && "null function payload");
  Value V;
  V.Tag = ValueTag::Function;
  V.Payload.Obj = F;
  return V;
}

bool Value::toBooleanSlow() const {
  switch (Tag) {
  case ValueTag::Undefined:
  case ValueTag::Null:
    return false;
  case ValueTag::Boolean:
    return Payload.B;
  case ValueTag::Int32:
    return Payload.I != 0;
  case ValueTag::Double:
    return Payload.D != 0.0 && !std::isnan(Payload.D);
  case ValueTag::String:
    return asString()->length() != 0;
  case ValueTag::Object:
  case ValueTag::Array:
  case ValueTag::Function:
    return true;
  }
  JITVS_UNREACHABLE("bad ValueTag");
}

bool Value::strictEquals(const Value &Other) const {
  if (isNumber() && Other.isNumber())
    return asNumber() == Other.asNumber();
  if (Tag != Other.Tag)
    return false;
  switch (Tag) {
  case ValueTag::Undefined:
  case ValueTag::Null:
    return true;
  case ValueTag::Boolean:
    return Payload.B == Other.Payload.B;
  case ValueTag::String:
    return asString()->str() == Other.asString()->str();
  case ValueTag::Object:
  case ValueTag::Array:
  case ValueTag::Function:
    return Payload.Obj == Other.Payload.Obj;
  case ValueTag::Int32:
  case ValueTag::Double:
    break; // Handled by the numeric fast path above.
  }
  JITVS_UNREACHABLE("bad ValueTag");
}

bool Value::sameSpecializationValue(const Value &Other) const {
  if (Tag != Other.Tag)
    return false;
  switch (Tag) {
  case ValueTag::Undefined:
  case ValueTag::Null:
    return true;
  case ValueTag::Boolean:
    return Payload.B == Other.Payload.B;
  case ValueTag::Int32:
    return Payload.I == Other.Payload.I;
  case ValueTag::Double: {
    // Bitwise so that NaN == NaN for caching purposes.
    uint64_t A, B;
    std::memcpy(&A, &Payload.D, sizeof(A));
    std::memcpy(&B, &Other.Payload.D, sizeof(B));
    return A == B;
  }
  case ValueTag::String:
    return asString()->str() == Other.asString()->str();
  case ValueTag::Object:
  case ValueTag::Array:
  case ValueTag::Function:
    return Payload.Obj == Other.Payload.Obj;
  }
  JITVS_UNREACHABLE("bad ValueTag");
}

uint64_t Value::specializationHash() const {
  uint64_t H = static_cast<uint64_t>(Tag) * 0x9e3779b97f4a7c15ull;
  auto Mix = [&H](uint64_t X) {
    H ^= X + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  };
  switch (Tag) {
  case ValueTag::Undefined:
  case ValueTag::Null:
    break;
  case ValueTag::Boolean:
    Mix(Payload.B ? 1 : 2);
    break;
  case ValueTag::Int32:
    Mix(static_cast<uint64_t>(static_cast<uint32_t>(Payload.I)));
    break;
  case ValueTag::Double: {
    uint64_t Bits;
    std::memcpy(&Bits, &Payload.D, sizeof(Bits));
    Mix(Bits);
    break;
  }
  case ValueTag::String: {
    uint64_t SH = 1469598103934665603ull;
    for (char C : asString()->str()) {
      SH ^= static_cast<unsigned char>(C);
      SH *= 1099511628211ull;
    }
    Mix(SH);
    break;
  }
  case ValueTag::Object:
  case ValueTag::Array:
  case ValueTag::Function:
    Mix(reinterpret_cast<uint64_t>(Payload.Obj));
    break;
  }
  return H;
}

const char *Value::typeOfString() const {
  switch (Tag) {
  case ValueTag::Undefined:
    return "undefined";
  case ValueTag::Null:
    return "object";
  case ValueTag::Boolean:
    return "boolean";
  case ValueTag::Int32:
  case ValueTag::Double:
    return "number";
  case ValueTag::String:
    return "string";
  case ValueTag::Object:
  case ValueTag::Array:
    return "object";
  case ValueTag::Function:
    return "function";
  }
  JITVS_UNREACHABLE("bad ValueTag");
}

/// Renders \p D the way our `print` builtin does: integral doubles print
/// without a decimal point, others with up to 12 significant digits. This
/// only needs to be *deterministic* across optimization configurations,
/// not identical to ECMAScript's shortest round-trip algorithm.
static std::string formatNumber(double D) {
  if (std::isnan(D))
    return "NaN";
  if (std::isinf(D))
    return D > 0 ? "Infinity" : "-Infinity";
  if (D == static_cast<int64_t>(D) && std::fabs(D) < 1e15) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%" PRId64, static_cast<int64_t>(D));
    return Buf;
  }
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.12g", D);
  return Buf;
}

std::string Value::toDisplayString() const {
  switch (Tag) {
  case ValueTag::Undefined:
    return "undefined";
  case ValueTag::Null:
    return "null";
  case ValueTag::Boolean:
    return Payload.B ? "true" : "false";
  case ValueTag::Int32: {
    char Buf[16];
    std::snprintf(Buf, sizeof(Buf), "%d", Payload.I);
    return Buf;
  }
  case ValueTag::Double:
    return formatNumber(Payload.D);
  case ValueTag::String:
    return asString()->str();
  case ValueTag::Array: {
    // Arrays print as comma-joined elements, like Array.prototype.toString.
    std::string Out;
    const JSArray *A = asArray();
    for (size_t I = 0, E = A->length(); I != E; ++I) {
      if (I)
        Out += ',';
      const Value &Elem = A->getDense(I);
      if (!Elem.isUndefined() && !Elem.isNull())
        Out += Elem.toDisplayString();
    }
    return Out;
  }
  case ValueTag::Object:
    return "[object Object]";
  case ValueTag::Function:
    return "[function " + asFunction()->displayName() + "]";
  }
  JITVS_UNREACHABLE("bad ValueTag");
}
