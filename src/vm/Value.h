//===- vm/Value.h - Tagged JavaScript-style values --------------*- C++ -*-===//
///
/// \file
/// The boxed value representation of the MiniJS virtual machine. Mirrors
/// the SpiderMonkey split between Int32 and Double numbers: JavaScript
/// numbers are doubles, but values representable as 32-bit integers carry
/// the Int32 tag so the JIT can emit integer arithmetic guarded by
/// overflow checks (the "type specialization" baseline the paper builds
/// on).
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_VM_VALUE_H
#define JITVS_VM_VALUE_H

#include "support/Assert.h"

#include <cmath>
#include <cstdint>
#include <string>

namespace jitvs {

class GCObject;
class JSString;
class JSArray;
class JSObject;
class JSFunction;

/// Runtime type tag of a boxed value.
enum class ValueTag : uint8_t {
  Undefined,
  Null,
  Boolean,
  Int32,
  Double,
  String,
  Object,
  Array,
  Function,
};

/// \returns a printable name for \p Tag ("int32", "string", ...).
const char *valueTagName(ValueTag Tag);

/// A boxed MiniJS value: a tag plus a payload word.
class Value {
public:
  Value() : Tag(ValueTag::Undefined) { Payload.Bits = 0; }

  static Value undefined() { return Value(); }
  static Value null() {
    Value V;
    V.Tag = ValueTag::Null;
    return V;
  }
  static Value boolean(bool B) {
    Value V;
    V.Tag = ValueTag::Boolean;
    V.Payload.Bits = 0;
    V.Payload.B = B;
    return V;
  }
  static Value int32(int32_t I) {
    Value V;
    V.Tag = ValueTag::Int32;
    V.Payload.Bits = 0;
    V.Payload.I = I;
    return V;
  }
  static Value makeDouble(double D) {
    Value V;
    V.Tag = ValueTag::Double;
    V.Payload.D = D;
    return V;
  }
  /// Boxes \p D as Int32 when exactly representable (and not -0), following
  /// the engine convention that canonical numbers prefer the Int32 tag.
  static Value number(double D) {
    int32_t I = static_cast<int32_t>(D);
    if (static_cast<double>(I) == D && !(D == 0.0 && std::signbit(D)))
      return int32(I);
    return makeDouble(D);
  }
  static Value string(JSString *S);
  static Value array(JSArray *A);
  static Value object(JSObject *O);
  static Value function(JSFunction *F);

  ValueTag tag() const { return Tag; }
  bool isUndefined() const { return Tag == ValueTag::Undefined; }
  bool isNull() const { return Tag == ValueTag::Null; }
  bool isBoolean() const { return Tag == ValueTag::Boolean; }
  bool isInt32() const { return Tag == ValueTag::Int32; }
  bool isDouble() const { return Tag == ValueTag::Double; }
  bool isNumber() const { return isInt32() || isDouble(); }
  bool isString() const { return Tag == ValueTag::String; }
  bool isArray() const { return Tag == ValueTag::Array; }
  bool isObject() const { return Tag == ValueTag::Object; }
  bool isFunction() const { return Tag == ValueTag::Function; }
  bool isGCThing() const { return Tag >= ValueTag::String; }

  bool asBoolean() const {
    assert(isBoolean() && "not a boolean");
    return Payload.B;
  }
  int32_t asInt32() const {
    assert(isInt32() && "not an int32");
    return Payload.I;
  }
  double asDouble() const {
    assert(isDouble() && "not a double");
    return Payload.D;
  }
  /// \returns the numeric payload of an Int32 or Double value.
  double asNumber() const {
    assert(isNumber() && "not a number");
    return isInt32() ? static_cast<double>(Payload.I) : Payload.D;
  }
  // Defined inline at the end of vm/Object.h, where the casts' target
  // types are complete.
  inline JSString *asString() const;
  inline JSArray *asArray() const;
  inline JSObject *asObject() const;
  inline JSFunction *asFunction() const;
  GCObject *asGCThing() const {
    assert(isGCThing() && "not a GC thing");
    return Payload.Obj;
  }
  /// Re-points a GC value at the moved copy of its object, keeping the
  /// tag. Only the moving collector's visitor should call this.
  void setGCThing(GCObject *Obj) {
    assert(isGCThing() && Obj && "not a GC thing");
    Payload.Obj = Obj;
  }

  /// JavaScript truthiness: false, +-0, NaN, "", null and undefined are
  /// falsy; everything else is truthy. Booleans and Int32s, what branch
  /// conditions almost always carry, are decided inline.
  bool toBoolean() const {
    if (Tag == ValueTag::Boolean)
      return Payload.B;
    if (Tag == ValueTag::Int32)
      return Payload.I != 0;
    return toBooleanSlow();
  }

  /// Strict equality (===): same tag class and same payload; Int32 and
  /// Double compare numerically; strings compare by content; GC things by
  /// identity.
  bool strictEquals(const Value &Other) const;

  /// Identity used by the specialization cache to decide whether a call
  /// carries "the same arguments" as the cached specialization: primitives
  /// and strings by content, objects/arrays/functions by pointer.
  bool sameSpecializationValue(const Value &Other) const;

  /// Hash consistent with sameSpecializationValue.
  uint64_t specializationHash() const;

  /// \returns the result of the typeof operator for this value.
  const char *typeOfString() const;

  /// Debug/print rendering (what the `print` builtin emits).
  std::string toDisplayString() const;

private:
  bool toBooleanSlow() const;

  ValueTag Tag;
  union {
    bool B;
    int32_t I;
    double D;
    GCObject *Obj;
    uint64_t Bits;
  } Payload;
};

} // namespace jitvs

#endif // JITVS_VM_VALUE_H
