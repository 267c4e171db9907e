//===- vm/Object.h - Heap object kinds of the MiniJS VM ---------*- C++ -*-===//
///
/// \file
/// The concrete GC object kinds: immutable strings, growable arrays,
/// property-map objects, function closures (user functions and native
/// builtins) and closure environments. Property names are interned to
/// integer ids by the runtime's name table, so property maps compare ids
/// instead of strings.
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_VM_OBJECT_H
#define JITVS_VM_OBJECT_H

#include "vm/GC.h"
#include "vm/Shape.h"
#include "vm/Value.h"

#include <string>
#include <utility>
#include <vector>

namespace jitvs {

class Runtime;
struct FunctionInfo;

/// Immutable string payload.
class JSString final : public GCObject {
public:
  explicit JSString(std::string Str)
      : GCObject(GCKind::String), Str(std::move(Str)) {}

  const std::string &str() const { return Str; }
  size_t length() const { return Str.size(); }

private:
  std::string Str;
};

/// A growable dense array of boxed values. Out-of-bounds stores grow the
/// array (filling holes with undefined), matching JavaScript semantics for
/// dense arrays; out-of-bounds loads yield undefined.
class JSArray final : public GCObject {
public:
  JSArray() : GCObject(GCKind::Array) {}
  explicit JSArray(std::vector<Value> Elems)
      : GCObject(GCKind::Array), Elems(std::move(Elems)) {}

  size_t length() const { return Elems.size(); }

  /// In-range read; callers must have bounds-checked.
  const Value &getDense(size_t I) const {
    assert(I < Elems.size() && "dense array read out of bounds");
    return Elems[I];
  }
  /// In-range write; callers must have bounds-checked.
  void setDense(size_t I, const Value &V) {
    assert(I < Elems.size() && "dense array write out of bounds");
    Elems[I] = V;
  }

  /// Generic indexed read: undefined when out of range or negative.
  Value getElement(int64_t I) const {
    if (I < 0 || static_cast<size_t>(I) >= Elems.size())
      return Value::undefined();
    return Elems[I];
  }
  /// Dense-growth ceiling: a store past this index is dropped instead of
  /// materializing gigabytes of undefined filler (`a[1e9] = x` used to
  /// resize the backing vector to a billion entries). Reads past the end
  /// already yield undefined, and both execution tiers share this path,
  /// so the clamp is observably identical across configurations.
  static constexpr int64_t MaxDenseLength = int64_t(1) << 20;

  /// Generic indexed write: grows the array for indices past the end, up
  /// to MaxDenseLength; negative or huge indices are dropped.
  void setElement(int64_t I, const Value &V) {
    if (I < 0 || I >= MaxDenseLength)
      return;
    if (static_cast<size_t>(I) >= Elems.size())
      Elems.resize(static_cast<size_t>(I) + 1);
    Elems[I] = V;
  }

  void push(const Value &V) { Elems.push_back(V); }
  Value pop() {
    if (Elems.empty())
      return Value::undefined();
    Value V = Elems.back();
    Elems.pop_back();
    return V;
  }

  const std::vector<Value> &elements() const { return Elems; }

  /// Swaps in a whole new element vector (shift, length truncation).
  /// Callers on the mutator side must pair this with
  /// Heap::writeBarrierAll — the new contents are not inspected here.
  void replaceElements(std::vector<Value> Els) { Elems = std::move(Els); }

private:
  friend void traceObject(GCObject *, GCVisitor &);
  std::vector<Value> Elems;
};

/// A plain object: a hidden-class shape describing the layout (which
/// interned name id lives in which slot) plus a flat slot vector with
/// the property values. Objects built by the same sequence of property
/// adds share a shape, so property access sites can cache a shape
/// pointer and read/write the slot directly (vm/Shape.h).
class JSObject final : public GCObject {
public:
  explicit JSObject(const Shape *S) : GCObject(GCKind::Object), S(S) {}

  const Shape *shape() const { return S; }

  /// Direct slot access for shape-guarded fast paths: the caller has
  /// already matched shape() against a cached shape.
  const Value &slotAt(uint32_t I) const {
    assert(I < Slots.size() && "object slot out of range");
    return Slots[I];
  }
  void setSlotAt(uint32_t I, const Value &V) {
    assert(I < Slots.size() && "object slot out of range");
    Slots[I] = V;
  }

  /// Shape-guarded property add: transitions to \p To (the cached child
  /// shape) and appends the value to its new slot.
  void addSlot(const Shape *To, const Value &V) {
    assert(To->parent() == S && To->numSlots() == Slots.size() + 1 &&
           "addSlot target is not a direct transition of this shape");
    S = To;
    Slots.push_back(V);
  }

  /// \returns the property value, or undefined when absent.
  Value getProperty(uint32_t NameId) const {
    int32_t Slot = S->lookup(NameId);
    return Slot < 0 ? Value::undefined() : Slots[Slot];
  }

  /// \returns true if the property exists.
  bool hasProperty(uint32_t NameId) const { return S->lookup(NameId) >= 0; }

  /// Creates or overwrites the property; new properties transition the
  /// shape through \p Tree.
  void setProperty(ShapeTree &Tree, uint32_t NameId, const Value &V) {
    int32_t Slot = S->lookup(NameId);
    if (Slot >= 0) {
      Slots[Slot] = V;
      return;
    }
    addSlot(Tree.transition(S, NameId), V);
  }

  const std::vector<Value> &slots() const { return Slots; }

private:
  friend void traceObject(GCObject *, GCVisitor &);
  const Shape *S;
  std::vector<Value> Slots;
};

/// A closure environment: boxed slots for locals captured by inner
/// functions, chained through the lexical parent.
class Environment final : public GCObject {
public:
  Environment(Environment *Parent, size_t NumSlots)
      : GCObject(GCKind::Environment), Parent(Parent), Slots(NumSlots) {}

  Environment *parent() const { return Parent; }

  const Value &getSlot(size_t I) const {
    assert(I < Slots.size() && "environment slot out of range");
    return Slots[I];
  }
  void setSlot(size_t I, const Value &V) {
    assert(I < Slots.size() && "environment slot out of range");
    Slots[I] = V;
  }
  size_t numSlots() const { return Slots.size(); }

  /// Walks \p Depth lexical levels up from this environment.
  Environment *hop(unsigned Depth) {
    Environment *E = this;
    while (Depth--) {
      assert(E->Parent && "environment chain too short");
      E = E->Parent;
    }
    return E;
  }

private:
  friend class Heap;
  friend void traceObject(GCObject *, GCVisitor &);
  Environment *Parent;
  std::vector<Value> Slots;
};

/// Signature of native builtin functions.
using NativeFn = Value (*)(Runtime &RT, const Value &ThisV, const Value *Args,
                           size_t NumArgs);

/// A callable value: either a user function (bytecode FunctionInfo plus
/// the captured environment) or a native builtin.
class JSFunction final : public GCObject {
public:
  JSFunction(FunctionInfo *Info, Environment *Env)
      : GCObject(GCKind::Function), Info(Info), Env(Env) {}
  JSFunction(NativeFn Fn, std::string Name)
      : GCObject(GCKind::Function), Native(Fn), NativeName(std::move(Name)) {}

  bool isNative() const { return Native != nullptr; }
  FunctionInfo *info() const { return Info; }
  Environment *environment() const { return Env; }
  NativeFn native() const { return Native; }
  const std::string &nativeName() const { return NativeName; }

  /// \returns a printable function name.
  std::string displayName() const;

private:
  friend void traceObject(GCObject *, GCVisitor &);
  FunctionInfo *Info = nullptr;
  Environment *Env = nullptr;
  NativeFn Native = nullptr;
  std::string NativeName;
};

/// Visits the outgoing references of \p Obj; the visitor may update them
/// (moving minor collections) or just mark them (the old-space sweep).
void traceObject(GCObject *Obj, GCVisitor &Visitor);

/// Kind-dispatched destruction. GCObject deliberately has no virtual
/// destructor (no vtable word per object), so deleting through the base
/// pointer would never run the derived destructors — the seed collector
/// leaked every string/vector payload it swept this way.
void destroyObject(GCObject *Obj); ///< Destructor only (nursery storage).
void deleteObject(GCObject *Obj);  ///< Destructor plus operator delete.

// Value's GC-payload casts, declared in vm/Value.h: inline because the
// native dispatch loop runs them on every element, slot and length access.
JSString *Value::asString() const {
  assert(isString() && "not a string");
  return static_cast<JSString *>(Payload.Obj);
}

JSArray *Value::asArray() const {
  assert(isArray() && "not an array");
  return static_cast<JSArray *>(Payload.Obj);
}

JSObject *Value::asObject() const {
  assert(isObject() && "not an object");
  return static_cast<JSObject *>(Payload.Obj);
}

JSFunction *Value::asFunction() const {
  assert(isFunction() && "not a function");
  return static_cast<JSFunction *>(Payload.Obj);
}

} // namespace jitvs

#endif // JITVS_VM_OBJECT_H
