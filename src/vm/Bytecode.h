//===- vm/Bytecode.h - Stack bytecode and function metadata -----*- C++ -*-===//
///
/// \file
/// The stack-based bytecode the MiniJS interpreter executes, playing the
/// role of SpiderMonkey's bytecode in the paper's pipeline (Figure 5):
/// source is parsed to bytecode, interpreted with hotness counters and
/// type feedback, and hot functions are translated to MIR by the JIT.
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_VM_BYTECODE_H
#define JITVS_VM_BYTECODE_H

#include "vm/TypeFeedback.h"
#include "vm/Value.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace jitvs {

/// Bytecode operation codes. Operand widths are documented per opcode;
/// multi-byte operands are little-endian. Jump targets are absolute
/// bytecode offsets (u32).
enum class Op : uint8_t {
  Nop,

  // Constants and immediates.
  PushConst,     ///< u16 constant-pool index
  PushInt8,      ///< i8 immediate
  PushUndefined,
  PushNull,
  PushTrue,
  PushFalse,

  // Frame slots: [0, NumParams) are arguments, then locals.
  GetSlot, ///< u16 slot
  SetSlot, ///< u16 slot

  // Closure environment slots.
  GetEnvSlot, ///< u8 depth, u16 slot
  SetEnvSlot, ///< u8 depth, u16 slot

  // Globals.
  GetGlobal, ///< u16 global index
  SetGlobal, ///< u16 global index

  // Stack manipulation.
  Dup,
  Dup2, ///< [a, b] -> [a, b, a, b]
  Pop,
  Swap,

  // Arithmetic / logic. All pop operands and push the result.
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Neg,
  Pos,
  Not,
  BitNot,
  BitAnd,
  BitOr,
  BitXor,
  Shl,
  Shr,
  UShr,

  // Comparisons.
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  StrictEq,
  StrictNe,

  TypeOf,

  // Control flow.
  Jump,        ///< u32 target
  JumpIfFalse, ///< u32 target (pops the condition)
  JumpIfTrue,  ///< u32 target (pops the condition)
  LoopHead,    ///< marks a loop header; interpreter hotness + OSR point

  // Calls. Stack layout before: callee, arg0..argN-1 (CallMethod:
  // receiver, arg0..argN-1).
  Call,       ///< u8 argc
  CallMethod, ///< u16 property name id, u8 argc
  New,        ///< u8 argc
  Return,
  ReturnUndefined,

  // Aggregates.
  NewArray,  ///< u16 element count (pops them)
  NewObject, ///< fresh empty object
  InitProp,  ///< u16 name id; [obj, value] -> [obj]
  GetElem,   ///< [obj, index] -> [value]
  SetElem,   ///< [obj, index, value] -> [value]
  GetProp,   ///< u16 name id; [obj] -> [value]
  SetProp,   ///< u16 name id; [obj, value] -> [value]

  MakeClosure, ///< u16 function index; captures the current environment
  GetThis,
};

/// \returns the mnemonic for \p O.
const char *opName(Op O);

class Program;

/// Compiled metadata for one MiniJS function: bytecode, constants, frame
/// shape, closure-capture layout, type feedback and JIT bookkeeping.
struct FunctionInfo {
  std::string Name;
  uint32_t Id = 0; ///< Index of this function inside its Program.
  Program *Parent = nullptr;

  uint32_t NumParams = 0;
  /// Total frame slots: parameters first, then locals.
  uint32_t NumSlots = 0;
  /// Slots of the heap environment this function allocates at entry for
  /// locals captured by inner closures (0 = no environment needed).
  uint32_t NumEnvSlots = 0;
  /// Parameters that must be copied into the environment at entry:
  /// (parameter slot, environment slot) pairs.
  std::vector<std::pair<uint16_t, uint16_t>> CapturedParams;
  /// Frame slots (beyond parameters) that live in the environment instead
  /// of the frame. Stored for diagnostics; access goes through
  /// Get/SetEnvSlot.
  bool UsesEnvironment = false;

  std::vector<uint8_t> Code;
  std::vector<Value> Constants;

  /// Max operand-stack depth, computed by the emitter.
  uint32_t MaxStackDepth = 0;

  /// Per-site type feedback recorded by the interpreter, consulted by the
  /// MIR builder for type specialization.
  FeedbackMap Feedback;

  // --- JIT bookkeeping (owned logically by jit::Engine) ---
  uint64_t CallCount = 0; ///< Also the metrics' per-function ticks.
  uint32_t BackEdgeCount = 0;

  // --- Bytecode reading helpers ---
  Op opAt(uint32_t PC) const { return static_cast<Op>(Code[PC]); }
  uint8_t u8At(uint32_t PC) const { return Code[PC]; }
  int8_t i8At(uint32_t PC) const { return static_cast<int8_t>(Code[PC]); }
  uint16_t u16At(uint32_t PC) const {
    return static_cast<uint16_t>(Code[PC]) |
           (static_cast<uint16_t>(Code[PC + 1]) << 8);
  }
  uint32_t u32At(uint32_t PC) const {
    return static_cast<uint32_t>(Code[PC]) |
           (static_cast<uint32_t>(Code[PC + 1]) << 8) |
           (static_cast<uint32_t>(Code[PC + 2]) << 16) |
           (static_cast<uint32_t>(Code[PC + 3]) << 24);
  }

  /// \returns the full instruction length (opcode + operands) at \p PC.
  uint32_t instructionLength(uint32_t PC) const;

  /// Disassembles the bytecode for debugging and golden tests.
  std::string disassemble() const;
};

/// Interns property and identifier names to dense integer ids.
class NameTable {
public:
  /// Interns \p Name, returning its stable id.
  uint32_t intern(const std::string &Name);
  /// \returns the id of \p Name or ~0u when not interned.
  uint32_t lookup(const std::string &Name) const;
  /// \returns the name for \p Id.
  const std::string &name(uint32_t Id) const {
    assert(Id < Names.size() && "bad name id");
    return Names[Id];
  }
  size_t size() const { return Names.size(); }

private:
  std::vector<std::string> Names;
  std::unordered_map<std::string, uint32_t> Ids;
};

/// A compiled MiniJS program: all functions (index 0 is top-level code),
/// the interned name table and the global variable layout.
class Program {
public:
  Program() = default;
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  /// Creates a new empty function; returns its id.
  FunctionInfo *createFunction(std::string Name);

  FunctionInfo *function(uint32_t Id) {
    assert(Id < Functions.size() && "bad function id");
    return Functions[Id].get();
  }
  const FunctionInfo *function(uint32_t Id) const {
    assert(Id < Functions.size() && "bad function id");
    return Functions[Id].get();
  }
  size_t numFunctions() const { return Functions.size(); }

  /// Top-level code (always function 0).
  FunctionInfo *main() { return function(0); }

  NameTable &names() { return Names; }
  const NameTable &names() const { return Names; }

  /// Declares (or finds) a global variable slot for \p Name.
  uint32_t globalSlot(const std::string &Name);
  /// \returns the number of global slots.
  size_t numGlobals() const { return GlobalNames.size(); }
  const std::string &globalName(uint32_t Slot) const {
    assert(Slot < GlobalNames.size() && "bad global slot");
    return GlobalNames[Slot];
  }

private:
  std::vector<std::unique_ptr<FunctionInfo>> Functions;
  NameTable Names;
  std::vector<std::string> GlobalNames;
  std::unordered_map<std::string, uint32_t> GlobalSlots;
};

} // namespace jitvs

#endif // JITVS_VM_BYTECODE_H
