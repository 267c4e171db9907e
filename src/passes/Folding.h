//===- passes/Folding.h - Shared compile-time evaluation --------*- C++ -*-===//
///
/// \file
/// Compile-time evaluation of pure MIR instructions over constant
/// operand values, shared by constant propagation (Section 3.3) and by
/// dead-code elimination's branch folding (Section 3.5, which must
/// evaluate the wrapping conditional loop inversion introduces even when
/// the full constant-propagation pass is not in the configuration).
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_PASSES_FOLDING_H
#define JITVS_PASSES_FOLDING_H

#include "mir/MIR.h"

#include <functional>
#include <optional>

namespace jitvs {

class Runtime;

/// Whether evaluatePureInstr folds \p I's op (for the generic, compare
/// and unary ops: its sub-op) once its operands are constants. The
/// answer is structural: evaluation can still decline on operand tags,
/// e.g. an Unbox whose constant has the wrong type.
bool isFoldableOp(const MInstr *I);

/// Evaluates \p I given operand values supplied by \p OperandValue.
/// \returns the folded value, or nullopt when the op does not fold (or an
/// operand value is unavailable). Calls \p OperandValue at most once per
/// operand, and not at all when the op does not fold. Uses the runtime's
/// generic helpers so compile-time results match interpreter semantics
/// exactly; may allocate (string concatenation), so callers must keep
/// graph constants rooted.
std::optional<Value> evaluatePureInstr(
    const MInstr *I, Runtime &RT,
    const std::function<std::optional<Value>(const MInstr *)> &OperandValue);

/// How many pure instructions deep evaluateToConstant follows a chain.
constexpr unsigned MaxFoldDepth = 8;

/// Transitively evaluates \p Def to a constant, following pure
/// instructions whose operands themselves evaluate to constants, up to
/// \p MaxDepth instructions deep. Used by DCE to decide constant branch
/// conditions without rewriting the graph.
std::optional<Value> evaluateToConstant(const MInstr *Def, Runtime &RT,
                                        unsigned MaxDepth = MaxFoldDepth);

} // namespace jitvs

#endif // JITVS_PASSES_FOLDING_H
