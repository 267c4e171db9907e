//===- passes/Folding.cpp - Compile-time evaluation ------------------------===//

#include "passes/Folding.h"

#include "vm/Object.h"
#include "vm/Runtime.h"

#include <cmath>

using namespace jitvs;

namespace {
/// Every op evaluatePureInstr folds takes one or two operands.
constexpr size_t MaxFoldOperands = 2;
} // namespace

// Must list exactly the ops (and sub-ops) evaluatePureInstr's switch
// below evaluates: loop inversion's gate trusts it to predict DCE.
bool jitvs::isFoldableOp(const MInstr *I) {
  if (I->numOperands() == 0 || I->numOperands() > MaxFoldOperands)
    return false;
  switch (I->op()) {
  case MirOp::AddI:
  case MirOp::AddD:
  case MirOp::SubI:
  case MirOp::SubD:
  case MirOp::MulI:
  case MirOp::MulD:
  case MirOp::DivD:
  case MirOp::ModI:
  case MirOp::ModD:
  case MirOp::NegI:
  case MirOp::NegD:
  case MirOp::BitAnd:
  case MirOp::BitOr:
  case MirOp::BitXor:
  case MirOp::Shl:
  case MirOp::Shr:
  case MirOp::UShr:
  case MirOp::BitNot:
  case MirOp::TruncateToInt32:
  case MirOp::ToDouble:
  case MirOp::Not:
  case MirOp::Concat:
  case MirOp::TypeOf:
  case MirOp::Unbox:
  case MirOp::TypeBarrier:
  case MirOp::StringLength:
  case MirOp::CharCodeAt:
  case MirOp::FromCharCode:
  case MirOp::MathFunction:
    return true;
  case MirOp::GenericBinop:
    switch (static_cast<Op>(I->AuxA)) {
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Div:
    case Op::Mod:
      return true;
    default:
      return false;
    }
  case MirOp::GenericUnop: {
    Op O = static_cast<Op>(I->AuxA);
    return O == Op::Neg || O == Op::Pos;
  }
  case MirOp::CompareI:
  case MirOp::CompareD:
  case MirOp::CompareS:
  case MirOp::CompareGeneric:
    switch (static_cast<Op>(I->AuxA)) {
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge:
    case Op::Eq:
    case Op::Ne:
    case Op::StrictEq:
    case Op::StrictNe:
      return true;
    default:
      return false;
    }
  default:
    return false;
  }
}

std::optional<Value> jitvs::evaluatePureInstr(
    const MInstr *I, Runtime &RT,
    const std::function<std::optional<Value>(const MInstr *)>
        &OperandValue) {
  if (!isFoldableOp(I))
    return std::nullopt;
  // Evaluate each operand exactly once, up front: under
  // evaluateToConstant's recursion every extra call re-walks the whole
  // operand chain below it. Bail out when any operand is unavailable.
  Value Operands[MaxFoldOperands];
  for (size_t Idx = 0, E = I->numOperands(); Idx != E; ++Idx) {
    std::optional<Value> V = OperandValue(I->operand(Idx));
    if (!V)
      return std::nullopt;
    Operands[Idx] = *V;
  }
  auto C = [&](size_t Idx) -> const Value & { return Operands[Idx]; };

  std::optional<Value> Result;
  switch (I->op()) {
  case MirOp::AddI:
  case MirOp::AddD:
    Result = RT.genericAdd(C(0), C(1));
    break;
  case MirOp::SubI:
  case MirOp::SubD:
    Result = RT.genericSub(C(0), C(1));
    break;
  case MirOp::MulI:
  case MirOp::MulD:
    Result = RT.genericMul(C(0), C(1));
    break;
  case MirOp::DivD:
    Result = RT.genericDiv(C(0), C(1));
    break;
  case MirOp::ModI:
  case MirOp::ModD:
    Result = RT.genericMod(C(0), C(1));
    break;
  case MirOp::NegI:
  case MirOp::NegD:
    Result = RT.genericNeg(C(0));
    break;

  case MirOp::GenericBinop: {
    switch (static_cast<Op>(I->AuxA)) {
    case Op::Add:
      Result = RT.genericAdd(C(0), C(1));
      break;
    case Op::Sub:
      Result = RT.genericSub(C(0), C(1));
      break;
    case Op::Mul:
      Result = RT.genericMul(C(0), C(1));
      break;
    case Op::Div:
      Result = RT.genericDiv(C(0), C(1));
      break;
    case Op::Mod:
      Result = RT.genericMod(C(0), C(1));
      break;
    default:
      return std::nullopt;
    }
    break;
  }
  case MirOp::GenericUnop: {
    Op O = static_cast<Op>(I->AuxA);
    if (O == Op::Neg)
      Result = RT.genericNeg(C(0));
    else if (O == Op::Pos)
      Result = Value::number(Runtime::toNumber(C(0)));
    else
      return std::nullopt;
    break;
  }

  case MirOp::BitAnd:
    Result = RT.genericBitOp(Op::BitAnd, C(0), C(1));
    break;
  case MirOp::BitOr:
    Result = RT.genericBitOp(Op::BitOr, C(0), C(1));
    break;
  case MirOp::BitXor:
    Result = RT.genericBitOp(Op::BitXor, C(0), C(1));
    break;
  case MirOp::Shl:
    Result = RT.genericBitOp(Op::Shl, C(0), C(1));
    break;
  case MirOp::Shr:
    Result = RT.genericBitOp(Op::Shr, C(0), C(1));
    break;
  case MirOp::UShr:
    Result = RT.genericBitOp(Op::UShr, C(0), C(1));
    break;
  case MirOp::BitNot:
    Result = RT.genericBitNot(C(0));
    break;
  case MirOp::TruncateToInt32:
    Result = Value::int32(Runtime::toInt32(Runtime::toNumber(C(0))));
    break;
  case MirOp::ToDouble:
    Result = Value::makeDouble(Runtime::toNumber(C(0)));
    break;

  case MirOp::CompareI:
  case MirOp::CompareD:
  case MirOp::CompareS:
  case MirOp::CompareGeneric: {
    const Value &A = C(0), &B = C(1);
    switch (static_cast<Op>(I->AuxA)) {
    case Op::Lt:
      Result = Value::boolean(RT.genericLess(A, B));
      break;
    case Op::Le:
      Result = Value::boolean(RT.genericLessEq(A, B));
      break;
    case Op::Gt:
      Result = Value::boolean(RT.genericLess(B, A));
      break;
    case Op::Ge:
      Result = Value::boolean(RT.genericLessEq(B, A));
      break;
    case Op::Eq:
      Result = Value::boolean(RT.genericLooseEquals(A, B));
      break;
    case Op::Ne:
      Result = Value::boolean(!RT.genericLooseEquals(A, B));
      break;
    case Op::StrictEq:
      Result = Value::boolean(A.strictEquals(B));
      break;
    case Op::StrictNe:
      Result = Value::boolean(!A.strictEquals(B));
      break;
    default:
      return std::nullopt;
    }
    break;
  }

  case MirOp::Not:
    Result = Value::boolean(!C(0).toBoolean());
    break;
  case MirOp::Concat:
    Result = RT.genericAdd(C(0), C(1));
    break;
  case MirOp::TypeOf:
    // A fresh string rather than the runtime's typeof cache: a compile
    // worker donates everything it allocated during one compile to the
    // main heap (or frees it with a discarded compile), so a cached
    // string would leave the worker with a dangling pointer that later
    // compiles bake into their code.
    Result = RT.newStringValue(C(0).typeOfString());
    break;

  case MirOp::Unbox: {
    MIRType Want = static_cast<MIRType>(I->AuxA);
    const Value &V = C(0);
    if (Want == MIRType::Double && V.isNumber())
      Result = Value::makeDouble(V.asNumber());
    else if (mirTypeOfValue(V) == Want)
      Result = V;
    else
      return std::nullopt; // Guard would bail at runtime.
    break;
  }
  case MirOp::TypeBarrier: {
    if (C(0).tag() == static_cast<ValueTag>(I->AuxA))
      Result = C(0);
    else
      return std::nullopt;
    break;
  }

  // The string/array/math folds below never assume operand tags: a
  // specialized parameter constant can have any tag, and reading the
  // wrong payload would fold a garbage constant. Unexpected tags (and
  // out-of-range indices, which must reach the runtime bounds check or
  // the interpreter's NaN path) simply decline to fold.
  case MirOp::StringLength: {
    if (!C(0).isString())
      return std::nullopt;
    Result = Value::int32(static_cast<int32_t>(C(0).asString()->length()));
    break;
  }
  case MirOp::CharCodeAt: {
    if (!C(0).isString() || !C(1).isInt32())
      return std::nullopt;
    const std::string &S = C(0).asString()->str();
    int32_t Idx = C(1).asInt32();
    if (Idx < 0 || static_cast<size_t>(Idx) >= S.size())
      return std::nullopt;
    Result = Value::int32(static_cast<unsigned char>(S[Idx]));
    break;
  }
  case MirOp::FromCharCode:
    if (!C(0).isInt32())
      return std::nullopt;
    Result =
        RT.newStringValue(std::string(1, static_cast<char>(
                                             C(0).asInt32() & 0xFF)));
    break;

  case MirOp::MathFunction: {
    if (!C(0).isNumber() ||
        (I->numOperands() > 1 && !C(1).isNumber()))
      return std::nullopt;
    MathIntrinsic F = static_cast<MathIntrinsic>(I->AuxA);
    double A = C(0).asNumber();
    double B = I->numOperands() > 1 ? C(1).asNumber() : 0.0;
    double R;
    switch (F) {
    case MathIntrinsic::Sin:
      R = std::sin(A);
      break;
    case MathIntrinsic::Cos:
      R = std::cos(A);
      break;
    case MathIntrinsic::Tan:
      R = std::tan(A);
      break;
    case MathIntrinsic::Atan:
      R = std::atan(A);
      break;
    case MathIntrinsic::Sqrt:
      R = std::sqrt(A);
      break;
    case MathIntrinsic::Abs:
      R = std::fabs(A);
      break;
    case MathIntrinsic::Floor:
      R = std::floor(A);
      break;
    case MathIntrinsic::Ceil:
      R = std::ceil(A);
      break;
    case MathIntrinsic::Round:
      R = Runtime::jsMathRound(A);
      break;
    case MathIntrinsic::Log:
      R = std::log(A);
      break;
    case MathIntrinsic::Exp:
      R = std::exp(A);
      break;
    case MathIntrinsic::Pow:
      R = std::pow(A, B);
      break;
    case MathIntrinsic::Atan2:
      R = std::atan2(A, B);
      break;
    default:
      return std::nullopt;
    }
    Result = Value::makeDouble(R);
    break;
  }

  default:
    return std::nullopt;
  }

  return Result;
}

std::optional<Value> jitvs::evaluateToConstant(const MInstr *Def, Runtime &RT,
                                               unsigned MaxDepth) {
  if (Def->op() == MirOp::Constant)
    return Def->constValue();
  if (MaxDepth == 0 || Def->isEffectful() || Def->isPhi() ||
      Def->isControl())
    return std::nullopt;
  return evaluatePureInstr(
      Def, RT, [&RT, MaxDepth](const MInstr *Operand) {
        return evaluateToConstant(Operand, RT, MaxDepth - 1);
      });
}
