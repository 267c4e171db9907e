//===- vm/Interpreter.cpp - Bytecode interpreter dispatch loop ------------===//

#include "vm/Interpreter.h"

#include "support/Assert.h"
#include "telemetry/Metrics.h"

using namespace jitvs;

InterpFrame::InterpFrame(Runtime &RT, FunctionInfo *Info)
    : RT(RT), Info(Info) {
  Slots.resize(Info->NumSlots);
  Stack.reserve(Info->MaxStackDepth);
  RT.heap().addRootSource(this);
}

InterpFrame::~InterpFrame() { RT.heap().removeRootSource(this); }

void InterpFrame::traceRoots(GCVisitor &Visitor) {
  for (Value &V : Slots)
    Visitor.visit(V);
  for (Value &V : Stack)
    Visitor.visit(V);
  for (Value &V : OrigArgs)
    Visitor.visit(V);
  Visitor.visit(ThisV);
  Visitor.visitPtr(Env);
  Visitor.visitPtr(ClosureEnv);
}

Value Interpreter::invoke(JSFunction *Callee, const Value &ThisV,
                          const Value *Args, size_t NumArgs) {
  FunctionInfo *Info = Callee->info();
  assert(Info && "invoke() requires a user function");

  InterpFrame Frame(RT, Info);
  Frame.ThisV = ThisV;
  Frame.ClosureEnv = Callee->environment();
  Frame.OrigArgs.assign(Args, Args + NumArgs);
  for (size_t I = 0, E = std::min<size_t>(NumArgs, Info->NumParams); I != E;
       ++I)
    Frame.Slots[I] = Args[I];
  if (Info->NumEnvSlots > 0) {
    Frame.Env =
        RT.heap().allocate<Environment>(Frame.ClosureEnv, Info->NumEnvSlots);
    for (auto [ParamSlot, EnvSlot] : Info->CapturedParams)
      Frame.Env->setSlot(EnvSlot, Frame.Slots[ParamSlot]);
  }
  return execute(Frame);
}

Value Interpreter::execute(InterpFrame &Frame) {
  MetricsPhaseTimer InterpPhase(Phase::Interpret);
  FunctionInfo *Info = Frame.Info;
  std::vector<Value> &Stack = Frame.Stack;
  std::vector<Value> &Slots = Frame.Slots;
  uint32_t PC = Frame.PC;

  auto Push = [&Stack](const Value &V) { Stack.push_back(V); };
  auto Pop = [&Stack]() {
    assert(!Stack.empty() && "operand stack underflow");
    Value V = Stack.back();
    Stack.pop_back();
    return V;
  };
  auto Top = [&Stack]() -> Value & {
    assert(!Stack.empty() && "operand stack underflow");
    return Stack.back();
  };

  // Records operand tags for a two-operand site.
  auto Feedback2 = [Info](uint32_t SitePC, const Value &A, const Value &B) {
    SiteFeedback &FB = Info->Feedback.at(SitePC);
    FB.A.add(A.tag());
    FB.B.add(B.tag());
  };
  auto Feedback1 = [Info](uint32_t SitePC, const Value &A) {
    Info->Feedback.at(SitePC).A.add(A.tag());
  };
  // Records an int32 overflow at an Add/Sub/Mul site: the helpers turn
  // two Int32 operands into a non-Int32 result exactly then.
  auto FeedbackOverflow = [Info](uint32_t SitePC, const Value &A,
                                 const Value &B, const Value &R) {
    if (A.isInt32() && B.isInt32() && !R.isInt32())
      Info->Feedback.at(SitePC).SawIntOverflow = true;
  };

  while (true) {
    if (RT.hasError())
      return Value::undefined();
    assert(PC < Info->Code.size() && "pc ran off the end of the bytecode");
    uint32_t OpPC = PC;
    Op O = Info->opAt(PC);
    PC += Info->instructionLength(PC);

    switch (O) {
    case Op::Nop:
      break;

    case Op::PushConst:
      Push(Info->Constants[Info->u16At(OpPC + 1)]);
      break;
    case Op::PushInt8:
      Push(Value::int32(Info->i8At(OpPC + 1)));
      break;
    case Op::PushUndefined:
      Push(Value::undefined());
      break;
    case Op::PushNull:
      Push(Value::null());
      break;
    case Op::PushTrue:
      Push(Value::boolean(true));
      break;
    case Op::PushFalse:
      Push(Value::boolean(false));
      break;

    case Op::GetSlot:
      Push(Slots[Info->u16At(OpPC + 1)]);
      break;
    case Op::SetSlot:
      Slots[Info->u16At(OpPC + 1)] = Pop();
      break;
    case Op::GetEnvSlot: {
      Environment *E = Frame.currentEnv()->hop(Info->u8At(OpPC + 1));
      Push(E->getSlot(Info->u16At(OpPC + 2)));
      break;
    }
    case Op::SetEnvSlot: {
      Environment *E = Frame.currentEnv()->hop(Info->u8At(OpPC + 1));
      Value V = Pop();
      E->setSlot(Info->u16At(OpPC + 2), V);
      RT.heap().writeBarrier(E, V);
      break;
    }
    case Op::GetGlobal:
      Push(RT.global(Info->u16At(OpPC + 1)));
      break;
    case Op::SetGlobal:
      RT.global(Info->u16At(OpPC + 1)) = Pop();
      break;

    case Op::Dup:
      Push(Top());
      break;
    case Op::Dup2: {
      assert(Stack.size() >= 2 && "dup2 underflow");
      Value B = Stack[Stack.size() - 1];
      Value A = Stack[Stack.size() - 2];
      Push(A);
      Push(B);
      break;
    }
    case Op::Pop:
      Pop();
      break;
    case Op::Swap: {
      assert(Stack.size() >= 2 && "swap underflow");
      std::swap(Stack[Stack.size() - 1], Stack[Stack.size() - 2]);
      break;
    }

    case Op::Add: {
      Value B = Pop(), A = Pop();
      Feedback2(OpPC, A, B);
      Value R = RT.genericAdd(A, B);
      FeedbackOverflow(OpPC, A, B, R);
      Push(R);
      break;
    }
    case Op::Sub: {
      Value B = Pop(), A = Pop();
      Feedback2(OpPC, A, B);
      Value R = RT.genericSub(A, B);
      FeedbackOverflow(OpPC, A, B, R);
      Push(R);
      break;
    }
    case Op::Mul: {
      Value B = Pop(), A = Pop();
      Feedback2(OpPC, A, B);
      Value R = RT.genericMul(A, B);
      FeedbackOverflow(OpPC, A, B, R);
      Push(R);
      break;
    }
    case Op::Div: {
      Value B = Pop(), A = Pop();
      Feedback2(OpPC, A, B);
      Push(RT.genericDiv(A, B));
      break;
    }
    case Op::Mod: {
      Value B = Pop(), A = Pop();
      Feedback2(OpPC, A, B);
      Push(RT.genericMod(A, B));
      break;
    }
    case Op::Neg: {
      Value A = Pop();
      Feedback1(OpPC, A);
      Push(RT.genericNeg(A));
      break;
    }
    case Op::Pos: {
      Value A = Pop();
      Feedback1(OpPC, A);
      Push(Value::number(Runtime::toNumber(A)));
      break;
    }
    case Op::Not:
      Top() = Value::boolean(!Top().toBoolean());
      break;
    case Op::BitNot: {
      Value A = Pop();
      Feedback1(OpPC, A);
      Push(RT.genericBitNot(A));
      break;
    }
    case Op::BitAnd:
    case Op::BitOr:
    case Op::BitXor:
    case Op::Shl:
    case Op::Shr:
    case Op::UShr: {
      Value B = Pop(), A = Pop();
      Feedback2(OpPC, A, B);
      Push(RT.genericBitOp(O, A, B));
      break;
    }

    case Op::Lt: {
      Value B = Pop(), A = Pop();
      Feedback2(OpPC, A, B);
      Push(Value::boolean(RT.genericLess(A, B)));
      break;
    }
    case Op::Le: {
      Value B = Pop(), A = Pop();
      Feedback2(OpPC, A, B);
      Push(Value::boolean(RT.genericLessEq(A, B)));
      break;
    }
    case Op::Gt: {
      Value B = Pop(), A = Pop();
      Feedback2(OpPC, A, B);
      Push(Value::boolean(RT.genericLess(B, A)));
      break;
    }
    case Op::Ge: {
      Value B = Pop(), A = Pop();
      Feedback2(OpPC, A, B);
      Push(Value::boolean(RT.genericLessEq(B, A)));
      break;
    }
    case Op::Eq: {
      Value B = Pop(), A = Pop();
      Feedback2(OpPC, A, B);
      Push(Value::boolean(RT.genericLooseEquals(A, B)));
      break;
    }
    case Op::Ne: {
      Value B = Pop(), A = Pop();
      Feedback2(OpPC, A, B);
      Push(Value::boolean(!RT.genericLooseEquals(A, B)));
      break;
    }
    case Op::StrictEq: {
      Value B = Pop(), A = Pop();
      Feedback2(OpPC, A, B);
      Push(Value::boolean(A.strictEquals(B)));
      break;
    }
    case Op::StrictNe: {
      Value B = Pop(), A = Pop();
      Feedback2(OpPC, A, B);
      Push(Value::boolean(!A.strictEquals(B)));
      break;
    }

    case Op::TypeOf: {
      Value A = Pop();
      Push(RT.typeOfValue(A));
      break;
    }

    case Op::Jump:
      PC = Info->u32At(OpPC + 1);
      break;
    case Op::JumpIfFalse: {
      Value C = Pop();
      if (!C.toBoolean())
        PC = Info->u32At(OpPC + 1);
      break;
    }
    case Op::JumpIfTrue: {
      Value C = Pop();
      if (C.toBoolean())
        PC = Info->u32At(OpPC + 1);
      break;
    }
    case Op::LoopHead: {
      ++Info->BackEdgeCount;
      // GC safepoint: allocation never collects, so loops that allocate
      // without calling out still have to reach a point where the frame's
      // roots are complete. The operand stack is empty here and every
      // live value sits in Slots/Stack/Env — all traced by this frame.
      RT.heap().safepoint();
      // Safepoint: this hook (with the call hook in Runtime::callValue)
      // is a dispatch boundary — the engine publishes finished
      // background compiles and ticks the code-reclamation epoch inside
      // it. The operand stack is empty and Frame.PC names a resumable
      // bytecode, so a newly installed body can be OSR-entered here.
      if (ExecutionHooks *H = RT.hooks()) {
        assert(Stack.empty() && "operand stack must be empty at loop head");
        Frame.PC = OpPC;
        Value Result;
        if (H->onLoopHead(Frame, OpPC, Result))
          return Result;
        // The hook may have compiled but declined to enter; continue.
        PC = Frame.PC + Info->instructionLength(Frame.PC);
      }
      break;
    }

    case Op::Call: {
      uint8_t Argc = Info->u8At(OpPC + 1);
      assert(Stack.size() >= Argc + 1u && "call stack underflow");
      size_t Base = Stack.size() - Argc;
      Value Callee = Stack[Base - 1];
      Value R = RT.callValue(Callee, Value::undefined(),
                             Argc ? &Stack[Base] : nullptr, Argc);
      Stack.resize(Base - 1);
      Info->Feedback.at(OpPC).Result.add(R.tag());
      Push(R);
      break;
    }
    case Op::CallMethod: {
      uint16_t NameId = Info->u16At(OpPC + 1);
      uint8_t Argc = Info->u8At(OpPC + 3);
      assert(Stack.size() >= Argc + 1u && "callmethod stack underflow");
      size_t Base = Stack.size() - Argc;
      Value Recv = Stack[Base - 1];
      {
        SiteFeedback &FB = Info->Feedback.at(OpPC);
        FB.A.add(Recv.tag());
        if (Argc > 0)
          FB.B.add(Stack[Base].tag()); // First argument (intrinsics).
      }
      Value R;
      bool Done = false;
      // Method-call inline cache: shape compare -> slot load -> call.
      // The callee *value* is not cached (a slot overwrite must be
      // seen), only its slot; a non-function slot value falls back to
      // the generic path for the canonical error.
      if (RT.shapesEnabled() && Recv.isObject()) {
        SiteFeedback &FB = Info->Feedback.at(OpPC);
        JSObject *O = Recv.asObject();
        const Shape *S = O->shape();
        if (const PropICWay *W = FB.findWay(S)) {
          ++RT.icStats().CallHits;
          if (W->Slot >= 0) {
            Value Callee = O->slotAt(static_cast<uint32_t>(W->Slot));
            if (Callee.isFunction()) {
              R = RT.callValue(Callee, Recv, Argc ? &Stack[Base] : nullptr,
                               Argc);
              Done = true;
            }
          }
        } else {
          ++RT.icStats().CallMisses;
          bool WasMega = FB.Megamorphic;
          if (!FB.addWay(S, nullptr, S->lookup(NameId), RT.icWays()) &&
              !WasMega)
            ++RT.icStats().MegamorphicSites;
        }
      }
      if (!Done)
        R = RT.callMethod(Recv, NameId, Argc ? &Stack[Base] : nullptr, Argc);
      Stack.resize(Base - 1);
      Info->Feedback.at(OpPC).Result.add(R.tag());
      Push(R);
      break;
    }
    case Op::New: {
      uint8_t Argc = Info->u8At(OpPC + 1);
      assert(Stack.size() >= Argc + 1u && "new stack underflow");
      size_t Base = Stack.size() - Argc;
      Value Callee = Stack[Base - 1];
      Value R = RT.construct(Callee, Argc ? &Stack[Base] : nullptr, Argc);
      Stack.resize(Base - 1);
      Push(R);
      break;
    }
    case Op::Return:
      return Pop();
    case Op::ReturnUndefined:
      return Value::undefined();

    case Op::NewArray: {
      uint16_t Count = Info->u16At(OpPC + 1);
      assert(Stack.size() >= Count && "newarray stack underflow");
      // Allocate before popping so the elements stay rooted via the stack.
      JSArray *A = RT.heap().allocate<JSArray>();
      size_t Base = Stack.size() - Count;
      for (size_t I = 0; I != Count; ++I)
        A->push(Stack[Base + I]);
      Stack.resize(Base);
      Push(Value::array(A));
      break;
    }
    case Op::NewObject:
      Push(Value::object(RT.heap().allocate<JSObject>(RT.shapes().root())));
      break;
    case Op::InitProp: {
      Value V = Pop();
      Value Obj = Top();
      assert(Obj.isObject() && "initprop on non-object");
      Obj.asObject()->setProperty(RT.shapes(), Info->u16At(OpPC + 1), V);
      RT.heap().writeBarrier(Obj.asObject(), V);
      break;
    }
    case Op::GetElem: {
      Value Index = Pop(), Obj = Pop();
      Feedback2(OpPC, Obj, Index);
      Push(RT.genericGetElem(Obj, Index,
                             &Info->Feedback.at(OpPC).SawOutOfBounds));
      break;
    }
    case Op::SetElem: {
      Value V = Pop(), Index = Pop(), Obj = Pop();
      Feedback2(OpPC, Obj, Index);
      Push(RT.genericSetElem(Obj, Index, V,
                             &Info->Feedback.at(OpPC).SawOutOfBounds));
      break;
    }
    case Op::GetProp: {
      Value Obj = Pop();
      uint16_t NameId = Info->u16At(OpPC + 1);
      SiteFeedback &FB = Info->Feedback.at(OpPC);
      FB.A.add(Obj.tag());
      // Inline cache: shape compare -> direct slot load. Misses install
      // a new way until the way limit, then the site goes megamorphic
      // and stays on the generic path. The recorded ways double as the
      // shape feedback MIRBuilder specializes against.
      if (RT.shapesEnabled() && Obj.isObject()) {
        JSObject *O = Obj.asObject();
        const Shape *S = O->shape();
        if (const PropICWay *W = FB.findWay(S)) {
          ++RT.icStats().GetHits;
          Push(W->Slot < 0 ? Value::undefined() : O->slotAt(W->Slot));
          break;
        }
        ++RT.icStats().GetMisses;
        bool WasMega = FB.Megamorphic;
        if (!FB.addWay(S, nullptr, S->lookup(NameId), RT.icWays()) &&
            !WasMega)
          ++RT.icStats().MegamorphicSites;
        Push(O->getProperty(NameId));
        break;
      }
      Push(RT.genericGetProp(Obj, NameId));
      break;
    }
    case Op::SetProp: {
      Value V = Pop(), Obj = Pop();
      uint16_t NameId = Info->u16At(OpPC + 1);
      SiteFeedback &FB = Info->Feedback.at(OpPC);
      FB.A.add(Obj.tag());
      if (RT.shapesEnabled() && Obj.isObject()) {
        JSObject *O = Obj.asObject();
        const Shape *S = O->shape();
        if (const PropICWay *W = FB.findWay(S)) {
          ++RT.icStats().SetHits;
          // To != null caches the property-add transition; otherwise the
          // write is in-place.
          if (W->To)
            O->addSlot(W->To, V);
          else
            O->setSlotAt(static_cast<uint32_t>(W->Slot), V);
          RT.heap().writeBarrier(O, V);
          Push(V);
          break;
        }
        ++RT.icStats().SetMisses;
        int32_t Slot = S->lookup(NameId);
        const Shape *To = nullptr;
        if (Slot < 0) {
          To = RT.shapes().transition(S, NameId);
          Slot = static_cast<int32_t>(To->slot());
        }
        bool WasMega = FB.Megamorphic;
        if (!FB.addWay(S, To, Slot, RT.icWays()) && !WasMega)
          ++RT.icStats().MegamorphicSites;
        if (To)
          O->addSlot(To, V);
        else
          O->setSlotAt(static_cast<uint32_t>(Slot), V);
        RT.heap().writeBarrier(O, V);
        Push(V);
        break;
      }
      Push(RT.genericSetProp(Obj, NameId, V));
      break;
    }

    case Op::MakeClosure: {
      FunctionInfo *Inner = RT.program()->function(Info->u16At(OpPC + 1));
      JSFunction *F =
          RT.heap().allocate<JSFunction>(Inner, Frame.currentEnv());
      Push(Value::function(F));
      break;
    }
    case Op::GetThis:
      Push(Frame.ThisV);
      break;
    }
  }
}
