//===- ir/Instruction.h - Instruction hierarchy ----------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// All instruction classes. The set mirrors the LLVM subset that the
/// SalSSA/FMSA algorithms care about: integer/fp arithmetic, comparisons,
/// select, casts, stack memory (alloca/load/store/gep), calls, the
/// invoke/landingpad exception-handling model (§4.2.2 of the paper),
/// phi-nodes, and the terminators (br/switch/ret/resume/unreachable).
///
/// Successor edges are held directly on terminator instructions;
/// predecessor lists come from the analysis layer (analysis/CFG.h).
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_IR_INSTRUCTION_H
#define SALSSA_IR_INSTRUCTION_H

#include "ir/Constant.h"
#include "ir/Value.h"
#include <list>

namespace salssa {

class BasicBlock;
class Function;

/// Base class of all instructions.
class Instruction : public User {
public:
  /// Instruction opcodes are simply the ValueKind.
  ValueKind getOpcode() const { return getValueKind(); }
  const char *getOpcodeName() const { return valueKindName(getOpcode()); }

  BasicBlock *getParent() const { return Parent; }
  Function *getFunction() const;

  bool isTerminator() const {
    ValueKind K = getOpcode();
    return K == ValueKind::Br || K == ValueKind::Switch ||
           K == ValueKind::Ret || K == ValueKind::Invoke ||
           K == ValueKind::Resume || K == ValueKind::Unreachable;
  }

  bool isPhi() const { return getOpcode() == ValueKind::Phi; }

  bool isBinaryOp() const {
    ValueKind K = getOpcode();
    return K >= ValueKind::Add && K <= ValueKind::FDiv;
  }

  bool isCast() const {
    ValueKind K = getOpcode();
    return K >= ValueKind::ZExt && K <= ValueKind::FPToSI;
  }

  /// True for opcodes whose two operands may be swapped without changing
  /// semantics; the merge operand-assignment exploits this (Fig 9).
  bool isCommutative() const {
    switch (getOpcode()) {
    case ValueKind::Add:
    case ValueKind::Mul:
    case ValueKind::And:
    case ValueKind::Or:
    case ValueKind::Xor:
    case ValueKind::FAdd:
    case ValueKind::FMul:
      return true;
    default:
      return false;
    }
  }

  bool mayWriteMemory() const {
    ValueKind K = getOpcode();
    return K == ValueKind::Store || K == ValueKind::Call ||
           K == ValueKind::Invoke;
  }

  bool mayReadMemory() const {
    ValueKind K = getOpcode();
    return K == ValueKind::Load || K == ValueKind::Call ||
           K == ValueKind::Invoke;
  }

  /// True if this instruction can be erased when its result is unused.
  bool isSideEffectFree() const {
    ValueKind K = getOpcode();
    if (isTerminator())
      return false;
    return K != ValueKind::Store && K != ValueKind::Call &&
           K != ValueKind::Invoke && K != ValueKind::LandingPad;
  }

  /// True if executing this instruction can produce a *defined* trap in
  /// the reference interpreter: out-of-bounds/null memory access, zero
  /// divisor, signed-division overflow. Unlike LLVM — where these are UB
  /// and dead ones are fair game — the differential harnesses compare
  /// trap status, so transforms running on behaviour-pinned code (the
  /// merged-body cleanup) must not erase one even when its result is
  /// unused.
  bool mayTrap() const {
    ValueKind K = getOpcode();
    return K == ValueKind::Load || K == ValueKind::Store ||
           K == ValueKind::SDiv || K == ValueKind::UDiv ||
           K == ValueKind::SRem || K == ValueKind::URem;
  }

  /// \name Successor access (terminators; Invoke included).
  /// @{
  unsigned getNumSuccessors() const {
    return static_cast<unsigned>(Successors.size());
  }
  BasicBlock *getSuccessor(unsigned I) const {
    assert(I < Successors.size() && "successor index out of range");
    return Successors[I];
  }
  void setSuccessor(unsigned I, BasicBlock *BB) {
    assert(I < Successors.size() && "successor index out of range");
    Successors[I] = BB;
  }
  const std::vector<BasicBlock *> &successors() const { return Successors; }
  /// Replaces every successor edge to \p Old with \p New.
  void replaceSuccessorWith(BasicBlock *Old, BasicBlock *New);
  /// @}

  /// \name List management.
  /// @{
  /// Unlinks from the parent block without deleting.
  void removeFromParent();
  /// Unlinks and deletes. The instruction must have no remaining uses.
  void eraseFromParent();
  /// Inserts this (unlinked) instruction before \p Pos.
  void insertBefore(Instruction *Pos);
  /// Appends this (unlinked) instruction at the end of \p BB.
  void insertAtEnd(BasicBlock *BB);
  /// Moves an already-linked instruction before \p Pos.
  void moveBefore(Instruction *Pos);
  /// True when this instruction precedes \p Other in their (common)
  /// block. Amortized O(1): compares per-block ordinals, renumbering the
  /// block first when an insertion has invalidated them.
  bool comesBefore(const Instruction *Other) const;
  /// The next instruction of the parent block, or null for the last.
  Instruction *getNextNode() const;
  /// @}

  static bool classof(const Value *V) {
    ValueKind K = V->getValueKind();
    return K >= InstFirstKind && K <= InstLastKind;
  }

protected:
  Instruction(ValueKind K, Type *T) : User(K, T) {}

  void addSuccessorStorage(BasicBlock *BB) { Successors.push_back(BB); }

private:
  friend class BasicBlock;
  BasicBlock *Parent = nullptr;
  std::list<Instruction *>::iterator SelfIt;
  std::vector<BasicBlock *> Successors;
  /// Position ordinal within the parent block; meaningful only while the
  /// block's InstOrderValid is set.
  mutable unsigned Order = 0;
};

//===----------------------------------------------------------------------===//
// Arithmetic, logic, comparisons
//===----------------------------------------------------------------------===//

/// Two-operand arithmetic or bitwise instruction (add..fdiv).
class BinaryOperator : public Instruction {
public:
  BinaryOperator(ValueKind Op, Value *LHS, Value *RHS)
      : Instruction(Op, LHS->getType()) {
    assert(LHS->getType() == RHS->getType() && "operand type mismatch");
    appendOperand(LHS);
    appendOperand(RHS);
  }

  Value *getLHS() const { return getOperand(0); }
  Value *getRHS() const { return getOperand(1); }

  /// Swaps the two operands (valid for commutative opcodes; callers
  /// handling non-commutative swaps must compensate).
  void swapOperands();

  static bool classof(const Value *V) {
    ValueKind K = V->getValueKind();
    return K >= ValueKind::Add && K <= ValueKind::FDiv;
  }
};

/// Comparison predicates shared by ICmp and FCmp (FCmp uses the ordered
/// subset EQ/NE/LT/LE/GT/GE).
enum class CmpPredicate : uint8_t {
  EQ,
  NE,
  SLT,
  SLE,
  SGT,
  SGE,
  ULT,
  ULE,
  UGT,
  UGE,
};

/// Spelled predicate name ("eq", "slt", ...).
const char *cmpPredicateName(CmpPredicate P);
/// Predicate with operands swapped (slt -> sgt etc.).
CmpPredicate swapCmpPredicate(CmpPredicate P);

/// Common base for icmp/fcmp.
class CmpInst : public Instruction {
public:
  CmpPredicate getPredicate() const { return Pred; }
  void setPredicate(CmpPredicate P) { Pred = P; }
  Value *getLHS() const { return getOperand(0); }
  Value *getRHS() const { return getOperand(1); }
  /// Swaps operands and adjusts the predicate so semantics are preserved.
  void swapOperandsAndPredicate();

  static bool classof(const Value *V) {
    ValueKind K = V->getValueKind();
    return K == ValueKind::ICmp || K == ValueKind::FCmp;
  }

protected:
  CmpInst(ValueKind K, CmpPredicate P, Value *LHS, Value *RHS, Type *BoolTy)
      : Instruction(K, BoolTy), Pred(P) {
    assert(LHS->getType() == RHS->getType() && "cmp operand type mismatch");
    appendOperand(LHS);
    appendOperand(RHS);
  }

private:
  CmpPredicate Pred;
};

/// Integer comparison producing i1.
class ICmpInst : public CmpInst {
public:
  ICmpInst(CmpPredicate P, Value *LHS, Value *RHS, Type *BoolTy)
      : CmpInst(ValueKind::ICmp, P, LHS, RHS, BoolTy) {}

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::ICmp;
  }
};

/// Floating-point comparison (ordered predicates only) producing i1.
class FCmpInst : public CmpInst {
public:
  FCmpInst(CmpPredicate P, Value *LHS, Value *RHS, Type *BoolTy)
      : CmpInst(ValueKind::FCmp, P, LHS, RHS, BoolTy) {
    assert((P == CmpPredicate::EQ || P == CmpPredicate::NE ||
            P == CmpPredicate::SLT || P == CmpPredicate::SLE ||
            P == CmpPredicate::SGT || P == CmpPredicate::SGE) &&
           "fcmp uses the ordered predicate subset");
  }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::FCmp;
  }
};

/// Conditional value selection: select i1 %c, %t, %f.
class SelectInst : public Instruction {
public:
  SelectInst(Value *Cond, Value *TrueV, Value *FalseV)
      : Instruction(ValueKind::Select, TrueV->getType()) {
    assert(Cond->getType()->isBool() && "select condition must be i1");
    assert(TrueV->getType() == FalseV->getType() &&
           "select arm type mismatch");
    appendOperand(Cond);
    appendOperand(TrueV);
    appendOperand(FalseV);
  }

  Value *getCondition() const { return getOperand(0); }
  Value *getTrueValue() const { return getOperand(1); }
  Value *getFalseValue() const { return getOperand(2); }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Select;
  }
};

/// Single-operand conversion (zext/sext/trunc/sitofp/fptosi).
class CastInst : public Instruction {
public:
  CastInst(ValueKind Op, Value *V, Type *DestTy) : Instruction(Op, DestTy) {
    appendOperand(V);
  }

  Value *getSource() const { return getOperand(0); }

  static bool classof(const Value *V) {
    ValueKind K = V->getValueKind();
    return K >= ValueKind::ZExt && K <= ValueKind::FPToSI;
  }
};

//===----------------------------------------------------------------------===//
// Memory
//===----------------------------------------------------------------------===//

/// Stack slot allocation; yields a pointer.
class AllocaInst : public Instruction {
public:
  AllocaInst(Type *AllocTy, Type *PtrTy, unsigned NumElems = 1)
      : Instruction(ValueKind::Alloca, PtrTy), AllocatedTy(AllocTy),
        NumElements(NumElems) {}

  Type *getAllocatedType() const { return AllocatedTy; }
  unsigned getNumElements() const { return NumElements; }
  unsigned getAllocationSize() const {
    return AllocatedTy->getStoreSize() * NumElements;
  }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Alloca;
  }

private:
  Type *AllocatedTy;
  unsigned NumElements;
};

/// Typed load through a pointer.
class LoadInst : public Instruction {
public:
  LoadInst(Type *LoadedTy, Value *Ptr) : Instruction(ValueKind::Load, LoadedTy) {
    assert(Ptr->getType()->isPointer() && "load from non-pointer");
    appendOperand(Ptr);
  }

  Value *getPointerOperand() const { return getOperand(0); }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Load;
  }
};

/// Typed store through a pointer. Produces no value (void type).
class StoreInst : public Instruction {
public:
  StoreInst(Value *Val, Value *Ptr, Type *VoidTy)
      : Instruction(ValueKind::Store, VoidTy) {
    assert(Ptr->getType()->isPointer() && "store to non-pointer");
    appendOperand(Val);
    appendOperand(Ptr);
  }

  Value *getValueOperand() const { return getOperand(0); }
  Value *getPointerOperand() const { return getOperand(1); }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Store;
  }
};

/// Pointer arithmetic: result = base + index * sizeof(ElementTy).
class GepInst : public Instruction {
public:
  GepInst(Type *ElemTy, Value *Base, Value *Index, Type *PtrTy)
      : Instruction(ValueKind::Gep, PtrTy), ElementTy(ElemTy) {
    assert(Base->getType()->isPointer() && "gep base must be a pointer");
    assert(Index->getType()->isInteger() && "gep index must be an integer");
    appendOperand(Base);
    appendOperand(Index);
  }

  Type *getElementType() const { return ElementTy; }
  Value *getBaseOperand() const { return getOperand(0); }
  Value *getIndexOperand() const { return getOperand(1); }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Gep;
  }

private:
  Type *ElementTy;
};

//===----------------------------------------------------------------------===//
// Calls and exception handling
//===----------------------------------------------------------------------===//

/// Base for direct calls (call/invoke). The callee is a Function, held as a
/// member rather than an operand (functions are not Values in this IR).
class CallBase : public Instruction {
public:
  Function *getCallee() const { return Callee; }
  void setCallee(Function *F) { Callee = F; }

  unsigned getNumArgs() const { return getNumOperands(); }
  Value *getArg(unsigned I) const { return getOperand(I); }
  void setArg(unsigned I, Value *V) { setOperand(I, V); }

  static bool classof(const Value *V) {
    ValueKind K = V->getValueKind();
    return K == ValueKind::Call || K == ValueKind::Invoke;
  }

protected:
  CallBase(ValueKind K, Function *F, const std::vector<Value *> &Args,
           Type *RetTy)
      : Instruction(K, RetTy), Callee(F) {
    for (Value *A : Args)
      appendOperand(A);
  }

private:
  Function *Callee;
};

/// A plain direct call.
class CallInst : public CallBase {
public:
  CallInst(Function *F, const std::vector<Value *> &Args, Type *RetTy)
      : CallBase(ValueKind::Call, F, Args, RetTy) {}

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Call;
  }
};

/// A call with exceptional control flow: two successors, the normal
/// destination and the unwind destination (which must start with a
/// landingpad). This is a terminator.
class InvokeInst : public CallBase {
public:
  InvokeInst(Function *F, const std::vector<Value *> &Args, Type *RetTy,
             BasicBlock *NormalDest, BasicBlock *UnwindDest)
      : CallBase(ValueKind::Invoke, F, Args, RetTy) {
    addSuccessorStorage(NormalDest);
    addSuccessorStorage(UnwindDest);
  }

  BasicBlock *getNormalDest() const { return getSuccessor(0); }
  BasicBlock *getUnwindDest() const { return getSuccessor(1); }
  void setNormalDest(BasicBlock *BB) { setSuccessor(0, BB); }
  void setUnwindDest(BasicBlock *BB) { setSuccessor(1, BB); }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Invoke;
  }
};

/// Marks the start of an exception landing block; must be the first
/// non-phi instruction of every invoke unwind destination. Produces an
/// opaque token (pointer-typed here).
class LandingPadInst : public Instruction {
public:
  LandingPadInst(Type *TokenTy, bool IsCleanup = true)
      : Instruction(ValueKind::LandingPad, TokenTy), Cleanup(IsCleanup) {}

  bool isCleanup() const { return Cleanup; }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::LandingPad;
  }

private:
  bool Cleanup;
};

/// Re-raises an in-flight exception from a landing block. Terminator with
/// no successors.
class ResumeInst : public Instruction {
public:
  ResumeInst(Value *Token, Type *VoidTy)
      : Instruction(ValueKind::Resume, VoidTy) {
    appendOperand(Token);
  }

  Value *getToken() const { return getOperand(0); }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Resume;
  }
};

//===----------------------------------------------------------------------===//
// Phi
//===----------------------------------------------------------------------===//

/// SSA phi-node. Incoming values are operands; incoming blocks are kept in
/// a parallel array (one entry per unique predecessor block).
class PhiInst : public Instruction {
public:
  explicit PhiInst(Type *Ty) : Instruction(ValueKind::Phi, Ty) {}

  unsigned getNumIncoming() const { return getNumOperands(); }
  Value *getIncomingValue(unsigned I) const { return getOperand(I); }
  void setIncomingValue(unsigned I, Value *V) { setOperand(I, V); }
  BasicBlock *getIncomingBlock(unsigned I) const {
    assert(I < IncomingBlocks.size() && "incoming index out of range");
    return IncomingBlocks[I];
  }
  void setIncomingBlock(unsigned I, BasicBlock *BB) {
    assert(I < IncomingBlocks.size() && "incoming index out of range");
    IncomingBlocks[I] = BB;
  }

  void addIncoming(Value *V, BasicBlock *BB) {
    assert(V->getType() == getType() && "phi incoming type mismatch");
    appendOperand(V);
    IncomingBlocks.push_back(BB);
  }

  /// Index of the entry for \p BB, or -1 if absent.
  int indexOfBlock(const BasicBlock *BB) const;

  /// Incoming value for \p BB; asserts the entry exists.
  Value *getIncomingValueForBlock(const BasicBlock *BB) const;

  /// Removes the incoming entry \p I.
  void removeIncoming(unsigned I) {
    eraseOperand(I);
    IncomingBlocks.erase(IncomingBlocks.begin() + I);
  }

  /// Redirects the incoming entry for \p Old to \p New.
  void replaceIncomingBlockWith(BasicBlock *Old, BasicBlock *New);

  /// If every incoming value is the same value V (ignoring self-references
  /// and undef), returns V; otherwise null. Used by simplification.
  Value *hasConstantValue() const;

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Phi;
  }

private:
  std::vector<BasicBlock *> IncomingBlocks;
};

//===----------------------------------------------------------------------===//
// Terminators
//===----------------------------------------------------------------------===//

/// Branch: unconditional (one successor, no operands) or conditional (i1
/// condition operand, two successors: [true, false]).
class BranchInst : public Instruction {
public:
  /// Unconditional branch.
  BranchInst(BasicBlock *Dest, Type *VoidTy)
      : Instruction(ValueKind::Br, VoidTy) {
    addSuccessorStorage(Dest);
  }

  /// Conditional branch.
  BranchInst(Value *Cond, BasicBlock *TrueDest, BasicBlock *FalseDest,
             Type *VoidTy)
      : Instruction(ValueKind::Br, VoidTy) {
    assert(Cond->getType()->isBool() && "branch condition must be i1");
    appendOperand(Cond);
    addSuccessorStorage(TrueDest);
    addSuccessorStorage(FalseDest);
  }

  bool isConditional() const { return getNumOperands() == 1; }
  bool isUnconditional() const { return !isConditional(); }

  Value *getCondition() const {
    assert(isConditional() && "no condition on unconditional branch");
    return getOperand(0);
  }
  void setCondition(Value *C) {
    assert(isConditional() && "no condition on unconditional branch");
    setOperand(0, C);
  }

  BasicBlock *getTrueDest() const { return getSuccessor(0); }
  BasicBlock *getFalseDest() const {
    assert(isConditional() && "false dest on unconditional branch");
    return getSuccessor(1);
  }
  /// Swaps the true/false successors (the caller must compensate, e.g. by
  /// negating or xor-ing the condition — see the Fig 11 optimization).
  void swapSuccessors() {
    assert(isConditional() && "swapSuccessors on unconditional branch");
    BasicBlock *T = getSuccessor(0);
    setSuccessor(0, getSuccessor(1));
    setSuccessor(1, T);
  }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Br;
  }
};

/// Multi-way branch on an integer. Successor 0 is the default; case I maps
/// to successor I+1 with case value CaseValues[I].
class SwitchInst : public Instruction {
public:
  SwitchInst(Value *Cond, BasicBlock *DefaultDest, Type *VoidTy)
      : Instruction(ValueKind::Switch, VoidTy) {
    assert(Cond->getType()->isInteger() && "switch on non-integer");
    appendOperand(Cond);
    addSuccessorStorage(DefaultDest);
  }

  Value *getCondition() const { return getOperand(0); }
  BasicBlock *getDefaultDest() const { return getSuccessor(0); }

  unsigned getNumCases() const {
    return static_cast<unsigned>(CaseValues.size());
  }
  ConstantInt *getCaseValue(unsigned I) const {
    assert(I < CaseValues.size() && "case index out of range");
    return CaseValues[I];
  }
  BasicBlock *getCaseDest(unsigned I) const { return getSuccessor(I + 1); }

  void addCase(ConstantInt *Val, BasicBlock *Dest) {
    CaseValues.push_back(Val);
    addSuccessorStorage(Dest);
  }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Switch;
  }

private:
  std::vector<ConstantInt *> CaseValues;
};

/// Function return, with an optional value.
class RetInst : public Instruction {
public:
  explicit RetInst(Type *VoidTy) : Instruction(ValueKind::Ret, VoidTy) {}
  RetInst(Value *V, Type *VoidTy) : Instruction(ValueKind::Ret, VoidTy) {
    appendOperand(V);
  }

  bool hasReturnValue() const { return getNumOperands() == 1; }
  Value *getReturnValue() const {
    assert(hasReturnValue() && "void return has no value");
    return getOperand(0);
  }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Ret;
  }
};

/// Marks unreachable control flow.
class UnreachableInst : public Instruction {
public:
  explicit UnreachableInst(Type *VoidTy)
      : Instruction(ValueKind::Unreachable, VoidTy) {}

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Unreachable;
  }
};

} // namespace salssa

#endif // SALSSA_IR_INSTRUCTION_H
