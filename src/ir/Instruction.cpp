//===- ir/Instruction.cpp - Instruction implementation --------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Instruction.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"

using namespace salssa;

Function *Instruction::getFunction() const {
  return Parent ? Parent->getParent() : nullptr;
}

void Instruction::noteCFGEdit() {
  if (Function *F = getFunction())
    ++F->CFGStamp;
}

void Instruction::setSuccessor(unsigned I, BasicBlock *BB) {
  assert(I < Successors.size() && "successor index out of range");
  Successors[I] = BB;
  if (Parent)
    noteCFGEdit();
}

void Instruction::replaceSuccessorWith(BasicBlock *Old, BasicBlock *New) {
  for (unsigned I = 0, E = getNumSuccessors(); I != E; ++I)
    if (getSuccessor(I) == Old)
      setSuccessor(I, New);
}

void Instruction::removeFromParent() {
  assert(Parent && "instruction is not linked");
  // Unlinking a terminator removes its block's out-edges.
  if (isTerminator())
    noteCFGEdit();
  Parent->Insts.erase(SelfIt);
  Parent = nullptr;
}

void Instruction::eraseFromParent() {
  assert(!hasUses() && "erasing an instruction that still has uses");
  if (Parent)
    removeFromParent();
  delete this;
}

void Instruction::insertBefore(Instruction *Pos) {
  assert(!Parent && "instruction already linked");
  assert(Pos->Parent && "insertion point is not linked");
  Pos->Parent->insert(Pos->SelfIt, this);
}

void Instruction::insertAtEnd(BasicBlock *BB) {
  assert(!Parent && "instruction already linked");
  BB->push_back(this);
}

void Instruction::moveBefore(Instruction *Pos) {
  removeFromParent();
  insertBefore(Pos);
}

Instruction *Instruction::getNextNode() const {
  assert(Parent && "instruction is not linked");
  auto Next = std::next(SelfIt);
  return Next == Parent->end() ? nullptr : *Next;
}

bool Instruction::comesBefore(const Instruction *Other) const {
  assert(Parent && Parent == Other->Parent &&
         "comesBefore needs two instructions of one block");
  if (!Parent->InstOrderValid)
    Parent->renumberInstructions();
  return Order < Other->Order;
}

void BinaryOperator::swapOperands() {
  // Swap via raw operand rewrite; use bookkeeping is preserved because the
  // multiset of (user, value) references does not change.
  Value *L = getLHS();
  Value *R = getRHS();
  if (L == R)
    return;
  setOperand(0, R);
  setOperand(1, L);
}

const char *salssa::cmpPredicateName(CmpPredicate P) {
  switch (P) {
  case CmpPredicate::EQ:
    return "eq";
  case CmpPredicate::NE:
    return "ne";
  case CmpPredicate::SLT:
    return "slt";
  case CmpPredicate::SLE:
    return "sle";
  case CmpPredicate::SGT:
    return "sgt";
  case CmpPredicate::SGE:
    return "sge";
  case CmpPredicate::ULT:
    return "ult";
  case CmpPredicate::ULE:
    return "ule";
  case CmpPredicate::UGT:
    return "ugt";
  case CmpPredicate::UGE:
    return "uge";
  }
  return "<badpred>";
}

CmpPredicate salssa::swapCmpPredicate(CmpPredicate P) {
  switch (P) {
  case CmpPredicate::EQ:
    return CmpPredicate::EQ;
  case CmpPredicate::NE:
    return CmpPredicate::NE;
  case CmpPredicate::SLT:
    return CmpPredicate::SGT;
  case CmpPredicate::SLE:
    return CmpPredicate::SGE;
  case CmpPredicate::SGT:
    return CmpPredicate::SLT;
  case CmpPredicate::SGE:
    return CmpPredicate::SLE;
  case CmpPredicate::ULT:
    return CmpPredicate::UGT;
  case CmpPredicate::ULE:
    return CmpPredicate::UGE;
  case CmpPredicate::UGT:
    return CmpPredicate::ULT;
  case CmpPredicate::UGE:
    return CmpPredicate::ULE;
  }
  return P;
}

void CmpInst::swapOperandsAndPredicate() {
  Value *L = getLHS();
  Value *R = getRHS();
  if (L != R) {
    setOperand(0, R);
    setOperand(1, L);
  }
  setPredicate(swapCmpPredicate(getPredicate()));
}

int PhiInst::indexOfBlock(const BasicBlock *BB) const {
  for (unsigned I = 0, E = getNumIncoming(); I != E; ++I)
    if (getIncomingBlock(I) == BB)
      return static_cast<int>(I);
  return -1;
}

Value *PhiInst::getIncomingValueForBlock(const BasicBlock *BB) const {
  int I = indexOfBlock(BB);
  assert(I >= 0 && "block is not an incoming block of this phi");
  return getIncomingValue(static_cast<unsigned>(I));
}

void PhiInst::setIncomingBlock(unsigned I, BasicBlock *BB) {
  assert(I < IncomingBlocks.size() && "incoming index out of range");
  IncomingBlocks[I] = BB;
  if (BasicBlock *Parent = getParent()) {
    Parent->noteOperandEdit(/*IsPhi=*/true);
    noteCFGEdit();
  }
}

void PhiInst::replaceIncomingBlockWith(BasicBlock *Old, BasicBlock *New) {
  for (unsigned I = 0, E = getNumIncoming(); I != E; ++I)
    if (getIncomingBlock(I) == Old)
      setIncomingBlock(I, New);
}

Value *PhiInst::hasConstantValue() const {
  Value *Common = nullptr;
  for (unsigned I = 0, E = getNumIncoming(); I != E; ++I) {
    Value *V = getIncomingValue(I);
    if (V == this || isa<UndefValue>(V))
      continue;
    if (Common && V != Common)
      return nullptr;
    Common = V;
  }
  return Common;
}
