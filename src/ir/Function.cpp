//===- ir/Function.cpp - Function implementation ----------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"
#include "ir/Module.h"

using namespace salssa;

Function::Function(const std::string &Name, Type *FnTy, Module *Parent)
    : Name(Name), FnTy(FnTy), Parent(Parent) {
  assert(FnTy->isFunction() && "function requires a function type");
  const std::vector<Type *> &Params = FnTy->getParamTypes();
  Args.reserve(Params.size());
  for (unsigned I = 0; I < Params.size(); ++I) {
    auto *A = new Argument(Params[I], I, this);
    A->setName("arg" + std::to_string(I));
    Args.emplace_back(A);
  }
}

Function::~Function() { clearBody(); }

BasicBlock *Function::createBlock(const std::string &Name,
                                  BasicBlock *Before) {
  auto *BB = new BasicBlock(Name);
  BB->Parent = this;
  BB->Number = NextBlockNumber++;
  ++CFGStamp;
  if (Before) {
    assert(Before->getParent() == this && "insertion point in wrong function");
    BB->SelfIt = Blocks.insert(Before->SelfIt, BB);
  } else {
    Blocks.push_back(BB);
    BB->SelfIt = std::prev(Blocks.end());
  }
  return BB;
}

void Function::adoptBlock(BasicBlock *BB) {
  assert(!BB->getParent() && "block already linked");
  BB->Parent = this;
  BB->Number = NextBlockNumber++;
  ++CFGStamp;
  Blocks.push_back(BB);
  BB->SelfIt = std::prev(Blocks.end());
}

void Function::renumberBlocks() {
  NextBlockNumber = 0;
  for (BasicBlock *BB : Blocks)
    BB->Number = NextBlockNumber++;
}

size_t Function::getInstructionCount() const {
  size_t N = 0;
  for (const BasicBlock *BB : Blocks)
    N += BB->size();
  return N;
}

void Function::clearBody() {
  // Bulk drop-then-delete: sever every operand edge before any
  // instruction or block dies so no destructor observes a dangling use.
  // Every user of an instruction or argument of this function sits in
  // this body, so their user lists are emptied wholesale instead of one
  // removeUser scan per operand; only operands whose user list still
  // holds entries (values outside the body) are unregistered one by one.
  auto Forget = [&](Value *V) {
#ifndef NDEBUG
    for (const User *U : V->users())
      assert(cast<Instruction>(U)->getFunction() == this &&
             "a value of the cleared body is used outside it");
#endif
    V->UserList.clear();
  };
  for (const std::unique_ptr<Argument> &A : Args)
    Forget(A.get());
  for (BasicBlock *BB : Blocks)
    for (Instruction *I : *BB)
      Forget(I);
  for (BasicBlock *BB : Blocks)
    for (Instruction *I : *BB)
      I->dropOperandsForTeardown();
  for (BasicBlock *BB : Blocks) {
    BB->Parent = nullptr;
    delete BB;
  }
  Blocks.clear();
  NextBlockNumber = 0;
  ++CFGStamp;
}
