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
  // Drop-then-delete: sever every operand edge before any instruction or
  // block dies so no destructor observes a dangling use.
  for (BasicBlock *BB : Blocks)
    BB->dropAllBlockReferences();
  for (BasicBlock *BB : Blocks) {
    BB->Parent = nullptr;
    delete BB;
  }
  Blocks.clear();
  NextBlockNumber = 0;
}
