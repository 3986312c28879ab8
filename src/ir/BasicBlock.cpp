//===- ir/BasicBlock.cpp - Basic block implementation ----------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/BasicBlock.h"
#include "ir/Function.h"

using namespace salssa;

BasicBlock::~BasicBlock() {
  // Teardown protocol: sever all cross-references first, then delete. A
  // block deleted in isolation must already have use-free instructions;
  // whole-function teardown calls dropAllBlockReferences across every
  // block before any destructor runs.
  for (Instruction *I : Insts)
    I->dropAllReferences();
  for (Instruction *I : Insts) {
    I->Parent = nullptr; // avoid removeFromParent touching the dead list
    delete I;
  }
  Insts.clear();
}

Instruction *BasicBlock::getFirstNonPhi() const {
  for (Instruction *I : Insts)
    if (!I->isPhi())
      return I;
  return nullptr;
}

std::vector<PhiInst *> BasicBlock::phis() const {
  std::vector<PhiInst *> Result;
  for (Instruction *I : Insts) {
    auto *P = dyn_cast<PhiInst>(I);
    if (!P)
      break;
    Result.push_back(P);
  }
  return Result;
}

std::vector<BasicBlock *> BasicBlock::successors() const {
  Instruction *T = getTerminator();
  if (!T)
    return {};
  return T->successors();
}

bool BasicBlock::isLandingBlock() const {
  Instruction *First = getFirstNonPhi();
  return First && isa<LandingPadInst>(First);
}

void BasicBlock::noteUseDrop(bool IsPhi) {
  ++InstStamp;
  if (IsPhi && Parent)
    ++Parent->PhiUseDropStamp;
}

void BasicBlock::noteInserted(const Instruction *I) {
  noteOperandEdit(I->isPhi());
  // Placement feeds dominance queries (Function::getCFGStamp).
  if (Parent)
    ++Parent->CFGStamp;
}

void BasicBlock::push_back(Instruction *I) {
  assert(!I->getParent() && "instruction already linked");
  // Appending keeps the ordinals increasing.
  if (InstOrderValid)
    I->Order = Insts.empty() ? 0 : Insts.back()->Order + 1;
  Insts.push_back(I);
  I->SelfIt = std::prev(Insts.end());
  I->Parent = this;
  noteInserted(I);
}

BasicBlock::iterator BasicBlock::insert(iterator Pos, Instruction *I) {
  if (Pos == Insts.end()) {
    push_back(I);
    return I->SelfIt;
  }
  assert(!I->getParent() && "instruction already linked");
  InstOrderValid = false;
  auto It = Insts.insert(Pos, I);
  I->SelfIt = It;
  I->Parent = this;
  noteInserted(I);
  return It;
}

void BasicBlock::renumberInstructions() const {
  unsigned N = 0;
  for (Instruction *I : Insts)
    I->Order = N++;
  InstOrderValid = true;
}

void BasicBlock::removeFromParent() {
  assert(Parent && "block is not linked");
  Parent->Blocks.erase(SelfIt);
  ++Parent->CFGStamp;
  Parent = nullptr;
}

void BasicBlock::eraseFromParent() {
  if (Parent)
    removeFromParent();
  delete this;
}

void BasicBlock::dropAllBlockReferences() {
  for (Instruction *I : Insts)
    I->dropAllReferences();
}

void BasicBlock::replacePhiUsesWith(BasicBlock *OldPred,
                                    BasicBlock *NewPred) {
  for (Instruction *I : Insts) {
    auto *P = dyn_cast<PhiInst>(I);
    if (!P)
      break;
    P->replaceIncomingBlockWith(OldPred, NewPred);
  }
}

void BasicBlock::removePredecessorEntries(BasicBlock *Pred) {
  for (Instruction *I : Insts) {
    auto *P = dyn_cast<PhiInst>(I);
    if (!P)
      break;
    int Idx = P->indexOfBlock(Pred);
    if (Idx >= 0)
      P->removeIncoming(static_cast<unsigned>(Idx));
  }
}
