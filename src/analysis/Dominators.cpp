//===- analysis/Dominators.cpp - Dominator tree --------------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// Implements the iterative dominance algorithm of Cooper, Harvey & Kennedy,
// "A Simple, Fast Dominance Algorithm" (2001), and dominance frontiers per
// Cytron et al. (1991).
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include <algorithm>

using namespace salssa;

DominatorTree::DominatorTree(const Function &F)
    : CFG(F), IDom(CFG.getNumBlockSlots(), nullptr),
      Children(CFG.getNumBlockSlots()), DFSIn(CFG.getNumBlockSlots(), 0),
      DFSOut(CFG.getNumBlockSlots(), 0) {
  const std::vector<BasicBlock *> &RPO = CFG.reversePostOrder();
  if (RPO.empty())
    return;
  auto idom = [&](const BasicBlock *BB) -> BasicBlock *& {
    return IDom[BB->getNumber()];
  };

  BasicBlock *Entry = RPO.front();
  idom(Entry) = Entry; // sentinel: entry is its own idom internally

  auto Intersect = [&](BasicBlock *A, BasicBlock *B) {
    unsigned AIdx = CFG.rpoIndex(A), BIdx = CFG.rpoIndex(B);
    while (A != B) {
      while (AIdx > BIdx) {
        A = idom(A);
        AIdx = CFG.rpoIndex(A);
      }
      while (BIdx > AIdx) {
        B = idom(B);
        BIdx = CFG.rpoIndex(B);
      }
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned I = 1; I < RPO.size(); ++I) {
      BasicBlock *BB = RPO[I];
      BasicBlock *NewIDom = nullptr;
      for (BasicBlock *P : CFG.predecessors(BB)) {
        if (!idom(P))
          continue; // unreachable, or not yet processed
        NewIDom = NewIDom ? Intersect(NewIDom, P) : P;
      }
      assert(NewIDom && "reachable block with no processed predecessor");
      if (idom(BB) != NewIDom) {
        idom(BB) = NewIDom;
        Changed = true;
      }
    }
  }

  for (unsigned I = 1; I < RPO.size(); ++I)
    Children[idom(RPO[I])->getNumber()].push_back(RPO[I]);

  // DFS intervals over the tree.
  unsigned Clock = 0;
  std::vector<std::pair<const BasicBlock *, size_t>> Stack;
  Stack.push_back({Entry, 0});
  DFSIn[Entry->getNumber()] = Clock++;
  while (!Stack.empty()) {
    auto &[BB, Next] = Stack.back();
    const std::vector<BasicBlock *> &Kids = Children[BB->getNumber()];
    if (Next < Kids.size()) {
      const BasicBlock *Kid = Kids[Next++];
      DFSIn[Kid->getNumber()] = Clock++;
      Stack.push_back({Kid, 0});
      continue;
    }
    DFSOut[BB->getNumber()] = Clock++;
    Stack.pop_back();
  }
}

std::vector<BasicBlock *> DominatorTree::iteratedDominanceFrontier(
    const std::vector<BasicBlock *> &DefBlocks) {
  if (IDFMark.empty())
    IDFMark.assign(CFG.getNumBlockSlots(), 0);
  ++IDFEpoch;
  std::vector<BasicBlock *> Result;
  std::vector<BasicBlock *> Worklist;
  for (BasicBlock *BB : DefBlocks)
    if (CFG.isReachable(BB))
      Worklist.push_back(BB);
  while (!Worklist.empty()) {
    BasicBlock *BB = Worklist.back();
    Worklist.pop_back();
    for (BasicBlock *FBlock : dominanceFrontier(BB)) {
      unsigned &Mark = IDFMark[FBlock->getNumber()];
      if (Mark == IDFEpoch)
        continue;
      Mark = IDFEpoch;
      Result.push_back(FBlock);
      Worklist.push_back(FBlock);
    }
  }
  std::sort(Result.begin(), Result.end(),
            [&](const BasicBlock *X, const BasicBlock *Y) {
              return CFG.rpoIndex(X) < CFG.rpoIndex(Y);
            });
  return Result;
}

BasicBlock *DominatorTree::getIDom(const BasicBlock *BB) const {
  BasicBlock *D = IDom[BB->getNumber()];
  // Entry's sentinel self-idom is reported as null.
  return D == BB ? nullptr : D;
}

bool DominatorTree::dominates(const BasicBlock *A,
                              const BasicBlock *B) const {
  if (!CFG.isReachable(B))
    return true; // vacuous: nothing executes in B
  if (!CFG.isReachable(A))
    return false;
  unsigned ANum = A->getNumber(), BNum = B->getNumber();
  return DFSIn[ANum] <= DFSIn[BNum] && DFSOut[BNum] <= DFSOut[ANum];
}

bool DominatorTree::dominates(const Instruction *Def,
                              const Instruction *User) const {
  const BasicBlock *DefBB = Def->getParent();
  const BasicBlock *UserBB = User->getParent();
  assert(DefBB && UserBB && "dominance query on unlinked instructions");
  if (DefBB != UserBB)
    return dominates(DefBB, UserBB);
  if (Def == User)
    return false; // an instruction does not dominate itself as a use
  // Phis at the block head execute "simultaneously on entry": a phi
  // dominates every non-phi in its block but no other phi.
  if (Def->isPhi() && !User->isPhi())
    return true;
  if (User->isPhi())
    return false;
  return Def->comesBefore(User);
}

bool DominatorTree::dominatesBlockExit(const Instruction *Def,
                                       const BasicBlock *BB) const {
  const BasicBlock *DefBB = Def->getParent();
  if (DefBB == BB)
    return true; // any instruction in BB executes before BB's exit edge
  return dominates(DefBB, BB);
}

void DominatorTree::computeFrontiers() {
  FrontiersComputed = true;
  Frontiers.assign(CFG.getNumBlockSlots(), {});
  for (BasicBlock *B : CFG.reversePostOrder()) {
    const std::vector<BasicBlock *> &Preds = CFG.predecessors(B);
    unsigned Reachable = 0;
    for (BasicBlock *P : Preds)
      Reachable += CFG.isReachable(P);
    if (Reachable < 2)
      continue;
    BasicBlock *Stop = getIDom(B);
    for (BasicBlock *P : Preds) {
      if (!CFG.isReachable(P))
        continue;
      // The entry has a null idom, so a walk that passes it ends there.
      for (BasicBlock *Runner = P; Runner && Runner != Stop;
           Runner = getIDom(Runner)) {
        std::vector<BasicBlock *> &DF = Frontiers[Runner->getNumber()];
        // B's entries are all added during this iteration over B, so a
        // duplicate can only sit at the back.
        if (!DF.empty() && DF.back() == B)
          break; // an earlier predecessor's walk covered the rest
        DF.push_back(B);
      }
    }
  }
}

const std::vector<BasicBlock *> &
DominatorTree::dominanceFrontier(const BasicBlock *BB) {
  if (!FrontiersComputed)
    computeFrontiers();
  return Frontiers[BB->getNumber()];
}
