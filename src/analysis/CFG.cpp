//===- analysis/CFG.cpp - CFG utilities ---------------------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include <algorithm>

using namespace salssa;

PredecessorMap::PredecessorMap(const Function &F)
    : Preds(F.getMaxBlockNumber()), Position(F.getMaxBlockNumber()) {
  unsigned Pos = 0;
  for (BasicBlock *BB : F) {
    Position[BB->getNumber()] = Pos++;
    Instruction *T = BB->getTerminator();
    if (!T)
      continue;
    for (BasicBlock *S : T->successors()) {
      std::vector<BasicBlock *> &List = Preds[S->getNumber()];
      // BB's edges are recorded consecutively, so a repeat edge to S
      // (switch cases sharing a destination) finds BB at the back.
      if (List.empty() || List.back() != BB)
        List.push_back(BB);
    }
  }
}

void PredecessorMap::addEdge(BasicBlock *Pred, const BasicBlock *BB) {
  std::vector<BasicBlock *> &List = Preds[BB->getNumber()];
  unsigned Pos = Position[Pred->getNumber()];
  auto It = std::lower_bound(List.begin(), List.end(), Pos,
                             [&](const BasicBlock *X, unsigned P) {
                               return Position[X->getNumber()] < P;
                             });
  if (It == List.end() || *It != Pred)
    List.insert(It, Pred);
}

void PredecessorMap::removeEdge(const BasicBlock *Pred, const BasicBlock *BB) {
  std::vector<BasicBlock *> &List = Preds[BB->getNumber()];
  auto It = std::find(List.begin(), List.end(), Pred);
  if (It != List.end())
    List.erase(It);
}

CFGInfo::CFGInfo(const Function &F)
    : Preds(F), RPOIndex(F.getMaxBlockNumber(), Unreachable) {
  if (F.isDeclaration())
    return;
  // Iterative DFS computing post-order; RPO is its reverse. The visit
  // mark reuses RPOIndex (any value but Unreachable) until the indices
  // are filled in.
  std::vector<BasicBlock *> PostOrder;
  // Stack of (block, next successor index).
  std::vector<std::pair<BasicBlock *, size_t>> Stack;
  BasicBlock *Entry = F.getEntryBlock();
  Stack.push_back({Entry, 0});
  RPOIndex[Entry->getNumber()] = 0;
  while (!Stack.empty()) {
    auto &[BB, NextIdx] = Stack.back();
    Instruction *T = BB->getTerminator();
    if (T && NextIdx < T->getNumSuccessors()) {
      BasicBlock *S = T->getSuccessor(static_cast<unsigned>(NextIdx++));
      if (RPOIndex[S->getNumber()] == Unreachable) {
        RPOIndex[S->getNumber()] = 0;
        Stack.push_back({S, 0});
      }
      continue;
    }
    PostOrder.push_back(BB);
    Stack.pop_back();
  }
  RPO.assign(PostOrder.rbegin(), PostOrder.rend());
  for (unsigned I = 0; I < RPO.size(); ++I)
    RPOIndex[RPO[I]->getNumber()] = I;
}
