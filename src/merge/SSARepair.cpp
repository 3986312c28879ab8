//===- merge/SSARepair.cpp - Dominance repair + phi-node coalescing -----------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "merge/SSARepair.h"
#include "analysis/Dominators.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "transforms/Mem2Reg.h"
#include <algorithm>
#include <unordered_set>

using namespace salssa;

namespace {

/// Collects the definitions that violate the dominance property anywhere
/// in \p F, in deterministic encounter order (function layout order, not
/// pointer order — experiment reproducibility depends on this).
std::vector<Instruction *> findViolatingDefs(Function &F) {
  DominatorTree DT(F);
  const CFGInfo &CFG = DT.getCFG();
  std::unordered_set<Instruction *> Seen;
  std::vector<Instruction *> Defs;
  auto Record = [&](Instruction *D) {
    if (Seen.insert(D).second)
      Defs.push_back(D);
  };
  for (BasicBlock *BB : F) {
    if (!CFG.isReachable(BB))
      continue;
    for (Instruction *I : *BB) {
      if (auto *P = dyn_cast<PhiInst>(I)) {
        for (unsigned K = 0; K < P->getNumIncoming(); ++K) {
          auto *D = dyn_cast<Instruction>(P->getIncomingValue(K));
          if (D && D->getParent() &&
              !DT.dominatesBlockExit(D, P->getIncomingBlock(K)))
            Record(D);
        }
        continue;
      }
      for (Value *Op : I->operands()) {
        auto *D = dyn_cast<Instruction>(Op);
        if (D && D->getParent() && !DT.dominates(D, I))
          Record(D);
      }
    }
  }
  return Defs;
}

/// Splits the invoke->normal edge so a spill store can follow the
/// definition (same pattern as Reg2Mem).
BasicBlock *splitInvokeNormalEdge(InvokeInst *Inv, Context &Ctx) {
  BasicBlock *From = Inv->getParent();
  BasicBlock *To = Inv->getNormalDest();
  Function *F = From->getParent();
  BasicBlock *Mid = F->createBlock(From->getName() + ".repair", To);
  IRBuilder B(Ctx, Mid);
  B.createBr(To);
  Inv->setNormalDest(Mid);
  To->replacePhiUsesWith(From, Mid);
  return Mid;
}

/// Places `store Def, Slot` immediately after \p Def's definition point.
void storeDefToSlot(Instruction *Def, AllocaInst *Slot, Context &Ctx) {
  IRBuilder B(Ctx);
  if (auto *Inv = dyn_cast<InvokeInst>(Def)) {
    BasicBlock *Mid = splitInvokeNormalEdge(Inv, Ctx);
    B.setInsertPoint(Mid->getTerminator());
  } else if (Def->isPhi()) {
    Instruction *FirstNonPhi = Def->getParent()->getFirstNonPhi();
    assert(FirstNonPhi && "block with only phis");
    B.setInsertPoint(FirstNonPhi);
  } else {
    assert(!Def->isTerminator() && "value-producing terminator is invoke");
    B.setInsertPoint(Def->getNextNode());
  }
  B.createStore(Def, Slot);
}

/// Replaces every use in \p Users of \p Def with a load from \p Slot
/// placed directly before the user (phi uses: at the incoming block's
/// terminator).
void rewriteUsesWithLoads(Instruction *Def, const std::vector<User *> &Users,
                          AllocaInst *Slot, Context &Ctx) {
  IRBuilder B(Ctx);
  for (User *U : Users) {
    auto *UI = cast<Instruction>(U);
    if (auto *P = dyn_cast<PhiInst>(UI)) {
      for (unsigned K = 0; K < P->getNumIncoming(); ++K) {
        if (P->getIncomingValue(K) != Def)
          continue;
        B.setInsertPoint(P->getIncomingBlock(K)->getTerminator());
        P->setIncomingValue(K, B.createLoad(Def->getType(), Slot));
      }
      continue;
    }
    if (UI->findOperand(Def) < 0)
      continue; // duplicate snapshot entry, already rewritten
    B.setInsertPoint(UI);
    Value *L = B.createLoad(Def->getType(), Slot);
    for (unsigned K = 0; K < UI->getNumOperands(); ++K)
      if (UI->getOperand(K) == Def)
        UI->setOperand(K, L);
  }
}

/// The user-block set UB(d) = { Block(u) : u in Users(d) } of §4.4, as
/// sorted block numbers.
std::vector<unsigned> userBlocks(const Instruction *Def) {
  std::vector<unsigned> Blocks;
  for (const User *U : Def->users())
    if (const BasicBlock *BB = cast<Instruction>(U)->getParent())
      Blocks.push_back(BB->getNumber());
  std::sort(Blocks.begin(), Blocks.end());
  Blocks.erase(std::unique(Blocks.begin(), Blocks.end()), Blocks.end());
  return Blocks;
}

/// |A ∩ B| for two sorted sets.
size_t overlap(const std::vector<unsigned> &A, const std::vector<unsigned> &B) {
  size_t N = 0;
  for (auto IA = A.begin(), IB = B.begin(); IA != A.end() && IB != B.end();) {
    if (*IA < *IB) {
      ++IA;
    } else if (*IB < *IA) {
      ++IB;
    } else {
      ++N;
      ++IA;
      ++IB;
    }
  }
  return N;
}

} // namespace

SSARepairStats salssa::repairSSA(Function &Merged, Context &Ctx,
                                 const MergeOriginMap &Origin,
                                 bool EnableCoalescing) {
  SSARepairStats Stats;
  std::vector<Instruction *> Defs = findViolatingDefs(Merged);
  Stats.ViolatingDefs = static_cast<unsigned>(Defs.size());
  if (Defs.empty())
    return Stats;

  auto originOf = [&](Instruction *I) {
    auto It = Origin.find(I);
    return It == Origin.end() ? MergeOrigin::Shared : It->second;
  };

  // Tables below are indexed by position in Defs.
  const size_t NoPartner = ~size_t(0);
  std::vector<size_t> Partner(Defs.size(), NoPartner);

  // --- Phi-node coalescing: pair disjoint definitions (one per input
  // function, same type) greedily by descending user-block overlap.
  if (EnableCoalescing) {
    std::vector<size_t> Side1, Side2;
    for (size_t D = 0; D < Defs.size(); ++D) {
      if (originOf(Defs[D]) == MergeOrigin::FromF1)
        Side1.push_back(D);
      else if (originOf(Defs[D]) == MergeOrigin::FromF2)
        Side2.push_back(D);
    }
    struct Candidate {
      size_t Overlap;
      size_t D1;
      size_t D2;
    };
    std::vector<Candidate> Candidates;
    std::vector<std::vector<unsigned>> UB(Defs.size());
    for (size_t D : Side1)
      UB[D] = userBlocks(Defs[D]);
    for (size_t D : Side2)
      UB[D] = userBlocks(Defs[D]);
    for (size_t D1 : Side1)
      for (size_t D2 : Side2) {
        if (Defs[D1]->getType() != Defs[D2]->getType())
          continue;
        size_t Overlap = overlap(UB[D1], UB[D2]);
        if (Overlap > 0)
          Candidates.push_back({Overlap, D1, D2});
      }
    std::stable_sort(Candidates.begin(), Candidates.end(),
                     [](const Candidate &A, const Candidate &B) {
                       return A.Overlap > B.Overlap;
                     });
    for (const Candidate &C : Candidates) {
      if (Partner[C.D1] != NoPartner || Partner[C.D2] != NoPartner)
        continue;
      Partner[C.D1] = C.D2;
      Partner[C.D2] = C.D1;
      ++Stats.CoalescedPairs;
    }
  }

  // --- Demotion: one slot per definition (shared for coalesced pairs).
  // Snapshot the user lists before inserting any spill stores.
  std::vector<std::vector<User *>> SavedUsers(Defs.size());
  for (size_t D = 0; D < Defs.size(); ++D)
    SavedUsers[D].assign(Defs[D]->users().begin(), Defs[D]->users().end());

  IRBuilder B(Ctx);
  BasicBlock *Entry = Merged.getEntryBlock();
  std::vector<AllocaInst *> Slots;
  std::vector<AllocaInst *> SlotOf(Defs.size(), nullptr);
  for (size_t D = 0; D < Defs.size(); ++D) {
    if (Partner[D] != NoPartner && SlotOf[Partner[D]]) {
      SlotOf[D] = SlotOf[Partner[D]];
      continue;
    }
    B.setInsertPoint(Entry->front());
    AllocaInst *Slot = B.createAlloca(Defs[D]->getType(), 1, "repair.slot");
    // Move the builder insertion semantics: createAlloca appends before
    // Entry->front(), keeping all slots at the top of the entry block.
    Slots.push_back(Slot);
    SlotOf[D] = Slot;
    ++Stats.SlotsCreated;
  }

  for (size_t D = 0; D < Defs.size(); ++D)
    storeDefToSlot(Defs[D], SlotOf[D], Ctx);
  for (size_t D = 0; D < Defs.size(); ++D)
    rewriteUsesWithLoads(Defs[D], SavedUsers[D], SlotOf[D], Ctx);

  // --- Promotion: the standard SSA construction algorithm restores the
  // dominance property, inserting phis (with undef pseudo-definitions on
  // paths that bypass the store) exactly as §4.3 describes.
  Mem2RegStats M2R = promoteAllocas(Merged, Ctx, Slots);
  Stats.PhisInserted = M2R.PhisInserted;
  return Stats;
}
