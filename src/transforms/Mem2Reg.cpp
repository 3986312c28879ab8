//===- transforms/Mem2Reg.cpp - SSA construction (register promotion) ---------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "transforms/Mem2Reg.h"
#include "analysis/Dominators.h"
#include "ir/Context.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include <algorithm>
#include <unordered_map>

using namespace salssa;

bool salssa::isPromotableAlloca(const AllocaInst *A) {
  if (A->getNumElements() != 1)
    return false; // array slots are addressable storage, not registers
  if (!A->getAllocatedType()->isFirstClass())
    return false;
  for (const User *U : A->users()) {
    if (const auto *L = dyn_cast<LoadInst>(U)) {
      if (L->getPointerOperand() != A)
        return false;
      if (L->getType() != A->getAllocatedType())
        return false;
      continue;
    }
    if (const auto *S = dyn_cast<StoreInst>(U)) {
      // The slot must be the address, not the stored value, and the type
      // must round-trip.
      if (S->getPointerOperand() != A || S->getValueOperand() == A)
        return false;
      if (S->getValueOperand()->getType() != A->getAllocatedType())
        return false;
      continue;
    }
    return false; // any other use (gep, call, select...) escapes the slot
  }
  return true;
}

namespace {

/// Runs Cytron et al. phi placement + renaming for a batch of allocas.
class PromotionDriver {
public:
  PromotionDriver(Function &F, Context &Ctx,
                  const std::vector<AllocaInst *> &Allocas)
      : F(F), Ctx(Ctx), Allocas(Allocas), DT(F),
        PlacedPhis(DT.getCFG().getNumBlockSlots()) {}

  Mem2RegStats run() {
    SlotIndex.reserve(Allocas.size());
    for (unsigned I = 0; I < Allocas.size(); ++I) {
      assert(isPromotableAlloca(Allocas[I]) && "alloca is not promotable");
      SlotIndex[Allocas[I]] = I;
    }
    placePhis();
    renameFromEntry();
    cleanup();
    return Stats;
  }

private:
  /// The promoted slot \p Ptr names, or -1.
  int slotOf(Value *Ptr) const {
    auto *A = dyn_cast<AllocaInst>(Ptr);
    if (!A)
      return -1;
    auto It = SlotIndex.find(A);
    return It == SlotIndex.end() ? -1 : static_cast<int>(It->second);
  }

  void placePhis() {
    // One sweep over the function finds, per slot, the blocks that store
    // to it and the blocks whose first access to it is a load (they read
    // the value live on entry).
    size_t N = Allocas.size();
    const unsigned NoBlock = ~0u;
    std::vector<std::vector<BasicBlock *>> DefBlocks(N), UseBeforeDef(N);
    std::vector<unsigned> LastAccessBlock(N, NoBlock), LastDefBlock(N, NoBlock);
    for (BasicBlock *BB : F) {
      unsigned Num = BB->getNumber();
      for (Instruction *I : *BB) {
        bool IsLoad = isa<LoadInst>(I);
        if (!IsLoad && !isa<StoreInst>(I))
          continue;
        int Slot = slotOf(IsLoad ? cast<LoadInst>(I)->getPointerOperand()
                                 : cast<StoreInst>(I)->getPointerOperand());
        if (Slot < 0)
          continue;
        if (LastAccessBlock[Slot] != Num) {
          LastAccessBlock[Slot] = Num;
          if (IsLoad)
            UseBeforeDef[Slot].push_back(BB);
        }
        if (!IsLoad && LastDefBlock[Slot] != Num) {
          LastDefBlock[Slot] = Num;
          DefBlocks[Slot].push_back(BB);
        }
      }
    }

    // Stamps over block numbers, one epoch per slot: a block stores to
    // the current slot when HasStore == epoch, and the slot is live on
    // entry to it when LiveIn == epoch.
    const CFGInfo &CFG = DT.getCFG();
    std::vector<unsigned> HasStore(CFG.getNumBlockSlots(), 0);
    std::vector<unsigned> LiveIn(CFG.getNumBlockSlots(), 0);
    std::vector<BasicBlock *> Worklist;
    for (unsigned Slot = 0; Slot < N; ++Slot) {
      unsigned Epoch = Slot + 1;
      for (BasicBlock *BB : DefBlocks[Slot])
        HasStore[BB->getNumber()] = Epoch;
      // Pruned SSA (LLVM's mem2reg): the slot is live into blocks that
      // load before storing, closed backwards through reachable
      // store-free blocks.
      for (BasicBlock *BB : UseBeforeDef[Slot])
        LiveIn[BB->getNumber()] = Epoch;
      Worklist = UseBeforeDef[Slot];
      while (!Worklist.empty()) {
        BasicBlock *BB = Worklist.back();
        Worklist.pop_back();
        for (BasicBlock *Pred : CFG.predecessors(BB)) {
          unsigned P = Pred->getNumber();
          if (!CFG.isReachable(Pred) || HasStore[P] == Epoch ||
              LiveIn[P] == Epoch)
            continue; // a store screens off entry liveness
          LiveIn[P] = Epoch;
          Worklist.push_back(Pred);
        }
      }

      AllocaInst *A = Allocas[Slot];
      const std::string PhiName =
          A->hasName() ? A->getName() + ".phi" : "m2r.phi";
      // In reverse post-order; no phi where the slot is dead.
      for (BasicBlock *BB : DT.iteratedDominanceFrontier(DefBlocks[Slot])) {
        if (LiveIn[BB->getNumber()] != Epoch)
          continue;
        // One phi per (slot, block), with one incoming entry per
        // predecessor (renaming and cleanup fill them all).
        auto *P = new PhiInst(A->getAllocatedType());
        P->setName(PhiName);
        P->reserveIncoming(
            static_cast<unsigned>(CFG.predecessors(BB).size()));
        BB->insert(BB->begin(), P);
        PlacedPhis[BB->getNumber()].push_back({P, Slot});
        ++Stats.PhisInserted;
      }
    }
  }

  Value *undefFor(AllocaInst *A) {
    // Reads before any write observe undef — the entry pseudo-definition.
    return Ctx.getUndef(A->getAllocatedType());
  }

  void renameFromEntry() {
    // Iterative DFS over the CFG that renames each block once, on first
    // visit, with the slot values live out of the block that queued it.
    // Any value live into a block along a non-dominating path goes through
    // a placed phi, which resets the slot, so the first visit sees the
    // dominating definitions. The visit order fixes the order of phi
    // incoming entries.
    //
    // The current values live in one vector. Every write is logged with
    // the value it overwrote, and a queued block remembers the log length
    // at its predecessor's exit: rolling the log back to it restores
    // exactly that exit state. Frames are popped in stack order, so the
    // rollback never has to reach below a frame still queued.
    size_t N = Allocas.size();
    std::vector<Value *> Cur(N);
    for (unsigned I = 0; I < N; ++I)
      Cur[I] = undefFor(Allocas[I]);
    std::vector<std::pair<unsigned, Value *>> Log;
    auto Set = [&](unsigned Slot, Value *V) {
      Log.push_back({Slot, Cur[Slot]});
      Cur[Slot] = V;
    };

    struct Frame {
      BasicBlock *BB;
      size_t LogSize; ///< log length at the queuing block's exit
    };
    std::vector<Frame> Worklist;
    Worklist.push_back({F.getEntryBlock(), 0});
    std::vector<bool> Visited(DT.getCFG().getNumBlockSlots(), false);

    while (!Worklist.empty()) {
      Frame Fr = Worklist.back();
      Worklist.pop_back();
      BasicBlock *BB = Fr.BB;
      if (Visited[BB->getNumber()])
        continue;
      Visited[BB->getNumber()] = true;
      for (; Log.size() > Fr.LogSize; Log.pop_back())
        Cur[Log.back().first] = Log.back().second;

      for (auto &[P, Slot] : PlacedPhis[BB->getNumber()])
        Set(Slot, P);
      for (auto It = BB->begin(); It != BB->end();) {
        Instruction *I = *It++;
        if (auto *L = dyn_cast<LoadInst>(I)) {
          int Slot = slotOf(L->getPointerOperand());
          if (Slot >= 0) {
            L->replaceAllUsesWith(Cur[Slot]);
            L->eraseFromParent();
            ++Stats.LoadsRemoved;
          }
        } else if (auto *S = dyn_cast<StoreInst>(I)) {
          int Slot = slotOf(S->getPointerOperand());
          if (Slot >= 0) {
            Set(Slot, S->getValueOperand());
            S->eraseFromParent();
            ++Stats.StoresRemoved;
          }
        }
      }

      // Feed each successor's slot phis once per predecessor (a repeated
      // edge adds no second entry) and queue the unvisited successors.
      Instruction *T = BB->getTerminator();
      if (!T)
        continue;
      const std::vector<BasicBlock *> &Succs = T->successors();
      for (size_t K = 0; K < Succs.size(); ++K) {
        BasicBlock *Succ = Succs[K];
        if (std::find(Succs.begin(), Succs.begin() + K, Succ) ==
            Succs.begin() + K)
          for (auto &[P, Slot] : PlacedPhis[Succ->getNumber()])
            P->addIncoming(Cur[Slot], BB);
        if (!Visited[Succ->getNumber()])
          Worklist.push_back({Succ, Log.size()});
      }
    }
  }

  void cleanup() {
    // Edges from unreachable blocks are never walked by renaming, so their
    // phi entries are missing; fill them with undef (they can never
    // execute), then drop the now-unused allocas. Renaming left the CFG
    // alone, so the dominator tree's predecessor lists still hold.
    const CFGInfo &CFG = DT.getCFG();
    std::vector<unsigned> HasEntry(CFG.getNumBlockSlots(), 0);
    unsigned Epoch = 0;
    for (const std::vector<std::pair<PhiInst *, unsigned>> &Phis : PlacedPhis)
      for (const auto &[P, Slot] : Phis) {
        (void)Slot;
        ++Epoch;
        for (unsigned K = 0; K < P->getNumIncoming(); ++K)
          HasEntry[P->getIncomingBlock(K)->getNumber()] = Epoch;
        for (BasicBlock *Pred : CFG.predecessors(P->getParent()))
          if (HasEntry[Pred->getNumber()] != Epoch)
            P->addIncoming(Ctx.getUndef(P->getType()), Pred);
      }
    for (AllocaInst *A : Allocas) {
      // Loads/stores in unreachable code are never renamed; dissolve them
      // (dead code, any value will do).
      std::vector<User *> Remaining(A->users().begin(), A->users().end());
      for (User *U : Remaining) {
        auto *I = cast<Instruction>(U);
        if (auto *L = dyn_cast<LoadInst>(I)) {
          L->replaceAllUsesWith(Ctx.getUndef(L->getType()));
          L->eraseFromParent();
        } else {
          cast<StoreInst>(I)->eraseFromParent();
        }
      }
      assert(!A->hasUses() && "promotion left a slot use behind");
      A->eraseFromParent();
      ++Stats.PromotedAllocas;
    }
  }

  Function &F;
  Context &Ctx;
  std::vector<AllocaInst *> Allocas;
  DominatorTree DT;
  std::unordered_map<const AllocaInst *, unsigned> SlotIndex;
  /// Phis placed per block number, with their slots.
  std::vector<std::vector<std::pair<PhiInst *, unsigned>>> PlacedPhis;
  Mem2RegStats Stats;
};

} // namespace

Mem2RegStats salssa::promoteAllocas(Function &F, Context &Ctx,
                                    const std::vector<AllocaInst *> &Allocas) {
  if (Allocas.empty())
    return {};
  // Compact the block numbers the driver's tables are indexed by.
  F.renumberBlocks();
  return PromotionDriver(F, Ctx, Allocas).run();
}

Mem2RegStats salssa::promoteAllocasToRegisters(Function &F, Context &Ctx) {
  std::vector<AllocaInst *> Promotable;
  for (BasicBlock *BB : F)
    for (Instruction *I : *BB)
      if (auto *A = dyn_cast<AllocaInst>(I))
        if (isPromotableAlloca(A))
          Promotable.push_back(A);
  return promoteAllocas(F, Ctx, Promotable);
}
