//===- transforms/Simplify.cpp - Cleanup passes --------------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "transforms/Simplify.h"
#include "analysis/Dominators.h"
#include "ir/Context.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include <algorithm>
#include <optional>
#include <set>

using namespace salssa;

namespace {

/// Folds an integer binary op over constant bits (width-truncated by the
/// constant pool). Division by zero stays unfolded (it is UB at runtime;
/// we simply leave the instruction alone).
Value *foldIntBinOp(ValueKind Op, ConstantInt *L, ConstantInt *R,
                    Context &Ctx) {
  Type *Ty = L->getType();
  unsigned W = Ty->getIntegerBitWidth();
  uint64_t A = L->getZExtValue();
  uint64_t B = R->getZExtValue();
  int64_t SA = L->getSExtValue();
  int64_t SB = R->getSExtValue();
  switch (Op) {
  case ValueKind::Add:
    return Ctx.getInt(Ty, A + B);
  case ValueKind::Sub:
    return Ctx.getInt(Ty, A - B);
  case ValueKind::Mul:
    return Ctx.getInt(Ty, A * B);
  case ValueKind::SDiv:
    if (SB == 0 || (SA == INT64_MIN && SB == -1))
      return nullptr;
    return Ctx.getInt(Ty, static_cast<uint64_t>(SA / SB));
  case ValueKind::UDiv:
    return B == 0 ? nullptr : Ctx.getInt(Ty, A / B);
  case ValueKind::SRem:
    if (SB == 0 || (SA == INT64_MIN && SB == -1))
      return nullptr;
    return Ctx.getInt(Ty, static_cast<uint64_t>(SA % SB));
  case ValueKind::URem:
    return B == 0 ? nullptr : Ctx.getInt(Ty, A % B);
  case ValueKind::And:
    return Ctx.getInt(Ty, A & B);
  case ValueKind::Or:
    return Ctx.getInt(Ty, A | B);
  case ValueKind::Xor:
    return Ctx.getInt(Ty, A ^ B);
  case ValueKind::Shl:
    return B >= W ? Ctx.getInt(Ty, 0) : Ctx.getInt(Ty, A << B);
  case ValueKind::LShr:
    return B >= W ? Ctx.getInt(Ty, 0) : Ctx.getInt(Ty, A >> B);
  case ValueKind::AShr:
    return B >= W ? Ctx.getInt(Ty, SA < 0 ? ~uint64_t(0) : 0)
                  : Ctx.getInt(Ty, static_cast<uint64_t>(SA >> B));
  default:
    return nullptr;
  }
}

bool evalICmp(CmpPredicate P, ConstantInt *L, ConstantInt *R) {
  uint64_t A = L->getZExtValue(), B = R->getZExtValue();
  int64_t SA = L->getSExtValue(), SB = R->getSExtValue();
  switch (P) {
  case CmpPredicate::EQ:
    return A == B;
  case CmpPredicate::NE:
    return A != B;
  case CmpPredicate::SLT:
    return SA < SB;
  case CmpPredicate::SLE:
    return SA <= SB;
  case CmpPredicate::SGT:
    return SA > SB;
  case CmpPredicate::SGE:
    return SA >= SB;
  case CmpPredicate::ULT:
    return A < B;
  case CmpPredicate::ULE:
    return A <= B;
  case CmpPredicate::UGT:
    return A > B;
  case CmpPredicate::UGE:
    return A >= B;
  }
  return false;
}

/// Algebraic identities for integer binary ops.
Value *simplifyBinOpIdentities(BinaryOperator *B, Context &Ctx) {
  Value *L = B->getLHS();
  Value *R = B->getRHS();
  auto *RC = dyn_cast<ConstantInt>(R);
  auto *LC = dyn_cast<ConstantInt>(L);
  switch (B->getOpcode()) {
  case ValueKind::Add:
    if (RC && RC->isZero())
      return L;
    if (LC && LC->isZero())
      return R;
    break;
  case ValueKind::Sub:
    if (RC && RC->isZero())
      return L;
    if (L == R)
      return Ctx.getInt(B->getType(), 0);
    break;
  case ValueKind::Mul:
    if (RC && RC->isOne())
      return L;
    if (LC && LC->isOne())
      return R;
    if ((RC && RC->isZero()) || (LC && LC->isZero()))
      return Ctx.getInt(B->getType(), 0);
    break;
  case ValueKind::And:
    if (L == R)
      return L;
    if ((RC && RC->isZero()) || (LC && LC->isZero()))
      return Ctx.getInt(B->getType(), 0);
    break;
  case ValueKind::Or:
    if (L == R)
      return L;
    if (RC && RC->isZero())
      return L;
    if (LC && LC->isZero())
      return R;
    break;
  case ValueKind::Xor:
    if (L == R)
      return Ctx.getInt(B->getType(), 0);
    if (RC && RC->isZero())
      return L;
    if (LC && LC->isZero())
      return R;
    break;
  case ValueKind::Shl:
  case ValueKind::LShr:
  case ValueKind::AShr:
    if (RC && RC->isZero())
      return L;
    break;
  default:
    break;
  }
  return nullptr;
}

} // namespace

Value *salssa::simplifyInstructionValue(Instruction *I, Context &Ctx) {
  switch (I->getOpcode()) {
  case ValueKind::Select: {
    auto *S = cast<SelectInst>(I);
    if (S->getTrueValue() == S->getFalseValue())
      return S->getTrueValue();
    if (auto *C = dyn_cast<ConstantInt>(S->getCondition()))
      return C->isTrue() ? S->getTrueValue() : S->getFalseValue();
    // select c, x, undef -> x (and symmetric): undef may be chosen to be x.
    if (isa<UndefValue>(S->getFalseValue()))
      return S->getTrueValue();
    if (isa<UndefValue>(S->getTrueValue()))
      return S->getFalseValue();
    break;
  }
  case ValueKind::Phi: {
    auto *P = cast<PhiInst>(I);
    if (P->getNumIncoming() == 0)
      return Ctx.getUndef(P->getType());
    // NOTE: a phi whose incomings reduce to one value V (others undef or
    // self) may only fold when V dominates every user of the phi — the
    // undef entries exist precisely because V does not reach those paths
    // (LLVM guards the same fold with valueDominatesPHI). That check
    // requires a dominator tree, so it lives in simplifyInstructions; a
    // bare simplifyInstructionValue only folds the trivially safe cases.
    bool AllUndefOrSelf = true;
    for (unsigned K = 0; K < P->getNumIncoming(); ++K) {
      Value *V = P->getIncomingValue(K);
      if (V != P && !isa<UndefValue>(V)) {
        AllUndefOrSelf = false;
        break;
      }
    }
    if (AllUndefOrSelf)
      return Ctx.getUndef(P->getType());
    if (Value *V = P->hasConstantValue())
      if (!isa<Instruction>(V))
        return V; // constants/arguments dominate everything
    break;
  }
  case ValueKind::ICmp: {
    auto *C = cast<ICmpInst>(I);
    auto *LC = dyn_cast<ConstantInt>(C->getLHS());
    auto *RC = dyn_cast<ConstantInt>(C->getRHS());
    if (LC && RC)
      return Ctx.getInt1(evalICmp(C->getPredicate(), LC, RC));
    if (C->getLHS() == C->getRHS()) {
      switch (C->getPredicate()) {
      case CmpPredicate::EQ:
      case CmpPredicate::SLE:
      case CmpPredicate::SGE:
      case CmpPredicate::ULE:
      case CmpPredicate::UGE:
        return Ctx.getTrue();
      default:
        return Ctx.getFalse();
      }
    }
    break;
  }
  case ValueKind::ZExt: {
    auto *C = dyn_cast<ConstantInt>(I->getOperand(0));
    if (C)
      return Ctx.getInt(I->getType(), C->getZExtValue());
    break;
  }
  case ValueKind::SExt: {
    auto *C = dyn_cast<ConstantInt>(I->getOperand(0));
    if (C)
      return Ctx.getInt(I->getType(),
                        static_cast<uint64_t>(C->getSExtValue()));
    break;
  }
  case ValueKind::Trunc: {
    auto *C = dyn_cast<ConstantInt>(I->getOperand(0));
    if (C)
      return Ctx.getInt(I->getType(), C->getZExtValue());
    break;
  }
  default:
    if (auto *B = dyn_cast<BinaryOperator>(I)) {
      if (B->getType()->isInteger()) {
        auto *LC = dyn_cast<ConstantInt>(B->getLHS());
        auto *RC = dyn_cast<ConstantInt>(B->getRHS());
        if (LC && RC)
          if (Value *V = foldIntBinOp(B->getOpcode(), LC, RC, Ctx))
            return V;
        if (Value *V = simplifyBinOpIdentities(B, Ctx))
          return V;
      }
    }
    break;
  }
  return nullptr;
}

unsigned salssa::removeUnreachableBlocks(Function &F) {
  if (F.isDeclaration())
    return 0;
  CFGInfo CFG(F);
  if (CFG.getNumReachableBlocks() == F.getNumBlocks())
    return 0;
  std::vector<BasicBlock *> Dead;
  for (BasicBlock *BB : F)
    if (!CFG.isReachable(BB))
      Dead.push_back(BB);
  // Remove phi entries in surviving blocks that came from dead edges.
  for (BasicBlock *BB : Dead)
    for (BasicBlock *Succ : BB->successors())
      if (CFG.isReachable(Succ))
        Succ->removePredecessorEntries(BB);
  // Sever all cross references, then delete.
  for (BasicBlock *BB : Dead)
    BB->dropAllBlockReferences();
  for (BasicBlock *BB : Dead)
    BB->eraseFromParent();
  return static_cast<unsigned>(Dead.size());
}

namespace {

/// Per-block record of the stamp a sub-pass saw when it last visited each
/// block of one function (indexed by block number). Starts with every
/// block unvisited.
class BlockStamps {
public:
  explicit BlockStamps(const Function &F) : Seen(F.getMaxBlockNumber()) {}

  /// True when block \p Num must be visited: never visited, or \p Stamp
  /// moved since the last visit. Records \p Stamp as seen, so edits the
  /// visit itself makes count for the next one.
  bool needsVisit(unsigned Num, unsigned Stamp) {
    assert(Num < Seen.size() && "block created during simplification");
    bool Needs = Seen[Num] != Stamp;
    Seen[Num] = Stamp;
    return Needs;
  }

private:
  std::vector<std::optional<unsigned>> Seen;
};

/// What each sub-pass saw when it last ran in one simplifyFunction call.
/// Lives in the call, never in globals: merge attempts simplify different
/// functions on different threads. The skip rules are argued in
/// Simplify.h.
struct SkipState {
  explicit SkipState(const Function &F)
      : InstScan(F), BlockedPhi(F.getMaxBlockNumber(), false), PhiHash(F),
        DeadScan(F) {}

  // simplifyInstructions.
  BlockStamps InstScan;
  std::vector<bool> BlockedPhi; ///< last scan met a dominance-blocked phi
  std::optional<unsigned> InstCFGStamp;
  // mergeIdenticalPhis.
  BlockStamps PhiHash;
  // removeUnreachableBlocks.
  std::optional<unsigned> ReachCFGStamp;
  // eliminateDeadCode.
  BlockStamps DeadScan;
  std::optional<unsigned> SweepDropStamp;
};

unsigned eliminateDeadCode(Function &F, bool PreserveTraps, SkipState &Skip,
                           SimplifyStats &Stats) {
  auto IsDead = [&](const Instruction *I) {
    return I->isSideEffectFree() && !I->hasUses() &&
           !(PreserveTraps && I->mayTrap());
  };
  // Worklist DCE: erasing an instruction can only kill its operands, so
  // only they are re-examined. An instruction loses its last use once,
  // hence enters the worklist at most once. Erasure never makes another
  // dead instruction live, so the erased set is the one any sweep order
  // reaches. Only blocks whose instruction stamp moved since their last
  // scan can hold a new dead instruction.
  std::vector<Instruction *> Worklist;
  bool Scanned = false;
  for (BasicBlock *BB : F) {
    if (!Skip.DeadScan.needsVisit(BB->getNumber(), BB->getInstStamp()))
      continue;
    Scanned = true;
    for (Instruction *I : *BB)
      if (IsDead(I))
        Worklist.push_back(I);
  }
  unsigned Removed = 0;
  std::vector<Instruction *> Ops;
  while (!Worklist.empty()) {
    Instruction *I = Worklist.back();
    Worklist.pop_back();
    Ops.clear();
    for (Value *Op : I->operands())
      if (auto *OpI = dyn_cast_or_null<Instruction>(Op))
        if (std::find(Ops.begin(), Ops.end(), OpI) == Ops.end())
          Ops.push_back(OpI);
    I->eraseFromParent();
    ++Removed;
    for (Instruction *OpI : Ops)
      if (IsDead(OpI))
        Worklist.push_back(OpI);
  }

  // Dead phi webs: phis that only feed each other never reach the simple
  // no-uses test above. Keep the phis transitively reachable (through use
  // edges) from non-phi users; drop the rest as a group. After a sweep
  // every phi is live, and a live phi can only die by losing a use.
  if (Skip.SweepDropStamp == F.getPhiUseDropStamp()) {
    Stats.SubPassRunsSkipped += !Scanned;
    return Removed;
  }
  std::vector<PhiInst *> AllPhis;
  std::vector<PhiInst *> PhiWorklist;
  for (BasicBlock *BB : F)
    for (Instruction *I : *BB) {
      auto *P = dyn_cast<PhiInst>(I);
      if (!P)
        break;
      AllPhis.push_back(P);
      P->setMarked(false);
      for (const User *U : P->users())
        if (!isa<PhiInst>(U)) {
          P->setMarked(true);
          PhiWorklist.push_back(P);
          break;
        }
    }
  Stats.PhisSwept += static_cast<unsigned>(AllPhis.size());
  while (!PhiWorklist.empty()) {
    PhiInst *P = PhiWorklist.back();
    PhiWorklist.pop_back();
    for (unsigned K = 0; K < P->getNumIncoming(); ++K) {
      auto *In = dyn_cast<PhiInst>(P->getIncomingValue(K));
      // Marks are only reset on this function's phis.
      if (In && In->getFunction() == &F && !In->isMarked()) {
        In->setMarked(true);
        PhiWorklist.push_back(In);
      }
    }
  }
  std::vector<PhiInst *> Dead;
  for (PhiInst *P : AllPhis)
    if (!P->isMarked())
      Dead.push_back(P);
  if (!Dead.empty()) {
    for (PhiInst *P : Dead)
      P->dropAllReferences();
    for (PhiInst *P : Dead) {
      assert(!P->hasUses() && "dead phi web still referenced");
      P->eraseFromParent();
      ++Removed;
    }
  }
  // Erasing a dead web drops uses of live phis only, which stay live.
  Skip.SweepDropStamp = F.getPhiUseDropStamp();
  return Removed;
}

} // namespace

unsigned salssa::eliminateDeadCode(Function &F, bool PreserveTraps) {
  SkipState Skip(F);
  SimplifyStats Stats;
  return ::eliminateDeadCode(F, PreserveTraps, Skip, Stats);
}

namespace {

/// Replaces a conditional branch/switch with an unconditional branch to
/// \p Target, detaching phi entries of abandoned successors.
void foldTerminatorTo(Instruction *Term, BasicBlock *Target, Context &Ctx) {
  BasicBlock *BB = Term->getParent();
  std::set<BasicBlock *> Abandoned;
  for (BasicBlock *S : Term->successors())
    if (S != Target)
      Abandoned.insert(S);
  for (BasicBlock *S : Abandoned)
    S->removePredecessorEntries(BB);
  Term->dropAllReferences();
  Term->eraseFromParent();
  IRBuilder B(Ctx, BB);
  B.createBr(Target);
}

/// Folds constant-condition branches and switches, and degenerate
/// conditional branches whose successors coincide.
bool foldBranches(Function &F, Context &Ctx, SimplifyStats &Stats) {
  bool Changed = false;
  for (BasicBlock *BB : F) {
    Instruction *Term = BB->getTerminator();
    if (!Term)
      continue;
    if (auto *Br = dyn_cast<BranchInst>(Term)) {
      if (!Br->isConditional())
        continue;
      if (Br->getTrueDest() == Br->getFalseDest()) {
        foldTerminatorTo(Br, Br->getTrueDest(), Ctx);
        ++Stats.BranchesFolded;
        Changed = true;
        continue;
      }
      if (auto *C = dyn_cast<ConstantInt>(Br->getCondition())) {
        foldTerminatorTo(Br, C->isTrue() ? Br->getTrueDest()
                                         : Br->getFalseDest(),
                         Ctx);
        ++Stats.BranchesFolded;
        Changed = true;
      }
      continue;
    }
    if (auto *SW = dyn_cast<SwitchInst>(Term)) {
      if (auto *C = dyn_cast<ConstantInt>(SW->getCondition())) {
        BasicBlock *Target = SW->getDefaultDest();
        for (unsigned K = 0; K < SW->getNumCases(); ++K)
          if (SW->getCaseValue(K) == C)
            Target = SW->getCaseDest(K);
        foldTerminatorTo(SW, Target, Ctx);
        ++Stats.BranchesFolded;
        Changed = true;
      } else if (SW->getNumCases() == 0) {
        foldTerminatorTo(SW, SW->getDefaultDest(), Ctx);
        ++Stats.BranchesFolded;
        Changed = true;
      }
    }
  }
  return Changed;
}

/// Merges \p BB into its unique predecessor when the predecessor
/// unconditionally branches to it and has no other successors. Keeps
/// \p Preds exact.
bool mergeBlocksIntoPredecessors(Function &F, Context &Ctx,
                                 SimplifyStats &Stats, PredecessorMap &Preds) {
  bool Changed = false;
  for (auto It = F.begin(); It != F.end();) {
    BasicBlock *BB = *It++;
    if (BB == F.getEntryBlock())
      continue;
    const std::vector<BasicBlock *> &BBPreds = Preds.predecessors(BB);
    if (BBPreds.size() != 1)
      continue;
    BasicBlock *Pred = BBPreds.front();
    if (Pred == BB)
      continue;
    auto *Br = dyn_cast_or_null<BranchInst>(Pred->getTerminator());
    if (!Br || Br->isConditional())
      continue;
    assert(Br->getTrueDest() == BB && "unique pred must branch here");
    // Dissolve single-entry phis (a self-referencing one can only sit in
    // unreachable code; undef is as good as anything there).
    for (PhiInst *P : BB->phis()) {
      assert(P->getNumIncoming() == 1 && "single-pred block phi arity");
      Value *V = P->getIncomingValue(0);
      if (V == P)
        V = Ctx.getUndef(P->getType());
      P->replaceAllUsesWith(V);
      P->eraseFromParent();
    }
    // Splice all instructions of BB after Pred's (removed) branch.
    Br->eraseFromParent();
    for (auto BIt = BB->begin(); BIt != BB->end();) {
      Instruction *I = *BIt++;
      I->removeFromParent();
      I->insertAtEnd(Pred);
    }
    // Successor phis now flow from Pred, and so do the edges: Pred had no
    // edge to them before (its only successor was BB).
    for (BasicBlock *Succ : Pred->successors()) {
      Succ->replacePhiUsesWith(BB, Pred);
      Preds.removeEdge(BB, Succ);
      Preds.addEdge(Pred, Succ);
    }
    Preds.clear(BB);
    BB->eraseFromParent();
    ++Stats.BlocksRemoved;
    Changed = true;
  }
  return Changed;
}

/// Removes blocks that contain only an unconditional branch by rerouting
/// their predecessors directly to the destination (LLVM's
/// TryToSimplifyUncondBranchFromEmptyBlock, conservative variant). Keeps
/// \p Preds exact.
bool threadTrivialBlocks(Function &F, SimplifyStats &Stats,
                         PredecessorMap &Preds) {
  bool Changed = false;
  for (auto It = F.begin(); It != F.end();) {
    BasicBlock *BB = *It++;
    if (BB == F.getEntryBlock())
      continue;
    if (BB->size() != 1)
      continue;
    auto *Br = dyn_cast<BranchInst>(BB->getTerminator());
    if (!Br || Br->isConditional())
      continue;
    BasicBlock *Dest = Br->getTrueDest();
    if (Dest == BB)
      continue;
    const std::vector<BasicBlock *> &BBPreds = Preds.predecessors(BB);
    if (BBPreds.empty())
      continue; // unreachable; left to removeUnreachableBlocks
    // Phi-consistency precondition: a pred that already reaches Dest must
    // agree on every phi value.
    bool Safe = true;
    std::vector<PhiInst *> DestPhis = Dest->phis();
    for (BasicBlock *P : BBPreds) {
      // An invoke edge into a plain block must keep its landing structure;
      // only plain branches/switches are rerouted here.
      if (isa<InvokeInst>(P->getTerminator())) {
        Safe = false;
        break;
      }
      for (PhiInst *Phi : DestPhis) {
        int ExistingIdx = Phi->indexOfBlock(P);
        if (ExistingIdx >= 0 &&
            Phi->getIncomingValue(static_cast<unsigned>(ExistingIdx)) !=
                Phi->getIncomingValueForBlock(BB)) {
          Safe = false;
          break;
        }
      }
      if (!Safe)
        break;
    }
    if (!Safe)
      continue;
    for (PhiInst *Phi : DestPhis) {
      Value *V = Phi->getIncomingValueForBlock(BB);
      int BBIdx = Phi->indexOfBlock(BB);
      Phi->removeIncoming(static_cast<unsigned>(BBIdx));
      for (BasicBlock *P : BBPreds)
        if (Phi->indexOfBlock(P) < 0)
          Phi->addIncoming(V, P);
    }
    for (BasicBlock *P : BBPreds) {
      P->getTerminator()->replaceSuccessorWith(BB, Dest);
      Preds.addEdge(P, Dest);
    }
    Preds.removeEdge(BB, Dest);
    Preds.clear(BB);
    BB->dropAllBlockReferences();
    BB->eraseFromParent();
    ++Stats.BlocksRemoved;
    Changed = true;
  }
  return Changed;
}

/// True when \p P2 has the same type and arity as \p P1 and, for each of
/// its incoming blocks, the value \p P1 takes from that block (from its
/// first entry for that block). When \p P1 repeats no incoming block, an
/// entry at the same position is the only one for its block, so the
/// search is skipped for it.
bool samePhi(const PhiInst *P1, const PhiInst *P2, bool P1RepeatsNoBlock) {
  if (P1->getType() != P2->getType() ||
      P1->getNumIncoming() != P2->getNumIncoming())
    return false;
  for (unsigned K = 0; K < P2->getNumIncoming(); ++K) {
    BasicBlock *In = P2->getIncomingBlock(K);
    int Idx = P1RepeatsNoBlock && P1->getIncomingBlock(K) == In
                  ? static_cast<int>(K)
                  : P1->indexOfBlock(In);
    if (Idx < 0 || P1->getIncomingValue(static_cast<unsigned>(Idx)) !=
                       P2->getIncomingValue(K))
      return false;
  }
  return true;
}

uint64_t mix64(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdULL;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ULL;
  return X ^ (X >> 33);
}

/// A hash of a phi's (incoming block, value) multiset and type. Summing
/// per-entry hashes makes it independent of the entry order, as samePhi
/// is, without sorting a key.
uint64_t phiHash(const PhiInst *P) {
  uint64_t H = mix64(reinterpret_cast<uintptr_t>(P->getType()));
  for (unsigned K = 0; K < P->getNumIncoming(); ++K)
    H += mix64(reinterpret_cast<uintptr_t>(P->getIncomingValue(K)) ^
               (uint64_t(P->getIncomingBlock(K)->getNumber()) << 48));
  return H;
}

/// An open-addressing set of phis keyed by phiHash, reused across blocks.
class PhiTable {
public:
  /// Empties the table and sizes it for \p N phis.
  void reset(size_t N) {
    size_t Cap = 16;
    while (Cap < 2 * N)
      Cap *= 2;
    Slots.assign(Cap, {0, nullptr});
  }

  /// The phi already in the table that samePhi matches \p P, or null
  /// after inserting \p P.
  PhiInst *findOrInsert(PhiInst *P) {
    uint64_t H = phiHash(P);
    size_t Mask = Slots.size() - 1;
    for (size_t I = H & Mask;; I = (I + 1) & Mask) {
      auto &[SH, Q] = Slots[I];
      if (!Q) {
        Slots[I] = {H, P};
        return nullptr;
      }
      if (SH == H && samePhi(Q, P, /*P1RepeatsNoBlock=*/true))
        return Q;
    }
  }

private:
  std::vector<std::pair<uint64_t, PhiInst *>> Slots;
};

/// Merges each phi into the first earlier phi of its block that samePhi
/// matches, comparing every pair. The reference semantics: a merge
/// rewrites the uses of the dropped phi, which can change how later
/// pairs compare.
unsigned mergeIdenticalPhisPairwise(std::vector<PhiInst *> &Phis) {
  unsigned Merged = 0;
  for (size_t A = 0; A < Phis.size(); ++A) {
    if (!Phis[A])
      continue;
    for (size_t B = A + 1; B < Phis.size(); ++B) {
      if (!Phis[B] || !samePhi(Phis[A], Phis[B], /*P1RepeatsNoBlock=*/false))
        continue;
      Phis[B]->replaceAllUsesWith(Phis[A]);
      Phis[B]->eraseFromParent();
      Phis[B] = nullptr;
      ++Merged;
    }
  }
  return Merged;
}

/// Merges identical phi-nodes within each block (same incoming value for
/// every incoming block), keeping the first of each group.
///
/// Hashing gives the pairwise result whenever no merge can change a phi
/// of the same block: no phi takes another phi of its block as an
/// incoming value, and no phi repeats an incoming block (samePhi is then
/// an equivalence on fixed keys). Blocks outside that case use the
/// pairwise loop.
///
/// The result for a block depends only on its phis' incoming lists, and a
/// run leaves no identical pair behind unless it edits those lists itself
/// (a pairwise merge rewriting another phi of the block). So a block whose
/// phi stamp has not moved since its last visit is skipped.
bool mergeIdenticalPhis(Function &F, SimplifyStats &Stats, SkipState &Skip) {
  bool Changed = false;
  bool Visited = false;
  std::vector<PhiInst *> Phis;
  PhiTable Table;
  std::vector<unsigned> BlockMark(F.getMaxBlockNumber(), 0);
  unsigned Epoch = 0;
  for (BasicBlock *BB : F) {
    if (!Skip.PhiHash.needsVisit(BB->getNumber(), BB->getPhiStamp()))
      continue;
    Visited = true;
    Phis.clear();
    for (Instruction *I : *BB) {
      auto *P = dyn_cast<PhiInst>(I);
      if (!P)
        break;
      Phis.push_back(P);
    }
    if (Phis.size() < 2)
      continue;
    Stats.PhisHashed += static_cast<unsigned>(Phis.size());
    bool Hashable = true;
    for (PhiInst *P : Phis) {
      ++Epoch;
      for (unsigned K = 0; K < P->getNumIncoming() && Hashable; ++K) {
        unsigned &Mark = BlockMark[P->getIncomingBlock(K)->getNumber()];
        auto *In = dyn_cast<PhiInst>(P->getIncomingValue(K));
        Hashable = Mark != Epoch && !(In && In != P && In->getParent() == BB);
        Mark = Epoch;
      }
      if (!Hashable)
        break;
    }
    if (!Hashable) {
      unsigned Merged = mergeIdenticalPhisPairwise(Phis);
      Stats.PhisMerged += Merged;
      Changed |= Merged != 0;
      continue;
    }
    // samePhi is an equivalence here, so at most one kept phi matches.
    Table.reset(Phis.size());
    for (PhiInst *P : Phis) {
      PhiInst *Same = Table.findOrInsert(P);
      if (!Same)
        continue;
      P->replaceAllUsesWith(Same);
      P->eraseFromParent();
      ++Stats.PhisMerged;
      Changed = true;
    }
  }
  Stats.SubPassRunsSkipped += !Visited;
  return Changed;
}

/// One round of per-instruction simplification. Instruction-level RAUW
/// never changes the CFG, so one dominator tree serves the whole round
/// (used for the dominance-guarded phi fold, and built only if a fold
/// needs it).
///
/// A block is scanned when its instruction stamp moved since its last
/// scan, or when its last scan met a phi that only the dominance guard
/// kept from folding and the CFG stamp moved since the last run.
bool simplifyInstructions(Function &F, Context &Ctx, SimplifyStats &Stats,
                          SkipState &Skip) {
  bool Changed = false;
  bool Visited = false;
  bool CFGMoved = Skip.InstCFGStamp != F.getCFGStamp();
  Skip.InstCFGStamp = F.getCFGStamp();
  // Built on the first dominance query of the round.
  std::optional<DominatorTree> DomTree;
  auto DT = [&]() -> const DominatorTree & {
    if (!DomTree)
      DomTree.emplace(F);
    return *DomTree;
  };
  for (BasicBlock *BB : F) {
    unsigned Num = BB->getNumber();
    if (!Skip.InstScan.needsVisit(Num, BB->getInstStamp()) &&
        !(CFGMoved && Skip.BlockedPhi[Num]))
      continue;
    Visited = true;
    Skip.BlockedPhi[Num] = false;
    for (auto It = BB->begin(); It != BB->end();) {
      Instruction *I = *It++;
      Value *V = simplifyInstructionValue(I, Ctx);
      if (!V) {
        // The dominance-guarded phi fold: phi [v, A], [undef, B] -> v only
        // if v dominates every user of the phi.
        auto *P = dyn_cast<PhiInst>(I);
        if (!P)
          continue;
        Value *Common = P->hasConstantValue();
        auto *CI = dyn_cast_or_null<Instruction>(Common);
        if (!CI)
          continue;
        bool DominatesAllUsers = true;
        for (const User *U : P->users()) {
          const auto *UI = cast<Instruction>(U);
          if (UI == P)
            continue;
          if (const auto *UP = dyn_cast<PhiInst>(UI)) {
            // Must dominate the exit of every edge carrying the phi.
            for (unsigned K = 0; K < UP->getNumIncoming(); ++K)
              if (UP->getIncomingValue(K) == P &&
                  !DT().dominatesBlockExit(CI, UP->getIncomingBlock(K))) {
                DominatesAllUsers = false;
                break;
              }
          } else if (!DT().dominates(CI, UI)) {
            DominatesAllUsers = false;
          }
          if (!DominatesAllUsers)
            break;
        }
        if (!DominatesAllUsers) {
          Skip.BlockedPhi[Num] = true;
          continue;
        }
        V = Common;
      }
      if (V == I)
        continue;
      I->replaceAllUsesWith(V);
      I->eraseFromParent();
      ++Stats.InstructionsRemoved;
      Changed = true;
    }
  }
  Stats.SubPassRunsSkipped += !Visited;
  return Changed;
}

} // namespace

SimplifyStats salssa::simplifyFunction(Function &F, Context &Ctx,
                                       bool PreserveTraps) {
  SimplifyStats Stats;
  if (F.isDeclaration())
    return Stats;
  // Compact the block numbers the analyses are indexed by; the rounds
  // below only erase blocks, so the numbers stay valid throughout.
  F.renumberBlocks();
  SkipState Skip(F);
  const unsigned MaxIterations = 16;
  bool Changed = true;
  while (Changed && Stats.Iterations < MaxIterations) {
    ++Stats.Iterations;
    Changed = false;
    Changed |= simplifyInstructions(F, Ctx, Stats, Skip);
    Changed |= mergeIdenticalPhis(F, Stats, Skip);
    Changed |= foldBranches(F, Ctx, Stats);
    // After a run every block is reachable; only an edge or block edit
    // can strand one.
    if (Skip.ReachCFGStamp != F.getCFGStamp()) {
      unsigned DeadBlocks = removeUnreachableBlocks(F);
      Stats.BlocksRemoved += DeadBlocks;
      Changed |= DeadBlocks != 0;
      Skip.ReachCFGStamp = F.getCFGStamp();
    } else {
      ++Stats.SubPassRunsSkipped;
    }
    // One predecessor snapshot serves both CFG-editing passes, which keep
    // it exact with local updates.
    PredecessorMap Preds(F);
    Changed |= threadTrivialBlocks(F, Stats, Preds);
    Changed |= mergeBlocksIntoPredecessors(F, Ctx, Stats, Preds);
    unsigned Dce = ::eliminateDeadCode(F, PreserveTraps, Skip, Stats);
    Stats.InstructionsRemoved += Dce;
    Changed |= Dce != 0;
  }
  return Stats;
}
