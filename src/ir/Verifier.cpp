//===- ir/Verifier.cpp - IR structural and SSA verification -------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"
#include "analysis/Dominators.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include <algorithm>
#include <set>
#include <sstream>

using namespace salssa;

std::string VerifierReport::str() const {
  std::string S;
  for (const std::string &E : Errors) {
    S += E;
    S += "\n";
  }
  return S;
}

namespace {

/// Collects errors for one function.
class FunctionVerifier {
public:
  explicit FunctionVerifier(const Function &F) : F(F) {}

  void run(VerifierReport &Report) {
    checkStructure();
    if (!LocalErrors.empty()) {
      // Structural breakage makes dominance analysis unsafe; report what
      // we have.
      flush(Report);
      return;
    }
    checkUseListIntegrity();
    checkPhisAndLandingPads();
    checkTypesAndOperands();
    checkDominance();
    flush(Report);
  }

private:
  /// Per-function error cap (see Verifier.h): the merge pipeline's
  /// commit firewall verifies arbitrary generated bodies on every run,
  /// so a badly corrupt function must cost a bounded report, not one
  /// error string per broken instruction.
  static constexpr size_t MaxErrors = 64;

  void error(const std::string &Msg) {
    if (LocalErrors.size() >= MaxErrors) {
      Truncated = true;
      return;
    }
    LocalErrors.push_back("function '" + F.getName() + "': " + Msg);
  }

  void errorAt(const Instruction *I, const std::string &Msg) {
    error(Msg + " in: " + printInstruction(*I));
  }

  void flush(VerifierReport &Report) {
    Report.Errors.insert(Report.Errors.end(), LocalErrors.begin(),
                         LocalErrors.end());
    if (Truncated)
      Report.Errors.push_back("function '" + F.getName() +
                              "': ... further errors truncated");
  }

  void checkStructure() {
    if (F.getNumBlocks() == 0)
      return;
    std::set<const BasicBlock *> Blocks;
    for (const BasicBlock *BB : F)
      Blocks.insert(BB);
    for (const BasicBlock *BB : F) {
      if (BB->getParent() != &F)
        error("block with wrong parent");
      if (BB->empty()) {
        error("empty basic block '" + BB->getName() + "'");
        continue;
      }
      Instruction *Term = BB->getTerminator();
      if (!Term)
        error("block '" + BB->getName() + "' lacks a terminator");
      unsigned Index = 0;
      for (const Instruction *I : *BB) {
        if (I->getParent() != BB)
          errorAt(I, "instruction with wrong parent");
        if (I->isTerminator() && I != BB->back())
          errorAt(I, "terminator in the middle of a block");
        ++Index;
      }
      if (Term)
        for (BasicBlock *S : Term->successors())
          if (!Blocks.count(S))
            error("terminator of '" + BB->getName() +
                  "' targets a block outside the function");
    }
    // The entry block must have no predecessors.
    const BasicBlock *Entry = F.getEntryBlock();
    for (const BasicBlock *BB : F) {
      const Instruction *T = BB->getTerminator();
      if (!T)
        continue;
      for (BasicBlock *S : T->successors())
        if (S == Entry)
          error("entry block has a predecessor");
    }
  }

  void checkUseListIntegrity() {
    // Count operand references per (user, value) and compare with the
    // value's user list. Both sides are sorted vectors (one sort instead
    // of a tree node per reference). Each value's users are visited in
    // pointer order, one diagnostic per distinct user, which fixes the
    // order of the diagnostics.
    using Ref = std::pair<const User *, const Value *>;
    std::vector<Ref> Refs;
    for (const BasicBlock *BB : F)
      for (const Instruction *I : *BB)
        for (const Value *Op : I->operands())
          if (Op)
            Refs.push_back({I, Op});
    std::sort(Refs.begin(), Refs.end());
    std::vector<const User *> Users;
    for (const BasicBlock *BB : F)
      for (const Instruction *I : *BB) {
        // Every use of I must come from within this function.
        Users.assign(I->users().begin(), I->users().end());
        std::sort(Users.begin(), Users.end());
        for (auto It = Users.begin(); It != Users.end();) {
          const User *U = *It;
          auto RunEnd = std::upper_bound(It, Users.end(), U);
          auto N = RunEnd - It;
          It = RunEnd;
          auto *UI = dyn_cast<Instruction>(U);
          if (!UI || UI->getFunction() != &F) {
            errorAt(I, "used by an instruction outside this function");
            continue;
          }
          auto Range =
              std::equal_range(Refs.begin(), Refs.end(), Ref{U, I});
          if (Range.second - Range.first != N)
            errorAt(I, "use-list count mismatch");
        }
      }
  }

  void checkPhisAndLandingPads() {
    CFGInfo CFG(F);
    std::vector<unsigned> PredMark(CFG.getNumBlockSlots(), 0);
    std::vector<unsigned> InMark(CFG.getNumBlockSlots(), 0);
    unsigned Epoch = 0;
    for (const BasicBlock *BB : F) {
      bool SeenNonPhi = false;
      for (const Instruction *I : *BB) {
        if (I->isPhi() && SeenNonPhi)
          errorAt(I, "phi after a non-phi instruction");
        if (!I->isPhi())
          SeenNonPhi = true;
      }
      // Phi incoming blocks must exactly match the predecessor set — over
      // *all* edges, including ones from unreachable blocks (as in LLVM).
      // Marks over block numbers: a predecessor of BB carries PredEpoch,
      // an incoming block of the current phi carries the phi's epoch.
      const std::vector<BasicBlock *> &Preds = CFG.predecessors(BB);
      unsigned PredEpoch = ++Epoch;
      for (const BasicBlock *Pred : Preds)
        PredMark[Pred->getNumber()] = PredEpoch;
      for (const PhiInst *P : BB->phis()) {
        unsigned PhiEpoch = ++Epoch;
        for (unsigned I = 0; I < P->getNumIncoming(); ++I) {
          const BasicBlock *In = P->getIncomingBlock(I);
          if (In->getParent() != &F) {
            errorAt(P, "incoming block '" + In->getName() +
                           "' is not a predecessor");
            continue;
          }
          unsigned &Seen = InMark[In->getNumber()];
          if (Seen == PhiEpoch)
            errorAt(P, "duplicate incoming block");
          Seen = PhiEpoch;
          if (PredMark[In->getNumber()] != PredEpoch)
            errorAt(P, "incoming block '" + In->getName() +
                           "' is not a predecessor");
        }
        for (const BasicBlock *Pred : Preds)
          if (InMark[Pred->getNumber()] != PhiEpoch)
            errorAt(P, "missing incoming entry for predecessor '" +
                           Pred->getName() + "'");
      }
      if (!CFG.isReachable(BB))
        continue;
      // Landing-pad model: landingpad iff all preds reach us on unwind
      // edges; landingpad must be the first non-phi.
      bool HasUnwindPred = false;
      bool HasNormalPred = false;
      for (BasicBlock *Pred : Preds) {
        if (!CFG.isReachable(Pred))
          continue;
        const Instruction *T = Pred->getTerminator();
        if (const auto *Inv = dyn_cast<InvokeInst>(T)) {
          if (Inv->getUnwindDest() == BB)
            HasUnwindPred = true;
          if (Inv->getNormalDest() == BB)
            HasNormalPred = true;
        } else {
          HasNormalPred = true;
        }
      }
      const Instruction *FirstNonPhi = BB->getFirstNonPhi();
      bool IsLanding = FirstNonPhi && isa<LandingPadInst>(FirstNonPhi);
      if (HasUnwindPred && !IsLanding)
        error("unwind destination '" + BB->getName() +
              "' does not start with a landingpad");
      if (IsLanding && HasNormalPred)
        error("landing block '" + BB->getName() +
              "' reachable through a normal edge");
      if (IsLanding && !HasUnwindPred && !Preds.empty())
        error("landing block '" + BB->getName() + "' has no unwind edge");
      // Only one landingpad per block, and only at the head.
      for (const Instruction *I : *BB)
        if (isa<LandingPadInst>(I) && I != FirstNonPhi)
          errorAt(I, "stray landingpad");
    }
  }

  void checkTypesAndOperands() {
    for (const BasicBlock *BB : F)
      for (const Instruction *I : *BB) {
        for (const Value *Op : I->operands()) {
          if (!Op) {
            errorAt(I, "null operand");
            continue;
          }
          if (const auto *A = dyn_cast<Argument>(Op))
            if (A->getParent() != &F)
              errorAt(I, "argument operand from another function");
        }
        if (const auto *B = dyn_cast<BinaryOperator>(I)) {
          if (B->getLHS()->getType() != B->getType() ||
              B->getRHS()->getType() != B->getType())
            errorAt(I, "binary operator type mismatch");
        } else if (const auto *C = dyn_cast<CmpInst>(I)) {
          if (C->getLHS()->getType() != C->getRHS()->getType())
            errorAt(I, "cmp operand type mismatch");
        } else if (const auto *S = dyn_cast<SelectInst>(I)) {
          if (S->getTrueValue()->getType() != S->getType() ||
              S->getFalseValue()->getType() != S->getType())
            errorAt(I, "select arm type mismatch");
          if (!S->getCondition()->getType()->isBool())
            errorAt(I, "select condition is not i1");
        } else if (const auto *P = dyn_cast<PhiInst>(I)) {
          for (unsigned K = 0; K < P->getNumIncoming(); ++K)
            if (P->getIncomingValue(K)->getType() != P->getType())
              errorAt(I, "phi incoming type mismatch");
        } else if (const auto *CB = dyn_cast<CallBase>(I)) {
          const Function *Callee = CB->getCallee();
          if (!Callee) {
            errorAt(I, "call with null callee");
          } else {
            const auto &Params = Callee->getFunctionType()->getParamTypes();
            if (Params.size() != CB->getNumArgs())
              errorAt(I, "call argument count mismatch");
            else
              for (unsigned K = 0; K < Params.size(); ++K)
                if (CB->getArg(K)->getType() != Params[K])
                  errorAt(I, "call argument type mismatch");
            if (Callee->getReturnType() != CB->getType())
              errorAt(I, "call return type mismatch");
          }
        } else if (const auto *R = dyn_cast<RetInst>(I)) {
          Type *RetTy = F.getReturnType();
          if (R->hasReturnValue()) {
            if (R->getReturnValue()->getType() != RetTy)
              errorAt(I, "return value type mismatch");
          } else if (!RetTy->isVoid()) {
            errorAt(I, "void return from non-void function");
          }
        } else if (const auto *Br = dyn_cast<BranchInst>(I)) {
          if (Br->isConditional() &&
              !Br->getCondition()->getType()->isBool())
            errorAt(I, "branch condition is not i1");
        } else if (const auto *St = dyn_cast<StoreInst>(I)) {
          if (!St->getValueOperand()->getType()->isFirstClass())
            errorAt(I, "store of non-first-class value");
        }
      }
  }

  /// Reports \p DefI, an operand of \p User, when it is unlinked or in
  /// another function; only the other operands get a dominance query.
  bool isLocalDef(const Instruction *User, const Instruction *DefI) {
    if (!DefI->getParent()) {
      errorAt(User, "operand instruction is unlinked");
      return false;
    }
    if (DefI->getFunction() != &F) {
      errorAt(User, "operand instruction from another function");
      return false;
    }
    return true;
  }

  void checkDominance() {
    DominatorTree DT(F);
    const CFGInfo &CFG = DT.getCFG();
    for (const BasicBlock *BB : F) {
      if (!CFG.isReachable(BB))
        continue; // values in dead code are exempt, as in LLVM
      for (const Instruction *I : *BB) {
        if (const auto *P = dyn_cast<PhiInst>(I)) {
          for (unsigned K = 0; K < P->getNumIncoming(); ++K) {
            const BasicBlock *In = P->getIncomingBlock(K);
            if (In->getParent() != &F)
              continue; // reported by checkPhisAndLandingPads
            const auto *DefI = dyn_cast<Instruction>(P->getIncomingValue(K));
            if (!DefI || !isLocalDef(I, DefI))
              continue;
            if (!DT.dominatesBlockExit(DefI, In))
              errorAt(I, "phi incoming value does not dominate the "
                         "incoming block's exit");
          }
          continue;
        }
        for (const Value *Op : I->operands()) {
          const auto *DefI = dyn_cast<Instruction>(Op);
          if (!DefI || !isLocalDef(I, DefI))
            continue;
          if (!DT.dominates(DefI, I))
            errorAt(I, "operand does not dominate use (SSA dominance "
                       "property violated)");
        }
      }
    }
  }

  const Function &F;
  std::vector<std::string> LocalErrors;
  bool Truncated = false; ///< errors past MaxErrors were dropped
};

} // namespace

VerifierReport salssa::verifyFunction(const Function &F) {
  VerifierReport Report;
  if (F.isDeclaration())
    return Report;
  FunctionVerifier(F).run(Report);
  return Report;
}

VerifierReport salssa::verifyModule(const Module &M) {
  VerifierReport Report;
  for (const Function *F : M.functions()) {
    if (F->isDeclaration())
      continue;
    FunctionVerifier(*F).run(Report);
  }
  return Report;
}
