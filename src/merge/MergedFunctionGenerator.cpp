//===- merge/MergedFunctionGenerator.cpp - SalSSA code generator ---------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "merge/MergedFunctionGenerator.h"
#include "align/Matcher.h"
#include "analysis/CFG.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "merge/SSARepair.h"
#include "transforms/Cloning.h"
#include "transforms/Mem2Reg.h"
#include "transforms/Simplify.h"
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

using namespace salssa;

namespace {

/// A block -> block table indexed by the key block's number (in its own
/// function); null when absent.
class BlockTable {
public:
  BasicBlock *&operator[](const BasicBlock *BB) {
    unsigned N = BB->getNumber();
    if (N >= Map.size())
      Map.resize(N + 1, nullptr);
    return Map[N];
  }
  BasicBlock *lookup(const BasicBlock *BB) const {
    unsigned N = BB->getNumber();
    return N < Map.size() ? Map[N] : nullptr;
  }
  /// The entry for \p BB; throws like std::map::at when it is absent (the
  /// attempt guard turns that into a skipped pair).
  BasicBlock *at(const BasicBlock *BB) const {
    if (BasicBlock *Found = lookup(BB))
      return Found;
    throw std::out_of_range("block missing from a generator block table");
  }

private:
  std::vector<BasicBlock *> Map;
};

/// Builds the merged function for one (F1, F2, alignment) triple.
class Generator {
public:
  Generator(Function &F1, Function &F2, const std::vector<SeqItem> &Seq1,
            const std::vector<SeqItem> &Seq2, const AlignmentResult &Align,
            const MergeCodeGenOptions &Options, const std::string &NameHint,
            Module *TargetModule)
      : F1(F1), F2(F2), Seq1(Seq1), Seq2(Seq2), Align(Align),
        Options(Options), M(TargetModule ? *TargetModule : *F1.getParent()),
        Ctx(M.getContext()), NameHint(NameHint) {}

  GeneratedMerge run() {
    createFunctionShell();
    createSharedBlocks();
    buildSegmentsAndClones(/*FnIdx=*/1);
    buildSegmentsAndClones(/*FnIdx=*/2);
    chainSegments();
    resolveSuccessors();
    materializeLandingBlocks();
    resolveOperands();
    assignPhiIncomings();
    SSARepairStats Repair =
        repairSSA(*Merged, Ctx, Origin, Options.EnablePhiCoalescing);
    Result.RepairSlots = Repair.SlotsCreated;
    Result.CoalescedPairs = Repair.CoalescedPairs;
    Result.PhisCreated = Repair.PhisInserted;
    // Post-repair verification is no longer a debug-only stderr print:
    // the always-on commit firewall (MergePipeline::commitEntry) runs
    // ir/Verifier on every would-be winner and rolls rejects back, so a
    // malformed body can never reach the host module silently.
    // Clean-up stage (Fig 1): register promotion of whatever slots remain
    // promotable (for FMSA inputs: the demotion slots that merging did not
    // ruin) and general simplification.
    Result.PhisCreated += promoteAllocasToRegisters(*Merged, Ctx).PhisInserted;
    // PreserveTraps: the merged body must keep the original pair's trap
    // behaviour. Promotion strips demotion slots, which can leave a
    // potentially-trapping load dead; default DCE would erase it and with
    // it an observable out-of-bounds trap.
    Result.Cleanup = simplifyFunction(*Merged, Ctx, /*PreserveTraps=*/true);
    Result.Merged = Merged;
    return Result;
  }

private:
  //===--------------------------------------------------------------------===//
  // Shell and bookkeeping
  //===--------------------------------------------------------------------===//

  void createFunctionShell() {
    Result.Signature = mergeSignatures(F1, F2, Ctx);
    Merged =
        M.createFunction(M.makeUniqueName(NameHint), Result.Signature.FnTy);
    Merged->getArg(0)->setName("fid");
    Fid = Merged->getArg(0);
    Entry = Merged->createBlock("entry");
  }

  Value *&vmap(int FnIdx, Value *V) {
    return FnIdx == 1 ? VMap1[V] : VMap2[V];
  }

  BlockTable &head(int FnIdx) { return FnIdx == 1 ? Head1 : Head2; }

  BlockTable &revMap(int FnIdx) { return FnIdx == 1 ? RevMap1 : RevMap2; }

  /// Resolves an original value of function \p FnIdx to its merged-function
  /// counterpart.
  Value *resolve(int FnIdx, Value *V) {
    if (auto *A = dyn_cast<Argument>(V)) {
      unsigned Slot = FnIdx == 1
                          ? Result.Signature.ArgIndex1[A->getArgIndex()]
                          : Result.Signature.ArgIndex2[A->getArgIndex()];
      return Merged->getArg(Slot);
    }
    if (isa<Constant>(V))
      return V;
    auto &Map = FnIdx == 1 ? VMap1 : VMap2;
    auto It = Map.find(V);
    assert(It != Map.end() && "original value was never cloned/merged");
    return It->second;
  }

  //===--------------------------------------------------------------------===//
  // §4.1: CFG generation
  //===--------------------------------------------------------------------===//

  /// Copies the phi-nodes of \p B (function \p FnIdx) into \p MB; incoming
  /// entries are assigned later from the block mapping (§4.2.3).
  void copyPhis(BasicBlock *B, int FnIdx, BasicBlock *MB) {
    for (PhiInst *P : B->phis()) {
      auto *NP = new PhiInst(P->getType());
      NP->setName(P->getName());
      // Phis must stay contiguous at the head.
      Instruction *FirstNonPhi = MB->getFirstNonPhi();
      if (FirstNonPhi)
        NP->insertBefore(FirstNonPhi);
      else
        MB->push_back(NP);
      vmap(FnIdx, P) = NP;
      CopiedPhis.push_back({NP, P, FnIdx});
      Origin[NP] = FnIdx == 1 ? MergeOrigin::FromF1 : MergeOrigin::FromF2;
    }
  }

  void createSharedBlocks() {
    size_t N1 = F1.getInstructionCount(), N2 = F2.getInstructionCount();
    VMap1.reserve(N1);
    VMap2.reserve(N2);
    InstBlock1.reserve(N1);
    InstBlock2.reserve(N2);
    OrigOfClone.reserve(N1 + N2);
    Origin.reserve(N1 + N2);
    for (const AlignedEntry &E : Align.Entries) {
      if (!E.isMatch())
        continue;
      const SeqItem &A = Seq1[static_cast<size_t>(E.Idx1)];
      const SeqItem &B = Seq2[static_cast<size_t>(E.Idx2)];
      assert(itemsMatch(A, B) && "alignment paired unmatchable items");
      BasicBlock *MB = Merged->createBlock();
      if (A.isLabel()) {
        MB->setName("m." + A.Block->getName() + "." + B.Block->getName());
        Head1[A.Block] = MB;
        Head2[B.Block] = MB;
        copyPhis(A.Block, 1, MB);
        copyPhis(B.Block, 2, MB);
      } else {
        Instruction *C = cloneInstruction(A.Inst, Ctx);
        C->setName(A.Inst->getName());
        MB->push_back(C);
        VMap1[A.Inst] = C;
        VMap2[B.Inst] = C;
        MergedPair[C] = {A.Inst, B.Inst};
        Origin[C] = MergeOrigin::Shared;
        InstBlock1[A.Inst] = MB;
        InstBlock2[B.Inst] = MB;
      }
    }
  }

  /// Walks function \p FnIdx block by block, creating label blocks and
  /// non-matching run blocks, collecting the per-block segment chains.
  void buildSegmentsAndClones(int FnIdx) {
    Function &F = FnIdx == 1 ? F1 : F2;
    auto &Heads = head(FnIdx);
    auto &Rev = revMap(FnIdx);
    auto &InstBlocks = FnIdx == 1 ? InstBlock1 : InstBlock2;
    auto &Next = FnIdx == 1 ? Next1 : Next2;

    for (BasicBlock *B : F) {
      std::vector<BasicBlock *> Segs;
      BasicBlock *LB = Heads.lookup(B); // a matched label: shared block
      if (!LB) {
        LB = Merged->createBlock("c" + std::to_string(FnIdx) + "." +
                                 B->getName());
        copyPhis(B, FnIdx, LB);
        Heads[B] = LB;
      }
      Rev[LB] = B;
      Segs.push_back(LB);

      BasicBlock *Run = nullptr;
      for (Instruction *I : *B) {
        if (I->isPhi() || isa<LandingPadInst>(I))
          continue;
        auto MIt = InstBlocks.find(I);
        if (MIt != InstBlocks.end()) {
          Run = nullptr;
          Rev[MIt->second] = B;
          Segs.push_back(MIt->second);
          continue;
        }
        if (!Run) {
          Run = Merged->createBlock("r" + std::to_string(FnIdx) + "." +
                                    B->getName());
          Rev[Run] = B;
          Segs.push_back(Run);
        }
        Instruction *C = cloneInstruction(I, Ctx);
        C->setName(I->getName());
        Run->push_back(C);
        vmap(FnIdx, I) = C;
        OrigOfClone[C] = I;
        Origin[C] = FnIdx == 1 ? MergeOrigin::FromF1 : MergeOrigin::FromF2;
      }

      for (size_t S = 0; S + 1 < Segs.size(); ++S) {
        assert(!Next.lookup(Segs[S]) && "segment chained twice");
        Next[Segs[S]] = Segs[S + 1];
      }
    }
  }

  /// Appends the chain branches (§4.1): unconditional within one
  /// function's flow, conditional on %fid where the two functions leave a
  /// shared block differently.
  void chainSegments() {
    IRBuilder B(Ctx, Entry);
    BasicBlock *H1 = Head1.at(F1.getEntryBlock());
    BasicBlock *H2 = Head2.at(F2.getEntryBlock());
    Instruction *Dispatch =
        H1 == H2 ? B.createBr(H1) : B.createCondBr(Fid, H1, H2);
    Synthetic.insert(Dispatch);

    std::vector<BasicBlock *> Blocks(Merged->begin(), Merged->end());
    for (BasicBlock *MB : Blocks) {
      if (MB == Entry || MB->getTerminator())
        continue;
      BasicBlock *N1 = Next1.lookup(MB);
      BasicBlock *N2 = Next2.lookup(MB);
      assert((N1 || N2) && "unterminated block with no chain successor");
      B.setInsertPoint(MB);
      Instruction *Chain;
      if (N1 && N2 && N1 != N2)
        Chain = B.createCondBr(Fid, N1, N2);
      else
        Chain = B.createBr(N1 ? N1 : N2);
      Synthetic.insert(Chain);
    }
  }

  //===--------------------------------------------------------------------===//
  // §4.2.1: label operands (with the Fig 11 xor optimization)
  //===--------------------------------------------------------------------===//

  void resolveSuccessors() {
    std::vector<BasicBlock *> Blocks(Merged->begin(), Merged->end());
    for (BasicBlock *MB : Blocks) {
      Instruction *T = MB->getTerminator();
      assert(T && "block left unterminated after chaining");
      if (Synthetic.count(T))
        continue;
      auto PIt = MergedPair.find(T);
      if (PIt == MergedPair.end()) {
        // Cloned from one side: route successors through that side's head
        // map.
        MergeOrigin O = Origin.at(T);
        if (O == MergeOrigin::Shared)
          continue; // non-terminator or already handled
        int FnIdx = O == MergeOrigin::FromF1 ? 1 : 2;
        auto &Heads = head(FnIdx);
        for (unsigned S = 0; S < T->getNumSuccessors(); ++S)
          T->setSuccessor(S, Heads.at(T->getSuccessor(S)));
        continue;
      }
      // A merged terminator pair.
      auto [I1, I2] = PIt->second;
      unsigned NumSucc = T->getNumSuccessors();
      std::vector<BasicBlock *> S1(NumSucc), S2(NumSucc);
      for (unsigned S = 0; S < NumSucc; ++S) {
        S1[S] = Head1.at(I1->getSuccessor(S));
        S2[S] = Head2.at(I2->getSuccessor(S));
      }
      // Fig 11: crossed conditional branches merge with one xor on the
      // condition instead of two label-selection blocks.
      auto *Br = dyn_cast<BranchInst>(T);
      if (Options.EnableXorBranchFusion && Br && Br->isConditional() &&
          NumSucc == 2 && S1[0] == S2[1] && S1[1] == S2[0] &&
          S1[0] != S1[1]) {
        // Successors take F2's orientation; condition becomes
        // xor(cond, fid) during operand resolution.
        T->setSuccessor(0, S1[1]);
        T->setSuccessor(1, S1[0]);
        XorFused.insert(T);
        ++Result.XorFusions;
        continue;
      }
      std::map<std::pair<BasicBlock *, BasicBlock *>, BasicBlock *> LocalSel;
      for (unsigned S = 0; S < NumSucc; ++S) {
        if (S1[S] == S2[S]) {
          T->setSuccessor(S, S1[S]);
          continue;
        }
        BasicBlock *&Sel = LocalSel[{S1[S], S2[S]}];
        if (!Sel) {
          Sel = Merged->createBlock("lsel");
          IRBuilder B(Ctx, Sel);
          Synthetic.insert(B.createCondBr(Fid, S1[S], S2[S]));
          RevMap1[Sel] = I1->getParent();
          RevMap2[Sel] = I2->getParent();
          ++Result.LabelSelectionBlocks;
        }
        T->setSuccessor(S, Sel);
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // §4.2.2: landing blocks
  //===--------------------------------------------------------------------===//

  /// The landingpad instruction heading \p UnwindDest in an input function.
  static LandingPadInst *originalLandingPad(BasicBlock *UnwindDest) {
    Instruction *First = UnwindDest->getFirstNonPhi();
    assert(First && isa<LandingPadInst>(First) &&
           "invoke unwind destination without landingpad");
    return cast<LandingPadInst>(First);
  }

  void materializeLandingBlocks() {
    std::vector<InvokeInst *> Invokes;
    for (BasicBlock *MB : *Merged)
      for (Instruction *I : *MB)
        if (auto *Inv = dyn_cast<InvokeInst>(I))
          Invokes.push_back(Inv);
    for (InvokeInst *Inv : Invokes) {
      BasicBlock *Target = Inv->getUnwindDest();
      BasicBlock *LB = Merged->createBlock("lpad");
      IRBuilder B(Ctx, LB);
      auto *LP = cast<LandingPadInst>(B.createLandingPad("lp"));
      Synthetic.insert(B.createBr(Target));
      Inv->setUnwindDest(LB);
      Origin[LP] = MergeOrigin::Shared;

      auto PIt = MergedPair.find(Inv);
      if (PIt != MergedPair.end()) {
        auto [I1, I2] = PIt->second;
        VMap1[originalLandingPad(cast<InvokeInst>(I1)->getUnwindDest())] = LP;
        VMap2[originalLandingPad(cast<InvokeInst>(I2)->getUnwindDest())] = LP;
        RevMap1[LB] = I1->getParent();
        RevMap2[LB] = I2->getParent();
      } else {
        int FnIdx = Origin.at(Inv) == MergeOrigin::FromF1 ? 1 : 2;
        // The clone still references nothing original, but the pair map
        // does: find the original invoke through the value map inverse is
        // unnecessary — the unwind target was already routed through
        // head(FnIdx), so recover the original landingpad via the original
        // instruction recorded at clone time.
        auto OIt = OrigOfClone.find(Inv);
        InvokeInst *OrigInv = OIt != OrigOfClone.end()
                                  ? cast<InvokeInst>(OIt->second)
                                  : nullptr;
        assert(OrigInv && "cloned invoke without origin record");
        vmap(FnIdx, originalLandingPad(OrigInv->getUnwindDest())) = LP;
        revMap(FnIdx)[LB] = OrigInv->getParent();
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // §4.2: value operand assignment (Fig 8/9)
  //===--------------------------------------------------------------------===//

  Value *selectOperand(Value *V1, Value *V2, Instruction *Before) {
    if (V1 == V2)
      return V1;
    if (isa<UndefValue>(V1))
      return V2;
    if (isa<UndefValue>(V2))
      return V1;
    auto *Sel = new SelectInst(Fid, V1, V2);
    Sel->setName("opsel");
    Sel->insertBefore(Before);
    Origin[Sel] = MergeOrigin::Shared;
    ++Result.SelectsInserted;
    return Sel;
  }

  void resolveOperands() {
    std::vector<BasicBlock *> Blocks(Merged->begin(), Merged->end());
    for (BasicBlock *MB : Blocks) {
      std::vector<Instruction *> Insts(MB->begin(), MB->end());
      for (Instruction *I : Insts) {
        if (Synthetic.count(I) || I->isPhi() || isa<LandingPadInst>(I))
          continue;
        auto PIt = MergedPair.find(I);
        if (PIt == MergedPair.end()) {
          // One-sided clone: remap operands through its function's maps.
          MergeOrigin O = Origin.at(I);
          assert(O != MergeOrigin::Shared && "unexpected shared clone");
          int FnIdx = O == MergeOrigin::FromF1 ? 1 : 2;
          // initOperand: the slots hold cloneInstruction's unregistered
          // placeholders into the original function.
          for (unsigned K = 0; K < I->getNumOperands(); ++K)
            I->initOperand(K, resolve(FnIdx, I->getOperand(K)));
          continue;
        }
        auto [I1, I2] = PIt->second;
        unsigned N = I->getNumOperands();
        std::vector<Value *> V1(N), V2(N);
        for (unsigned K = 0; K < N; ++K) {
          V1[K] = resolve(1, I1->getOperand(K));
          V2[K] = resolve(2, I2->getOperand(K));
        }
        // Fig 9: commutative operand reordering to maximize matches.
        if (Options.EnableOperandReordering && I->isCommutative() &&
            N == 2) {
          unsigned Direct = (V1[0] != V2[0]) + (V1[1] != V2[1]);
          unsigned Swapped = (V1[0] != V2[1]) + (V1[1] != V2[0]);
          if (Swapped < Direct)
            std::swap(V2[0], V2[1]);
        }
        for (unsigned K = 0; K < N; ++K)
          I->initOperand(K, selectOperand(V1[K], V2[K], I));
        // Fig 11: apply the xor to the (already selected) condition.
        if (XorFused.count(I)) {
          auto *Xor =
              new BinaryOperator(ValueKind::Xor, I->getOperand(0), Fid);
          Xor->setName("brxor");
          Xor->insertBefore(I);
          Origin[Xor] = MergeOrigin::Shared;
          I->setOperand(0, Xor);
        }
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // §4.2.3: phi incoming values through the block mapping
  //===--------------------------------------------------------------------===//

  void assignPhiIncomings() {
    // Full predecessor map over the now-final CFG (each predecessor once,
    // in layout order).
    PredecessorMap Preds(*Merged);
    for (const CopiedPhi &CP : CopiedPhis) {
      BlockTable &Rev = revMap(CP.FnIdx);
      const std::vector<BasicBlock *> &PhiPreds =
          Preds.predecessors(CP.Clone->getParent());
      CP.Clone->reserveIncoming(static_cast<unsigned>(PhiPreds.size()));
      for (BasicBlock *PB : PhiPreds) {
        Value *Incoming = Ctx.getUndef(CP.Clone->getType());
        if (BasicBlock *OrigPred = Rev.lookup(PB)) {
          int Idx = CP.Orig->indexOfBlock(OrigPred);
          if (Idx >= 0)
            Incoming = resolve(
                CP.FnIdx,
                CP.Orig->getIncomingValue(static_cast<unsigned>(Idx)));
        }
        CP.Clone->addIncoming(Incoming, PB);
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Data
  //===--------------------------------------------------------------------===//

  Function &F1;
  Function &F2;
  const std::vector<SeqItem> &Seq1;
  const std::vector<SeqItem> &Seq2;
  const AlignmentResult &Align;
  MergeCodeGenOptions Options;
  Module &M;
  Context &Ctx;
  std::string NameHint;

  Function *Merged = nullptr;
  Value *Fid = nullptr;
  BasicBlock *Entry = nullptr;
  GeneratedMerge Result;

  // Value/block mappings (§4.1.2). Block tables are indexed by block
  // number, the rest hashed by pointer; all are only looked up, never
  // iterated, so no pointer order reaches the output.
  std::unordered_map<Value *, Value *> VMap1, VMap2; // original -> merged
  BlockTable Head1, Head2;       // original block -> merged block
  BlockTable RevMap1, RevMap2;   // merged block -> original block
  BlockTable Next1, Next2;       // merged block -> chain successor
  std::unordered_map<Instruction *, BasicBlock *> InstBlock1, InstBlock2;
  std::unordered_map<Instruction *, std::pair<Instruction *, Instruction *>>
      MergedPair;
  std::unordered_map<Instruction *, Instruction *> OrigOfClone; // clone -> orig
  MergeOriginMap Origin;
  std::unordered_set<Instruction *> Synthetic; // generator branches
  std::unordered_set<Instruction *> XorFused;

  struct CopiedPhi {
    PhiInst *Clone;
    PhiInst *Orig;
    int FnIdx;
  };
  std::vector<CopiedPhi> CopiedPhis;
};

} // namespace

GeneratedMerge salssa::generateMergedFunction(
    Function &F1, Function &F2, const std::vector<SeqItem> &Seq1,
    const std::vector<SeqItem> &Seq2, const AlignmentResult &Alignment,
    const MergeCodeGenOptions &Options, const std::string &NameHint,
    Module *TargetModule) {
  Generator G(F1, F2, Seq1, Seq2, Alignment, Options, NameHint, TargetModule);
  return G.run();
}
