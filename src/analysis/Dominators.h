//===- analysis/Dominators.h - Dominator tree --------------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree built with the Cooper-Harvey-Kennedy iterative algorithm,
/// plus dominance frontiers (Cytron et al.) used by SSA construction. The
/// verifier uses instruction-level dominance to check the SSA dominance
/// property that SalSSA's code generator must restore (§4.3 of the paper).
///
/// All tables are vectors indexed by block number (see analysis/CFG.h).
/// Block dominance is O(1) through DFS intervals of the tree; same-block
/// instruction dominance uses the IR's instruction ordinals.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_ANALYSIS_DOMINATORS_H
#define SALSSA_ANALYSIS_DOMINATORS_H

#include "analysis/CFG.h"

namespace salssa {

/// Immediate-dominator tree over the reachable CFG of one function.
class DominatorTree {
public:
  explicit DominatorTree(const Function &F);

  /// Immediate dominator of \p BB (null for the entry or unreachable
  /// blocks).
  BasicBlock *getIDom(const BasicBlock *BB) const;

  /// Block-level dominance (reflexive). Unreachable blocks dominate
  /// nothing and are dominated by everything (vacuous truth, matching
  /// LLVM's convention for verifier purposes).
  bool dominates(const BasicBlock *A, const BasicBlock *B) const;

  /// Instruction-level dominance: true when \p Def's value is available at
  /// \p User. Same-block cases use instruction order; phi uses must be
  /// checked against the incoming block's terminator by the caller.
  bool dominates(const Instruction *Def, const Instruction *User) const;

  /// True when the value \p Def is available on exit from block \p BB.
  bool dominatesBlockExit(const Instruction *Def,
                          const BasicBlock *BB) const;

  /// Dominance frontier of \p BB in reverse post-order (all frontiers
  /// are computed on the first query).
  const std::vector<BasicBlock *> &dominanceFrontier(const BasicBlock *BB);

  /// Children of \p BB in the dominator tree, in reverse post-order.
  const std::vector<BasicBlock *> &getChildren(const BasicBlock *BB) const {
    return Children[BB->getNumber()];
  }

  /// Iterated dominance frontier of \p DefBlocks, in reverse post-order —
  /// the phi placement set of Cytron et al.'s SSA construction.
  /// Unreachable definition blocks are ignored.
  std::vector<BasicBlock *>
  iteratedDominanceFrontier(const std::vector<BasicBlock *> &DefBlocks);

  const CFGInfo &getCFG() const { return CFG; }

private:
  void computeFrontiers();

  CFGInfo CFG;
  /// Indexed by block number. The entry is its own idom internally;
  /// unreachable blocks have none.
  std::vector<BasicBlock *> IDom;
  std::vector<std::vector<BasicBlock *>> Children;
  /// Pre-order entry/exit times of a DFS over the tree: A dominates B iff
  /// B's interval nests in A's.
  std::vector<unsigned> DFSIn, DFSOut;
  bool FrontiersComputed = false;
  std::vector<std::vector<BasicBlock *>> Frontiers;
  /// Scratch marks for iteratedDominanceFrontier: a block is in the
  /// current IDF when its mark equals IDFEpoch.
  std::vector<unsigned> IDFMark;
  unsigned IDFEpoch = 0;
};

} // namespace salssa

#endif // SALSSA_ANALYSIS_DOMINATORS_H
