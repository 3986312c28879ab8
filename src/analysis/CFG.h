//===- analysis/CFG.h - CFG utilities ----------------------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control-flow graph snapshots of one function, stored densely: every
/// table is a vector indexed by BasicBlock::getNumber().
///
/// - PredecessorMap: each block's predecessors. Passes that edit edges
///   (transforms/Simplify.cpp) keep one map exact with local updates
///   rather than rebuilding it after each edit.
/// - CFGInfo: a PredecessorMap plus reverse post-order and reachability.
///   Immutable: a pass that changes the CFG builds a new one.
///
/// Neither observes the IR. A snapshot stays valid while nobody edits the
/// CFG behind its back or renumbers the function's blocks.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_ANALYSIS_CFG_H
#define SALSSA_ANALYSIS_CFG_H

#include "ir/Function.h"
#include <vector>

namespace salssa {

/// Predecessor lists of every block of one function. Each list names a
/// predecessor once, over all edges (edges out of unreachable blocks
/// included), in block-list order. The passes append phi incoming entries
/// in this order, so it is part of their output.
///
/// The local updates keep block-list order by the list positions recorded
/// at construction, so they are valid while blocks are only erased, never
/// inserted or moved — true of the CFG-simplifying passes that use them.
class PredecessorMap {
public:
  explicit PredecessorMap(const Function &F);

  const std::vector<BasicBlock *> &predecessors(const BasicBlock *BB) const {
    return Preds[BB->getNumber()];
  }

  /// Records an edge Pred -> BB (no-op when Pred already reaches BB).
  void addEdge(BasicBlock *Pred, const BasicBlock *BB);

  /// Records that no edge Pred -> BB remains.
  void removeEdge(const BasicBlock *Pred, const BasicBlock *BB);

  /// Drops the list of a block that is being erased.
  void clear(const BasicBlock *BB) { Preds[BB->getNumber()].clear(); }

private:
  std::vector<std::vector<BasicBlock *>> Preds;
  std::vector<unsigned> Position; ///< block-list position at construction
};

/// An immutable snapshot of a function's CFG structure.
class CFGInfo {
public:
  explicit CFGInfo(const Function &F);

  /// Predecessors of \p BB as in PredecessorMap: unique, block-list
  /// order, unreachable sources included.
  const std::vector<BasicBlock *> &predecessors(const BasicBlock *BB) const {
    return Preds.predecessors(BB);
  }

  /// Blocks in reverse post-order from the entry (unreachable blocks are
  /// excluded).
  const std::vector<BasicBlock *> &reversePostOrder() const { return RPO; }

  /// False for a null block and for a block of another function, whose
  /// number may be out of range or alias one of this function's: the
  /// verifier asks this of operands a faulty pass took from elsewhere.
  bool isReachable(const BasicBlock *BB) const {
    if (!BB)
      return false;
    unsigned N = BB->getNumber();
    return N < RPOIndex.size() && RPOIndex[N] != Unreachable &&
           RPO[RPOIndex[N]] == BB;
  }

  /// Position of a reachable block in reversePostOrder().
  unsigned rpoIndex(const BasicBlock *BB) const {
    assert(isReachable(BB) && "RPO index of an unreachable block");
    return RPOIndex[BB->getNumber()];
  }

  size_t getNumReachableBlocks() const { return RPO.size(); }

  /// One past the largest block number the tables cover.
  unsigned getNumBlockSlots() const {
    return static_cast<unsigned>(RPOIndex.size());
  }

private:
  static constexpr unsigned Unreachable = ~0u;
  PredecessorMap Preds;
  std::vector<BasicBlock *> RPO;
  std::vector<unsigned> RPOIndex;
};

} // namespace salssa

#endif // SALSSA_ANALYSIS_CFG_H
