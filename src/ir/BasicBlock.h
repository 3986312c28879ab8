//===- ir/BasicBlock.h - Basic block ---------------------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A basic block: a label plus an ordered list of instructions ending in a
/// terminator. Blocks own their instructions. Each block carries a number,
/// unique within its function, that indexes the dense analysis tables
/// (analysis/CFG.h, analysis/Dominators.h). Predecessor lists are not kept
/// in the block: they are served by a snapshot (PredecessorMap) that the
/// passes editing the CFG update locally.
///
/// Each block also carries two edit stamps, counters that the IR mutators
/// bump (never a pass), so a pass can prove that nothing it reads changed
/// since it last looked at the block (transforms/Simplify.h lists which
/// pass reads which stamp).
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_IR_BASICBLOCK_H
#define SALSSA_IR_BASICBLOCK_H

#include "ir/Instruction.h"
#include <list>

namespace salssa {

class Function;

/// A node of the control-flow graph.
class BasicBlock {
public:
  using InstListTy = std::list<Instruction *>;
  using iterator = InstListTy::iterator;
  using const_iterator = InstListTy::const_iterator;

  explicit BasicBlock(const std::string &Name = "") : Name(Name) {}
  BasicBlock(const BasicBlock &) = delete;
  BasicBlock &operator=(const BasicBlock &) = delete;
  ~BasicBlock();

  const std::string &getName() const { return Name; }
  void setName(const std::string &N) { Name = N; }

  Function *getParent() const { return Parent; }

  /// Index of this block in its function's dense numbering: unique among
  /// the function's blocks and below Function::getMaxBlockNumber().
  /// Assigned when the block is linked; Function::renumberBlocks()
  /// compacts it to the block's list position.
  unsigned getNumber() const { return Number; }

  /// \name Instruction list.
  /// @{
  iterator begin() { return Insts.begin(); }
  iterator end() { return Insts.end(); }
  const_iterator begin() const { return Insts.begin(); }
  const_iterator end() const { return Insts.end(); }
  bool empty() const { return Insts.empty(); }
  size_t size() const { return Insts.size(); }
  Instruction *front() const { return Insts.front(); }
  Instruction *back() const { return Insts.back(); }
  const InstListTy &instructions() const { return Insts; }
  /// @}

  /// The block's terminator, or null if the block is not yet terminated.
  Instruction *getTerminator() const {
    if (Insts.empty() || !Insts.back()->isTerminator())
      return nullptr;
    return Insts.back();
  }

  /// First non-phi instruction (or null for an empty block).
  Instruction *getFirstNonPhi() const;

  /// The phi-nodes at the head of this block.
  std::vector<PhiInst *> phis() const;

  /// Successor blocks, taken from the terminator (empty when
  /// unterminated).
  std::vector<BasicBlock *> successors() const;

  /// True when this block starts (after phis) with a landingpad.
  bool isLandingBlock() const;

  /// Appends \p I, transferring ownership to this block.
  void push_back(Instruction *I);

  /// Inserts \p I before \p Pos, transferring ownership.
  iterator insert(iterator Pos, Instruction *I);

  /// Unlinks this block from its parent function without deleting it.
  void removeFromParent();

  /// Unlinks and deletes. All instructions must be use-free (call
  /// dropAllBlockReferences first when tearing down whole subgraphs).
  void eraseFromParent();

  /// Calls dropAllReferences on every instruction; used before bulk
  /// deletion so cross-references don't dangle.
  void dropAllBlockReferences();

  /// Updates every phi in this block that has an incoming entry for
  /// \p OldPred to reference \p NewPred instead.
  void replacePhiUsesWith(BasicBlock *OldPred, BasicBlock *NewPred);

  /// Removes the incoming entries for \p Pred from all phis (when the edge
  /// Pred->this is deleted).
  void removePredecessorEntries(BasicBlock *Pred);

  /// \name Edit stamps.
  /// Counters compared for equality only: an unchanged stamp proves that
  /// no event of its kind happened in between.
  /// @{
  /// Bumped when an instruction is inserted into this block, when an
  /// instruction of this block has an operand set, appended or erased or
  /// a phi incoming block redirected, and when an instruction of this
  /// block loses a use.
  unsigned getInstStamp() const { return InstStamp; }
  /// Bumped when a phi is inserted into this block, and when a phi of
  /// this block gains, loses or changes an incoming value or block.
  unsigned getPhiStamp() const { return PhiStamp; }
  /// @}

private:
  friend class Function;
  friend class Instruction;
  friend class PhiInst;
  friend class Value;
  friend class User;

  void noteOperandEdit(bool IsPhi) {
    ++InstStamp;
    PhiStamp += IsPhi;
  }
  /// An instruction of this block lost a use (a phi also bumps the
  /// function's phi-use-drop stamp).
  void noteUseDrop(bool IsPhi);
  /// \p I was linked into this block.
  void noteInserted(const Instruction *I);

  /// Renumbers the instructions' ordinals in list order (see
  /// Instruction::comesBefore).
  void renumberInstructions() const;

  std::string Name;
  Function *Parent = nullptr;
  unsigned Number = 0;
  std::list<BasicBlock *>::iterator SelfIt;
  InstListTy Insts;
  /// True while every instruction's Order increases along the list.
  /// Inserting in the middle clears it; removal keeps it.
  mutable bool InstOrderValid = false;
  unsigned InstStamp = 0;
  unsigned PhiStamp = 0;
};

} // namespace salssa

#endif // SALSSA_IR_BASICBLOCK_H
