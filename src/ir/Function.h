//===- ir/Function.h - Function ---------------------------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A function: a signature, arguments, and a list of basic blocks (the
/// first being the entry). Functions with no blocks are declarations
/// (external functions — the workloads use them to model calls into
/// libraries, and the interpreter gives them deterministic behaviour).
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_IR_FUNCTION_H
#define SALSSA_IR_FUNCTION_H

#include "ir/BasicBlock.h"
#include <memory>

namespace salssa {

class Module;
class Function;

/// A formal parameter of a function.
class Argument : public Value {
public:
  unsigned getArgIndex() const { return Index; }
  Function *getParent() const { return Parent; }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Argument;
  }

private:
  friend class Function;
  Argument(Type *T, unsigned Idx, Function *F)
      : Value(ValueKind::Argument, T), Index(Idx), Parent(F) {}
  unsigned Index;
  Function *Parent;
};

/// A function definition or declaration.
class Function {
public:
  using BlockListTy = std::list<BasicBlock *>;
  using iterator = BlockListTy::iterator;
  using const_iterator = BlockListTy::const_iterator;

  Function(const Function &) = delete;
  Function &operator=(const Function &) = delete;
  ~Function();

  const std::string &getName() const { return Name; }
  void setName(const std::string &N) { Name = N; }

  Module *getParent() const { return Parent; }
  Type *getFunctionType() const { return FnTy; }
  Type *getReturnType() const { return FnTy->getReturnType(); }

  unsigned getNumArgs() const { return static_cast<unsigned>(Args.size()); }
  Argument *getArg(unsigned I) const {
    assert(I < Args.size() && "argument index out of range");
    return Args[I].get();
  }
  const std::vector<std::unique_ptr<Argument>> &args() const { return Args; }

  bool isDeclaration() const { return Blocks.empty(); }

  /// \name Block list.
  /// @{
  iterator begin() { return Blocks.begin(); }
  iterator end() { return Blocks.end(); }
  const_iterator begin() const { return Blocks.begin(); }
  const_iterator end() const { return Blocks.end(); }
  size_t getNumBlocks() const { return Blocks.size(); }
  BasicBlock *getEntryBlock() const {
    assert(!Blocks.empty() && "declaration has no entry block");
    return Blocks.front();
  }
  const BlockListTy &blocks() const { return Blocks; }
  /// @}

  /// \name Dense block numbering.
  /// Every linked block has a number below getMaxBlockNumber(), unique in
  /// this function; analyses size their tables by it. Erasing a block
  /// leaves a hole until renumberBlocks() compacts the numbers to list
  /// positions. Renumbering invalidates every analysis built on the
  /// function, so only passes that own all their analyses call it.
  /// @{
  unsigned getMaxBlockNumber() const { return NextBlockNumber; }
  void renumberBlocks();
  /// @}

  /// Creates a block appended at the end (or before \p Before if given)
  /// and returns it.
  BasicBlock *createBlock(const std::string &Name = "",
                          BasicBlock *Before = nullptr);

  /// Adopts an externally created block at the end of the list.
  void adoptBlock(BasicBlock *BB);

  /// Total number of instructions across all blocks — the "function size"
  /// metric the paper reports (e.g. Fig 5, Table 1).
  size_t getInstructionCount() const;

  /// Deletes the whole body, turning the function into a declaration.
  /// Handles cross-block references via the drop-then-delete protocol.
  void clearBody();

  /// True if this function is eligible for merging (definitions only;
  /// declarations model external library code).
  bool isMergeable() const { return !isDeclaration(); }

private:
  friend class Module;
  friend class BasicBlock;
  Function(const std::string &Name, Type *FnTy, Module *Parent);

  std::string Name;
  Type *FnTy;
  Module *Parent;
  std::vector<std::unique_ptr<Argument>> Args;
  BlockListTy Blocks;
  unsigned NextBlockNumber = 0;
};

} // namespace salssa

#endif // SALSSA_IR_FUNCTION_H
