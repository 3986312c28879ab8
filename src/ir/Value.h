//===- ir/Value.h - Value and User base classes ---------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The root of the IR object model. Every operand of every instruction is a
/// Value; instructions themselves are Users (Values with operands). Values
/// track their users so passes can query uses and perform
/// replaceAllUsesWith — the primitive that Mem2Reg, simplification, and the
/// merging code generators are built on.
///
/// The ValueKind enum is flattened: every instruction opcode is its own
/// kind, which makes `isa<>`/`dyn_cast<>` dispatch a pair of integer
/// comparisons and gives instructions their opcode for free.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_IR_VALUE_H
#define SALSSA_IR_VALUE_H

#include "support/Casting.h"
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace salssa {

class Function;
class Type;
class User;

namespace detail {
/// When the per-thread suspension count is non-zero, Value::addUser is a
/// no-op: operand slots are filled without registering in the operand's
/// user list. Used exclusively by cloneInstruction, whose placeholder
/// operands reference the *original* (possibly shared across threads)
/// function's values and are always rewritten via User::initOperand
/// before the clone is observable. Never call these directly — use
/// UseTrackingSuspender. All three are defined out of line in Value.cpp:
/// touching an extern thread_local from header-inline code in another TU
/// goes through the compiler's TLS wrapper, a pattern UBSan flags (null
/// init-function load), so the TLS variable itself never leaves its
/// defining TU.
void suspendUseTracking();
void resumeUseTracking();
bool useTrackingSuspended();
} // namespace detail

/// RAII scope in which newly appended operands do not register users.
/// See detail::suspendUseTracking for the (single) legitimate use.
class UseTrackingSuspender {
public:
  UseTrackingSuspender() { detail::suspendUseTracking(); }
  ~UseTrackingSuspender() { detail::resumeUseTracking(); }
  UseTrackingSuspender(const UseTrackingSuspender &) = delete;
  UseTrackingSuspender &operator=(const UseTrackingSuspender &) = delete;
};

/// Discriminator for the whole Value hierarchy. Instruction opcodes live in
/// the [InstFirst, InstLast] range; constants in [ConstFirst, ConstLast].
enum class ValueKind : uint8_t {
  Argument,
  // Constants.
  GlobalVariable,
  ConstantInt,
  ConstantFP,
  UndefValue,
  ConstantPointerNull,
  // Instructions: integer arithmetic/bitwise.
  Add,
  Sub,
  Mul,
  SDiv,
  UDiv,
  SRem,
  URem,
  And,
  Or,
  Xor,
  Shl,
  LShr,
  AShr,
  // Floating point arithmetic.
  FAdd,
  FSub,
  FMul,
  FDiv,
  // Comparisons and selection.
  ICmp,
  FCmp,
  Select,
  // Casts.
  ZExt,
  SExt,
  Trunc,
  SIToFP,
  FPToSI,
  // Memory.
  Alloca,
  Load,
  Store,
  Gep,
  // Calls and exception handling.
  Call,
  Invoke,
  LandingPad,
  // SSA data flow.
  Phi,
  // Terminators.
  Br,
  Switch,
  Ret,
  Resume,
  Unreachable,
};

inline constexpr ValueKind ConstFirstKind = ValueKind::GlobalVariable;
inline constexpr ValueKind ConstLastKind = ValueKind::ConstantPointerNull;
inline constexpr ValueKind InstFirstKind = ValueKind::Add;
inline constexpr ValueKind InstLastKind = ValueKind::Unreachable;

/// Base class of everything that can appear as an operand.
class Value {
public:
  Value(const Value &) = delete;
  Value &operator=(const Value &) = delete;
  virtual ~Value();

  ValueKind getValueKind() const { return Kind; }
  Type *getType() const { return Ty; }

  const std::string &getName() const { return Name; }
  void setName(const std::string &N) { Name = N; }
  bool hasName() const { return !Name.empty(); }

  /// Whether this value maintains a user list. Constants and globals are
  /// interned/module-shared and referenced from arbitrarily many
  /// functions, so tracking their uses would (a) make popular constants'
  /// use-lists a quadratic hot spot and (b) turn every operand write into
  /// a data race once merge attempts run on worker threads. No pass
  /// queries uses of a constant, so — like LLVM's ConstantData — they
  /// simply opt out; users()/hasUses() on them always report empty.
  bool isUseTracked() const {
    return Kind < ConstFirstKind || Kind > ConstLastKind;
  }

  /// The users of this value. A user appears once per operand slot that
  /// references this value (so an instruction using a value twice appears
  /// twice). Always empty for untracked values (see isUseTracked). Do not
  /// mutate uses while iterating this list directly; take a copy, as
  /// replaceAllUsesWith does.
  const std::vector<User *> &users() const { return UserList; }
  unsigned getNumUses() const {
    return static_cast<unsigned>(UserList.size());
  }
  bool hasUses() const { return !UserList.empty(); }
  bool hasOneUse() const { return UserList.size() == 1; }

  /// Rewrites every operand slot that references this value to reference
  /// \p New instead. \p New must have the same type.
  void replaceAllUsesWith(Value *New);

  static bool classof(const Value *) { return true; }

protected:
  Value(ValueKind K, Type *T) : Kind(K), Ty(T) {
    assert(T && "values must be typed");
  }

private:
  friend class User;
  friend class Function;
  void addUser(User *U) {
    if (isUseTracked() && !detail::useTrackingSuspended())
      UserList.push_back(U);
  }
  void removeUser(User *U);

  ValueKind Kind;
  Type *Ty;
  std::string Name;
  std::vector<User *> UserList;
};

/// A Value that references other Values through an operand list.
class User : public Value {
public:
  unsigned getNumOperands() const {
    return static_cast<unsigned>(Operands.size());
  }

  Value *getOperand(unsigned I) const {
    assert(I < Operands.size() && "operand index out of range");
    return Operands[I];
  }

  const std::vector<Value *> &operands() const { return Operands; }

  /// Replaces operand \p I, maintaining both sides' use bookkeeping.
  void setOperand(unsigned I, Value *V);

  /// First assignment of a placeholder operand slot created under
  /// UseTrackingSuspender (i.e. by cloneInstruction): overwrites the
  /// slot and registers the use of \p V, without unregistering the
  /// placeholder — which, unlike setOperand's old operand, was never
  /// registered. Calling this on a normally-tracked slot leaks a stale
  /// user entry; calling setOperand on a placeholder slot instead fires
  /// the removeUser assertion.
  void initOperand(unsigned I, Value *V);

  /// Index of the first operand slot equal to \p V, or -1.
  int findOperand(const Value *V) const;

  /// Removes every operand reference this user holds. Must be called
  /// before destruction if operands may still be alive (the teardown
  /// protocol used by BasicBlock/Function destructors).
  void dropAllReferences();

  static bool classof(const Value *V) {
    ValueKind K = V->getValueKind();
    return K >= InstFirstKind && K <= InstLastKind;
  }

protected:
  User(ValueKind K, Type *T) : Value(K, T) {}
  /// Unregisters the remaining operands; no edit stamp is bumped, since
  /// the Instruction part of this object is already gone.
  ~User() override;

  /// Appends an operand during construction / phi growth.
  void appendOperand(Value *V);

  /// Removes the operand slot \p I entirely (shrinks the operand list);
  /// used by Phi::removeIncoming.
  void eraseOperand(unsigned I);

  /// Reserves room for \p N operands (phi growth).
  void reserveOperands(unsigned N) { Operands.reserve(N); }

private:
  friend class Function;
  friend class Value;
  /// Bumps the edit stamps of the parent block (see BasicBlock.h): an
  /// operand of this instruction was set, appended or erased.
  void noteOperandEdit();
  /// Whole-body teardown (Function::clearBody), after the body's user
  /// lists were emptied: drops every operand, unregistering only from
  /// values whose user list still holds entries (values outside the
  /// body).
  void dropOperandsForTeardown();

  std::vector<Value *> Operands;
};

/// Returns a human-readable opcode/kind spelling ("add", "phi", ...).
const char *valueKindName(ValueKind K);

} // namespace salssa

#endif // SALSSA_IR_VALUE_H
