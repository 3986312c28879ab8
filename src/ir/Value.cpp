//===- ir/Value.cpp - Value and User implementation -----------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Value.h"
#include "ir/Function.h"
#include "ir/Type.h"
#include <algorithm>

using namespace salssa;

// The suspension count lives (and is only ever touched) in this TU; see
// the note on detail::suspendUseTracking in Value.h.
static thread_local unsigned SuspendedUseTracking = 0;

void salssa::detail::suspendUseTracking() { ++SuspendedUseTracking; }
void salssa::detail::resumeUseTracking() { --SuspendedUseTracking; }
bool salssa::detail::useTrackingSuspended() {
  return SuspendedUseTracking != 0;
}

Value::~Value() {
  assert(UserList.empty() &&
         "deleting a value that still has users; fix the teardown order");
}

void Value::removeUser(User *U) {
  if (!isUseTracked())
    return;
  // One occurrence per operand slot; remove exactly one, searching from the
  // back (recently added uses are removed most often).
  for (size_t I = UserList.size(); I > 0; --I) {
    if (UserList[I - 1] == U) {
      UserList.erase(UserList.begin() + static_cast<ptrdiff_t>(I - 1));
      if (auto *Inst = dyn_cast<Instruction>(this))
        if (BasicBlock *BB = Inst->getParent())
          BB->noteUseDrop(Inst->isPhi());
      return;
    }
  }
  assert(false && "removeUser: user not found");
}

void Value::replaceAllUsesWith(Value *New) {
  assert(New != this && "RAUW with self would loop forever");
  assert(New->getType() == getType() && "RAUW across different types");
  assert(isUseTracked() && "RAUW needs a use list; constants have none");
  // Take the whole list at once: every slot that references this value
  // is rewritten below, so no per-slot removeUser scan is needed. Users
  // are visited in list order (a user listed twice finds nothing left the
  // second time), which fixes the order of New's user list.
  std::vector<User *> Users = std::move(UserList);
  UserList.clear();
  for (User *U : Users) {
    bool Rewrote = false;
    for (unsigned I = 0, E = U->getNumOperands(); I != E; ++I)
      if (U->Operands[I] == this) {
        U->Operands[I] = New;
        New->addUser(U);
        Rewrote = true;
      }
    if (Rewrote)
      U->noteOperandEdit();
  }
  if (!Users.empty())
    if (auto *Inst = dyn_cast<Instruction>(this))
      if (BasicBlock *BB = Inst->getParent())
        BB->noteUseDrop(Inst->isPhi());
}

User::~User() {
  for (Value *Op : Operands) {
    if (Op == this) // a self-use: this object is no Instruction any more
      UserList.erase(std::find(UserList.begin(), UserList.end(), this));
    else if (Op)
      Op->removeUser(this);
  }
}

void User::noteOperandEdit() {
  // Every User is an Instruction (see classof).
  if (BasicBlock *BB = static_cast<Instruction *>(this)->getParent())
    BB->noteOperandEdit(getValueKind() == ValueKind::Phi);
}

void User::setOperand(unsigned I, Value *V) {
  assert(I < getNumOperands() && "setOperand index out of range");
  Value *Old = getOperand(I);
  if (Old == V)
    return;
  if (Old)
    Old->removeUser(this);
  Operands[I] = V;
  if (V)
    V->addUser(this);
  noteOperandEdit();
}

void User::initOperand(unsigned I, Value *V) {
  assert(I < getNumOperands() && "initOperand index out of range");
  Operands[I] = V;
  if (V)
    V->addUser(this);
  noteOperandEdit();
}

int User::findOperand(const Value *V) const {
  for (unsigned I = 0, E = getNumOperands(); I != E; ++I)
    if (getOperand(I) == V)
      return static_cast<int>(I);
  return -1;
}

void User::dropAllReferences() {
  if (Operands.empty())
    return;
  for (Value *Op : Operands)
    if (Op)
      Op->removeUser(this);
  Operands.clear();
  noteOperandEdit();
}

void User::dropOperandsForTeardown() {
  for (Value *Op : Operands)
    if (Op && Op->hasUses())
      Op->removeUser(this);
  Operands.clear();
}

void User::appendOperand(Value *V) {
  Operands.push_back(V);
  if (V)
    V->addUser(this);
  noteOperandEdit();
}

void User::eraseOperand(unsigned I) {
  assert(I < Operands.size() && "eraseOperand index out of range");
  if (Operands[I])
    Operands[I]->removeUser(this);
  Operands.erase(Operands.begin() + I);
  noteOperandEdit();
}

const char *salssa::valueKindName(ValueKind K) {
  switch (K) {
  case ValueKind::Argument:
    return "argument";
  case ValueKind::GlobalVariable:
    return "global";
  case ValueKind::ConstantInt:
    return "constint";
  case ValueKind::ConstantFP:
    return "constfp";
  case ValueKind::UndefValue:
    return "undef";
  case ValueKind::ConstantPointerNull:
    return "null";
  case ValueKind::Add:
    return "add";
  case ValueKind::Sub:
    return "sub";
  case ValueKind::Mul:
    return "mul";
  case ValueKind::SDiv:
    return "sdiv";
  case ValueKind::UDiv:
    return "udiv";
  case ValueKind::SRem:
    return "srem";
  case ValueKind::URem:
    return "urem";
  case ValueKind::And:
    return "and";
  case ValueKind::Or:
    return "or";
  case ValueKind::Xor:
    return "xor";
  case ValueKind::Shl:
    return "shl";
  case ValueKind::LShr:
    return "lshr";
  case ValueKind::AShr:
    return "ashr";
  case ValueKind::FAdd:
    return "fadd";
  case ValueKind::FSub:
    return "fsub";
  case ValueKind::FMul:
    return "fmul";
  case ValueKind::FDiv:
    return "fdiv";
  case ValueKind::ICmp:
    return "icmp";
  case ValueKind::FCmp:
    return "fcmp";
  case ValueKind::Select:
    return "select";
  case ValueKind::ZExt:
    return "zext";
  case ValueKind::SExt:
    return "sext";
  case ValueKind::Trunc:
    return "trunc";
  case ValueKind::SIToFP:
    return "sitofp";
  case ValueKind::FPToSI:
    return "fptosi";
  case ValueKind::Alloca:
    return "alloca";
  case ValueKind::Load:
    return "load";
  case ValueKind::Store:
    return "store";
  case ValueKind::Gep:
    return "gep";
  case ValueKind::Call:
    return "call";
  case ValueKind::Invoke:
    return "invoke";
  case ValueKind::LandingPad:
    return "landingpad";
  case ValueKind::Phi:
    return "phi";
  case ValueKind::Br:
    return "br";
  case ValueKind::Switch:
    return "switch";
  case ValueKind::Ret:
    return "ret";
  case ValueKind::Resume:
    return "resume";
  case ValueKind::Unreachable:
    return "unreachable";
  }
  return "<unknown>";
}
