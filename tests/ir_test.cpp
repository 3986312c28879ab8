//===- tests/ir_test.cpp - IR core unit tests -------------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include <gtest/gtest.h>

using namespace salssa;

namespace {

TEST(TypeTest, InterningAndProperties) {
  Context Ctx;
  EXPECT_EQ(Ctx.int32Ty(), Ctx.types().getIntegerTy(32));
  EXPECT_EQ(Ctx.int1Ty(), Ctx.types().getIntegerTy(1));
  EXPECT_NE(Ctx.int32Ty(), Ctx.int64Ty());
  EXPECT_TRUE(Ctx.int1Ty()->isBool());
  EXPECT_TRUE(Ctx.ptrTy()->isPointer());
  EXPECT_TRUE(Ctx.doubleTy()->isFloatingPoint());
  EXPECT_FALSE(Ctx.voidTy()->isFirstClass());
  EXPECT_EQ(Ctx.int32Ty()->getStoreSize(), 4u);
  EXPECT_EQ(Ctx.int1Ty()->getStoreSize(), 1u);
  EXPECT_EQ(Ctx.ptrTy()->getStoreSize(), 8u);
}

TEST(TypeTest, FunctionTypeInterning) {
  Context Ctx;
  Type *FnTy1 = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Type *FnTy2 = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Type *FnTy3 = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int64Ty()});
  EXPECT_EQ(FnTy1, FnTy2);
  EXPECT_NE(FnTy1, FnTy3);
  EXPECT_EQ(FnTy1->getReturnType(), Ctx.int32Ty());
  EXPECT_EQ(FnTy1->getParamTypes().size(), 1u);
  EXPECT_EQ(FnTy1->getName(), "i32 (i32)");
}

TEST(ConstantTest, IntegerInterningAndTruncation) {
  Context Ctx;
  EXPECT_EQ(Ctx.getInt32(7), Ctx.getInt32(7));
  EXPECT_NE(Ctx.getInt32(7), Ctx.getInt32(8));
  EXPECT_NE(Ctx.getInt32(7), Ctx.getInt64(7));
  // Truncation to the type width canonicalizes the pool key.
  EXPECT_EQ(Ctx.getInt(Ctx.int8Ty(), 0x1FF), Ctx.getInt(Ctx.int8Ty(), 0xFF));
  EXPECT_EQ(Ctx.getInt(Ctx.int8Ty(), 0xFF)->getSExtValue(), -1);
  EXPECT_EQ(Ctx.getInt(Ctx.int8Ty(), 0x7F)->getSExtValue(), 127);
  EXPECT_TRUE(Ctx.getTrue()->isTrue());
  EXPECT_FALSE(Ctx.getFalse()->isTrue());
}

TEST(ConstantTest, FPAndUndef) {
  Context Ctx;
  EXPECT_EQ(Ctx.getFP(Ctx.doubleTy(), 1.5), Ctx.getFP(Ctx.doubleTy(), 1.5));
  EXPECT_NE(Ctx.getFP(Ctx.doubleTy(), 1.5), Ctx.getFP(Ctx.floatTy(), 1.5));
  EXPECT_EQ(Ctx.getUndef(Ctx.int32Ty()), Ctx.getUndef(Ctx.int32Ty()));
  EXPECT_NE(Ctx.getUndef(Ctx.int32Ty()), Ctx.getUndef(Ctx.int64Ty()));
  EXPECT_TRUE(isa<UndefValue>(Ctx.getUndef(Ctx.int32Ty())));
  EXPECT_TRUE(isa<Constant>(Ctx.getNullPtr()));
}

/// Builds: define i32 @f(i32 %a, i32 %b) { ret (a+b)*a }
static Function *buildSimpleFunction(Module &M, const std::string &Name) {
  Context &Ctx = M.getContext();
  Type *FnTy =
      Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty(), Ctx.int32Ty()});
  Function *F = M.createFunction(Name, FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  IRBuilder B(Ctx, Entry);
  Value *Sum = B.createAdd(F->getArg(0), F->getArg(1), "sum");
  Value *Prod = B.createMul(Sum, F->getArg(0), "prod");
  B.createRet(Prod);
  return F;
}

TEST(ValueTest, UseListsAndRAUW) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildSimpleFunction(M, "f");
  Argument *A = F->getArg(0);
  // %a is used by the add and the mul.
  EXPECT_EQ(A->getNumUses(), 2u);
  Instruction *Add = F->getEntryBlock()->front();
  Instruction *Mul = *std::next(F->getEntryBlock()->begin());
  EXPECT_TRUE(isa<BinaryOperator>(Add));
  EXPECT_EQ(Add->getNumUses(), 1u);
  EXPECT_EQ(Mul->getNumUses(), 1u);

  // RAUW %a -> %b everywhere.
  Argument *BArg = F->getArg(1);
  A->replaceAllUsesWith(BArg);
  EXPECT_EQ(A->getNumUses(), 0u);
  EXPECT_EQ(BArg->getNumUses(), 3u);
  EXPECT_EQ(Add->getOperand(0), BArg);
  EXPECT_EQ(Mul->getOperand(1), BArg);
  EXPECT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
}

TEST(ValueTest, SetOperandMaintainsCounts) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildSimpleFunction(M, "f");
  auto *Add = cast<BinaryOperator>(F->getEntryBlock()->front());
  Value *C = Ctx.getInt32(5);
  Add->setOperand(1, C);
  EXPECT_EQ(F->getArg(1)->getNumUses(), 0u);
  // Interned constants are shared across functions (and threads) and do
  // not track users; see Value::isUseTracked.
  EXPECT_FALSE(C->isUseTracked());
  EXPECT_EQ(C->getNumUses(), 0u);
  EXPECT_EQ(Add->findOperand(C), 1);
  EXPECT_EQ(Add->findOperand(F->getArg(1)), -1);
}

TEST(ValueTest, DuplicateOperandUses) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Function *F = M.createFunction("dup", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  Value *Sq = B.createMul(F->getArg(0), F->getArg(0), "sq");
  B.createRet(Sq);
  EXPECT_EQ(F->getArg(0)->getNumUses(), 2u);
  Value *C = Ctx.getInt32(3);
  F->getArg(0)->replaceAllUsesWith(C);
  EXPECT_EQ(F->getArg(0)->getNumUses(), 0u);
  // Both operand slots reference C, but constants are use-untracked.
  EXPECT_EQ(cast<User>(Sq)->findOperand(C), 0);
  EXPECT_EQ(C->getNumUses(), 0u);
}

TEST(InstructionTest, OpcodePropertyFlags) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildSimpleFunction(M, "f");
  Instruction *Add = F->getEntryBlock()->front();
  EXPECT_TRUE(Add->isBinaryOp());
  EXPECT_TRUE(Add->isCommutative());
  EXPECT_FALSE(Add->isTerminator());
  EXPECT_TRUE(Add->isSideEffectFree());
  Instruction *Ret = F->getEntryBlock()->back();
  EXPECT_TRUE(Ret->isTerminator());
  EXPECT_FALSE(Ret->isSideEffectFree());
  EXPECT_STREQ(Add->getOpcodeName(), "add");
  EXPECT_STREQ(Ret->getOpcodeName(), "ret");
}

TEST(InstructionTest, EraseAndMove) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildSimpleFunction(M, "f");
  BasicBlock *BB = F->getEntryBlock();
  auto *Add = cast<BinaryOperator>(BB->front());
  auto *Mul = cast<BinaryOperator>(*std::next(BB->begin()));
  // Replace mul's use of add, then erase add.
  Mul->setOperand(0, F->getArg(1));
  EXPECT_FALSE(Add->hasUses());
  Add->eraseFromParent();
  EXPECT_EQ(BB->size(), 2u);
  EXPECT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
}

TEST(InstructionTest, CmpPredicateSwap) {
  EXPECT_EQ(swapCmpPredicate(CmpPredicate::SLT), CmpPredicate::SGT);
  EXPECT_EQ(swapCmpPredicate(CmpPredicate::ULE), CmpPredicate::UGE);
  EXPECT_EQ(swapCmpPredicate(CmpPredicate::EQ), CmpPredicate::EQ);
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildSimpleFunction(M, "f");
  IRBuilder B(Ctx);
  B.setInsertPoint(F->getEntryBlock()->back());
  auto *Cmp = cast<CmpInst>(
      B.createICmp(CmpPredicate::SLT, F->getArg(0), F->getArg(1)));
  Cmp->swapOperandsAndPredicate();
  EXPECT_EQ(Cmp->getPredicate(), CmpPredicate::SGT);
  EXPECT_EQ(Cmp->getLHS(), F->getArg(1));
  EXPECT_EQ(Cmp->getRHS(), F->getArg(0));
}

TEST(PhiTest, IncomingManagement) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(),
                                         {Ctx.int1Ty(), Ctx.int32Ty()});
  Function *F = M.createFunction("phifn", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Else = F->createBlock("else");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(Ctx, Entry);
  B.createCondBr(F->getArg(0), Then, Else);
  B.setInsertPoint(Then);
  Value *X = B.createAdd(F->getArg(1), Ctx.getInt32(1), "x");
  B.createBr(Join);
  B.setInsertPoint(Else);
  Value *Y = B.createMul(F->getArg(1), Ctx.getInt32(2), "y");
  B.createBr(Join);
  B.setInsertPoint(Join);
  PhiInst *P = B.createPhi(Ctx.int32Ty(), "p");
  P->addIncoming(X, Then);
  P->addIncoming(Y, Else);
  B.createRet(P);

  EXPECT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  EXPECT_EQ(P->getNumIncoming(), 2u);
  EXPECT_EQ(P->getIncomingValueForBlock(Then), X);
  EXPECT_EQ(P->indexOfBlock(Else), 1);
  EXPECT_EQ(P->indexOfBlock(Entry), -1);
  EXPECT_EQ(P->hasConstantValue(), nullptr);

  // A phi whose incomings are all the same value reports it.
  P->setIncomingValue(1, X);
  EXPECT_EQ(P->hasConstantValue(), X);
}

// The edit stamps transforms/Simplify relies on move with every mutation
// they stand for, and only with those.
TEST(PhiTest, EditStampsFollowMutations) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(),
                                         {Ctx.int1Ty(), Ctx.int32Ty()});
  Function *F = M.createFunction("stamps", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(Ctx, Entry);
  auto *Br = cast<BranchInst>(B.createCondBr(F->getArg(0), Then, Join));
  B.setInsertPoint(Then);
  auto *X = cast<Instruction>(B.createAdd(F->getArg(1), Ctx.getInt32(1), "x"));
  B.createBr(Join);
  B.setInsertPoint(Join);
  PhiInst *P = B.createPhi(Ctx.int32Ty(), "p");
  P->addIncoming(F->getArg(1), Entry);
  P->addIncoming(X, Then);
  B.createRet(P);

  struct Snapshot {
    unsigned ThenInst, JoinInst, JoinPhi, CFG, PhiDrops;
  };
  auto Snap = [&] {
    return Snapshot{Then->getInstStamp(), Join->getInstStamp(),
                    Join->getPhiStamp(), F->getCFGStamp(),
                    F->getPhiUseDropStamp()};
  };

  // A phi incoming value change moves the phi block's stamps only.
  Snapshot S = Snap();
  P->setIncomingValue(1, Ctx.getInt32(7));
  Snapshot T = Snap();
  EXPECT_NE(T.JoinInst, S.JoinInst);
  EXPECT_NE(T.JoinPhi, S.JoinPhi);
  // ... and %x, which lost its only use, moves its own block's stamp.
  EXPECT_NE(T.ThenInst, S.ThenInst);
  EXPECT_EQ(T.CFG, S.CFG);
  EXPECT_EQ(T.PhiDrops, S.PhiDrops);

  // Redirecting an incoming block moves the phi stamp and the CFG stamp.
  S = Snap();
  P->setIncomingBlock(1, Then);
  T = Snap();
  EXPECT_NE(T.JoinPhi, S.JoinPhi);
  EXPECT_NE(T.CFG, S.CFG);

  // A non-phi operand change leaves the phi stamp alone.
  S = Snap();
  X->setOperand(1, Ctx.getInt32(2));
  T = Snap();
  EXPECT_NE(T.ThenInst, S.ThenInst);
  EXPECT_EQ(T.JoinPhi, S.JoinPhi);

  // A phi losing a use moves the phi-use-drop stamp.
  S = Snap();
  Instruction *Ret = Join->getTerminator();
  Ret->setOperand(0, Ctx.getInt32(0));
  T = Snap();
  EXPECT_NE(T.PhiDrops, S.PhiDrops);
  EXPECT_NE(T.JoinInst, S.JoinInst);

  // Edges: redirecting a successor and adding a block move the CFG stamp.
  S = Snap();
  Br->setSuccessor(1, Then);
  EXPECT_NE(F->getCFGStamp(), S.CFG);
  S = Snap();
  F->createBlock("extra");
  EXPECT_NE(F->getCFGStamp(), S.CFG);

  // Removing an incoming entry moves the phi stamp.
  S = Snap();
  P->removeIncoming(0);
  EXPECT_NE(Join->getPhiStamp(), S.JoinPhi);
}

TEST(CFGTest, SuccessorsAndPredecessors) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.voidTy(), {Ctx.int1Ty()});
  Function *F = M.createFunction("g", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B2 = F->createBlock("b");
  IRBuilder B(Ctx, Entry);
  B.createCondBr(F->getArg(0), A, B2);
  B.setInsertPoint(A);
  B.createBr(B2);
  B.setInsertPoint(B2);
  B.createRetVoid();

  EXPECT_EQ(Entry->successors().size(), 2u);
  EXPECT_EQ(B2->successors().size(), 0u);
  CFGInfo CFG(*F);
  EXPECT_EQ(CFG.predecessors(B2).size(), 2u);
  EXPECT_EQ(CFG.predecessors(Entry).size(), 0u);
  EXPECT_EQ(CFG.reversePostOrder().size(), 3u);
  EXPECT_EQ(CFG.reversePostOrder().front(), Entry);
  EXPECT_TRUE(CFG.isReachable(A));
}

TEST(CFGTest, UnreachableBlocksExcluded) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.voidTy(), {});
  Function *F = M.createFunction("g", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Dead = F->createBlock("dead");
  IRBuilder B(Ctx, Entry);
  B.createRetVoid();
  B.setInsertPoint(Dead);
  B.createRetVoid();
  CFGInfo CFG(*F);
  EXPECT_TRUE(CFG.isReachable(Entry));
  EXPECT_FALSE(CFG.isReachable(Dead));
  EXPECT_EQ(CFG.getNumReachableBlocks(), 1u);
}

// Block numbers are per function: another function's block 0 aliases this
// entry's number and its block 3 lies past this function's tables.
TEST(CFGTest, BlocksOfAnotherFunctionAreUnreachable) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.voidTy(), {});
  Function *F = M.createFunction("f", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  IRBuilder B(Ctx, Entry);
  B.createRetVoid();
  Function *G = M.createFunction("g", FnTy);
  std::vector<BasicBlock *> GBlocks;
  for (const char *Name : {"g0", "g1", "g2", "g3"})
    GBlocks.push_back(G->createBlock(Name));
  for (size_t K = 0; K < GBlocks.size(); ++K) {
    B.setInsertPoint(GBlocks[K]);
    if (K + 1 < GBlocks.size())
      B.createBr(GBlocks[K + 1]);
    else
      B.createRetVoid();
  }
  DominatorTree DT(*F);
  const CFGInfo &CFG = DT.getCFG();
  EXPECT_EQ(GBlocks[0]->getNumber(), Entry->getNumber());
  EXPECT_FALSE(CFG.isReachable(GBlocks[0]));
  EXPECT_FALSE(CFG.isReachable(GBlocks[3]));
  EXPECT_FALSE(CFG.isReachable(nullptr));
  EXPECT_FALSE(DT.dominates(GBlocks[0], Entry));
  EXPECT_FALSE(DT.dominates(GBlocks[3], Entry));
}

/// True when \p Member is in the dominance frontier of \p BB.
static bool inFrontier(DominatorTree &DT, const BasicBlock *BB,
                       const BasicBlock *Member) {
  const std::vector<BasicBlock *> &DF = DT.dominanceFrontier(BB);
  return std::find(DF.begin(), DF.end(), Member) != DF.end();
}

TEST(DominatorTest, DiamondCFG) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.voidTy(), {Ctx.int1Ty()});
  Function *F = M.createFunction("d", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *T = F->createBlock("t");
  BasicBlock *E = F->createBlock("e");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(Ctx, Entry);
  B.createCondBr(F->getArg(0), T, E);
  B.setInsertPoint(T);
  B.createBr(Join);
  B.setInsertPoint(E);
  B.createBr(Join);
  B.setInsertPoint(Join);
  B.createRetVoid();

  DominatorTree DT(*F);
  EXPECT_EQ(DT.getIDom(Entry), nullptr);
  EXPECT_EQ(DT.getIDom(T), Entry);
  EXPECT_EQ(DT.getIDom(E), Entry);
  EXPECT_EQ(DT.getIDom(Join), Entry);
  EXPECT_TRUE(DT.dominates(Entry, Join));
  EXPECT_FALSE(DT.dominates(T, Join));
  EXPECT_TRUE(DT.dominates(Join, Join));
  // Dominance frontiers: DF(t) = DF(e) = {join}.
  EXPECT_TRUE(inFrontier(DT, T, Join));
  EXPECT_TRUE(inFrontier(DT, E, Join));
  EXPECT_TRUE(DT.dominanceFrontier(Entry).empty());
}

TEST(DominatorTest, LoopFrontier) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.voidTy(), {Ctx.int1Ty()});
  Function *F = M.createFunction("loop", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder B(Ctx, Entry);
  B.createBr(Header);
  B.setInsertPoint(Header);
  B.createCondBr(F->getArg(0), Body, Exit);
  B.setInsertPoint(Body);
  B.createBr(Header);
  B.setInsertPoint(Exit);
  B.createRetVoid();

  DominatorTree DT(*F);
  EXPECT_EQ(DT.getIDom(Body), Header);
  EXPECT_EQ(DT.getIDom(Exit), Header);
  // The loop header is in its own frontier (back edge) and the body's.
  EXPECT_TRUE(inFrontier(DT, Body, Header));
  EXPECT_TRUE(inFrontier(DT, Header, Header));
}

TEST(DominatorTest, InstructionLevelDominance) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildSimpleFunction(M, "f");
  Instruction *Add = F->getEntryBlock()->front();
  Instruction *Mul = *std::next(F->getEntryBlock()->begin());
  DominatorTree DT(*F);
  EXPECT_TRUE(DT.dominates(Add, Mul));
  EXPECT_FALSE(DT.dominates(Mul, Add));
  EXPECT_FALSE(DT.dominates(Add, Add));
}

TEST(PrinterTest, SimpleFunctionRendering) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildSimpleFunction(M, "f");
  std::string S = printFunction(*F);
  EXPECT_NE(S.find("define i32 @f(i32 %arg0, i32 %arg1)"), std::string::npos)
      << S;
  EXPECT_NE(S.find("%sum = add i32 %arg0, %arg1"), std::string::npos) << S;
  EXPECT_NE(S.find("ret i32 %prod"), std::string::npos) << S;
}

TEST(PrinterTest, ControlFlowRendering) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int1Ty()});
  Function *F = M.createFunction("cf", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B2 = F->createBlock("b");
  IRBuilder B(Ctx, Entry);
  B.createCondBr(F->getArg(0), A, B2);
  B.setInsertPoint(A);
  B.createRet(Ctx.getInt32(1));
  B.setInsertPoint(B2);
  B.createRet(Ctx.getInt32(2));
  std::string S = printFunction(*F);
  EXPECT_NE(S.find("br i1 %arg0, a, b"), std::string::npos) << S;
  EXPECT_NE(S.find("ret i32 1"), std::string::npos) << S;
}

TEST(VerifierTest, AcceptsWellFormed) {
  Context Ctx;
  Module M("m", Ctx);
  buildSimpleFunction(M, "f");
  buildSimpleFunction(M, "g");
  EXPECT_TRUE(verifyModule(M).ok()) << verifyModule(M).str();
}

TEST(VerifierTest, DetectsMissingTerminator) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.voidTy(), {});
  Function *F = M.createFunction("bad", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  IRBuilder B(Ctx, Entry);
  B.createAdd(Ctx.getInt32(1), Ctx.getInt32(2));
  VerifierReport R = verifyFunction(*F);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.str().find("lacks a terminator"), std::string::npos) << R.str();
}

TEST(VerifierTest, DetectsDominanceViolation) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int1Ty()});
  Function *F = M.createFunction("bad", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *A = F->createBlock("a");
  BasicBlock *B2 = F->createBlock("b");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(Ctx, Entry);
  B.createCondBr(F->getArg(0), A, B2);
  B.setInsertPoint(A);
  Value *X = B.createAdd(Ctx.getInt32(1), Ctx.getInt32(2), "x");
  B.createBr(Join);
  B.setInsertPoint(B2);
  B.createBr(Join);
  B.setInsertPoint(Join);
  // Using %x here violates dominance (B2 path bypasses its definition).
  B.createRet(X);
  VerifierReport R = verifyFunction(*F);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.str().find("dominance"), std::string::npos) << R.str();
}

TEST(VerifierTest, DetectsPhiPredecessorMismatch) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int1Ty()});
  Function *F = M.createFunction("bad", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *A = F->createBlock("a");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(Ctx, Entry);
  B.createCondBr(F->getArg(0), A, Join);
  B.setInsertPoint(A);
  B.createBr(Join);
  B.setInsertPoint(Join);
  PhiInst *P = B.createPhi(Ctx.int32Ty(), "p");
  P->addIncoming(Ctx.getInt32(1), A); // missing entry for Entry
  B.createRet(P);
  VerifierReport R = verifyFunction(*F);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.str().find("missing incoming entry"), std::string::npos)
      << R.str();
}

namespace {

/// A function "other" whose block \p DefBlock (of \p NumBlocks, all
/// chained by branches) defines %foreign; returns that instruction.
Instruction *buildForeignDef(Module &M, unsigned NumBlocks,
                             unsigned DefBlock) {
  Context &Ctx = M.getContext();
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {});
  Function *G = M.createFunction("other", FnTy);
  std::vector<BasicBlock *> Blocks;
  for (unsigned K = 0; K < NumBlocks; ++K)
    Blocks.push_back(G->createBlock("g" + std::to_string(K)));
  IRBuilder B(Ctx);
  Instruction *Def = nullptr;
  for (unsigned K = 0; K < NumBlocks; ++K) {
    B.setInsertPoint(Blocks[K]);
    if (K == DefBlock)
      Def = cast<Instruction>(
          B.createAdd(Ctx.getInt32(1), Ctx.getInt32(2), "foreign"));
    if (K + 1 < NumBlocks)
      B.createBr(Blocks[K + 1]);
    else
      B.createRet(Def);
  }
  return Def;
}

/// entry -(cond)-> a -> join, entry -> join; join holds
/// `%p = phi [1, entry], [\p FromA, a]` and returns it.
PhiInst *buildJoinPhi(Module &M, Value *FromA) {
  Context &Ctx = M.getContext();
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int1Ty()});
  Function *F = M.createFunction("bad", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *A = F->createBlock("a");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(Ctx, Entry);
  B.createCondBr(F->getArg(0), A, Join);
  B.setInsertPoint(A);
  B.createBr(Join);
  B.setInsertPoint(Join);
  PhiInst *P = B.createPhi(Ctx.int32Ty(), "p");
  P->addIncoming(Ctx.getInt32(1), Entry);
  P->addIncoming(FromA, A);
  B.createRet(P);
  return P;
}

} // namespace

// A phi reading an instruction of another function is reported, whether
// that instruction's block number aliases one of this function's blocks
// (the entry, 0, dominates everything here) or lies beyond them.
TEST(VerifierTest, DetectsPhiIncomingFromAnotherFunction) {
  for (unsigned DefBlock : {0u, 7u}) {
    Context Ctx;
    Module M("m", Ctx);
    Instruction *Foreign = buildForeignDef(M, 8, DefBlock);
    PhiInst *P = buildJoinPhi(M, Foreign);
    VerifierReport R = verifyFunction(*P->getFunction());
    EXPECT_FALSE(R.ok()) << "def in block " << DefBlock;
    EXPECT_NE(R.str().find("operand instruction from another function"),
              std::string::npos)
        << R.str();
  }
}

TEST(VerifierTest, DetectsOperandFromAnotherFunction) {
  for (unsigned DefBlock : {0u, 7u}) {
    Context Ctx;
    Module M("m", Ctx);
    Instruction *Foreign = buildForeignDef(M, 8, DefBlock);
    Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {});
    Function *F = M.createFunction("bad", FnTy);
    IRBuilder B(Ctx, F->createBlock("entry"));
    B.createRet(B.createAdd(Foreign, Ctx.getInt32(1), "x"));
    VerifierReport R = verifyFunction(*F);
    EXPECT_FALSE(R.ok()) << "def in block " << DefBlock;
    EXPECT_NE(R.str().find("operand instruction from another function"),
              std::string::npos)
        << R.str();
  }
}

// The use-list check reports a value used from another function, and a
// user list that names a user more often than it references the value.
TEST(VerifierTest, DetectsUseListDefects) {
  Context Ctx;
  Module M("m", Ctx);
  Instruction *Foreign = buildForeignDef(M, 2, 0);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Function *F = M.createFunction("bad", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  B.createAdd(Foreign, Ctx.getInt32(1), "x");
  auto *A = cast<Instruction>(B.createAdd(F->getArg(0), F->getArg(0), "a"));
  auto *Y = cast<Instruction>(B.createAdd(A, A, "y"));
  B.createRet(Y);
  VerifierReport Other = verifyFunction(*Foreign->getFunction());
  EXPECT_NE(Other.str().find("used by an instruction outside this function"),
            std::string::npos)
      << Other.str();
  // initOperand on a tracked slot leaves the old entry behind: %a lists
  // %y twice but %y now reads it once.
  Y->initOperand(0, F->getArg(0));
  VerifierReport Bad = verifyFunction(*F);
  EXPECT_NE(Bad.str().find("use-list count mismatch"), std::string::npos)
      << Bad.str();
}

TEST(VerifierTest, DetectsPhiIncomingUnlinked) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {});
  Function *Holder = M.createFunction("holder", FnTy);
  IRBuilder B(Ctx, Holder->createBlock("entry"));
  auto *Loose =
      cast<Instruction>(B.createAdd(Ctx.getInt32(1), Ctx.getInt32(2), "loose"));
  Instruction *Ret = B.createRet(Ctx.getInt32(0));
  Loose->removeFromParent();
  PhiInst *P = buildJoinPhi(M, Loose);
  VerifierReport R = verifyFunction(*P->getFunction());
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.str().find("operand instruction is unlinked"), std::string::npos)
      << R.str();
  Loose->insertBefore(Ret); // the module owns it again
}

// An incoming block of another function is reported as not a predecessor,
// and the dominance check, which indexes its tables by block number,
// leaves that entry alone.
TEST(VerifierTest, DetectsPhiForeignIncomingBlock) {
  for (unsigned DefBlock : {1u, 7u}) {
    Context Ctx;
    Module M("m", Ctx);
    Instruction *Foreign = buildForeignDef(M, 8, DefBlock);
    PhiInst *P = buildJoinPhi(M, Ctx.getInt32(2));
    P->addIncoming(P, Foreign->getParent());
    VerifierReport R = verifyFunction(*P->getFunction());
    EXPECT_FALSE(R.ok()) << "foreign block " << DefBlock;
    EXPECT_NE(R.str().find("incoming block 'g" + std::to_string(DefBlock) +
                           "' is not a predecessor"),
              std::string::npos)
        << R.str();
  }
}

TEST(VerifierTest, DetectsInvokeWithoutLandingPad) {
  Context Ctx;
  Module M("m", Ctx);
  Type *CalleeTy = Ctx.types().getFunctionTy(Ctx.voidTy(), {});
  Function *Callee = M.createFunction("ext", CalleeTy);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.voidTy(), {});
  Function *F = M.createFunction("bad", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Normal = F->createBlock("normal");
  BasicBlock *Unwind = F->createBlock("unwind");
  IRBuilder B(Ctx, Entry);
  B.createInvoke(Callee, {}, Normal, Unwind);
  B.setInsertPoint(Normal);
  B.createRetVoid();
  B.setInsertPoint(Unwind);
  B.createRetVoid(); // no landingpad -> invalid
  VerifierReport R = verifyFunction(*F);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.str().find("landingpad"), std::string::npos) << R.str();
}

TEST(VerifierTest, AcceptsValidInvokeLandingPad) {
  Context Ctx;
  Module M("m", Ctx);
  Type *CalleeTy = Ctx.types().getFunctionTy(Ctx.voidTy(), {});
  Function *Callee = M.createFunction("ext", CalleeTy);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.voidTy(), {});
  Function *F = M.createFunction("ok", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Normal = F->createBlock("normal");
  BasicBlock *Unwind = F->createBlock("unwind");
  IRBuilder B(Ctx, Entry);
  B.createInvoke(Callee, {}, Normal, Unwind);
  B.setInsertPoint(Normal);
  B.createRetVoid();
  B.setInsertPoint(Unwind);
  Value *Token = B.createLandingPad("lp");
  B.createResume(Token);
  EXPECT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
}

TEST(ModuleTest, FunctionManagement) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildSimpleFunction(M, "f");
  EXPECT_EQ(M.getFunction("f"), F);
  EXPECT_EQ(M.getFunction("nope"), nullptr);
  EXPECT_EQ(M.functions().size(), 1u);
  EXPECT_EQ(M.getInstructionCount(), 3u);
  EXPECT_FALSE(F->isDeclaration());
  F->clearBody();
  EXPECT_TRUE(F->isDeclaration());
  M.eraseFunction(F);
  EXPECT_EQ(M.functions().size(), 0u);
}

TEST(ModuleTest, UniqueNames) {
  Context Ctx;
  Module M("m", Ctx);
  std::string N1 = M.makeUniqueName("merged");
  std::string N2 = M.makeUniqueName("merged");
  EXPECT_NE(N1, N2);
}

TEST(ModuleTest, TeardownWithGlobalUses) {
  // Regression: module members used to destruct in declaration order,
  // destroying globals while function bodies still referenced them.
  Context Ctx;
  auto M = std::make_unique<Module>("m", Ctx);
  GlobalVariable *G = M->createGlobal("g", Ctx.int32Ty(), 4);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.voidTy(), {Ctx.int32Ty()});
  Function *F = M->createFunction("touch", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  B.createStore(F->getArg(0), G);
  B.createStore(F->getArg(0), B.createGep(Ctx.int32Ty(), G, Ctx.getInt32(1)));
  B.createRetVoid();
  // Globals are module-shared and use-untracked (like interned
  // constants), so teardown order cannot leave stale user edges.
  EXPECT_FALSE(G->isUseTracked());
  EXPECT_EQ(G->getNumUses(), 0u);
  M.reset(); // must not abort or touch freed memory
}

TEST(ModuleTest, Globals) {
  Context Ctx;
  Module M("m", Ctx);
  GlobalVariable *G = M.createGlobal("table", Ctx.int32Ty(), 16);
  EXPECT_TRUE(G->getType()->isPointer());
  EXPECT_EQ(G->getValueType(), Ctx.int32Ty());
  EXPECT_EQ(G->getStorageSize(), 64u);
  EXPECT_TRUE(isa<Constant>(G));
}

TEST(FunctionTest, InstructionCountAndClear) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildSimpleFunction(M, "f");
  EXPECT_EQ(F->getInstructionCount(), 3u);
  // clearBody handles cross-referencing instructions without dangling.
  F->clearBody();
  EXPECT_EQ(F->getInstructionCount(), 0u);
  EXPECT_EQ(F->getNumBlocks(), 0u);
}

TEST(SwitchTest, CasesAndPrinter) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Function *F = M.createFunction("sw", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *C1 = F->createBlock("c1");
  BasicBlock *C2 = F->createBlock("c2");
  BasicBlock *Def = F->createBlock("def");
  IRBuilder B(Ctx, Entry);
  SwitchInst *SW = B.createSwitch(F->getArg(0), Def);
  SW->addCase(Ctx.getInt32(1), C1);
  SW->addCase(Ctx.getInt32(2), C2);
  B.setInsertPoint(C1);
  B.createRet(Ctx.getInt32(10));
  B.setInsertPoint(C2);
  B.createRet(Ctx.getInt32(20));
  B.setInsertPoint(Def);
  B.createRet(Ctx.getInt32(0));

  EXPECT_EQ(SW->getNumCases(), 2u);
  EXPECT_EQ(SW->getNumSuccessors(), 3u);
  EXPECT_EQ(SW->getCaseDest(0), C1);
  EXPECT_EQ(SW->getDefaultDest(), Def);
  EXPECT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  std::string S = printFunction(*F);
  EXPECT_NE(S.find("switch i32 %arg0, default def [1:c1 2:c2]"),
            std::string::npos)
      << S;
}

} // namespace
