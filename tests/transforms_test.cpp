//===- tests/transforms_test.cpp - Transform pass unit tests ----------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "transforms/Cloning.h"
#include "transforms/Mem2Reg.h"
#include "transforms/Reg2Mem.h"
#include "transforms/Simplify.h"
#include <gtest/gtest.h>

using namespace salssa;

namespace {

/// Counts instructions with a given opcode in \p F.
static unsigned countOpcode(const Function &F, ValueKind K) {
  unsigned N = 0;
  for (const BasicBlock *BB : F)
    for (const Instruction *I : *BB)
      if (I->getOpcode() == K)
        ++N;
  return N;
}

/// Builds a classic loop with phis:
///   int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
static Function *buildLoopFunction(Module &M, const std::string &Name) {
  Context &Ctx = M.getContext();
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Function *F = M.createFunction(Name, FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder B(Ctx, Entry);
  B.createBr(Header);

  B.setInsertPoint(Header);
  PhiInst *I = B.createPhi(Ctx.int32Ty(), "i");
  PhiInst *S = B.createPhi(Ctx.int32Ty(), "s");
  Value *Cmp = B.createICmp(CmpPredicate::SLT, I, F->getArg(0), "cmp");
  B.createCondBr(Cmp, Body, Exit);

  B.setInsertPoint(Body);
  Value *S2 = B.createAdd(S, I, "s2");
  Value *I2 = B.createAdd(I, Ctx.getInt32(1), "i2");
  B.createBr(Header);

  I->addIncoming(Ctx.getInt32(0), Entry);
  I->addIncoming(I2, Body);
  S->addIncoming(Ctx.getInt32(0), Entry);
  S->addIncoming(S2, Body);

  B.setInsertPoint(Exit);
  B.createRet(S);
  return F;
}

//===----------------------------------------------------------------------===//
// Reg2Mem
//===----------------------------------------------------------------------===//

TEST(Reg2MemTest, EliminatesAllPhis) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildLoopFunction(M, "loop");
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  Reg2MemStats Stats = demoteRegistersToMemory(*F, Ctx);
  EXPECT_EQ(countOpcode(*F, ValueKind::Phi), 0u);
  EXPECT_EQ(Stats.DemotedPhis, 2u);
  EXPECT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str()
                                       << printFunction(*F);
}

TEST(Reg2MemTest, InflatesFunctionSize) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildLoopFunction(M, "loop");
  unsigned Before = static_cast<unsigned>(F->getInstructionCount());
  Reg2MemStats Stats = demoteRegistersToMemory(*F, Ctx);
  EXPECT_GT(F->getInstructionCount(), Before);
  EXPECT_GT(Stats.inflation(), 1.0);
  EXPECT_EQ(Stats.InstructionsBefore, Before);
}

TEST(Reg2MemTest, RoundTripThroughMem2RegPreservesShape) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildLoopFunction(M, "loop");
  size_t Original = F->getInstructionCount();
  demoteRegistersToMemory(*F, Ctx);
  Mem2RegStats PStats = promoteAllocasToRegisters(*F, Ctx);
  EXPECT_GT(PStats.PromotedAllocas, 0u);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  simplifyFunction(*F, Ctx);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  // After the round trip the function should be back to (about) its
  // original size: phis restored, spills gone.
  EXPECT_LE(F->getInstructionCount(), Original + 2);
  EXPECT_EQ(countOpcode(*F, ValueKind::Alloca), 0u);
}

TEST(Reg2MemTest, StraightLineCodeUntouchedExceptCrossBlock) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Function *F = M.createFunction("s", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  Value *X = B.createAdd(F->getArg(0), Ctx.getInt32(1), "x");
  Value *Y = B.createMul(X, X, "y");
  B.createRet(Y);
  Reg2MemStats Stats = demoteRegistersToMemory(*F, Ctx);
  // Everything is block-local: no demotion at all.
  EXPECT_EQ(Stats.DemotedValues, 0u);
  EXPECT_EQ(Stats.DemotedPhis, 0u);
  EXPECT_EQ(Stats.inflation(), 1.0);
}

TEST(Reg2MemTest, DemotesInvokeResultViaEdgeSplit) {
  Context Ctx;
  Module M("m", Ctx);
  Type *CalleeTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {});
  Function *Callee = M.createFunction("ext", CalleeTy);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {});
  Function *F = M.createFunction("inv", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Normal = F->createBlock("normal");
  BasicBlock *Unwind = F->createBlock("unwind");
  IRBuilder B(Ctx, Entry);
  InvokeInst *Inv = B.createInvoke(Callee, {}, Normal, Unwind, "r");
  B.setInsertPoint(Normal);
  B.createRet(Inv); // cross-block use of the invoke result
  B.setInsertPoint(Unwind);
  Value *Token = B.createLandingPad("lp");
  B.createResume(Token);

  demoteRegistersToMemory(*F, Ctx);
  EXPECT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str()
                                       << printFunction(*F);
  // The spill lives on a split edge, not in the invoke's own block.
  EXPECT_GT(F->getNumBlocks(), 3u);
}

//===----------------------------------------------------------------------===//
// Mem2Reg
//===----------------------------------------------------------------------===//

TEST(Mem2RegTest, PromotableDetection) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Function *F = M.createFunction("p", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  AllocaInst *Good = B.createAlloca(Ctx.int32Ty(), 1, "good");
  AllocaInst *Escaped = B.createAlloca(Ctx.int32Ty(), 1, "escaped");
  AllocaInst *Array = B.createAlloca(Ctx.int32Ty(), 4, "array");
  B.createStore(F->getArg(0), Good);
  Value *L = B.createLoad(Ctx.int32Ty(), Good);
  // Escaped: address flows into a gep.
  B.createGep(Ctx.int32Ty(), Escaped, Ctx.getInt32(1));
  B.createRet(L);
  EXPECT_TRUE(isPromotableAlloca(Good));
  EXPECT_FALSE(isPromotableAlloca(Escaped));
  EXPECT_FALSE(isPromotableAlloca(Array));
}

TEST(Mem2RegTest, StoredAddressIsNotPromotable) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.voidTy(), {});
  Function *F = M.createFunction("p", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  AllocaInst *A = B.createAlloca(Ctx.ptrTy(), 1, "a");
  AllocaInst *Target = B.createAlloca(Ctx.ptrTy(), 1, "t");
  B.createStore(A, Target); // A's address escapes as a stored value
  B.createRetVoid();
  EXPECT_FALSE(isPromotableAlloca(A));
  EXPECT_TRUE(isPromotableAlloca(Target));
}

TEST(Mem2RegTest, SingleBlockPromotion) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Function *F = M.createFunction("p", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  AllocaInst *A = B.createAlloca(Ctx.int32Ty(), 1, "a");
  B.createStore(F->getArg(0), A);
  Value *L1 = B.createLoad(Ctx.int32Ty(), A, "l1");
  Value *Inc = B.createAdd(L1, Ctx.getInt32(1), "inc");
  B.createStore(Inc, A);
  Value *L2 = B.createLoad(Ctx.int32Ty(), A, "l2");
  B.createRet(L2);

  Mem2RegStats S = promoteAllocasToRegisters(*F, Ctx);
  EXPECT_EQ(S.PromotedAllocas, 1u);
  EXPECT_EQ(S.LoadsRemoved, 2u);
  EXPECT_EQ(S.StoresRemoved, 2u);
  EXPECT_EQ(S.PhisInserted, 0u);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  // ret now returns the add directly.
  auto *Ret = cast<RetInst>(F->getEntryBlock()->back());
  EXPECT_EQ(Ret->getReturnValue(), Inc);
}

TEST(Mem2RegTest, DiamondInsertsPhi) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int1Ty()});
  Function *F = M.createFunction("p", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *T = F->createBlock("t");
  BasicBlock *E = F->createBlock("e");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(Ctx, Entry);
  AllocaInst *A = B.createAlloca(Ctx.int32Ty(), 1, "a");
  B.createCondBr(F->getArg(0), T, E);
  B.setInsertPoint(T);
  B.createStore(Ctx.getInt32(10), A);
  B.createBr(Join);
  B.setInsertPoint(E);
  B.createStore(Ctx.getInt32(20), A);
  B.createBr(Join);
  B.setInsertPoint(Join);
  Value *L = B.createLoad(Ctx.int32Ty(), A, "l");
  B.createRet(L);

  Mem2RegStats S = promoteAllocasToRegisters(*F, Ctx);
  EXPECT_EQ(S.PhisInserted, 1u);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  auto *P = dyn_cast<PhiInst>(Join->front());
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(cast<ConstantInt>(P->getIncomingValueForBlock(T))->getSExtValue(),
            10);
  EXPECT_EQ(cast<ConstantInt>(P->getIncomingValueForBlock(E))->getSExtValue(),
            20);
}

TEST(Mem2RegTest, ReadBeforeWriteYieldsUndef) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {});
  Function *F = M.createFunction("p", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  AllocaInst *A = B.createAlloca(Ctx.int32Ty(), 1, "a");
  Value *L = B.createLoad(Ctx.int32Ty(), A, "l");
  B.createRet(L);
  promoteAllocasToRegisters(*F, Ctx);
  auto *Ret = cast<RetInst>(F->getEntryBlock()->back());
  EXPECT_TRUE(isa<UndefValue>(Ret->getReturnValue()));
}

TEST(Mem2RegTest, LoopPromotionMatchesHandWrittenPhis) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildLoopFunction(M, "loop");
  size_t HandWrittenPhis = countOpcode(*F, ValueKind::Phi);
  demoteRegistersToMemory(*F, Ctx);
  ASSERT_EQ(countOpcode(*F, ValueKind::Phi), 0u);
  promoteAllocasToRegisters(*F, Ctx);
  simplifyFunction(*F, Ctx);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  EXPECT_EQ(countOpcode(*F, ValueKind::Phi), HandWrittenPhis);
}

//===----------------------------------------------------------------------===//
// Simplify
//===----------------------------------------------------------------------===//

TEST(SimplifyTest, ConstantFolding) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {});
  Function *F = M.createFunction("cf", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  Value *X = B.createAdd(Ctx.getInt32(2), Ctx.getInt32(3), "x");
  Value *Y = B.createMul(X, Ctx.getInt32(4), "y");
  B.createRet(Y);
  simplifyFunction(*F, Ctx);
  auto *Ret = cast<RetInst>(F->getEntryBlock()->back());
  auto *C = dyn_cast<ConstantInt>(Ret->getReturnValue());
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->getSExtValue(), 20);
  EXPECT_EQ(F->getInstructionCount(), 1u);
}

TEST(SimplifyTest, SelectIdenticalArmsFolds) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(),
                                         {Ctx.int1Ty(), Ctx.int32Ty()});
  Function *F = M.createFunction("sel", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  Value *S = B.createSelect(F->getArg(0), F->getArg(1), F->getArg(1), "s");
  B.createRet(S);
  simplifyFunction(*F, Ctx);
  auto *Ret = cast<RetInst>(F->getEntryBlock()->back());
  EXPECT_EQ(Ret->getReturnValue(), F->getArg(1));
}

TEST(SimplifyTest, SelectUndefArmFolds) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy =
      Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int1Ty(), Ctx.int32Ty()});
  Function *F = M.createFunction("sel", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  Value *S = B.createSelect(F->getArg(0), F->getArg(1),
                            Ctx.getUndef(Ctx.int32Ty()), "s");
  B.createRet(S);
  simplifyFunction(*F, Ctx);
  auto *Ret = cast<RetInst>(F->getEntryBlock()->back());
  EXPECT_EQ(Ret->getReturnValue(), F->getArg(1));
}

TEST(SimplifyTest, ConstantBranchFoldsAndDeadBlockGoes) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {});
  Function *F = M.createFunction("cb", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *T = F->createBlock("t");
  BasicBlock *E = F->createBlock("e");
  IRBuilder B(Ctx, Entry);
  B.createCondBr(Ctx.getTrue(), T, E);
  B.setInsertPoint(T);
  B.createRet(Ctx.getInt32(1));
  B.setInsertPoint(E);
  B.createRet(Ctx.getInt32(2));
  SimplifyStats S = simplifyFunction(*F, Ctx);
  EXPECT_GE(S.BranchesFolded, 1u);
  // Entry merged with T; E unreachable and removed.
  EXPECT_EQ(F->getNumBlocks(), 1u);
  auto *Ret = cast<RetInst>(F->getEntryBlock()->back());
  EXPECT_EQ(cast<ConstantInt>(Ret->getReturnValue())->getSExtValue(), 1);
}

TEST(SimplifyTest, ThreadsTrivialBlock) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int1Ty()});
  Function *F = M.createFunction("tt", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Mid = F->createBlock("mid"); // only a br
  BasicBlock *T = F->createBlock("t");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(Ctx, Entry);
  B.createCondBr(F->getArg(0), Mid, T);
  B.setInsertPoint(Mid);
  B.createBr(Join);
  B.setInsertPoint(T);
  B.createBr(Join);
  B.setInsertPoint(Join);
  PhiInst *P = B.createPhi(Ctx.int32Ty(), "p");
  P->addIncoming(Ctx.getInt32(1), Mid);
  P->addIncoming(Ctx.getInt32(2), T);
  B.createRet(P);
  simplifyFunction(*F, Ctx);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str()
                                       << printFunction(*F);
  // Mid and T are gone; phi entries retargeted to Entry... but both values
  // flow from Entry, which is impossible for a single block -- so the
  // threading must have kept at least one of them, or folded the phi by
  // rerouting only one side. Either way the function must stay correct:
  EXPECT_LE(F->getNumBlocks(), 3u);
}

TEST(SimplifyTest, MergesIdenticalPhis) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int1Ty()});
  Function *F = M.createFunction("ip", FnTy);
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
  PhiInst *P1 = B.createPhi(Ctx.int32Ty(), "p1");
  P1->addIncoming(Ctx.getInt32(1), T);
  P1->addIncoming(Ctx.getInt32(2), E);
  PhiInst *P2 = B.createPhi(Ctx.int32Ty(), "p2");
  P2->addIncoming(Ctx.getInt32(1), T);
  P2->addIncoming(Ctx.getInt32(2), E);
  Value *Sum = B.createAdd(P1, P2, "sum");
  B.createRet(Sum);
  SimplifyStats S = simplifyFunction(*F, Ctx);
  EXPECT_GE(S.PhisMerged, 1u);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  EXPECT_LE(countOpcode(*F, ValueKind::Phi), 1u);
}

TEST(SimplifyTest, RemovesUnreachableBlocks) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.voidTy(), {});
  Function *F = M.createFunction("u", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Dead1 = F->createBlock("dead1");
  BasicBlock *Dead2 = F->createBlock("dead2");
  IRBuilder B(Ctx, Entry);
  B.createRetVoid();
  // Dead blocks reference each other.
  B.setInsertPoint(Dead1);
  B.createBr(Dead2);
  B.setInsertPoint(Dead2);
  B.createBr(Dead1);
  EXPECT_EQ(removeUnreachableBlocks(*F), 2u);
  EXPECT_EQ(F->getNumBlocks(), 1u);
  EXPECT_TRUE(verifyFunction(*F).ok());
}

TEST(SimplifyTest, DCERemovesChains) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Function *F = M.createFunction("dce", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  Value *A = B.createAdd(F->getArg(0), Ctx.getInt32(1), "a");
  B.createMul(A, A, "dead"); // unused chain head
  B.createRet(F->getArg(0));
  unsigned Removed = eliminateDeadCode(*F);
  EXPECT_EQ(Removed, 2u); // mul then add
  EXPECT_EQ(F->getInstructionCount(), 1u);
}

TEST(SimplifyTest, CallsSurviveDCE) {
  Context Ctx;
  Module M("m", Ctx);
  Type *ExtTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {});
  Function *Ext = M.createFunction("ext", ExtTy);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {});
  Function *F = M.createFunction("keep", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  B.createCall(Ext, {}, "unused"); // side effects: must stay
  B.createRet(Ctx.getInt32(0));
  EXPECT_EQ(eliminateDeadCode(*F), 0u);
  EXPECT_EQ(F->getInstructionCount(), 2u);
}

TEST(SimplifyTest, XorIdentities) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int1Ty(), {Ctx.int1Ty()});
  Function *F = M.createFunction("x", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  // xor(c, false) == c -- the Fig 11 xor insertion should simplify away
  // when the function identifier is known.
  Value *X = B.createXor(F->getArg(0), Ctx.getFalse(), "x");
  B.createRet(X);
  simplifyFunction(*F, Ctx);
  auto *Ret = cast<RetInst>(F->getEntryBlock()->back());
  EXPECT_EQ(Ret->getReturnValue(), F->getArg(0));
}

//===----------------------------------------------------------------------===//
// Cloning
//===----------------------------------------------------------------------===//

TEST(SimplifyTest, MergesIdenticalPhisThatReadPhisOfTheirBlock) {
  // e and f read c and d, phis of their own block. Merging d into c makes
  // e and f identical, but only after the round compared them; the next
  // round merges them.
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Function *F = M.createFunction("f", FnTy);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *H = F->createBlock("h");
  BasicBlock *L = F->createBlock("l");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder B(Ctx, Entry);
  B.createBr(H);
  B.setInsertPoint(H);
  PhiInst *E = B.createPhi(Ctx.int32Ty(), "e");
  PhiInst *Fp = B.createPhi(Ctx.int32Ty(), "f");
  PhiInst *C = B.createPhi(Ctx.int32Ty(), "c");
  PhiInst *D = B.createPhi(Ctx.int32Ty(), "d");
  Value *Cond = B.createICmp(CmpPredicate::SLT, C, F->getArg(0), "cond");
  B.createCondBr(Cond, L, Exit);
  B.setInsertPoint(L);
  Value *X = B.createAdd(E, Fp, "x");
  B.createBr(H);
  B.setInsertPoint(Exit);
  Value *S = B.createAdd(E, Fp, "s");
  S = B.createAdd(S, C, "s2");
  B.createRet(B.createAdd(S, D, "s3"));
  E->addIncoming(Ctx.getInt32(2), Entry);
  E->addIncoming(D, L);
  Fp->addIncoming(Ctx.getInt32(2), Entry);
  Fp->addIncoming(C, L);
  C->addIncoming(Ctx.getInt32(1), Entry);
  C->addIncoming(X, L);
  D->addIncoming(Ctx.getInt32(1), Entry);
  D->addIncoming(X, L);

  SimplifyStats Stats = simplifyFunction(*F, Ctx);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  EXPECT_EQ(Stats.PhisMerged, 2u);
  EXPECT_EQ(printFunction(*F), R"(define i32 @f(i32 %arg0) {
entry:
  br h
h:
  %e = phi i32 [2, entry], [%c, l]
  %c = phi i32 [1, entry], [%x, l]
  %cond = icmp slt i32 %c, %arg0
  br i1 %cond, l, exit
l:
  %x = add i32 %e, %e
  br h
exit:
  %s = add i32 %e, %e
  %s2 = add i32 %s, %c
  %s3 = add i32 %s2, %c
  ret i32 %s3
}
)");
}

TEST(CloningTest, CloneFunctionIsIdenticalAndIndependent) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildLoopFunction(M, "orig");
  Function *C = cloneFunction(F, "copy");
  ASSERT_TRUE(verifyFunction(*C).ok()) << verifyFunction(*C).str();
  EXPECT_EQ(printFunction(*F).substr(printFunction(*F).find('(')),
            printFunction(*C).substr(printFunction(*C).find('(')));
  // Mutating the clone leaves the original untouched.
  size_t Before = F->getInstructionCount();
  C->clearBody();
  EXPECT_EQ(F->getInstructionCount(), Before);
  EXPECT_TRUE(verifyFunction(*F).ok());
}

TEST(CloningTest, CloneInstructionSharesOperandsUntilRemap) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Function *F = M.createFunction("f", FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  auto *Add =
      cast<Instruction>(B.createAdd(F->getArg(0), Ctx.getInt32(7), "a"));
  B.createRet(Add);

  Instruction *Clone = cloneInstruction(Add, Ctx);
  EXPECT_EQ(Clone->getOperand(0), F->getArg(0));
  EXPECT_EQ(Clone->getOperand(1), Ctx.getInt32(7));
  // The placeholder operands are deliberately unregistered (the original
  // may be shared with merge attempts on other threads); only the remap
  // registers the final operands.
  EXPECT_EQ(F->getArg(0)->getNumUses(), 1u);
  CloneMaps Maps;
  Maps.Values[F->getArg(0)] = Ctx.getInt32(1);
  remapInstruction(Clone, Maps);
  EXPECT_EQ(Clone->getOperand(0), Ctx.getInt32(1));
  EXPECT_EQ(F->getArg(0)->getNumUses(), 1u);
  Clone->eraseFromParent(); // unlinked delete
}

TEST(CloningTest, ClonePreservesPhiStructure) {
  Context Ctx;
  Module M("m", Ctx);
  Function *F = buildLoopFunction(M, "orig2");
  Function *C = cloneFunction(F, "copy2");
  unsigned Phis = 0;
  for (BasicBlock *BB : *C)
    Phis += static_cast<unsigned>(BB->phis().size());
  EXPECT_EQ(Phis, 2u);
  // Phi incoming blocks must point at *cloned* blocks.
  for (BasicBlock *BB : *C)
    for (PhiInst *P : BB->phis())
      for (unsigned K = 0; K < P->getNumIncoming(); ++K)
        EXPECT_EQ(P->getIncomingBlock(K)->getParent(), C);
}

//===----------------------------------------------------------------------===//
// Phi incoming order. Mem2Reg appends incoming entries in the order its
// renaming DFS visits predecessors, then fills edges from unreachable
// blocks with undef in block-list order; Simplify's threading appends
// rerouted predecessors in block-list order. These orders are printed,
// so each test pins the exact text.
//===----------------------------------------------------------------------===//

/// Creates `i32 @Name(i32 %arg0, i1 %arg1)` with an entry block holding
/// one i32 slot named "s", initialized to %arg0.
static Function *buildSlotFunction(Module &M, const std::string &Name,
                                   AllocaInst *&Slot) {
  Context &Ctx = M.getContext();
  Type *FnTy =
      Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty(), Ctx.int1Ty()});
  Function *F = M.createFunction(Name, FnTy);
  IRBuilder B(Ctx, F->createBlock("entry"));
  Slot = B.createAlloca(Ctx.int32Ty(), 1, "s");
  B.createStore(F->getArg(0), Slot);
  return F;
}

TEST(PhiOrderTest, UnreachablePredecessorsGetUndefInBlockOrder) {
  Context Ctx;
  Module M("m", Ctx);
  AllocaInst *S;
  Function *F = buildSlotFunction(M, "f", S);
  BasicBlock *Entry = F->getEntryBlock();
  BasicBlock *Dead1 = F->createBlock("dead1");
  BasicBlock *Left = F->createBlock("left");
  BasicBlock *Dead2 = F->createBlock("dead2");
  BasicBlock *Right = F->createBlock("right");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(Ctx, Entry);
  B.createCondBr(F->getArg(1), Left, Right);
  B.setInsertPoint(Dead1);
  B.createStore(Ctx.getInt32(7), S);
  B.createBr(Join);
  B.setInsertPoint(Left);
  B.createStore(Ctx.getInt32(1), S);
  B.createBr(Join);
  B.setInsertPoint(Dead2);
  B.createBr(Join);
  B.setInsertPoint(Right);
  B.createBr(Join);
  B.setInsertPoint(Join);
  B.createRet(B.createLoad(Ctx.int32Ty(), S, "v"));

  promoteAllocasToRegisters(*F, Ctx);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  EXPECT_EQ(printFunction(*F), R"(define i32 @f(i32 %arg0, i1 %arg1) {
entry:
  br i1 %arg1, left, right
dead1:
  br join
left:
  br join
dead2:
  br join
right:
  br join
join:
  %s.phi = phi i32 [%arg0, right], [1, left], [undef, dead1], [undef, dead2]
  ret i32 %s.phi
}
)");
}

TEST(PhiOrderTest, SwitchWithDuplicateSuccessorEdges) {
  Context Ctx;
  Module M("m", Ctx);
  AllocaInst *S;
  Function *F = buildSlotFunction(M, "f", S);
  BasicBlock *Entry = F->getEntryBlock();
  BasicBlock *A = F->createBlock("a");
  BasicBlock *Hub = F->createBlock("hub");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(Ctx, Entry);
  SwitchInst *SW = B.createSwitch(F->getArg(0), Join);
  SW->addCase(Ctx.getInt32(1), A);
  SW->addCase(Ctx.getInt32(2), Hub);
  SW->addCase(Ctx.getInt32(3), A);
  SW->addCase(Ctx.getInt32(4), Join);
  B.setInsertPoint(A);
  B.createStore(Ctx.getInt32(5), S);
  B.createCondBr(F->getArg(1), Hub, Join);
  B.setInsertPoint(Hub);
  B.createBr(Join);
  B.setInsertPoint(Join);
  B.createRet(B.createLoad(Ctx.int32Ty(), S, "v"));

  promoteAllocasToRegisters(*F, Ctx);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  EXPECT_EQ(printFunction(*F), R"(define i32 @f(i32 %arg0, i1 %arg1) {
entry:
  switch i32 %arg0, default join [1:a 2:hub 3:a 4:join]
a:
  br i1 %arg1, hub, join
hub:
  %s.phi = phi i32 [%arg0, entry], [5, a]
  br join
join:
  %s.phi = phi i32 [%arg0, entry], [5, a], [%s.phi, hub]
  ret i32 %s.phi
}
)");
}

TEST(PhiOrderTest, ThreadingAppendsPredecessorsInBlockOrder) {
  Context Ctx;
  Module M("m", Ctx);
  Type *FnTy = Ctx.types().getFunctionTy(Ctx.int32Ty(), {Ctx.int32Ty()});
  Function *F = M.createFunction("f", FnTy);
  Function *Ext =
      M.createFunction("ext", Ctx.types().getFunctionTy(Ctx.voidTy(), {}));
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *X = F->createBlock("x");
  BasicBlock *Hub = F->createBlock("hub");
  BasicBlock *Y = F->createBlock("y");
  BasicBlock *Z = F->createBlock("z");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(Ctx, Entry);
  SwitchInst *SW = B.createSwitch(F->getArg(0), Y);
  SW->addCase(Ctx.getInt32(1), X);
  SW->addCase(Ctx.getInt32(2), Hub);
  SW->addCase(Ctx.getInt32(3), Z);
  SW->addCase(Ctx.getInt32(4), Hub);
  B.setInsertPoint(Y);
  B.createCall(Ext, {});
  B.createBr(Hub);
  B.setInsertPoint(X);
  B.createCall(Ext, {});
  B.createBr(Hub);
  B.setInsertPoint(Hub);
  B.createBr(Join);
  B.setInsertPoint(Z);
  Value *ZV = B.createMul(F->getArg(0), Ctx.getInt32(3), "zv");
  B.createBr(Join);
  B.setInsertPoint(Join);
  PhiInst *P = B.createPhi(Ctx.int32Ty(), "p");
  P->addIncoming(ZV, Z);
  P->addIncoming(Ctx.getInt32(7), Hub);
  B.createRet(P);

  // hub's predecessors replace its entry in block order (entry, x, y),
  // although the switch reaches x after y.
  simplifyFunction(*F, Ctx);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  EXPECT_EQ(printFunction(*F), R"(define i32 @f(i32 %arg0) {
entry:
  switch i32 %arg0, default y [1:x 2:join 3:z 4:join]
x:
  call void @ext()
  br join
y:
  call void @ext()
  br join
z:
  %zv = mul i32 %arg0, 3
  br join
join:
  %p = phi i32 [%zv, z], [7, entry], [7, x], [7, y]
  ret i32 %p
}
)");
}

TEST(PhiOrderTest, IrreducibleLoop) {
  Context Ctx;
  Module M("m", Ctx);
  AllocaInst *S;
  Function *F = buildSlotFunction(M, "f", S);
  BasicBlock *Entry = F->getEntryBlock();
  BasicBlock *A = F->createBlock("a");
  BasicBlock *Bb = F->createBlock("b");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder B(Ctx, Entry);
  B.createCondBr(F->getArg(1), A, Bb);
  // a and b both enter the cycle a <-> b: neither dominates the other.
  B.setInsertPoint(A);
  Value *X = B.createLoad(Ctx.int32Ty(), S, "x");
  B.createStore(B.createAdd(X, Ctx.getInt32(1), "x1"), S);
  Value *C = B.createICmp(CmpPredicate::SLT, X, Ctx.getInt32(100), "c");
  B.createCondBr(C, Bb, Exit);
  B.setInsertPoint(Bb);
  Value *Y = B.createLoad(Ctx.int32Ty(), S, "y");
  B.createStore(B.createMul(Y, Ctx.getInt32(2), "y2"), S);
  B.createBr(A);
  B.setInsertPoint(Exit);
  B.createRet(B.createLoad(Ctx.int32Ty(), S, "v"));

  promoteAllocasToRegisters(*F, Ctx);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  EXPECT_EQ(printFunction(*F), R"(define i32 @f(i32 %arg0, i1 %arg1) {
entry:
  br i1 %arg1, a, b
a:
  %s.phi = phi i32 [%arg0, entry], [%y2, b]
  %x1 = add i32 %s.phi, 1
  %c = icmp slt i32 %s.phi, 100
  br i1 %c, b, exit
b:
  %s.phi = phi i32 [%arg0, entry], [%x1, a]
  %y2 = mul i32 %s.phi, 2
  br a
exit:
  ret i32 %x1
}
)");
}

TEST(PhiOrderTest, InvokeNormalEdge) {
  Context Ctx;
  Module M("m", Ctx);
  AllocaInst *S;
  Function *F = buildSlotFunction(M, "f", S);
  Function *Callee =
      M.createFunction("ext", Ctx.types().getFunctionTy(Ctx.int32Ty(), {}));
  BasicBlock *Entry = F->getEntryBlock();
  BasicBlock *Inv = F->createBlock("inv");
  BasicBlock *Other = F->createBlock("other");
  BasicBlock *Join = F->createBlock("join");
  BasicBlock *Pad = F->createBlock("pad");
  IRBuilder B(Ctx, Entry);
  B.createCondBr(F->getArg(1), Inv, Other);
  B.setInsertPoint(Inv);
  // inv reaches join through the invoke's normal edge.
  B.createStore(Ctx.getInt32(1), S);
  B.createInvoke(Callee, {}, Join, Pad, "r");
  B.setInsertPoint(Other);
  B.createStore(Ctx.getInt32(2), S);
  B.createBr(Join);
  B.setInsertPoint(Join);
  B.createRet(B.createLoad(Ctx.int32Ty(), S, "v"));
  B.setInsertPoint(Pad);
  Value *Token = B.createLandingPad("lp");
  B.createStore(Ctx.getInt32(3), S);
  B.createResume(Token);

  promoteAllocasToRegisters(*F, Ctx);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  EXPECT_EQ(printFunction(*F), R"(define i32 @f(i32 %arg0, i1 %arg1) {
entry:
  br i1 %arg1, inv, other
inv:
  %r = invoke i32 @ext() to join unwind pad
other:
  br join
join:
  %s.phi = phi i32 [2, other], [1, inv]
  ret i32 %s.phi
pad:
  %lp = landingpad
  resume %lp
}
)");
}

TEST(PhiOrderTest, SelfLoopBlock) {
  Context Ctx;
  Module M("m", Ctx);
  AllocaInst *S;
  Function *F = buildSlotFunction(M, "f", S);
  BasicBlock *Entry = F->getEntryBlock();
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder B(Ctx, Entry);
  B.createBr(Loop);
  B.setInsertPoint(Loop);
  Value *V = B.createLoad(Ctx.int32Ty(), S, "v");
  Value *V2 = B.createAdd(V, Ctx.getInt32(1), "v2");
  B.createStore(V2, S);
  Value *C = B.createICmp(CmpPredicate::SLT, V2, Ctx.getInt32(10), "c");
  B.createCondBr(C, Loop, Exit);
  B.setInsertPoint(Exit);
  B.createRet(B.createLoad(Ctx.int32Ty(), S, "r"));

  promoteAllocasToRegisters(*F, Ctx);
  ASSERT_TRUE(verifyFunction(*F).ok()) << verifyFunction(*F).str();
  EXPECT_EQ(printFunction(*F), R"(define i32 @f(i32 %arg0, i1 %arg1) {
entry:
  br loop
loop:
  %s.phi = phi i32 [%arg0, entry], [%v2, loop]
  %v2 = add i32 %s.phi, 1
  %c = icmp slt i32 %v2, 10
  br i1 %c, loop, exit
exit:
  ret i32 %v2
}
)");
}


} // namespace
