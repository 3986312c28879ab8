//===- perfbench/tests/oracle_test.cpp - The oracle can fail --------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// Checker sensitivity: the benchmark's interpreter oracle must pass a
// correctly merged small profile and must report a merged module with a
// planted wrong body or a swapped thunk target as changed behaviour —
// which a workload counts as a failed operation.
//
// Build and run:
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"
#include "ir/Context.h"
#include "ir/Instruction.h"
#include "merge/MergeDriver.h"
#include "support/Casting.h"
#include "workloads/Suites.h"
#include <gtest/gtest.h>
#include <set>

using namespace salssa;
using namespace perfbench;

namespace {

BenchmarkProfile smallProfile() {
  BenchmarkProfile P;
  P.Name = "oracle";
  P.NumFunctions = 16;
  P.MinSize = 5;
  P.AvgSize = 28;
  P.MaxSize = 90;
  P.CloneFamilyPercent = 60;
  P.MinFamily = 2;
  P.MaxFamily = 4;
  P.FamilyDriftPercent = 10;
  P.LoopPercent = 45;
  P.Seed = 0x0c1e;
  return P;
}

/// A never-merged reference and a merged copy of smallProfile().
struct Fixture {
  Context RefCtx, Ctx;
  std::unique_ptr<Module> Ref = buildBenchmarkModule(smallProfile(), RefCtx);
  std::unique_ptr<Module> Merged = buildBenchmarkModule(smallProfile(), Ctx);
  MergeDriverStats Stats = runFunctionMerging(*Merged, MergeDriverOptions());

  /// Definitions the merger added (merged bodies).
  std::vector<Function *> mergedBodies() const {
    std::vector<Function *> Out;
    for (Function *F : Merged->functions())
      if (!F->isDeclaration() && !Ref->getFunction(F->getName()))
        Out.push_back(F);
    return Out;
  }

  /// The thunks of \p Body: original functions whose call targets it.
  std::vector<CallBase *> thunkCallsTo(Function *Body) const {
    std::vector<CallBase *> Out;
    for (Function *F : Merged->functions())
      if (!F->isDeclaration() && Ref->getFunction(F->getName()))
        for (BasicBlock *BB : F->blocks())
          for (Instruction *I : BB->instructions())
            if (auto *C = dyn_cast<CallBase>(I))
              if (C->getCallee() == Body)
                Out.push_back(C);
    return Out;
  }

  OracleReport check() {
    return differentialCheck({Ref.get()}, {Merged.get()}, /*Seed=*/1);
  }
};

std::set<std::string> divergedFunctions(const OracleReport &R) {
  std::set<std::string> Names;
  for (const Divergence &D : R.Divergences)
    Names.insert(D.Function);
  return Names;
}

TEST(OracleTest, CorrectMergePasses) {
  Fixture F;
  ASSERT_GT(F.Stats.CommittedMerges, 0u) << "the profile must merge";
  OracleReport R = F.check();
  EXPECT_TRUE(R.ok()) << R.summary("oracle");
  EXPECT_EQ(R.Functions, F.Ref->functions().size() -
                             [&] {
                               size_t Decls = 0;
                               for (Function *Fn : F.Ref->functions())
                                 Decls += Fn->isDeclaration();
                               return Decls;
                             }());
  EXPECT_EQ(R.Runs, 3 * R.Functions);
  EXPECT_GT(R.MergedSteps, 0u);
}

TEST(OracleTest, PlantedWrongBodyFails) {
  Fixture F;
  std::vector<Function *> Bodies = F.mergedBodies();
  ASSERT_FALSE(Bodies.empty());
  // Plant a wrong body: every integer argument of every external call in
  // each merged body becomes a constant the generator never emits.
  for (Function *Body : Bodies)
    for (BasicBlock *BB : Body->blocks())
      for (Instruction *I : BB->instructions())
        if (auto *C = dyn_cast<CallBase>(I))
          if (C->getCallee()->isDeclaration())
            for (unsigned A = 0; A < C->getNumArgs(); ++A)
              if (C->getArg(A)->getType()->isInteger())
                C->setArg(A, F.Ctx.getInt(C->getArg(A)->getType(), 0x7a5));
  OracleReport R = F.check();
  EXPECT_FALSE(R.ok());
  std::set<std::string> Diverged = divergedFunctions(R);
  ASSERT_FALSE(Diverged.empty());
  for (const std::string &Name : Diverged) {
    Function *Thunk = F.Merged->getFunction(Name);
    ASSERT_NE(Thunk, nullptr);
    bool CallsABody = false;
    for (Function *Body : Bodies)
      for (CallBase *C : F.thunkCallsTo(Body))
        CallsABody |= C->getParent()->getParent() == Thunk;
    EXPECT_TRUE(CallsABody) << Name << " was not touched by the plant";
  }
}

TEST(OracleTest, SwappedThunkTargetFails) {
  Fixture F;
  std::vector<Function *> Bodies = F.mergedBodies();
  ASSERT_FALSE(Bodies.empty());
  // Swap every thunk's target: flip the function identifier so each
  // input dispatches into its partner's side of the merged body.
  for (Function *Body : Bodies)
    for (CallBase *C : F.thunkCallsTo(Body)) {
      auto *Fid = dyn_cast<ConstantInt>(C->getArg(0));
      ASSERT_NE(Fid, nullptr);
      C->setArg(0, F.Ctx.getInt1(!Fid->isTrue()));
    }
  OracleReport R = F.check();
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.Divergences.empty());
}

TEST(OracleTest, LostDefinitionFails) {
  Fixture F;
  F.Merged->eraseFunction(F.Merged->getFunction(
      F.Ref->functions().back()->getName()));
  OracleReport R = F.check();
  EXPECT_FALSE(R.ok());
}

} // namespace
