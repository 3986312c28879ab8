//===- tests/golden_digest_test.cpp - Byte-identity guard for cleanup --------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// Pins FNV-1a digests of printed IR produced by the SSA-repair and
// cleanup stack: whole-module output of runFunctionMerging on a few
// reduced-scale SPEC CPU2006 / MiBench profiles (SalSSA and FMSA), and
// the output of promoteAllocas and simplifyFunction on generated
// functions. The pinned values were captured before the CFG substrate
// (analysis/CFG, analysis/Dominators, transforms/Mem2Reg,
// transforms/Simplify, merge/SSARepair) was rewritten for speed; any
// rewrite of that stack must keep them byte-for-byte. A mismatch means
// phi incoming order, block order, naming or a fold decision changed.
//
// The MergeRecord-stream digests pin every attempt's size decision
// (names, outcome, SizeMerged, Profitable), including the attempts whose
// merged bodies are discarded and so never reach a printed module. They
// were captured before Simplify learned to skip sub-pass work that cannot
// change the IR.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "merge/MergeDriver.h"
#include "support/RNG.h"
#include "support/Serialization.h"
#include "transforms/Mem2Reg.h"
#include "transforms/Reg2Mem.h"
#include "transforms/Simplify.h"
#include "workloads/Suites.h"
#include <gtest/gtest.h>
#include <cstdio>

using namespace salssa;

namespace {

uint64_t digestOf(const std::string &S) {
  return fnv1a64(reinterpret_cast<const uint8_t *>(S.data()), S.size());
}

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

BenchmarkProfile reduced(BenchmarkProfile P) {
  P.NumFunctions = std::min(P.NumFunctions, 40u);
  P.MaxSize = std::min(P.MaxSize, 400u);
  P.GiantPairSize = std::min(P.GiantPairSize, 300u);
  return P;
}

BenchmarkProfile profileNamed(const std::vector<BenchmarkProfile> &Suite,
                              const std::string &Name) {
  for (const BenchmarkProfile &P : Suite)
    if (P.Name == Name)
      return reduced(P);
  ADD_FAILURE() << "no profile named " << Name;
  return {};
}

uint64_t mergedModuleDigest(const BenchmarkProfile &P, MergeTechnique T) {
  Context Ctx;
  std::unique_ptr<Module> M = buildBenchmarkModule(P, Ctx);
  MergeDriverOptions DO;
  DO.Technique = T;
  runFunctionMerging(*M, DO);
  EXPECT_TRUE(verifyModule(*M).ok()) << P.Name;
  return digestOf(printModule(*M));
}

struct MergeCase {
  const char *Profile;
  bool FromSpec;
  uint64_t SalSSA;
  uint64_t FMSA;
};

const MergeCase MergeCases[] = {
    {"403.gcc", true, 0xcf1a483861922264, 0x77ffea387e1d7282},
    {"447.dealII", true, 0x1b3a0e4b80e20238, 0xaa078c0c2def225d},
    {"456.hmmer", true, 0xebb3aff8b4c124ab, 0x5c1875f8a4095f04},
    {"483.xalancbmk", true, 0x36d1a84db0928be8, 0x618fd4dd26617a9b},
    {"bitcount", false, 0x0345dbca7154aa7f, 0xa5b66ab10e44332d},
    {"blowfish_d", false, 0x9b3da6c4173f8167, 0x67548a4da93e8fa4},
};

TEST(GoldenDigestTest, MergedModulesAreByteIdentical) {
  std::vector<BenchmarkProfile> Spec = spec2006Profiles();
  std::vector<BenchmarkProfile> MiBench = mibenchProfiles();
  for (const MergeCase &C : MergeCases) {
    BenchmarkProfile P = profileNamed(C.FromSpec ? Spec : MiBench, C.Profile);
    uint64_t S = mergedModuleDigest(P, MergeTechnique::SalSSA);
    uint64_t F = mergedModuleDigest(P, MergeTechnique::FMSA);
    EXPECT_EQ(hex(S), hex(C.SalSSA)) << C.Profile << " SalSSA";
    EXPECT_EQ(hex(F), hex(C.FMSA)) << C.Profile << " FMSA";
  }
}

/// Generates a module of structurally varied functions (loops, diamonds
/// with join phis, invokes) from \p Seed.
std::unique_ptr<Module> generatedModule(Context &Ctx, uint64_t Seed) {
  auto M = std::make_unique<Module>("gen" + std::to_string(Seed), Ctx);
  RNG Rng(Seed);
  WorkloadEnvironment Env(*M, Rng);
  for (unsigned K = 0; K < 12; ++K) {
    RandomFunctionOptions O;
    O.TargetSize = 30 + 25 * K;
    O.ControlFlowPercent = 25 + 5 * (K % 4);
    O.LoopPercent = 30 + 10 * (K % 5);
    O.InvokePercent = K % 3 == 0 ? 20 : 0;
    O.MaxDepth = 2 + K % 3;
    O.RetTypeVariety = 1 + K % 5;
    generateRandomFunction(Env, Rng, "g" + std::to_string(K), O);
  }
  return M;
}

struct TransformDigests {
  uint64_t Simplified;
  uint64_t Promoted;
  uint64_t PromotedSimplified;
};

TransformDigests transformDigests(uint64_t Seed) {
  TransformDigests D{};
  {
    Context Ctx;
    std::unique_ptr<Module> M = generatedModule(Ctx, Seed);
    for (Function *F : M->functions())
      if (!F->isDeclaration())
        simplifyFunction(*F, Ctx);
    EXPECT_TRUE(verifyModule(*M).ok());
    D.Simplified = digestOf(printModule(*M));
  }
  Context Ctx;
  std::unique_ptr<Module> M = generatedModule(Ctx, Seed);
  for (Function *F : M->functions())
    if (!F->isDeclaration()) {
      demoteRegistersToMemory(*F, Ctx);
      promoteAllocasToRegisters(*F, Ctx);
    }
  EXPECT_TRUE(verifyModule(*M).ok());
  D.Promoted = digestOf(printModule(*M));
  for (Function *F : M->functions())
    if (!F->isDeclaration())
      simplifyFunction(*F, Ctx, /*PreserveTraps=*/true);
  EXPECT_TRUE(verifyModule(*M).ok());
  D.PromotedSimplified = digestOf(printModule(*M));
  return D;
}

struct TransformCase {
  uint64_t Seed;
  TransformDigests Expected;
};

const TransformCase TransformCases[] = {
    {11, {0xa09cb576489a5883, 0x08c52419e25ac373, 0xcdda1ed05d0e38f0}},
    {29, {0xfad3bf9d8feb99f2, 0xba5c9c8fe10b0415, 0x7f0a329fc6fc37d9}},
    {47, {0x6f888c4acaeb53d5, 0x55d55bcd0aac6cea, 0x9fb89926ced56a48}},
};

TEST(GoldenDigestTest, PromoteAndSimplifyAreByteIdentical) {
  for (const TransformCase &C : TransformCases) {
    TransformDigests D = transformDigests(C.Seed);
    EXPECT_EQ(hex(D.Simplified), hex(C.Expected.Simplified))
        << "seed " << C.Seed << " simplifyFunction";
    EXPECT_EQ(hex(D.Promoted), hex(C.Expected.Promoted))
        << "seed " << C.Seed << " reg2mem + promoteAllocas";
    EXPECT_EQ(hex(D.PromotedSimplified), hex(C.Expected.PromotedSimplified))
        << "seed " << C.Seed << " promoteAllocas + simplifyFunction";
  }
}

/// FNV-1a over one line per attempt: both names, the outcome, the merged
/// size and the profitability verdict.
uint64_t recordStreamDigest(BenchmarkProfile P, MergeTechnique T,
                            unsigned Threshold) {
  Context Ctx;
  std::unique_ptr<Module> M = buildBenchmarkModule(P, Ctx);
  MergeDriverOptions DO;
  DO.Technique = T;
  DO.ExplorationThreshold = Threshold;
  MergeDriverStats S = runFunctionMerging(*M, DO);
  std::string Stream;
  for (const MergeRecord &R : S.Records)
    Stream += R.Name1 + "|" + R.Name2 + "|" +
              std::to_string(static_cast<unsigned>(R.Stats.Outcome)) + "|" +
              std::to_string(R.Stats.SizeMerged) + "|" +
              (R.Stats.Profitable ? "1" : "0") + "\n";
  return digestOf(Stream);
}

struct RecordCase {
  const char *Profile;
  bool FromSpec;
  uint64_t SalSSA1, SalSSA5, FMSA1, FMSA5;
};

const RecordCase RecordCases[] = {
    {"403.gcc", true,
     0xeedaee610bd85a14, 0x045e56890f73acbb, 0xb68792e93528a8af, 0xd01be71d69439518},
    {"447.dealII", true,
     0x0fa7c84ca103a79c, 0xc42e2d61d8dab597, 0x9936d21b7f8a5c80, 0x82932c40ebc3f7e2},
    {"456.hmmer", true,
     0x49a732eb1dc24344, 0x31fd0e8ee89de228, 0x593455e2446c5c3f, 0x0fb9482639021fbc},
    {"483.xalancbmk", true,
     0x0450f6258e275674, 0xbddbcf929032c4aa, 0x13722772d44ba959, 0xcca47b722df1cabf},
    {"bitcount", false,
     0xe9fbd2ee6b038a9c, 0x863bbc3c1740daad, 0x2ed2053e00ba07c5, 0xbd425fe29bfcc946},
    {"blowfish_d", false,
     0x0e2ac865f5d15631, 0x9b7603e7c39217eb, 0x6812e503a1ac87c0, 0x7f7eabc5d1233404},
};

TEST(GoldenDigestTest, MergeRecordStreamsAreIdentical) {
  std::vector<BenchmarkProfile> Spec = spec2006Profiles();
  std::vector<BenchmarkProfile> MiBench = mibenchProfiles();
  for (const RecordCase &C : RecordCases) {
    BenchmarkProfile P = profileNamed(C.FromSpec ? Spec : MiBench, C.Profile);
    EXPECT_EQ(hex(recordStreamDigest(P, MergeTechnique::SalSSA, 1)),
              hex(C.SalSSA1))
        << C.Profile << " SalSSA t=1";
    EXPECT_EQ(hex(recordStreamDigest(P, MergeTechnique::SalSSA, 5)),
              hex(C.SalSSA5))
        << C.Profile << " SalSSA t=5";
    EXPECT_EQ(hex(recordStreamDigest(P, MergeTechnique::FMSA, 1)),
              hex(C.FMSA1))
        << C.Profile << " FMSA t=1";
    EXPECT_EQ(hex(recordStreamDigest(P, MergeTechnique::FMSA, 5)),
              hex(C.FMSA5))
        << C.Profile << " FMSA t=5";
  }
}

/// Full-size 400.perlbench: its discarded remerges carry thousands of
/// repair phis per body, the load the Simplify skip rules are built for.
TEST(GoldenDigestTest, PerlbenchRecordStreamIsIdentical) {
  for (const BenchmarkProfile &P : spec2006Profiles())
    if (P.Name == "400.perlbench") {
      EXPECT_EQ(hex(recordStreamDigest(P, MergeTechnique::SalSSA, 1)),
                hex(0x40697d693c0244e5));
      return;
    }
  ADD_FAILURE() << "no profile named 400.perlbench";
}

} // namespace
