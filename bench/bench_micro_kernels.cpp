//===- bench/bench_micro_kernels.cpp - Microbenchmarks -------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// google-benchmark microbenchmarks of the pass's computational kernels:
// Needleman-Wunsch alignment (quadratic; the paper's §5.5/§5.6 bottleneck),
// register demotion/promotion, and the SalSSA code generator. These expose
// the asymptotics that explain Figures 22-24. BM_SalSSARemergePair
// re-merges two merged functions, the phi-dense case of a whole-program
// run, and reports the clean-up stack's deterministic work counters.
//
//===----------------------------------------------------------------------===//

#include "align/Matcher.h"
#include "merge/FunctionMerger.h"
#include "transforms/Mem2Reg.h"
#include "transforms/Reg2Mem.h"
#include "workloads/Suites.h"
#include <benchmark/benchmark.h>

using namespace salssa;

namespace {

/// Builds a pair of similar functions of the requested size.
struct PairFixture {
  Context Ctx;
  std::unique_ptr<Module> M;
  Function *F1 = nullptr;
  Function *F2 = nullptr;

  explicit PairFixture(unsigned Size) {
    M = std::make_unique<Module>("micro", Ctx);
    RNG Rng(Size * 7919 + 13);
    WorkloadEnvironment Env(*M, Rng);
    RandomFunctionOptions FO;
    FO.TargetSize = Size;
    RNG G = Rng.fork(1);
    F1 = generateRandomFunction(Env, G, "a", FO);
    DriftOptions DO;
    DO.MutatePercent = 8;
    RNG D = Rng.fork(2);
    F2 = cloneWithDrift(F1, "b", Env, D, DO);
  }
};

void BM_Alignment(benchmark::State &State) {
  PairFixture Fix(static_cast<unsigned>(State.range(0)));
  std::vector<SeqItem> S1 = linearizeFunction(*Fix.F1);
  std::vector<SeqItem> S2 = linearizeFunction(*Fix.F2);
  for (auto _ : State) {
    AlignmentResult R = alignSequences(S1, S2, itemsMatch);
    benchmark::DoNotOptimize(R.MatchedPairs);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_Alignment)->Range(32, 1024)->Complexity(benchmark::oNSquared);

void BM_RegisterDemotion(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    PairFixture Fix(static_cast<unsigned>(State.range(0)));
    State.ResumeTiming();
    demoteRegistersToMemory(*Fix.F1, Fix.Ctx);
  }
}
BENCHMARK(BM_RegisterDemotion)->Range(64, 512)->Iterations(30);

void BM_RegisterPromotion(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    PairFixture Fix(static_cast<unsigned>(State.range(0)));
    demoteRegistersToMemory(*Fix.F1, Fix.Ctx);
    State.ResumeTiming();
    promoteAllocasToRegisters(*Fix.F1, Fix.Ctx);
  }
}
BENCHMARK(BM_RegisterPromotion)->Range(64, 512)->Iterations(30);

void BM_SalSSAMergePair(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    PairFixture Fix(static_cast<unsigned>(State.range(0)));
    State.ResumeTiming();
    MergeAttempt A = attemptMerge(
        *Fix.F1, *Fix.F2,
        MergeCodeGenOptions::forTechnique(MergeTechnique::SalSSA),
        TargetArch::X86Like, 0, 0);
    benchmark::DoNotOptimize(A.Stats.SizeMerged);
    State.PauseTiming();
    discardMerge(A);
    State.ResumeTiming();
  }
}
BENCHMARK(BM_SalSSAMergePair)->Range(64, 512)->Iterations(20);

void BM_FMSAMergePair(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    PairFixture Fix(static_cast<unsigned>(State.range(0)));
    demoteRegistersToMemory(*Fix.F1, Fix.Ctx);
    demoteRegistersToMemory(*Fix.F2, Fix.Ctx);
    State.ResumeTiming();
    MergeAttempt A = attemptMerge(
        *Fix.F1, *Fix.F2,
        MergeCodeGenOptions::forTechnique(MergeTechnique::FMSA),
        TargetArch::X86Like, 0, 0);
    benchmark::DoNotOptimize(A.Stats.SizeMerged);
    State.PauseTiming();
    discardMerge(A);
    State.ResumeTiming();
  }
}
BENCHMARK(BM_FMSAMergePair)->Range(64, 512)->Iterations(20);

/// Two merged functions, each of two drifted clones of one generated
/// function: re-merging them is the repair-phi-heavy attempt.
struct RemergeFixture {
  Context Ctx;
  std::unique_ptr<Module> M;
  Function *M1 = nullptr;
  Function *M2 = nullptr;

  explicit RemergeFixture(unsigned Size) {
    M = std::make_unique<Module>("remerge", Ctx);
    RNG Rng(Size * 104729 + 7);
    WorkloadEnvironment Env(*M, Rng);
    RandomFunctionOptions FO;
    FO.TargetSize = Size;
    RNG G = Rng.fork(1);
    Function *Base = generateRandomFunction(Env, G, "base", FO);
    DriftOptions DO;
    DO.MutatePercent = 8;
    Function *Clones[4];
    for (unsigned K = 0; K < 4; ++K) {
      RNG D = Rng.fork(2 + K);
      Clones[K] = cloneWithDrift(Base, "c" + std::to_string(K), Env, D, DO);
    }
    M1 = mergeOf(Clones[0], Clones[1]);
    M2 = mergeOf(Clones[2], Clones[3]);
  }

  static Function *mergeOf(Function *A, Function *B) {
    MergeAttempt At = attemptMerge(
        *A, *B, MergeCodeGenOptions::forTechnique(MergeTechnique::SalSSA),
        TargetArch::X86Like, 0, 0);
    return At.Gen.Merged;
  }
};

void BM_SalSSARemergePair(benchmark::State &State) {
  GeneratedMerge Last;
  for (auto _ : State) {
    State.PauseTiming();
    RemergeFixture Fix(static_cast<unsigned>(State.range(0)));
    State.ResumeTiming();
    MergeAttempt A = attemptMerge(
        *Fix.M1, *Fix.M2,
        MergeCodeGenOptions::forTechnique(MergeTechnique::SalSSA),
        TargetArch::X86Like, 0, 0);
    benchmark::DoNotOptimize(A.Stats.SizeMerged);
    State.PauseTiming();
    Last = A.Gen;
    discardMerge(A);
    State.ResumeTiming();
  }
  // Per attempt; identical in every iteration (same seeded fixture).
  State.counters["phis_created"] = Last.PhisCreated;
  State.counters["simplify_runs_skipped"] = Last.Cleanup.SubPassRunsSkipped;
  State.counters["phis_hashed"] = Last.Cleanup.PhisHashed;
  State.counters["phis_swept"] = Last.Cleanup.PhisSwept;
}
BENCHMARK(BM_SalSSARemergePair)->Arg(128)->Arg(512)->Iterations(10);

} // namespace

BENCHMARK_MAIN();
