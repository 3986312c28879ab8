//===- perfbench/src/Spec06Serial.cpp - spec06-serial workload ------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// The paper's main configuration: each of the 19 SPEC CPU2006-like
// programs, full size, one module each, through runFunctionMerging with
// default options (SalSSA, t=1, one thread). One operation per program.
// Threads, sharding, hashing, caches and the daemon are all bypassed, so
// attempt cost (linearize, align, codegen, SSA repair, cleanup, pricing)
// is what this workload measures.
//
// The modules come from the suite's own per-program seeds, never from
// the run seed: the suite is the paper's input, and the two known
// miscompiles (F1, F2 in README.md) live in it. The run seed picks the
// oracle's per-run argument vector.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Oracle.h"
#include "Replay.h"
#include "workloads/Suites.h"
#include <cstdio>
#include <memory>

using namespace salssa;

namespace perfbench {

namespace {

struct Program {
  std::unique_ptr<Context> Ctx;
  std::unique_ptr<Module> M; ///< declared after Ctx: destroyed first
};

std::vector<Program> generate(const std::vector<BenchmarkProfile> &Profiles) {
  std::vector<Program> Out;
  for (const BenchmarkProfile &P : Profiles) {
    Program Prog;
    Prog.Ctx = std::make_unique<Context>();
    Prog.M = buildBenchmarkModule(P, *Prog.Ctx);
    Out.push_back(std::move(Prog));
  }
  return Out;
}

struct Round {
  double MergeS = 0;
  std::vector<MergeDriverStats> Stats;
  std::vector<uint64_t> Digests;
};

/// Merges every program once, timing only the runFunctionMerging calls.
Round mergeAll(std::vector<Program> &Programs, Tracer &T) {
  Round R;
  MergeDriverOptions Options; // SalSSA, t=1, one thread
  for (size_t I = 0; I < Programs.size(); ++I) {
    Clock::time_point T0 = Clock::now();
    {
      Tracer::Span S = T.span("merge", "runFunctionMerging", I);
      R.Stats.push_back(runFunctionMerging(*Programs[I].M, Options));
    }
    R.MergeS += secondsSince(T0);
  }
  for (Program &P : Programs)
    R.Digests.push_back(moduleDigest({P.M.get()}));
  return R;
}

} // namespace

int runSpec06Serial(const RunConfig &Cfg, Tracer &T, RunResult &R) {
  std::vector<BenchmarkProfile> Profiles;
  for (const BenchmarkProfile &P : spec2006Profiles())
    if (Cfg.Program.empty() || P.Name == Cfg.Program)
      Profiles.push_back(P);
  if (Profiles.empty()) {
    std::fprintf(stderr, "perfbench: no spec06 program named %s\n",
                 Cfg.Program.c_str());
    return 2;
  }

  std::vector<double> SetupS;
  std::vector<Program> Inputs;
  for (unsigned I = 0; I < SetupRuns; ++I) {
    Inputs.clear(); // one copy of the input alive at a time
    Clock::time_point T0 = Clock::now();
    Inputs = generate(Profiles);
    SetupS.push_back(secondsSince(T0));
  }

  // Timed rounds: whole passes over the suite until Cfg.Seconds have
  // elapsed. The first round's modules are kept for the oracle; later
  // rounds must reproduce their bytes. A traced run makes one untraced
  // and one traced round, and the difference is the tracing overhead.
  // Peak RSS is read after round 0, so it covers one input and the
  // merger's working set whatever the number of rounds.
  Tracer Off(false);
  std::vector<double> RoundS;
  std::vector<Program> Merged;
  Round First;
  double PeakRss = 0;
  Clock::time_point Start = Clock::now();
  for (unsigned N = 0;; ++N) {
    if (N > 0) {
      Inputs.clear();
      Clock::time_point T0 = Clock::now();
      Inputs = generate(Profiles);
      SetupS.push_back(secondsSince(T0));
    }
    bool Traced = Cfg.Trace && N == 1;
    Round Rd = mergeAll(Inputs, Traced ? T : Off);
    RoundS.push_back(Rd.MergeS);
    R.Attempted += Profiles.size();
    if (N == 0) {
      First = std::move(Rd);
      Merged = std::move(Inputs);
      PeakRss = peakRssMb();
    } else {
      for (size_t I = 0; I < Profiles.size(); ++I)
        if (Rd.Digests[I] != First.Digests[I])
          R.fail(Profiles[I].Name + " [new]: round " + std::to_string(N) +
                 " merged to different bytes than round 0");
      if (Traced) {
        R.invariant(Rd.Digests == First.Digests,
                    "the traced round merged to other bytes than the "
                    "untraced one");
        setDriverLayers(R, [&] {
          std::vector<const MergeDriverStats *> Runs;
          for (const MergeDriverStats &S : Rd.Stats)
            Runs.push_back(&S);
          return Runs;
        }());
        R.PerLayer["trace.overhead_s"] = Rd.MergeS - First.MergeS;
      }
    }
    if (Cfg.Trace ? N == 1 : secondsSince(Start) >= Cfg.Seconds)
      break;
  }
  Inputs.clear();

  // Stage split (traced runs only), on fresh never-merged copies.
  if (Cfg.Trace) {
    StageSplit Stages;
    DiscoverySplit Discovery;
    double Attempts = 0;
    for (size_t I = 0; I < Profiles.size(); ++I) {
      Context Ctx;
      std::unique_ptr<Module> Scratch = buildBenchmarkModule(Profiles[I], Ctx);
      StageSplit S = replayFirstGeneration({Scratch.get()},
                                           First.Stats[I].Records, T);
      DiscoverySplit D = timeDiscovery({Scratch.get()}, false, T);
      Stages.Replayed += S.Replayed;
      Stages.LinearizeS += S.LinearizeS;
      Stages.AlignS += S.AlignS;
      Stages.SizeModelS += S.SizeModelS;
      Stages.VerifyS += S.VerifyS;
      Discovery.FingerprintS += D.FingerprintS;
      Discovery.StructuralHashS += D.StructuralHashS;
      Attempts += First.Stats[I].Attempts;
    }
    setStageLayers(R, Stages, Discovery, Attempts);
  }

  // The oracle: every program of the first round against a never-merged
  // copy built from the same profile.
  uint64_t SizeAfter = 0, Steps = 0;
  unsigned FailedPrograms = 0;
  for (size_t I = 0; I < Profiles.size(); ++I) {
    Tracer::Span S = T.span("oracle", "differentialCheck", I);
    Context Ctx;
    std::unique_ptr<Module> Ref = buildBenchmarkModule(Profiles[I], Ctx);
    OracleReport Rep =
        differentialCheck({Ref.get()}, {Merged[I].M.get()}, Cfg.Seed);
    SizeAfter += Rep.SizeMerged;
    Steps += Rep.MergedSteps;
    if (!Rep.ok()) {
      ++FailedPrograms;
      std::string Id = Rep.Divergences.empty()
                           ? "new"
                           : faultId(Profiles[I].Name,
                                     Rep.Divergences.front().Function);
      std::string Line = Profiles[I].Name + " [" + Id + "]: ";
      std::string Detail = Rep.summary(Profiles[I].Name);
      R.Problems.push_back(Line + std::to_string(Rep.Divergences.size()) +
                           " function(s) changed behaviour\n" + Detail);
    }
  }
  // Every round merges to the first round's bytes, so a program that
  // fails the oracle fails in every round.
  R.Failed += uint64_t(FailedPrograms) * RoundS.size();

  R.EndToEnd["setup_s"] = median(SetupS);
  R.EndToEnd["merge_s"] = median(RoundS);
  R.EndToEnd["code_size_bytes"] = double(SizeAfter);
  R.EndToEnd["exec_steps"] = double(Steps);
  R.EndToEnd["peak_rss_mb"] = PeakRss;
  return 0;
}

} // namespace perfbench
