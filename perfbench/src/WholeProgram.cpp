//===- perfbench/src/WholeProgram.cpp - whole-program-4t workload ---------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// One CrossModuleMerger session over the 16 SPEC CPU2017-like programs,
// each split into two translation units with two return types per
// program (32 modules, ~1970 functions): NumThreads=4, ShardCount=0
// (auto), profit selection, canonical discovery and hash clustering on.
// One operation per program. The only workload that runs symbol
// resolution, canonical and structural hashing, a ~2000-entry
// CandidateIndex, and sharding with intra-shard speculation and the
// splice together. As in spec06-serial, the modules come from the
// suite's own seeds; the run seed picks the oracle's per-run vector.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Oracle.h"
#include "Replay.h"
#include "ir/SymbolResolution.h"
#include "merge/CrossModuleMerger.h"
#include "workloads/Suites.h"
#include <cstdio>
#include <memory>

using namespace salssa;

namespace perfbench {

namespace {

constexpr unsigned ModulesPerProgram = 2;

struct Suite {
  std::unique_ptr<Context> Ctx;
  ModuleGroup Group; ///< declared after Ctx: destroyed first

  Suite() = default;
  Suite(Suite &&) = default;
  /// Tears the old modules down while their context still exists (a
  /// defaulted move-assign would replace the context first).
  Suite &operator=(Suite &&Other) {
    Group = ModuleGroup();
    Ctx = std::move(Other.Ctx);
    Group = std::move(Other.Group);
    return *this;
  }

  std::vector<Module *> mods() const {
    std::vector<Module *> Mods;
    for (size_t I = 0; I < Group.size(); ++I)
      Mods.push_back(&Group[I]);
    return Mods;
  }
};

Suite generate(const std::vector<BenchmarkProfile> &Profiles) {
  Suite S;
  S.Ctx = std::make_unique<Context>();
  S.Group = buildSuiteModuleGroup(Profiles, *S.Ctx, ModulesPerProgram);
  return S;
}

MergeDriverOptions sessionOptions() {
  MergeDriverOptions O;
  O.NumThreads = 4;
  O.ShardCount = 0;
  O.Selection = SelectionStrategy::Profit;
  O.Canonicalize = true;
  O.HashClustering = true;
  return O;
}

} // namespace

int runWholeProgram(const RunConfig &Cfg, Tracer &T, RunResult &R) {
  std::vector<BenchmarkProfile> Profiles;
  for (BenchmarkProfile P : spec2017Profiles()) {
    P.RetTypeVariety = 2;
    if (Cfg.Program.empty() || P.Name == Cfg.Program)
      Profiles.push_back(P);
  }
  if (Profiles.empty()) {
    std::fprintf(stderr, "perfbench: no spec17 program named %s\n",
                 Cfg.Program.c_str());
    return 2;
  }

  std::vector<double> SetupS;
  Suite Input;
  for (unsigned I = 0; I < SetupRuns; ++I) {
    Input = Suite(); // one copy of the input alive at a time
    Clock::time_point T0 = Clock::now();
    Input = generate(Profiles);
    SetupS.push_back(secondsSince(T0));
  }

  // Timed rounds, as in spec06-serial: one session per round over a
  // fresh copy, later rounds must reproduce the first round's bytes.
  // Peak RSS is read after round 0, as in spec06-serial.
  Tracer Off(false);
  std::vector<double> RoundS;
  Suite Merged;
  CrossModuleStats First;
  uint64_t FirstDigest = 0;
  double PeakRss = 0;
  Clock::time_point Start = Clock::now();
  for (unsigned N = 0;; ++N) {
    if (N > 0) {
      Input = Suite();
      Clock::time_point T0 = Clock::now();
      Input = generate(Profiles);
      SetupS.push_back(secondsSince(T0));
    }
    bool Traced = Cfg.Trace && N == 1;
    Tracer &RoundT = Traced ? T : Off;
    CrossModuleStats Stats;
    Clock::time_point T0 = Clock::now();
    {
      Tracer::Span S = RoundT.span("merge", "CrossModuleMerger::run");
      CrossModuleMerger Session(sessionOptions());
      for (Module *M : Input.mods())
        Session.addModule(*M);
      Stats = Session.run();
    }
    RoundS.push_back(secondsSince(T0));
    R.Attempted += Profiles.size();
    uint64_t Digest = moduleDigest(Input.mods());
    if (N == 0) {
      First = std::move(Stats);
      FirstDigest = Digest;
      Merged = std::move(Input);
      PeakRss = peakRssMb();
    } else {
      if (Digest != FirstDigest)
        for (const BenchmarkProfile &P : Profiles)
          R.fail(P.Name + " [new]: round " + std::to_string(N) +
                 " merged to different bytes than round 0");
      if (Traced) {
        R.invariant(Digest == FirstDigest,
                    "the traced round merged to other bytes than the "
                    "untraced one");
        setDriverLayers(R, {&Stats.Driver});
        R.PerLayer["trace.overhead_s"] = RoundS[1] - RoundS[0];
      }
    }
    if (Cfg.Trace ? N == 1 : secondsSince(Start) >= Cfg.Seconds)
      break;
  }
  Input = Suite();

  if (Cfg.Trace) {
    Suite Scratch = generate(Profiles);
    Clock::time_point T0 = Clock::now();
    {
      Tracer::Span S = T.span("ir.symres", "resolveCalleesAcrossModules");
      resolveCalleesAcrossModules(Scratch.mods());
    }
    R.PerLayer["symres.s"] = secondsSince(T0);
    StageSplit Stages =
        replayFirstGeneration(Scratch.mods(), First.Driver.Records, T);
    DiscoverySplit Discovery = timeDiscovery(Scratch.mods(), true, T);
    setStageLayers(R, Stages, Discovery, First.Driver.Attempts);
  }

  // The oracle over the linked group; each divergence is charged to the
  // program whose module holds the diverging function.
  Suite Ref = generate(Profiles);
  OracleReport Rep;
  {
    Tracer::Span S = T.span("oracle", "differentialCheck");
    Rep = differentialCheck(Ref.mods(), Merged.mods(), Cfg.Seed);
  }
  unsigned FailedPrograms = 0;
  for (size_t P = 0; P < Profiles.size(); ++P) {
    std::string Lines;
    size_t Diverged = 0;
    std::string Id = "new";
    for (const Divergence &D : Rep.Divergences)
      if (D.Module / ModulesPerProgram == P) {
        if (Diverged++ == 0)
          Id = faultId(Profiles[P].Name, D.Function);
        Lines += Profiles[P].Name + ": behaviour changed: " + D.str() + "\n";
      }
    for (const OracleReport::VerifierError &E : Rep.VerifierErrors)
      if (E.Module / ModulesPerProgram == P)
        Lines += Profiles[P].Name + ": verifier: " + E.Text + "\n";
    if (!Lines.empty()) {
      ++FailedPrograms;
      R.Problems.push_back(Profiles[P].Name + " [" + Id + "]: " +
                           std::to_string(Diverged) +
                           " function(s) changed behaviour\n" + Lines);
    }
  }
  R.Failed += uint64_t(FailedPrograms) * RoundS.size();
  R.invariant(Rep.SizeMerged <= Rep.SizeReference,
              "merged suite (" + std::to_string(Rep.SizeMerged) +
                  ") is larger than its input (" +
                  std::to_string(Rep.SizeReference) + ")");

  R.EndToEnd["setup_s"] = median(SetupS);
  R.EndToEnd["merge_s"] = median(RoundS);
  R.EndToEnd["code_size_bytes"] = double(Rep.SizeMerged);
  R.EndToEnd["exec_steps"] = double(Rep.MergedSteps);
  R.EndToEnd["peak_rss_mb"] = PeakRss;
  return 0;
}

} // namespace perfbench
