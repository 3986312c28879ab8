//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/resource.h>

namespace perfbench {

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * double(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Pos - double(Lo));
}

double peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

double peakRssMbOf(int Pid) {
  std::string Path = "/proc/" + std::to_string(Pid) + "/status";
  std::FILE *F = std::fopen(Path.c_str(), "r");
  if (!F)
    return 0;
  char Line[256];
  double Mb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      Mb = std::strtod(Line + 6, nullptr) / 1024.0;
  std::fclose(F);
  return Mb;
}

const std::vector<KnownFault> &knownFaults() {
  static const std::vector<KnownFault> Faults = {
      {"F1", "447.dealII", "447.dealII_fam19_v6"},
      {"F1", "447.dealII", "447.dealII_fam19_v7"},
      {"F2", "483.xalancbmk", "483.xalancbmk_fn112"},
      // The MergeService session drifts from a from-scratch session over
      // the same edited pool.
      {"F3", "daemon-edits", ""},
  };
  return Faults;
}

std::string faultId(const std::string &Program, const std::string &Function) {
  for (const KnownFault &K : knownFaults())
    if (Program == K.Program && Function == K.Function)
      return K.Id;
  return "new";
}

void setDriverLayers(RunResult &R,
                     const std::vector<const salssa::MergeDriverStats *> &Runs) {
  using salssa::AttemptOutcome;
  double Attempts = 0, Profitable = 0, CodegenCalls = 0, CodegenS = 0,
         CommittedCodegenS = 0, AlignCells = 0, PeakBytes = 0, RankS = 0,
         DistanceCalls = 0, Probes = 0, SpecAttempts = 0, SpecDiscarded = 0,
         Reattempts = 0, Conflicts = 0, Clusters = 0, Shards = 0,
         Imbalance = 0;
  for (const salssa::MergeDriverStats *S : Runs) {
    Attempts += S->Attempts;
    Profitable += S->ProfitableMerges;
    CodegenS += S->CodeGenSeconds;
    for (const salssa::MergeRecord &Rec : S->Records) {
      if (Rec.Stats.Outcome == AttemptOutcome::Completed ||
          Rec.Stats.Outcome == AttemptOutcome::BudgetBody)
        ++CodegenCalls;
      if (Rec.Committed)
        CommittedCodegenS += Rec.Stats.CodeGenSeconds;
      AlignCells += double(Rec.Stats.SeqLen1) * double(Rec.Stats.SeqLen2);
    }
    PeakBytes = std::max(PeakBytes, double(S->PeakAlignmentBytes));
    RankS += S->RankingSeconds;
    DistanceCalls += double(S->PairingDistanceCalls);
    Probes += double(S->PairingProbes);
    SpecAttempts += S->SpeculativeAttempts;
    SpecDiscarded += S->SpeculativeDiscarded;
    Reattempts += S->InlineReattempts;
    Conflicts += S->CommitConflicts;
    Clusters += double(S->HashClusterCommits);
    Shards = std::max(Shards, double(S->ShardCount));
    Imbalance = std::max(Imbalance, S->ShardImbalance);
  }
  R.PerLayer["merge.attempts"] = Attempts;
  R.PerLayer["merge.profitable"] = Profitable;
  R.PerLayer["merge.attempt_yield"] =
      Attempts > 0 ? Profitable / Attempts : 0;
  R.PerLayer["codegen.calls"] = CodegenCalls;
  R.PerLayer["codegen.s"] = CodegenS;
  // Codegen CPU spent on bodies that never committed: losing and
  // unprofitable attempts plus discarded speculation.
  R.PerLayer["codegen.wasted_cpu_s"] = CodegenS - CommittedCodegenS;
  R.PerLayer["align.cells"] = AlignCells;
  R.PerLayer["align.peak_bytes"] = PeakBytes;
  R.PerLayer["rank.s"] = RankS;
  R.PerLayer["rank.distance_calls"] = DistanceCalls;
  R.PerLayer["rank.probes"] = Probes;
  R.PerLayer["pipeline.spec_attempts"] = SpecAttempts;
  R.PerLayer["pipeline.spec_discarded"] = SpecDiscarded;
  R.PerLayer["pipeline.inline_reattempts"] = Reattempts;
  R.PerLayer["pipeline.commit_conflicts"] = Conflicts;
  R.PerLayer["cluster.commits"] = Clusters;
  R.PerLayer["shard.count"] = Shards;
  R.PerLayer["shard.imbalance"] = Imbalance;
}

} // namespace perfbench
