//===- perfbench/src/Replay.h - Per-stage split of merge time -------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's stage split. The merger reports alignment and
/// codegen seconds only in aggregate, so the benchmark replays the
/// recorded first-generation attempts (both inputs are original
/// definitions) on a never-merged scratch copy through the stage
/// functions the merger itself calls — linearizeFunction,
/// alignSequences, generateMergedFunction, estimateFunctionSize,
/// verifyFunction — timing each under a span. Later-generation attempts
/// involve merged bodies that exist only inside the session, so the
/// replay reports the share of attempts it covers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "Trace.h"
#include "merge/MergeDriver.h"
#include <vector>

namespace perfbench {

struct StageSplit {
  uint64_t Replayed = 0; ///< attempts replayed
  double LinearizeS = 0;
  double AlignS = 0;
  double SizeModelS = 0;
  double VerifyS = 0;
};

/// Replays \p Records' first-generation attempts on \p Scratch (read
/// only; merged bodies are built in a staging module and erased).
StageSplit replayFirstGeneration(const std::vector<salssa::Module *> &Scratch,
                                 const std::vector<salssa::MergeRecord> &Records,
                                 Tracer &T);

struct DiscoverySplit {
  double FingerprintS = 0;
  double CanonicalizeS = 0; ///< 0 unless \p Canonical
  double StructuralHashS = 0;
};

/// Times candidate discovery over every definition of \p Scratch: raw
/// fingerprints, structural hashes and — when \p Canonical — the
/// canonical shadow-view fingerprints.
DiscoverySplit timeDiscovery(const std::vector<salssa::Module *> &Scratch,
                             bool Canonical, Tracer &T);

struct RunResult;

/// Records the stage-split per-layer metrics; \p Attempts is the
/// session's attempt count the replay coverage is relative to.
void setStageLayers(RunResult &R, const StageSplit &Stages,
                    const DiscoverySplit &Discovery, double Attempts);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
