//===- perfbench/src/Replay.cpp - Per-stage split of merge time -----------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "Common.h"
#include "align/Linearize.h"
#include "align/Matcher.h"
#include "codesize/SizeModel.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "merge/Fingerprint.h"
#include "merge/MergedFunctionGenerator.h"
#include "merge/StructuralHash.h"
#include "transforms/Canonicalize.h"

using namespace salssa;

namespace perfbench {

namespace {

Function *findDefinition(const std::vector<Module *> &Mods,
                         const std::string &Name) {
  for (Module *M : Mods)
    if (Function *F = M->getFunction(Name))
      if (!F->isDeclaration())
        return F;
  return nullptr;
}

} // namespace

StageSplit replayFirstGeneration(const std::vector<Module *> &Scratch,
                                 const std::vector<MergeRecord> &Records,
                                 Tracer &T) {
  StageSplit Split;
  if (Scratch.empty())
    return Split;
  Module Staging("replay.staging", Scratch.front()->getContext());
  Staging.setStaging(true);
  const MergeCodeGenOptions CG =
      MergeCodeGenOptions::forTechnique(MergeTechnique::SalSSA);
  for (size_t I = 0; I < Records.size(); ++I) {
    const MergeRecord &Rec = Records[I];
    Function *F1 = findDefinition(Scratch, Rec.Name1);
    Function *F2 = findDefinition(Scratch, Rec.Name2);
    if (!F1 || !F2 || F1->getReturnType() != F2->getReturnType())
      continue;
    ++Split.Replayed;
    std::vector<SeqItem> Seq1, Seq2;
    Clock::time_point T0 = Clock::now();
    {
      Tracer::Span S = T.span("align", "linearizeFunction", I);
      Seq1 = linearizeFunction(*F1);
      Seq2 = linearizeFunction(*F2);
    }
    Split.LinearizeS += secondsSince(T0);
    T0 = Clock::now();
    AlignmentResult Alignment;
    {
      Tracer::Span S = T.span("align", "alignSequences", I);
      Alignment = alignSequences(Seq1, Seq2, itemsMatch, CG.Alignment);
    }
    Split.AlignS += secondsSince(T0);
    // Codegen seconds come from MergeDriverStats; the span only places
    // the call in the trace.
    GeneratedMerge Gen;
    {
      Tracer::Span S = T.span("merge.codegen", "generateMergedFunction", I);
      Gen = generateMergedFunction(*F1, *F2, Seq1, Seq2, Alignment, CG,
                                   F1->getName() + ".replay", &Staging);
    }
    T0 = Clock::now();
    {
      Tracer::Span S = T.span("codesize", "estimateFunctionSize", I);
      (void)estimateFunctionSize(*Gen.Merged, TargetArch::X86Like);
    }
    Split.SizeModelS += secondsSince(T0);
    T0 = Clock::now();
    {
      Tracer::Span S = T.span("ir.verify", "verifyFunction", I);
      (void)verifyFunction(*Gen.Merged);
    }
    Split.VerifyS += secondsSince(T0);
    Staging.eraseFunction(Gen.Merged);
  }
  return Split;
}

DiscoverySplit timeDiscovery(const std::vector<Module *> &Scratch,
                             bool Canonical, Tracer &T) {
  DiscoverySplit Split;
  std::vector<const Function *> Defs;
  for (Module *M : Scratch)
    for (Function *F : M->functions())
      if (!F->isDeclaration())
        Defs.push_back(F);
  uint64_t Sink = 0; // keeps the results observable
  Clock::time_point T0 = Clock::now();
  {
    Tracer::Span S = T.span("merge.fingerprint", "Fingerprint::compute");
    for (const Function *F : Defs)
      Sink += Fingerprint::compute(*F).Size;
  }
  Split.FingerprintS = secondsSince(T0);
  T0 = Clock::now();
  {
    Tracer::Span S = T.span("merge.structural_hash", "computeStructuralHash");
    for (const Function *F : Defs)
      Sink ^= computeStructuralHash(*F).Hi;
  }
  Split.StructuralHashS = secondsSince(T0);
  if (Canonical) {
    T0 = Clock::now();
    Tracer::Span S = T.span("transforms.canonicalize", "canonicalFingerprint");
    for (const Function *F : Defs)
      Sink += canonicalFingerprint(*F).Size;
    Split.CanonicalizeS = secondsSince(T0);
  }
  volatile uint64_t Keep = Sink;
  (void)Keep;
  return Split;
}

void setStageLayers(RunResult &R, const StageSplit &Stages,
                    const DiscoverySplit &Discovery, double Attempts) {
  R.PerLayer["linearize.s"] = Stages.LinearizeS;
  R.PerLayer["align.s"] = Stages.AlignS;
  R.PerLayer["size_model.s"] = Stages.SizeModelS;
  R.PerLayer["verify.s"] = Stages.VerifyS;
  R.PerLayer["fingerprint.s"] = Discovery.FingerprintS;
  R.PerLayer["canonicalize.s"] = Discovery.CanonicalizeS;
  R.PerLayer["structural_hash.s"] = Discovery.StructuralHashS;
  R.PerLayer["replay.coverage"] =
      Attempts > 0 ? double(Stages.Replayed) / Attempts : 0;
}

} // namespace perfbench
