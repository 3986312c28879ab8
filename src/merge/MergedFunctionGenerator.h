//===- merge/MergedFunctionGenerator.h - SalSSA code generator ----------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-down, CFG-driven code generator at the core of SalSSA (§4 of
/// the paper). Given two input functions and a sequence alignment, it:
///
///  1. generates the merged control-flow graph, one basic block per
///     matched label/instruction pair plus one block per run of
///     non-matching code, chained with (possibly fid-conditional)
///     branches (§4.1);
///  2. copies phi-nodes attached to their labels (§4.1.1) and maintains
///     the value mapping and block mapping (§4.1.2);
///  3. assigns operands: label operands first (label selection §4.2.1,
///     with the xor optimization of Fig 11), landing blocks for invokes
///     (§4.2.2), then value operands with select-on-fid and commutative
///     reordering (Fig 8/9), and finally phi incoming values through the
///     block mapping (§4.2.3);
///  4. restores the SSA dominance property via the standard SSA
///     construction algorithm, optionally coalescing disjoint definitions
///     first (§4.3/§4.4 — implemented in SSARepair).
///
/// The same generator serves the FMSA baseline: fed with register-demoted
/// (phi-free) inputs and with coalescing/xor fusion disabled, it produces
/// the sequence-shaped merged code FMSA emits — including FMSA's defining
/// failure mode, stores/loads whose slot address is chosen by a select,
/// which block later register promotion.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_MERGE_MERGEDFUNCTIONGENERATOR_H
#define SALSSA_MERGE_MERGEDFUNCTIONGENERATOR_H

#include "align/NeedlemanWunsch.h"
#include "merge/MergeOptions.h"
#include "merge/ParameterMerge.h"
#include "transforms/Simplify.h"

namespace salssa {

/// Output of code generation (before profitability evaluation).
struct GeneratedMerge {
  Function *Merged = nullptr;
  MergedSignature Signature;
  unsigned SelectsInserted = 0;
  unsigned LabelSelectionBlocks = 0;
  unsigned XorFusions = 0;
  unsigned RepairSlots = 0;
  unsigned CoalescedPairs = 0;
  /// Deterministic work counters of the clean-up stack: phis placed by
  /// both register promotions (SSA repair and clean-up), and the
  /// simplification run's statistics.
  unsigned PhisCreated = 0;
  SimplifyStats Cleanup;
};

/// Generates the merged function for \p F1 and \p F2 under \p Alignment.
/// The inputs are not modified. The merged function is created in
/// \p TargetModule — or the module of F1 when null — with a unique name
/// derived from \p NameHint; it is fully simplified and verifier-clean on
/// return. Passing a worker-private staging module makes generation safe
/// to run concurrently with other attempts (the inputs' module is then
/// only read, never mutated); the pipeline later moves the winner with
/// Module::takeFunction/adoptFunction.
GeneratedMerge generateMergedFunction(Function &F1, Function &F2,
                                      const std::vector<SeqItem> &Seq1,
                                      const std::vector<SeqItem> &Seq2,
                                      const AlignmentResult &Alignment,
                                      const MergeCodeGenOptions &Options,
                                      const std::string &NameHint,
                                      Module *TargetModule = nullptr);

} // namespace salssa

#endif // SALSSA_MERGE_MERGEDFUNCTIONGENERATOR_H
