//===- transforms/Simplify.h - Cleanup passes ---------------------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The clean-up stage of the merging pipeline (Fig 1 of the paper):
/// constant folding, algebraic simplification, select/phi folding (the
/// "existing optimizations from LLVM" that merge identical phi-nodes and
/// dissolve redundant selects), CFG simplification (unreachable block
/// removal, branch folding, block merging/threading) and dead code
/// elimination. Both FMSA and SalSSA run this after code generation; the
/// quality of merged code is measured after clean-up, as in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_TRANSFORMS_SIMPLIFY_H
#define SALSSA_TRANSFORMS_SIMPLIFY_H

namespace salssa {

class Context;
class Function;
class Instruction;
class Module;
class Value;

/// Statistics from a simplification run.
struct SimplifyStats {
  unsigned InstructionsRemoved = 0;
  unsigned BlocksRemoved = 0;
  unsigned BranchesFolded = 0;
  unsigned PhisMerged = 0;
  unsigned Iterations = 0;
  // Deterministic work counters (see the skip rules on simplifyFunction).
  /// Sub-pass runs that visited nothing.
  unsigned SubPassRunsSkipped = 0;
  /// Phis of the blocks identical-phi merging examined.
  unsigned PhisHashed = 0;
  /// Phis the dead-phi-web sweep visited.
  unsigned PhisSwept = 0;
};

/// Returns a simpler value equivalent to \p I (constant folding and
/// algebraic identities), or null when no simplification applies. Does not
/// mutate the IR.
Value *simplifyInstructionValue(Instruction *I, Context &Ctx);

/// Removes blocks unreachable from the entry (fixing phis on the way).
unsigned removeUnreachableBlocks(Function &F);

/// Runs the full clean-up pipeline to a fixpoint (bounded).
///
/// Every round runs the sub-passes in one fixed order (instruction
/// folding, identical-phi merging, branch folding, unreachable-block
/// removal, block threading and merging, dead code elimination), at most
/// 16 rounds, until a round changes nothing. The order and the cap are
/// part of the output. Within a call, a sub-pass skips work that provably
/// cannot change the IR, judged by the edit stamps the IR mutators bump
/// (BasicBlock::getInstStamp/getPhiStamp, Function::getCFGStamp/
/// getPhiUseDropStamp), never by flags at call sites. A skipped visit is
/// one the full pass would have made without effect, so the output is
/// byte-identical. Which mutation dirties which sub-pass:
///
/// - Instruction folding rescans a block when its instruction stamp
///   moved (an operand or phi incoming entry changed, an instruction was
///   inserted, or one of its instructions lost a use). A fold depends
///   only on the instruction's operands, except the dominance-guarded
///   phi fold, which also depends on the phi's users and on dominance: a
///   lost user moves the phi's block stamp, a new user can only keep it
///   blocked, and dominance can only change with the CFG stamp. So a
///   block whose last scan met a phi the guard kept from folding is also
///   rescanned when the CFG stamp moved since the last run.
/// - Identical-phi merging rehashes a block, in block order, when its phi
///   stamp moved (a phi gained, lost or changed an incoming value or
///   block, or a phi was inserted). The result depends only on the
///   block's phi incoming lists, and a visit that does not itself edit
///   them leaves no identical pair behind.
/// - Unreachable-block removal runs when the CFG stamp moved (a block or
///   edge was added, removed or redirected). After a run every block is
///   reachable, and only such an edit can strand one.
/// - Dead code elimination scans a block for dead instructions when its
///   instruction stamp moved: an instruction dies only by losing its last
///   use, or arrives dead by insertion. Its dead-phi-web sweep runs when
///   a phi lost a use since the last sweep: after a sweep every phi is
///   live (reaches a non-phi user), a live phi dies only by losing a use,
///   and the sweep's own erasures drop uses of live phis only. The sweep
///   marks live phis on the phis themselves (PhiInst::setMarked) instead
///   of a hash set.
///
/// Branch folding and block threading/merging are linear scans and always
/// run. The skip state lives in the call: merge attempts simplify
/// different functions on different threads.
///
/// \p PreserveTraps keeps dead instructions whose execution is an
/// observable trap in the reference interpreter (loads, integer
/// division — see Instruction::mayTrap). Required when simplifying
/// behaviour-pinned code: the merged-body cleanup runs under the
/// differential harness's "same trap status" bar, where erasing a dead
/// out-of-bounds load would delete the trap the original still hits.
/// Code whose behaviour is *defined* by the simplification (workload
/// builders shaping a population) uses the default aggressive mode.
SimplifyStats simplifyFunction(Function &F, Context &Ctx,
                               bool PreserveTraps = false);

/// Dead code elimination only: erases unused side-effect-free
/// instructions. Returns the number erased. \p PreserveTraps as in
/// simplifyFunction.
unsigned eliminateDeadCode(Function &F, bool PreserveTraps = false);

} // namespace salssa

#endif // SALSSA_TRANSFORMS_SIMPLIFY_H
