//===- perfbench/src/Oracle.h - Interpreter differential oracle -----------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's correctness oracle, built apart from the merger: every
/// definition of a never-merged reference copy is interpreted next to its
/// same-named counterpart in the merged copy (a thunk into a merged body,
/// or the untouched original) and the two runs must agree on status,
/// return bits, external-call trace and final global memory.
///
/// Argument vectors follow tests/fuzz_equivalence_test.cpp, under
/// 150k-step fuel with 10% of invoked externals throwing. Each function
/// gets three: the all-zero vector, one draw below 2^16 seeded by
/// (OracleBaseSeed, function name) — the same on every run, so a
/// miscompile it exposes fails every run — and one draw seeded by
/// (run seed, function name), which probes new inputs on every seed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include "ir/Module.h"
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One function whose merged behaviour differs from its reference.
struct Divergence {
  size_t Module = 0; ///< index into the checked group
  std::string Function;
  unsigned Vector = 0;
  std::vector<uint64_t> Args;
  /// The first difference, e.g. "external call #3 lib0_x: arg0
  /// 0x0 -> 0xdeaddeaddeaddead" or "status ok -> exception".
  std::string Detail;

  std::string str() const;
};

struct OracleReport {
  uint64_t Functions = 0;   ///< reference definitions checked
  uint64_t Runs = 0;        ///< (function, vector) pairs interpreted
  uint64_t MergedSteps = 0; ///< dynamic instructions of the merged side
  /// Size of the merged and reference programs under the benchmark's
  /// size model; a merged program larger than its input fails.
  uint64_t SizeMerged = 0;
  uint64_t SizeReference = 0;
  struct VerifierError {
    size_t Module;
    std::string Text;
  };
  std::vector<VerifierError> VerifierErrors;
  std::vector<Divergence> Divergences;

  bool ok() const {
    return Divergences.empty() && VerifierErrors.empty() &&
           SizeMerged <= SizeReference;
  }
  /// One line per problem, or "" when ok().
  std::string summary(const std::string &Program) const;
};

/// Worker threads of one differentialCheck (the check is not timed).
inline constexpr unsigned OracleThreads = 4;

/// Seed of the fixed argument vector (vector 1) of every function.
inline constexpr uint64_t OracleBaseSeed = 0;

/// Checks \p Merged against \p Reference, module by module (the two
/// groups must be name-identical copies of one input, in the same
/// order). Group modules are interpreted as one linked program, so
/// merged bodies that reference several modules' globals execute as
/// they would after linking.
OracleReport differentialCheck(const std::vector<salssa::Module *> &Reference,
                               const std::vector<salssa::Module *> &Merged,
                               uint64_t Seed);

/// fnv1a64 over the printed modules, in order: the digest the daemon
/// reports for its session, comparable across processes.
uint64_t moduleDigest(const std::vector<salssa::Module *> &Mods);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
