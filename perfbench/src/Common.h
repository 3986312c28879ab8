//===- perfbench/src/Common.h - Shared benchmark plumbing -----------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Run configuration, the per-run result every workload fills in, and
/// small measurement helpers (wall clock, medians, peak RSS).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "Trace.h"
#include "merge/MergeDriver.h"
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  /// Rounds repeat until this much wall time has been spent on them
  /// (at least one round runs).
  double Seconds = 10;
  bool Trace = false;
  /// Directory holding the salssad binary.
  std::string BinDir;
  /// Directory for this run's temporary files (socket, cache, trace).
  std::string WorkDir;
  /// When non-empty, only this program of the workload runs (the
  /// one-program repro mode of the known-fault ledger).
  std::string Program;
};

struct RunResult {
  /// False when a whole-run invariant broke (a crashed daemon, traced
  /// and untraced modules that differ, a warm cache on a cold start);
  /// operations whose output check fails are counted in Failed instead.
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// One line per failed operation or broken invariant.
  std::vector<std::string> Problems;
  /// Metric values by name. The names and units are declared once, in
  /// BENCHMARK.json; run.py attaches the units and rejects a name it
  /// does not declare.
  std::map<std::string, double> EndToEnd;
  std::map<std::string, double> PerLayer;

  void fail(const std::string &Problem) {
    ++Failed;
    Problems.push_back(Problem);
  }
  void invariant(bool Holds, const std::string &Problem) {
    if (!Holds) {
      Correct = false;
      Problems.push_back("invariant: " + Problem);
    }
  }
};

using Clock = std::chrono::steady_clock;

/// Set-ups per run; setup_s is their median.
inline constexpr unsigned SetupRuns = 3;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// The q-quantile (0..1) of \p Values by linear interpolation; 0 when
/// empty.
double quantile(std::vector<double> Values, double Q);
inline double median(const std::vector<double> &Values) {
  return quantile(Values, 0.5);
}

/// Peak resident set of this process so far, in MiB.
double peakRssMb();
/// Peak resident set of process \p Pid (VmHWM), in MiB; 0 if unknown.
double peakRssMbOf(int Pid);

/// Known faults that show on every run of a workload: the failure line
/// of an operation names the fault when its program and function match
/// an entry. An entry with an empty Function is a fault of a whole
/// session rather than of one function's merge.
struct KnownFault {
  const char *Id;
  const char *Program;
  const char *Function;
};
const std::vector<KnownFault> &knownFaults();
/// "F1"-style id of the known fault matching (Program, Function), or
/// "new".
std::string faultId(const std::string &Program, const std::string &Function);


/// Records the merge, align, rank, pipeline and shard per-layer
/// metrics summed over \p Runs (one MergeDriverStats per merged input).
void setDriverLayers(RunResult &R,
                     const std::vector<const salssa::MergeDriverStats *> &Runs);

int runSpec06Serial(const RunConfig &Cfg, Tracer &T, RunResult &R);
int runWholeProgram(const RunConfig &Cfg, Tracer &T, RunResult &R);
int runDaemonEdits(const RunConfig &Cfg, Tracer &T, RunResult &R);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
