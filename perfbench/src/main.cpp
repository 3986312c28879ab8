//===- perfbench/src/main.cpp - Repository benchmark runner ---------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin-dir DIR --work-dir DIR [--program NAME]
//
// Runs one workload (spec06-serial, whole-program-4t, daemon-edits; see
// README.md), checks its outputs with the interpreter oracle, prints one
// line per failed operation, and ends standard output with one JSON
// object: {"correct", "attempted", "failed", "metrics"}, each metric a
// bare value (run.py adds the units). Untraced runs report the
// end-to-end metrics; traced runs report the per-layer metrics and
// write <work-dir>/<workload>.trace.json plus the per-layer span table
// <work-dir>/<workload>.layers.txt.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload spec06-serial|whole-program-4t|"
               "daemon-edits --seed N --seconds S --trace 0|1 --bin-dir DIR "
               "--work-dir DIR [--program NAME]\n");
  return 2;
}

/// The runner's result line. Metric values are bare numbers; run.py
/// attaches the units declared in BENCHMARK.json.
void printJson(const RunResult &R, bool Trace) {
  const std::map<std::string, double> &Metrics =
      Trace ? R.PerLayer : R.EndToEnd;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  bool First = true;
  for (const auto &[Name, Value] : Metrics) {
    std::printf("%s\"%s\": %.9g", First ? "" : ", ", Name.c_str(), Value);
    First = false;
  }
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  bool HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const char *Flag = Argv[I], *Value = Argv[I + 1];
    if (!std::strcmp(Flag, "--workload"))
      Cfg.Workload = Value;
    else if (!std::strcmp(Flag, "--seed"))
      Cfg.Seed = std::strtoull(Value, nullptr, 10), HaveSeed = true;
    else if (!std::strcmp(Flag, "--seconds"))
      Cfg.Seconds = std::strtod(Value, nullptr), HaveSeconds = true;
    else if (!std::strcmp(Flag, "--trace"))
      Cfg.Trace = std::strcmp(Value, "0") != 0;
    else if (!std::strcmp(Flag, "--bin-dir"))
      Cfg.BinDir = Value;
    else if (!std::strcmp(Flag, "--work-dir"))
      Cfg.WorkDir = Value;
    else if (!std::strcmp(Flag, "--program"))
      Cfg.Program = Value;
    else
      return usage();
  }
  if (Argc % 2 == 0 || !HaveSeed || !HaveSeconds || Cfg.BinDir.empty() ||
      Cfg.WorkDir.empty())
    return usage();

  Tracer T(Cfg.Trace);
  RunResult R;
  int Rc;
  if (Cfg.Workload == "spec06-serial")
    Rc = runSpec06Serial(Cfg, T, R);
  else if (Cfg.Workload == "whole-program-4t")
    Rc = runWholeProgram(Cfg, T, R);
  else if (Cfg.Workload == "daemon-edits")
    Rc = runDaemonEdits(Cfg, T, R);
  else
    return usage();
  if (Rc != 0)
    return Rc;

  for (const std::string &P : R.Problems)
    std::printf("FAILED %s\n", P.c_str());
  if (Cfg.Trace) {
    std::string Base = Cfg.WorkDir + "/" + Cfg.Workload;
    std::string Table = T.layerTableText();
    std::FILE *F = std::fopen((Base + ".layers.txt").c_str(), "w");
    bool Written = F && std::fputs(Table.c_str(), F) >= 0;
    if (F)
      Written = std::fclose(F) == 0 && Written;
    if (!Written || !T.writeTrace(Base + ".trace.json")) {
      std::fprintf(stderr, "perfbench: cannot write the trace under %s\n",
                   Cfg.WorkDir.c_str());
      return 1;
    }
    std::fprintf(stderr, "%s", Table.c_str());
  }
  std::fflush(stdout);
  printJson(R, Cfg.Trace);
  return 0;
}
