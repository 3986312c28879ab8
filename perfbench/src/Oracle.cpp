//===- perfbench/src/Oracle.cpp - Interpreter differential oracle ---------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"
#include "codesize/SizeModel.h"
#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "support/RNG.h"
#include "support/Serialization.h"
#include <atomic>
#include <cstdio>
#include <thread>

using namespace salssa;

namespace perfbench {

namespace {

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%llx", static_cast<unsigned long long>(V));
  return Buf;
}

const char *statusName(ExecResult::Status S) {
  switch (S) {
  case ExecResult::Status::Ok:
    return "ok";
  case ExecResult::Status::Trap:
    return "trap";
  case ExecResult::Status::OutOfFuel:
    return "out-of-fuel";
  case ExecResult::Status::UnhandledException:
    return "exception";
  }
  return "?";
}

uint64_t nameHash(const std::string &Name) {
  return fnv1a64(reinterpret_cast<const uint8_t *>(Name.data()), Name.size());
}

std::string describeCall(size_t Index, const CallTraceEntry &E) {
  return "external call #" + std::to_string(Index + 1) + " " + E.Callee;
}

/// The first observable difference between a reference run \p R and a
/// merged run \p M that behaviourallyEqual rejected.
std::string firstDifference(const ExecResult &R, const ExecResult &M) {
  size_t N = std::min(R.Trace.size(), M.Trace.size());
  for (size_t I = 0; I < N; ++I) {
    const CallTraceEntry &A = R.Trace[I], &B = M.Trace[I];
    if (A == B)
      continue;
    if (A.Callee != B.Callee)
      return describeCall(I, A) + ": callee -> " + B.Callee;
    for (size_t J = 0; J < std::min(A.Args.size(), B.Args.size()); ++J)
      if (A.Args[J] != B.Args[J])
        return describeCall(I, A) + ": arg" + std::to_string(J) + " " +
               hex(A.Args[J]) + " -> " + hex(B.Args[J]);
    if (A.Threw != B.Threw)
      return describeCall(I, A) + ": threw " + std::to_string(A.Threw) +
             " -> " + std::to_string(B.Threw);
    return describeCall(I, A) + ": result " + hex(A.Result) + " -> " +
           hex(B.Result);
  }
  if (R.Trace.size() != M.Trace.size())
    return "external call count " + std::to_string(R.Trace.size()) + " -> " +
           std::to_string(M.Trace.size());
  if (R.St != M.St)
    return std::string("status ") + statusName(R.St) + " -> " +
           statusName(M.St);
  if (R.GlobalMemoryHash != M.GlobalMemoryHash)
    return "final global memory differs";
  return "return value " + hex(R.Return.Bits) + " -> " + hex(M.Return.Bits);
}

/// The argument vectors the oracle uses for \p F (see Oracle.h).
std::vector<std::vector<uint64_t>> oracleVectors(const Function &F,
                                                 uint64_t Seed) {
  const uint64_t H = nameHash(F.getName());
  RNG Fixed(mix64(OracleBaseSeed) ^ H);
  RNG Seeded(mix64(Seed) ^ H ^ 0x5eededULL);
  std::vector<std::vector<uint64_t>> Vectors(3);
  for (unsigned A = 0; A < F.getNumArgs(); ++A) {
    Vectors[0].push_back(0);
    Vectors[1].push_back(Fixed.nextBelow(1u << 16));
    Vectors[2].push_back(Seeded.nextBelow(1u << 16));
  }
  return Vectors;
}

} // namespace

std::string Divergence::str() const {
  std::string S = Function + " vector " + std::to_string(Vector) + " (";
  for (size_t I = 0; I < Args.size(); ++I)
    S += (I ? "," : "") + hex(Args[I]);
  return S + "): " + Detail;
}

std::string OracleReport::summary(const std::string &Program) const {
  std::string S;
  for (const Divergence &D : Divergences)
    S += Program + ": behaviour changed: " + D.str() + "\n";
  for (const VerifierError &E : VerifierErrors)
    S += Program + ": verifier: " + E.Text + "\n";
  if (SizeMerged > SizeReference)
    S += Program + ": merged size " + std::to_string(SizeMerged) +
         " > input size " + std::to_string(SizeReference) + "\n";
  return S;
}

OracleReport differentialCheck(const std::vector<Module *> &Reference,
                               const std::vector<Module *> &Merged,
                               uint64_t Seed) {
  OracleReport Report;
  if (Reference.size() != Merged.size()) {
    Report.VerifierErrors.push_back({0, "module count differs"});
    return Report;
  }
  for (size_t I = 0; I < Merged.size(); ++I) {
    Report.SizeMerged += estimateModuleSize(*Merged[I], TargetArch::X86Like);
    Report.SizeReference +=
        estimateModuleSize(*Reference[I], TargetArch::X86Like);
    VerifierReport VR = verifyModule(*Merged[I]);
    for (std::string &E : VR.Errors)
      Report.VerifierErrors.push_back({I, Merged[I]->getName() + ": " + E});
  }

  struct Item {
    size_t Module = 0;
    Function *Ref = nullptr;
    Function *Merged = nullptr; ///< null when merging lost the definition
    uint64_t Runs = 0, Steps = 0;
    bool Diverged = false;
    Divergence D;
  };
  std::vector<Item> Items;
  for (size_t I = 0; I < Reference.size(); ++I)
    for (Function *RefF : Reference[I]->functions())
      if (!RefF->isDeclaration()) {
        Function *NewF = Merged[I]->getFunction(RefF->getName());
        Item It;
        It.Module = I;
        It.Ref = RefF;
        if (NewF && !NewF->isDeclaration())
          It.Merged = NewF;
        Items.push_back(std::move(It));
      }

  // Workers share only the (read-only) modules; each interprets with its
  // own pair of interpreters and writes its own items, so the report does
  // not depend on scheduling.
  ExecOptions Opts;
  Opts.MaxSteps = 150000;
  Opts.ExternalThrowPercent = 10;
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    Interpreter RefInterp(Reference, Opts);
    Interpreter MergedInterp(Merged, Opts);
    for (size_t K; (K = Next++) < Items.size();) {
      Item &It = Items[K];
      if (!It.Merged) {
        It.Diverged = true;
        It.D = {It.Module, It.Ref->getName(), 0, {}, "definition lost by merging"};
        continue;
      }
      std::vector<std::vector<uint64_t>> Vectors = oracleVectors(*It.Ref, Seed);
      for (unsigned V = 0; V < Vectors.size(); ++V) {
        std::vector<RuntimeValue> Args;
        for (uint64_t A : Vectors[V])
          Args.push_back(RuntimeValue::makeInt(A));
        RefInterp.resetMemory();
        ExecResult R = RefInterp.run(It.Ref, Args);
        MergedInterp.resetMemory();
        ExecResult M = MergedInterp.run(It.Merged, Args);
        ++It.Runs;
        It.Steps += M.StepCount;
        if (!It.Diverged && !behaviourallyEqual(R, M)) {
          // One report per function: its first diverging vector.
          It.Diverged = true;
          It.D = {It.Module, It.Ref->getName(), V, Vectors[V],
                  firstDifference(R, M)};
        }
      }
    }
  };
  std::vector<std::thread> Workers;
  for (unsigned W = 1; W < OracleThreads; ++W)
    Workers.emplace_back(Work);
  Work();
  for (std::thread &W : Workers)
    W.join();

  for (Item &It : Items) {
    ++Report.Functions;
    Report.Runs += It.Runs;
    Report.MergedSteps += It.Steps;
    if (It.Diverged)
      Report.Divergences.push_back(std::move(It.D));
  }
  return Report;
}

uint64_t moduleDigest(const std::vector<Module *> &Mods) {
  std::string Prints;
  for (Module *M : Mods)
    Prints += printModule(*M);
  return fnv1a64(reinterpret_cast<const uint8_t *>(Prints.data()),
                 Prints.size());
}

} // namespace perfbench
