//===- perfbench/src/DaemonEdits.cpp - daemon-edits workload --------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
// salssad over a Unix socket with a fresh --decision-cache, serving a
// 2-TU pool with four return-type classes (the bench_merge_service
// shape). Per run:
//
//   1. seven cold legs, each a fresh daemon on a fresh temporary
//      directory (socket + cache) and one RegisterModules; each must
//      report 0 cache hits, so a stale cache can never make merge_s warm;
//   2. on the last cold daemon, EpochCount single-change EditScript
//      epochs (BeginDelta -> CheckoutForEdit -> ApplyDelta) in a closed
//      loop from one writer connection, while a second connection polls
//      QueryStats every StatsPollMillis;
//   3. a restart on the same cache file and a warm re-registration.
//
// Operations: every registration plus every epoch. Checks: each epoch's
// ModuleDigest equals an in-process MergeService mirror; every
// CheckpointEvery-th epoch the mirror equals a from-scratch
// CrossModuleMerger over the same edited pool, and every OracleEvery-th
// it passes the interpreter differential against a never-merged copy (a
// checkpoint that fails either fails its epoch); every cold digest
// equals the mirror's epoch 0 and the warm digest equals the cold one.
// The pool and the edit script are fixed (see ScriptSeed); the run seed
// picks the oracle's per-run vector and the apply tokens.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Oracle.h"
#include "merge/CrossModuleMerger.h"
#include "merge/DecisionCache.h"
#include "merge/MergeService.h"
#include "service/Client.h"
#include "support/RNG.h"
#include "workloads/EditScript.h"
#include "workloads/Suites.h"
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <functional>
#include <memory>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace salssa;

namespace perfbench {

namespace {

constexpr unsigned ColdLegs = 7;
constexpr unsigned EpochCount = 100;
constexpr unsigned StatsPollMillis = 20;
/// Every this many epochs (the last one included) the mirror is also
/// compared with a from-scratch session, and every OracleEvery epochs it
/// is checked by the interpreter oracle. The oracle costs half a second
/// a checkpoint and runs between timed epochs; checking every 10th epoch
/// keeps a run near a minute.
constexpr unsigned CheckpointEvery = 5;
constexpr unsigned OracleEvery = 10;
static_assert(EpochCount % OracleEvery == 0 &&
              OracleEvery % CheckpointEvery == 0);
/// Threads that run the checkpoints' from-scratch sessions after the
/// epochs (each session is serial).
constexpr unsigned CheckWorkers = 4;
/// The edit script is fixed, not drawn from the run seed: the
/// incremental session drifts from the from-scratch one (fault F3 in
/// README.md) at epochs that depend on the script, so a seeded script
/// would fail a different number of checkpoints on each seed. This is
/// the script F3 was found on; on it the drift shows from epoch 5, so
/// a change that mends F3 lowers this workload's failure count.
const uint64_t ScriptSeed = mix64(1 ^ 0xed17);

BenchmarkProfile poolProfile() {
  BenchmarkProfile P;
  P.Name = "daemon_pool";
  P.NumFunctions = 400;
  P.MinSize = 8;
  P.AvgSize = 42;
  P.MaxSize = 160;
  P.CloneFamilyPercent = 55;
  P.MinFamily = 2;
  P.MaxFamily = 5;
  P.FamilyDriftPercent = 10;
  P.LoopPercent = 45;
  P.RetTypeVariety = 4;
  P.Seed = 0x15eed;
  return P;
}

RegisterModulesRequest registerRequest() {
  RegisterModulesRequest RM;
  RM.Profile = poolProfile();
  RM.NumModules = 2;
  return RM; // serial session, distance selection, t=1
}

/// The MergeDriverOptions the daemon derives from registerRequest().
MergeDriverOptions sessionOptions() {
  RegisterModulesRequest RM = registerRequest();
  MergeDriverOptions O;
  O.Selection = RM.Selection;
  O.NumThreads = RM.NumThreads;
  O.ShardCount = RM.ShardCount;
  O.ExplorationThreshold = RM.ExplorationThreshold;
  O.Host = RM.Host;
  return O;
}

EditScriptOptions scriptOptions() {
  EditScriptOptions EO;
  EO.NumSteps = EpochCount;
  EO.ChangesPerStep = 1;
  EO.AddsPerStep = 0;
  EO.DeletesPerStep = 0;
  EO.Generate.TargetSize = 36;
  EO.Generate.RetTypeVariety = 4;
  EO.Seed = ScriptSeed;
  return EO;
}

struct Pool {
  std::unique_ptr<Context> Ctx;
  ModuleGroup Group; ///< declared after Ctx: destroyed first
  std::vector<Module *> Mods;
};

/// Generates the pool; adds the seconds it took to \p Seconds.
Pool buildPool(std::vector<double> &Seconds) {
  Clock::time_point T0 = Clock::now();
  Pool P;
  P.Ctx = std::make_unique<Context>();
  P.Group = buildBenchmarkModuleGroup(poolProfile(), *P.Ctx, 2);
  for (size_t I = 0; I < P.Group.size(); ++I)
    P.Mods.push_back(&P.Group[I]);
  Seconds.push_back(secondsSince(T0));
  return P;
}

void applyPlain(const std::vector<Module *> &Mods, const EditStepSpec &Spec) {
  AppliedEditStep A = applyEditStep(Mods, Spec);
  for (Function *F : A.Deleted)
    F->getParent()->eraseFunction(F);
}

/// A private temporary directory, removed with its files on every exit
/// path.
class TempDir {
public:
  explicit TempDir(const std::string &Parent) {
    std::string Tmpl = Parent + "/daemon-XXXXXX";
    if (mkdtemp(Tmpl.data()))
      Path = Tmpl;
  }
  ~TempDir() {
    if (Path.empty())
      return;
    if (DIR *D = opendir(Path.c_str())) {
      while (struct dirent *E = readdir(D))
        if (std::strcmp(E->d_name, ".") && std::strcmp(E->d_name, ".."))
          std::remove((Path + "/" + E->d_name).c_str());
      closedir(D);
    }
    rmdir(Path.c_str());
  }
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;

  bool ok() const { return !Path.empty(); }
  std::string file(const char *Name) const { return Path + "/" + Name; }

private:
  std::string Path;
};

/// One salssad child process. The destructor shuts it down (Shutdown
/// request, then SIGKILL after a grace period), reaps it and unlinks the
/// socket, so no exit path leaves a daemon or a socket behind.
class DaemonProcess {
public:
  DaemonProcess(const std::string &Binary, const std::string &Socket,
                const std::string &Cache, const std::string &Log)
      : Socket(Socket) {
    std::remove(Socket.c_str());
    std::vector<std::string> Args = {Binary, "--socket=" + Socket,
                                     "--decision-cache=" + Cache};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_addopen(&Actions, 1, Log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&Actions, 1, 2);
    // One malloc arena: with glibc's per-thread arenas the daemon's peak
    // RSS depends on which connection thread first allocated, and
    // peak_rss_mb would jump between runs of identical work.
    std::vector<char *> Env;
    for (char **E = environ; *E; ++E)
      if (std::strncmp(*E, "MALLOC_ARENA_MAX=", 17) != 0)
        Env.push_back(*E);
    static char OneArena[] = "MALLOC_ARENA_MAX=1";
    Env.push_back(OneArena);
    Env.push_back(nullptr);
    if (posix_spawn(&Pid, Binary.c_str(), &Actions, nullptr, Argv.data(),
                    Env.data()) != 0)
      Pid = -1;
    posix_spawn_file_actions_destroy(&Actions);
  }

  ~DaemonProcess() { stop(); }
  DaemonProcess(const DaemonProcess &) = delete;
  DaemonProcess &operator=(const DaemonProcess &) = delete;

  int pid() const { return Pid; }

  /// Waits until the socket accepts a connection (or the child died).
  bool waitReady() {
    for (int I = 0; I < 50000 && Pid > 0; ++I) {
      if (access(Socket.c_str(), F_OK) == 0)
        return true;
      int Status;
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return false;
      }
      usleep(100);
    }
    return false;
  }

  /// Asks the daemon to exit and reaps it; true when it exited cleanly.
  bool stop() {
    if (Pid <= 0)
      return true;
    {
      ClientOptions CO;
      CO.SocketPath = Socket;
      CO.MaxRetries = 1;
      CO.RequestTimeoutMillis = 5000;
      DaemonClient C(CO);
      C.shutdown();
    }
    int Status = 0;
    bool Exited = false;
    for (int I = 0; I < 5000; ++I) {
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        Exited = true;
        break;
      }
      usleep(1000);
    }
    if (!Exited) {
      kill(Pid, SIGKILL);
      waitpid(Pid, &Status, 0);
    }
    Pid = -1;
    std::remove(Socket.c_str());
    return Exited && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  }

private:
  std::string Socket;
  pid_t Pid = -1;
};

ClientOptions clientOptions(const std::string &Socket) {
  ClientOptions CO;
  CO.SocketPath = Socket;
  CO.MaxRetries = 10;
  CO.BackoffBaseMillis = 2;
  CO.BackoffMaxMillis = 50;
  CO.RequestTimeoutMillis = 60000;
  return CO;
}

bool ok(const DaemonClient::Result &Res) {
  return Res.TransportOk && Res.Status == StatusCode::Ok;
}

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Polls QueryStats on its own connection at a fixed rate until stopped.
class StatsPoller {
public:
  StatsPoller(const std::string &Socket, Tracer &T)
      : Client(clientOptions(Socket)), T(T),
        Thread([this] { loop(); }) {}
  ~StatsPoller() { finish(); }
  StatsPoller(const StatsPoller &) = delete;
  StatsPoller &operator=(const StatsPoller &) = delete;

  /// Stops polling; returns each round trip in ms.
  const std::vector<double> &finish() {
    Stop = true;
    if (Thread.joinable())
      Thread.join();
    return Millis;
  }
  unsigned errors() const { return Errors; }

private:
  void loop() {
    Clock::time_point Next = Clock::now();
    while (!Stop) {
      QueryStatsResponse Resp;
      Clock::time_point T0 = Clock::now();
      bool Good;
      {
        Tracer::Span S = T.span("service.rpc", "queryStats");
        Good = ok(Client.queryStats(false, Resp));
      }
      double Ms = secondsSince(T0) * 1e3;
      if (Good)
        Millis.push_back(Ms);
      else
        ++Errors;
      Next += std::chrono::milliseconds(StatsPollMillis);
      std::this_thread::sleep_until(Next);
    }
  }

  DaemonClient Client;
  Tracer &T;
  std::atomic<bool> Stop{false};
  std::vector<double> Millis;
  unsigned Errors = 0;
  std::thread Thread; ///< declared last: starts after the members it uses
};

/// A thread joined when it goes out of scope, on exception paths too.
class JoiningThread {
public:
  explicit JoiningThread(std::function<void()> Fn) : Thread(std::move(Fn)) {}
  ~JoiningThread() { join(); }
  JoiningThread(const JoiningThread &) = delete;
  JoiningThread &operator=(const JoiningThread &) = delete;
  void join() {
    if (Thread.joinable())
      Thread.join();
  }

private:
  std::thread Thread;
};

struct Checkpoint {
  unsigned Epoch;
  uint64_t MirrorDigest;
  uint64_t ColdDigest; ///< filled in by fromScratchDigests
  /// The oracle's report; empty when it passed or did not run.
  std::string OracleFailure;
};

/// Runs one from-scratch session per checkpoint, each over a fresh pool
/// edited by the script's first Epoch steps, on CheckWorkers threads,
/// and records its digest. The pools are generated on this thread, one
/// timing sample each into \p PoolS.
void fromScratchDigests(const EditScript &Script,
                        const MergeDriverOptions &Options,
                        std::vector<Checkpoint> &Checks,
                        std::vector<double> &PoolS) {
  std::vector<Pool> Pools;
  for (size_t I = 0; I < Checks.size(); ++I)
    Pools.push_back(buildPool(PoolS));
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I; (I = Next++) < Checks.size();) {
      for (unsigned K = 0; K < Checks[I].Epoch; ++K)
        applyPlain(Pools[I].Mods, Script.stepSpec(K));
      CrossModuleMerger Session(Options);
      for (Module *M : Pools[I].Mods)
        Session.addModule(*M);
      Session.run();
      Checks[I].ColdDigest = moduleDigest(Pools[I].Mods);
      Pools[I].Group = ModuleGroup(); // freed before its context
      Pools[I].Ctx.reset();
    }
  };
  std::vector<std::unique_ptr<JoiningThread>> Workers;
  for (unsigned W = 0; W < CheckWorkers; ++W)
    Workers.push_back(std::make_unique<JoiningThread>(Work));
}

double microsecondsOf(const std::function<void()> &Fn, unsigned Reps) {
  Clock::time_point T0 = Clock::now();
  for (unsigned I = 0; I < Reps; ++I)
    Fn();
  return secondsSince(T0) * 1e6 / Reps;
}

} // namespace

int runDaemonEdits(const RunConfig &Cfg, Tracer &T, RunResult &R) {
  const std::string Binary = Cfg.BinDir + "/salssad";
  if (access(Binary.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "perfbench: no salssad at %s\n", Binary.c_str());
    return 2;
  }

  // The bench side's own copies: the mirror session, the never-merged
  // reference (edits applied, no merging) and the script planned from a
  // pristine pool. setup_s is the median generation of a pool (these
  // two and one per checkpoint) plus the median daemon start.
  std::vector<double> PoolS, StartS;
  Pool MirrorPool = buildPool(PoolS);
  Pool RefPool = buildPool(PoolS);
  const EditScript Script(RefPool.Mods, scriptOptions());
  MergeServiceOptions SO;
  SO.Driver = sessionOptions();
  MergeService Mirror(SO);
  for (Module *M : MirrorPool.Mods)
    Mirror.addModule(*M);
  Clock::time_point TI = Clock::now();
  Mirror.initialize();
  const double MirrorInitS = secondsSince(TI);
  const uint64_t Epoch0Digest = moduleDigest(MirrorPool.Mods);

  std::vector<double> ColdS;
  std::unique_ptr<TempDir> Dir;
  std::unique_ptr<DaemonProcess> Daemon;
  uint64_t ColdDigest = 0;
  for (unsigned Leg = 0; Leg < ColdLegs; ++Leg) {
    Daemon.reset(); // stops and reaps the previous leg's daemon first
    Dir = std::make_unique<TempDir>(Cfg.WorkDir);
    if (!Dir->ok()) {
      std::fprintf(stderr, "perfbench: cannot create a directory in %s\n",
                   Cfg.WorkDir.c_str());
      return 1;
    }
    Clock::time_point T0 = Clock::now();
    Daemon = std::make_unique<DaemonProcess>(
        Binary, Dir->file("salssad.sock"), Dir->file("cache.bin"),
        Dir->file("salssad.log"));
    bool Ready = Daemon->waitReady();
    StartS.push_back(secondsSince(T0));
    if (!Ready) {
      std::fprintf(stderr, "perfbench: salssad did not start\n");
      return 1;
    }
    DaemonClient Writer(clientOptions(Dir->file("salssad.sock")));
    StatsSnapshot Init;
    T0 = Clock::now();
    bool Good;
    {
      Tracer::Span S = T.span("service.rpc", "registerModules", Leg);
      Good = ok(Writer.registerModules(registerRequest(), Init));
    }
    ColdS.push_back(secondsSince(T0));
    ++R.Attempted;
    R.invariant(Good, "cold registration " + std::to_string(Leg) + " failed");
    if (!Good)
      return 0;
    R.invariant(Init.CacheHits == 0,
                "cold registration reported " +
                    std::to_string(Init.CacheHits) + " cache hits");
    if (Init.ModuleDigest != Epoch0Digest)
      R.fail("registration " + std::to_string(Leg) + " [new]: digest " +
             hex(Init.ModuleDigest) + " != mirror " + hex(Epoch0Digest));
    ColdDigest = Init.ModuleDigest;
  }
  const std::string Socket = Dir->file("salssad.sock");

  // The edit loop: one writer, closed loop; a stats reader alongside.
  std::vector<double> EditMs, BeginMs, CheckoutMs, ApplyMs, ServiceApplyMs,
      OverheadMs, EncodeUs, DecodeUs;
  double DirtyClasses = 0, EpochAttempts = 0, PairingCalls = 0,
         Uncommitted = 0, LastSize = 0, Steps = 0;
  std::vector<double> StatsMs;
  unsigned StatsErrors = 0;
  std::vector<Checkpoint> Checks;
  {
    DaemonClient Writer(clientOptions(Socket));
    StatsPoller Poller(Socket, T);
    for (unsigned E = 0; E < EpochCount; ++E) {
      const uint64_t Op = ColdLegs + E;
      const EditStepSpec Spec = Script.stepSpec(E);
      const uint64_t Token = mix64(Cfg.Seed ^ (0xe90c0000ULL + E));
      // The mirror applies the same step on its own thread while the
      // daemon does (they share nothing), so checking every epoch does
      // not double the run; the daemon's session stays serial.
      MergeServiceStats St;
      uint64_t Digest = 0;
      JoiningThread MirrorThread([&] {
        MergeService::DeltaBatch Batch = Mirror.beginDelta();
        AppliedEditStep A = applyEditStep(
            MirrorPool.Mods, Spec,
            [&](Function *F) { Batch.checkoutForEdit(F); });
        MergeDelta D{A.Changed, A.Added, A.Deleted};
        Clock::time_point T1 = Clock::now();
        {
          Tracer::Span S = T.span("merge.service", "DeltaBatch::apply", Op);
          St = Batch.apply(D);
        }
        ServiceApplyMs.push_back(secondsSince(T1) * 1e3);
        Digest = moduleDigest(MirrorPool.Mods);
      });

      ApplyDeltaResponse Resp;
      bool Good = true;
      Clock::time_point T0 = Clock::now();
      {
        Tracer::Span Epoch = T.span("service.epoch", "edit", Op);
        Clock::time_point T1 = Clock::now();
        {
          Tracer::Span S = T.span("service.rpc", "beginDelta", Op);
          Good = ok(Writer.beginDelta());
        }
        BeginMs.push_back(secondsSince(T1) * 1e3);
        T1 = Clock::now();
        for (const EditOp &C : Spec.Changes) {
          Tracer::Span S = T.span("service.rpc", "checkoutForEdit", Op);
          Good = Good && ok(Writer.checkoutForEdit(C.ModuleIdx, C.Name));
        }
        CheckoutMs.push_back(secondsSince(T1) * 1e3);
        T1 = Clock::now();
        {
          Tracer::Span S = T.span("service.rpc", "applyDelta", Op);
          DaemonClient::Result Res = Writer.applyDelta(Spec, Token, Resp);
          if (Res.TransportOk && Res.Status == StatusCode::NoBatch)
            Res = Writer.applyStep(Spec, Token, Resp); // lease lost on retry
          Good = Good && ok(Res);
        }
        ApplyMs.push_back(secondsSince(T1) * 1e3);
      }
      EditMs.push_back(secondsSince(T0) * 1e3);
      MirrorThread.join();
      ++R.Attempted;
      if (!Good) {
        R.invariant(false, "epoch " + std::to_string(E + 1) + " failed");
        return 0;
      }
      OverheadMs.push_back(ApplyMs.back() - ServiceApplyMs.back());
      DirtyClasses += St.DirtyClasses;
      EpochAttempts += St.EpochAttempts;
      PairingCalls += double(St.EpochPairingDistanceCalls);
      Uncommitted += St.UncommittedMerges;
      applyPlain(RefPool.Mods, Spec);
      if (Resp.Stats.ModuleDigest != Digest)
        R.fail("epoch " + std::to_string(E + 1) + " [new]: daemon digest " +
               hex(Resp.Stats.ModuleDigest) + " != mirror " + hex(Digest));
      LastSize = double(Resp.Stats.SizeAfter);

      if (T.enabled()) {
        ApplyDeltaRequest Req{Token, Spec};
        ByteWriter RespW;
        Resp.encode(RespW);
        EncodeUs.push_back(microsecondsOf(
            [&] {
              ByteWriter W;
              Req.encode(W);
            },
            64));
        DecodeUs.push_back(microsecondsOf(
            [&] {
              ByteReader Rd(RespW.buffer().data(), RespW.buffer().size());
              ApplyDeltaResponse Out;
              Out.decode(Rd);
            },
            64));
      }

      if ((E + 1) % CheckpointEvery == 0) {
        // The mirror's bytes are compared with a from-scratch session
        // after the loop; here it must behave like the never-merged
        // reference.
        Checks.push_back({E + 1, Digest, 0, ""});
        if ((E + 1) % OracleEvery == 0) {
          Tracer::Span S = T.span("oracle", "differentialCheck", Op);
          OracleReport Rep =
              differentialCheck(RefPool.Mods, MirrorPool.Mods, Cfg.Seed);
          Checks.back().OracleFailure = Rep.summary("daemon-edits");
          if (E + 1 == EpochCount)
            Steps = double(Rep.MergedSteps);
        }
      }
    }
    StatsMs = Poller.finish();
    StatsErrors = Poller.errors();
  }

  // Each checkpoint's from-scratch session over the same edited pool must
  // land on the mirror's bytes. A checkpoint that fails this or the
  // oracle fails its epoch.
  {
    Tracer::Span S = T.span("oracle", "fromScratchSessions");
    fromScratchDigests(Script, SO.Driver, Checks, PoolS);
  }
  for (const Checkpoint &C : Checks) {
    const bool ColdEqual = C.ColdDigest == C.MirrorDigest;
    if (ColdEqual && C.OracleFailure.empty())
      continue;
    // The session-wide drift is the workload's known fault; an oracle
    // failure on a cold-equal session is a new one.
    R.fail("epoch " + std::to_string(C.Epoch) + " [" +
           (ColdEqual ? "new" : faultId("daemon-edits", "")) + "]: " +
           (ColdEqual ? "" : "mirror digest " + hex(C.MirrorDigest) +
                                 " != from-scratch session " +
                                 hex(C.ColdDigest) + "\n") +
           C.OracleFailure);
  }
  R.invariant(StatsErrors == 0, std::to_string(StatsErrors) +
                                    " QueryStats requests failed");
  const double PeakRss = peakRssMbOf(Daemon->pid());
  R.invariant(Daemon->stop(), "salssad did not exit cleanly");

  // Warm restart on the same cache file.
  double WarmS = 0;
  uint64_t WarmHits = 0;
  {
    DaemonProcess Warm(Binary, Socket, Dir->file("cache.bin"),
                       Dir->file("salssad.log"));
    R.invariant(Warm.waitReady(), "warm salssad did not start");
    DaemonClient Writer(clientOptions(Socket));
    StatsSnapshot Init;
    Clock::time_point T0 = Clock::now();
    bool Good;
    {
      Tracer::Span S = T.span("service.rpc", "registerModules", 0);
      Good = ok(Writer.registerModules(registerRequest(), Init));
    }
    WarmS = secondsSince(T0);
    ++R.Attempted;
    WarmHits = Init.CacheHits;
    if (!Good || Init.ModuleDigest != ColdDigest)
      R.fail("warm registration [new]: digest " + hex(Init.ModuleDigest) +
             " != cold " + hex(ColdDigest));
    R.invariant(Init.CacheHits > 0, "warm registration replayed nothing");
    R.invariant(Warm.stop(), "warm salssad did not exit cleanly");
  }

  if (T.enabled()) {
    R.PerLayer["service.init_s"] = MirrorInitS;
    R.PerLayer["service.apply_ms"] = median(ServiceApplyMs);
    R.PerLayer["service.dirty_classes"] = DirtyClasses / EpochCount;
    R.PerLayer["service.epoch_attempts"] = EpochAttempts / EpochCount;
    R.PerLayer["service.epoch_pairing_calls"] = PairingCalls / EpochCount;
    R.PerLayer["service.uncommitted_merges"] = Uncommitted / EpochCount;
    R.PerLayer["rpc.register_ms"] = median(ColdS) * 1e3;
    R.PerLayer["rpc.begin_ms"] = median(BeginMs);
    R.PerLayer["rpc.checkout_ms"] = median(CheckoutMs);
    R.PerLayer["rpc.apply_ms"] = median(ApplyMs);
    R.PerLayer["rpc.stats_ms"] = median(StatsMs);
    R.PerLayer["wire.overhead_ms"] = median(OverheadMs);
    R.PerLayer["protocol.encode_us"] = median(EncodeUs);
    R.PerLayer["protocol.decode_us"] = median(DecodeUs);
    R.PerLayer["edit.p50_ms"] = median(EditMs);
    R.PerLayer["edit.p90_ms"] = quantile(EditMs, 0.9);
    R.PerLayer["warm_merge_s"] = WarmS;
    R.PerLayer["stats.p50_ms"] = median(StatsMs);
    R.PerLayer["cache.hits"] = double(WarmHits);

    // The cache file as the daemons left it: load and save timed from
    // the bench side, misses from an in-process warm start on a copy.
    const uint64_t FP = DecisionCache::optionsFingerprint(SO.Driver);
    struct stat St;
    if (stat(Dir->file("cache.bin").c_str(), &St) == 0)
      R.PerLayer["cache.file_bytes"] = double(St.st_size);
    DecisionCache Cache;
    Clock::time_point T0 = Clock::now();
    {
      Tracer::Span S = T.span("merge.cache", "DecisionCache::load");
      R.invariant(Cache.load(Dir->file("cache.bin"), FP, nullptr) ==
                      DecisionCache::LoadOutcome::Loaded,
                  "the daemon's decision cache does not load");
    }
    R.PerLayer["cache.load_ms"] = secondsSince(T0) * 1e3;
    T0 = Clock::now();
    {
      Tracer::Span S = T.span("merge.cache", "DecisionCache::save");
      R.invariant(Cache.save(Dir->file("cache.copy"), FP, nullptr),
                  "the decision cache does not save");
    }
    R.PerLayer["cache.save_ms"] = secondsSince(T0) * 1e3;
    Pool WarmPool = buildPool(PoolS);
    MergeServiceOptions WarmSO = SO;
    WarmSO.Driver.DecisionCachePath = Dir->file("cache.copy");
    MergeService WarmSvc(WarmSO);
    for (Module *M : WarmPool.Mods)
      WarmSvc.addModule(*M);
    MergeServiceStats WarmStats = WarmSvc.initialize();
    R.PerLayer["cache.misses"] = double(WarmStats.Session.Driver.CacheMisses);
  }

  R.EndToEnd["setup_s"] = median(PoolS) + median(StartS);
  R.EndToEnd["merge_s"] = median(ColdS);
  R.EndToEnd["code_size_bytes"] = LastSize;
  R.EndToEnd["exec_steps"] = Steps;
  R.EndToEnd["peak_rss_mb"] = PeakRss;
  return 0;
}

} // namespace perfbench
