//===- perfbench/driver.cpp -------------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring half of the repository benchmark (perfbench/run.py is the
/// other half: it builds this driver, turns its samples into metrics and
/// prints the result line). One invocation runs one workload for a fixed
/// wall-clock budget as a closed loop: one client, one operation at a time,
/// every build and analysis at Jobs = 2.
///
/// The driver reaches the library only through its public entry points:
/// generateProgram, trainProfile, interpretProgram, CompilerSession,
/// runExecutable and hashExecutable. Every operation runs in a child
/// process forked after setup, when the parent is single-threaded (every
/// ThreadPool and loader I/O thread belongs to one session). A crash is then
/// a counted failure rather than the end of the run, and the child's wait4
/// rusage gives the operation's resident-set peak. Build CPU time is the
/// child's RUSAGE_SELF delta around the build, read after the session is
/// destroyed and so after every worker thread has joined.
///
/// Output: progress on stderr, then one JSON object on stdout holding the
/// raw samples: setup times, one record per successful operation, per-run
/// values, failures and, with --trace 1, the prediction checks. With
/// --trace 1 the benchmark-side spans are also written as Chrome
/// trace-event JSON to --trace-file.
///
//===----------------------------------------------------------------------===//

#include "driver/CompilerSession.h"
#include "link/Linker.h"
#include "vm/IlInterp.h"
#include "vm/Vm.h"
#include "workload/Generator.h"

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

using namespace scmo;

namespace {

/// Every build and analysis runs this wide. A 60k NAIM build then runs two
/// workers plus one loader I/O thread per shard: four threads, within a
/// 4-core host.
constexpr unsigned Jobs = 2;
/// Setups per run: setup_s is their median. The last one's state is kept.
constexpr unsigned Setups = 3;
constexpr double MiB = 1024.0 * 1024.0;

using Clock = std::chrono::steady_clock;
/// Numeric samples of one operation (or of the run), keyed by metric name.
using Record = std::map<std::string, double>;
/// Content hashes of one operation's outputs.
using Hashes = std::map<std::string, uint64_t>;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double cpuSeconds() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  auto Sec = [](const timeval &TV) {
    return double(TV.tv_sec) + double(TV.tv_usec) * 1e-6;
  };
  return Sec(RU.ru_utime) + Sec(RU.ru_stime);
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S)
    H = (H ^ C) * 1099511628211ull;
  return H;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One benchmark-side span around a call into a layer. Start is seconds on
/// the steady clock, which every process of the run shares.
struct Span {
  std::string Name;
  double Start = 0;
  double Dur = 0;
};

/// Spans of the current process; recorded only with --trace 1.
bool Tracing = false;
std::vector<Span> Spans;

double clockSeconds(Clock::time_point T) {
  return std::chrono::duration<double>(T.time_since_epoch()).count();
}

/// Records [T0, now) as \p Name and returns its duration.
double endSpan(const char *Name, Clock::time_point T0) {
  Clock::time_point T1 = Clock::now();
  if (Tracing)
    Spans.push_back({Name, clockSeconds(T0),
                     std::chrono::duration<double>(T1 - T0).count()});
  return std::chrono::duration<double>(T1 - T0).count();
}

//===----------------------------------------------------------------------===//
// Workload shapes
//===----------------------------------------------------------------------===//

enum class Kind { Naim60k, Edit200k };

struct Shape {
  Kind K;
  const char *Name;
  uint64_t Lines;
};

const Shape Shapes[] = {
    {Kind::Naim60k, "naim-60k", 60000},
    {Kind::Edit200k, "edit-200k", 200000},
};

struct Args {
  const Shape *W = nullptr;
  uint64_t Seed = 1;
  double Seconds = 10;
  std::string WorkDir;
  std::string TraceFile;
};

/// The one-module edit of operation \p Index: an uncalled routine appended
/// to the last module (a default-set module under 20% selectivity, so the
/// CMO unit stays cached). Every index yields a routine never seen before,
/// so every warm rebuild misses exactly one unit.
std::string editRoutineName(uint64_t Index) {
  return "perfbench_edit_" + std::to_string(Index);
}

GeneratedProgram applyEdit(const GeneratedProgram &Base, uint64_t Index) {
  GeneratedProgram GP = Base;
  GP.Modules.back().Source += "\nfunc " + editRoutineName(Index) +
                              "(x, k) {\n  var t = x * " +
                              std::to_string(Index % 89 + 2) +
                              " + k * 3;\n  return t % 8191;\n}\n";
  return GP;
}

/// The analysis report with the edit routine's name replaced, so the
/// reports of two different edits compare equal exactly when nothing else
/// differs.
std::string normalizeReport(std::string Report, uint64_t Index) {
  const std::string Name = editRoutineName(Index);
  const std::string Placeholder = "perfbench_edit_N";
  for (size_t At = Report.find(Name); At != std::string::npos;
       At = Report.find(Name, At + Placeholder.size()))
    Report.replace(At, Name.size(), Placeholder);
  return Report;
}

//===----------------------------------------------------------------------===//
// Run state
//===----------------------------------------------------------------------===//

/// Everything setup produces; read-only in the operation children.
struct State {
  GeneratedProgram GP;
  ProfileDb Db;
  uint64_t RefChecksum = 0; ///< IL interpreter output of post-frontend IL.
  uint64_t RefCount = 0;
  std::string CacheDir;     ///< edit-200k: the primed artifact cache.
  Record Setup;             ///< Per-step setup seconds.

  /// Latched from the first successful operation, which was checked
  /// against the interpreter reference; every later one must match.
  bool HaveVerified = false;
  uint64_t VerifiedExe = 0;    ///< naim-60k: executable hash.
  uint64_t VerifiedReport = 0; ///< Analysis report hash (edit: normalized).
  Record Verified;             ///< run_mcycles and vm.run_s of that check.
};

struct Failure {
  uint64_t Op = 0;
  std::string What;
  bool WrongOutput = false;
};

/// Operation outcome as read back from the child.
struct OpResult {
  bool Ok = false;
  bool WrongOutput = false;
  std::string Error;
  Record Values;
  Hashes Outputs;
  std::vector<Span> Spans;
};

CompileOptions buildOptions(const Args &A, const std::string &CacheDir) {
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Jobs = Jobs;
  if (A.W->K == Kind::Naim60k) {
    Opts.Naim = NaimConfig::autoFor(4ull << 20); // scmoc --machine-mem 4
  } else {
    Opts.Pbo = true;
    Opts.SelectivityPercent = 20;
  }
  if (!CacheDir.empty()) {
    Opts.Incremental = true;
    Opts.CacheDir = CacheDir;
  }
  // Keep the NAIM repository inside the work directory. The path is
  // resource-only: the executable does not depend on it.
  Opts.Naim.RepositoryPath = A.WorkDir + "/naim-" + std::to_string(getpid());
  return Opts;
}

AnalysisOptions analysisOptions(const std::string &CacheDir) {
  AnalysisOptions AOpts;
  AOpts.Jobs = Jobs;
  if (!CacheDir.empty()) {
    AOpts.Incremental = true;
    AOpts.CacheDir = CacheDir;
  }
  return AOpts;
}

double stageSeconds(const BuildResult &B, const char *Name) {
  double Sum = 0;
  for (const StageMetrics &M : B.Stages)
    if (M.Name == Name)
      Sum += M.Seconds;
  return Sum;
}

/// One timed build, from CompilerSession construction through destruction.
/// Fills the end-to-end build metrics and the per-layer counters that
/// BuildResult carries (Stages, Loader, Stats, Memory).
BuildResult timedBuild(const CompileOptions &Opts, const GeneratedProgram &GP,
                       const ProfileDb *Db, Record &R) {
  BuildResult B;
  double Cpu0 = cpuSeconds();
  Clock::time_point T0 = Clock::now();
  Clock::time_point Teardown;
  {
    CompilerSession Session(Opts);
    Clock::time_point T = Clock::now();
    bool Added = Session.addGenerated(GP);
    R["frontend.add_s"] = endSpan("frontend.add", T);
    if (Added) {
      if (Db)
        Session.attachProfile(*Db);
      T = Clock::now();
      B = Session.build();
      R["driver.build_call_s"] = endSpan("driver.build", T);
    } else {
      B.Error = Session.firstError();
    }
    Teardown = Clock::now();
  }
  R["driver.teardown_s"] = endSpan("driver.teardown", Teardown);
  R["build_s"] = endSpan("build", T0);
  R["cpu_s"] = cpuSeconds() - Cpu0;
  if (!B.Ok)
    return B;

  double StageSum = 0;
  for (const StageMetrics &M : B.Stages)
    StageSum += M.Seconds;
  R["driver.unattributed_s"] = R["driver.build_call_s"] - StageSum;
  R["support.parallel_eff"] = R["cpu_s"] / (R["build_s"] * Jobs);
  R["peak_mib"] = double(B.HloPeakBytes) / MiB;
  R["code_kinstrs"] = double(B.Exe.Code.size()) / 1000.0;
  R["ir.verify_s"] = stageSeconds(B, "verify");
  R["profile.correlate_s"] = stageSeconds(B, "correlate");
  R["hlo.selectivity_s"] = stageSeconds(B, "selectivity");
  R["cache.plan_s"] = stageSeconds(B, "cache-plan");
  R["hlo.wpa_s"] = stageSeconds(B, "wpa");
  R["hlo.ltrans_s"] = stageSeconds(B, "ltrans");
  R["llo.s"] = stageSeconds(B, "llo");
  R["cache.store_s"] = stageSeconds(B, "cache-store");
  R["link.s"] = stageSeconds(B, "link");
  R["cache.hits"] = double(B.Stats.get("cache.hits"));
  R["cache.misses"] = double(B.Stats.get("cache.misses"));
  R["cache.stores"] = double(B.Stats.get("cache.stores"));
  R["hlo.inline_sites"] = double(B.Stats.get("inline.sites"));
  R["hlo.cmo_lines"] = double(B.Selectivity.CmoSourceLines);

  const LoaderStats &L = B.Loader;
  R["naim.acquires"] = double(L.Acquires);
  R["naim.expansions"] = double(L.Expansions);
  R["naim.compactions"] = double(L.Compactions);
  R["naim.offloads"] = double(L.Offloads);
  R["naim.fetches"] = double(L.Fetches);
  R["naim.hit_ratio"] =
      L.Acquires ? double(L.CacheHits) / double(L.Acquires) : 0.0;
  R["naim.stored_mib"] = double(L.CompressedBytes) / MiB;
  R["naim.lock_wait_ms"] = double(L.LockWaitNanos) * 1e-6;
  R["naim.contentions"] = double(L.Contentions);

  double LtransAlloc = 0, Waste = 0;
  for (unsigned St = 0; St != B.Memory.numStages(); ++St)
    if (B.Memory.StageNames[St] == "ltrans")
      for (unsigned C = 0; C != MemoryProfile::NumCats; ++C)
        LtransAlloc += double(B.Memory.cell(St, MemCategory(C)).AllocBytes);
  for (uint64_t W : B.Memory.CategoryWaste)
    Waste += double(W);
  R["mem.ltrans_alloc_mib"] = LtransAlloc / MiB;
  R["mem.arena_waste_mib"] = Waste / MiB;
  return B;
}

/// One timed analysis: the runAnalysis call alone. The session's frontend
/// and teardown are outside the span.
AnalysisResult timedAnalysis(const CompileOptions &Opts,
                             const GeneratedProgram &GP,
                             const std::string &CacheDir, Record &R) {
  CompilerSession Session(Opts);
  if (!Session.addGenerated(GP)) {
    AnalysisResult AR;
    AR.Error = Session.firstError();
    return AR;
  }
  Clock::time_point T = Clock::now();
  AnalysisResult AR = Session.runAnalysis(analysisOptions(CacheDir));
  R["analyze_s"] = endSpan("analysis.run", T);
  R["analysis.cache_hits"] = double(AR.CacheHits);
  return AR;
}

/// Runs \p Exe on the VM and compares its output with the interpreter
/// reference. Returns "" on a match.
std::string checkRun(const Executable &Exe, const State &S, Record &R) {
  Clock::time_point T = Clock::now();
  RunResult Run = runExecutable(Exe);
  R["vm.run_s"] = endSpan("vm.run", T);
  if (!Run.Ok)
    return "vm run failed: " + Run.Error;
  R["run_mcycles"] = double(Run.Cycles) / 1e6;
  if (Run.OutputChecksum != S.RefChecksum || Run.OutputCount != S.RefCount)
    return "output differs from the IL interpreter reference";
  return "";
}

//===----------------------------------------------------------------------===//
// Child processes
//===----------------------------------------------------------------------===//

/// Body of a child: fills \p R and \p H and returns "" or an error. \p Wrong
/// is set when the error is a wrong output rather than a failed step.
using ChildBody =
    std::function<std::string(Record &R, Hashes &H, bool &Wrong)>;

void writeAll(int Fd, const std::string &Text) {
  size_t Done = 0;
  while (Done < Text.size()) {
    ssize_t N = ::write(Fd, Text.data() + Done, Text.size() - Done);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return;
    Done += size_t(N);
  }
}

/// Line protocol from child to parent: "name value" samples, "#name hex"
/// hashes, "@span name start dur" spans, and a final "@ok", "@wrong why" or
/// "@error why".
std::string encode(const Record &R, const Hashes &H, const std::string &Err,
                   bool Wrong) {
  std::string Text;
  char Buf[160];
  for (const auto &KV : R) {
    std::snprintf(Buf, sizeof Buf, "%s %.17g\n", KV.first.c_str(), KV.second);
    Text += Buf;
  }
  for (const auto &KV : H) {
    std::snprintf(Buf, sizeof Buf, "#%s %016" PRIx64 "\n", KV.first.c_str(),
                  KV.second);
    Text += Buf;
  }
  for (const Span &Sp : Spans) {
    std::snprintf(Buf, sizeof Buf, "@span %s %.9f %.9f\n", Sp.Name.c_str(),
                  Sp.Start, Sp.Dur);
    Text += Buf;
  }
  std::string Why = Err;
  std::replace(Why.begin(), Why.end(), '\n', ' ');
  return Text + (Err.empty() ? "@ok\n"
                             : (Wrong ? "@wrong " : "@error ") + Why + "\n");
}

bool decodeLine(const std::string &Line, OpResult &Out) {
  if (Line == "@ok") {
    Out.Ok = true;
    return true;
  }
  if (Line.rfind("@wrong ", 0) == 0 || Line.rfind("@error ", 0) == 0) {
    Out.WrongOutput = Line[1] == 'w';
    Out.Error = Line.substr(7);
    return true;
  }
  char Name[128];
  double Start = 0, Dur = 0;
  if (std::sscanf(Line.c_str(), "@span %127s %lf %lf", Name, &Start, &Dur) ==
      3) {
    Out.Spans.push_back({Name, Start, Dur});
    return false;
  }
  size_t Sp = Line.find(' ');
  if (Sp == std::string::npos)
    return false;
  if (Line[0] == '#')
    Out.Outputs[Line.substr(1, Sp - 1)] =
        std::strtoull(Line.c_str() + Sp + 1, nullptr, 16);
  else
    Out.Values[Line.substr(0, Sp)] = std::strtod(Line.c_str() + Sp, nullptr);
  return false;
}

/// Forks, runs \p Body in the child and reads its result back. A child that
/// dies, is signalled or reports an error yields a failed OpResult.
OpResult runChild(const ChildBody &Body) {
  OpResult Out;
  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    Out.Error = "pipe failed";
    return Out;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t Parent = ::getpid();
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    Out.Error = "fork failed";
    return Out;
  }
  if (Pid == 0) {
    // Never outlive the benchmark.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != Parent)
      ::_exit(1);
    ::close(Pipe[0]);
    Spans.clear();
    Record R;
    Hashes H;
    bool Wrong = false;
    std::string Err = Body(R, H, Wrong);
    writeAll(Pipe[1], encode(R, H, Err, Wrong));
    ::close(Pipe[1]);
    ::_exit(0); // Skip destructors of the parent's state.
  }
  ::close(Pipe[1]);
  std::string Text;
  char Buf[4096];
  for (;;) {
    ssize_t N = ::read(Pipe[0], Buf, sizeof Buf);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Text.append(Buf, size_t(N));
  }
  ::close(Pipe[0]);
  int Status = 0;
  rusage RU{};
  while (::wait4(Pid, &Status, 0, &RU) < 0 && errno == EINTR) {
  }

  bool Reported = false;
  for (size_t Pos = 0, End; (End = Text.find('\n', Pos)) != std::string::npos;
       Pos = End + 1)
    Reported |= decodeLine(Text.substr(Pos, End - Pos), Out);
  if (WIFSIGNALED(Status)) {
    Out.Ok = false;
    Out.Error = "killed by signal " + std::to_string(WTERMSIG(Status)) +
                " (" + strsignal(WTERMSIG(Status)) + ")";
  } else if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0 || !Reported) {
    Out.Ok = false;
    if (Out.Error.empty())
      Out.Error = "child exited without a result";
  }
  Out.Values["rss_mib"] = double(RU.ru_maxrss) / 1024.0;
  return Out;
}

//===----------------------------------------------------------------------===//
// Operations
//===----------------------------------------------------------------------===//

/// The first successful operation is checked on the VM against the
/// interpreter reference; every later one must link the same bytes.
std::string checkExecutable(const State &S, const Executable &Exe,
                            Record &R, Hashes &H, bool &Wrong) {
  H["exe"] = hashExecutable(Exe);
  std::string Err;
  if (!S.HaveVerified)
    Err = checkRun(Exe, S, R);
  else if (H["exe"] != S.VerifiedExe)
    Err = "executable differs from the run's verified executable";
  Wrong = !Err.empty();
  return Err;
}

std::string checkReport(const State &S, const AnalysisResult &AR,
                        uint64_t Report, bool &Wrong) {
  if (!AR.Ok)
    return "analysis failed: " + AR.Error;
  std::string Err;
  if (AR.Errors != 0)
    Err = "analysis reports errors on a clean program";
  else if (S.HaveVerified && Report != S.VerifiedReport)
    Err = "analysis report differs from the run's first report";
  Wrong = !Err.empty();
  return Err;
}

/// The body of operation \p Index (indices count the setup warm-ups too;
/// edit-200k derives its never-seen edit from the index).
ChildBody operation(const Args &A, const State &S, uint64_t Index) {
  if (A.W->K == Kind::Naim60k)
    // One build plus one cold analysis.
    return [&A, &S](Record &R, Hashes &H, bool &Wrong) {
      BuildResult B = timedBuild(buildOptions(A, ""), S.GP, nullptr, R);
      if (!B.Ok)
        return "build failed: " + B.Error;
      std::string Err = checkExecutable(S, B.Exe, R, H, Wrong);
      if (!Err.empty())
        return Err;
      AnalysisResult AR = timedAnalysis(buildOptions(A, ""), S.GP, "", R);
      H["report"] = fnv1a(AR.Report);
      return checkReport(S, AR, H["report"], Wrong);
    };
  // edit-200k: a never-seen edit, a warm build, a warm re-analysis. The
  // edit changes the executable, so every one is run on the VM.
  return [&A, &S, Index](Record &R, Hashes &H, bool &Wrong) -> std::string {
    GeneratedProgram Edited = applyEdit(S.GP, Index);
    CompileOptions Opts = buildOptions(A, S.CacheDir);
    BuildResult B = timedBuild(Opts, Edited, &S.Db, R);
    if (!B.Ok)
      return "build failed: " + B.Error;
    H["exe"] = hashExecutable(B.Exe);
    std::string Err = checkRun(B.Exe, S, R);
    if (!Err.empty()) {
      Wrong = true;
      return Err;
    }
    AnalysisResult AR = timedAnalysis(Opts, Edited, S.CacheDir, R);
    H["report_raw"] = fnv1a(AR.Report);
    H["report"] = fnv1a(normalizeReport(AR.Report, Index));
    return checkReport(S, AR, H["report"], Wrong);
  };
}

/// edit-200k, once per run: the warm executable and warm re-analysis of
/// operation \p Index must equal a cold build and a cold analysis of the
/// same edited tree.
ChildBody crossCheck(const Args &A, const State &S, uint64_t Index,
                     const Hashes &Warm) {
  return [&A, &S, Index, Warm](Record &R, Hashes &, bool &Wrong) {
    GeneratedProgram Edited = applyEdit(S.GP, Index);
    CompileOptions Opts = buildOptions(A, "");
    BuildResult B = timedBuild(Opts, Edited, &S.Db, R);
    if (!B.Ok)
      return "cold build failed: " + B.Error;
    Wrong = hashExecutable(B.Exe) != Warm.at("exe");
    if (Wrong)
      return std::string("warm executable differs from a cold build");
    AnalysisResult AR = timedAnalysis(Opts, Edited, "", R);
    if (!AR.Ok)
      return "cold analysis failed: " + AR.Error;
    Wrong = fnv1a(AR.Report) != Warm.at("report_raw");
    return std::string(Wrong ? "warm re-analysis differs from a cold one" : "");
  };
}

//===----------------------------------------------------------------------===//
// Setup
//===----------------------------------------------------------------------===//

void removeTree(const std::string &Dir) {
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

/// Builds the run's state: generate, train, reference, prime.
bool setUp(const Args &A, State &S, std::string &Error) {
  Clock::time_point T = Clock::now();
  S.GP = generateProgram(mcadLikeParams(A.W->Lines, 1, A.Seed));
  S.Setup["workload.generate_s"] = endSpan("workload.generate", T);

  if (A.W->K == Kind::Edit200k) {
    T = Clock::now();
    S.Db = trainProfile(S.GP, Error);
    S.Setup["profile.train_s"] = endSpan("profile.train", T);
    if (!Error.empty()) {
      Error = "training failed: " + Error;
      return false;
    }
  }

  // The reference output never comes from the compiler under test: the IL
  // interpreter runs the post-frontend IL directly.
  T = Clock::now();
  {
    CompileOptions RefOpts;
    RefOpts.Naim.RepositoryPath = A.WorkDir + "/naim-reference";
    CompilerSession Ref(RefOpts);
    if (!Ref.addGenerated(S.GP)) {
      Error = "frontend failed: " + Ref.firstError();
      return false;
    }
    IlRunResult IR = interpretProgram(Ref.program(), &Ref.loader());
    if (!IR.Ok) {
      Error = "IL interpreter failed: " + IR.Error;
      return false;
    }
    S.RefChecksum = IR.OutputChecksum;
    S.RefCount = IR.OutputCount;
  }
  S.Setup["vm.interpret_s"] = endSpan("vm.interpret", T);

  if (A.W->K == Kind::Edit200k) {
    T = Clock::now();
    S.CacheDir = A.WorkDir + "/cache";
    removeTree(S.CacheDir);
    CompileOptions Opts = buildOptions(A, S.CacheDir);
    {
      CompilerSession Session(Opts);
      Session.addGenerated(S.GP);
      Session.attachProfile(S.Db);
      BuildResult B = Session.build();
      if (!B.Ok) {
        Error = "cache priming build failed: " + B.Error;
        return false;
      }
    }
    {
      CompilerSession Session(Opts);
      Session.addGenerated(S.GP);
      AnalysisResult AR = Session.runAnalysis(analysisOptions(S.CacheDir));
      if (!AR.Ok) {
        Error = "cache priming analysis failed: " + AR.Error;
        return false;
      }
    }
    S.Setup["cache.prime_s"] = endSpan("cache.prime", T);
  }
  // Hand freed heap back so every forked child starts from the same
  // resident baseline.
  malloc_trim(0);
  return true;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

std::string jsonRecord(const Record &R) {
  std::string Out = "{";
  for (const auto &KV : R) {
    if (Out.size() > 1)
      Out += ',';
    Out += jsonString(KV.first);
    Out += ':';
    Out += jsonNumber(KV.second);
  }
  return Out + "}";
}

/// Writes \p Spans as Chrome trace-event JSON: one row (tid) per operation,
/// row 0 for setup, times in microseconds from the first span.
void writeTrace(const std::string &Path,
                const std::vector<std::pair<uint64_t, Span>> &All) {
  if (Path.empty() || All.empty())
    return;
  double Base = All.front().second.Start;
  for (const auto &E : All)
    Base = std::min(Base, E.second.Start);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return;
  std::fputs("{\"traceEvents\":[", F);
  for (size_t I = 0; I != All.size(); ++I)
    std::fprintf(F,
                 "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%" PRIu64
                 ",\"ts\":%.3f,\"dur\":%.3f}",
                 I ? "," : "", jsonString(All[I].second.Name).c_str(),
                 All[I].first, (All[I].second.Start - Base) * 1e6,
                 All[I].second.Dur * 1e6);
  std::fputs("\n]}\n", F);
  std::fclose(F);
}

[[noreturn]] void usage(const std::string &Msg) {
  std::fprintf(stderr,
               "scmo_perfbench: %s\n"
               "usage: scmo_perfbench --workload naim-60k|edit-200k "
               "--seed N --seconds S --trace 0|1 --workdir DIR "
               "[--trace-file FILE]\n",
               Msg.c_str());
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage("missing value for " + Flag);
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      for (const Shape &W : Shapes)
        if (Value == W.Name)
          A.W = &W;
      if (!A.W)
        usage("unknown workload " + Value);
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        usage("--trace takes 0 or 1");
      Tracing = Value == "1";
    } else if (Flag == "--workdir") {
      A.WorkDir = Value;
    } else if (Flag == "--trace-file") {
      A.TraceFile = Value;
    } else {
      usage("unknown flag " + Flag);
    }
    if (End && (*End || Value.empty()))
      usage("bad value for " + Flag);
  }
  if (!A.W || A.WorkDir.empty())
    usage("--workload and --workdir are required");
  if (!(A.Seconds > 0))
    usage("--seconds must be positive");
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  std::filesystem::create_directories(A.WorkDir);

  uint64_t Attempted = 0, NextIndex = 0;
  std::vector<Failure> Failures;
  std::vector<double> SetupSeconds;
  std::vector<Record> Ops;
  std::vector<std::pair<uint64_t, Span>> Trace;
  State S;

  // Runs operation \p Index in a child and folds its outcome into the run:
  // a failure is counted, the first success latches the verified outputs.
  auto runOp = [&](uint64_t Index) -> OpResult {
    OpResult R = runChild(operation(A, S, Index));
    ++Attempted;
    for (const Span &Sp : R.Spans)
      Trace.push_back({Index + 1, Sp});
    if (!R.Ok) {
      Failures.push_back({Index, R.Error, R.WrongOutput});
      std::fprintf(stderr, "perfbench: operation %" PRIu64 " failed: %s\n",
                   Index, R.Error.c_str());
    } else if (!S.HaveVerified) {
      S.HaveVerified = true;
      S.VerifiedExe = R.Outputs["exe"];
      S.VerifiedReport = R.Outputs["report"];
      S.Verified["run_mcycles"] = R.Values["run_mcycles"];
      S.Verified["vm.run_s"] = R.Values["vm.run_s"];
    }
    return R;
  };

  // Setup runs several times so its median is steady. Each setup ends with
  // one untimed warm-up operation.
  for (unsigned I = 0; I != Setups; ++I) {
    S = State();
    Spans.clear();
    Clock::time_point T = Clock::now();
    std::string Error;
    if (!setUp(A, S, Error)) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n", Error.c_str());
      removeTree(A.WorkDir);
      return 1;
    }
    runOp(NextIndex++);
    SetupSeconds.push_back(endSpan("setup", T));
    for (const Span &Sp : Spans)
      Trace.push_back({0, Sp});
    std::fprintf(stderr, "perfbench: %s setup %u: %.3fs\n", A.W->Name, I + 1,
                 SetupSeconds.back());
  }

  // The measured closed loop: one operation at a time until the budget is
  // spent.
  Clock::time_point Start = Clock::now();
  uint64_t LastOk = UINT64_MAX;
  Hashes LastOutputs;
  while (Ops.empty() || secondsSince(Start) < A.Seconds) {
    uint64_t Index = NextIndex++;
    OpResult R = runOp(Index);
    if (R.Ok) {
      if (A.W->K == Kind::Naim60k)
        R.Values["run_mcycles"] = S.Verified["run_mcycles"];
      LastOk = Index;
      LastOutputs = R.Outputs;
      Ops.push_back(std::move(R.Values));
    } else if (secondsSince(Start) >= A.Seconds) {
      break;
    }
  }
  double MeasuredSeconds = secondsSince(Start);

  bool CrossChecked = A.W->K == Kind::Naim60k;
  if (!CrossChecked && LastOk != UINT64_MAX) {
    OpResult R = runChild(crossCheck(A, S, LastOk, LastOutputs));
    ++Attempted;
    CrossChecked = R.Ok;
    if (!R.Ok) {
      Failures.push_back({LastOk, "cross-check: " + R.Error, R.WrongOutput});
      std::fprintf(stderr, "perfbench: cross-check failed: %s\n",
                   R.Error.c_str());
    }
  }
  removeTree(A.WorkDir);

  // Prediction checks: each workload must still exercise the layer it was
  // chosen for. The traced run enforces them on every operation.
  std::vector<std::pair<std::string, bool>> Predictions;
  auto every = [&Ops](const std::function<bool(const Record &)> &P) {
    return !Ops.empty() && std::all_of(Ops.begin(), Ops.end(), P);
  };
  auto at = [](const Record &R, const char *Key) {
    auto It = R.find(Key);
    return It == R.end() ? -1.0 : It->second;
  };
  if (Tracing) {
    switch (A.W->K) {
    case Kind::Naim60k:
      Predictions.push_back(
          {"naim.offloads > 0 and naim.fetches > 0",
           every([&](const Record &R) {
             return at(R, "naim.offloads") > 0 && at(R, "naim.fetches") > 0;
           })});
      break;
    case Kind::Edit200k:
      Predictions.push_back({"cache.misses == 1", every([&](const Record &R) {
                               return at(R, "cache.misses") == 1;
                             })});
      Predictions.push_back(
          {"hlo.ltrans_s < 0.005", every([&](const Record &R) {
             return at(R, "hlo.ltrans_s") >= 0 && at(R, "hlo.ltrans_s") < 0.005;
           })});
      break;
    }
    writeTrace(A.TraceFile, Trace);
  }

  uint64_t Wrong = 0;
  for (const Failure &F : Failures)
    Wrong += F.WrongOutput;
  Record Run = S.Setup;
  Run.insert(S.Verified.begin(), S.Verified.end());

  std::string Json = "{\"workload\":" + jsonString(A.W->Name) +
                     ",\"seed\":" + std::to_string(A.Seed) +
                     ",\"jobs\":" + std::to_string(Jobs) +
                     ",\"measured_s\":" + jsonNumber(MeasuredSeconds) +
                     ",\"attempted\":" + std::to_string(Attempted) +
                     ",\"failed\":" + std::to_string(Failures.size()) +
                     ",\"wrong_outputs\":" + std::to_string(Wrong) +
                     ",\"cross_checked\":" +
                     (CrossChecked ? "true" : "false") + ",\"setup_s\":[";
  for (size_t I = 0; I != SetupSeconds.size(); ++I)
    Json += (I ? "," : "") + jsonNumber(SetupSeconds[I]);
  Json += "],\"run\":" + jsonRecord(Run) + ",\"failures\":[";
  for (size_t I = 0; I != Failures.size(); ++I)
    Json += (I ? "," : "") +
            jsonString("operation " + std::to_string(Failures[I].Op) + ": " +
                       Failures[I].What);
  Json += "],\"predictions\":[";
  for (size_t I = 0; I != Predictions.size(); ++I)
    Json += std::string(I ? "," : "") +
            "{\"check\":" + jsonString(Predictions[I].first) +
            ",\"ok\":" + (Predictions[I].second ? "true" : "false") + "}";
  Json += "],\"ops\":[";
  for (size_t I = 0; I != Ops.size(); ++I)
    Json += (I ? "," : "") + jsonRecord(Ops[I]);
  Json += "]}\n";
  std::fputs(Json.c_str(), stdout);
  return 0;
}
