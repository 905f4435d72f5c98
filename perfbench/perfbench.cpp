//===- perfbench/perfbench.cpp - The GoFree stack's benchmark -------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One benchmark for the whole stack. It drives four workloads through the
/// public entry points (compiler::compile / execute, workloads::runServeSim,
/// workloads::synthProgram), checks every output against a reference from
/// an independent oracle (the tree-walker, in stock-Go mode: neither the VM
/// nor tcfree), and prints each metric by name with its unit:
///
///   perfbench --workload subjects|churn|serve|compile --seed N
///             --seconds S --trace 0|1 [--smoke] [--corrupt-reference]
///
/// With --trace 0 the last stdout line carries the end-to-end metrics; with
/// --trace 1 it carries the per-layer metrics of a separate traced run.
/// Everything here times calls into the library from the outside: the
/// library has no benchmark hooks. perfbench/README.md documents the
/// workloads, the metrics, and which layer metric should move which
/// end-to-end metric.
///
//===----------------------------------------------------------------------===//

#include "compiler/Pipeline.h"
#include "support/Rng.h"
#include "support/Trace.h"
#include "vm/Compiler.h"
#include "workloads/ServeSim.h"
#include "workloads/Synth.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <map>
#include <sched.h>
#include <sstream>
#include <string>
#include <thread>
#include <time.h>
#include <vector>

using namespace gofree;
using compiler::Compilation;
using compiler::CompileMode;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID) or of the whole
/// process (CLOCK_PROCESS_CPUTIME_ID), in seconds. Unlike wall time, it
/// leaves out the time the thread waits for a CPU: on a shared VM with
/// steal-time accounting, that includes the time the hypervisor gives to
/// other guests.
double cpuSeconds(clockid_t Id) {
  timespec T;
  clock_gettime(Id, &T);
  return (double)T.tv_sec + (double)T.tv_nsec * 1e-9;
}

/// Times one stretch of CPU time on \p Id from construction.
class CpuTimer {
public:
  explicit CpuTimer(clockid_t Id = CLOCK_THREAD_CPUTIME_ID)
      : Id(Id), T0(cpuSeconds(Id)) {}
  double seconds() const { return cpuSeconds(Id) - T0; }

private:
  clockid_t Id;
  double T0;
};

//===----------------------------------------------------------------------===//
// Metric definitions
//===----------------------------------------------------------------------===//

/// Which statistic of a metric's samples is reported.
///
/// End-to-end timings report their low decile (rates the high decile, the
/// same iterations seen inverted). The host's slowdowns come in phases of
/// several seconds that only ever add time: within one 20 s run on a
/// shared 4-vCPU VM, the 2 MB compile took 126-130 ms of wall time in quiet
/// phases and 180-210 ms in slow ones, so the median read whichever phase
/// held the most iterations. setup_s and the per-layer metrics report the
/// median.
enum class Stat { Median, Low, High };

struct MetricDef {
  std::string Name;
  const char *Unit;
  const char *Moves; ///< Per-layer only: the end-to-end metric it moves.
  Stat Of = Stat::Median;
};

/// The end-to-end metrics, printed by every workload with --trace 0.
const std::vector<MetricDef> &endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"setup_s", "s", "", Stat::Median},
      {"run_s", "s", "", Stat::Low},
      {"compile_s", "s", "", Stat::Low},
      {"peak_heap_mb", "MB", "", Stat::Median},
      {"free_ratio", "ratio", "", Stat::Median},
      {"p50_ms", "ms", "", Stat::Low},
      {"serve_rps", "1/s", "", Stat::High},
  };
  return Defs;
}

constexpr trace::GiveUpReason GiveUpReasons[] = {
    trace::GiveUpReason::NullAddr, trace::GiveUpReason::GcRunning,
    trace::GiveUpReason::UnknownAddr, trace::GiveUpReason::ForeignSpan,
    trace::GiveUpReason::DoubleFree};

/// The per-layer metrics, printed by every workload with --trace 1. A
/// metric a workload does not exercise reads 0 there.
const std::vector<MetricDef> &perLayerMetrics() {
  static const std::vector<MetricDef> Defs = [] {
    const char *CompileS = "compile_s on compile";
    const char *Runtime = "run_s, free_ratio on churn; serve_rps on serve; "
                          "none on subjects";
    const char *Gc =
        "run_s, peak_heap_mb on churn; p50_ms, serve.p99_ms on serve";
    const char *Tail = "p50_ms, serve.p99_ms on serve";
    const char *Vm = "run_s on subjects, churn; p50_ms, serve_rps on serve";
    const char *Valid = "validity of p50_ms on serve";
    std::vector<MetricDef> D = {
        {"minigo.lex_ms", "ms", CompileS},
        {"minigo.parse_ms", "ms", CompileS},
        {"minigo.sema_ms", "ms", CompileS},
        {"minigo.kb_per_s", "KB/s", CompileS},
        {"escape.build_ms", "ms", CompileS},
        {"escape.solve_ms", "ms", CompileS},
        {"escape.lifetime_ms", "ms", CompileS},
        {"escape.relaxations", "count", CompileS},
        {"instrument.insert_ms", "ms", CompileS},
        {"instrument.frees_inserted", "count", "free_ratio on subjects"},
        {"vm.bytecode_ms", "ms", "setup_s on every workload"},
        {"vm.steps", "count", Vm},
        {"vm.steps_per_s", "1/s", Vm},
    };
    for (const workloads::Workload &W : workloads::subjectWorkloads())
      D.push_back({"vm.run_s." + W.Name, "s", "run_s on subjects"});
    D.push_back({"runtime.allocs", "count", Runtime});
    D.push_back({"runtime.alloc_mb", "MB", Runtime});
    D.push_back({"runtime.tcfree_calls", "count", Runtime});
    D.push_back({"runtime.tcfree_freed", "count", Runtime});
    D.push_back({"runtime.tcfree_useful", "ratio", Runtime});
    for (trace::GiveUpReason R : GiveUpReasons)
      D.push_back({std::string("runtime.giveups.") + trace::giveUpReasonName(R),
                   "count", Runtime});
    D.push_back({"runtime.gc.cycles", "count", Gc});
    D.push_back({"runtime.gc.cpu_s", "s", Gc});
    D.push_back({"runtime.gc.mark_s", "s", Gc});
    D.push_back({"runtime.gc.share", "ratio", Gc});
    D.push_back({"runtime.gc.pause_ms", "ms", Gc});
    D.push_back({"runtime.gc.pause_max_ms", "ms", Gc});
    D.push_back({"runtime.gc.assists", "count", Gc});
    D.push_back({"runtime.gc.barrier_hits", "count", Gc});
    D.push_back({"runtime.park_ms", "ms", Tail});
    D.push_back({"runtime.assist_ms", "ms", Tail});
    D.push_back({"runtime.stall_p99_ms", "ms", Tail});
    D.push_back({"compiler.exec_setup_ms", "ms", "setup_s"});
    D.push_back({"serve.achieved_over_offered", "ratio", Valid});
    D.push_back({"serve.tail_drift", "ratio", Valid});
    D.push_back({"serve.valid", "bool", Valid});
    D.push_back({"serve.p99_ms", "ms",
                 "none: tail diagnostic, too noisy for a bound"});
    D.push_back({"serve.p999_ms", "ms",
                 "none: tail diagnostic, too noisy for a bound"});
    D.push_back({"hardware_threads", "count", "context"});
    D.push_back({"trace.overhead_run_s", "s", "tracing cost"});
    D.push_back({"trace.overhead_compile_s", "s", "tracing cost"});
    return D;
  }();
  return Defs;
}

//===----------------------------------------------------------------------===//
// Samples and spans
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Exact sample percentile, rank ceil(Q*N) (ServeSimResult's convention).
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = (size_t)std::ceil(Q * (double)V.size());
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

/// Named samples; a metric's reported value is a statistic of its samples.
struct Samples {
  std::map<std::string, std::vector<double>> Values;
  void add(const std::string &Name, double V) { Values[Name].push_back(V); }
  double get(const std::string &Name, Stat Of = Stat::Median) const {
    auto It = Values.find(Name);
    if (It == Values.end())
      return 0.0;
    switch (Of) {
    case Stat::Low:
      return percentile(It->second, 0.10);
    case Stat::High:
      return percentile(It->second, 0.90);
    case Stat::Median:
      break;
    }
    return median(It->second);
  }
};

/// Spans recorded around the benchmark's calls into each layer. They stay
/// in memory and are written out when the run ends.
class SpanLog {
public:
  struct Span {
    std::string Name;
    uint64_t StartNs, EndNs;
    int Parent; ///< Index of the enclosing span, -1 at the top.
    int Run;    ///< Which setup pass or measured iteration.
  };

  bool On = false;
  int Run = 0;

  int begin(const char *Name) {
    if (!On)
      return -1;
    int Parent = Open.empty() ? -1 : Open.back();
    Spans.push_back({Name, nowNs(), 0, Parent, Run});
    Open.push_back((int)Spans.size() - 1);
    return Open.back();
  }
  void end(int Id) {
    if (Id < 0)
      return;
    Spans[(size_t)Id].EndNs = nowNs();
    Open.pop_back();
  }

  /// Self time (duration minus children's durations) per span name.
  std::map<std::string, std::pair<uint64_t, uint64_t>> selfAndTotalNs() const {
    std::vector<uint64_t> ChildNs(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildNs[(size_t)S.Parent] += S.EndNs - S.StartNs;
    std::map<std::string, std::pair<uint64_t, uint64_t>> ByName;
    for (size_t I = 0; I < Spans.size(); ++I) {
      uint64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
      ByName[Spans[I].Name].first += Dur - ChildNs[I];
      ByName[Spans[I].Name].second += Dur;
    }
    return ByName;
  }

  bool write(const std::string &Path) const {
    std::ofstream Os(Path);
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      Os << "{\"id\":" << I << ",\"name\":\"" << S.Name
         << "\",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
         << ",\"parent\":" << S.Parent << ",\"run\":" << S.Run << "}\n";
    }
    return (bool)Os;
  }

private:
  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
  std::vector<int> Open;
  uint64_t nowNs() const {
    return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - Epoch)
        .count();
  }
};

/// RAII span.
class Scope {
public:
  Scope(SpanLog &L, const char *Name) : L(L), Id(L.begin(Name)) {}
  ~Scope() { L.end(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  SpanLog &L;
  int Id;
};

//===----------------------------------------------------------------------===//
// Run context
//===----------------------------------------------------------------------===//

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  bool CorruptReference = false;
};

/// Everything one run accumulates. With --trace 1, setup passes and
/// measured iterations alternate untraced (even) and traced (odd); the
/// end-to-end samples of each kind go to their own set so the difference
/// of the two is the tracing overhead, and the per-layer samples come from
/// the traced ones only.
struct Ctx {
  Config Cfg;
  Samples Untraced, Traced, Layers;
  SpanLog Spans;
  uint64_t Attempted = 0, Failed = 0;

  bool traced(int I) const { return Cfg.Trace && I % 2 == 1; }
  Samples &endToEnd(bool IsTraced) { return IsTraced ? Traced : Untraced; }

  /// Median latency over one iteration's operations; the reported value
  /// is its low decile across iterations.
  void latencies(bool IsTraced, const std::vector<double> &OpsMs) {
    endToEnd(IsTraced).add("p50_ms", percentile(OpsMs, 0.50));
  }

  /// Begins setup pass or iteration \p I; returns whether it is traced.
  bool beginRun(int I) {
    Spans.Run = I;
    Spans.On = traced(I);
    return Spans.On;
  }

  void check(bool Ok, uint64_t Ops, const std::string &What) {
    Attempted += Ops;
    if (!Ok) {
      Failed += Ops;
      std::fprintf(stderr, "perfbench: MISMATCH: %s\n", What.c_str());
    }
  }

  /// Calls \p Iter(I, Traced) until the measured time is spent (at least
  /// one untraced and, when tracing, one traced iteration).
  template <class F> void measure(F Iter) {
    Clock::time_point T0 = Clock::now();
    int Min = Cfg.Trace ? 2 : 1;
    for (int I = 0; I < Min || secondsSince(T0) < Cfg.Seconds; ++I)
      Iter(beginRun(I));
  }

};

[[noreturn]] void fatal(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(1);
}

/// The reference checksum of \p Entry(\p Args): the tree-walker on a
/// stock-Go compilation, so neither the VM nor tcfree is involved.
uint64_t oracleChecksum(const Ctx &C, const std::string &Source,
                        const std::string &Entry,
                        const std::vector<int64_t> &Args) {
  compiler::CompileOptions CO;
  CO.Mode = CompileMode::Go;
  Compilation Comp = compiler::compile(Source, CO);
  if (!Comp.ok())
    fatal("reference compile failed: " + Comp.Errors);
  compiler::ExecOptions EO;
  EO.Engine = compiler::ExecEngine::Ast;
  compiler::ExecOutcome O = compiler::execute(Comp, Entry, Args, EO);
  if (!O.ok())
    fatal("reference run failed: " + O.Error);
  return C.Cfg.CorruptReference ? O.Run.Checksum ^ 1 : O.Run.Checksum;
}

//===----------------------------------------------------------------------===//
// Layer accounting
//===----------------------------------------------------------------------===//

double ms(uint64_t Nanos) { return (double)Nanos * 1e-6; }

/// Compile passes and sizes, summed over the compilations of one pass.
struct CompileAcc {
  uint64_t PassNs[trace::NumPasses] = {};
  uint64_t Relaxations = 0, FreesInserted = 0, SourceBytes = 0;
  double CompileS = 0, BytecodeS = 0;

  void add(const Compilation &Comp, size_t Bytes, double Seconds) {
    for (int P = 0; P < trace::NumPasses; ++P)
      PassNs[P] += Comp.Passes.Nanos[P];
    Relaxations += Comp.Analysis.Stats.Relaxations;
    FreesInserted += Comp.Instr.total();
    SourceBytes += Bytes;
    CompileS += Seconds;
  }

  void report(Samples &L) const {
    uint64_t FrontNs = PassNs[(int)trace::Pass::Lex] +
                       PassNs[(int)trace::Pass::Parse] +
                       PassNs[(int)trace::Pass::Sema];
    L.add("minigo.lex_ms", ms(PassNs[(int)trace::Pass::Lex]));
    L.add("minigo.parse_ms", ms(PassNs[(int)trace::Pass::Parse]));
    L.add("minigo.sema_ms", ms(PassNs[(int)trace::Pass::Sema]));
    if (FrontNs)
      L.add("minigo.kb_per_s", (double)SourceBytes / 1024.0 / (FrontNs * 1e-9));
    L.add("escape.build_ms", ms(PassNs[(int)trace::Pass::EscapeBuild]));
    L.add("escape.solve_ms", ms(PassNs[(int)trace::Pass::EscapeSolve]));
    L.add("escape.lifetime_ms", ms(PassNs[(int)trace::Pass::Lifetime]));
    L.add("escape.relaxations", (double)Relaxations);
    L.add("instrument.insert_ms", ms(PassNs[(int)trace::Pass::Insert]));
    L.add("instrument.frees_inserted", (double)FreesInserted);
    L.add("vm.bytecode_ms", BytecodeS * 1e3);
  }
};

/// Compiles \p Source in gofree mode plus its bytecode, inside spans, and
/// folds the costs into \p Acc. Both run on the calling thread only, and
/// are timed in its CPU time. With four other processes keeping every vCPU
/// busy, one compile run's median 2 MB compile read 138 ms of wall time and
/// 123 ms of CPU time, against 125 ms for both when the host was quiet.
Compilation compileTimed(Ctx &C, const std::string &Source, CompileAcc &Acc) {
  CpuTimer Cpu;
  Compilation Comp;
  {
    Scope S(C.Spans, "compile");
    compiler::CompileOptions CO;
    CO.Mode = CompileMode::GoFree;
    Comp = compiler::compile(Source, CO);
  }
  double CompileS = Cpu.seconds();
  if (!Comp.ok())
    fatal("compile failed: " + Comp.Errors);
  Acc.add(Comp, Source.size(), CompileS);
  Cpu = CpuTimer();
  {
    Scope S(C.Spans, "vm.compileProgram");
    vm::Module M = vm::compileProgram(*Comp.Prog);
    (void)M;
  }
  Acc.BytecodeS += Cpu.seconds();
  return Comp;
}

/// Makes one setup slot: eight back-to-back setup passes over \p Sources,
/// returning the last pass's compilations. Each pass compiles every source
/// (gofree mode plus bytecode) and is one setup_s and one compile_s
/// sample, both in the thread's CPU time; \p SetupSample is false where
/// setup_s is measured elsewhere.
/// On subjects, churn and serve, compiling is a sub-millisecond side cost.
/// Its first pass after an execution runs on caches the execution left
/// cold, by an amount that depends on what ran; the later passes of a slot
/// give the low decile warm samples to pick from. Workloads spread their
/// slots over the whole measured time instead of making them all up front,
/// so that the samples span the host's quiet and slow phases.
std::vector<Compilation> setupPasses(Ctx &C, bool Traced,
                                     const std::vector<std::string> &Sources,
                                     bool SetupSample = true) {
  std::vector<Compilation> Comps(Sources.size());
  for (int P = 0; P < 8; ++P) {
    CpuTimer Cpu;
    CompileAcc Acc;
    for (size_t I = 0; I < Sources.size(); ++I)
      Comps[I] = compileTimed(C, Sources[I], Acc);
    if (SetupSample)
      C.endToEnd(Traced).add("setup_s", Cpu.seconds());
    C.endToEnd(Traced).add("compile_s", Acc.CompileS);
    if (Traced)
      Acc.report(C.Layers);
  }
  return Comps;
}

/// Runtime counters, summed over the executions of one iteration.
struct RuntimeAcc {
  rt::StatsSnapshot Sum;
  double RunS = 0;
  uint64_t Steps = 0;
  int Execs = 0; ///< Executions added with their outcome and call time.
  double ExecSetupS = 0;

  void add(const rt::StatsSnapshot &S) {
    Sum.AllocCount += S.AllocCount;
    Sum.AllocedBytes += S.AllocedBytes;
    Sum.TcfreeCalls += S.TcfreeCalls;
    Sum.TcfreeGiveUps += S.TcfreeGiveUps;
    for (int R = 0; R < trace::NumGiveUpReasons; ++R)
      Sum.TcfreeGiveUpsByReason[R] += S.TcfreeGiveUpsByReason[R];
    for (int F = 0; F < rt::NumFreeSources; ++F)
      Sum.FreedBytesBySource[F] += S.FreedBytesBySource[F];
    Sum.GcCycles += S.GcCycles;
    Sum.GcNanos += S.GcNanos;
    Sum.GcMarkNanos += S.GcMarkNanos;
    Sum.GcPauseNanos += S.GcPauseNanos;
    Sum.GcMaxPauseNanos = std::max(Sum.GcMaxPauseNanos, S.GcMaxPauseNanos);
    Sum.GcAssists += S.GcAssists;
    Sum.GcBarrierHits += S.GcBarrierHits;
    Sum.PeakCommitted += S.PeakCommitted;
  }

  void add(const compiler::ExecOutcome &O, double CallS) {
    add(O.Stats);
    RunS += O.WallSeconds;
    Steps += O.Run.Steps;
    ExecSetupS += CallS - O.WallSeconds;
    ++Execs;
  }

  double peakMb() const { return (double)Sum.PeakCommitted / (1 << 20); }

  void reportEndToEnd(Samples &E) const {
    E.add("peak_heap_mb", peakMb());
    E.add("free_ratio", Sum.freeRatio());
  }

  void report(Samples &L) const {
    L.add("runtime.allocs", (double)Sum.AllocCount);
    L.add("runtime.alloc_mb", (double)Sum.AllocedBytes / (1 << 20));
    L.add("runtime.tcfree_calls", (double)Sum.TcfreeCalls);
    uint64_t Freed = Sum.TcfreeCalls - Sum.TcfreeGiveUps;
    L.add("runtime.tcfree_freed", (double)Freed);
    L.add("runtime.tcfree_useful",
          Sum.TcfreeCalls ? (double)Freed / (double)Sum.TcfreeCalls : 0.0);
    for (trace::GiveUpReason R : GiveUpReasons)
      L.add(std::string("runtime.giveups.") + trace::giveUpReasonName(R),
            (double)Sum.TcfreeGiveUpsByReason[(int)R]);
    L.add("runtime.gc.cycles", (double)Sum.GcCycles);
    L.add("runtime.gc.cpu_s", (double)Sum.GcNanos * 1e-9);
    L.add("runtime.gc.mark_s", (double)Sum.GcMarkNanos * 1e-9);
    if (RunS > 0)
      L.add("runtime.gc.share", (double)Sum.GcNanos * 1e-9 / RunS);
    L.add("runtime.gc.pause_ms", ms(Sum.GcPauseNanos));
    L.add("runtime.gc.pause_max_ms", ms(Sum.GcMaxPauseNanos));
    L.add("runtime.gc.assists", (double)Sum.GcAssists);
    L.add("runtime.gc.barrier_hits", (double)Sum.GcBarrierHits);
    if (Steps) {
      L.add("vm.steps", (double)Steps);
      L.add("vm.steps_per_s", (double)Steps / RunS);
    }
    if (Execs)
      L.add("compiler.exec_setup_ms", ExecSetupS * 1e3);
  }
};

/// Runs \p Comp inside an "execute" span; returns the outcome and the
/// call's duration in \p CallS.
compiler::ExecOutcome executeTimed(Ctx &C, const Compilation &Comp,
                                   const std::string &Entry,
                                   const std::vector<int64_t> &Args,
                                   const compiler::ExecOptions &EO,
                                   double &CallS) {
  Scope S(C.Spans, "execute");
  Clock::time_point T0 = Clock::now();
  compiler::ExecOutcome O = compiler::execute(Comp, Entry, Args, EO);
  CallS = secondsSince(T0);
  return O;
}

/// Refuses to run \p Mutators threads on fewer CPUs than that.
void requireCpus(int Mutators) {
  cpu_set_t Set;
  int Cpus = sched_getaffinity(0, sizeof(Set), &Set) == 0 ? CPU_COUNT(&Set)
                                                          : 1;
  if (Cpus < Mutators)
    fatal("refusing to run " + std::to_string(Mutators) +
          " mutator threads on " + std::to_string(Cpus) + " CPUs");
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// subjects: the six table-6 programs at their default size, gofree mode,
/// one mutator, default collector, run one after another. The seed drives
/// the order, drawn afresh for every iteration: a subject's run time
/// depends somewhat on which subject ran before it, and one fixed order per
/// seed made run_s differ between seeds by about 5%.
void runSubjects(Ctx &C) {
  const std::vector<workloads::Workload> &Subs = workloads::subjectWorkloads();
  std::vector<size_t> Order(Subs.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  Rng R(C.Cfg.Seed);
  auto ArgsOf = [&](const workloads::Workload &W) {
    return C.Cfg.Smoke ? W.SmallArgs : W.Args;
  };

  std::vector<uint64_t> Ref(Subs.size());
  for (size_t I = 0; I < Subs.size(); ++I)
    Ref[I] = oracleChecksum(C, Subs[I].Source, Subs[I].Entry, ArgsOf(Subs[I]));

  std::vector<std::string> Sources;
  for (const workloads::Workload &W : Subs)
    Sources.push_back(W.Source);

  // An iteration runs the six subjects once. run_s is the sum over
  // subjects of the low decile of each one's wall time across iterations;
  // the latency percentiles are over the six runs of an iteration.
  C.measure([&](bool Traced) {
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.below(I)]);
    Samples &E = C.endToEnd(Traced);
    RuntimeAcc Acc;
    std::vector<double> OpsMs;
    for (size_t I : Order) {
      const workloads::Workload &W = Subs[I];
      Compilation Comp = std::move(setupPasses(C, Traced, Sources)[I]);
      double CallS = 0;
      compiler::ExecOutcome O =
          executeTimed(C, Comp, W.Entry, ArgsOf(W), {}, CallS);
      C.check(O.ok() && O.Run.Checksum == Ref[I], 1,
              W.Name + ": " + (O.ok() ? "checksum differs" : O.Error));
      Acc.add(O, CallS);
      E.add("vm.run_s." + W.Name, O.WallSeconds);
      OpsMs.push_back(O.WallSeconds * 1e3);
    }
    C.latencies(Traced, OpsMs);
    Acc.reportEndToEnd(E);
    if (Traced)
      Acc.report(C.Layers);
  });
  for (Samples *E : {&C.Untraced, &C.Traced}) {
    double RunS = 0;
    for (const workloads::Workload &W : Subs) {
      RunS += E->get("vm.run_s." + W.Name, Stat::Low);
      if (E == &C.Traced)
        C.Layers.add("vm.run_s." + W.Name, E->get("vm.run_s." + W.Name));
    }
    E->add("run_s", RunS);
    E->add("serve_rps", (double)Subs.size() / RunS);
  }
}

/// churn: the benchmark's own GC-share program (perfbench/churn.minigo) on
/// three mutators sharing one heap. The seed drives the program's
/// permutation of its retained live set.
void runChurn(Ctx &C) {
  constexpr int Mutators = 3;
  requireCpus(Mutators);
  std::ifstream In(PERFBENCH_CHURN_SOURCE);
  if (!In)
    fatal(std::string("cannot read ") + PERFBENCH_CHURN_SOURCE);
  std::stringstream Buf;
  Buf << In.rdbuf();
  const std::vector<std::string> Sources = {Buf.str()};
  std::vector<int64_t> Args = {(int64_t)Rng(C.Cfg.Seed).below(1u << 31),
                               C.Cfg.Smoke ? 2000 : 35000,
                               C.Cfg.Smoke ? 1000 : 8000};
  // Every mutator runs the same entry, so the combined checksum is the
  // single-thread reference added once per mutator (wrapping).
  uint64_t Ref = oracleChecksum(C, Sources[0], "main", Args) * Mutators;

  compiler::ExecOptions EO;
  EO.NumThreads = Mutators;
  C.measure([&](bool Traced) {
    Compilation Comp = std::move(setupPasses(C, Traced, Sources)[0]);
    double CallS = 0;
    compiler::ExecOutcome O = executeTimed(C, Comp, "main", Args, EO, CallS);
    C.check(O.ok() && O.Run.Checksum == Ref, 1,
            "churn: " + (O.ok() ? std::string("checksum differs") : O.Error));
    RuntimeAcc Acc;
    Acc.add(O, CallS);
    Samples &E = C.endToEnd(Traced);
    E.add("run_s", O.WallSeconds);
    E.add("serve_rps", 1.0 / O.WallSeconds);
    Acc.reportEndToEnd(E);
    C.latencies(Traced, {O.WallSeconds * 1e3});
    if (Traced)
      Acc.report(C.Layers);
  });
}

/// serve: runServeSim with three workers and the mixed handler profile, as
/// an open-loop phase at a fixed offered rate (latency) followed by a
/// closed-loop phase (capacity). The phases are short (5,000 requests, about
/// 1.4 s open and 0.5 s closed) so that a run has a dozen iterations and
/// some of them fall wholly inside the host's quiet phases.
void runServe(Ctx &C) {
  constexpr int Workers = 3;
  requireCpus(Workers);
  constexpr const char *Profiles[3] = {"hugo", "gojson", "badger"};
  workloads::ServeSimOptions Open;
  Open.Seed = C.Cfg.Seed;
  Open.Workers = Workers;
  Open.Profile = "mix";
  Open.Requests = C.Cfg.Smoke ? 600 : 5000;
  Open.OfferedRps = C.Cfg.Smoke ? 3000 : 3500;
  workloads::ServeSimOptions Closed = Open;
  Closed.Requests = C.Cfg.Smoke ? 900 : 5000;
  Closed.OfferedRps = 0;

  // The reference replays the request stream the seed defines (profile
  // picks and per-request handler sizes, as in ServeSim.cpp) and sums
  // each request's handler checksum from the oracle. It also yields the
  // stream's last scheduled arrival, the base of the achieved-rate guard.
  std::map<std::pair<int, int64_t>, uint64_t> HandlerRef;
  auto Reference = [&](const workloads::ServeSimOptions &O,
                       double &LastArrivalS) {
    Rng ArrivalRng(O.Seed);
    Rng PickRng(O.Seed + 0x2545f4914f6cdd1dULL);
    double ArrivalNs = 0;
    uint64_t Sum = 0;
    for (uint64_t I = 0; I < O.Requests; ++I) {
      if (O.OfferedRps > 0) {
        double U = ArrivalRng.unit();
        ArrivalNs += -std::log(U <= 0 ? 1e-12 : U) * (1e9 / O.OfferedRps);
      }
      int P = (int)PickRng.below(3);
      int64_t Arg = P == 0   ? 1 + (int64_t)(I % 3)
                    : P == 1 ? 2 + (int64_t)(I % 4)
                             : 60 + (int64_t)(I % 5) * 30;
      auto [It, New] = HandlerRef.try_emplace({P, Arg}, 0);
      if (New)
        It->second = oracleChecksum(
            C, workloads::subjectWorkload(Profiles[P]).Source, "main", {Arg});
      Sum += It->second;
    }
    LastArrivalS = ArrivalNs * 1e-9;
    return Sum;
  };
  double LastArrivalS = 0, Unused = 0;
  uint64_t OpenRef = Reference(Open, LastArrivalS);
  uint64_t ClosedRef = Reference(Closed, Unused);

  std::vector<std::string> Sources;
  for (const char *P : Profiles)
    Sources.push_back(workloads::subjectWorkload(P).Source);

  // setup_s is the calling thread's CPU time in runServeSim: the requests
  // run on worker threads, and this thread only waits for them between
  // setting up and tearing down.
  auto Serve = [&](const workloads::ServeSimOptions &O, uint64_t Ref,
                   bool Traced, const char *Phase) {
    CpuTimer Cpu;
    workloads::ServeSimResult R;
    {
      Scope S(C.Spans, Phase);
      R = workloads::runServeSim(O);
    }
    double SetupS = Cpu.seconds();
    C.endToEnd(Traced).add("setup_s", SetupS);
    C.check(R.ok() && R.Checksum == Ref, O.Requests,
            std::string("serve ") + Phase + ": " +
                (R.ok() ? "checksum differs" : R.Error));
    if (Traced)
      C.Layers.add("compiler.exec_setup_ms", SetupS * 1e3);
    return R;
  };

  // The tail percentiles pool the traced iterations' requests, so that
  // p999 has tens of samples beyond it.
  std::vector<double> TracedOpsMs;
  C.measure([&](bool Traced) {
    // The handlers' own compile cost, sampled before, between and after
    // the phases. runServeSim compiles them again as part of its setup,
    // which is what setup_s times here.
    setupPasses(C, Traced, Sources, /*SetupSample=*/false);
    workloads::ServeSimResult R = Serve(Open, OpenRef, Traced, "serve.open");
    Samples &E = C.endToEnd(Traced);
    RuntimeAcc Acc;
    Acc.add(R.Stats);
    Acc.RunS = R.WallSeconds;
    Acc.reportEndToEnd(E);
    std::vector<double> OpsMs;
    for (uint64_t Ns : R.LatencyNs)
      OpsMs.push_back((double)Ns * 1e-6);
    C.latencies(Traced, OpsMs);

    // Validity: the server kept up with the schedule, and latency did not
    // drift upward over the run (a growing backlog).
    double Achieved = LastArrivalS / R.WallSeconds;
    size_t Q = R.LatencyNs.size() / 4;
    std::vector<double> First, Last;
    for (size_t I = 0; I < Q; ++I) {
      First.push_back((double)R.LatencyNs[I]);
      Last.push_back((double)R.LatencyNs[R.LatencyNs.size() - Q + I]);
    }
    double TailDrift = Q ? median(Last) / median(First) : 1.0;
    bool Valid = Achieved >= 0.99 && TailDrift <= 2.0;
    if (!Valid)
      std::fprintf(stderr,
                   "perfbench: serve open loop INVALID: achieved/offered "
                   "%.4f, last/first quarter median latency %.3f\n",
                   Achieved, TailDrift);
    if (Traced) {
      Acc.report(C.Layers);
      C.Layers.add("runtime.park_ms", ms(R.GcParkNanos));
      C.Layers.add("runtime.assist_ms", ms(R.GcAssistNanos));
      C.Layers.add("runtime.stall_p99_ms", ms(R.stallPercentileNs(0.99)));
      C.Layers.add("serve.achieved_over_offered", Achieved);
      C.Layers.add("serve.tail_drift", TailDrift);
      C.Layers.add("serve.valid", Valid ? 1.0 : 0.0);
      TracedOpsMs.insert(TracedOpsMs.end(), OpsMs.begin(), OpsMs.end());
    }

    setupPasses(C, Traced, Sources, /*SetupSample=*/false);
    workloads::ServeSimResult CR =
        Serve(Closed, ClosedRef, Traced, "serve.closed");
    setupPasses(C, Traced, Sources, /*SetupSample=*/false);
    E.add("run_s", CR.WallSeconds);
    E.add("serve_rps", CR.AchievedRps);
  });
  if (C.Cfg.Trace) {
    C.Layers.add("serve.p99_ms", percentile(TracedOpsMs, 0.99));
    C.Layers.add("serve.p999_ms", percentile(TracedOpsMs, 0.999));
  }
}

/// compile: compile only, of eight ~2 MB synthProgram sources the seed
/// picks, one after another in every iteration. Each compiled program also
/// runs at a small n against the oracle. A single program made the check
/// run's time and free ratio differ between seeds by up to 25% and 10%;
/// eight average most of that out.
void runCompile(Ctx &C) {
  constexpr int Programs = 8;
  std::vector<workloads::SynthOptions> SOs(Programs);
  Rng R(C.Cfg.Seed);
  for (workloads::SynthOptions &SO : SOs) {
    SO.NumFuncs = C.Cfg.Smoke ? 30 : 600;
    SO.StmtsPerFunc = C.Cfg.Smoke ? 20 : 60;
    SO.Seed = R.next();
  }
  const std::vector<int64_t> Args = {3};

  std::vector<uint64_t> Ref;
  for (const workloads::SynthOptions &SO : SOs)
    Ref.push_back(
        oracleChecksum(C, workloads::synthProgram(SO), "main", Args));

  // compile_s, p50_ms and serve_rps are per compile; run_s is the whole
  // iteration, so that the check runs' dependence on the drawn programs is
  // diluted by the compiles; peak_heap_mb is a sum over the check runs, as
  // on subjects. Every timing here is CPU time: the thread's for generating
  // and compiling, the process's (collector threads included) for run_s.
  C.measure([&](bool Traced) {
    CpuTimer IterCpu(CLOCK_PROCESS_CPUTIME_ID);
    Samples &E = C.endToEnd(Traced);
    CompileAcc CAcc;
    RuntimeAcc RAcc;
    for (int P = 0; P < Programs; ++P) {
      CpuTimer Cpu;
      std::string Source;
      {
        Scope S(C.Spans, "synthProgram");
        Source = workloads::synthProgram(SOs[P]);
      }
      E.add("setup_s", Cpu.seconds());
      double Before = CAcc.CompileS;
      Compilation Comp = compileTimed(C, Source, CAcc);
      double CompileS = CAcc.CompileS - Before;
      E.add("compile_s", CompileS);
      E.add("serve_rps", 1.0 / CompileS);
      C.latencies(Traced, {CompileS * 1e3});
      double CallS = 0;
      compiler::ExecOutcome O = executeTimed(C, Comp, "main", Args, {}, CallS);
      C.check(O.ok() && O.Run.Checksum == Ref[P], 2,
              "compile: " +
                  (O.ok() ? std::string("checksum differs") : O.Error));
      RAcc.add(O, CallS);
    }
    E.add("run_s", IterCpu.seconds());
    RAcc.reportEndToEnd(E);
    if (Traced) {
      CAcc.report(C.Layers);
      RAcc.report(C.Layers);
    }
  });
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

/// Prints a readable table, then the result line (the last stdout line).
void printResult(Ctx &C) {
  std::vector<std::pair<const MetricDef *, double>> Out;
  if (!C.Cfg.Trace) {
    for (const MetricDef &D : endToEndMetrics())
      Out.push_back({&D, C.Untraced.get(D.Name, D.Of)});
  } else {
    C.Layers.add("hardware_threads", (double)std::thread::hardware_concurrency());
    C.Layers.add("trace.overhead_run_s", C.Traced.get("run_s", Stat::Low) -
                                             C.Untraced.get("run_s", Stat::Low));
    C.Layers.add("trace.overhead_compile_s",
                 C.Traced.get("compile_s", Stat::Low) -
                     C.Untraced.get("compile_s", Stat::Low));
    for (const MetricDef &D : perLayerMetrics())
      Out.push_back({&D, C.Layers.get(D.Name)});
    for (const auto &[Name, SelfTotal] : C.Spans.selfAndTotalNs())
      std::printf("span %-20s self %10.3f ms  total %10.3f ms\n", Name.c_str(),
                  ms(SelfTotal.first), ms(SelfTotal.second));
    std::string Path =
        std::string(PERFBENCH_SPANS_DIR) + "/spans-" + C.Cfg.Workload + ".jsonl";
    if (!C.Spans.write(Path))
      fatal("cannot write " + Path);
  }
  for (const auto &[D, V] : Out)
    std::printf("%-32s %16.6f %-6s %s\n", D->Name.c_str(), V, D->Unit,
                D->Moves);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              C.Failed ? "false" : "true", (unsigned long long)C.Attempted,
              (unsigned long long)C.Failed);
  for (size_t I = 0; I < Out.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", I ? ", " : "",
                Out[I].first->Name.c_str(), num(Out[I].second).c_str(),
                Out[I].first->Unit);
  std::printf("}}\n");
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "subjects|churn|serve|compile --seed N --seconds S --trace 0|1 "
               "[--smoke] [--corrupt-reference]\n",
               Why);
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  Config Cfg;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    if (A == "--workload")
      Cfg.Workload = Value();
    else if (A == "--seed")
      Cfg.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (A == "--seconds")
      Cfg.Seconds = std::atof(Value().c_str());
    else if (A == "--trace")
      Cfg.Trace = Value() == "1";
    else if (A == "--smoke")
      Cfg.Smoke = true;
    else if (A == "--corrupt-reference")
      Cfg.CorruptReference = true;
    else
      usage(("unknown argument " + A).c_str());
  }
  // Keep freed memory in the process. With glibc's defaults, the memory a
  // 2 MB compile frees goes back to the kernel, and the next compile takes
  // about 12,000 page faults (48 MB of fresh, kernel-zeroed pages) to get it
  // back. Zeroing is memory-bandwidth work that other guests on a shared
  // host slow down. In five interleaved pairs of 25 s compile runs in a busy
  // hour, compile_s spread over the five runs by 0.05 of its median with
  // these settings and by 0.20 without; in a quiet hour the two were alike.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);
  Ctx C;
  C.Cfg = Cfg;
  if (Cfg.Workload == "subjects")
    runSubjects(C);
  else if (Cfg.Workload == "churn")
    runChurn(C);
  else if (Cfg.Workload == "serve")
    runServe(C);
  else if (Cfg.Workload == "compile")
    runCompile(C);
  else
    usage("--workload must be subjects, churn, serve or compile");
  printResult(C);
  return C.Failed ? 1 : 0;
}
