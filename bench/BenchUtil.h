//===- bench/BenchUtil.h - Shared benchmark harness helpers ----*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table/per-figure benchmark binaries: repeated
/// execution under the three settings of section 6.4 (Go, GoFree,
/// Go-GCOff), ratio/p-value formatting, and run-count control via the
/// GOFREE_BENCH_RUNS environment variable (the paper uses 99 runs; the
/// default here is smaller so the full harness finishes quickly).
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_BENCH_BENCHUTIL_H
#define GOFREE_BENCH_BENCHUTIL_H

#include "compiler/Driver.h"
#include "support/Stats.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace gofree {
namespace bench {

/// Number of repetitions per setting (GOFREE_BENCH_RUNS, default 7).
inline int runCount() {
  if (const char *Env = std::getenv("GOFREE_BENCH_RUNS")) {
    int N = std::atoi(Env);
    if (N > 0)
      return N;
  }
  return 7;
}

/// Scales workload sizes (GOFREE_BENCH_SCALE percent, default 100).
inline int64_t scaledArg(int64_t Arg) {
  static int Scale = [] {
    if (const char *Env = std::getenv("GOFREE_BENCH_SCALE")) {
      int S = std::atoi(Env);
      if (S > 0)
        return S;
    }
    return 100;
  }();
  int64_t V = Arg * Scale / 100;
  return V > 0 ? V : 1;
}

/// Metrics of one execution, plus the sample across repetitions.
struct SettingSample {
  std::vector<double> TimeSec;
  std::vector<double> GcTimeSec; ///< Directly measured mark+sweep time.
  std::vector<double> GcCycles;
  std::vector<double> MaxHeap;
  std::vector<double> FreeRatio;
  rt::StatsSnapshot LastStats;
  uint64_t Checksum = 0;
};

/// The paper's three settings (section 6.4).
enum class Setting { Go, GoFree, GoGcOff };

inline const char *settingName(Setting S) {
  switch (S) {
  case Setting::Go: return "Go";
  case Setting::GoFree: return "GoFree";
  case Setting::GoGcOff: return "Go-GCOff";
  }
  return "?";
}

/// The driver flag strings for one setting: the same grammar the CLI and
/// the fuzz legs use, so a bench configuration can be replayed verbatim
/// with `gofree <these flags> run`.
inline std::vector<std::string> settingFlags(Setting S) {
  std::vector<std::string> Flags;
  Flags.push_back(S == Setting::GoFree ? "--mode=gofree" : "--mode=go");
  if (S == Setting::GoGcOff)
    Flags.push_back("--gc=gogc=-1");
  return Flags;
}

/// Compiles and runs \p W under \p S, \p Runs times.
inline SettingSample
runSetting(const workloads::Workload &W, Setting S, int Runs,
           const std::vector<int64_t> &ArgsOverride = {}) {
  compiler::driver::PipelineOptions P;
  std::string Err;
  if (!compiler::driver::parseFlags(settingFlags(S), P, &Err)) {
    std::fprintf(stderr, "bad setting flags: %s\n", Err.c_str());
    std::exit(1);
  }
  P.Entry = W.Entry;
  compiler::Compilation C = compiler::compile(W.Source, P.Compile);
  if (!C.ok()) {
    std::fprintf(stderr, "compile failed for %s:\n%s", W.Name.c_str(),
                 C.Errors.c_str());
    std::exit(1);
  }
  std::vector<int64_t> Args = ArgsOverride.empty() ? W.Args : ArgsOverride;
  for (int64_t &A : Args)
    A = scaledArg(A);
  SettingSample Out;
  for (int R = 0; R < Runs; ++R) {
    compiler::ExecOutcome O = compiler::execute(C, P.Entry, Args, P.Exec);
    if (!O.ok()) {
      std::fprintf(stderr, "run failed for %s: %s\n", W.Name.c_str(),
                   O.Error.c_str());
      std::exit(1);
    }
    Out.TimeSec.push_back(O.WallSeconds);
    Out.GcTimeSec.push_back((double)O.Stats.GcNanos * 1e-9);
    Out.GcCycles.push_back((double)O.Stats.GcCycles);
    Out.MaxHeap.push_back((double)O.Stats.PeakCommitted);
    Out.FreeRatio.push_back(O.Stats.freeRatio());
    Out.LastStats = O.Stats;
    Out.Checksum = O.Run.Checksum;
  }
  // The last run's give-up breakdown (table 9), on stderr so stdout keeps
  // the table alone. Built from counters already taken, outside the loop.
  const rt::StatsSnapshot &LS = Out.LastStats;
  std::fprintf(stderr, "[trace] %-20s %-8s tcfree %llu calls, %llu give-ups",
               W.Name.c_str(), settingName(S),
               (unsigned long long)LS.TcfreeCalls,
               (unsigned long long)LS.TcfreeGiveUps);
  for (int R = 0; R < trace::NumGiveUpReasons; ++R)
    if (LS.TcfreeGiveUpsByReason[R])
      std::fprintf(stderr, ", %s=%llu",
                   trace::giveUpReasonName((trace::GiveUpReason)R),
                   (unsigned long long)LS.TcfreeGiveUpsByReason[R]);
  std::fprintf(stderr, "\n");
  return Out;
}

/// mean(A)/mean(B) as a percentage, like the paper's "ratio" columns.
inline double ratioPct(const std::vector<double> &A,
                       const std::vector<double> &B) {
  Summary Sa = summarize(A), Sb = summarize(B);
  if (Sb.Mean == 0.0)
    return Sa.Mean == 0.0 ? 100.0 : 999.0;
  return 100.0 * Sa.Mean / Sb.Mean;
}

/// Relative stdev of A (in percent of its mean).
inline double stdevPct(const std::vector<double> &A) {
  Summary S = summarize(A);
  return S.Mean == 0.0 ? 0.0 : 100.0 * S.Stdev / S.Mean;
}

inline std::string fmtP(double P) {
  char Buf[32];
  if (P < 0.001)
    return "<0.001";
  std::snprintf(Buf, sizeof(Buf), "%.3f", P);
  return Buf;
}

} // namespace bench
} // namespace gofree

#endif // GOFREE_BENCH_BENCHUTIL_H
