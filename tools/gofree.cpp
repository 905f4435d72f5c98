//===- tools/gofree.cpp - Command-line driver ------------------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// The `gofree` command: compile and run a MiniGo file under the stock-Go or
// GoFree pipeline, with the runtime knobs exposed as flags. The closest
// analogue of invoking the paper's modified Go toolchain.
//
//   gofree run prog.minigo [args...]      compile with GoFree and run main
//   gofree compare prog.minigo [args...]  run under Go and GoFree, side by side
//   gofree dump prog.minigo               print analysis + instrumented code
//   gofree fuzz [--seed=S] [--count=N]    differential fuzzing campaign
//   gofree serve-sim [--requests=N] ...   open-loop request-serving harness
//
// Pipeline flags (before the command) are shared with every other front
// end through compiler::driver -- see `gofree` with no arguments for the
// list. CLI-only flags:
//   --stats               print the counters report after the run (compare
//                         always prints it, one column per leg); in a
//                         -DGOFREE_VM_PROFILE=ON build, `run` and `fuzz`
//                         then also print the `vm.ops` table
//   --json                print only the JSON run record, one line per run
//   --trace-out=FILE      write the event trace as JSON-lines (for compare,
//                         FILE.go and FILE.gofree, one per leg)
//
// Every report comes from the runtime's exact counters (rt::StatsSnapshot)
// and the compile-pass times: the text report and the JSON run record
// (driver::outcomeJson) show the same numbers. The event trace is a
// separate, bounded stream; events a full ring drops are reported on
// stderr.
//
// Exit codes: 0 on success, 1 when the program fails (frontend error,
// runtime fault, panic, fuel, heap-invariant violation -- anything that
// makes ExecOutcome::ok() false), 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "compiler/Driver.h"
#include "escape/Diagnostics.h"
#include "fuzz/Fuzzer.h"
#include "minigo/AstPrinter.h"
#include "support/Trace.h"
#include "vm/Vm.h"
#include "workloads/ServeSim.h"

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace gofree;
using namespace gofree::compiler;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: gofree [flags] run|compare|dump <file> [int args...]\n"
               "       gofree fuzz [--seed=S] [--count=N] [--threads=T] "
               "[--no-reduce]\n"
               "       gofree [flags] serve-sim [--requests=N] [--rps=R] "
               "[--workers=W]\n"
               "           [--sessions=N] [--slots=N] [--theta=T] "
               "[--profile=P] [--seed=S]\n"
               "pipeline flags (shared with the bench binaries):\n%s"
               "cli flags:\n"
               "  --stats                      print the counters report\n"
               "  --json                       one JSON run record per run\n"
               "  --trace-out=FILE             write the JSONL event trace\n",
               driver::usageText().c_str());
  return 2;
}

/// Reads \p Path into \p Out. Opens in binary mode (no newline mangling;
/// byte-exact sources make fuzz reproducers portable) and rejects
/// non-regular files up front: reading a directory used to yield an empty
/// source and a baffling "missing entry function" error downstream.
bool readFile(const std::string &Path, std::string &Out, std::string &Err) {
  std::error_code Ec;
  std::filesystem::file_status St = std::filesystem::status(Path, Ec);
  if (Ec || !std::filesystem::exists(St)) {
    Err = "cannot open " + Path + ": no such file";
    return false;
  }
  if (!std::filesystem::is_regular_file(St)) {
    Err = "cannot read " + Path + ": not a regular file";
    return false;
  }
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Err = "cannot open " + Path;
    return false;
  }
  std::stringstream Ss;
  Ss << In.rdbuf();
  if (In.bad()) {
    Err = "I/O error reading " + Path;
    return false;
  }
  Out = Ss.str();
  return true;
}

/// Routes a leg's compile-pass events and every mutator's runtime events
/// into \p Hub, so they share one timeline.
void traceInto(driver::PipelineOptions &P, trace::TraceHub &Hub) {
  P.Compile.Trace = Hub.makeSink();
  P.Exec.Hub = &Hub;
}

/// Writes \p Hub's merged events to \p Path, and names on stderr every
/// sink whose ring filled: its thread's events are missing from the file.
bool writeTrace(const std::string &Path, const trace::TraceHub &Hub,
                const char *Leg) {
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "gofree: cannot write trace to %s\n", Path.c_str());
    return false;
  }
  trace::writeJsonLines(Out, Hub.merge(), Hub.dropped(), Leg);
  std::vector<uint64_t> Dropped = Hub.droppedBySink();
  for (size_t I = 0; I < Dropped.size(); ++I)
    if (Dropped[I])
      std::fprintf(stderr,
                   "gofree: %s: trace sink %zu dropped %llu events (ring "
                   "full)\n",
                   Path.c_str(), I, (unsigned long long)Dropped[I]);
  return true;
}

/// printf into a std::string (report cells and JSON fragments).
__attribute__((format(printf, 1, 2))) std::string format(const char *Fmt,
                                                         ...) {
  va_list Ap, Again;
  va_start(Ap, Fmt);
  va_copy(Again, Ap);
  std::string Out((size_t)std::vsnprintf(nullptr, 0, Fmt, Ap), '\0');
  va_end(Ap);
  std::vsnprintf(Out.data(), Out.size() + 1, Fmt, Again);
  va_end(Again);
  return Out;
}

/// One row of the counters report, in one run's column.
struct ReportRow {
  std::string Label, Cell;
  bool Show; ///< Headline row, or a breakdown row with a non-zero count.
};

/// The counters report of one run: every row from the exact counters and,
/// when the run compiled one program, its pass times (serve-sim compiles
/// its handlers inside the harness, so it passes none). Every run yields
/// the same rows in the same order.
std::vector<ReportRow> reportRows(const rt::StatsSnapshot &S, double Wall,
                                  const PassTimes *Passes) {
  std::vector<ReportRow> R;
  auto N = [](uint64_t V) { return (unsigned long long)V; };
  auto Count = [&](std::string Label, bool Show, uint64_t V) {
    R.push_back({std::move(Label), format("%llu", N(V)), Show});
  };
  auto CountBytes = [&](std::string Label, bool Show, uint64_t V, uint64_t B) {
    R.push_back({std::move(Label), format("%llu (%llu B)", N(V), N(B)), Show});
  };
  auto Ms = [&](std::string Label, bool Show, uint64_t Nanos) {
    R.push_back({std::move(Label), format("%.3f", Nanos * 1e-6), Show});
  };

  R.push_back({"wall time (s)", format("%.4f", Wall), true});
  Count("gc cycles", true, S.GcCycles);
  // The per-kind split only says something when the rc backend drained.
  bool Drained = S.GcZctDrains != 0;
  Count("  full", Drained, S.GcMajorCycles);
  Count("  zct-drain", Drained, S.GcZctDrains);
  Count("gc concurrent cycles", true, S.GcConcCycles);
  Ms("gc time (ms)", true, S.GcNanos);
  Ms("gc mark time (ms)", true, S.GcMarkNanos);
  Ms("gc pause time (ms)", true, S.GcPauseNanos);
  Count("gc pauses", true, S.GcPauses);
  R.push_back({"gc pause p50/p99/p999 us",
               format("%llu/%llu/%llu", N(S.pausePercentileUs(0.50)),
                      N(S.pausePercentileUs(0.99)),
                      N(S.pausePercentileUs(0.999))),
               true});
  CountBytes("gc assists", true, S.GcAssists, S.GcAssistBytes);
  Count("gc swept bytes", true, S.GcSweptBytes);
  Count("gc lazily swept spans", true, S.GcSpansSweptLazy);

  CountBytes("heap allocated", true, S.AllocCount, S.AllocedBytes);
  for (int C = 0; C < rt::NumAllocCats; ++C) {
    std::string Cat = trace::allocCatName((uint8_t)C);
    Count("  alloc " + Cat + " heap", S.AllocCountByCat[C] != 0,
          S.AllocCountByCat[C]);
    Count("  alloc " + Cat + " stack", S.StackAllocCountByCat[C] != 0,
          S.StackAllocCountByCat[C]);
  }
  R.push_back({"peak committed (MB)",
               format("%.2f", S.PeakCommitted / 1048576.0), true});
  R.push_back({"peak live (MB)", format("%.2f", S.PeakLive / 1048576.0), true});

  Count("tcfree calls", true, S.TcfreeCalls);
  uint64_t Freed = 0;
  for (uint64_t F : S.FreedCountBySource)
    Freed += F;
  CountBytes("tcfree freed", true, Freed, S.tcfreeFreedBytes());
  for (int F = 0; F < rt::NumFreeSources; ++F)
    CountBytes(std::string("  freed ") + trace::freeSourceName((uint8_t)F),
               S.FreedCountBySource[F] != 0, S.FreedCountBySource[F],
               S.FreedBytesBySource[F]);
  Count("tcfree give-ups", true, S.TcfreeGiveUps);
  for (int G = 0; G < trace::NumGiveUpReasons; ++G)
    Count(std::string("  give-up ") +
              trace::giveUpReasonName((trace::GiveUpReason)G),
          S.TcfreeGiveUpsByReason[G] != 0, S.TcfreeGiveUpsByReason[G]);
  R.push_back({"free ratio", format("%.1f%%", 100.0 * S.freeRatio()), true});

  for (int P = 0; P < trace::NumPasses; ++P) {
    uint64_t Ns = Passes ? Passes->Nanos[P] : 0;
    Ms(std::string("pass ") + trace::passName((trace::Pass)P) + " (ms)",
       Ns != 0, Ns);
  }
  return R;
}

/// Prints the counters report, one named column of reportRows per run:
/// `--stats` (one column) and `compare` (two). Every number is an exact
/// counter, so it holds even when the trace ring dropped events. A row
/// shows when any column shows it.
void printReport(
    const std::vector<std::pair<const char *, std::vector<ReportRow>>> &Cols) {
  std::printf("%-26s", "--- counters ---");
  for (const auto &[Name, Rows] : Cols)
    std::printf(" %22s", Name);
  std::printf("\n");
  for (size_t I = 0; I < Cols[0].second.size(); ++I) {
    bool Show = false;
    for (const auto &Col : Cols)
      Show |= Col.second[I].Show;
    if (!Show)
      continue;
    std::printf("%-26s", Cols[0].second[I].Label.c_str());
    for (const auto &Col : Cols)
      std::printf(" %22s", Col.second[I].Cell.c_str());
    std::printf("\n");
  }
}

/// In a GOFREE_VM_PROFILE build, prints the `vm.ops` table of every VM run
/// of this process; its dispatch total equals the runs' steps.
void printOpProfile() {
  if (vm::OpProfileEnabled)
    std::printf("%s", vm::formatOpProfile(vm::opProfile()).c_str());
}

/// Parses the decimal integer after \p Prefix characters of \p Flag; \p Ok
/// is false for trailing junk, an empty value or one outside int64.
int64_t parseCliInt(const std::string &Flag, size_t Prefix, bool &Ok) {
  char *End = nullptr;
  const char *S = Flag.c_str() + Prefix;
  errno = 0;
  int64_t V = std::strtoll(S, &End, 10);
  Ok = End != S && *End == '\0' && errno != ERANGE;
  return V;
}

double parseCliDouble(const std::string &Flag, size_t Prefix, bool &Ok) {
  char *End = nullptr;
  const char *S = Flag.c_str() + Prefix;
  double V = std::strtod(S, &End);
  Ok = End != S && *End == '\0';
  return V;
}

/// `gofree serve-sim`: the open-loop request-serving harness (tail-latency
/// SLOs). Pipeline flags before the command pick the mode and collector;
/// the flags here shape the workload.
int cmdServeSim(int Argc, char **Argv, int I, driver::PipelineOptions P,
                bool Stats, bool Json, const std::string &TraceOut) {
  workloads::ServeSimOptions SO;
  SO.Mode = P.Compile.Mode;
  SO.Heap = P.Exec.Heap;
  if (P.Exec.NumThreads > 1)
    SO.Workers = P.Exec.NumThreads;
  for (; I < Argc; ++I) {
    std::string Flag = Argv[I];
    bool Ok = false;
    if (Flag.rfind("--requests=", 0) == 0) {
      int64_t V = parseCliInt(Flag, 11, Ok);
      if (!Ok || V < 1)
        return usage();
      SO.Requests = (uint64_t)V;
    } else if (Flag.rfind("--rps=", 0) == 0) {
      // 0 means closed-loop; NaN/inf would print invalid JSON and a
      // negative rate would silently mean closed-loop too.
      double V = parseCliDouble(Flag, 6, Ok);
      if (!Ok || !std::isfinite(V) || V < 0)
        return usage();
      SO.OfferedRps = V;
    } else if (Flag.rfind("--workers=", 0) == 0) {
      int64_t V = parseCliInt(Flag, 10, Ok);
      if (!Ok || V < 1 || V > 256)
        return usage();
      SO.Workers = (int)V;
    } else if (Flag.rfind("--sessions=", 0) == 0) {
      int64_t V = parseCliInt(Flag, 11, Ok);
      if (!Ok || V < 1)
        return usage();
      SO.Sessions = (uint64_t)V;
    } else if (Flag.rfind("--slots=", 0) == 0) {
      int64_t V = parseCliInt(Flag, 8, Ok);
      if (!Ok || V < 1)
        return usage();
      SO.CacheSlots = (uint64_t)V;
    } else if (Flag.rfind("--theta=", 0) == 0) {
      double V = parseCliDouble(Flag, 8, Ok);
      if (!Ok || !std::isfinite(V) || V <= 0 || V >= 1)
        return usage();
      SO.ZipfTheta = V;
    } else if (Flag.rfind("--profile=", 0) == 0) {
      SO.Profile = Flag.substr(10);
      if (SO.Profile != "hugo" && SO.Profile != "gojson" &&
          SO.Profile != "badger" && SO.Profile != "mix")
        return usage();
    } else if (Flag.rfind("--seed=", 0) == 0) {
      int64_t V = parseCliInt(Flag, 7, Ok);
      if (!Ok || V < 0)
        return usage();
      SO.Seed = (uint64_t)V;
    } else {
      std::fprintf(stderr, "gofree serve-sim: unknown flag '%s'\n",
                   Flag.c_str());
      return usage();
    }
  }
  // Refused like `--gc=rc --num-threads=N`: a usage error, before any run.
  if (!rt::gcServesMutators(SO.Heap.Gc.Backend, SO.Workers)) {
    std::fprintf(stderr, "gofree serve-sim: %s\n",
                 rt::gcMutatorsError(SO.Heap.Gc.Backend, SO.Workers).c_str());
    return 2;
  }

  trace::TraceHub Hub;
  if (!TraceOut.empty())
    SO.Hub = &Hub;
  const char *Leg = driver::legName(SO.Mode);
  workloads::ServeSimResult R = workloads::runServeSim(SO);
  if (!R.ok())
    std::fprintf(stderr, "gofree serve-sim: %s\n", R.Error.c_str());

  if (Json) {
    // The run record every command prints, plus what only serving has.
    ExecOutcome O;
    O.Run.Checksum = R.Checksum;
    O.Run.SinkCount = R.Sinks;
    O.Run.Steps = R.Steps;
    O.Stats = R.Stats;
    O.GcBackend = R.GcBackend;
    O.WallSeconds = R.WallSeconds;
    O.Error = R.Error;
    auto Pct = [&](const std::vector<uint64_t> &V, double Q) {
      return (unsigned long long)R.percentileNs(V, Q);
    };
    std::string Serve = format(
        "\"serve\":{\"seed\":%llu,\"requests\":%llu,\"workers\":%d,"
        "\"open_loop\":%s,\"offered_rps\":%.1f,\"achieved_rps\":%.1f,"
        "\"latency_ns\":{\"p50\":%llu,\"p99\":%llu,\"p999\":%llu},"
        "\"stall_ns\":{\"p50\":%llu,\"p99\":%llu,\"p999\":%llu},"
        "\"alloc_stall\":{\"park_ns\":%llu,\"parks\":%llu,"
        "\"assist_ns\":%llu,\"tcfree_giveups\":%llu}}",
        (unsigned long long)SO.Seed, (unsigned long long)R.Requests,
        SO.Workers, R.OpenLoop ? "true" : "false", SO.OfferedRps,
        R.AchievedRps, Pct(R.LatencyNs, 0.50), Pct(R.LatencyNs, 0.99),
        Pct(R.LatencyNs, 0.999), Pct(R.StallNs, 0.50), Pct(R.StallNs, 0.99),
        Pct(R.StallNs, 0.999), (unsigned long long)R.GcParkNanos,
        (unsigned long long)R.GcParks, (unsigned long long)R.GcAssistNanos,
        (unsigned long long)R.TcfreeGiveUps);
    std::printf("%s\n", driver::outcomeJson(O, Leg, Serve).c_str());
  } else {
    std::printf("serve-sim: %llu requests on %d workers, %s",
                (unsigned long long)R.Requests, SO.Workers,
                R.OpenLoop ? "open-loop" : "closed-loop");
    if (R.OpenLoop)
      std::printf(" @ %.1f rps offered", SO.OfferedRps);
    std::printf(" (%.1f rps achieved, %.3f s)\n", R.AchievedRps,
                R.WallSeconds);
    std::printf("mode %s, backend %s, seed %llu, profile %s\n", Leg,
                R.GcBackend, (unsigned long long)SO.Seed,
                SO.Profile.c_str());
    std::printf("latency   p50 %8.3f ms   p99 %8.3f ms   p999 %8.3f ms\n",
                R.latencyPercentileNs(0.50) * 1e-6,
                R.latencyPercentileNs(0.99) * 1e-6,
                R.latencyPercentileNs(0.999) * 1e-6);
    std::printf("stall     p50 %8.3f ms   p99 %8.3f ms   p999 %8.3f ms\n",
                R.stallPercentileNs(0.50) * 1e-6,
                R.stallPercentileNs(0.99) * 1e-6,
                R.stallPercentileNs(0.999) * 1e-6);
    std::printf("alloc stall: %.3f ms parked (%llu parks), %.3f ms assist, "
                "%llu tcfree give-ups\n",
                R.GcParkNanos * 1e-6, (unsigned long long)R.GcParks,
                R.GcAssistNanos * 1e-6, (unsigned long long)R.TcfreeGiveUps);
    std::printf("checksum %016llx\n", (unsigned long long)R.Checksum);
    if (Stats)
      printReport({{Leg, reportRows(R.Stats, R.WallSeconds, nullptr)}});
  }
  if (!TraceOut.empty() && !writeTrace(TraceOut, Hub, Leg))
    return 1;
  return R.ok() ? 0 : 1;
}

int cmdFuzz(int Argc, char **Argv, int I, bool Stats) {
  fuzz::FuzzOptions FO;
  FO.Out = stdout;
  for (; I < Argc; ++I) {
    std::string Flag = Argv[I];
    bool Ok = false;
    if (Flag.rfind("--seed=", 0) == 0) {
      int64_t V = parseCliInt(Flag, 7, Ok);
      if (!Ok || V < 0)
        return usage();
      FO.Seed = (uint64_t)V;
    } else if (Flag.rfind("--count=", 0) == 0) {
      int64_t V = parseCliInt(Flag, 8, Ok);
      if (!Ok || V < 1)
        return usage();
      FO.Count = (int)V;
    } else if (Flag.rfind("--threads=", 0) == 0) {
      int64_t V = parseCliInt(Flag, 10, Ok);
      if (!Ok || V < 0 || V > 64)
        return usage();
      FO.MtThreads = (int)V;
    } else if (Flag == "--no-reduce") {
      FO.Reduce = false;
    } else {
      std::fprintf(stderr, "gofree fuzz: unknown flag '%s'\n", Flag.c_str());
      return usage();
    }
  }
  fuzz::FuzzReport R = fuzz::runFuzz(FO);
  if (Stats)
    printOpProfile();
  if (!R.ok()) {
    std::fprintf(stderr, "gofree fuzz: seed %llu failed: %s\n",
                 (unsigned long long)R.FailingSeed, R.Failure.c_str());
    return 1;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  driver::PipelineOptions P;
  bool Stats = false;
  bool Json = false;
  std::string TraceOut;

  int I = 1;
  for (; I < Argc && std::strncmp(Argv[I], "--", 2) == 0; ++I) {
    std::string Flag = Argv[I];
    std::string Err;
    driver::FlagParse FP = driver::parseFlag(Flag, P, &Err);
    if (FP == driver::FlagParse::Ok)
      continue;
    if (FP == driver::FlagParse::Invalid) {
      std::fprintf(stderr, "gofree: %s\n", Err.c_str());
      return 2;
    }
    // Unknown to the shared grammar: one of the CLI-layer flags.
    if (Flag == "--stats") {
      Stats = true;
    } else if (Flag == "--json") {
      Json = true;
    } else if (Flag.rfind("--trace-out=", 0) == 0) {
      TraceOut = Flag.substr(12);
      if (TraceOut.empty())
        return usage();
    } else {
      std::fprintf(stderr, "gofree: unknown flag '%s'\n", Flag.c_str());
      return usage();
    }
  }
  if (Argc - I < 1)
    return usage();
  std::string Command = Argv[I++];

  if (Command == "fuzz")
    return cmdFuzz(Argc, Argv, I, Stats);
  if (Command == "serve-sim")
    return cmdServeSim(Argc, Argv, I, P, Stats, Json, TraceOut);

  if (Argc - I < 1)
    return usage();
  std::string Path = Argv[I++];
  std::vector<int64_t> Args;
  for (; I < Argc; ++I) {
    bool Ok = false;
    Args.push_back(parseCliInt(Argv[I], 0, Ok));
    if (!Ok) {
      std::fprintf(stderr, "gofree: bad program argument '%s'\n", Argv[I]);
      return usage();
    }
  }
  bool Tracing = !TraceOut.empty();

  std::string Source, ReadErr;
  if (!readFile(Path, Source, ReadErr)) {
    std::fprintf(stderr, "gofree: %s\n", ReadErr.c_str());
    return 1;
  }

  if (Command == "dump") {
    Compilation C = compile(Source, P.Compile);
    if (!C.ok()) {
      std::fprintf(stderr, "%s", C.Errors.c_str());
      return 1;
    }
    std::printf("tcfree inserted: %u slice, %u map, %u object "
                "(%u skipped at unsafe tails)\n",
                C.Instr.SliceFrees, C.Instr.MapFrees, C.Instr.ObjectFrees,
                C.Instr.SkippedUnsafeTail);
    std::printf("stack sites: ");
    for (uint32_t S : escape::stackSiteIds(*C.Prog, C.Analysis))
      std::printf("#%u ", S);
    std::printf("\nmoved to heap: ");
    for (const minigo::FuncDecl *Fn : C.Prog->Funcs)
      for (const minigo::VarDecl *V : Fn->AllVars)
        if (V->MovedToHeap)
          std::printf("%.*s ", (int)V->Name.size(), V->Name.data());
    std::printf("\n\n--- escape diagnostics (-m) ---\n%s",
                escape::renderEscapeDiagnostics(*C.Prog, C.Analysis).c_str());
    std::printf("\n--- instrumented program ---\n%s",
                minigo::printProgram(*C.Prog).c_str());
    return 0;
  }

  if (Command == "run") {
    const char *Leg = driver::legName(P.Compile.Mode);
    trace::TraceHub Hub;
    if (Tracing)
      traceInto(P, Hub);
    Compilation C;
    ExecOutcome O = driver::compileAndRun(Source, P, Args, &C);
    if (Json) {
      std::printf("%s\n", driver::outcomeJson(O, Leg).c_str());
    } else if (!C.ok()) {
      std::fprintf(stderr, "%s", C.Errors.c_str());
    } else {
      if (O.Run.Panicked)
        std::printf("panic: %lld\n", (long long)O.Run.PanicValue);
      else if (!O.ok())
        std::fprintf(stderr, "gofree: %s\n", O.Error.c_str());
      std::printf("checksum %016llx over %llu sink() calls\n",
                  (unsigned long long)O.Run.Checksum,
                  (unsigned long long)O.Run.SinkCount);
      if (Stats) {
        printReport({{Leg, reportRows(O.Stats, O.WallSeconds, &C.Passes)}});
        if (vm::OpProfileEnabled)
          std::printf("vm.steps %llu\n", (unsigned long long)O.Run.Steps);
        printOpProfile();
      }
    }
    if (C.ok() && Tracing && !writeTrace(TraceOut, Hub, Leg))
      return 1;
    return O.ok() ? 0 : 1;
  }

  if (Command == "compare") {
    driver::PipelineOptions GoP = P, FreeP = P;
    GoP.Compile.Mode = CompileMode::Go;
    FreeP.Compile.Mode = CompileMode::GoFree;
    // One hub per leg: sharing one across the legs would let the first
    // run contaminate the second's report.
    trace::TraceHub GoHub, FreeHub;
    if (Tracing) {
      traceInto(GoP, GoHub);
      traceInto(FreeP, FreeHub);
    }
    Compilation Go, Free;
    ExecOutcome OGo = driver::compileAndRun(Source, GoP, Args, &Go);
    ExecOutcome OFree = driver::compileAndRun(Source, FreeP, Args, &Free);
    if (!Go.ok() || !Free.ok()) {
      std::fprintf(stderr, "%s", (Go.ok() ? Free : Go).Errors.c_str());
      return 1;
    }
    if (!OGo.ok() || !OFree.ok()) {
      std::fprintf(stderr, "gofree: %s leg: %s\n",
                   OGo.ok() ? "gofree" : "go",
                   (OGo.ok() ? OFree : OGo).Error.c_str());
      return 1;
    }
    bool Same = OGo.Run.Checksum == OFree.Run.Checksum;
    if (Json) {
      std::printf("%s\n", driver::outcomeJson(OGo, "go").c_str());
      std::printf("%s\n", driver::outcomeJson(OFree, "gofree").c_str());
    } else {
      printReport({{"Go", reportRows(OGo.Stats, OGo.WallSeconds, &Go.Passes)},
                   {"GoFree", reportRows(OFree.Stats, OFree.WallSeconds,
                                         &Free.Passes)}});
      std::printf("checksums %s\n", Same ? "match" : "DIFFER (bug!)");
    }
    if (Tracing && !(writeTrace(TraceOut + ".go", GoHub, "go") &&
                     writeTrace(TraceOut + ".gofree", FreeHub, "gofree")))
      return 1;
    return Same ? 0 : 1;
  }

  return usage();
}
