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
//   gofree compare prog.minigo [args...]  run under Go and GoFree, diff stats
//   gofree dump prog.minigo               print analysis + instrumented code
//   gofree fuzz [--seed=S] [--count=N]    differential fuzzing campaign
//   gofree serve-sim [--requests=N] ...   open-loop request-serving harness
//
// Pipeline flags (before the command) are shared with every other front
// end through compiler::driver -- see `gofree` with no arguments for the
// list. CLI-only flags:
//   --stats               print runtime statistics after the run
//   --json                print one machine-readable JSON line per run
//   --trace-out=FILE      write the event trace as JSON-lines (for compare,
//                         FILE.go and FILE.gofree, one per leg)
//   --trace-summary       print an aggregated trace summary after the run
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
#include "workloads/ServeSim.h"

#include <cerrno>
#include <cmath>
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
               "  --stats                      print runtime statistics\n"
               "  --json                       one JSON line per run\n"
               "  --trace-out=FILE             write the JSONL event trace\n"
               "  --trace-summary              print a trace summary\n",
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

bool writeTrace(const std::string &Path, const trace::TraceHub &Hub,
                const char *Leg) {
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "gofree: cannot write trace to %s\n", Path.c_str());
    return false;
  }
  trace::writeJsonLines(Out, Hub.merge(), Hub.dropped(), Leg);
  return true;
}

void printStats(const rt::StatsSnapshot &S, double WallSeconds) {
  std::printf("--- runtime statistics ---\n");
  std::printf("wall time       %.4f s (GC %.4f s)\n", WallSeconds,
              S.GcNanos * 1e-9);
  std::printf("heap allocated  %.2f MB in %llu objects\n",
              S.AllocedBytes / 1048576.0, (unsigned long long)S.AllocCount);
  std::printf("tcfree          %llu calls, %llu give-ups, %.2f MB freed "
              "(ratio %.1f%%)\n",
              (unsigned long long)S.TcfreeCalls,
              (unsigned long long)S.TcfreeGiveUps,
              S.tcfreeFreedBytes() / 1048576.0, 100.0 * S.freeRatio());
  for (int R = 0; R < trace::NumGiveUpReasons; ++R)
    if (S.TcfreeGiveUpsByReason[R])
      std::printf("  give-up %-12s %llu\n",
                  trace::giveUpReasonName((trace::GiveUpReason)R),
                  (unsigned long long)S.TcfreeGiveUpsByReason[R]);
  std::printf("GC              %llu cycles, %.2f MB swept\n",
              (unsigned long long)S.GcCycles, S.GcSweptBytes / 1048576.0);
  std::printf("peak heap       %.2f MB committed, %.2f MB live\n",
              S.PeakCommitted / 1048576.0, S.PeakLive / 1048576.0);
}

/// Builds a trace summary from the exact runtime counters and pass times,
/// independent of ring-buffer capacity (a full buffer drops events; the
/// stats counters never do). Used by `compare`, whose diff must be exact.
trace::TraceSummary exactSummary(const rt::StatsSnapshot &S,
                                 const PassTimes &P) {
  trace::TraceSummary T;
  T.GcCycles = S.GcCycles;
  T.GcCyclesByKind[0] = S.GcMajorCycles;
  T.GcCyclesByKind[1] = S.GcZctDrains;
  T.GcCycleNanos = S.GcNanos;
  T.GcSweptBytes = S.GcSweptBytes;
  T.GiveUps = S.TcfreeGiveUps;
  for (int I = 0; I < trace::NumGiveUpReasons; ++I)
    T.GiveUpsByReason[I] = S.TcfreeGiveUpsByReason[I];
  for (int I = 0; I < rt::NumFreeSources; ++I) {
    T.TcfreeFreedCount += S.FreedCountBySource[I];
    T.TcfreeFreedBytes += S.FreedBytesBySource[I];
    T.FreedCountBySource[I] = S.FreedCountBySource[I];
    T.FreedBytesBySource[I] = S.FreedBytesBySource[I];
  }
  for (int I = 0; I < trace::NumPasses; ++I) {
    T.PassNanos[I] = P.Nanos[I];
    T.PassSeen[I] = P.Nanos[I] != 0;
  }
  return T;
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
                bool Stats, bool Json, bool TraceSummary,
                const std::string &TraceOut) {
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

  trace::TraceHub Hub;
  if (TraceSummary || !TraceOut.empty())
    SO.Hub = &Hub;
  const char *Leg = driver::legName(SO.Mode);
  workloads::ServeSimResult R = workloads::runServeSim(SO);
  if (!R.ok())
    std::fprintf(stderr, "gofree serve-sim: %s\n", R.Error.c_str());

  if (Json) {
    std::printf(
        "{\"tool\":\"serve-sim\",\"v\":1,\"leg\":\"%s\",\"seed\":%llu,"
        "\"gc\":{\"backend\":\"%s\"},\"requests\":%llu,\"workers\":%d,"
        "\"open_loop\":%s,\"offered_rps\":%.1f,\"achieved_rps\":%.1f,"
        "\"wall_s\":%.4f,"
        "\"latency_ns\":{\"p50\":%llu,\"p99\":%llu,\"p999\":%llu},"
        "\"stall_ns\":{\"p50\":%llu,\"p99\":%llu,\"p999\":%llu},"
        "\"alloc_stall\":{\"park_ns\":%llu,\"parks\":%llu,"
        "\"assist_ns\":%llu,\"tcfree_giveups\":%llu},"
        "\"gc_pause_us\":{\"p50\":%llu,\"p99\":%llu,\"p999\":%llu},"
        "\"gc_pauses\":%llu,\"checksum\":\"%016llx\",\"ok\":%s}\n",
        Leg, (unsigned long long)SO.Seed, R.GcBackend,
        (unsigned long long)R.Requests, SO.Workers,
        R.OpenLoop ? "true" : "false", SO.OfferedRps, R.AchievedRps,
        R.WallSeconds, (unsigned long long)R.latencyPercentileNs(0.50),
        (unsigned long long)R.latencyPercentileNs(0.99),
        (unsigned long long)R.latencyPercentileNs(0.999),
        (unsigned long long)R.stallPercentileNs(0.50),
        (unsigned long long)R.stallPercentileNs(0.99),
        (unsigned long long)R.stallPercentileNs(0.999),
        (unsigned long long)R.GcParkNanos, (unsigned long long)R.GcParks,
        (unsigned long long)R.GcAssistNanos,
        (unsigned long long)R.TcfreeGiveUps,
        (unsigned long long)R.Stats.pausePercentileUs(0.50),
        (unsigned long long)R.Stats.pausePercentileUs(0.99),
        (unsigned long long)R.Stats.pausePercentileUs(0.999),
        (unsigned long long)R.Stats.GcPauses,
        (unsigned long long)R.Checksum, R.ok() ? "true" : "false");
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
    std::printf("gc pause  p50 %8llu us   p99 %8llu us   p999 %8llu us "
                "(%llu pauses)\n",
                (unsigned long long)R.Stats.pausePercentileUs(0.50),
                (unsigned long long)R.Stats.pausePercentileUs(0.99),
                (unsigned long long)R.Stats.pausePercentileUs(0.999),
                (unsigned long long)R.Stats.GcPauses);
    std::printf("alloc stall: %.3f ms parked (%llu parks), %.3f ms assist, "
                "%llu tcfree give-ups\n",
                R.GcParkNanos * 1e-6, (unsigned long long)R.GcParks,
                R.GcAssistNanos * 1e-6, (unsigned long long)R.TcfreeGiveUps);
    std::printf("checksum %016llx\n", (unsigned long long)R.Checksum);
    if (Stats)
      printStats(R.Stats, R.WallSeconds);
  }
  if (!TraceOut.empty() && !writeTrace(TraceOut, Hub, Leg))
    return 1;
  if (TraceSummary)
    trace::printSummary(stdout, trace::summarize(Hub));
  return R.ok() ? 0 : 1;
}

int cmdFuzz(int Argc, char **Argv, int I) {
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
  bool TraceSummary = false;
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
    } else if (Flag == "--trace-summary") {
      TraceSummary = true;
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
    return cmdFuzz(Argc, Argv, I);
  if (Command == "serve-sim")
    return cmdServeSim(Argc, Argv, I, P, Stats, Json, TraceSummary, TraceOut);

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
  bool Tracing = TraceSummary || !TraceOut.empty();

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
    for (size_t S = 0; S < C.Analysis.SiteOnStack.size(); ++S)
      if (C.Analysis.SiteOnStack[S])
        std::printf("#%zu ", S);
    std::printf("\nmoved to heap: ");
    for (const minigo::VarDecl *V : C.Analysis.MovedToHeap)
      std::printf("%s ", V->Name.c_str());
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
      if (Stats)
        printStats(O.Stats, O.WallSeconds);
    }
    if (C.ok()) {
      if (!TraceOut.empty() && !writeTrace(TraceOut, Hub, Leg))
        return 1;
      if (TraceSummary)
        trace::printSummary(stdout, trace::summarize(Hub));
    }
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
    std::printf("%-9s %10s %12s %8s %9s %10s\n", "", "time", "alloc MB",
                "GCs", "free%", "peak MB");
    std::printf("%-9s %9.3fs %12.2f %8llu %8.1f%% %10.2f\n", "Go",
                OGo.WallSeconds, OGo.Stats.AllocedBytes / 1048576.0,
                (unsigned long long)OGo.Stats.GcCycles,
                100.0 * OGo.Stats.freeRatio(),
                OGo.Stats.PeakCommitted / 1048576.0);
    std::printf("%-9s %9.3fs %12.2f %8llu %8.1f%% %10.2f\n", "GoFree",
                OFree.WallSeconds, OFree.Stats.AllocedBytes / 1048576.0,
                (unsigned long long)OFree.Stats.GcCycles,
                100.0 * OFree.Stats.freeRatio(),
                OFree.Stats.PeakCommitted / 1048576.0);
    // The diff below comes from the exact stats counters (not the bounded
    // event ring), so it is right even when the trace dropped events.
    trace::printSummaryDiff(stdout, "Go", exactSummary(OGo.Stats, Go.Passes),
                            "GoFree", exactSummary(OFree.Stats, Free.Passes));
    if (Json) {
      std::printf("%s\n", driver::outcomeJson(OGo, "go").c_str());
      std::printf("%s\n", driver::outcomeJson(OFree, "gofree").c_str());
    }
    if (!TraceOut.empty() &&
        !(writeTrace(TraceOut + ".go", GoHub, "go") &&
          writeTrace(TraceOut + ".gofree", FreeHub, "gofree")))
      return 1;
    if (TraceSummary) {
      std::printf("--- Go trace summary ---\n");
      trace::printSummary(stdout, trace::summarize(GoHub));
      std::printf("--- GoFree trace summary ---\n");
      trace::printSummary(stdout, trace::summarize(FreeHub));
    }
    std::printf("checksums %s\n", Same ? "match" : "DIFFER (bug!)");
    return Same ? 0 : 1;
  }

  return usage();
}
