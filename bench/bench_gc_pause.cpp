//===- bench/bench_gc_pause.cpp - Parallel mark & lazy sweep pauses -------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Three measurements of the collector's pause work, straight against the
// heap (no interpreter in the timed region):
//
//   1. Mark scaling: wall time of the mark phase over a fixed retained
//      graph as the mark worker count (GcConfig::Workers, the CLI's
//      --gc=workers=N) goes 1 -> 2 -> 4. The graph is many medium
//      chains, so the workers have independent roots to partition and
//      chunks to steal.
//
//   2. Pause comparison: the same paced garbage-churn workload under
//      serial eager sweeping (workers=1, sweep inside the pause) and
//      under parallel lazy sweeping (workers=4, sweep deferred to
//      allocation). The stop-the-world window is the paper's cost; lazy
//      sweeping moves the sweep out of it, so max pause must drop.
//
//   3. Pause scaling: max pause of fully-STW marking vs concurrent
//      tricolor marking as the retained heap grows 10x with the root
//      count held constant. STW pauses contain the whole live-heap walk
//      and must grow ~linearly; concurrent-mark pauses contain only the
//      two flips (root scan + residual drain), so they must stay within
//      a small factor of their 1x value -- the "pauses bounded by root
//      scan, not live heap" claim, checked in CI by
//      GcBackendsTest.ConcurrentMarkPausesStayBelowEagerStw. A cycle
//      opens its concurrent window only when another mutator can run in
//      it, so both legs run a second mutator that allocates garbage
//      throughout (and both wait for it to reach a safepoint at every
//      stop). Sections 1 and 2 run one mutator, so every cycle there is
//      one pause.
//
// GOFREE_BENCH_THREADS=N widens the mark-scaling worker sweep to N (the
// points become 1, 2, N), deliberately allowing oversubscription; when N
// exceeds the hardware threads the JSON flags scaling_valid=false so a
// timesharing ~1.0x is not misread as a scaling regression.
//
// Honesty note (same as bench_mt_contention): mark *scaling* can only
// show up when hardware threads exist. On a single-core host the workers
// timeshare one CPU and the expected ratio is ~1.0x minus coordination
// overhead; the pause win from lazy sweeping survives even there, because
// it is about doing less work inside the window, not doing it faster.
// The harness records hardware_threads so results read accordingly.
//
// --json prints a machine-readable summary (tools/check.sh bench pipes it
// into BENCH_gc_pause.json).
//
//===----------------------------------------------------------------------===//

#include "../tests/SecondMutator.h"
#include "runtime/Heap.h"
#include "runtime/TypeDesc.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace gofree;
using namespace gofree::rt;

namespace {

/// {3 payload words, next}: one chain node.
const TypeDesc *chainDesc() {
  static const TypeDesc D{"chain", 32, false, nullptr, {{24, SlotKind::Raw}}};
  return &D;
}

class Retained : public RootScanner {
public:
  std::vector<uintptr_t> Heads;
  void scanRoots(Heap &H) override {
    for (uintptr_t A : Heads)
      H.gcMarkAddr(A);
  }
};

void buildGraph(Heap &H, Retained &R, size_t NumChains, size_t ChainLen) {
  for (size_t C = 0; C < NumChains; ++C) {
    uintptr_t Head = 0;
    for (size_t I = 0; I < ChainLen; ++I) {
      uintptr_t N = H.allocate(32, chainDesc(), AllocCat::Other, 0);
      if (!N)
        std::abort();
      std::memcpy(reinterpret_cast<void *>(N + 24), &Head, 8);
      Head = N;
    }
    R.Heads.push_back(Head);
  }
}

struct MarkPoint {
  int Workers;
  double MarkMsAvg;   ///< Mean mark wall time per cycle.
  uint64_t Objects;   ///< Retained objects traced per cycle.
};

/// Forced cycles over a fixed retained graph: GcMarkNanos isolates the
/// mark phase (sweeping finds nothing to do -- nothing died).
MarkPoint measureMark(int Workers, size_t NumChains, size_t ChainLen,
                      int Cycles) {
  HeapOptions O;
  O.Gc.Workers = Workers;
  O.Gc.MinHeapTrigger = 1ull << 30; // Only forced cycles, no pacer noise.
  Heap H(O);
  Retained R;
  H.addRootScanner(&R);
  buildGraph(H, R, NumChains, ChainLen);
  H.runGc(); // Warm-up: spawns the worker pool, faults in mark bits.
  uint64_t Before = H.stats().GcMarkNanos.load();
  for (int I = 0; I < Cycles; ++I)
    H.runGc();
  uint64_t Nanos = H.stats().GcMarkNanos.load() - Before;
  MarkPoint P;
  P.Workers = Workers;
  P.MarkMsAvg = (double)Nanos * 1e-6 / Cycles;
  P.Objects = (uint64_t)NumChains * ChainLen;
  return P;
}

struct PausePoint {
  const char *Name;
  uint64_t Cycles;
  double MaxPauseMs;
  double AvgPauseMs;
  uint64_t SpansSweptLazy;
  uint64_t Hist[NumPauseBuckets];
};

/// Paced garbage churn against a retained graph. Every configuration runs
/// the identical allocation script; only the collector config differs.
PausePoint measurePause(const char *Name, int Workers, bool Eager,
                        size_t Churn) {
  HeapOptions O;
  O.Gc.Workers = Workers;
  O.Gc.EagerSweep = Eager;
  // A small retained graph and a high trigger: each cycle marks little but
  // has megabytes of dead spans to sweep, which is exactly the work lazy
  // sweeping evicts from the pause window.
  O.Gc.MinHeapTrigger = 8ull << 20;
  Heap H(O);
  Retained R;
  H.addRootScanner(&R);
  buildGraph(H, R, /*NumChains=*/32, /*ChainLen=*/512); // ~0.5 MiB retained.
  for (size_t I = 0; I < Churn; ++I) {
    size_t Bytes = 64 + (I % 8) * 64;
    if (!H.allocate(Bytes, nullptr, AllocCat::Other, 0))
      std::abort();
  }
  StatsSnapshot S = H.stats().snap();
  PausePoint P;
  P.Name = Name;
  P.Cycles = S.GcCycles;
  P.MaxPauseMs = (double)S.GcMaxPauseNanos * 1e-6;
  P.AvgPauseMs = S.GcCycles ? (double)S.GcPauseNanos * 1e-6 / S.GcCycles : 0;
  P.SpansSweptLazy = S.GcSpansSweptLazy;
  for (int B = 0; B < NumPauseBuckets; ++B)
    P.Hist[B] = S.GcPauseHist[B];
  return P;
}

struct ScalePoint {
  uint64_t RetainedBytes;
  uint64_t Cycles;
  uint64_t ConcCycles;
  double MaxPauseMs;
};

/// Max pause over paced cycles against a retained graph of \p NumChains
/// roots x \p ChainLen nodes, with a second mutator running throughout.
/// Root count is the caller's to hold constant while ChainLen scales the
/// live heap.
ScalePoint measureScale(bool Conc, size_t NumChains, size_t ChainLen,
                        size_t Churn) {
  HeapOptions O;
  O.Gc.Concurrent = Conc;
  O.Gc.EagerSweep = !Conc; // Baseline = the classic eager STW collector.
  O.Gc.MinHeapTrigger = 256 << 10;
  Heap H(O);
  Retained R;
  H.addRootScanner(&R);
  Heap::MutatorScope Scope(H, 0);
  SecondMutator Other(H, 1);
  buildGraph(H, R, NumChains, ChainLen);
  // Churn paced cycles at full heap size; the pacer retriggers at ~2x the
  // marked live set, so every cycle marks the whole retained graph.
  uint64_t Until = H.stats().GcCycles.load() + 4;
  size_t I = 0;
  while (H.stats().GcCycles.load() < Until && I < Churn * 10) {
    if (!H.allocate(64 + (I % 8) * 64, nullptr, AllocCat::Other, 0))
      std::abort();
    ++I;
  }
  Other.stop(/*CallerCache=*/0);
  StatsSnapshot S = H.stats().snap();
  ScalePoint P;
  P.RetainedBytes = (uint64_t)NumChains * ChainLen * 32;
  P.Cycles = S.GcCycles;
  P.ConcCycles = S.GcConcCycles;
  P.MaxPauseMs = (double)S.GcMaxPauseNanos * 1e-6;
  return P;
}

std::string histJson(const uint64_t *Hist) {
  std::string Out = "[";
  for (int B = 0; B < NumPauseBuckets; ++B) {
    if (B)
      Out += ",";
    Out += std::to_string(Hist[B]);
  }
  return Out + "]";
}

} // namespace

int main(int argc, char **argv) {
  bool Json = false;
  size_t NumChains = 512, ChainLen = 512, Churn = 300000;
  int Cycles = 9;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--json"))
      Json = true;
    else if (!std::strcmp(argv[I], "--quick")) {
      NumChains = 128;
      ChainLen = 256;
      Churn = 60000;
      Cycles = 3;
    }
  }

  unsigned Cores = std::thread::hardware_concurrency();
  // GOFREE_BENCH_THREADS widens the worker sweep, oversubscription and
  // all; scaling_valid records whether the hardware can actually run the
  // widest point in parallel.
  int MaxWorkers = 4;
  if (const char *Env = std::getenv("GOFREE_BENCH_THREADS")) {
    int T = std::atoi(Env);
    if (T >= 1 && T <= 256)
      MaxWorkers = T;
    else
      std::fprintf(stderr,
                   "bench_gc_pause: ignoring GOFREE_BENCH_THREADS='%s' "
                   "(want 1..256)\n",
                   Env);
  }
  bool ScalingValid = Cores >= (unsigned)MaxWorkers;
  std::vector<int> WorkerSweep = {1};
  if (MaxWorkers > 2)
    WorkerSweep.push_back(2);
  if (MaxWorkers > 1)
    WorkerSweep.push_back(MaxWorkers);

  std::vector<MarkPoint> Marks;
  for (int W : WorkerSweep)
    Marks.push_back(measureMark(W, NumChains, ChainLen, Cycles));
  double Base = Marks.front().MarkMsAvg;

  PausePoint Serial =
      measurePause("serial-eager", /*Workers=*/1, /*Eager=*/true, Churn);
  PausePoint Lazy =
      measurePause("parallel-lazy", /*Workers=*/4, /*Eager=*/false, Churn);

  // Pause scaling: live heap 1x (~0.5 MiB) vs 10x (~5 MiB) with the root
  // count held constant -- and high enough (1024 heads) that the root
  // scan is the dominant flip cost, which is precisely the bound being
  // claimed: flips pay for roots, the heap walk happens between them.
  // Quick mode halves the chains, keeping the 10x ratio.
  size_t ScaleChains = NumChains >= 512 ? 1024 : 512, ScaleLen = 16;
  ScalePoint Stw1 = measureScale(false, ScaleChains, ScaleLen, Churn);
  ScalePoint Stw10 = measureScale(false, ScaleChains, ScaleLen * 10, Churn);
  ScalePoint Conc1 = measureScale(true, ScaleChains, ScaleLen, Churn);
  ScalePoint Conc10 = measureScale(true, ScaleChains, ScaleLen * 10, Churn);
  double StwGrowth = Stw1.MaxPauseMs > 0 ? Stw10.MaxPauseMs / Stw1.MaxPauseMs : 0;
  double ConcGrowth =
      Conc1.MaxPauseMs > 0 ? Conc10.MaxPauseMs / Conc1.MaxPauseMs : 0;

  if (Json) {
    std::printf("{\n  \"bench\": \"gc_pause\",\n");
    std::printf("  \"hardware_threads\": %u,\n", Cores);
    std::printf("  \"max_workers\": %d,\n", MaxWorkers);
    std::printf("  \"scaling_valid\": %s,\n", ScalingValid ? "true" : "false");
    std::printf("  \"retained_objects\": %llu,\n",
                (unsigned long long)Marks.front().Objects);
    std::printf("  \"mark_scaling\": [\n");
    for (size_t I = 0; I < Marks.size(); ++I)
      std::printf("    {\"workers\": %d, \"mark_ms_avg\": %.3f, "
                  "\"speedup\": %.2f}%s\n",
                  Marks[I].Workers, Marks[I].MarkMsAvg,
                  Marks[I].MarkMsAvg > 0 ? Base / Marks[I].MarkMsAvg : 0.0,
                  I + 1 < Marks.size() ? "," : "");
    std::printf("  ],\n  \"pause\": {\n");
    const PausePoint *Points[] = {&Serial, &Lazy};
    for (int I = 0; I < 2; ++I) {
      const PausePoint &P = *Points[I];
      std::printf("    \"%s\": {\"cycles\": %llu, \"max_pause_ms\": %.3f, "
                  "\"avg_pause_ms\": %.3f, \"spans_swept_lazy\": %llu, "
                  "\"pause_hist_us_pow2\": %s}%s\n",
                  P.Name, (unsigned long long)P.Cycles, P.MaxPauseMs,
                  P.AvgPauseMs, (unsigned long long)P.SpansSweptLazy,
                  histJson(P.Hist).c_str(), I == 0 ? "," : "");
    }
    std::printf("  },\n  \"max_pause_ratio\": %.2f,\n",
                Lazy.MaxPauseMs > 0 ? Serial.MaxPauseMs / Lazy.MaxPauseMs
                                    : 0.0);
    std::printf("  \"pause_scaling\": {\n    \"roots\": %zu,\n", ScaleChains);
    struct {
      const char *Name;
      const ScalePoint *P1, *P10;
      double Growth;
    } Modes[] = {{"stw", &Stw1, &Stw10, StwGrowth},
                 {"conc", &Conc1, &Conc10, ConcGrowth}};
    for (int I = 0; I < 2; ++I)
      std::printf("    \"%s\": {\"retained_bytes_1x\": %llu, "
                  "\"retained_bytes_10x\": %llu, \"max_pause_ms_1x\": %.3f, "
                  "\"max_pause_ms_10x\": %.3f, \"growth_10x\": %.2f, "
                  "\"conc_cycles\": %llu},\n",
                  Modes[I].Name, (unsigned long long)Modes[I].P1->RetainedBytes,
                  (unsigned long long)Modes[I].P10->RetainedBytes,
                  Modes[I].P1->MaxPauseMs, Modes[I].P10->MaxPauseMs,
                  Modes[I].Growth,
                  (unsigned long long)Modes[I].P10->ConcCycles);
    std::printf("    \"conc_pause_bounded\": %s\n  }\n}\n",
                ConcGrowth > 0 && ConcGrowth <= 2.0 ? "true" : "false");
    return 0;
  }

  std::printf("GC mark scaling & pause benchmark (hardware threads: %u)\n\n",
              Cores);
  std::printf("mark phase over %llu retained objects, %d cycles/point:\n",
              (unsigned long long)Marks.front().Objects, Cycles);
  std::printf("%8s | %12s | %8s\n", "workers", "mark ms/cyc", "speedup");
  std::printf("---------+--------------+---------\n");
  for (const MarkPoint &M : Marks)
    std::printf("%8d | %12.3f | %7.2fx\n", M.Workers, M.MarkMsAvg,
                M.MarkMsAvg > 0 ? Base / M.MarkMsAvg : 0.0);

  std::printf("\npaced churn, identical allocation script:\n");
  std::printf("%14s | %7s | %12s | %12s | %10s\n", "config", "cycles",
              "max pause ms", "avg pause ms", "lazy spans");
  std::printf("---------------+---------+--------------+--------------+"
              "-----------\n");
  for (const PausePoint *P : {&Serial, &Lazy})
    std::printf("%14s | %7llu | %12.3f | %12.3f | %10llu\n", P->Name,
                (unsigned long long)P->Cycles, P->MaxPauseMs, P->AvgPauseMs,
                (unsigned long long)P->SpansSweptLazy);

  std::printf("\npause scaling: 10x live heap, constant %zu roots:\n",
              ScaleChains);
  std::printf("%6s | %14s | %15s | %10s\n", "mode", "max pause 1x ms",
              "max pause 10x ms", "growth");
  std::printf("-------+----------------+-----------------+-----------\n");
  std::printf("%6s | %14.3f | %15.3f | %9.2fx\n", "stw", Stw1.MaxPauseMs,
              Stw10.MaxPauseMs, StwGrowth);
  std::printf("%6s | %14.3f | %15.3f | %9.2fx\n", "conc", Conc1.MaxPauseMs,
              Conc10.MaxPauseMs, ConcGrowth);

  if (!ScalingValid)
    std::printf("\nworkers (%d) exceed hardware threads (%u): mark workers "
                "timeshare,\nso ~1.0x scaling is expected above; the pause "
                "numbers remain valid\n(they measure window contents, not "
                "parallel speed)\n",
                MaxWorkers, Cores);
  return 0;
}
