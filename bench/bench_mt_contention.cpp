//===- bench/bench_mt_contention.cpp - Allocator scaling under threads ----===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Throughput of the allocate/tcfree hot paths when 1/2/4/8 mutator threads
// share one heap, each owning its thread cache. The design target is that
// threads contend only on central-list refills (per-size-class locks) and
// the page-heap lock when a refill carves a fresh span, not on every
// operation: each cache counts its operations in its own stat shard
// (runtime/HeapStats.h). The measure of that is aggregate ops/second
// scaling versus the single-thread baseline; each configuration reports
// the median of Runs runs.
//
// Scaling can only show up when hardware threads exist. On a host with
// fewer than four, the 4-thread configuration timeshares cores, so the
// harness prints the hardware concurrency and --json sets scaling_valid
// to false; tools/check.sh bench then skips its scaling gate.
//
// --json prints a machine-readable summary (tools/check.sh bench pipes it
// into BENCH_mt_contention.json).
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/SizeClasses.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

using namespace gofree;
using namespace gofree::rt;

namespace {

// Each worker cycles a private window of live objects through
// allocate/tcfree. Window size 48 keeps frees landing in the worker's
// current spans (tcfree's success path) while still forcing refills.
constexpr size_t WindowSize = 48;
constexpr int Runs = 5;

uint64_t workerOps(Heap &H, int Tid, uint64_t Ops) {
  uintptr_t Window[WindowSize] = {};
  uint64_t Done = 0;
  for (uint64_t I = 0; I < Ops; ++I) {
    size_t Slot = I % WindowSize;
    if (Window[Slot])
      H.tcfreeObject(Window[Slot], Tid, FreeSource::TcfreeObject);
    size_t Bytes = 16 + (I % 16) * 8;
    Window[Slot] = H.allocate(Bytes, nullptr, AllocCat::Other, Tid);
    if (!Window[Slot])
      std::abort();
    // Touch the object like a real mutator would.
    *reinterpret_cast<uint64_t *>(Window[Slot]) = I;
    ++Done;
  }
  for (uintptr_t A : Window)
    if (A)
      H.tcfreeObject(A, Tid, FreeSource::TcfreeObject);
  return Done;
}

double runConfig(int NumThreads, uint64_t OpsPerThread) {
  HeapOptions HO;
  HO.NumCaches = NumThreads;
  HO.Gc.Gogc = -1; // Pure allocator contention; GC pacing measured elsewhere.
  Heap H(HO);
  std::vector<std::thread> Threads;
  auto Start = std::chrono::steady_clock::now();
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&H, T, OpsPerThread] {
      workerOps(H, T, OpsPerThread);
    });
  for (std::thread &Th : Threads)
    Th.join();
  auto End = std::chrono::steady_clock::now();
  double Sec = std::chrono::duration<double>(End - Start).count();
  return (double)NumThreads * (double)OpsPerThread / Sec;
}

/// Median aggregate ops/second of Runs runs of \p NumThreads threads.
double medianConfig(int NumThreads, uint64_t OpsPerThread) {
  std::vector<double> R;
  for (int I = 0; I < Runs; ++I)
    R.push_back(runConfig(NumThreads, OpsPerThread));
  std::sort(R.begin(), R.end());
  return R[R.size() / 2];
}

} // namespace

int main(int argc, char **argv) {
  uint64_t OpsPerThread = 2000000;
  bool Json = false;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--json"))
      Json = true;
    else
      OpsPerThread = (uint64_t)std::atoll(argv[I]);
  }
  if (OpsPerThread == 0) {
    std::fprintf(stderr,
                 "usage: bench_mt_contention [--json] [ops_per_thread]\n");
    return 2;
  }

  unsigned Cores = std::thread::hardware_concurrency();
  bool ScalingValid = Cores >= 4;
  runConfig(1, OpsPerThread / 4); // Warm-up (page faults, frequency).
  const int Threads[] = {1, 2, 4, 8};
  double OpsPerSec[4];
  for (int I = 0; I < 4; ++I)
    OpsPerSec[I] = medianConfig(Threads[I], OpsPerThread);
  double Base = OpsPerSec[0];

  if (Json) {
    std::printf("{\n  \"bench\": \"mt_contention\",\n");
    std::printf("  \"hardware_threads\": %u,\n", Cores);
    std::printf("  \"scaling_valid\": %s,\n", ScalingValid ? "true" : "false");
    std::printf("  \"ops_per_thread\": %llu,\n",
                (unsigned long long)OpsPerThread);
    std::printf("  \"runs_per_config\": %d,\n", Runs);
    std::printf("  \"throughput\": [\n");
    for (int I = 0; I < 4; ++I)
      std::printf("    {\"threads\": %d, \"ops_per_sec\": %.0f, "
                  "\"scaling\": %.2f}%s\n",
                  Threads[I], OpsPerSec[I], OpsPerSec[I] / Base,
                  I + 1 < 4 ? "," : "");
    std::printf("  ]\n}\n");
    return 0;
  }

  std::printf("allocate/tcfree throughput, shared heap, per-thread caches\n");
  std::printf("%llu ops/thread, median of %d runs; hardware threads: %u\n\n",
              (unsigned long long)OpsPerThread, Runs, Cores);
  std::printf("%8s | %12s | %9s\n", "threads", "ops/sec", "scaling");
  std::printf("---------+--------------+----------\n");
  for (int I = 0; I < 4; ++I)
    std::printf("%8d | %12.0f | %8.2fx\n", Threads[I], OpsPerSec[I],
                OpsPerSec[I] / Base);
  if (!ScalingValid)
    std::printf("\nfewer than 4 hardware threads: the larger configurations "
                "timeshare cores,\nso their scaling says nothing about "
                "contention\n");
  return 0;
}
