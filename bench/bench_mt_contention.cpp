//===- bench/bench_mt_contention.cpp - Allocator scaling under threads ----===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Throughput of the allocate/tcfree hot paths when 1/2/4/8 mutator threads
// share one heap, each owning its thread cache. The design target is that
// threads contend only on central-list refills (per-size-class locks) and
// the page-heap lock when a refill carves a fresh span, not on every
// operation; the measure of that is
// ops/second scaling versus the single-thread baseline.
//
// Honesty note: scaling can only show up when hardware threads exist.
// On a single-core host every configuration timeshares one CPU, so the
// expected "scaling" is ~1.0x minus scheduling overhead; the interesting
// signal there is that throughput does NOT collapse with thread count
// (which a global allocator lock would cause). The harness prints the
// hardware concurrency so results read accordingly.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/SizeClasses.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

using namespace gofree;
using namespace gofree::rt;

namespace {

// Each worker cycles a private window of live objects through
// allocate/tcfree. Window size 48 keeps frees landing in the worker's
// current spans (tcfree's success path) while still forcing refills.
constexpr size_t WindowSize = 48;

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

} // namespace

int main(int argc, char **argv) {
  uint64_t OpsPerThread = 2000000;
  if (argc > 1)
    OpsPerThread = (uint64_t)std::atoll(argv[1]);

  unsigned Cores = std::thread::hardware_concurrency();
  std::printf("allocate/tcfree throughput, shared heap, per-thread caches\n");
  std::printf("%llu ops/thread; hardware threads: %u\n\n",
              (unsigned long long)OpsPerThread, Cores);
  std::printf("%8s | %12s | %9s\n", "threads", "ops/sec", "scaling");
  std::printf("---------+--------------+----------\n");

  runConfig(1, OpsPerThread / 4); // Warm-up (page faults, frequency).
  double Base = 0;
  for (int N : {1, 2, 4, 8}) {
    double OpsPerSec = runConfig(N, OpsPerThread);
    if (N == 1)
      Base = OpsPerSec;
    std::printf("%8d | %12.0f | %8.2fx\n", N, OpsPerSec, OpsPerSec / Base);
  }

  if (Cores <= 1)
    std::printf("\nsingle hardware thread: configurations timeshare one "
                "core, so ~1.0x\nthroughput across thread counts is the "
                "no-global-lock signal here;\nrun on a multi-core host to "
                "see parallel scaling\n");
  return 0;
}
