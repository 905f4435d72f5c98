//===- examples/runtime_tour.cpp - Using the runtime directly -------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Tour of the runtime substrate as a standalone C++ library: the
// thread-caching heap, the mark-sweep collector, and the tcfree family —
// including the best-effort give-up behavior of section 5 (tcfree never
// fails unsafely; it just declines and lets the GC take over).
//
// Usage:   ./build/examples/runtime_tour
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/MapRt.h"
#include "runtime/SliceRt.h"

#include <cstdio>
#include <vector>

using namespace gofree::rt;

namespace {

/// A root scanner over an explicit handle list, standing in for a mutator.
class Handles : public RootScanner {
public:
  std::vector<uintptr_t> Live;
  void scanRoots(Heap &H) override {
    for (uintptr_t A : Live)
      H.gcMarkAddr(A);
  }
};

} // namespace

int main() {
  std::printf("== GoFree runtime tour ==\n\n");
  HeapOptions Opts;
  Opts.Gc.MinHeapTrigger = 256 * 1024;
  Heap H(Opts);
  Handles Roots;
  H.addRootScanner(&Roots);

  // 1. Thread-cached small allocation: size-classed spans, lock-free in
  //    the owning cache.
  uintptr_t A = H.allocate(48, scalarDesc(), AllocCat::Other, /*CacheId=*/0);
  std::printf("allocated 48B object at %#lx (span class size %zu)\n",
              (unsigned long)A, H.spanOf(A)->ElemSize);

  // 2. TcfreeSmall: reverts the allocator pointer; the very next
  //    allocation reuses the slot.
  H.tcfreeObject(A, 0, FreeSource::TcfreeObject);
  uintptr_t B = H.allocate(48, scalarDesc(), AllocCat::Other, 0);
  std::printf("tcfree + realloc reused the slot: %s\n",
              A == B ? "yes" : "no");

  // 3. The give-up paths: wrong cache, stack address, double free. All are
  //    safe no-ops (section 5: tcfree never guarantees success).
  H.reassignSpanOwner(B, /*NewOwner=*/3);
  bool ForeignFreed = H.tcfreeObject(B, 0, FreeSource::TcfreeObject);
  int OnStack = 7;
  bool StackFreed = H.tcfreeObject(reinterpret_cast<uintptr_t>(&OnStack), 0,
                                   FreeSource::TcfreeObject);
  std::printf("give-ups: foreign-span free=%s, stack-address free=%s "
              "(both must be 'declined')\n",
              ForeignFreed ? "freed!?" : "declined",
              StackFreed ? "freed!?" : "declined");

  // 4. TcfreeLarge's two-step dance (fig. 9): pages come back immediately,
  //    the span control block waits for the next GC mark phase.
  uintptr_t Big = H.allocate(256 * 1024, scalarDesc(), AllocCat::Slice, 0);
  H.tcfreeObject(Big, 0, FreeSource::TcfreeSlice);
  std::printf("large free: %zu dangling span(s) awaiting the mark phase\n",
              H.danglingSpanCount());
  H.runGc();
  std::printf("after one GC cycle: %zu dangling span(s)\n",
              H.danglingSpanCount());

  // 5. Garbage collection with live data: build a keep-list and churn.
  for (int I = 0; I < 64; ++I)
    Roots.Live.push_back(H.allocate(128, scalarDesc(), AllocCat::Other, 0));
  for (int I = 0; I < 100000; ++I)
    H.allocate(256, scalarDesc(), AllocCat::Other, 0); // garbage
  std::printf("churned 25MB of garbage: %llu GC cycles ran, live heap now "
              "%.0f KB\n",
              (unsigned long long)H.stats().GcCycles.load(),
              H.stats().HeapLive.load() / 1024.0);

  // 6. Maps: growth abandons bucket arrays; GrowMapAndFreeOld reclaims
  //    them with no static analysis at all.
  static const TypeDesc Entry{"entry", 24, false, nullptr, {}};
  static const TypeDesc Buckets{"buckets", 8, true, &Entry, {}};
  static const TypeDesc HMapD{
      "hmap", HMapHeaderSize, false, nullptr, {{HMapBucketsOff, SlotKind::Raw}}};
  MapCtx Ctx;
  Ctx.H = &H;
  Ctx.BucketArrayDesc = &Buckets;
  Ctx.ValueSize = 8;
  uintptr_t M = mapMakeHeap(Ctx, &HMapD, 0);
  Roots.Live.push_back(M);
  for (int64_t K = 0; K < 50000; ++K)
    mapAssign(Ctx, M, K, &K);
  std::printf("map grew to %lld entries; GrowMapAndFreeOld reclaimed %.0f "
              "KB of old buckets\n",
              (long long)mapLen(M),
              H.stats().snap().FreedBytesBySource[(int)FreeSource::MapGrowOld] /
                  1024.0);

  StatsSnapshot S = H.stats().snap();
  std::printf("\ntotal: %.1f MB allocated, %.1f MB explicitly freed, %llu "
              "tcfree give-ups (all safe)\n",
              S.AllocedBytes / 1048576.0, S.tcfreeFreedBytes() / 1048576.0,
              (unsigned long long)S.TcfreeGiveUps);
  return 0;
}
