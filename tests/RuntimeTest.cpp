//===- tests/RuntimeTest.cpp - Allocator, GC and tcfree tests -------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/MapRt.h"
#include "runtime/SizeClasses.h"
#include "runtime/SliceRt.h"

#include <gtest/gtest.h>

#include <cstring>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace gofree;
using namespace gofree::rt;

namespace {

/// Root scanner driven by explicit lists, for GC tests.
class TestRoots : public RootScanner {
public:
  std::vector<uintptr_t> Direct;
  std::vector<std::tuple<uintptr_t, const TypeDesc *, size_t>> Regions;

  void scanRoots(Heap &H) override {
    for (uintptr_t A : Direct)
      H.gcMarkAddr(A);
    for (auto &[Addr, Desc, Bytes] : Regions)
      H.gcScanRegion(Addr, Desc, Bytes);
  }
};

/// {int64 value, Node *next}
const TypeDesc *nodeDesc() {
  static const TypeDesc D{"Node", 16, false, nullptr, {{8, SlotKind::Raw}}};
  return &D;
}

const TypeDesc *ptrArrayDesc() {
  static const TypeDesc Elem{"ptr", 8, false, nullptr, {{0, SlotKind::Raw}}};
  static const TypeDesc D{"[]ptr", 8, true, &Elem, {}};
  return &D;
}

const TypeDesc *intArrayDesc() {
  static const TypeDesc D{"[]int", 8, true, scalarDesc(), {}};
  return &D;
}

uint64_t readWord(uintptr_t A) {
  uint64_t V;
  std::memcpy(&V, reinterpret_cast<void *>(A), 8);
  return V;
}

void writeWord(uintptr_t A, uint64_t V) {
  std::memcpy(reinterpret_cast<void *>(A), &V, 8);
}

} // namespace

//===----------------------------------------------------------------------===//
// Size classes
//===----------------------------------------------------------------------===//

TEST(SizeClassTest, CoversAllSmallSizes) {
  for (size_t Bytes = 8; Bytes <= MaxSmallSize; Bytes += 8) {
    int Cls = sizeClassFor(Bytes);
    ASSERT_GE(Cls, 0);
    ASSERT_LT(Cls, numSizeClasses());
    EXPECT_GE(classSize(Cls), Bytes);
    // Bounded internal fragmentation: class size < 2x requested.
    EXPECT_LT(classSize(Cls), 2 * Bytes + 16);
  }
}

// Exhaustive round-trip over every request in [0, MaxSmallSize], byte by
// byte: the mapped class must exist, hold the request, and be minimal.
// Also pins the zero-byte hardening: sizeClassFor(0) must map to the
// smallest class even in release builds (the ClassOf table keeps a -1
// sentinel at word 0 that must never leak out).
TEST(SizeClassTest, RoundTripIsExhaustiveAndMinimal) {
  for (size_t Bytes = 0; Bytes <= MaxSmallSize; ++Bytes) {
    int Cls = sizeClassFor(Bytes);
    ASSERT_GE(Cls, 0) << "request " << Bytes;
    ASSERT_LT(Cls, numSizeClasses()) << "request " << Bytes;
    size_t Got = classSize(Cls);
    EXPECT_GE(Got, Bytes < 8 ? size_t(8) : Bytes) << "request " << Bytes;
    // Minimality: no smaller class could have held the request.
    if (Cls > 0) {
      EXPECT_LT(classSize(Cls - 1), Bytes) << "request " << Bytes;
    }
  }
  EXPECT_EQ(sizeClassFor(0), sizeClassFor(1));
  EXPECT_EQ(classSize(sizeClassFor(0)), 8u);
}

TEST(SizeClassTest, ClassesAreMonotone) {
  for (int C = 1; C < numSizeClasses(); ++C)
    EXPECT_GT(classSize(C), classSize(C - 1));
}

TEST(SizeClassTest, SpanHoldsSeveralElements) {
  for (int C = 0; C < numSizeClasses(); ++C) {
    size_t Elems = classSpanPages(C) * PageSize / classSize(C);
    EXPECT_GE(Elems, 4u) << "class " << C;
  }
}

//===----------------------------------------------------------------------===//
// Allocation
//===----------------------------------------------------------------------===//

TEST(HeapTest, SmallAllocationsAreDistinctAndZeroed) {
  Heap H;
  std::set<uintptr_t> Seen;
  for (int I = 0; I < 1000; ++I) {
    uintptr_t A = H.allocate(24, scalarDesc(), AllocCat::Other, 0);
    ASSERT_NE(A, 0u);
    EXPECT_TRUE(Seen.insert(A).second);
    EXPECT_EQ(readWord(A), 0u);
    EXPECT_EQ(readWord(A + 16), 0u);
    writeWord(A, 0xDEADBEEF); // Dirty it for the zeroing check on reuse.
  }
  EXPECT_EQ(H.stats().snap().AllocCount, 1000u);
  EXPECT_GE(H.stats().snap().AllocedBytes, 24000u);
}

TEST(HeapTest, LargeAllocationGetsDedicatedSpan) {
  Heap H;
  uintptr_t A = H.allocate(100000, scalarDesc(), AllocCat::Slice, 0);
  MSpan *S = H.spanOf(A);
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->SizeClass, -1);
  EXPECT_EQ(S->NElems, 1u);
  EXPECT_GE(S->NPages * PageSize, 100000u);
  EXPECT_TRUE(H.isLiveObject(A));
}

TEST(HeapTest, SpanLookupCoversInteriorPointers) {
  Heap H;
  uintptr_t A = H.allocate(64, scalarDesc(), AllocCat::Other, 0);
  MSpan *S = H.spanOf(A + 40);
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->slotAddr(S->slotOf(A + 40)), A);
}

TEST(HeapTest, StackAddressIsNotInHeap) {
  Heap H;
  int Local = 0;
  EXPECT_EQ(H.spanOf(reinterpret_cast<uintptr_t>(&Local)), nullptr);
  EXPECT_FALSE(H.isLiveObject(reinterpret_cast<uintptr_t>(&Local)));
}

// The flat page map answers for any address with a range check and one
// load. Probe the edges: both ends of a span, both ends of the reserved
// range, a page whose span was just freed, and C++ heap memory -- the kind
// of address the write barrier now hands to the lookup unfiltered.
TEST(HeapTest, PageMapEdges) {
  Heap H;
  uintptr_t A = H.allocate(5 * PageSize, scalarDesc(), AllocCat::Slice, 0);
  ASSERT_EQ(A, H.arenaBase()) << "first fit starts at the bottom";
  MSpan *S = H.spanOf(A);
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->NPages, 5u);
  EXPECT_EQ(H.spanOf(A + S->NPages * PageSize - 1), S);
  EXPECT_EQ(H.spanOf(A - 1), nullptr);
  EXPECT_EQ(H.spanOf(H.arenaBase() + Heap::ArenaBytes), nullptr);
  EXPECT_EQ(H.spanOf(H.arenaBase() + Heap::ArenaBytes - 1), nullptr);

  ASSERT_TRUE(H.tcfreeObject(A, 0, FreeSource::TcfreeObject));
  EXPECT_EQ(H.spanOf(A), nullptr);
  EXPECT_EQ(H.spanOf(A + 5 * PageSize - 1), nullptr);

  std::vector<uint64_t> Buf(64);
  EXPECT_EQ(H.spanOf(reinterpret_cast<uintptr_t>(Buf.data())), nullptr);
  std::string Report;
  EXPECT_TRUE(H.verifyInvariants(&Report)) << Report;
}

TEST(HeapTest, PerCacheSpansAreIndependent) {
  Heap H;
  uintptr_t A = H.allocate(32, scalarDesc(), AllocCat::Other, 0);
  uintptr_t B = H.allocate(32, scalarDesc(), AllocCat::Other, 1);
  EXPECT_NE(H.spanOf(A), H.spanOf(B));
  EXPECT_EQ(H.spanOf(A)->OwnerCache, 0);
  EXPECT_EQ(H.spanOf(B)->OwnerCache, 1);
}

//===----------------------------------------------------------------------===//
// tcfree
//===----------------------------------------------------------------------===//

TEST(TcfreeTest, SmallFreeAllowsSlotReuse) {
  Heap H;
  uintptr_t A = H.allocate(48, scalarDesc(), AllocCat::Slice, 0);
  writeWord(A, 123);
  EXPECT_TRUE(H.tcfreeObject(A, 0, FreeSource::TcfreeSlice));
  EXPECT_FALSE(H.isLiveObject(A));
  // The very next allocation of the same class reuses the slot, zeroed.
  uintptr_t B = H.allocate(48, scalarDesc(), AllocCat::Slice, 0);
  EXPECT_EQ(B, A);
  EXPECT_EQ(readWord(B), 0u);
  EXPECT_EQ(H.stats().snap().FreedCountBySource[(int)FreeSource::TcfreeSlice],
            1u);
}

TEST(TcfreeTest, GivesUpOnNullAndStackAddresses) {
  Heap H;
  EXPECT_FALSE(H.tcfreeObject(0, 0, FreeSource::TcfreeObject));
  int Local;
  EXPECT_FALSE(H.tcfreeObject(reinterpret_cast<uintptr_t>(&Local), 0,
                              FreeSource::TcfreeObject));
  EXPECT_EQ(H.stats().snap().TcfreeGiveUps, 2u);
}

TEST(TcfreeTest, GivesUpWhenSpanOwnedElsewhere) {
  Heap H;
  uintptr_t A = H.allocate(32, scalarDesc(), AllocCat::Other, 0);
  // Simulate the span migrating to another thread's cache between
  // allocation and tcfree (section 5's ownership-change give-up).
  H.reassignSpanOwner(A, 2);
  EXPECT_FALSE(H.tcfreeObject(A, 0, FreeSource::TcfreeObject));
  EXPECT_TRUE(H.isLiveObject(A));
}

TEST(TcfreeTest, DoubleFreeIsBenign) {
  Heap H;
  uintptr_t A = H.allocate(32, scalarDesc(), AllocCat::Other, 0);
  EXPECT_TRUE(H.tcfreeObject(A, 0, FreeSource::TcfreeObject));
  EXPECT_FALSE(H.tcfreeObject(A, 0, FreeSource::TcfreeObject));
  EXPECT_EQ(
      H.stats().snap().FreedCountBySource[(int)FreeSource::TcfreeObject], 1u);
}

TEST(TcfreeTest, LargeFreeIsTwoStep) {
  Heap H;
  uintptr_t A = H.allocate(200000, scalarDesc(), AllocCat::Slice, 0);
  uint64_t CommittedBefore = H.stats().Committed.load();
  EXPECT_TRUE(H.tcfreeObject(A, 0, FreeSource::TcfreeSlice));
  // Step 1: pages returned immediately, control block dangling.
  EXPECT_LT(H.stats().Committed.load(), CommittedBefore);
  EXPECT_EQ(H.danglingSpanCount(), 1u);
  EXPECT_EQ(H.spanOf(A), nullptr) << "pages must leave the page map";
  // Step 2: the next GC cycle retires the control block.
  TestRoots Roots;
  H.addRootScanner(&Roots);
  H.runGc();
  EXPECT_EQ(H.danglingSpanCount(), 0u);
}

TEST(TcfreeTest, LargeDoubleFreeIsBenign) {
  Heap H;
  uintptr_t A = H.allocate(200000, scalarDesc(), AllocCat::Slice, 0);
  EXPECT_TRUE(H.tcfreeObject(A, 0, FreeSource::TcfreeSlice));
  EXPECT_FALSE(H.tcfreeObject(A, 0, FreeSource::TcfreeSlice));
}

TEST(TcfreeTest, GivesUpDuringGc) {
  // A root scanner that calls tcfree re-entrantly: the call must give up
  // because the collector is running.
  class HostileRoots : public RootScanner {
  public:
    uintptr_t Target = 0;
    bool Result = true;
    void scanRoots(Heap &H) override {
      Result = H.tcfreeObject(Target, 0, FreeSource::TcfreeObject);
      H.gcMarkAddr(Target);
    }
  };
  Heap H;
  HostileRoots Roots;
  Roots.Target = H.allocate(32, scalarDesc(), AllocCat::Other, 0);
  H.addRootScanner(&Roots);
  H.runGc();
  EXPECT_FALSE(Roots.Result);
  EXPECT_TRUE(H.isLiveObject(Roots.Target));
}

TEST(TcfreeTest, FreedBytesCountedBySource) {
  Heap H;
  uintptr_t A = H.allocate(64, scalarDesc(), AllocCat::Map, 0);
  uintptr_t B = H.allocate(64, scalarDesc(), AllocCat::Map, 0);
  H.tcfreeObject(A, 0, FreeSource::TcfreeMap);
  H.tcfreeObject(B, 0, FreeSource::MapGrowOld);
  EXPECT_EQ(H.stats().snap().FreedBytesBySource[(int)FreeSource::TcfreeMap],
            64u);
  EXPECT_EQ(H.stats().snap().FreedBytesBySource[(int)FreeSource::MapGrowOld],
            64u);
}

//===----------------------------------------------------------------------===//
// Garbage collection
//===----------------------------------------------------------------------===//

TEST(GcTest, UnreachableObjectsAreSwept) {
  Heap H;
  TestRoots Roots;
  H.addRootScanner(&Roots);
  uintptr_t Kept = H.allocate(32, scalarDesc(), AllocCat::Other, 0);
  uintptr_t Dead = H.allocate(32, scalarDesc(), AllocCat::Other, 0);
  Roots.Direct.push_back(Kept);
  H.runGc();
  EXPECT_TRUE(H.isLiveObject(Kept));
  EXPECT_FALSE(H.isLiveObject(Dead));
  EXPECT_EQ(H.stats().GcSweptCount.load(), 1u);
}

TEST(GcTest, MarkFollowsPointerChains) {
  Heap H;
  TestRoots Roots;
  H.addRootScanner(&Roots);
  // Build a 100-node list; root only the head.
  uintptr_t Head = 0;
  std::vector<uintptr_t> Nodes;
  for (int I = 0; I < 100; ++I) {
    uintptr_t N = H.allocate(16, nodeDesc(), AllocCat::Other, 0);
    writeWord(N, (uint64_t)I);
    writeWord(N + 8, Head);
    Head = N;
    Nodes.push_back(N);
  }
  Roots.Direct.push_back(Head);
  H.runGc();
  for (uintptr_t N : Nodes)
    EXPECT_TRUE(H.isLiveObject(N));
  // Cutting node 50's next pointer frees everything below it (the chain
  // runs head = Nodes[99] -> Nodes[98] -> ... -> Nodes[0]).
  writeWord(Nodes[50] + 8, 0);
  H.runGc();
  for (int I = 0; I < 50; ++I)
    EXPECT_FALSE(H.isLiveObject(Nodes[(size_t)I])) << I;
  for (int I = 50; I < 100; ++I)
    EXPECT_TRUE(H.isLiveObject(Nodes[(size_t)I])) << I;
}

TEST(GcTest, PointerArraysAreScannedElementWise) {
  Heap H;
  TestRoots Roots;
  H.addRootScanner(&Roots);
  uintptr_t Arr = H.allocate(10 * 8, ptrArrayDesc(), AllocCat::Slice, 0);
  std::vector<uintptr_t> Targets;
  for (int I = 0; I < 10; ++I) {
    uintptr_t T = H.allocate(16, nodeDesc(), AllocCat::Other, 0);
    writeWord(Arr + (size_t)I * 8, T);
    Targets.push_back(T);
  }
  Roots.Direct.push_back(Arr);
  H.runGc();
  for (uintptr_t T : Targets)
    EXPECT_TRUE(H.isLiveObject(T));
}

TEST(GcTest, RootRegionsScanSliceHeaders) {
  Heap H;
  TestRoots Roots;
  H.addRootScanner(&Roots);
  uintptr_t Arr = H.allocate(64, intArrayDesc(), AllocCat::Slice, 0);
  // A fake stack frame holding one slice header.
  static const TypeDesc FrameDesc{
      "frame", 24, false, nullptr, {{0, SlotKind::Slice}}};
  SliceHeader Frame{Arr, 8, 8};
  Roots.Regions.emplace_back(reinterpret_cast<uintptr_t>(&Frame), &FrameDesc,
                             sizeof(Frame));
  H.runGc();
  EXPECT_TRUE(H.isLiveObject(Arr));
  Frame.Data = 0;
  H.runGc();
  EXPECT_FALSE(H.isLiveObject(Arr));
}

TEST(GcTest, InteriorPointerKeepsWholeObject) {
  Heap H;
  TestRoots Roots;
  H.addRootScanner(&Roots);
  uintptr_t Arr = H.allocate(80, intArrayDesc(), AllocCat::Slice, 0);
  Roots.Direct.push_back(Arr + 40); // &arr[5]
  H.runGc();
  EXPECT_TRUE(H.isLiveObject(Arr));
}

TEST(GcTest, PacingTriggersCollection) {
  HeapOptions O;
  O.Gc.MinHeapTrigger = 64 * 1024;
  Heap H(O);
  TestRoots Roots;
  H.addRootScanner(&Roots);
  // Allocate 1 MiB of garbage: several cycles must fire and the live heap
  // must stay bounded.
  for (int I = 0; I < 1024; ++I)
    H.allocate(1024, scalarDesc(), AllocCat::Other, 0);
  EXPECT_GE(H.stats().GcCycles.load(), 2u);
  EXPECT_LT(H.stats().liveBytes(), 256u * 1024);
}

TEST(GcTest, GcOffNeverCollects) {
  HeapOptions O;
  O.Gc.Gogc = -1;
  O.Gc.MinHeapTrigger = 4096;
  Heap H(O);
  TestRoots Roots;
  H.addRootScanner(&Roots);
  for (int I = 0; I < 1000; ++I)
    H.allocate(1024, scalarDesc(), AllocCat::Other, 0);
  EXPECT_EQ(H.stats().GcCycles.load(), 0u);
}

TEST(GcTest, TcfreeReducesGcFrequency) {
  // The core effect of the paper: explicitly freeing short-lived garbage
  // delays heap growth and reduces GC cycles.
  auto Run = [](bool UseTcfree) {
    HeapOptions O;
    O.Gc.MinHeapTrigger = 64 * 1024;
    Heap H(O);
    TestRoots Roots;
    H.addRootScanner(&Roots);
    for (int I = 0; I < 4096; ++I) {
      uintptr_t A = H.allocate(512, scalarDesc(), AllocCat::Slice, 0);
      if (UseTcfree)
        H.tcfreeObject(A, 0, FreeSource::TcfreeSlice);
    }
    return H.stats().GcCycles.load();
  };
  uint64_t WithFree = Run(true);
  uint64_t WithoutFree = Run(false);
  EXPECT_LT(WithFree, WithoutFree);
  EXPECT_EQ(WithFree, 0u) << "perfectly freed workload needs no GC";
}

//===----------------------------------------------------------------------===//
// Pacer arithmetic: gcTriggerFor saturation boundaries
//===----------------------------------------------------------------------===//

TEST(GcPacerTest, TriggerBasics) {
  EXPECT_EQ(Heap::gcTriggerFor(100, 100, 0), 200u);
  EXPECT_EQ(Heap::gcTriggerFor(100, 50, 0), 150u);
  EXPECT_EQ(Heap::gcTriggerFor(0, 100, 0), 0u);
}

TEST(GcPacerTest, MinTriggerIsAFloor) {
  EXPECT_EQ(Heap::gcTriggerFor(10, 100, 4096), 4096u);
  EXPECT_EQ(Heap::gcTriggerFor(1ull << 20, 100, 4096), 2ull << 20);
}

TEST(GcPacerTest, NegativeGogcDisablesPacing) {
  EXPECT_EQ(Heap::gcTriggerFor(0, -1, 0), UINT64_MAX);
  EXPECT_EQ(Heap::gcTriggerFor(UINT64_MAX, -1, 4096), UINT64_MAX);
}

TEST(GcPacerTest, HugeHeapSaturatesInsteadOfWrapping) {
  // The seed computed marked * (100 + GOGC) / 100 in 64 bits; a big heap
  // or a big GOGC wrapped it into a tiny trigger, i.e. a permanent GC
  // storm. The fixed pacer saturates at UINT64_MAX instead.
  EXPECT_EQ(Heap::gcTriggerFor(UINT64_MAX, 100, 0), UINT64_MAX);
  EXPECT_EQ(Heap::gcTriggerFor(1ull << 63, 100, 0), UINT64_MAX);
  EXPECT_EQ(Heap::gcTriggerFor(UINT64_MAX / 2, 300, 0), UINT64_MAX);
  EXPECT_EQ(Heap::gcTriggerFor(UINT64_MAX, INT32_MAX, 0), UINT64_MAX);
}

TEST(GcPacerTest, JustBelowSaturationIsExact) {
  // 2 * (2^63 - 1) = UINT64_MAX - 1: the largest doubling that still fits
  // in 64 bits must come out exact, not clamped.
  uint64_t M = (1ull << 63) - 1;
  EXPECT_EQ(Heap::gcTriggerFor(M, 100, 0), UINT64_MAX - 1);
  // GOGC=0 never overflows: trigger == marked even at the top of range.
  EXPECT_EQ(Heap::gcTriggerFor(UINT64_MAX, 0, 0), UINT64_MAX);
}

//===----------------------------------------------------------------------===//
// Scan-depth regressions: marking must stay O(1) deep in C++ stack
//===----------------------------------------------------------------------===//

TEST(GcScanTest, DeeplyNestedArrayDescriptorsScanIteratively) {
  // A 16k-deep chain of single-element nested arrays. The seed burned one
  // gcScanRegion recursion frame per nesting level, so a chain like this
  // overflowed the C++ stack; the iterative scanner defers each level to
  // the mark stack instead.
  constexpr size_t Depth = 16 * 1024;
  static const TypeDesc Base{"deepbase", 8, false, nullptr,
                             {{0, SlotKind::Raw}}};
  std::vector<TypeDesc> Chain;
  Chain.reserve(Depth); // No reallocation: Elem pointers must stay stable.
  const TypeDesc *Prev = &Base;
  for (size_t I = 0; I < Depth; ++I) {
    Chain.push_back(TypeDesc{"[]deep", 8, true, Prev, {}});
    Prev = &Chain.back();
  }

  Heap H;
  TestRoots Roots;
  H.addRootScanner(&Roots);
  uintptr_t Target = H.allocate(16, nodeDesc(), AllocCat::Other, 0);
  uintptr_t Obj = H.allocate(8, Prev, AllocCat::Other, 0);
  writeWord(Obj, Target);
  Roots.Direct.push_back(Obj);
  H.runGc();
  EXPECT_TRUE(H.isLiveObject(Obj));
  EXPECT_TRUE(H.isLiveObject(Target))
      << "pointer under " << Depth << " array levels was not scanned";
}

TEST(GcScanTest, HugeFlatPointerArraySplitsOntoMarkStack) {
  // 8192 pointer slots = 64 KiB, far past the array-split threshold: the
  // scanner must chunk the array onto the mark stack and still visit every
  // slot, including the very last one.
  Heap H;
  TestRoots Roots;
  H.addRootScanner(&Roots);
  constexpr size_t Slots = 8192;
  uintptr_t Arr = H.allocate(Slots * 8, ptrArrayDesc(), AllocCat::Slice, 0);
  std::vector<uintptr_t> Targets;
  for (int I = 0; I < 64; ++I)
    Targets.push_back(H.allocate(16, nodeDesc(), AllocCat::Other, 0));
  for (size_t I = 0; I < Slots; ++I)
    writeWord(Arr + I * 8, Targets[I % Targets.size()]);
  // The final slot alone keeps one sentinel alive: if chunking dropped the
  // array's tail, this catches it.
  uintptr_t Tail = H.allocate(16, nodeDesc(), AllocCat::Other, 0);
  writeWord(Arr + (Slots - 1) * 8, Tail);
  uintptr_t Dead = H.allocate(16, nodeDesc(), AllocCat::Other, 0);
  Roots.Direct.push_back(Arr);
  H.runGc();
  for (uintptr_t T : Targets)
    EXPECT_TRUE(H.isLiveObject(T));
  EXPECT_TRUE(H.isLiveObject(Tail));
  EXPECT_FALSE(H.isLiveObject(Dead));
}

//===----------------------------------------------------------------------===//
// Parallel marking
//===----------------------------------------------------------------------===//

TEST(GcParallelTest, FourWorkersMarkTheSameLiveSet) {
  HeapOptions O;
  O.Gc.Workers = 4;
  Heap H(O);
  TestRoots Roots;
  H.addRootScanner(&Roots);
  // A forest of linked lists with garbage interleaved between the nodes,
  // so the workers have real pointer chasing and stealing to do.
  std::vector<uintptr_t> Live, Dead;
  for (int L = 0; L < 32; ++L) {
    uintptr_t Head = 0;
    for (int I = 0; I < 64; ++I) {
      uintptr_t N = H.allocate(16, nodeDesc(), AllocCat::Other, 0);
      writeWord(N + 8, Head);
      Head = N;
      Live.push_back(N);
      Dead.push_back(H.allocate(16, nodeDesc(), AllocCat::Other, 0));
    }
    Roots.Direct.push_back(Head);
  }
  H.runGc();
  for (uintptr_t A : Live)
    EXPECT_TRUE(H.isLiveObject(A));
  for (uintptr_t A : Dead)
    EXPECT_FALSE(H.isLiveObject(A));
  std::string Report;
  EXPECT_TRUE(H.verifyInvariants(&Report)) << Report;
  // A second cycle reuses the worker pool rather than respawning it.
  H.runGc();
  for (uintptr_t A : Live)
    EXPECT_TRUE(H.isLiveObject(A));
}

//===----------------------------------------------------------------------===//
// Lazy sweeping
//===----------------------------------------------------------------------===//

TEST(GcLazySweepTest, PacedGcDefersSweepingToAllocation) {
  HeapOptions O;
  O.Gc.MinHeapTrigger = 64 * 1024;
  Heap H(O);
  TestRoots Roots;
  H.addRootScanner(&Roots);
  // Garbage across several size classes, so one paced cycle leaves spans
  // of the non-triggering classes unswept when the pause ends.
  const size_t Sizes[] = {32, 256, 2048};
  size_t UnsweptAfterMark = 0;
  bool Cycled = false;
  for (int Spin = 0; !Cycled && Spin < 100000; ++Spin) {
    for (size_t Sz : Sizes) {
      H.allocate(Sz, scalarDesc(), AllocCat::Other, 0);
      if (H.stats().GcCycles.load() != 0) {
        // Probe immediately: later allocations would pay the debt down.
        UnsweptAfterMark = H.unsweptSpanCount();
        Cycled = true;
        break;
      }
    }
  }
  ASSERT_TRUE(Cycled);
  EXPECT_GT(UnsweptAfterMark, 0u)
      << "paced GC swept everything inside the pause";
  // Keep allocating: cache refills and sweep credit pay the debt down.
  for (int I = 0; I < 2000; ++I)
    for (size_t Sz : Sizes)
      H.allocate(Sz, scalarDesc(), AllocCat::Other, 0);
  EXPECT_GT(H.stats().GcSpansSweptLazy.load(), 0u);
  std::string Report;
  EXPECT_TRUE(H.verifyInvariants(&Report)) << Report;
  // A forced cycle from a solo thread sweeps eagerly: no debt remains.
  H.runGc();
  EXPECT_EQ(H.unsweptSpanCount(), 0u);
  EXPECT_TRUE(H.verifyInvariants(&Report)) << Report;
}

TEST(GcLazySweepTest, EmptyCachedSpanIsDetachedAndRetired) {
  // Every object in a cache-owned current span dies: the STW sweep must
  // detach the span from the owning cache and retire it rather than leave
  // the cache holding a retired span (finishSweepStw's OwnerCache branch).
  Heap H;
  TestRoots Roots;
  H.addRootScanner(&Roots);
  std::vector<uintptr_t> Objs;
  for (int I = 0; I < 8; ++I)
    Objs.push_back(H.allocate(32, scalarDesc(), AllocCat::Other, 0));
  H.runGc(); // Forced + solo thread => eager sweep inside the pause.
  for (uintptr_t A : Objs)
    EXPECT_FALSE(H.isLiveObject(A));
  EXPECT_EQ(H.unsweptSpanCount(), 0u);
  std::string Report;
  ASSERT_TRUE(H.verifyInvariants(&Report)) << Report;
  // The next allocation must get a fresh span through the normal refill
  // path, not scribble on the retired one.
  uintptr_t B = H.allocate(32, scalarDesc(), AllocCat::Other, 0);
  EXPECT_TRUE(H.isLiveObject(B));
  EXPECT_EQ(H.stats().liveBytes(), 32u);
  ASSERT_TRUE(H.verifyInvariants(&Report)) << Report;
}

//===----------------------------------------------------------------------===//
// Mock (poisoning) tcfree for the robustness methodology
//===----------------------------------------------------------------------===//

TEST(MockTcfreeTest, PoisonsInsteadOfFreeing) {
  HeapOptions O;
  O.Mock = MockTcfree::Flip;
  Heap H(O);
  uintptr_t A = H.allocate(32, scalarDesc(), AllocCat::Other, 0);
  writeWord(A, 0x00FF00FF00FF00FFull);
  EXPECT_TRUE(H.tcfreeObject(A, 0, FreeSource::TcfreeObject));
  // Object still allocated, but its contents were corrupted.
  EXPECT_TRUE(H.isLiveObject(A));
  EXPECT_EQ(readWord(A), 0xFF00FF00FF00FF00ull);
  EXPECT_EQ(H.stats().MockPoisonedCount.load(), 1u);
  EXPECT_EQ(H.stats().snap().tcfreeFreedBytes(), 0u);
}

TEST(MockTcfreeTest, ZeroModeZeroes) {
  HeapOptions O;
  O.Mock = MockTcfree::Zero;
  Heap H(O);
  uintptr_t A = H.allocate(32, scalarDesc(), AllocCat::Other, 0);
  writeWord(A, 42);
  H.tcfreeObject(A, 0, FreeSource::TcfreeObject);
  EXPECT_EQ(readWord(A), 0u);
}

//===----------------------------------------------------------------------===//
// Slice runtime
//===----------------------------------------------------------------------===//

TEST(SliceRtTest, GrowPreservesContents) {
  Heap H;
  SliceHeader Hdr{sliceAllocArray(H, intArrayDesc(), 4, 8, 0), 0, 4};
  SliceRtOptions Opts;
  for (int64_t I = 0; I < 100; ++I) {
    sliceGrowForAppend(H, Hdr, intArrayDesc(), 8, 0, Opts);
    ASSERT_LT(Hdr.Len, Hdr.Cap);
    writeWord(Hdr.Data + (size_t)Hdr.Len * 8, (uint64_t)(I * 7));
    ++Hdr.Len;
  }
  for (int64_t I = 0; I < 100; ++I)
    EXPECT_EQ(readWord(Hdr.Data + (size_t)I * 8), (uint64_t)(I * 7));
}

TEST(SliceRtTest, FreeOldOnGrowReclaims) {
  Heap H;
  SliceRtOptions Opts;
  Opts.FreeOldOnGrow = true;
  SliceHeader Hdr{sliceAllocArray(H, intArrayDesc(), 4, 8, 0), 4, 4};
  uintptr_t Old = Hdr.Data;
  sliceGrowForAppend(H, Hdr, intArrayDesc(), 8, 0, Opts);
  EXPECT_NE(Hdr.Data, Old);
  EXPECT_FALSE(H.isLiveObject(Old));
}

TEST(SliceRtTest, TcfreeSliceUnwraps) {
  Heap H;
  SliceHeader Hdr{sliceAllocArray(H, intArrayDesc(), 16, 8, 0), 16, 16};
  EXPECT_TRUE(tcfreeSlice(H, Hdr, 0));
  EXPECT_FALSE(H.isLiveObject(Hdr.Data));
}

//===----------------------------------------------------------------------===//
// Map runtime
//===----------------------------------------------------------------------===//

namespace {

MapCtx makeIntMapCtx(Heap &H) {
  static const TypeDesc Entry{"entry", 24, false, nullptr, {}};
  static const TypeDesc Buckets{"buckets", 8, true, &Entry, {}};
  MapCtx Ctx;
  Ctx.H = &H;
  Ctx.BucketArrayDesc = &Buckets;
  Ctx.ValueSize = 8;
  Ctx.CacheId = 0;
  return Ctx;
}

const TypeDesc *hmapDesc() {
  static const TypeDesc D{
      "hmap", HMapHeaderSize, false, nullptr, {{HMapBucketsOff, SlotKind::Raw}}};
  return &D;
}

} // namespace

TEST(MapRtTest, InsertLookupDelete) {
  Heap H;
  MapCtx Ctx = makeIntMapCtx(H);
  uintptr_t M = mapMakeHeap(Ctx, hmapDesc(), 0);
  for (int64_t K = 0; K < 50; ++K) {
    int64_t V = K * K;
    mapAssign(Ctx, M, K, &V);
  }
  EXPECT_EQ(mapLen(M), 50);
  int64_t Out = 0;
  EXPECT_TRUE(mapLookup(M, 7, &Out, 8));
  EXPECT_EQ(Out, 49);
  EXPECT_FALSE(mapLookup(M, 999, &Out, 8));
  EXPECT_EQ(Out, 0) << "missing key yields zero value";
  EXPECT_TRUE(mapDelete(M, 7));
  EXPECT_FALSE(mapDelete(M, 7));
  EXPECT_EQ(mapLen(M), 49);
  EXPECT_FALSE(mapLookup(M, 7, &Out, 8));
}

TEST(MapRtTest, UpdateOverwritesInPlace) {
  Heap H;
  MapCtx Ctx = makeIntMapCtx(H);
  uintptr_t M = mapMakeHeap(Ctx, hmapDesc(), 0);
  int64_t V = 1;
  mapAssign(Ctx, M, 5, &V);
  V = 2;
  mapAssign(Ctx, M, 5, &V);
  EXPECT_EQ(mapLen(M), 1);
  int64_t Out;
  mapLookup(M, 5, &Out, 8);
  EXPECT_EQ(Out, 2);
}

TEST(MapRtTest, GrowthKeepsAllEntriesAndFreesOldBuckets) {
  Heap H;
  MapCtx Ctx = makeIntMapCtx(H);
  uintptr_t M = mapMakeHeap(Ctx, hmapDesc(), 0);
  for (int64_t K = 0; K < 1000; ++K) {
    int64_t V = K * 3 + 1;
    mapAssign(Ctx, M, K, &V);
  }
  EXPECT_EQ(mapLen(M), 1000);
  for (int64_t K = 0; K < 1000; ++K) {
    int64_t Out = 0;
    ASSERT_TRUE(mapLookup(M, K, &Out, 8)) << K;
    EXPECT_EQ(Out, K * 3 + 1);
  }
  // Growth happened and GrowMapAndFreeOld reclaimed the abandoned arrays.
  EXPECT_GT(
      H.stats().snap().FreedCountBySource[(int)FreeSource::MapGrowOld], 2u);
}

TEST(MapRtTest, GrowFreeOldDisabledLeavesGarbageToGc) {
  Heap H;
  MapCtx Ctx = makeIntMapCtx(H);
  Ctx.Opts.GrowFreeOld = false;
  uintptr_t M = mapMakeHeap(Ctx, hmapDesc(), 0);
  for (int64_t K = 0; K < 1000; ++K)
    mapAssign(Ctx, M, K, &K);
  EXPECT_EQ(
      H.stats().snap().FreedCountBySource[(int)FreeSource::MapGrowOld], 0u);
}

TEST(MapRtTest, ManyDeletesViaTombstonesStillWork) {
  Heap H;
  MapCtx Ctx = makeIntMapCtx(H);
  uintptr_t M = mapMakeHeap(Ctx, hmapDesc(), 0);
  for (int64_t Round = 0; Round < 20; ++Round) {
    for (int64_t K = 0; K < 64; ++K) {
      int64_t V = Round * 100 + K;
      mapAssign(Ctx, M, K, &V);
    }
    for (int64_t K = 0; K < 64; K += 2)
      mapDelete(Ctx.H ? M : M, K);
  }
  EXPECT_EQ(mapLen(M), 32);
  int64_t Out;
  EXPECT_TRUE(mapLookup(M, 1, &Out, 8));
  EXPECT_FALSE(mapLookup(M, 2, &Out, 8));
}

TEST(MapRtTest, TcfreeMapFreesBucketsAndHeader) {
  Heap H;
  MapCtx Ctx = makeIntMapCtx(H);
  uintptr_t M = mapMakeHeap(Ctx, hmapDesc(), 4);
  int64_t V = 9;
  mapAssign(Ctx, M, 1, &V);
  EXPECT_TRUE(tcfreeMap(H, M, 0));
  EXPECT_FALSE(H.isLiveObject(M));
  EXPECT_GE(
      H.stats().snap().FreedCountBySource[(int)FreeSource::TcfreeMap], 2u);
}

TEST(MapRtTest, GcScansMapValues) {
  // map[int]*Node: values must keep their targets alive.
  Heap H;
  TestRoots Roots;
  H.addRootScanner(&Roots);
  static const TypeDesc Entry{
      "entryP", 24, false, nullptr, {{16, SlotKind::Raw}}};
  static const TypeDesc Buckets{"bucketsP", 8, true, &Entry, {}};
  MapCtx Ctx;
  Ctx.H = &H;
  Ctx.BucketArrayDesc = &Buckets;
  Ctx.ValueSize = 8;
  uintptr_t M = mapMakeHeap(Ctx, hmapDesc(), 0);
  uintptr_t Target = H.allocate(16, nodeDesc(), AllocCat::Other, 0);
  mapAssign(Ctx, M, 42, &Target);
  Roots.Direct.push_back(M);
  H.runGc();
  EXPECT_TRUE(H.isLiveObject(M));
  EXPECT_TRUE(H.isLiveObject(Target));
  // Dropping the map frees the chain.
  Roots.Direct.clear();
  H.runGc();
  EXPECT_FALSE(H.isLiveObject(M));
  EXPECT_FALSE(H.isLiveObject(Target));
}

//===----------------------------------------------------------------------===//
// Concurrency
//===----------------------------------------------------------------------===//

TEST(HeapThreadTest, ParallelAllocateAndFree) {
  Heap H; // No root scanner: GC stays off, caches operate independently.
  constexpr int NumThreads = 4;
  constexpr int PerThread = 20000;
  std::vector<std::thread> Threads;
  std::atomic<uint64_t> Sum{0};
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&H, T, &Sum] {
      uint64_t Local = 0;
      for (int I = 0; I < PerThread; ++I) {
        size_t Bytes = 16 + (size_t)(I % 13) * 24;
        uintptr_t A = H.allocate(Bytes, scalarDesc(), AllocCat::Other, T);
        writeWord(A, (uint64_t)I);
        Local += readWord(A);
        if (I % 3 == 0)
          H.tcfreeObject(A, T, FreeSource::TcfreeObject);
      }
      Sum.fetch_add(Local);
    });
  }
  for (auto &Th : Threads)
    Th.join();
  EXPECT_EQ(H.stats().snap().AllocCount, (uint64_t)NumThreads * PerThread);
  // Every thread read back exactly what it wrote.
  uint64_t Expected =
      (uint64_t)NumThreads * ((uint64_t)PerThread * (PerThread - 1) / 2);
  EXPECT_EQ(Sum.load(), Expected);
}

//===----------------------------------------------------------------------===//
// Page heap: first-fit runs in one reserved range
//===----------------------------------------------------------------------===//

TEST(PageHeapTest, FreedNeighbourRunsCoalesce) {
  Heap H;
  // Two large spans carved back-to-back; freeing both must merge them back
  // into a single run (plus the rest of the reservation, which is adjacent
  // to the second span and folds in too).
  uintptr_t A = H.allocate(5 * PageSize, nullptr, AllocCat::Other, 0);
  uintptr_t B = H.allocate(5 * PageSize, nullptr, AllocCat::Other, 0);
  EXPECT_EQ(B, A + 5 * PageSize);
  EXPECT_TRUE(H.tcfreeObject(A, 0, FreeSource::TcfreeObject));
  EXPECT_EQ(H.freeRunCount(), 2u);
  EXPECT_TRUE(H.tcfreeObject(B, 0, FreeSource::TcfreeObject));
  EXPECT_EQ(H.freeRunCount(), 1u);
  std::string Report;
  EXPECT_TRUE(H.verifyInvariants(&Report)) << Report;
}

// The reservation never grows: a request no free run can hold throws, like
// operator new, and leaves the heap intact.
TEST(PageHeapTest, ExhaustedReservationThrows) {
  Heap H;
  EXPECT_THROW(
      H.allocate(Heap::ArenaBytes + PageSize, nullptr, AllocCat::Other, 0),
      std::bad_alloc);
  EXPECT_NE(H.allocate(3 * PageSize, nullptr, AllocCat::Other, 0), 0u);
  std::string Report;
  EXPECT_TRUE(H.verifyInvariants(&Report)) << Report;
}

//===----------------------------------------------------------------------===//
// Release-mode hardening: option and cache-id clamping
//===----------------------------------------------------------------------===//

// Regression: NumCaches was guarded only by an assert, which compiles away
// under NDEBUG and left Caches empty -- the first allocSmall then indexed
// out of bounds. The clamp must be unconditional.
TEST(HeapOptionsTest, NumCachesClampedToAtLeastOne) {
  HeapOptions O;
  O.NumCaches = 0;
  Heap H(O);
  EXPECT_EQ(H.options().NumCaches, 1);
  uintptr_t A = H.allocate(64, scalarDesc(), AllocCat::Other, 0);
  EXPECT_NE(A, 0u);
  EXPECT_TRUE(H.isLiveObject(A));

  HeapOptions Neg;
  Neg.NumCaches = -7;
  Heap H2(Neg);
  EXPECT_EQ(H2.options().NumCaches, 1);
  EXPECT_NE(H2.allocate(64, scalarDesc(), AllocCat::Other, 0), 0u);
}

// Same story for the CacheId argument of allocate/tcfree: formerly
// assert-only, now clamped into [0, NumCaches) on every call.
TEST(HeapOptionsTest, CacheIdClampedOnAllocateAndTcfree) {
  Heap H; // 4 caches.
  uintptr_t Low = H.allocate(64, scalarDesc(), AllocCat::Other, -5);
  uintptr_t High = H.allocate(64, scalarDesc(), AllocCat::Other, 99);
  ASSERT_NE(Low, 0u);
  ASSERT_NE(High, 0u);
  // -5 clamps to cache 0, 99 clamps to the last cache; freeing with the
  // same out-of-range id must resolve to the same cache and succeed.
  EXPECT_TRUE(H.tcfreeObject(Low, -5, FreeSource::TcfreeObject));
  EXPECT_TRUE(H.tcfreeObject(High, 99, FreeSource::TcfreeObject));
  EXPECT_FALSE(H.isLiveObject(Low));
  EXPECT_FALSE(H.isLiveObject(High));
  // Cross-clamped ids behave like any foreign cache: give up, stay live.
  uintptr_t C = H.allocate(64, scalarDesc(), AllocCat::Other, 99);
  EXPECT_FALSE(H.tcfreeObject(C, 0, FreeSource::TcfreeObject));
  EXPECT_TRUE(H.isLiveObject(C));
}

//===----------------------------------------------------------------------===//
// Pause histogram: bucket indexing and percentile derivation. The serving
// bench reads p99/p999 straight out of these helpers, so the boundary math
// is pinned exhaustively -- an off-by-one here silently misreports SLOs.
//===----------------------------------------------------------------------===//

TEST(PauseHistTest, BucketBoundariesExhaustive) {
  // Bucket 0 holds [0, 2) us; bucket B >= 1 holds [2^B, 2^(B+1)) us; the
  // last bucket is open-ended. Check below/at/above every boundary.
  EXPECT_EQ(pauseBucketFor(0), 0);
  EXPECT_EQ(pauseBucketFor(1), 0);
  for (int B = 1; B < NumPauseBuckets; ++B) {
    uint64_t Lo = 1ull << B;
    EXPECT_EQ(pauseBucketFor(Lo - 1), B - 1) << "below boundary 2^" << B;
    EXPECT_EQ(pauseBucketFor(Lo), B) << "at boundary 2^" << B;
    EXPECT_EQ(pauseBucketFor(Lo + 1), B) << "above boundary 2^" << B;
  }
  // Everything past the last boundary stays in the last bucket.
  EXPECT_EQ(pauseBucketFor(1ull << NumPauseBuckets), NumPauseBuckets - 1);
  EXPECT_EQ(pauseBucketFor(UINT64_MAX), NumPauseBuckets - 1);
}

TEST(PauseHistTest, BucketMaxMatchesBucketFor) {
  // The inclusive upper edge of bucket B must map back into bucket B, and
  // its successor into B+1 (except the open-ended last bucket).
  for (int B = 0; B + 1 < NumPauseBuckets; ++B) {
    uint64_t Max = pauseBucketMaxUs(B);
    EXPECT_EQ(pauseBucketFor(Max), B) << "bucket " << B;
    EXPECT_EQ(pauseBucketFor(Max + 1), B + 1) << "bucket " << B;
  }
  EXPECT_EQ(pauseBucketMaxUs(NumPauseBuckets - 1), UINT64_MAX);
}

TEST(PauseHistTest, PercentileOnSyntheticHistogram) {
  uint64_t Hist[NumPauseBuckets] = {};
  // Empty histogram: no pauses, every percentile is 0.
  EXPECT_EQ(pausePercentileUs(Hist, 0.5, 0), 0u);
  EXPECT_EQ(pausePercentileUs(Hist, 0.999, 0), 0u);

  // 90 pauses in bucket 3 ([8,16) us), 9 in bucket 6 ([64,128) us), 1 in
  // bucket 9 ([512,1024) us). Ranks: p50 -> 45th, p99 -> 100th*0.99 = 99th,
  // p999 -> ceil(99.9) = 100th.
  Hist[3] = 90;
  Hist[6] = 9;
  Hist[9] = 1;
  uint64_t MaxNanos = 700 * 1000; // Largest observed pause: 700 us.
  EXPECT_EQ(pausePercentileUs(Hist, 0.50, MaxNanos), 15u);
  EXPECT_EQ(pausePercentileUs(Hist, 0.90, MaxNanos), 15u);
  EXPECT_EQ(pausePercentileUs(Hist, 0.99, MaxNanos), 127u);
  // p999 lands in the last occupied bucket, whose upper edge (1023 us)
  // exceeds the largest observed pause -- the estimate must clamp to it.
  EXPECT_EQ(pausePercentileUs(Hist, 0.999, MaxNanos), 700u);
  EXPECT_EQ(pausePercentileUs(Hist, 1.0, MaxNanos), 700u);
}

TEST(PauseHistTest, PercentileSinglePauseClampsToObservedMax) {
  uint64_t Hist[NumPauseBuckets] = {};
  Hist[0] = 1; // One sub-2us pause, observed max 1.5 us.
  EXPECT_EQ(pausePercentileUs(Hist, 0.5, 1500), 1u);
  // A pause in the open-ended last bucket has no finite edge; the observed
  // max is the only honest bound.
  uint64_t Tail[NumPauseBuckets] = {};
  Tail[NumPauseBuckets - 1] = 1;
  EXPECT_EQ(pausePercentileUs(Tail, 0.99, 90'000'000'000ull), 90'000'000u);
}

TEST(PauseHistTest, SnapshotPercentilesComeFromLiveHistogram) {
  // End-to-end: force GC cycles and check the snapshot's percentile agrees
  // with recomputing from its own histogram, and is bounded by the max.
  Heap H;
  TestRoots R;
  H.addRootScanner(&R);
  for (int I = 0; I < 64; ++I)
    R.Direct.push_back(H.allocate(64, scalarDesc(), AllocCat::Other, 0));
  for (int I = 0; I < 5; ++I)
    H.runGc();
  StatsSnapshot S = H.stats().snap();
  ASSERT_GT(S.GcPauses, 0u);
  uint64_t Total = 0;
  for (int B = 0; B < NumPauseBuckets; ++B)
    Total += S.GcPauseHist[B];
  EXPECT_EQ(Total, S.GcPauses) << "every pause lands in exactly one bucket";
  EXPECT_EQ(S.pausePercentileUs(0.99),
            pausePercentileUs(S.GcPauseHist, 0.99, S.GcMaxPauseNanos));
  EXPECT_LE(S.pausePercentileUs(0.5), S.pausePercentileUs(0.99));
  EXPECT_LE(S.pausePercentileUs(0.99), S.pausePercentileUs(0.999));
  EXPECT_LE(S.pausePercentileUs(0.999) * 1000, S.GcMaxPauseNanos);
}
