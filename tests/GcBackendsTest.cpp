//===- tests/GcBackendsTest.cpp - Pluggable collector backend tests -------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// The backend contract: observables cannot depend on which collector
// reclaims the garbage. This suite runs one pointer-heavy program under
// both backends x tcfree on/off with the heap-invariant verifier on, pins
// how a forced cycle the backend lacks is run and labelled, and proves the
// rc backend's known hole -- a refcount cycle the ZCT can never drain --
// is closed by the backup mark-sweep. Runs under the `gc_backends` ctest
// label.
//
//===----------------------------------------------------------------------===//

#include "compiler/Driver.h"
#include "runtime/Heap.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

using namespace gofree;
using namespace gofree::rt;
using namespace gofree::compiler;

namespace {

/// A root provider whose live set the test edits between cycles.
class Roots : public RootScanner {
public:
  std::vector<uintptr_t> Addrs;
  void scanRoots(Heap &H) override {
    for (uintptr_t A : Addrs)
      H.gcMarkAddr(A);
  }
};

/// 16-byte node with one pointer slot at offset 0.
const TypeDesc *nodeDesc() {
  static const TypeDesc D{"Node", 16, false, nullptr, {{0, SlotKind::Raw}}};
  return &D;
}

uint64_t readWord(uintptr_t Addr) {
  uint64_t V;
  std::memcpy(&V, reinterpret_cast<void *>(Addr), 8);
  return V;
}

void writeWord(uintptr_t Addr, uint64_t V) {
  std::memcpy(reinterpret_cast<void *>(Addr), &V, 8);
}

/// Barrier-then-store, the order every engine store site uses.
void storePtr(Heap &H, uintptr_t Slot, uintptr_t P) {
  H.gcWriteBarrier(Slot, P);
  writeWord(Slot, P);
}

} // namespace

//===----------------------------------------------------------------------===//
// Cross-backend equivalence (tcfree on and off, verifier on)
//===----------------------------------------------------------------------===//

namespace {

/// Pointer-heavy workload: slice growth (slice tcfree + copy barriers), a
/// map that grows (bucket evacuation + GrowMapAndFreeOld), and enough
/// garbage that tight triggers force real cycles on every backend.
const char *WorkloadProg = R"go(
type Node struct {
  next *Node
  val  int
}

func chain(n int) int {
  head := &Node{}
  for i := 0; i < n; i = i + 1 {
    fresh := &Node{}
    fresh.val = i
    fresh.next = head.next
    head.next = fresh
  }
  acc := 0
  cur := head.next
  for cur != nil {
    acc = acc + cur.val
    cur = cur.next
  }
  return acc
}

func main(n int) {
  acc := 0
  for round := 0; round < 6; round = round + 1 {
    s := make([]int, 0)
    for i := 0; i < n*8; i = i + 1 {
      s = append(s, i*i)
    }
    m := make(map[int]int)
    for i := 0; i < n*4; i = i + 1 {
      m[i*7] = i + round
    }
    for i := 0; i < n*4; i = i + 1 {
      acc = acc + m[i*7]
    }
    acc = acc + s[n] + chain(n)
  }
  sink(acc)
}
)go";

ExecOutcome runLeg(const std::vector<std::string> &Flags) {
  driver::PipelineOptions P;
  std::string Err;
  EXPECT_TRUE(driver::parseFlags(Flags, P, &Err)) << Err;
  return driver::compileAndRun(WorkloadProg, P, {24});
}

} // namespace

TEST(GcBackendsTest, ObservablesAgreeAcrossBackendsAndTcfree) {
  // Tight triggers so every backend actually cycles; verifier on so a
  // backend that frees a live object fails here, not in a later test.
  const std::string Common = "--gc=min-trigger=65536,verify=1";
  struct LegSpec {
    const char *Name;
    std::vector<std::string> Flags;
  };
  std::vector<LegSpec> Legs = {
      {"go-marksweep", {"--mode=go", Common}},
      {"go-rc", {"--mode=go", Common, "--gc=rc,zct-threshold=64"}},
      {"gofree-marksweep", {"--mode=gofree", Common}},
      {"gofree-rc", {"--mode=gofree", Common, "--gc=rc,zct-threshold=64"}},
  };

  ExecOutcome Ref = runLeg(Legs[0].Flags);
  ASSERT_TRUE(Ref.ok()) << Legs[0].Name << ": " << Ref.Error;
  ASSERT_GT(Ref.Run.SinkCount, 0u);
  for (size_t I = 1; I < Legs.size(); ++I) {
    ExecOutcome O = runLeg(Legs[I].Flags);
    ASSERT_TRUE(O.ok()) << Legs[I].Name << ": " << O.Error;
    EXPECT_EQ(O.Run.Checksum, Ref.Run.Checksum) << Legs[I].Name;
    EXPECT_EQ(O.Run.SinkCount, Ref.Run.SinkCount) << Legs[I].Name;
  }
}

TEST(GcBackendsTest, PartialCycleCountersReachTheSnapshot) {
  ExecOutcome Rc = runLeg(
      {"--mode=gofree", "--gc=rc,zct-threshold=128,min-trigger=1048576,verify=1"});
  ASSERT_TRUE(Rc.ok()) << Rc.Error;
  EXPECT_STREQ(Rc.GcBackend, "rc");
  EXPECT_GT(Rc.Stats.GcZctDrains, 0u) << "ZCT never filled to its threshold";
  EXPECT_GT(Rc.Stats.GcBarrierHits, 0u) << "pointer stores missed the barrier";
}

// A forced cycle of a kind the backend does not implement runs as the Full
// cycle every backend has, and must be counted and traced as Full: a
// marksweep "ZCT drain" is a whole-heap mark-sweep, not a drain.
TEST(GcBackendsTest, ForcedCycleTheBackendLacksIsLabelledFull) {
  for (bool Conc : {false, true}) {
    trace::TraceSink Sink;
    HeapOptions HO;
    HO.Gc.Gogc = -1; // Only the forced cycle runs.
    HO.Gc.Concurrent = Conc;
    Heap H(HO);
    Heap::MutatorScope Scope(H, 0, &Sink);
    ASSERT_NE(H.allocate(16, nodeDesc(), AllocCat::Other, 0), 0u);

    H.runGcCycle(GcCycleKind::ZctDrain);
    StatsSnapshot S = H.stats().snap();
    EXPECT_EQ(S.GcMajorCycles, 1u) << "conc=" << Conc;
    EXPECT_EQ(S.GcZctDrains, 0u) << "conc=" << Conc;
    std::vector<uint8_t> Kinds;
    for (size_t I = 0; I < Sink.size(); ++I)
      if (Sink[I].Kind == trace::EventKind::GcCycleEnd)
        Kinds.push_back(Sink[I].Arg);
    ASSERT_EQ(Kinds.size(), 1u) << "conc=" << Conc;
    EXPECT_STREQ(trace::gcCycleKindName(Kinds[0]), "full") << "conc=" << Conc;
  }
}

//===----------------------------------------------------------------------===//
// RC: a refcount cycle leaks past every ZCT drain; the backup mark-sweep
// reclaims it and recomputes the counts
//===----------------------------------------------------------------------===//

TEST(GcBackendsTest, RcBackupMarkSweepReclaimsRefcountCycle) {
  HeapOptions HO;
  HO.Gc.Backend = GcBackendKind::Rc;
  HO.Gc.Gogc = -1; // Only forced cycles.
  HO.Gc.Verify = true;
  Heap H(HO);
  Roots R;
  H.addRootScanner(&R);

  // A <-> B: after the barriered stores both hold refcount 1, so neither
  // can ever re-enter the ZCT once their external roots drop.
  uintptr_t A = H.allocate(16, nodeDesc(), AllocCat::Other, 0);
  uintptr_t B = H.allocate(16, nodeDesc(), AllocCat::Other, 0);
  ASSERT_NE(A, 0u);
  ASSERT_NE(B, 0u);
  R.Addrs = {A, B};
  storePtr(H, A, B);
  storePtr(H, B, A);

  // Acyclic control: C is ZCT-reclaimable once unrooted (count stays 0).
  uintptr_t C = H.allocate(16, nodeDesc(), AllocCat::Other, 0);
  ASSERT_NE(C, 0u);

  uint64_t LiveBefore = H.stats().liveBytes();
  uint64_t SweptBefore = H.stats().GcSweptCount.load();

  // Drain with everything unrooted except the cycle's internal edges: C
  // (count 0) goes, the A<->B cycle (counts 1) must survive the drain --
  // that is precisely the leak deferred RC cannot see.
  R.Addrs.clear();
  H.runGcCycle(GcCycleKind::ZctDrain);
  EXPECT_EQ(H.stats().GcSweptCount.load(), SweptBefore + 1)
      << "drain should reclaim exactly the acyclic garbage";
  EXPECT_EQ(H.stats().liveBytes(), LiveBefore - 16);
  EXPECT_EQ(readWord(A), B) << "cycle member freed by a ZCT drain";
  EXPECT_EQ(readWord(B), A) << "cycle member freed by a ZCT drain";

  // The backup full mark-sweep is the cycle collector.
  H.runGc();
  EXPECT_EQ(H.stats().GcSweptCount.load(), SweptBefore + 3)
      << "backup mark-sweep failed to reclaim the refcount cycle";
  EXPECT_EQ(H.stats().liveBytes(), LiveBefore - 48);
  EXPECT_GE(H.stats().GcZctDrains.load(), 1u);
  std::string Report;
  EXPECT_TRUE(H.verifyInvariants(&Report)) << Report;
  H.removeRootScanner(&R);
}

TEST(GcBackendsTest, RcDrainSparesRootedZeroCountObjects) {
  HeapOptions HO;
  HO.Gc.Backend = GcBackendKind::Rc;
  HO.Gc.Gogc = -1;
  HO.Gc.Verify = true;
  Heap H(HO);
  Roots R;
  H.addRootScanner(&R);

  // Fresh allocations sit in the ZCT at count 0; a drain must keep the
  // rooted one (stack-only references never touch the counts).
  uintptr_t Kept = H.allocate(16, nodeDesc(), AllocCat::Other, 0);
  ASSERT_NE(Kept, 0u);
  writeWord(Kept + 8, 0x1234567890abcdefull);
  R.Addrs = {Kept};
  uint64_t LiveBefore = H.stats().liveBytes();
  H.runGcCycle(GcCycleKind::ZctDrain);
  EXPECT_EQ(readWord(Kept + 8), 0x1234567890abcdefull)
      << "drain freed a rooted zero-count object";
  EXPECT_EQ(H.stats().liveBytes(), LiveBefore);

  // Unrooted, the same object is exactly what the ZCT exists to reclaim:
  // the drain re-enqueued it (rooted-at-drain objects stay candidates).
  R.Addrs.clear();
  H.runGcCycle(GcCycleKind::ZctDrain);
  EXPECT_EQ(H.stats().liveBytes(), LiveBefore - 16);
  H.removeRootScanner(&R);
}

//===----------------------------------------------------------------------===//
// tcfree interop: the explicit fast path stays legal on every backend
//===----------------------------------------------------------------------===//

TEST(GcBackendsTest, TcfreeInteropOnEveryBackend) {
  for (GcBackendKind K : {GcBackendKind::MarkSweep, GcBackendKind::Rc}) {
    HeapOptions HO;
    HO.Gc.Backend = K;
    HO.Gc.Gogc = -1;
    HO.Gc.Verify = true;
    Heap H(HO);

    // child is referenced by obj; tcfree(obj) must decrement the rc
    // backend's count on child (noteExplicitFree walks the fields while
    // they are intact) so child stays reclaimable, and on all backends
    // the bytes come back immediately.
    uintptr_t Child = H.allocate(16, nodeDesc(), AllocCat::Other, 0);
    uintptr_t Obj = H.allocate(16, nodeDesc(), AllocCat::Other, 0);
    ASSERT_NE(Child, 0u);
    ASSERT_NE(Obj, 0u);
    storePtr(H, Obj, Child);
    uint64_t FreedBefore = H.stats().snap().TcfreeCalls;
    EXPECT_TRUE(H.tcfreeObject(Obj, 0, FreeSource::TcfreeObject))
        << gcBackendName(K);
    EXPECT_EQ(H.stats().snap().TcfreeCalls, FreedBefore + 1);
    // Double free must give up on every backend (section 5 rules).
    EXPECT_FALSE(H.tcfreeObject(Obj, 0, FreeSource::TcfreeObject))
        << gcBackendName(K);

    // With the last reference gone, a drain (rc) or a forced full cycle
    // (marksweep) reclaims child; either way the verifier stays green.
    if (K == GcBackendKind::Rc)
      H.runGcCycle(GcCycleKind::ZctDrain);
    H.runGc();
    std::string Report;
    EXPECT_TRUE(H.verifyInvariants(&Report))
        << gcBackendName(K) << ": " << Report;
  }
}

//===----------------------------------------------------------------------===//
// Concurrent tricolor mark: pause accounting and the bounded-pause claim
//===----------------------------------------------------------------------===//

namespace {

/// Grows a ~1 MiB retained linked chain under tight pacing, then churns
/// garbage through four more paced cycles at full heap size, so the
/// collector repeatedly marks a large live set from a single root.
StatsSnapshot retainedHeapCycles(bool Conc) {
  HeapOptions HO;
  HO.Gc.Concurrent = Conc;
  HO.Gc.EagerSweep = !Conc; // The baseline leg is the classic eager STW.
  HO.Gc.MinHeapTrigger = 64 << 10;
  Heap H(HO);
  Roots R;
  H.addRootScanner(&R);
  StatsSnapshot S;
  {
    Heap::MutatorScope Scope(H, 0);
    R.Addrs.push_back(0);
    uintptr_t Head = 0;
    for (int I = 0; I < 60000; ++I) {
      uintptr_t N = H.allocate(16, nodeDesc(), AllocCat::Other, 0);
      storePtr(H, N, Head);
      Head = N;
      R.Addrs[0] = N; // Only the head is rooted; marking walks the rest.
    }
    uint64_t Until = H.stats().GcCycles.load() + 4;
    while (H.stats().GcCycles.load() < Until)
      H.allocate(64, nullptr, AllocCat::Other, 0);
    S = H.stats().snap();
  }
  H.removeRootScanner(&R);
  return S;
}

/// Index of the slowest nonzero pause bucket (log2-microsecond scale).
int highestPauseBucket(const StatsSnapshot &S) {
  int Hi = -1;
  for (int I = 0; I < NumPauseBuckets; ++I)
    if (S.GcPauseHist[I])
      Hi = I;
  return Hi;
}

} // namespace

TEST(GcBackendsTest, PauseHistogramAccountsForEveryPause) {
  for (bool Conc : {false, true}) {
    StatsSnapshot S = retainedHeapCycles(Conc);
    ASSERT_GE(S.GcCycles, 4u);
    // One pause per STW cycle, two per concurrent cycle; the histogram
    // buckets every one of them, no pause lost or double-counted.
    EXPECT_EQ(S.GcPauses, S.GcCycles + S.GcConcCycles) << "conc=" << Conc;
    uint64_t HistSum = 0;
    for (uint64_t B : S.GcPauseHist)
      HistSum += B;
    EXPECT_EQ(HistSum, S.GcPauses) << "conc=" << Conc;
    if (Conc)
      EXPECT_EQ(S.GcConcCycles, S.GcCycles)
          << "a paced marksweep full cycle fell back to STW";
    else
      EXPECT_EQ(S.GcConcCycles, 0u) << "conc=0 still ran a concurrent cycle";
  }
}

TEST(GcBackendsTest, ConcurrentMarkPausesStayBelowEagerStw) {
  // The tentpole claim, pinned at the bucket level so machine speed cannot
  // flake it: with ~1 MiB retained through every cycle, eager-STW pauses
  // scale with the live heap (the whole chain walk happens inside the
  // pause) while concurrent-mark pauses scale with the root count (one
  // root here; marking runs between the flips). Log2 buckets separate the
  // two by orders of magnitude, so strict inequality on the slowest
  // nonzero bucket is a stable assertion of "pauses bounded by roots, not
  // live heap".
  StatsSnapshot Stw = retainedHeapCycles(false);
  StatsSnapshot Conc = retainedHeapCycles(true);
  ASSERT_GT(Stw.GcMaxPauseNanos, 0u);
  ASSERT_GT(Conc.GcMaxPauseNanos, 0u);
  EXPECT_LT(highestPauseBucket(Conc), highestPauseBucket(Stw))
      << "conc max pause " << Conc.GcMaxPauseNanos << "ns vs stw "
      << Stw.GcMaxPauseNanos << "ns";
  EXPECT_LT(Conc.GcMaxPauseNanos, Stw.GcMaxPauseNanos);
}
