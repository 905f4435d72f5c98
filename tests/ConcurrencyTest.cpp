//===- tests/ConcurrencyTest.cpp - Multi-threaded heap torture suite ------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Stress tests for the concurrent heap: real mutator threads, the
// safepointed stop-the-world handshake, tcfree under contention (including
// the mock-poison robustness mode), and the parallel execution pipeline.
// The suite is meant to run under ThreadSanitizer (ctest label tsan_smoke);
// every cross-thread access below is synchronized the same way production
// code is -- by the park handshake, by joins, or by the trace hub's locks.
//
//===----------------------------------------------------------------------===//

#include "compiler/Pipeline.h"
#include "runtime/Heap.h"
#include "runtime/SizeClasses.h"
#include "runtime/WordAccess.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

using namespace gofree;
using namespace gofree::rt;

namespace {

/// One mutator thread's live set, doubling as its GC root provider. The
/// owning thread mutates Objs between safepoints; the collector reads it
/// only while the world is stopped (the park handshake orders the two),
/// and the main thread reads it only after join.
class RetainedRoots : public RootScanner {
public:
  struct Obj {
    uintptr_t Addr;
    size_t Bytes;
    uint64_t Pattern;
  };
  std::vector<Obj> Objs;

  void scanRoots(Heap &H) override {
    for (const Obj &O : Objs)
      H.gcMarkAddr(O.Addr);
  }
};

/// Globally unique fill pattern: thread id in the top bits, serial below.
uint64_t patternFor(int Tid, uint64_t Serial) {
  return ((uint64_t)(unsigned)Tid << 48) | (Serial & 0xffffffffffffull);
}

void writePattern(uintptr_t Addr, size_t Bytes, uint64_t Pattern) {
  auto *P = reinterpret_cast<uint64_t *>(Addr);
  for (size_t I = 0; I < Bytes / 8; ++I)
    P[I] = Pattern;
}

bool checkPattern(uintptr_t Addr, size_t Bytes, uint64_t Pattern) {
  auto *P = reinterpret_cast<uint64_t *>(Addr);
  for (size_t I = 0; I < Bytes / 8; ++I)
    if (P[I] != Pattern)
      return false;
  return true;
}

/// Sizes cycle through several small classes plus the occasional dedicated
/// large span, so central-list refills, cache hand-offs, and the
/// TcfreeLarge dangling-span dance all happen under contention.
size_t sizeFor(uint64_t Serial) {
  if (Serial % 101 == 0)
    return MaxSmallSize + 64;
  return 16 + (Serial % 32) * 8;
}

} // namespace

//===----------------------------------------------------------------------===//
// Torture: alloc / verify / tcfree / forced + paced GC, mock poison on
//===----------------------------------------------------------------------===//

TEST(ConcurrencyTortureTest, MixedAllocFreeGcWithMockFlip) {
  HeapOptions HO;
  HO.NumCaches = 4;
  HO.Mock = MockTcfree::Flip;
  HO.Gc.MinHeapTrigger = 256 << 10; // Aggressive pacing: GC fires mid-stress.
  Heap H(HO);

  constexpr int NumThreads = 4;
  constexpr uint64_t Iters = 4000;
  // Scanners are registered by the main thread for the whole stress run:
  // a worker that finished early must keep its survivors rooted while the
  // other workers' GC cycles run, or they are (correctly!) swept and their
  // spans recycled before the final checks. The collector reads a live
  // worker's list only while the world is stopped, and an exited worker's
  // final park-handshake orders its last writes before any later scan.
  std::vector<std::unique_ptr<RetainedRoots>> Roots;
  for (int T = 0; T < NumThreads; ++T) {
    Roots.push_back(std::make_unique<RetainedRoots>());
    H.addRootScanner(Roots.back().get());
  }

  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      RetainedRoots &R = *Roots[(size_t)T];
      {
        Heap::MutatorScope Scope(H, T);
        for (uint64_t I = 0; I < Iters; ++I) {
          size_t Bytes = sizeFor(I);
          uint64_t Pattern = patternFor(T, I);
          uintptr_t A = H.allocate(Bytes, nullptr, AllocCat::Other, T);
          ASSERT_NE(A, 0u);
          writePattern(A, Bytes, Pattern);
          R.Objs.push_back({A, Bytes, Pattern});
          // Keep a bounded live set: verify-then-free the oldest object.
          // tcfree's liveness contract (see Heap.h): the victim stays
          // rooted *across* the call -- a GC at the entry safepoint must
          // not be able to sweep it and hand its slot or pages to a new
          // tenant, or the call would no longer be about the victim. The
          // root entry is dropped only after tcfree returns.
          if (R.Objs.size() > 64) {
            RetainedRoots::Obj Victim = R.Objs.front();
            EXPECT_TRUE(checkPattern(Victim.Addr, Victim.Bytes,
                                     Victim.Pattern))
                << "live object corrupted before tcfree";
            H.tcfreeObject(Victim.Addr, T, FreeSource::TcfreeObject);
            R.Objs.erase(R.Objs.begin());
          }
          if (I % 1000 == 500)
            H.runGc(); // Forced cycles race the pacer and each other.
        }
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();

  // Retained objects survived every GC and every mock poison un-flipped.
  for (auto &R : Roots)
    for (const RetainedRoots::Obj &O : R->Objs) {
      EXPECT_TRUE(H.isLiveObject(O.Addr));
      EXPECT_TRUE(checkPattern(O.Addr, O.Bytes, O.Pattern));
    }

  // No lost counts: every tcfree call landed in exactly one bucket --
  // a give-up reason, the mock bucket, or a freed-by-source count.
  StatsSnapshot S = H.stats().snap();
  uint64_t Accounted = 0;
  for (uint64_t C : S.TcfreeGiveUpsByReason)
    Accounted += C;
  for (uint64_t C : S.FreedCountBySource)
    Accounted += C;
  EXPECT_EQ(S.TcfreeCalls, Accounted);
  EXPECT_GT(S.TcfreeGiveUpsByReason[(int)trace::GiveUpReason::Mock], 0u)
      << "mock mode should have poisoned at least one object";
  // Mock mode never returns memory to the allocator.
  EXPECT_EQ(S.FreedCountBySource[(int)FreeSource::TcfreeObject], 0u);

  // Heap accounting invariants at quiesce.
  EXPECT_LE(H.stats().liveBytes(), H.stats().Committed.load());
  EXPECT_LE(S.tcfreeFreedBytes() + S.GcSweptBytes, S.AllocedBytes);
  EXPECT_LE(S.PeakLive, S.PeakCommitted);
  EXPECT_GE(S.GcCycles, 1u);
  std::string Report;
  EXPECT_TRUE(H.verifyInvariants(&Report)) << Report;
  for (auto &R : Roots)
    H.removeRootScanner(R.get());
}

//===----------------------------------------------------------------------===//
// No double hand-out: unique patterns stay intact across reuse
//===----------------------------------------------------------------------===//

TEST(ConcurrencyTortureTest, NoDoubleHandoutAcrossThreads) {
  // Mode 2 of the threading model: concurrent mutators, no GC possible
  // (no scanner registered, nothing forces a cycle), no registration
  // needed. Real frees recycle slots, so any span handed to two caches at
  // once -- or any slot handed out twice -- shows up as a clobbered
  // pattern or a duplicated address.
  HeapOptions HO;
  HO.NumCaches = 4;
  Heap H(HO);

  constexpr int NumThreads = 4;
  constexpr uint64_t Iters = 3000;
  std::vector<std::vector<RetainedRoots::Obj>> Retained((size_t)NumThreads);

  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      std::vector<RetainedRoots::Obj> &Mine = Retained[(size_t)T];
      uint64_t Serial = 0;
      for (uint64_t I = 0; I < Iters; ++I) {
        size_t Bytes = sizeFor(I);
        uint64_t Pattern = patternFor(T, Serial++);
        uintptr_t A = H.allocate(Bytes, nullptr, AllocCat::Other, T);
        ASSERT_NE(A, 0u);
        writePattern(A, Bytes, Pattern);
        Mine.push_back({A, Bytes, Pattern});
        // Churn: verify-then-free the newest tail once the set grows. The
        // newest objects sit in the caller's current spans, so these frees
        // mostly succeed and their slots recycle while other threads
        // allocate; a give-up (span already handed back to the central
        // list) just leaks the object, which is tcfree's contract.
        if (Mine.size() >= 128) {
          for (size_t J = Mine.size() - 64; J < Mine.size(); ++J) {
            EXPECT_TRUE(
                checkPattern(Mine[J].Addr, Mine[J].Bytes, Mine[J].Pattern));
            H.tcfreeObject(Mine[J].Addr, T, FreeSource::TcfreeObject);
          }
          Mine.resize(Mine.size() - 64);
        }
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();

  // Every surviving address is unique, live, and still carries the exact
  // pattern its allocator wrote.
  std::set<uintptr_t> Seen;
  for (auto &Mine : Retained)
    for (const RetainedRoots::Obj &O : Mine) {
      EXPECT_TRUE(Seen.insert(O.Addr).second)
          << "address handed out to two holders";
      EXPECT_TRUE(H.isLiveObject(O.Addr));
      EXPECT_TRUE(checkPattern(O.Addr, O.Bytes, O.Pattern));
    }
  std::string Report;
  EXPECT_TRUE(H.verifyInvariants(&Report)) << Report;
}

//===----------------------------------------------------------------------===//
// Per-cache stat shards fold back to exact totals
//===----------------------------------------------------------------------===//

// Four threads, each on its own cache with the pacer off, allocate in all
// three categories (small and large), tcfree part of it, take give-ups and
// report stack allocations. Each thread counts what it did; once they are
// joined, the shard sums and the live-byte count must match exactly, and
// again after a collection sweeps the unretained rest.
TEST(ConcurrencyTest, StatShardsFoldExactly) {
  constexpr int NumThreads = 4;
  constexpr uint64_t PerThread = 6000;
  HeapOptions HO;
  HO.NumCaches = NumThreads;
  HO.Gc.Gogc = -1;
  Heap H(HO);

  struct Tally {
    uint64_t Allocs[NumAllocCats] = {};
    uint64_t StackAllocs[NumAllocCats] = {};
    uint64_t AllocBytes = 0;
    uint64_t Calls = 0;
    uint64_t Freed = 0;
    uint64_t FreedBytes = 0;
    uint64_t GiveUps = 0;
  };
  std::vector<Tally> Tallies(NumThreads);
  std::vector<std::unique_ptr<RetainedRoots>> Roots;
  for (int T = 0; T < NumThreads; ++T)
    Roots.push_back(std::make_unique<RetainedRoots>());

  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Tally &Ty = Tallies[(size_t)T];
      RetainedRoots &R = *Roots[(size_t)T];
      for (uint64_t I = 0; I < PerThread; ++I) {
        size_t Bytes = sizeFor(I);
        size_t Rounded = Bytes > MaxSmallSize
                             ? (Bytes + PageSize - 1) / PageSize * PageSize
                             : classSize(sizeClassFor(Bytes));
        auto Cat = (AllocCat)(I % NumAllocCats);
        uintptr_t A = H.allocate(Bytes, nullptr, Cat, T);
        ++Ty.Allocs[(int)Cat];
        Ty.AllocBytes += Rounded;
        switch (I % 4) {
        case 0: // Retained across the collection below.
          R.Objs.push_back({A, Rounded, 0});
          break;
        case 1: // Garbage for the collection.
          break;
        case 2: // Freed, then a give-up on the second free.
          Ty.Calls += 2;
          EXPECT_TRUE(H.tcfreeObject(A, T, FreeSource::TcfreeSlice));
          EXPECT_FALSE(H.tcfreeObject(A, T, FreeSource::TcfreeSlice));
          ++Ty.Freed;
          Ty.FreedBytes += Rounded;
          ++Ty.GiveUps;
          break;
        case 3: // Freed.
          ++Ty.Calls;
          EXPECT_TRUE(H.tcfreeObject(A, T, FreeSource::TcfreeObject));
          ++Ty.Freed;
          Ty.FreedBytes += Rounded;
          break;
        }
        if (I % 97 == 0) {
          ++Ty.Calls;
          EXPECT_FALSE(H.tcfreeObject(0, T, FreeSource::TcfreeMap));
          ++Ty.GiveUps;
          H.noteStackAlloc(T, Cat, Bytes);
          ++Ty.StackAllocs[(int)Cat];
        }
      }
      // Past LiveFoldBytes both ways without a refill in between: three
      // MaxSmallSize objects share one fresh span (it holds four), and
      // freeing them takes the delta back down past the negative bound.
      uintptr_t Big[3];
      for (uintptr_t &A : Big) {
        A = H.allocate(MaxSmallSize, nullptr, AllocCat::Map, T);
        ++Ty.Allocs[(int)AllocCat::Map];
        Ty.AllocBytes += MaxSmallSize;
      }
      for (uintptr_t A : Big) {
        ++Ty.Calls;
        EXPECT_TRUE(H.tcfreeObject(A, T, FreeSource::TcfreeMap));
        ++Ty.Freed;
        Ty.FreedBytes += MaxSmallSize;
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  Tally Sum;
  for (const Tally &Ty : Tallies) {
    for (int C = 0; C < NumAllocCats; ++C) {
      Sum.Allocs[C] += Ty.Allocs[C];
      Sum.StackAllocs[C] += Ty.StackAllocs[C];
    }
    Sum.AllocBytes += Ty.AllocBytes;
    Sum.Calls += Ty.Calls;
    Sum.Freed += Ty.Freed;
    Sum.FreedBytes += Ty.FreedBytes;
    Sum.GiveUps += Ty.GiveUps;
  }
  auto CheckCounts = [&](const StatsSnapshot &S) {
    EXPECT_EQ(S.AllocCount, (uint64_t)NumThreads * (PerThread + 3));
    for (int C = 0; C < NumAllocCats; ++C) {
      EXPECT_EQ(S.AllocCountByCat[C], Sum.Allocs[C]) << "category " << C;
      EXPECT_EQ(S.StackAllocCountByCat[C], Sum.StackAllocs[C])
          << "category " << C;
    }
    EXPECT_EQ(S.AllocedBytes, Sum.AllocBytes);
    uint64_t FreedCount = 0;
    for (uint64_t N : S.FreedCountBySource)
      FreedCount += N;
    EXPECT_EQ(S.TcfreeCalls, Sum.Calls);
    EXPECT_EQ(S.TcfreeGiveUps, Sum.GiveUps);
    EXPECT_EQ(FreedCount, Sum.Freed);
    EXPECT_EQ(S.TcfreeCalls, S.TcfreeGiveUps + FreedCount);
    EXPECT_EQ(S.tcfreeFreedBytes(), Sum.FreedBytes);
  };
  StatsSnapshot S = H.stats().snap();
  CheckCounts(S);
  EXPECT_EQ(H.stats().liveBytes(), S.AllocedBytes - S.tcfreeFreedBytes());
  std::string Report;
  EXPECT_TRUE(H.verifyInvariants(&Report)) << Report;

  // The collection folds every shard, then sweeps all but the retained
  // quarter; the hot-path counters must not move.
  for (auto &R : Roots)
    H.addRootScanner(R.get());
  H.runGc();
  S = H.stats().snap();
  CheckCounts(S);
  uint64_t RetainedBytes = 0;
  for (auto &R : Roots)
    for (const RetainedRoots::Obj &O : R->Objs)
      RetainedBytes += O.Bytes;
  EXPECT_GT(S.GcSweptBytes, 0u);
  EXPECT_EQ(H.stats().liveBytes(),
            S.AllocedBytes - S.tcfreeFreedBytes() - S.GcSweptBytes);
  EXPECT_EQ(H.stats().liveBytes(), RetainedBytes);
  EXPECT_EQ(H.stats().HeapLive.load(), RetainedBytes)
      << "the stop-the-world fold left a delta behind";
  EXPECT_TRUE(H.verifyInvariants(&Report)) << Report;
  for (auto &R : Roots)
    H.removeRootScanner(R.get());
}

// The interleaving StatShardsFoldExactly can hit by chance, forced: A
// frees its large object X, B allocates a large object on X's freed pages,
// then A frees X again. The second free must give up (the pages now hold
// another cache's object), and B's object must stay live and B's to free.
TEST(ConcurrencyTest, SecondTcfreeSparesAnotherCachesLargeObject) {
  HeapOptions HO;
  HO.Gc.Gogc = -1;
  Heap H(HO);
  const size_t Bytes = MaxSmallSize + 64;
  uintptr_t X = 0, Y = 0;
  bool FreedX = false, FreedXAgain = true, YLive = false, FreedY = false;
  std::atomic<int> Turn{0};
  auto WaitTurn = [&](int T) {
    while (Turn.load(std::memory_order_acquire) != T)
      std::this_thread::yield();
  };
  std::thread A([&] {
    X = H.allocate(Bytes, nullptr, AllocCat::Slice, 0);
    FreedX = H.tcfreeObject(X, 0, FreeSource::TcfreeSlice);
    Turn.store(1, std::memory_order_release);
    WaitTurn(2);
    FreedXAgain = H.tcfreeObject(X, 0, FreeSource::TcfreeSlice);
    Turn.store(3, std::memory_order_release);
  });
  std::thread B([&] {
    WaitTurn(1);
    Y = H.allocate(Bytes, nullptr, AllocCat::Slice, 1);
    Turn.store(2, std::memory_order_release);
    WaitTurn(3);
    YLive = H.isLiveObject(Y);
    FreedY = H.tcfreeObject(Y, 1, FreeSource::TcfreeSlice);
  });
  A.join();
  B.join();

  ASSERT_EQ(Y, X) << "the page heap did not reuse the freed pages";
  EXPECT_TRUE(FreedX);
  EXPECT_FALSE(FreedXAgain) << "a stale tcfree freed another cache's object";
  EXPECT_TRUE(YLive);
  EXPECT_TRUE(FreedY);
  StatsSnapshot S = H.stats().snap();
  EXPECT_EQ(S.TcfreeGiveUpsByReason[(int)trace::GiveUpReason::ForeignSpan],
            1u);
  EXPECT_EQ(S.TcfreeGiveUps, 1u);
}

//===----------------------------------------------------------------------===//
// Stop-the-world handshake under contention
//===----------------------------------------------------------------------===//

TEST(ConcurrencySafepointTest, ConcurrentForcedGcLosersPark) {
  // All threads force cycles at once. Losers of the GcMu race must park at
  // their safepoint (blocking there would deadlock the winner, which is
  // waiting for them) and return once the winner's cycle counts for them.
  HeapOptions HO;
  HO.NumCaches = 4;
  Heap H(HO);

  constexpr int NumThreads = 4;
  // Registered for the whole run, like the torture test: an early-exiting
  // worker's survivors must stay rooted through the stragglers' cycles.
  std::vector<std::unique_ptr<RetainedRoots>> Roots;
  for (int T = 0; T < NumThreads; ++T) {
    Roots.push_back(std::make_unique<RetainedRoots>());
    H.addRootScanner(Roots.back().get());
  }

  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      RetainedRoots &R = *Roots[(size_t)T];
      {
        Heap::MutatorScope Scope(H, T);
        for (int I = 0; I < 25; ++I) {
          for (int J = 0; J < 16; ++J) {
            size_t Bytes = 64;
            uint64_t Pattern = patternFor(T, (uint64_t)(I * 16 + J));
            uintptr_t A = H.allocate(Bytes, nullptr, AllocCat::Other, T);
            ASSERT_NE(A, 0u);
            writePattern(A, Bytes, Pattern);
            R.Objs.push_back({A, Bytes, Pattern});
          }
          H.runGc();
        }
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();

  StatsSnapshot S = H.stats().snap();
  EXPECT_GE(S.GcCycles, 1u);
  // A shared cycle satisfies several forced calls, so cycles never exceed
  // the number of forcing calls.
  EXPECT_LE(S.GcCycles, (uint64_t)NumThreads * 25);
  for (auto &R : Roots)
    for (const RetainedRoots::Obj &O : R->Objs) {
      EXPECT_TRUE(H.isLiveObject(O.Addr));
      EXPECT_TRUE(checkPattern(O.Addr, O.Bytes, O.Pattern));
    }
  for (auto &R : Roots)
    H.removeRootScanner(R.get());
}

TEST(ConcurrencySafepointTest, MutatorScopeChurnDuringGc) {
  // Threads keep entering and leaving MutatorScope while a collector
  // repeatedly stops the world. Registration while stopped must fold the
  // newcomer into the quorum; deregistration must release a collector
  // waiting on the leaving thread. Completion is the assertion.
  HeapOptions HO;
  HO.NumCaches = 4;
  Heap H(HO);

  RetainedRoots GcRoots;
  std::thread Collector([&] {
    H.addRootScanner(&GcRoots);
    {
      Heap::MutatorScope Scope(H, 0);
      for (int I = 0; I < 60; ++I) {
        uintptr_t A = H.allocate(64, nullptr, AllocCat::Other, 0);
        ASSERT_NE(A, 0u);
        GcRoots.Objs.push_back({A, 64, 0});
        H.runGc();
      }
    }
    H.removeRootScanner(&GcRoots);
  });

  std::vector<std::thread> Churners;
  for (int T = 1; T <= 2; ++T) {
    Churners.emplace_back([&, T] {
      for (int I = 0; I < 40; ++I) {
        Heap::MutatorScope Scope(H, T);
        uintptr_t Objs[8];
        for (int J = 0; J < 8; ++J) {
          Objs[J] = H.allocate(48, nullptr, AllocCat::Other, T);
          ASSERT_NE(Objs[J], 0u);
        }
        for (uintptr_t A : Objs)
          H.tcfreeObject(A, T, FreeSource::TcfreeObject);
      }
    });
  }
  Collector.join();
  for (std::thread &Th : Churners)
    Th.join();
  EXPECT_GE(H.stats().snap().GcCycles, 1u);
}

//===----------------------------------------------------------------------===//
// Parallel pipeline: N workers, one heap, combined results
//===----------------------------------------------------------------------===//

TEST(ParallelPipelineTest, ChecksumScalesWithWorkerCount) {
  compiler::Compilation C = compiler::compile(
      "func main(n int) {\n"
      "  total := 0\n"
      "  for i := 0; i < n; i++ {\n"
      "    s := make([]int, 32)\n"
      "    for j := range s { s[j] = i + j }\n"
      "    for _, v := range s { total += v }\n"
      "  }\n"
      "  sink(total)\n"
      "}\n",
      {});
  ASSERT_TRUE(C.ok()) << C.Errors;

  compiler::ExecOutcome Single = compiler::execute(C, "main", {200});
  ASSERT_TRUE(Single.Run.ok()) << Single.Run.Error;

  trace::TraceHub Hub;
  compiler::ExecOptions EO;
  EO.NumThreads = 4;
  EO.Hub = &Hub;
  compiler::ExecOutcome Par = compiler::execute(C, "main", {200}, EO);
  ASSERT_TRUE(Par.Run.ok()) << Par.Run.Error;

  // Counters combine by wrapping addition across identical workers.
  EXPECT_EQ(Par.Run.Checksum, Single.Run.Checksum * 4);
  EXPECT_EQ(Par.Run.SinkCount, Single.Run.SinkCount * 4);
  EXPECT_EQ(Par.Run.Steps, Single.Run.Steps * 4);
  EXPECT_EQ(Par.Stats.AllocCount, Single.Stats.AllocCount * 4);

  // Each worker got its own hub sink, and their events merge into one
  // globally ordered stream.
  EXPECT_EQ(Hub.sinkCount(), 4u);
  std::vector<trace::Event> Merged = Hub.merge();
  EXPECT_FALSE(Merged.empty());
  for (size_t I = 1; I < Merged.size(); ++I)
    EXPECT_LE(Merged[I - 1].TimeNs, Merged[I].TimeNs);
}

TEST(ParallelPipelineTest, OperandStackRootsExactWhileParked) {
  // The VM keeps its operand-stack top in a register and writes it back
  // before every call that can park. Here fresh heap objects are reachable
  // only from the operand stack -- a call result waiting to be appended,
  // to become an argument or to be stored into a map -- across append,
  // make, a composite, a map store and calls, each of which can park this
  // mutator while another one collects with heap verification on. An
  // entry the scan missed would be freed under the program.
  compiler::Compilation C = compiler::compile(
      "type T struct { v int\n next *T\n }\n"
      "func mk(v int) *T { return &T{v: v} }\n"
      "func link(a *T, b *T) *T {\n"
      "  a.next = b\n"
      "  return a\n"
      "}\n"
      "func sum(p *T, s []*T, m map[int]*T) int {\n"
      "  t := p.v + len(m)\n"
      "  for i := 0; i < len(s); i++ {\n"
      "    if q := s[i]; q != nil {\n"
      "      t += q.v\n"
      "      if q.next != nil { t += q.next.v }\n"
      "    }\n"
      "  }\n"
      "  return t\n"
      "}\n"
      "func main(n int) {\n"
      "  total := 0\n"
      "  m := make(map[int]*T)\n"
      "  for i := 0; i < n; i++ {\n"
      "    s := make([]*T, 0)\n"
      "    s = append(s, mk(i))\n"
      "    total += sum(mk(i + 1), append(s, link(mk(i), &T{v: i * 3})), m)\n"
      "    total += sum(mk(i + 2), make([]*T, i % 5 + 1), m)\n"
      "    m[i % 64] = link(mk(i), mk(i + 2))\n"
      "    total += m[i % 64].next.v\n"
      "  }\n"
      "  sink(total)\n"
      "}\n",
      {});
  ASSERT_TRUE(C.ok()) << C.Errors;
  const std::vector<int64_t> Args = {20000};

  compiler::ExecOptions Oracle;
  Oracle.Engine = compiler::ExecEngine::Ast;
  compiler::ExecOutcome Ref = compiler::execute(C, "main", Args, Oracle);
  ASSERT_TRUE(Ref.ok()) << Ref.Error;

  for (bool Concurrent : {true, false}) {
    compiler::ExecOptions EO;
    EO.NumThreads = 3;
    EO.Heap.Gc.Verify = true;
    EO.Heap.Gc.MinHeapTrigger = 4 << 10;
    EO.Heap.Gc.Concurrent = Concurrent;
    compiler::ExecOutcome O = compiler::execute(C, "main", Args, EO);
    ASSERT_TRUE(O.ok()) << O.Error << " (conc=" << Concurrent << ")";
    EXPECT_EQ(O.Run.Checksum, Ref.Run.Checksum * 3) << "conc=" << Concurrent;
    EXPECT_EQ(O.Run.SinkCount, 3u);
    EXPECT_GT(O.Stats.GcCycles, 10u) << "too few collections to test";
  }
}

//===----------------------------------------------------------------------===//
// TraceHub: per-thread sinks merge into one ordered stream
//===----------------------------------------------------------------------===//

TEST(TraceHubTest, ParallelEmittersMergeOrdered) {
  trace::TraceHub Hub;
  constexpr int NumThreads = 4;
  constexpr uint64_t PerThread = 2000;

  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      trace::TraceSink *Sink = Hub.makeSink();
      for (uint64_t I = 0; I < PerThread; ++I)
        Sink->emit(trace::EventKind::HeapAlloc, (uint8_t)T, I);
    });
  }
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(Hub.sinkCount(), (size_t)NumThreads);
  EXPECT_EQ(Hub.dropped(), 0u);
  std::vector<trace::Event> Merged = Hub.merge();
  ASSERT_EQ(Merged.size(), (size_t)NumThreads * PerThread);
  uint64_t PerSource[NumThreads] = {};
  for (size_t I = 0; I < Merged.size(); ++I) {
    if (I > 0) {
      EXPECT_LE(Merged[I - 1].TimeNs, Merged[I].TimeNs);
    }
    ASSERT_LT(Merged[I].Arg, NumThreads);
    // Within one producer, merge preserves program order (stable sort on a
    // shared epoch), so serials arrive ascending per source.
    EXPECT_EQ(Merged[I].V0, PerSource[Merged[I].Arg]++);
  }
}

//===----------------------------------------------------------------------===//
// Parallel mark workers + lazy sweeping under real mutator contention
//===----------------------------------------------------------------------===//

namespace {
/// {3 pattern words, next}: chain nodes for the parallel-mark torture. The
/// mark workers must chase these chains concurrently, stealing chunks from
/// each other when their own stacks run dry.
const TypeDesc *chainNodeDesc() {
  static const TypeDesc D{"chainnode", 32, false, nullptr,
                          {{24, SlotKind::Raw}}};
  return &D;
}
} // namespace

TEST(ConcurrencyGcWorkersTest, ParallelMarkTortureKeepsChainsAlive) {
  // Four mutators race four mark workers: each thread builds linked chains
  // and roots only the heads, so every interior node's liveness depends on
  // the parallel mark phase tracing it -- a missed mark, a torn mark bit,
  // or a botched steal shows up as a dead or clobbered chain node. Forced
  // cycles from non-solo threads sweep lazily, so mutators also race the
  // refill/credit sweep paths the whole time.
  HeapOptions HO;
  HO.NumCaches = 4;
  HO.Gc.Workers = 4;
  HO.Gc.MinHeapTrigger = 256 << 10;
  Heap H(HO);

  constexpr int NumThreads = 4;
  constexpr int NumChains = 40;
  constexpr int ChainLen = 64;

  std::vector<std::unique_ptr<RetainedRoots>> Roots;
  for (int T = 0; T < NumThreads; ++T) {
    Roots.push_back(std::make_unique<RetainedRoots>());
    H.addRootScanner(Roots.back().get());
  }

  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      RetainedRoots &R = *Roots[(size_t)T];
      Heap::MutatorScope Scope(H, T);
      uint64_t Serial = 0;
      for (int C = 0; C < NumChains; ++C) {
        // The chain must be rooted *while under construction*: another
        // thread's GC can stop us at any allocation safepoint, and an
        // unrooted partial chain would (correctly) be swept and its slots
        // recycled into later nodes, aliasing the chain onto itself. So
        // the entry goes in first and tracks the growing head; only this
        // thread writes it, and the collector reads it only while this
        // thread is parked.
        R.Objs.push_back({0, 24, 0});
        uintptr_t Head = 0;
        for (int I = 0; I < ChainLen; ++I) {
          uintptr_t N = H.allocate(32, chainNodeDesc(), AllocCat::Other, T);
          ASSERT_NE(N, 0u);
          uint64_t Pattern = patternFor(T, Serial++);
          writePattern(N, 24, Pattern);
          std::memcpy(reinterpret_cast<void *>(N + 24), &Head, 8);
          Head = N;
          R.Objs.back() = {Head, 24, Pattern};
          // Interleaved garbage: every chain node comes with an unrooted
          // sibling for the lazy and STW sweeps to reclaim.
          H.allocate(48, nullptr, AllocCat::Other, T);
        }
        // From here the entry roots the finished head; the other 63 nodes
        // live or die by the mark phase tracing the chain.
        if (C % 8 == 4)
          H.runGc();
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();

  // Walk every retained chain: all ChainLen nodes must still be there.
  for (auto &R : Roots)
    for (const RetainedRoots::Obj &O : R->Objs) {
      EXPECT_TRUE(checkPattern(O.Addr, O.Bytes, O.Pattern));
      uintptr_t N = O.Addr;
      int Len = 0;
      while (N != 0 && Len <= ChainLen) {
        ASSERT_TRUE(H.isLiveObject(N)) << "chain node swept at depth " << Len;
        ++Len;
        std::memcpy(&N, reinterpret_cast<void *>(N + 24), 8);
      }
      EXPECT_EQ(Len, ChainLen);
    }

  EXPECT_GE(H.stats().snap().GcCycles, 1u);
  std::string Report;
  EXPECT_TRUE(H.verifyInvariants(&Report)) << Report;
  for (auto &R : Roots)
    H.removeRootScanner(R.get());
}

TEST(ConcurrencyGcWorkersTest, LazySweepNeverDoubleCountsBytes) {
  // Spans get swept concurrently from cache refills, the owner fast path,
  // tcfree, and the allocation slow path's sweep credit. The SweepGen CAS
  // must hand each span to exactly one sweeper: a double sweep counts
  // GcSweptBytes twice and drives HeapLive negative, a lost span strands
  // bytes forever. After the dust settles, the books must balance to the
  // exact byte: everything ever allocated is still live, was tcfreed, or
  // was swept -- once.
  HeapOptions HO;
  HO.NumCaches = 4;
  HO.Gc.Workers = 2;
  HO.Gc.MinHeapTrigger = 128 << 10;
  Heap H(HO);

  constexpr int NumThreads = 4;
  constexpr uint64_t Iters = 4000;
  std::vector<std::unique_ptr<RetainedRoots>> Roots;
  for (int T = 0; T < NumThreads; ++T) {
    Roots.push_back(std::make_unique<RetainedRoots>());
    H.addRootScanner(Roots.back().get());
  }

  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      RetainedRoots &R = *Roots[(size_t)T];
      Heap::MutatorScope Scope(H, T);
      for (uint64_t I = 0; I < Iters; ++I) {
        size_t Bytes = sizeFor(I);
        uint64_t Pattern = patternFor(T, I);
        uintptr_t A = H.allocate(Bytes, nullptr, AllocCat::Other, T);
        ASSERT_NE(A, 0u);
        writePattern(A, Bytes, Pattern);
        R.Objs.push_back({A, Bytes, Pattern});
        if (R.Objs.size() > 48) {
          // Half the overflow is tcfreed, half dropped for the GC: both
          // reclamation paths stay busy against the paced lazy cycles.
          RetainedRoots::Obj Victim = R.Objs.front();
          EXPECT_TRUE(checkPattern(Victim.Addr, Victim.Bytes, Victim.Pattern));
          if (I % 2 == 0)
            H.tcfreeObject(Victim.Addr, T, FreeSource::TcfreeObject);
          R.Objs.erase(R.Objs.begin());
        }
        if (I % 1500 == 750)
          H.runGc();
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();

  // Quiesce: a solo forced cycle sweeps eagerly, so no debt remains and
  // only the rooted survivors count as live.
  H.runGc();
  ASSERT_EQ(H.unsweptSpanCount(), 0u);
  StatsSnapshot S = H.stats().snap();
  uint64_t LiveExpected = 0;
  for (auto &R : Roots)
    for (const RetainedRoots::Obj &O : R->Objs) {
      EXPECT_TRUE(H.isLiveObject(O.Addr));
      EXPECT_TRUE(checkPattern(O.Addr, O.Bytes, O.Pattern));
      ++LiveExpected;
    }
  EXPECT_EQ(LiveExpected, (uint64_t)NumThreads * 48);
  EXPECT_EQ(S.AllocedBytes, S.GcSweptBytes + S.tcfreeFreedBytes() +
                                H.stats().liveBytes())
      << "swept/freed/live bytes do not add back up to allocated bytes";
  std::string Report;
  EXPECT_TRUE(H.verifyInvariants(&Report)) << Report;
  for (auto &R : Roots)
    H.removeRootScanner(R.get());
}

TEST(TraceHubTest, DroppedEventsAreCountedAcrossSinks) {
  trace::TraceHub Hub(/*CapacityPerSink=*/8);
  trace::TraceSink *A = Hub.makeSink();
  trace::TraceSink *B = Hub.makeSink();
  for (int I = 0; I < 20; ++I) {
    A->emit(trace::EventKind::HeapAlloc);
    B->emit(trace::EventKind::HeapAlloc);
  }
  EXPECT_EQ(Hub.merge().size(), 16u);
  EXPECT_EQ(Hub.dropped(), 24u);
}

//===----------------------------------------------------------------------===//
// Concurrent tricolor mark torture: pointer churn mid-window, reachability
// preserved only by the Dijkstra write barrier
//===----------------------------------------------------------------------===//

namespace {

/// Barriered pointer store, the engines' storeValueAt idiom: shade the new
/// value while a mark is running, then publish with a relaxed atomic store
/// (a background marker may read the slot concurrently).
void storeNext(Heap &H, uintptr_t Slot, uintptr_t NewVal) {
  if (H.gcBarrierActive())
    H.gcWriteBarrier(Slot, NewVal);
  storeWordRelaxed(Slot, NewVal);
}

/// Roots only the chain heads; interior nodes live or die by tracing. The
/// owning thread rewires chains between safepoints, the collector reads
/// them only while that thread is parked (flip handshake).
class ChainHeads : public RootScanner {
public:
  struct Node {
    uintptr_t Addr;
    uint64_t Pattern;
  };
  std::vector<std::vector<Node>> Chains; ///< [chain][pos], head at 0.

  void scanRoots(Heap &H) override {
    for (const std::vector<Node> &C : Chains)
      if (!C.empty())
        H.gcMarkAddr(C.front().Addr);
  }
};

// Four mutators race concurrent mark windows (marksweep, conc on by
// default, aggressive pacing) while continuously splicing chain tails
// between chains through the barriered store path. Mid-window a splice
// stores a possibly-white tail into a possibly-already-scanned (black)
// node and then severs the old edge -- exactly the interleaving that
// loses objects if the Dijkstra barrier misses a shade. The per-thread
// ground-truth vectors say what each chain must look like afterwards;
// verify=1 additionally runs the tricolor invariant check at every
// final flip and the whole-heap verifier at every cycle. The final stats
// land in \p Out.
void runPointerChurn(int Workers, int NumChains, size_t GarbageBytes,
                     StatsSnapshot &Out) {
  HeapOptions HO;
  HO.NumCaches = 4;
  HO.Gc.Workers = Workers;
  HO.Gc.MinHeapTrigger = 192 << 10;
  HO.Gc.Verify = true;
  Heap H(HO);

  constexpr int NumThreads = 4;
  constexpr int InitLen = 24;
  constexpr uint64_t Iters = 3000;

  std::vector<std::unique_ptr<ChainHeads>> Roots;
  for (int T = 0; T < NumThreads; ++T) {
    Roots.push_back(std::make_unique<ChainHeads>());
    Roots.back()->Chains.resize(NumChains);
    H.addRootScanner(Roots.back().get());
  }

  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      ChainHeads &R = *Roots[(size_t)T];
      Heap::MutatorScope Scope(H, T);
      uint64_t Serial = 0, Rng = 0x9e3779b97f4a7c15ull * (uint64_t)(T + 1);
      auto Next = [&] {
        Rng = Rng * 6364136223846793005ull + 1442695040888963407ull;
        return Rng >> 33;
      };
      auto NewNode = [&] {
        uintptr_t N = H.allocate(32, chainNodeDesc(), AllocCat::Other, T);
        EXPECT_NE(N, 0u);
        uint64_t Pattern = patternFor(T, Serial++);
        writePattern(N, 24, Pattern);
        storeNext(H, N + 24, 0);
        return ChainHeads::Node{N, Pattern};
      };
      // Seed: chains built tail-first so the head entry (the only root)
      // is in place before any node hangs off it.
      for (int C = 0; C < NumChains; ++C) {
        std::vector<ChainHeads::Node> &Chain = R.Chains[(size_t)C];
        for (int I = 0; I < InitLen; ++I) {
          ChainHeads::Node N = NewNode();
          if (!Chain.empty())
            storeNext(H, N.Addr + 24, Chain.front().Addr);
          Chain.insert(Chain.begin(), N);
        }
      }
      for (uint64_t I = 0; I < Iters; ++I) {
        size_t A = Next() % NumChains, B = Next() % NumChains;
        std::vector<ChainHeads::Node> &Donor = R.Chains[A];
        std::vector<ChainHeads::Node> &Recv = R.Chains[B];
        if (A != B && Donor.size() > 2 && !Recv.empty()) {
          // Splice the donor's tail onto the receiver's end: link first
          // (the barrier shades the tail), then sever the donor edge. The
          // tail is never unreachable in between, so reachability at every
          // possible flip is exactly what the ground truth says.
          size_t K = 1 + Next() % (Donor.size() - 1);
          storeNext(H, Recv.back().Addr + 24, Donor[K].Addr);
          storeNext(H, Donor[K - 1].Addr + 24, 0);
          Recv.insert(Recv.end(), Donor.begin() + (ptrdiff_t)K, Donor.end());
          Donor.erase(Donor.begin() + (ptrdiff_t)K, Donor.end());
        } else {
          // Grow: push a fresh head (rooted immediately via the vector).
          ChainHeads::Node N = NewNode();
          if (!Recv.empty())
            storeNext(H, N.Addr + 24, Recv.front().Addr);
          Recv.insert(Recv.begin(), N);
        }
        // Unrooted garbage keeps the pacer honest mid-churn.
        H.allocate(GarbageBytes, nullptr, AllocCat::Other, T);
        if (I % 750 == 375)
          H.runGc(); // Forced cycles race the paced ones.
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();

  // Every chain must match its ground truth node-for-node: a swept or
  // clobbered spliced tail breaks the address walk or the pattern check.
  for (auto &R : Roots)
    for (const std::vector<ChainHeads::Node> &Chain : R->Chains) {
      uintptr_t At = Chain.empty() ? 0 : Chain.front().Addr;
      for (const ChainHeads::Node &N : Chain) {
        ASSERT_EQ(At, N.Addr) << "chain walk diverged from ground truth";
        ASSERT_TRUE(H.isLiveObject(N.Addr));
        EXPECT_TRUE(checkPattern(N.Addr, 24, N.Pattern))
            << "spliced node clobbered: missed barrier shade";
        At = loadWordRelaxed(N.Addr + 24);
      }
      EXPECT_EQ(At, 0u) << "chain longer than ground truth";
    }

  Out = H.stats().snap();
  const StatsSnapshot &S = Out;
  EXPECT_GE(S.GcConcCycles, 1u) << "no cycle ran the concurrent path";
  // Two pauses per concurrent cycle, one per STW cycle, and the histogram
  // buckets every one of them.
  EXPECT_EQ(S.GcPauses, S.GcCycles + S.GcConcCycles);
  uint64_t HistSum = 0;
  for (uint64_t B : S.GcPauseHist)
    HistSum += B;
  EXPECT_EQ(HistSum, S.GcPauses);
  EXPECT_TRUE(H.invariantFailure().empty()) << H.invariantFailure();
  std::string Report;
  EXPECT_TRUE(H.verifyInvariants(&Report)) << Report;
  for (auto &R : Roots)
    H.removeRootScanner(R.get());
}

} // namespace

TEST(ConcurrencyConcMarkTest, PointerChurnDuringConcurrentMarkStaysReachable) {
  StatsSnapshot S;
  runPointerChurn(/*Workers=*/4, /*NumChains=*/8, /*GarbageBytes=*/48, S);
}

// One mark worker, and enough chains that the root scan leaves it more
// than a chunk of gray: during the window it publishes chunks, and the
// mutators, allocating fast enough to owe assists, steal them while it
// keeps marking.
TEST(ConcurrencyConcMarkTest, LoneWorkerChunksStolenByAssists) {
  StatsSnapshot S;
  runPointerChurn(/*Workers=*/1, /*NumChains=*/96, /*GarbageBytes=*/2048, S);
  EXPECT_GT(S.GcAssists, 0u) << "no mutator assist ran";
}
