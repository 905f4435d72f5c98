//===- runtime/Heap.cpp - Thread-caching heap allocation paths ------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Locking. Two lock tiers, always acquired in this order when nested:
//   1. a per-size-class central-list mutex (Central[Class].Mu),
//   2. the page-heap mutex Mu (free runs, page-map writes, span lifecycle).
// The fast paths (cache-hit allocation, owned-span tcfree) take no locks at
// all; their safety comes from the cache-ownership invariant documented in
// MSpan.h plus the stop-the-world handshake in Gc.cpp. Page-map reads
// (lookupSpan) take no lock either: entries are published with release
// stores under Mu and read with acquire loads.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <new>
#include <sys/mman.h>

using namespace gofree;
using namespace gofree::rt;

// support/Trace.cpp keeps its own name tables for these runtime enums
// (support cannot link against runtime); pin the values so the tables and
// the enums cannot drift apart.
static_assert((int)AllocCat::Other == 0 && (int)AllocCat::Slice == 1 &&
                  (int)AllocCat::Map == 2 &&
                  NumAllocCats == trace::NumAllocCats,
              "trace::allocCatName is out of sync with rt::AllocCat");
static_assert((int)FreeSource::TcfreeObject == 0 &&
                  (int)FreeSource::TcfreeSlice == 1 &&
                  (int)FreeSource::TcfreeMap == 2 &&
                  (int)FreeSource::MapGrowOld == 3 &&
                  NumFreeSources == trace::NumFreeSources,
              "trace::freeSourceName is out of sync with rt::FreeSource");

RootScanner::~RootScanner() = default;

namespace {
/// Per-thread mutator registration (Heap::MutatorScope). Identifies which
/// heap the thread is a registered mutator of (for the stop-the-world
/// quorum) and the thread's private trace sink, if any.
struct MutatorTls {
  Heap *H = nullptr;
  trace::TraceSink *Sink = nullptr;
};
thread_local MutatorTls Tls;

/// The calling thread's stall counters (Heap::threadStalls). A plain
/// thread_local rather than a Heap member: the counters survive heap
/// teardown and cost no indirection on the park/assist paths.
thread_local Heap::ThreadStalls StallsTls;
} // namespace

Heap::ThreadStalls &Heap::tlsStalls() { return StallsTls; }

Heap::ThreadStalls Heap::threadStalls() { return StallsTls; }

Heap::Heap(HeapOptions O) : Opts(O) {
  // Clamp unconditionally: an assert would compile away in release builds
  // and leave Caches empty, making the very first allocSmall read out of
  // bounds.
  if (Opts.NumCaches < 1)
    Opts.NumCaches = 1;
  if (Opts.Gc.Workers < 1)
    Opts.Gc.Workers = 1;
  if (Opts.Gc.Workers > 256)
    Opts.Gc.Workers = 256;
  // The generational and rc backends free inside their partial cycles'
  // pauses; a lazy sweeper racing a partial cycle's bookkeeping has no
  // sound protocol, so those backends always sweep full cycles eagerly.
  if (Opts.Gc.Backend != GcBackendKind::MarkSweep)
    Opts.Gc.EagerSweep = true;
  NextTrigger.store(Opts.Gc.MinHeapTrigger, std::memory_order_relaxed);
  Backend = makeGcBackend(*this, Opts.Gc);
  // Generational and rc need their barrier standing (remembered set /
  // refcounts); marksweep raises BarrierOn only during concurrent mark.
  BarrierAlways = Opts.Gc.Backend != GcBackendKind::MarkSweep;
  BarrierOn.store(BarrierAlways, std::memory_order_relaxed);
  Central = std::make_unique<CentralList[]>((size_t)numSizeClasses());
  Caches.resize((size_t)Opts.NumCaches);
  for (Cache &C : Caches)
    C.Current.assign((size_t)numSizeClasses(), nullptr);
  // Reserve the page range and its page map last, so that nothing can
  // throw after them and leak them (hence the free-run list is allocated
  // first). MAP_NORESERVE keeps the reservation free: the OS backs a page
  // only once a span (or a page-map entry) on it is written.
  FreeRuns.resize(1);
  auto Reserve = [](size_t Bytes) {
    return mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  };
  void *Arena = Reserve(ArenaBytes);
  if (Arena == MAP_FAILED)
    throw std::bad_alloc();
  void *Map = Reserve(ArenaPages * sizeof(MSpan *));
  if (Map == MAP_FAILED) {
    munmap(Arena, ArenaBytes);
    throw std::bad_alloc();
  }
  ArenaBase = reinterpret_cast<uintptr_t>(Arena);
  PageMap = static_cast<MSpan **>(Map);
  FreeRuns[0] = {ArenaBase, ArenaPages};
}

// ~Heap lives in Gc.cpp: it must join the mark-worker pool and destroy the
// GcMarkShared block, whose type is complete only there.

int Heap::clampCacheId(int CacheId) const {
  // Same rationale as the NumCaches clamp: out-of-range ids must not
  // become out-of-bounds indexes when NDEBUG disables the asserts.
  if (CacheId < 0)
    return 0;
  if (CacheId >= Opts.NumCaches)
    return Opts.NumCaches - 1;
  return CacheId;
}

trace::TraceSink *Heap::traceSink() const {
  if (Tls.H == this && Tls.Sink)
    return Tls.Sink;
  return Opts.Trace;
}

bool Heap::currentThreadIsMutatorHere() const { return Tls.H == this; }

//===----------------------------------------------------------------------===//
// MutatorScope
//===----------------------------------------------------------------------===//

Heap::MutatorScope::MutatorScope(Heap &H, int CacheId, trace::TraceSink *Sink)
    : H(H), Id(H.clampCacheId(CacheId)), PrevHeap(Tls.H), PrevSink(Tls.Sink) {
  Tls.H = &H;
  Tls.Sink = Sink;
  // Nested scopes on the same heap keep the outer registration (the thread
  // can only park once).
  if (PrevHeap != &H) {
    std::unique_lock<std::mutex> Lock(H.ParkMu);
    // Join only while the world runs: a thread registering mid-stop is not
    // in the collector's quorum, yet would run mutator code (and change
    // its roots) while the collector scans them.
    H.ParkCv.wait(Lock, [&] {
      return !H.StopWorld.load(std::memory_order_relaxed);
    });
    ++H.RegisteredMutators;
  }
}

Heap::MutatorScope::~MutatorScope() {
  if (PrevHeap != &H) {
    {
      std::lock_guard<std::mutex> Lock(H.ParkMu);
      --H.RegisteredMutators;
    }
    // A collector waiting for the stop-the-world quorum no longer needs
    // this thread to park.
    H.StwCv.notify_all();
  }
  Tls.H = PrevHeap;
  Tls.Sink = PrevSink;
}

//===----------------------------------------------------------------------===//
// Safepoints
//===----------------------------------------------------------------------===//

void Heap::parkAtSafepoint() {
  // The collector's own heap calls (e.g. a root scanner calling tcfree
  // re-entrantly) must not park on the stop request they themselves
  // raised; threads not registered on this heap are outside the handshake
  // (they may only run concurrently in the documented no-GC mode).
  if (currentThreadIsCollector() || !currentThreadIsMutatorHere())
    return;
  std::unique_lock<std::mutex> Lock(ParkMu);
  if (!StopWorld.load(std::memory_order_relaxed))
    return; // The world restarted before we got here.
  ++ParkedMutators;
  StwCv.notify_one();
  // Time only the wait itself: this is the GC-pause overlap the thread's
  // current work actually suffered (the serving harness attributes the
  // delta to the in-flight request).
  auto T0 = std::chrono::steady_clock::now();
  ParkCv.wait(Lock, [&] { return !StopWorld.load(std::memory_order_relaxed); });
  ThreadStalls &St = tlsStalls();
  St.GcParkNanos += (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - T0)
                        .count();
  ++St.GcParks;
  --ParkedMutators;
}

void Heap::stopTheWorld() {
  StopWorld.store(true, std::memory_order_release);
  std::unique_lock<std::mutex> Lock(ParkMu);
  // The collector itself may be a registered mutator (a worker thread that
  // hit the pacer or forced a cycle); it obviously cannot park.
  int Self = currentThreadIsMutatorHere() ? 1 : 0;
  StwCv.wait(Lock,
             [&] { return ParkedMutators >= RegisteredMutators - Self; });
  // Every registered mutator is now blocked in parkAtSafepoint; their
  // ParkMu critical sections give the collector a happens-before edge to
  // everything they wrote before parking.
}

void Heap::startTheWorld() {
  {
    std::lock_guard<std::mutex> Lock(ParkMu);
    StopWorld.store(false, std::memory_order_release);
  }
  ParkCv.notify_all();
}

//===----------------------------------------------------------------------===//
// Internal roots and scanner registration
//===----------------------------------------------------------------------===//

void Heap::pushInternalRoot(uintptr_t Addr) {
  std::lock_guard<std::mutex> Lock(RootsMu);
  InternalRoots.push_back(Addr);
}

void Heap::popInternalRoot(uintptr_t Addr) {
  std::lock_guard<std::mutex> Lock(RootsMu);
  // Scopes on different threads interleave, so the root to drop is not
  // necessarily the last one pushed; erase the newest matching entry.
  for (size_t I = InternalRoots.size(); I-- > 0;) {
    if (InternalRoots[I] == Addr) {
      InternalRoots.erase(InternalRoots.begin() + (ptrdiff_t)I);
      return;
    }
  }
  assert(false && "popInternalRoot: root not found");
}

void Heap::addRootScanner(RootScanner *S) {
  std::lock_guard<std::mutex> GcLock(GcMu);
  std::lock_guard<std::mutex> Lock(RootsMu);
  Scanners.push_back(S);
  HasScanner.store(true, std::memory_order_relaxed);
}

void Heap::removeRootScanner(RootScanner *S) {
  std::lock_guard<std::mutex> GcLock(GcMu); // Wait out any in-flight cycle.
  std::lock_guard<std::mutex> Lock(RootsMu);
  for (size_t I = Scanners.size(); I-- > 0;) {
    if (Scanners[I] == S) {
      Scanners.erase(Scanners.begin() + (ptrdiff_t)I);
      break;
    }
  }
  HasScanner.store(!Scanners.empty(), std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Page heap
//===----------------------------------------------------------------------===//

Heap::Run Heap::allocPages(size_t NPages) {
  // First fit over the free runs, splitting the remainder. The runs start
  // as one run covering the whole reservation, so a miss means it is used
  // up.
  for (size_t I = 0; I < FreeRuns.size(); ++I) {
    if (FreeRuns[I].NPages < NPages)
      continue;
    Run R{FreeRuns[I].Base, NPages};
    if (FreeRuns[I].NPages == NPages) {
      FreeRuns.erase(FreeRuns.begin() + (ptrdiff_t)I);
    } else {
      FreeRuns[I].Base += NPages * PageSize;
      FreeRuns[I].NPages -= NPages;
    }
    ArenaHighPage = std::max(ArenaHighPage,
                             ((R.Base - ArenaBase) >> PageShift) + NPages);
    return R;
  }
  throw std::bad_alloc();
}

void Heap::freePages(uintptr_t Base, size_t NPages) {
  // Insert sorted and coalesce with address-adjacent neighbours.
  Run R{Base, NPages};
  auto It = std::lower_bound(
      FreeRuns.begin(), FreeRuns.end(), R,
      [](const Run &A, const Run &B) { return A.Base < B.Base; });
  It = FreeRuns.insert(It, R);
  if (It + 1 != FreeRuns.end() &&
      It->Base + It->NPages * PageSize == (It + 1)->Base) {
    It->NPages += (It + 1)->NPages;
    FreeRuns.erase(It + 1);
  }
  if (It != FreeRuns.begin()) {
    auto Prev = It - 1;
    if (Prev->Base + Prev->NPages * PageSize == It->Base) {
      Prev->NPages += It->NPages;
      FreeRuns.erase(It);
    }
  }
}

size_t Heap::freeRunCount() {
  std::lock_guard<std::mutex> Lock(Mu);
  return FreeRuns.size();
}

MSpan *Heap::newSpan(const Run &R, size_t ElemSize, int Class) {
  MSpan *S;
  if (!SpanPool.empty()) {
    S = SpanPool.back();
    SpanPool.pop_back();
  } else {
    AllSpans.push_back(std::make_unique<MSpan>());
    S = AllSpans.back().get();
  }
  // Stamped with the current sweep generation: a fresh span is "swept" by
  // definition, and the stamp also neutralizes any stale pointer to this
  // control block left in the sweep queue (the claim CAS expects G - 2).
  S->reset(R.Base, R.NPages, ElemSize, Class,
           SweepGenGlobal.load(std::memory_order_relaxed));
  registerSpan(S);
  Backend->spanCreated(*S);
  Stats.Committed.fetch_add(R.NPages * PageSize, std::memory_order_relaxed);
  Stats.notePeaks();
  return S;
}

void Heap::registerSpan(MSpan *S) {
  // Release: a thread whose lookupSpan observes S also observes the
  // control block reset() just wrote.
  size_t First = (S->Base - ArenaBase) >> PageShift;
  for (size_t P = First; P < First + S->NPages; ++P)
    std::atomic_ref<MSpan *>(PageMap[P]).store(S, std::memory_order_release);
}

void Heap::unregisterSpan(MSpan *S) {
  size_t First = (S->Base - ArenaBase) >> PageShift;
  for (size_t P = First; P < First + S->NPages; ++P)
    std::atomic_ref<MSpan *>(PageMap[P]).store(nullptr,
                                               std::memory_order_release);
}

void Heap::retireSpan(MSpan *S) {
  // Pages already unregistered/freed by the caller for dangling spans; for
  // in-use spans release everything here.
  if (S->State.load(std::memory_order_relaxed) == SpanState::InUse) {
    unregisterSpan(S);
    freePages(S->Base, S->NPages);
    Stats.Committed.fetch_sub(S->NPages * PageSize, std::memory_order_relaxed);
  }
  S->State.store(SpanState::Free, std::memory_order_relaxed);
  S->OwnerCache.store(NoOwner, std::memory_order_relaxed);
  // Defensive generation stamp (reset() re-stamps on reuse anyway): a
  // retired span must never look claimable to a stale sweep-queue entry.
  S->SweepGen.store(SweepGenGlobal.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  SpanPool.push_back(S);
}

bool Heap::isLiveObject(uintptr_t Addr) {
  MSpan *S = lookupSpan(Addr);
  if (!S || S->State.load(std::memory_order_acquire) != SpanState::InUse)
    return false;
  return S->allocBit(S->slotOf(Addr));
}

void Heap::reassignSpanOwner(uintptr_t Addr, int NewOwner) {
  MSpan *S = lookupSpan(Addr);
  assert(S && "reassignSpanOwner on non-heap address");
  std::lock_guard<std::mutex> Lock(Mu);
  // Detach from whichever cache currently holds it.
  for (Cache &C : Caches)
    for (MSpan *&Cur : C.Current)
      if (Cur == S)
        Cur = nullptr;
  S->OwnerCache.store(NewOwner, std::memory_order_release);
}

//===----------------------------------------------------------------------===//
// Allocation
//===----------------------------------------------------------------------===//

uintptr_t Heap::allocate(size_t Bytes, const TypeDesc *Desc, AllocCat Cat,
                         int CacheId) {
  CacheId = clampCacheId(CacheId);
  safepoint();
  if (Bytes == 0)
    Bytes = 8;
  Bytes = (Bytes + 7) & ~(size_t)7;
  maybeTriggerGc();
  // Concurrent mark in progress: charge this allocation against the
  // assist debt, and pay some of it off by marking when allocation is
  // outrunning the background workers.
  if (ConcMarkActive.load(std::memory_order_relaxed)) {
    AssistDebt.fetch_add(Bytes, std::memory_order_relaxed);
    gcMaybeAssist();
  }
  return Bytes <= MaxSmallSize ? allocSmall(Bytes, Desc, Cat, CacheId)
                               : allocLarge(Bytes, Desc, Cat);
}

uintptr_t Heap::allocSmall(size_t Bytes, const TypeDesc *Desc, AllocCat Cat,
                           int CacheId) {
  int Class = sizeClassFor(Bytes);
  size_t ElemSize = classSize(Class);
  Cache &C = Caches[(size_t)CacheId];
  MSpan *S = C.Current[(size_t)Class];
  // Lazy sweep: the cached span may be unswept since the last mark. Sweep
  // it before reading the bitmaps -- dead slots become reusable right
  // here, and the owner is the designated sweeper for owned spans (the
  // credit/drain sweepers skip them; see Gc.cpp).
  if (S)
    ensureSwept(S, trace::SweepWhere::Owner);
  size_t Slot = S ? S->nextFree() : 0;
  if (!S || Slot == S->NElems) {
    S = refillCache(CacheId, Class);
    Slot = S->nextFree();
    assert(Slot < S->NElems && "fresh span has no free slot");
  }
  // Publication order matters for concurrent markers: descriptor,
  // category, zeroed payload, and (during concurrent mark) the born-black
  // mark bit are all written *before* the alloc bit's release store, so a
  // marker that observes the bit also observes a fully-formed object (the
  // acquire load in MSpan::allocBit pairs with the release here).
  S->FreeIndex = Slot + 1;
  S->SlotDescs[Slot] = Desc;
  S->SlotCats[Slot] = (uint8_t)Cat;
  uintptr_t Addr = S->slotAddr(Slot);
  std::memset(reinterpret_cast<void *>(Addr), 0, ElemSize);
  // Allocate-black: objects born during the concurrent window survive
  // this cycle unscanned (they hold no unshaded pointers -- every store
  // into them runs the barrier), which is what bounds the gray supply and
  // guarantees mark termination.
  if (ConcMarkActive.load(std::memory_order_relaxed))
    S->tryMarkBit(Slot);
  S->setAllocBit(Slot);
  if (gcBarrierActive())
    Backend->noteAlloc(*S, Slot);

  Stats.AllocedBytes.fetch_add(ElemSize, std::memory_order_relaxed);
  Stats.AllocCount.fetch_add(1, std::memory_order_relaxed);
  Stats.AllocCountByCat[(int)Cat].fetch_add(1, std::memory_order_relaxed);
  Stats.AllocBytesByCat[(int)Cat].fetch_add(ElemSize,
                                            std::memory_order_relaxed);
  Stats.HeapLive.fetch_add(ElemSize, std::memory_order_relaxed);
  Stats.notePeaks();
  if (trace::TraceSink *T = traceSink())
    T->emit(trace::EventKind::HeapAlloc, (uint8_t)Cat, ElemSize, 0);
  return Addr;
}

MSpan *Heap::refillCache(int CacheId, int Class) {
  Cache &C = Caches[(size_t)CacheId];
  CentralList &CL = Central[(size_t)Class];
  // Stable for the whole refill: the generation only moves while the world
  // is stopped, and we are an unparked mutator the stop waits for.
  uint32_t G = SweepGenGlobal.load(std::memory_order_acquire);
  for (;;) {
    MSpan *Got = nullptr;
    {
      std::lock_guard<std::mutex> Lock(CL.Mu);
      // Return the exhausted span to the central full list. It is swept by
      // construction (allocSmall sweeps the current span before every
      // use), so the stale-full scan below can never pick it back up.
      if (MSpan *Old = C.Current[(size_t)Class]) {
        Old->OwnerCache.store(NoOwner, std::memory_order_release);
        Old->OnList = SpanList::Full;
        CL.Full.push_back(Old);
        C.Current[(size_t)Class] = nullptr;
      }
      if (!CL.Partial.empty()) {
        Got = CL.Partial.back();
        CL.Partial.pop_back();
        Got->OnList = SpanList::None;
      } else {
        // Lazy sweep: a "full" span may be stale-full -- unswept since the
        // last mark, holding garbage a sweep would free. Reclaiming one
        // beats growing the heap. Swept spans on Full are genuinely full;
        // the generation check skips them.
        for (size_t I = CL.Full.size(); I-- > 0;) {
          MSpan *S = CL.Full[I];
          if (S->SweepGen.load(std::memory_order_relaxed) == G)
            continue;
          CL.Full.erase(CL.Full.begin() + (ptrdiff_t)I);
          S->OnList = SpanList::None;
          Got = S;
          break;
        }
      }
    }
    if (!Got)
      break; // Central miss: carve a fresh span below.
    // Sweep outside the list lock. Popping the span (OnList = None) made
    // it ours: a queue sweeper that claims it first finishes harmlessly
    // (its fixup sees OnList None and leaves placement to us).
    bool SweptHere = ensureSwept(Got, trace::SweepWhere::Refill);
    if (SweptHere && Got->liveCount() == 0 &&
        Phase.load(std::memory_order_acquire) == GcPhase::Idle) {
      // Everything in it was garbage: return the pages instead of caching.
      // Only while the collector is idle -- during concurrent mark a
      // background marker may still hold this MSpan* (lookupSpan precedes
      // the InUse check), and retiring would let newSpan reassign its
      // bitmaps under the marker's feet. Mid-cycle the empty span is
      // simply used as the new cache span instead, and so is one a queue
      // sweeper emptied (see ensureSwept).
      std::lock_guard<std::mutex> Lock(Mu);
      retireSpan(Got);
      continue;
    }
    if (Got->nextFree() == Got->NElems) {
      // Swept and still genuinely full: put it back -- the generation
      // check now skips it, so the loop cannot pick it again.
      std::lock_guard<std::mutex> Lock(CL.Mu);
      Got->OnList = SpanList::Full;
      CL.Full.push_back(Got);
      continue;
    }
    Got->OwnerCache.store(CacheId, std::memory_order_release);
    C.Current[(size_t)Class] = Got;
    return Got;
  }
  // Central miss: carve a fresh span out of the page heap. The class lock
  // is dropped first (lock order is central -> page heap, but there is no
  // invariant connecting the two lists mid-refill, and holding it would
  // serialize all refills of this class behind the page heap).
  MSpan *S;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Run R = allocPages(classSpanPages(Class));
    S = newSpan(R, classSize(Class), Class);
  }
  S->OwnerCache.store(CacheId, std::memory_order_release);
  C.Current[(size_t)Class] = S;
  return S;
}

uintptr_t Heap::allocLarge(size_t Bytes, const TypeDesc *Desc, AllocCat Cat) {
  MSpan *S;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    size_t Pages = (Bytes + PageSize - 1) / PageSize;
    Run R = allocPages(Pages);
    S = newSpan(R, Pages * PageSize, /*Class=*/-1);
    S->FreeIndex = 1;
    S->SlotDescs[0] = Desc;
    S->SlotCats[0] = (uint8_t)Cat;
  }
  // Same publication protocol as allocSmall: descriptor and zeroed payload
  // land before the alloc bit's release store, and objects born during
  // concurrent mark are allocated black. Until the bit is set a marker
  // that finds this span via lookupSpan skips slot 0.
  std::memset(reinterpret_cast<void *>(S->Base), 0, S->ElemSize);
  if (ConcMarkActive.load(std::memory_order_relaxed))
    S->tryMarkBit(0);
  S->setAllocBit(0);
  if (gcBarrierActive())
    Backend->noteAlloc(*S, 0);

  Stats.AllocedBytes.fetch_add(S->ElemSize, std::memory_order_relaxed);
  Stats.AllocCount.fetch_add(1, std::memory_order_relaxed);
  Stats.AllocCountByCat[(int)Cat].fetch_add(1, std::memory_order_relaxed);
  Stats.AllocBytesByCat[(int)Cat].fetch_add(S->ElemSize,
                                            std::memory_order_relaxed);
  Stats.HeapLive.fetch_add(S->ElemSize, std::memory_order_relaxed);
  Stats.notePeaks();
  if (trace::TraceSink *T = traceSink())
    T->emit(trace::EventKind::HeapAlloc, (uint8_t)Cat, S->ElemSize, 1);
  return S->Base;
}

//===----------------------------------------------------------------------===//
// tcfree
//===----------------------------------------------------------------------===//

bool Heap::tcfreeObject(uintptr_t Addr, int CacheId, FreeSource Source) {
  CacheId = clampCacheId(CacheId);
  safepoint();
  Stats.TcfreeCalls.fetch_add(1, std::memory_order_relaxed);
  auto GiveUp = [&](trace::GiveUpReason R) {
    Stats.TcfreeGiveUpsByReason[(int)R].fetch_add(1,
                                                  std::memory_order_relaxed);
    ++tlsStalls().TcfreeGiveUps;
    if (trace::TraceSink *T = traceSink())
      T->emit(trace::EventKind::TcfreeGiveUp, (uint8_t)R, 1);
    return false;
  };
  // Mock mode poisons instead of freeing. The call still "succeeds" (no
  // give-up counted) but nothing returns to the allocator, so it is traced
  // and bucketed under the Mock reason for table 9.
  auto MockPoison = [&](uintptr_t P, size_t Bytes) {
    poison(P, Bytes);
    Stats.TcfreeGiveUpsByReason[(int)trace::GiveUpReason::Mock].fetch_add(
        1, std::memory_order_relaxed);
    if (trace::TraceSink *T = traceSink())
      T->emit(trace::EventKind::TcfreeGiveUp,
              (uint8_t)trace::GiveUpReason::Mock, 1);
    return true;
  };
  auto Freed = [&](size_t Bytes) {
    Stats.FreedBytesBySource[(int)Source].fetch_add(Bytes,
                                                    std::memory_order_relaxed);
    Stats.FreedCountBySource[(int)Source].fetch_add(1,
                                                    std::memory_order_relaxed);
    Stats.HeapLive.fetch_sub(Bytes, std::memory_order_relaxed);
    if (trace::TraceSink *T = traceSink())
      T->emit(trace::EventKind::TcfreeFreed, (uint8_t)Source, Bytes);
    return true;
  };
  if (!Addr)
    return GiveUp(trace::GiveUpReason::NullAddr);
  // Fuzz chaos knob (--gc=...,chaos=N): every Nth call is forced down the
  // GcRunning give-up path as if a cycle were active, exercising section 5
  // give-up accounting on paths real cycles rarely hit.
  if (Opts.Gc.TcfreeChaos &&
      TcfreeChaosCounter.fetch_add(1, std::memory_order_relaxed) %
              Opts.Gc.TcfreeChaos ==
          0) {
    Stats.TcfreeChaosForced.fetch_add(1, std::memory_order_relaxed);
    return GiveUp(trace::GiveUpReason::GcRunning);
  }
  // Never race the collector (section 5). For a registered mutator this is
  // belt-and-braces (the collector only runs while we are parked); it is
  // the load that stops the collector's *own* re-entrant tcfree calls, and
  // unregistered threads racing a forced GC, from touching anything.
  if (Phase.load(std::memory_order_acquire) != GcPhase::Idle)
    return GiveUp(trace::GiveUpReason::GcRunning);
  MSpan *S = lookupSpan(Addr);
  if (!S)
    return GiveUp(
        trace::GiveUpReason::UnknownAddr); // Stack or foreign address.

  if (S->SizeClass < 0) {
    // TcfreeLarge, step 1 (fig. 9): lock, return the pages, leave the
    // control block dangling until after the next GC mark phase.
    std::lock_guard<std::mutex> Lock(Mu);
    if (Phase.load(std::memory_order_acquire) != GcPhase::Idle)
      return GiveUp(trace::GiveUpReason::GcRunning);
    if (S->State.load(std::memory_order_acquire) != SpanState::InUse)
      return GiveUp(
          trace::GiveUpReason::DoubleFree); // Raced retirement.
    // Lazy sweep: the span may still hold an object the last mark already
    // condemned. Sweep first -- if the object was garbage, its alloc bit
    // clears and this call is a double free (the liveness contract says a
    // *live* object's address keeps it marked). Deadlock-free under Mu:
    // any competing sweeper publishes the generation before it takes a
    // lock. An emptied span is retired here, not leaked as floating InUse
    // (or by the queue sweeper that emptied it, in its postSweepFixup).
    bool SweptHere = ensureSwept(S, trace::SweepWhere::Tcfree);
    if (!S->allocBit(0)) {
      if (SweptHere)
        retireSpan(S);
      return GiveUp(trace::GiveUpReason::DoubleFree);
    }
    if (Opts.Mock != MockTcfree::Off)
      return MockPoison(S->Base, S->ElemSize);
    if (BarrierOn)
      Backend->noteExplicitFree(*S, 0); // Fields still intact here.
    S->clearAllocBit(0);
    unregisterSpan(S);
    freePages(S->Base, S->NPages);
    Stats.Committed.fetch_sub(S->NPages * PageSize, std::memory_order_relaxed);
    S->State.store(SpanState::Dangling, std::memory_order_release);
    Dangling.push_back(S);
    return Freed(S->ElemSize);
  }

  // TcfreeSmall: only on spans cached by the calling thread; if the span
  // was filled and swapped out (or stolen by another cache), give up. A
  // racy read here (the span is being handed to some other cache right
  // now) can only turn a would-be-free into a give-up -- never the
  // reverse, because a span owned by *this* thread's cache changes owner
  // only through this thread's own refills or a stopped-world sweep.
  if (S->State.load(std::memory_order_acquire) != SpanState::InUse ||
      S->OwnerCache.load(std::memory_order_acquire) != CacheId)
    return GiveUp(trace::GiveUpReason::ForeignSpan);
  // Lazy sweep: sweep an owned-but-unswept span before touching its
  // bitmaps, so a slot the last mark condemned reads as free (double-free
  // detection) rather than being freed and double-counted.
  ensureSwept(S, trace::SweepWhere::Tcfree);
  size_t Slot = S->slotOf(Addr);
  if (!S->allocBit(Slot))
    return GiveUp(
        trace::GiveUpReason::DoubleFree); // Benign double free (section 5).
  if (Opts.Mock != MockTcfree::Off)
    return MockPoison(S->slotAddr(Slot), S->ElemSize);
  if (BarrierOn)
    Backend->noteExplicitFree(*S, Slot); // Fields still intact here.
  S->clearAllocBit(Slot);
  S->SlotDescs[Slot] = nullptr;
  if (Slot < S->FreeIndex)
    S->FreeIndex = Slot; // Revert the allocator pointer (section 5).
  return Freed(S->ElemSize);
}

void Heap::poison(uintptr_t Addr, size_t Bytes) {
  Stats.MockPoisonedCount.fetch_add(1, std::memory_order_relaxed);
  auto *P = reinterpret_cast<unsigned char *>(Addr);
  if (Opts.Mock == MockTcfree::Zero) {
    std::memset(P, 0, Bytes);
    return;
  }
  for (size_t I = 0; I < Bytes; ++I)
    P[I] = (unsigned char)~P[I];
}
