//===- runtime/Gc.cpp - Concurrent parallel-mark, lazy-sweep collector ----===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Like Go's, the collector is concurrent tri-color (GcConfig::Concurrent,
// on by default) -- but only when a second mutator can use the overlap. A
// full cycle scans the roots in a stop-the-world flip and drains the gray
// in a second one; when another mutator is registered, the world restarts
// between the two flips and that mutator runs behind the Dijkstra write
// barrier while the workers mark (see "The cycle" below). With no one else
// to run, or with `--gc=...,conc=0`, both flips are one pause.
// Every cycle uses two more of Go's scalability devices:
//
//  * **Parallel marking.** Marking runs GcWorkers mark workers (the
//    collecting thread is worker 0; the rest are persistent helper threads
//    woken per cycle). Each worker keeps a private mark stack and
//    publishes fixed-size chunks of it for idle workers to steal;
//    quiescence is detected with a publish-sequence / active-counter
//    protocol (see runMarkWorker). Mark bits are claimed with an atomic
//    fetch_or (MSpan::tryMarkBit), so two workers racing to an object
//    cannot double-count or double-scan it.
//
//  * **Lazy (incremental) sweeping.** By default nothing is swept inside
//    the pause that ends mark. Spans are swept on demand afterwards,
//    following Go's sweepgen protocol (see MSpan::SweepGen): at cache
//    refill, by a small sweep credit on the allocation slow path, when
//    tcfree touches an unswept span, and -- as a backstop -- at the start
//    of the next cycle. Fully-empty spans are retired by whoever sweeps
//    them (a refill or tcfree that merely waited out another sweeper
//    leaves that to it; see ensureSwept). Forced runGc()
//    calls with no other registered mutator sweep eagerly inside the pause
//    so single-threaded callers observe the seed's exact post-GC state.
//
// Stopping the world. runGcImpl serializes cycles on GcMu, then raises
// StopWorld and waits until every registered mutator (Heap::MutatorScope)
// is parked in Heap::parkAtSafepoint -- safepoints sit at the entry of
// allocate/tcfreeObject, so a parked mutator is never mid-operation. The
// park handshake (both sides cross ParkMu) gives the collector a
// happens-before edge to everything mutators wrote, which is why mark may
// touch span interiors without per-span locks. Lazy sweepers
// synchronize with each other and with refills purely through SweepGen
// (CAS to claim, release store to publish) and the central-list mutexes.
//
// The interactions tcfree needs -- a phase flag it must respect, and
// dangling large spans the marker skips and the cycle retires (fig. 9) --
// are modeled faithfully.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <sys/mman.h>
#include <thread>

using namespace gofree;
using namespace gofree::rt;

// The scanner loads pointer slots as whole machine words; a port to a
// 32-bit target would need narrower PtrSlot strides, not just this copy
// size, so pin the assumption explicitly (satellite of issue 5).
static_assert(sizeof(uintptr_t) == 8,
              "pointer slots are scanned as 8-byte words; revisit PtrSlot "
              "layout before porting to another pointer width");

namespace {

/// Index of the mark worker running on this thread; -1 outside markPhase.
/// Routes gcMarkAddr/gcScanRegion (also reached from RootScanner callbacks)
/// to the right per-worker mark stack without threading a context through
/// every signature.
thread_local int TlsMarkIdx = -1;

/// Gray sink of a mutator running a mark assist: set for the duration of
/// gcMaybeAssist's scan so the gray items it produces stay thread-local
/// instead of bouncing through the GrayMu-guarded global list. Null
/// everywhere else (barrier shades then fall through to ConcGray).
thread_local std::vector<gofree::rt::Heap::MarkItem> *TlsGraySink = nullptr;

/// Mark-stack chunk size: a worker whose private stack reaches this many
/// items publishes them as one stealable chunk.
constexpr size_t MarkChunkCap = 256;

/// Array regions bigger than this are split in half onto the mark stack
/// instead of walked inline: bounds the cost of one scan step (no
/// recursion) and turns one huge array into stealable parallel work.
constexpr size_t ArraySplitBytes = 4096;

uint64_t nanosSince(std::chrono::steady_clock::time_point T0) {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

//===----------------------------------------------------------------------===//
// Parallel mark state
//===----------------------------------------------------------------------===//

/// Shared state of one mark phase. Lives across cycles (allocated lazily,
/// reset each cycle) so the per-worker vectors keep their capacity.
struct Heap::GcMarkShared {
  /// What one runMarkJob pass does. Every mark ends with a JobFull; a
  /// cycle with a concurrent window runs JobFlip1 inside the first pause
  /// and JobDrain passes while mutators run before it. No job clears mark
  /// bits: every in-use span's are clear before a mark starts (sweeping
  /// clears them, and so does the rc drain once it is done with them).
  enum Job : uint8_t {
    JobFull = 0, ///< Scan (or rescan) roots, then drain to quiescence.
    JobFlip1,    ///< Scan roots only -- no draining.
    JobDrain,    ///< Drain/steal whatever gray is seeded -- no roots.
  };
  /// Job of the pass being published. Plain: written by the collector
  /// before the PoolMu handshake that wakes the helpers.
  uint8_t JobKind = JobFull;

  /// Objects/bytes marked outside any worker context (mutator barrier
  /// shades and assists during the concurrent window).
  std::atomic<uint64_t> ConcMarkedObjs{0};
  std::atomic<uint64_t> ConcMarkedBytes{0};

  struct Worker {
    /// Private mark stack; only this worker touches it.
    std::vector<MarkItem> Active;
    /// Published chunks, stealable by anyone. Guarded by Mu.
    std::vector<std::vector<MarkItem>> Shared;
    std::mutex Mu;
    /// Shared.size(), readable without Mu. seq_cst: the termination
    /// detector's correctness depends on a single total order over
    /// NShared updates, ActiveWorkers updates, and PublishSeq bumps.
    std::atomic<size_t> NShared{0};
    // Per-cycle accounting, folded by the collector after the join.
    uint64_t MarkedObjs = 0;
    uint64_t MarkedBytes = 0;
    uint64_t BusyNanos = 0;

    /// Moves the newest published chunk into \p Out; false if none.
    bool popShared(std::vector<MarkItem> &Out) {
      std::lock_guard<std::mutex> Lock(Mu);
      if (Shared.empty())
        return false;
      Out = std::move(Shared.back());
      Shared.pop_back();
      NShared.fetch_sub(1, std::memory_order_seq_cst);
      return true;
    }
  };

  /// unique_ptr because Worker owns a mutex (immovable).
  std::vector<std::unique_ptr<Worker>> Workers;
  int NumWorkers = 1;

  /// Number of workers that may still produce mark work. A worker counts
  /// itself out when both its private stack and its own published chunks
  /// are empty, and counts itself back in *before* taking a stolen chunk.
  std::atomic<int> ActiveWorkers{0};
  /// Bumped on every chunk publication. The termination detector reads it
  /// before and after its scan; a straddling publication changes it and
  /// voids the (otherwise possibly stale) scan.
  std::atomic<uint64_t> PublishSeq{0};

  /// Sum of Worker::MarkedBytes, i.e. the live bytes this cycle found;
  /// what the pacer uses (HeapLive still counts unswept garbage).
  uint64_t MarkedBytesTotal = 0;

  // Root snapshot, taken under RootsMu by the collector before workers
  // start; workers consume it by strided partition.
  std::vector<uintptr_t> Roots;
  std::vector<RootScanner *> Providers;
};

// Lives here (not Heap.cpp) because destroying the GcMarkShared block needs
// the complete type, and the helper pool must be shut down before the
// reserved range it may still be marking is unmapped.
Heap::~Heap() {
  {
    std::lock_guard<std::mutex> Lock(PoolMu);
    PoolShutdown = true;
  }
  PoolCv.notify_all();
  for (std::thread &T : GcPool)
    T.join();
  delete Mark;
  munmap(PageMap, ArenaPages * sizeof(MSpan *));
  munmap(reinterpret_cast<void *>(ArenaBase), ArenaBytes);
}

//===----------------------------------------------------------------------===//
// Pacing
//===----------------------------------------------------------------------===//

uint64_t Heap::gcTriggerFor(uint64_t MarkedBytes, int Gogc,
                            uint64_t MinTrigger) {
  if (Gogc < 0)
    return UINT64_MAX; // GC off; the pacer never fires.
  // 128-bit so marked * GOGC cannot wrap to a tiny trigger (the seed
  // computed this in 64 bits and a huge heap or huge GOGC wrapped into a
  // permanent GC storm).
  unsigned __int128 T = (unsigned __int128)MarkedBytes +
                        (unsigned __int128)MarkedBytes * (unsigned)Gogc / 100;
  uint64_t Trigger =
      T > (unsigned __int128)UINT64_MAX ? UINT64_MAX : (uint64_t)T;
  return std::max(Trigger, MinTrigger);
}

void Heap::maybeTriggerGc(int CacheId) {
  if (Opts.Gc.Gogc < 0 || !HasScanner.load(std::memory_order_relaxed) ||
      currentThreadIsCollector())
    return;
  // Someone else mid-cycle? We'd only park inside runGcImpl; the pacer can
  // re-evaluate on the next allocation instead.
  if (Phase.load(std::memory_order_relaxed) != GcPhase::Idle)
    return;
  // The folded count plus this cache's own unfolded delta: exact for a
  // lone mutator, and within (NumCaches - 1) * LiveFoldBytes otherwise.
  int64_t Own = Stats.shard(CacheId).LiveDelta.load(std::memory_order_relaxed);
  int64_t Signed =
      (int64_t)Stats.HeapLive.load(std::memory_order_relaxed) + Own;
  uint64_t Live = Signed < 0 ? 0 : (uint64_t)Signed;
  GcCycleKind K = Backend->pace(Live);
  if (K == GcCycleKind::None)
    return;
  if (K == GcCycleKind::Full) {
    // Over the trigger: pay down sweep debt before starting another cycle.
    // HeapLive still counts unswept garbage, so sweeping may well drop us
    // back under the trigger -- and a cycle that starts while the last
    // one's sweep work is unfinished would make pauses back up into a
    // storm. (Partial cycles never apply: their backends sweep eagerly,
    // so no debt exists.)
    if (sweepCredit(8) > 0)
      return;
    if (trace::TraceSink *T = traceSink())
      T->emit(trace::EventKind::GcPaceTrigger, 0, Live,
              NextTrigger.load(std::memory_order_relaxed));
  }
  runGcImpl(K, /*Forced=*/false);
}

//===----------------------------------------------------------------------===//
// The cycle
//===----------------------------------------------------------------------===//

void Heap::runGc() { runGcImpl(GcCycleKind::Full, /*Forced=*/true); }

void Heap::runGcCycle(GcCycleKind Kind) {
  if (Kind == GcCycleKind::None)
    return;
  // A kind the backend does not implement runs as the Full cycle every
  // backend has, so it is counted and traced as one too.
  if (Kind == GcCycleKind::ZctDrain && Backend->kind() != GcBackendKind::Rc)
    Kind = GcCycleKind::Full;
  runGcImpl(Kind, /*Forced=*/true);
}

bool Heap::soloWorld() {
  std::lock_guard<std::mutex> Lock(ParkMu);
  return RegisteredMutators - (currentThreadIsMutatorHere() ? 1 : 0) <= 0;
}

void Heap::runGcImpl(GcCycleKind Kind, bool Forced) {
  if (currentThreadIsCollector())
    return; // Re-entrant force (e.g. from a root scanner) is a no-op.
  assert(Kind != GcCycleKind::None && "None is not a runnable cycle");
  // The lost-the-race protocol is keyed per cycle *kind*: a thread that
  // wanted a Full must not be satisfied by a ZCT drain that completed
  // while it waited.
  std::atomic<uint64_t> &Seq = CycleSeq[(size_t)Kind];
  uint64_t SeqBefore = Seq.load(std::memory_order_acquire);
  // Trying, not blocking, on GcMu: a registered mutator that blocked here
  // would deadlock the winning collector, which is waiting for this very
  // thread to park. Lose the race -> park (if asked) and let the winner's
  // cycle count for us.
  while (!GcMu.try_lock()) {
    safepoint();
    if (Seq.load(std::memory_order_acquire) != SeqBefore)
      return; // A concurrent cycle of this kind completed; done.
    std::this_thread::yield();
  }
  std::lock_guard<std::mutex> GcLock(GcMu, std::adopt_lock);
  if (Seq.load(std::memory_order_acquire) != SeqBefore)
    return; // A whole cycle of this kind ran before we got the lock.

  GcThread.store(std::this_thread::get_id(), std::memory_order_relaxed);

  // The pause clock starts before the stop request: time spent waiting for
  // mutators to park is pause the program observes. A cycle that opens a
  // concurrent mark window ends this pause there and starts the clock of
  // its second one (markWindow); either way the last pause ends here.
  PauseStart = std::chrono::steady_clock::now();
  stopTheWorld();
  auto Start = std::chrono::steady_clock::now();
  Backend->collectStw(Kind, Forced);
  uint64_t CycleNanos = nanosSince(Start);
  Stats.notePause(nanosSince(PauseStart));
  if (trace::TraceSink *T = traceSink())
    T->emit(trace::EventKind::GcCycleEnd, (uint32_t)Kind, CycleNanos,
            Stats.HeapLive.load(std::memory_order_relaxed));

  Stats.GcNanos.fetch_add(CycleNanos, std::memory_order_relaxed);
  switch (Kind) {
  case GcCycleKind::Full:
    Stats.GcMajorCycles.fetch_add(1, std::memory_order_relaxed);
    break;
  case GcCycleKind::ZctDrain:
    Stats.GcZctDrains.fetch_add(1, std::memory_order_relaxed);
    break;
  case GcCycleKind::None:
    break;
  }
  // The release bumps are what losers of the GcMu race key off; everything
  // above must be visible before them.
  Seq.fetch_add(1, std::memory_order_release);
  Stats.GcCycles.fetch_add(1, std::memory_order_release);

  startTheWorld();
  GcThread.store(std::thread::id{}, std::memory_order_relaxed);

  // A forced full cycle promises "garbage is collected" even with other
  // mutators around: finish the sweep work outside the pause rather than
  // leaving it all to lazy sweepers. (A cycle that swept eagerly left the
  // queue empty, and ZCT drains never queue sweep work, so for those this
  // returns at once.)
  if (Kind == GcCycleKind::Full && Forced)
    drainSweepQueue();
}

void Heap::backstopSweepStw() {
  // Whatever the last cycle's lazy sweepers did not get to is finished
  // here, so mark sees only swept spans (mark-bit classification of a
  // half-swept span would be wrong) and so sweep debt never survives two
  // cycles. Attributed to the previous cycle's GcSweepEnd accounting.
  uint64_t B0 = Stats.GcSweptBytes.load(std::memory_order_relaxed);
  uint64_t C0 = Stats.GcSweptCount.load(std::memory_order_relaxed);
  finishSweepStw();
  uint64_t DB = Stats.GcSweptBytes.load(std::memory_order_relaxed) - B0;
  uint64_t DC = Stats.GcSweptCount.load(std::memory_order_relaxed) - C0;
  trace::TraceSink *T = traceSink();
  if (T && (DB || DC))
    T->emit(trace::EventKind::GcSweepEnd, 0, DB, DC);
}

void Heap::retireDanglingSpans() {
  // TcfreeLarge step 2 (fig. 9): dangling control blocks are returned to
  // the idle pool after the mark phase, like any unmarked span.
  std::lock_guard<std::mutex> Lock(Mu);
  for (MSpan *S : Dangling)
    retireSpan(S);
  Dangling.clear();
}

void Heap::sweepOrQueueStw(bool Forced) {
  // Flip the sweep generation: every in-use span is now "survived mark,
  // not yet swept" (SweepGen == G - 2).
  SweepGenGlobal.fetch_add(2, std::memory_order_relaxed);

  // A forced cycle with the world to itself sweeps eagerly: its caller is
  // single-threaded and expects the seed's exact post-GC heap (freed
  // bytes, retired spans) the moment runGc returns. (The rc backend forces
  // EagerSweep outright; see the Heap constructor.)
  if (!Opts.Gc.EagerSweep && !(Forced && soloWorld())) {
    buildSweepQueue();
    Phase.store(GcPhase::Idle, std::memory_order_release);
    verifyAtSafepoint("post-mark");
    return;
  }
  // Nothing sweeps between the backstop and here (the world was stopped,
  // or every span was already swept for the concurrent window), so this
  // delta is exactly this cycle's sweep.
  uint64_t B0 = Stats.GcSweptBytes.load(std::memory_order_relaxed);
  uint64_t C0 = Stats.GcSweptCount.load(std::memory_order_relaxed);
  Phase.store(GcPhase::Sweeping, std::memory_order_release);
  finishSweepStw();
  SweepWork.clear();
  SweepWorkNext.store(0, std::memory_order_relaxed);
  Phase.store(GcPhase::Idle, std::memory_order_release);
  verifyAtSafepoint("post-sweep");
  if (trace::TraceSink *T = traceSink())
    T->emit(trace::EventKind::GcSweepEnd, 0,
            Stats.GcSweptBytes.load(std::memory_order_relaxed) - B0,
            Stats.GcSweptCount.load(std::memory_order_relaxed) - C0);
}

void Heap::repace() {
  // Pacing on this cycle's *marked* bytes, not HeapLive: under lazy sweep
  // HeapLive still counts unswept garbage and would inflate the trigger.
  NextTrigger.store(gcTriggerFor(Mark->MarkedBytesTotal, Opts.Gc.Gogc,
                                 Opts.Gc.MinHeapTrigger),
                    std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// The full cycle
//===----------------------------------------------------------------------===//
//
// One body for every full mark-sweep (marksweep's cycle, rc's backup
// collector). It starts and ends with the world stopped:
//
//   flip 1        finish leftover sweep (which leaves every mark bit
//                 clear), scan the roots. O(roots).
//   conc window   only with GcConfig::Concurrent and another registered
//                 mutator: the world restarts, the collector's worker pool
//                 drains gray while the other mutators run. New
//                 allocations are born black (Heap::allocSmall/allocLarge),
//                 the Dijkstra barrier shades every stored pointer, and
//                 allocation debt past a threshold makes mutators assist.
//                 All spans stay unswept-free during the window (the sweep
//                 generation bumps at flip 2), so no slot is freed or
//                 recycled mid-mark; tcfree's GcRunning give-up covers the
//                 rest. The world then stops again.
//   flip 2        rescan roots if the window ran (stacks changed), drain to
//                 quiescence, verify the tricolor invariant (Verify
//                 builds), bump the sweep generation and sweep or queue
//                 the spans.
//
// Without a window the two flips are one pause: a lone mutator that
// collected would only drain the window itself, paying the flips and the
// barrier for no overlap. Termination of a window: only pre-existing white
// objects can turn gray (allocate-black removes new objects from the race,
// tryMarkBit dedups), so the gray supply is finite even though mutators
// keep allocating.

void Heap::fullMarkSweep(bool Forced) {
  trace::TraceSink *T = traceSink();
  backstopSweepStw();

  // Debug validation (HeapOptions::Verify): the world is stopped, so the
  // heap is at a clean safepoint here and again after this cycle's sweep
  // bookkeeping. A violation is recorded, not fatal -- the fuzz differ
  // reads it from invariantFailure() and reports it with the failing
  // program attached.
  verifyAtSafepoint("pre-mark");

  auto Start = std::chrono::steady_clock::now();
  Phase.store(GcPhase::Marking, std::memory_order_release);
  if (T)
    T->emit(trace::EventKind::GcMarkStart, 0,
            Stats.HeapLive.load(std::memory_order_relaxed));
  markSetup(GcMarkMode::Full);
  size_t Roots = snapshotMarkRoots();
  // Decided with the world stopped, so the mutator count cannot grow
  // before the window would open. rc serves one mutator, so it opens one
  // only for a cycle some other, unregistered thread forced.
  bool Window = Opts.Gc.Concurrent && !soloWorld();
  uint64_t WindowNanos = 0;
  if (Window) {
    runMarkJob(GcMarkShared::JobFlip1);
    WindowNanos = markWindow(Roots);
    Roots = snapshotMarkRoots();
  }
  runMarkJob(GcMarkShared::JobFull);
  Stats.GcMarkNanos.fetch_add(nanosSince(Start), std::memory_order_relaxed);
  markFold();
  if (T)
    T->emit(trace::EventKind::GcMarkEnd, 0, nanosSince(Start));
  verifyTricolor("post-mark");

  retireDanglingSpans();
  sweepOrQueueStw(Forced);
  repace();
  if (!Window)
    return;
  Stats.GcConcCycles.fetch_add(1, std::memory_order_relaxed);
  if (T) {
    T->emit(trace::EventKind::GcStwFlip, 1, nanosSince(PauseStart), Roots);
    T->emit(trace::EventKind::GcConcMark, 0, WindowNanos,
            Mark->MarkedBytesTotal);
  }
}

uint64_t Heap::markWindow(size_t Roots) {
  // Everything below is published to resuming mutators by the park
  // handshake (they re-cross ParkMu), so relaxed stores suffice.
  ConcMarkActive.store(true, std::memory_order_relaxed);
  BarrierOn.store(true, std::memory_order_relaxed);
  uint64_t Pause1 = nanosSince(PauseStart);
  Stats.notePause(Pause1);
  if (trace::TraceSink *T = traceSink())
    T->emit(trace::EventKind::GcStwFlip, 0, Pause1, Roots);
  startTheWorld();

  auto Start = std::chrono::steady_clock::now();
  for (;;) {
    runMarkJob(GcMarkShared::JobDrain);
    // The workers went dry; collect whatever barrier shades and assist
    // leftovers accumulated meanwhile and go around again. An assist
    // still scanning may hold a whole stolen chunk and its descendants:
    // wait for it to flush them to ConcGray (it stops counting in
    // AssistsActive only after the flush, so reading the count first
    // makes an empty ConcGray final). Shades that arrive later are few;
    // flip 2 drains them.
    std::vector<MarkItem> Residual;
    for (;;) {
      bool AssistsIdle = AssistsActive.load(std::memory_order_seq_cst) == 0;
      {
        std::lock_guard<std::mutex> Lock(GrayMu);
        Residual.swap(ConcGray);
      }
      if (!Residual.empty() || AssistsIdle)
        break;
      std::this_thread::yield();
    }
    if (Residual.empty())
      break;
    GcMarkShared &M = *Mark;
    for (size_t I = 0; I < Residual.size(); ++I)
      M.Workers[I % (size_t)M.NumWorkers]->Active.push_back(Residual[I]);
  }
  uint64_t WindowNanos = nanosSince(Start);

  PauseStart = std::chrono::steady_clock::now();
  stopTheWorld();
  {
    // Late barrier shades (between the last drain and the stop) seed the
    // final job alongside the rescanned roots.
    std::lock_guard<std::mutex> Lock(GrayMu);
    GcMarkShared &M = *Mark;
    for (size_t I = 0; I < ConcGray.size(); ++I)
      M.Workers[I % (size_t)M.NumWorkers]->Active.push_back(ConcGray[I]);
    ConcGray.clear();
  }
  // Nothing runs until flip 2 ends, so nothing allocates or stores.
  ConcMarkActive.store(false, std::memory_order_relaxed);
  BarrierOn.store(BarrierAlways, std::memory_order_relaxed);
  return WindowNanos;
}

void Heap::gcMaybeAssist() {
  // Thresholds: mutators start assisting once the fleet has allocated
  // AssistDebtThreshold bytes since the last payback, and each assist
  // scans at most AssistBudgetBytes before returning to the program. The
  // cycle starts only once the heap reaches its pacing goal, so the
  // marker has no allocation runway left (Go's assist ratio, remaining
  // scan work over remaining runway, would be unbounded): an allocating
  // mutator marks whenever there is work to take, up to 32 bytes scanned
  // per byte allocated.
  constexpr uint64_t AssistDebtThreshold = 4 << 10;
  constexpr uint64_t AssistBudgetBytes = 128 << 10;
  constexpr size_t AssistBatchItems = 256;
  if (AssistDebt.load(std::memory_order_relaxed) < AssistDebtThreshold)
    return;
  if (TlsMarkIdx >= 0 || currentThreadIsCollector())
    return; // Mark workers and the collector never assist themselves.
  auto T0 = std::chrono::steady_clock::now();
  // Counted from before the batch leaves the shared queues until its
  // leftovers are back in ConcGray (see markWindow).
  AssistsActive.fetch_add(1, std::memory_order_seq_cst);
  std::vector<MarkItem> Batch;
  {
    std::lock_guard<std::mutex> Lock(GrayMu);
    size_t Take = std::min(ConcGray.size(), AssistBatchItems);
    Batch.assign(ConcGray.end() - (ptrdiff_t)Take, ConcGray.end());
    ConcGray.resize(ConcGray.size() - Take);
  }
  // No barrier shades queued: take a chunk a mark worker published. The
  // collector's worker publishes during the concurrent window even when it
  // marks alone (see pushMark), so mutators that allocate faster than it
  // marks share its backlog instead. The window stays open while we hold
  // the chunk (AssistsActive), so our leftovers are marked in it.
  GcMarkShared &M = *Mark;
  for (int I = 0; I < M.NumWorkers && Batch.empty(); ++I) {
    GcMarkShared::Worker &V = *M.Workers[(size_t)I];
    if (V.NShared.load(std::memory_order_seq_cst) != 0)
      V.popShared(Batch);
  }
  if (Batch.empty()) {
    // Nothing to help with; clear the debt so the fast path stays fast.
    AssistsActive.fetch_sub(1, std::memory_order_seq_cst);
    AssistDebt.store(0, std::memory_order_relaxed);
    return;
  }
  // Scan with a local gray sink: produced items stay on this thread until
  // the budget runs out, then what is left flushes back to the global
  // list. No safepoint is reachable from gcScanRegion, so flip 2 cannot
  // complete while this thread holds claimed items.
  std::vector<MarkItem> Out;
  TlsGraySink = &Out;
  uint64_t Scanned = 0;
  while (!Batch.empty() && Scanned < AssistBudgetBytes) {
    MarkItem It = Batch.back();
    Batch.pop_back();
    Scanned += It.Bytes;
    gcScanRegion(It.Addr, It.Desc, It.Bytes);
    if (Batch.empty())
      Batch.swap(Out);
  }
  TlsGraySink = nullptr;
  if (!Batch.empty() || !Out.empty()) {
    std::lock_guard<std::mutex> Lock(GrayMu);
    ConcGray.insert(ConcGray.end(), Batch.begin(), Batch.end());
    ConcGray.insert(ConcGray.end(), Out.begin(), Out.end());
  }
  AssistsActive.fetch_sub(1, std::memory_order_seq_cst);
  // Pay the debt down by what was scanned (saturating CAS; other mutators
  // keep adding concurrently).
  uint64_t D = AssistDebt.load(std::memory_order_relaxed);
  while (!AssistDebt.compare_exchange_weak(
      D, D > Scanned ? D - Scanned : 0, std::memory_order_relaxed)) {
  }
  Stats.GcAssists.fetch_add(1, std::memory_order_relaxed);
  Stats.GcAssistBytes.fetch_add(Scanned, std::memory_order_relaxed);
  ThreadStalls &St = tlsStalls();
  St.GcAssistNanos += nanosSince(T0);
  ++St.GcAssists;
  if (trace::TraceSink *T = traceSink())
    T->emit(trace::EventKind::GcAssist, 0, Scanned, nanosSince(T0));
}

//===----------------------------------------------------------------------===//
// Mark phase
//===----------------------------------------------------------------------===//

void Heap::markSetup(GcMarkMode Mode) {
  int W = Opts.Gc.Workers;
  MarkMode = Mode;
  if (!Mark)
    Mark = new GcMarkShared;
  GcMarkShared &M = *Mark;
  while ((int)M.Workers.size() < W)
    M.Workers.push_back(std::make_unique<GcMarkShared::Worker>());
  M.NumWorkers = W;
  for (int I = 0; I < W; ++I) {
    GcMarkShared::Worker &Wk = *M.Workers[(size_t)I];
    Wk.Active.clear();
    Wk.Shared.clear();
    Wk.NShared.store(0, std::memory_order_relaxed);
    Wk.MarkedObjs = Wk.MarkedBytes = Wk.BusyNanos = 0;
  }
  M.ConcMarkedObjs.store(0, std::memory_order_relaxed);
  M.ConcMarkedBytes.store(0, std::memory_order_relaxed);
  AssistDebt.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(GrayMu);
    ConcGray.clear();
  }
}

size_t Heap::snapshotMarkRoots() {
  // The mutators supply roots; gcMarkAddr queues grey objects which the
  // workers blacken by scanning their pointer maps. Runtime-internal roots
  // cover objects mid-construction (see Heap::InternalRoot). Scanner
  // registration is frozen while we hold GcMu; copy the roots out so the
  // RootsMu critical section stays trivial. A heap without a registered
  // scanner has no mutator roots: everything not internally rooted is
  // garbage. (Forced runGc() must not crash on such a heap; pacing already
  // refuses to trigger without a scanner.)
  GcMarkShared &M = *Mark;
  {
    std::lock_guard<std::mutex> Lock(RootsMu);
    M.Roots = InternalRoots;
    M.Providers = Scanners;
  }
  return M.Roots.size() + M.Providers.size();
}

void Heap::runMarkJob(uint8_t Job) {
  GcMarkShared &M = *Mark;
  int W = M.NumWorkers;
  M.JobKind = Job;
  // Reset the termination protocol per job: every pass starts with all
  // workers counted active and a fresh publication sequence.
  M.ActiveWorkers.store(W, std::memory_order_relaxed);
  M.PublishSeq.store(0, std::memory_order_relaxed);

  // First parallel pass ever: spawn the persistent helpers (joined by
  // ~Heap).
  if (W > 1 && GcPool.empty())
    for (int I = 1; I < W; ++I)
      GcPool.emplace_back([this, I] { markWorkerMain(I); });

  if (W > 1) {
    {
      std::lock_guard<std::mutex> Lock(PoolMu);
      ++PoolJobSeq;
      PoolJobsDone = 0;
    }
    PoolCv.notify_all();
  }
  runMarkWorker(0); // The collector is worker 0.
  if (W > 1) {
    std::unique_lock<std::mutex> Lock(PoolMu);
    PoolDoneCv.wait(Lock, [&] { return PoolJobsDone == W - 1; });
  }
}

void Heap::markFold() {
  GcMarkShared &M = *Mark;
  M.MarkedBytesTotal = M.ConcMarkedBytes.load(std::memory_order_relaxed);
  trace::TraceSink *T = traceSink();
  for (int I = 0; I < M.NumWorkers; ++I) {
    GcMarkShared::Worker &Wk = *M.Workers[(size_t)I];
    M.MarkedBytesTotal += Wk.MarkedBytes;
    // Emitted by the collector after the join, not by the workers: trace
    // sinks are single-producer.
    if (T)
      T->emit(trace::EventKind::GcMarkWorker, (uint32_t)I, Wk.BusyNanos,
              Wk.MarkedObjs);
  }
}

void Heap::markPhase(GcMarkMode Mode) {
  // The world is stopped: mutator state is stable and happens-before us
  // (see the park handshake), so span interiors need no locks here. The
  // helper threads inherit that edge through PoolMu.
  markSetup(Mode);
  snapshotMarkRoots();
  auto T0 = std::chrono::steady_clock::now();
  runMarkJob(GcMarkShared::JobFull);
  Stats.GcMarkNanos.fetch_add(nanosSince(T0), std::memory_order_relaxed);
  markFold();
}

void Heap::markWorkerMain(int Index) {
  uint64_t SeenSeq = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(PoolMu);
      PoolCv.wait(Lock,
                  [&] { return PoolShutdown || PoolJobSeq != SeenSeq; });
      if (PoolShutdown)
        return;
      SeenSeq = PoolJobSeq;
    }
    runMarkWorker(Index);
    {
      std::lock_guard<std::mutex> Lock(PoolMu);
      ++PoolJobsDone;
    }
    PoolDoneCv.notify_one();
  }
}

void Heap::runMarkWorker(int Index) {
  auto T0 = std::chrono::steady_clock::now();
  GcMarkShared &M = *Mark;
  GcMarkShared::Worker &W = *M.Workers[(size_t)Index];
  int N = M.NumWorkers;
  uint8_t Job = M.JobKind;
  TlsMarkIdx = Index;

  if (Job != GcMarkShared::JobDrain) {
    // 1. Roots, partitioned by index. After a window JobFull rescans them
    // from scratch (tryMarkBit dedups): roots and provider stacks changed
    // while the window ran.
    for (size_t I = (size_t)Index; I < M.Roots.size(); I += (size_t)N)
      gcMarkAddr(M.Roots[I]);
    for (size_t I = (size_t)Index; I < M.Providers.size(); I += (size_t)N)
      M.Providers[I]->scanRoots(*this);
  }
  if (Job == GcMarkShared::JobFlip1) {
    // Flip 1 ends here: the gray produced by the root scan stays on the
    // worker stacks (and their published chunks) for the concurrent
    // window's JobDrain passes to consume.
    TlsMarkIdx = -1;
    W.BusyNanos += nanosSince(T0);
    return;
  }

  // 2. Drain and steal until global quiescence.
  for (;;) {
    // Drain local work: the private stack, then our own published chunks
    // (LIFO -- the hot end of the object graph).
    for (;;) {
      while (!W.Active.empty()) {
        MarkItem It = W.Active.back();
        W.Active.pop_back();
        gcScanRegion(It.Addr, It.Desc, It.Bytes);
      }
      if (!W.popShared(W.Active))
        break;
    }
    // Locally dry: count ourselves out before hunting for work.
    M.ActiveWorkers.fetch_sub(1, std::memory_order_seq_cst);

    bool Stole = false;
    while (!Stole) {
      for (int Off = 1; Off < N && !Stole; ++Off) {
        GcMarkShared::Worker &V = *M.Workers[(size_t)((Index + Off) % N)];
        if (V.NShared.load(std::memory_order_seq_cst) == 0)
          continue;
        // Count ourselves back in *before* taking the chunk: a worker in
        // possession of work must always be visible in ActiveWorkers, or
        // the detector below could declare quiescence mid-theft.
        M.ActiveWorkers.fetch_add(1, std::memory_order_seq_cst);
        if (!V.popShared(W.Active)) {
          M.ActiveWorkers.fetch_sub(1, std::memory_order_seq_cst);
          continue; // Lost the race for the victim's last chunk.
        }
        Stole = true;
      }
      if (Stole)
        break;
      // Termination detection. Publication only ever happens while its
      // publisher is counted in ActiveWorkers, so: if no chunk is visible,
      // no worker is active, and no publication happened across the scan
      // (PublishSeq unchanged), there is no work anywhere and none can
      // appear -- every worker is in this loop and stays workless.
      uint64_t Seq = M.PublishSeq.load(std::memory_order_seq_cst);
      bool AnyShared = false;
      for (int I = 0; I < N && !AnyShared; ++I)
        AnyShared =
            M.Workers[(size_t)I]->NShared.load(std::memory_order_seq_cst) != 0;
      if (!AnyShared &&
          M.ActiveWorkers.load(std::memory_order_seq_cst) == 0 &&
          M.PublishSeq.load(std::memory_order_seq_cst) == Seq)
        break;
      std::this_thread::yield();
    }
    if (!Stole)
      break; // Quiescent: the whole mark is done.
  }

  TlsMarkIdx = -1;
  W.BusyNanos += nanosSince(T0);
}

void Heap::pushMark(int Worker, const MarkItem &Item) {
  GcMarkShared::Worker &W = *Mark->Workers[(size_t)Worker];
  W.Active.push_back(Item);
  // A lone worker publishes only during the concurrent window, where
  // mutator assists are its thieves (see gcMaybeAssist).
  if (W.Active.size() < MarkChunkCap ||
      (Mark->NumWorkers == 1 &&
       !ConcMarkActive.load(std::memory_order_relaxed)))
    return;
  // Publish the whole stack as one stealable chunk. The owner drains its
  // own Shared before stealing, so nothing is lost if nobody takes it.
  std::vector<MarkItem> Chunk;
  Chunk.swap(W.Active);
  {
    std::lock_guard<std::mutex> Lock(W.Mu);
    W.Shared.push_back(std::move(Chunk));
    W.NShared.fetch_add(1, std::memory_order_seq_cst);
  }
  Mark->PublishSeq.fetch_add(1, std::memory_order_seq_cst);
}

void Heap::pushGray(int Worker, const MarkItem &Item) {
  if (Worker >= 0) {
    pushMark(Worker, Item);
    return;
  }
  // Mutator context during the concurrent window: an assist keeps its gray
  // local; a barrier shade hands it to the global overflow list for the
  // collector's next JobDrain pass (or flip 2) to pick up.
  if (TlsGraySink) {
    TlsGraySink->push_back(Item);
    return;
  }
  std::lock_guard<std::mutex> Lock(GrayMu);
  ConcGray.push_back(Item);
}

void Heap::gcMarkAddr(uintptr_t Addr) {
  if (RootLog) {
    RootLog->push_back({Addr, nullptr, 0});
    return;
  }
  assert(Phase.load(std::memory_order_relaxed) == GcPhase::Marking &&
         "gcMarkAddr outside mark phase");
  if (!Addr)
    return;
  MSpan *S = lookupSpan(Addr);
  if (!S)
    return; // Stack address, foreign pointer, or freed large object.
  // Dangling spans are skipped rather than marked (section 5).
  if (S->State.load(std::memory_order_relaxed) != SpanState::InUse)
    return;
  size_t Slot = S->slotOf(Addr);
  // Alloc bits of objects that predate the cycle are frozen (every span
  // was swept before mark started; no sweeping runs during the window).
  // During concurrent mark an owner mutator may set fresh bits, though:
  // the acquire load pairs with setAllocBit's release so an observed bit
  // comes with the slot's descriptor (see MSpan::allocBit).
  if (!S->allocBit(Slot))
    return;
  if (!S->tryMarkBit(Slot))
    return; // Another worker (or an earlier root) owns this object.
  int WI = TlsMarkIdx;
  if (WI < 0) {
    // Barrier shade or assist on a mutator thread (concurrent window
    // only): account centrally, queue via the thread's gray route.
    assert(ConcMarkActive.load(std::memory_order_relaxed) &&
           "gcMarkAddr outside a mark worker with no concurrent mark");
    GcMarkShared &M = *Mark;
    M.ConcMarkedObjs.fetch_add(1, std::memory_order_relaxed);
    M.ConcMarkedBytes.fetch_add(S->ElemSize, std::memory_order_relaxed);
    const TypeDesc *Desc = S->SlotDescs[Slot];
    if (Desc && Desc->hasPointers())
      pushGray(-1, {S->slotAddr(Slot), Desc, S->ElemSize});
    return;
  }
  GcMarkShared::Worker &W = *Mark->Workers[(size_t)WI];
  ++W.MarkedObjs;
  W.MarkedBytes += S->ElemSize;
  // RootsOnly (the rc drain's rooted-object check) marks but does not
  // trace: only direct root referents matter, deferred refcounts cover
  // the heap->heap edges.
  if (MarkMode == GcMarkMode::RootsOnly)
    return;
  const TypeDesc *Desc = S->SlotDescs[Slot];
  if (Desc && Desc->hasPointers())
    pushMark(WI, {S->slotAddr(Slot), Desc, S->ElemSize});
}

void Heap::gcScanRegion(uintptr_t Addr, const TypeDesc *Desc, size_t Bytes) {
  if (RootLog) {
    if (Desc) // A null Desc marks a bare address in the log.
      RootLog->push_back({Addr, Desc, Bytes});
    return;
  }
  assert(Phase.load(std::memory_order_relaxed) == GcPhase::Marking &&
         "gcScanRegion outside mark phase");
  if (!Desc || !Desc->hasPointers())
    return;
  // WI < 0 happens only in a mutator assist (the gray route handles it);
  // pointer slots are loaded with relaxed atomics because during the
  // concurrent window their owner mutator may store into them while we
  // read (old or new value are both safe: the Dijkstra barrier shades the
  // new value before the store).
  int WI = TlsMarkIdx;
  if (Desc->IsArray) {
    const TypeDesc *E = Desc->Elem;
    if (!E || E->Size == 0)
      return;
    size_t ElemSize = E->Size;
    size_t N = Bytes / ElemSize;
    // Big arrays split in half onto the mark stack instead of being walked
    // here: keeps every scan step O(1) deep -- the seed recursed per
    // element and a large enough array blew the C++ stack -- and turns one
    // huge array into stealable chunks.
    if (Bytes > ArraySplitBytes && N >= 2) {
      size_t Half = (N / 2) * ElemSize;
      pushGray(WI, {Addr, Desc, Half});
      pushGray(WI, {Addr + Half, Desc, Bytes - Half});
      return;
    }
    for (size_t I = 0; I < N; ++I) {
      uintptr_t ElemAddr = Addr + I * ElemSize;
      if (E->IsArray) {
        // Nested array element: defer, again to stay O(1) deep.
        pushGray(WI, {ElemAddr, E, ElemSize});
        continue;
      }
      for (const PtrSlot &Slot : E->Slots)
        gcMarkAddr(loadWordRelaxed(ElemAddr + Slot.Offset));
    }
    return;
  }
  for (const PtrSlot &Slot : Desc->Slots) {
    // Raw pointers, slice data pointers and hmap pointers all mark the
    // target object; the target's own descriptor drives deeper scanning.
    gcMarkAddr(loadWordRelaxed(Addr + Slot.Offset));
  }
}

//===----------------------------------------------------------------------===//
// Lazy sweep
//===----------------------------------------------------------------------===//

uint64_t Heap::sweepSpanSlots(MSpan *S, trace::SweepWhere Where) {
  // Caller owns the sweep: it claimed the span via the SweepGen CAS, or
  // the world is stopped. Frees every allocated-but-unmarked slot.
  uint64_t FreedSlots = 0;
  uint64_t FreedByCat[NumAllocCats] = {};
  for (size_t Slot = 0; Slot < S->NElems; ++Slot) {
    if (!S->allocBit(Slot) || S->markBit(Slot))
      continue;
    S->clearAllocBit(Slot);
    S->SlotDescs[Slot] = nullptr;
    ++FreedSlots;
    ++FreedByCat[S->SlotCats[Slot]];
  }
  uint64_t FreedBytes = FreedSlots * S->ElemSize;
  if (FreedSlots) {
    // Shared counters: once per span, never per slot.
    S->FreeIndex = 0;
    for (int C = 0; C < NumAllocCats; ++C)
      if (FreedByCat[C])
        Stats.GcSweptCountByCat[C].fetch_add(FreedByCat[C],
                                             std::memory_order_relaxed);
    Stats.GcSweptCount.fetch_add(FreedSlots, std::memory_order_relaxed);
    Stats.GcSweptBytes.fetch_add(FreedBytes, std::memory_order_relaxed);
    Stats.HeapLive.fetch_sub(FreedBytes, std::memory_order_relaxed);
  }
  // The marks are consumed; clear them now so the next mark needn't visit
  // this span at all (no mark job clears bits). No marker can be reading
  // the bits here: lazy sweeping never runs while a mark is in progress
  // (all spans are already swept during a concurrent window, and STW
  // marks have the world stopped).
  S->clearMarks();
  // Publish: the generation store is the release edge every waiter in
  // ensureSwept acquires. (SweepGenGlobal is stable for the duration --
  // it only moves while the world is stopped, and a lazy sweeper is an
  // unparked mutator the stop waits for.)
  S->SweepGen.store(SweepGenGlobal.load(std::memory_order_relaxed),
                    std::memory_order_release);
  if (Where != trace::SweepWhere::Stw) {
    Stats.GcSpansSweptLazy.fetch_add(1, std::memory_order_relaxed);
    if (trace::TraceSink *T = traceSink())
      T->emit(trace::EventKind::GcSweepLazy, (uint32_t)Where, FreedBytes,
              FreedSlots);
  }
  return FreedBytes;
}

bool Heap::trySweepSpan(MSpan *S, trace::SweepWhere Where) {
  uint32_t G = SweepGenGlobal.load(std::memory_order_acquire);
  uint32_t Expect = G - 2;
  if (S->SweepGen.load(std::memory_order_acquire) != Expect)
    return false;
  if (!S->SweepGen.compare_exchange_strong(Expect, G - 1,
                                           std::memory_order_acq_rel))
    return false; // Another sweeper claimed it first.
  sweepSpanSlots(S, Where);
  return true;
}

bool Heap::ensureSwept(MSpan *S, trace::SweepWhere Where) {
  uint32_t G = SweepGenGlobal.load(std::memory_order_acquire);
  if (S->SweepGen.load(std::memory_order_acquire) == G)
    return false; // Common case: already swept this generation.
  if (trySweepSpan(S, Where))
    return true;
  // Another sweeper holds the claim; wait out its release store. Safe
  // even while the caller holds a central-list or page-heap lock: a
  // sweeper publishes the generation without taking any lock first.
  while (S->SweepGen.load(std::memory_order_acquire) != G)
    std::this_thread::yield();
  return false;
}

void Heap::postSweepFixup(MSpan *S) {
  // Called by queue sweepers (credit / drain) after sweeping a span no
  // cache owns: fix its central-list placement now that slots may have
  // freed up, or retire it if nothing survived. Refill-path sweeps skip
  // this -- the refiller already holds the span off-list and decides its
  // placement itself.
  if (S->SizeClass < 0) {
    std::lock_guard<std::mutex> Lock(Mu);
    // Recheck under Mu: a racing tcfreeLarge may have detached the pages
    // (State Dangling) since we swept.
    if (S->State.load(std::memory_order_relaxed) == SpanState::InUse &&
        S->liveCount() == 0)
      retireSpan(S);
    return;
  }
  CentralList &CL = Central[(size_t)S->SizeClass];
  bool Retire = false;
  {
    std::lock_guard<std::mutex> Lock(CL.Mu);
    // OnList arbitrates the race with refillCache: if the refiller popped
    // the span first (OnList None), it is theirs now -- hands off.
    switch (S->OnList) {
    case SpanList::None:
      break;
    case SpanList::Full: {
      bool Empty = S->liveCount() == 0;
      if (Empty || S->nextFree() != S->NElems) {
        CL.Full.erase(std::find(CL.Full.begin(), CL.Full.end(), S));
        if (Empty) {
          S->OnList = SpanList::None;
          Retire = true;
        } else {
          S->OnList = SpanList::Partial;
          CL.Partial.push_back(S);
        }
      }
      break;
    }
    case SpanList::Partial:
      if (S->liveCount() == 0) {
        CL.Partial.erase(std::find(CL.Partial.begin(), CL.Partial.end(), S));
        S->OnList = SpanList::None;
        Retire = true;
      }
      break;
    }
  }
  if (Retire) {
    // Window note: between the unlock above and this retire the span is a
    // floating empty InUse span no list references. That is fine -- the
    // sweeper is an unparked mutator, so no stop-the-world (and hence no
    // verify pass) can complete while we are here.
    std::lock_guard<std::mutex> Lock(Mu);
    retireSpan(S);
  }
}

size_t Heap::sweepCredit(size_t Max) {
  size_t Swept = 0;
  while (Swept < Max) {
    size_t I = SweepWorkNext.fetch_add(1, std::memory_order_relaxed);
    if (I >= SweepWork.size())
      break; // Queue exhausted (until the next cycle rebuilds it).
    MSpan *S = SweepWork[I];
    // Queue entries can be stale: the span may have been swept by someone
    // else and even retired and reused since (reuse re-stamps SweepGen
    // with the current generation, so the claim CAS below fails cleanly).
    if (S->State.load(std::memory_order_relaxed) != SpanState::InUse)
      continue;
    // Never sweep a cache-owned small span from outside: its owner
    // mutates AllocBits without locks. The owner sweeps it itself at its
    // next allocation (ensureSwept in allocSmall). Only the atomic owner
    // word may be read here -- plain fields like SizeClass race reset()
    // when the entry is stale and the span was reused. Large spans never
    // have an owner (allocLarge does not set one), so the owner check
    // alone filters exactly the cache-owned small spans.
    if (S->OwnerCache.load(std::memory_order_relaxed) != NoOwner)
      continue;
    if (!trySweepSpan(S, trace::SweepWhere::Credit))
      continue;
    postSweepFixup(S);
    ++Swept;
  }
  return Swept;
}

void Heap::drainSweepQueue() {
  for (;;) {
    size_t I = SweepWorkNext.fetch_add(1, std::memory_order_relaxed);
    if (I >= SweepWork.size())
      return;
    MSpan *S = SweepWork[I];
    if (S->State.load(std::memory_order_relaxed) != SpanState::InUse)
      continue;
    if (S->OwnerCache.load(std::memory_order_relaxed) != NoOwner)
      continue; // Owned spans are the owner's to sweep; see sweepCredit.
    if (!trySweepSpan(S, trace::SweepWhere::Drain))
      continue;
    postSweepFixup(S);
  }
}

void Heap::finishSweepStw() {
  // Stopped world: sweep every span the last mark left unswept, fix list
  // placement, and retire empties -- including spans still held by a
  // thread cache (Go flushes mcaches at every GC; the owner simply
  // refills on its next miss).
  uint32_t G = SweepGenGlobal.load(std::memory_order_relaxed);
  std::vector<MSpan *> Swept;
  for (const auto &SP : AllSpans) {
    MSpan *S = SP.get();
    if (S->State.load(std::memory_order_relaxed) != SpanState::InUse)
      continue;
    if (S->SweepGen.load(std::memory_order_relaxed) == G)
      continue;
    S->SweepGen.store(G - 1, std::memory_order_relaxed);
    sweepSpanSlots(S, trace::SweepWhere::Stw);
    Swept.push_back(S);
  }
  stwSettleSpans(Swept);
}

void Heap::stwSettleSpans(const std::vector<MSpan *> &Spans) {
  std::vector<MSpan *> ToRetire;
  for (MSpan *S : Spans) {
    if (S->liveCount() == 0) {
      int Owner = S->OwnerCache.load(std::memory_order_relaxed);
      if (Owner != NoOwner) {
        Cache &C = Caches[(size_t)Owner];
        if (S->SizeClass >= 0 && C.Current[(size_t)S->SizeClass] == S)
          C.Current[(size_t)S->SizeClass] = nullptr;
        S->OwnerCache.store(NoOwner, std::memory_order_relaxed);
      }
      if (S->SizeClass >= 0 && S->OnList != SpanList::None) {
        CentralList &CL = Central[(size_t)S->SizeClass];
        // Crossing the list mutex (uncontended -- everyone is parked) is
        // what hands the edit over to post-restart refills.
        std::lock_guard<std::mutex> Lock(CL.Mu);
        auto &V = S->OnList == SpanList::Partial ? CL.Partial : CL.Full;
        V.erase(std::find(V.begin(), V.end(), S));
        S->OnList = SpanList::None;
      }
      ToRetire.push_back(S);
    } else if (S->SizeClass >= 0 && S->OnList == SpanList::Full &&
               S->nextFree() != S->NElems) {
      CentralList &CL = Central[(size_t)S->SizeClass];
      std::lock_guard<std::mutex> Lock(CL.Mu);
      CL.Full.erase(std::find(CL.Full.begin(), CL.Full.end(), S));
      S->OnList = SpanList::Partial;
      CL.Partial.push_back(S);
    }
  }
  if (ToRetire.empty())
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  for (MSpan *S : ToRetire)
    retireSpan(S);
}

void Heap::buildSweepQueue() {
  // Stopped world, right after the generation bump: queue every unswept
  // in-use span for the credit/drain sweepers. Cache-owned spans are
  // queued too -- ownership is rechecked at pop time, and a span released
  // to the central lists before then becomes sweepable.
  uint32_t G = SweepGenGlobal.load(std::memory_order_relaxed);
  SweepWork.clear();
  for (const auto &SP : AllSpans) {
    MSpan *S = SP.get();
    if (S->State.load(std::memory_order_relaxed) == SpanState::InUse &&
        S->SweepGen.load(std::memory_order_relaxed) != G)
      SweepWork.push_back(S);
  }
  SweepWorkNext.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Write barrier slow paths
//===----------------------------------------------------------------------===//

void Heap::gcWriteBarrierSlow(uintptr_t Slot, uintptr_t NewVal) {
  // Stack slots and other C++ memory lie outside the reserved range (or on
  // a page no span covers), so the exact, lock-free lookup doubles as the
  // non-heap filter.
  MSpan *S = lookupSpan(Slot);
  if (!S || S->State.load(std::memory_order_relaxed) != SpanState::InUse)
    return;
  // Dijkstra shade: the incoming value becomes gray *before* the store
  // retires, so the marker can never miss the only reference to it. Runs
  // before the Old == NewVal early-out -- the shade is about NewVal's
  // liveness, not about the edge changing.
  if (ConcMarkActive.load(std::memory_order_relaxed))
    gcMarkAddr(NewVal);
  // The old value is read from memory -- this is why the barrier must run
  // *before* the store it covers. Relaxed atomic: a concurrent marker (or
  // another racing barrier) may touch the same word.
  uintptr_t Old = loadWordRelaxed(Slot);
  if (Old == NewVal)
    return;
  Stats.GcBarrierHits.fetch_add(1, std::memory_order_relaxed);
  Backend->writeBarrier(*S, Slot, Old, NewVal);
}

void Heap::gcCopyBarrierSlow(uintptr_t Dst, uintptr_t Src, size_t Bytes,
                             const TypeDesc *Desc) {
  // Replay the copy's pointer stores through the plain barrier: for each
  // pointer slot, the destination slot is about to receive the source
  // slot's current value.
  forEachPtrSlot(Src, Desc, Bytes, [&](uintptr_t FieldAddr, uintptr_t P) {
    gcWriteBarrierSlow(Dst + (FieldAddr - Src), P);
  });
}

size_t Heap::unsweptSpanCount() {
  std::lock_guard<std::mutex> Lock(Mu);
  uint32_t G = SweepGenGlobal.load(std::memory_order_relaxed);
  size_t N = 0;
  for (const auto &SP : AllSpans)
    if (SP->State.load(std::memory_order_relaxed) == SpanState::InUse &&
        SP->SweepGen.load(std::memory_order_relaxed) != G)
      ++N;
  return N;
}
