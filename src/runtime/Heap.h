//===- runtime/Heap.h - Thread-caching heap with GC and tcfree -*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime substrate of sections 3.3 and 5: a TCMalloc-style heap
/// (page heap -> central lists -> per-thread caches of size-classed spans),
/// a non-moving mark-sweep collector with Go's GOGC pacing rule (concurrent
/// tricolor mark when another mutator can run meanwhile, stop-the-world
/// otherwise or with `conc=0`; see docs/GC.md), and the tcfree family of
/// best-effort explicit deallocation primitives. tcfree never compromises
/// safety: whenever freeing would be unsafe (GC running, span owned by
/// another cache, unknown address) it gives up and leaves the object to
/// the GC.
///
/// The page heap lives in one address range reserved when the heap is
/// built (ArenaBytes, backed by the OS only where spans are used). A flat
/// page map with one MSpan* per page answers "which span holds this
/// address" with a range check and one atomic load, no lock.
///
/// Threading model
/// ---------------
/// The heap is genuinely concurrent. Three usage modes are supported:
///
/// 1. **Single-threaded**: one thread does everything; no registration
///    needed, though only a registered thread's events are traced.
///    compiler::execute registers even a lone mutator, like any other.
/// 2. **Concurrent mutators without GC**: any number of threads may call
///    allocate/tcfree concurrently as long as each uses its own cache id
///    and no GC can run (no root scanner registered, or Gogc < 0, and no
///    forced runGc). The fast paths are lock-free; refills take a
///    per-size-class central-list lock; the page heap takes one lock.
/// 3. **Concurrent mutators with GC**: every concurrently mutating thread
///    wraps its work in a Heap::MutatorScope. runGc (forced or paced, from
///    any thread) stops the world first: it raises a stop request and
///    waits until every registered mutator is parked at a safepoint.
///    Safepoints sit at the entry of allocate / tcfreeObject, so a parked
///    mutator is never mid-operation and the collector can mark and sweep
///    without locks racing mutator work. A registered mutator must
///    therefore keep reaching heap calls (or exit its scope); a registered
///    thread that blocks indefinitely outside the heap will stall any
///    collector waiting on it.
///
/// Cache ownership: a cache id must be used by at most one running thread
/// at a time. tcfree's small-object path relies on this -- it mutates span
/// state without locks exactly when the span's OwnerCache equals the
/// caller's cache id (see MSpan.h for the full invariant) -- and so do the
/// stats: each cache's hot-path counters are a single-writer StatShard
/// (see HeapStats.h).
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_RUNTIME_HEAP_H
#define GOFREE_RUNTIME_HEAP_H

#include "runtime/GcBackend.h"
#include "runtime/HeapStats.h"
#include "runtime/MSpan.h"
#include "runtime/SizeClasses.h"
#include "runtime/TypeDesc.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gofree {
namespace rt {

class Heap;

/// Supplies the GC's roots. The interpreter implements this by walking its
/// frames (precisely, using per-frame pointer maps) and its evaluation
/// stack. During scanRoots the scanner calls Heap::gcMarkAddr /
/// Heap::gcScanRegion. Several scanners may be registered (one per mutator
/// thread); the collector invokes all of them while the world is stopped.
class RootScanner {
public:
  virtual ~RootScanner();
  virtual void scanRoots(Heap &H) = 0;
};

/// Poison-instead-of-free modes for the robustness methodology of section
/// 6.8: a mock tcfree corrupts the "freed" memory instead of recycling it,
/// so any live object wrongly freed makes the program observably misbehave.
enum class MockTcfree : uint8_t { Off, Zero, Flip };

/// Runtime configuration. All collector policy lives in GcConfig (see
/// GcBackend.h). Tracing is per mutator: a thread registers its sink with
/// Heap::MutatorScope (see docs/TRACING.md).
struct HeapOptions {
  /// Collector selection and tuning (`--gc=<backend>[,key=val...]`).
  GcConfig Gc;
  MockTcfree Mock = MockTcfree::Off;
  /// Number of thread caches ("P"s). Values < 1 are clamped to 1.
  int NumCaches = 4;
};

/// GC phase; tcfree gives up whenever the collector is active (section 5).
enum class GcPhase : uint8_t { Idle, Marking, Sweeping };

/// The heap. All sizes are rounded to 8 bytes; allocations above
/// MaxSmallSize get dedicated spans.
class Heap {
public:
  explicit Heap(HeapOptions Opts = {});
  ~Heap();
  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  /// Allocates zeroed storage. May trigger a GC cycle first (pacing).
  /// \p Desc may be null for pointer-free payloads. \p CacheId selects the
  /// thread cache; out-of-range ids are clamped into [0, NumCaches).
  uintptr_t allocate(size_t Bytes, const TypeDesc *Desc, AllocCat Cat,
                     int CacheId);

  /// The tcfree primitive (section 5). Returns true if the object was
  /// reclaimed (or poisoned, in mock mode); false when it gave up. Never
  /// unsafe: stack addresses, foreign spans, running GC, and double frees
  /// all return false without side effects.
  ///
  /// Liveness contract: \p Addr must stay reachable from a GC root until
  /// the call returns. The compiler-inserted call sites satisfy this for
  /// free (the interpreter still holds the freed variable in its rooted
  /// frame). An address dropped from the roots *before* the call (or
  /// already freed) can have its slot or pages reused. Reuse by another
  /// cache is a clean give-up: small spans stay pinned to their owning
  /// cache, and a large span remembers the cache that allocated it. Reuse
  /// by the caller's own cache is indistinguishable from the original.
  bool tcfreeObject(uintptr_t Addr, int CacheId, FreeSource Source);

  /// Records an escape-analysis stack allocation of \p Bytes (table 8's
  /// stack column) in cache \p CacheId's stats, and traces it.
  void noteStackAlloc(int CacheId, AllocCat Cat, size_t Bytes);

  /// Runs a full stop-the-world collection now (on every backend: the rc
  /// backend's backup mark-sweep doubles as its cycle collector). If
  /// another thread is already collecting, parks until that cycle
  /// finishes instead of running a second one.
  void runGc();

  /// Forces one cycle of the given kind (test / embedder hook). Full is
  /// runGc(); ZctDrain runs the rc backend's drain. A kind the active
  /// backend does not implement (ZctDrain on marksweep) runs as Full and
  /// is counted and traced as Full.
  void runGcCycle(GcCycleKind Kind);

  /// The active collector backend (never null).
  const GcBackend &gcBackend() const { return *Backend; }

  /// True when stores must currently run the mutator write barrier. For
  /// the rc backend this is fixed-on; for marksweep it
  /// turns on only for the span of a concurrent mark (Dijkstra barrier)
  /// and is toggled while the world is stopped, so the relaxed read here
  /// is ordered by the safepoint handshake.
  bool gcBarrierActive() const {
    return BarrierOn.load(std::memory_order_relaxed);
  }

  /// The write barrier. MUST be called *before* the store it covers (the
  /// old slot value is read from memory): engines call it for every
  /// pointer-bearing store whose destination may be a heap object. Stack
  /// and other non-heap destinations are filtered here, so callers need
  /// no address classification of their own.
  void gcWriteBarrier(uintptr_t Slot, uintptr_t NewVal) {
    if (BarrierOn.load(std::memory_order_relaxed))
      gcWriteBarrierSlow(Slot, NewVal);
  }

  /// The bulk-copy barrier: \p Bytes bytes laid out as \p Desc are about
  /// to be copied from \p Src to \p Dst (both unmodified yet). Runs the
  /// write barrier for every pointer slot of the region; call it *before*
  /// the memcpy/memmove.
  void gcCopyBarrier(uintptr_t Dst, uintptr_t Src, size_t Bytes,
                     const TypeDesc *Desc) {
    if (BarrierOn.load(std::memory_order_relaxed) && Dst != Src && Desc &&
        Desc->hasPointers())
      gcCopyBarrierSlow(Dst, Src, Bytes, Desc);
  }

  /// Adds / removes one root provider (one per mutator thread). GC cannot
  /// run without one. Removal blocks until any in-flight GC cycle
  /// completes, so never call it while registered as a mutator (unregister
  /// first).
  void addRootScanner(RootScanner *S);
  void removeRootScanner(RootScanner *S);

  /// During the mark phase: marks the object containing \p Addr (no-op for
  /// null/stack/freed addresses) and queues it for scanning. While
  /// RootLog is set, records the root instead (rc count cross-check).
  void gcMarkAddr(uintptr_t Addr);
  /// During the mark phase: precisely scans a root region (e.g. a stack
  /// frame slot) of \p Bytes bytes laid out as \p Desc. While RootLog is
  /// set, records the region instead.
  void gcScanRegion(uintptr_t Addr, const TypeDesc *Desc, size_t Bytes);

  GcPhase phase() const { return Phase.load(std::memory_order_relaxed); }
  HeapStats &stats() { return Stats; }
  const HeapStats &stats() const { return Stats; }
  const HeapOptions &options() const { return Opts; }

  /// Per-thread allocation-stall accounting: time the *calling thread*
  /// spent parked at safepoints (the GC-pause overlap of whatever it was
  /// doing), time it spent paying mark-assist debt, and its tcfree
  /// give-ups. Monotonic over the thread's lifetime and valid across
  /// heaps (the counters are plain thread_locals, not per-heap), so a
  /// request harness snapshots before/after a request and attributes the
  /// delta to that request. Cheap enough to read per request: no locks,
  /// no atomics.
  struct ThreadStalls {
    uint64_t GcParkNanos = 0;   ///< Time blocked in parkAtSafepoint.
    uint64_t GcParks = 0;       ///< Safepoint parks taken.
    uint64_t GcAssistNanos = 0; ///< Time in gcMaybeAssist doing mark work.
    uint64_t GcAssists = 0;     ///< Assists that did real work.
    uint64_t TcfreeGiveUps = 0; ///< tcfree calls that gave up (any reason).
  };
  /// Snapshot of the calling thread's stall counters.
  static ThreadStalls threadStalls();

  /// The event sink the current thread should emit to: the sink it
  /// registered with MutatorScope on this heap, else null (no tracing).
  trace::TraceSink *traceSink() const;

  /// Looks up the span containing \p Addr; null for non-heap addresses.
  MSpan *spanOf(uintptr_t Addr) { return lookupSpan(Addr); }

  /// Address space each heap reserves for its pages, typically more than
  /// the host's RAM: it is mmap'd with MAP_NORESERVE, so only pages that
  /// spans actually touch cost memory. Exhausting it throws std::bad_alloc.
  static constexpr size_t ArenaBytes = size_t(64) << 30;
  static constexpr size_t ArenaPages = ArenaBytes / PageSize;
  /// First byte of the reserved range.
  uintptr_t arenaBase() const { return ArenaBase; }

  /// True if \p Addr lies in a live heap object. Not safe concurrently
  /// with mutators of that object's span; meant for tests at quiesce.
  bool isLiveObject(uintptr_t Addr);

  /// Current GC trigger threshold (for tests and the pacer bench).
  uint64_t gcTrigger() const {
    return NextTrigger.load(std::memory_order_relaxed);
  }

  /// The pacing rule: marked * (1 + Gogc/100), floored at \p MinTrigger,
  /// computed in 128 bits and saturated at UINT64_MAX so huge heaps or
  /// huge GOGC values cannot wrap to a tiny trigger. Exposed for tests.
  static uint64_t gcTriggerFor(uint64_t MarkedBytes, int Gogc,
                               uint64_t MinTrigger);

  /// Spans that survived the last mark but have not been swept yet.
  /// Quiesced callers only (takes the page-heap lock).
  size_t unsweptSpanCount();

  /// Number of dangling large-span control blocks awaiting retirement.
  /// Quiesced callers only.
  size_t danglingSpanCount() const { return Dangling.size(); }

  /// Test hook: forces the span containing \p Addr to look like it belongs
  /// to another cache, exercising tcfree's ownership give-up path.
  void reassignSpanOwner(uintptr_t Addr, int NewOwner);

  /// Test hook: number of free page runs currently held.
  size_t freeRunCount();
  /// Exhaustive structural validation of the whole heap: free-run
  /// integrity (sorted, disjoint, coalesced, inside the reserved range),
  /// span accounting (every reserved page is exactly one of free run /
  /// in-use span; Committed and HeapLive match the spans), page-map
  /// exactness, cache ownership (a span cached by a thread is in-use, of
  /// the right class, owned by that cache, and cached nowhere else), and
  /// central-list discipline (unowned, in-use, Partial has a free slot iff
  /// listed there). Returns true when everything holds; otherwise returns
  /// false and, if \p Report is non-null, fills it with one line per
  /// violation.
  ///
  /// Caller must have the heap quiesced: either the world is stopped (the
  /// collector calls this under GcConfig::Verify) or no other thread is
  /// touching the heap. Takes the page-heap and central locks so the walk
  /// is also clean under ThreadSanitizer.
  bool verifyInvariants(std::string *Report = nullptr);

  /// First invariant violation recorded by a GC-safepoint verification
  /// (HeapOptions::Verify), or empty. Sticky until the heap dies, so a
  /// violation mid-run is still visible to the post-run report.
  std::string invariantFailure() const;

  /// Registers the calling thread as a mutator for the stop-the-world
  /// handshake, optionally with a per-thread trace sink (merged at drain
  /// time; see trace::TraceHub). The scope must end on the same thread.
  /// \p CacheId is clamped like allocate's; cacheId() returns the clamped
  /// value for the thread to allocate with.
  class MutatorScope {
  public:
    MutatorScope(Heap &H, int CacheId, trace::TraceSink *Sink = nullptr);
    ~MutatorScope();
    MutatorScope(const MutatorScope &) = delete;
    MutatorScope &operator=(const MutatorScope &) = delete;
    int cacheId() const { return Id; }

  private:
    Heap &H;
    int Id;
    Heap *PrevHeap;
    trace::TraceSink *PrevSink;
  };

  /// One unit of mark work: a region to scan with its layout. Public so
  /// Gc.cpp can keep a per-thread gray sink (assists) at file scope.
  struct MarkItem {
    uintptr_t Addr;
    const TypeDesc *Desc;
    size_t Bytes;
  };

  /// Keeps a freshly allocated object alive across a follow-up allocation
  /// that could trigger GC before the object becomes reachable from the
  /// mutator (e.g. an hmap header while its bucket array is allocated).
  class InternalRoot {
  public:
    InternalRoot(Heap &H, uintptr_t Addr) : H(H), Addr(Addr) {
      H.pushInternalRoot(Addr);
    }
    ~InternalRoot() { H.popInternalRoot(Addr); }
    InternalRoot(const InternalRoot &) = delete;
    InternalRoot &operator=(const InternalRoot &) = delete;

  private:
    Heap &H;
    uintptr_t Addr;
  };

private:
  friend class MutatorScope;
  // Backends are policy layered over the heap's mechanism; they reach the
  // span lifecycle, marker, and sweep internals directly. Friendship is
  // not inherited, so each concrete backend is named.
  friend class GcBackend;
  friend class MarkSweepGc;
  friend class RcGc;

  /// One thread cache. Its id must be used by at most one running thread
  /// at a time: that owner alone touches Current and writes the cache's
  /// StatShard (Stats.shard(id)). The collector touches both only while
  /// the world is stopped and the owner is parked.
  struct Cache {
    std::vector<MSpan *> Current; ///< One span per size class, or null.
  };
  /// A free run of pages.
  struct Run {
    uintptr_t Base;
    size_t NPages;
  };
  /// Central free lists for one size class. Sharded per class so refills
  /// of different classes never contend (the seed serialized every refill
  /// on one global mutex).
  struct CentralList {
    std::mutex Mu;
    std::vector<MSpan *> Partial;
    std::vector<MSpan *> Full;
  };
  // Safepoint / stop-the-world machinery.
  /// Fast path: one acquire load when the world is running.
  void safepoint() {
    if (StopWorld.load(std::memory_order_acquire))
      parkAtSafepoint();
  }
  void parkAtSafepoint();
  /// The calling thread's ThreadStalls counters (Heap.cpp thread_local).
  static ThreadStalls &tlsStalls();
  void stopTheWorld();
  void startTheWorld();
  bool currentThreadIsCollector() const {
    return GcThread.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }
  bool currentThreadIsMutatorHere() const;

  int clampCacheId(int CacheId) const;

  // Internal roots (see InternalRoot).
  void pushInternalRoot(uintptr_t Addr);
  void popInternalRoot(uintptr_t Addr);

  // Small-object path.
  uintptr_t allocSmall(size_t Bytes, const TypeDesc *Desc, AllocCat Cat,
                       int CacheId);
  uintptr_t allocLarge(size_t Bytes, const TypeDesc *Desc, AllocCat Cat,
                       int CacheId);
  MSpan *refillCache(int CacheId, int Class);

  // Page heap. All require Mu.
  Run allocPages(size_t NPages);
  void freePages(uintptr_t Base, size_t NPages);
  MSpan *newSpan(const Run &R, size_t ElemSize, int Class);
  void retireSpan(MSpan *S);

  // Page map. register/unregister require Mu and publish each entry with
  // a release store; lookupSpan takes no lock and may run on any thread.
  void registerSpan(MSpan *S);
  void unregisterSpan(MSpan *S);
  MSpan *lookupSpan(uintptr_t Addr) const {
    uintptr_t Off = Addr - ArenaBase; // Below the base wraps to huge.
    if (Off >= ArenaBytes)
      return nullptr;
    return std::atomic_ref<MSpan *>(PageMap[Off >> PageShift])
        .load(std::memory_order_acquire);
  }
  /// The allocated object containing \p Addr (interior pointers included)
  /// on an in-use span that carries rc counts, or null; sets \p Slot.
  /// Shared by the rc backend (GcRc.cpp) and its count cross-check.
  MSpan *rcObject(uintptr_t Addr, size_t &Slot) const;

  // GC internals.
  /// Runs verifyInvariants (HeapOptions::Verify only) and records the
  /// first failure, tagged with \p When, in InvariantFailure.
  void verifyAtSafepoint(const char *When);
  void poison(uintptr_t Addr, size_t Bytes);
  /// The pacer, run at allocation entry on cache \p CacheId.
  void maybeTriggerGc(int CacheId);
  /// One cycle: serializes on GcMu (losers of the race park and accept the
  /// winner's completed cycle of the same kind), stops the world,
  /// delegates the body to Backend->collectStw, accounts the last pause,
  /// and restarts.
  void runGcImpl(GcCycleKind Kind, bool Forced);
  /// True when no other mutator is registered (collector may be); under
  /// this condition a full cycle opens no concurrent window, and a forced
  /// one sweeps eagerly so its caller observes the seed's exact post-GC
  /// state.
  bool soloWorld();
  // Steps of the full cycle (Gc.cpp). Stopped world, GcMu held.
  /// Sweeps whatever the previous cycle left unswept and traces it as a
  /// GcSweepEnd (only when something was swept). Start of a full cycle.
  void backstopSweepStw();
  /// Retires the dangling large-span control blocks (TcfreeLarge step 2,
  /// fig. 9). End of any mark phase.
  void retireDanglingSpans();
  /// After a full mark: bumps the sweep generation, then sweeps every span
  /// inside the pause (GcConfig::EagerSweep, or a \p Forced cycle with no
  /// other mutator) or queues them for lazy sweepers. Leaves Phase Idle.
  void sweepOrQueueStw(bool Forced);
  /// Sets NextTrigger from this cycle's marked bytes.
  void repace();

  // Write barrier slow paths (world running; see gcWriteBarrier).
  void gcWriteBarrierSlow(uintptr_t Slot, uintptr_t NewVal);
  void gcCopyBarrierSlow(uintptr_t Dst, uintptr_t Src, size_t Bytes,
                         const TypeDesc *Desc);

  // Parallel mark (Gc.cpp). GcMarkShared holds the worker contexts and the
  // steal/termination state; defined in Gc.cpp only, hence the pointer.
  struct GcMarkShared;
  /// What a mark pass covers. Both start from clear mark bits (sweeping
  /// and the rc drain leave them clear).
  ///  * Full:      trace the whole reachable graph.
  ///  * RootsOnly: mark objects directly referenced from roots but do not
  ///               trace through them (the rc drain's rooted-object
  ///               check).
  enum class GcMarkMode : uint8_t { Full, RootsOnly };
  /// Runs one parallel stop-the-world mark pass from the snapshotted roots
  /// (the rc drain's RootsOnly pass).
  void markPhase(GcMarkMode Mode);
  /// The full mark-sweep cycle body (entered and left with the world
  /// stopped, GcMu held): backstop sweep, root scan, the concurrent mark
  /// window when GcConfig::Concurrent is on and another mutator is
  /// registered, final drain, dangling retirement, eager or queued
  /// sweeping, re-pace. The marksweep backend's whole collectStw; the rc
  /// backup collector calls it too.
  void fullMarkSweep(bool Forced);
  void markWorkerMain(int Index);          ///< Helper-thread loop.
  void runMarkWorker(int Index);           ///< One worker's cycle work.
  void pushMark(int Worker, const MarkItem &Item);
  /// Prepares the shared mark state for a cycle of \p Mode: grows / resets
  /// the worker contexts and zeroes the concurrent-window accumulators.
  void markSetup(GcMarkMode Mode);
  /// Folds per-worker mark results into GcMarkShared::MarkedBytesTotal and
  /// emits the GcMarkWorker trace events. End of the mark, stopped world.
  void markFold();
  /// Routes one gray item: to worker \p Worker's stack when >= 0, else to
  /// the calling thread's assist sink if one is installed, else to the
  /// global ConcGray list under GrayMu.
  void pushGray(int Worker, const MarkItem &Item);

  /// The concurrent mark window of a full cycle (Gc.cpp), entered after
  /// flip 1's root scan (\p Roots root slots): turns the Dijkstra barrier
  /// and allocate-black on, ends the first pause and restarts the world,
  /// drains gray with the worker pool while mutators run (barrier shades
  /// and assist leftovers come back through ConcGray), then stops the
  /// world, starts the second pause's clock and seeds the late shades for
  /// the final drain. Returns the window's wall time.
  uint64_t markWindow(size_t Roots);
  /// Publishes one job of \p Job kind (GcMarkShared::Job values) to the
  /// worker pool, participates as worker 0, and waits for completion.
  /// Requires Mark set up for the cycle.
  void runMarkJob(uint8_t Job);
  /// Snapshots root providers/internal roots into the shared mark state.
  /// Stopped world. Returns the number of root slots snapshotted.
  size_t snapshotMarkRoots();
  /// Mutator mark assist: when concurrent mark is on and this thread's
  /// allocation debt passed the threshold, scan a bounded batch of the
  /// global gray list. Called from the allocation slow path.
  void gcMaybeAssist();
  /// Debug (HeapOptions::Verify): asserts the tricolor invariant -- every
  /// pointer field of a marked (black) object refers to a marked object --
  /// over the whole heap. Stopped world, end of mark. Records violations
  /// like verifyAtSafepoint.
  void verifyTricolor(const char *When);

  // Lazy sweep (Gc.cpp).
  /// Claims and sweeps \p S if it is unswept; returns true iff this call
  /// swept it. \p Where tags the GcSweepLazy trace event.
  bool trySweepSpan(MSpan *S, trace::SweepWhere Where);
  /// Guarantees \p S is swept on return (sweeps it, or waits out another
  /// sweeper). No locks held by the sweep itself. Returns true iff this
  /// call swept it. Only then may the caller retire an emptied \p S: a
  /// queue sweeper still reads the span in postSweepFixup after it
  /// publishes, so recycling the control block under it would race.
  bool ensureSwept(MSpan *S, trace::SweepWhere Where);
  /// The actual per-slot sweep of one claimed span. Returns bytes freed.
  uint64_t sweepSpanSlots(MSpan *S, trace::SweepWhere Where);
  /// After sweeping a span outside the pause: fix its central-list
  /// placement, or retire it if empty.
  void postSweepFixup(MSpan *S);
  /// Sweeps up to \p Max spans from the sweep queue. Returns spans swept.
  size_t sweepCredit(size_t Max);
  void drainSweepQueue();
  /// Sweeps every remaining unswept span while the world is stopped
  /// (start of a cycle, or the eager path). Requires stopped world.
  void finishSweepStw();
  /// After freeing slots of \p Spans inside a pause: detach each emptied
  /// span from its owner cache and central list and retire it, and move a
  /// span with a newly opened slot from Full to Partial. Stopped world.
  void stwSettleSpans(const std::vector<MSpan *> &Spans);
  /// Rebuilds SweepWork from every unswept in-use span. Stopped world.
  void buildSweepQueue();

  HeapOptions Opts;
  HeapStats Stats;

  /// The reserved range [ArenaBase, ArenaBase + ArenaBytes) and its page
  /// map (ArenaPages entries, indexed by page offset from ArenaBase). Both
  /// are mmap'd by the constructor and unmapped by ~Heap.
  uintptr_t ArenaBase = 0;
  MSpan **PageMap = nullptr;

  std::mutex Mu; ///< Guards page heap (FreeRuns, ArenaHighPage), span
                 ///< lifecycle (AllSpans, SpanPool, Dangling).
  std::vector<Run> FreeRuns;
  /// One past the highest page index allocPages ever handed out; bounds
  /// the verifier's stale-entry scan of the page map.
  size_t ArenaHighPage = 0;
  std::vector<std::unique_ptr<MSpan>> AllSpans;
  std::vector<MSpan *> SpanPool; ///< Free control blocks.
  std::vector<MSpan *> Dangling; ///< TcfreeLarge step-1 spans (fig. 9).

  // Central lists, one shard per size class.
  std::unique_ptr<CentralList[]> Central;
  std::vector<Cache> Caches;

  // Root providers and runtime-internal roots. RootsMu guards both; the
  // collector reads them only while the world is stopped.
  std::mutex RootsMu;
  std::vector<RootScanner *> Scanners;
  std::vector<uintptr_t> InternalRoots;
  std::atomic<bool> HasScanner{false};
  /// Set only by verifyInvariants' rc count check, with the world stopped:
  /// the root scanners' gcMarkAddr/gcScanRegion calls land here (a null
  /// Desc marks a bare address), so the check traces privately and leaves
  /// the mark bits alone.
  std::vector<MarkItem> *RootLog = nullptr;

  // GC state.
  std::atomic<GcPhase> Phase{GcPhase::Idle};
  std::atomic<uint64_t> NextTrigger;
  /// The collector policy (never null after construction).
  std::unique_ptr<GcBackend> Backend;
  /// Whether stores must run the write barrier right now. Relaxed loads on
  /// the hot path; every transition happens while the world is stopped, so
  /// the safepoint handshake orders it for mutators.
  std::atomic<bool> BarrierOn{false};
  /// The rc backend's standing barrier (its counts) keeps BarrierOn
  /// permanently true; marksweep leaves this false and raises BarrierOn
  /// only during concurrent mark.
  bool BarrierAlways = false;
  /// True while a concurrent mark window runs: allocations are born
  /// black, the write barrier shades stored values, and tcfree's GcRunning
  /// give-up stays load-bearing for the whole window.
  std::atomic<bool> ConcMarkActive{false};
  /// Gray overflow shared between mutators and the mark workers during the
  /// concurrent window: barrier shades from threads without a worker
  /// context land here; the collector reseeds workers from it.
  std::mutex GrayMu;
  std::vector<MarkItem> ConcGray;
  /// Allocation bytes since the last assist check, summed across mutators;
  /// past a threshold the allocating thread pays debt by marking.
  std::atomic<uint64_t> AssistDebt{0};
  /// Mutator assists holding gray items taken from the shared queues: the
  /// concurrent window does not end while one is mid-scan, so that its
  /// leftovers are marked in the window rather than inside flip 2.
  std::atomic<int> AssistsActive{0};
  /// Current mark pass mode; written by the collector before workers
  /// start, read by them during the pass (stopped world).
  GcMarkMode MarkMode = GcMarkMode::Full;
  /// Start of the pause in progress; the window restarts it for flip 2.
  /// Guarded by GcMu.
  std::chrono::steady_clock::time_point PauseStart;
  /// Completed-cycle counters per kind, for the lost-the-GcMu-race
  /// protocol: a parked forced Full must not be satisfied by a ZCT drain
  /// that finished in the meantime. Bumped with release under GcMu.
  std::atomic<uint64_t> CycleSeq[NumGcCycleKinds] = {};

  // Parallel mark: worker contexts plus the persistent helper pool. The
  // pool is spawned lazily on the first parallel cycle and joined by
  // ~Heap; helpers sleep on PoolCv between cycles and wake when the
  // collector publishes a new job (PoolJobSeq bump).
  /// Owned; raw because GcMarkShared is complete only in Gc.cpp, where
  /// ~Heap deletes it (a unique_ptr would need the deleter here).
  GcMarkShared *Mark = nullptr;
  std::vector<std::thread> GcPool;
  std::mutex PoolMu;
  std::condition_variable PoolCv;     ///< Helpers wait for a job.
  std::condition_variable PoolDoneCv; ///< Collector waits for completion.
  uint64_t PoolJobSeq = 0;            ///< Guarded by PoolMu.
  int PoolJobsDone = 0;               ///< Guarded by PoolMu.
  bool PoolShutdown = false;          ///< Guarded by PoolMu.

  // Lazy sweep: the global sweep generation (see MSpan::SweepGen) and the
  // credit-drain queue. SweepWork is rebuilt while the world is stopped
  // and consumed lock-free via the SweepWorkNext cursor.
  std::atomic<uint32_t> SweepGenGlobal{0};
  std::vector<MSpan *> SweepWork;
  std::atomic<size_t> SweepWorkNext{0};

  // Stop-the-world handshake. GcMu serializes whole cycles; StopWorld is
  // the request flag mutators poll at safepoints; the counters under
  // ParkMu implement the quorum wait.
  std::mutex GcMu;
  std::atomic<bool> StopWorld{false};
  std::atomic<std::thread::id> GcThread{};
  std::mutex ParkMu;
  std::condition_variable ParkCv; ///< Parked mutators wait for restart.
  std::condition_variable StwCv;  ///< Collector waits for the quorum.
  int RegisteredMutators = 0;     ///< Guarded by ParkMu.
  int ParkedMutators = 0;         ///< Guarded by ParkMu.

  /// First invariant violation seen by verifyAtSafepoint; sticky.
  mutable std::mutex InvariantMu;
  std::string InvariantFailure;
};

} // namespace rt
} // namespace gofree

#endif // GOFREE_RUNTIME_HEAP_H
