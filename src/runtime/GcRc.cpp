//===- runtime/GcRc.cpp - Deferred RC with a zero-count table -------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Deferred reference counting in aquario's shape (SNIPPETS.md 1-3):
//
//  * The write barrier maintains per-object counts of *heap->heap*
//    references only; roots (interpreter frames, VM stacks) are never
//    counted. An object whose count is or reaches zero is merely a
//    *candidate* -- it goes into the zero-count table (ZCT).
//  * A ZCT drain stops the world, marks the objects directly referenced
//    from roots (a non-tracing root scan: heap edges are what the counts
//    are for), then frees every unrooted zero-count entry, cascading
//    decrements into its children.
//  * Reference cycles never reach count zero; the backup collector -- the
//    heap's shared full mark-sweep -- reclaims them, then recomputes every
//    count and rebuilds the ZCT from the survivors (sweeping frees behind
//    the counts' back, so they must be reconstructed, not patched).
//
// tcfree interop: a compiler-inserted free is an *immediate* reclamation
// the counts must hear about -- noteExplicitFree decrements the dead
// object's children before the slot is reused, which feeds tcfree'd
// structures' children straight into the ZCT.
//
// Concurrency: counts and ZCT flags are atomics, so barriers from several
// mutators do not corrupt them; but the dec-vs-span-reuse and
// dec-vs-recompute windows are not closed. The rc backend is validated
// single-threaded (see docs/GC.md); the differential fuzz leg runs it so.
//
//===----------------------------------------------------------------------===//

#include "runtime/GcBackend.h"
#include "runtime/Heap.h"

#include <algorithm>
#include <mutex>
#include <utility>
#include <vector>

namespace gofree {
namespace rt {

class RcGc : public GcBackend {
public:
  RcGc(Heap &H, const GcConfig &Cfg)
      : GcBackend(H), ZctThreshold(std::max<uint64_t>(Cfg.ZctThreshold, 1)) {}

  GcBackendKind kind() const override { return GcBackendKind::Rc; }

  void spanCreated(MSpan &S) override {
    S.RefCnt.assign(S.NElems, 0);
    S.InZct.assign(S.NElems, 0);
  }

  void noteAlloc(MSpan &S, size_t Slot) override {
    // A fresh object has no heap referents yet: count zero, ZCT candidate
    // until some heap object takes a reference (or a drain proves it
    // root-reachable and re-tables it).
    std::atomic_ref<uint32_t>(S.RefCnt[Slot]).store(0,
                                                    std::memory_order_relaxed);
    zctAdd(S, Slot);
  }

  void noteExplicitFree(MSpan &S, size_t Slot) override {
    // tcfree reclaims the slot now; its outgoing references disappear with
    // it. Only ever called on the real-free path (never in mock mode), so
    // the fields are intact here.
    if (const TypeDesc *Desc = S.SlotDescs[Slot])
      forEachPtrSlot(S.slotAddr(Slot), Desc, S.ElemSize,
                     [&](uintptr_t, uintptr_t P) {
                       if (P)
                         decRef(P);
                     });
    std::atomic_ref<uint32_t>(S.RefCnt[Slot]).store(0,
                                                    std::memory_order_relaxed);
  }

  void writeBarrier(MSpan &, uintptr_t, uintptr_t OldVal,
                    uintptr_t NewVal) override {
    // Increment before decrement: if OldVal == NewVal the caller already
    // filtered, but overlapping structures make the safe order free.
    if (NewVal)
      incRef(NewVal);
    if (OldVal)
      decRef(OldVal);
  }

  GcCycleKind pace(uint64_t Live) override {
    if (Live >= H.NextTrigger.load(std::memory_order_relaxed))
      return GcCycleKind::Full;
    if (ZctCount.load(std::memory_order_relaxed) >= ZctThreshold)
      return GcCycleKind::ZctDrain;
    return GcCycleKind::None;
  }

  void collectStw(GcCycleKind Kind, bool Forced) override {
    if (Kind == GcCycleKind::Full) {
      // Backup collector: cycles (and anything the counts missed) fall to
      // tracing; afterwards the counts are recomputed from the surviving
      // object graph because sweeping freed objects behind their back.
      H.fullMarkSweepStw(Forced);
      recomputeStw();
      return;
    }
    drainStw();
  }

private:
  static constexpr size_t NumShards = 8;
  struct Shard {
    std::mutex Mu;
    std::vector<uintptr_t> Objs; ///< Object base addresses; may hold dupes
                                 ///< across entries (InZct dedups claims).
  };

  /// Resolves \p Addr to its live slot, if the address is a heap object
  /// with rc metadata. Interior pointers resolve to the containing object.
  MSpan *resolve(uintptr_t Addr, size_t &Slot) {
    MSpan *S = H.lookupSpan(Addr);
    if (!S || S->State.load(std::memory_order_relaxed) != SpanState::InUse ||
        S->RefCnt.size() != S->NElems)
      return nullptr;
    Slot = S->slotOf(Addr);
    return S->allocBit(Slot) ? S : nullptr;
  }

  void incRef(uintptr_t Addr) {
    size_t Slot;
    if (MSpan *S = resolve(Addr, Slot))
      std::atomic_ref<uint32_t>(S->RefCnt[Slot])
          .fetch_add(1, std::memory_order_relaxed);
  }

  /// Decrement, saturating at zero (a dangling old-value can race a count
  /// already consumed); a transition to zero tables the object.
  void decRef(uintptr_t Addr) {
    size_t Slot;
    MSpan *S = resolve(Addr, Slot);
    if (!S)
      return;
    std::atomic_ref<uint32_t> Rc(S->RefCnt[Slot]);
    uint32_t V = Rc.load(std::memory_order_relaxed);
    while (V != 0 &&
           !Rc.compare_exchange_weak(V, V - 1, std::memory_order_relaxed))
      ;
    if (V <= 1)
      zctAdd(*S, Slot);
  }

  /// Tables slotAddr(Slot) unless already tabled (the InZct flag is the
  /// claim; exactly one list entry per claim).
  void zctAdd(MSpan &S, size_t Slot) {
    if (std::atomic_ref<uint8_t>(S.InZct[Slot])
            .exchange(1, std::memory_order_acq_rel))
      return;
    uintptr_t Addr = S.slotAddr(Slot);
    Shard &Sh = Shards[(Addr / 8) % NumShards];
    {
      std::lock_guard<std::mutex> Lock(Sh.Mu);
      Sh.Objs.push_back(Addr);
    }
    ZctCount.fetch_add(1, std::memory_order_relaxed);
  }

  /// Frees one slot inside the pause (the drain's sweep). Mirrors
  /// sweepSpanSlots' per-slot bookkeeping.
  void freeSlot(MSpan *S, size_t Slot, std::vector<MSpan *> &Touched) {
    S->clearAllocBit(Slot);
    uint8_t Cat = S->SlotCats[Slot];
    S->SlotDescs[Slot] = nullptr;
    S->FreeIndex = 0;
    std::atomic_ref<uint32_t>(S->RefCnt[Slot]).store(0,
                                                     std::memory_order_relaxed);
    H.Stats.GcSweptCountByCat[Cat].fetch_add(1, std::memory_order_relaxed);
    H.Stats.GcSweptCount.fetch_add(1, std::memory_order_relaxed);
    H.Stats.GcSweptBytes.fetch_add(S->ElemSize, std::memory_order_relaxed);
    H.Stats.HeapLive.fetch_sub(S->ElemSize, std::memory_order_relaxed);
    Touched.push_back(S);
  }

  /// Frees the (unrooted, zero-count) object and cascades decrements into
  /// its children; children hitting zero free too (unless root-marked, in
  /// which case they return to the ZCT for a later drain).
  void cascadeFree(MSpan *S0, size_t Slot0, std::vector<MSpan *> &Touched) {
    // In mock mode, tcfree-poisoned objects are still allocated but their
    // fields are scrambled; a cascade through them would decrement random
    // live objects. Skip the child walk entirely -- conservatively leaks
    // until the backup collector, which never reads dead fields.
    bool WalkChildren = H.Opts.Mock == MockTcfree::Off;
    std::vector<std::pair<MSpan *, size_t>> Work{{S0, Slot0}};
    while (!Work.empty()) {
      auto [S, Slot] = Work.back();
      Work.pop_back();
      if (WalkChildren) {
        if (const TypeDesc *Desc = S->SlotDescs[Slot])
          forEachPtrSlot(
              S->slotAddr(Slot), Desc, S->ElemSize,
              [&](uintptr_t, uintptr_t P) {
                size_t CSlot;
                MSpan *CS = P ? resolve(P, CSlot) : nullptr;
                if (!CS)
                  return;
                std::atomic_ref<uint32_t> Rc(CS->RefCnt[CSlot]);
                uint32_t V = Rc.load(std::memory_order_relaxed);
                if (V != 0)
                  Rc.store(V - 1, std::memory_order_relaxed);
                if (V > 1)
                  return;
                // Count hit zero. Root-marked children survive this drain
                // but stay candidates; unrooted ones die in the cascade.
                if (CS->markBit(CSlot))
                  zctAdd(*CS, CSlot);
                else
                  Work.push_back({CS, CSlot});
              });
      }
      freeSlot(S, Slot, Touched);
    }
  }

  /// One ZCT drain. World stopped, GcMu held (called from runGcImpl).
  void drainStw() {
    H.verifyAtSafepoint("pre-drain");

    // Non-tracing root scan: clears every mark bit, then marks objects the
    // roots reference directly. Heap->heap edges are the counts' job.
    H.Phase.store(GcPhase::Marking, std::memory_order_release);
    H.markPhase(Heap::GcMarkMode::RootsOnly);

    std::vector<uintptr_t> Pending;
    for (Shard &Sh : Shards) {
      std::lock_guard<std::mutex> Lock(Sh.Mu);
      Pending.insert(Pending.end(), Sh.Objs.begin(), Sh.Objs.end());
      Sh.Objs.clear();
    }
    ZctCount.store(0, std::memory_order_relaxed);

    // Only this drain frees slots while the world is stopped, so the
    // counter deltas are exactly its sweep (like Heap::sweepOrQueueStw).
    uint64_t B0 = H.Stats.GcSweptBytes.load(std::memory_order_relaxed);
    uint64_t C0 = H.Stats.GcSweptCount.load(std::memory_order_relaxed);
    H.Phase.store(GcPhase::Sweeping, std::memory_order_release);
    std::vector<MSpan *> Touched;
    for (uintptr_t Addr : Pending) {
      MSpan *S = H.lookupSpan(Addr);
      if (!S || S->State.load(std::memory_order_relaxed) != SpanState::InUse ||
          S->RefCnt.size() != S->NElems)
        continue;
      size_t Slot = S->slotOf(Addr);
      // Claim the entry; a second (stale) entry for the same slot is a
      // no-op, and whatever object now occupies the slot re-tables itself
      // through its own zctAdd if it needs to.
      if (!std::atomic_ref<uint8_t>(S->InZct[Slot])
               .exchange(0, std::memory_order_acq_rel))
        continue;
      if (!S->allocBit(Slot))
        continue; // Freed (tcfree or an earlier cascade) since tabled.
      if (std::atomic_ref<uint32_t>(S->RefCnt[Slot])
              .load(std::memory_order_relaxed) != 0)
        continue; // Re-referenced since tabled; no longer a candidate.
      if (S->markBit(Slot)) {
        zctAdd(*S, Slot); // Root-reachable: stays a candidate for later.
        continue;
      }
      cascadeFree(S, Slot, Touched);
    }

    // Fix list placement / retire emptied spans, once per span.
    std::sort(Touched.begin(), Touched.end());
    Touched.erase(std::unique(Touched.begin(), Touched.end()), Touched.end());
    std::vector<MSpan *> ToRetire;
    for (MSpan *S : Touched)
      H.stwFixSpanPlacement(S, ToRetire);
    if (!ToRetire.empty()) {
      std::lock_guard<std::mutex> Lock(H.Mu);
      for (MSpan *S : ToRetire)
        H.retireSpan(S);
    }

    H.Phase.store(GcPhase::Idle, std::memory_order_release);
    H.verifyAtSafepoint("post-drain");
    if (trace::TraceSink *T = H.traceSink())
      T->emit(trace::EventKind::GcSweepEnd, 0,
              H.Stats.GcSweptBytes.load(std::memory_order_relaxed) - B0,
              H.Stats.GcSweptCount.load(std::memory_order_relaxed) - C0);
  }

  /// After the backup mark-sweep: rebuild every count from the surviving
  /// object graph and re-table the zero-count survivors. Field walks are
  /// safe even in mock mode -- every walked object is live (reachable),
  /// and a poisoned field at worst inflates a count (leak-safe direction;
  /// the next backup cycle still reclaims).
  void recomputeStw() {
    for (Shard &Sh : Shards) {
      std::lock_guard<std::mutex> Lock(Sh.Mu);
      Sh.Objs.clear();
    }
    ZctCount.store(0, std::memory_order_relaxed);
    for (const auto &SP : H.AllSpans) {
      MSpan *S = SP.get();
      if (S->State.load(std::memory_order_relaxed) != SpanState::InUse ||
          S->RefCnt.size() != S->NElems)
        continue;
      std::fill(S->RefCnt.begin(), S->RefCnt.end(), 0);
      std::fill(S->InZct.begin(), S->InZct.end(), 0);
    }
    for (const auto &SP : H.AllSpans) {
      MSpan *S = SP.get();
      if (S->State.load(std::memory_order_relaxed) != SpanState::InUse ||
          S->RefCnt.size() != S->NElems)
        continue;
      for (size_t Slot = 0; Slot < S->NElems; ++Slot) {
        if (!S->allocBit(Slot))
          continue;
        if (const TypeDesc *Desc = S->SlotDescs[Slot])
          forEachPtrSlot(S->slotAddr(Slot), Desc, S->ElemSize,
                         [&](uintptr_t, uintptr_t P) {
                           if (P)
                             incRef(P);
                         });
      }
    }
    for (const auto &SP : H.AllSpans) {
      MSpan *S = SP.get();
      if (S->State.load(std::memory_order_relaxed) != SpanState::InUse ||
          S->RefCnt.size() != S->NElems)
        continue;
      for (size_t Slot = 0; Slot < S->NElems; ++Slot)
        if (S->allocBit(Slot) &&
            std::atomic_ref<uint32_t>(S->RefCnt[Slot])
                    .load(std::memory_order_relaxed) == 0)
          zctAdd(*S, Slot);
    }
  }

  const uint64_t ZctThreshold;
  std::atomic<uint64_t> ZctCount{0};
  Shard Shards[NumShards];
};

std::unique_ptr<GcBackend> makeRcGc(Heap &H, const GcConfig &Cfg) {
  return std::make_unique<RcGc>(H, Cfg);
}

} // namespace rt
} // namespace gofree
