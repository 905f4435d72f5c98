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
// Single writer: rc serves exactly one mutator (gcServesMutators), so the
// counts and the ZCT are plain data that only that mutator touches, or the
// collector with the world stopped, ordered by the park handshake; mark
// helpers never touch either.
//
//===----------------------------------------------------------------------===//

#include "runtime/GcBackend.h"
#include "runtime/Heap.h"

#include <algorithm>
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
    S.RefCnt[Slot] = 0;
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
    S.RefCnt[Slot] = 0;
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
    if (Zct.size() >= ZctThreshold)
      return GcCycleKind::ZctDrain;
    return GcCycleKind::None;
  }

  void collectStw(GcCycleKind Kind, bool Forced) override {
    if (Kind == GcCycleKind::Full) {
      // Backup collector: cycles (and anything the counts missed) fall to
      // tracing; afterwards the counts are recomputed from the surviving
      // object graph because sweeping freed objects behind their back.
      H.fullMarkSweep(Forced);
      recomputeStw();
      return;
    }
    drainStw();
  }

private:
  void incRef(uintptr_t Addr) {
    size_t Slot;
    if (MSpan *S = H.rcObject(Addr, Slot))
      ++S->RefCnt[Slot];
  }

  /// Decrement, saturating at zero (the old value may point at an object
  /// whose count never saw it, e.g. one allocated into a freed slot after
  /// the store); a count at zero tables the object.
  void decRef(uintptr_t Addr) {
    size_t Slot;
    MSpan *S = H.rcObject(Addr, Slot);
    if (!S)
      return;
    uint32_t &V = S->RefCnt[Slot];
    if (V)
      --V;
    if (!V)
      zctAdd(*S, Slot);
  }

  /// Tables slotAddr(Slot) unless already tabled (the InZct flag is the
  /// claim; exactly one list entry per claim).
  void zctAdd(MSpan &S, size_t Slot) {
    if (S.InZct[Slot])
      return;
    S.InZct[Slot] = 1;
    Zct.push_back(S.slotAddr(Slot));
  }

  /// Frees one slot inside the pause (the drain's sweep). Mirrors
  /// sweepSpanSlots' per-slot bookkeeping.
  void freeSlot(MSpan *S, size_t Slot, std::vector<MSpan *> &Touched) {
    S->clearAllocBit(Slot);
    uint8_t Cat = S->SlotCats[Slot];
    S->SlotDescs[Slot] = nullptr;
    S->FreeIndex = 0;
    S->RefCnt[Slot] = 0;
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
                MSpan *CS = P ? H.rcObject(P, CSlot) : nullptr;
                if (!CS)
                  return;
                uint32_t &V = CS->RefCnt[CSlot];
                if (V)
                  --V;
                if (V)
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

    // Non-tracing root scan: marks objects the roots reference directly.
    // Heap->heap edges are the counts' job.
    H.Phase.store(GcPhase::Marking, std::memory_order_release);
    H.markPhase(Heap::GcMarkMode::RootsOnly);

    std::vector<uintptr_t> Pending;
    Pending.swap(Zct);

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
      if (!S->InZct[Slot])
        continue;
      S->InZct[Slot] = 0;
      if (!S->allocBit(Slot))
        continue; // Freed (tcfree or an earlier cascade) since tabled.
      if (S->RefCnt[Slot] != 0)
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
    H.stwSettleSpans(Touched);

    // Leave every mark bit clear, as a sweep does: no mark clears them
    // before it starts.
    for (const auto &SP : H.AllSpans)
      if (SP->State.load(std::memory_order_relaxed) == SpanState::InUse)
        SP->clearMarks();

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
    Zct.clear();
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
        if (S->allocBit(Slot) && S->RefCnt[Slot] == 0)
          zctAdd(*S, Slot);
    }
  }

  const uint64_t ZctThreshold;
  /// Object base addresses; may hold stale entries for slots freed since
  /// (InZct dedups claims).
  std::vector<uintptr_t> Zct;
};

MSpan *Heap::rcObject(uintptr_t Addr, size_t &Slot) const {
  MSpan *S = lookupSpan(Addr);
  if (!S || S->State.load(std::memory_order_relaxed) != SpanState::InUse ||
      S->RefCnt.size() != S->NElems)
    return nullptr;
  Slot = S->slotOf(Addr);
  return S->allocBit(Slot) ? S : nullptr;
}

std::unique_ptr<GcBackend> makeRcGc(Heap &H, const GcConfig &Cfg) {
  return std::make_unique<RcGc>(H, Cfg);
}

} // namespace rt
} // namespace gofree
