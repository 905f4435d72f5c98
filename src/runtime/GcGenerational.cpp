//===- runtime/GcGenerational.cpp - Span-granularity generational GC ------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// A generational collector at span granularity: every span enters service
// young, so allocation is the nursery. A minor cycle stops the world,
// marks only the young spans -- roots plus a remembered set of old slots
// that received young pointers (fed by the Dijkstra-style write barrier) --
// sweeps young spans inside the pause, and promotes spans that survive
// GcConfig::PromoteAfter minors (rescanning their live objects into the
// remembered set, since a promoted span's young referents now cross a
// generation boundary). Major cycles are the heap's shared full mark-sweep.
//
// Span granularity keeps the design honest about this heap's constraints:
// objects never move (tcfree'd addresses must stay stable), so promotion
// by copying is off the table -- a surviving span is re-labeled instead.
// tcfree needs no extra interop: freeing a young object just empties
// nursery space early, and freeing an old one is the baseline behavior.
//
//===----------------------------------------------------------------------===//

#include "runtime/GcBackend.h"
#include "runtime/Heap.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <unordered_set>

namespace gofree {
namespace rt {

class GenerationalGc : public GcBackend {
public:
  GenerationalGc(Heap &H, const GcConfig &Cfg)
      : GcBackend(H), NurseryBytes(std::max<uint64_t>(Cfg.NurseryBytes, 1)),
        PromoteAfter(std::max(Cfg.PromoteAfter, 1)) {}

  GcBackendKind kind() const override { return GcBackendKind::Generational; }

  void spanCreated(MSpan &S) override {
    S.Gen.store(GenYoung, std::memory_order_relaxed);
  }

  void noteAlloc(MSpan &S, size_t) override {
    // Allocation into a cached *old* span (a promoted span the owner kept)
    // is deliberate pretenuring: sound, because any young pointer stored
    // into it goes through the write barrier like any old-space store.
    if (S.Gen.load(std::memory_order_relaxed) == GenYoung)
      AllocatedYoung.fetch_add(S.ElemSize, std::memory_order_relaxed);
  }

  void writeBarrier(MSpan &Dst, uintptr_t Slot, uintptr_t,
                    uintptr_t NewVal) override {
    // Remember old slots that point young; everything else is covered by
    // the minor mark (young roots) or doesn't matter (old->old).
    if (Dst.Gen.load(std::memory_order_relaxed) != GenYoung && NewVal)
      if (MSpan *T = H.lookupSpan(NewVal))
        if (T->State.load(std::memory_order_relaxed) == SpanState::InUse &&
            T->Gen.load(std::memory_order_relaxed) == GenYoung)
          rememberSlot(Slot);
  }

  GcCycleKind pace(uint64_t Live) override {
    if (Live >= H.NextTrigger.load(std::memory_order_relaxed))
      return GcCycleKind::Full;
    if (AllocatedYoung.load(std::memory_order_relaxed) >= NurseryBytes)
      return GcCycleKind::Minor;
    return GcCycleKind::None;
  }

  void collectStw(GcCycleKind Kind, bool Forced) override {
    if (Kind == GcCycleKind::Full) {
      // Major: the shared full mark-sweep. Generations are untouched --
      // surviving young spans keep aging via minors -- but the remembered
      // set may now hold slots of swept objects; the next minor's pruning
      // pass drops them.
      H.fullMarkSweepStw(Forced);
      AllocatedYoung.store(0, std::memory_order_relaxed);
      return;
    }
    minorStw();
  }

  bool supportsConcurrentMark(GcCycleKind Kind) const override {
    // Majors are whole-heap marks and may run concurrently; minors free
    // young objects inside the pause and must stay STW.
    return Kind == GcCycleKind::Full;
  }

  size_t rememberedSlots() const override {
    size_t N = 0;
    for (const Shard &Sh : Shards) {
      std::lock_guard<std::mutex> Lock(Sh.Mu);
      N += Sh.Slots.size();
    }
    return N;
  }

  bool rememberedContains(uintptr_t Slot) const override {
    const Shard &Sh = Shards[(Slot / 8) % NumShards];
    std::lock_guard<std::mutex> Lock(Sh.Mu);
    return Sh.Slots.count(Slot) != 0;
  }

  void concCycleEnd(GcCycleKind Kind) override {
    // A concurrent major bypasses collectStw, so reset the nursery
    // accounting here (for STW majors this is a harmless double reset).
    if (Kind == GcCycleKind::Full)
      AllocatedYoung.store(0, std::memory_order_relaxed);
  }

private:
  // The remembered set: old-space slot addresses, sharded so concurrent
  // mutators' barriers rarely contend.
  static constexpr size_t NumShards = 8;
  struct Shard {
    mutable std::mutex Mu; ///< mutable: const introspection locks it too.
    std::unordered_set<uintptr_t> Slots;
  };

  void rememberSlot(uintptr_t Slot) {
    Shard &Sh = Shards[(Slot / 8) % NumShards];
    std::lock_guard<std::mutex> Lock(Sh.Mu);
    Sh.Slots.insert(Slot);
  }

  /// One minor cycle. World stopped, GcMu held (called from runGcImpl).
  void minorStw() {
    trace::TraceSink *T = H.traceSink();
    H.verifyAtSafepoint("pre-minor");

    // Snapshot and prune the remembered set: drop slots whose containing
    // object died (stale entries would read freed memory -- still mapped,
    // but only conservatively meaningful). The set restarts empty; after
    // the sweep, snapshot entries that still hold an old->young edge are
    // re-inserted (the edge persists with no new store to re-create it),
    // and promotion re-scans add the promoted spans' own young referents.
    std::vector<uintptr_t> Extra;
    for (Shard &Sh : Shards) {
      std::lock_guard<std::mutex> Lock(Sh.Mu);
      for (uintptr_t Slot : Sh.Slots) {
        MSpan *S = H.lookupSpan(Slot);
        if (!S ||
            S->State.load(std::memory_order_relaxed) != SpanState::InUse)
          continue;
        if (!S->allocBit(S->slotOf(Slot)))
          continue;
        Extra.push_back(Slot);
      }
      Sh.Slots.clear();
    }

    H.Phase.store(GcPhase::Marking, std::memory_order_release);
    if (T)
      T->emit(trace::EventKind::GcMarkStart, 1,
              H.Stats.HeapLive.load(std::memory_order_relaxed));
    H.markPhase(Heap::GcMarkMode::Minor, &Extra);
    if (T)
      T->emit(trace::EventKind::GcMarkEnd, 1, 0);

    // Dangling large-span control blocks retire at any mark phase's end
    // (fig. 9's "next GC"), minor ones included.
    H.retireDanglingSpans();

    // Sweep the young spans in-pause (this backend forces EagerSweep, so
    // SweepGen is already current everywhere and sweepSpanSlots leaves it
    // untouched in effect). Survivors age; old enough ones promote.
    H.Phase.store(GcPhase::Sweeping, std::memory_order_release);
    std::vector<MSpan *> ToRetire;
    // AllSpans only grows under Mu while the world runs; with the world
    // stopped it is stable, no lock needed (same as finishSweepStw).
    for (const auto &SP : H.AllSpans) {
      MSpan *S = SP.get();
      if (S->State.load(std::memory_order_relaxed) != SpanState::InUse ||
          S->Gen.load(std::memory_order_relaxed) != GenYoung)
        continue;
      H.sweepSpanSlots(S, trace::SweepWhere::Stw);
      size_t Before = ToRetire.size();
      H.stwFixSpanPlacement(S, ToRetire);
      if (ToRetire.size() != Before)
        continue; // Emptied; retired below.
      if ((int)++S->Survivals >= PromoteAfter)
        promote(*S);
    }
    if (!ToRetire.empty()) {
      std::lock_guard<std::mutex> Lock(H.Mu);
      for (MSpan *S : ToRetire)
        H.retireSpan(S);
    }

    // Re-insert snapshot entries that still hold an old->young edge: the
    // containing old object is untouched by a minor, but the target may
    // have died (drop), been promoted (no longer a cross-generation edge,
    // drop), or survived young (keep -- the next minor still needs it).
    for (uintptr_t Slot : Extra) {
      MSpan *S = H.lookupSpan(Slot);
      if (!S || S->State.load(std::memory_order_relaxed) != SpanState::InUse ||
          !S->allocBit(S->slotOf(Slot)))
        continue;
      uintptr_t P;
      std::memcpy(&P, reinterpret_cast<void *>(Slot), sizeof(uintptr_t));
      if (!P)
        continue;
      MSpan *TS = H.lookupSpan(P);
      if (TS && TS->State.load(std::memory_order_relaxed) == SpanState::InUse &&
          TS->Gen.load(std::memory_order_relaxed) == GenYoung &&
          TS->allocBit(TS->slotOf(P)))
        rememberSlot(Slot);
    }

    AllocatedYoung.store(0, std::memory_order_relaxed);
    H.Phase.store(GcPhase::Idle, std::memory_order_release);
    H.verifyAtSafepoint("post-minor");
  }

  /// Re-labels \p S old and rescans its live objects: any young referent
  /// now sits behind an old slot and must enter the remembered set, or
  /// the next minor would sweep it as unreachable.
  void promote(MSpan &S) {
    S.Gen.store(GenOld, std::memory_order_relaxed);
    S.Survivals = 0;
    for (size_t Slot = 0; Slot < S.NElems; ++Slot) {
      if (!S.allocBit(Slot))
        continue;
      const TypeDesc *Desc = S.SlotDescs[Slot];
      if (!Desc)
        continue;
      forEachPtrSlot(S.slotAddr(Slot), Desc, S.ElemSize,
                     [&](uintptr_t FieldAddr, uintptr_t P) {
                       if (!P)
                         return;
                       MSpan *TS = H.lookupSpan(P);
                       if (TS &&
                           TS->State.load(std::memory_order_relaxed) ==
                               SpanState::InUse &&
                           TS->Gen.load(std::memory_order_relaxed) == GenYoung)
                         rememberSlot(FieldAddr);
                     });
    }
  }

  const uint64_t NurseryBytes;
  const int PromoteAfter;
  /// Bytes allocated into young spans since the last cycle (the nursery
  /// pacing counter).
  std::atomic<uint64_t> AllocatedYoung{0};
  Shard Shards[NumShards];
};

std::unique_ptr<GcBackend> makeGenerationalGc(Heap &H, const GcConfig &Cfg) {
  return std::make_unique<GenerationalGc>(H, Cfg);
}

} // namespace rt
} // namespace gofree
