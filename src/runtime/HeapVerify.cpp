//===- runtime/HeapVerify.cpp - Whole-heap invariant validation -----------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Heap::verifyInvariants: the debug validator behind HeapOptions::Verify.
// The differential fuzz harness runs every leg with it enabled, so a
// tcfree/GC/allocator bug that corrupts heap structure is caught at the
// next GC safepoint instead of surfacing later as a wrong checksum (or not
// at all). The checks mirror the documented invariants:
//
//   - page heap: free runs are sorted, disjoint, coalesced (Heap.cpp's
//     freePages contract) and inside the reserved range;
//   - span accounting: every reserved page is exactly one of
//     {free run, in-use span}; every in-use span lies inside the reserved
//     range; Stats.Committed and Stats.HeapLive equal what the spans say;
//   - page map: a page maps to S iff S is in-use and covers it (the
//     stale-entry count stops at the highest page ever handed out, so a
//     pass costs O(heap), not O(reservation));
//   - cache ownership (MSpan.h): a cached span is in-use, of the cache
//     slot's size class, owned by that cache, and cached nowhere else;
//   - central lists: listed spans are in-use, unowned, of the list's
//     class, on exactly one list, tagged with the matching OnList value,
//     and a span on Partial has a free slot (a span on Full with free
//     slots is legal only while it is stale-full, i.e. unswept);
//   - lazy sweep: every in-use span's SweepGen is the current generation
//     or exactly two behind it, and every unowned small span is reachable
//     through a central list (nothing leaks off-list).
//
// Precondition: the heap is quiesced (world stopped, or no concurrent
// users). Locks are still taken -- cheap, and keeps TSan quiet.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

using namespace gofree;
using namespace gofree::rt;

namespace {

/// Collects violations with bounded output (a corrupt heap can trip
/// thousands of checks; the first few localize the bug).
class Violations {
public:
  static constexpr size_t MaxReported = 16;

  template <typename... Args>
  void add(const char *Fmt, Args... A) {
    ++Count;
    if (Count > MaxReported)
      return;
    char Line[256];
    std::snprintf(Line, sizeof(Line), Fmt, A...);
    Text += Line;
    Text += '\n';
  }

  bool any() const { return Count != 0; }
  std::string render() const {
    std::string Out = Text;
    if (Count > MaxReported)
      Out += "... and " + std::to_string(Count - MaxReported) +
             " more violations\n";
    return Out;
  }

private:
  size_t Count = 0;
  std::string Text;
};

} // namespace

bool Heap::verifyInvariants(std::string *Report) {
  Violations V;

  // Phase 1: central lists, one class lock at a time. Record where each
  // span was seen so the span walk below can cross-check.
  struct CentralSeen {
    int Class;
    bool OnPartial;
  };
  std::unordered_map<MSpan *, CentralSeen> OnCentral;
  for (int Cl = 0; Cl < numSizeClasses(); ++Cl) {
    CentralList &CL = Central[(size_t)Cl];
    std::lock_guard<std::mutex> Lock(CL.Mu);
    for (int OnPartial = 0; OnPartial < 2; ++OnPartial) {
      for (MSpan *S : OnPartial ? CL.Partial : CL.Full) {
        if (!S) {
          V.add("central[%d]: null span on %s list", Cl,
                OnPartial ? "partial" : "full");
          continue;
        }
        if (!OnCentral.emplace(S, CentralSeen{Cl, OnPartial != 0}).second)
          V.add("central[%d]: span %p listed twice", Cl, (void *)S);
        if (S->State.load(std::memory_order_relaxed) != SpanState::InUse)
          V.add("central[%d]: span %p not in-use", Cl, (void *)S);
        if (S->SizeClass != Cl)
          V.add("central[%d]: span %p has class %d", Cl, (void *)S,
                S->SizeClass);
        if (S->OwnerCache.load(std::memory_order_relaxed) != NoOwner)
          V.add("central[%d]: span %p still owned by cache %d", Cl, (void *)S,
                S->OwnerCache.load(std::memory_order_relaxed));
        SpanList Tag = OnPartial ? SpanList::Partial : SpanList::Full;
        if (S->OnList != Tag)
          V.add("central[%d]: span %p on %s list but tagged %d", Cl, (void *)S,
                OnPartial ? "partial" : "full", (int)S->OnList);
        bool HasFree = S->nextFree() != S->NElems;
        bool Swept = S->SweepGen.load(std::memory_order_relaxed) ==
                     SweepGenGlobal.load(std::memory_order_relaxed);
        if (OnPartial && !HasFree)
          V.add("central[%d]: full span %p on partial list", Cl, (void *)S);
        // A full-listed span may have free slots only while stale-full
        // (unswept garbage keeps its bits set until someone sweeps it).
        if (!OnPartial && HasFree && Swept)
          V.add("central[%d]: swept span %p with free slots on full list", Cl,
                (void *)S);
      }
    }
  }

  // Phase 2: caches. Quiesced precondition makes the unlocked reads safe.
  std::unordered_map<MSpan *, int> CachedBy;
  for (size_t C = 0; C < Caches.size(); ++C) {
    for (size_t Cl = 0; Cl < Caches[C].Current.size(); ++Cl) {
      MSpan *S = Caches[C].Current[Cl];
      if (!S)
        continue;
      if (!CachedBy.emplace(S, (int)C).second)
        V.add("cache %zu: span %p also cached by cache %d", C, (void *)S,
              CachedBy[S]);
      if (S->State.load(std::memory_order_relaxed) != SpanState::InUse)
        V.add("cache %zu: cached span %p not in-use", C, (void *)S);
      if (S->SizeClass != (int)Cl)
        V.add("cache %zu slot %zu: span %p has class %d", C, Cl, (void *)S,
              S->SizeClass);
      if (S->OwnerCache.load(std::memory_order_relaxed) != (int)C)
        V.add("cache %zu: cached span %p owned by %d", C, (void *)S,
              S->OwnerCache.load(std::memory_order_relaxed));
      if (OnCentral.count(S))
        V.add("cache %zu: span %p is also on a central list", C, (void *)S);
    }
  }

  // Phase 3: page heap + spans, under Mu (which also excludes page-map
  // writers).
  uint64_t SpanPages = 0, FreePages = 0;
  uint64_t LiveBytes = 0, CommittedBytes = 0;
  size_t InUseSpans = 0;
  auto InArena = [&](uintptr_t Base, size_t NPages) {
    return Base >= ArenaBase && NPages <= ArenaPages &&
           Base - ArenaBase <= ArenaBytes - NPages * PageSize;
  };
  {
    std::lock_guard<std::mutex> Lock(Mu);

    for (size_t I = 0; I < FreeRuns.size(); ++I) {
      const Run &R = FreeRuns[I];
      FreePages += R.NPages;
      if (R.NPages == 0)
        V.add("free run %zu: empty", I);
      if (!InArena(R.Base, R.NPages))
        V.add("free run %zu: escapes the reserved range", I);
      if (I > 0) {
        const Run &P = FreeRuns[I - 1];
        if (P.Base + P.NPages * PageSize > R.Base)
          V.add("free runs %zu/%zu: unsorted or overlapping", I - 1, I);
        else if (P.Base + P.NPages * PageSize == R.Base)
          V.add("free runs %zu/%zu: neighbours uncoalesced", I - 1, I);
      }
    }

    std::unordered_set<MSpan *> Pooled(SpanPool.begin(), SpanPool.end());
    for (const auto &SP : AllSpans) {
      MSpan *S = SP.get();
      SpanState St = S->State.load(std::memory_order_relaxed);
      switch (St) {
      case SpanState::Free:
        if (!Pooled.count(S))
          V.add("span %p: free but not pooled", (void *)S);
        continue;
      case SpanState::Dangling:
        // Pages already returned; the control block waits for the next
        // mark phase. Nothing else to check.
        if (std::find(Dangling.begin(), Dangling.end(), S) == Dangling.end())
          V.add("span %p: dangling but not on the dangling list", (void *)S);
        continue;
      case SpanState::InUse:
        break;
      }
      ++InUseSpans;
      SpanPages += S->NPages;
      CommittedBytes += S->NPages * PageSize;
      LiveBytes += (uint64_t)S->liveCount() * S->ElemSize;
      if (Pooled.count(S))
        V.add("span %p: in-use but pooled", (void *)S);
      if (!InArena(S->Base, S->NPages))
        V.add("span %p: escapes the reserved range", (void *)S);
      if (S->SizeClass >= 0) {
        if (S->SizeClass >= numSizeClasses())
          V.add("span %p: bad size class %d", (void *)S, S->SizeClass);
        else if (S->ElemSize != classSize(S->SizeClass))
          V.add("span %p: elem size %zu != class %d size %zu", (void *)S,
                S->ElemSize, S->SizeClass, classSize(S->SizeClass));
      } else if (S->NElems != 1) {
        V.add("span %p: large span with %zu elems", (void *)S, S->NElems);
      }
      if (S->FreeIndex > S->NElems)
        V.add("span %p: free index %zu past %zu elems", (void *)S,
              S->FreeIndex, S->NElems);
      int Owner = S->OwnerCache.load(std::memory_order_relaxed);
      if (Owner != NoOwner && (Owner < 0 || (size_t)Owner >= Caches.size()))
        V.add("span %p: owner %d out of range", (void *)S, Owner);
      auto CacheIt = CachedBy.find(S);
      if (CacheIt != CachedBy.end() && Owner != CacheIt->second)
        V.add("span %p: cached by %d but owner is %d", (void *)S,
              CacheIt->second, Owner);
      // Lazy sweep: at a quiesced point a span is either swept (current
      // generation) or cleanly unswept (exactly two behind); a claim
      // generation (G - 1) would mean a sweeper died mid-span.
      uint32_t G = SweepGenGlobal.load(std::memory_order_relaxed);
      uint32_t Gen = S->SweepGen.load(std::memory_order_relaxed);
      if (Gen != G && Gen != G - 2)
        V.add("span %p: sweep generation %u with global %u", (void *)S, Gen,
              G);
      // List-membership cross-check: OnList says where the span is, and an
      // unowned small span must be reachable through a central list or it
      // has leaked off every structure that could ever hand it out again.
      if (S->SizeClass >= 0) {
        bool Listed = OnCentral.count(S) != 0;
        if ((S->OnList != SpanList::None) != Listed)
          V.add("span %p: OnList tag %d but %s a central list", (void *)S,
                (int)S->OnList, Listed ? "on" : "not on");
        if (Owner == NoOwner && !Listed)
          V.add("span %p: unowned small span on no central list", (void *)S);
      } else if (S->OnList != SpanList::None) {
        V.add("span %p: large span with OnList tag %d", (void *)S,
              (int)S->OnList);
      }
      // Every page of an in-use span must map back to it.
      for (size_t P = 0; P < S->NPages; ++P) {
        MSpan *M = lookupSpan(S->Base + P * PageSize);
        if (M != S) {
          V.add("span %p: page %zu maps to %p", (void *)S, P, (void *)M);
          break;
        }
      }
      // Free runs and in-use spans must not overlap (cheap proxy: the
      // exact partition check below, plus the range checks above, makes
      // an overlap show up as a page-count mismatch).
    }

    // No stale page-map entries: mapped pages == in-use span pages. No
    // page at or past ArenaHighPage was ever handed out, let alone mapped.
    uint64_t MappedPages = 0;
    for (size_t P = 0; P < ArenaHighPage; ++P)
      MappedPages += lookupSpan(ArenaBase + P * PageSize) != nullptr;
    if (MappedPages != SpanPages)
      V.add("page map holds %" PRIu64 " pages but in-use spans cover %" PRIu64,
            MappedPages, SpanPages);
  }

  // Phase 4: global accounting. Every reserved page is exactly one of
  // free / in-use, and the stats counters agree with the span walk.
  if (FreePages + SpanPages != ArenaPages)
    V.add("page partition broken: %" PRIu64 " free + %" PRIu64
          " spanned != %zu reserved pages",
          FreePages, SpanPages, ArenaPages);
  uint64_t StatCommitted = Stats.Committed.load(std::memory_order_relaxed);
  if (StatCommitted != CommittedBytes)
    V.add("Committed=%" PRIu64 " but in-use spans hold %" PRIu64 " bytes",
          StatCommitted, CommittedBytes);
  uint64_t StatLive = Stats.HeapLive.load(std::memory_order_relaxed);
  if (StatLive != LiveBytes)
    V.add("HeapLive=%" PRIu64 " but alloc bits say %" PRIu64
          " bytes across %zu spans",
          StatLive, LiveBytes, InUseSpans);

  if (!V.any())
    return true;
  if (Report)
    *Report = V.render();
  return false;
}

void Heap::verifyTricolor(const char *When) {
  if (!Opts.Gc.Verify)
    return;
  // The tricolor invariant at a mark-complete safepoint (both flips run it
  // with the world stopped and all gray drained): no marked (black) object
  // may point at an unmarked (white) live object. A violation means the
  // write barrier missed a store -- the white target would be swept while
  // still reachable.
  Violations V;
  std::vector<MSpan *> InUse;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const auto &SP : AllSpans) {
      MSpan *S = SP.get();
      if (S->State.load(std::memory_order_relaxed) == SpanState::InUse)
        InUse.push_back(S);
    }
  }
  for (MSpan *S : InUse) {
    for (size_t Slot = 0; Slot < S->NElems; ++Slot) {
      if (!S->allocBit(Slot) || !S->markBit(Slot))
        continue;
      const TypeDesc *Desc = S->SlotDescs[Slot];
      forEachPtrSlot(S->slotAddr(Slot), Desc, S->ElemSize,
                     [&](uintptr_t SlotAddr, uintptr_t P) {
                       if (!P)
                         return;
                       MSpan *T = lookupSpan(P);
                       if (!T || T->State.load(std::memory_order_relaxed) !=
                                     SpanState::InUse)
                         return;
                       size_t TSlot = (P - T->Base) / T->ElemSize;
                       if (T->allocBit(TSlot) && !T->markBit(TSlot))
                         V.add("tricolor: black %p slot %" PRIuPTR
                               " -> white %p (span %p slot %zu)",
                               (void *)S->slotAddr(Slot), SlotAddr, (void *)P,
                               (void *)T, TSlot);
                     });
    }
  }
  if (!V.any())
    return;
  std::lock_guard<std::mutex> Lock(InvariantMu);
  if (InvariantFailure.empty())
    InvariantFailure = std::string("tricolor invariant violation (") + When +
                       "):\n" + V.render();
}

std::string Heap::invariantFailure() const {
  std::lock_guard<std::mutex> Lock(InvariantMu);
  return InvariantFailure;
}

void Heap::verifyAtSafepoint(const char *When) {
  if (!Opts.Gc.Verify)
    return;
  std::string Report;
  if (verifyInvariants(&Report))
    return;
  std::lock_guard<std::mutex> Lock(InvariantMu);
  if (InvariantFailure.empty())
    InvariantFailure = std::string("heap invariant violation (") + When +
                       "):\n" + Report;
}
