//===- runtime/MSpan.h - Span control blocks -------------------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mspan control block (section 3.3 / figure 9): a run of pages divided
/// into equally-sized element slots with allocation and mark bitmaps.
/// TcfreeSmall works by clearing an allocation bit and rewinding the free
/// index; TcfreeLarge detaches the pages and leaves the control block
/// "dangling" until the next GC mark phase retires it (section 5).
///
/// Ownership invariant (the thread-caching contract, section 5)
/// -------------------------------------------------------------
/// A span's mutable allocation state -- FreeIndex, AllocBits, SlotDescs,
/// SlotCats -- is only ever touched by:
///
///   1. the one mutator thread whose cache currently owns the span
///      (OwnerCache == its cache id; each concurrently running thread must
///      use a distinct cache id), or
///   2. the collector, while the world is stopped at safepoints (every
///      registered mutator is parked inside Heap::safepoint), or
///   3. any thread, via the central lists, where the hand-off is
///      serialized by the per-class central-list mutex.
///
/// That is why those fields can stay plain (non-atomic): every cross-thread
/// transfer goes through a mutex or the stop-the-world handshake, both of
/// which establish happens-before. `State` and `OwnerCache` are the
/// exception: tcfree's safety checks read them on addresses that may belong
/// to *another* thread's span (that is exactly the foreign-span give-up
/// path), so they are atomics -- a racy read there is answered
/// conservatively (give up), never acted on.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_RUNTIME_MSPAN_H
#define GOFREE_RUNTIME_MSPAN_H

#include "runtime/SizeClasses.h"
#include "runtime/TypeDesc.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

namespace gofree {
namespace rt {

/// Owner id meaning "not cached by any thread".
inline constexpr int NoOwner = -1;

/// Span generations (the generational backend's unit of aging). Old is the
/// zero value so the marksweep and rc backends, which never look at
/// generations, see a uniformly old heap.
inline constexpr uint8_t GenOld = 0;
inline constexpr uint8_t GenYoung = 1;

/// Lifecycle of a span.
enum class SpanState : uint8_t {
  InUse,    ///< Holds live slots; registered in the page map.
  Dangling, ///< Large span whose pages were returned by TcfreeLarge; the
            ///< control block waits for the next GC mark phase (fig. 9).
  Free,     ///< Control block in the idle pool.
};

/// Which central list a small span sits on, if any. Guarded by the span's
/// central-list mutex (the per-size-class CentralList::Mu); lets sweepers
/// move a span between lists without rebuilding them wholesale.
enum class SpanList : uint8_t {
  None,    ///< Owned by a cache, dangling, free, or a large span.
  Partial, ///< On CentralList::Partial (has free slots).
  Full,    ///< On CentralList::Full (believed full; may be stale-full
           ///< until lazily swept).
};

/// A span: NPages contiguous pages carved into NElems slots of ElemSize.
struct MSpan {
  uintptr_t Base = 0;
  size_t NPages = 0;
  size_t ElemSize = 0;
  size_t NElems = 0;
  int SizeClass = -1; ///< -1 for large (dedicated) spans.
  /// Read cross-thread by tcfree's foreign-span check; see the ownership
  /// invariant in the file comment.
  std::atomic<int> OwnerCache{NoOwner};
  std::atomic<SpanState> State{SpanState::Free};
  /// Lazy-sweep generation, following Go's sweepgen protocol. With G the
  /// heap's global generation (bumped by 2 while the world is stopped at
  /// the end of mark):
  ///   SweepGen == G      the span is swept and ready to use,
  ///   SweepGen == G - 2  the span survived mark but is not yet swept,
  ///   SweepGen == G - 1  a sweeper claimed it and is sweeping right now.
  /// Sweepers claim with a CAS G-2 -> G-1 and publish with a release store
  /// of G, so exactly one sweeper processes each span per cycle and
  /// everyone else can spin-wait on the store.
  std::atomic<uint32_t> SweepGen{0};
  /// Central-list membership; guarded by the owning CentralList::Mu.
  SpanList OnList = SpanList::None;
  /// Next slot to try when bump-allocating; tcfreeSmall rewinds it. Owner
  /// thread (or stopped-world collector) only.
  size_t FreeIndex = 0;
  std::vector<uint64_t> AllocBits;
  std::vector<uint64_t> MarkBits;
  /// Per-slot type descriptors for precise GC scanning.
  std::vector<const TypeDesc *> SlotDescs;
  /// Per-slot allocation category (AllocCat), for sweep accounting.
  std::vector<uint8_t> SlotCats;
  /// Which generation the span's objects belong to (generational backend
  /// only; GenOld everywhere else). Atomic because the write barrier reads
  /// it on spans it does not own while promotion flips it under
  /// stop-the-world; both spans involved in a barriered store hold live
  /// objects, so the value read is never of a recycled control block.
  std::atomic<uint8_t> Gen{GenOld};
  /// Minor cycles this young span has survived (collector only, STW).
  uint32_t Survivals = 0;
  /// Per-slot deferred reference counts and ZCT membership flags (rc
  /// backend only; sized by GcBackend::spanCreated, empty otherwise).
  /// Mutators update them through atomic_ref at barrier sites.
  std::vector<uint32_t> RefCnt;
  std::vector<uint8_t> InZct;

  void reset(uintptr_t NewBase, size_t Pages, size_t Elem, int Class,
             uint32_t SweepG) {
    Base = NewBase;
    NPages = Pages;
    ElemSize = Elem;
    NElems = Pages * PageSize / Elem;
    SizeClass = Class;
    OwnerCache.store(NoOwner, std::memory_order_relaxed);
    State.store(SpanState::InUse, std::memory_order_release);
    SweepGen.store(SweepG, std::memory_order_relaxed);
    OnList = SpanList::None;
    FreeIndex = 0;
    AllocBits.assign((NElems + 63) / 64, 0);
    MarkBits.assign((NElems + 63) / 64, 0);
    SlotDescs.assign(NElems, nullptr);
    SlotCats.assign(NElems, 0);
    Gen.store(GenOld, std::memory_order_relaxed);
    Survivals = 0;
    RefCnt.clear();
    InZct.clear();
  }

  /// Alloc-bit accessors go through atomic_ref: during concurrent mark the
  /// markers read alloc bits of spans whose owner mutator is allocating at
  /// the same time. setAllocBit publishes with release so a marker that
  /// observes the bit set also observes the slot's descriptor/category
  /// (written before the bit -- see Heap::allocSmall); allocBit loads with
  /// acquire to pair with it. Bits of objects that predate the mark cycle
  /// are covered by the stop-the-world handshake instead. Word-granularity
  /// readers (nextFree, liveCount) stay plain: only the owner (or the
  /// stopped-world collector) calls them, and no other thread writes.
  bool allocBit(size_t Slot) const {
    std::atomic_ref<uint64_t> Word(
        const_cast<uint64_t &>(AllocBits[Slot >> 6]));
    return (Word.load(std::memory_order_acquire) >> (Slot & 63)) & 1;
  }
  void setAllocBit(size_t Slot) {
    std::atomic_ref<uint64_t> Word(AllocBits[Slot >> 6]);
    Word.fetch_or(1ULL << (Slot & 63), std::memory_order_release);
  }
  void clearAllocBit(size_t Slot) {
    std::atomic_ref<uint64_t> Word(AllocBits[Slot >> 6]);
    Word.fetch_and(~(1ULL << (Slot & 63)), std::memory_order_release);
  }
  bool markBit(size_t Slot) const {
    return (MarkBits[Slot >> 6] >> (Slot & 63)) & 1;
  }
  void setMarkBit(size_t Slot) { MarkBits[Slot >> 6] |= 1ULL << (Slot & 63); }
  /// Atomically sets the mark bit for \p Slot; returns true iff this call
  /// transitioned it from clear to set. This is the one bitmap accessor
  /// that may race (parallel mark workers); everything else follows the
  /// ownership invariant above.
  bool tryMarkBit(size_t Slot) {
    std::atomic_ref<uint64_t> Word(MarkBits[Slot >> 6]);
    uint64_t Bit = 1ULL << (Slot & 63);
    if (Word.load(std::memory_order_relaxed) & Bit)
      return false;
    return !(Word.fetch_or(Bit, std::memory_order_relaxed) & Bit);
  }
  void clearMarks() { MarkBits.assign(MarkBits.size(), 0); }

  /// Slot index containing \p Addr. Precondition: contains(Addr).
  size_t slotOf(uintptr_t Addr) const {
    assert(contains(Addr) && "address outside span");
    return (Addr - Base) / ElemSize;
  }
  uintptr_t slotAddr(size_t Slot) const { return Base + Slot * ElemSize; }
  bool contains(uintptr_t Addr) const {
    return Addr >= Base && Addr < Base + NPages * PageSize;
  }

  /// Finds the next clear allocation bit at or after FreeIndex. Returns
  /// NElems when the span is full.
  size_t nextFree() const {
    for (size_t I = FreeIndex; I < NElems; ++I)
      if (!allocBit(I))
        return I;
    return NElems;
  }

  size_t liveCount() const {
    size_t N = 0;
    for (uint64_t W : AllocBits)
      N += (size_t)__builtin_popcountll(W);
    return N;
  }
};

} // namespace rt
} // namespace gofree

#endif // GOFREE_RUNTIME_MSPAN_H
