//===- runtime/MapRt.cpp - Map runtime support ----------------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "runtime/MapRt.h"
#include "runtime/WordAccess.h"

#include <cassert>
#include <cstring>

using namespace gofree;
using namespace gofree::rt;

namespace {

constexpr uint64_t EntryEmpty = 0;
constexpr uint64_t EntryFull = 1;
constexpr uint64_t EntryTomb = 2;

uint64_t readU64(uintptr_t Addr) {
  uint64_t V;
  std::memcpy(&V, reinterpret_cast<void *>(Addr), 8);
  return V;
}

// Heap stores go through the relaxed atomic word store so concurrent
// markers reading the Buckets slot (or pointer-bearing values) never race
// them; see runtime/WordAccess.h.
void writeU64(uintptr_t Addr, uint64_t V) { storeWordRelaxed(Addr, V); }

uint64_t hashKey(int64_t Key) {
  uint64_t Z = (uint64_t)Key + 0x9e3779b97f4a7c15ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

struct HMapView {
  uintptr_t HMap;

  int64_t count() const { return (int64_t)readU64(HMap + HMapCountOff); }
  int64_t tombs() const { return (int64_t)readU64(HMap + HMapTombsOff); }
  int64_t nbuckets() const { return (int64_t)readU64(HMap + HMapNBucketsOff); }
  uintptr_t buckets() const { return readU64(HMap + HMapBucketsOff); }
  size_t entrySize() const { return readU64(HMap + HMapEntrySizeOff); }

  void setCount(int64_t V) { writeU64(HMap + HMapCountOff, (uint64_t)V); }
  void setTombs(int64_t V) { writeU64(HMap + HMapTombsOff, (uint64_t)V); }
  void setNBuckets(int64_t V) { writeU64(HMap + HMapNBucketsOff, (uint64_t)V); }
  void setBuckets(uintptr_t V) { writeU64(HMap + HMapBucketsOff, V); }

  uintptr_t entry(int64_t Idx) const {
    return buckets() + (uintptr_t)Idx * entrySize();
  }
  uint64_t state(int64_t Idx) const { return readU64(entry(Idx)); }
  int64_t key(int64_t Idx) const { return (int64_t)readU64(entry(Idx) + 8); }
  uintptr_t value(int64_t Idx) const { return entry(Idx) + 16; }

  /// Probes for \p Key. Returns the index of the matching full entry, or
  /// the first insertable slot (empty/tombstone) negated minus one.
  int64_t probe(int64_t Key) const {
    int64_t N = nbuckets();
    int64_t Mask = N - 1;
    int64_t Idx = (int64_t)(hashKey(Key) & (uint64_t)Mask);
    int64_t FirstFree = -1;
    for (int64_t Step = 0; Step < N; ++Step) {
      uint64_t St = state(Idx);
      if (St == EntryEmpty) {
        if (FirstFree < 0)
          FirstFree = Idx;
        break;
      }
      if (St == EntryTomb) {
        if (FirstFree < 0)
          FirstFree = Idx;
      } else if (key(Idx) == Key) {
        return Idx;
      }
      Idx = (Idx + 1) & Mask;
    }
    assert(FirstFree >= 0 && "map probe found no slot (table full)");
    return -FirstFree - 1;
  }
};

void mapGrow(const MapCtx &Ctx, HMapView M) {
  int64_t OldN = M.nbuckets();
  uintptr_t OldBuckets = M.buckets();
  size_t EntrySize = M.entrySize();
  int64_t NewN = OldN * 2;
  // The new bucket array is always heap allocated (growth is a runtime
  // call), even for stack-allocated maps.
  uintptr_t NewBuckets =
      Ctx.H->allocate(mapBucketBytes(NewN, Ctx.ValueSize), Ctx.BucketArrayDesc,
                      AllocCat::Map, Ctx.CacheId);
  // Evacuate full entries.
  int64_t Mask = NewN - 1;
  for (int64_t I = 0; I < OldN; ++I) {
    uintptr_t OldEntry = OldBuckets + (uintptr_t)I * EntrySize;
    if (readU64(OldEntry) != EntryFull)
      continue;
    int64_t Key = (int64_t)readU64(OldEntry + 8);
    int64_t Idx = (int64_t)(hashKey(Key) & (uint64_t)Mask);
    while (readU64(NewBuckets + (uintptr_t)Idx * EntrySize) == EntryFull)
      Idx = (Idx + 1) & Mask;
    uintptr_t NewEntry = NewBuckets + (uintptr_t)Idx * EntrySize;
    // Entry descriptor = BucketArrayDesc->Elem; the fresh entry is zeroed,
    // so the barrier sees null old values, but the rc backend still has to
    // count the pointers being copied in.
    if (Ctx.BucketArrayDesc)
      Ctx.H->gcCopyBarrier(NewEntry, OldEntry, EntrySize,
                           Ctx.BucketArrayDesc->Elem);
    copyWordsRelaxed(NewEntry, OldEntry, EntrySize);
  }
  // Barrier before the store: the hmap header's Buckets slot is about to
  // drop its reference to the old array and take the new one.
  Ctx.H->gcWriteBarrier(M.HMap + HMapBucketsOff, NewBuckets);
  M.setBuckets(NewBuckets);
  M.setNBuckets(NewN);
  M.setTombs(0);
  // GrowMapAndFreeOld (section 4.6.2): the abandoned array is exclusively
  // owned by this map, so it can be freed immediately. A stack map's first
  // array sits inline right behind its header, in the same stack block,
  // and is not the heap's to free (a heap map allocates the two apart).
  // Best effort otherwise: unsafe moments simply fall back to the GC.
  if (Ctx.Opts.GrowFreeOld && OldBuckets != M.HMap + HMapHeaderSize)
    Ctx.H->tcfreeObject(OldBuckets, Ctx.CacheId, FreeSource::MapGrowOld);
}

} // namespace

int64_t gofree::rt::mapBucketsForHint(int64_t Hint) {
  int64_t N = 8;
  while (N < Hint * 2)
    N *= 2;
  return N;
}

size_t gofree::rt::mapBucketBytes(int64_t NBuckets, size_t ValueSize) {
  return (size_t)NBuckets * (MapEntryOverhead + ValueSize);
}

void gofree::rt::mapInit(uintptr_t HMap, int64_t NBuckets, uintptr_t Buckets,
                         size_t ValueSize) {
  writeU64(HMap + HMapCountOff, 0);
  writeU64(HMap + HMapTombsOff, 0);
  writeU64(HMap + HMapNBucketsOff, (uint64_t)NBuckets);
  writeU64(HMap + HMapBucketsOff, Buckets);
  writeU64(HMap + HMapEntrySizeOff, MapEntryOverhead + ValueSize);
}

uintptr_t gofree::rt::mapMakeHeap(const MapCtx &Ctx, const TypeDesc *HMapDesc,
                                  int64_t Hint) {
  uintptr_t HMap =
      Ctx.H->allocate(HMapHeaderSize, HMapDesc, AllocCat::Map, Ctx.CacheId);
  // The header is not yet reachable from the mutator; the bucket
  // allocation below may trigger a GC cycle that must not sweep it.
  Heap::InternalRoot Keep(*Ctx.H, HMap);
  int64_t N = mapBucketsForHint(Hint);
  uintptr_t Buckets = Ctx.H->allocate(mapBucketBytes(N, Ctx.ValueSize),
                                      Ctx.BucketArrayDesc, AllocCat::Map,
                                      Ctx.CacheId);
  // Barrier before mapInit writes the Buckets slot (the header is heap
  // memory; an rc backend must count the reference).
  Ctx.H->gcWriteBarrier(HMap + HMapBucketsOff, Buckets);
  mapInit(HMap, N, Buckets, Ctx.ValueSize);
  return HMap;
}

void gofree::rt::mapAssign(const MapCtx &Ctx, uintptr_t HMap, int64_t Key,
                           const void *Value) {
  HMapView M{HMap};
  int64_t Idx = M.probe(Key);
  if (Idx < 0) {
    // Insert. Grow first when the table would exceed a 13/16 load factor.
    int64_t N = M.nbuckets();
    if ((M.count() + M.tombs() + 1) * 16 > N * 13) {
      mapGrow(Ctx, M);
      Idx = M.probe(Key);
      assert(Idx < 0 && "key appeared during growth");
    }
    Idx = -Idx - 1;
    if (M.state(Idx) == EntryTomb)
      M.setTombs(M.tombs() - 1);
    writeU64(M.entry(Idx), EntryFull);
    writeU64(M.entry(Idx) + 8, (uint64_t)Key);
    M.setCount(M.count() + 1);
  }
  Ctx.H->gcCopyBarrier(M.value(Idx), reinterpret_cast<uintptr_t>(Value),
                       Ctx.ValueSize, Ctx.ValueDesc);
  copyWordsRelaxed(M.value(Idx), reinterpret_cast<uintptr_t>(Value),
                   Ctx.ValueSize);
}

bool gofree::rt::mapLookup(uintptr_t HMap, int64_t Key, void *Out,
                           size_t ValueSize) {
  HMapView M{HMap};
  int64_t Idx = M.probe(Key);
  if (Idx < 0) {
    std::memset(Out, 0, ValueSize); // Missing keys yield the zero value.
    return false;
  }
  std::memcpy(Out, reinterpret_cast<void *>(M.value(Idx)), ValueSize);
  return true;
}

bool gofree::rt::mapDelete(uintptr_t HMap, int64_t Key) {
  HMapView M{HMap};
  int64_t Idx = M.probe(Key);
  if (Idx < 0)
    return false;
  writeU64(M.entry(Idx), EntryTomb);
  M.setCount(M.count() - 1);
  M.setTombs(M.tombs() + 1);
  return true;
}

int64_t gofree::rt::mapLen(uintptr_t HMap) { return HMapView{HMap}.count(); }

bool gofree::rt::tcfreeMap(Heap &H, uintptr_t HMap, int CacheId) {
  if (!HMap)
    return false;
  HMapView M{HMap};
  bool FreedBuckets =
      H.tcfreeObject(M.buckets(), CacheId, FreeSource::TcfreeMap);
  bool FreedHeader = H.tcfreeObject(HMap, CacheId, FreeSource::TcfreeMap);
  return FreedBuckets || FreedHeader;
}

