//===- runtime/SliceRt.cpp - Slice runtime support ------------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "runtime/SliceRt.h"
#include "runtime/WordAccess.h"

#include <cstring>

using namespace gofree;
using namespace gofree::rt;

bool gofree::rt::sliceByteSize(int64_t Cap, size_t ElemSize, size_t &Bytes) {
  if (Cap < 0)
    return false;
  if (ElemSize != 0 && (uint64_t)Cap > MaxSliceBytes / ElemSize)
    return false;
  uint64_t B = (uint64_t)Cap * ElemSize;
  if (B > MaxSliceBytes)
    return false;
  Bytes = (size_t)B;
  return true;
}

uintptr_t gofree::rt::sliceAllocArray(Heap &H, const TypeDesc *ArrayDesc,
                                      int64_t Cap, size_t ElemSize,
                                      int CacheId) {
  size_t Bytes = 0;
  if (!sliceByteSize(Cap > 0 ? Cap : 0, ElemSize, Bytes))
    return 0;
  return H.allocate(Bytes ? Bytes : 8, ArrayDesc, AllocCat::Slice, CacheId);
}

SliceGrow gofree::rt::sliceGrowForAppend(Heap &H, SliceHeader &Hdr,
                                         const TypeDesc *ArrayDesc,
                                         size_t ElemSize, int CacheId,
                                         const SliceRtOptions &Opts) {
  if (Hdr.Len < Hdr.Cap)
    return SliceGrow::NoGrow;
  // Go's growth policy: double small slices, grow large ones by 25%. The
  // 25% step is computed in uint64_t and clamped so a near-INT64_MAX
  // capacity saturates instead of wrapping negative (the doubling branch
  // only ever sees Cap <= 255 and cannot overflow).
  int64_t NewCap = Hdr.Cap < 4 ? 4 : Hdr.Cap;
  if (Hdr.Cap < 256) {
    NewCap *= 2;
  } else {
    uint64_t Grown = (uint64_t)Hdr.Cap + (uint64_t)(Hdr.Cap / 4) + 1;
    NewCap = Grown > (uint64_t)INT64_MAX ? INT64_MAX : (int64_t)Grown;
  }
  // Saturate the policy at the largest capacity whose backing array is
  // still representable. If not even Len+1 elements fit, the append is
  // impossible — report Overflow and leave the header alone rather than
  // allocating a wrapped (too small) array and corrupting the heap.
  size_t NewBytes = 0;
  if (!sliceByteSize(NewCap, ElemSize, NewBytes)) {
    int64_t MaxCap =
        ElemSize ? (int64_t)(MaxSliceBytes / ElemSize) : INT64_MAX;
    if (Hdr.Len >= MaxCap)
      return SliceGrow::Overflow;
    NewCap = MaxCap;
  }
  size_t CopyBytes = 0;
  if (Hdr.Len > 0 && !sliceByteSize(Hdr.Len, ElemSize, CopyBytes))
    return SliceGrow::Overflow;
  uintptr_t NewData = sliceAllocArray(H, ArrayDesc, NewCap, ElemSize, CacheId);
  if (!NewData)
    return SliceGrow::Overflow;
  if (Hdr.Len > 0) {
    // The fresh array is zeroed (null old values), but the rc backend
    // still has to count the pointers being copied in.
    H.gcCopyBarrier(NewData, Hdr.Data, CopyBytes, ArrayDesc);
    copyWordsRelaxed(NewData, Hdr.Data, CopyBytes);
  }
  uintptr_t OldData = Hdr.Data;
  // The header itself may be heap memory (a struct field, a boxed local);
  // barrier its Data slot before it drops the old array.
  H.gcWriteBarrier(reinterpret_cast<uintptr_t>(&Hdr.Data), NewData);
  storeWordRelaxed(reinterpret_cast<uintptr_t>(&Hdr.Data), NewData);
  Hdr.Cap = NewCap;
  // Extension knob: the old array is exclusively owned by this slice value
  // after the copy, so it can be freed like a map's old buckets. Stack
  // arrays make tcfree give up, which is the safe outcome.
  if (Opts.FreeOldOnGrow && OldData)
    H.tcfreeObject(OldData, CacheId, FreeSource::TcfreeSlice);
  return SliceGrow::Grew;
}

bool gofree::rt::tcfreeSlice(Heap &H, const SliceHeader &Hdr, int CacheId) {
  return H.tcfreeObject(Hdr.Data, CacheId, FreeSource::TcfreeSlice);
}
