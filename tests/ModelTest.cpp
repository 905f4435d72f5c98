//===- tests/ModelTest.cpp - Reference-model property tests ---------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Differential testing of the runtime data structures against reference
// models: the map runtime against std::unordered_map under long random
// operation sequences (including growth, deletion and tcfree pressure),
// and the page heap's free-run bookkeeping under random span churn.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/MapRt.h"
#include "runtime/SliceRt.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstring>
#include <unordered_map>

using namespace gofree;
using namespace gofree::rt;

namespace {

const TypeDesc *hmapDesc() {
  static const TypeDesc D{
      "hmap", HMapHeaderSize, false, nullptr, {{HMapBucketsOff, SlotKind::Raw}}};
  return &D;
}

MapCtx intMapCtx(Heap &H) {
  static const TypeDesc Entry{"entry", 24, false, nullptr, {}};
  static const TypeDesc Buckets{"buckets", 8, true, &Entry, {}};
  MapCtx Ctx;
  Ctx.H = &H;
  Ctx.BucketArrayDesc = &Buckets;
  Ctx.ValueSize = 8;
  return Ctx;
}

} // namespace

class MapModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MapModelTest, MatchesUnorderedMapUnderRandomOps) {
  Heap H;
  MapCtx Ctx = intMapCtx(H);
  uintptr_t M = mapMakeHeap(Ctx, hmapDesc(), 0);
  std::unordered_map<int64_t, int64_t> Model;
  Rng R(GetParam() * 7919 + 3);

  for (int Op = 0; Op < 20000; ++Op) {
    int64_t Key = R.range(-200, 200); // Narrow space forces collisions.
    switch (R.below(4)) {
    case 0:
    case 1: { // Insert/update.
      int64_t Val = (int64_t)R.next();
      mapAssign(Ctx, M, Key, &Val);
      Model[Key] = Val;
      break;
    }
    case 2: { // Lookup.
      int64_t Got = 0;
      bool Found = mapLookup(M, Key, &Got, 8);
      auto It = Model.find(Key);
      ASSERT_EQ(Found, It != Model.end()) << "op " << Op << " key " << Key;
      if (Found) {
        ASSERT_EQ(Got, It->second) << "op " << Op << " key " << Key;
      }
      break;
    }
    case 3: { // Delete.
      bool Did = mapDelete(M, Key);
      ASSERT_EQ(Did, Model.erase(Key) > 0) << "op " << Op << " key " << Key;
      break;
    }
    }
    ASSERT_EQ(mapLen(M), (int64_t)Model.size()) << "op " << Op;
  }
  // Final full sweep: every model entry present with the right value.
  for (const auto &[K, V] : Model) {
    int64_t Got = 0;
    ASSERT_TRUE(mapLookup(M, K, &Got, 8)) << K;
    ASSERT_EQ(Got, V) << K;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapModelTest,
                         ::testing::Range<uint64_t>(1, 6));

TEST(MapModelTest, SurvivesGrowthWaves) {
  // Insert in waves with deletes between them: the table must grow through
  // many doublings while GrowMapAndFreeOld churns the heap underneath.
  Heap H;
  MapCtx Ctx = intMapCtx(H);
  uintptr_t M = mapMakeHeap(Ctx, hmapDesc(), 0);
  std::unordered_map<int64_t, int64_t> Model;
  for (int Wave = 1; Wave <= 5; ++Wave) {
    for (int64_t K = 0; K < Wave * 4000; ++K) {
      int64_t V = K * Wave;
      mapAssign(Ctx, M, K, &V);
      Model[K] = V;
    }
    for (int64_t K = 0; K < Wave * 1000; ++K) {
      mapDelete(M, K * 3);
      Model.erase(K * 3);
    }
    ASSERT_EQ(mapLen(M), (int64_t)Model.size()) << "wave " << Wave;
  }
  EXPECT_GT(H.stats().FreedCountBySource[(int)FreeSource::MapGrowOld].load(),
            5u);
  for (const auto &[K, V] : Model) {
    int64_t Got;
    ASSERT_TRUE(mapLookup(M, K, &Got, 8));
    ASSERT_EQ(Got, V);
  }
}

//===----------------------------------------------------------------------===//
// Allocator churn model: random alloc/tcfree/GC with a live-set oracle
//===----------------------------------------------------------------------===//

namespace {

class OracleRoots : public RootScanner {
public:
  std::unordered_map<uintptr_t, uint64_t> Live; ///< addr -> expected word
  void scanRoots(Heap &H) override {
    for (const auto &[Addr, Word] : Live)
      H.gcMarkAddr(Addr);
  }
};

} // namespace

class ChurnModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChurnModelTest, LiveObjectsKeepTheirContents) {
  HeapOptions O;
  O.Gc.MinHeapTrigger = 64 * 1024;
  Heap H(O);
  OracleRoots Roots;
  H.addRootScanner(&Roots);
  Rng R(GetParam() * 104729 + 17);

  std::vector<uintptr_t> Order;
  for (int Op = 0; Op < 30000; ++Op) {
    uint64_t Dice = R.below(100);
    if (Dice < 60 || Roots.Live.empty()) {
      size_t Bytes = 16 + R.below(400) * 8;
      uintptr_t A = H.allocate(Bytes, scalarDesc(), AllocCat::Other, 0);
      uint64_t Word = R.next() | 1;
      std::memcpy(reinterpret_cast<void *>(A), &Word, 8);
      Roots.Live[A] = Word;
      Order.push_back(A);
    } else if (Dice < 85) {
      // Explicitly free a random live object (drop it from the oracle
      // first: tcfree is only legal on dead objects).
      size_t Idx = R.below(Order.size());
      uintptr_t A = Order[Idx];
      Order.erase(Order.begin() + (ptrdiff_t)Idx);
      if (Roots.Live.erase(A))
        H.tcfreeObject(A, 0, FreeSource::TcfreeObject);
    } else if (Dice < 95) {
      // Let the GC take one instead.
      size_t Idx = R.below(Order.size());
      uintptr_t A = Order[Idx];
      Order.erase(Order.begin() + (ptrdiff_t)Idx);
      Roots.Live.erase(A);
    } else {
      H.runGc();
    }
    // Periodically validate every live object's contents.
    if (Op % 5000 == 4999) {
      for (const auto &[Addr, Word] : Roots.Live) {
        uint64_t Got;
        std::memcpy(&Got, reinterpret_cast<void *>(Addr), 8);
        ASSERT_EQ(Got, Word) << "op " << Op;
        ASSERT_TRUE(H.isLiveObject(Addr));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnModelTest,
                         ::testing::Range<uint64_t>(1, 5));

//===----------------------------------------------------------------------===//
// Slice growth model
//===----------------------------------------------------------------------===//

TEST(SliceModelTest, GrowthMatchesVectorModel) {
  Heap H;
  static const TypeDesc IntArray{"[]int", 8, true, scalarDesc(), {}};
  SliceRtOptions Opts;
  Rng R(99);
  for (int Round = 0; Round < 20; ++Round) {
    SliceHeader Hdr{0, 0, 0};
    std::vector<uint64_t> Model;
    int N = 1 + (int)R.below(700);
    for (int I = 0; I < N; ++I) {
      sliceGrowForAppend(H, Hdr, &IntArray, 8, 0, Opts);
      uint64_t V = R.next();
      std::memcpy(reinterpret_cast<void *>(Hdr.Data + (size_t)Hdr.Len * 8),
                  &V, 8);
      ++Hdr.Len;
      Model.push_back(V);
      ASSERT_LE(Hdr.Len, Hdr.Cap);
    }
    ASSERT_EQ((size_t)Hdr.Len, Model.size());
    for (size_t I = 0; I < Model.size(); ++I) {
      uint64_t Got;
      std::memcpy(&Got, reinterpret_cast<void *>(Hdr.Data + I * 8), 8);
      ASSERT_EQ(Got, Model[I]) << "round " << Round << " index " << I;
    }
    tcfreeSlice(H, Hdr, 0);
  }
}
