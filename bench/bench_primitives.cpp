//===- bench/bench_primitives.cpp - Runtime primitive microbenchmarks -----===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// google-benchmark microbenchmarks for the runtime primitives: allocation,
// the tcfree family (including its give-up paths, which section 5 argues
// must be cheap), map operations and GC cycles. These quantify the claim
// that tcfree is a low-cost best-effort primitive.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/MapRt.h"
#include "runtime/SliceRt.h"

#include <benchmark/benchmark.h>

using namespace gofree::rt;

namespace {

const TypeDesc *intArrayDesc() {
  static const TypeDesc D{"[]int", 8, true, scalarDesc(), {}};
  return &D;
}

void BM_AllocSmall(benchmark::State &State) {
  Heap H;
  size_t Bytes = (size_t)State.range(0);
  for (auto _ : State) {
    uintptr_t A = H.allocate(Bytes, scalarDesc(), AllocCat::Other, 0);
    benchmark::DoNotOptimize(A);
    H.tcfreeObject(A, 0, FreeSource::TcfreeObject); // Keep the heap flat.
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_AllocSmall)->Arg(16)->Arg(128)->Arg(1024)->Arg(8192);

void BM_AllocLarge(benchmark::State &State) {
  Heap H;
  for (auto _ : State) {
    uintptr_t A = H.allocate(64 * 1024, scalarDesc(), AllocCat::Slice, 0);
    benchmark::DoNotOptimize(A);
    H.tcfreeObject(A, 0, FreeSource::TcfreeSlice);
  }
}
BENCHMARK(BM_AllocLarge);

void BM_TcfreeHit(benchmark::State &State) {
  Heap H;
  for (auto _ : State) {
    uintptr_t A = H.allocate(64, scalarDesc(), AllocCat::Other, 0);
    bool Ok = H.tcfreeObject(A, 0, FreeSource::TcfreeObject);
    benchmark::DoNotOptimize(Ok);
  }
}
BENCHMARK(BM_TcfreeHit);

void BM_TcfreeGiveUpForeignSpan(benchmark::State &State) {
  // The give-up path must stay cheap: tcfree on a span owned by another
  // cache returns immediately.
  Heap H;
  uintptr_t A = H.allocate(64, scalarDesc(), AllocCat::Other, 0);
  H.reassignSpanOwner(A, 3);
  for (auto _ : State) {
    bool Ok = H.tcfreeObject(A, 0, FreeSource::TcfreeObject);
    benchmark::DoNotOptimize(Ok);
  }
}
BENCHMARK(BM_TcfreeGiveUpForeignSpan);

void BM_TcfreeGiveUpStackAddr(benchmark::State &State) {
  Heap H;
  int Local = 0;
  for (auto _ : State) {
    bool Ok = H.tcfreeObject(reinterpret_cast<uintptr_t>(&Local), 0,
                             FreeSource::TcfreeObject);
    benchmark::DoNotOptimize(Ok);
  }
}
BENCHMARK(BM_TcfreeGiveUpStackAddr);

void BM_MapAssignLookup(benchmark::State &State) {
  Heap H;
  static const TypeDesc Entry{"entry", 24, false, nullptr, {}};
  static const TypeDesc Buckets{"buckets", 8, true, &Entry, {}};
  static const TypeDesc HMapD{
      "hmap", HMapHeaderSize, false, nullptr, {{HMapBucketsOff, SlotKind::Raw}}};
  MapCtx Ctx;
  Ctx.H = &H;
  Ctx.BucketArrayDesc = &Buckets;
  Ctx.ValueSize = 8;
  uintptr_t M = mapMakeHeap(Ctx, &HMapD, 1024);
  int64_t K = 0;
  for (auto _ : State) {
    int64_t V = K;
    mapAssign(Ctx, M, K % 1024, &V);
    int64_t Out;
    benchmark::DoNotOptimize(mapLookup(M, (K * 7) % 1024, &Out, 8));
    ++K;
  }
}
BENCHMARK(BM_MapAssignLookup);

void BM_SliceGrowth(benchmark::State &State) {
  Heap H;
  SliceRtOptions Opts;
  for (auto _ : State) {
    SliceHeader Hdr{0, 0, 0};
    for (int I = 0; I < 256; ++I) {
      sliceGrowForAppend(H, Hdr, intArrayDesc(), 8, 0, Opts);
      ++Hdr.Len;
    }
    benchmark::DoNotOptimize(Hdr.Data);
    H.tcfreeObject(Hdr.Data, 0, FreeSource::TcfreeSlice);
  }
  State.SetItemsProcessed(State.iterations() * 256);
}
BENCHMARK(BM_SliceGrowth);

void BM_GcCycleCost(benchmark::State &State) {
  // Cost of one mark-sweep cycle over N live objects.
  class Roots : public RootScanner {
  public:
    std::vector<uintptr_t> Live;
    void scanRoots(Heap &H) override {
      for (uintptr_t A : Live)
        H.gcMarkAddr(A);
    }
  };
  Heap H;
  Roots R;
  H.addRootScanner(&R);
  int64_t N = State.range(0);
  for (int64_t I = 0; I < N; ++I)
    R.Live.push_back(H.allocate(64, scalarDesc(), AllocCat::Other, 0));
  for (auto _ : State)
    H.runGc();
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_GcCycleCost)->Arg(1000)->Arg(10000)->Arg(100000);

} // namespace

BENCHMARK_MAIN();
