//===- runtime/HeapStats.h - Allocation and GC metrics ---------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profiling counters behind the paper's metrics (table 5): alloced,
/// freed (by tcfree source), GC cycles and time, and heap sizes, plus the
/// per-category allocation/outcome counts behind tables 8 and 9.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_RUNTIME_HEAPSTATS_H
#define GOFREE_RUNTIME_HEAPSTATS_H

#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>

namespace gofree {
namespace rt {

/// Allocation categories, following table 8's grouping.
enum class AllocCat : uint8_t {
  Other = 0, ///< Objects, moved variables, struct literals.
  Slice,     ///< Slice backing arrays (make and growth).
  Map,       ///< hmap headers and bucket arrays.
};
inline constexpr int NumAllocCats = 3;

/// What freed a piece of memory, following table 9's breakdown.
enum class FreeSource : uint8_t {
  TcfreeObject = 0, ///< tcfree on a plain object.
  TcfreeSlice,      ///< tcfreeSlice (slice lifetime end).
  TcfreeMap,        ///< tcfreeMap (map lifetime end).
  MapGrowOld,       ///< GrowMapAndFreeOld: old buckets freed on map growth.
};
inline constexpr int NumFreeSources = 4;

/// Buckets of the stop-the-world pause-time histogram: bucket B counts
/// pauses in [2^B, 2^(B+1)) microseconds (bucket 0 also takes sub-µs
/// pauses, the last bucket is open-ended).
inline constexpr int NumPauseBuckets = 16;

/// The bucket a pause of \p Us microseconds files under. This is the one
/// place the bucket-indexing math lives (notePause and every consumer use
/// it), and the exact boundary semantics are: Us == 2^B lands in bucket B,
/// Us == 2^B - 1 in bucket B-1; values at or above 2^(NumPauseBuckets-1)
/// all land in the open-ended last bucket. tests/RuntimeTest.cpp pins every
/// boundary exhaustively -- an off-by-one here (e.g. `>` for `>=`, or
/// `1ULL << B` for `2ULL << B`) silently shifts the derived percentiles a
/// whole power of two.
inline int pauseBucketFor(uint64_t Us) {
  int B = 0;
  while (B + 1 < NumPauseBuckets && Us >= (2ULL << B))
    ++B;
  return B;
}

/// Inclusive upper bound of bucket \p B in microseconds: 2^(B+1) - 1, or
/// UINT64_MAX for the open-ended last bucket.
inline uint64_t pauseBucketMaxUs(int B) {
  return B + 1 < NumPauseBuckets ? (2ULL << B) - 1 : UINT64_MAX;
}

/// Derives the \p Q percentile (0 < Q <= 1) of pause time, in microseconds,
/// from the power-of-two histogram. The histogram only stores bucket
/// membership, so the answer is the *conservative upper bound*: the
/// inclusive upper edge of the bucket containing the rank-ceil(Q*N) pause,
/// clamped to the observed maximum (\p MaxPauseNanos) so the open-ended
/// last bucket and sparsely-hit buckets report an honest bound instead of
/// 2^(B+1)-1 microseconds of slack. Returns 0 when no pauses were recorded.
inline uint64_t pausePercentileUs(const uint64_t Hist[NumPauseBuckets],
                                  double Q, uint64_t MaxPauseNanos) {
  uint64_t Total = 0;
  for (int I = 0; I < NumPauseBuckets; ++I)
    Total += Hist[I];
  if (Total == 0)
    return 0;
  // Rank of the percentile pause, 1-based: the smallest k with
  // k >= Q * Total. Integer arithmetic (no std::ceil) so the boundary
  // ranks are exact: Q=0.5 over 2 pauses is rank 1, over 3 pauses rank 2.
  uint64_t Rank = (uint64_t)(Q * (double)Total);
  if ((double)Rank < Q * (double)Total)
    ++Rank;
  if (Rank < 1)
    Rank = 1;
  if (Rank > Total)
    Rank = Total;
  uint64_t MaxUs = MaxPauseNanos / 1000;
  uint64_t Cum = 0;
  for (int I = 0; I < NumPauseBuckets; ++I) {
    Cum += Hist[I];
    if (Cum >= Rank) {
      uint64_t Edge = pauseBucketMaxUs(I);
      return Edge < MaxUs ? Edge : MaxUs;
    }
  }
  return MaxUs; // Unreachable: Cum == Total >= Rank by the loop's end.
}

/// Plain-value copy of the counters, for reporting and benchmarking.
struct StatsSnapshot {
  uint64_t AllocedBytes = 0;
  uint64_t AllocCount = 0;
  uint64_t AllocCountByCat[NumAllocCats] = {};
  uint64_t StackAllocCountByCat[NumAllocCats] = {};
  uint64_t TcfreeCalls = 0;
  uint64_t TcfreeGiveUps = 0;
  /// Per-reason breakdown. Sum over all reasons except Mock equals
  /// TcfreeGiveUps (a mocked tcfree "succeeds" without freeing, so it is
  /// bucketed here for table 9 but not counted as a give-up).
  uint64_t TcfreeGiveUpsByReason[trace::NumGiveUpReasons] = {};
  uint64_t FreedBytesBySource[NumFreeSources] = {};
  uint64_t FreedCountBySource[NumFreeSources] = {};
  uint64_t GcCycles = 0;
  uint64_t GcNanos = 0;
  uint64_t GcMarkNanos = 0;
  uint64_t GcPauseNanos = 0;
  uint64_t GcMaxPauseNanos = 0;
  uint64_t GcPauseHist[NumPauseBuckets] = {};
  uint64_t GcSweptBytes = 0;
  uint64_t GcSweptCountByCat[NumAllocCats] = {};
  uint64_t GcSpansSweptLazy = 0;
  // Per-backend counters ("v":2 of the JSON schema). GcCycles counts
  // cycles of every kind; the next three break it down (marksweep cycles
  // are all major). BarrierHits counts write-barrier invocations that
  // reached the backend (heap-resident destination slots).
  uint64_t GcMinorCycles = 0;
  uint64_t GcMajorCycles = 0;
  uint64_t GcZctDrains = 0;
  uint64_t GcBarrierHits = 0;
  // Concurrent-mark counters: GcPauses counts every notePause (one per STW
  // cycle, two per concurrent cycle -- GcPauses == GcCycles + GcConcCycles
  // once mutators quiesce); GcConcCycles counts cycles whose mark phase ran
  // with mutators going; assists are mutator-paid mark work.
  uint64_t GcPauses = 0;
  uint64_t GcConcCycles = 0;
  uint64_t GcAssists = 0;
  uint64_t GcAssistBytes = 0;
  /// tcfree calls forced down the GcRunning give-up path by the
  /// GcConfig::TcfreeChaos fuzz knob (a subset of that reason's bucket).
  uint64_t TcfreeChaosForced = 0;
  uint64_t PeakCommitted = 0;
  uint64_t PeakLive = 0;

  uint64_t tcfreeFreedBytes() const {
    uint64_t Total = 0;
    for (uint64_t B : FreedBytesBySource)
      Total += B;
    return Total;
  }
  double freeRatio() const {
    return AllocedBytes == 0 ? 0.0
                             : (double)tcfreeFreedBytes() / (double)AllocedBytes;
  }
  /// Pause-time percentile (conservative upper bound in µs) derived from
  /// the histogram; see rt::pausePercentileUs.
  uint64_t pausePercentileUs(double Q) const {
    return rt::pausePercentileUs(GcPauseHist, Q, GcMaxPauseNanos);
  }
};

/// The hot-path counters of one thread cache (Go's heapStatsDelta): every
/// allocation, tcfree call and stack allocation is counted in the shard of
/// the cache it ran on, never in shared memory. Cache-line aligned, so two
/// caches' shards never share a line.
///
/// Single writer: only the thread that currently owns the cache writes its
/// shard (the cache-ownership rule in Heap.h), so a bump is a relaxed load
/// and store with no read-modify-write. The one other writer is the
/// collector, which folds LiveDelta while the world is stopped and the
/// owner is parked. Any thread may read a shard.
struct alignas(64) StatShard {
  std::atomic<uint64_t> AllocedBytes{0};
  std::atomic<uint64_t> AllocCount{0};
  std::atomic<uint64_t> AllocCountByCat[NumAllocCats] = {};
  /// Escape-analysis stack allocations reported by the engines (table 8).
  std::atomic<uint64_t> StackAllocCountByCat[NumAllocCats] = {};
  // There is no give-up total: a give-up bumps exactly one reason bucket
  // and snap() derives the total.
  std::atomic<uint64_t> TcfreeCalls{0};
  std::atomic<uint64_t> TcfreeGiveUpsByReason[trace::NumGiveUpReasons] = {};
  std::atomic<uint64_t> FreedBytesBySource[NumFreeSources] = {};
  std::atomic<uint64_t> FreedCountBySource[NumFreeSources] = {};
  /// Bytes this cache allocated minus bytes it tcfreed that are not yet
  /// folded into HeapStats::HeapLive; within +-LiveFoldBytes between calls.
  std::atomic<int64_t> LiveDelta{0};
};

/// Single-writer increment of a shard counter (see StatShard).
template <typename T> inline void bumpShard(std::atomic<T> &C, T N) {
  C.store(C.load(std::memory_order_relaxed) + N, std::memory_order_relaxed);
}

/// The heap's counters: one StatShard per thread cache for the allocation
/// and tcfree hot paths, plus shared relaxed atomics for everything bumped
/// once per GC cycle, span, pause or page-heap operation.
///
/// HeapLive is the folded live-byte count that the pacer, the sweeps and
/// the trace read. A cache folds its LiveDelta into it on every refill and
/// every large allocation, and whenever the delta passes LiveFoldBytes
/// either way; the collector folds every shard as soon as the world is
/// stopped. So while mutators run HeapLive lags the exact count
/// (liveBytes()) by at most NumCaches * LiveFoldBytes, and at every
/// stop-the-world it is exact. It never wraps: a byte leaves HeapLive (a
/// sweep, or the fold of a negative delta) only after the fold that added
/// it. PeakLive samples HeapLive at each fold, and snap() reports at least
/// the exact count, so it undershoots the true peak by at most that lag.
///
/// Totals are exact once the threads that produced them have quiesced
/// (joined, or parked for a stop-the-world); tests/ConcurrencyTest.cpp
/// asserts the cross-counter invariants (e.g. every tcfree call lands in
/// exactly one outcome bucket) at exactly such points. Mid-run snapshots
/// from another thread are merely approximate -- individual counters are
/// current, but no snapshot is a single consistent cut.
struct HeapStats {
  /// A shard folds its LiveDelta into HeapLive once the delta's magnitude
  /// passes this many bytes.
  static constexpr int64_t LiveFoldBytes = 64 << 10;

  explicit HeapStats(int NumShards)
      : Shards(new StatShard[(size_t)NumShards]), NumShards(NumShards) {}

  StatShard &shard(int CacheId) { return Shards[(size_t)CacheId]; }

  /// Counts one heap allocation of \p Bytes in the owner's shard \p Sh.
  void noteAlloc(StatShard &Sh, AllocCat Cat, uint64_t Bytes) {
    bumpShard(Sh.AllocedBytes, Bytes);
    bumpShard(Sh.AllocCount, uint64_t(1));
    bumpShard(Sh.AllocCountByCat[(int)Cat], uint64_t(1));
    addLive(Sh, (int64_t)Bytes);
  }

  /// Adds \p Bytes (negative for a free) to the owner's shard \p Sh,
  /// folding the delta once it passes LiveFoldBytes.
  void addLive(StatShard &Sh, int64_t Bytes) {
    int64_t D = Sh.LiveDelta.load(std::memory_order_relaxed) + Bytes;
    if (D > LiveFoldBytes || D < -LiveFoldBytes) {
      Sh.LiveDelta.store(0, std::memory_order_relaxed);
      foldDelta(D);
      return;
    }
    Sh.LiveDelta.store(D, std::memory_order_relaxed);
  }

  /// Moves \p Sh's live delta into HeapLive. Called by the shard's owner,
  /// or by the collector with the world stopped.
  void foldLive(StatShard &Sh) {
    int64_t D = Sh.LiveDelta.load(std::memory_order_relaxed);
    if (D == 0)
      return;
    Sh.LiveDelta.store(0, std::memory_order_relaxed);
    foldDelta(D);
  }

  /// foldLive on every shard. Stopped world (or no mutator running) only.
  void foldAllLive() {
    for (int I = 0; I < NumShards; ++I)
      foldLive(Shards[I]);
  }

  /// The exact live-byte count: HeapLive plus every shard's unfolded delta.
  /// Exact at quiescence; a read racing a fold may be off by that delta.
  uint64_t liveBytes() const {
    int64_t L = (int64_t)HeapLive.load(std::memory_order_relaxed);
    for (int I = 0; I < NumShards; ++I)
      L += Shards[I].LiveDelta.load(std::memory_order_relaxed);
    return L < 0 ? 0 : (uint64_t)L;
  }

  // Mock-mode poisonings (robustness runs only; off the default path).
  std::atomic<uint64_t> MockPoisonedCount{0};

  // Garbage collection. GcNanos is the whole cycle (pause plus any forced
  // sweep drain); GcPauseNanos is just the stop-the-world window, which
  // lazy sweeping makes much shorter than the cycle.
  std::atomic<uint64_t> GcCycles{0};
  std::atomic<uint64_t> GcNanos{0};
  std::atomic<uint64_t> GcMarkNanos{0};
  std::atomic<uint64_t> GcPauseNanos{0};
  std::atomic<uint64_t> GcMaxPauseNanos{0};
  std::atomic<uint64_t> GcPauseHist[NumPauseBuckets] = {};
  std::atomic<uint64_t> GcSweptBytes{0};
  std::atomic<uint64_t> GcSweptCount{0};
  std::atomic<uint64_t> GcSweptCountByCat[NumAllocCats] = {};
  std::atomic<uint64_t> GcSpansSweptLazy{0};
  // Backend breakdown (see StatsSnapshot).
  std::atomic<uint64_t> GcMinorCycles{0};
  std::atomic<uint64_t> GcMajorCycles{0};
  std::atomic<uint64_t> GcZctDrains{0};
  std::atomic<uint64_t> GcBarrierHits{0};
  // Concurrent-mark counters (see StatsSnapshot).
  std::atomic<uint64_t> GcPauses{0};
  std::atomic<uint64_t> GcConcCycles{0};
  std::atomic<uint64_t> GcAssists{0};
  std::atomic<uint64_t> GcAssistBytes{0};
  std::atomic<uint64_t> TcfreeChaosForced{0};

  // Heap footprint (table 5 "maxheap").
  std::atomic<uint64_t> HeapLive{0};        ///< Live object bytes.
  std::atomic<uint64_t> Committed{0};       ///< Bytes in in-use spans.
  std::atomic<uint64_t> PeakCommitted{0};
  std::atomic<uint64_t> PeakLive{0};

  StatsSnapshot snap() const {
    auto Ld = [](const auto &A) { return A.load(std::memory_order_relaxed); };
    StatsSnapshot S;
    for (int I = 0; I < NumShards; ++I) {
      const StatShard &Sh = Shards[I];
      S.AllocedBytes += Ld(Sh.AllocedBytes);
      S.AllocCount += Ld(Sh.AllocCount);
      for (int C = 0; C < NumAllocCats; ++C) {
        S.AllocCountByCat[C] += Ld(Sh.AllocCountByCat[C]);
        S.StackAllocCountByCat[C] += Ld(Sh.StackAllocCountByCat[C]);
      }
      S.TcfreeCalls += Ld(Sh.TcfreeCalls);
      for (int R = 0; R < trace::NumGiveUpReasons; ++R)
        S.TcfreeGiveUpsByReason[R] += Ld(Sh.TcfreeGiveUpsByReason[R]);
      for (int F = 0; F < NumFreeSources; ++F) {
        S.FreedBytesBySource[F] += Ld(Sh.FreedBytesBySource[F]);
        S.FreedCountBySource[F] += Ld(Sh.FreedCountBySource[F]);
      }
    }
    for (int R = 0; R < trace::NumGiveUpReasons; ++R)
      if (R != (int)trace::GiveUpReason::Mock)
        S.TcfreeGiveUps += S.TcfreeGiveUpsByReason[R];
    for (int C = 0; C < NumAllocCats; ++C)
      S.GcSweptCountByCat[C] = Ld(GcSweptCountByCat[C]);
    S.GcCycles = Ld(GcCycles);
    S.GcNanos = Ld(GcNanos);
    S.GcMarkNanos = Ld(GcMarkNanos);
    S.GcPauseNanos = Ld(GcPauseNanos);
    S.GcMaxPauseNanos = Ld(GcMaxPauseNanos);
    for (int I = 0; I < NumPauseBuckets; ++I)
      S.GcPauseHist[I] = Ld(GcPauseHist[I]);
    S.GcSpansSweptLazy = Ld(GcSpansSweptLazy);
    S.GcSweptBytes = Ld(GcSweptBytes);
    S.GcMinorCycles = Ld(GcMinorCycles);
    S.GcMajorCycles = Ld(GcMajorCycles);
    S.GcZctDrains = Ld(GcZctDrains);
    S.GcBarrierHits = Ld(GcBarrierHits);
    S.GcPauses = Ld(GcPauses);
    S.GcConcCycles = Ld(GcConcCycles);
    S.GcAssists = Ld(GcAssists);
    S.GcAssistBytes = Ld(GcAssistBytes);
    S.TcfreeChaosForced = Ld(TcfreeChaosForced);
    S.PeakCommitted = Ld(PeakCommitted);
    S.PeakLive = std::max(Ld(PeakLive), liveBytes());
    return S;
  }

  /// Records one stop-the-world pause: total, count, max, histogram.
  void notePause(uint64_t Nanos) {
    GcPauseNanos.fetch_add(Nanos, std::memory_order_relaxed);
    GcPauses.fetch_add(1, std::memory_order_relaxed);
    raiseMax(GcMaxPauseNanos, Nanos);
    GcPauseHist[pauseBucketFor(Nanos / 1000)].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Adds \p Bytes of fresh spans to Committed and records the peak.
  /// Page-heap lock held.
  void noteCommitted(uint64_t Bytes) {
    raiseMax(PeakCommitted,
             Committed.fetch_add(Bytes, std::memory_order_relaxed) + Bytes);
  }

private:
  /// CAS-max of \p M with \p V.
  static void raiseMax(std::atomic<uint64_t> &M, uint64_t V) {
    uint64_t Cur = M.load(std::memory_order_relaxed);
    while (V > Cur &&
           !M.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
  }

  /// Adds a folded shard delta to HeapLive and records the peak.
  /// Unsigned wrap-around makes a negative \p D a subtraction.
  void foldDelta(int64_t D) {
    raiseMax(PeakLive,
             HeapLive.fetch_add((uint64_t)D, std::memory_order_relaxed) +
                 (uint64_t)D);
  }

  std::unique_ptr<StatShard[]> Shards;
  int NumShards;
};

} // namespace rt
} // namespace gofree

#endif // GOFREE_RUNTIME_HEAPSTATS_H
