//===- support/Trace.h - Event tracing and metrics sink --------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured event-tracing subsystem behind the paper's evaluation
/// tables: typed events for GC phases, every tcfree outcome (with its
/// give-up reason), allocation by category, and per-pass compiler timing.
/// Events land in a bounded single-producer ring buffer (TraceSink); when
/// the buffer is full, new events are dropped and counted rather than
/// blocking the mutator. A null sink pointer disables tracing, so the
/// disabled fast path in the runtime is a single branch.
///
/// Consumers stream the raw events as JSON-lines (see docs/TRACING.md).
/// Totals come from the exact runtime counters (rt::StatsSnapshot), not
/// from the events: a full ring drops events, the counters never do.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_SUPPORT_TRACE_H
#define GOFREE_SUPPORT_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace gofree {
namespace trace {

/// Typed trace events. The payload of V0/V1 depends on the kind; see the
/// per-enumerator comments and docs/TRACING.md.
enum class EventKind : uint8_t {
  GcPaceTrigger = 0, ///< Pacing fired. V0 = live bytes, V1 = trigger.
  GcMarkStart,       ///< Mark phase begins. V0 = live bytes.
  GcMarkEnd,         ///< Mark phase ends. V0 = mark nanos.
  GcSweepEnd,        ///< Sweep phase ends. V0 = swept bytes, V1 = objects.
  GcCycleEnd,        ///< Cycle complete. V0 = cycle nanos, V1 = live after.
                     ///< Arg = cycle kind (0 full, 1 zct-drain).
  TcfreeFreed,       ///< tcfree reclaimed memory. Arg = free source
                     ///< (mirrors rt::FreeSource), V0 = bytes.
  TcfreeGiveUp,      ///< tcfree gave up. Arg = GiveUpReason, V0 = count.
  HeapAlloc,         ///< Heap allocation. Arg = category (mirrors
                     ///< rt::AllocCat), V0 = bytes, V1 = 1 for large spans.
  StackAlloc,        ///< Stack allocation (escape analysis win). Arg =
                     ///< category, V0 = bytes.
  PassTime,          ///< One compiler pass finished. Arg = Pass, V0 = nanos.
  GcMarkWorker,      ///< One parallel mark worker's contribution to a
                     ///< cycle. Arg = worker index, V0 = busy nanos,
                     ///< V1 = objects marked.
  GcSweepLazy,       ///< One span swept outside the pause. Arg = where
                     ///< (SweepWhere), V0 = bytes reclaimed, V1 = slots.
  GcStwFlip,         ///< One flip of a cycle with a concurrent window. Arg =
                     ///< 0 initial (roots scanned, barrier on) / 1 final
                     ///< (residual gray drained, sweep starts), V0 = pause
                     ///< nanos, V1 = root slots scanned in the flip.
  GcConcMark,        ///< The concurrent mark window between the two flips.
                     ///< V0 = wall nanos with mutators running, V1 = bytes
                     ///< marked over the whole cycle.
  GcAssist,          ///< A mutator paid allocation debt by marking.
                     ///< V0 = bytes scanned, V1 = assist nanos.
  Request,           ///< One serving-harness request completed. Arg =
                     ///< workload profile index (harness-defined), V0 =
                     ///< request latency nanos (from scheduled arrival),
                     ///< V1 = allocation-stall nanos inside the request
                     ///< (safepoint parks + mark assists).
};
inline constexpr int NumEventKinds = 16;

/// Which code path performed a lazy (outside-the-pause) span sweep; the
/// Arg of GcSweepLazy events.
enum class SweepWhere : uint8_t {
  Stw = 0, ///< Leftover swept in the next cycle's pause (not traced).
  Refill,  ///< Cache refill swept a span popped from a central list.
  Credit,  ///< Allocation slow path drained sweep credit.
  Owner,   ///< Owner cache swept its own current span before allocating.
  Tcfree,  ///< tcfree on a large object swept its span first.
  Drain,   ///< Forced-GC drain of the whole sweep queue.
};
inline constexpr int NumSweepWheres = 6;

/// Why a tcfree call did not reclaim memory (section 5's safety checks).
/// Mock is special: the mock-tcfree robustness mode poisons the object
/// instead of recycling it, so no memory returns to the allocator even
/// though the call "succeeds".
enum class GiveUpReason : uint8_t {
  NullAddr = 0, ///< tcfree(nil): freeing nothing is a no-op.
  GcRunning,    ///< The collector was marking or sweeping.
  UnknownAddr,  ///< Address outside the heap (stack or foreign memory).
  ForeignSpan,  ///< Span cached by another thread, or already retired.
  DoubleFree,   ///< Allocation bit already clear (benign double free).
  Mock,         ///< Mock mode poisoned the object instead of freeing it.
};
inline constexpr int NumGiveUpReasons = 6;

/// Compiler pipeline passes, in execution order (the per-pass cost
/// breakdown of the paper's compilation-speed evaluation, section 6.7).
enum class Pass : uint8_t {
  Lex = 0,
  Parse,
  Sema,
  EscapeBuild,  ///< Escape-graph construction (section 4.2).
  EscapeSolve,  ///< Property propagation to fixpoint, including the
                ///< completeness back-propagation (fig. 5).
  Lifetime,     ///< Final Outlived/PointsToHeap/ToFree sweep (section 4.3).
  Insert,       ///< tcfree instrumentation (section 4.5).
};
inline constexpr int NumPasses = 7;

// Category/source cardinalities, mirroring rt::AllocCat and rt::FreeSource.
// Heap.cpp static_asserts that the runtime enums agree with these tables.
inline constexpr int NumAllocCats = 3;
inline constexpr int NumFreeSources = 4;

const char *eventKindName(EventKind K);
/// Name of a GcCycleEnd Arg value: "full", "zct-drain".
const char *gcCycleKindName(uint8_t K);
const char *sweepWhereName(uint8_t W);
const char *giveUpReasonName(GiveUpReason R);
const char *passName(Pass P);
const char *allocCatName(uint8_t Cat);
const char *freeSourceName(uint8_t Source);

/// One trace record: 32 bytes, fixed layout.
struct Event {
  uint64_t TimeNs = 0; ///< Nanoseconds since the sink's creation.
  EventKind Kind = EventKind::GcPaceTrigger;
  uint8_t Arg = 0; ///< Kind-dependent sub-enum (reason/category/pass).
  uint8_t Pad[6] = {};
  uint64_t V0 = 0;
  uint64_t V1 = 0;
};
static_assert(sizeof(Event) == 32, "trace events must stay compact");

/// Bounded event sink. The emit fast path is lock-free for the single
/// producer the interpreter/runtime is: a relaxed load of the cursor, an
/// in-place write, and a release store. Readers (the JSON writer, tests)
/// run after the producer quiesces, or tolerate a slightly stale prefix.
/// A full buffer drops new events and counts them (bounded memory is the
/// contract; the drop counter makes the loss observable).
class TraceSink {
public:
  static constexpr size_t DefaultCapacity = 1 << 18; ///< 8 MiB of events.

  explicit TraceSink(size_t Capacity = DefaultCapacity)
      : Buf(Capacity), Epoch(std::chrono::steady_clock::now()) {}
  /// Sink with a caller-chosen epoch. TraceHub hands every per-thread sink
  /// the same epoch so their timestamps share one timeline and a merged
  /// stream sorts into true global order.
  TraceSink(size_t Capacity, std::chrono::steady_clock::time_point SharedEpoch)
      : Buf(Capacity), Epoch(SharedEpoch) {}
  TraceSink(const TraceSink &) = delete;
  TraceSink &operator=(const TraceSink &) = delete;

  void emit(EventKind K, uint8_t Arg = 0, uint64_t V0 = 0, uint64_t V1 = 0) {
    size_t I = Count.load(std::memory_order_relaxed);
    if (I >= Buf.size()) {
      Dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Event &E = Buf[I];
    E.TimeNs = nowNs();
    E.Kind = K;
    E.Arg = Arg;
    E.V0 = V0;
    E.V1 = V1;
    Count.store(I + 1, std::memory_order_release);
  }

  /// Nanoseconds since the sink was created.
  uint64_t nowNs() const {
    return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - Epoch)
        .count();
  }

  size_t size() const { return Count.load(std::memory_order_acquire); }
  size_t capacity() const { return Buf.size(); }
  uint64_t dropped() const {
    return Dropped.load(std::memory_order_relaxed);
  }
  const Event &operator[](size_t I) const { return Buf[I]; }

  /// Forgets all recorded events (the buffer stays allocated). The epoch is
  /// NOT reset, so timestamps stay monotonic across a clear.
  void clear() {
    Count.store(0, std::memory_order_release);
    Dropped.store(0, std::memory_order_relaxed);
  }

private:
  std::vector<Event> Buf;
  std::atomic<size_t> Count{0};
  std::atomic<uint64_t> Dropped{0};
  std::chrono::steady_clock::time_point Epoch;
};

/// Fans tracing out to concurrent producers. TraceSink is single-producer
/// by design (one relaxed cursor, no CAS); instead of slowing its emit path
/// down with synchronization, each mutator thread gets its *own* sink from
/// makeSink() and the hub merges the streams afterwards. All sinks share
/// the hub's epoch, so merge() can interleave events from different threads
/// into one globally time-ordered stream (ties keep sink-creation order,
/// i.e. merge is deterministic for a given set of recorded events).
///
/// makeSink() is thread-safe; merge()/dropped() are meant for after the
/// producers quiesce (drain time), like TraceSink's own readers.
class TraceHub {
public:
  explicit TraceHub(size_t CapacityPerSink = TraceSink::DefaultCapacity)
      : CapacityPerSink(CapacityPerSink),
        Epoch(std::chrono::steady_clock::now()) {}
  TraceHub(const TraceHub &) = delete;
  TraceHub &operator=(const TraceHub &) = delete;

  /// Creates a sink on the hub's timeline. The hub keeps ownership; the
  /// pointer stays valid for the hub's lifetime.
  TraceSink *makeSink();

  /// All recorded events across all sinks, sorted by timestamp.
  std::vector<Event> merge() const;
  /// Total events dropped across all sinks (bounded-buffer overflow).
  uint64_t dropped() const;
  /// Per-sink drop counts, in sink-creation order. A merged stream that
  /// lost events is not just short, it is *biased* (whichever thread
  /// overflowed goes quiet); this breakdown says which producer lost how
  /// much, so the trace writer can point at the guilty thread.
  std::vector<uint64_t> droppedBySink() const;
  size_t sinkCount() const;
  std::chrono::steady_clock::time_point epoch() const { return Epoch; }

private:
  mutable std::mutex Mu; ///< Guards Sinks (the sinks themselves are not).
  std::vector<std::unique_ptr<TraceSink>> Sinks;
  size_t CapacityPerSink;
  std::chrono::steady_clock::time_point Epoch;
};

/// Version of the JSONL event schema; every line carries it as `"v"`.
/// Bump on any incompatible change to field names or meanings. v2 added
/// the collector-backend fields (gc-cycle-end "kind", the run-record
/// "gc" object) without renaming any v1 field. v3 dropped the "minor"
/// cycle kind (zct-drain's Arg moved from 2 to 1) and the run record's
/// "gc.minor_cycles" key.
inline constexpr int JsonSchemaVersion = 3;

/// Streams every event as one JSON object per line, then a final
/// `{"v":3,...,"ev":"trace-end",...}` record carrying the drop counter.
/// Every line starts with the schema version; a non-null \p Leg adds a
/// `"leg"` field naming the pipeline leg ("go", "gofree", ...) that
/// produced the stream, so multi-leg consumers (the fuzz differ,
/// `gofree compare`) can concatenate files and still attribute events.
/// The schema is documented in docs/TRACING.md. \p Events is a merged
/// stream (TraceHub::merge()) and \p Dropped its drop count.
void writeJsonLines(std::ostream &Os, const std::vector<Event> &Events,
                    uint64_t Dropped, const char *Leg = nullptr);

} // namespace trace
} // namespace gofree

#endif // GOFREE_SUPPORT_TRACE_H
