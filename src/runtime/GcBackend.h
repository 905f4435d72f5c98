//===- runtime/GcBackend.h - Pluggable collector backends ------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collector-backend interface (ROADMAP item 2): the heap owns exactly
/// one GcBackend, selected by GcConfig::Backend, and routes every policy
/// decision through it -- allocation hooks, the mutator write barrier,
/// pacing, and the stop-the-world collection body. The mechanism (span
/// lifecycle, safepoints, the parallel marker, sweep bookkeeping) stays in
/// Heap; backends compose it into different reclamation schemes:
///
///  * `marksweep` -- the paper's baseline: parallel-mark, lazy-sweep
///                   cycles (Gc.cpp) that mark concurrently when another
///                   mutator can run meanwhile; no standing barrier.
///  * `rc`        -- deferred reference counting with a zero-count table
///                   (aquario's design, SNIPPETS.md 1-3): the barrier
///                   adjusts per-object counts, objects whose count reaches
///                   zero enter the ZCT, and a drain frees unrooted
///                   zero-count entries with cascading decrements. A backup
///                   mark-sweep reclaims cycles and recomputes the counts.
///
/// tcfree is a legal fast path on every backend: the paper's section 5
/// give-up rules run unchanged, and a successful free notifies the backend
/// (noteExplicitFree) while the object's memory is still intact so
/// refcounts stay conservative.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_RUNTIME_GCBACKEND_H
#define GOFREE_RUNTIME_GCBACKEND_H

#include "runtime/TypeDesc.h"
#include "runtime/WordAccess.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

namespace gofree {
namespace rt {

class Heap;
class MSpan;

/// The collector behind the heap. Selected once at Heap construction.
enum class GcBackendKind : uint8_t { MarkSweep, Rc };

/// Stable CLI / JSON name of a backend ("marksweep", "rc").
const char *gcBackendName(GcBackendKind K);
/// Parses a backend name; returns false (Out untouched) if unknown.
bool parseGcBackendKind(std::string_view Name, GcBackendKind &Out);

/// What one collection does. Full is the classic whole-heap mark-sweep
/// every backend supports (forced runGc() always runs one); ZctDrain is
/// the rc backend's partial cycle.
enum class GcCycleKind : uint8_t { Full = 0, ZctDrain = 1, None };
constexpr size_t NumGcCycleKinds = 2;

/// All GC knobs, collapsed from the former ad-hoc HeapOptions fields into
/// one structured config (the `--gc=<backend>[,key=val...]` flag).
struct GcConfig {
  GcBackendKind Backend = GcBackendKind::MarkSweep;
  /// GOGC: the next full GC triggers when live bytes reach
  /// live-after-last-GC * (1 + Gogc/100). Negative disables all automatic
  /// collection (the paper's Go-GCOff setting), partial cycles included.
  int Gogc = 100;
  /// Floor for the first/next full-GC trigger (Go's 4 MiB default).
  uint64_t MinHeapTrigger = 4ull << 20;
  /// Parallel mark workers (the collector counts as worker 0). 1 marks on
  /// the collecting thread alone; N > 1 spins up N-1 persistent helper
  /// threads on first use. Clamped into [1, 256].
  int Workers = 1;
  /// Forces every full cycle to sweep inside the stop-the-world window.
  /// Off, the marksweep backend sweeps lazily (see docs/GC.md); the rc
  /// backend forces this on -- its ZCT drains free in-pause and must never
  /// race a lazy sweeper.
  bool EagerSweep = false;
  /// Debug validation: run Heap::verifyInvariants at GC safepoints.
  /// O(heap) per check, so off by default; the fuzz harness turns it on.
  bool Verify = false;
  /// rc: a ZCT drain triggers once the table holds this many entries.
  uint64_t ZctThreshold = 4096;
  /// Lets a full cycle open a concurrent mark window: the world restarts
  /// between its two flips and the other mutators run while the workers
  /// mark. The window opens only when another mutator is registered at the
  /// cycle's start; otherwise both flips are one pause. `--gc=...,conc=0`
  /// keeps every cycle in one pause.
  bool Concurrent = true;
};

/// Whether backend \p K serves \p Mutators mutator threads. rc keeps its
/// counts and zero-count table as single-writer data (GcRc.cpp), so it
/// serves exactly one; marksweep serves any number. driver::parseFlag,
/// compiler::execute and workloads::runServeSim refuse any other
/// configuration before a thread starts, and Heap::MutatorScope asserts it.
inline bool gcServesMutators(GcBackendKind K, int Mutators) {
  return K != GcBackendKind::Rc || Mutators <= 1;
}
/// The refusal for a configuration gcServesMutators rejects.
std::string gcMutatorsError(GcBackendKind K, int Mutators);

/// One collector policy. Constructed against a heap; all methods except
/// collectStw are called from running mutators, and a backend that serves
/// several (gcServesMutators) must synchronize them internally. collectStw
/// is entered and left with the world stopped and GcMu held.
class GcBackend {
public:
  explicit GcBackend(Heap &H) : H(H) {}
  virtual ~GcBackend();
  GcBackend(const GcBackend &) = delete;
  GcBackend &operator=(const GcBackend &) = delete;

  virtual GcBackendKind kind() const = 0;
  const char *name() const { return gcBackendName(kind()); }

  /// Called under the page-heap lock whenever a span enters service
  /// (fresh or reused control block, after MSpan::reset).
  virtual void spanCreated(MSpan & /*S*/) {}
  /// Called after a slot has been handed out and initialized (alloc fast
  /// path; world running).
  virtual void noteAlloc(MSpan & /*S*/, size_t /*Slot*/) {}
  /// Called when tcfree is about to reclaim a slot for real (never in
  /// mock mode), before the slot's alloc bit and descriptor are cleared,
  /// so the backend may still walk the object's pointer fields.
  virtual void noteExplicitFree(MSpan & /*S*/, size_t /*Slot*/) {}
  /// The write barrier: slot \p Slot (inside in-use span \p Dst) is about
  /// to be overwritten with \p NewVal; it currently holds \p OldVal. Only
  /// called when Heap::gcBarrierActive() -- marksweep never pays for it.
  virtual void writeBarrier(MSpan & /*Dst*/, uintptr_t /*Slot*/,
                            uintptr_t /*OldVal*/, uintptr_t /*NewVal*/) {}
  /// Pacing: what cycle (if any) should run, given current live bytes.
  /// Called from the allocation slow path with the world running.
  virtual GcCycleKind pace(uint64_t Live) = 0;
  /// The collection body. World stopped, GcMu held by the caller. A full
  /// cycle (Heap::fullMarkSweep) may restart the world for its concurrent
  /// mark window, but it returns with the world stopped again.
  /// \p Forced: the cycle was requested (runGc/runGcCycle), not paced; a
  /// forced full cycle with no other mutator sweeps inside the pause
  /// (see Heap::sweepOrQueueStw).
  virtual void collectStw(GcCycleKind Kind, bool Forced) = 0;

protected:
  Heap &H;
};

/// Builds the backend selected by \p Cfg. Never fails (unknown kinds are
/// rejected at parse time).
std::unique_ptr<GcBackend> makeGcBackend(Heap &H, const GcConfig &Cfg);
/// The rc backend's factory (GcRc.cpp), used by the above.
std::unique_ptr<GcBackend> makeRcGc(Heap &H, const GcConfig &Cfg);

/// Walks every pointer-bearing 8-byte slot of a region of \p Bytes bytes
/// laid out as \p Desc, invoking F(SlotAddr, LoadedValue) for each --
/// the precise-scanning twin of Heap::gcScanRegion, shared by the copy
/// barrier and rc count recomputation.
/// Recursion depth is bounded by descriptor nesting, not element count.
template <typename Fn>
inline void forEachPtrSlot(uintptr_t Base, const TypeDesc *Desc, size_t Bytes,
                           Fn &&F) {
  if (!Desc || !Desc->hasPointers())
    return;
  if (Desc->IsArray) {
    const TypeDesc *E = Desc->Elem;
    if (!E || E->Size == 0)
      return;
    size_t N = Bytes / E->Size;
    for (size_t I = 0; I < N; ++I)
      forEachPtrSlot(Base + I * E->Size, E, E->Size, F);
    return;
  }
  for (const PtrSlot &Slot : Desc->Slots) {
    // Relaxed atomic load: a concurrent marker (or barrier replay) may read
    // the slot while its owner mutator stores into it.
    uintptr_t P = loadWordRelaxed(Base + Slot.Offset);
    F(Base + Slot.Offset, P);
  }
}

} // namespace rt
} // namespace gofree

#endif // GOFREE_RUNTIME_GCBACKEND_H
