//===- escape/Solver.h - Property propagation (paper fig. 5) ---*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The O(N^2) property-propagation algorithm of figure 5. A UniqueQueue of
/// locations is drained; popping a "root" walks the graph against edge
/// direction with a queue-optimized Bellman-Ford (SPFA) computing
/// MinDerefs(leaf, root) for every leaf in Holds(root) (definitions 4.6-4.9),
/// clamped to {-1, 0, >=1} because no constraint distinguishes larger
/// dereference counts. Constraints are then applied root-to-leaf (HeapAlloc,
/// Exposes, Incomplete-from-exposure, OutermostRef) and, as GoFree's
/// extension (lines 9-13 of fig. 5), leaf-to-root (Incomplete
/// back-propagation, definition 4.12). Updated locations re-enter the queue.
///
/// Outlived, PointsToHeap and ToFree do not feed back into propagation
/// (section 4.3), so they are computed by one final sweep.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_ESCAPE_SOLVER_H
#define GOFREE_ESCAPE_SOLVER_H

#include "escape/Graph.h"
#include "support/UniqueQueue.h"

#include <cstdint>
#include <vector>

namespace gofree {
namespace escape {

/// Operation counters, used by the complexity benchmark to demonstrate the
/// O(N^2) bound empirically.
struct SolverStats {
  uint64_t RootWalks = 0;   ///< Pops from the work queue.
  uint64_t Relaxations = 0; ///< SPFA edge relaxations across all walks.
  uint64_t LeafVisits = 0;  ///< Constraint applications.
  // Wall time per stage, for the compiler's pass timing trace. solve()
  // fills the last two; analyzeProgram adds its own work to them so that
  // the three stages cover all of it.
  uint64_t BuildNanos = 0;     ///< Call graph, graph construction, bookkeeping.
  uint64_t PropagateNanos = 0; ///< Fixpoint loop, incl. back-propagation.
  /// Final Outlived/PointsToHeap/ToFree sweep; in analyzeProgram also tag
  /// extraction and the distilled decisions.
  uint64_t LifetimeNanos = 0;
};

/// The buffers of one minDerefsFrom walk. Dist is its result; the FIFO and
/// the in-queue marks are working storage. A walk reuses them, so walks
/// allocate nothing once the buffers have grown to the largest graph.
struct WalkBuffers {
  std::vector<int8_t> Dist;
  std::vector<uint32_t> Fifo;
  /// All zero between walks.
  std::vector<uint8_t> InQueue;
};

/// The buffers solve() reuses from one graph to the next.
struct SolverBuffers {
  WalkBuffers Walk;
  UniqueQueue Work;
};

/// Tuning knobs for the solver.
struct SolverOptions {
  /// Enables GoFree's leaf-to-root back-propagation (fig. 5 lines 9-13).
  /// Disabling it yields exactly Go's original propagation: HeapAlloc is
  /// still correct but Incomplete loses the Holds-based rule, which the
  /// ablation benchmark exploits.
  bool BackPropagation = true;
};

/// Runs the propagation to fixpoint, then the final Outlived/PointsToHeap/
/// ToFree sweep. Mutates the location properties in place.
SolverStats solve(EscapeGraph &G, SolverBuffers &Buf,
                  const SolverOptions &Opts = {});

/// Computes into W.Dist MinDerefs(Leaf, Root) for every leaf reachable from
/// \p Root against edge direction, clamped to {-1, 0, 1}; unreachable
/// entries are set to NotHeld. Exposed for PointsTo queries, tag
/// construction, tests and the baselines.
inline constexpr int NotHeld = 127;
void minDerefsFrom(const EscapeGraph &G, uint32_t Root, WalkBuffers &W,
                   SolverStats *Stats = nullptr);

} // namespace escape
} // namespace gofree

#endif // GOFREE_ESCAPE_SOLVER_H
