//===- escape/Solver.cpp - Property propagation (paper fig. 5) ------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "escape/Solver.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

using namespace gofree;
using namespace gofree::escape;

void gofree::escape::minDerefsFrom(const EscapeGraph &G, uint32_t Root,
                                   WalkBuffers &W, SolverStats *Stats) {
  std::vector<int8_t> &Dist = W.Dist;
  std::vector<uint8_t> &InQueue = W.InQueue;
  Dist.assign(G.size(), NotHeld);
  if (InQueue.size() < G.size())
    InQueue.resize(G.size(), 0);
  Dist[Root] = 0;
  // SPFA over reversed edges. Distances only take values in {-1, 0, 1}
  // (clamped TrackDerefs, definition 4.7), so each node is re-relaxed at
  // most a constant number of times and one walk is O(N) on the sparse
  // escape graph. For the same reason a walk pushes O(N) entries in all,
  // so the FIFO is a plain array read from the front.
  std::vector<uint32_t> &Work = W.Fifo;
  Work.clear();
  Work.push_back(Root);
  InQueue[Root] = 1;
  for (size_t Head = 0; Head < Work.size(); ++Head) {
    uint32_t Cur = Work[Head];
    InQueue[Cur] = 0;
    int CurDist = Dist[Cur];
    for (const Edge &E : G.inEdges(Cur)) {
      if (Stats)
        ++Stats->Relaxations;
      // TrackDerefs recurrence (definition 4.7): walking the track in
      // reverse, apply a lower bound of 0 before adding the edge weight.
      int Cand = std::max(0, CurDist) + E.Derefs;
      Cand = std::clamp(Cand, -1, 1);
      if (Cand < Dist[E.Src]) {
        Dist[E.Src] = (int8_t)Cand;
        if (!InQueue[E.Src]) {
          InQueue[E.Src] = 1;
          Work.push_back(E.Src);
        }
      }
    }
  }
  // The root itself is not a member of Holds(root).
  Dist[Root] = NotHeld;
}

namespace {

/// Applies the root-to-leaf constraints. Returns true if the leaf changed.
bool applyToLeaf(const Location &Root, Location &Leaf, int D) {
  bool Changed = false;
  if (D == -1) {
    // Definition 4.10: l in PointsTo(m) && HeapAlloc(m) => HeapAlloc(l);
    // l in PointsTo(m) && LoopDepth(m) < LoopDepth(l) => HeapAlloc(l).
    if (!Leaf.HeapAlloc &&
        (Root.HeapAlloc || Root.LoopDepth < Leaf.LoopDepth)) {
      Leaf.HeapAlloc = true;
      Changed = true;
    }
    // Definition 4.14: OutermostRef(l) <= DeclDepth(m) for every holder m.
    if (Root.DeclDepth < Leaf.OutermostRef) {
      Leaf.OutermostRef = Root.DeclDepth;
      Changed = true;
    }
    // Definition 4.12 rule (b): l in PointsTo(m) && Exposes(m) =>
    // Incomplete(l) -- the leaf's cell may be written through m.
    if (Root.ExposesStore && !Leaf.IncompleteStore) {
      Leaf.IncompleteStore = true;
      Changed = true;
    }
    if (Root.ExposesRet && !Leaf.IncompleteRet) {
      Leaf.IncompleteRet = true;
      Changed = true;
    }
  }
  if (D <= 0) {
    // Definition 4.11 last rule: l in Holds(m) && MinDerefs(l, m) <= 0 &&
    // Exposes(m) => Exposes(l).
    if (Root.ExposesStore && !Leaf.ExposesStore) {
      Leaf.ExposesStore = true;
      Changed = true;
    }
    if (Root.ExposesRet && !Leaf.ExposesRet) {
      Leaf.ExposesRet = true;
      Changed = true;
    }
  }
  return Changed;
}

/// GoFree's back-propagated constraint (definition 4.12 rule (c)):
/// m in Holds(l) && Incomplete(m) => Incomplete(l), per origin kind. The
/// rule only applies to value derivations (MinDerefs >= 0): when l merely
/// holds m's *address* (MinDerefs == -1), l still points exactly at m and
/// its own points-to set stays complete.
bool applyToRoot(Location &Root, const Location &Leaf, int D) {
  // Exception to the value-flow restriction: pointing AT the heapLoc
  // wildcard (D == -1) means pointing at *unknown* objects, so the root's
  // points-to set is incomplete all the same (default call tags route
  // results through heapLoc this way).
  if (D < 0 && Leaf.Kind != LocKind::HeapLoc)
    return false;
  bool Changed = false;
  if (Leaf.IncompleteParam && !Root.IncompleteParam) {
    Root.IncompleteParam = true;
    Changed = true;
  }
  if (Leaf.IncompleteStore && !Root.IncompleteStore) {
    Root.IncompleteStore = true;
    Changed = true;
  }
  if (Leaf.IncompleteRet && !Root.IncompleteRet) {
    Root.IncompleteRet = true;
    Changed = true;
  }
  return Changed;
}

} // namespace

SolverStats gofree::escape::solve(EscapeGraph &G, SolverBuffers &Buf,
                                  const SolverOptions &Opts) {
  SolverStats Stats;
  auto StageStart = std::chrono::steady_clock::now();
  auto TakeStageNanos = [&StageStart] {
    auto Now = std::chrono::steady_clock::now();
    uint64_t Ns =
        (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
            Now - StageStart)
            .count();
    StageStart = Now;
    return Ns;
  };
  size_t N = G.size();
  // Initialize OutermostRef to DeclDepth (definition 4.14's first bound).
  for (Location &L : G.locations())
    L.OutermostRef = L.DeclDepth;

  UniqueQueue &Work = Buf.Work;
  Work.reset(N);
  for (uint32_t I = 0; I < N; ++I)
    Work.push(I);

  const std::vector<int8_t> &Dist = Buf.Walk.Dist;
  while (!Work.empty()) {
    uint32_t RootId = (uint32_t)Work.pop();
    ++Stats.RootWalks;
    minDerefsFrom(G, RootId, Buf.Walk, &Stats);
    bool RootRequeued = false;
    for (uint32_t LeafId = 0; LeafId < N && !RootRequeued; ++LeafId) {
      int D = Dist[LeafId];
      if (D == NotHeld)
        continue;
      ++Stats.LeafVisits;
      // applyConstraints(root, leaf): update the leaf's properties.
      if (applyToLeaf(G.loc(RootId), G.loc(LeafId), D))
        Work.push(LeafId);
      // GoFree extension: applyConstraints(leaf, root) updates the root;
      // if it changed, requeue the root and restart its walk later
      // (fig. 5 lines 9-13).
      if (Opts.BackPropagation &&
          applyToRoot(G.loc(RootId), G.loc(LeafId), D)) {
        Work.push(RootId);
        RootRequeued = true;
      }
    }
  }

  Stats.PropagateNanos = TakeStageNanos();

  // Fault injection for the differential fuzzer's mutation test
  // (tests/FuzzTest.cpp): with GOFREE_FUZZ_UNSOUND set, ToFree ignores the
  // Outlived check below, deliberately freeing allocations that escape the
  // function -- exactly the unsoundness the fuzz oracle's poisoning legs
  // must catch. Read per solve() call so one test process can toggle it.
  const bool SkipOutlived = std::getenv("GOFREE_FUZZ_UNSOUND") != nullptr;

  // Final sweep: Outlived (definition 4.15), PointsToHeap (definition 4.16)
  // and ToFree (definition 4.17) consume the fixpoint and do not propagate.
  for (uint32_t RootId = 0; RootId < N; ++RootId) {
    Location &Root = G.loc(RootId);
    minDerefsFrom(G, RootId, Buf.Walk, &Stats);
    for (uint32_t LeafId = 0; LeafId < N; ++LeafId) {
      if (Dist[LeafId] != -1)
        continue;
      const Location &Leaf = G.loc(LeafId);
      if (Leaf.OutermostRef < Root.DeclDepth)
        Root.Outlived = true;
      if (Leaf.HeapAlloc)
        Root.PointsToHeap = true;
    }
    Root.ToFree = !Root.incomplete() && (SkipOutlived || !Root.Outlived) &&
                  Root.PointsToHeap;
  }
  Stats.LifetimeNanos = TakeStageNanos();
  return Stats;
}
