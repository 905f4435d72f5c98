//===- escape/Graph.h - Escape graph (paper definition 4.1) ----*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The escape graph of the paper (definitions 4.1-4.5): a directed weighted
/// graph whose vertices ("locations") stand for storage created by AST
/// nodes, plus dummy locations (heapLoc, per-function return values, and the
/// content-tag / parameter-copy locations of the inter-procedural analysis of
/// section 4.4). Edge weights are dereference counts ("Derefs", table 2).
///
/// Each location also carries the escape properties of table 1, which the
/// Solver computes: LoopDepth, HeapAlloc, Exposes, Incomplete, DeclDepth,
/// OutermostRef, Outlived, PointsToHeap, ToFree. Exposes and Incomplete are
/// split by *origin* so the inter-procedural content tags can keep only the
/// part that "could only come from indirect stores within the callee"
/// (section 4.4):
///   - Store origin: indirect stores and the heapLoc wildcard.
///   - Ret origin:   exposure through the function's return values.
///   - Param origin: the conservative Incomplete(param) seed.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_ESCAPE_GRAPH_H
#define GOFREE_ESCAPE_GRAPH_H

#include "minigo/Ast.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace gofree {
namespace escape {

/// DeclDepth/LoopDepth value standing for "+infinity" (section 4.4: tag
/// locations must never look like they belong to an outer scope).
inline constexpr int BigDepth = 1 << 20;

/// What a location stands for.
enum class LocKind : uint8_t {
  HeapLoc,    ///< The global dummy heap location.
  Var,        ///< A declared variable (local, parameter, or result var).
  Alloc,      ///< An allocation site: make/new/&T{}/append-content.
  Ret,        ///< A per-function return-value dummy.
  ParamCopy,  ///< Instantiated callee parameter at a call site.
  RetCopy,    ///< Instantiated callee return value at a call site.
  ContentTag, ///< Dummy summarizing a return value's points-to set.
};

/// One vertex of the escape graph with its solved properties.
struct Location {
  uint32_t Id = 0;
  LocKind Kind = LocKind::Var;

  /// AST backing, when applicable: the variable of a Var location, the
  /// allocating expression of an Alloc location, and the call that
  /// instantiated a ParamCopy, RetCopy or ContentTag location.
  const minigo::VarDecl *Var = nullptr;
  minigo::Expr *AllocExpr = nullptr;
  const minigo::CallExpr *Call = nullptr;
  /// Allocation-site id (minigo::InvalidAllocId if not a site).
  uint32_t AllocId = minigo::InvalidAllocId;
  /// Result index of a Ret, RetCopy or ContentTag location; parameter
  /// index of a ParamCopy location.
  uint32_t Index = 0;

  // Static attributes (set by the builder).
  int DeclDepth = 0; ///< Definition 4.13; -1 for heapLoc/return.
  int LoopDepth = 0; ///< Definition 4.3; -1 for heapLoc/return.
  /// False for scalar-only data: Exposes/Incomplete need not be tracked
  /// (section 4.2), though tracking them anyway would only be conservative.
  bool HasPointers = true;

  // Solved properties (table 1). Seeds are set by the builder; the Solver
  // runs the constraints to fixpoint.
  bool HeapAlloc = false;
  bool ExposesStore = false;
  bool ExposesRet = false;
  bool IncompleteParam = false;
  bool IncompleteStore = false;
  bool IncompleteRet = false;
  int OutermostRef = 0; ///< Definition 4.14; initialized to DeclDepth.
  bool Outlived = false;
  bool PointsToHeap = false;
  bool ToFree = false;

  bool exposes() const { return ExposesStore || ExposesRet; }
  bool incomplete() const {
    return IncompleteParam || IncompleteStore || IncompleteRet;
  }

  /// The name reports and tests know the location by: `heapLoc`, the
  /// variable's name, `make@3:7` (also `new@`, `lit@`, `append@`), `ret0`,
  /// or the callee's name with `.p0`, `.r0` or `.ct0`.
  std::string name() const {
    switch (Kind) {
    case LocKind::HeapLoc:
      return "heapLoc";
    case LocKind::Var:
      return std::string(Var->Name);
    case LocKind::Alloc: {
      minigo::ExprKind K = AllocExpr->kind();
      const char *Prefix = K == minigo::ExprKind::Make        ? "make@"
                           : K == minigo::ExprKind::New       ? "new@"
                           : K == minigo::ExprKind::Composite ? "lit@"
                                                              : "append@";
      return Prefix + AllocExpr->Loc.str();
    }
    case LocKind::Ret:
      return "ret" + std::to_string(Index);
    case LocKind::ParamCopy:
      return std::string(Call->Callee) + ".p" + std::to_string(Index);
    case LocKind::RetCopy:
      return std::string(Call->Callee) + ".r" + std::to_string(Index);
    case LocKind::ContentTag:
      return std::string(Call->Callee) + ".ct" + std::to_string(Index);
    }
    return "?";
  }
};

/// A directed weighted edge Src -> Dst meaning "data flows from Src to Dst
/// with Derefs dereferences" (table 2).
struct Edge {
  uint32_t Src;
  uint32_t Dst;
  int32_t Derefs;
};

/// The escape graph of one function (after tag instantiation it also holds
/// the callee summaries spliced in at call sites).
class EscapeGraph {
public:
  EscapeGraph() {
    // Location 0 is always heapLoc (definition 4.2). Its value is a
    // wildcard: it exposes everything it points to and its own value is
    // untracked, so anything derived from it is incomplete.
    Location &H = addLocation(LocKind::HeapLoc);
    H.DeclDepth = -1;
    H.LoopDepth = -1;
    H.OutermostRef = -1;
    H.HeapAlloc = true;
    H.ExposesStore = true;
    H.IncompleteStore = true;
  }

  static constexpr uint32_t HeapLocId = 0;

  Location &addLocation(LocKind Kind) {
    Location &L = Locs.emplace_back();
    L.Id = (uint32_t)Locs.size() - 1;
    L.Kind = Kind;
    return L;
  }

  /// Adds the edge Src --Derefs--> Dst. Self-edges are dropped (they can
  /// arise from `s = append(s, v)` and carry no information).
  void addEdge(uint32_t Src, uint32_t Dst, int Derefs) {
    assert(Src < Locs.size() && Dst < Locs.size() && "edge endpoint missing");
    if (Src == Dst)
      return;
    Edges.push_back({Src, Dst, Derefs});
    InStart.clear();
  }

  /// Orders the edge array by destination, stably, so each location's
  /// in-edges stay in insertion order. Call it once every edge is added;
  /// inEdges needs it.
  void sortEdges() {
    InStart.assign(Locs.size() + 1, 0);
    for (const Edge &E : Edges)
      ++InStart[E.Dst + 1];
    for (size_t I = 1; I < InStart.size(); ++I)
      InStart[I] += InStart[I - 1];
    // Counting sort: place each edge at its destination's cursor, which
    // leaves InStart[D] at the start of D + 1; shift it back afterwards.
    std::vector<Edge> Sorted(Edges.size());
    for (const Edge &E : Edges)
      Sorted[InStart[E.Dst]++] = E;
    for (size_t I = InStart.size() - 1; I > 0; --I)
      InStart[I] = InStart[I - 1];
    InStart[0] = 0;
    Edges.swap(Sorted);
  }

  size_t size() const { return Locs.size(); }
  size_t edgeCount() const { return Edges.size(); }

  Location &loc(uint32_t Id) {
    assert(Id < Locs.size() && "bad location id");
    return Locs[Id];
  }
  const Location &loc(uint32_t Id) const {
    assert(Id < Locs.size() && "bad location id");
    return Locs[Id];
  }

  /// Edges arriving at \p Dst (walked in reverse to enumerate Holds(Dst)).
  std::span<const Edge> inEdges(uint32_t Dst) const {
    assert(InStart.size() == Locs.size() + 1 && "edges not sorted");
    return {Edges.data() + InStart[Dst], InStart[Dst + 1] - InStart[Dst]};
  }

  std::vector<Location> &locations() { return Locs; }
  const std::vector<Location> &locations() const { return Locs; }

  /// Per-function return-value dummy locations, in result order.
  std::vector<uint32_t> RetLocs;

private:
  std::vector<Location> Locs;
  /// Every edge; grouped by destination once sortEdges has run.
  std::vector<Edge> Edges;
  /// InStart[D] .. InStart[D + 1] index D's in-edges; empty until sorted.
  std::vector<uint32_t> InStart;
};

} // namespace escape
} // namespace gofree

#endif // GOFREE_ESCAPE_GRAPH_H
