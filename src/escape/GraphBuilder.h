//===- escape/GraphBuilder.h - AST -> escape graph -------------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the escape graph of one function from its typed AST, following
/// table 2 of the paper:
///
///   p = *q   =>   q --1--> p
///   p = q    =>   q --0--> p
///   p = &q   =>   q --(-1)--> p
///   *p = q   =>   q --0--> heapLoc   (indirect stores are not tracked)
///
/// plus the GoFree extensions: slice-append content locations (section
/// 4.6.1) and extended parameter tags with content tags at call sites
/// (section 4.4). The builder is flow-insensitive and field-insensitive,
/// like Go's analysis.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_ESCAPE_GRAPHBUILDER_H
#define GOFREE_ESCAPE_GRAPHBUILDER_H

#include "escape/Graph.h"
#include "escape/Solver.h"
#include "minigo/Ast.h"

#include <optional>
#include <vector>

namespace gofree {
namespace escape {

/// The extended parameter tag of a function (section 4.4): a compressed
/// bipartite graph from parameters to return values, plus per-return content
/// summaries and per-parameter exposure flags.
struct FuncTag {
  struct ParamToRet {
    uint32_t ParamIdx;
    uint32_t RetIdx;
    int Derefs;
  };
  std::vector<ParamToRet> Edges;
  /// MinDerefs(param_i, heapLoc), or NotHeld if the parameter does not
  /// escape into the heap inside the callee.
  std::vector<int> ParamToHeap;
  /// The callee performs indirect stores reachable from this parameter, so
  /// objects whose address is passed here become incomplete in the caller.
  std::vector<bool> ParamExposes;
  /// HeapAlloc(ContentTag(ret_j)) = PointsToHeap(ret_j): the return value
  /// may carry out a newly heap-allocated object (the "factory" case).
  std::vector<bool> RetPointsToHeap;
  /// Incomplete(ret_j) restricted to store-origin: indirect stores inside
  /// the callee made the returned pointer's points-to set untrackable.
  std::vector<bool> RetIncompleteStore;
};

/// Callee summaries, indexed by FuncDecl::Index. A function without an
/// entry -- one not analyzed yet, such as a recursion partner -- gets the
/// conservative default tag at its call sites.
using TagMap = std::vector<std::optional<FuncTag>>;

/// Largest constant-size allocation eligible for the stack, in bytes
/// (mirrors Go's 64 KiB implicit-allocation limit).
inline constexpr size_t MaxStackAllocBytes = 64 * 1024;
/// Largest constant map size hint eligible for stack allocation (Go can
/// keep an hmap plus one 8-entry bucket on the stack).
inline constexpr int64_t MaxStackMapHint = 8;

/// Options controlling graph construction.
struct BuildOptions {
  /// Use extended parameter tags at call sites with known callees. When
  /// false every call uses the default "everything escapes" tag, modeling
  /// Go without GoFree's IPA.
  bool UseTags = true;
};

/// The escape graph of one function.
struct BuildResult {
  EscapeGraph Graph;

  /// The location of variable \p V of the function. Variables come right
  /// after heapLoc, in AllVars order, so V's location is 1 + VarDecl::Id.
  uint32_t varLoc(const minigo::VarDecl *V) const {
    assert(Graph.loc(1 + V->Id).Var == V && "variable of another function");
    return 1 + V->Id;
  }
};

/// Builds the escape graph of \p Fn. \p Tags supplies callee summaries for
/// the inter-procedural analysis; callees without a tag (recursion, unknown)
/// use the conservative default tag. The graph's Alloc locations point at
/// their (mutable) AST sites so the analysis can record its decisions there.
BuildResult buildEscapeGraph(const minigo::FuncDecl *Fn, const TagMap &Tags,
                             const BuildOptions &Opts = {});

/// Extracts the extended parameter tag from a solved graph (section 4.4).
FuncTag extractTag(const minigo::FuncDecl *Fn, const BuildResult &Build,
                   WalkBuffers &W);

/// PointsTo(l) (definition 4.9): all leaves m with MinDerefs(m, l) == -1.
std::vector<uint32_t> pointsToSet(const EscapeGraph &G, uint32_t LocId);

} // namespace escape
} // namespace gofree

#endif // GOFREE_ESCAPE_GRAPHBUILDER_H
