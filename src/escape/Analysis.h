//===- escape/Analysis.h - Whole-program GoFree analysis -------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-program driver for the static analysis of section 4: orders
/// functions bottom-up over the call graph (callees before callers, default
/// tags inside recursion cycles, like Go), builds and solves each function's
/// escape graph, extracts extended parameter tags, and records its decisions
/// on the AST nodes they decide: OnStack on allocation sites,
/// VarDecl::MovedToHeap, and VarDecl::ToFree for tcfree instrumentation.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_ESCAPE_ANALYSIS_H
#define GOFREE_ESCAPE_ANALYSIS_H

#include "escape/GraphBuilder.h"
#include "escape/Solver.h"
#include "minigo/Ast.h"

#include <vector>

namespace gofree {
namespace escape {

/// Which variable types the instrumentation may free. The paper's GoFree
/// frees only slices and maps (section 6.5); All additionally frees plain
/// pointers, an extension evaluated by an ablation bench.
enum class FreeTargets : uint8_t { None, SlicesAndMaps, All };

/// Analysis-wide options.
struct AnalysisOptions {
  BuildOptions Build;
  SolverOptions Solve;
  FreeTargets Targets = FreeTargets::SlicesAndMaps;
};

/// The per-function results of analyzing a whole program. The decisions
/// themselves live on the AST.
struct ProgramAnalysis {
  /// Extended parameter tags, indexed by FuncDecl::Index.
  TagMap Tags;
  /// Solved graphs, indexed by FuncDecl::Index, for inspection, reports
  /// and tests.
  std::vector<BuildResult> FuncGraphs;
  /// Aggregate solver work, for the complexity benchmark.
  SolverStats Stats;
};

/// Runs the analysis over every function of \p Prog and records its
/// decisions on the AST. Every decision bit is assigned, true or false, so
/// analyzing a program again leaves nothing of the previous run. Go and
/// GoFree make identical stack-allocation decisions; they differ only in
/// the ToFree bits.
ProgramAnalysis analyzeProgram(minigo::Program &Prog,
                               const AnalysisOptions &Opts = {});

/// Bottom-up SCC order of the call graph: callees first, cycles grouped.
std::vector<std::vector<const minigo::FuncDecl *>>
callGraphSccs(const minigo::Program &Prog);

} // namespace escape
} // namespace gofree

#endif // GOFREE_ESCAPE_ANALYSIS_H
