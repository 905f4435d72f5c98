//===- escape/Diagnostics.h - Go-style -m escape diagnostics ---*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders the analysis results as Go-compiler-style diagnostics (the
/// `-gcflags -m` experience, extended with GoFree's decisions):
///
///   3:8: make([]int, n) escapes to heap
///   5:3: moved to heap: x
///   7:6: t does not escape
///   9:2: tcfree: s (slice) at end of scope
///
/// Used by the escape_explorer example, the gofree CLI, and tests that pin
/// down decisions by source position.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_ESCAPE_DIAGNOSTICS_H
#define GOFREE_ESCAPE_DIAGNOSTICS_H

#include "escape/Analysis.h"

#include <string>
#include <vector>

namespace gofree {
namespace escape {

/// One rendered decision.
struct EscapeDiag {
  SourceLoc Loc;
  std::string Message;
};

/// Collects the decisions the analysis recorded on \p Fn's AST, sorted by
/// source position: allocation-site stack/heap verdicts (the sites are the
/// Alloc locations of Fn's graph in \p Analysis), moved-to-heap variables,
/// and ToFree verdicts.
std::vector<EscapeDiag> escapeDiagnostics(const minigo::FuncDecl *Fn,
                                          const ProgramAnalysis &Analysis);

/// The ids of the allocation sites the analysis placed on the stack, in
/// ascending order. The sites are found through the graphs in \p Analysis.
std::vector<uint32_t> stackSiteIds(const minigo::Program &Prog,
                                   const ProgramAnalysis &Analysis);

/// Renders every function's diagnostics, one per line, prefixed with the
/// function name — the whole-program `-m` dump.
std::string renderEscapeDiagnostics(const minigo::Program &Prog,
                                    const ProgramAnalysis &Analysis);

} // namespace escape
} // namespace gofree

#endif // GOFREE_ESCAPE_DIAGNOSTICS_H
