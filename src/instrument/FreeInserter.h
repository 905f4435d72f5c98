//===- instrument/FreeInserter.h - tcfree insertion ------------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumentation pass of section 4.5: for every variable whose ToFree
/// property held (VarDecl::ToFree, recorded on the AST by the escape
/// analysis), a TcfreeStmt (tcfree / tcfreeSlice / tcfreeMap, table 4)
/// is spliced in as the last statement of the variable's declaration scope.
///
/// If the scope ends in a control-transfer statement the tcfree is placed
/// before it so it stays live, but only when that statement provably does
/// not read any variable (a trailing `return s[0]` must not observe freed
/// memory). Frees skipped this way are simply left to the GC, which is
/// always safe (section 5).
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_INSTRUMENT_FREEINSERTER_H
#define GOFREE_INSTRUMENT_FREEINSERTER_H

#include "minigo/Ast.h"

namespace gofree {
namespace instrument {

/// Statistics about one instrumentation run.
struct InstrumentStats {
  unsigned SliceFrees = 0;
  unsigned MapFrees = 0;
  unsigned ObjectFrees = 0;
  unsigned SkippedUnsafeTail = 0; ///< ToFree vars whose scope tail blocked insertion.

  unsigned total() const { return SliceFrees + MapFrees + ObjectFrees; }
};

/// Splices tcfree statements into \p Prog for every variable the escape
/// analysis marked VarDecl::ToFree. Mutates the AST in place.
InstrumentStats insertFrees(minigo::Program &Prog);

} // namespace instrument
} // namespace gofree

#endif // GOFREE_INSTRUMENT_FREEINSERTER_H
