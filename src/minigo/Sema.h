//===- minigo/Sema.h - MiniGo semantic analysis ----------------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic analysis for MiniGo: name resolution, type inference and
/// checking, scope/loop depth recording (DeclDepth and LoopDepth of the
/// paper), frame layout, and dense numbering of allocation sites.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_MINIGO_SEMA_H
#define GOFREE_MINIGO_SEMA_H

#include "minigo/Ast.h"
#include "support/Diag.h"

#include <utility>
#include <vector>

namespace gofree {
namespace minigo {

/// Runs semantic analysis over a parsed program, mutating the AST in place.
class Sema {
public:
  Sema(Program &Prog, DiagSink &Diags) : Prog(Prog), Diags(Diags) {}

  /// Analyzes the whole program. Returns false if any error was reported.
  bool run();

private:
  // Scope management. Bound[Sym] is the declaration a use of symbol Sym
  // resolves to; Shadowed logs, per declaration, the binding it replaced,
  // and popScope undoes the log down to the scope's mark.
  void pushScope() { ScopeMarks.push_back(Shadowed.size()); }
  void popScope();
  VarDecl *lookup(uint32_t Sym) const { return Bound[Sym]; }
  bool declare(VarDecl *V);

  // Declaration and statement analysis.
  void checkFunc(FuncDecl *Fn);
  void checkBlock(BlockStmt *B);
  void checkStmt(Stmt *S);
  void checkVarDeclStmt(VarDeclStmt *DS);
  void checkAssignStmt(AssignStmt *AS);

  // Expression analysis. Returns the expression type (never null; the int
  // type is used as an error recovery type).
  const Type *checkExpr(Expr *E);
  const Type *checkCall(CallExpr *CE);
  /// Go's addressability: variables, dereferences, slice elements and
  /// fields of addressable structs -- not map elements.
  bool isAddressable(const Expr *E) const;
  /// What may appear on the left of `=`: an addressable expression or a
  /// map element.
  bool isLvalue(const Expr *E) const;
  /// Checks that \p From is assignable to \p To, reporting otherwise.
  void requireAssignable(SourceLoc Loc, const Type *To, const Type *From,
                         const char *Ctx);
  /// Constant-folds an int expression; returns true and sets \p Out on
  /// success. Used to detect compile-time-constant make() sizes.
  bool foldConst(const Expr *E, int64_t &Out) const;

  void layoutVar(VarDecl *V);

  Program &Prog;
  DiagSink &Diags;
  FuncDecl *CurFunc = nullptr;
  std::vector<VarDecl *> Bound;
  std::vector<std::pair<uint32_t, VarDecl *>> Shadowed;
  std::vector<size_t> ScopeMarks;
  /// The current function's variables in declaration order (its AllVars).
  std::vector<VarDecl *> FuncVars;
  int CurScopeDepth = 0;
  int CurLoopDepth = 0;
  size_t FrameCursor = 0;
  uint32_t NextVarId = 0;
};

} // namespace minigo
} // namespace gofree

#endif // GOFREE_MINIGO_SEMA_H
