//===- escape/Diagnostics.cpp - Go-style -m escape diagnostics ------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "escape/Diagnostics.h"

#include <algorithm>

using namespace gofree;
using namespace gofree::escape;
using namespace gofree::minigo;

namespace {

std::string allocSpelling(const Expr *E) {
  switch (E->kind()) {
  case ExprKind::Make: {
    const auto *ME = cast<MakeExpr>(E);
    return "make(" + ME->MadeTy->str() + ")";
  }
  case ExprKind::New:
    return "new(" + cast<NewExpr>(E)->AllocTy->str() + ")";
  case ExprKind::Composite:
    return "&" + std::string(cast<CompositeExpr>(E)->TypeName) + "{...}";
  case ExprKind::Append:
    return "append growth";
  default:
    return "allocation";
  }
}

bool onStack(Expr *Site) {
  const bool *OnStack = onStackBit(Site);
  return OnStack && *OnStack;
}

const char *freeKindName(const Type *Ty) {
  if (Ty->isSlice())
    return "slice";
  if (Ty->isMap())
    return "map";
  return "object";
}

} // namespace

std::vector<uint32_t>
gofree::escape::stackSiteIds(const Program &Prog,
                             const ProgramAnalysis &Analysis) {
  std::vector<uint32_t> Out;
  for (const FuncDecl *Fn : Prog.Funcs)
    for (const Location &L : Analysis.FuncGraphs[Fn->Index].Graph.locations())
      if (L.Kind == LocKind::Alloc && onStack(L.AllocExpr))
        Out.push_back(L.AllocId);
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::vector<EscapeDiag>
gofree::escape::escapeDiagnostics(const FuncDecl *Fn,
                                  const ProgramAnalysis &Analysis) {
  std::vector<EscapeDiag> Out;
  for (const Location &L : Analysis.FuncGraphs[Fn->Index].Graph.locations())
    if (L.Kind == LocKind::Alloc && L.AllocExpr->kind() != ExprKind::Append)
      Out.push_back({L.AllocExpr->Loc,
                     allocSpelling(L.AllocExpr) +
                         (onStack(L.AllocExpr) ? " does not escape"
                                               : " escapes to heap")});
  for (const VarDecl *V : Fn->AllVars) {
    if (V->MovedToHeap)
      Out.push_back({V->Loc, "moved to heap: " + std::string(V->Name)});
    if (V->ToFree)
      Out.push_back({V->Loc, "tcfree: " + std::string(V->Name) + " (" +
                                 freeKindName(V->Ty) + ") at end of scope"});
  }
  std::sort(Out.begin(), Out.end(),
            [](const EscapeDiag &A, const EscapeDiag &B) {
              if (A.Loc.Line != B.Loc.Line)
                return A.Loc.Line < B.Loc.Line;
              if (A.Loc.Col != B.Loc.Col)
                return A.Loc.Col < B.Loc.Col;
              return A.Message < B.Message;
            });
  return Out;
}

std::string
gofree::escape::renderEscapeDiagnostics(const Program &Prog,
                                        const ProgramAnalysis &Analysis) {
  std::string Out;
  for (const FuncDecl *Fn : Prog.Funcs) {
    for (const EscapeDiag &D : escapeDiagnostics(Fn, Analysis)) {
      Out += Fn->Name;
      Out += ": ";
      Out += D.Loc.str();
      Out += ": ";
      Out += D.Message;
      Out += '\n';
    }
  }
  return Out;
}
