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

const char *freeKindName(const Type *Ty) {
  if (Ty->isSlice())
    return "slice";
  if (Ty->isMap())
    return "map";
  return "object";
}

} // namespace

std::vector<EscapeDiag>
gofree::escape::escapeDiagnostics(const FuncDecl *Fn,
                                  const ProgramAnalysis &Analysis) {
  std::vector<EscapeDiag> Out;
  auto It = Analysis.FuncGraphs.find(Fn);
  if (It == Analysis.FuncGraphs.end())
    return Out;
  const BuildResult &Build = It->second;

  for (const Location &L : Build.Graph.locations()) {
    switch (L.Kind) {
    case LocKind::Alloc: {
      if (!L.AllocExpr || L.AllocExpr->kind() == ExprKind::Append)
        break;
      bool OnStack = L.AllocId < Analysis.SiteOnStack.size() &&
                     Analysis.SiteOnStack[L.AllocId];
      Out.push_back({L.AllocExpr->Loc,
                     allocSpelling(L.AllocExpr) +
                         (OnStack ? " does not escape"
                                  : " escapes to heap")});
      break;
    }
    case LocKind::Var: {
      if (!L.Var)
        break;
      if (L.Var->MovedToHeap)
        Out.push_back({L.Var->Loc, "moved to heap: " + std::string(L.Var->Name)});
      if (Analysis.ToFreeVars.count(L.Var))
        Out.push_back({L.Var->Loc,
                       "tcfree: " + std::string(L.Var->Name) + " (" +
                           freeKindName(L.Var->Ty) + ") at end of scope"});
      break;
    }
    default:
      break;
    }
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
