//===- minigo/AstPrinter.cpp - MiniGo AST pretty-printer ------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "minigo/AstPrinter.h"

using namespace gofree;
using namespace gofree::minigo;

static const char *binOpSpelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add: return "+";
  case BinaryOp::Sub: return "-";
  case BinaryOp::Mul: return "*";
  case BinaryOp::Div: return "/";
  case BinaryOp::Mod: return "%";
  case BinaryOp::Eq: return "==";
  case BinaryOp::Ne: return "!=";
  case BinaryOp::Lt: return "<";
  case BinaryOp::Le: return "<=";
  case BinaryOp::Gt: return ">";
  case BinaryOp::Ge: return ">=";
  case BinaryOp::And: return "&&";
  case BinaryOp::Or: return "||";
  }
  return "?";
}

std::string gofree::minigo::printExpr(const Expr *E) {
  switch (E->kind()) {
  case ExprKind::IntLit:
    return std::to_string(cast<IntLitExpr>(E)->Value);
  case ExprKind::BoolLit:
    return cast<BoolLitExpr>(E)->Value ? "true" : "false";
  case ExprKind::NilLit:
    return "nil";
  case ExprKind::Ident:
    return std::string(cast<IdentExpr>(E)->Name);
  case ExprKind::Unary: {
    const auto *UE = cast<UnaryExpr>(E);
    return std::string(UE->Op == UnaryOp::Neg ? "-" : "!") + "(" +
           printExpr(UE->Sub) + ")";
  }
  case ExprKind::Binary: {
    const auto *BE = cast<BinaryExpr>(E);
    return "(" + printExpr(BE->Lhs) + " " + binOpSpelling(BE->Op) + " " +
           printExpr(BE->Rhs) + ")";
  }
  case ExprKind::Deref:
    return "*" + printExpr(cast<DerefExpr>(E)->Sub);
  case ExprKind::AddrOf:
    return "&" + printExpr(cast<AddrOfExpr>(E)->Sub);
  case ExprKind::Field:
    return printExpr(cast<FieldExpr>(E)->Base) + "." +
           std::string(cast<FieldExpr>(E)->FieldName);
  case ExprKind::Index:
    return printExpr(cast<IndexExpr>(E)->Base) + "[" +
           printExpr(cast<IndexExpr>(E)->Idx) + "]";
  case ExprKind::Call: {
    const auto *CE = cast<CallExpr>(E);
    std::string Out = std::string(CE->Callee) + "(";
    for (size_t I = 0; I < CE->Args.size(); ++I) {
      if (I)
        Out += ", ";
      Out += printExpr(CE->Args[I]);
    }
    return Out + ")";
  }
  case ExprKind::Make: {
    const auto *ME = cast<MakeExpr>(E);
    std::string Out = "make(" + ME->MadeTy->str();
    if (ME->Len)
      Out += ", " + printExpr(ME->Len);
    if (ME->CapExpr)
      Out += ", " + printExpr(ME->CapExpr);
    return Out + ")";
  }
  case ExprKind::New:
    return "new(" + cast<NewExpr>(E)->AllocTy->str() + ")";
  case ExprKind::Composite: {
    const auto *CE = cast<CompositeExpr>(E);
    std::string Out =
        (CE->TakeAddr ? "&" : "") + std::string(CE->TypeName) + "{";
    for (size_t I = 0; I < CE->Inits.size(); ++I) {
      if (I)
        Out += ", ";
      Out += std::string(CE->Inits[I].Name) + ": " +
             printExpr(CE->Inits[I].Value);
    }
    return Out + "}";
  }
  case ExprKind::Len:
    return "len(" + printExpr(cast<LenExpr>(E)->Sub) + ")";
  case ExprKind::Cap:
    return "cap(" + printExpr(cast<CapExpr>(E)->Sub) + ")";
  case ExprKind::Append: {
    const auto *AE = cast<AppendExpr>(E);
    return "append(" + printExpr(AE->SliceArg) + ", " + printExpr(AE->Value) +
           ")";
  }
  case ExprKind::Slicing: {
    const auto *SE = cast<SlicingExpr>(E);
    return printExpr(SE->Base) + "[" + (SE->Lo ? printExpr(SE->Lo) : "") +
           ":" + (SE->Hi ? printExpr(SE->Hi) : "") + "]";
  }
  case ExprKind::CopyFn: {
    const auto *CE = cast<CopyExpr>(E);
    return "copy(" + printExpr(CE->Dst) + ", " + printExpr(CE->Src) + ")";
  }
  }
  return "<?>";
}

static std::string indentOf(int Indent) { return std::string(Indent * 2, ' '); }

std::string gofree::minigo::printStmt(const Stmt *S, int Indent) {
  std::string Pad = indentOf(Indent);
  switch (S->kind()) {
  case StmtKind::Block: {
    const auto *B = cast<BlockStmt>(S);
    std::string Out = Pad + "{\n";
    for (const Stmt *Sub : B->Stmts)
      Out += printStmt(Sub, Indent + 1);
    return Out + Pad + "}\n";
  }
  case StmtKind::VarDecl: {
    const auto *DS = cast<VarDeclStmt>(S);
    std::string Out = Pad;
    for (size_t I = 0; I < DS->Vars.size(); ++I) {
      if (I)
        Out += ", ";
      Out += DS->Vars[I]->Name;
    }
    Out += " := ";
    if (DS->Inits.empty())
      Out += "<zero " + (DS->DeclaredTy ? DS->DeclaredTy->str() : "?") + ">";
    for (size_t I = 0; I < DS->Inits.size(); ++I) {
      if (I)
        Out += ", ";
      Out += printExpr(DS->Inits[I]);
    }
    return Out + "\n";
  }
  case StmtKind::Assign: {
    const auto *AS = cast<AssignStmt>(S);
    std::string Out = Pad;
    for (size_t I = 0; I < AS->Lhs.size(); ++I) {
      if (I)
        Out += ", ";
      Out += printExpr(AS->Lhs[I]);
    }
    Out += " = ";
    for (size_t I = 0; I < AS->Rhs.size(); ++I) {
      if (I)
        Out += ", ";
      Out += printExpr(AS->Rhs[I]);
    }
    return Out + "\n";
  }
  case StmtKind::If: {
    const auto *IS = cast<IfStmt>(S);
    std::string Out = Pad + "if " + printExpr(IS->Cond) + "\n";
    Out += printStmt(IS->Then, Indent);
    if (IS->Else) {
      Out += Pad + "else\n";
      Out += printStmt(IS->Else, Indent);
    }
    return Out;
  }
  case StmtKind::For: {
    const auto *FS = cast<ForStmt>(S);
    std::string Out = Pad + "for ";
    if (FS->Cond)
      Out += printExpr(FS->Cond);
    Out += "\n";
    if (FS->Init)
      Out += Pad + "init: " + printStmt(FS->Init, 0);
    if (FS->Post)
      Out += Pad + "post: " + printStmt(FS->Post, 0);
    return Out + printStmt(FS->Body, Indent);
  }
  case StmtKind::Return: {
    const auto *RS = cast<ReturnStmt>(S);
    std::string Out = Pad + "return";
    for (size_t I = 0; I < RS->Values.size(); ++I)
      Out += (I ? ", " : " ") + printExpr(RS->Values[I]);
    return Out + "\n";
  }
  case StmtKind::ExprStmt:
    return Pad + printExpr(cast<ExprStmt>(S)->E) + "\n";
  case StmtKind::Defer:
    return Pad + "defer " + printExpr(cast<DeferStmt>(S)->Call) + "\n";
  case StmtKind::Panic:
    return Pad + "panic(" + printExpr(cast<PanicStmt>(S)->Value) + ")\n";
  case StmtKind::Break:
    return Pad + "break\n";
  case StmtKind::Continue:
    return Pad + "continue\n";
  case StmtKind::Sink:
    return Pad + "sink(" + printExpr(cast<SinkStmt>(S)->Value) + ")\n";
  case StmtKind::Delete: {
    const auto *DS = cast<DeleteStmt>(S);
    return Pad + "delete(" + printExpr(DS->MapArg) + ", " +
           printExpr(DS->KeyArg) + ")\n";
  }
  case StmtKind::Tcfree: {
    const auto *TS = cast<TcfreeStmt>(S);
    const char *Fn = TS->FreeKind == TcfreeKind::Slice  ? "tcfreeSlice"
                     : TS->FreeKind == TcfreeKind::Map ? "tcfreeMap"
                                                        : "tcfree";
    return Pad + Fn + "(" + std::string(TS->Var->Name) + ")\n";
  }
  }
  return Pad + "<?stmt>\n";
}

std::string gofree::minigo::printFunc(const FuncDecl *Fn) {
  std::string Out = "func " + std::string(Fn->Name) + "(";
  for (size_t I = 0; I < Fn->Params.size(); ++I) {
    if (I)
      Out += ", ";
    Out += std::string(Fn->Params[I]->Name) + " " +
           (Fn->Params[I]->Ty ? Fn->Params[I]->Ty->str() : "?");
  }
  Out += ")";
  if (!Fn->Results.empty()) {
    Out += " (";
    for (size_t I = 0; I < Fn->Results.size(); ++I) {
      if (I)
        Out += ", ";
      Out += Fn->Results[I]->str();
    }
    Out += ")";
  }
  Out += "\n";
  if (Fn->Body)
    Out += printStmt(Fn->Body, 0);
  return Out;
}

std::string gofree::minigo::printProgram(const Program &Prog) {
  std::string Out;
  for (const FuncDecl *Fn : Prog.Funcs) {
    Out += printFunc(Fn);
    Out += "\n";
  }
  return Out;
}
