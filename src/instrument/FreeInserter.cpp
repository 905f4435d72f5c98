//===- instrument/FreeInserter.cpp - tcfree insertion ---------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "instrument/FreeInserter.h"

#include <charconv>

using namespace gofree;
using namespace gofree::instrument;
using namespace gofree::minigo;

namespace {

/// Can a tcfree be hoisted above a statement evaluating \p E? Safe exactly
/// when E can only read scalar locals: an int/bool variable can never reach
/// a freed object, while any pointer-bearing read, dereference, index,
/// field access or call might alias it.
bool readsOnlyScalars(const Expr *E) {
  switch (E->kind()) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::NilLit:
    return true;
  case ExprKind::Ident: {
    const auto *Id = cast<IdentExpr>(E);
    return Id->Decl && Id->Decl->Ty->isScalar();
  }
  case ExprKind::Unary:
    return readsOnlyScalars(cast<UnaryExpr>(E)->Sub);
  case ExprKind::Binary:
    return readsOnlyScalars(cast<BinaryExpr>(E)->Lhs) &&
           readsOnlyScalars(cast<BinaryExpr>(E)->Rhs);
  default:
    // Derefs, fields, indexes, calls, allocations: all may read memory.
    return false;
  }
}

/// True if \p S transfers control and therefore must stay the last statement
/// of its block.
bool isTerminator(const Stmt *S) {
  switch (S->kind()) {
  case StmtKind::Return:
  case StmtKind::Break:
  case StmtKind::Continue:
  case StmtKind::Panic:
    return true;
  default:
    return false;
  }
}

/// True if inserting a tcfree *before* \p S is safe: the statement must not
/// read any variable (its operands could alias the freed object).
bool safeToHoistAbove(const Stmt *S) {
  switch (S->kind()) {
  case StmtKind::Break:
  case StmtKind::Continue:
    return true;
  case StmtKind::Return: {
    for (const Expr *V : cast<ReturnStmt>(S)->Values)
      if (!readsOnlyScalars(V))
        return false;
    return true;
  }
  case StmtKind::Panic:
    return readsOnlyScalars(cast<PanicStmt>(S)->Value);
  default:
    return false;
  }
}

class Inserter {
public:
  explicit Inserter(Program &Prog) : Prog(Prog) {}

  InstrumentStats Stats;

  void run() {
    for (FuncDecl *Fn : Prog.Funcs) {
      if (!Fn->Body)
        continue;
      CurFn = Fn;
      visitBlock(Fn->Body);
      if (!Temps.empty()) {
        // Temporaries join AllVars, which keeps their slots GC-scannable.
        Fn->AllVars = concat<VarDecl *>(Fn->AllVars, Temps, Fn->AllVars.size());
        Temps.clear();
      }
    }
    CurFn = nullptr;
  }

private:
  TcfreeKind kindFor(const VarDecl *V) const {
    if (V->Ty->isSlice())
      return TcfreeKind::Slice;
    if (V->Ty->isMap())
      return TcfreeKind::Map;
    return TcfreeKind::Object;
  }

  void countFree(TcfreeKind K) {
    if (K == TcfreeKind::Slice)
      ++Stats.SliceFrees;
    else if (K == TcfreeKind::Map)
      ++Stats.MapFrees;
    else
      ++Stats.ObjectFrees;
  }

  /// An arena list of \p Items with \p Inserted spliced in before index
  /// \p At.
  template <typename T>
  std::span<T> concat(std::span<T> Items, std::span<const T> Inserted,
                      size_t At) {
    std::span<T> Out =
        Prog.Nodes.allocateList<T>(Items.size() + Inserted.size());
    auto It = std::copy(Items.begin(), Items.begin() + (ptrdiff_t)At,
                        Out.begin());
    It = std::copy(Inserted.begin(), Inserted.end(), It);
    std::copy(Items.begin() + (ptrdiff_t)At, Items.end(), It);
    return Out;
  }

  /// Collects the ToFree variables declared by \p S (a statement directly in
  /// the block being processed) onto the ToFree stack.
  void collectDeclared(const Stmt *S) {
    if (const auto *DS = dyn_cast<VarDeclStmt>(S))
      for (VarDecl *V : DS->Vars)
        if (V->ToFree)
          ToFree.push_back(V);
  }

  void visitStmt(Stmt *S) {
    switch (S->kind()) {
    case StmtKind::Block:
      visitBlock(cast<BlockStmt>(S));
      return;
    case StmtKind::If: {
      auto *IS = cast<IfStmt>(S);
      visitBlock(IS->Then);
      if (IS->Else)
        visitStmt(IS->Else);
      return;
    }
    case StmtKind::For:
      visitBlock(cast<ForStmt>(S)->Body);
      return;
    default:
      return;
    }
  }

  /// Creates an instrumentation temporary in the current function's frame.
  VarDecl *makeTemp(const Type *Ty, SourceLoc Loc) {
    auto *V = Prog.Nodes.create<VarDecl>();
    uint32_t Id = (uint32_t)(CurFn->AllVars.size() + Temps.size());
    char Buf[32] = "__gofree_rv";
    char *End = std::to_chars(Buf + 11, Buf + sizeof(Buf), Id).ptr;
    V->Name = Prog.Nodes.copy(std::string_view(Buf, (size_t)(End - Buf)));
    V->Loc = Loc;
    V->Ty = Ty;
    V->Id = Id;
    V->FrameOffset = CurFn->FrameSize;
    CurFn->FrameSize += Ty->size();
    Temps.push_back(V);
    return V;
  }

  /// Rewrites a trailing `return E...` whose operands read memory into
  ///   rv... := E...; tcfree(...); return rv...
  /// so the frees run after the return values are evaluated (the paper
  /// inserts tcfree "as the last statement ... so the tcfree is live").
  /// Returns the index where the frees belong.
  size_t splitReturnTail(BlockStmt *B, ReturnStmt *RS) {
    auto *DS = Prog.Nodes.create<VarDeclStmt>();
    DS->Loc = RS->Loc;
    bool TupleForwarding =
        RS->Values.size() == 1 && RS->Values[0]->Ty->isTuple();
    size_t N = TupleForwarding ? RS->Values[0]->Ty->tupleElems().size()
                               : RS->Values.size();
    std::span<VarDecl *> Vars = Prog.Nodes.allocateList<VarDecl *>(N);
    std::span<Expr *> Refs = Prog.Nodes.allocateList<Expr *>(N);
    for (size_t I = 0; I < N; ++I) {
      const Type *Ty = TupleForwarding ? RS->Values[0]->Ty->tupleElems()[I]
                                       : RS->Values[I]->Ty;
      Vars[I] = makeTemp(Ty, RS->Loc);
      auto *Ref = Prog.Nodes.create<IdentExpr>(Vars[I]->Name, NoSymbol);
      Ref->Loc = RS->Loc;
      Ref->Decl = Vars[I];
      Ref->Ty = Ty;
      Refs[I] = Ref;
    }
    DS->Vars = Vars;
    DS->Inits = RS->Values;
    RS->Values = Refs;
    size_t ReturnIdx = B->Stmts.size() - 1;
    Stmt *Decl = DS;
    B->Stmts = concat<Stmt *>(B->Stmts, {&Decl, 1}, ReturnIdx);
    return ReturnIdx + 1; // Frees go between the temps and the return.
  }

  void visitBlock(BlockStmt *B) {
    // Depth-first so inner scopes are instrumented before we splice into
    // this block's statement list. This block's variables go on the ToFree
    // stack above Mark; inner blocks push and pop above them.
    size_t Mark = ToFree.size();
    for (Stmt *S : B->Stmts) {
      visitStmt(S);
      collectDeclared(S);
      // Variables declared in a for-statement's init clause live until the
      // loop ends; their frees land right here in the parent block, which
      // is handled by treating them as declared by the ForStmt itself.
      if (auto *FS = dyn_cast<ForStmt>(S); FS && FS->Init)
        collectDeclared(FS->Init);
    }
    if (ToFree.size() == Mark)
      return;
    spliceFrees(B, {ToFree.data() + Mark, ToFree.size() - Mark});
    ToFree.resize(Mark);
  }

  /// Splices a tcfree of each of \p Vars into the end of \p B.
  void spliceFrees(BlockStmt *B, std::span<VarDecl *const> Vars) {
    // Find the splice point: after the last statement, or before a trailing
    // terminator. A terminator whose operands read memory cannot simply be
    // hoisted over (its reads could alias a freed object), but a return can
    // be split so its values are captured first.
    size_t InsertAt = B->Stmts.size();
    if (!B->Stmts.empty() && isTerminator(B->Stmts.back())) {
      if (safeToHoistAbove(B->Stmts.back())) {
        InsertAt = B->Stmts.size() - 1;
      } else if (auto *RS = dyn_cast<ReturnStmt>(B->Stmts.back())) {
        InsertAt = splitReturnTail(B, RS);
      } else {
        Stats.SkippedUnsafeTail += (unsigned)Vars.size();
        return; // A memory-reading panic tail: leave the frees to the GC.
      }
    }

    Frees.clear();
    for (VarDecl *V : Vars) {
      TcfreeKind K = kindFor(V);
      auto *TS = Prog.Nodes.create<TcfreeStmt>(V, K);
      TS->Loc = V->Loc;
      Frees.push_back(TS);
      countFree(K);
    }
    B->Stmts = concat<Stmt *>(B->Stmts, Frees, InsertAt);
  }

  Program &Prog;
  /// The ToFree variables of the blocks being visited, innermost on top.
  std::vector<VarDecl *> ToFree;
  /// The current function's instrumentation temporaries.
  std::vector<VarDecl *> Temps;
  /// The tcfree statements being spliced into one block.
  std::vector<Stmt *> Frees;

public:
  FuncDecl *CurFn = nullptr;
};

} // namespace

InstrumentStats gofree::instrument::insertFrees(Program &Prog) {
  Inserter I(Prog);
  I.run();
  return I.Stats;
}
