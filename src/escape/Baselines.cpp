//===- escape/Baselines.cpp - Baseline escape analyses --------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "escape/Baselines.h"

#include <algorithm>

using namespace gofree;
using namespace gofree::escape;
using namespace gofree::minigo;

//===----------------------------------------------------------------------===//
// Fast Escape Analysis (O(N), Steensgaard-style unification)
//===----------------------------------------------------------------------===//

namespace {

/// Union-find over variables with an "escapes" bit per class.
class VarClasses {
public:
  uint32_t classOf(const VarDecl *V) {
    auto [It, Inserted] = Index.emplace(V, (uint32_t)Parent.size());
    if (Inserted) {
      Parent.push_back((uint32_t)Parent.size());
      Escapes.push_back(false);
    }
    return find(It->second);
  }

  void unify(const VarDecl *A, const VarDecl *B) {
    uint32_t Ra = classOf(A), Rb = classOf(B);
    if (Ra == Rb)
      return;
    Parent[Rb] = Ra;
    Escapes[Ra] = Escapes[Ra] || Escapes[Rb];
  }

  void markEscaping(const VarDecl *V) { Escapes[classOf(V)] = true; }
  bool escapes(const VarDecl *V) { return Escapes[classOf(V)]; }

private:
  uint32_t find(uint32_t N) {
    while (Parent[N] != N) {
      Parent[N] = Parent[Parent[N]];
      N = Parent[N];
    }
    return N;
  }
  std::unordered_map<const VarDecl *, uint32_t> Index;
  std::vector<uint32_t> Parent;
  std::vector<bool> Escapes;
};

/// One pass over a function marking escapes and direct bindings.
class FastScanner {
public:
  FastScanner(FastEscapeResult &Out, VarClasses &Classes)
      : Out(Out), Classes(Classes) {}

  void scanStmt(const Stmt *S) {
    switch (S->kind()) {
    case StmtKind::Block:
      for (const Stmt *Sub : cast<BlockStmt>(S)->Stmts)
        scanStmt(Sub);
      return;
    case StmtKind::VarDecl: {
      const auto *DS = cast<VarDeclStmt>(S);
      // Multi-value call results: no information, mark pointer vars escaped
      // conservatively (fast analysis has no call summaries).
      if (DS->Inits.size() == 1 && DS->Vars.size() > 1) {
        scanEscapingUses(DS->Inits[0]);
        return;
      }
      for (size_t I = 0; I < DS->Vars.size(); ++I) {
        if (I >= DS->Inits.size())
          continue;
        const Expr *Init = DS->Inits[I];
        if (const auto *Id = dyn_cast<IdentExpr>(Init); Id && Id->Decl) {
          if (Id->Decl->Ty->hasPointers())
            Classes.unify(DS->Vars[I], Id->Decl);
          continue;
        }
        if (isAllocation(Init)) {
          Out.Binding[DS->Vars[I]] = Init;
          scanInnerExprs(Init);
          continue;
        }
        scanEscapingUses(Init);
      }
      return;
    }
    case StmtKind::Assign: {
      const auto *AS = cast<AssignStmt>(S);
      for (const Expr *R : AS->Rhs)
        scanEscapingUses(R);
      for (size_t I = 0; I < AS->Lhs.size() && I < AS->Rhs.size(); ++I) {
        const auto *LId = dyn_cast<IdentExpr>(AS->Lhs[I]);
        const auto *RId = dyn_cast<IdentExpr>(AS->Rhs[I]);
        if (LId && LId->Decl && RId && RId->Decl &&
            LId->Decl->Ty->hasPointers())
          Classes.unify(LId->Decl, RId->Decl);
      }
      return;
    }
    case StmtKind::If: {
      const auto *IS = cast<IfStmt>(S);
      scanEscapingUses(IS->Cond);
      scanStmt(IS->Then);
      if (IS->Else)
        scanStmt(IS->Else);
      return;
    }
    case StmtKind::For: {
      const auto *FS = cast<ForStmt>(S);
      if (FS->Init)
        scanStmt(FS->Init);
      if (FS->Cond)
        scanEscapingUses(FS->Cond);
      if (FS->Post)
        scanStmt(FS->Post);
      scanStmt(FS->Body);
      return;
    }
    case StmtKind::Return:
      for (const Expr *V : cast<ReturnStmt>(S)->Values)
        markAllVars(V);
      return;
    case StmtKind::ExprStmt:
      scanEscapingUses(cast<ExprStmt>(S)->E);
      return;
    case StmtKind::Defer:
      for (const Expr *A : cast<DeferStmt>(S)->Call->Args)
        markAllVars(A);
      return;
    case StmtKind::Panic:
      markAllVars(cast<PanicStmt>(S)->Value);
      return;
    case StmtKind::Sink:
      scanEscapingUses(cast<SinkStmt>(S)->Value);
      return;
    case StmtKind::Delete:
      scanEscapingUses(cast<DeleteStmt>(S)->MapArg);
      scanEscapingUses(cast<DeleteStmt>(S)->KeyArg);
      return;
    case StmtKind::Break:
    case StmtKind::Continue:
    case StmtKind::Tcfree:
      return;
    }
  }

private:
  static bool isAllocation(const Expr *E) {
    return E->kind() == ExprKind::Make || E->kind() == ExprKind::New ||
           (E->kind() == ExprKind::Composite &&
            cast<CompositeExpr>(E)->TakeAddr);
  }

  /// Marks every pointer-bearing variable mentioned in E as escaping (the
  /// hammer the fast analysis uses for anything it does not model).
  void markAllVars(const Expr *E) {
    if (const auto *Id = dyn_cast<IdentExpr>(E)) {
      if (Id->Decl && Id->Decl->Ty->hasPointers())
        Classes.markEscaping(Id->Decl);
      return;
    }
    scanInnerExprs(E, /*MarkVars=*/true);
  }

  /// Scans subexpressions; call arguments, stored values, address-taking
  /// and composite initializers all make their variables escape.
  void scanEscapingUses(const Expr *E) { scanInnerExprs(E, false); }

  void scanInnerExprs(const Expr *E, bool MarkVars = false) {
    switch (E->kind()) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
    case ExprKind::NilLit:
      return;
    case ExprKind::Ident:
      if (MarkVars) {
        const auto *Id = cast<IdentExpr>(E);
        if (Id->Decl && Id->Decl->Ty->hasPointers())
          Classes.markEscaping(Id->Decl);
      }
      return;
    case ExprKind::Unary:
      scanInnerExprs(cast<UnaryExpr>(E)->Sub, MarkVars);
      return;
    case ExprKind::Binary:
      scanInnerExprs(cast<BinaryExpr>(E)->Lhs, MarkVars);
      scanInnerExprs(cast<BinaryExpr>(E)->Rhs, MarkVars);
      return;
    case ExprKind::Deref:
      scanInnerExprs(cast<DerefExpr>(E)->Sub, MarkVars);
      return;
    case ExprKind::AddrOf:
      // Taking an address publishes the variable.
      markAllVars(cast<AddrOfExpr>(E)->Sub);
      return;
    case ExprKind::Field:
      scanInnerExprs(cast<FieldExpr>(E)->Base, MarkVars);
      return;
    case ExprKind::Index:
      scanInnerExprs(cast<IndexExpr>(E)->Base, MarkVars);
      scanInnerExprs(cast<IndexExpr>(E)->Idx, MarkVars);
      return;
    case ExprKind::Call:
      // No summaries: every pointer-bearing argument escapes.
      for (const Expr *A : cast<CallExpr>(E)->Args)
        markAllVars(A);
      return;
    case ExprKind::Make: {
      const auto *ME = cast<MakeExpr>(E);
      if (ME->Len)
        scanInnerExprs(ME->Len, MarkVars);
      if (ME->CapExpr)
        scanInnerExprs(ME->CapExpr, MarkVars);
      return;
    }
    case ExprKind::New:
      return;
    case ExprKind::Composite:
      for (const auto &[Name, Init] : cast<CompositeExpr>(E)->Inits)
        markAllVars(Init);
      return;
    case ExprKind::Len:
      scanInnerExprs(cast<LenExpr>(E)->Sub, MarkVars);
      return;
    case ExprKind::Cap:
      scanInnerExprs(cast<CapExpr>(E)->Sub, MarkVars);
      return;
    case ExprKind::Append:
      scanInnerExprs(cast<AppendExpr>(E)->SliceArg, MarkVars);
      markAllVars(cast<AppendExpr>(E)->Value);
      return;
    case ExprKind::Slicing: {
      const auto *SE = cast<SlicingExpr>(E);
      // Sub-slicing aliases the array through an expression the fast
      // analysis cannot name: conservatively escape the base.
      markAllVars(SE->Base);
      if (SE->Lo)
        scanInnerExprs(SE->Lo, MarkVars);
      if (SE->Hi)
        scanInnerExprs(SE->Hi, MarkVars);
      return;
    }
    case ExprKind::CopyFn:
      markAllVars(cast<CopyExpr>(E)->Dst);
      markAllVars(cast<CopyExpr>(E)->Src);
      return;
    }
  }

  FastEscapeResult &Out;
  VarClasses &Classes;
};

} // namespace

std::vector<std::string>
FastEscapeResult::pointsToNames(const minigo::VarDecl *V) const {
  auto It = Binding.find(V);
  if (It == Binding.end())
    return {};
  return {"alloc@" + It->second->Loc.str()};
}

FastEscapeResult gofree::escape::fastEscape(const Program &Prog) {
  FastEscapeResult Out;
  Out.SiteOnStack.assign(Prog.NumAllocSites, false);
  VarClasses Classes;
  FastScanner Scanner(Out, Classes);
  for (const FuncDecl *Fn : Prog.Funcs)
    if (Fn->Body)
      Scanner.scanStmt(Fn->Body);

  for (const auto &[V, Alloc] : Out.Binding) {
    if (Classes.escapes(V))
      continue;
    uint32_t Id = InvalidAllocId;
    bool ConstSize = false;
    if (const auto *ME = dyn_cast<MakeExpr>(Alloc)) {
      Id = ME->AllocId;
      ConstSize = ME->SizeIsConst;
    } else if (const auto *NE = dyn_cast<NewExpr>(Alloc)) {
      Id = NE->AllocId;
      ConstSize = true;
    } else if (const auto *CE = dyn_cast<CompositeExpr>(Alloc)) {
      Id = CE->AllocId;
      ConstSize = true;
    }
    if (Id != InvalidAllocId && ConstSize)
      Out.SiteOnStack[Id] = true;
  }
  for (const FuncDecl *Fn : Prog.Funcs)
    for (const VarDecl *V : Fn->AllVars)
      if (V->Ty->hasPointers() && Classes.escapes(V))
        Out.Escaping.insert(V);
  return Out;
}

//===----------------------------------------------------------------------===//
// Connection-graph (Andersen-style) analysis
//===----------------------------------------------------------------------===//

ConnGraphAnalysis::ConnGraphAnalysis(const FuncDecl *Fn) {
  HeapNode = freshNode("heap");
  Pts[HeapNode].insert(HeapNode); // The wildcard points to itself.
  if (Fn->Body)
    visitStmt(Fn->Body);
  solve();
}

uint32_t ConnGraphAnalysis::freshNode(std::string Name) {
  Names.push_back(std::move(Name));
  Pts.emplace_back();
  CopyEdges.emplace_back();
  LoadsFrom.emplace_back();
  StoresTo.emplace_back();
  return (uint32_t)(Names.size() - 1);
}

uint32_t ConnGraphAnalysis::nodeOf(const VarDecl *V) {
  auto It = VarNode.find(V);
  if (It != VarNode.end())
    return It->second;
  uint32_t N = freshNode(std::string(V->Name));
  VarNode[V] = N;
  return N;
}

void ConnGraphAnalysis::addAddrOf(uint32_t Dst, uint32_t Obj) {
  Pts[Dst].insert(Obj);
}
void ConnGraphAnalysis::addCopy(uint32_t Dst, uint32_t Src) {
  CopyEdges[Src].insert(Dst);
}
void ConnGraphAnalysis::addLoad(uint32_t Dst, uint32_t Src) {
  LoadsFrom[Src].push_back(Dst);
}
void ConnGraphAnalysis::addStore(uint32_t Dst, uint32_t Src) {
  StoresTo[Dst].push_back(Src);
}

uint32_t ConnGraphAnalysis::materialize(uint32_t Base, int Derefs) {
  if (Derefs == 0)
    return Base;
  if (Derefs < 0) {
    assert(Derefs == -1 && "cannot take the address twice");
    uint32_t T = freshNode("&" + Names[Base]);
    addAddrOf(T, Base);
    return T;
  }
  uint32_t Cur = Base;
  for (int I = 0; I < Derefs; ++I) {
    uint32_t T = freshNode("*" + Names[Cur]);
    addLoad(T, Cur);
    Cur = T;
  }
  return Cur;
}

uint32_t ConnGraphAnalysis::evalExpr(const Expr *E, int *DerefsOut) {
  *DerefsOut = 0;
  switch (E->kind()) {
  case ExprKind::Ident: {
    const auto *Id = cast<IdentExpr>(E);
    if (!Id->Decl)
      return freshNode("_");
    return nodeOf(Id->Decl);
  }
  case ExprKind::Deref: {
    uint32_t N = evalExpr(cast<DerefExpr>(E)->Sub, DerefsOut);
    ++*DerefsOut;
    return N;
  }
  case ExprKind::AddrOf: {
    uint32_t N = evalExpr(cast<AddrOfExpr>(E)->Sub, DerefsOut);
    --*DerefsOut;
    return N;
  }
  case ExprKind::Field: {
    const auto *FE = cast<FieldExpr>(E);
    uint32_t N = evalExpr(FE->Base, DerefsOut);
    if (FE->ThroughPointer)
      ++*DerefsOut;
    return N;
  }
  case ExprKind::Index: {
    uint32_t N = evalExpr(cast<IndexExpr>(E)->Base, DerefsOut);
    ++*DerefsOut;
    return N;
  }
  case ExprKind::Make:
  case ExprKind::New: {
    uint32_t Obj = freshNode("alloc@" + E->Loc.str());
    *DerefsOut = -1;
    return Obj;
  }
  case ExprKind::Composite: {
    const auto *CE = cast<CompositeExpr>(E);
    if (CE->TakeAddr) {
      uint32_t Obj = freshNode("alloc@" + E->Loc.str());
      uint32_t PObj = materialize(Obj, -1);
      for (const auto &[Name, Init] : CE->Inits) {
        int D;
        uint32_t V = evalExpr(Init, &D);
        addStore(PObj, materialize(V, D));
      }
      *DerefsOut = -1;
      return Obj;
    }
    // By-value literal: merge initializer values into a temp.
    uint32_t T = freshNode("lit@" + E->Loc.str());
    for (const auto &[Name, Init] : CE->Inits) {
      int D;
      uint32_t V = evalExpr(Init, &D);
      addCopy(T, materialize(V, D));
    }
    return T;
  }
  case ExprKind::Append: {
    const auto *AE = cast<AppendExpr>(E);
    int D;
    uint32_t S = evalExpr(AE->SliceArg, &D);
    uint32_t SVal = materialize(S, D);
    uint32_t V = evalExpr(AE->Value, &D);
    addStore(SVal, materialize(V, D)); // Stored through the data pointer.
    uint32_t Content = freshNode("append@" + E->Loc.str());
    uint32_t T = freshNode("appres@" + E->Loc.str());
    addCopy(T, SVal);
    addAddrOf(T, Content);
    return T;
  }
  case ExprKind::Call: {
    // Intra-procedural: arguments escape to the wildcard, results come
    // from it (the connection-graph papers use summaries; the table 3
    // comparison is intra-procedural).
    const auto *CE = cast<CallExpr>(E);
    for (const Expr *A : CE->Args) {
      int D;
      uint32_t N = evalExpr(A, &D);
      if (A->Ty && A->Ty->hasPointers())
        addCopy(HeapNode, materialize(N, D));
    }
    uint32_t T = freshNode("call@" + E->Loc.str());
    addAddrOf(T, HeapNode);
    return T;
  }
  case ExprKind::Slicing:
    return evalExpr(cast<SlicingExpr>(E)->Base, DerefsOut);
  case ExprKind::CopyFn: {
    const auto *CE = cast<CopyExpr>(E);
    int D;
    uint32_t Dst = evalExpr(CE->Dst, &D);
    uint32_t DstVal = materialize(Dst, D);
    uint32_t Src = evalExpr(CE->Src, &D);
    uint32_t SrcVal = materialize(Src, D);
    // *dst[i] = *src[i]: a load from src's pointee stored into dst's.
    uint32_t Loaded = materialize(SrcVal, 1);
    addStore(DstVal, Loaded);
    return freshNode("scalar");
  }
  case ExprKind::Unary:
  case ExprKind::Binary:
  case ExprKind::Len:
  case ExprKind::Cap:
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::NilLit:
    return freshNode("scalar");
  }
  return freshNode("scalar");
}

void ConnGraphAnalysis::assign(const Expr *Lhs, uint32_t SrcNode,
                               int SrcDerefs) {
  if (const auto *Id = dyn_cast<IdentExpr>(Lhs); Id && !Id->Decl)
    return;
  int D;
  uint32_t Base = evalExpr(Lhs, &D);
  uint32_t SrcVal = materialize(SrcNode, SrcDerefs);
  if (D == 0) {
    addCopy(Base, SrcVal);
    return;
  }
  // Store through D-1 loads, then a precise indirect store (the whole
  // point of the connection graph, table 3's rightmost column).
  uint32_t Target = materialize(Base, D - 1);
  addStore(Target, SrcVal);
}

void ConnGraphAnalysis::visitStmt(const Stmt *S) {
  switch (S->kind()) {
  case StmtKind::Block:
    for (const Stmt *Sub : cast<BlockStmt>(S)->Stmts)
      visitStmt(Sub);
    return;
  case StmtKind::VarDecl: {
    const auto *DS = cast<VarDeclStmt>(S);
    for (size_t I = 0; I < DS->Vars.size() && I < DS->Inits.size(); ++I) {
      int D;
      uint32_t N = evalExpr(DS->Inits[I], &D);
      addCopy(nodeOf(DS->Vars[I]), materialize(N, D));
    }
    return;
  }
  case StmtKind::Assign: {
    const auto *AS = cast<AssignStmt>(S);
    for (size_t I = 0; I < AS->Lhs.size() && I < AS->Rhs.size(); ++I) {
      int D;
      uint32_t N = evalExpr(AS->Rhs[I], &D);
      assign(AS->Lhs[I], N, D);
    }
    return;
  }
  case StmtKind::If: {
    const auto *IS = cast<IfStmt>(S);
    visitStmt(IS->Then);
    if (IS->Else)
      visitStmt(IS->Else);
    return;
  }
  case StmtKind::For:
    if (cast<ForStmt>(S)->Init)
      visitStmt(cast<ForStmt>(S)->Init);
    if (cast<ForStmt>(S)->Post)
      visitStmt(cast<ForStmt>(S)->Post);
    visitStmt(cast<ForStmt>(S)->Body);
    return;
  case StmtKind::Return:
    for (const Expr *V : cast<ReturnStmt>(S)->Values) {
      int D;
      uint32_t N = evalExpr(V, &D);
      if (V->Ty && V->Ty->hasPointers())
        addCopy(HeapNode, materialize(N, D));
    }
    return;
  case StmtKind::ExprStmt: {
    int D;
    evalExpr(cast<ExprStmt>(S)->E, &D);
    return;
  }
  case StmtKind::Defer:
    for (const Expr *A : cast<DeferStmt>(S)->Call->Args) {
      int D;
      uint32_t N = evalExpr(A, &D);
      if (A->Ty && A->Ty->hasPointers())
        addCopy(HeapNode, materialize(N, D));
    }
    return;
  default:
    return;
  }
}

void ConnGraphAnalysis::solve() {
  // Naive inclusion-based fixpoint; worst case O(N^3).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t N = 0; N < Names.size(); ++N) {
      // Copy edges: pts(dst) |= pts(src). Applications counts the set
      // elements examined, i.e. the real work of the inclusion solver.
      for (uint32_t Dst : CopyEdges[N]) {
        Applications += Pts[N].size();
        size_t Before = Pts[Dst].size();
        Pts[Dst].insert(Pts[N].begin(), Pts[N].end());
        Changed |= Pts[Dst].size() != Before;
      }
      // Loads p = *n: for each object o in pts(n), p gets pts(o).
      for (uint32_t P : LoadsFrom[N])
        for (uint32_t O : Pts[N]) {
          Applications += Pts[O].size();
          size_t Before = Pts[P].size();
          Pts[P].insert(Pts[O].begin(), Pts[O].end());
          Changed |= Pts[P].size() != Before;
        }
      // Stores *n = s: for each object o in pts(n), o gets pts(s).
      for (uint32_t Src : StoresTo[N])
        for (uint32_t O : Pts[N]) {
          Applications += Pts[Src].size();
          size_t Before = Pts[O].size();
          Pts[O].insert(Pts[Src].begin(), Pts[Src].end());
          Changed |= Pts[O].size() != Before;
        }
    }
  }
}

std::vector<std::string>
ConnGraphAnalysis::pointsToNames(const VarDecl *V) const {
  auto It = VarNode.find(V);
  if (It == VarNode.end())
    return {};
  std::vector<std::string> Out;
  for (uint32_t O : Pts[It->second])
    Out.push_back(Names[O]);
  std::sort(Out.begin(), Out.end());
  return Out;
}
