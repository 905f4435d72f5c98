//===- escape/GraphBuilder.cpp - AST -> escape graph ----------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "escape/GraphBuilder.h"

#include "escape/Solver.h"

using namespace gofree;
using namespace gofree::escape;
using namespace gofree::minigo;

namespace {

/// One dataflow contribution: the value of location Base dereferenced
/// Derefs times (-1 = its address).
struct Flow {
  uint32_t Base;
  int Derefs;
};

using Flows = std::vector<Flow>;

class Builder {
public:
  Builder(const FuncDecl *Fn, const TagMap &Tags, const BuildOptions &Opts)
      : Fn(Fn), Tags(Tags), Opts(Opts) {}

  BuildResult take() { return std::move(Result); }

  void run() {
    EscapeGraph &G = Result.Graph;
    // Variable locations, with DeclDepth/LoopDepth recorded by Sema.
    for (const VarDecl *V : Fn->AllVars) {
      Location &L = G.addLocation(LocKind::Var, V->Name);
      L.Var = V;
      L.DeclDepth = V->ScopeDepth;
      L.LoopDepth = V->LoopDepth;
      L.HasPointers = V->Ty->hasPointers();
      if (V->IsParam)
        L.IncompleteParam = true; // Definition 4.12 rule (a).
      Result.VarLoc[V] = L.Id;
    }
    // Per-return-value dummies (definition 4.2): heap-allocated (definition
    // 4.10) and exposing their pointees to the caller (definition 4.11).
    for (size_t I = 0; I < Fn->Results.size(); ++I) {
      Location &L = G.addLocation(LocKind::Ret, "ret" + std::to_string(I));
      L.DeclDepth = -1;
      L.LoopDepth = -1;
      L.HeapAlloc = true;
      L.ExposesRet = true;
      G.RetLocs.push_back(L.Id);
    }
    if (Fn->Body)
      visitBlock(Fn->Body);
  }

private:
  EscapeGraph &graph() { return Result.Graph; }

  uint32_t varLoc(const VarDecl *V) const {
    auto It = Result.VarLoc.find(V);
    assert(It != Result.VarLoc.end() && "variable without location");
    return It->second;
  }

  /// Creates an allocation-site location at the current scope/loop depth.
  uint32_t makeAllocLoc(const Expr *E, uint32_t AllocId, std::string Name,
                        bool ForceHeap) {
    Location &L = graph().addLocation(LocKind::Alloc, std::move(Name));
    L.AllocExpr = E;
    L.AllocId = AllocId;
    L.DeclDepth = CurScopeDepth;
    L.LoopDepth = CurLoopDepth;
    L.HeapAlloc = ForceHeap;
    if (AllocId != InvalidAllocId)
      Result.AllocLoc[AllocId] = L.Id;
    return L.Id;
  }

  void addFlowsTo(const Flows &Fs, uint32_t Dst) {
    for (const Flow &F : Fs)
      graph().addEdge(F.Base, Dst, F.Derefs);
  }

  /// Does a make() qualify for the stack if it does not escape?
  bool makeCanStack(const MakeExpr *ME) const {
    if (!ME->SizeIsConst || ME->ConstSize < 0)
      return false;
    if (ME->MadeTy->isSlice()) {
      size_t Bytes = (size_t)ME->ConstSize * ME->MadeTy->elem()->size();
      return Bytes <= MaxStackAllocBytes;
    }
    return ME->ConstSize <= MaxStackMapHint;
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  Flows evalExpr(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
    case ExprKind::NilLit:
      return {};
    case ExprKind::Len:
      evalExpr(cast<LenExpr>(E)->Sub);
      return {};
    case ExprKind::Cap:
      evalExpr(cast<CapExpr>(E)->Sub);
      return {};
    case ExprKind::Unary: {
      evalExpr(cast<UnaryExpr>(E)->Sub);
      return {};
    }
    case ExprKind::Binary: {
      evalExpr(cast<BinaryExpr>(E)->Lhs);
      evalExpr(cast<BinaryExpr>(E)->Rhs);
      return {};
    }
    case ExprKind::Ident: {
      const auto *Id = cast<IdentExpr>(E);
      if (!Id->Decl)
        return {}; // Blank identifier.
      return {{varLoc(Id->Decl), 0}};
    }
    case ExprKind::Deref: {
      Flows Fs = evalExpr(cast<DerefExpr>(E)->Sub);
      for (Flow &F : Fs)
        ++F.Derefs;
      return Fs;
    }
    case ExprKind::AddrOf: {
      Flows Fs = evalExpr(cast<AddrOfExpr>(E)->Sub);
      for (Flow &F : Fs)
        --F.Derefs;
      return Fs;
    }
    case ExprKind::Field: {
      const auto *FE = cast<FieldExpr>(E);
      Flows Fs = evalExpr(FE->Base);
      if (FE->ThroughPointer)
        for (Flow &F : Fs)
          ++F.Derefs;
      return Fs;
    }
    case ExprKind::Index: {
      // Both s[i] and m[k] read through the container's data pointer.
      const auto *IE = cast<IndexExpr>(E);
      evalExpr(IE->Idx);
      Flows Fs = evalExpr(IE->Base);
      for (Flow &F : Fs)
        ++F.Derefs;
      return Fs;
    }
    case ExprKind::Make: {
      const auto *ME = cast<MakeExpr>(E);
      if (ME->Len)
        evalExpr(ME->Len);
      if (ME->CapExpr)
        evalExpr(ME->CapExpr);
      uint32_t A = makeAllocLoc(ME, ME->AllocId,
                                "make@" + ME->Loc.str(),
                                /*ForceHeap=*/!makeCanStack(ME));
      return {{A, -1}};
    }
    case ExprKind::New: {
      const auto *NE = cast<NewExpr>(E);
      bool ForceHeap = NE->AllocTy->size() > MaxStackAllocBytes;
      uint32_t A = makeAllocLoc(NE, NE->AllocId, "new@" + NE->Loc.str(),
                                ForceHeap);
      return {{A, -1}};
    }
    case ExprKind::Composite: {
      const auto *CE = cast<CompositeExpr>(E);
      if (CE->TakeAddr) {
        // &T{...}: an allocation holding the initializer values.
        uint32_t A = makeAllocLoc(CE, CE->AllocId, "lit@" + CE->Loc.str(),
                                  /*ForceHeap=*/false);
        for (const auto &[Name, Init] : CE->Inits)
          addFlowsTo(evalExpr(Init), A);
        return {{A, -1}};
      }
      // By-value literal: initializer values flow onward to wherever the
      // literal is stored (field-insensitively), cf. bigObj in fig. 1.
      Flows Out;
      for (const auto &[Name, Init] : CE->Inits) {
        Flows Fs = evalExpr(Init);
        Out.insert(Out.end(), Fs.begin(), Fs.end());
      }
      return Out;
    }
    case ExprKind::Append: {
      const auto *AE = cast<AppendExpr>(E);
      Flows Out = evalExpr(AE->SliceArg);
      // A pointer-bearing appended value is stored through the slice's data
      // pointer: an untracked indirect store (table 2 row 4). Scalar values
      // cannot change any points-to set and need no edge.
      Flows ValueFlows = evalExpr(AE->Value);
      if (AE->Value->Ty->hasPointers()) {
        addFlowsTo(ValueFlows, EscapeGraph::HeapLocId);
        for (const Flow &F : Out)
          graph().loc(F.Base).ExposesStore = true;
      }
      // Section 4.6.1: growth may allocate a fresh heap array; model it
      // with a content location the result points to.
      uint32_t M = makeAllocLoc(AE, AE->AllocId, "append@" + AE->Loc.str(),
                                /*ForceHeap=*/true);
      Out.push_back({M, -1});
      return Out;
    }
    case ExprKind::Slicing: {
      // A sub-slice holds the same backing array: plain value flow, with
      // the bound expressions evaluated for their side effects.
      const auto *SE = cast<SlicingExpr>(E);
      if (SE->Lo)
        evalExpr(SE->Lo);
      if (SE->Hi)
        evalExpr(SE->Hi);
      return evalExpr(SE->Base);
    }
    case ExprKind::CopyFn: {
      // copy(dst, src) stores *src values through dst's data pointer: for
      // pointer-bearing elements this is an untracked indirect store.
      const auto *CE = cast<CopyExpr>(E);
      Flows DstFs = evalExpr(CE->Dst);
      Flows SrcFs = evalExpr(CE->Src);
      if (CE->Dst->Ty->isSlice() && CE->Dst->Ty->elem()->hasPointers()) {
        for (Flow F : SrcFs)
          graph().addEdge(F.Base, EscapeGraph::HeapLocId, F.Derefs + 1);
        for (const Flow &F : DstFs)
          graph().loc(F.Base).ExposesStore = true;
      }
      return {};
    }
    case ExprKind::Call: {
      std::vector<Flows> Results = evalCall(cast<CallExpr>(E));
      return Results.empty() ? Flows{} : Results[0];
    }
    }
    return {};
  }

  /// Evaluates a call, instantiating the callee's extended parameter tag
  /// (or the conservative default tag). Returns one flow set per result.
  std::vector<Flows> evalCall(const CallExpr *CE) {
    EscapeGraph &G = graph();
    std::vector<Flows> ArgFlows;
    ArgFlows.reserve(CE->Args.size());
    for (const Expr *A : CE->Args)
      ArgFlows.push_back(evalExpr(A));

    size_t NumResults = CE->Fn ? CE->Fn->Results.size() : 0;
    const FuncTag *Tag = nullptr;
    if (Opts.UseTags && CE->Fn) {
      auto It = Tags.find(CE->Fn);
      if (It != Tags.end())
        Tag = &It->second;
    }

    if (!Tag) {
      // Default tag: all arguments flow to the heap; all results come from
      // the heap (and are therefore incomplete and non-freeable).
      for (const Flows &Fs : ArgFlows)
        addFlowsTo(Fs, EscapeGraph::HeapLocId);
      std::vector<Flows> Out(NumResults);
      for (auto &R : Out)
        R.push_back({EscapeGraph::HeapLocId, -1});
      return Out;
    }

    // Instantiate parameter copies. Their depths are +infinity so they
    // never masquerade as outer-scope holders (section 4.4).
    std::vector<uint32_t> ParamCopies(CE->Args.size());
    for (size_t I = 0; I < CE->Args.size(); ++I) {
      Location &P = G.addLocation(LocKind::ParamCopy,
                                  CE->Callee + ".p" + std::to_string(I));
      P.DeclDepth = BigDepth;
      P.LoopDepth = BigDepth;
      if (I < Tag->ParamExposes.size() && Tag->ParamExposes[I])
        P.ExposesStore = true;
      ParamCopies[I] = P.Id;
      addFlowsTo(ArgFlows[I], P.Id);
      if (I < Tag->ParamToHeap.size() && Tag->ParamToHeap[I] != NotHeld)
        G.addEdge(P.Id, EscapeGraph::HeapLocId, Tag->ParamToHeap[I]);
    }
    // Instantiate return copies and their content tags.
    std::vector<Flows> Out(NumResults);
    std::vector<uint32_t> RetCopies(NumResults);
    for (size_t J = 0; J < NumResults; ++J) {
      Location &R = G.addLocation(LocKind::RetCopy,
                                  CE->Callee + ".r" + std::to_string(J));
      R.DeclDepth = BigDepth;
      R.LoopDepth = BigDepth;
      R.HeapAlloc = true;
      if (J < Tag->RetIncompleteStore.size() && Tag->RetIncompleteStore[J])
        R.IncompleteStore = true;
      RetCopies[J] = R.Id;

      // R is dead from here on: this addLocation can grow G's location
      // vector and invalidate it. Use the saved RetCopies[J] id instead.
      Location &Ct = G.addLocation(LocKind::ContentTag,
                                   CE->Callee + ".ct" + std::to_string(J));
      Ct.DeclDepth = BigDepth;
      Ct.LoopDepth = BigDepth;
      Ct.HeapAlloc = J < Tag->RetPointsToHeap.size() && Tag->RetPointsToHeap[J];
      if (J < Tag->RetIncompleteStore.size() && Tag->RetIncompleteStore[J])
        Ct.IncompleteStore = true;
      G.addEdge(Ct.Id, RetCopies[J], -1);
      Out[J].push_back({RetCopies[J], 0});
    }
    for (const FuncTag::ParamToRet &E : Tag->Edges)
      if (E.ParamIdx < ParamCopies.size() && E.RetIdx < RetCopies.size())
        G.addEdge(ParamCopies[E.ParamIdx], RetCopies[E.RetIdx], E.Derefs);
    return Out;
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  /// Resolves an lvalue to its storage location and dereference depth.
  /// Depth 0 means direct storage; depth > 0 means a store through a
  /// pointer, i.e. an untracked indirect store.
  std::optional<Flow> evalLvalue(const Expr *E) {
    Flows Fs = evalExpr(E);
    if (Fs.empty())
      return std::nullopt;
    assert(Fs.size() == 1 && "lvalue with multiple flows");
    return Fs[0];
  }

  /// Models `Dst = <Src flows>` per table 2. \p SrcTy is the static type of
  /// the stored value: scalar stores cannot change any points-to set, so
  /// they generate no heap edge and no exposure.
  void assignTo(const Expr *Dst, const Flows &SrcFlows, const Type *SrcTy) {
    if (const auto *Id = dyn_cast<IdentExpr>(Dst); Id && !Id->Decl)
      return; // Blank identifier discards.
    std::optional<Flow> L = evalLvalue(Dst);
    if (!L)
      return;
    if (L->Derefs <= 0) {
      // Direct store into the location (p = q / p = &q / p = *q).
      addFlowsTo(SrcFlows, L->Base);
      return;
    }
    // Indirect store (*p = q and friends): a pointer-bearing value
    // conservatively escapes to the heap and the destination base now
    // exposes its pointees (definition 4.11 rule 3).
    if (!SrcTy->hasPointers())
      return;
    addFlowsTo(SrcFlows, EscapeGraph::HeapLocId);
    graph().loc(L->Base).ExposesStore = true;
  }

  void visitBlock(const BlockStmt *B) {
    ++CurScopeDepth;
    for (const Stmt *S : B->Stmts)
      visitStmt(S);
    --CurScopeDepth;
  }

  void visitStmt(const Stmt *S) {
    switch (S->kind()) {
    case StmtKind::Block:
      visitBlock(cast<BlockStmt>(S));
      return;
    case StmtKind::VarDecl: {
      const auto *DS = cast<VarDeclStmt>(S);
      bool MultiValue = DS->Inits.size() == 1 && DS->Vars.size() > 1;
      if (MultiValue) {
        const auto *Call = dyn_cast<CallExpr>(DS->Inits[0]);
        assert(Call && "multi-value init must be a call");
        std::vector<Flows> Results = evalCall(Call);
        for (size_t I = 0; I < DS->Vars.size() && I < Results.size(); ++I)
          if (DS->Vars[I]->Name != "_")
            addFlowsTo(Results[I], varLoc(DS->Vars[I]));
        return;
      }
      for (size_t I = 0; I < DS->Inits.size(); ++I)
        if (DS->Vars[I]->Name != "_")
          addFlowsTo(evalExpr(DS->Inits[I]), varLoc(DS->Vars[I]));
      return;
    }
    case StmtKind::Assign: {
      const auto *AS = cast<AssignStmt>(S);
      bool MultiValue = AS->Rhs.size() == 1 && AS->Lhs.size() > 1;
      if (MultiValue) {
        const auto *Call = dyn_cast<CallExpr>(AS->Rhs[0]);
        assert(Call && "multi-value assignment must be from a call");
        std::vector<Flows> Results = evalCall(Call);
        const auto &Elems = Call->Ty->tupleElems();
        for (size_t I = 0; I < AS->Lhs.size() && I < Results.size(); ++I)
          assignTo(AS->Lhs[I], Results[I], Elems[I]);
        return;
      }
      for (size_t I = 0; I < AS->Lhs.size() && I < AS->Rhs.size(); ++I)
        assignTo(AS->Lhs[I], evalExpr(AS->Rhs[I]), AS->Rhs[I]->Ty);
      return;
    }
    case StmtKind::If: {
      const auto *IS = cast<IfStmt>(S);
      evalExpr(IS->Cond);
      visitBlock(IS->Then);
      if (IS->Else)
        visitStmt(IS->Else);
      return;
    }
    case StmtKind::For: {
      const auto *FS = cast<ForStmt>(S);
      // Mirror Sema's scoping: the header introduces one scope, the body
      // another; everything under the header is one loop level deeper.
      ++CurScopeDepth;
      if (FS->Init)
        visitStmt(FS->Init);
      if (FS->Cond)
        evalExpr(FS->Cond);
      ++CurLoopDepth;
      if (FS->Post)
        visitStmt(FS->Post);
      visitBlock(FS->Body);
      --CurLoopDepth;
      --CurScopeDepth;
      return;
    }
    case StmtKind::Return: {
      const auto *RS = cast<ReturnStmt>(S);
      const auto &Rets = graph().RetLocs;
      if (RS->Values.size() == 1 && Rets.size() > 1) {
        if (const auto *Call = dyn_cast<CallExpr>(RS->Values[0])) {
          std::vector<Flows> Results = evalCall(Call);
          for (size_t I = 0; I < Rets.size() && I < Results.size(); ++I)
            addFlowsTo(Results[I], Rets[I]);
          return;
        }
      }
      for (size_t I = 0; I < RS->Values.size() && I < Rets.size(); ++I)
        addFlowsTo(evalExpr(RS->Values[I]), Rets[I]);
      return;
    }
    case StmtKind::ExprStmt:
      evalExpr(cast<ExprStmt>(S)->E);
      return;
    case StmtKind::Defer: {
      // Section 5: anything passed to defer (or panic) is banned from
      // freeing; route the arguments to heapLoc, which marks them exposed
      // and their pointees escaped.
      const auto *DS = cast<DeferStmt>(S);
      for (const Expr *A : DS->Call->Args)
        addFlowsTo(evalExpr(A), EscapeGraph::HeapLocId);
      return;
    }
    case StmtKind::Panic:
      addFlowsTo(evalExpr(cast<PanicStmt>(S)->Value), EscapeGraph::HeapLocId);
      return;
    case StmtKind::Sink:
      evalExpr(cast<SinkStmt>(S)->Value);
      return;
    case StmtKind::Delete: {
      const auto *DS = cast<DeleteStmt>(S);
      evalExpr(DS->MapArg);
      evalExpr(DS->KeyArg);
      return;
    }
    case StmtKind::Break:
    case StmtKind::Continue:
    case StmtKind::Tcfree:
      return;
    }
  }

  const FuncDecl *Fn;
  const TagMap &Tags;
  const BuildOptions &Opts;
  BuildResult Result;
  int CurScopeDepth = 0;
  int CurLoopDepth = 0;
};

} // namespace

BuildResult gofree::escape::buildEscapeGraph(const FuncDecl *Fn,
                                             const TagMap &Tags,
                                             const BuildOptions &Opts) {
  Builder B(Fn, Tags, Opts);
  B.run();
  return B.take();
}

FuncTag gofree::escape::extractTag(const FuncDecl *Fn,
                                   const BuildResult &Build) {
  const EscapeGraph &G = Build.Graph;
  FuncTag Tag;
  size_t NumParams = Fn->Params.size();
  Tag.ParamToHeap.assign(NumParams, NotHeld);
  Tag.ParamExposes.assign(NumParams, false);

  std::vector<uint32_t> ParamLocs;
  ParamLocs.reserve(NumParams);
  for (const VarDecl *P : Fn->Params)
    ParamLocs.push_back(Build.VarLoc.at(P));

  for (size_t I = 0; I < NumParams; ++I)
    Tag.ParamExposes[I] = G.loc(ParamLocs[I]).ExposesStore;

  std::vector<int8_t> Dist;
  minDerefsFrom(G, EscapeGraph::HeapLocId, Dist);
  for (size_t I = 0; I < NumParams; ++I)
    if (Dist[ParamLocs[I]] != NotHeld)
      Tag.ParamToHeap[I] = Dist[ParamLocs[I]];

  for (size_t J = 0; J < G.RetLocs.size(); ++J) {
    const Location &Ret = G.loc(G.RetLocs[J]);
    Tag.RetPointsToHeap.push_back(Ret.PointsToHeap);
    Tag.RetIncompleteStore.push_back(Ret.IncompleteStore);
    minDerefsFrom(G, G.RetLocs[J], Dist);
    for (size_t I = 0; I < NumParams; ++I)
      if (Dist[ParamLocs[I]] != NotHeld)
        Tag.Edges.push_back({(uint32_t)I, (uint32_t)J, Dist[ParamLocs[I]]});
  }
  return Tag;
}

std::vector<uint32_t> gofree::escape::pointsToSet(const EscapeGraph &G,
                                                  uint32_t LocId) {
  std::vector<int8_t> Dist;
  minDerefsFrom(G, LocId, Dist);
  std::vector<uint32_t> Out;
  for (uint32_t I = 0; I < G.size(); ++I)
    if (Dist[I] == -1)
      Out.push_back(I);
  return Out;
}
