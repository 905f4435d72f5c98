//===- escape/GraphBuilder.cpp - AST -> escape graph ----------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "escape/GraphBuilder.h"

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

/// Builds one function's graph. Expressions evaluate onto a flow stack
/// the builder owns: evaluating E pushes E's flows, and the caller consumes
/// the entries above the stack height it saw before and pops them.
class Builder {
public:
  Builder(const FuncDecl *Fn, const TagMap &Tags, const BuildOptions &Opts)
      : Fn(Fn), Tags(Tags), Opts(Opts) {
    Flows.reserve(64);
    Marks.reserve(16);
  }

  BuildResult take() { return std::move(Result); }

  void run() {
    EscapeGraph &G = Result.Graph;
    // Variable locations, with DeclDepth/LoopDepth recorded by Sema.
    for (const VarDecl *V : Fn->AllVars) {
      Location &L = G.addLocation(LocKind::Var);
      assert(L.Id == varLoc(V) && "AllVars out of VarDecl::Id order");
      L.Var = V;
      L.DeclDepth = V->ScopeDepth;
      L.LoopDepth = V->LoopDepth;
      L.HasPointers = V->Ty->hasPointers();
      if (V->IsParam)
        L.IncompleteParam = true; // Definition 4.12 rule (a).
    }
    // Per-return-value dummies (definition 4.2): heap-allocated (definition
    // 4.10) and exposing their pointees to the caller (definition 4.11).
    for (size_t I = 0; I < Fn->Results.size(); ++I) {
      Location &L = G.addLocation(LocKind::Ret);
      L.Index = (uint32_t)I;
      L.DeclDepth = -1;
      L.LoopDepth = -1;
      L.HeapAlloc = true;
      L.ExposesRet = true;
      G.RetLocs.push_back(L.Id);
    }
    if (Fn->Body)
      visitBlock(Fn->Body);
    assert(Flows.empty() && Marks.empty() && "unbalanced flow stack");
    G.sortEdges();
  }

private:
  EscapeGraph &graph() { return Result.Graph; }

  static uint32_t varLoc(const VarDecl *V) { return 1 + V->Id; }

  /// Creates an allocation-site location at the current scope/loop depth.
  uint32_t makeAllocLoc(Expr *E, uint32_t AllocId, bool ForceHeap) {
    Location &L = graph().addLocation(LocKind::Alloc);
    L.AllocExpr = E;
    L.AllocId = AllocId;
    L.DeclDepth = CurScopeDepth;
    L.LoopDepth = CurLoopDepth;
    L.HeapAlloc = ForceHeap;
    return L.Id;
  }

  /// Adds an edge to \p Dst from each flow in Flows[Begin, End).
  void addFlowsTo(size_t Begin, size_t End, uint32_t Dst) {
    for (size_t I = Begin; I < End; ++I)
      graph().addEdge(Flows[I].Base, Dst, Flows[I].Derefs);
  }

  /// Adds an edge to \p Dst from each flow above \p Mark, then pops them.
  void flowTo(size_t Mark, uint32_t Dst) {
    addFlowsTo(Mark, Flows.size(), Dst);
    Flows.resize(Mark);
  }

  /// Evaluates \p E for its side effects only.
  void evalDiscard(Expr *E) {
    size_t Mark = Flows.size();
    evalExpr(E);
    Flows.resize(Mark);
  }

  /// Adds \p Delta to the dereference count of every flow above \p Mark.
  void shiftDerefs(size_t Mark, int Delta) {
    for (size_t I = Mark; I < Flows.size(); ++I)
      Flows[I].Derefs += Delta;
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

  /// Pushes the flows of \p E's value.
  void evalExpr(Expr *E) {
    size_t Mark = Flows.size();
    switch (E->kind()) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
    case ExprKind::NilLit:
      return;
    case ExprKind::Len:
      evalDiscard(cast<LenExpr>(E)->Sub);
      return;
    case ExprKind::Cap:
      evalDiscard(cast<CapExpr>(E)->Sub);
      return;
    case ExprKind::Unary:
      evalDiscard(cast<UnaryExpr>(E)->Sub);
      return;
    case ExprKind::Binary:
      evalDiscard(cast<BinaryExpr>(E)->Lhs);
      evalDiscard(cast<BinaryExpr>(E)->Rhs);
      return;
    case ExprKind::Ident: {
      const auto *Id = cast<IdentExpr>(E);
      if (Id->Decl) // Else the blank identifier.
        Flows.push_back({varLoc(Id->Decl), 0});
      return;
    }
    case ExprKind::Deref:
      evalExpr(cast<DerefExpr>(E)->Sub);
      shiftDerefs(Mark, +1);
      return;
    case ExprKind::AddrOf:
      evalExpr(cast<AddrOfExpr>(E)->Sub);
      shiftDerefs(Mark, -1);
      return;
    case ExprKind::Field: {
      const auto *FE = cast<FieldExpr>(E);
      evalExpr(FE->Base);
      if (FE->ThroughPointer)
        shiftDerefs(Mark, +1);
      return;
    }
    case ExprKind::Index: {
      // Both s[i] and m[k] read through the container's data pointer.
      const auto *IE = cast<IndexExpr>(E);
      evalDiscard(IE->Idx);
      evalExpr(IE->Base);
      shiftDerefs(Mark, +1);
      return;
    }
    case ExprKind::Make: {
      auto *ME = cast<MakeExpr>(E);
      if (ME->Len)
        evalDiscard(ME->Len);
      if (ME->CapExpr)
        evalDiscard(ME->CapExpr);
      uint32_t A = makeAllocLoc(ME, ME->AllocId,
                                /*ForceHeap=*/!makeCanStack(ME));
      Flows.push_back({A, -1});
      return;
    }
    case ExprKind::New: {
      auto *NE = cast<NewExpr>(E);
      bool ForceHeap = NE->AllocTy->size() > MaxStackAllocBytes;
      Flows.push_back({makeAllocLoc(NE, NE->AllocId, ForceHeap), -1});
      return;
    }
    case ExprKind::Composite: {
      auto *CE = cast<CompositeExpr>(E);
      if (CE->TakeAddr) {
        // &T{...}: an allocation holding the initializer values.
        uint32_t A = makeAllocLoc(CE, CE->AllocId, /*ForceHeap=*/false);
        for (const FieldInit &I : CE->Inits) {
          evalExpr(I.Value);
          flowTo(Mark, A);
        }
        Flows.push_back({A, -1});
        return;
      }
      // By-value literal: initializer values flow onward to wherever the
      // literal is stored (field-insensitively), cf. bigObj in fig. 1.
      for (const FieldInit &I : CE->Inits)
        evalExpr(I.Value);
      return;
    }
    case ExprKind::Append: {
      auto *AE = cast<AppendExpr>(E);
      evalExpr(AE->SliceArg);
      size_t ValueMark = Flows.size();
      // A pointer-bearing appended value is stored through the slice's data
      // pointer: an untracked indirect store (table 2 row 4). Scalar values
      // cannot change any points-to set and need no edge.
      evalExpr(AE->Value);
      if (AE->Value->Ty->hasPointers()) {
        addFlowsTo(ValueMark, Flows.size(), EscapeGraph::HeapLocId);
        for (size_t I = Mark; I < ValueMark; ++I)
          graph().loc(Flows[I].Base).ExposesStore = true;
      }
      Flows.resize(ValueMark);
      // Section 4.6.1: growth may allocate a fresh heap array; model it
      // with a content location the result points to.
      uint32_t M = makeAllocLoc(AE, AE->AllocId, /*ForceHeap=*/true);
      Flows.push_back({M, -1});
      return;
    }
    case ExprKind::Slicing: {
      // A sub-slice holds the same backing array: plain value flow, with
      // the bound expressions evaluated for their side effects.
      const auto *SE = cast<SlicingExpr>(E);
      if (SE->Lo)
        evalDiscard(SE->Lo);
      if (SE->Hi)
        evalDiscard(SE->Hi);
      evalExpr(SE->Base);
      return;
    }
    case ExprKind::CopyFn: {
      // copy(dst, src) stores *src values through dst's data pointer: for
      // pointer-bearing elements this is an untracked indirect store.
      const auto *CE = cast<CopyExpr>(E);
      evalExpr(CE->Dst);
      size_t SrcMark = Flows.size();
      evalExpr(CE->Src);
      if (CE->Dst->Ty->isSlice() && CE->Dst->Ty->elem()->hasPointers()) {
        for (size_t I = SrcMark; I < Flows.size(); ++I)
          graph().addEdge(Flows[I].Base, EscapeGraph::HeapLocId,
                          Flows[I].Derefs + 1);
        for (size_t I = Mark; I < SrcMark; ++I)
          graph().loc(Flows[I].Base).ExposesStore = true;
      }
      Flows.resize(Mark);
      return;
    }
    case ExprKind::Call:
      // Only the first result is a value here.
      if (evalCall(cast<CallExpr>(E)) > 1)
        Flows.resize(Mark + 1);
      return;
    }
  }

  /// Evaluates a call, instantiating the callee's extended parameter tag
  /// (or the conservative default tag). Pushes one flow per result and
  /// returns the number of results.
  size_t evalCall(const CallExpr *CE) {
    EscapeGraph &G = graph();
    // Marks[MarkBase + I] .. Marks[MarkBase + I + 1] bound argument I's
    // flows; calls nested in the arguments use the Marks above.
    size_t MarkBase = Marks.size();
    for (Expr *A : CE->Args) {
      Marks.push_back(Flows.size());
      evalExpr(A);
    }
    Marks.push_back(Flows.size());
    auto ArgBegin = [&](size_t I) { return Marks[MarkBase + I]; };
    size_t Base = ArgBegin(0);

    size_t NumResults = CE->Fn ? CE->Fn->Results.size() : 0;
    const FuncTag *Tag = nullptr;
    if (Opts.UseTags && CE->Fn && CE->Fn->Index < Tags.size() &&
        Tags[CE->Fn->Index])
      Tag = &*Tags[CE->Fn->Index];

    if (!Tag) {
      // Default tag: all arguments flow to the heap; all results come from
      // the heap (and are therefore incomplete and non-freeable).
      flowTo(Base, EscapeGraph::HeapLocId);
      Marks.resize(MarkBase);
      for (size_t J = 0; J < NumResults; ++J)
        Flows.push_back({EscapeGraph::HeapLocId, -1});
      return NumResults;
    }

    // Instantiate parameter copies. Their depths are +infinity so they
    // never masquerade as outer-scope holders (section 4.4).
    uint32_t FirstParamCopy = (uint32_t)G.size();
    for (size_t I = 0; I < CE->Args.size(); ++I) {
      Location &P = G.addLocation(LocKind::ParamCopy);
      P.Call = CE;
      P.Index = (uint32_t)I;
      P.DeclDepth = BigDepth;
      P.LoopDepth = BigDepth;
      if (I < Tag->ParamExposes.size() && Tag->ParamExposes[I])
        P.ExposesStore = true;
      addFlowsTo(ArgBegin(I), ArgBegin(I + 1), P.Id);
      if (I < Tag->ParamToHeap.size() && Tag->ParamToHeap[I] != NotHeld)
        G.addEdge(P.Id, EscapeGraph::HeapLocId, Tag->ParamToHeap[I]);
    }
    Flows.resize(Base);
    Marks.resize(MarkBase);
    // Instantiate return copies and their content tags, which alternate.
    uint32_t FirstRetCopy = (uint32_t)G.size();
    for (size_t J = 0; J < NumResults; ++J) {
      Location &R = G.addLocation(LocKind::RetCopy);
      R.Call = CE;
      R.Index = (uint32_t)J;
      R.DeclDepth = BigDepth;
      R.LoopDepth = BigDepth;
      R.HeapAlloc = true;
      if (J < Tag->RetIncompleteStore.size() && Tag->RetIncompleteStore[J])
        R.IncompleteStore = true;
      uint32_t RetCopy = R.Id;

      // R is dead from here on: this addLocation can grow G's location
      // vector and invalidate it. Use the saved RetCopy id instead.
      Location &Ct = G.addLocation(LocKind::ContentTag);
      Ct.Call = CE;
      Ct.Index = (uint32_t)J;
      Ct.DeclDepth = BigDepth;
      Ct.LoopDepth = BigDepth;
      Ct.HeapAlloc = J < Tag->RetPointsToHeap.size() && Tag->RetPointsToHeap[J];
      if (J < Tag->RetIncompleteStore.size() && Tag->RetIncompleteStore[J])
        Ct.IncompleteStore = true;
      G.addEdge(Ct.Id, RetCopy, -1);
      Flows.push_back({RetCopy, 0});
    }
    for (const FuncTag::ParamToRet &E : Tag->Edges)
      if (E.ParamIdx < CE->Args.size() && E.RetIdx < NumResults)
        G.addEdge(FirstParamCopy + E.ParamIdx, FirstRetCopy + 2 * E.RetIdx,
                  E.Derefs);
    return NumResults;
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  /// Models `Dst = <the flows Flows[SrcBegin, SrcEnd)>` per table 2. \p SrcTy
  /// is the static type of the stored value: scalar stores cannot change
  /// any points-to set, so they generate no heap edge and no exposure.
  void assignTo(Expr *Dst, size_t SrcBegin, size_t SrcEnd,
                const Type *SrcTy) {
    if (const auto *Id = dyn_cast<IdentExpr>(Dst); Id && !Id->Decl)
      return; // Blank identifier discards.
    // Resolve the lvalue to its storage location and dereference depth.
    // Depth 0 means direct storage; depth > 0 means a store through a
    // pointer, i.e. an untracked indirect store.
    size_t LMark = Flows.size();
    evalExpr(Dst);
    if (Flows.size() == LMark)
      return;
    assert(Flows.size() == LMark + 1 && "lvalue with multiple flows");
    Flow L = Flows[LMark];
    Flows.resize(LMark);
    if (L.Derefs <= 0) {
      // Direct store into the location (p = q / p = &q / p = *q).
      addFlowsTo(SrcBegin, SrcEnd, L.Base);
      return;
    }
    // Indirect store (*p = q and friends): a pointer-bearing value
    // conservatively escapes to the heap and the destination base now
    // exposes its pointees (definition 4.11 rule 3).
    if (!SrcTy->hasPointers())
      return;
    addFlowsTo(SrcBegin, SrcEnd, EscapeGraph::HeapLocId);
    graph().loc(L.Base).ExposesStore = true;
  }

  void visitBlock(const BlockStmt *B) {
    ++CurScopeDepth;
    for (const Stmt *S : B->Stmts)
      visitStmt(S);
    --CurScopeDepth;
  }

  void visitStmt(const Stmt *S) {
    size_t Mark = Flows.size();
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
        size_t NumResults = evalCall(Call);
        for (size_t I = 0; I < DS->Vars.size() && I < NumResults; ++I)
          if (DS->Vars[I]->Name != "_")
            addFlowsTo(Mark + I, Mark + I + 1, varLoc(DS->Vars[I]));
        Flows.resize(Mark);
        return;
      }
      // A blank variable's initializer still runs (its calls may store
      // their arguments); only its value is dropped.
      for (size_t I = 0; I < DS->Inits.size(); ++I) {
        evalExpr(DS->Inits[I]);
        if (DS->Vars[I]->Name != "_")
          flowTo(Mark, varLoc(DS->Vars[I]));
        Flows.resize(Mark);
      }
      return;
    }
    case StmtKind::Assign: {
      const auto *AS = cast<AssignStmt>(S);
      bool MultiValue = AS->Rhs.size() == 1 && AS->Lhs.size() > 1;
      if (MultiValue) {
        const auto *Call = dyn_cast<CallExpr>(AS->Rhs[0]);
        assert(Call && "multi-value assignment must be from a call");
        size_t NumResults = evalCall(Call);
        const auto &Elems = Call->Ty->tupleElems();
        for (size_t I = 0; I < AS->Lhs.size() && I < NumResults; ++I)
          assignTo(AS->Lhs[I], Mark + I, Mark + I + 1, Elems[I]);
        Flows.resize(Mark);
        return;
      }
      for (size_t I = 0; I < AS->Lhs.size() && I < AS->Rhs.size(); ++I) {
        evalExpr(AS->Rhs[I]);
        assignTo(AS->Lhs[I], Mark, Flows.size(), AS->Rhs[I]->Ty);
        Flows.resize(Mark);
      }
      return;
    }
    case StmtKind::If: {
      const auto *IS = cast<IfStmt>(S);
      evalDiscard(IS->Cond);
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
        evalDiscard(FS->Cond);
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
          size_t NumResults = evalCall(Call);
          for (size_t I = 0; I < Rets.size() && I < NumResults; ++I)
            addFlowsTo(Mark + I, Mark + I + 1, Rets[I]);
          Flows.resize(Mark);
          return;
        }
      }
      for (size_t I = 0; I < RS->Values.size() && I < Rets.size(); ++I) {
        evalExpr(RS->Values[I]);
        flowTo(Mark, Rets[I]);
      }
      return;
    }
    case StmtKind::ExprStmt:
      evalDiscard(cast<ExprStmt>(S)->E);
      return;
    case StmtKind::Defer: {
      // Section 5: anything passed to defer (or panic) is banned from
      // freeing; route the arguments to heapLoc, which marks them exposed
      // and their pointees escaped.
      const auto *DS = cast<DeferStmt>(S);
      for (Expr *A : DS->Call->Args) {
        evalExpr(A);
        flowTo(Mark, EscapeGraph::HeapLocId);
      }
      return;
    }
    case StmtKind::Panic:
      evalExpr(cast<PanicStmt>(S)->Value);
      flowTo(Mark, EscapeGraph::HeapLocId);
      return;
    case StmtKind::Sink:
      evalDiscard(cast<SinkStmt>(S)->Value);
      return;
    case StmtKind::Delete: {
      const auto *DS = cast<DeleteStmt>(S);
      evalDiscard(DS->MapArg);
      evalDiscard(DS->KeyArg);
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
  /// The flow stack, and the argument bounds of the calls being evaluated.
  std::vector<Flow> Flows;
  std::vector<size_t> Marks;
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
                                   const BuildResult &Build, WalkBuffers &W) {
  const EscapeGraph &G = Build.Graph;
  FuncTag Tag;
  size_t NumParams = Fn->Params.size();
  Tag.ParamToHeap.assign(NumParams, NotHeld);
  Tag.ParamExposes.assign(NumParams, false);

  auto ParamLoc = [&](size_t I) { return Build.varLoc(Fn->Params[I]); };

  for (size_t I = 0; I < NumParams; ++I)
    Tag.ParamExposes[I] = G.loc(ParamLoc(I)).ExposesStore;

  const std::vector<int8_t> &Dist = W.Dist;
  minDerefsFrom(G, EscapeGraph::HeapLocId, W);
  for (size_t I = 0; I < NumParams; ++I)
    if (Dist[ParamLoc(I)] != NotHeld)
      Tag.ParamToHeap[I] = Dist[ParamLoc(I)];

  Tag.RetPointsToHeap.reserve(G.RetLocs.size());
  Tag.RetIncompleteStore.reserve(G.RetLocs.size());
  for (size_t J = 0; J < G.RetLocs.size(); ++J) {
    const Location &Ret = G.loc(G.RetLocs[J]);
    Tag.RetPointsToHeap.push_back(Ret.PointsToHeap);
    Tag.RetIncompleteStore.push_back(Ret.IncompleteStore);
    minDerefsFrom(G, G.RetLocs[J], W);
    for (size_t I = 0; I < NumParams; ++I)
      if (Dist[ParamLoc(I)] != NotHeld)
        Tag.Edges.push_back({(uint32_t)I, (uint32_t)J, Dist[ParamLoc(I)]});
  }
  return Tag;
}

std::vector<uint32_t> gofree::escape::pointsToSet(const EscapeGraph &G,
                                                  uint32_t LocId) {
  WalkBuffers W;
  minDerefsFrom(G, LocId, W);
  std::vector<uint32_t> Out;
  for (uint32_t I = 0; I < G.size(); ++I)
    if (W.Dist[I] == -1)
      Out.push_back(I);
  return Out;
}
