//===- minigo/Sema.cpp - MiniGo semantic analysis -------------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "minigo/Sema.h"

using namespace gofree;
using namespace gofree::minigo;

/// Gives an untyped nil literal the concrete nilable type its context
/// requires, so later phases (escape analysis, interpreter) see a real type.
static void adoptNil(Expr *E, const Type *Target) {
  if (E && E->Ty && E->Ty->isNil() && Target && Target->isNilable())
    E->Ty = Target;
}

/// Whether \p E is a map element or a field path inside one (`m[k].f`).
static bool isMapElement(const Expr *E) {
  while (const auto *FE = dyn_cast<FieldExpr>(E)) {
    if (FE->ThroughPointer)
      return false;
    E = FE->Base;
  }
  const auto *IE = dyn_cast<IndexExpr>(E);
  return IE && IE->IsMap;
}

bool Sema::run() {
  Bound.assign(Prog.NumSymbols, nullptr);
  for (FuncDecl *Fn : Prog.Funcs)
    checkFunc(Fn);
  return !Diags.hasErrors();
}

void Sema::popScope() {
  size_t Mark = ScopeMarks.back();
  ScopeMarks.pop_back();
  while (Shadowed.size() > Mark) {
    Bound[Shadowed.back().first] = Shadowed.back().second;
    Shadowed.pop_back();
  }
}

bool Sema::declare(VarDecl *V) {
  assert(!ScopeMarks.empty() && "declare outside any scope");
  assert(V->Sym < Bound.size() && "declaring a name the parser never saw");
  if (V->Name == "_")
    return true; // The blank identifier is never entered into scope.
  // Scopes nest, and Sema numbers them by depth, so a visible binding at
  // the current depth was declared in the current scope.
  VarDecl *Prev = Bound[V->Sym];
  if (Prev && Prev->ScopeDepth == CurScopeDepth) {
    Diags.error(V->Loc, "'" + std::string(V->Name) + "' redeclared in this scope");
    return false;
  }
  Shadowed.emplace_back(V->Sym, Prev);
  Bound[V->Sym] = V;
  return true;
}

void Sema::layoutVar(VarDecl *V) {
  V->ScopeDepth = CurScopeDepth;
  V->LoopDepth = CurLoopDepth;
  V->Id = NextVarId++;
  V->FrameOffset = FrameCursor;
  assert(V->Ty && "layout before type assignment");
  FrameCursor += V->Ty->size();
  FuncVars.push_back(V);
}

void Sema::checkFunc(FuncDecl *Fn) {
  CurFunc = Fn;
  CurScopeDepth = 0;
  CurLoopDepth = 0;
  FrameCursor = 0;
  NextVarId = 0;
  FuncVars.clear();
  assert(ScopeMarks.empty() && Shadowed.empty() && "unbalanced scopes");
  pushScope();
  for (VarDecl *P : Fn->Params) {
    if (!P->Ty) {
      Diags.error(P->Loc, "parameter '" + std::string(P->Name) + "' has no type");
      P->Ty = Prog.Types->getInt();
    }
    declare(P);
    layoutVar(P);
  }
  if (Fn->Body)
    checkBlock(Fn->Body);
  popScope();
  Fn->AllVars = Prog.Nodes.copy<VarDecl *>(FuncVars);
  Fn->FrameSize = FrameCursor;
  CurFunc = nullptr;
}

void Sema::checkBlock(BlockStmt *B) {
  ++CurScopeDepth;
  pushScope();
  for (Stmt *S : B->Stmts)
    checkStmt(S);
  popScope();
  --CurScopeDepth;
}

void Sema::checkStmt(Stmt *S) {
  switch (S->kind()) {
  case StmtKind::Block:
    checkBlock(cast<BlockStmt>(S));
    return;
  case StmtKind::VarDecl:
    checkVarDeclStmt(cast<VarDeclStmt>(S));
    return;
  case StmtKind::Assign:
    checkAssignStmt(cast<AssignStmt>(S));
    return;
  case StmtKind::If: {
    auto *IS = cast<IfStmt>(S);
    const Type *CT = checkExpr(IS->Cond);
    if (!CT->isBool())
      Diags.error(IS->Cond->Loc, "if condition must be bool, got " + CT->str());
    checkBlock(IS->Then);
    if (IS->Else)
      checkStmt(IS->Else);
    return;
  }
  case StmtKind::For: {
    auto *FS = cast<ForStmt>(S);
    // The init clause scopes over the whole loop, like Go.
    ++CurScopeDepth;
    pushScope();
    if (FS->Init)
      checkStmt(FS->Init);
    if (FS->Cond) {
      const Type *CT = checkExpr(FS->Cond);
      if (!CT->isBool())
        Diags.error(FS->Cond->Loc,
                    "for condition must be bool, got " + CT->str());
    }
    ++CurLoopDepth;
    if (FS->Post)
      checkStmt(FS->Post);
    checkBlock(FS->Body);
    --CurLoopDepth;
    popScope();
    --CurScopeDepth;
    return;
  }
  case StmtKind::Return: {
    auto *RS = cast<ReturnStmt>(S);
    for (Expr *V : RS->Values)
      checkExpr(V);
    // A single multi-value call can satisfy a multi-result signature.
    if (RS->Values.size() == 1 && RS->Values[0]->Ty->isTuple()) {
      const auto &Elems = RS->Values[0]->Ty->tupleElems();
      if (Elems.size() != CurFunc->Results.size()) {
        Diags.error(RS->Loc, "wrong number of return values");
        return;
      }
      for (size_t I = 0; I < Elems.size(); ++I)
        requireAssignable(RS->Loc, CurFunc->Results[I], Elems[I], "return");
      return;
    }
    if (RS->Values.size() != CurFunc->Results.size()) {
      Diags.error(RS->Loc, "wrong number of return values");
      return;
    }
    for (size_t I = 0; I < RS->Values.size(); ++I) {
      adoptNil(RS->Values[I], CurFunc->Results[I]);
      requireAssignable(RS->Values[I]->Loc, CurFunc->Results[I],
                        RS->Values[I]->Ty, "return");
    }
    return;
  }
  case StmtKind::ExprStmt: {
    auto *ES = cast<ExprStmt>(S);
    checkExpr(ES->E);
    if (ES->E->kind() != ExprKind::Call)
      Diags.error(ES->E->Loc, "expression result unused");
    return;
  }
  case StmtKind::Defer: {
    auto *DS = cast<DeferStmt>(S);
    checkCall(DS->Call);
    return;
  }
  case StmtKind::Panic: {
    auto *PS = cast<PanicStmt>(S);
    checkExpr(PS->Value);
    return;
  }
  case StmtKind::Break:
  case StmtKind::Continue:
    if (CurLoopDepth == 0)
      Diags.error(S->Loc, "break/continue outside loop");
    return;
  case StmtKind::Sink: {
    auto *SS = cast<SinkStmt>(S);
    const Type *T = checkExpr(SS->Value);
    if (!T->isScalar())
      Diags.error(SS->Value->Loc, "sink() takes int or bool, got " + T->str());
    return;
  }
  case StmtKind::Delete: {
    auto *DS = cast<DeleteStmt>(S);
    const Type *MT = checkExpr(DS->MapArg);
    const Type *KT = checkExpr(DS->KeyArg);
    if (!MT->isMap())
      Diags.error(DS->MapArg->Loc, "delete() takes a map, got " + MT->str());
    else
      requireAssignable(DS->KeyArg->Loc, MT->key(), KT, "delete key");
    return;
  }
  case StmtKind::Tcfree:
    // Instrumentation runs after Sema; nothing to check.
    return;
  }
}

void Sema::checkVarDeclStmt(VarDeclStmt *DS) {
  // Check initializers first: `x := f(x)` must see the outer x.
  for (Expr *Init : DS->Inits)
    checkExpr(Init);

  bool MultiValueInit = DS->Inits.size() == 1 && DS->Vars.size() > 1 &&
                        DS->Inits[0]->Ty->isTuple();
  if (MultiValueInit) {
    const auto &Elems = DS->Inits[0]->Ty->tupleElems();
    if (Elems.size() != DS->Vars.size()) {
      Diags.error(DS->Loc, "assignment count mismatch in ':='");
      return;
    }
    for (size_t I = 0; I < DS->Vars.size(); ++I) {
      DS->Vars[I]->Ty = Elems[I];
      declare(DS->Vars[I]);
      layoutVar(DS->Vars[I]);
    }
    return;
  }

  if (!DS->Inits.empty() && DS->Inits.size() != DS->Vars.size()) {
    Diags.error(DS->Loc, "assignment count mismatch in declaration");
    return;
  }
  for (size_t I = 0; I < DS->Vars.size(); ++I) {
    VarDecl *V = DS->Vars[I];
    if (DS->DeclaredTy) {
      V->Ty = DS->DeclaredTy;
      if (I < DS->Inits.size()) {
        adoptNil(DS->Inits[I], V->Ty);
        requireAssignable(DS->Inits[I]->Loc, V->Ty, DS->Inits[I]->Ty,
                          "initialization");
      }
    } else if (I < DS->Inits.size()) {
      const Type *InitTy = DS->Inits[I]->Ty;
      if (InitTy->isTuple() || InitTy->isVoid() || InitTy->isNil()) {
        Diags.error(DS->Inits[I]->Loc,
                    "cannot infer variable type from " + InitTy->str());
        InitTy = Prog.Types->getInt();
      }
      V->Ty = InitTy;
      // Range-loop temporaries must range over a slice; the parser's
      // desugaring cannot check this itself.
      if (V->Name.starts_with("__gofree_rng") && !V->Ty->isSlice())
        Diags.error(DS->Inits[I]->Loc,
                    "cannot range over " + V->Ty->str() +
                        " (MiniGo ranges over slices only)");
    } else {
      Diags.error(V->Loc, "variable '" + std::string(V->Name) + "' has no type");
      V->Ty = Prog.Types->getInt();
    }
    declare(V);
    layoutVar(V);
  }
}

void Sema::checkAssignStmt(AssignStmt *AS) {
  for (Expr *R : AS->Rhs)
    checkExpr(R);
  for (Expr *L : AS->Lhs) {
    // The blank identifier discards the corresponding value.
    if (auto *Id = dyn_cast<IdentExpr>(L); Id && Id->Name == "_") {
      Id->Ty = Prog.Types->getVoid();
      continue;
    }
    checkExpr(L);
    if (!isLvalue(L))
      Diags.error(L->Loc, isMapElement(L)
                              ? "cannot assign to a field of a map element"
                              : "cannot assign to this expression");
  }

  bool MultiValue = AS->Rhs.size() == 1 && AS->Lhs.size() > 1 &&
                    AS->Rhs[0]->Ty->isTuple();
  if (MultiValue) {
    const auto &Elems = AS->Rhs[0]->Ty->tupleElems();
    if (Elems.size() != AS->Lhs.size()) {
      Diags.error(AS->Loc, "assignment count mismatch");
      return;
    }
    for (size_t I = 0; I < AS->Lhs.size(); ++I)
      if (!AS->Lhs[I]->Ty->isVoid())
        requireAssignable(AS->Lhs[I]->Loc, AS->Lhs[I]->Ty, Elems[I],
                          "assignment");
    return;
  }
  if (AS->Lhs.size() != AS->Rhs.size()) {
    Diags.error(AS->Loc, "assignment count mismatch");
    return;
  }
  for (size_t I = 0; I < AS->Lhs.size(); ++I) {
    if (AS->Lhs[I]->Ty->isVoid())
      continue;
    adoptNil(AS->Rhs[I], AS->Lhs[I]->Ty);
    requireAssignable(AS->Lhs[I]->Loc, AS->Lhs[I]->Ty, AS->Rhs[I]->Ty,
                      "assignment");
  }
}

bool Sema::isAddressable(const Expr *E) const {
  switch (E->kind()) {
  case ExprKind::Ident:
    return true;
  case ExprKind::Deref:
    return true;
  case ExprKind::Field:
    return isAddressable(cast<FieldExpr>(E)->Base) ||
           cast<FieldExpr>(E)->ThroughPointer;
  case ExprKind::Index:
    // A slice element lives in the backing array; a map element has no
    // address (Go's rule), so neither it nor a field of it can be stored
    // through or have its address taken.
    return !cast<IndexExpr>(E)->IsMap;
  default:
    return false;
  }
}

bool Sema::isLvalue(const Expr *E) const {
  // `m[k] = v` replaces the map element whole.
  return isAddressable(E) || isa<IndexExpr>(E);
}

void Sema::requireAssignable(SourceLoc Loc, const Type *To, const Type *From,
                             const char *Ctx) {
  if (To == From)
    return;
  Diags.error(Loc, std::string("cannot use value of type ") + From->str() +
                       " as " + To->str() + " in " + Ctx);
}

bool Sema::foldConst(const Expr *E, int64_t &Out) const {
  if (const auto *IL = dyn_cast<IntLitExpr>(E)) {
    Out = IL->Value;
    return true;
  }
  if (const auto *UE = dyn_cast<UnaryExpr>(E)) {
    int64_t Sub;
    if (UE->Op == UnaryOp::Neg && foldConst(UE->Sub, Sub)) {
      Out = -Sub;
      return true;
    }
    return false;
  }
  if (const auto *BE = dyn_cast<BinaryExpr>(E)) {
    int64_t L, R;
    if (!foldConst(BE->Lhs, L) || !foldConst(BE->Rhs, R))
      return false;
    switch (BE->Op) {
    case BinaryOp::Add: Out = L + R; return true;
    case BinaryOp::Sub: Out = L - R; return true;
    case BinaryOp::Mul: Out = L * R; return true;
    case BinaryOp::Div:
      if (R == 0)
        return false;
      Out = L / R;
      return true;
    case BinaryOp::Mod:
      if (R == 0)
        return false;
      Out = L % R;
      return true;
    default:
      return false;
    }
  }
  return false;
}

const Type *Sema::checkCall(CallExpr *CE) {
  for (Expr *A : CE->Args)
    checkExpr(A);
  FuncDecl *Fn = Prog.findFunc(CE->Callee);
  if (!Fn) {
    Diags.error(CE->Loc, "undefined function '" + std::string(CE->Callee) + "'");
    CE->Ty = Prog.Types->getVoid();
    return CE->Ty;
  }
  CE->Fn = Fn;
  if (CE->Args.size() != Fn->Params.size()) {
    Diags.error(CE->Loc,
                "wrong number of arguments to '" + std::string(CE->Callee) + "'");
  } else {
    for (size_t I = 0; I < CE->Args.size(); ++I) {
      adoptNil(CE->Args[I], Fn->Params[I]->Ty);
      requireAssignable(CE->Args[I]->Loc, Fn->Params[I]->Ty, CE->Args[I]->Ty,
                        "call");
    }
  }
  if (Fn->Results.empty())
    CE->Ty = Prog.Types->getVoid();
  else if (Fn->Results.size() == 1)
    CE->Ty = Fn->Results[0];
  else
    CE->Ty = Prog.Types->getTuple(Fn->Results);
  return CE->Ty;
}

const Type *Sema::checkExpr(Expr *E) {
  const Type *IntTy = Prog.Types->getInt();
  const Type *BoolTy = Prog.Types->getBool();
  switch (E->kind()) {
  case ExprKind::IntLit:
    E->Ty = IntTy;
    return E->Ty;
  case ExprKind::BoolLit:
    E->Ty = BoolTy;
    return E->Ty;
  case ExprKind::NilLit:
    E->Ty = Prog.Types->getNil();
    return E->Ty;
  case ExprKind::Ident: {
    auto *Id = cast<IdentExpr>(E);
    Id->Decl = lookup(Id->Sym);
    if (!Id->Decl) {
      Diags.error(Id->Loc, "undefined variable '" + std::string(Id->Name) + "'");
      E->Ty = IntTy;
      return E->Ty;
    }
    E->Ty = Id->Decl->Ty;
    return E->Ty;
  }
  case ExprKind::Unary: {
    auto *UE = cast<UnaryExpr>(E);
    const Type *ST = checkExpr(UE->Sub);
    if (UE->Op == UnaryOp::Neg) {
      if (!ST->isInt())
        Diags.error(UE->Loc, "unary '-' requires int, got " + ST->str());
      E->Ty = IntTy;
    } else {
      if (!ST->isBool())
        Diags.error(UE->Loc, "unary '!' requires bool, got " + ST->str());
      E->Ty = BoolTy;
    }
    return E->Ty;
  }
  case ExprKind::Binary: {
    auto *BE = cast<BinaryExpr>(E);
    const Type *LT = checkExpr(BE->Lhs);
    const Type *RT = checkExpr(BE->Rhs);
    switch (BE->Op) {
    case BinaryOp::Add:
    case BinaryOp::Sub:
    case BinaryOp::Mul:
    case BinaryOp::Div:
    case BinaryOp::Mod:
      if (!LT->isInt() || !RT->isInt())
        Diags.error(BE->Loc, "arithmetic requires int operands");
      E->Ty = IntTy;
      return E->Ty;
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
      if (!LT->isInt() || !RT->isInt())
        Diags.error(BE->Loc, "ordering comparison requires int operands");
      E->Ty = BoolTy;
      return E->Ty;
    case BinaryOp::Eq:
    case BinaryOp::Ne:
      // nil compares against any pointer, slice or map.
      adoptNil(BE->Lhs, RT);
      adoptNil(BE->Rhs, LT);
      LT = BE->Lhs->Ty;
      RT = BE->Rhs->Ty;
      if (LT->isNil() || RT->isNil())
        Diags.error(BE->Loc, "cannot compare nil with this operand");
      else if (LT != RT ||
               !(LT->isScalar() || LT->isPointer() || LT->isMap() ||
                 LT->isSlice()))
        Diags.error(BE->Loc, "invalid operands to equality comparison");
      else if (LT->isSlice() &&
               BE->Lhs->kind() != ExprKind::NilLit &&
               BE->Rhs->kind() != ExprKind::NilLit)
        Diags.error(BE->Loc, "slices can only be compared to nil");
      E->Ty = BoolTy;
      return E->Ty;
    case BinaryOp::And:
    case BinaryOp::Or:
      if (!LT->isBool() || !RT->isBool())
        Diags.error(BE->Loc, "logical operator requires bool operands");
      E->Ty = BoolTy;
      return E->Ty;
    }
    E->Ty = IntTy;
    return E->Ty;
  }
  case ExprKind::Deref: {
    auto *DE = cast<DerefExpr>(E);
    const Type *ST = checkExpr(DE->Sub);
    if (!ST->isPointer()) {
      Diags.error(DE->Loc, "cannot dereference " + ST->str());
      E->Ty = IntTy;
      return E->Ty;
    }
    E->Ty = ST->elem();
    return E->Ty;
  }
  case ExprKind::AddrOf: {
    auto *AE = cast<AddrOfExpr>(E);
    const Type *ST = checkExpr(AE->Sub);
    if (!isAddressable(AE->Sub))
      Diags.error(AE->Loc, isMapElement(AE->Sub)
                               ? "cannot take the address of a map element"
                               : "cannot take the address of this expression");
    E->Ty = Prog.Types->getPointer(ST);
    return E->Ty;
  }
  case ExprKind::Field: {
    auto *FE = cast<FieldExpr>(E);
    const Type *BT = checkExpr(FE->Base);
    const Type *StructTy = BT;
    if (BT->isPointer()) {
      FE->ThroughPointer = true;
      StructTy = BT->elem();
    }
    if (!StructTy->isStruct()) {
      Diags.error(FE->Loc, "field access on non-struct " + BT->str());
      E->Ty = IntTy;
      return E->Ty;
    }
    FE->F = StructTy->findField(FE->FieldName);
    if (!FE->F) {
      Diags.error(FE->Loc, "no field '" + std::string(FE->FieldName) +
                               "' in " + StructTy->structName());
      E->Ty = IntTy;
      return E->Ty;
    }
    E->Ty = FE->F->Ty;
    return E->Ty;
  }
  case ExprKind::Index: {
    auto *IE = cast<IndexExpr>(E);
    const Type *BT = checkExpr(IE->Base);
    const Type *KT = checkExpr(IE->Idx);
    if (BT->isSlice()) {
      if (!KT->isInt())
        Diags.error(IE->Idx->Loc, "slice index must be int");
      E->Ty = BT->elem();
      return E->Ty;
    }
    if (BT->isMap()) {
      IE->IsMap = true;
      requireAssignable(IE->Idx->Loc, BT->key(), KT, "map index");
      E->Ty = BT->elem();
      return E->Ty;
    }
    Diags.error(IE->Loc, "cannot index " + BT->str());
    E->Ty = IntTy;
    return E->Ty;
  }
  case ExprKind::Call:
    return checkCall(cast<CallExpr>(E));
  case ExprKind::Make: {
    auto *ME = cast<MakeExpr>(E);
    if (ME->Len)
      if (!checkExpr(ME->Len)->isInt())
        Diags.error(ME->Len->Loc, "make() size must be int");
    if (ME->CapExpr)
      if (!checkExpr(ME->CapExpr)->isInt())
        Diags.error(ME->CapExpr->Loc, "make() capacity must be int");
    if (ME->MadeTy->isSlice()) {
      if (!ME->Len)
        Diags.error(ME->Loc, "make([]T) requires a length");
      const Expr *SizeExpr = ME->CapExpr ? ME->CapExpr : ME->Len;
      if (SizeExpr)
        ME->SizeIsConst = foldConst(SizeExpr, ME->ConstSize);
    } else if (ME->MadeTy->isMap()) {
      if (ME->CapExpr)
        Diags.error(ME->CapExpr->Loc, "make(map) takes no capacity");
      ME->SizeIsConst = !ME->Len || foldConst(ME->Len, ME->ConstSize);
    } else {
      Diags.error(ME->Loc, "make() requires a slice or map type");
    }
    ME->AllocId = Prog.NumAllocSites++;
    E->Ty = ME->MadeTy;
    return E->Ty;
  }
  case ExprKind::New: {
    auto *NE = cast<NewExpr>(E);
    if (NE->AllocTy->isStruct() && NE->AllocTy->size() == 0)
      Diags.error(NE->Loc,
                  "new() of undefined struct '" + NE->AllocTy->str() + "'");
    NE->AllocId = Prog.NumAllocSites++;
    E->Ty = Prog.Types->getPointer(NE->AllocTy);
    return E->Ty;
  }
  case ExprKind::Composite: {
    auto *CE = cast<CompositeExpr>(E);
    Type *StructTy = Prog.Types->findStruct(CE->TypeName);
    if (!StructTy || StructTy->size() == 0) {
      Diags.error(CE->Loc, "undefined struct '" + std::string(CE->TypeName) + "'");
      E->Ty = IntTy;
      return E->Ty;
    }
    CE->StructTy = StructTy;
    CE->InitFields = Prog.Nodes.allocateList<const Field *>(CE->Inits.size());
    for (size_t I = 0; I < CE->Inits.size(); ++I) {
      auto [FieldName, Init] = CE->Inits[I];
      const Field *F = StructTy->findField(FieldName);
      CE->InitFields[I] = F;
      const Type *IT = checkExpr(Init);
      if (!F) {
        Diags.error(Init->Loc, "no field '" + std::string(FieldName) +
                                   "' in " + StructTy->structName());
      } else {
        adoptNil(Init, F->Ty);
        requireAssignable(Init->Loc, F->Ty, Init->Ty, "composite literal");
      }
      (void)IT;
    }
    // Every composite literal gets a site id: &T{} is a real allocation
    // site; a by-value literal uses its id for the interpreter's reusable
    // per-site temporary storage.
    CE->AllocId = Prog.NumAllocSites++;
    E->Ty = CE->TakeAddr ? Prog.Types->getPointer(StructTy)
                         : static_cast<const Type *>(StructTy);
    return E->Ty;
  }
  case ExprKind::Len:
  case ExprKind::Cap: {
    Expr *Sub = E->kind() == ExprKind::Len ? cast<LenExpr>(E)->Sub
                                           : cast<CapExpr>(E)->Sub;
    const Type *ST = checkExpr(Sub);
    if (!ST->isSlice() && !(E->kind() == ExprKind::Len && ST->isMap()))
      Diags.error(E->Loc, "len/cap requires a slice (or len of a map)");
    E->Ty = IntTy;
    return E->Ty;
  }
  case ExprKind::Slicing: {
    auto *SE = cast<SlicingExpr>(E);
    const Type *BT = checkExpr(SE->Base);
    if (SE->Lo && !checkExpr(SE->Lo)->isInt())
      Diags.error(SE->Lo->Loc, "slice bound must be int");
    if (SE->Hi && !checkExpr(SE->Hi)->isInt())
      Diags.error(SE->Hi->Loc, "slice bound must be int");
    if (!BT->isSlice()) {
      Diags.error(SE->Loc, "cannot slice " + BT->str());
      E->Ty = IntTy;
      return E->Ty;
    }
    E->Ty = BT;
    return E->Ty;
  }
  case ExprKind::CopyFn: {
    auto *CE = cast<CopyExpr>(E);
    const Type *DT = checkExpr(CE->Dst);
    const Type *ST = checkExpr(CE->Src);
    if (!DT->isSlice() || DT != ST)
      Diags.error(CE->Loc, "copy() requires two slices of the same type");
    E->Ty = IntTy;
    return E->Ty;
  }
  case ExprKind::Append: {
    auto *AE = cast<AppendExpr>(E);
    const Type *ST = checkExpr(AE->SliceArg);
    const Type *VT = checkExpr(AE->Value);
    if (!ST->isSlice()) {
      Diags.error(AE->Loc, "append requires a slice, got " + ST->str());
      E->Ty = IntTy;
      return E->Ty;
    }
    adoptNil(AE->Value, ST->elem());
    requireAssignable(AE->Value->Loc, ST->elem(), AE->Value->Ty, "append");
    (void)VT;
    AE->AllocId = Prog.NumAllocSites++;
    E->Ty = ST;
    return E->Ty;
  }
  }
  E->Ty = IntTy;
  return E->Ty;
}
