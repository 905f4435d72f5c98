//===- interp/Interp.cpp - MiniGo tree-walking interpreter ----------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "support/GoArith.h"

#include <algorithm>
#include <cstring>

using namespace gofree;
using namespace gofree::interp;
using namespace gofree::minigo;

//===----------------------------------------------------------------------===//
// FrameArena
//===----------------------------------------------------------------------===//

uintptr_t FrameArena::allocate(size_t Bytes) {
  Bytes = (Bytes + 7) & ~(size_t)7;
  if (Slabs.empty() || Used + Bytes > Slabs.back().second) {
    size_t SlabSize = Slabs.empty() ? 4096 : Slabs.back().second * 2;
    if (SlabSize < Bytes)
      SlabSize = Bytes;
    if (SlabSize > (1u << 20) && SlabSize > Bytes)
      SlabSize = std::max<size_t>(1u << 20, Bytes);
    Slabs.emplace_back(std::make_unique<char[]>(SlabSize), SlabSize);
    Used = 0;
  }
  uintptr_t Addr = reinterpret_cast<uintptr_t>(Slabs.back().first.get()) + Used;
  Used += Bytes;
  std::memset(reinterpret_cast<void *>(Addr), 0, Bytes);
  return Addr;
}

//===----------------------------------------------------------------------===//
// Construction and roots
//===----------------------------------------------------------------------===//

Interp::Interp(const Program &Prog, const escape::ProgramAnalysis &Analysis,
               rt::Heap &Heap, InterpOptions Opts)
    : Prog(Prog), Analysis(Analysis), Heap(Heap), Opts(Opts) {
  // One scanner per interpreter: parallel workers each register their own,
  // and the collector walks all of them during the stopped world. Register
  // before the thread enters its MutatorScope (and deregister after it
  // leaves) -- both calls wait out in-flight GC cycles, which a registered
  // mutator must never block on.
  Heap.addRootScanner(this);
}

Interp::~Interp() { Heap.removeRootScanner(this); }

void gofree::interp::scanValueRoots(rt::Heap &H, TypeLower &Types,
                                    const Value &V) {
  if (!V.Ty)
    return;
  switch (V.Ty->kind()) {
  case Type::TK_Pointer:
  case Type::TK_Map:
    H.gcMarkAddr(V.A);
    return;
  case Type::TK_Slice:
    H.gcMarkAddr(V.S.Data);
    return;
  case Type::TK_Struct:
    if (V.A)
      H.gcScanRegion(V.A, Types.lower(V.Ty), V.Ty->size());
    return;
  default:
    return;
  }
}

void Interp::scanRoots(rt::Heap &H) {
  for (const auto &FP : Frames) {
    const Frame &F = *FP;
    // Variable slots, precisely via lowered pointer maps. Heap-boxed
    // ("moved") variables hold one raw pointer; the box itself carries the
    // full descriptor.
    for (const VarDecl *V : F.Fn->AllVars) {
      uintptr_t Slot = F.slotAddr(V);
      if (V->MovedToHeap)
        H.gcScanRegion(Slot, Types.rawPtr(), 8);
      else if (V->Ty && V->Ty->hasPointers())
        H.gcScanRegion(Slot, Types.lower(V->Ty), V->Ty->size());
    }
    for (const StackObj &O : F.StackObjs)
      H.gcScanRegion(O.Addr, O.Desc, O.Bytes);
    for (const DeferRecord &D : F.Defers)
      for (const Value &V : D.Args)
        scanValueRoots(H, Types, V);
  }
  for (const Value &V : TempRoots)
    scanValueRoots(H, Types, V);
}

//===----------------------------------------------------------------------===//
// Memory helpers
//===----------------------------------------------------------------------===//

Value Interp::loadValue(uintptr_t Addr, const Type *Ty) {
  return loadValueAt(Addr, Ty);
}

void Interp::storeValue(uintptr_t Addr, const Value &V) {
  storeValueAt(Heap, Types, Addr, V);
}

rt::MapCtx Interp::mapCtxFor(const Type *MapTy) {
  rt::MapCtx Ctx;
  Ctx.H = &Heap;
  Ctx.BucketArrayDesc = Types.mapBuckets(MapTy->elem());
  Ctx.ValueDesc = Types.lower(MapTy->elem());
  Ctx.ValueSize = MapTy->elem()->size();
  Ctx.CacheId = Opts.CacheId;
  Ctx.Opts = Opts.Map;
  return Ctx;
}

uintptr_t Interp::varAddr(const VarDecl *V) {
  Frame &F = *Frames.back();
  uintptr_t Slot = F.slotAddr(V);
  if (!V->MovedToHeap)
    return Slot;
  return readU64(Slot); // Boxed: the slot holds the heap cell's address.
}

void Interp::initVarSlot(const VarDecl *V) {
  Frame &F = *Frames.back();
  uintptr_t Slot = F.slotAddr(V);
  if (V->MovedToHeap) {
    // Go's "moved to heap": the variable's storage lives in a heap box; a
    // fresh box per declaration execution preserves per-iteration identity.
    uintptr_t Box = Heap.allocate(V->Ty->size(), Types.lower(V->Ty),
                                  rt::AllocCat::Other, Opts.CacheId);
    writeU64(Slot, Box);
    return;
  }
  std::memset(reinterpret_cast<void *>(Slot), 0, V->Ty->size());
}

Value Interp::fault(const std::string &Msg) {
  if (FaultMsg.empty())
    FaultMsg = Msg;
  return Value{};
}

Interp::Flow Interp::unwindStmt() {
  if (PanicUnwinding) {
    PanicUnwinding = false;
    return Flow::Panic;
  }
  return Flow::Fault;
}

bool Interp::burnFuel() {
  ++FuelUsed;
  // Simulated P-migration: rotate to the next thread cache.
  if (Opts.MigrationPeriod && FuelUsed % Opts.MigrationPeriod == 0)
    Opts.CacheId = (Opts.CacheId + 1) % Heap.options().NumCaches;
  if (FuelUsed <= Opts.MaxSteps)
    return true;
  Result.OutOfFuel = true;
  fault("step budget exhausted");
  return false;
}

//===----------------------------------------------------------------------===//
// Expression evaluation
//===----------------------------------------------------------------------===//

uintptr_t Interp::evalLvalueAddr(const Expr *E, const Type **TyOut) {
  *TyOut = E->Ty;
  switch (E->kind()) {
  case ExprKind::Ident: {
    const auto *Id = cast<IdentExpr>(E);
    assert(Id->Decl && "blank identifier has no address");
    return varAddr(Id->Decl);
  }
  case ExprKind::Deref: {
    Value V = evalExpr(cast<DerefExpr>(E)->Sub);
    if (interrupted())
      return 0;
    if (!V.A) {
      fault("nil pointer dereference");
      return 0;
    }
    return V.A;
  }
  case ExprKind::Field: {
    const auto *FE = cast<FieldExpr>(E);
    uintptr_t Base;
    if (FE->ThroughPointer) {
      Value V = evalExpr(FE->Base);
      if (interrupted())
        return 0;
      if (!V.A) {
        fault("nil pointer dereference");
        return 0;
      }
      Base = V.A;
    } else {
      const Type *BaseTy;
      Base = evalLvalueAddr(FE->Base, &BaseTy);
      if (interrupted())
        return 0;
    }
    return Base + FE->F->Offset;
  }
  case ExprKind::Index: {
    const auto *IE = cast<IndexExpr>(E);
    assert(!IE->IsMap && "map lvalues are handled by execAssign");
    Value Base = evalExpr(IE->Base);
    Value Idx = evalExpr(IE->Idx);
    if (interrupted())
      return 0;
    if (Idx.I < 0 || Idx.I >= Base.S.Len) {
      fault("slice index out of range");
      return 0;
    }
    return Base.S.Data + (uintptr_t)Idx.I * IE->Base->Ty->elem()->size();
  }
  default:
    assert(false && "not an lvalue");
    return 0;
  }
}

void Interp::noteStackAlloc(rt::AllocCat Cat, size_t Bytes) {
  Heap.stats().StackAllocCountByCat[(int)Cat].fetch_add(
      1, std::memory_order_relaxed);
  if (trace::TraceSink *T = Heap.traceSink())
    T->emit(trace::EventKind::StackAlloc, (uint8_t)Cat, Bytes);
}

Value Interp::evalMake(const MakeExpr *ME) {
  int64_t Len = 0, Cap = 0;
  if (ME->Len) {
    Len = evalExpr(ME->Len).I;
    if (interrupted())
      return Value{};
  }
  Cap = Len;
  if (ME->CapExpr) {
    Cap = evalExpr(ME->CapExpr).I;
    if (interrupted())
      return Value{};
  }
  bool OnStack = ME->AllocId < Analysis.SiteOnStack.size() &&
                 Analysis.SiteOnStack[ME->AllocId];

  if (ME->MadeTy->isSlice()) {
    if (Len < 0 || Cap < Len)
      return fault("make: invalid slice size");
    const Type *Elem = ME->MadeTy->elem();
    Value V;
    V.Ty = ME->MadeTy;
    V.S.Len = Len;
    V.S.Cap = Cap;
    if (OnStack) {
      assert(ME->SizeIsConst && Cap <= ME->ConstSize &&
             "stack slice exceeding its site size");
      Frame &F = *Frames.back();
      auto It = F.SiteMem.find(ME->AllocId);
      if (It != F.SiteMem.end()) {
        V.S.Data = It->second;
        std::memset(reinterpret_cast<void *>(V.S.Data), 0,
                    (size_t)ME->ConstSize * Elem->size());
      } else {
        size_t Bytes = (size_t)ME->ConstSize * Elem->size();
        V.S.Data = F.Arena.allocate(Bytes ? Bytes : 8);
        F.SiteMem[ME->AllocId] = V.S.Data;
        F.StackObjs.push_back({V.S.Data, Types.arrayOf(Elem), Bytes});
      }
      noteStackAlloc(rt::AllocCat::Slice, (size_t)ME->ConstSize * Elem->size());
    } else {
      V.S.Data = rt::sliceAllocArray(Heap, Types.arrayOf(Elem), Cap,
                                     Elem->size(), Opts.CacheId);
      if (!V.S.Data)
        return fault("make: invalid slice size");
    }
    return V;
  }

  // make(map[K]V[, hint])
  assert(ME->MadeTy->isMap() && "make of non-slice non-map");
  Value V;
  V.Ty = ME->MadeTy;
  int64_t Hint = Len;
  if (OnStack) {
    Frame &F = *Frames.back();
    int64_t NBuckets = rt::mapBucketsForHint(Hint);
    size_t BucketBytes =
        rt::mapBucketBytes(NBuckets, ME->MadeTy->elem()->size());
    auto It = F.SiteMem.find(ME->AllocId);
    uintptr_t Block;
    if (It != F.SiteMem.end()) {
      Block = It->second;
      std::memset(reinterpret_cast<void *>(Block), 0,
                  rt::HMapHeaderSize + BucketBytes);
    } else {
      Block = F.Arena.allocate(rt::HMapHeaderSize + BucketBytes);
      F.SiteMem[ME->AllocId] = Block;
      F.StackObjs.push_back({Block, Types.hmap(), rt::HMapHeaderSize});
      F.StackObjs.push_back({Block + rt::HMapHeaderSize,
                             Types.mapBuckets(ME->MadeTy->elem()),
                             BucketBytes});
    }
    rt::mapInit(Block, NBuckets, Block + rt::HMapHeaderSize,
                ME->MadeTy->elem()->size());
    V.A = Block;
    noteStackAlloc(rt::AllocCat::Map, rt::HMapHeaderSize + BucketBytes);
  } else {
    V.A = rt::mapMakeHeap(mapCtxFor(ME->MadeTy), Types.hmap(), Hint);
  }
  return V;
}

Value Interp::evalComposite(const CompositeExpr *CE) {
  Frame &F = *Frames.back();
  const Type *StructTy = CE->StructTy;
  size_t Bytes = StructTy->size();
  uintptr_t Storage;
  bool OnStack = !CE->TakeAddr || (CE->AllocId < Analysis.SiteOnStack.size() &&
                                   Analysis.SiteOnStack[CE->AllocId]);
  if (OnStack) {
    auto It = F.SiteMem.find(CE->AllocId);
    if (It != F.SiteMem.end()) {
      Storage = It->second;
      std::memset(reinterpret_cast<void *>(Storage), 0, Bytes);
    } else {
      Storage = F.Arena.allocate(Bytes ? Bytes : 8);
      F.SiteMem[CE->AllocId] = Storage;
      F.StackObjs.push_back({Storage, Types.lower(StructTy), Bytes});
    }
    if (CE->TakeAddr)
      noteStackAlloc(rt::AllocCat::Other, Bytes);
  } else {
    Storage = Heap.allocate(Bytes, Types.lower(StructTy), rt::AllocCat::Other,
                            Opts.CacheId);
  }

  // Root the object while initializers run (they may allocate).
  size_t Mark = tempMark();
  Value Obj;
  Obj.Ty = CE->TakeAddr ? CE->Ty : StructTy;
  Obj.A = Storage;
  if (CE->TakeAddr)
    pushTemp(Obj);
  for (size_t I = 0; I < CE->Inits.size(); ++I) {
    Value Init = evalExpr(CE->Inits[I].second);
    if (interrupted()) {
      popTemps(Mark);
      return Value{};
    }
    storeValue(Storage + CE->InitFields[I]->Offset, Init);
  }
  popTemps(Mark);
  return Obj;
}

Value Interp::evalAppend(const AppendExpr *AE) {
  size_t Mark = tempMark();
  Value S = evalExpr(AE->SliceArg);
  if (interrupted())
    return Value{};
  pushTemp(S);
  Value Elem = evalExpr(AE->Value);
  if (interrupted()) {
    popTemps(Mark);
    return Value{};
  }
  pushTemp(Elem);
  const Type *ElemTy = AE->SliceArg->Ty->elem();
  if (rt::sliceGrowForAppend(Heap, S.S, Types.arrayOf(ElemTy), ElemTy->size(),
                             Opts.CacheId, Opts.Slice) ==
      rt::SliceGrow::Overflow) {
    popTemps(Mark);
    return fault("growslice: cap out of range");
  }
  storeValue(S.S.Data + (uintptr_t)S.S.Len * ElemTy->size(), Elem);
  ++S.S.Len;
  popTemps(Mark);
  return S;
}

Value Interp::evalExpr(const Expr *E) {
  if (!burnFuel())
    return Value{};
  switch (E->kind()) {
  case ExprKind::IntLit: {
    Value V;
    V.Ty = E->Ty;
    V.I = cast<IntLitExpr>(E)->Value;
    return V;
  }
  case ExprKind::BoolLit: {
    Value V;
    V.Ty = E->Ty;
    V.I = cast<BoolLitExpr>(E)->Value ? 1 : 0;
    return V;
  }
  case ExprKind::NilLit: {
    // Sema gave the literal its concrete nilable type; the zero value of
    // every nilable type is all-zero bits.
    Value V;
    V.Ty = E->Ty;
    return V;
  }
  case ExprKind::Ident: {
    const auto *Id = cast<IdentExpr>(E);
    assert(Id->Decl && "reading the blank identifier");
    return loadValue(varAddr(Id->Decl), Id->Decl->Ty);
  }
  case ExprKind::Unary: {
    const auto *UE = cast<UnaryExpr>(E);
    Value V = evalExpr(UE->Sub);
    if (interrupted())
      return Value{};
    V.Ty = E->Ty;
    // Go negation wraps: -INT64_MIN is INT64_MIN, not UB.
    V.I = UE->Op == UnaryOp::Neg ? arith::wrapNeg(V.I) : !V.I;
    return V;
  }
  case ExprKind::Binary: {
    const auto *BE = cast<BinaryExpr>(E);
    // Short-circuit logic first.
    if (BE->Op == BinaryOp::And || BE->Op == BinaryOp::Or) {
      Value L = evalExpr(BE->Lhs);
      if (interrupted())
        return Value{};
      if ((BE->Op == BinaryOp::And && !L.I) ||
          (BE->Op == BinaryOp::Or && L.I)) {
        L.Ty = E->Ty;
        return L;
      }
      Value R = evalExpr(BE->Rhs);
      R.Ty = E->Ty;
      return R;
    }
    Value L = evalExpr(BE->Lhs);
    if (interrupted())
      return Value{};
    Value R = evalExpr(BE->Rhs);
    if (interrupted())
      return Value{};
    Value V;
    V.Ty = E->Ty;
    switch (BE->Op) {
    // Add/Sub/Mul wrap in two's complement and Div/Mod handle the
    // INT64_MIN / -1 edge, per the Go spec (see support/GoArith.h).
    case BinaryOp::Add: V.I = arith::wrapAdd(L.I, R.I); break;
    case BinaryOp::Sub: V.I = arith::wrapSub(L.I, R.I); break;
    case BinaryOp::Mul: V.I = arith::wrapMul(L.I, R.I); break;
    case BinaryOp::Div: {
      bool DivZero = false;
      V.I = arith::goDiv(L.I, R.I, DivZero);
      if (DivZero)
        return fault("integer divide by zero");
      break;
    }
    case BinaryOp::Mod: {
      bool DivZero = false;
      V.I = arith::goMod(L.I, R.I, DivZero);
      if (DivZero)
        return fault("integer divide by zero");
      break;
    }
    case BinaryOp::Lt: V.I = L.I < R.I; break;
    case BinaryOp::Le: V.I = L.I <= R.I; break;
    case BinaryOp::Gt: V.I = L.I > R.I; break;
    case BinaryOp::Ge: V.I = L.I >= R.I; break;
    case BinaryOp::Eq:
    case BinaryOp::Ne: {
      bool Equal;
      if (BE->Lhs->Ty->isScalar())
        Equal = L.I == R.I;
      else if (BE->Lhs->Ty->isSlice())
        // Only nil comparisons pass Sema; a made slice is never nil.
        Equal = L.S.Data == R.S.Data && L.S.Len == R.S.Len &&
                L.S.Cap == R.S.Cap;
      else
        Equal = L.A == R.A;
      V.I = BE->Op == BinaryOp::Eq ? Equal : !Equal;
      break;
    }
    case BinaryOp::And:
    case BinaryOp::Or:
      assert(false && "handled above");
      break;
    }
    return V;
  }
  case ExprKind::Deref: {
    Value P = evalExpr(cast<DerefExpr>(E)->Sub);
    if (interrupted())
      return Value{};
    if (!P.A)
      return fault("nil pointer dereference");
    return loadValue(P.A, E->Ty);
  }
  case ExprKind::AddrOf: {
    const Type *Ty;
    uintptr_t Addr = evalLvalueAddr(cast<AddrOfExpr>(E)->Sub, &Ty);
    if (interrupted())
      return Value{};
    Value V;
    V.Ty = E->Ty;
    V.A = Addr;
    return V;
  }
  case ExprKind::Field: {
    const auto *FE = cast<FieldExpr>(E);
    uintptr_t Base;
    if (FE->ThroughPointer) {
      Value P = evalExpr(FE->Base);
      if (interrupted())
        return Value{};
      if (!P.A)
        return fault("nil pointer dereference");
      Base = P.A;
    } else {
      Value S = evalExpr(FE->Base);
      if (interrupted())
        return Value{};
      Base = S.A;
    }
    return loadValue(Base + FE->F->Offset, E->Ty);
  }
  case ExprKind::Index: {
    const auto *IE = cast<IndexExpr>(E);
    if (IE->IsMap) {
      Value M = evalExpr(IE->Base);
      if (interrupted())
        return Value{};
      Value K = evalExpr(IE->Idx);
      if (interrupted())
        return Value{};
      const Type *ValTy = E->Ty;
      // Reading from a nil map yields the zero value, like Go.
      MapValueBuf Buf(ValTy->size());
      if (M.A)
        rt::mapLookup(M.A, K.I, Buf.data(), ValTy->size());
      if (ValTy->isStruct()) {
        // Copy into per-site-free temp storage is unnecessary: map values
        // of struct type are copied straight out of the buffer into the
        // destination by storeValue; hand out a frame-arena copy.
        uintptr_t Tmp = Frames.back()->Arena.allocate(ValTy->size());
        std::memcpy(reinterpret_cast<void *>(Tmp), Buf.data(), ValTy->size());
        Value V;
        V.Ty = ValTy;
        V.A = Tmp;
        return V;
      }
      return loadValue(Buf.addr(), ValTy);
    }
    Value Base = evalExpr(IE->Base);
    if (interrupted())
      return Value{};
    Value Idx = evalExpr(IE->Idx);
    if (interrupted())
      return Value{};
    if (Idx.I < 0 || Idx.I >= Base.S.Len)
      return fault("slice index out of range");
    return loadValue(Base.S.Data + (uintptr_t)Idx.I * E->Ty->size(), E->Ty);
  }
  case ExprKind::Call: {
    const auto *CE = cast<CallExpr>(E);
    std::vector<Value> Results;
    size_t Mark = tempMark();
    std::vector<Value> Args;
    Args.reserve(CE->Args.size());
    for (const Expr *A : CE->Args) {
      Value V = evalExpr(A);
      if (interrupted()) {
        popTemps(Mark);
        return Value{};
      }
      pushTemp(V); // Later arguments may allocate and trigger GC.
      Args.push_back(V);
    }
    Flow F = callFunction(CE->Fn, std::move(Args), &Results);
    popTemps(Mark);
    if (F == Flow::Panic)
      PanicUnwinding = true; // Unwind to the nearest statement.
    if (F != Flow::Normal)
      return Value{};
    if (Results.empty()) {
      Value V;
      V.Ty = E->Ty;
      return V;
    }
    return Results[0];
  }
  case ExprKind::Make:
    return evalMake(cast<MakeExpr>(E));
  case ExprKind::New: {
    const auto *NE = cast<NewExpr>(E);
    bool OnStack = NE->AllocId < Analysis.SiteOnStack.size() &&
                   Analysis.SiteOnStack[NE->AllocId];
    uintptr_t Storage;
    size_t Bytes = NE->AllocTy->size();
    if (OnStack) {
      Frame &F = *Frames.back();
      auto It = F.SiteMem.find(NE->AllocId);
      if (It != F.SiteMem.end()) {
        Storage = It->second;
        std::memset(reinterpret_cast<void *>(Storage), 0, Bytes);
      } else {
        Storage = F.Arena.allocate(Bytes ? Bytes : 8);
        F.SiteMem[NE->AllocId] = Storage;
        F.StackObjs.push_back({Storage, Types.lower(NE->AllocTy), Bytes});
      }
      noteStackAlloc(rt::AllocCat::Other, Bytes);
    } else {
      Storage = Heap.allocate(Bytes, Types.lower(NE->AllocTy),
                              rt::AllocCat::Other, Opts.CacheId);
    }
    Value V;
    V.Ty = E->Ty;
    V.A = Storage;
    return V;
  }
  case ExprKind::Composite:
    return evalComposite(cast<CompositeExpr>(E));
  case ExprKind::Len: {
    Value S = evalExpr(cast<LenExpr>(E)->Sub);
    if (interrupted())
      return Value{};
    Value V;
    V.Ty = E->Ty;
    if (cast<LenExpr>(E)->Sub->Ty->isMap())
      V.I = S.A ? rt::mapLen(S.A) : 0;
    else
      V.I = S.S.Len;
    return V;
  }
  case ExprKind::Cap: {
    Value S = evalExpr(cast<CapExpr>(E)->Sub);
    if (interrupted())
      return Value{};
    Value V;
    V.Ty = E->Ty;
    V.I = S.S.Cap;
    return V;
  }
  case ExprKind::Append:
    return evalAppend(cast<AppendExpr>(E));
  case ExprKind::Slicing: {
    const auto *SE = cast<SlicingExpr>(E);
    Value Base = evalExpr(SE->Base);
    if (interrupted())
      return Value{};
    int64_t Lo = 0, Hi = Base.S.Len;
    if (SE->Lo) {
      Lo = evalExpr(SE->Lo).I;
      if (interrupted())
        return Value{};
    }
    if (SE->Hi) {
      Hi = evalExpr(SE->Hi).I;
      if (interrupted())
        return Value{};
    }
    if (Lo < 0 || Lo > Hi || Hi > Base.S.Cap)
      return fault("slice bounds out of range");
    Value V;
    V.Ty = E->Ty;
    size_t ElemSize = E->Ty->elem()->size();
    V.S.Data = Base.S.Data + (uintptr_t)Lo * ElemSize;
    V.S.Len = Hi - Lo;
    V.S.Cap = Base.S.Cap - Lo;
    return V;
  }
  case ExprKind::CopyFn: {
    const auto *CE = cast<CopyExpr>(E);
    Value Dst = evalExpr(CE->Dst);
    if (interrupted())
      return Value{};
    Value Src = evalExpr(CE->Src);
    if (interrupted())
      return Value{};
    int64_t N = std::min(Dst.S.Len, Src.S.Len);
    size_t ElemSize = CE->Dst->Ty->elem()->size();
    if (N > 0) {
      Heap.gcCopyBarrier(Dst.S.Data, Src.S.Data, (size_t)N * ElemSize,
                         Types.arrayOf(CE->Dst->Ty->elem()));
      rt::copyWordsRelaxed(Dst.S.Data, Src.S.Data, (size_t)N * ElemSize);
    }
    Value V;
    V.Ty = E->Ty;
    V.I = N;
    return V;
  }
  }
  assert(false && "unhandled expression kind");
  return Value{};
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

Interp::Flow Interp::execVarDecl(const VarDeclStmt *DS) {
  bool MultiValue = DS->Inits.size() == 1 && DS->Vars.size() > 1;
  if (MultiValue) {
    const auto *Call = cast<CallExpr>(DS->Inits[0]);
    size_t Mark = tempMark();
    std::vector<Value> Args;
    for (const Expr *A : Call->Args) {
      Value V = evalExpr(A);
      if (interrupted())
        return unwindStmt();
      pushTemp(V);
      Args.push_back(V);
    }
    std::vector<Value> Results;
    Flow F = callFunction(Call->Fn, std::move(Args), &Results);
    popTemps(Mark);
    if (F != Flow::Normal)
      return F;
    for (Value &V : Results)
      pushTemp(V); // initVarSlot may allocate boxes and trigger GC.
    for (size_t I = 0; I < DS->Vars.size(); ++I) {
      initVarSlot(DS->Vars[I]);
      if (interrupted())
        return unwindStmt();
      storeValue(varAddr(DS->Vars[I]), Results[I]);
    }
    popTemps(Mark);
    return Flow::Normal;
  }
  for (size_t I = 0; I < DS->Vars.size(); ++I) {
    if (I < DS->Inits.size()) {
      Value V = evalExpr(DS->Inits[I]);
      if (interrupted())
        return unwindStmt();
      size_t Mark = tempMark();
      pushTemp(V);
      initVarSlot(DS->Vars[I]);
      popTemps(Mark);
      if (interrupted())
        return unwindStmt();
      storeValue(varAddr(DS->Vars[I]), V);
    } else {
      initVarSlot(DS->Vars[I]);
      if (interrupted())
        return unwindStmt();
    }
  }
  return Flow::Normal;
}

Interp::Flow Interp::execAssign(const AssignStmt *AS) {
  // Helper storing one value into one lvalue (including map elements).
  auto StoreInto = [&](const Expr *Lhs, const Value &V) -> bool {
    if (const auto *Id = dyn_cast<IdentExpr>(Lhs); Id && !Id->Decl)
      return true; // Blank identifier discards.
    if (const auto *IE = dyn_cast<IndexExpr>(Lhs); IE && IE->IsMap) {
      Value M = evalExpr(IE->Base);
      if (interrupted())
        return false;
      if (!M.A) {
        fault("assignment to entry in nil map");
        return false;
      }
      Value K = evalExpr(IE->Idx);
      if (interrupted())
        return false;
      size_t Mark = tempMark();
      pushTemp(M);
      pushTemp(V);
      MapValueBuf Buf(V.Ty->size());
      Value Tmp = V;
      storeValue(Buf.addr(), Tmp);
      rt::mapAssign(mapCtxFor(IE->Base->Ty), M.A, K.I, Buf.data());
      popTemps(Mark);
      return true;
    }
    const Type *Ty;
    uintptr_t Addr = evalLvalueAddr(Lhs, &Ty);
    if (interrupted())
      return false;
    storeValue(Addr, V);
    return true;
  };

  bool MultiValue = AS->Rhs.size() == 1 && AS->Lhs.size() > 1;
  if (MultiValue) {
    const auto *Call = cast<CallExpr>(AS->Rhs[0]);
    size_t Mark = tempMark();
    std::vector<Value> Args;
    for (const Expr *A : Call->Args) {
      Value V = evalExpr(A);
      if (interrupted())
        return unwindStmt();
      pushTemp(V);
      Args.push_back(V);
    }
    std::vector<Value> Results;
    Flow F = callFunction(Call->Fn, std::move(Args), &Results);
    popTemps(Mark);
    if (F != Flow::Normal)
      return F;
    for (Value &V : Results)
      pushTemp(V);
    for (size_t I = 0; I < AS->Lhs.size(); ++I)
      if (!StoreInto(AS->Lhs[I], Results[I])) {
        popTemps(Mark);
        // A panic raised while evaluating the lvalue must unwind as a
        // panic (running this frame's defers), not as a fault.
        return unwindStmt();
      }
    popTemps(Mark);
    return Flow::Normal;
  }
  for (size_t I = 0; I < AS->Lhs.size(); ++I) {
    Value V = evalExpr(AS->Rhs[I]);
    if (interrupted())
      return unwindStmt();
    if (!StoreInto(AS->Lhs[I], V))
      return unwindStmt();
  }
  return Flow::Normal;
}

Interp::Flow Interp::execTcfree(const TcfreeStmt *TS) {
  uintptr_t Addr = varAddr(TS->Var);
  switch (TS->FreeKind) {
  case TcfreeKind::Slice: {
    rt::SliceHeader Hdr;
    std::memcpy(&Hdr, reinterpret_cast<void *>(Addr), sizeof(Hdr));
    rt::tcfreeSlice(Heap, Hdr, Opts.CacheId);
    return Flow::Normal;
  }
  case TcfreeKind::Map:
    rt::tcfreeMap(Heap, readU64(Addr), Opts.CacheId);
    return Flow::Normal;
  case TcfreeKind::Object:
    Heap.tcfreeObject(readU64(Addr), Opts.CacheId,
                      rt::FreeSource::TcfreeObject);
    return Flow::Normal;
  }
  return Flow::Normal;
}

Interp::Flow Interp::execStmt(const Stmt *S) {
  if (!burnFuel())
    return Flow::Fault;
  switch (S->kind()) {
  case StmtKind::Block:
    return execBlock(cast<BlockStmt>(S));
  case StmtKind::VarDecl:
    return execVarDecl(cast<VarDeclStmt>(S));
  case StmtKind::Assign:
    return execAssign(cast<AssignStmt>(S));
  case StmtKind::If: {
    const auto *IS = cast<IfStmt>(S);
    Value C = evalExpr(IS->Cond);
    if (interrupted())
      return unwindStmt();
    if (C.I)
      return execBlock(IS->Then);
    if (IS->Else)
      return execStmt(IS->Else);
    return Flow::Normal;
  }
  case StmtKind::For: {
    const auto *FS = cast<ForStmt>(S);
    if (FS->Init) {
      Flow F = execStmt(FS->Init);
      if (F != Flow::Normal)
        return F;
    }
    while (true) {
      if (!burnFuel())
        return Flow::Fault;
      if (FS->Cond) {
        Value C = evalExpr(FS->Cond);
        if (interrupted())
          return unwindStmt();
        if (!C.I)
          break;
      }
      Flow F = execBlock(FS->Body);
      if (F == Flow::Break)
        break;
      if (F == Flow::Return || F == Flow::Panic || F == Flow::Fault)
        return F;
      if (FS->Post) {
        F = execStmt(FS->Post);
        if (F != Flow::Normal)
          return F;
      }
    }
    return Flow::Normal;
  }
  case StmtKind::Return: {
    const auto *RS = cast<ReturnStmt>(S);
    std::vector<Value> Values;
    const FuncDecl *Fn = Frames.back()->Fn;
    if (RS->Values.size() == 1 && Fn->Results.size() > 1) {
      // return f() forwarding multiple results.
      const auto *Call = cast<CallExpr>(RS->Values[0]);
      size_t Mark = tempMark();
      std::vector<Value> Args;
      for (const Expr *A : Call->Args) {
        Value V = evalExpr(A);
        if (interrupted())
          return unwindStmt();
        pushTemp(V);
        Args.push_back(V);
      }
      Flow F = callFunction(Call->Fn, std::move(Args), &Values);
      popTemps(Mark);
      if (F != Flow::Normal)
        return F;
    } else {
      for (const Expr *V : RS->Values) {
        Values.push_back(evalExpr(V));
        if (interrupted())
          return unwindStmt();
      }
    }
    PendingReturn = std::move(Values);
    return Flow::Return;
  }
  case StmtKind::ExprStmt:
    evalExpr(cast<ExprStmt>(S)->E);
    return interrupted() ? unwindStmt() : Flow::Normal;
  case StmtKind::Defer: {
    // Arguments are evaluated now (Go semantics) and kept alive by the
    // frame's defer list; temp-root each one while the next evaluates.
    const auto *DS = cast<DeferStmt>(S);
    DeferRecord Rec;
    Rec.Fn = DS->Call->Fn;
    size_t Mark = tempMark();
    for (const Expr *A : DS->Call->Args) {
      Value V = evalExpr(A);
      if (interrupted()) {
        popTemps(Mark);
        return unwindStmt();
      }
      pushTemp(V);
      Rec.Args.push_back(V);
    }
    Frames.back()->Defers.push_back(std::move(Rec));
    popTemps(Mark);
    return Flow::Normal;
  }
  case StmtKind::Panic: {
    const auto *PS = cast<PanicStmt>(S);
    Value V = evalExpr(PS->Value);
    if (interrupted())
      return unwindStmt();
    PendingPanic = V.I;
    Result.Panicked = true;
    Result.PanicValue = V.I;
    return Flow::Panic;
  }
  case StmtKind::Break:
    return Flow::Break;
  case StmtKind::Continue:
    return Flow::Continue;
  case StmtKind::Sink: {
    Value V = evalExpr(cast<SinkStmt>(S)->Value);
    if (interrupted())
      return unwindStmt();
    Result.Checksum = Result.Checksum * 1099511628211ULL ^ (uint64_t)V.I;
    ++Result.SinkCount;
    return Flow::Normal;
  }
  case StmtKind::Delete: {
    const auto *DS = cast<DeleteStmt>(S);
    Value M = evalExpr(DS->MapArg);
    if (interrupted())
      return unwindStmt();
    Value K = evalExpr(DS->KeyArg);
    if (interrupted())
      return unwindStmt();
    if (M.A)
      rt::mapDelete(M.A, K.I);
    return Flow::Normal;
  }
  case StmtKind::Tcfree:
    return execTcfree(cast<TcfreeStmt>(S));
  }
  assert(false && "unhandled statement kind");
  return Flow::Fault;
}

Interp::Flow Interp::execBlock(const BlockStmt *B) {
  for (const Stmt *S : B->Stmts) {
    Flow F = execStmt(S);
    if (F != Flow::Normal)
      return F;
  }
  return Flow::Normal;
}

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

void Interp::runDefers(Frame &F) {
  while (!F.Defers.empty()) {
    DeferRecord Rec = std::move(F.Defers.back());
    F.Defers.pop_back();
    size_t Mark = tempMark();
    for (const Value &V : Rec.Args)
      pushTemp(V);
    std::vector<Value> Ignored;
    callFunction(Rec.Fn, Rec.Args, &Ignored);
    popTemps(Mark);
    if (faulted())
      return;
  }
}

Interp::Flow Interp::callFunction(const FuncDecl *Fn, std::vector<Value> Args,
                                  std::vector<Value> *Results) {
  if (!Fn) {
    fault("call to unresolved function");
    return Flow::Fault;
  }
  if (Frames.size() >= Opts.MaxFrames) {
    Result.OutOfFuel = true;
    fault("call stack overflow");
    return Flow::Fault;
  }
  auto FramePtr = std::make_unique<Frame>();
  Frame &F = *FramePtr;
  F.Fn = Fn;
  F.Slots.assign(Fn->FrameSize, 0);
  Frames.push_back(std::move(FramePtr));

  assert(Args.size() == Fn->Params.size() && "argument count mismatch");
  for (size_t I = 0; I < Args.size(); ++I) {
    initVarSlot(Fn->Params[I]); // May heap-box escaped parameters.
    if (interrupted())
      break;
    storeValue(varAddr(Fn->Params[I]), Args[I]);
  }

  Flow F1 = faulted() ? Flow::Fault : execBlock(Fn->Body);

  // Capture return values before defers can clobber PendingReturn.
  std::vector<Value> Returned;
  if (F1 == Flow::Return)
    Returned = std::move(PendingReturn);
  else if (F1 == Flow::Normal && !Fn->Results.empty()) {
    fault("missing return in '" + Fn->Name + "'");
    F1 = Flow::Fault;
  }

  if (F1 != Flow::Fault) {
    size_t Mark = tempMark();
    for (const Value &V : Returned)
      pushTemp(V);
    runDefers(*Frames.back());
    popTemps(Mark);
    if (faulted() && F1 != Flow::Panic)
      F1 = Flow::Fault;
  }

  // Struct-typed return values reference storage inside the dying frame
  // (its slots or its temp arena); copy them into the caller's frame arena
  // before the callee frame is destroyed.
  if (Frames.size() >= 2) {
    Frame &Caller = *Frames[Frames.size() - 2];
    for (Value &V : Returned) {
      if (!V.Ty || !V.Ty->isStruct() || !V.A)
        continue;
      uintptr_t Copy = Caller.Arena.allocate(V.Ty->size());
      std::memcpy(reinterpret_cast<void *>(Copy),
                  reinterpret_cast<void *>(V.A), V.Ty->size());
      V.A = Copy;
    }
  }

  Frames.pop_back();
  if (Results)
    *Results = std::move(Returned);
  if (F1 == Flow::Return || F1 == Flow::Normal)
    return Flow::Normal;
  return F1; // Panic or Fault propagates.
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

RunResult Interp::run(const std::string &Entry,
                      const std::vector<int64_t> &Args) {
  Result = RunResult{};
  FaultMsg.clear();
  FuelUsed = 0;
  Frames.clear();
  TempRoots.clear();

  const FuncDecl *Fn = Prog.findFunc(Entry);
  if (!Fn) {
    Result.Error = "no entry function '" + Entry + "'";
    return Result;
  }
  if (Fn->Params.size() != Args.size()) {
    Result.Error = "entry argument count mismatch";
    return Result;
  }
  std::vector<Value> ArgValues;
  for (size_t I = 0; I < Args.size(); ++I) {
    Value V;
    V.Ty = Fn->Params[I]->Ty;
    V.I = Args[I];
    if (!V.Ty->isScalar()) {
      Result.Error = "entry parameters must be int or bool";
      return Result;
    }
    ArgValues.push_back(V);
  }
  std::vector<Value> Results;
  callFunction(Fn, std::move(ArgValues), &Results);
  Result.Steps = FuelUsed;
  if (!FaultMsg.empty() && !Result.OutOfFuel)
    Result.Error = FaultMsg;
  Frames.clear();
  TempRoots.clear();
  return Result;
}
