//===- vm/Vm.cpp - MiniGo bytecode virtual machine ------------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "support/GoArith.h"
#include "vm/Compiler.h"

#include <algorithm>
#include <cstring>

using namespace gofree;
using namespace gofree::vm;
using namespace gofree::minigo;
using interp::Value;

namespace {

uint64_t readU64(uintptr_t Addr) {
  uint64_t V;
  std::memcpy(&V, reinterpret_cast<void *>(Addr), 8);
  return V;
}

void writeU64(uintptr_t Addr, uint64_t V) {
  std::memcpy(reinterpret_cast<void *>(Addr), &V, 8);
}

} // namespace

//===----------------------------------------------------------------------===//
// Construction and roots
//===----------------------------------------------------------------------===//

Vm::Vm(const Program &Prog, const escape::ProgramAnalysis &Analysis,
       rt::Heap &Heap, interp::InterpOptions Opts, const Module *Shared)
    : Prog(Prog), Analysis(Analysis), Heap(Heap), Opts(Opts) {
  if (Shared) {
    assert(Shared->Prog == &Prog && "shared module for a different program");
    M = Shared;
  } else {
    Own = compileProgram(Prog);
    M = &Own;
  }
  FuelHooks = Opts.MigrationPeriod != 0 || Opts.GcEveryNSteps != 0;
  // Resolve the module's descriptor requests; ops index these arrays.
  Descs.reserve(M->Descs.size());
  for (const DescRef &D : M->Descs)
    Descs.push_back(D.K == DescRef::Array ? Types.arrayOf(D.T)
                                          : Types.lower(D.T));
  MapCtxs.reserve(M->MapTypes.size());
  for (const Type *MapTy : M->MapTypes) {
    rt::MapCtx Ctx;
    Ctx.H = &Heap;
    Ctx.BucketArrayDesc = Types.mapBuckets(MapTy->elem());
    Ctx.ValueDesc = Types.lower(MapTy->elem());
    Ctx.ValueSize = MapTy->elem()->size();
    Ctx.Opts = Opts.Map;
    MapCtxs.push_back(Ctx);
  }
  // Same registration discipline as the interpreter: register before the
  // thread enters its MutatorScope, deregister after it leaves.
  Heap.addRootScanner(this);
}

Vm::~Vm() { Heap.removeRootScanner(this); }

void Vm::scanRoots(rt::Heap &H) {
  for (const auto &FP : Frames) {
    const interp::Frame &F = *FP;
    for (const VarDecl *V : F.Fn->AllVars) {
      uintptr_t Slot = F.slotAddr(V);
      if (V->MovedToHeap)
        H.gcScanRegion(Slot, Types.rawPtr(), 8);
      else if (V->Ty && V->Ty->hasPointers())
        H.gcScanRegion(Slot, Types.lower(V->Ty), V->Ty->size());
    }
    for (const interp::StackObj &O : F.StackObjs)
      H.gcScanRegion(O.Addr, O.Desc, O.Bytes);
    for (const interp::DeferRecord &D : F.Defers)
      for (const Value &V : D.Args)
        interp::scanValueRoots(H, Types, V);
  }
  for (const auto &Rets : ReturnedStack)
    for (const Value &V : Rets)
      interp::scanValueRoots(H, Types, V);
  for (const Value *P = StackBuf.data(); P != Sp; ++P) {
    const Value &V = *P;
    if (!V.Ty)
      // Raw lvalue address: an interior pointer into the object about to
      // be stored to. Marking it keeps the containing object alive even
      // when a forced collection (GcEveryNSteps) lands inside the
      // address-computation window.
      H.gcMarkAddr(V.A);
    else
      interp::scanValueRoots(H, Types, V);
  }
}

//===----------------------------------------------------------------------===//
// Bookkeeping shared with the interpreter (same semantics; see Interp.cpp)
//===----------------------------------------------------------------------===//

uintptr_t Vm::varAddr(interp::Frame &F, const VarDecl *V) {
  uintptr_t Slot = F.slotAddr(V);
  if (!V->MovedToHeap)
    return Slot;
  return readU64(Slot); // Boxed: the slot holds the heap cell's address.
}

void Vm::initVarSlot(interp::Frame &F, const VarDecl *V) {
  uintptr_t Slot = F.slotAddr(V);
  if (V->MovedToHeap) {
    uintptr_t Box = Heap.allocate(V->Ty->size(), Types.lower(V->Ty),
                                  rt::AllocCat::Other, Opts.CacheId);
    writeU64(Slot, Box);
    return;
  }
  std::memset(reinterpret_cast<void *>(Slot), 0, V->Ty->size());
}

void Vm::noteStackAlloc(rt::AllocCat Cat, size_t Bytes) {
  Heap.stats().StackAllocCountByCat[(int)Cat].fetch_add(
      1, std::memory_order_relaxed);
  if (trace::TraceSink *T = Heap.traceSink())
    T->emit(trace::EventKind::StackAlloc, (uint8_t)Cat, Bytes);
}

void Vm::fault(const std::string &Msg) {
  if (FaultMsg.empty())
    FaultMsg = Msg;
}

bool Vm::burnFuelHooks() {
  // Simulated P-migration: rotate to the next thread cache.
  if (Opts.MigrationPeriod && FuelUsed % Opts.MigrationPeriod == 0)
    Opts.CacheId = (Opts.CacheId + 1) % Heap.options().NumCaches;
  // GC torture: a forced collection at (essentially) every dispatch point.
  if (Opts.GcEveryNSteps && FuelUsed % Opts.GcEveryNSteps == 0)
    Heap.runGc();
  if (FuelUsed <= Opts.MaxSteps)
    return true;
  return outOfFuel();
}

bool Vm::outOfFuel() {
  Result.OutOfFuel = true;
  fault("step budget exhausted");
  return false;
}

void Vm::growStack(size_t N) {
  size_t D = depth();
  StackBuf.resize(std::max(2 * StackBuf.size(), D + N));
  setDepth(D);
}

//===----------------------------------------------------------------------===//
// Allocation sites
//===----------------------------------------------------------------------===//

template <typename RegisterFn>
uintptr_t Vm::siteStorage(interp::Frame &F, uint32_t Site, size_t Bytes,
                          RegisterFn Register) {
  uintptr_t Entry = reinterpret_cast<uintptr_t>(F.Slots.data()) +
                    F.Fn->FrameSize + (uintptr_t)Site * 8;
  uintptr_t Storage = readU64(Entry);
  if (Storage) {
    std::memset(reinterpret_cast<void *>(Storage), 0, Bytes);
    return Storage;
  }
  Storage = F.Arena.allocate(Bytes ? Bytes : 8);
  writeU64(Entry, Storage);
  Register(Storage);
  return Storage;
}

Vm::Flow Vm::doMake(const MakeSite &S) {
  const MakeExpr *ME = S.E;
  // The compiled code pushed Len then Cap (when present).
  int64_t Len = 0, Cap = 0;
  if (ME->CapExpr)
    Cap = pop().I;
  if (ME->Len)
    Len = pop().I;
  if (!ME->CapExpr)
    Cap = Len;
  bool OnStack = ME->AllocId < Analysis.SiteOnStack.size() &&
                 Analysis.SiteOnStack[ME->AllocId];

  if (ME->MadeTy->isSlice()) {
    if (Len < 0 || Cap < Len) {
      fault("make: invalid slice size");
      return Flow::Fault;
    }
    const rt::TypeDesc *ArrayDesc = Descs[S.Desc];
    size_t ElemSize = ME->MadeTy->elem()->size();
    Value V;
    V.Ty = ME->MadeTy;
    V.S.Len = Len;
    V.S.Cap = Cap;
    if (OnStack) {
      assert(ME->SizeIsConst && Cap <= ME->ConstSize &&
             "stack slice exceeding its site size");
      size_t Bytes = (size_t)ME->ConstSize * ElemSize;
      interp::Frame &F = *Frames.back();
      V.S.Data = siteStorage(F, S.Site, Bytes, [&](uintptr_t At) {
        F.StackObjs.push_back({At, ArrayDesc, Bytes});
      });
      noteStackAlloc(rt::AllocCat::Slice, Bytes);
    } else {
      V.S.Data =
          rt::sliceAllocArray(Heap, ArrayDesc, Cap, ElemSize, Opts.CacheId);
      if (!V.S.Data) {
        fault("make: invalid slice size");
        return Flow::Fault;
      }
    }
    push(V);
    return Flow::Normal;
  }

  // make(map[K]V[, hint])
  assert(ME->MadeTy->isMap() && "make of non-slice non-map");
  Value V;
  V.Ty = ME->MadeTy;
  int64_t Hint = Len;
  if (OnStack) {
    interp::Frame &F = *Frames.back();
    int64_t NBuckets = rt::mapBucketsForHint(Hint);
    size_t ValueSize = ME->MadeTy->elem()->size();
    size_t BucketBytes = rt::mapBucketBytes(NBuckets, ValueSize);
    const rt::TypeDesc *BucketDesc = MapCtxs[S.Map].BucketArrayDesc;
    uintptr_t Block = siteStorage(
        F, S.Site, rt::HMapHeaderSize + BucketBytes, [&](uintptr_t At) {
          F.StackObjs.push_back({At, Types.hmap(), rt::HMapHeaderSize});
          F.StackObjs.push_back(
              {At + rt::HMapHeaderSize, BucketDesc, BucketBytes});
        });
    rt::mapInit(Block, NBuckets, Block + rt::HMapHeaderSize, ValueSize);
    V.A = Block;
    noteStackAlloc(rt::AllocCat::Map, rt::HMapHeaderSize + BucketBytes);
  } else {
    V.A = rt::mapMakeHeap(mapCtx(S.Map), Types.hmap(), Hint);
  }
  push(V);
  return Flow::Normal;
}

Vm::Flow Vm::doNew(const ObjSite<NewExpr> &S) {
  const NewExpr *NE = S.E;
  bool OnStack = NE->AllocId < Analysis.SiteOnStack.size() &&
                 Analysis.SiteOnStack[NE->AllocId];
  const rt::TypeDesc *Desc = Descs[S.Desc];
  uintptr_t Storage;
  size_t Bytes = NE->AllocTy->size();
  if (OnStack) {
    interp::Frame &F = *Frames.back();
    Storage = siteStorage(F, S.Site, Bytes, [&](uintptr_t At) {
      F.StackObjs.push_back({At, Desc, Bytes});
    });
    noteStackAlloc(rt::AllocCat::Other, Bytes);
  } else {
    Storage = Heap.allocate(Bytes, Desc, rt::AllocCat::Other, Opts.CacheId);
  }
  Value V;
  V.Ty = NE->Ty;
  V.A = Storage;
  push(V);
  return Flow::Normal;
}

Vm::Flow Vm::doComposite(const ObjSite<CompositeExpr> &S) {
  const CompositeExpr *CE = S.E;
  const Type *StructTy = CE->StructTy;
  const rt::TypeDesc *Desc = Descs[S.Desc];
  size_t Bytes = StructTy->size();
  uintptr_t Storage;
  bool OnStack = !CE->TakeAddr || (CE->AllocId < Analysis.SiteOnStack.size() &&
                                   Analysis.SiteOnStack[CE->AllocId]);
  if (OnStack) {
    interp::Frame &F = *Frames.back();
    Storage = siteStorage(F, S.Site, Bytes, [&](uintptr_t At) {
      F.StackObjs.push_back({At, Desc, Bytes});
    });
    if (CE->TakeAddr)
      noteStackAlloc(rt::AllocCat::Other, Bytes);
  } else {
    Storage = Heap.allocate(Bytes, Desc, rt::AllocCat::Other, Opts.CacheId);
  }
  // The object stays on the operand stack (rooted) while the compiled
  // SetField initializers that follow run -- they may allocate.
  Value Obj;
  Obj.Ty = CE->TakeAddr ? CE->Ty : StructTy;
  Obj.A = Storage;
  push(Obj);
  return Flow::Normal;
}

void Vm::doTcfree(const TcfreeStmt *TS) {
  uintptr_t Addr = varAddr(*Frames.back(), TS->Var);
  switch (TS->FreeKind) {
  case TcfreeKind::Slice: {
    rt::SliceHeader Hdr;
    std::memcpy(&Hdr, reinterpret_cast<void *>(Addr), sizeof(Hdr));
    rt::tcfreeSlice(Heap, Hdr, Opts.CacheId);
    return;
  }
  case TcfreeKind::Map:
    rt::tcfreeMap(Heap, readU64(Addr), Opts.CacheId);
    return;
  case TcfreeKind::Object:
    Heap.tcfreeObject(readU64(Addr), Opts.CacheId,
                      rt::FreeSource::TcfreeObject);
    return;
  }
}

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

Vm::Flow Vm::execChunk(const Chunk &C) {
  const uint32_t *Code = C.Code.data();
  // Immutable pools, hoisted so stores through arbitrary Value addresses do
  // not force reloading them (the compiler cannot prove M is unclobbered).
  const Type *const *TypePool = M->Types.data();
  const int64_t *IntPool = M->Ints.data();
  const VarDecl *const *VarPool = M->Vars.data();
  const FuncDecl *const *FuncPool = M->Funcs.data();
  const rt::TypeDesc *const *DescPool = Descs.data();
  // The executing frame is fixed for the duration of a chunk: runFunction
  // pushes it before execChunk and pops it after, and nested calls restore
  // Frames before returning here. Its slot buffer never moves either.
  interp::Frame &CurF = *Frames.back();
  const uintptr_t SlotBase = reinterpret_cast<uintptr_t>(CurF.Slots.data());
  size_t IP = 0;
  // Threaded dispatch: every handler knows its own static operand width and
  // jumps straight to the next handler through its own indirect branch,
  // which the branch predictor resolves far better than one shared switch
  // dispatch. The jump table is generated from the same X-macro as enum Op
  // (order-checked in Bytecode.h), so adding an opcode without a handler
  // fails to compile instead of misdispatching. Every chunk ends in
  // Return/MissingRet (the compiler's epilogue) or loops, so control never
  // falls off the end of the code stream.
#define GOFREE_VM_LABEL(x) &&Do_##x,
  static const void *const Targets[] = {
      GOFREE_VM_FOR_EACH_OP(GOFREE_VM_LABEL)};
#undef GOFREE_VM_LABEL
  // Fuel lives in a register for the duration of the chunk; the member is
  // the source of truth only across calls (flushed before runFunction,
  // reloaded after) and on exit (the Sync destructor covers every return
  // path). With no hooks installed the per-opcode cost is one increment and
  // one never-taken branch to the shared slow path below; with hooks
  // (migration / GC torture) FastLimit is 0 so every dispatch goes slow.
  uint64_t Fuel = FuelUsed;
  const uint64_t FastLimit = FuelHooks ? 0 : Opts.MaxSteps;
  struct FuelSync {
    uint64_t &Mem, &Loc;
    ~FuelSync() { Mem = Loc; }
  } Sync{FuelUsed, Fuel};
#define DISPATCH_AT(NewIP)                                                     \
  do {                                                                         \
    IP = (NewIP);                                                              \
    if (++Fuel > FastLimit)                                                    \
      goto SlowFuel;                                                           \
    goto *Targets[Code[IP]];                                                   \
  } while (0)
  // Advance over this opcode plus its \p Words operand words. The width must
  // match opOperands(), and the pushes so far must fit the headroom the
  // chunk's MaxDepth reserved -- both asserted in debug builds at every
  // dispatch.
#define NEXT(Words)                                                            \
  do {                                                                         \
    assert(opOperands((Op)Code[IP]) == (Words) && "operand width mismatch");   \
    assert(depth() <= StackBuf.size() && "operand stack overflow");            \
    DISPATCH_AT(IP + 1 + (Words));                                             \
  } while (0)

  DISPATCH_AT(0);

SlowFuel:
  // One call-free branch target shared by all dispatch sites: run the rare
  // hooks (which also enforce MaxSteps) or report fuel exhaustion.
  FuelUsed = Fuel;
  if (!(FuelHooks ? burnFuelHooks() : outOfFuel()))
    return Flow::Fault;
  goto *Targets[Code[IP]];

Do_Const: {
  Value V;
  V.Ty = TypePool[Code[IP + 1]];
  V.I = IntPool[Code[IP + 2]];
  push(V);
  NEXT(2);
}
Do_Nil: {
  Value V;
  V.Ty = TypePool[Code[IP + 1]];
  push(V);
  NEXT(1);
}
Do_LoadVar: {
  const VarDecl *Var = VarPool[Code[IP + 1]];
  push(interp::loadValueAt(varAddr(CurF, Var), Var->Ty));
  NEXT(1);
}
Do_Pop:
  --Sp;
  NEXT(0);
Do_PopN:
  Sp -= Code[IP + 1];
  NEXT(1);
Do_Pick: {
  Value V = Sp[-(ptrdiff_t)Code[IP + 1]];
  push(V);
  NEXT(1);
}
// Slot operands write only the fields their type reads; the rest of the
// stack entry is dead (as after every in-place rewrite below).
Do_LoadSlotI: {
  Value &V = *Sp++;
  V.Ty = TypePool[Code[IP + 2]];
  V.I = (int64_t)readU64(SlotBase + Code[IP + 1]);
  NEXT(2);
}
Do_LoadSlotA: {
  Value &V = *Sp++;
  V.Ty = TypePool[Code[IP + 2]];
  V.A = readU64(SlotBase + Code[IP + 1]);
  NEXT(2);
}
Do_StoreSlotI:
  --Sp;
  writeU64(SlotBase + Code[IP + 1], (uint64_t)Sp->I);
  NEXT(1);
Do_StoreSlotA:
  --Sp;
  writeU64(SlotBase + Code[IP + 1], Sp->A);
  NEXT(1);

Do_Jump:
  DISPATCH_AT(Code[IP + 1]);
Do_JumpIfFalse:
  --Sp;
  if (!Sp->I)
    DISPATCH_AT(Code[IP + 1]);
  NEXT(1);
#define GOFREE_VM_CMPJUMP(name, cmp)                                          \
  Do_##name : Sp -= 2;                                                        \
  if (!(Sp[0].I cmp Sp[1].I))                                                 \
    DISPATCH_AT(Code[IP + 1]);                                                \
  NEXT(1);
GOFREE_VM_CMPJUMP(JumpIfNotLt, <)
GOFREE_VM_CMPJUMP(JumpIfNotLe, <=)
GOFREE_VM_CMPJUMP(JumpIfNotGt, >)
GOFREE_VM_CMPJUMP(JumpIfNotGe, >=)
#undef GOFREE_VM_CMPJUMP
Do_JumpIfFalsePeek:
  if (!top().I)
    DISPATCH_AT(Code[IP + 1]);
  NEXT(1);
Do_JumpIfTruePeek:
  if (top().I)
    DISPATCH_AT(Code[IP + 1]);
  NEXT(1);

Do_Neg: {
  Value &T = top();
  T.Ty = TypePool[Code[IP + 1]];
  T.I = arith::wrapNeg(T.I);
  NEXT(1);
}
Do_Not: {
  Value &T = top();
  T.Ty = TypePool[Code[IP + 1]];
  T.I = !T.I;
  NEXT(1);
}
// The binary scalar ops pop the right operand and rewrite the left in
// place; 48-byte Value copies through pop()/push() are what made the
// dispatch loop lose to the tree-walker before.
#define GOFREE_VM_BINOP(name, expr)                                           \
  Do_##name : {                                                               \
    const int64_t R = (--Sp)->I;                                              \
    Value &L = Sp[-1];                                                        \
    L.Ty = TypePool[Code[IP + 1]];                                            \
    L.I = (expr);                                                             \
    NEXT(1);                                                                  \
  }
GOFREE_VM_BINOP(Add, arith::wrapAdd(L.I, R))
GOFREE_VM_BINOP(Sub, arith::wrapSub(L.I, R))
GOFREE_VM_BINOP(Mul, arith::wrapMul(L.I, R))
GOFREE_VM_BINOP(Lt, L.I < R)
GOFREE_VM_BINOP(Le, L.I <= R)
GOFREE_VM_BINOP(Gt, L.I > R)
GOFREE_VM_BINOP(Ge, L.I >= R)
#undef GOFREE_VM_BINOP
Do_Div:
Do_Mod: {
  const bool IsDiv = (Op)Code[IP] == Op::Div;
  const int64_t R = (--Sp)->I;
  Value &L = Sp[-1];
  bool DivZero = false;
  L.Ty = TypePool[Code[IP + 1]];
  L.I = IsDiv ? arith::goDiv(L.I, R, DivZero) : arith::goMod(L.I, R, DivZero);
  if (DivZero) {
    fault("integer divide by zero");
    return Flow::Fault;
  }
  NEXT(1);
}
Do_Eq:
Do_Ne: {
  const Value R = pop();
  Value &L = top();
  bool Equal;
  switch (Code[IP + 2]) {
  case 0:
    Equal = L.I == R.I;
    break;
  case 1:
    // Only nil comparisons pass Sema; a made slice is never nil.
    Equal = L.S.Data == R.S.Data && L.S.Len == R.S.Len && L.S.Cap == R.S.Cap;
    break;
  default:
    Equal = L.A == R.A;
    break;
  }
  L.Ty = TypePool[Code[IP + 1]];
  L.I = (Op)Code[IP] == Op::Eq ? Equal : !Equal;
  NEXT(2);
}

Do_Deref: {
  Value &T = top();
  if (!T.A) {
    fault("nil pointer dereference");
    return Flow::Fault;
  }
  T = interp::loadValueAt(T.A, TypePool[Code[IP + 1]]);
  NEXT(1);
}
Do_MkPtr: {
  top().Ty = TypePool[Code[IP + 1]]; // The raw address is already there.
  NEXT(1);
}
Do_FieldPtr: {
  Value &T = top();
  if (!T.A) {
    fault("nil pointer dereference");
    return Flow::Fault;
  }
  T = interp::loadValueAt(T.A + Code[IP + 1], TypePool[Code[IP + 2]]);
  NEXT(2);
}
Do_FieldVal: {
  Value &T = top();
  T = interp::loadValueAt(T.A + Code[IP + 1], TypePool[Code[IP + 2]]);
  NEXT(2);
}
Do_IndexSlice: {
  const int64_t Idx = (--Sp)->I;
  Value &B = top();
  if (Idx < 0 || Idx >= B.S.Len) {
    fault("slice index out of range");
    return Flow::Fault;
  }
  const Type *ElemTy = TypePool[Code[IP + 1]];
  B = interp::loadValueAt(B.S.Data + (uintptr_t)Idx * ElemTy->size(), ElemTy);
  NEXT(1);
}
Do_IndexMap: {
  Value K = pop();
  Value MV = pop();
  const Type *ValTy = TypePool[Code[IP + 1]];
  // Reading from a nil map yields the zero value, like Go.
  interp::MapValueBuf Buf(ValTy->size());
  if (MV.A)
    rt::mapLookup(MV.A, K.I, Buf.data(), ValTy->size());
  if (ValTy->isStruct()) {
    uintptr_t Tmp = CurF.Arena.allocate(ValTy->size());
    std::memcpy(reinterpret_cast<void *>(Tmp), Buf.data(), ValTy->size());
    Value V;
    V.Ty = ValTy;
    V.A = Tmp;
    push(V);
  } else {
    push(interp::loadValueAt(Buf.addr(), ValTy));
  }
  NEXT(1);
}

Do_LvalVar: {
  Value V;
  V.A = varAddr(CurF, VarPool[Code[IP + 1]]);
  push(V);
  NEXT(1);
}
Do_LvalDeref: {
  Value &T = top();
  if (!T.A) {
    fault("nil pointer dereference");
    return Flow::Fault;
  }
  T.Ty = nullptr; // Becomes a raw address; the scanner marks via A.
  NEXT(0);
}
Do_LvalFieldPtr: {
  Value &T = top();
  if (!T.A) {
    fault("nil pointer dereference");
    return Flow::Fault;
  }
  T.A += Code[IP + 1];
  T.Ty = nullptr;
  NEXT(1);
}
Do_LvalField: {
  Value &T = top();
  T.A += Code[IP + 1];
  T.Ty = nullptr;
  NEXT(1);
}
Do_LvalIndex: {
  const int64_t Idx = (--Sp)->I;
  Value &B = top();
  if (Idx < 0 || Idx >= B.S.Len) {
    fault("slice index out of range");
    return Flow::Fault;
  }
  B.A = B.S.Data + (uintptr_t)Idx * Code[IP + 1];
  B.Ty = nullptr;
  NEXT(1);
}

Do_Store:
  interp::storeValueAt(Heap, Types, Sp[-1].A, Sp[-2]);
  Sp -= 2;
  NEXT(0);
Do_StoreVarInit: {
  const VarDecl *Var = VarPool[Code[IP + 1]];
  initVarSlot(CurF, Var); // The value stays on the stack, rooted, meanwhile.
  Value V = pop();
  interp::storeValueAt(Heap, Types, varAddr(CurF, Var), V);
  NEXT(1);
}
Do_InitVar:
  initVarSlot(CurF, VarPool[Code[IP + 1]]);
  NEXT(1);
Do_MapNilCheck:
  if (!top().A) {
    fault("assignment to entry in nil map");
    return Flow::Fault;
  }
  NEXT(0);
Do_StoreMap: {
  // Stack: [v, m, k]; all three stay rooted while mapAssign may grow.
  const Value &K = Sp[-1];
  const Value &MV = Sp[-2];
  const Value &V = Sp[-3];
  interp::MapValueBuf Buf(V.Ty->size());
  interp::storeValueAt(Buf.addr(), V);
  rt::mapAssign(mapCtx(Code[IP + 1]), MV.A, K.I, Buf.data());
  Sp -= 3;
  NEXT(1);
}

Do_Call: {
  uint32_t Argc = Code[IP + 2];
  size_t ArgBase = depth() - Argc;
  std::vector<Value> Results;
  FuelUsed = Fuel; // The callee burns fuel through the member.
  Flow Fl = runFunction(FuncPool[Code[IP + 1]], ArgBase, Argc, Results);
  Fuel = FuelUsed;
  if (Fl != Flow::Normal)
    return Fl;
  setDepth(ArgBase);
  if (Results.empty()) {
    Value V;
    V.Ty = TypePool[Code[IP + 3]];
    push(V);
  } else {
    push(Results[0]);
  }
  NEXT(3);
}
Do_CallMulti: {
  uint32_t Argc = Code[IP + 2];
  size_t ArgBase = depth() - Argc;
  std::vector<Value> Results;
  FuelUsed = Fuel; // The callee burns fuel through the member.
  Flow Fl = runFunction(FuncPool[Code[IP + 1]], ArgBase, Argc, Results);
  Fuel = FuelUsed;
  if (Fl != Flow::Normal)
    return Fl;
  setDepth(ArgBase);
  for (const Value &V : Results)
    push(V);
  NEXT(2);
}
Do_CallStmt: {
  uint32_t Argc = Code[IP + 2];
  size_t ArgBase = depth() - Argc;
  std::vector<Value> Results;
  FuelUsed = Fuel; // The callee burns fuel through the member.
  Flow Fl = runFunction(FuncPool[Code[IP + 1]], ArgBase, Argc, Results);
  Fuel = FuelUsed;
  if (Fl != Flow::Normal)
    return Fl;
  setDepth(ArgBase);
  NEXT(2);
}
Do_Defer: {
  uint32_t Argc = Code[IP + 2];
  interp::DeferRecord Rec;
  Rec.Fn = FuncPool[Code[IP + 1]];
  Rec.Args.assign(Sp - Argc, Sp);
  Sp -= Argc;
  CurF.Defers.push_back(std::move(Rec));
  NEXT(2);
}
Do_Return: {
  uint32_t N = Code[IP + 1];
  ReturnedStack.back().assign(Sp - N, Sp);
  Sp -= N;
  return Flow::Return;
}
Do_MissingRet:
  fault("missing return in '" + C.Fn->Name + "'");
  return Flow::Fault;

Do_Make: {
  Flow Fl = doMake(M->Makes[Code[IP + 1]]);
  if (Fl != Flow::Normal)
    return Fl;
  NEXT(1);
}
Do_New: {
  Flow Fl = doNew(M->News[Code[IP + 1]]);
  if (Fl != Flow::Normal)
    return Fl;
  NEXT(1);
}
Do_Composite: {
  Flow Fl = doComposite(M->Composites[Code[IP + 1]]);
  if (Fl != Flow::Normal)
    return Fl;
  NEXT(1);
}
Do_SetField: {
  Value V = pop();
  interp::storeValueAt(Heap, Types, top().A + Code[IP + 1], V);
  NEXT(1);
}
Do_LenSlice: {
  Value &T = top();
  T.I = T.S.Len;
  T.Ty = TypePool[Code[IP + 1]];
  NEXT(1);
}
Do_LenMap: {
  Value &T = top();
  T.I = T.A ? rt::mapLen(T.A) : 0;
  T.Ty = TypePool[Code[IP + 1]];
  NEXT(1);
}
Do_CapOf: {
  Value &T = top();
  T.I = T.S.Cap;
  T.Ty = TypePool[Code[IP + 1]];
  NEXT(1);
}
Do_Append: {
  // Stack: [s, v]; both stay rooted while the backing array may grow.
  const Type *SliceTy = TypePool[Code[IP + 1]];
  const Type *ElemTy = SliceTy->elem();
  Value &S = Sp[-2];
  Value &Elem = Sp[-1];
  if (rt::sliceGrowForAppend(Heap, S.S, DescPool[Code[IP + 2]], ElemTy->size(),
                             Opts.CacheId,
                             Opts.Slice) == rt::SliceGrow::Overflow) {
    fault("growslice: cap out of range");
    return Flow::Fault;
  }
  interp::storeValueAt(Heap, Types,
                       S.S.Data + (uintptr_t)S.S.Len * ElemTy->size(), Elem);
  ++S.S.Len;
  S.Ty = SliceTy;
  --Sp;
  NEXT(2);
}
Do_Slicing: {
  uint32_t Flags = Code[IP + 2];
  Value HiV, LoV;
  if (Flags & 2)
    HiV = pop();
  if (Flags & 1)
    LoV = pop();
  Value Base = pop();
  int64_t Lo = (Flags & 1) ? LoV.I : 0;
  int64_t Hi = (Flags & 2) ? HiV.I : Base.S.Len;
  if (Lo < 0 || Lo > Hi || Hi > Base.S.Cap) {
    fault("slice bounds out of range");
    return Flow::Fault;
  }
  Value V;
  V.Ty = TypePool[Code[IP + 1]];
  size_t ElemSize = V.Ty->elem()->size();
  V.S.Data = Base.S.Data + (uintptr_t)Lo * ElemSize;
  V.S.Len = Hi - Lo;
  V.S.Cap = Base.S.Cap - Lo;
  push(V);
  NEXT(2);
}
Do_Copy: {
  Value Src = pop();
  Value Dst = pop();
  int64_t N = std::min(Dst.S.Len, Src.S.Len);
  if (N > 0) {
    Heap.gcCopyBarrier(Dst.S.Data, Src.S.Data, (size_t)N * Code[IP + 2],
                       DescPool[Code[IP + 3]]);
    rt::copyWordsRelaxed(Dst.S.Data, Src.S.Data, (size_t)N * Code[IP + 2]);
  }
  Value V;
  V.Ty = TypePool[Code[IP + 1]];
  V.I = N;
  push(V);
  NEXT(3);
}

Do_Panic: {
  Value V = pop();
  Result.Panicked = true;
  Result.PanicValue = V.I;
  return Flow::Panic;
}
Do_Sink:
  --Sp;
  Result.Checksum = Result.Checksum * 1099511628211ULL ^ (uint64_t)Sp->I;
  ++Result.SinkCount;
  NEXT(0);
Do_Delete: {
  Value K = pop();
  Value MV = pop();
  if (MV.A)
    rt::mapDelete(MV.A, K.I);
  NEXT(0);
}
Do_Tcfree:
  doTcfree(M->Tcfrees[Code[IP + 1]]);
  NEXT(1);
#undef NEXT
#undef DISPATCH_AT
}

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

void Vm::runDefers(interp::Frame &F) {
  while (!F.Defers.empty()) {
    interp::DeferRecord Rec = std::move(F.Defers.back());
    F.Defers.pop_back();
    size_t ArgBase = depth();
    reserveStack(Rec.Args.size());
    for (const Value &V : Rec.Args)
      push(V); // Rooted for the duration of the deferred call.
    std::vector<Value> Ignored;
    runFunction(Rec.Fn, ArgBase, Rec.Args.size(), Ignored);
    setDepth(ArgBase);
    // A panic from a deferred call is recorded but does not stop the
    // remaining defers (matching the tree-walker); a fault does.
    if (faulted())
      return;
  }
}

Vm::Flow Vm::runFunction(const FuncDecl *Fn, size_t ArgBase, size_t Argc,
                         std::vector<Value> &Results) {
  if (!Fn) {
    fault("call to unresolved function");
    return Flow::Fault;
  }
  if (Frames.size() >= Opts.MaxFrames) {
    Result.OutOfFuel = true;
    fault("call stack overflow");
    return Flow::Fault;
  }
  const Chunk *C = M->chunkFor(Fn);
  assert(C && "function without a compiled chunk");

  auto FramePtr = std::make_unique<interp::Frame>();
  interp::Frame &F = *FramePtr;
  F.Fn = Fn;
  F.Slots.assign(Fn->FrameSize + 8 * (size_t)C->NumSites, 0);
  Frames.push_back(std::move(FramePtr));
  ReturnedStack.emplace_back();

  assert(Argc == Fn->Params.size() && "argument count mismatch");
  for (size_t I = 0; I < Argc; ++I) {
    initVarSlot(F, Fn->Params[I]); // May heap-box escaped parameters; the
                                   // argument stays rooted on the stack.
    if (faulted())
      break;
    interp::storeValueAt(Heap, Types, varAddr(F, Fn->Params[I]),
                         StackBuf[ArgBase + I]);
  }

  size_t TransientBase = ArgBase + Argc;
  assert(depth() == TransientBase && "arguments must be on top");
  reserveStack(C->MaxDepth);
  Flow F1 = faulted() ? Flow::Fault : execChunk(*C);
  // An abrupt exit (panic, fault) leaves partial expression state on the
  // operand stack; drop it. The arguments below stay for the caller.
  setDepth(TransientBase);

  // Defers run on return and panic; a fault (including the missing-return
  // fault) skips them, exactly like the tree-walker.
  if (F1 != Flow::Fault) {
    runDefers(*Frames.back());
    if (faulted() && F1 != Flow::Panic)
      F1 = Flow::Fault;
  }

  std::vector<Value> Returned = std::move(ReturnedStack.back());

  // Struct-typed return values reference storage inside the dying frame;
  // copy them into the caller's frame arena before the frame goes away.
  if (Frames.size() >= 2) {
    interp::Frame &Caller = *Frames[Frames.size() - 2];
    for (Value &V : Returned) {
      if (!V.Ty || !V.Ty->isStruct() || !V.A)
        continue;
      uintptr_t Copy = Caller.Arena.allocate(V.Ty->size());
      std::memcpy(reinterpret_cast<void *>(Copy),
                  reinterpret_cast<void *>(V.A), V.Ty->size());
      V.A = Copy;
    }
  }

  ReturnedStack.pop_back();
  Frames.pop_back();
  Results = std::move(Returned);
  if (F1 == Flow::Return || F1 == Flow::Normal)
    return Flow::Normal;
  return F1; // Panic or Fault propagates.
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

interp::RunResult Vm::run(const std::string &Entry,
                          const std::vector<int64_t> &Args) {
  Result = interp::RunResult{};
  FaultMsg.clear();
  FuelUsed = 0;
  Frames.clear();
  ReturnedStack.clear();
  if (StackBuf.empty())
    StackBuf.resize(256); // Grows on demand; see reserveStack.
  setDepth(0);

  const FuncDecl *Fn = Prog.findFunc(Entry);
  if (!Fn) {
    Result.Error = "no entry function '" + Entry + "'";
    return Result;
  }
  if (Fn->Params.size() != Args.size()) {
    Result.Error = "entry argument count mismatch";
    return Result;
  }
  reserveStack(Args.size());
  for (size_t I = 0; I < Args.size(); ++I) {
    Value V;
    V.Ty = Fn->Params[I]->Ty;
    V.I = Args[I];
    if (!V.Ty->isScalar()) {
      Result.Error = "entry parameters must be int or bool";
      return Result;
    }
    push(V);
  }
  std::vector<Value> Results;
  runFunction(Fn, 0, Args.size(), Results);
  Result.Steps = FuelUsed;
  if (!FaultMsg.empty() && !Result.OutOfFuel)
    Result.Error = FaultMsg;
  Frames.clear();
  ReturnedStack.clear();
  setDepth(0);
  return Result;
}
