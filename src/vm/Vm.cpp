//===- vm/Vm.cpp - MiniGo bytecode virtual machine ------------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "support/GoArith.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <mutex>

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

/// Sets \p Addr to element \p Idx (of \p ElemSize bytes) of the slice
/// whose header is the frame slot at \p Hdr; false when Idx is out of
/// range.
bool slotElemAt(uintptr_t Hdr, int64_t Idx, size_t ElemSize,
                uintptr_t &Addr) {
  if (Idx < 0 || Idx >= (int64_t)readU64(Hdr + offsetof(rt::SliceHeader, Len)))
    return false;
  Addr = readU64(Hdr + offsetof(rt::SliceHeader, Data)) +
         (uintptr_t)Idx * ElemSize;
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Op profile
//===----------------------------------------------------------------------===//

uint64_t OpProfile::total() const {
  uint64_t T = 0;
  for (uint64_t N : Ops)
    T += N;
  return T;
}

void OpProfile::add(const OpProfile &O) {
  for (uint32_t A = 0; A < NumOps; ++A) {
    Ops[A] += O.Ops[A];
    for (uint32_t B = 0; B < NumOps; ++B)
      Pairs[A][B] += O.Pairs[A][B];
  }
}

namespace {
std::mutex ProfileMu;
OpProfile &processProfile() {
  static OpProfile *P = new OpProfile(); // Outlives every Vm.
  return *P;
}
} // namespace

OpProfile gofree::vm::opProfile() {
  std::lock_guard<std::mutex> L(ProfileMu);
  return processProfile();
}

std::string gofree::vm::formatOpProfile(const OpProfile &P, size_t TopPairs) {
  const uint64_t Total = P.total();
  auto Share = [&](uint64_t N) { return Total ? 100.0 * N / Total : 0.0; };
  char Line[128];
  std::snprintf(Line, sizeof(Line), "--- vm.ops: %llu dispatches ---\n",
                (unsigned long long)Total);
  std::string Out = Line;
  std::vector<uint32_t> Order(NumOps);
  for (uint32_t O = 0; O < NumOps; ++O)
    Order[O] = O;
  std::stable_sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return P.Ops[A] > P.Ops[B];
  });
  for (uint32_t O : Order) {
    std::snprintf(Line, sizeof(Line), "op %-16s %12llu %6.2f%%\n",
                  opName((Op)O), (unsigned long long)P.Ops[O],
                  Share(P.Ops[O]));
    Out += Line;
  }
  std::vector<std::pair<uint64_t, uint32_t>> Pairs;
  for (uint32_t A = 0; A < NumOps; ++A)
    for (uint32_t B = 0; B < NumOps; ++B)
      if (P.Pairs[A][B])
        Pairs.push_back({P.Pairs[A][B], A * NumOps + B});
  std::sort(Pairs.begin(), Pairs.end(), std::greater<>());
  if (Pairs.size() > TopPairs)
    Pairs.resize(TopPairs);
  for (const auto &[N, AB] : Pairs) {
    std::string Name = std::string(opName((Op)(AB / NumOps))) + " " +
                       opName((Op)(AB % NumOps));
    std::snprintf(Line, sizeof(Line), "pair %-28s %12llu %6.2f%%\n",
                  Name.c_str(), (unsigned long long)N, Share(N));
    Out += Line;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Slot stack
//===----------------------------------------------------------------------===//

uintptr_t SlotStack::pushSlow(size_t Bytes) {
  // The region does not fit the rest of this segment: start the next one,
  // replacing it if it was made for a smaller request. Segments above the
  // current one hold nothing live, so replacing one moves no live frame.
  size_t Next = Segs.empty() ? 0 : Seg + 1;
  if (Next == Segs.size() || Segs[Next].Size < Bytes) {
    size_t Size = std::max(SegmentBytes, Bytes);
    Segment S{std::make_unique_for_overwrite<char[]>(Size), Size};
    if (Next == Segs.size())
      Segs.push_back(std::move(S));
    else
      Segs[Next] = std::move(S);
  }
  Seg = Next;
  Used = Bytes;
  return reinterpret_cast<uintptr_t>(Segs[Seg].Mem.get());
}

//===----------------------------------------------------------------------===//
// Construction and roots
//===----------------------------------------------------------------------===//

Vm::Vm(const Program &Prog, rt::Heap &Heap, interp::InterpOptions Opts,
       const Module &Mod)
    : Prog(Prog), Heap(Heap), Opts(Opts), M(&Mod) {
  assert(Mod.Prog == &Prog && "module compiled from a different program");
  FuelHooks = Opts.GcEveryNSteps != 0;
  // Resolve the module's callee and descriptor requests; ops index these
  // arrays.
  Callees.reserve(M->Funcs.size());
  for (const FuncDecl *F : M->Funcs)
    Callees.push_back(F ? M->chunkFor(F) : nullptr);
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
    Ctx.CacheId = Opts.CacheId;
    Ctx.Opts = Opts.Map;
    MapCtxs.push_back(Ctx);
  }
  // Same registration discipline as the interpreter: register before the
  // thread enters its MutatorScope, deregister after it leaves.
  Heap.addRootScanner(this);
}

Vm::~Vm() { Heap.removeRootScanner(this); }

void Vm::scanRoots(rt::Heap &H) {
  for (const FrameRec &F : Frames) {
    for (const VarDecl *V : F.Fn->AllVars) {
      uintptr_t Slot = F.Slots + V->FrameOffset;
      if (V->MovedToHeap)
        H.gcScanRegion(Slot, Types.rawPtr(), 8);
      else if (V->Ty && V->Ty->hasPointers())
        H.gcScanRegion(Slot, Types.lower(V->Ty), V->Ty->size());
    }
  }
  for (const interp::StackObj &O : StackObjs)
    H.gcScanRegion(O.Addr, O.Desc, O.Bytes);
  for (const Value &V : DeferArgs)
    interp::scanValueRoots(H, Types, V);
  // Pending return values sit on the operand stack while defers run.
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

uintptr_t Vm::varAddr(uintptr_t SlotBase, const VarDecl *V) {
  uintptr_t Slot = SlotBase + V->FrameOffset;
  if (!V->MovedToHeap)
    return Slot;
  return readU64(Slot); // Boxed: the slot holds the heap cell's address.
}

void Vm::initVarSlot(uintptr_t SlotBase, const VarDecl *V) {
  uintptr_t Slot = SlotBase + V->FrameOffset;
  if (V->MovedToHeap) {
    uintptr_t Box = Heap.allocate(V->Ty->size(), Types.lower(V->Ty),
                                  rt::AllocCat::Other, Opts.CacheId);
    writeU64(Slot, Box);
    return;
  }
  std::memset(reinterpret_cast<void *>(Slot), 0, V->Ty->size());
}

void Vm::fault(const std::string &Msg) {
  if (FaultMsg.empty())
    FaultMsg = Msg;
}

bool Vm::burnFuelHooks() {
  // GC torture: a forced collection at (essentially) every dispatch point.
  if (FuelUsed % Opts.GcEveryNSteps == 0)
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
uintptr_t Vm::siteStorage(uint32_t Site, size_t Bytes, RegisterFn Register) {
  const FrameRec &F = Frames.back();
  uintptr_t Entry = F.Slots + F.Fn->FrameSize + (uintptr_t)Site * 8;
  uintptr_t Storage = readU64(Entry);
  if (Storage) {
    std::memset(reinterpret_cast<void *>(Storage), 0, Bytes);
    return Storage;
  }
  // The executing frame is the topmost region, so this extends it. The
  // storage outlives every later temporary of the frame: raise the floor.
  Storage = Slots.push(Bytes ? Bytes : 8);
  std::memset(reinterpret_cast<void *>(Storage), 0, Bytes ? Bytes : 8);
  Frames.back().TempFloor = Slots.mark();
  writeU64(Entry, Storage);
  Register(Storage);
  return Storage;
}

uintptr_t Vm::frameTemp(size_t Bytes) {
  if (!Frames.empty()) {
    const FrameRec &F = Frames.back();
    const Value *P = StackBuf.data() + F.TransientBase;
    while (P != Sp && !(P->Ty && P->Ty->isStruct()))
      ++P;
    if (P == Sp)
      Slots.popTo(F.TempFloor);
  }
  return Slots.push(Bytes);
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
    if (ME->OnStack) {
      assert(ME->SizeIsConst && Cap <= ME->ConstSize &&
             "stack slice exceeding its site size");
      size_t Bytes = (size_t)ME->ConstSize * ElemSize;
      V.S.Data = siteStorage(S.Site, Bytes, [&](uintptr_t At) {
        StackObjs.push_back({At, ArrayDesc, Bytes});
      });
      Heap.noteStackAlloc(Opts.CacheId, rt::AllocCat::Slice, Bytes);
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
  if (ME->OnStack) {
    int64_t NBuckets = rt::mapBucketsForHint(Hint);
    size_t ValueSize = ME->MadeTy->elem()->size();
    size_t BucketBytes = rt::mapBucketBytes(NBuckets, ValueSize);
    const rt::TypeDesc *BucketDesc = MapCtxs[S.Map].BucketArrayDesc;
    uintptr_t Block = siteStorage(
        S.Site, rt::HMapHeaderSize + BucketBytes, [&](uintptr_t At) {
          StackObjs.push_back({At, Types.hmap(), rt::HMapHeaderSize});
          StackObjs.push_back(
              {At + rt::HMapHeaderSize, BucketDesc, BucketBytes});
        });
    rt::mapInit(Block, NBuckets, Block + rt::HMapHeaderSize, ValueSize);
    V.A = Block;
    Heap.noteStackAlloc(Opts.CacheId, rt::AllocCat::Map,
                        rt::HMapHeaderSize + BucketBytes);
  } else {
    V.A = rt::mapMakeHeap(mapCtx(S.Map), Types.hmap(), Hint);
  }
  push(V);
  return Flow::Normal;
}

Vm::Flow Vm::doNew(const ObjSite<NewExpr> &S) {
  const NewExpr *NE = S.E;
  const rt::TypeDesc *Desc = Descs[S.Desc];
  uintptr_t Storage;
  size_t Bytes = NE->AllocTy->size();
  if (NE->OnStack) {
    Storage = siteStorage(S.Site, Bytes, [&](uintptr_t At) {
      StackObjs.push_back({At, Desc, Bytes});
    });
    Heap.noteStackAlloc(Opts.CacheId, rt::AllocCat::Other, Bytes);
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
  if (!CE->TakeAddr || CE->OnStack) {
    Storage = siteStorage(S.Site, Bytes, [&](uintptr_t At) {
      StackObjs.push_back({At, Desc, Bytes});
    });
    if (CE->TakeAddr)
      Heap.noteStackAlloc(Opts.CacheId, rt::AllocCat::Other, Bytes);
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
  uintptr_t Addr = varAddr(Frames.back().Slots, TS->Var);
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

Vm::Flow Vm::execChunk(const Chunk &C, const uintptr_t SlotBase) {
  const uint32_t *Code = C.Code.data();
  // Immutable pools, hoisted so stores through arbitrary Value addresses do
  // not force reloading them (the compiler cannot prove M is unclobbered).
  const Type *const *TypePool = M->Types.data();
  const int64_t *IntPool = M->Ints.data();
  const VarDecl *const *VarPool = M->Vars.data();
  const Chunk *const *CalleePool = Callees.data();
  const rt::TypeDesc *const *DescPool = Descs.data();
  // SlotBase is the executing frame's slot region, which never moves:
  // runFunction pushes the frame before execChunk and pops it after, and
  // nested calls pop their own regions before returning here.
  size_t IP = 0;
  // Threaded dispatch: every handler knows its own static operand width and
  // ends in a computed jump to the next handler (GCC merges some of these
  // tails; see docs/VM.md, "Dispatch"). The jump table is generated from
  // the same X-macro as enum Op (order-checked in Bytecode.h), so adding an
  // opcode without a handler fails to compile instead of misdispatching.
  // Every chunk ends in Return/MissingRet (the compiler's epilogue) or
  // loops, so control never falls off the end of the code stream.
#define GOFREE_VM_LABEL(x) &&Do_##x,
  static const void *const Targets[] = {
      GOFREE_VM_FOR_EACH_OP(GOFREE_VM_LABEL)};
#undef GOFREE_VM_LABEL
  // The fuel counter and the operand-stack top live in registers for the
  // duration of the chunk: in this function `Sp` names the local below,
  // and the members Vm::FuelUsed and Vm::Sp are exact only where the rest
  // of the VM or the runtime reads them (see the invariant in Vm.h). SPILL
  // writes both back before every out-of-line call that can allocate (and
  // so park at a safepoint or collect), run a callee or read the stack;
  // RELOAD re-reads them after it, since a callee burns fuel and may push,
  // pop or move the stack buffer. SyncOnExit writes both back on every
  // return path. Without the GC-torture hook the per-opcode fuel cost is
  // one increment and one never-taken branch to the shared slow path
  // below; with it FastLimit is 0 so every dispatch goes slow.
  uint64_t Fuel = FuelUsed;
  const uint64_t FastLimit = FuelHooks ? 0 : Opts.MaxSteps;
  Value *Sp = this->Sp;
  struct SyncOnExit {
    Vm &V;
    const uint64_t &Fuel;
    Value *const &Sp;
    ~SyncOnExit() {
      V.FuelUsed = Fuel;
      V.Sp = Sp;
    }
  } Sync{*this, Fuel, Sp};
#define SPILL() (FuelUsed = Fuel, this->Sp = Sp)
#define RELOAD() (Fuel = FuelUsed, Sp = this->Sp)
  // Every dispatch, the fuel-exhausting one included, burns one fuel unit
  // and (in a GOFREE_VM_PROFILE build) counts once, so the profile's total
  // is the run's steps.
#ifdef GOFREE_VM_PROFILE
#define COUNT_OP() countOp(Code[IP])
#else
#define COUNT_OP() ((void)0)
#endif
#define DISPATCH_AT(NewIP)                                                     \
  do {                                                                         \
    IP = (NewIP);                                                              \
    COUNT_OP();                                                                \
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
    assert((size_t)(Sp - StackBuf.data()) <= StackBuf.size() &&                \
           "operand stack overflow");                                          \
    DISPATCH_AT(IP + 1 + (Words));                                             \
  } while (0)

  DISPATCH_AT(0);

SlowFuel:
  // One call-free branch target shared by all dispatch sites: run the rare
  // GC-torture hook (which also enforces MaxSteps) or report fuel
  // exhaustion.
  SPILL();
  if (!(FuelHooks ? burnFuelHooks() : outOfFuel()))
    return Flow::Fault;
  RELOAD();
  goto *Targets[Code[IP]];

Do_Const: {
  Value &V = *Sp++;
  V.Ty = TypePool[Code[IP + 1]];
  V.I = IntPool[Code[IP + 2]];
  NEXT(2);
}
Do_Nil: {
  Value &V = *Sp++;
  V = Value();
  V.Ty = TypePool[Code[IP + 1]];
  NEXT(1);
}
Do_LoadVar: {
  const VarDecl *Var = VarPool[Code[IP + 1]];
  *Sp++ = interp::loadValueAt(varAddr(SlotBase, Var), Var->Ty);
  NEXT(1);
}
Do_PopN:
  Sp -= Code[IP + 1];
  NEXT(1);
Do_Pick:
  *Sp = Sp[-(ptrdiff_t)Code[IP + 1]];
  ++Sp;
  NEXT(1);
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
Do_LoadSlotS: {
  Value &V = *Sp++;
  V.Ty = TypePool[Code[IP + 2]];
  std::memcpy(&V.S, reinterpret_cast<void *>(SlotBase + Code[IP + 1]),
              sizeof(rt::SliceHeader));
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
Do_StoreSlotS:
  --Sp;
  std::memcpy(reinterpret_cast<void *>(SlotBase + Code[IP + 1]), &Sp->S,
              sizeof(rt::SliceHeader));
  NEXT(1);
Do_IncSlotI: {
  const uintptr_t Slot = SlotBase + Code[IP + 1];
  writeU64(Slot, (uint64_t)arith::wrapAdd((int64_t)readU64(Slot),
                                          IntPool[Code[IP + 2]]));
  NEXT(2);
}
Do_AddToSlot: {
  const uintptr_t Slot = SlotBase + Code[IP + 1];
  --Sp;
  writeU64(Slot, (uint64_t)arith::wrapAdd((int64_t)readU64(Slot), Sp->I));
  NEXT(1);
}

Do_Jump:
  DISPATCH_AT(Code[IP + 1]);
Do_JumpIfFalse:
  --Sp;
  if (!Sp->I)
    DISPATCH_AT(Code[IP + 1]);
  NEXT(1);
Do_JumpIfPeek:
  if ((Sp[-1].I != 0) == (Code[IP + 2] != 0))
    DISPATCH_AT(Code[IP + 1]);
  NEXT(2);
#define GOFREE_VM_CMPJUMP(name, cmp)                                          \
  Do_##name : Sp -= 2;                                                        \
  if (Sp[0].I cmp Sp[1].I)                                                    \
    DISPATCH_AT(Code[IP + 1]);                                                \
  NEXT(1);
GOFREE_VM_CMPJUMP(JumpIfLt, <)
GOFREE_VM_CMPJUMP(JumpIfLe, <=)
GOFREE_VM_CMPJUMP(JumpIfGt, >)
GOFREE_VM_CMPJUMP(JumpIfGe, >=)
GOFREE_VM_CMPJUMP(JumpIfEq, ==)
GOFREE_VM_CMPJUMP(JumpIfNe, !=)
#undef GOFREE_VM_CMPJUMP
// The bound (an int local or a slice local's Len word) is re-read from the
// frame on every test, so a loop body that reassigns it bounds the next
// iteration by the new value.
Do_JumpIfNotLtSlot:
  if (!((int64_t)readU64(SlotBase + Code[IP + 1]) <
        (int64_t)readU64(SlotBase + Code[IP + 2])))
    DISPATCH_AT(Code[IP + 3]);
  NEXT(3);
Do_IncJumpIfLtSlot: {
  const uintptr_t Slot = SlotBase + Code[IP + 1];
  const int64_t I =
      arith::wrapAdd((int64_t)readU64(Slot), IntPool[Code[IP + 2]]);
  writeU64(Slot, (uint64_t)I);
  if (I < (int64_t)readU64(SlotBase + Code[IP + 3]))
    DISPATCH_AT(Code[IP + 4]);
  NEXT(4);
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
// Constant right operand: rewrite the top in place, nothing popped.
#define GOFREE_VM_BINOP_K(name, expr)                                         \
  Do_##name : {                                                               \
    const int64_t R = IntPool[Code[IP + 2]];                                  \
    Value &L = Sp[-1];                                                        \
    L.Ty = TypePool[Code[IP + 1]];                                            \
    L.I = (expr);                                                             \
    NEXT(2);                                                                  \
  }
GOFREE_VM_BINOP_K(AddK, arith::wrapAdd(L.I, R))
GOFREE_VM_BINOP_K(MulK, arith::wrapMul(L.I, R))
#undef GOFREE_VM_BINOP_K
Do_ModK: {
  const int64_t R = IntPool[Code[IP + 2]];
  Value &L = Sp[-1];
  bool DivZero; // Never set: the compiler keeps Mod for `% 0`.
  L.Ty = TypePool[Code[IP + 1]];
  L.I = arith::goMod(L.I, R, DivZero);
  NEXT(2);
}
// An unboxed int local as an operand, read from its frame slot.
Do_AddSlot: {
  Value &L = Sp[-1];
  L.Ty = TypePool[Code[IP + 2]];
  L.I = arith::wrapAdd(L.I, (int64_t)readU64(SlotBase + Code[IP + 1]));
  NEXT(2);
}
Do_MulSlotK: {
  Value &V = *Sp++;
  V.Ty = TypePool[Code[IP + 2]];
  V.I = arith::wrapMul((int64_t)readU64(SlotBase + Code[IP + 1]),
                       IntPool[Code[IP + 3]]);
  NEXT(3);
}
Do_ModSlotK: {
  Value &V = *Sp++;
  bool DivZero; // Never set: the compiler keeps Mod for `% 0`.
  V.Ty = TypePool[Code[IP + 2]];
  V.I = arith::goMod((int64_t)readU64(SlotBase + Code[IP + 1]),
                     IntPool[Code[IP + 3]], DivZero);
  NEXT(3);
}
Do_MulAddSlot: {
  Value &V = *Sp++;
  V.Ty = TypePool[Code[IP + 2]];
  const int64_t X = (int64_t)readU64(SlotBase + Code[IP + 1]);
  V.I = arith::wrapAdd(arith::wrapMul(X, IntPool[Code[IP + 3]]),
                       (int64_t)readU64(SlotBase + Code[IP + 4]));
  NEXT(4);
}
Do_Cmp: {
  const Value &R = *--Sp;
  Value &L = Sp[-1];
  bool B;
  switch ((CmpCond)Code[IP + 2]) {
  case CmpCond::Lt:
    B = L.I < R.I;
    break;
  case CmpCond::Le:
    B = L.I <= R.I;
    break;
  case CmpCond::Gt:
    B = L.I > R.I;
    break;
  case CmpCond::Ge:
    B = L.I >= R.I;
    break;
  default: {
    bool Equal;
    switch (Code[IP + 3]) {
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
    B = (CmpCond)Code[IP + 2] == CmpCond::Eq ? Equal : !Equal;
    break;
  }
  }
  L.Ty = TypePool[Code[IP + 1]];
  L.I = B;
  NEXT(3);
}

Do_Deref: {
  Value &T = Sp[-1];
  if (!T.A) {
    fault("nil pointer dereference");
    return Flow::Fault;
  }
  T = interp::loadValueAt(T.A + Code[IP + 1], TypePool[Code[IP + 2]]);
  NEXT(2);
}
Do_DerefSlot: {
  const uintptr_t P = readU64(SlotBase + Code[IP + 1]);
  if (!P) {
    fault("nil pointer dereference");
    return Flow::Fault;
  }
  *Sp++ = interp::loadValueAt(P + Code[IP + 2], TypePool[Code[IP + 3]]);
  NEXT(3);
}
Do_MkPtr:
  Sp[-1].Ty = TypePool[Code[IP + 1]]; // The raw address is already there.
  NEXT(1);
Do_FieldVal: {
  Value &T = Sp[-1];
  T = interp::loadValueAt(T.A + Code[IP + 1], TypePool[Code[IP + 2]]);
  NEXT(2);
}
Do_IndexSlice: {
  const int64_t Idx = (--Sp)->I;
  Value &B = Sp[-1];
  if (Idx < 0 || Idx >= B.S.Len) {
    fault("slice index out of range");
    return Flow::Fault;
  }
  const Type *ElemTy = TypePool[Code[IP + 1]];
  B = interp::loadValueAt(B.S.Data + (uintptr_t)Idx * ElemTy->size(), ElemTy);
  NEXT(1);
}
// `s[i]` and `s[i] = v` on slot locals read the slice's Data and Len and
// the index straight from the frame: no 24-byte header copy, no operand
// pushes.
Do_IndexSlot: {
  const Type *ElemTy = TypePool[Code[IP + 3]];
  uintptr_t Elem;
  if (!slotElemAt(SlotBase + Code[IP + 1],
                  (int64_t)readU64(SlotBase + Code[IP + 2]), ElemTy->size(),
                  Elem)) {
    fault("slice index out of range");
    return Flow::Fault;
  }
  *Sp++ = interp::loadValueAt(Elem, ElemTy);
  NEXT(3);
}
Do_IndexMap: {
  Sp -= 2;
  const int64_t K = Sp[1].I;
  const uintptr_t Map = Sp[0].A;
  const Type *ValTy = TypePool[Code[IP + 1]];
  // Reading from a nil map yields the zero value, like Go.
  if (ValTy->isStruct()) {
    SPILL(); // frameTemp reads the operand stack.
    uintptr_t Tmp = frameTemp(ValTy->size());
    RELOAD();
    if (Map)
      rt::mapLookup(Map, K, reinterpret_cast<void *>(Tmp), ValTy->size());
    else
      std::memset(reinterpret_cast<void *>(Tmp), 0, ValTy->size());
    Value &V = *Sp++;
    V = Value();
    V.Ty = ValTy;
    V.A = Tmp;
  } else {
    interp::MapValueBuf Buf(ValTy->size());
    if (Map)
      rt::mapLookup(Map, K, Buf.data(), ValTy->size());
    *Sp++ = interp::loadValueAt(Buf.addr(), ValTy);
  }
  NEXT(1);
}

Do_LvalVar: {
  Value &V = *Sp++;
  V = Value();
  V.A = varAddr(SlotBase, VarPool[Code[IP + 1]]);
  NEXT(1);
}
Do_LvalDeref: {
  Value &T = Sp[-1];
  if (!T.A) {
    fault("nil pointer dereference");
    return Flow::Fault;
  }
  T.A += Code[IP + 1];
  T.Ty = nullptr; // Becomes a raw address; the scanner marks via A.
  NEXT(1);
}
Do_LvalIndex: {
  const int64_t Idx = (--Sp)->I;
  Value &B = Sp[-1];
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
Do_StoreIndexSlot: {
  // The value was evaluated first and stays rooted on the stack until the
  // store: the bounds check faults after the RHS, like the tree-walker.
  uintptr_t Elem;
  if (!slotElemAt(SlotBase + Code[IP + 1],
                  (int64_t)readU64(SlotBase + Code[IP + 2]), Code[IP + 3],
                  Elem)) {
    fault("slice index out of range");
    return Flow::Fault;
  }
  --Sp;
  interp::storeValueAt(Heap, Types, Elem, *Sp);
  NEXT(3);
}
Do_StoreIndexS: {
  uintptr_t Elem;
  if (!slotElemAt(SlotBase + Code[IP + 1], Sp[-1].I, Code[IP + 2], Elem)) {
    fault("slice index out of range");
    return Flow::Fault;
  }
  Sp -= 2;
  interp::storeValueAt(Heap, Types, Elem, Sp[0]);
  NEXT(2);
}
Do_StoreVarInit: {
  const VarDecl *Var = VarPool[Code[IP + 1]];
  // The value stays on the stack, rooted, while the slot may heap-box.
  SPILL();
  initVarSlot(SlotBase, Var);
  RELOAD();
  --Sp;
  interp::storeValueAt(Heap, Types, varAddr(SlotBase, Var), *Sp);
  NEXT(1);
}
Do_InitVar:
  SPILL();
  initVarSlot(SlotBase, VarPool[Code[IP + 1]]);
  RELOAD();
  NEXT(1);
Do_MapNilCheck:
  if (!Sp[-1].A) {
    fault("assignment to entry in nil map");
    return Flow::Fault;
  }
  NEXT(0);
Do_StoreMap: {
  // Stack: [v, m, k]; all three stay rooted while mapAssign may grow.
  {
    // Its own scope: NEXT's computed goto runs no destructors, and a
    // value over 64 bytes puts Buf on the C++ heap.
    interp::MapValueBuf Buf(Sp[-3].Ty->size());
    interp::storeValueAt(Buf.addr(), Sp[-3]);
    SPILL();
    rt::mapAssign(mapCtx(Code[IP + 1]), Sp[-2].A, Sp[-1].I, Buf.data());
    RELOAD();
  }
  Sp -= 3;
  NEXT(1);
}

// A call leaves the callee's results where its arguments were.
Do_Call: {
  const uint32_t Argc = Code[IP + 2];
  const size_t ArgBase = (size_t)(Sp - StackBuf.data()) - Argc;
  SPILL();
  Flow Fl = runFunction(CalleePool[Code[IP + 1]], ArgBase, Argc);
  RELOAD();
  if (Fl != Flow::Normal)
    return Fl;
  Value *Results = StackBuf.data() + ArgBase;
  if (Sp == Results) {
    Value &V = *Sp++;
    V = Value();
    V.Ty = TypePool[Code[IP + 3]];
  } else {
    Sp = Results + 1;
  }
  NEXT(3);
}
Do_CallMulti:
Do_CallStmt: {
  const uint32_t Argc = Code[IP + 2];
  const size_t ArgBase = (size_t)(Sp - StackBuf.data()) - Argc;
  SPILL();
  Flow Fl = runFunction(CalleePool[Code[IP + 1]], ArgBase, Argc);
  RELOAD();
  if (Fl != Flow::Normal)
    return Fl;
  if ((Op)Code[IP] == Op::CallStmt)
    Sp = StackBuf.data() + ArgBase;
  NEXT(2);
}
Do_Defer: {
  const uint32_t Argc = Code[IP + 2];
  Defers.push_back(
      {CalleePool[Code[IP + 1]], (uint32_t)DeferArgs.size(), Argc});
  DeferArgs.insert(DeferArgs.end(), Sp - Argc, Sp);
  Sp -= Argc;
  // The arguments may refer to the frame's struct temporaries; keep those.
  Frames.back().TempFloor = Slots.mark();
  NEXT(2);
}
// The returned values stay on top of the operand stack; runFunction moves
// them down over the arguments once the defers have run.
Do_Return:
  return Flow::Return;
Do_MissingRet:
  fault("missing return in '" + std::string(C.Fn->Name) + "'");
  return Flow::Fault;

// The allocation sites pop their operands and push the object through the
// members.
#define GOFREE_VM_SITE(name, fn, pool)                                        \
  Do_##name : {                                                               \
    SPILL();                                                                  \
    Flow Fl = fn(M->pool[Code[IP + 1]]);                                      \
    RELOAD();                                                                 \
    if (Fl != Flow::Normal)                                                   \
      return Fl;                                                              \
    NEXT(1);                                                                  \
  }
GOFREE_VM_SITE(Make, doMake, Makes)
GOFREE_VM_SITE(New, doNew, News)
GOFREE_VM_SITE(Composite, doComposite, Composites)
#undef GOFREE_VM_SITE
Do_SetField:
  --Sp;
  interp::storeValueAt(Heap, Types, Sp[-1].A + Code[IP + 1], *Sp);
  NEXT(1);
Do_LenCap: {
  Value &T = Sp[-1];
  T.I = Code[IP + 2] ? T.S.Cap : T.S.Len;
  T.Ty = TypePool[Code[IP + 1]];
  NEXT(2);
}
Do_LenMap: {
  Value &T = Sp[-1];
  T.I = T.A ? rt::mapLen(T.A) : 0;
  T.Ty = TypePool[Code[IP + 1]];
  NEXT(1);
}
Do_Append: {
  // Stack: [s, v]; both stay rooted while the backing array may grow.
  const Type *SliceTy = TypePool[Code[IP + 1]];
  const size_t ElemSize = SliceTy->elem()->size();
  SPILL();
  rt::SliceGrow G =
      rt::sliceGrowForAppend(Heap, Sp[-2].S, DescPool[Code[IP + 2]], ElemSize,
                             Opts.CacheId, Opts.Slice);
  RELOAD();
  if (G == rt::SliceGrow::Overflow) {
    fault("growslice: cap out of range");
    return Flow::Fault;
  }
  Value &S = Sp[-2];
  interp::storeValueAt(Heap, Types, S.S.Data + (uintptr_t)S.S.Len * ElemSize,
                       Sp[-1]);
  ++S.S.Len;
  S.Ty = SliceTy;
  --Sp;
  NEXT(2);
}
Do_Slicing: {
  const uint32_t Flags = Code[IP + 2];
  const int64_t HiArg = (Flags & 2) ? (--Sp)->I : 0;
  const int64_t Lo = (Flags & 1) ? (--Sp)->I : 0;
  Value &B = Sp[-1];
  const int64_t Hi = (Flags & 2) ? HiArg : B.S.Len;
  if (Lo < 0 || Lo > Hi || Hi > B.S.Cap) {
    fault("slice bounds out of range");
    return Flow::Fault;
  }
  B.Ty = TypePool[Code[IP + 1]];
  B.S.Data += (uintptr_t)Lo * B.Ty->elem()->size();
  B.S.Len = Hi - Lo;
  B.S.Cap -= Lo;
  NEXT(2);
}
Do_Copy: {
  Sp -= 2;
  const rt::SliceHeader Dst = Sp[0].S, Src = Sp[1].S;
  int64_t N = std::min(Dst.Len, Src.Len);
  if (N > 0) {
    Heap.gcCopyBarrier(Dst.Data, Src.Data, (size_t)N * Code[IP + 2],
                       DescPool[Code[IP + 3]]);
    rt::copyWordsRelaxed(Dst.Data, Src.Data, (size_t)N * Code[IP + 2]);
  }
  Value &V = *Sp++;
  V = Value();
  V.Ty = TypePool[Code[IP + 1]];
  V.I = N;
  NEXT(3);
}

Do_Panic:
  --Sp;
  Result.Panicked = true;
  Result.PanicValue = Sp->I;
  return Flow::Panic;
Do_Sink:
  --Sp;
  Result.Checksum = Result.Checksum * 1099511628211ULL ^ (uint64_t)Sp->I;
  ++Result.SinkCount;
  NEXT(0);
Do_Delete:
  Sp -= 2;
  if (Sp[0].A)
    rt::mapDelete(Sp[0].A, Sp[1].I);
  NEXT(0);
Do_Tcfree:
  SPILL();
  doTcfree(M->Tcfrees[Code[IP + 1]]);
  RELOAD();
  NEXT(1);
#undef NEXT
#undef DISPATCH_AT
#undef COUNT_OP
#undef RELOAD
#undef SPILL
}

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

void Vm::runDefers(size_t DeferBase) {
  while (Defers.size() > DeferBase) {
    Deferred D = Defers.back();
    Defers.pop_back();
    size_t ArgBase = depth();
    reserveStack(D.Argc);
    for (uint32_t I = 0; I < D.Argc; ++I)
      push(DeferArgs[D.ArgBegin + I]); // Rooted for the deferred call.
    DeferArgs.resize(D.ArgBegin);
    runFunction(D.Callee, ArgBase, D.Argc);
    setDepth(ArgBase);
    // A panic from a deferred call is recorded but does not stop the
    // remaining defers (matching the tree-walker); a fault does.
    if (faulted())
      return;
  }
}

Vm::Flow Vm::runFunction(const Chunk *C, size_t ArgBase, size_t Argc) {
  if (!C) {
    fault("call to unresolved function");
    return Flow::Fault;
  }
  if (Frames.size() >= interp::MaxFrames) {
    Result.OutOfFuel = true;
    fault("call stack overflow");
    return Flow::Fault;
  }
  const FuncDecl *Fn = C->Fn;

  // Struct results are copied out of the callee's region before it is
  // popped, into temporaries of the caller's (still topmost) region below
  // the callee's, so the copies never overlap their sources.
  uintptr_t RetCopies =
      C->StructResultBytes ? frameTemp(C->StructResultBytes) : 0;
  const SlotStack::Mark Base = Slots.mark();
  const size_t SlotBytes = Fn->FrameSize + 8 * (size_t)C->NumSites;
  const uintptr_t SlotBase = Slots.push(SlotBytes);
  std::memset(reinterpret_cast<void *>(SlotBase), 0, SlotBytes);
  const size_t StackObjBase = StackObjs.size();
  const size_t DeferBase = Defers.size();
  const size_t DeferArgBase = DeferArgs.size();
  const size_t TransientBase = ArgBase + Argc;
  Frames.push_back({Fn, SlotBase, TransientBase, Slots.mark()});

  assert(Argc == Fn->Params.size() && "argument count mismatch");
  for (size_t I = 0; I < Argc; ++I) {
    // May heap-box escaped parameters; the argument stays rooted on the
    // stack.
    initVarSlot(SlotBase, Fn->Params[I]);
    if (faulted())
      break;
    interp::storeValueAt(Heap, Types, varAddr(SlotBase, Fn->Params[I]),
                         StackBuf[ArgBase + I]);
  }

  assert(depth() == TransientBase && "arguments must be on top");
  reserveStack(C->MaxDepth);
  Flow F1 = faulted() ? Flow::Fault : execChunk(*C, SlotBase);
  // A Return leaves exactly the returned values above the arguments
  // (statements are depth-neutral). An abrupt exit (panic, fault) leaves
  // partial expression state instead; drop it.
  size_t NRet = F1 == Flow::Return ? depth() - TransientBase : 0;
  setDepth(TransientBase + NRet);

  // Defers run on return and panic; a fault (including the missing-return
  // fault) skips them, exactly like the tree-walker. Their arguments go
  // above the pending returns, which stay rooted on the operand stack.
  if (F1 != Flow::Fault) {
    runDefers(DeferBase);
    if (faulted() && F1 != Flow::Panic)
      F1 = Flow::Fault;
  }

  // Struct-typed return values reference storage that may lie inside the
  // dying frame; copy them out before it is popped.
  Value *Rets = StackBuf.data() + TransientBase;
  for (size_t I = 0; I < NRet; ++I) {
    Value &V = Rets[I];
    if (!V.Ty || !V.Ty->isStruct() || !V.A)
      continue;
    size_t Bytes = V.Ty->size();
    assert(RetCopies && "struct result without reserved storage");
    std::memcpy(reinterpret_cast<void *>(RetCopies),
                reinterpret_cast<void *>(V.A), Bytes);
    V.A = RetCopies;
    RetCopies += (Bytes + 7) & ~(size_t)7;
  }
  std::copy(Rets, Rets + NRet, StackBuf.data() + ArgBase);
  setDepth(ArgBase + NRet);

  StackObjs.resize(StackObjBase);
  Defers.resize(DeferBase);
  DeferArgs.resize(DeferArgBase);
  Frames.pop_back();
  Slots.popTo(Base);
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
  Slots.popTo({});
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
  runFunction(M->chunkFor(Fn), 0, Args.size());
  Result.Steps = FuelUsed;
#ifdef GOFREE_VM_PROFILE
  {
    std::lock_guard<std::mutex> L(ProfileMu);
    processProfile().add(*Prof);
  }
  *Prof = OpProfile();
  ProfPrev = NumOps;
#endif
  if (!FaultMsg.empty() && !Result.OutOfFuel)
    Result.Error = FaultMsg;
  setDepth(0);
  return Result;
}
