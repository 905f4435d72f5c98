//===- vm/Bytecode.h - MiniGo bytecode chunks and opcodes ------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compact bytecode the VM executes (see docs/VM.md). One Chunk per
/// function: a word-coded stream of opcodes and operands over a module-wide
/// set of constant pools. Operands are indices into those pools (or raw
/// small integers: byte offsets, argument counts, jump targets), so the
/// stream itself is a flat vector<uint32_t> with no embedded pointers.
///
/// Allocation sites (make/new/composite) and tcfree statements keep a
/// pointer back to their AST node in a side pool: the node carries exactly
/// the fields the runtime needs (AllocId, const-size info, field lists) and
/// outlives the module, so re-encoding them per-opcode would only add a
/// second copy to keep in sync. What the compiler can resolve once -- the
/// runtime type descriptors a site or op needs, and each site's dense
/// per-chunk stack-slot index -- travels with the site or as an operand.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_VM_BYTECODE_H
#define GOFREE_VM_BYTECODE_H

#include "minigo/Ast.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace gofree {
namespace vm {

/// Opcodes. The operand words each op consumes are listed in the comment;
/// `t` is a TypePool index, `v` a VarPool index, `f` a FuncPool index,
/// `k` an IntPool index, `d` a Descs index, `mt` a MapTypes index, `off` a
/// raw byte offset, `tgt` an absolute code index. The operand stack grows
/// upward; "pop a, b" pops a first (a was on top).
enum class Op : uint32_t {
  // Constants and variables.
  Const,    ///< t k    : push {Ty, I=IntPool[k]}
  Nil,      ///< t      : push the zero value of Ty
  LoadVar,  ///< v      : push load(varAddr(v), v->Ty)
  PopN,     ///< n      : drop the top n values
  Pick,     ///< n      : push a copy of the value n slots below the top
            ///<          (n=1 duplicates the top)
  // Slot operands: a local that is not MovedToHeap, of int/bool (I),
  // pointer/map (A) or slice (S) type, is read and written at its frame
  // offset with no varAddr/type dispatch. `len(s)` and `cap(s)` of a slice
  // local are LoadSlotI of its Len or Cap word. Slot stores skip the
  // write barrier: a frame slot is never a heap word (the barrier's span
  // filter drops it anyway) and the final mark flip rescans frame roots.
  LoadSlotI,  ///< off t : push {Ty=t, I=slot}
  LoadSlotA,  ///< off t : push {Ty=t, A=slot}
  LoadSlotS,  ///< off t : push {Ty=t, S=the 24-byte slice header at slot}
  StoreSlotI, ///< off   : pop v, slot = v.I
  StoreSlotA, ///< off   : pop v, slot = v.A
  StoreSlotS, ///< off   : pop v, slot = v.S (the 24-byte header)
  IncSlotI,   ///< off k : slot += IntPool[k] (wrapping), no stack traffic:
              ///<         `x = x + K`, `x += K`, `x++` (and the minus forms,
              ///<         with k naming the wrapping negation of K)
  AddToSlot,  ///< off   : pop v, slot += v.I (wrapping): `x = x + e`, `x += e`
              ///<         for an e that calls no function (x is read after e)

  // Control flow (within one chunk).
  Jump,        ///< tgt
  JumpIfFalse, ///< tgt   : pop cond, jump when zero
  JumpIfPeek,  ///< tgt b : peek cond, jump when (cond != 0) == b: the
               ///<          short circuit of `&&` (b=0) and `||` (b=1)
  // Fused compare-and-branch on two popped int/bool operands: pop r, l,
  // jump when `l OP r`. One dispatch (and one fuel step) instead of a
  // comparison and a jfalse. An `if` (and a loop's entry test) jumps on
  // the negated condition, which is exact for int64: !(l < r) is l >= r.
  // A loop whose condition fuses is inverted: the test sits at the bottom
  // and jumps back on the condition itself, so no `jump` runs per
  // iteration.
  JumpIfLt, ///< tgt
  JumpIfLe, ///< tgt
  JumpIfGt, ///< tgt
  JumpIfGe, ///< tgt
  JumpIfEq, ///< tgt : scalars only (eq class 0)
  JumpIfNe, ///< tgt
  // `i < n` for an unboxed int local i and a bound n read from the frame:
  // boff is the slot of an unboxed int local or the Len word of an unboxed
  // slice local (`i < len(s)`). Both words are read straight from their
  // slots on every test, so a loop body that reassigns the bound (or the
  // slice) limits the next iteration by the new value.
  JumpIfNotLtSlot, ///< ioff boff tgt : jump unless i < n
  /// The bottom of an inverted `for ...; i < n; i += K` loop: the post
  /// statement and the test in one dispatch.
  IncJumpIfLtSlot, ///< ioff k boff tgt : i += IntPool[k] (wrapping); jump
                   ///<                   when i < n

  // Arithmetic and logic (Go wrap semantics; see support/GoArith.h). Unary
  // `-v` compiles to `0 - v` (a literal folds to a constant) and `!v` to
  // `v == false`.
  Add, ///< t : pop r, l, push l+r     (likewise Sub/Mul/Div/Mod)
  Sub, ///< t
  Mul, ///< t
  Div, ///< t : faults "integer divide by zero"
  Mod, ///< t
  // Constant right operand: `l + K` etc. with K a literal rewrites the top
  // of the stack in place, one dispatch instead of Const + the op.
  AddK, ///< t k : top = top + IntPool[k]
  MulK, ///< t k : top = top * IntPool[k]
  ModK, ///< t k : top = top % IntPool[k]; only for a nonzero literal, so
        ///<       `% 0` keeps Mod's faulting path
  // An unboxed int local as an operand, read from its slot: one dispatch
  // instead of LoadSlotI + the op.
  AddSlot,  ///< off t   : top = top + slot (the local is the right operand)
  MulSlotK, ///< off t k : push slot * IntPool[k]
  ModSlotK, ///< off t k : push slot % IntPool[k]; nonzero literals only
  MulAddSlot, ///< xoff t k yoff : push x * IntPool[k] + y (wrapping)
  /// A comparison whose value is used (not branched on): pop r, l, push
  /// `l cond r` (CmpCond). For Eq/Ne, cls 0 = scalar, 1 = slice,
  /// 2 = address (ptr/map); the ordered conditions ignore cls.
  Cmp, ///< t cond cls

  // Loads through pointers, fields, and indices.
  Deref,      ///< off t : pop p (nil check), push load(p.A+off, t): `*p`
              ///<         (off 0) and `p.f` through a pointer
  DerefSlot,  ///< poff off t : Deref of the unboxed pointer local at poff
  MkPtr,      ///< t     : pop raw address, push {Ty=t, A=addr} (AddrOf)
  FieldVal,   ///< off t : pop struct s, push load(s.A+off, t)
  IndexSlice, ///< t     : pop i, s (bounds check), push load of element
  IndexSlot,  ///< soff ioff t : push s[i] for an unboxed slice local s and
              ///<               an unboxed int local i (bounds check)
  IndexMap,   ///< t     : pop k, m; nil map reads zero; struct values get
              ///<         a copy that extends the executing frame

  // Lvalues: raw storage addresses as untyped (Ty=null) stack values. The
  // compiler guarantees no allocating op runs between the first Lval* op
  // of an address computation and the Store that consumes it, so the GC
  // never sees an unrooted interior address with a dead base (the same
  // window discipline Interp::evalLvalueAddr relies on).
  LvalVar,   ///< v   : push {A=varAddr(v)}
  LvalDeref, ///< off : pop p (nil check), push {A=p.A+off}: `*p` (off 0),
             ///<       `p.f` through a pointer, and `x.f` on a raw
             ///<       address (never nil, so the check never fires)
  LvalIndex, ///< sz  : pop i, s (bounds check), push {A=data+i*sz}

  // Stores.
  Store,          ///<     : pop raw addr, pop v, storeValue(addr, v)
  /// `s[i] = v` for an unboxed slice local s and an unboxed int local i,
  /// after v is evaluated: the bounds check, then the barrier-aware store.
  StoreIndexSlot, ///< soff ioff sz : pop v, storeValue(data+i*sz, v)
  /// Likewise with the index computed on the stack: `s[e] = v`, for an e
  /// that calls no function (s is read after e).
  StoreIndexS,    ///< soff sz : pop i, v; storeValue(data+i*sz, v)
  StoreVarInit,   ///< v   : initVarSlot(v) (may heap-box), pop v, store
  InitVar,        ///< v   : initVarSlot(v) only (zero / fresh box)
  MapNilCheck,    ///<     : peek map, fault "assignment to entry in nil map"
  StoreMap,       ///< mt  : stack [v, m, k]; mapAssign(m, k, v); pop 3

  // Calls, defers, returns.
  Call,      ///< f argc t : args on stack; push one result (zero {t} if
             ///<            the callee returns nothing)
  CallMulti, ///< f argc   : push every result (multi-value contexts)
  CallStmt,  ///< f argc   : discard results (expression statements)
  Defer,     ///< f argc   : pop argc args into a pending defer
  Return,    ///< n        : return the top n values (they stay on the
             ///<            stack; the call moves them over the args)
  MissingRet,///<          : fault "missing return in 'NAME'"

  // Allocation and built-ins.
  Make,      ///< m   : Makes[m]; operands per Len/CapExpr presence
  New,       ///< n   : News[n]
  Composite, ///< c   : Composites[c]; push the (rooted) object
  SetField,  ///< off : pop v, peek obj, store into obj.A+off
  LenCap,    ///< t w : pop s, push len(s) (w 0) or cap(s) (w 1)
  LenMap,    ///< t
  Append,    ///< t d : stack [s, v] (both stay rooted across growth);
             ///<         d is the backing array's descriptor
  Slicing,   ///< t flags : bit0 = has lo, bit1 = has hi
  Copy,      ///< t sz d  : pop src, dst; push count

  // Statements with runtime support.
  Panic,  ///<   : pop v; record panic
  Sink,   ///<   : pop v; fold into the checksum
  Delete, ///<   : pop k, m; mapDelete
  Tcfree, ///< s : Tcfrees[s]
};

/// The condition operand of Op::Cmp.
enum class CmpCond : uint32_t { Lt, Le, Gt, Ge, Eq, Ne };

/// X-macro over every opcode, in encoding order. The VM's threaded-dispatch
/// jump table is generated from this list; the static_asserts below pin it
/// to the enum so the two cannot drift.
#define GOFREE_VM_FOR_EACH_OP(X)                                             \
  X(Const) X(Nil) X(LoadVar) X(PopN) X(Pick)                                 \
  X(LoadSlotI) X(LoadSlotA) X(LoadSlotS) X(StoreSlotI) X(StoreSlotA)         \
  X(StoreSlotS) X(IncSlotI) X(AddToSlot)                                     \
  X(Jump) X(JumpIfFalse) X(JumpIfPeek)                                       \
  X(JumpIfLt) X(JumpIfLe) X(JumpIfGt) X(JumpIfGe) X(JumpIfEq) X(JumpIfNe)    \
  X(JumpIfNotLtSlot) X(IncJumpIfLtSlot)                                      \
  X(Add) X(Sub) X(Mul) X(Div) X(Mod) X(AddK) X(MulK) X(ModK)                \
  X(AddSlot) X(MulSlotK) X(ModSlotK) X(MulAddSlot) X(Cmp)                    \
  X(Deref) X(DerefSlot) X(MkPtr) X(FieldVal) X(IndexSlice) X(IndexSlot)      \
  X(IndexMap)                                                                \
  X(LvalVar) X(LvalDeref) X(LvalIndex)                                       \
  X(Store) X(StoreIndexSlot) X(StoreIndexS) X(StoreVarInit) X(InitVar)      \
  X(MapNilCheck) X(StoreMap)                                                 \
  X(Call) X(CallMulti) X(CallStmt) X(Defer) X(Return) X(MissingRet)          \
  X(Make) X(New) X(Composite) X(SetField)                                    \
  X(LenCap) X(LenMap) X(Append) X(Slicing) X(Copy)                          \
  X(Panic) X(Sink) X(Delete) X(Tcfree)

namespace detail {
/// Re-derives each opcode's position from the X-macro and checks it against
/// the hand-written enum above.
enum class OpOrder : uint32_t {
#define GOFREE_VM_OP_ORDER(x) x,
  GOFREE_VM_FOR_EACH_OP(GOFREE_VM_OP_ORDER)
#undef GOFREE_VM_OP_ORDER
      Count_
};
#define GOFREE_VM_OP_CHECK(x)                                                \
  static_assert((uint32_t)OpOrder::x == (uint32_t)Op::x,                     \
                "GOFREE_VM_FOR_EACH_OP out of sync with enum Op");
GOFREE_VM_FOR_EACH_OP(GOFREE_VM_OP_CHECK)
#undef GOFREE_VM_OP_CHECK
static_assert((uint32_t)OpOrder::Count_ == (uint32_t)Op::Tcfree + 1,
              "GOFREE_VM_FOR_EACH_OP misses an opcode");
} // namespace detail

/// Number of opcodes.
inline constexpr uint32_t NumOps = (uint32_t)detail::OpOrder::Count_;
/// The op set may not grow: a new fused op pays for itself by folding cold
/// ones, chosen by the committed op profile (docs/VM.md, "The op set").
static_assert(NumOps <= 73, "the VM op set is capped at 73 opcodes");

/// The compiled body of one function.
struct Chunk {
  const minigo::FuncDecl *Fn = nullptr;
  std::vector<uint32_t> Code;
  /// Most operand-stack entries the chunk holds at once, above the callee's
  /// arguments. The VM guarantees this much headroom on entry, so no push
  /// inside the chunk checks capacity.
  uint32_t MaxDepth = 0;
  /// Allocation sites in the chunk; each owns one dense index into its
  /// frame's site-slot table (the fixed slot of a stack-placed site).
  uint32_t NumSites = 0;
  /// Bytes the caller sets aside for copies of the function's struct
  /// results: their sizes, each rounded up to 8.
  uint32_t StructResultBytes = 0;
};

/// A runtime type descriptor an op needs, named by how it derives from a
/// frontend type. Descriptors belong to each VM's TypeLower, so a module
/// records only the request; the VM resolves the whole pool once.
struct DescRef {
  enum Kind : uint8_t {
    Object, ///< TypeLower::lower(T)
    Array,  ///< TypeLower::arrayOf(T): a backing array of T elements
  };
  Kind K;
  const minigo::Type *T;
};

/// make(): the AST node plus what the VM resolves in advance.
struct MakeSite {
  const minigo::MakeExpr *E;
  uint32_t Desc; ///< Slices: Descs index of the backing array.
  uint32_t Map;  ///< Maps: MapTypes index.
  uint32_t Site; ///< Dense per-chunk site-slot index.
};

/// new() or a composite literal: the allocated object's descriptor.
template <typename ExprT> struct ObjSite {
  const ExprT *E;
  uint32_t Desc; ///< Descs index of the object's type.
  uint32_t Site; ///< Dense per-chunk site-slot index.
};

/// A compiled program: one chunk per function plus the shared pools the
/// opcode operands index into. Immutable once built, so parallel workers
/// can execute one module concurrently; the AST it points into must
/// outlive it.
struct Module {
  const minigo::Program *Prog = nullptr;
  std::vector<Chunk> Chunks;
  std::unordered_map<const minigo::FuncDecl *, uint32_t> ChunkOf;

  std::vector<int64_t> Ints;
  std::vector<const minigo::Type *> Types;
  std::vector<const minigo::VarDecl *> Vars;
  std::vector<const minigo::FuncDecl *> Funcs;
  std::vector<DescRef> Descs;
  /// Map types whose assignments or heap makes need a rt::MapCtx.
  std::vector<const minigo::Type *> MapTypes;
  std::vector<MakeSite> Makes;
  std::vector<ObjSite<minigo::NewExpr>> News;
  std::vector<ObjSite<minigo::CompositeExpr>> Composites;
  std::vector<const minigo::TcfreeStmt *> Tcfrees;

  const Chunk *chunkFor(const minigo::FuncDecl *Fn) const {
    auto It = ChunkOf.find(Fn);
    return It == ChunkOf.end() ? nullptr : &Chunks[It->second];
  }
};

/// Mnemonic for one opcode (disassembly, tests, docs).
const char *opName(Op O);

/// How many operand words follow \p O in the code stream. Header-inline
/// because the dispatch loop decodes with it once per executed opcode.
constexpr unsigned opOperands(Op O) {
  switch (O) {
  case Op::Store:
  case Op::MapNilCheck:
  case Op::Panic:
  case Op::Sink:
  case Op::Delete:
  case Op::MissingRet:
    return 0;
  case Op::Nil:
  case Op::LoadVar:
  case Op::PopN:
  case Op::Pick:
  case Op::StoreSlotI:
  case Op::StoreSlotA:
  case Op::StoreSlotS:
  case Op::Jump:
  case Op::JumpIfFalse:
  case Op::JumpIfLt:
  case Op::JumpIfLe:
  case Op::JumpIfGt:
  case Op::JumpIfGe:
  case Op::JumpIfEq:
  case Op::JumpIfNe:
  case Op::AddToSlot:
  case Op::Add:
  case Op::Sub:
  case Op::Mul:
  case Op::Div:
  case Op::Mod:
  case Op::MkPtr:
  case Op::IndexSlice:
  case Op::IndexMap:
  case Op::LvalVar:
  case Op::LvalDeref:
  case Op::LvalIndex:
  case Op::StoreVarInit:
  case Op::InitVar:
  case Op::StoreMap:
  case Op::Return:
  case Op::Make:
  case Op::New:
  case Op::Composite:
  case Op::SetField:
  case Op::LenMap:
  case Op::Tcfree:
    return 1;
  case Op::Const:
  case Op::LoadSlotI:
  case Op::LoadSlotA:
  case Op::LoadSlotS:
  case Op::IncSlotI:
  case Op::JumpIfPeek:
  case Op::AddK:
  case Op::MulK:
  case Op::ModK:
  case Op::AddSlot:
  case Op::Deref:
  case Op::FieldVal:
  case Op::CallMulti:
  case Op::CallStmt:
  case Op::Defer:
  case Op::Append:
  case Op::Slicing:
  case Op::StoreIndexS:
  case Op::LenCap:
    return 2;
  case Op::JumpIfNotLtSlot:
  case Op::DerefSlot:
  case Op::MulSlotK:
  case Op::ModSlotK:
  case Op::Cmp:
  case Op::IndexSlot:
  case Op::StoreIndexSlot:
  case Op::Call:
  case Op::Copy:
    return 3;
  case Op::IncJumpIfLtSlot:
  case Op::MulAddSlot:
    return 4;
  }
  assert(false && "unknown opcode");
  return 0;
}

/// Human-readable listing of one chunk / a whole module.
std::string disassemble(const Module &M, const Chunk &C);
std::string disassemble(const Module &M);

} // namespace vm
} // namespace gofree

#endif // GOFREE_VM_BYTECODE_H
