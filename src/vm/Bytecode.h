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
  Pop,      ///<        : drop the top value
  PopN,     ///< n      : drop the top n values
  Pick,     ///< n      : push a copy of the value n slots below the top
            ///<          (n=1 duplicates the top)
  // Slot operands: a local that is not MovedToHeap, of int/bool (I),
  // pointer/map (A) or slice (S, loads only) type, is read and written at
  // its frame offset with no varAddr/type dispatch. Slot stores skip the
  // write barrier: a frame slot is never a heap word (the barrier's span
  // filter drops it anyway) and the final mark flip rescans frame roots.
  LoadSlotI,  ///< off t : push {Ty=t, I=slot}
  LoadSlotA,  ///< off t : push {Ty=t, A=slot}
  LoadSlotS,  ///< off t : push {Ty=t, S=the 24-byte slice header at slot}
  StoreSlotI, ///< off   : pop v, slot = v.I
  StoreSlotA, ///< off   : pop v, slot = v.A
  IncSlotI,   ///< off k : slot += IntPool[k] (wrapping), no stack traffic:
              ///<         `x = x + K`, `x += K`, `x++` (and the minus forms,
              ///<         with k naming the wrapping negation of K)

  // Control flow (within one chunk).
  Jump,            ///< tgt
  JumpIfFalse,     ///< tgt : pop cond, jump when zero
  JumpIfFalsePeek, ///< tgt : peek cond, jump when zero (And short-circuit)
  JumpIfTruePeek,  ///< tgt : peek cond, jump when non-zero (Or)
  // Fused compare-and-branch for `if`/`for` conditions `l < r` etc.: one
  // dispatch (and one fuel step) instead of Lt + JumpIfFalse.
  JumpIfNotLt, ///< tgt : pop r, l, jump unless l < r
  JumpIfNotLe, ///< tgt
  JumpIfNotGt, ///< tgt
  JumpIfNotGe, ///< tgt
  /// `i < len(s)` for an unboxed int local i and an unboxed slice local s,
  /// read straight from their slots (s's Len field) with no stack traffic.
  JumpIfNotLtLen, ///< ioff soff tgt : jump unless i < len(s)

  // Arithmetic and logic (Go wrap semantics; see support/GoArith.h).
  Neg, ///< t : pop v, push -v (wrapping)
  Not, ///< t : pop v, push !v
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
  Lt,  ///< t : pop r, l, push l<r     (likewise Le/Gt/Ge)
  Le,  ///< t
  Gt,  ///< t
  Ge,  ///< t
  Eq,  ///< t cls : cls 0 = scalar, 1 = slice, 2 = address (ptr/map)
  Ne,  ///< t cls

  // Loads through pointers, fields, and indices.
  Deref,      ///< t     : pop p (nil check), push load(p, t)
  MkPtr,      ///< t     : pop raw address, push {Ty=t, A=addr} (AddrOf)
  FieldPtr,   ///< off t : pop p (nil check), push load(p.A+off, t)
  FieldVal,   ///< off t : pop struct s, push load(s.A+off, t)
  IndexSlice, ///< t     : pop i, s (bounds check), push load of element
  IndexMap,   ///< t     : pop k, m; nil map reads zero; struct values get
              ///<         a copy that extends the executing frame

  // Lvalues: raw storage addresses as untyped (Ty=null) stack values. The
  // compiler guarantees no allocating op runs between the first Lval* op
  // of an address computation and the Store that consumes it, so the GC
  // never sees an unrooted interior address with a dead base (the same
  // window discipline Interp::evalLvalueAddr relies on).
  LvalVar,      ///< v   : push {A=varAddr(v)}
  LvalDeref,    ///<     : pop p (nil check), push {A=p.A}
  LvalFieldPtr, ///< off : pop p (nil check), push {A=p.A+off}
  LvalField,    ///< off : pop raw a, push {A=a+off}
  LvalIndex,    ///< sz  : pop i, s (bounds check), push {A=data+i*sz}

  // Stores.
  Store,        ///<     : pop raw addr, pop v, storeValue(addr, v)
  StoreVarInit, ///< v   : initVarSlot(v) (may heap-box), pop v, store
  InitVar,      ///< v   : initVarSlot(v) only (zero / fresh box)
  MapNilCheck,  ///<     : peek map, fault "assignment to entry in nil map"
  StoreMap,     ///< mt  : stack [v, m, k]; mapAssign(m, k, v); pop 3

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
  LenSlice,  ///< t
  LenMap,    ///< t
  CapOf,     ///< t
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

/// X-macro over every opcode, in encoding order. The VM's threaded-dispatch
/// jump table is generated from this list; the static_asserts below pin it
/// to the enum so the two cannot drift.
#define GOFREE_VM_FOR_EACH_OP(X)                                             \
  X(Const) X(Nil) X(LoadVar) X(Pop) X(PopN) X(Pick)                          \
  X(LoadSlotI) X(LoadSlotA) X(LoadSlotS) X(StoreSlotI) X(StoreSlotA)         \
  X(IncSlotI)                                                                \
  X(Jump) X(JumpIfFalse) X(JumpIfFalsePeek) X(JumpIfTruePeek)                \
  X(JumpIfNotLt) X(JumpIfNotLe) X(JumpIfNotGt) X(JumpIfNotGe)                \
  X(JumpIfNotLtLen)                                                          \
  X(Neg) X(Not) X(Add) X(Sub) X(Mul) X(Div) X(Mod) X(AddK) X(MulK) X(ModK)   \
  X(Lt) X(Le) X(Gt) X(Ge) X(Eq) X(Ne)                                        \
  X(Deref) X(MkPtr) X(FieldPtr) X(FieldVal) X(IndexSlice) X(IndexMap)        \
  X(LvalVar) X(LvalDeref) X(LvalFieldPtr) X(LvalField) X(LvalIndex)          \
  X(Store) X(StoreVarInit) X(InitVar) X(MapNilCheck) X(StoreMap)             \
  X(Call) X(CallMulti) X(CallStmt) X(Defer) X(Return) X(MissingRet)          \
  X(Make) X(New) X(Composite) X(SetField)                                    \
  X(LenSlice) X(LenMap) X(CapOf) X(Append) X(Slicing) X(Copy)                \
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
  case Op::Pop:
  case Op::LvalDeref:
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
  case Op::Jump:
  case Op::JumpIfFalse:
  case Op::JumpIfFalsePeek:
  case Op::JumpIfTruePeek:
  case Op::JumpIfNotLt:
  case Op::JumpIfNotLe:
  case Op::JumpIfNotGt:
  case Op::JumpIfNotGe:
  case Op::Neg:
  case Op::Not:
  case Op::Add:
  case Op::Sub:
  case Op::Mul:
  case Op::Div:
  case Op::Mod:
  case Op::Lt:
  case Op::Le:
  case Op::Gt:
  case Op::Ge:
  case Op::Deref:
  case Op::MkPtr:
  case Op::IndexSlice:
  case Op::IndexMap:
  case Op::LvalVar:
  case Op::LvalFieldPtr:
  case Op::LvalField:
  case Op::LvalIndex:
  case Op::StoreVarInit:
  case Op::InitVar:
  case Op::StoreMap:
  case Op::Return:
  case Op::Make:
  case Op::New:
  case Op::Composite:
  case Op::SetField:
  case Op::LenSlice:
  case Op::LenMap:
  case Op::CapOf:
  case Op::Tcfree:
    return 1;
  case Op::Const:
  case Op::LoadSlotI:
  case Op::LoadSlotA:
  case Op::LoadSlotS:
  case Op::IncSlotI:
  case Op::AddK:
  case Op::MulK:
  case Op::ModK:
  case Op::Eq:
  case Op::Ne:
  case Op::FieldPtr:
  case Op::FieldVal:
  case Op::CallMulti:
  case Op::CallStmt:
  case Op::Defer:
  case Op::Append:
  case Op::Slicing:
    return 2;
  case Op::JumpIfNotLtLen:
  case Op::Call:
  case Op::Copy:
    return 3;
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
