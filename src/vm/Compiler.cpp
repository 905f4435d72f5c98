//===- vm/Compiler.cpp - MiniGo AST to bytecode ---------------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "vm/Compiler.h"

#include "runtime/SliceRt.h"
#include "support/GoArith.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <optional>

using namespace gofree;
using namespace gofree::vm;
using namespace gofree::minigo;

namespace {

/// Module-wide constant pools with deduplication.
struct Pools {
  std::unordered_map<int64_t, uint32_t> Ints;
  std::unordered_map<const Type *, uint32_t> Types;
  std::unordered_map<const VarDecl *, uint32_t> Vars;
  std::unordered_map<const FuncDecl *, uint32_t> Funcs;
  std::unordered_map<const Type *, uint32_t> Descs[2]; // By DescRef::Kind.
  std::unordered_map<const Type *, uint32_t> MapTypes;
};

/// Which slot opcodes a local gets, if any (see Op::LoadSlotI).
enum class SlotKind { None, I, A, S };

SlotKind slotKind(const VarDecl *V) {
  if (V->MovedToHeap || !V->Ty)
    return SlotKind::None;
  if (V->Ty->isScalar())
    return SlotKind::I;
  if (V->Ty->isPointer() || V->Ty->isMap())
    return SlotKind::A;
  if (V->Ty->isSlice())
    return SlotKind::S;
  return SlotKind::None;
}

class FuncCompiler {
public:
  FuncCompiler(Module &M, Pools &P, Chunk &C) : M(M), P(P), C(C) {}

  void compile(const FuncDecl *Fn) {
    this->Fn = Fn;
    block(Fn->Body);
    // Implicit epilogue: void functions return; value-returning functions
    // that fall off the end fault, exactly like the tree-walker's
    // "missing return in 'NAME'".
    if (Fn->Results.empty())
      emit(Op::Return, 0);
    else
      emit(Op::MissingRet);
    assert(Depth == 0 && "statements must leave the operand stack empty");
    C.MaxDepth = MaxDepth;
    for (const Type *R : Fn->Results)
      if (R->isStruct())
        C.StructResultBytes += (uint32_t)((R->size() + 7) & ~(size_t)7);
  }

private:
  Module &M;
  Pools &P;
  Chunk &C;
  const FuncDecl *Fn = nullptr;
  /// Operand-stack depth after the last emitted op, and its high-water
  /// mark. Statements are depth-neutral and every jump joins at equal
  /// depth, so the straight-line count is exact.
  int Depth = 0;
  int MaxDepth = 0;

  struct LoopInfo {
    std::vector<uint32_t> Breaks;
    std::vector<uint32_t> Continues;
  };
  std::vector<LoopInfo> Loops;

  //===--------------------------------------------------------------------===//
  // Pools and emission
  //===--------------------------------------------------------------------===//

  uint32_t intIdx(int64_t V) {
    auto [It, New] = P.Ints.try_emplace(V, (uint32_t)M.Ints.size());
    if (New)
      M.Ints.push_back(V);
    return It->second;
  }
  uint32_t typeIdx(const Type *T) {
    auto [It, New] = P.Types.try_emplace(T, (uint32_t)M.Types.size());
    if (New)
      M.Types.push_back(T);
    return It->second;
  }
  uint32_t varIdx(const VarDecl *V) {
    auto [It, New] = P.Vars.try_emplace(V, (uint32_t)M.Vars.size());
    if (New)
      M.Vars.push_back(V);
    return It->second;
  }
  uint32_t funcIdx(const FuncDecl *F) {
    // F may be null for calls Sema could not resolve; the VM faults on it
    // at execution time like the tree-walker does.
    auto [It, New] = P.Funcs.try_emplace(F, (uint32_t)M.Funcs.size());
    if (New)
      M.Funcs.push_back(F);
    return It->second;
  }
  uint32_t descIdx(DescRef::Kind K, const Type *T) {
    auto [It, New] = P.Descs[K].try_emplace(T, (uint32_t)M.Descs.size());
    if (New)
      M.Descs.push_back({K, T});
    return It->second;
  }
  uint32_t mapTypeIdx(const Type *MapTy) {
    auto [It, New] =
        P.MapTypes.try_emplace(MapTy, (uint32_t)M.MapTypes.size());
    if (New)
      M.MapTypes.push_back(MapTy);
    return It->second;
  }

  void emit(Op O, std::initializer_list<uint32_t> Operands = {}) {
    assert(Operands.size() == opOperands(O) && "operand count mismatch");
    C.Code.push_back((uint32_t)O);
    C.Code.insert(C.Code.end(), Operands.begin(), Operands.end());
    Depth += stackEffect(O, Operands.begin());
    assert(Depth >= 0 && "operand stack underflow");
    MaxDepth = std::max(MaxDepth, Depth);
  }
  void emit(Op O, uint32_t A) { emit(O, {A}); }
  void emit(Op O, uint32_t A, uint32_t B) { emit(O, {A, B}); }
  void emit(Op O, uint32_t A, uint32_t B, uint32_t D) { emit(O, {A, B, D}); }

  /// Net number of operand-stack entries \p O pushes (negative: pops).
  int stackEffect(Op O, const uint32_t *W) const {
    switch (O) {
    case Op::Const:
    case Op::Nil:
    case Op::LoadVar:
    case Op::Pick:
    case Op::LoadSlotI:
    case Op::LoadSlotA:
    case Op::LoadSlotS:
    case Op::MulSlotK:
    case Op::ModSlotK:
    case Op::MulAddSlot:
    case Op::IndexSlot:
    case Op::DerefSlot:
    case Op::LvalVar:
    case Op::New:
    case Op::Composite:
      return 1;
    case Op::IncSlotI:
    case Op::Jump:
    case Op::JumpIfPeek:
    case Op::JumpIfNotLtSlot:
    case Op::IncJumpIfLtSlot:
    case Op::AddK:
    case Op::MulK:
    case Op::ModK:
    case Op::AddSlot:
    case Op::Deref:
    case Op::MkPtr:
    case Op::FieldVal:
    case Op::LvalDeref:
    case Op::InitVar:
    case Op::MapNilCheck:
    case Op::MissingRet:
    case Op::LenCap:
    case Op::LenMap:
    case Op::Tcfree:
      return 0;
    case Op::StoreSlotI:
    case Op::StoreSlotA:
    case Op::StoreSlotS:
    case Op::AddToSlot:
    case Op::JumpIfFalse:
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Div:
    case Op::Mod:
    case Op::Cmp:
    case Op::IndexSlice:
    case Op::IndexMap:
    case Op::LvalIndex:
    case Op::StoreIndexSlot:
    case Op::StoreVarInit:
    case Op::SetField:
    case Op::Append:
    case Op::Copy:
    case Op::Panic:
    case Op::Sink:
      return -1;
    case Op::JumpIfLt:
    case Op::JumpIfLe:
    case Op::JumpIfGt:
    case Op::JumpIfGe:
    case Op::JumpIfEq:
    case Op::JumpIfNe:
    case Op::Store:
    case Op::StoreIndexS:
    case Op::Delete:
      return -2;
    case Op::StoreMap:
      return -3;
    case Op::PopN:
    case Op::Return:
      return -(int)W[0];
    case Op::Call:
      return 1 - (int)W[1];
    case Op::CallStmt:
    case Op::Defer:
      return -(int)W[1];
    case Op::CallMulti: {
      const FuncDecl *Callee = M.Funcs[W[0]];
      return (Callee ? (int)Callee->Results.size() : 0) - (int)W[1];
    }
    case Op::Make: {
      const MakeExpr *ME = M.Makes[W[0]].E;
      return 1 - (ME->Len ? 1 : 0) - (ME->CapExpr ? 1 : 0);
    }
    case Op::Slicing:
      return -(int)((W[1] & 1) + ((W[1] >> 1) & 1));
    }
    assert(false && "unknown opcode");
    return 0;
  }

  uint32_t here() const { return (uint32_t)C.Code.size(); }
  /// Emits a jump with a placeholder target; returns the operand position.
  uint32_t emitJump(Op O) {
    emit(O, 0);
    return here() - 1;
  }
  /// Likewise for a jump with one more operand \p B after the target.
  uint32_t emitJump(Op O, uint32_t B) {
    emit(O, 0, B);
    return here() - 2;
  }
  void patch(uint32_t At) { C.Code[At] = here(); }
  void patch(uint32_t At, uint32_t Target) { C.Code[At] = Target; }

  /// The fused compare-and-branch that jumps when `l OP r` is \p Sense,
  /// for \p BE an ordered comparison or a scalar ==/!=; nothing otherwise.
  /// The false sense jumps on the negated comparison, which is exact for
  /// int64 and bool operands.
  static std::optional<Op> cmpJump(const BinaryExpr *BE, bool Sense) {
    BinaryOp O = BE->Op;
    if (!Sense) {
      switch (O) {
      case BinaryOp::Lt: O = BinaryOp::Ge; break;
      case BinaryOp::Le: O = BinaryOp::Gt; break;
      case BinaryOp::Gt: O = BinaryOp::Le; break;
      case BinaryOp::Ge: O = BinaryOp::Lt; break;
      case BinaryOp::Eq: O = BinaryOp::Ne; break;
      case BinaryOp::Ne: O = BinaryOp::Eq; break;
      default: return std::nullopt;
      }
    }
    switch (O) {
    case BinaryOp::Lt: return Op::JumpIfLt;
    case BinaryOp::Le: return Op::JumpIfLe;
    case BinaryOp::Gt: return Op::JumpIfGt;
    case BinaryOp::Ge: return Op::JumpIfGe;
    case BinaryOp::Eq:
    case BinaryOp::Ne:
      if (eqClass(BE->Lhs->Ty) != 0)
        return std::nullopt;
      return O == BinaryOp::Eq ? Op::JumpIfEq : Op::JumpIfNe;
    default: return std::nullopt;
    }
  }
  /// Emits \p Cond and a jump taken when it is false; returns the jump's
  /// operand position. A comparison fuses into one compare-and-branch, and
  /// `i < n` or `i < len(s)` over slot locals into one JumpIfNotLtSlot.
  uint32_t condJump(const minigo::Expr *Cond) {
    if (const auto *BE = dyn_cast<BinaryExpr>(Cond)) {
      if (std::optional<uint32_t> Bound = ltSlotBound(BE)) {
        emit(Op::JumpIfNotLtSlot,
             {(uint32_t)slotLocal(BE->Lhs, SlotKind::I)->FrameOffset, *Bound,
              0});
        return here() - 1;
      }
      if (std::optional<Op> J = cmpJump(BE, false)) {
        expr(BE->Lhs);
        expr(BE->Rhs);
        return emitJump(*J);
      }
    }
    expr(Cond);
    return emitJump(Op::JumpIfFalse);
  }
  /// For \p BE `i < n` or `i < len(s)` with i and n int slot locals and s
  /// a slice slot local: the frame offset of the bound's word (n's slot or
  /// s's Len field); nothing otherwise.
  static std::optional<uint32_t> ltSlotBound(const BinaryExpr *BE) {
    if (BE->Op != BinaryOp::Lt || !slotLocal(BE->Lhs, SlotKind::I))
      return std::nullopt;
    if (const VarDecl *N = slotLocal(BE->Rhs, SlotKind::I))
      return (uint32_t)N->FrameOffset;
    if (const VarDecl *S = lenOfSlotSlice(BE->Rhs))
      return (uint32_t)(S->FrameOffset + offsetof(rt::SliceHeader, Len));
    return std::nullopt;
  }
  /// The local \p E names when it is an identifier with slot operands of
  /// kind \p K; null otherwise.
  static const VarDecl *slotLocal(const minigo::Expr *E, SlotKind K) {
    const auto *Id = dyn_cast<IdentExpr>(E);
    return Id && Id->Decl && slotKind(Id->Decl) == K ? Id->Decl : nullptr;
  }
  /// The slice local \p E takes the length of, when E is `len(s)` with s a
  /// slot slice local; null otherwise.
  static const VarDecl *lenOfSlotSlice(const minigo::Expr *E) {
    const auto *LE = dyn_cast<LenExpr>(E);
    return LE ? slotLocal(LE->Sub, SlotKind::S) : nullptr;
  }
  /// The slice and index locals of `s[i]` when \p IE indexes a slice slot
  /// local with an int slot local; nulls otherwise.
  static std::pair<const VarDecl *, const VarDecl *>
  slotIndex(const IndexExpr *IE) {
    const VarDecl *S = IE->IsMap ? nullptr : slotLocal(IE->Base, SlotKind::S);
    const VarDecl *I = S ? slotLocal(IE->Idx, SlotKind::I) : nullptr;
    return I ? std::pair{S, I} : std::pair<const VarDecl *, const VarDecl *>{};
  }
  /// True when evaluating \p E calls no function. A slot local is written
  /// only by this function's own stores or by a callee holding its
  /// address, so a fused op may read one after such an E where the
  /// tree-walker reads it before.
  static bool callFree(const minigo::Expr *E) {
    auto Ok = [](const minigo::Expr *Sub) { return !Sub || callFree(Sub); };
    switch (E->kind()) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
    case ExprKind::NilLit:
    case ExprKind::Ident:
    case ExprKind::New:
      return true;
    case ExprKind::Call:
      return false;
    case ExprKind::Unary:
      return Ok(cast<UnaryExpr>(E)->Sub);
    case ExprKind::Binary: {
      const auto *BE = cast<BinaryExpr>(E);
      return Ok(BE->Lhs) && Ok(BE->Rhs);
    }
    case ExprKind::Deref:
      return Ok(cast<DerefExpr>(E)->Sub);
    case ExprKind::AddrOf:
      return Ok(cast<AddrOfExpr>(E)->Sub);
    case ExprKind::Field:
      return Ok(cast<FieldExpr>(E)->Base);
    case ExprKind::Index: {
      const auto *IE = cast<IndexExpr>(E);
      return Ok(IE->Base) && Ok(IE->Idx);
    }
    case ExprKind::Make: {
      const auto *ME = cast<MakeExpr>(E);
      return Ok(ME->Len) && Ok(ME->CapExpr);
    }
    case ExprKind::Composite:
      for (const minigo::FieldInit &FI : cast<CompositeExpr>(E)->Inits)
        if (!Ok(FI.Value))
          return false;
      return true;
    case ExprKind::Len:
      return Ok(cast<LenExpr>(E)->Sub);
    case ExprKind::Cap:
      return Ok(cast<minigo::CapExpr>(E)->Sub);
    case ExprKind::Append: {
      const auto *AE = cast<AppendExpr>(E);
      return Ok(AE->SliceArg) && Ok(AE->Value);
    }
    case ExprKind::Slicing: {
      const auto *SE = cast<SlicingExpr>(E);
      return Ok(SE->Base) && Ok(SE->Lo) && Ok(SE->Hi);
    }
    case ExprKind::CopyFn: {
      const auto *CE = cast<CopyExpr>(E);
      return Ok(CE->Dst) && Ok(CE->Src);
    }
    }
    return false;
  }
  /// The value of \p E when it is an integer literal or the negation of
  /// one (`-1` parses as a negated 1); nothing otherwise.
  static std::optional<int64_t> intConst(const minigo::Expr *E) {
    if (const auto *UE = dyn_cast<UnaryExpr>(E);
        UE && UE->Op == UnaryOp::Neg)
      if (std::optional<int64_t> K = intConst(UE->Sub))
        return arith::wrapNeg(*K);
    if (const auto *K = dyn_cast<IntLitExpr>(E))
      return K->Value;
    return std::nullopt;
  }
  /// `x = x + K` and `x = x - K` (which is also what the parser makes of
  /// `x += K`, `x -= K`, `x++` and `x--`) on an int slot local x: x and the
  /// step to add (the wrapping negation of K for the minus forms); a null
  /// local otherwise.
  static std::pair<const VarDecl *, int64_t> slotStep(const minigo::Expr *Lhs,
                                                      const minigo::Expr *Rhs) {
    const VarDecl *X = slotLocal(Lhs, SlotKind::I);
    const auto *BE = dyn_cast<BinaryExpr>(Rhs);
    if (!X || !BE || (BE->Op != BinaryOp::Add && BE->Op != BinaryOp::Sub) ||
        slotLocal(BE->Lhs, SlotKind::I) != X)
      return {nullptr, 0};
    std::optional<int64_t> K = intConst(BE->Rhs);
    if (!K)
      return {nullptr, 0};
    return {X, BE->Op == BinaryOp::Add ? *K : arith::wrapNeg(*K)};
  }
  /// Emits one IncSlotI for a slotStep assignment and returns true; emits
  /// nothing and returns false otherwise.
  bool incSlot(const minigo::Expr *Lhs, const minigo::Expr *Rhs) {
    auto [X, Step] = slotStep(Lhs, Rhs);
    if (!X)
      return false;
    emit(Op::IncSlotI, (uint32_t)X->FrameOffset, intIdx(Step));
    return true;
  }
  /// The op that folds a constant right operand \p K into `l OP K`, if
  /// any. (`sub.k` and `div.k` would each be under 0.5% of the ops the
  /// subjects execute, too few to earn an opcode; see docs/VM.md.)
  static std::optional<Op> constRhsOp(BinaryOp O, int64_t K) {
    switch (O) {
    case BinaryOp::Add: return Op::AddK;
    case BinaryOp::Mul: return Op::MulK;
    case BinaryOp::Mod:
      if (K != 0)
        return Op::ModK;
      return std::nullopt; // `% 0` keeps Mod's fault.
    default: return std::nullopt;
    }
  }

  /// Emits the slot store of the top of the stack into \p V when V has
  /// slot operands; returns false (emitting nothing) otherwise.
  bool storeSlot(const VarDecl *V) {
    SlotKind K = slotKind(V);
    if (K == SlotKind::None)
      return false;
    emit(K == SlotKind::I   ? Op::StoreSlotI
         : K == SlotKind::A ? Op::StoreSlotA
                            : Op::StoreSlotS,
         (uint32_t)V->FrameOffset);
    return true;
  }
  /// Stores the top of the stack into local \p V, initializing it first
  /// (a slot store fills the whole slot, which subsumes the zeroing).
  void storeVarInit(const VarDecl *V) {
    if (!storeSlot(V))
      emit(Op::StoreVarInit, varIdx(V));
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  static uint32_t eqClass(const Type *T) {
    if (T->isScalar())
      return 0;
    if (T->isSlice())
      return 1;
    return 2; // Pointer / map: compare addresses.
  }

  /// `*p` (\p Off 0) or `p.f` (\p Off the field's) for the pointer \p P,
  /// loading a \p Ty: one DerefSlot when P is a pointer slot local.
  void deref(const minigo::Expr *P, uint32_t Off, const Type *Ty) {
    if (const VarDecl *V = slotLocal(P, SlotKind::A)) {
      emit(Op::DerefSlot, (uint32_t)V->FrameOffset, Off, typeIdx(Ty));
      return;
    }
    expr(P);
    emit(Op::Deref, Off, typeIdx(Ty));
  }

  /// `len(s)` or `cap(s)` (\p Word the header offset of Len or Cap): a
  /// LoadSlotI of that word when s is a slice slot local.
  void sliceWord(const minigo::Expr *S, size_t Word, const Type *Ty) {
    if (const VarDecl *V = slotLocal(S, SlotKind::S)) {
      emit(Op::LoadSlotI, (uint32_t)(V->FrameOffset + Word), typeIdx(Ty));
      return;
    }
    expr(S);
    emit(Op::LenCap, typeIdx(Ty),
         Word == offsetof(rt::SliceHeader, Len) ? 0 : 1);
  }

  void callArgs(const CallExpr *CE) {
    for (const minigo::Expr *A : CE->Args)
      expr(A);
  }

  void expr(const minigo::Expr *E) {
    switch (E->kind()) {
    case ExprKind::IntLit:
      emit(Op::Const, typeIdx(E->Ty), intIdx(cast<IntLitExpr>(E)->Value));
      return;
    case ExprKind::BoolLit:
      emit(Op::Const, typeIdx(E->Ty),
           intIdx(cast<BoolLitExpr>(E)->Value ? 1 : 0));
      return;
    case ExprKind::NilLit:
      emit(Op::Nil, typeIdx(E->Ty));
      return;
    case ExprKind::Ident: {
      const VarDecl *V = cast<IdentExpr>(E)->Decl;
      assert(V && "reading the blank identifier");
      if (SlotKind K = slotKind(V); K != SlotKind::None)
        emit(K == SlotKind::I   ? Op::LoadSlotI
             : K == SlotKind::A ? Op::LoadSlotA
                                : Op::LoadSlotS,
             (uint32_t)V->FrameOffset, typeIdx(V->Ty));
      else
        emit(Op::LoadVar, varIdx(V));
      return;
    }
    case ExprKind::Unary: {
      // `-v` is `0 - v` and `!v` is `v == false`: the same wrapping result
      // and the same value, with no op of their own.
      const auto *UE = cast<UnaryExpr>(E);
      const uint32_t T = typeIdx(E->Ty);
      if (UE->Op == UnaryOp::Neg) {
        if (std::optional<int64_t> K = intConst(E)) {
          emit(Op::Const, T, intIdx(*K));
          return;
        }
        emit(Op::Const, T, intIdx(0));
        expr(UE->Sub);
        emit(Op::Sub, T);
        return;
      }
      expr(UE->Sub);
      emit(Op::Const, T, intIdx(0));
      emit(Op::Cmp, T, (uint32_t)CmpCond::Eq, 0);
      return;
    }
    case ExprKind::Binary: {
      const auto *BE = cast<BinaryExpr>(E);
      if (BE->Op == BinaryOp::And || BE->Op == BinaryOp::Or) {
        // Short-circuit: the left value is the result when it decides.
        expr(BE->Lhs);
        uint32_t End =
            emitJump(Op::JumpIfPeek, BE->Op == BinaryOp::And ? 0 : 1);
        emit(Op::PopN, 1);
        expr(BE->Rhs);
        patch(End);
        return;
      }
      uint32_t T = typeIdx(E->Ty);
      // `x * K + y` on int slot locals x and y: one op, no loads.
      if (const auto *ML = dyn_cast<BinaryExpr>(BE->Lhs);
          ML && ML->Op == BinaryOp::Mul && BE->Op == BinaryOp::Add) {
        const VarDecl *X = slotLocal(ML->Lhs, SlotKind::I);
        const VarDecl *Y = slotLocal(BE->Rhs, SlotKind::I);
        if (std::optional<int64_t> MK = intConst(ML->Rhs); X && Y && MK) {
          emit(Op::MulAddSlot, {(uint32_t)X->FrameOffset, T, intIdx(*MK),
                                (uint32_t)Y->FrameOffset});
          return;
        }
      }
      std::optional<int64_t> K = intConst(BE->Rhs);
      // `x * K` and `x % K` on an int slot local x: one op, no load.
      if (const VarDecl *X = slotLocal(BE->Lhs, SlotKind::I); X && K) {
        std::optional<Op> Fused = constRhsOp(BE->Op, *K);
        if (Fused == Op::MulK || Fused == Op::ModK) {
          emit(*Fused == Op::MulK ? Op::MulSlotK : Op::ModSlotK,
               (uint32_t)X->FrameOffset, T, intIdx(*K));
          return;
        }
      }
      expr(BE->Lhs);
      if (K) {
        if (std::optional<Op> Fused = constRhsOp(BE->Op, *K)) {
          emit(*Fused, T, intIdx(*K));
          return;
        }
      }
      if (const VarDecl *Y = slotLocal(BE->Rhs, SlotKind::I);
          Y && BE->Op == BinaryOp::Add) {
        emit(Op::AddSlot, (uint32_t)Y->FrameOffset, T);
        return;
      }
      expr(BE->Rhs);
      auto Compare = [&](CmpCond Cond, uint32_t Cls = 0) {
        emit(Op::Cmp, T, (uint32_t)Cond, Cls);
      };
      switch (BE->Op) {
      case BinaryOp::Add: emit(Op::Add, T); return;
      case BinaryOp::Sub: emit(Op::Sub, T); return;
      case BinaryOp::Mul: emit(Op::Mul, T); return;
      case BinaryOp::Div: emit(Op::Div, T); return;
      case BinaryOp::Mod: emit(Op::Mod, T); return;
      case BinaryOp::Lt: Compare(CmpCond::Lt); return;
      case BinaryOp::Le: Compare(CmpCond::Le); return;
      case BinaryOp::Gt: Compare(CmpCond::Gt); return;
      case BinaryOp::Ge: Compare(CmpCond::Ge); return;
      case BinaryOp::Eq: Compare(CmpCond::Eq, eqClass(BE->Lhs->Ty)); return;
      case BinaryOp::Ne: Compare(CmpCond::Ne, eqClass(BE->Lhs->Ty)); return;
      case BinaryOp::And:
      case BinaryOp::Or:
        break;
      }
      assert(false && "handled above");
      return;
    }
    case ExprKind::Deref:
      deref(cast<DerefExpr>(E)->Sub, 0, E->Ty);
      return;
    case ExprKind::AddrOf:
      lvalue(cast<AddrOfExpr>(E)->Sub);
      emit(Op::MkPtr, typeIdx(E->Ty));
      return;
    case ExprKind::Field: {
      const auto *FE = cast<FieldExpr>(E);
      if (FE->ThroughPointer) {
        deref(FE->Base, (uint32_t)FE->F->Offset, E->Ty);
        return;
      }
      expr(FE->Base);
      emit(Op::FieldVal, (uint32_t)FE->F->Offset, typeIdx(E->Ty));
      return;
    }
    case ExprKind::Index: {
      const auto *IE = cast<IndexExpr>(E);
      if (auto [S, I] = slotIndex(IE); S) {
        emit(Op::IndexSlot, (uint32_t)S->FrameOffset, (uint32_t)I->FrameOffset,
             typeIdx(E->Ty));
        return;
      }
      expr(IE->Base);
      expr(IE->Idx);
      emit(IE->IsMap ? Op::IndexMap : Op::IndexSlice, typeIdx(E->Ty));
      return;
    }
    case ExprKind::Call: {
      const auto *CE = cast<CallExpr>(E);
      callArgs(CE);
      emit(Op::Call, funcIdx(CE->Fn), (uint32_t)CE->Args.size(),
           typeIdx(E->Ty));
      return;
    }
    case ExprKind::Make: {
      const auto *ME = cast<MakeExpr>(E);
      if (ME->Len)
        expr(ME->Len);
      if (ME->CapExpr)
        expr(ME->CapExpr);
      const Type *T = ME->MadeTy;
      M.Makes.push_back({ME,
                         T->isSlice() ? descIdx(DescRef::Array, T->elem()) : 0,
                         T->isMap() ? mapTypeIdx(T) : 0, C.NumSites++});
      emit(Op::Make, (uint32_t)M.Makes.size() - 1);
      return;
    }
    case ExprKind::New: {
      const auto *NE = cast<NewExpr>(E);
      M.News.push_back(
          {NE, descIdx(DescRef::Object, NE->AllocTy), C.NumSites++});
      emit(Op::New, (uint32_t)M.News.size() - 1);
      return;
    }
    case ExprKind::Composite: {
      const auto *CE = cast<CompositeExpr>(E);
      M.Composites.push_back(
          {CE, descIdx(DescRef::Object, CE->StructTy), C.NumSites++});
      emit(Op::Composite, (uint32_t)M.Composites.size() - 1);
      // The object stays on the stack (rooted) while initializers run.
      for (size_t I = 0; I < CE->Inits.size(); ++I) {
        expr(CE->Inits[I].Value);
        emit(Op::SetField, (uint32_t)CE->InitFields[I]->Offset);
      }
      return;
    }
    case ExprKind::Len: {
      const auto *LE = cast<LenExpr>(E);
      if (LE->Sub->Ty->isMap()) {
        expr(LE->Sub);
        emit(Op::LenMap, typeIdx(E->Ty));
        return;
      }
      sliceWord(LE->Sub, offsetof(rt::SliceHeader, Len), E->Ty);
      return;
    }
    case ExprKind::Cap:
      sliceWord(cast<minigo::CapExpr>(E)->Sub, offsetof(rt::SliceHeader, Cap),
                E->Ty);
      return;
    case ExprKind::Append: {
      const auto *AE = cast<AppendExpr>(E);
      expr(AE->SliceArg);
      expr(AE->Value);
      emit(Op::Append, typeIdx(AE->SliceArg->Ty),
           descIdx(DescRef::Array, AE->SliceArg->Ty->elem()));
      return;
    }
    case ExprKind::Slicing: {
      const auto *SE = cast<SlicingExpr>(E);
      expr(SE->Base);
      uint32_t Flags = 0;
      if (SE->Lo) {
        expr(SE->Lo);
        Flags |= 1;
      }
      if (SE->Hi) {
        expr(SE->Hi);
        Flags |= 2;
      }
      emit(Op::Slicing, typeIdx(E->Ty), Flags);
      return;
    }
    case ExprKind::CopyFn: {
      const auto *CE = cast<CopyExpr>(E);
      expr(CE->Dst);
      expr(CE->Src);
      const Type *Elem = CE->Dst->Ty->elem();
      emit(Op::Copy, typeIdx(E->Ty), (uint32_t)Elem->size(),
           descIdx(DescRef::Array, Elem));
      return;
    }
    }
    assert(false && "unhandled expression kind");
  }

  /// Emits the address of an lvalue as an untyped raw-address stack value.
  /// Any sub-expression that can allocate (pointer bases, indices) is
  /// evaluated as a typed, rooted value *before* the first raw address is
  /// formed; from there to the consuming Store only address arithmetic
  /// runs, so the GC never observes an unanchored interior pointer.
  void lvalue(const minigo::Expr *E) {
    switch (E->kind()) {
    case ExprKind::Ident: {
      const auto *Id = cast<IdentExpr>(E);
      assert(Id->Decl && "blank identifier has no address");
      emit(Op::LvalVar, varIdx(Id->Decl));
      return;
    }
    case ExprKind::Deref:
      expr(cast<DerefExpr>(E)->Sub);
      emit(Op::LvalDeref, 0);
      return;
    case ExprKind::Field: {
      const auto *FE = cast<FieldExpr>(E);
      if (FE->ThroughPointer)
        expr(FE->Base);
      else
        lvalue(FE->Base); // A raw address, never nil.
      emit(Op::LvalDeref, (uint32_t)FE->F->Offset);
      return;
    }
    case ExprKind::Index: {
      const auto *IE = cast<IndexExpr>(E);
      assert(!IE->IsMap && "map lvalues are handled by storeTop");
      expr(IE->Base);
      expr(IE->Idx);
      emit(Op::LvalIndex, (uint32_t)IE->Base->Ty->elem()->size());
      return;
    }
    default:
      assert(false && "not an lvalue");
    }
  }

  /// Stores the value on top of the stack into \p Lhs (the interpreter's
  /// StoreInto: blank discards, map elements check nil before the key).
  void storeTop(const minigo::Expr *Lhs) {
    if (const auto *Id = dyn_cast<IdentExpr>(Lhs); Id && !Id->Decl) {
      emit(Op::PopN, 1); // Blank identifier discards.
      return;
    }
    if (const auto *IE = dyn_cast<IndexExpr>(Lhs); IE && IE->IsMap) {
      expr(IE->Base);
      emit(Op::MapNilCheck); // Faults before the key is evaluated.
      expr(IE->Idx);
      emit(Op::StoreMap, mapTypeIdx(IE->Base->Ty));
      return;
    }
    if (const auto *Id = dyn_cast<IdentExpr>(Lhs); Id && storeSlot(Id->Decl))
      return;
    if (const auto *IE = dyn_cast<IndexExpr>(Lhs)) {
      if (auto [S, I] = slotIndex(IE); S) {
        emit(Op::StoreIndexSlot, (uint32_t)S->FrameOffset,
             (uint32_t)I->FrameOffset, (uint32_t)IE->Ty->size());
        return;
      }
      // The slice is read after the index, so the index must not write it.
      const VarDecl *S =
          IE->IsMap ? nullptr : slotLocal(IE->Base, SlotKind::S);
      if (S && callFree(IE->Idx)) {
        expr(IE->Idx);
        emit(Op::StoreIndexS, (uint32_t)S->FrameOffset,
             (uint32_t)IE->Ty->size());
        return;
      }
    }
    lvalue(Lhs);
    emit(Op::Store);
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  /// The bottom of an inverted `for ...; i < n; i += K` loop (or with the
  /// bound `len(s)`) over slot locals: emits one IncJumpIfLtSlot back to
  /// \p Top and returns true; emits nothing and returns false for any
  /// other condition or post.
  bool incJumpLtSlot(const ForStmt *FS, uint32_t Top) {
    const auto *BE = dyn_cast<BinaryExpr>(FS->Cond);
    std::optional<uint32_t> Bound = BE ? ltSlotBound(BE) : std::nullopt;
    const auto *AS = FS->Post ? dyn_cast<AssignStmt>(FS->Post) : nullptr;
    if (!Bound || !AS || AS->Lhs.size() != 1 || AS->Rhs.size() != 1)
      return false;
    auto [I, Step] = slotStep(AS->Lhs[0], AS->Rhs[0]);
    if (!I || I != slotLocal(BE->Lhs, SlotKind::I))
      return false;
    emit(Op::IncJumpIfLtSlot,
         {(uint32_t)I->FrameOffset, intIdx(Step), *Bound, Top});
    return true;
  }

  void block(const BlockStmt *B) {
    for (const minigo::Stmt *S : B->Stmts)
      stmt(S);
  }

  void stmt(const minigo::Stmt *S) {
    switch (S->kind()) {
    case StmtKind::Block:
      block(cast<BlockStmt>(S));
      return;
    case StmtKind::VarDecl: {
      const auto *DS = cast<VarDeclStmt>(S);
      if (DS->Inits.size() == 1 && DS->Vars.size() > 1) {
        // a, b := f() — results stay on the stack (rooted) while each
        // variable slot is initialized and filled in order.
        const auto *Call = cast<CallExpr>(DS->Inits[0]);
        callArgs(Call);
        emit(Op::CallMulti, funcIdx(Call->Fn), (uint32_t)Call->Args.size());
        uint32_t N = (uint32_t)DS->Vars.size();
        for (uint32_t I = 0; I < N; ++I) {
          emit(Op::Pick, N - I);
          storeVarInit(DS->Vars[I]);
        }
        emit(Op::PopN, N);
        return;
      }
      for (size_t I = 0; I < DS->Vars.size(); ++I) {
        if (I < DS->Inits.size()) {
          expr(DS->Inits[I]);
          storeVarInit(DS->Vars[I]);
        } else {
          emit(Op::InitVar, varIdx(DS->Vars[I]));
        }
      }
      return;
    }
    case StmtKind::Assign: {
      const auto *AS = cast<AssignStmt>(S);
      if (AS->Rhs.size() == 1 && AS->Lhs.size() > 1) {
        const auto *Call = cast<CallExpr>(AS->Rhs[0]);
        callArgs(Call);
        emit(Op::CallMulti, funcIdx(Call->Fn), (uint32_t)Call->Args.size());
        uint32_t N = (uint32_t)AS->Lhs.size();
        for (uint32_t I = 0; I < N; ++I) {
          if (const auto *Id = dyn_cast<IdentExpr>(AS->Lhs[I]);
              Id && !Id->Decl)
            continue; // Blank: leave the result where it is.
          emit(Op::Pick, N - I);
          storeTop(AS->Lhs[I]);
        }
        emit(Op::PopN, N);
        return;
      }
      for (size_t I = 0; I < AS->Lhs.size(); ++I) {
        if (incSlot(AS->Lhs[I], AS->Rhs[I]))
          continue;
        // `x = x + e` on an int slot local x: e, then one AddToSlot, which
        // reads x after e; exact only when e cannot write x.
        if (const VarDecl *X = slotLocal(AS->Lhs[I], SlotKind::I)) {
          const auto *BE = dyn_cast<BinaryExpr>(AS->Rhs[I]);
          if (BE && BE->Op == BinaryOp::Add &&
              slotLocal(BE->Lhs, SlotKind::I) == X &&
              callFree(BE->Rhs)) {
            expr(BE->Rhs);
            emit(Op::AddToSlot, (uint32_t)X->FrameOffset);
            continue;
          }
        }
        expr(AS->Rhs[I]); // RHS before the lvalue, like the tree-walker.
        storeTop(AS->Lhs[I]);
      }
      return;
    }
    case StmtKind::If: {
      const auto *IS = cast<IfStmt>(S);
      uint32_t Else = condJump(IS->Cond);
      block(IS->Then);
      if (IS->Else) {
        uint32_t End = emitJump(Op::Jump);
        patch(Else);
        stmt(IS->Else);
        patch(End);
      } else {
        patch(Else);
      }
      return;
    }
    case StmtKind::For: {
      // A loop whose condition fuses into a compare-and-branch is
      // inverted: the entry test jumps past the loop on the negated
      // condition, and the bottom test jumps back to the body on the
      // condition itself. Any other loop tests at the top and jumps back
      // to that test.
      const auto *FS = cast<ForStmt>(S);
      if (FS->Init)
        stmt(FS->Init);
      const auto *CondBE =
          FS->Cond ? dyn_cast<BinaryExpr>(FS->Cond) : nullptr;
      const bool Inverted = CondBE && cmpJump(CondBE, true);
      uint32_t CondAt = here();
      uint32_t ExitJump = FS->Cond ? condJump(FS->Cond) : 0;
      uint32_t Top = here();
      Loops.emplace_back();
      block(FS->Body);
      uint32_t PostAt = here();
      if (!Inverted) {
        if (FS->Post)
          stmt(FS->Post);
        emit(Op::Jump, CondAt);
      } else if (!incJumpLtSlot(FS, Top)) {
        if (FS->Post)
          stmt(FS->Post);
        expr(CondBE->Lhs);
        expr(CondBE->Rhs);
        emit(*cmpJump(CondBE, true), Top);
      }
      LoopInfo L = std::move(Loops.back());
      Loops.pop_back();
      if (FS->Cond)
        patch(ExitJump);
      for (uint32_t At : L.Breaks)
        patch(At);
      for (uint32_t At : L.Continues)
        patch(At, PostAt);
      return;
    }
    case StmtKind::Return: {
      const auto *RS = cast<ReturnStmt>(S);
      if (RS->Values.size() == 1 && Fn->Results.size() > 1) {
        // return f() forwarding multiple results.
        const auto *Call = cast<CallExpr>(RS->Values[0]);
        callArgs(Call);
        emit(Op::CallMulti, funcIdx(Call->Fn), (uint32_t)Call->Args.size());
        emit(Op::Return, (uint32_t)Fn->Results.size());
        return;
      }
      for (const minigo::Expr *V : RS->Values)
        expr(V);
      emit(Op::Return, (uint32_t)RS->Values.size());
      return;
    }
    case StmtKind::ExprStmt: {
      const auto *Call = cast<CallExpr>(cast<ExprStmt>(S)->E);
      callArgs(Call);
      emit(Op::CallStmt, funcIdx(Call->Fn), (uint32_t)Call->Args.size());
      return;
    }
    case StmtKind::Defer: {
      const auto *DS = cast<DeferStmt>(S);
      callArgs(DS->Call);
      emit(Op::Defer, funcIdx(DS->Call->Fn),
           (uint32_t)DS->Call->Args.size());
      return;
    }
    case StmtKind::Panic:
      expr(cast<PanicStmt>(S)->Value);
      emit(Op::Panic);
      return;
    case StmtKind::Break:
      assert(!Loops.empty() && "break outside loop");
      Loops.back().Breaks.push_back(emitJump(Op::Jump));
      return;
    case StmtKind::Continue:
      assert(!Loops.empty() && "continue outside loop");
      Loops.back().Continues.push_back(emitJump(Op::Jump));
      return;
    case StmtKind::Sink:
      expr(cast<SinkStmt>(S)->Value);
      emit(Op::Sink);
      return;
    case StmtKind::Delete: {
      const auto *DS = cast<DeleteStmt>(S);
      expr(DS->MapArg);
      expr(DS->KeyArg);
      emit(Op::Delete);
      return;
    }
    case StmtKind::Tcfree:
      M.Tcfrees.push_back(cast<TcfreeStmt>(S));
      emit(Op::Tcfree, (uint32_t)M.Tcfrees.size() - 1);
      return;
    }
    assert(false && "unhandled statement kind");
  }
};

} // namespace

Module gofree::vm::compileProgram(const Program &Prog) {
  Module M;
  M.Prog = &Prog;
  Pools P;
  M.Chunks.resize(Prog.Funcs.size());
  for (size_t I = 0; I < Prog.Funcs.size(); ++I) {
    M.Chunks[I].Fn = Prog.Funcs[I];
    M.ChunkOf[Prog.Funcs[I]] = (uint32_t)I;
  }
  for (size_t I = 0; I < Prog.Funcs.size(); ++I)
    FuncCompiler(M, P, M.Chunks[I]).compile(Prog.Funcs[I]);
  return M;
}
