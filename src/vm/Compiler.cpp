//===- vm/Compiler.cpp - MiniGo AST to bytecode ---------------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "vm/Compiler.h"

#include <algorithm>
#include <cassert>

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
enum class SlotKind { None, I, A };

SlotKind slotKind(const VarDecl *V) {
  if (V->MovedToHeap || !V->Ty)
    return SlotKind::None;
  if (V->Ty->isScalar())
    return SlotKind::I;
  if (V->Ty->isPointer() || V->Ty->isMap())
    return SlotKind::A;
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
    case Op::LvalVar:
    case Op::New:
    case Op::Composite:
      return 1;
    case Op::Jump:
    case Op::JumpIfFalsePeek:
    case Op::JumpIfTruePeek:
    case Op::Neg:
    case Op::Not:
    case Op::Deref:
    case Op::MkPtr:
    case Op::FieldPtr:
    case Op::FieldVal:
    case Op::LvalDeref:
    case Op::LvalFieldPtr:
    case Op::LvalField:
    case Op::InitVar:
    case Op::MapNilCheck:
    case Op::MissingRet:
    case Op::LenSlice:
    case Op::LenMap:
    case Op::CapOf:
    case Op::Tcfree:
      return 0;
    case Op::Pop:
    case Op::StoreSlotI:
    case Op::StoreSlotA:
    case Op::JumpIfFalse:
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Div:
    case Op::Mod:
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge:
    case Op::Eq:
    case Op::Ne:
    case Op::IndexSlice:
    case Op::IndexMap:
    case Op::LvalIndex:
    case Op::StoreVarInit:
    case Op::SetField:
    case Op::Append:
    case Op::Copy:
    case Op::Panic:
    case Op::Sink:
      return -1;
    case Op::JumpIfNotLt:
    case Op::JumpIfNotLe:
    case Op::JumpIfNotGt:
    case Op::JumpIfNotGe:
    case Op::Store:
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
  void patch(uint32_t At) { C.Code[At] = here(); }
  void patch(uint32_t At, uint32_t Target) { C.Code[At] = Target; }

  /// Emits \p Cond and a jump taken when it is false; returns the jump's
  /// operand position. An ordered comparison fuses into one JumpIfNot*.
  uint32_t condJump(const minigo::Expr *Cond) {
    if (const auto *BE = dyn_cast<BinaryExpr>(Cond)) {
      Op Fused;
      switch (BE->Op) {
      case BinaryOp::Lt: Fused = Op::JumpIfNotLt; break;
      case BinaryOp::Le: Fused = Op::JumpIfNotLe; break;
      case BinaryOp::Gt: Fused = Op::JumpIfNotGt; break;
      case BinaryOp::Ge: Fused = Op::JumpIfNotGe; break;
      default: Fused = Op::JumpIfFalse; break;
      }
      if (Fused != Op::JumpIfFalse) {
        expr(BE->Lhs);
        expr(BE->Rhs);
        return emitJump(Fused);
      }
    }
    expr(Cond);
    return emitJump(Op::JumpIfFalse);
  }
  /// Emits the slot store of the top of the stack into \p V when V has
  /// slot operands; returns false (emitting nothing) otherwise.
  bool storeSlot(const VarDecl *V) {
    SlotKind K = slotKind(V);
    if (K == SlotKind::None)
      return false;
    emit(K == SlotKind::I ? Op::StoreSlotI : Op::StoreSlotA,
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
        emit(K == SlotKind::I ? Op::LoadSlotI : Op::LoadSlotA,
             (uint32_t)V->FrameOffset, typeIdx(V->Ty));
      else
        emit(Op::LoadVar, varIdx(V));
      return;
    }
    case ExprKind::Unary: {
      const auto *UE = cast<UnaryExpr>(E);
      expr(UE->Sub);
      emit(UE->Op == UnaryOp::Neg ? Op::Neg : Op::Not, typeIdx(E->Ty));
      return;
    }
    case ExprKind::Binary: {
      const auto *BE = cast<BinaryExpr>(E);
      if (BE->Op == BinaryOp::And || BE->Op == BinaryOp::Or) {
        // Short-circuit: the left value is the result when it decides.
        expr(BE->Lhs);
        uint32_t End = emitJump(BE->Op == BinaryOp::And ? Op::JumpIfFalsePeek
                                                        : Op::JumpIfTruePeek);
        emit(Op::Pop);
        expr(BE->Rhs);
        patch(End);
        return;
      }
      expr(BE->Lhs);
      expr(BE->Rhs);
      uint32_t T = typeIdx(E->Ty);
      switch (BE->Op) {
      case BinaryOp::Add: emit(Op::Add, T); return;
      case BinaryOp::Sub: emit(Op::Sub, T); return;
      case BinaryOp::Mul: emit(Op::Mul, T); return;
      case BinaryOp::Div: emit(Op::Div, T); return;
      case BinaryOp::Mod: emit(Op::Mod, T); return;
      case BinaryOp::Lt: emit(Op::Lt, T); return;
      case BinaryOp::Le: emit(Op::Le, T); return;
      case BinaryOp::Gt: emit(Op::Gt, T); return;
      case BinaryOp::Ge: emit(Op::Ge, T); return;
      case BinaryOp::Eq: emit(Op::Eq, T, eqClass(BE->Lhs->Ty)); return;
      case BinaryOp::Ne: emit(Op::Ne, T, eqClass(BE->Lhs->Ty)); return;
      case BinaryOp::And:
      case BinaryOp::Or:
        break;
      }
      assert(false && "handled above");
      return;
    }
    case ExprKind::Deref:
      expr(cast<DerefExpr>(E)->Sub);
      emit(Op::Deref, typeIdx(E->Ty));
      return;
    case ExprKind::AddrOf:
      lvalue(cast<AddrOfExpr>(E)->Sub);
      emit(Op::MkPtr, typeIdx(E->Ty));
      return;
    case ExprKind::Field: {
      const auto *FE = cast<FieldExpr>(E);
      expr(FE->Base);
      emit(FE->ThroughPointer ? Op::FieldPtr : Op::FieldVal,
           (uint32_t)FE->F->Offset, typeIdx(E->Ty));
      return;
    }
    case ExprKind::Index: {
      const auto *IE = cast<IndexExpr>(E);
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
        expr(CE->Inits[I].second);
        emit(Op::SetField, (uint32_t)CE->InitFields[I]->Offset);
      }
      return;
    }
    case ExprKind::Len: {
      const auto *LE = cast<LenExpr>(E);
      expr(LE->Sub);
      emit(LE->Sub->Ty->isMap() ? Op::LenMap : Op::LenSlice, typeIdx(E->Ty));
      return;
    }
    case ExprKind::Cap:
      expr(cast<minigo::CapExpr>(E)->Sub);
      emit(Op::CapOf, typeIdx(E->Ty));
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
      emit(Op::LvalDeref);
      return;
    case ExprKind::Field: {
      const auto *FE = cast<FieldExpr>(E);
      if (FE->ThroughPointer) {
        expr(FE->Base);
        emit(Op::LvalFieldPtr, (uint32_t)FE->F->Offset);
      } else {
        lvalue(FE->Base);
        emit(Op::LvalField, (uint32_t)FE->F->Offset);
      }
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
      emit(Op::Pop); // Blank identifier discards.
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
    lvalue(Lhs);
    emit(Op::Store);
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

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
      const auto *FS = cast<ForStmt>(S);
      if (FS->Init)
        stmt(FS->Init);
      uint32_t CondAt = here();
      uint32_t ExitJump = 0;
      bool HasCond = FS->Cond != nullptr;
      if (HasCond)
        ExitJump = condJump(FS->Cond);
      Loops.emplace_back();
      block(FS->Body);
      uint32_t PostAt = here();
      if (FS->Post)
        stmt(FS->Post);
      emit(Op::Jump, CondAt);
      LoopInfo L = std::move(Loops.back());
      Loops.pop_back();
      if (HasCond)
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
