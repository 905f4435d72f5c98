//===- minigo/Ast.h - MiniGo abstract syntax tree --------------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Arena-allocated AST for MiniGo. The parser produces an untyped tree; the
/// Sema pass resolves names, infers types, lays out frames and numbers
/// allocation sites. The GoFree instrumentation pass later splices
/// TcfreeStmt nodes into blocks (section 4.5 of the paper).
///
/// The escape analysis records its decisions on the nodes they decide
/// (VarDecl::MovedToHeap and ToFree, OnStack on make/new/&T{...}).
///
/// Every node, list and name lives in Program::Nodes: lists are std::span
/// views of arena arrays and names are std::string_view copies interned by
/// the parser, so no node owns heap memory and the arena releases the whole
/// tree at once.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_MINIGO_AST_H
#define GOFREE_MINIGO_AST_H

#include "minigo/Type.h"
#include "support/Arena.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gofree {
namespace minigo {

class Expr;
class Stmt;
class BlockStmt;
class FuncDecl;

/// Sentinel for "no allocation site id assigned".
inline constexpr uint32_t InvalidAllocId = ~0u;
/// Sentinel for a name the parser did not intern (compiler temporaries).
inline constexpr uint32_t NoSymbol = ~0u;

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// A variable: local, parameter, or named result.
struct VarDecl {
  std::string_view Name;
  uint32_t Sym = NoSymbol; ///< Interned name id, for Sema's scope lookup.
  SourceLoc Loc;
  const Type *Ty = nullptr; ///< Set by Sema.
  bool IsParam = false;
  bool IsResult = false;   ///< Named result variable.
  int ResultIndex = -1;    ///< For results: position in the result list.
  int ScopeDepth = 0;      ///< DeclDepth(l) of the paper (definition 4.13).
  int LoopDepth = 0;       ///< LoopDepth(l) of the paper (definition 4.3).
  uint32_t Id = 0;         ///< Dense per-function index, assigned by Sema.
  size_t FrameOffset = 0;  ///< Byte offset in the function frame.
  /// Set by the escape analysis: the variable's own storage escapes (its
  /// address outlives the frame), so the interpreter boxes it on the heap —
  /// Go's "moved to heap" decision.
  bool MovedToHeap = false;
  /// Set by the escape analysis: the ToFree property held and the type
  /// matches the free targets, so tcfree is inserted at the end of the
  /// variable's declaration scope.
  bool ToFree = false;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Expression kinds (LLVM-style tagged hierarchy; no RTTI).
enum class ExprKind : uint8_t {
  IntLit,
  BoolLit,
  NilLit,
  Ident,
  Unary,   // -x, !x
  Binary,  // arithmetic, comparison, logical
  Deref,   // *p
  AddrOf,  // &lvalue
  Field,   // base.f (auto-dereferences one pointer level)
  Index,   // s[i] for slices, m[k] for maps
  Call,    // f(args)
  Make,    // make([]T, len[, cap]) or make(map[K]V[, hint])
  New,     // new(T)
  Composite, // T{f: e, ...} or &T{f: e, ...}
  Len,
  Cap,
  Append,  // append(s, v)
  Slicing, // s[lo:hi]
  CopyFn,  // copy(dst, src)
};

class Expr {
public:
  ExprKind kind() const { return EK; }
  SourceLoc Loc;
  const Type *Ty = nullptr; ///< Set by Sema. Tuple for multi-value calls.

protected:
  explicit Expr(ExprKind K) : EK(K) {}

private:
  ExprKind EK;
};

struct IntLitExpr : Expr {
  explicit IntLitExpr(int64_t V) : Expr(ExprKind::IntLit), Value(V) {}
  int64_t Value;
  static bool classof(const Expr *E) { return E->kind() == ExprKind::IntLit; }
};

struct BoolLitExpr : Expr {
  explicit BoolLitExpr(bool V) : Expr(ExprKind::BoolLit), Value(V) {}
  bool Value;
  static bool classof(const Expr *E) { return E->kind() == ExprKind::BoolLit; }
};

/// The nil literal. Sema rewrites Ty from the untyped nil type to the
/// concrete pointer/slice/map type the context requires.
struct NilLitExpr : Expr {
  NilLitExpr() : Expr(ExprKind::NilLit) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::NilLit; }
};

struct IdentExpr : Expr {
  IdentExpr(std::string_view N, uint32_t Sym)
      : Expr(ExprKind::Ident), Name(N), Sym(Sym) {}
  std::string_view Name;
  uint32_t Sym; ///< Interned name id.
  VarDecl *Decl = nullptr; ///< Resolved by Sema.
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Ident; }
};

enum class UnaryOp : uint8_t { Neg, Not };

struct UnaryExpr : Expr {
  UnaryExpr(UnaryOp O, Expr *S) : Expr(ExprKind::Unary), Op(O), Sub(S) {}
  UnaryOp Op;
  Expr *Sub;
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Unary; }
};

enum class BinaryOp : uint8_t {
  Add, Sub, Mul, Div, Mod,
  Eq, Ne, Lt, Le, Gt, Ge,
  And, Or,
};

struct BinaryExpr : Expr {
  BinaryExpr(BinaryOp O, Expr *L, Expr *R)
      : Expr(ExprKind::Binary), Op(O), Lhs(L), Rhs(R) {}
  BinaryOp Op;
  Expr *Lhs;
  Expr *Rhs;
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Binary; }
};

struct DerefExpr : Expr {
  explicit DerefExpr(Expr *S) : Expr(ExprKind::Deref), Sub(S) {}
  Expr *Sub;
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Deref; }
};

struct AddrOfExpr : Expr {
  explicit AddrOfExpr(Expr *S) : Expr(ExprKind::AddrOf), Sub(S) {}
  Expr *Sub; ///< Must be an lvalue.
  static bool classof(const Expr *E) { return E->kind() == ExprKind::AddrOf; }
};

struct FieldExpr : Expr {
  FieldExpr(Expr *B, std::string_view FN)
      : Expr(ExprKind::Field), Base(B), FieldName(FN) {}
  Expr *Base;
  std::string_view FieldName;
  const Field *F = nullptr;   ///< Resolved by Sema.
  bool ThroughPointer = false; ///< Base is a pointer (implicit deref).
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Field; }
};

struct IndexExpr : Expr {
  IndexExpr(Expr *B, Expr *I) : Expr(ExprKind::Index), Base(B), Idx(I) {}
  Expr *Base;
  Expr *Idx;
  bool IsMap = false; ///< Set by Sema: base is a map, not a slice.
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Index; }
};

struct CallExpr : Expr {
  CallExpr(std::string_view C, std::span<Expr *> A)
      : Expr(ExprKind::Call), Callee(C), Args(A) {}
  std::string_view Callee;
  std::span<Expr *> Args;
  FuncDecl *Fn = nullptr; ///< Resolved by Sema.
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Call; }
};

struct MakeExpr : Expr {
  MakeExpr(const Type *MT, Expr *L, Expr *C)
      : Expr(ExprKind::Make), MadeTy(MT), Len(L), CapExpr(C) {}
  const Type *MadeTy; ///< Slice or map type.
  Expr *Len;          ///< Length (slices) or size hint (maps); may be null.
  Expr *CapExpr;      ///< Capacity (slices only); may be null.
  /// Compile-time-constant size, if Sema could prove one. Constant-size,
  /// non-escaping makes are eligible for stack allocation, mirroring Go.
  bool SizeIsConst = false;
  int64_t ConstSize = 0;
  uint32_t AllocId = InvalidAllocId; ///< Dense allocation-site id.
  bool OnStack = false; ///< Set by the escape analysis.
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Make; }
};

struct NewExpr : Expr {
  explicit NewExpr(const Type *AT) : Expr(ExprKind::New), AllocTy(AT) {}
  const Type *AllocTy;
  uint32_t AllocId = InvalidAllocId;
  bool OnStack = false; ///< Set by the escape analysis.
  static bool classof(const Expr *E) { return E->kind() == ExprKind::New; }
};

/// One `field: value` initializer of a composite literal.
struct FieldInit {
  std::string_view Name;
  Expr *Value;
};

struct CompositeExpr : Expr {
  CompositeExpr(std::string_view TN, std::span<FieldInit> I, bool TakeAddr)
      : Expr(ExprKind::Composite), TypeName(TN), Inits(I), TakeAddr(TakeAddr) {}
  std::string_view TypeName;
  std::span<FieldInit> Inits;
  bool TakeAddr; ///< &T{...}: yields *T and is an allocation site.
  const Type *StructTy = nullptr;       ///< Resolved by Sema.
  std::span<const Field *> InitFields;  ///< Parallel to Inits, from Sema.
  uint32_t AllocId = InvalidAllocId;     ///< Also set for by-value literals.
  bool OnStack = false; ///< Set by the escape analysis; only when TakeAddr.
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::Composite;
  }
};

struct LenExpr : Expr {
  explicit LenExpr(Expr *S) : Expr(ExprKind::Len), Sub(S) {}
  Expr *Sub;
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Len; }
};

struct CapExpr : Expr {
  explicit CapExpr(Expr *S) : Expr(ExprKind::Cap), Sub(S) {}
  Expr *Sub;
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Cap; }
};

/// `s[lo:hi]`: a sub-slice sharing the backing array. Missing bounds
/// default to 0 and len(s).
struct SlicingExpr : Expr {
  SlicingExpr(Expr *B, Expr *L, Expr *H)
      : Expr(ExprKind::Slicing), Base(B), Lo(L), Hi(H) {}
  Expr *Base;
  Expr *Lo; ///< May be null (0).
  Expr *Hi; ///< May be null (len).
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::Slicing;
  }
};

/// `copy(dst, src)`: copies min(len) elements, yielding the count.
struct CopyExpr : Expr {
  CopyExpr(Expr *D, Expr *S) : Expr(ExprKind::CopyFn), Dst(D), Src(S) {}
  Expr *Dst;
  Expr *Src;
  static bool classof(const Expr *E) { return E->kind() == ExprKind::CopyFn; }
};

struct AppendExpr : Expr {
  AppendExpr(Expr *S, Expr *V) : Expr(ExprKind::Append), SliceArg(S), Value(V) {}
  Expr *SliceArg;
  Expr *Value;
  /// Growth of an append is an implicit allocation (section 4.6.1); it gets
  /// its own site id so the runtime can classify the allocation.
  uint32_t AllocId = InvalidAllocId;
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Append; }
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind : uint8_t {
  Block,
  VarDecl,
  Assign,
  If,
  For,
  Return,
  ExprStmt,
  Defer,
  Panic,
  Break,
  Continue,
  Sink,
  Delete, ///< delete(m, k)
  Tcfree, ///< Inserted by the GoFree instrumentation pass.
};

class Stmt {
public:
  StmtKind kind() const { return SK; }
  SourceLoc Loc;

protected:
  explicit Stmt(StmtKind K) : SK(K) {}

private:
  StmtKind SK;
};

struct BlockStmt : Stmt {
  BlockStmt() : Stmt(StmtKind::Block) {}
  std::span<Stmt *> Stmts;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Block; }
};

/// `x := e`, `var x T`, `var x T = e`, or `a, b := f()`.
struct VarDeclStmt : Stmt {
  VarDeclStmt() : Stmt(StmtKind::VarDecl) {}
  std::span<VarDecl *> Vars;
  /// Either empty (zero-value init), one per var, or a single multi-value
  /// call initializing all vars.
  std::span<Expr *> Inits;
  const Type *DeclaredTy = nullptr; ///< For `var x T` forms.
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::VarDecl; }
};

struct AssignStmt : Stmt {
  AssignStmt() : Stmt(StmtKind::Assign) {}
  std::span<Expr *> Lhs; ///< lvalues
  std::span<Expr *> Rhs; ///< one per lvalue, or a single multi-value call
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Assign; }
};

struct IfStmt : Stmt {
  IfStmt() : Stmt(StmtKind::If) {}
  Expr *Cond = nullptr;
  BlockStmt *Then = nullptr;
  Stmt *Else = nullptr; ///< BlockStmt or IfStmt; may be null.
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::If; }
};

struct ForStmt : Stmt {
  ForStmt() : Stmt(StmtKind::For) {}
  Stmt *Init = nullptr; ///< May be null.
  Expr *Cond = nullptr; ///< May be null (infinite loop).
  Stmt *Post = nullptr; ///< May be null.
  BlockStmt *Body = nullptr;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::For; }
};

struct ReturnStmt : Stmt {
  ReturnStmt() : Stmt(StmtKind::Return) {}
  std::span<Expr *> Values;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Return; }
};

struct ExprStmt : Stmt {
  explicit ExprStmt(Expr *E) : Stmt(StmtKind::ExprStmt), E(E) {}
  Expr *E;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::ExprStmt; }
};

struct DeferStmt : Stmt {
  explicit DeferStmt(CallExpr *C) : Stmt(StmtKind::Defer), Call(C) {}
  CallExpr *Call;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Defer; }
};

struct PanicStmt : Stmt {
  explicit PanicStmt(Expr *V) : Stmt(StmtKind::Panic), Value(V) {}
  Expr *Value;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Panic; }
};

struct BreakStmt : Stmt {
  BreakStmt() : Stmt(StmtKind::Break) {}
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Break; }
};

struct ContinueStmt : Stmt {
  ContinueStmt() : Stmt(StmtKind::Continue) {}
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Continue; }
};

/// `sink(e)`: folds e into the run's observable checksum. Used by the
/// workloads and the robustness harness to detect memory corruption.
struct SinkStmt : Stmt {
  explicit SinkStmt(Expr *V) : Stmt(StmtKind::Sink), Value(V) {}
  Expr *Value;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Sink; }
};

/// `delete(m, k)`: removes key k from map m.
struct DeleteStmt : Stmt {
  DeleteStmt(Expr *M, Expr *K) : Stmt(StmtKind::Delete), MapArg(M), KeyArg(K) {}
  Expr *MapArg;
  Expr *KeyArg;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Delete; }
};

/// Which runtime entry point a tcfree call routes through (table 4).
enum class TcfreeKind : uint8_t { Object, Slice, Map };

/// Compiler-inserted explicit deallocation of the object held by Var.
struct TcfreeStmt : Stmt {
  TcfreeStmt(VarDecl *V, TcfreeKind K)
      : Stmt(StmtKind::Tcfree), Var(V), FreeKind(K) {}
  VarDecl *Var;
  TcfreeKind FreeKind;
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Tcfree; }
};

//===----------------------------------------------------------------------===//
// Functions and programs
//===----------------------------------------------------------------------===//

struct FuncDecl {
  std::string_view Name;
  uint32_t Index = 0; ///< Position in Program::Funcs.
  SourceLoc Loc;
  std::span<VarDecl *> Params;
  std::span<const Type *> Results;
  BlockStmt *Body = nullptr;
  /// All variables of the function in declaration order (Sema); the i-th
  /// has VarDecl::Id i.
  std::span<VarDecl *> AllVars;
  /// Frame size in bytes for static slots (Sema).
  size_t FrameSize = 0;
};

/// A parsed-and-checked MiniGo program. Owns the arena backing all nodes.
struct Program {
  Program() : Types(std::make_unique<TypeTable>()) {}

  Arena Nodes;
  std::unique_ptr<TypeTable> Types;
  std::vector<FuncDecl *> Funcs;
  /// Keys are the functions' arena names.
  std::unordered_map<std::string_view, FuncDecl *> FuncByName;
  uint32_t NumAllocSites = 0; ///< Allocation sites numbered by Sema.
  uint32_t NumSymbols = 0;    ///< Distinct names interned by the parser.

  FuncDecl *findFunc(std::string_view Name) const {
    auto It = FuncByName.find(Name);
    return It == FuncByName.end() ? nullptr : It->second;
  }
};

//===----------------------------------------------------------------------===//
// Casting helpers (LLVM-style, no RTTI)
//===----------------------------------------------------------------------===//

template <typename T, typename U> bool isa(const U *V) {
  return T::classof(V);
}

template <typename T, typename U> T *cast(U *V) {
  assert(T::classof(V) && "cast to incompatible AST node");
  return static_cast<T *>(V);
}

template <typename T, typename U> const T *cast(const U *V) {
  assert(T::classof(V) && "cast to incompatible AST node");
  return static_cast<const T *>(V);
}

template <typename T, typename U> T *dyn_cast(U *V) {
  return T::classof(V) ? static_cast<T *>(V) : nullptr;
}

template <typename T, typename U> const T *dyn_cast(const U *V) {
  return T::classof(V) ? static_cast<const T *>(V) : nullptr;
}

/// The OnStack bit of allocation site \p E (make, new or &T{...}); null for
/// append growth, which always allocates on the heap, and non-sites.
inline bool *onStackBit(Expr *E) {
  if (auto *ME = dyn_cast<MakeExpr>(E))
    return &ME->OnStack;
  if (auto *NE = dyn_cast<NewExpr>(E))
    return &NE->OnStack;
  if (auto *CE = dyn_cast<CompositeExpr>(E))
    return &CE->OnStack;
  return nullptr;
}

} // namespace minigo
} // namespace gofree

#endif // GOFREE_MINIGO_AST_H
