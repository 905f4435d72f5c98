//===- escape/Analysis.cpp - Whole-program GoFree analysis ----------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "escape/Analysis.h"

#include <algorithm>
#include <chrono>
#include <functional>

using namespace gofree;
using namespace gofree::escape;
using namespace gofree::minigo;

namespace {

/// Collects the Program::Funcs indices of a function's direct callees
/// (calls and defers).
void collectCalleesExpr(const Expr *E, std::vector<uint32_t> &Out);

void collectCalleesStmt(const Stmt *S, std::vector<uint32_t> &Out) {
  switch (S->kind()) {
  case StmtKind::Block:
    for (const Stmt *Sub : cast<BlockStmt>(S)->Stmts)
      collectCalleesStmt(Sub, Out);
    return;
  case StmtKind::VarDecl:
    for (const Expr *I : cast<VarDeclStmt>(S)->Inits)
      collectCalleesExpr(I, Out);
    return;
  case StmtKind::Assign:
    for (const Expr *L : cast<AssignStmt>(S)->Lhs)
      collectCalleesExpr(L, Out);
    for (const Expr *R : cast<AssignStmt>(S)->Rhs)
      collectCalleesExpr(R, Out);
    return;
  case StmtKind::If: {
    const auto *IS = cast<IfStmt>(S);
    collectCalleesExpr(IS->Cond, Out);
    collectCalleesStmt(IS->Then, Out);
    if (IS->Else)
      collectCalleesStmt(IS->Else, Out);
    return;
  }
  case StmtKind::For: {
    const auto *FS = cast<ForStmt>(S);
    if (FS->Init)
      collectCalleesStmt(FS->Init, Out);
    if (FS->Cond)
      collectCalleesExpr(FS->Cond, Out);
    if (FS->Post)
      collectCalleesStmt(FS->Post, Out);
    collectCalleesStmt(FS->Body, Out);
    return;
  }
  case StmtKind::Return:
    for (const Expr *V : cast<ReturnStmt>(S)->Values)
      collectCalleesExpr(V, Out);
    return;
  case StmtKind::ExprStmt:
    collectCalleesExpr(cast<ExprStmt>(S)->E, Out);
    return;
  case StmtKind::Defer:
    collectCalleesExpr(cast<DeferStmt>(S)->Call, Out);
    return;
  case StmtKind::Panic:
    collectCalleesExpr(cast<PanicStmt>(S)->Value, Out);
    return;
  case StmtKind::Sink:
    collectCalleesExpr(cast<SinkStmt>(S)->Value, Out);
    return;
  case StmtKind::Delete: {
    const auto *DS = cast<DeleteStmt>(S);
    collectCalleesExpr(DS->MapArg, Out);
    collectCalleesExpr(DS->KeyArg, Out);
    return;
  }
  case StmtKind::Break:
  case StmtKind::Continue:
  case StmtKind::Tcfree:
    return;
  }
}

void collectCalleesExpr(const Expr *E, std::vector<uint32_t> &Out) {
  switch (E->kind()) {
  case ExprKind::Call: {
    const auto *CE = cast<CallExpr>(E);
    if (CE->Fn)
      Out.push_back(CE->Fn->Index);
    for (const Expr *A : CE->Args)
      collectCalleesExpr(A, Out);
    return;
  }
  case ExprKind::Unary:
    collectCalleesExpr(cast<UnaryExpr>(E)->Sub, Out);
    return;
  case ExprKind::Binary:
    collectCalleesExpr(cast<BinaryExpr>(E)->Lhs, Out);
    collectCalleesExpr(cast<BinaryExpr>(E)->Rhs, Out);
    return;
  case ExprKind::Deref:
    collectCalleesExpr(cast<DerefExpr>(E)->Sub, Out);
    return;
  case ExprKind::AddrOf:
    collectCalleesExpr(cast<AddrOfExpr>(E)->Sub, Out);
    return;
  case ExprKind::Field:
    collectCalleesExpr(cast<FieldExpr>(E)->Base, Out);
    return;
  case ExprKind::Index:
    collectCalleesExpr(cast<IndexExpr>(E)->Base, Out);
    collectCalleesExpr(cast<IndexExpr>(E)->Idx, Out);
    return;
  case ExprKind::Make: {
    const auto *ME = cast<MakeExpr>(E);
    if (ME->Len)
      collectCalleesExpr(ME->Len, Out);
    if (ME->CapExpr)
      collectCalleesExpr(ME->CapExpr, Out);
    return;
  }
  case ExprKind::Composite:
    for (const auto &[Name, Init] : cast<CompositeExpr>(E)->Inits)
      collectCalleesExpr(Init, Out);
    return;
  case ExprKind::Len:
    collectCalleesExpr(cast<LenExpr>(E)->Sub, Out);
    return;
  case ExprKind::Cap:
    collectCalleesExpr(cast<CapExpr>(E)->Sub, Out);
    return;
  case ExprKind::Append:
    collectCalleesExpr(cast<AppendExpr>(E)->SliceArg, Out);
    collectCalleesExpr(cast<AppendExpr>(E)->Value, Out);
    return;
  case ExprKind::Slicing: {
    const auto *SE = cast<SlicingExpr>(E);
    collectCalleesExpr(SE->Base, Out);
    if (SE->Lo)
      collectCalleesExpr(SE->Lo, Out);
    if (SE->Hi)
      collectCalleesExpr(SE->Hi, Out);
    return;
  }
  case ExprKind::CopyFn:
    collectCalleesExpr(cast<CopyExpr>(E)->Dst, Out);
    collectCalleesExpr(cast<CopyExpr>(E)->Src, Out);
    return;
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::NilLit:
  case ExprKind::Ident:
  case ExprKind::New:
    return;
  }
}

/// Iterative Tarjan SCC over the call graph.
class SccFinder {
public:
  explicit SccFinder(const Program &Prog) : Nodes(Prog.Funcs) {
    // Node I's callees are Callees[CalleeStart[I] .. CalleeStart[I + 1]).
    CalleeStart.reserve(Nodes.size() + 1);
    CalleeStart.push_back(0);
    for (const FuncDecl *Fn : Nodes) {
      if (Fn->Body)
        collectCalleesStmt(Fn->Body, Callees);
      CalleeStart.push_back(Callees.size());
    }
  }

  std::vector<std::vector<const FuncDecl *>> run() {
    Index.assign(Nodes.size(), Unvisited);
    Low.assign(Nodes.size(), 0);
    OnStack.assign(Nodes.size(), false);
    for (uint32_t I = 0; I < Nodes.size(); ++I)
      if (Index[I] == Unvisited)
        strongConnect(I);
    return std::move(Sccs);
  }

private:
  static constexpr uint32_t Unvisited = ~0u;

  void strongConnect(uint32_t Start) {
    CallStack.push_back({Start, CalleeStart[Start]});
    enter(Start);
    while (!CallStack.empty()) {
      Frame &F = CallStack.back();
      if (F.NextChild < CalleeStart[F.Node + 1]) {
        uint32_t Child = Callees[F.NextChild++];
        if (Index[Child] == Unvisited) {
          enter(Child);
          CallStack.push_back({Child, CalleeStart[Child]});
        } else if (OnStack[Child]) {
          Low[F.Node] = std::min(Low[F.Node], Index[Child]);
        }
        continue;
      }
      // All children visited: maybe emit an SCC, then propagate lowlink.
      uint32_t Node = F.Node;
      CallStack.pop_back();
      if (!CallStack.empty())
        Low[CallStack.back().Node] =
            std::min(Low[CallStack.back().Node], Low[Node]);
      if (Low[Node] == Index[Node]) {
        std::vector<const FuncDecl *> Scc;
        uint32_t Member;
        do {
          Member = TarjanStack.back();
          TarjanStack.pop_back();
          OnStack[Member] = false;
          Scc.push_back(Nodes[Member]);
        } while (Member != Node);
        Sccs.push_back(std::move(Scc));
      }
    }
  }

  void enter(uint32_t Node) {
    Index[Node] = Low[Node] = NextIndex++;
    TarjanStack.push_back(Node);
    OnStack[Node] = true;
  }

  /// Explicit DFS stack, to avoid deep recursion on long call chains.
  struct Frame {
    uint32_t Node;
    size_t NextChild;
  };
  std::vector<Frame> CallStack;
  const std::vector<FuncDecl *> &Nodes;
  std::vector<size_t> CalleeStart;
  std::vector<uint32_t> Callees;
  std::vector<uint32_t> Index, Low;
  std::vector<bool> OnStack;
  std::vector<uint32_t> TarjanStack;
  std::vector<std::vector<const FuncDecl *>> Sccs;
  uint32_t NextIndex = 0;
};

} // namespace

std::vector<std::vector<const FuncDecl *>>
gofree::escape::callGraphSccs(const Program &Prog) {
  return SccFinder(Prog).run();
}

namespace {

/// Records one solved graph's decisions on the AST nodes they decide. Every
/// allocation site and variable of \p Fn gets each bit assigned.
void distill(const FuncDecl *Fn, const BuildResult &Build,
             const AnalysisOptions &Opts) {
  for (const Location &L : Build.Graph.locations())
    if (L.Kind == LocKind::Alloc)
      if (bool *OnStack = onStackBit(L.AllocExpr))
        *OnStack = !L.HeapAlloc;
  for (VarDecl *V : Fn->AllVars) {
    const Location &L = Build.Graph.loc(Build.varLoc(V));
    V->MovedToHeap = L.HeapAlloc;
    bool TypeOk = Opts.Targets != FreeTargets::None &&
                  (V->Ty->isSlice() || V->Ty->isMap() ||
                   (Opts.Targets == FreeTargets::All && V->Ty->isPointer()));
    // Never free through parameters or escaped variables; both are already
    // excluded by Incomplete/Outlived, this is belt and braces for the
    // instrumentation.
    V->ToFree = L.ToFree && TypeOk && !V->IsParam && !L.HeapAlloc;
  }
}

uint64_t nanosBetween(std::chrono::steady_clock::time_point From,
                      std::chrono::steady_clock::time_point To) {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(To -
                                                                        From)
      .count();
}

} // namespace

ProgramAnalysis gofree::escape::analyzeProgram(Program &Prog,
                                               const AnalysisOptions &Opts) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start = Clock::now();
  ProgramAnalysis Out;
  Out.Tags.resize(Prog.Funcs.size());
  Out.FuncGraphs.resize(Prog.Funcs.size());
  SolverBuffers Buf;

  // Bottom-up over the call graph: Tarjan emits SCCs callee-first. Members
  // of the same SCC (and self-recursive functions) see no tag for their
  // cycle partners and fall back to the default tag, like Go.
  for (const auto &Scc : callGraphSccs(Prog)) {
    for (const FuncDecl *Fn : Scc) {
      BuildResult &Build = Out.FuncGraphs[Fn->Index] =
          buildEscapeGraph(Fn, Out.Tags, Opts.Build);
      SolverStats S = solve(Build.Graph, Buf, Opts.Solve);
      Out.Stats.RootWalks += S.RootWalks;
      Out.Stats.Relaxations += S.Relaxations;
      Out.Stats.LeafVisits += S.LeafVisits;
      Out.Stats.PropagateNanos += S.PropagateNanos;
      Out.Stats.LifetimeNanos += S.LifetimeNanos;
    }
    // Tags and decisions consume the solved lifetimes: Lifetime's time.
    Clock::time_point TagStart = Clock::now();
    for (const FuncDecl *Fn : Scc) {
      const BuildResult &Build = Out.FuncGraphs[Fn->Index];
      Out.Tags[Fn->Index] = extractTag(Fn, Build, Buf.Walk);
      distill(Fn, Build, Opts);
    }
    Out.Stats.LifetimeNanos += nanosBetween(TagStart, Clock::now());
  }

  // Everything else -- the call graph, graph construction and the
  // bookkeeping around it -- is EscapeBuild's, so the three stages add up
  // to the whole analysis.
  uint64_t Total = nanosBetween(Start, Clock::now());
  uint64_t Timed = Out.Stats.PropagateNanos + Out.Stats.LifetimeNanos;
  Out.Stats.BuildNanos = Total > Timed ? Total - Timed : 0;
  return Out;
}
