//===- tests/EscapeTest.cpp - Unit tests for the escape analysis ----------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// These tests pin down the behaviors the paper describes: figure 1's
// completeness example, figure 3's stack/heap split, figure 6's nested
// scopes, figure 7's inter-procedural content tags, and the individual
// property definitions of section 4.
//
//===----------------------------------------------------------------------===//

#include "escape/Analysis.h"
#include "escape/Diagnostics.h"
#include "minigo/Frontend.h"
#include "workloads/Synth.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

using namespace gofree;
using namespace gofree::escape;
using namespace gofree::minigo;

namespace {

struct Compiled {
  std::unique_ptr<Program> Prog;
  ProgramAnalysis Analysis;

  const FuncDecl *func(const std::string &Name) const {
    const FuncDecl *Fn = Prog->findFunc(Name);
    EXPECT_NE(Fn, nullptr) << "no function " << Name;
    return Fn;
  }

  const VarDecl *var(const std::string &FnName, const std::string &VName) const {
    const FuncDecl *Fn = func(FnName);
    for (const VarDecl *V : Fn->AllVars)
      if (V->Name == VName)
        return V;
    ADD_FAILURE() << "no variable " << VName << " in " << FnName;
    return nullptr;
  }

  const Location &locOf(const std::string &FnName,
                        const std::string &VName) const {
    const FuncDecl *Fn = func(FnName);
    const BuildResult &B = Analysis.FuncGraphs.at(Fn->Index);
    return B.Graph.loc(B.varLoc(var(FnName, VName)));
  }

  /// The location of the AllocId-th allocation site of the whole program.
  const Location &allocLoc(const std::string &FnName, uint32_t AllocId) const {
    const BuildResult &B = Analysis.FuncGraphs.at(func(FnName)->Index);
    for (const Location &L : B.Graph.locations())
      if (L.Kind == LocKind::Alloc && L.AllocId == AllocId)
        return L;
    ADD_FAILURE() << "no allocation site " << AllocId << " in " << FnName;
    return B.Graph.loc(EscapeGraph::HeapLocId);
  }

  bool toFree(const std::string &FnName, const std::string &VName) const {
    return var(FnName, VName)->ToFree;
  }

  /// The stack verdict recorded on the AllocId-th allocation site.
  bool siteOnStack(uint32_t AllocId) const {
    std::vector<uint32_t> Ids = stackSiteIds(*Prog, Analysis);
    return std::find(Ids.begin(), Ids.end(), AllocId) != Ids.end();
  }
};

// Figure 1's indirect store, figure 6's nested scopes and figure 7's
// content tags, as MiniGo programs.
const char *const Fig1Src = "type D struct { v int\n }\n"
                            "func f() {\n"
                            "  c := D{v: 1}\n"
                            "  d := D{v: 2}\n"
                            "  pd := &d\n"
                            "  ppd := &pd\n"
                            "  pc := &c\n"
                            "  *ppd = pc\n"
                            "  pd2 := *ppd\n"
                            "  sink(pd2.v)\n"
                            "}\n";
const char *const Fig6Src = "func g(n int) []int {\n"
                            "  s1 := make([]int, n)\n"
                            "  {\n"
                            "    s2 := make([]int, n)\n"
                            "    sink(s2[0])\n"
                            "  }\n"
                            "  s3 := make([]int, n)\n"
                            "  sink(s1[0] + s3[0])\n"
                            "  return s3\n"
                            "}\n";
const char *const Fig7Src = "func partialNew(ps *[]int) ([]int, []int) {\n"
                            "  pps := &ps\n"
                            "  *pps = ps\n"
                            "  made := make([]int, 3)\n"
                            "  return made, **pps\n"
                            "}\n"
                            "func caller(n int) {\n"
                            "  s := make([]int, n)\n"
                            "  fresh, old := partialNew(&s)\n"
                            "  sink(fresh[0] + old[0])\n"
                            "}\n";

/// Stores slice s into h.s through a call whose result \p Discard (`_ :=`
/// or `_ =`) drops; s then outlives its block.
std::string stashSrc(const std::string &Discard) {
  return "type H struct { s []int\n }\n"
         "func stash(h *H, s []int) int {\n"
         "  h.s = s\n"
         "  return 0\n"
         "}\n"
         "func main(n int) {\n"
         "  h := &H{}\n"
         "  {\n"
         "    s := make([]int, n)\n"
         "    s[0] = n\n"
         "    " + Discard + " stash(h, s)\n"
         "  }\n"
         "  t := make([]int, n)\n"
         "  t[0] = 7\n"
         "  sink(h.s[0])\n"
         "}\n";
}

Compiled analyze(const std::string &Src, AnalysisOptions Opts = {}) {
  DiagSink Diags;
  Compiled C;
  C.Prog = parseAndCheck(Src, Diags);
  EXPECT_NE(C.Prog, nullptr) << Diags.dump();
  if (C.Prog)
    C.Analysis = analyzeProgram(*C.Prog, Opts);
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Figure 3: stack allocation vs explicit deallocation
//===----------------------------------------------------------------------===//

TEST(EscapeTest, Fig3ConstSizeStacksVariableSizeFreed) {
  Compiled C = analyze("func analyses(n int) {\n"
                       "  s1 := make([]int, 335)\n"
                       "  sink(len(s1))\n"
                       "  for i := 1; i < n; i = i + 1 {\n"
                       "    s2 := make([]int, i)\n"
                       "    sink(len(s2))\n"
                       "  }\n"
                       "}\n");
  // make1 is constant-size and non-escaping: stack-allocated.
  EXPECT_FALSE(C.locOf("analyses", "s1").PointsToHeap);
  EXPECT_TRUE(C.siteOnStack(0));
  // make2 has variable size: heap-allocated, and explicitly freeable.
  EXPECT_FALSE(C.siteOnStack(1));
  EXPECT_TRUE(C.locOf("analyses", "s2").PointsToHeap);
  EXPECT_TRUE(C.toFree("analyses", "s2"));
  EXPECT_FALSE(C.toFree("analyses", "s1"));
}

//===----------------------------------------------------------------------===//
// Figure 1 / table 3: completeness analysis around indirect stores
//===----------------------------------------------------------------------===//

TEST(EscapeTest, Fig1IndirectStoreMakesDerivedPointerIncomplete) {
  // Modeled after fig. 1: *ppd = pc is an untracked indirect store, so
  // pd2 = *ppd has an incomplete points-to set and must not be freed.
  Compiled C = analyze(Fig1Src);
  const Location &Ppd = C.locOf("f", "ppd");
  const Location &Pc = C.locOf("f", "pc");
  const Location &Pd = C.locOf("f", "pd");
  const Location &Pd2 = C.locOf("f", "pd2");
  // ppd is the destination of the indirect store: it exposes its pointees.
  EXPECT_TRUE(Ppd.ExposesStore);
  // pc's value went into an untracked place, exposing c.
  EXPECT_TRUE(Pc.ExposesStore);
  // pc itself remains complete: all writes to pc are tracked.
  EXPECT_FALSE(Pc.incomplete());
  // pd's cell may have been overwritten through ppd: incomplete.
  EXPECT_TRUE(Pd.incomplete());
  // pd2 derives its value from pd: incomplete, never freed.
  EXPECT_TRUE(Pd2.incomplete());
  EXPECT_FALSE(Pd2.ToFree);
}

TEST(EscapeTest, Fig1PointsToSetThroughGoGraph) {
  // PointsTo(pd2) computed from the Go escape graph contains d (via the
  // tracked flow) but misses c (the indirect store), cf. table 3.
  Compiled C = analyze(Fig1Src);
  const FuncDecl *Fn = C.func("f");
  const BuildResult &B = C.Analysis.FuncGraphs.at(Fn->Index);
  auto Pts = pointsToSet(B.Graph, B.varLoc(C.var("f", "pd2")));
  bool HasD = false, HasC = false;
  for (uint32_t Id : Pts) {
    const Location &L = B.Graph.loc(Id);
    HasD |= L.name() == "d";
    HasC |= L.name() == "c";
  }
  EXPECT_TRUE(HasD);
  EXPECT_FALSE(HasC) << "Go's graph omits the indirect store";
}

TEST(EscapeTest, IndirectStoreForcesValueToHeap) {
  // The stored pointer's referent must be heap allocated (it may now be
  // reachable from anywhere).
  Compiled C = analyze("type D struct { v int\n }\n"
                       "func f(pp **D) {\n"
                       "  c := D{v: 1}\n"
                       "  *pp = &c\n"
                       "}\n"
                       "func main() {\n"
                       "  d := D{v: 0}\n"
                       "  p := &d\n"
                       "  f(&p)\n"
                       "  sink(p.v)\n"
                       "}\n");
  EXPECT_TRUE(C.locOf("f", "c").HeapAlloc);
  EXPECT_TRUE(C.var("f", "c")->MovedToHeap);
}

//===----------------------------------------------------------------------===//
// Lifetime analysis (figure 6)
//===----------------------------------------------------------------------===//

TEST(EscapeTest, Fig6NestedScopes) {
  Compiled C = analyze(Fig6Src);
  // s1 and s2 are complete and not outlived: freeable at their scope ends.
  EXPECT_TRUE(C.toFree("g", "s1"));
  EXPECT_TRUE(C.toFree("g", "s2"));
  // s3's array flows to the return value: outlived, not freeable.
  EXPECT_TRUE(C.locOf("g", "s3").Outlived);
  EXPECT_FALSE(C.toFree("g", "s3"));
}

TEST(EscapeTest, OutlivedByOuterScopeAlias) {
  // The inner slice's array is also held by an outer-scope variable, so the
  // inner pointer is outlived and must not free it.
  Compiled C = analyze("func f(n int) {\n"
                       "  var keep []int\n"
                       "  {\n"
                       "    s := make([]int, n)\n"
                       "    keep = s\n"
                       "  }\n"
                       "  sink(keep[0])\n"
                       "}\n");
  EXPECT_TRUE(C.locOf("f", "s").Outlived);
  EXPECT_FALSE(C.toFree("f", "s"));
  // The outer alias itself is complete, not outlived, and freeable.
  EXPECT_TRUE(C.toFree("f", "keep"));
}

TEST(EscapeTest, LoopDepthForcesHeap) {
  // A pointer declared outside the loop keeps an object allocated inside
  // the loop alive across iterations (definition 4.10's LoopDepth rule).
  Compiled C = analyze("type T struct { v int\n }\n"
                       "func f(n int) {\n"
                       "  var keep *T\n"
                       "  for i := 0; i < n; i = i + 1 {\n"
                       "    t := &T{v: i}\n"
                       "    keep = t\n"
                       "  }\n"
                       "  sink(keep.v)\n"
                       "}\n");
  // The allocation site of &T{} must be on the heap.
  EXPECT_FALSE(C.siteOnStack(0));
}

TEST(EscapeTest, NonEscapingLiteralStaysOnStack) {
  Compiled C = analyze("type T struct { v int\n }\n"
                       "func f() {\n"
                       "  t := &T{v: 3}\n"
                       "  sink(t.v)\n"
                       "}\n");
  EXPECT_TRUE(C.siteOnStack(0));
  EXPECT_FALSE(C.locOf("f", "t").PointsToHeap);
}

TEST(EscapeTest, ReturnedObjectIsHeap) {
  Compiled C = analyze("type T struct { v int\n }\n"
                       "func f() *T {\n"
                       "  t := &T{v: 3}\n"
                       "  return t\n"
                       "}\n");
  EXPECT_FALSE(C.siteOnStack(0));
  EXPECT_TRUE(C.locOf("f", "t").Outlived);
  EXPECT_FALSE(C.toFree("f", "t"));
}

//===----------------------------------------------------------------------===//
// Inter-procedural analysis (figure 7)
//===----------------------------------------------------------------------===//

TEST(EscapeTest, Fig7ContentTagEnablesCallerFree) {
  Compiled C = analyze(Fig7Src);
  // The callee's tag must advertise: r0 is a fresh heap object, r1 is not
  // known to be complete.
  const FuncTag &Tag = *C.Analysis.Tags.at(C.func("partialNew")->Index);
  ASSERT_EQ(Tag.RetPointsToHeap.size(), 2u);
  EXPECT_TRUE(Tag.RetPointsToHeap[0]);
  // In the caller, fresh can be freed; old (an alias of s's array seen
  // through the callee) must not be freed via `old`.
  EXPECT_TRUE(C.toFree("caller", "fresh"));
  EXPECT_FALSE(C.toFree("caller", "old"));
}

TEST(EscapeTest, CalleeIndirectStoreReachesCallerViaTag) {
  // The callee stores through its parameter; the caller's object pointed to
  // by the argument becomes incomplete.
  Compiled C = analyze("type T struct { p *int\n }\n"
                       "func poke(t *T, v *int) {\n"
                       "  t.p = v\n"
                       "}\n"
                       "func main() {\n"
                       "  x := 1\n"
                       "  t := &T{p: &x}\n"
                       "  y := 2\n"
                       "  poke(t, &y)\n"
                       "  sink(*t.p)\n"
                       "}\n");
  const FuncTag &Tag = *C.Analysis.Tags.at(C.func("poke")->Index);
  ASSERT_EQ(Tag.ParamExposes.size(), 2u);
  EXPECT_TRUE(Tag.ParamExposes[0]);
}

TEST(EscapeTest, FactoryThroughCallIsFreeable) {
  Compiled C = analyze("func produce(n int) []int {\n"
                       "  buf := make([]int, n)\n"
                       "  return buf\n"
                       "}\n"
                       "func consume(n int) {\n"
                       "  tmp := produce(n)\n"
                       "  sink(tmp[0])\n"
                       "}\n");
  // Intra-procedurally buf escapes; through the content tag the caller can
  // still free the object.
  EXPECT_FALSE(C.toFree("produce", "buf"));
  EXPECT_TRUE(C.toFree("consume", "tmp"));
}

TEST(EscapeTest, RecursiveCallUsesDefaultTag) {
  Compiled C = analyze("func rec(n int) []int {\n"
                       "  if n == 0 {\n"
                       "    return make([]int, 1)\n"
                       "  }\n"
                       "  r := rec(n - 1)\n"
                       "  return r\n"
                       "}\n"
                       "func main() {\n"
                       "  q := rec(3)\n"
                       "  sink(q[0])\n"
                       "}\n");
  // Inside the cycle the default tag applies: r comes "from the heap" and
  // is incomplete.
  EXPECT_TRUE(C.locOf("rec", "r").incomplete());
  EXPECT_FALSE(C.toFree("rec", "r"));
  // The caller outside the cycle still benefits from rec's extracted tag:
  // the result points to heap...
  EXPECT_TRUE(C.locOf("main", "q").PointsToHeap);
  // ...but the default-tag incompleteness inside rec flows into the tag,
  // so q stays unfreed (conservative and sound).
  EXPECT_FALSE(C.toFree("main", "q"));
}

TEST(EscapeTest, ReturnedParamAliasingFlowsThroughTag) {
  // identity(): a function returning its argument. The caller's points-to
  // information must flow through the tag edge.
  Compiled C = analyze("func identity(s []int) []int {\n"
                       "  return s\n"
                       "}\n"
                       "func main(n int) {\n"
                       "  a := make([]int, n)\n"
                       "  b := identity(a)\n"
                       "  sink(b[0])\n"
                       "}\n");
  const FuncTag &Tag = *C.Analysis.Tags.at(C.func("identity")->Index);
  ASSERT_EQ(Tag.Edges.size(), 1u);
  EXPECT_EQ(Tag.Edges[0].Derefs, 0);
  // The callee must not advertise a fresh heap object for its result.
  EXPECT_FALSE(Tag.RetPointsToHeap[0]);
  // Both caller names alias the same array in the same scope; freeing via
  // either is sound (tcfree tolerates the double free, section 5), and the
  // analysis keeps both complete.
  EXPECT_TRUE(C.locOf("main", "a").PointsToHeap);
  EXPECT_FALSE(C.locOf("main", "a").incomplete());
}

//===----------------------------------------------------------------------===//
// Language features (section 4.6)
//===----------------------------------------------------------------------===//

TEST(EscapeTest, AppendCreatesHeapContent) {
  Compiled C = analyze("func f(n int) {\n"
                       "  s := make([]int, 0, 4)\n"
                       "  for i := 0; i < n; i = i + 1 {\n"
                       "    s = append(s, i)\n"
                       "  }\n"
                       "  sink(s[0])\n"
                       "}\n");
  // Even though make() had constant size, appending models a possible heap
  // reallocation, so s may point to heap and is freeable.
  EXPECT_TRUE(C.locOf("f", "s").PointsToHeap);
  EXPECT_TRUE(C.toFree("f", "s"));
}

TEST(EscapeTest, AppendedPointerValueEscapes) {
  Compiled C = analyze("type T struct { v int\n }\n"
                       "func f(n int) {\n"
                       "  s := make([]*T, 0)\n"
                       "  t := &T{v: 1}\n"
                       "  s = append(s, t)\n"
                       "  sink(s[0].v)\n"
                       "}\n");
  // The appended pointer goes through an untracked store: its referent is
  // heap-allocated.
  const FuncDecl *Fn = C.func("f");
  const BuildResult &B = C.Analysis.FuncGraphs.at(Fn->Index);
  bool FoundLitOnHeap = false;
  for (const Location &L : B.Graph.locations())
    if (L.Kind == LocKind::Alloc && L.name().starts_with("lit@"))
      FoundLitOnHeap = L.HeapAlloc;
  EXPECT_TRUE(FoundLitOnHeap);
}

TEST(EscapeTest, SmallConstMapCanStack) {
  Compiled C = analyze("func f() {\n"
                       "  m := make(map[int]int, 4)\n"
                       "  m[1] = 2\n"
                       "  sink(m[1])\n"
                       "}\n");
  EXPECT_TRUE(C.siteOnStack(0));
  EXPECT_FALSE(C.toFree("f", "m"));
}

TEST(EscapeTest, LargeOrDynamicMapIsFreed) {
  Compiled C = analyze("func f(n int) {\n"
                       "  m := make(map[int]int, n)\n"
                       "  m[1] = 2\n"
                       "  sink(m[1])\n"
                       "}\n");
  EXPECT_FALSE(C.siteOnStack(0));
  EXPECT_TRUE(C.toFree("f", "m"));
}

TEST(EscapeTest, DeferBansFreeing) {
  Compiled C = analyze("func use(s []int) {\n"
                       "  sink(s[0])\n"
                       "}\n"
                       "func f(n int) {\n"
                       "  s := make([]int, n)\n"
                       "  defer use(s)\n"
                       "  sink(s[0])\n"
                       "}\n");
  EXPECT_FALSE(C.toFree("f", "s"));
}

TEST(EscapeTest, MultipleReturnValuesAnalyzedIndependently) {
  // A function that is a factory for one result but not the other
  // (section 4.6.3).
  Compiled C = analyze("func mixed(s []int, n int) ([]int, []int) {\n"
                       "  fresh := make([]int, n)\n"
                       "  return fresh, s\n"
                       "}\n"
                       "func main(n int) {\n"
                       "  a := make([]int, n)\n"
                       "  f, old := mixed(a, n)\n"
                       "  sink(f[0] + old[0])\n"
                       "}\n");
  const FuncTag &Tag = *C.Analysis.Tags.at(C.func("mixed")->Index);
  EXPECT_TRUE(Tag.RetPointsToHeap[0]);
  EXPECT_FALSE(Tag.RetPointsToHeap[1]);
  EXPECT_TRUE(C.toFree("main", "f"));
}

//===----------------------------------------------------------------------===//
// Solver mechanics
//===----------------------------------------------------------------------===//

TEST(EscapeTest, BackPropagationDisabledLosesIncompleteness) {
  const char *Src = "type D struct { v int\n }\n"
                    "func f() {\n"
                    "  c := D{v: 1}\n"
                    "  d := D{v: 2}\n"
                    "  pd := &d\n"
                    "  ppd := &pd\n"
                    "  pc := &c\n"
                    "  *ppd = pc\n"
                    "  pd2 := *ppd\n"
                    "  sink(pd2.v)\n"
                    "}\n";
  AnalysisOptions NoBack;
  NoBack.Solve.BackPropagation = false;
  Compiled C = analyze(Src, NoBack);
  // Without leaf-to-root back-propagation, pd's incompleteness never
  // reaches pd2 (the ablation the solver option exists for).
  EXPECT_TRUE(C.locOf("f", "pd").incomplete());
  EXPECT_FALSE(C.locOf("f", "pd2").incomplete());
}

TEST(EscapeTest, ParamsAreSeededIncomplete) {
  Compiled C = analyze("func f(s []int) {\n"
                       "  t := s\n"
                       "  sink(t[0])\n"
                       "}\n");
  EXPECT_TRUE(C.locOf("f", "s").IncompleteParam);
  EXPECT_TRUE(C.locOf("f", "t").IncompleteParam);
  EXPECT_FALSE(C.toFree("f", "t"));
}

TEST(EscapeTest, SolverIsIdempotent) {
  const char *Src = "func g(n int) []int {\n"
                    "  s1 := make([]int, n)\n"
                    "  s3 := make([]int, n)\n"
                    "  sink(s1[0])\n"
                    "  return s3\n"
                    "}\n";
  Compiled A = analyze(Src);
  Compiled B = analyze(Src);
  const BuildResult &Ba = A.Analysis.FuncGraphs.at(A.func("g")->Index);
  const BuildResult &Bb = B.Analysis.FuncGraphs.at(B.func("g")->Index);
  ASSERT_EQ(Ba.Graph.size(), Bb.Graph.size());
  for (uint32_t I = 0; I < Ba.Graph.size(); ++I) {
    const Location &La = Ba.Graph.loc(I);
    const Location &Lb = Bb.Graph.loc(I);
    EXPECT_EQ(La.HeapAlloc, Lb.HeapAlloc);
    EXPECT_EQ(La.incomplete(), Lb.incomplete());
    EXPECT_EQ(La.Outlived, Lb.Outlived);
    EXPECT_EQ(La.ToFree, Lb.ToFree);
  }
}

TEST(EscapeTest, PointerTargets) {
  // FreeTargets::All extends freeing to plain pointers.
  const char *Src = "type T struct { v int\n }\n"
                    "func f(n int) {\n"
                    "  t := new(T)\n"
                    "  t.v = n\n"
                    "  sink(t.v)\n"
                    "}\n";
  Compiled Default = analyze(Src);
  // new(T) with constant size that does not escape is stack allocated, so
  // even FreeTargets::All has nothing to free here.
  EXPECT_TRUE(Default.siteOnStack(0));

  const char *Escaping = "type T struct { v int\n }\n"
                         "func mk(n int) *T {\n"
                         "  t := new(T)\n"
                         "  t.v = n\n"
                         "  return t\n"
                         "}\n"
                         "func f(n int) {\n"
                         "  t := mk(n)\n"
                         "  sink(t.v)\n"
                         "}\n";
  AnalysisOptions All;
  All.Targets = FreeTargets::All;
  Compiled WithAll = analyze(Escaping, All);
  EXPECT_TRUE(WithAll.toFree("f", "t"));
  Compiled SliceMapOnly = analyze(Escaping);
  EXPECT_FALSE(SliceMapOnly.toFree("f", "t"));
}

TEST(EscapeTest, BlankInitializerStillRunsItsCall) {
  // The call stores s into h even though its result is dropped, so s
  // outlives its block and must not be freed.
  for (const char *Discard : {"_ :=", "_ ="}) {
    Compiled C = analyze(stashSrc(Discard));
    EXPECT_FALSE(C.toFree("main", "s")) << Discard;
    EXPECT_TRUE(C.toFree("main", "t")) << Discard;
  }
}

TEST(EscapeTest, ReanalysisRewritesEveryDecision) {
  // The decisions live on the AST: analyzing the program again under other
  // options overwrites every bit, true or false.
  Compiled C = analyze("type T struct { v int\n }\n"
                       "func use(t *T) int {\n  return t.v\n}\n"
                       "func f(n int) {\n"
                       "  t := &T{v: n}\n"
                       "  s := make([]int, n)\n"
                       "  sink(use(t) + s[0])\n"
                       "}\n");
  EXPECT_TRUE(C.siteOnStack(0));
  EXPECT_TRUE(C.toFree("f", "s"));
  AnalysisOptions Go; // Default tags at every call, nothing freed.
  Go.Build.UseTags = false;
  Go.Targets = FreeTargets::None;
  C.Analysis = analyzeProgram(*C.Prog, Go);
  EXPECT_FALSE(C.siteOnStack(0));
  EXPECT_FALSE(C.toFree("f", "s"));
  C.Analysis = analyzeProgram(*C.Prog);
  EXPECT_TRUE(C.siteOnStack(0));
  EXPECT_TRUE(C.toFree("f", "s"));
}

//===----------------------------------------------------------------------===//
// Recorded analysis digests
//===----------------------------------------------------------------------===//

namespace {

/// Everything the analysis decides about \p Prog, as text: the stack
/// sites; per function, each variable's moved-to-heap and tcfree bits, and
/// each location's name, attributes, solved properties and in-edges in id
/// order; and the solver's work counters.
std::string analysisText(const Program &Prog, const ProgramAnalysis &A) {
  std::string Out = "sites ";
  std::string Sites(Prog.NumAllocSites, '0');
  for (uint32_t Id : stackSiteIds(Prog, A))
    Sites[Id] = '1';
  Out += Sites + "\n";
  for (const FuncDecl *Fn : Prog.Funcs) {
    Out += "func ";
    Out += Fn->Name;
    Out += "\n";
    for (const VarDecl *V : Fn->AllVars) {
      Out += "  var ";
      Out += V->Name;
      Out += V->MovedToHeap ? " moved" : "";
      Out += V->ToFree ? " free" : "";
      Out += "\n";
    }
    const EscapeGraph &G = A.FuncGraphs.at(Fn->Index).Graph;
    for (uint32_t I = 0; I < G.size(); ++I) {
      const Location &L = G.loc(I);
      char Buf[256];
      std::snprintf(Buf, sizeof Buf,
                    " k%d d%d l%d p%d h%d es%d er%d ip%d is%d ir%d o%d ol%d "
                    "pth%d tf%d <-",
                    (int)L.Kind, L.DeclDepth, L.LoopDepth, (int)L.HasPointers,
                    (int)L.HeapAlloc, (int)L.ExposesStore, (int)L.ExposesRet,
                    (int)L.IncompleteParam, (int)L.IncompleteStore,
                    (int)L.IncompleteRet, L.OutermostRef, (int)L.Outlived,
                    (int)L.PointsToHeap, (int)L.ToFree);
      Out += "  " + L.name() + Buf;
      for (const Edge &E : G.inEdges(I))
        Out += " " + std::to_string(E.Src) + ":" + std::to_string(E.Derefs);
      Out += "\n";
    }
  }
  Out += "stats " + std::to_string(A.Stats.RootWalks) + " " +
         std::to_string(A.Stats.Relaxations) + " " +
         std::to_string(A.Stats.LeafVisits) + "\n";
  return Out;
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

} // namespace

// The digests below were recorded with the analysis that kept the AST's
// lists in std::vectors, named every location eagerly and walked with a
// std::deque per walk. Every analysis decision, every location with its
// properties and in-edges, and the solver's work counters must stay the
// same.
TEST(EscapeTest, AnalysesMatchRecordedDigests) {
  struct Recorded {
    const char *Name;
    uint64_t Digest;
  };
  static const Recorded Want[] = {
      {"subject gocompiler", 0x41a0c49f63c271ffull},
      {"subject hugo", 0x3380da696f683608ull},
      {"subject badger", 0xd73055404df4364aull},
      {"subject gojson", 0x256c8b562958ca64ull},
      {"subject scheck", 0xcaff65c42a24e47cull},
      {"subject slayout", 0x247be6397ef6716eull},
      {"fig1", 0x47a25f4697af0eeeull},
      {"fig6", 0x2e32772b690d7a1aull},
      {"fig7", 0x62c31a9f81f52467ull},
      {"synth 60x30 seed 7", 0x710f0e4f2e411bc0ull},
      {"synth 200x20 seed 3", 0x1b17b818003836c4ull},
      {"synth 600x60 seed 12345", 0x672b7095ecddac78ull},
  };

  std::vector<std::pair<std::string, std::string>> Sources;
  for (const workloads::Workload &W : workloads::subjectWorkloads())
    Sources.emplace_back("subject " + W.Name, W.Source);
  Sources.emplace_back("fig1", Fig1Src);
  Sources.emplace_back("fig6", Fig6Src);
  Sources.emplace_back("fig7", Fig7Src);
  struct Synth {
    int Funcs, Stmts;
    uint64_t Seed;
  };
  for (Synth S : {Synth{60, 30, 7}, Synth{200, 20, 3}, Synth{600, 60, 12345}}) {
    workloads::SynthOptions SO;
    SO.NumFuncs = S.Funcs;
    SO.StmtsPerFunc = S.Stmts;
    SO.Seed = S.Seed;
    Sources.emplace_back("synth " + std::to_string(S.Funcs) + "x" +
                             std::to_string(S.Stmts) + " seed " +
                             std::to_string(S.Seed),
                         workloads::synthProgram(SO));
  }

  std::ostringstream Got;
  for (const auto &[Name, Src] : Sources) {
    Compiled C = analyze(Src);
    ASSERT_NE(C.Prog, nullptr) << Name;
    Got << "      {\"" << Name << "\", 0x" << std::hex
        << fnv1a(analysisText(*C.Prog, C.Analysis)) << std::dec << "ull},\n";
  }
  std::ostringstream Expected;
  for (const Recorded &R : Want)
    Expected << "      {\"" << R.Name << "\", 0x" << std::hex << R.Digest
             << std::dec << "ull},\n";
  EXPECT_EQ(Got.str(), Expected.str());
}
