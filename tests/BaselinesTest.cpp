//===- tests/BaselinesTest.cpp - Baseline analysis tests ------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Pins down table 3: for the figure 1 program, the three analyses see
// different points-to sets for pd2:
//   Fast Escape Analysis:   {}            (O(N), no points-to at all)
//   Go escape graph:        {d}           (O(N^2), indirect store omitted)
//   Connection graph:       {c, d}        (O(N^3), complete)
//
//===----------------------------------------------------------------------===//

#include "escape/Analysis.h"
#include "escape/Baselines.h"
#include "escape/Diagnostics.h"
#include "minigo/Frontend.h"

#include <gtest/gtest.h>

using namespace gofree;
using namespace gofree::escape;
using namespace gofree::minigo;

namespace {

const char *Fig1Src = "type D struct { v int\n }\n"
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

std::unique_ptr<Program> parse(const char *Src) {
  DiagSink Diags;
  auto P = parseAndCheck(Src, Diags);
  EXPECT_NE(P, nullptr) << Diags.dump();
  return P;
}

const VarDecl *findVar(const FuncDecl *Fn, const std::string &Name) {
  for (const VarDecl *V : Fn->AllVars)
    if (V->Name == Name)
      return V;
  ADD_FAILURE() << "no var " << Name;
  return nullptr;
}

bool containsName(const std::vector<std::string> &Names,
                  const std::string &Needle) {
  for (const std::string &N : Names)
    if (N == Needle)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Table 3
//===----------------------------------------------------------------------===//

TEST(Table3Test, FastAnalysisHasNoPointsToForDerivedPointer) {
  auto P = parse(Fig1Src);
  FastEscapeResult R = fastEscape(*P);
  const VarDecl *Pd2 = findVar(P->Funcs[0], "pd2");
  EXPECT_TRUE(R.pointsToNames(Pd2).empty());
}

TEST(Table3Test, ConnectionGraphSeesBothTargets) {
  auto P = parse(Fig1Src);
  ConnGraphAnalysis CG(P->Funcs[0]);
  const VarDecl *Pd2 = findVar(P->Funcs[0], "pd2");
  auto Pts = CG.pointsToNames(Pd2);
  EXPECT_TRUE(containsName(Pts, "c")) << "connection graph must track the "
                                         "indirect store";
  EXPECT_TRUE(containsName(Pts, "d"));
}

TEST(Table3Test, GoGraphSeesOnlyTrackedTarget) {
  auto P = parse(Fig1Src);
  ProgramAnalysis A = analyzeProgram(*P);
  const FuncDecl *Fn = P->Funcs[0];
  const BuildResult &B = A.FuncGraphs.at(Fn->Index);
  auto Pts = pointsToSet(B.Graph, B.varLoc(findVar(Fn, "pd2")));
  bool HasC = false, HasD = false;
  for (uint32_t Id : Pts) {
    HasC |= B.Graph.loc(Id).name() == "c";
    HasD |= B.Graph.loc(Id).name() == "d";
  }
  EXPECT_FALSE(HasC);
  EXPECT_TRUE(HasD);
}

//===----------------------------------------------------------------------===//
// Fast escape analysis behavior
//===----------------------------------------------------------------------===//

TEST(FastEscapeTest, LocalConstAllocStays) {
  auto P = parse("func f() {\n"
                 "  s := make([]int, 8)\n"
                 "  s[0] = 1\n"
                 "  sink(s[0])\n"
                 "}\n");
  FastEscapeResult R = fastEscape(*P);
  ASSERT_EQ(R.SiteOnStack.size(), 1u);
  EXPECT_TRUE(R.SiteOnStack[0]);
}

TEST(FastEscapeTest, ReturnedAllocEscapes) {
  auto P = parse("func f() []int {\n"
                 "  s := make([]int, 8)\n"
                 "  return s\n"
                 "}\n");
  FastEscapeResult R = fastEscape(*P);
  EXPECT_FALSE(R.SiteOnStack[0]);
}

TEST(FastEscapeTest, CopyPropagatesEscape) {
  // Fast analysis does not distinguish objects: t escaping drags s (and
  // the allocation bound to it) along.
  auto P = parse("func g(x []int) {\n  sink(x[0])\n}\n"
                 "func f() {\n"
                 "  s := make([]int, 8)\n"
                 "  t := s\n"
                 "  g(t)\n"
                 "}\n");
  FastEscapeResult R = fastEscape(*P);
  const FuncDecl *F = P->findFunc("f");
  EXPECT_TRUE(R.Escaping.count(findVar(F, "s")));
  EXPECT_TRUE(R.Escaping.count(findVar(F, "t")));
  EXPECT_FALSE(R.SiteOnStack[0]);
}

TEST(FastEscapeTest, VariableSizeNeverStacks) {
  auto P = parse("func f(n int) {\n"
                 "  s := make([]int, n)\n"
                 "  sink(s[0])\n"
                 "}\n");
  FastEscapeResult R = fastEscape(*P);
  EXPECT_FALSE(R.SiteOnStack[0]);
}

TEST(FastEscapeTest, MorePessimisticThanGoGraph) {
  // The aliasing example: Go's graph keeps the allocation on the stack
  // (both aliases are local), while the fast analysis gives up the moment
  // the reference is copied into a call.
  const char *Src = "func use(s []int) int {\n  return len(s)\n}\n"
                    "func f() {\n"
                    "  s := make([]int, 8)\n"
                    "  sink(use(s))\n"
                    "}\n";
  auto P = parse(Src);
  FastEscapeResult Fast = fastEscape(*P);
  EXPECT_FALSE(Fast.SiteOnStack[0]);
  auto P2 = parse(Src);
  ProgramAnalysis Go = analyzeProgram(*P2);
  // With the extended tags, Go/GoFree knows `use` leaks nothing.
  EXPECT_EQ(stackSiteIds(*P2, Go), std::vector<uint32_t>{0});
}

//===----------------------------------------------------------------------===//
// Connection graph behavior
//===----------------------------------------------------------------------===//

TEST(ConnGraphTest, DirectChains) {
  auto P = parse("type T struct { v int\n }\n"
                 "func f() {\n"
                 "  a := T{v: 1}\n"
                 "  p := &a\n"
                 "  q := p\n"
                 "  sink(q.v)\n"
                 "}\n");
  ConnGraphAnalysis CG(P->Funcs[0]);
  auto Pts = CG.pointsToNames(findVar(P->Funcs[0], "q"));
  EXPECT_TRUE(containsName(Pts, "a"));
  EXPECT_EQ(Pts.size(), 1u);
}

TEST(ConnGraphTest, StoreThenLoadRoundTrips) {
  auto P = parse("type T struct { p *int\n }\n"
                 "func f() {\n"
                 "  x := 1\n"
                 "  t := &T{p: nil}\n"
                 "  t.p = &x\n"
                 "  q := t.p\n"
                 "  sink(*q)\n"
                 "}\n");
  ConnGraphAnalysis CG(P->Funcs[0]);
  auto Pts = CG.pointsToNames(findVar(P->Funcs[0], "q"));
  EXPECT_TRUE(containsName(Pts, "x"));
}

TEST(ConnGraphTest, CallResultsAreWildcards) {
  auto P = parse("func mk() []int {\n  return make([]int, 3)\n}\n"
                 "func f() {\n"
                 "  s := mk()\n"
                 "  sink(s[0])\n"
                 "}\n");
  ConnGraphAnalysis CG(P->findFunc("f"));
  auto Pts = CG.pointsToNames(findVar(P->findFunc("f"), "s"));
  EXPECT_TRUE(containsName(Pts, "heap"));
}

TEST(ConnGraphTest, CountsWorkForComplexityComparison) {
  auto P = parse(Fig1Src);
  ConnGraphAnalysis CG(P->Funcs[0]);
  EXPECT_GT(CG.constraintApplications(), 0u);
  EXPECT_GT(CG.nodeCount(), 5u);
}
