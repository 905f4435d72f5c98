//===- tests/GraphShapeTest.cpp - Escape graph construction tests ---------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Pins the escape graph's shape against table 2 and figure 1: which edges
// each assignment form generates and with what Derefs weights, plus the
// derived Holds/TrackDerefs machinery (definitions 4.6-4.9).
//
//===----------------------------------------------------------------------===//

#include "escape/GraphBuilder.h"
#include "escape/Solver.h"
#include "minigo/Frontend.h"

#include <gtest/gtest.h>

using namespace gofree;
using namespace gofree::escape;
using namespace gofree::minigo;

namespace {

struct Built {
  std::unique_ptr<Program> Prog;
  BuildResult Build;

  uint32_t loc(const std::string &Name) const {
    for (const Location &L : Build.Graph.locations())
      if (L.name() == Name)
        return L.Id;
    ADD_FAILURE() << "no location " << Name;
    return 0;
  }

  bool hasEdge(const std::string &Src, const std::string &Dst, int Derefs) {
    uint32_t S = loc(Src), D = loc(Dst);
    for (const Edge &E : Build.Graph.inEdges(D))
      if (E.Src == S && E.Derefs == Derefs)
        return true;
    return false;
  }

  /// MinDerefs(M, L) via the solver's walk; NotHeld if M not in Holds(L).
  int minDerefs(const std::string &M, const std::string &L) {
    WalkBuffers W;
    minDerefsFrom(Build.Graph, loc(L), W);
    return W.Dist[loc(M)];
  }
};

Built buildFor(const std::string &Src, const std::string &Fn = "f") {
  DiagSink Diags;
  Built B;
  B.Prog = parseAndCheck(Src, Diags);
  EXPECT_NE(B.Prog, nullptr) << Diags.dump();
  TagMap NoTags;
  B.Build = buildEscapeGraph(B.Prog->findFunc(Fn), NoTags);
  return B;
}

} // namespace

TEST(GraphShapeTest, Table2EdgeForms) {
  // The four rows of table 2, one assignment each.
  Built B = buildFor("func f(n int) {\n"
                     "  x := 1\n"
                     "  p := &x\n"  // p = &q  =>  q --(-1)--> p
                     "  q := p\n"   // p = q   =>  q --0--> p
                     "  v := *q\n"  // p = *q  =>  q --1--> p
                     "  pp := &p\n"
                     "  *pp = q\n"  // *p = q  =>  q --0--> heapLoc
                     "  sink(v)\n"
                     "}\n");
  EXPECT_TRUE(B.hasEdge("x", "p", -1));
  EXPECT_TRUE(B.hasEdge("p", "q", 0));
  EXPECT_TRUE(B.hasEdge("q", "v", 1));
  EXPECT_TRUE(B.hasEdge("q", "heapLoc", 0));
  // The indirect store generates no direct pp-to-q edge (the whole point
  // of the O(N^2) simplification).
  EXPECT_FALSE(B.hasEdge("q", "pp", 0));
}

TEST(GraphShapeTest, Fig1StyleGraph) {
  Built B = buildFor("type D struct { v int\n }\n"
                     "func f() {\n"
                     "  c := D{v: 1}\n"
                     "  d := D{v: 2}\n"
                     "  pd := &d\n"
                     "  ppd := &pd\n"
                     "  pc := &c\n"
                     "  *ppd = pc\n"
                     "  pd2 := *ppd\n"
                     "  sink(pd2.v)\n"
                     "}\n");
  EXPECT_TRUE(B.hasEdge("d", "pd", -1));
  EXPECT_TRUE(B.hasEdge("pd", "ppd", -1));
  EXPECT_TRUE(B.hasEdge("c", "pc", -1));
  EXPECT_TRUE(B.hasEdge("pc", "heapLoc", 0));
  EXPECT_TRUE(B.hasEdge("ppd", "pd2", 1));

  // TrackDerefs clamps at 0 before each addition (definition 4.7):
  // d -(-1)-> pd -(-1)-> ppd -(1)-> pd2 gives max(0, max(0,1)-1)-1 = -1.
  EXPECT_EQ(B.minDerefs("d", "pd2"), -1) << "pd2 may point to d";
  EXPECT_EQ(B.minDerefs("pd", "pd2"), 0) << "pd2 may hold pd's value";
  // c only flows into heapLoc, never into pd2's holds set.
  EXPECT_EQ(B.minDerefs("c", "pd2"), NotHeld);
  EXPECT_EQ(B.minDerefs("c", "heapLoc"), -1) << "c's address escapes";
}

TEST(GraphShapeTest, CompositeLiteralsFollowFig1) {
  // bigObj := Big{fat: s, p: &c}: a by-value literal merges its
  // initializers' flows into the destination (value role for s, address
  // role for c), exactly like fig. 1's bigObj node.
  Built B = buildFor("type Big struct { fat int\n p *int\n }\n"
                     "func f(s int) {\n"
                     "  c := 1\n"
                     "  bigObj := Big{fat: s, p: &c}\n"
                     "  sink(bigObj.fat)\n"
                     "}\n");
  EXPECT_TRUE(B.hasEdge("s", "bigObj", 0));
  EXPECT_TRUE(B.hasEdge("c", "bigObj", -1));
  EXPECT_EQ(B.minDerefs("c", "bigObj"), -1);
}

TEST(GraphShapeTest, MakeCreatesAllocPointedToByVar) {
  Built B = buildFor("func f(n int) {\n"
                     "  s := make([]int, n)\n"
                     "  sink(s[0])\n"
                     "}\n");
  // The allocation location flows into s at derefs -1: s points to it.
  WalkBuffers W;
  minDerefsFrom(B.Build.Graph, B.loc("s"), W);
  bool Found = false;
  for (const Location &L : B.Build.Graph.locations())
    if (L.Kind == LocKind::Alloc && W.Dist[L.Id] == -1)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(GraphShapeTest, ReturnValuesGetDummyLocations) {
  Built B = buildFor("func f(n int) ([]int, int) {\n"
                     "  s := make([]int, n)\n"
                     "  return s, n\n"
                     "}\n");
  ASSERT_EQ(B.Build.Graph.RetLocs.size(), 2u);
  const Location &R0 = B.Build.Graph.loc(B.Build.Graph.RetLocs[0]);
  EXPECT_TRUE(R0.HeapAlloc) << "definition 4.10: return is heap";
  EXPECT_TRUE(R0.ExposesRet) << "definition 4.11: return exposes";
  EXPECT_EQ(R0.DeclDepth, -1);
  EXPECT_TRUE(B.hasEdge("s", "ret0", 0));
}

TEST(GraphShapeTest, GraphSizeIsLinearInProgramSize) {
  // |L| and |E| are O(N) (section 4.1): doubling the statement count must
  // roughly double locations and edges, never square them.
  auto SizeOf = [](int Copies) {
    std::string Src = "func f(n int) {\n  a0 := make([]int, n)\n";
    for (int I = 1; I <= Copies; ++I)
      Src += "  a" + std::to_string(I) + " := a" + std::to_string(I - 1) +
             "\n";
    Src += "  sink(a" + std::to_string(Copies) + "[0])\n}\n";
    DiagSink Diags;
    auto Prog = parseAndCheck(Src, Diags);
    TagMap NoTags;
    BuildResult B = buildEscapeGraph(Prog->findFunc("f"), NoTags);
    return std::make_pair(B.Graph.size(), B.Graph.edgeCount());
  };
  auto [L1, E1] = SizeOf(100);
  auto [L2, E2] = SizeOf(200);
  EXPECT_LT(L2, 2 * L1 + 10);
  EXPECT_LT(E2, 2 * E1 + 10);
}

TEST(GraphShapeTest, SelfEdgesAreDropped) {
  Built B = buildFor("func f(n int) {\n"
                     "  s := make([]int, 0)\n"
                     "  s = append(s, n)\n"
                     "  sink(s[0])\n"
                     "}\n");
  uint32_t S = B.loc("s");
  for (const Edge &E : B.Build.Graph.inEdges(S))
    EXPECT_NE(E.Src, S) << "self-edge from s = append(s, ...)";
}
