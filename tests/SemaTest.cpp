//===- tests/SemaTest.cpp - Unit tests for MiniGo semantic analysis -------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "minigo/Frontend.h"

#include <gtest/gtest.h>

using namespace gofree;
using namespace gofree::minigo;

namespace {

std::unique_ptr<Program> check(const std::string &Src) {
  DiagSink Diags;
  auto Prog = parseAndCheck(Src, Diags);
  EXPECT_NE(Prog, nullptr) << Diags.dump();
  return Prog;
}

void checkFails(const std::string &Src, const std::string &NeedleInError) {
  DiagSink Diags;
  auto Prog = parseAndCheck(Src, Diags);
  EXPECT_EQ(Prog, nullptr) << "expected an error containing '"
                           << NeedleInError << "'";
  EXPECT_NE(Diags.dump().find(NeedleInError), std::string::npos)
      << "got instead: " << Diags.dump();
}

} // namespace

TEST(SemaTest, InfersTypesFromInitializers) {
  auto Prog = check("func main() {\n"
                    "  x := 3\n"
                    "  b := true\n"
                    "  s := make([]int, 4)\n"
                    "  p := &x\n"
                    "  sink(x)\n  sink(len(s))\n  sink(*p)\n"
                    "  if b { sink(1) }\n"
                    "}\n");
  FuncDecl *F = Prog->Funcs[0];
  ASSERT_EQ(F->AllVars.size(), 4u);
  EXPECT_TRUE(F->AllVars[0]->Ty->isInt());
  EXPECT_TRUE(F->AllVars[1]->Ty->isBool());
  EXPECT_TRUE(F->AllVars[2]->Ty->isSlice());
  EXPECT_TRUE(F->AllVars[3]->Ty->isPointer());
}

TEST(SemaTest, ScopeAndLoopDepthsAreRecorded) {
  auto Prog = check("func main() {\n"
                    "  a := 1\n"
                    "  {\n"
                    "    b := 2\n"
                    "    sink(b)\n"
                    "  }\n"
                    "  for i := 0; i < 3; i = i + 1 {\n"
                    "    c := i\n"
                    "    for j := 0; j < 3; j = j + 1 {\n"
                    "      d := j\n"
                    "      sink(c + d)\n"
                    "    }\n"
                    "  }\n"
                    "  sink(a)\n"
                    "}\n");
  FuncDecl *F = Prog->Funcs[0];
  auto FindVar = [&](const std::string &Name) -> VarDecl * {
    for (VarDecl *V : F->AllVars)
      if (V->Name == Name)
        return V;
    return nullptr;
  };
  VarDecl *A = FindVar("a"), *B = FindVar("b"), *C = FindVar("c");
  VarDecl *D = FindVar("d"), *I = FindVar("i"), *J = FindVar("j");
  ASSERT_TRUE(A && B && C && D && I && J);
  EXPECT_EQ(A->ScopeDepth, 1);
  EXPECT_EQ(A->LoopDepth, 0);
  EXPECT_EQ(B->ScopeDepth, 2);
  // `i` is declared in the for header scope, outside the loop body.
  EXPECT_EQ(I->ScopeDepth, 2);
  EXPECT_EQ(I->LoopDepth, 0);
  EXPECT_EQ(C->ScopeDepth, 3);
  EXPECT_EQ(C->LoopDepth, 1);
  EXPECT_EQ(J->LoopDepth, 1);
  EXPECT_EQ(D->LoopDepth, 2);
  EXPECT_GT(D->ScopeDepth, C->ScopeDepth);
}

TEST(SemaTest, FrameLayoutAssignsDisjointSlots) {
  auto Prog = check("type Pair struct { a int\n b int\n }\n"
                    "func main() {\n"
                    "  x := 1\n"
                    "  s := make([]int, 2)\n"
                    "  p := Pair{a: 1, b: 2}\n"
                    "  sink(x + s[0] + p.a)\n"
                    "}\n");
  FuncDecl *F = Prog->Funcs[0];
  ASSERT_EQ(F->AllVars.size(), 3u);
  EXPECT_EQ(F->AllVars[0]->FrameOffset, 0u);
  EXPECT_EQ(F->AllVars[1]->FrameOffset, 8u);   // x is 8 bytes.
  EXPECT_EQ(F->AllVars[2]->FrameOffset, 32u);  // slice header is 24 bytes.
  EXPECT_EQ(F->FrameSize, 48u);                // struct Pair is 16 bytes.
}

TEST(SemaTest, AllocationSitesAreNumberedDensely) {
  auto Prog = check("type T struct { v int\n }\n"
                    "func main() {\n"
                    "  a := make([]int, 3)\n"
                    "  b := new(T)\n"
                    "  c := &T{v: 1}\n"
                    "  a = append(a, 4)\n"
                    "  m := make(map[int]int)\n"
                    "  sink(len(a) + b.v + c.v + len(m))\n"
                    "}\n");
  EXPECT_EQ(Prog->NumAllocSites, 5u);
}

TEST(SemaTest, ConstantSizeDetection) {
  auto Prog = check("func main() {\n"
                    "  a := make([]int, 335)\n"
                    "  n := 7\n"
                    "  b := make([]int, n)\n"
                    "  c := make([]int, 2*8+1)\n"
                    "  sink(len(a) + len(b) + len(c))\n"
                    "}\n");
  auto *Body = Prog->Funcs[0]->Body;
  auto *MA = cast<MakeExpr>(cast<VarDeclStmt>(Body->Stmts[0])->Inits[0]);
  auto *MB = cast<MakeExpr>(cast<VarDeclStmt>(Body->Stmts[2])->Inits[0]);
  auto *MC = cast<MakeExpr>(cast<VarDeclStmt>(Body->Stmts[3])->Inits[0]);
  EXPECT_TRUE(MA->SizeIsConst);
  EXPECT_EQ(MA->ConstSize, 335);
  EXPECT_FALSE(MB->SizeIsConst);
  EXPECT_TRUE(MC->SizeIsConst);
  EXPECT_EQ(MC->ConstSize, 17);
}

TEST(SemaTest, MultiValueCallInference) {
  auto Prog = check("func two() (int, []int) {\n"
                    "  return 1, make([]int, 2)\n"
                    "}\n"
                    "func main() {\n"
                    "  n, s := two()\n"
                    "  sink(n + len(s))\n"
                    "}\n");
  FuncDecl *Main = Prog->Funcs[1];
  EXPECT_TRUE(Main->AllVars[0]->Ty->isInt());
  EXPECT_TRUE(Main->AllVars[1]->Ty->isSlice());
}

TEST(SemaTest, BlankIdentifierDiscards) {
  check("func two() (int, int) { return 1, 2 }\n"
        "func main() {\n"
        "  a, b := two()\n"
        "  a, _ = two()\n"
        "  sink(a + b)\n"
        "}\n");
}

TEST(SemaTest, UndefinedVariable) {
  checkFails("func main() {\n  sink(q)\n}\n", "undefined variable 'q'");
}

TEST(SemaTest, RedeclaredVariable) {
  checkFails("func main() {\n  x := 1\n  x := 2\n  sink(x)\n}\n",
             "redeclared");
}

TEST(SemaTest, ShadowingInInnerScopeIsAllowed) {
  check("func main() {\n"
        "  x := 1\n"
        "  {\n    x := 2\n    sink(x)\n  }\n"
        "  sink(x)\n"
        "}\n");
}

TEST(SemaTest, UndefinedFunction) {
  checkFails("func main() {\n  nope()\n}\n", "undefined function");
}

TEST(SemaTest, WrongArgumentCount) {
  checkFails("func f(a int) {\n  sink(a)\n}\nfunc main() {\n  f(1, 2)\n}\n",
             "wrong number of arguments");
}

TEST(SemaTest, TypeMismatchInAssignment) {
  checkFails("func main() {\n  x := 1\n  x = true\n}\n", "cannot use value");
}

TEST(SemaTest, DerefOfNonPointer) {
  checkFails("func main() {\n  x := 1\n  sink(*x)\n}\n", "cannot dereference");
}

TEST(SemaTest, ReturnArityChecked) {
  checkFails("func f() (int, int) {\n  return 1\n}\n",
             "wrong number of return values");
}

TEST(SemaTest, BreakOutsideLoop) {
  checkFails("func main() {\n  break\n}\n", "outside loop");
}

TEST(SemaTest, UnknownField) {
  checkFails("type T struct { v int\n }\n"
             "func main() {\n  t := T{v: 1}\n  sink(t.w)\n}\n",
             "no field 'w'");
}

TEST(SemaTest, MapOperations) {
  check("func main() {\n"
        "  m := make(map[int]int, 8)\n"
        "  m[1] = 10\n"
        "  v := m[1]\n"
        "  delete(m, 1)\n"
        "  sink(v + len(m))\n"
        "}\n");
}

TEST(SemaTest, AddrOfRvalueRejected) {
  checkFails("func main() {\n  p := &(1 + 2)\n  sink(*p)\n}\n",
             "cannot take the address");
}

// Go's rule: a map element is assignable as a whole but not addressable,
// so neither a field of it nor its address can be the target of a store.
const char *const MapOfStructs = "type T struct { a int\n s []int\n }\n"
                                 "func main() {\n"
                                 "  m := make(map[int]T)\n";

TEST(SemaTest, FieldOfMapElementNotAssignable) {
  for (const char *Stmt : {"  m[1].a = 9\n", "  m[1].a++\n",
                           "  m[1].a += 2\n", "  m[1].a--\n"})
    checkFails(std::string(MapOfStructs) + Stmt + "  sink(m[1].a)\n}\n",
               "cannot assign to a field of a map element");
}

TEST(SemaTest, AddrOfMapElementRejected) {
  checkFails(std::string(MapOfStructs) + "  p := &m[1]\n  sink(p.a)\n}\n",
             "cannot take the address of a map element");
  checkFails(std::string(MapOfStructs) + "  p := &m[1].a\n  sink(*p)\n}\n",
             "cannot take the address of a map element");
}

TEST(SemaTest, MapElementStoredWhole) {
  check(std::string(MapOfStructs) +
        "  m[1] = T{a: 9}\n  sink(m[1].a)\n}\n");
}

TEST(SemaTest, SliceElementOfMapElementFieldAssignable) {
  // m[1].s is a slice value; its elements live in the backing array.
  check(std::string(MapOfStructs) +
        "  m[1] = T{s: make([]int, 2)}\n"
        "  m[1].s[0] = 7\n"
        "  sink(m[1].s[0])\n}\n");
}

TEST(SemaTest, AppendElementTypeChecked) {
  checkFails("func main() {\n"
             "  s := make([]int, 0)\n"
             "  s = append(s, true)\n"
             "}\n",
             "cannot use value");
}

TEST(SemaTest, RangeOverMapRejected) {
  checkFails("func main() {\n"
             "  m := make(map[int]int)\n"
             "  for k := range m {\n"
             "    sink(k)\n"
             "  }\n"
             "}\n",
             "cannot range over map[int]int");
}

TEST(SemaTest, RangeOverIntRejected) {
  checkFails("func main() {\n"
             "  for i := range 10 {\n"
             "    sink(i)\n"
             "  }\n"
             "}\n",
             "cannot range over int");
}

TEST(SemaTest, SwitchOnSliceAgainstNilIsLegal) {
  // Like Go: a slice tag may be compared against the nil literal...
  check("func main() {\n"
        "  s := make([]int, 2)\n"
        "  switch s {\n"
        "  case nil:\n"
        "    sink(1)\n"
        "  default:\n"
        "    sink(2)\n"
        "  }\n"
        "  sink(s[0])\n"
        "}\n");
}

TEST(SemaTest, SwitchSliceAgainstSliceRejected) {
  // ...but never against another slice.
  checkFails("func main() {\n"
             "  s := make([]int, 2)\n"
             "  t := make([]int, 2)\n"
             "  switch s {\n"
             "  case t:\n"
             "    sink(1)\n"
             "  }\n"
             "  sink(s[0] + t[0])\n"
             "}\n",
             "compared to nil");
}
