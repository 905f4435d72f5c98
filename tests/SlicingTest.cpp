//===- tests/SlicingTest.cpp - s[lo:hi] and copy() tests ------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Slice expressions and copy() interact with everything GoFree cares
// about: sub-slices alias the backing array (so freeing through one must
// be blocked when another lives longer), interior data pointers must keep
// whole arrays alive in the GC, and copy() of pointer elements is an
// untracked indirect store.
//
//===----------------------------------------------------------------------===//

#include "compiler/Pipeline.h"
#include "escape/Analysis.h"
#include "minigo/Frontend.h"

#include <gtest/gtest.h>

using namespace gofree;
using namespace gofree::compiler;

namespace {

uint64_t runChecksum(const std::string &Src, CompileMode Mode,
                     const std::vector<int64_t> &Args = {}) {
  CompileOptions CO;
  CO.Mode = Mode;
  Compilation C = compile(Src, CO);
  EXPECT_TRUE(C.ok()) << C.Errors;
  ExecOutcome O = execute(C, "main", Args);
  EXPECT_TRUE(O.Run.ok()) << O.Run.Error;
  return O.Run.Checksum;
}

uint64_t checksum(const std::string &Src,
                  const std::vector<int64_t> &Args = {}) {
  uint64_t Go = runChecksum(Src, CompileMode::Go, Args);
  uint64_t Free = runChecksum(Src, CompileMode::GoFree, Args);
  EXPECT_EQ(Go, Free) << "mode divergence";
  return Free;
}

} // namespace

TEST(SlicingTest, BasicSubslice) {
  EXPECT_EQ(checksum("func main() {\n"
                     "  s := make([]int, 10)\n"
                     "  for i := 0; i < 10; i = i + 1 { s[i] = i }\n"
                     "  t := s[2:5]\n"
                     "  sink(len(t))\n"
                     "  sink(t[0] + t[2])\n"
                     "  sink(cap(t))\n"
                     "}\n"),
            checksum("func main() {\n  sink(3)\n  sink(6)\n  sink(8)\n}\n"));
}

TEST(SlicingTest, DefaultBounds) {
  EXPECT_EQ(checksum("func main() {\n"
                     "  s := make([]int, 6)\n"
                     "  s[5] = 9\n"
                     "  a := s[:3]\n"
                     "  b := s[3:]\n"
                     "  c := s[:]\n"
                     "  sink(len(a) + len(b)*10 + len(c)*100)\n"
                     "  sink(b[2])\n"
                     "}\n"),
            checksum("func main() {\n  sink(633)\n  sink(9)\n}\n"));
}

TEST(SlicingTest, SubsliceSharesBackingArray) {
  EXPECT_EQ(checksum("func main() {\n"
                     "  s := make([]int, 8)\n"
                     "  t := s[2:6]\n"
                     "  t[0] = 42\n"
                     "  sink(s[2])\n" // Writes through t are visible in s.
                     "}\n"),
            checksum("func main() {\n  sink(42)\n}\n"));
}

TEST(SlicingTest, BoundsChecked) {
  CompileOptions CO;
  Compilation C = compile("func main() {\n"
                          "  s := make([]int, 4)\n"
                          "  x := 6\n"
                          "  t := s[2:x]\n"
                          "  sink(len(t))\n"
                          "}\n",
                          CO);
  ASSERT_TRUE(C.ok());
  ExecOutcome O = execute(C, "main");
  EXPECT_NE(O.Run.Error.find("slice bounds"), std::string::npos);
}

TEST(SlicingTest, SlicingUpToCapIsLegal) {
  EXPECT_EQ(checksum("func main() {\n"
                     "  s := make([]int, 2, 8)\n"
                     "  t := s[:8]\n" // Go allows extending up to cap.
                     "  t[7] = 5\n"
                     "  sink(len(t) + t[7])\n"
                     "}\n"),
            checksum("func main() {\n  sink(13)\n}\n"));
}

TEST(SlicingTest, CopyBasics) {
  EXPECT_EQ(checksum("func main() {\n"
                     "  src := make([]int, 5)\n"
                     "  for i := 0; i < 5; i = i + 1 { src[i] = i * 3 }\n"
                     "  dst := make([]int, 3)\n"
                     "  n := copy(dst, src)\n" // min(3, 5) = 3
                     "  sink(n)\n"
                     "  sink(dst[0] + dst[1] + dst[2])\n"
                     "}\n"),
            checksum("func main() {\n  sink(3)\n  sink(9)\n}\n"));
}

TEST(SlicingTest, CopyWithOverlap) {
  // memmove semantics: shifting within one array must be safe.
  EXPECT_EQ(checksum("func main() {\n"
                     "  s := make([]int, 6)\n"
                     "  for i := 0; i < 6; i = i + 1 { s[i] = i }\n"
                     "  n := copy(s[1:], s[:5])\n"
                     "  sink(n)\n"
                     "  sink(s[1]*1 + s[2]*10 + s[5]*100)\n" // 0,1,...,4
                     "}\n"),
            checksum("func main() {\n  sink(5)\n  sink(410)\n}\n"));
}

TEST(SlicingTest, InteriorPointerKeepsArrayAliveUnderGc) {
  // Only the sub-slice survives the scope; its interior data pointer must
  // keep the whole backing array alive through aggressive GC. Stock-Go
  // mode keeps the churn unfreed so collections actually fire.
  CompileOptions CO;
  CO.Mode = CompileMode::Go;
  Compilation C = compile("func window(n int) []int {\n"
                          "  s := make([]int, n)\n"
                          "  for i := 0; i < n; i = i + 1 { s[i] = i }\n"
                          "  return s[n/2 : n/2+3]\n"
                          "}\n"
                          "func main(n int) {\n"
                          "  w := window(n)\n"
                          "  churn := 0\n"
                          "  for i := 0; i < 2000; i = i + 1 {\n"
                          "    tmp := make([]int, i%50 + 10)\n"
                          "    tmp[0] = i\n"
                          "    churn = churn + tmp[0]\n"
                          "  }\n"
                          "  sink(w[0] + w[1] + w[2] + churn%7)\n"
                          "}\n",
                          CO);
  ASSERT_TRUE(C.ok());
  ExecOptions Tight;
  Tight.Heap.Gc.MinHeapTrigger = 16 * 1024;
  ExecOutcome O = execute(C, "main", {100}, Tight);
  ASSERT_TRUE(O.Run.ok()) << O.Run.Error;
  EXPECT_GT(O.Stats.GcCycles, 0u);
  // 50 + 51 + 52 = 153, plus churn%7.
  ExecOutcome Ref = execute(C, "main", {100});
  EXPECT_EQ(O.Run.Checksum, Ref.Run.Checksum);
}

//===----------------------------------------------------------------------===//
// Escape-analysis interactions
//===----------------------------------------------------------------------===//

TEST(SlicingEscapeTest, SubsliceAliasBlocksFreeAcrossScopes) {
  DiagSink Diags;
  auto Prog = minigo::parseAndCheck("func f(n int) {\n"
                                    "  var keep []int\n"
                                    "  {\n"
                                    "    s := make([]int, n)\n"
                                    "    keep = s[1:3]\n"
                                    "  }\n"
                                    "  sink(keep[0])\n"
                                    "}\n",
                                    Diags);
  ASSERT_NE(Prog, nullptr) << Diags.dump();
  escape::ProgramAnalysis A = escape::analyzeProgram(*Prog);
  const minigo::FuncDecl *Fn = Prog->findFunc("f");
  const minigo::VarDecl *S = nullptr;
  for (const minigo::VarDecl *V : Fn->AllVars)
    if (V->Name == "s")
      S = V;
  ASSERT_NE(S, nullptr);
  EXPECT_FALSE(S->ToFree)
      << "the sub-slice alias outlives s's scope";
}

TEST(SlicingEscapeTest, LocalSubsliceStillFreeable) {
  Compilation C = compile("func f(n int) {\n"
                          "  s := make([]int, n)\n"
                          "  t := s[0 : n/2]\n"
                          "  t[0] = 1\n"
                          "  sink(t[0] + s[0])\n"
                          "}\n"
                          "func main(n int) {\n  f(n)\n}\n",
                          {});
  ASSERT_TRUE(C.ok());
  EXPECT_GE(C.Instr.SliceFrees, 1u);
  ExecOutcome O = execute(C, "main", {50});
  ASSERT_TRUE(O.Run.ok());
  EXPECT_GT(O.Stats.tcfreeFreedBytes(), 0u);
}

TEST(SlicingEscapeTest, CopyOfPointersBlocksSourceElementFreeing) {
  // copy(dst, src) with pointer elements is an untracked indirect store:
  // dst's contents become incomplete (but this must not crash or misfree).
  const char *Src = "type T struct { v int\n }\n"
                    "func main(n int) {\n"
                    "  src := make([]*T, 4)\n"
                    "  for i := 0; i < 4; i = i + 1 {\n"
                    "    src[i] = &T{v: i}\n"
                    "  }\n"
                    "  dst := make([]*T, 4)\n"
                    "  sink(copy(dst, src))\n"
                    "  sink(dst[2].v)\n"
                    "}\n";
  uint64_t Go = runChecksum(Src, CompileMode::Go, {1});
  uint64_t Free = runChecksum(Src, CompileMode::GoFree, {1});
  EXPECT_EQ(Go, Free);
}

TEST(SlicingEscapeTest, ModeEquivalenceOnSlicingHeavyProgram) {
  const char *Src = "func sum(s []int) int {\n"
                    "  t := 0\n"
                    "  for i := 0; i < len(s); i = i + 1 { t = t + s[i] }\n"
                    "  return t\n"
                    "}\n"
                    "func main(n int) {\n"
                    "  acc := 0\n"
                    "  for r := 4; r < n; r = r + 1 {\n"
                    "    buf := make([]int, r)\n"
                    "    for i := 0; i < r; i = i + 1 { buf[i] = i }\n"
                    "    head := buf[:r/2]\n"
                    "    tail := buf[r/2:]\n"
                    "    acc = acc + sum(head) - sum(tail)\n"
                    "    scratch := make([]int, r)\n"
                    "    acc = acc + copy(scratch, tail)\n"
                    "  }\n"
                    "  sink(acc)\n"
                    "}\n";
  uint64_t Go = runChecksum(Src, CompileMode::Go, {200});
  uint64_t Free = runChecksum(Src, CompileMode::GoFree, {200});
  EXPECT_EQ(Go, Free);
}
