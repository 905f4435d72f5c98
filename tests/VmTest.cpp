//===- tests/VmTest.cpp - Bytecode VM tests -------------------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for src/vm: the AST-to-bytecode compiler (chunk shape, pool
/// dedup, disassembly), the dispatch loop (arithmetic, calls, defer/panic
/// unwinding, runtime faults), the engine-equivalence law (bytecode VM and
/// tree-walker produce bit-identical observables, enforced here on hand
/// written programs and by the fuzz differ's 'vm' leg on generated ones),
/// precise rooting of the operand stack (GC forced at every single opcode
/// must not change behavior), the allocation-free call path, module sharing
/// across mutator threads, and the int64 boundary arithmetic the paper's Go
/// semantics require.
///
//===----------------------------------------------------------------------===//

#include "CountingNew.h"
#include "compiler/Pipeline.h"
#include "fuzz/Differ.h"
#include "vm/Compiler.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

using namespace gofree;
using namespace gofree::compiler;

namespace {

Compilation compiled(const std::string &Src,
                     CompileMode Mode = CompileMode::Go) {
  CompileOptions CO;
  CO.Mode = Mode;
  Compilation C = compile(Src, CO);
  EXPECT_TRUE(C.ok()) << C.Errors;
  return C;
}

ExecOutcome runEngine(const std::string &Src, ExecEngine Engine,
                      CompileMode Mode = CompileMode::GoFree,
                      const std::vector<int64_t> &Args = {},
                      ExecOptions EO = {}) {
  Compilation C = compiled(Src, Mode);
  if (!C.ok())
    return {};
  EO.Engine = Engine;
  return execute(C, "main", Args, EO);
}

/// The engine law: VM and tree-walker must agree on every observable --
/// checksum, sink count, panic flag/value and fault string -- in both
/// compilation modes. Returns the VM outcome for further checks.
ExecOutcome expectEngineEquivalence(const std::string &Src,
                                    const std::vector<int64_t> &Args = {}) {
  ExecOutcome VmO;
  for (CompileMode Mode : {CompileMode::Go, CompileMode::GoFree}) {
    ExecOutcome A = runEngine(Src, ExecEngine::Ast, Mode, Args);
    ExecOutcome V = runEngine(Src, ExecEngine::Vm, Mode, Args);
    EXPECT_EQ(V.Run.Checksum, A.Run.Checksum) << "engines diverged";
    EXPECT_EQ(V.Run.SinkCount, A.Run.SinkCount);
    EXPECT_EQ(V.Run.Panicked, A.Run.Panicked);
    EXPECT_EQ(V.Run.PanicValue, A.Run.PanicValue);
    EXPECT_EQ(V.Run.Error, A.Run.Error);
    if (Mode == CompileMode::GoFree)
      VmO = V;
  }
  return VmO;
}

uint64_t vmChecksum(const std::string &Src,
                    const std::vector<int64_t> &Args = {}) {
  ExecOutcome O = runEngine(Src, ExecEngine::Vm, CompileMode::GoFree, Args);
  EXPECT_TRUE(O.Run.ok()) << O.Run.Error;
  return O.Run.Checksum;
}

} // namespace

//===----------------------------------------------------------------------===//
// Bytecode compiler: chunk shape, pools, disassembly
//===----------------------------------------------------------------------===//

TEST(VmCompilerTest, EveryFunctionGetsAChunk) {
  Compilation C = compiled("func helper(x int) int { return x + 1 }\n"
                           "func twice(x int) int { return helper(helper(x)) }\n"
                           "func main() { sink(twice(3)) }\n");
  vm::Module M = vm::compileProgram(*C.Prog);
  EXPECT_EQ(M.Chunks.size(), 3u);
  for (const minigo::FuncDecl *Fn : C.Prog->Funcs) {
    const vm::Chunk *Ch = M.chunkFor(Fn);
    ASSERT_NE(Ch, nullptr) << Fn->Name;
    EXPECT_EQ(Ch->Fn, Fn);
    EXPECT_FALSE(Ch->Code.empty()) << Fn->Name;
  }
}

TEST(VmCompilerTest, ConstantAndCalleePoolsDedup) {
  Compilation C = compiled("func f(x int) int { return x }\n"
                           "func main() {\n"
                           "  sink(f(42) + f(42) + f(42) + 42)\n"
                           "}\n");
  vm::Module M = vm::compileProgram(*C.Prog);
  // 42 appears four times in the source but once in the pool.
  EXPECT_EQ(std::count(M.Ints.begin(), M.Ints.end(), 42), 1);
  // f is called three times but pooled once.
  int FCount = 0;
  for (const minigo::FuncDecl *Fn : M.Funcs)
    FCount += (Fn && Fn->Name == "f");
  EXPECT_EQ(FCount, 1);
}

TEST(VmCompilerTest, DisassemblyListsFunctionsAndOpcodes) {
  Compilation C = compiled("func add(a int, b int) int { return a + b }\n"
                           "func main() { sink(add(2, 3)) }\n");
  vm::Module M = vm::compileProgram(*C.Prog);
  std::string Listing = vm::disassemble(M);
  EXPECT_NE(Listing.find("add:"), std::string::npos);
  EXPECT_NE(Listing.find("main:"), std::string::npos);
  EXPECT_NE(Listing.find("add"), std::string::npos);
  EXPECT_NE(Listing.find("call"), std::string::npos);
  EXPECT_NE(Listing.find("sink"), std::string::npos);
  EXPECT_NE(Listing.find("; add"), std::string::npos); // pool annotation
}

TEST(VmCompilerTest, ShortCircuitCompilesToJumpsNotCalls) {
  // && / || become peek-jumps over the right operand (jpeek's last
  // operand: 0 jumps on false, 1 on true); there is no short-circuit
  // "operator" at runtime.
  Compilation C = compiled("func main() {\n"
                           "  a := true\n"
                           "  b := false\n"
                           "  if a && b { sink(1) }\n"
                           "  if a || b { sink(2) }\n"
                           "}\n");
  vm::Module M = vm::compileProgram(*C.Prog);
  std::string Listing = vm::disassemble(M);
  size_t And = Listing.find("jpeek");
  ASSERT_NE(And, std::string::npos) << Listing;
  size_t Or = Listing.find("jpeek", And + 1);
  ASSERT_NE(Or, std::string::npos) << Listing;
  EXPECT_EQ(Listing.substr(And, Listing.find('\n', And) - And).back(), '0')
      << Listing;
  EXPECT_EQ(Listing.substr(Or, Listing.find('\n', Or) - Or).back(), '1')
      << Listing;
}

/// Listing of the chunk compiled for function \p Name.
std::string chunkListing(const vm::Module &M, const minigo::Program &Prog,
                         const std::string &Name) {
  const vm::Chunk *Ch = M.chunkFor(Prog.findFunc(Name));
  return Ch ? vm::disassemble(M, *Ch) : std::string();
}

TEST(VmCompilerTest, UnboxedIntLocalUsesSlotOperands) {
  Compilation C = compiled("func main() {\n"
                           "  i := 0\n"
                           "  i = i + 1\n"
                           "  sink(i)\n"
                           "}\n",
                           CompileMode::GoFree);
  vm::Module M = vm::compileProgram(*C.Prog);
  std::string Listing = chunkListing(M, *C.Prog, "main");
  EXPECT_NE(Listing.find("load.slot.i"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("store.slot.i"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("; i"), std::string::npos) << Listing;
  EXPECT_EQ(Listing.find("loadvar"), std::string::npos) << Listing;
  EXPECT_EQ(Listing.find("lval.var"), std::string::npos) << Listing;
  EXPECT_EQ(Listing.find("storevar.init"), std::string::npos) << Listing;
}

TEST(VmCompilerTest, UnboxedSliceLocalUsesSlotOperands) {
  // A slice local that is not MovedToHeap loads and stores its 24-byte
  // header straight from and to the frame slot, and len(s) reads the Len
  // word there.
  const char *Src = "func main(n int) {\n"
                    "  s := make([]int, n)\n"
                    "  s[0] = 7\n"
                    "  t := s\n"
                    "  sink(t[0] + len(s))\n"
                    "}\n";
  Compilation C = compiled(Src, CompileMode::GoFree);
  vm::Module M = vm::compileProgram(*C.Prog);
  std::string Listing = chunkListing(M, *C.Prog, "main");
  EXPECT_NE(Listing.find("load.slot.s"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("store.slot.s"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("; s"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("; t"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("; len(s)"), std::string::npos) << Listing;
  EXPECT_EQ(Listing.find("loadvar"), std::string::npos) << Listing;
  EXPECT_EQ(Listing.find("storevar.init"), std::string::npos) << Listing;
  EXPECT_EQ(Listing.find("lencap"), std::string::npos) << Listing;
  for (int64_t N : {1, 5})
    expectEngineEquivalence(Src, {N});
}

TEST(VmCompilerTest, EscapedLocalKeepsVariableOps) {
  // Negative control: x's address escapes through the result, so x is
  // MovedToHeap and lives in a heap box the slot only points at.
  const char *Src = "func f() *int {\n"
                    "  x := 1\n"
                    "  p := &x\n"
                    "  x = x + 1\n"
                    "  return p\n"
                    "}\n"
                    "func main() { sink(*f()) }\n";
  Compilation C = compiled(Src, CompileMode::GoFree);
  const minigo::FuncDecl *F = C.Prog->findFunc("f");
  ASSERT_NE(F, nullptr);
  const minigo::VarDecl *X = nullptr;
  for (const minigo::VarDecl *V : F->AllVars)
    if (V->Name == "x")
      X = V;
  ASSERT_NE(X, nullptr);
  ASSERT_TRUE(X->MovedToHeap);
  vm::Module M = vm::compileProgram(*C.Prog);
  std::string Listing = chunkListing(M, *C.Prog, "f");
  EXPECT_NE(Listing.find("loadvar"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("lval.var"), std::string::npos) << Listing;
  EXPECT_EQ(Listing.find("slot.i"), std::string::npos) << Listing;
  // p itself is an unboxed pointer local.
  EXPECT_NE(Listing.find("store.slot.a"), std::string::npos) << Listing;
  EXPECT_EQ(vmChecksum(Src), vmChecksum("func main() { sink(2) }\n"));
}

TEST(VmCompilerTest, OrderedConditionsFuseCompareAndBranch) {
  const char *Src = "func main(n int) {\n"
                    "  t := 0\n"
                    "  for i := 0; i < n; i = i + 1 {\n"
                    "    if i <= 3 { t = t + 1 }\n"
                    "    if i > 5 { t = t + 10 }\n"
                    "    if i >= 8 { t = t + 100 }\n"
                    "    if i == 2 { t = t + 1000 }\n"
                    "  }\n"
                    "  sink(t)\n"
                    "}\n";
  Compilation C = compiled(Src);
  vm::Module M = vm::compileProgram(*C.Prog);
  std::string Listing = vm::disassemble(M);
  // Each `if` jumps over its body on the negated comparison, == included;
  // the loop tests i < n at the top and at the bottom.
  for (const char *Op : {"\tjgt ", "\tjle ", "\tjlt ", "\tjne ",
                         "\tjnot.lt.slot ", "\tinc.jlt.slot "})
    EXPECT_NE(Listing.find(Op), std::string::npos) << Op << "\n" << Listing;
  for (const char *Op : {"\tjfalse ", "\tcmp ", "\tjump "})
    EXPECT_EQ(Listing.find(Op), std::string::npos) << Op << "\n" << Listing;
  for (int64_t N : {0, 1, 4, 6, 9, 12})
    expectEngineEquivalence(Src, {N});
}

/// The listing lines from the first one containing \p From up to (not
/// including) the next one containing \p To.
std::string listingBetween(const std::string &Listing, const std::string &From,
                           const std::string &To) {
  size_t Begin = Listing.find(From);
  if (Begin == std::string::npos)
    return {};
  size_t End = Listing.find(To, Listing.find('\n', Begin));
  return Listing.substr(Begin, End == std::string::npos ? End : End - Begin);
}

TEST(VmCompilerTest, HotLoopUsesFusedOps) {
  const char *Src = "func main(n int) {\n"
                    "  s := make([]int, n)\n"
                    "  for i := 0; i < len(s); i++ { s[i] = i * 3 % 7 + 1 }\n"
                    "  t := 0\n"
                    "  for i := 0; i < len(s); i++ { t += s[i] }\n"
                    "  sink(t)\n"
                    "}\n";
  Compilation C = compiled(Src, CompileMode::GoFree);
  vm::Module M = vm::compileProgram(*C.Prog);
  std::string Listing = chunkListing(M, *C.Prog, "main");
  for (const char *Op : {"jnot.lt.slot", "inc.jlt.slot", "mul.slot.k",
                         "mod.k", "add.k", "store.index.slot", "index.slot",
                         "add.to.slot"})
    EXPECT_NE(Listing.find(Op), std::string::npos) << Op << "\n" << Listing;
  EXPECT_NE(Listing.find("; i < len(s)"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("; i += 1; i < len(s)"), std::string::npos)
      << Listing;
  EXPECT_NE(Listing.find("; s[i]"), std::string::npos) << Listing;
  // The first loop, from its entry test to its bottom test, is four ops:
  // no constant, no slice or index load, no back-edge jump.
  std::string Body = listingBetween(Listing, "jnot.lt.slot", "inc.jlt.slot");
  ASSERT_FALSE(Body.empty()) << Listing;
  EXPECT_EQ(std::count(Body.begin(), Body.end(), '\n'), 5) << Body;
  for (const char *Op : {"\tconst ", "\tload.slot"})
    EXPECT_EQ(Body.find(Op), std::string::npos) << Op << "\n" << Body;
  for (const char *Op : {"\tjump ", "lencap"})
    EXPECT_EQ(Listing.find(Op), std::string::npos) << Op << "\n" << Listing;
  for (int64_t N : {0, 1, 9})
    expectEngineEquivalence(Src, {N});
}

TEST(VmCompilerTest, BoxedLoopVariablesKeepGeneralOps) {
  // Negative controls: i (in count) and s (in fill) have their address
  // escape, so they are MovedToHeap and have no slot operands to fuse.
  const char *Src = "func count(s []int) *int {\n"
                    "  i := 0\n"
                    "  p := &i\n"
                    "  for i = 0; i < len(s); i++ { s[i] = i }\n"
                    "  return p\n"
                    "}\n"
                    "func fill(n int) *[]int {\n"
                    "  s := make([]int, n)\n"
                    "  q := &s\n"
                    "  for i := 0; i < len(s); i++ { s[i] = i * 2 }\n"
                    "  return q\n"
                    "}\n"
                    "func main(n int) {\n"
                    "  s := *fill(n)\n"
                    "  sink(*count(s))\n"
                    "  sink(s[n - 1])\n"
                    "}\n";
  Compilation C = compiled(Src, CompileMode::GoFree);
  auto MovedToHeap = [&](const char *Fn, const char *Var) {
    for (const minigo::VarDecl *V : C.Prog->findFunc(Fn)->AllVars)
      if (V->Name == Var)
        return V->MovedToHeap;
    return false;
  };
  ASSERT_TRUE(MovedToHeap("count", "i"));
  ASSERT_TRUE(MovedToHeap("fill", "s"));
  vm::Module M = vm::compileProgram(*C.Prog);
  // Both loops are still inverted, on the general compare-and-branch.
  std::string Count = chunkListing(M, *C.Prog, "count");
  EXPECT_EQ(Count.find("jnot.lt.slot"), std::string::npos) << Count;
  EXPECT_EQ(Count.find("inc.jlt.slot"), std::string::npos) << Count;
  EXPECT_EQ(Count.find("inc.slot.i"), std::string::npos) << Count;
  EXPECT_NE(Count.find("; len(s)"), std::string::npos)
      << Count << "count's s is an unboxed slice local";
  EXPECT_NE(Count.find("\tjge "), std::string::npos) << Count;
  EXPECT_NE(Count.find("\tjlt "), std::string::npos) << Count;
  std::string Fill = chunkListing(M, *C.Prog, "fill");
  EXPECT_EQ(Fill.find("jnot.lt.slot"), std::string::npos) << Fill;
  EXPECT_EQ(Fill.find("inc.jlt.slot"), std::string::npos) << Fill;
  EXPECT_NE(Fill.find("lencap"), std::string::npos) << Fill;
  EXPECT_NE(Fill.find("inc.slot.i"), std::string::npos) << Fill
      << "fill's i is an unboxed int local";
  for (int64_t N : {1, 6})
    expectEngineEquivalence(Src, {N});
}

TEST(VmCompilerTest, ChunkRecordsMaxOperandDepth) {
  // sink(a * (b * (c * d))) holds four operands at once.
  Compilation C = compiled("func main() {\n"
                           "  a := 1\n  b := 2\n  c := 3\n  d := 4\n"
                           "  sink(a * (b * (c * d)))\n"
                           "}\n");
  vm::Module M = vm::compileProgram(*C.Prog);
  EXPECT_EQ(M.chunkFor(C.Prog->findFunc("main"))->MaxDepth, 4u);
}

//===----------------------------------------------------------------------===//
// Dispatch: arithmetic, control flow, calls
//===----------------------------------------------------------------------===//

TEST(VmTest, ArithmeticAndSink) {
  uint64_t A = vmChecksum("func main() {\n"
                          "  sink(2 + 3*4)\n"
                          "  sink(10 / 3)\n"
                          "  sink(10 % 3)\n"
                          "  sink(-5)\n"
                          "}\n");
  uint64_t B = vmChecksum("func main() {\n"
                          "  sink(14)\n  sink(3)\n  sink(1)\n  sink(-5)\n"
                          "}\n");
  EXPECT_EQ(A, B);
}

TEST(VmTest, ShortCircuitDoesNotEvaluateRightArm) {
  ExecOutcome O = runEngine("func boom(x int) bool {\n"
                            "  sink(1 / x)\n"
                            "  return true\n"
                            "}\n"
                            "func main() {\n"
                            "  z := 0\n"
                            "  if false && boom(z) { sink(1) }\n"
                            "  if true || boom(z) { sink(2) }\n"
                            "}\n",
                            ExecEngine::Vm);
  EXPECT_TRUE(O.Run.ok()) << O.Run.Error;
  EXPECT_EQ(O.Run.SinkCount, 1u);
}

TEST(VmTest, LoopsBreakContinue) {
  expectEngineEquivalence("func main() {\n"
                          "  total := 0\n"
                          "  for i := 0; i < 100; i = i + 1 {\n"
                          "    if i % 3 == 0 { continue }\n"
                          "    if i > 40 { break }\n"
                          "    total = total + i\n"
                          "  }\n"
                          "  sink(total)\n"
                          "}\n");
}

TEST(VmTest, RecursionMatchesTreeWalker) {
  expectEngineEquivalence("func fib(n int) int {\n"
                          "  if n < 2 { return n }\n"
                          "  return fib(n-1) + fib(n-2)\n"
                          "}\n"
                          "func main(n int) { sink(fib(n)) }\n",
                          {15});
}

TEST(VmTest, MultiValueReturnsAndAssignment) {
  expectEngineEquivalence("func pair(x int) (int, int) {\n"
                          "  return x, x * 2\n"
                          "}\n"
                          "func forward(x int) (int, int) {\n"
                          "  return pair(x + 1)\n"
                          "}\n"
                          "func main() {\n"
                          "  a, b := pair(10)\n"
                          "  sink(a + b)\n"
                          "  c, _ := forward(5)\n"
                          "  sink(c)\n"
                          "  _, d := forward(7)\n"
                          "  sink(d)\n"
                          "  a, b = b, a\n"
                          "  sink(a - b)\n"
                          "}\n");
}

//===----------------------------------------------------------------------===//
// Containers, structs, pointers
//===----------------------------------------------------------------------===//

TEST(VmTest, SlicesMapsStructsMatchTreeWalker) {
  expectEngineEquivalence(
      "type Pt struct { x int\n y int\n }\n"
      "func main() {\n"
      "  s := make([]int, 0)\n"
      "  for i := 0; i < 50; i = i + 1 { s = append(s, i*i) }\n"
      "  sub := s[10:20]\n"
      "  sink(sub[0] + len(sub) + cap(s))\n"
      "  m := make(map[int]Pt)\n"
      "  m[1] = Pt{x: 3, y: 4}\n"
      "  m[2] = Pt{x: 5, y: 12}\n"
      "  delete(m, 1)\n"
      "  sink(m[2].x + m[999].y + len(m))\n"
      "  p := &Pt{x: 7, y: 8}\n"
      "  p.x = p.x + m[2].y\n"
      "  sink(p.x)\n"
      "  dst := make([]int, 5)\n"
      "  sink(copy(dst, s))\n"
      "  sink(dst[4])\n"
      "}\n");
}

TEST(VmTest, MapValuesLargerThan64BytesMatchTreeWalker) {
  // A 96-byte map value: both engines copy map values through a scratch
  // buffer that used to be a fixed 64-byte array.
  ExecOutcome O = expectEngineEquivalence(
      "type Big struct { a int\n b int\n c int\n d int\n e int\n f int\n"
      " g int\n h int\n i int\n j int\n k int\n l int\n }\n"
      "func main(n int) {\n"
      "  m := make(map[int]Big)\n"
      "  s := 0\n"
      "  for i := 0; i < n; i = i + 1 {\n"
      "    m[i] = Big{a: i, f: i * 2, l: i * 3}\n"
      "    s = s + m[i].l + m[i].a - m[i].f\n"
      "  }\n"
      "  var nilMap map[int]Big\n"
      "  sink(s + nilMap[7].l + len(m))\n"
      "}\n",
      {50});
  EXPECT_TRUE(O.Run.ok()) << O.Run.Error;
  EXPECT_EQ(O.Run.SinkCount, 1u);
}

TEST(VmTest, EqualityClassesMatchTreeWalker) {
  expectEngineEquivalence("type Pt struct { x int\n }\n"
                          "func main() {\n"
                          "  var s []int\n"
                          "  if s == nil { sink(1) }\n"
                          "  s = make([]int, 1)\n"
                          "  if s != nil { sink(2) }\n"
                          "  var m map[int]int\n"
                          "  if m == nil { sink(3) }\n"
                          "  var p *Pt\n"
                          "  if p == nil { sink(4) }\n"
                          "  p = &Pt{x: 1}\n"
                          "  q := p\n"
                          "  if p == q { sink(5) }\n"
                          "}\n");
}

//===----------------------------------------------------------------------===//
// Defer, panic, runtime faults
//===----------------------------------------------------------------------===//

TEST(VmTest, DeferRunsInLifoOrder) {
  expectEngineEquivalence("func note(x int) { sink(x) }\n"
                          "func main() {\n"
                          "  for i := 0; i < 3; i = i + 1 {\n"
                          "    defer note(i)\n"
                          "  }\n"
                          "  sink(100)\n"
                          "}\n");
}

TEST(VmTest, DefersRunDuringPanicUnwind) {
  ExecOutcome O = expectEngineEquivalence("func note(x int) { sink(x) }\n"
                                          "func boom() {\n"
                                          "  defer note(1)\n"
                                          "  panic(42)\n"
                                          "}\n"
                                          "func main() {\n"
                                          "  defer note(2)\n"
                                          "  boom()\n"
                                          "  sink(999)\n" // Never reached.
                                          "}\n");
  EXPECT_TRUE(O.Run.Panicked);
  EXPECT_EQ(O.Run.PanicValue, 42);
  EXPECT_EQ(O.Run.SinkCount, 2u); // Both defers, not the 999.
}

TEST(VmTest, PanicInsideDeferredCallWins) {
  ExecOutcome O = expectEngineEquivalence("func boom(x int) { panic(x) }\n"
                                          "func main() {\n"
                                          "  defer boom(7)\n"
                                          "  sink(1)\n"
                                          "}\n");
  EXPECT_TRUE(O.Run.Panicked);
  EXPECT_EQ(O.Run.PanicValue, 7);
}

TEST(VmTest, DivideByZeroFaults) {
  ExecOutcome O = expectEngineEquivalence("func main(x int) {\n"
                                          "  sink(1 / (x - x))\n"
                                          "}\n",
                                          {3});
  EXPECT_EQ(O.Run.Error, "integer divide by zero");
}

TEST(VmTest, NilDereferenceFaults) {
  ExecOutcome O = expectEngineEquivalence("type Pt struct { x int\n }\n"
                                          "func main() {\n"
                                          "  var p *Pt\n"
                                          "  sink(p.x)\n"
                                          "}\n");
  EXPECT_FALSE(O.Run.Error.empty());
}

TEST(VmTest, NilMapAssignmentFaults) {
  ExecOutcome O = expectEngineEquivalence("func main() {\n"
                                          "  var m map[int]int\n"
                                          "  m[1] = 2\n"
                                          "}\n");
  EXPECT_FALSE(O.Run.Error.empty());
}

TEST(VmTest, SliceIndexOutOfRangeFaults) {
  ExecOutcome O = expectEngineEquivalence("func main(n int) {\n"
                                          "  s := make([]int, 3)\n"
                                          "  sink(s[n])\n"
                                          "}\n",
                                          {5});
  EXPECT_FALSE(O.Run.Error.empty());
}

TEST(VmTest, FaultSkipsRemainingDefers) {
  // A runtime fault (unlike a panic) aborts without running defers; the
  // engines must agree on that too.
  ExecOutcome O = expectEngineEquivalence("func note(x int) { sink(x) }\n"
                                          "func main(x int) {\n"
                                          "  defer note(1)\n"
                                          "  sink(1 / (x - x))\n"
                                          "}\n",
                                          {3});
  EXPECT_FALSE(O.Run.Error.empty());
}

//===----------------------------------------------------------------------===//
// Fuel and the step budget
//===----------------------------------------------------------------------===//

TEST(VmTest, StepBudgetStopsRunawayLoop) {
  ExecOptions EO;
  EO.Interp.MaxSteps = 10'000;
  ExecOutcome O = runEngine("func main() {\n"
                            "  for i := 0; i >= 0; i = i + 1 { }\n"
                            "}\n",
                            ExecEngine::Vm, CompileMode::Go, {}, EO);
  EXPECT_TRUE(O.Run.OutOfFuel);
}

//===----------------------------------------------------------------------===//
// Precise rooting: GC forced at every opcode
//===----------------------------------------------------------------------===//

TEST(VmTest, GcAtEveryOpcodeDoesNotChangeBehavior) {
  // The torture knob: a full stop-the-world collection between every two
  // opcodes, with heap verification on. Every operand-stack value -- raw
  // lvalue addresses included -- must be a root, or the collection frees
  // an object mid-expression and the checksum (or the verifier) breaks.
  const char *Src = "type Node struct { v int\n next *Node\n }\n"
                    "func build(n int) *Node {\n"
                    "  var head *Node\n"
                    "  for i := 0; i < n; i = i + 1 {\n"
                    "    head = &Node{v: i, next: head}\n"
                    "  }\n"
                    "  return head\n"
                    "}\n"
                    "func main() {\n"
                    "  h := build(8)\n"
                    "  h.next.v = h.next.v + 100\n"
                    "  total := 0\n"
                    "  for p := h; p != nil; p = p.next {\n"
                    "    total = total + p.v\n"
                    "  }\n"
                    "  s := make([]int, 4)\n"
                    "  s[1] = total\n"
                    "  s = append(s, total)\n"
                    "  m := make(map[int]int)\n"
                    "  m[1] = s[1]\n"
                    "  sink(s[4] + m[1] + len(s))\n"
                    "}\n";
  ExecOutcome Plain = runEngine(Src, ExecEngine::Vm);
  ASSERT_TRUE(Plain.Run.ok()) << Plain.Run.Error;

  ExecOptions EO;
  EO.Interp.GcEveryNSteps = 1;
  EO.Heap.Gc.Verify = true;
  EO.Heap.Gc.MinHeapTrigger = 0;
  ExecOutcome Tortured =
      runEngine(Src, ExecEngine::Vm, CompileMode::GoFree, {}, EO);
  EXPECT_TRUE(Tortured.ok()) << Tortured.Error;
  EXPECT_EQ(Tortured.Run.Checksum, Plain.Run.Checksum);
  EXPECT_EQ(Tortured.Run.SinkCount, Plain.Run.SinkCount);
}

TEST(VmTest, GcTortureDuringPanicUnwind) {
  // Deferred arguments and pending return values must stay rooted while
  // defers run during an unwind.
  const char *Src = "type Pt struct { x int\n }\n"
                    "func note(p *Pt) { sink(p.x) }\n"
                    "func boom() *Pt {\n"
                    "  defer note(&Pt{x: 5})\n"
                    "  panic(9)\n"
                    "}\n"
                    "func main() {\n"
                    "  defer note(&Pt{x: 6})\n"
                    "  boom()\n"
                    "}\n";
  ExecOptions EO;
  EO.Interp.GcEveryNSteps = 1;
  EO.Heap.Gc.Verify = true;
  EO.Heap.Gc.MinHeapTrigger = 0;
  ExecOutcome O = runEngine(Src, ExecEngine::Vm, CompileMode::GoFree, {}, EO);
  EXPECT_TRUE(O.Run.Panicked);
  EXPECT_EQ(O.Run.PanicValue, 9);
  EXPECT_EQ(O.Run.SinkCount, 2u);
  ExecOutcome Plain = runEngine(Src, ExecEngine::Vm);
  EXPECT_EQ(O.Run.Checksum, Plain.Run.Checksum);
}

TEST(VmTest, DeepRecursionGrowsOperandStackUnderGcTorture) {
  // Each frame holds live operands (a pending sum, a product and a heap
  // pointer argument) below the callee's arguments, so deep recursion must
  // grow the operand stack past its initial capacity mid-call, several
  // times. Every entry must survive the move and stay a root. 3000 frames
  // run plain; the GC-at-every-opcode run uses 800 frames (4000+ live
  // entries, still several growths), because each forced collection scans
  // every frame and 3000 frames would take tens of seconds.
  const char *Src = "type Box struct { v int\n }\n"
                    "func deep(n int, b *Box, k int) int {\n"
                    "  if n <= 0 { return b.v + k }\n"
                    "  return b.v + k * (n + deep(n - 1, &Box{v: b.v + n},"
                    " k + 1))\n"
                    "}\n"
                    "func main(n int) { sink(deep(n, &Box{v: 1}, 3)) }\n";
  for (int64_t Depth : {3000, 800}) {
    ExecOutcome Ast = runEngine(Src, ExecEngine::Ast, CompileMode::GoFree,
                                {Depth});
    ASSERT_TRUE(Ast.Run.ok()) << Ast.Run.Error;
    ExecOptions EO;
    if (Depth < 1000) {
      EO.Interp.GcEveryNSteps = 1;
      EO.Heap.Gc.Verify = true;
      EO.Heap.Gc.MinHeapTrigger = 0;
    }
    ExecOutcome V =
        runEngine(Src, ExecEngine::Vm, CompileMode::GoFree, {Depth}, EO);
    EXPECT_TRUE(V.ok()) << V.Error;
    EXPECT_TRUE(V.Run.ok()) << Depth << ": " << V.Run.Error;
    EXPECT_EQ(V.Run.Checksum, Ast.Run.Checksum) << Depth;
    EXPECT_EQ(V.Run.SinkCount, 1u);
  }
}

TEST(VmTest, DeepFramesWithStackSlicesAndStructReturnsUnderGcTorture) {
  // Every frame holds a stack-placed 1 KiB slice and a stack-placed struct
  // and returns a struct, so the frames span many slot-stack segments
  // (SlotStack::SegmentBytes each), and each descent after the first reuses
  // the segments the previous one popped. Each returned struct is a copy in
  // the caller's frame that must survive every collection while it is
  // read.
  const char *Src = "type Acc struct { sum int\n depth int\n p *int\n }\n"
                    "func deep(n int, salt int) Acc {\n"
                    "  s := make([]int, 128)\n"
                    "  s[n % 128] = n + salt\n"
                    "  h := new(int)\n"
                    "  *h = n\n"
                    "  if n <= 0 { return Acc{sum: s[0], depth: 0, p: h} }\n"
                    "  a := deep(n - 1, salt)\n"
                    "  b := &Acc{sum: a.sum + s[n % 128] + *a.p,"
                    " depth: a.depth + 1, p: h}\n"
                    "  return *b\n"
                    "}\n"
                    "func main(n int) {\n"
                    "  for r := 0; r < 3; r = r + 1 {\n"
                    "    a := deep(n - r * (n / 3), r)\n"
                    "    sink(a.sum)\n"
                    "    sink(a.depth + *a.p)\n"
                    "  }\n"
                    "}\n";
  for (int64_t Depth : {20, 150, 400}) {
    ExecOutcome Ast =
        runEngine(Src, ExecEngine::Ast, CompileMode::GoFree, {Depth});
    ASSERT_TRUE(Ast.Run.ok()) << Ast.Run.Error;
    ExecOptions EO;
    EO.Interp.GcEveryNSteps = 1;
    EO.Heap.Gc.Verify = true;
    EO.Heap.Gc.MinHeapTrigger = 0;
    ExecOutcome V =
        runEngine(Src, ExecEngine::Vm, CompileMode::GoFree, {Depth}, EO);
    EXPECT_TRUE(V.ok()) << Depth << ": " << V.Error;
    EXPECT_EQ(V.Run.Checksum, Ast.Run.Checksum) << Depth;
    EXPECT_EQ(V.Run.SinkCount, 6u);
    EXPECT_GT(V.Stats.GcCycles, 0u);
    // Every frame's slice is stack-placed, so the region sizes are real.
    EXPECT_GT(V.Stats.StackAllocCountByCat[(int)rt::AllocCat::Slice],
              (uint64_t)Depth);
  }
}

TEST(VmTest, CallStackOverflowMatchesTreeWalker) {
  // Unbounded recursion faults with "call stack overflow" at
  // interp::MaxFrames frames in both engines, which a run reports as
  // OutOfFuel with no runtime error -- long before the step budget. One
  // sink per frame pins the depth: main is the first frame.
  const char *Src = "func down(n int) int {\n"
                    "  sink(n)\n"
                    "  return down(n + 1) + 1\n"
                    "}\n"
                    "func main() { sink(down(1)) }\n";
  for (ExecEngine Engine : {ExecEngine::Ast, ExecEngine::Vm}) {
    ExecOutcome O = runEngine(Src, Engine);
    EXPECT_TRUE(O.Run.OutOfFuel);
    EXPECT_TRUE(O.Run.Error.empty()) << O.Run.Error;
    EXPECT_FALSE(O.Run.Panicked);
    EXPECT_LT(O.Run.Steps, interp::InterpOptions{}.MaxSteps);
    EXPECT_EQ(O.Run.SinkCount, interp::MaxFrames - 1);
  }
  expectEngineEquivalence(Src);
}

TEST(VmTest, StructTemporariesMatchTreeWalker) {
  // Struct results and struct map values are copies owned by the calling
  // frame. The VM reuses a frame's copies once no operand-stack value
  // refers to them; a copy still referenced -- by a pending argument, a
  // deferred call's arguments, or a pending return -- must keep its value.
  const char *Src = "type P struct { a int\n b int\n }\n"
                    "func mk(i int) P { return P{a: i, b: i * 2} }\n"
                    "func two(i int) (P, P) { return mk(i), mk(i + 1) }\n"
                    "func sum(x P, y P) int {\n"
                    "  return x.a + x.b * 3 + y.a * 5\n"
                    "}\n"
                    "func show(x P) { sink(x.a * 7 + x.b) }\n"
                    "func late() P {\n"
                    "  r := mk(40)\n"
                    "  defer show(mk(41))\n"
                    "  return r\n"
                    "}\n"
                    "func main(n int) {\n"
                    "  m := make(map[int]P)\n"
                    "  t := 0\n"
                    "  for i := 0; i < n; i = i + 1 {\n"
                    "    m[i % 4] = mk(i)\n"
                    "    t = t + sum(mk(i), mk(i + 1)) + m[i % 4].b\n"
                    "    x, y := two(i)\n"
                    "    t = t + sum(m[(i + 1) % 4], x) + y.b\n"
                    "    if i < 3 { defer show(mk(i + 100)) }\n"
                    "  }\n"
                    "  sink(t)\n"
                    "  sink(late().b)\n"
                    "}\n";
  for (int64_t N : {0, 1, 5, 40})
    expectEngineEquivalence(Src, {N});
}

TEST(VmTest, CallsDoNotAllocate) {
  // Each call of f places a composite on the stack and returns a struct
  // and a second value. Once the VM's buffers have grown to the deepest
  // call chain, a call allocates nothing on the C++ heap, so the whole
  // run -- heap setup included -- makes as many allocations for 100,000
  // calls as for 1,000.
  const char *Src = "type Pt struct { x int\n y int\n }\n"
                    "func f(i int) (Pt, int) {\n"
                    "  p := &Pt{x: i, y: i + 1}\n"
                    "  return *p, p.x * p.y\n"
                    "}\n"
                    "func main(n int) {\n"
                    "  t := 0\n"
                    "  for i := 0; i < n; i = i + 1 {\n"
                    "    q, k := f(i)\n"
                    "    t = t + q.y + k\n"
                    "  }\n"
                    "  sink(t)\n"
                    "}\n";
  Compilation C = compiled(Src, CompileMode::GoFree);
  ASSERT_TRUE(C.ok());
  ExecOptions EO;
  EO.Engine = ExecEngine::Vm;
  auto AllocsFor = [&](int64_t Calls) {
    uint64_t Before = counting_new::NewCalls.load();
    ExecOutcome O = execute(C, "main", {Calls}, EO);
    uint64_t After = counting_new::NewCalls.load();
    EXPECT_TRUE(O.ok()) << O.Error;
    EXPECT_EQ(O.Stats.AllocCount, 0u) << "f must not touch the heap";
    EXPECT_EQ(O.Stats.StackAllocCountByCat[(int)rt::AllocCat::Other],
              (uint64_t)Calls);
    return After - Before;
  };
  AllocsFor(1'000); // First-use statics, so the test also passes alone.
  uint64_t Few = AllocsFor(1'000);
  uint64_t Many = AllocsFor(100'000);
  EXPECT_GT(Few, 0u) << "the counting operator new is not in use";
  EXPECT_EQ(Many, Few);
}

//===----------------------------------------------------------------------===//
// Module sharing across mutator threads
//===----------------------------------------------------------------------===//

TEST(VmTest, SharedModuleAcrossWorkers) {
  const char *Src = "func main(n int) {\n"
                    "  s := make([]int, 0)\n"
                    "  for i := 0; i < n; i = i + 1 { s = append(s, i) }\n"
                    "  total := 0\n"
                    "  for i := 0; i < len(s); i = i + 1 {\n"
                    "    total = total + s[i]\n"
                    "  }\n"
                    "  sink(total)\n"
                    "}\n";
  ExecOutcome Single = runEngine(Src, ExecEngine::Vm, CompileMode::GoFree,
                                 {64});
  ASSERT_TRUE(Single.Run.ok()) << Single.Run.Error;
  ExecOptions EO;
  EO.NumThreads = 3;
  ExecOutcome Mt =
      runEngine(Src, ExecEngine::Vm, CompileMode::GoFree, {64}, EO);
  EXPECT_TRUE(Mt.Run.ok()) << Mt.Run.Error;
  EXPECT_EQ(Mt.Run.Checksum, Single.Run.Checksum * 3);
  EXPECT_EQ(Mt.Run.SinkCount, Single.Run.SinkCount * 3);
}

//===----------------------------------------------------------------------===//
// Int64 boundary arithmetic (Go wrap semantics), both engines
//===----------------------------------------------------------------------===//

TEST(VmArithTest, MinInt64DivAndModByMinusOne) {
  // Go: INT64_MIN / -1 == INT64_MIN (wraps), INT64_MIN % -1 == 0. In C++
  // both are UB; the runtime must guard them explicitly.
  ExecOutcome O = expectEngineEquivalence(
      "func main() {\n"
      "  min := -9223372036854775807 - 1\n"
      "  m1 := -1\n"
      "  sink(min / m1)\n"
      "  sink(min % m1)\n"
      "}\n");
  ASSERT_TRUE(O.Run.ok()) << O.Run.Error;
  uint64_t Expected = vmChecksum("func main() {\n"
                                 "  sink(-9223372036854775807 - 1)\n"
                                 "  sink(0)\n"
                                 "}\n");
  EXPECT_EQ(O.Run.Checksum, Expected);
}

TEST(VmArithTest, FusedOpsWrapLikeGeneralOps) {
  // add.k, mul.slot.k and mod.slot.k (a negated literal is a constant
  // too) and inc.slot.i, at the int64 boundaries; the tree-walker has no
  // fused ops.
  const char *Src = "func main() {\n"
                    "  max := 9223372036854775807\n"
                    "  min := -max - 1\n"
                    "  sink(max + 1)\n"
                    "  sink(max * 3)\n"
                    "  sink(min % -1)\n"
                    "  sink(min % 7)\n"
                    "  x := max\n"
                    "  x += 2\n"
                    "  sink(x)\n"
                    "  y := min\n"
                    "  y--\n"
                    "  sink(y)\n"
                    "  z := -5\n"
                    "  z -= 9223372036854775807\n"
                    "  sink(z)\n"
                    "  w := 0\n"
                    "  w -= -3\n"
                    "  sink(w)\n"
                    "}\n";
  Compilation C = compiled(Src, CompileMode::GoFree);
  vm::Module M = vm::compileProgram(*C.Prog);
  std::string Listing = chunkListing(M, *C.Prog, "main");
  for (const char *Op : {"add.k", "mul.slot.k", "mod.slot.k", "inc.slot.i"})
    EXPECT_NE(Listing.find(Op), std::string::npos) << Op << "\n" << Listing;
  EXPECT_NE(Listing.find("; min % -1"), std::string::npos) << Listing;
  ExecOutcome O = expectEngineEquivalence(Src);
  ASSERT_TRUE(O.Run.ok()) << O.Run.Error;
  uint64_t Expected = vmChecksum("func main() {\n"
                                 "  sink(-9223372036854775807 - 1)\n"
                                 "  sink(9223372036854775805)\n"
                                 "  sink(0)\n"
                                 "  sink(-1)\n"
                                 "  sink(-9223372036854775807)\n"
                                 "  sink(9223372036854775807)\n"
                                 "  sink(9223372036854775804)\n"
                                 "  sink(3)\n"
                                 "}\n");
  EXPECT_EQ(O.Run.Checksum, Expected);
}

TEST(VmArithTest, ModByZeroLiteralStillFaults) {
  const char *Src = "func main() {\n  x := 5\n  sink(x % 0)\n}\n";
  Compilation C = compiled(Src, CompileMode::GoFree);
  vm::Module M = vm::compileProgram(*C.Prog);
  EXPECT_EQ(chunkListing(M, *C.Prog, "main").find("mod.k"),
            std::string::npos);
  ExecOutcome O = expectEngineEquivalence(Src);
  EXPECT_NE(O.Run.Error.find("integer divide by zero"), std::string::npos)
      << O.Run.Error;
}

TEST(VmTest, LenBoundReReadEveryIteration) {
  // jnot.lt.slot and inc.jlt.slot read len(s) from s's slot on every
  // test: over a nil slice, and when the body shrinks s or appends to it.
  expectEngineEquivalence("func main() {\n"
                          "  var s []int\n"
                          "  n := 0\n"
                          "  for i := 0; i < len(s); i++ { n++ }\n"
                          "  sink(n)\n"
                          "}\n");
  const char *Src = "func main(n int) {\n"
                    "  s := make([]int, n)\n"
                    "  t := 0\n"
                    "  for i := 0; i < len(s); i++ {\n"
                    "    t += s[i] + i\n"
                    "    if i % 3 == 0 { s = s[0:len(s) - 1] }\n"
                    "  }\n"
                    "  sink(t)\n"
                    "  sink(len(s))\n"
                    "  u := make([]int, 1)\n"
                    "  for j := 0; j < len(u); j++ {\n"
                    "    if len(u) < 40 { u = append(u, j) }\n"
                    "  }\n"
                    "  sink(len(u))\n"
                    "}\n";
  Compilation C = compiled(Src, CompileMode::GoFree);
  vm::Module M = vm::compileProgram(*C.Prog);
  std::string Listing = chunkListing(M, *C.Prog, "main");
  EXPECT_NE(Listing.find("; i < len(s)"), std::string::npos) << Listing;
  EXPECT_NE(Listing.find("; j < len(u)"), std::string::npos) << Listing;
  for (int64_t N : {0, 1, 2, 10}) {
    ExecOutcome O = expectEngineEquivalence(Src, {N});
    EXPECT_TRUE(O.Run.ok()) << O.Run.Error;
  }
  // 40 elements: the append loop ran until len(u) stopped growing.
  EXPECT_EQ(vmChecksum("func main() {\n  u := make([]int, 1)\n"
                       "  for j := 0; j < len(u); j++ {\n"
                       "    if len(u) < 40 { u = append(u, j) }\n"
                       "  }\n"
                       "  sink(len(u))\n}\n"),
            vmChecksum("func main() { sink(40) }\n"));
}

TEST(VmTest, FusedLoopUnderGcTorture) {
  const char *Src = "type Node struct { v int\n next *Node\n }\n"
                    "func main(n int) {\n"
                    "  s := make([]*Node, 0)\n"
                    "  for i := 0; i < n; i++ {\n"
                    "    s = append(s, &Node{v: i * 3 % 7 + 1})\n"
                    "  }\n"
                    "  t := 0\n"
                    "  for i := 0; i < len(s); i++ {\n"
                    "    s[i].next = s[len(s) - 1 - i]\n"
                    "    t += s[i].next.v * 2\n"
                    "  }\n"
                    "  sink(t)\n"
                    "}\n";
  ExecOutcome Plain = runEngine(Src, ExecEngine::Vm, CompileMode::GoFree, {24});
  ASSERT_TRUE(Plain.Run.ok()) << Plain.Run.Error;
  ExecOptions EO;
  EO.Interp.GcEveryNSteps = 1;
  EO.Heap.Gc.Verify = true;
  EO.Heap.Gc.MinHeapTrigger = 0;
  ExecOutcome Tortured =
      runEngine(Src, ExecEngine::Vm, CompileMode::GoFree, {24}, EO);
  EXPECT_TRUE(Tortured.ok()) << Tortured.Error;
  EXPECT_EQ(Tortured.Run.Checksum, Plain.Run.Checksum);
  expectEngineEquivalence(Src, {24});
}

TEST(VmArithTest, AddSubMulNegWrapAround) {
  ExecOutcome O = expectEngineEquivalence(
      "func main() {\n"
      "  max := 9223372036854775807\n"
      "  min := -max - 1\n"
      "  sink(max + 1)\n"  // wraps to min
      "  sink(min - 1)\n"  // wraps to max
      "  sink(max * 2)\n"  // wraps to -2
      "  sink(min * -1)\n" // wraps to min
      "  sink(-min)\n"     // wraps to min
      "}\n");
  ASSERT_TRUE(O.Run.ok()) << O.Run.Error;
  uint64_t Expected = vmChecksum("func main() {\n"
                                 "  max := 9223372036854775807\n"
                                 "  min := -max - 1\n"
                                 "  sink(min)\n  sink(max)\n  sink(-2)\n"
                                 "  sink(min)\n  sink(min)\n"
                                 "}\n");
  EXPECT_EQ(O.Run.Checksum, Expected);
}

//===----------------------------------------------------------------------===//
// Inverted loops and slot-operand index, store and arithmetic ops
//===----------------------------------------------------------------------===//

TEST(VmFusedShapeTest, InvertedLoopsZeroTripBreakContinue) {
  // Every loop shape the compiler inverts (i < n, i < len(s), a general
  // comparison) and one it does not (a bool condition), entered zero
  // times, left by break and resumed by continue, alone and nested.
  const char *Src = "func main(n int) {\n"
                    "  var none []int\n"
                    "  s := make([]int, n)\n"
                    "  t := 0\n"
                    "  for i := 0; i < len(none); i++ { t += 1000 }\n"
                    "  for i := 5; i < 3; i++ { t += 1000 }\n"
                    "  for i := 0; i < n; i++ {\n"
                    "    if i % 3 == 1 { continue }\n"
                    "    if i > 7 { break }\n"
                    "    t += i\n"
                    "  }\n"
                    "  for i := 0; i < len(s); i += 2 {\n"
                    "    s[i] = i\n"
                    "    for j := i; j < len(s); j++ {\n"
                    "      if j == i + 2 { continue }\n"
                    "      if j >= i + 4 { break }\n"
                    "      t += s[j] * 3\n"
                    "    }\n"
                    "    if i >= 6 { continue }\n"
                    "    t += 7\n"
                    "  }\n"
                    "  for k := n * 2; k >= n; k-- {\n"
                    "    if k != n + 1 { t += k }\n"
                    "  }\n"
                    "  more := n > 2\n"
                    "  for more {\n"
                    "    t++\n"
                    "    more = !more\n"
                    "  }\n"
                    "  sink(t)\n"
                    "  sink(-t)\n"
                    "}\n";
  Compilation C = compiled(Src, CompileMode::GoFree);
  vm::Module M = vm::compileProgram(*C.Prog);
  std::string Listing = chunkListing(M, *C.Prog, "main");
  for (const char *Op : {"\tinc.jlt.slot ", "\tjge ", "\tjump "})
    EXPECT_NE(Listing.find(Op), std::string::npos) << Op << "\n" << Listing;
  for (int64_t N : {0, 1, 2, 3, 9, 14})
    expectEngineEquivalence(Src, {N});
}

TEST(VmFusedShapeTest, LoopBoundReassignedInBody) {
  // inc.jlt.slot reads the bound n from its slot after each step: a body
  // that moves n moves the exit, like the tree-walker's re-evaluation.
  const char *Src = "func main(n int) {\n"
                    "  t := 0\n"
                    "  for i := 0; i < n; i++ {\n"
                    "    t += i\n"
                    "    if i == 2 { n = n - 3 }\n"
                    "    if i == 4 { n = n + 1 }\n"
                    "  }\n"
                    "  sink(t)\n"
                    "  sink(n)\n"
                    "}\n";
  Compilation C = compiled(Src, CompileMode::GoFree);
  vm::Module M = vm::compileProgram(*C.Prog);
  EXPECT_NE(chunkListing(M, *C.Prog, "main").find("; i += 1; i < n"),
            std::string::npos);
  for (int64_t N : {0, 3, 4, 6, 12})
    expectEngineEquivalence(Src, {N});
}

TEST(VmFusedShapeTest, FusedIndexAndStoreFaultsMatchTreeWalker) {
  // index.slot, store.index.slot, store.index.s and deref.slot fault with
  // the tree-walker's messages, out of range and on nil, and a store
  // checks its bounds only after its right-hand side ran (the sinks and
  // the divide fault in f come first). An index that calls a function
  // which replaces s (mode 8) indexes the slice read before the call.
  const char *Src = "type T struct { v int\n next *T\n }\n"
                    "func f(x int, z int) int {\n"
                    "  sink(x)\n"
                    "  return x / z\n"
                    "}\n"
                    "func grow(p *[]int, i int) int {\n"
                    "  *p = make([]int, 8)\n"
                    "  return i\n"
                    "}\n"
                    "func main(mode int, i int) {\n"
                    "  var none []int\n"
                    "  s := make([]int, 4)\n"
                    "  var p *T\n"
                    "  if mode == 0 { sink(s[i]) }\n"
                    "  if mode == 1 { s[i] = f(i, 1) }\n"
                    "  if mode == 2 { s[i] = f(i, 0) }\n"
                    "  if mode == 3 { s[i * 2] = f(i, 1) }\n"
                    "  if mode == 4 { none[i] = f(i, 1) }\n"
                    "  if mode == 5 { sink(none[i]) }\n"
                    "  if mode == 6 { sink(p.v) }\n"
                    "  if mode == 7 { sink((*p).v) }\n"
                    "  if mode == 8 { s[grow(&s, i)] = 1 }\n"
                    "  sink(s[0] + s[3])\n"
                    "}\n";
  Compilation C = compiled(Src, CompileMode::GoFree);
  vm::Module M = vm::compileProgram(*C.Prog);
  std::string Listing = chunkListing(M, *C.Prog, "main");
  for (const char *Op : {"\tindex.slot ", "\tstore.index.slot ",
                         "\tstore.index.s ", "\tderef.slot "})
    EXPECT_NE(Listing.find(Op), std::string::npos) << Op << "\n" << Listing;
  for (int64_t Mode = 0; Mode <= 8; ++Mode) {
    for (int64_t I : {-1, 0, 3, 4, 9}) {
      ExecOutcome O = expectEngineEquivalence(Src, {Mode, I});
      if (Mode == 2) {
        EXPECT_NE(O.Run.Error.find("integer divide by zero"),
                  std::string::npos)
            << "i=" << I << ": " << O.Run.Error;
      }
    }
  }
  ExecOutcome O = expectEngineEquivalence(Src, {1, 4});
  EXPECT_NE(O.Run.Error.find("slice index out of range"), std::string::npos)
      << O.Run.Error;
  EXPECT_EQ(O.Run.SinkCount, 1u) << "the RHS's sink runs before the fault";
  O = expectEngineEquivalence(Src, {6, 0});
  EXPECT_NE(O.Run.Error.find("nil pointer dereference"), std::string::npos)
      << O.Run.Error;
  O = expectEngineEquivalence(Src, {8, 5});
  EXPECT_NE(O.Run.Error.find("slice index out of range"), std::string::npos)
      << "s is read before grow replaces it: " << O.Run.Error;
}

TEST(VmFusedShapeTest, SlotLocalWrittenByACallInTheRightHandSide) {
  // A local whose address only reaches a callee that does not keep it
  // stays in its frame slot. `x = x + set(&x)` reads x before the call
  // writes it, so it must not become add.to.slot, which reads x after
  // its operand; `y = y + 2 * z` has no call and still does.
  const char *Src = "func set(p *int, v int) int {\n"
                    "  *p = v\n"
                    "  return 1\n"
                    "}\n"
                    "func main(n int) {\n"
                    "  x := n\n"
                    "  x = x + set(&x, 10)\n"
                    "  sink(x)\n"
                    "  x += set(&x, 20) * 3\n"
                    "  sink(x)\n"
                    "  y := n\n"
                    "  z := n + 1\n"
                    "  y = y + 2 * z\n"
                    "  sink(y)\n"
                    "}\n";
  Compilation C = compiled(Src, CompileMode::GoFree);
  vm::Module M = vm::compileProgram(*C.Prog);
  std::string Listing = chunkListing(M, *C.Prog, "main");
  EXPECT_NE(Listing.find("\tstore.slot.i "), std::string::npos)
      << "x keeps its frame slot\n" << Listing;
  size_t At = Listing.find("\tadd.to.slot ");
  EXPECT_NE(At, std::string::npos) << Listing;
  EXPECT_EQ(Listing.find("\tadd.to.slot ", At + 1), std::string::npos)
      << "only y = y + 2 * z fuses\n" << Listing;
  for (int64_t N : {-4, 0, 1, 7}) {
    ExecOutcome O = expectEngineEquivalence(Src, {N});
    EXPECT_TRUE(O.Run.ok()) << O.Run.Error;
  }
  EXPECT_EQ(vmChecksum(Src, {1}),
            vmChecksum("func main() {\n  sink(2)\n  sink(5)\n"
                       "  sink(5)\n}\n"));
}

TEST(VmFusedShapeTest, ConstantModAndMulAddWithNegativeOperands) {
  // mod.slot.k, mod.k and muladd.slot keep Go's truncated remainder (its
  // sign follows the dividend) and wrapping arithmetic.
  const char *Src = "func main(a int, b int) {\n"
                    "  s := make([]int, 3)\n"
                    "  s[1] = a\n"
                    "  for i := -9; i < 10; i += 4 {\n"
                    "    sink(i % 7)\n"
                    "    sink(i % -7)\n"
                    "    sink((i - a) % 3)\n"
                    "    sink(s[1] % -5)\n"
                    "    sink(a * -3 + i)\n"
                    "    sink(b * 9223372036854775807 + a)\n"
                    "  }\n"
                    "}\n";
  Compilation C = compiled(Src, CompileMode::GoFree);
  vm::Module M = vm::compileProgram(*C.Prog);
  std::string Listing = chunkListing(M, *C.Prog, "main");
  for (const char *Op : {"\tmod.slot.k ", "\tmod.k ", "\tmuladd.slot "})
    EXPECT_NE(Listing.find(Op), std::string::npos) << Op << "\n" << Listing;
  for (int64_t A : {-17, -1, 0, 5})
    for (int64_t B : {-3, 0, 2})
      expectEngineEquivalence(Src, {A, B});
}

TEST(VmFusedShapeTest, PointerElementStoresShadeDuringConcurrentMark) {
  // Pointers move between the heap backing arrays of two slice locals only
  // through store.index.slot and store.index.s, each one dropped from its
  // old element and from every local right after. An object stored into
  // an already-scanned (black) array during a concurrent mark window
  // survives only if that store shaded it; verify=1 runs the tricolor
  // check at the end of every mark and the heap verifier at every cycle.
  // Whether a store lands inside a window depends on the thread schedule,
  // so the deterministic check is the rc leg: it counts references
  // through the same barrier, and its verifier cross-checks every count
  // against a trace from the roots (a fused store without the barrier
  // fails it on every run).
  const char *Src = "type T struct { v int\n next *T\n }\n"
                    "func main(n int, w int) {\n"
                    "  a := make([]*T, w)\n"
                    "  b := make([]*T, w)\n"
                    "  for i := 0; i < w; i++ {\n"
                    "    a[i] = &T{v: i, next: &T{v: i * 2}}\n"
                    "  }\n"
                    "  var live *T\n"
                    "  for i := 0; i < n / 4; i++ { live = &T{v: i, next: live} }\n"
                    "  total := 0\n"
                    "  for r := 0; r < n; r++ {\n"
                    "    i := r % w\n"
                    "    j := (r * 7 + 3) % w\n"
                    "    p := a[i]\n"
                    "    q := b[j]\n"
                    "    b[j] = p\n"
                    "    a[i] = nil\n"
                    "    a[(i + 5) % w] = q\n"
                    "    if a[i] == nil { a[i] = &T{v: r, next: &T{v: r + 1}} }\n"
                    "    p = nil\n"
                    "    q = nil\n"
                    "    g := make([]int, r % 40 + w)\n"
                    "    g[1] = r\n"
                    "    total += g[1] % 3\n"
                    "  }\n"
                    "  for i := 0; i < w; i++ {\n"
                    "    if a[i] != nil { total += a[i].v + a[i].next.v }\n"
                    "    if b[i] != nil { total += b[i].v * 3 + b[i].next.v }\n"
                    "  }\n"
                    "  for live != nil {\n"
                    "    total += live.v % 5\n"
                    "    live = live.next\n"
                    "  }\n"
                    "  sink(total)\n"
                    "}\n";
  Compilation C = compiled(Src, CompileMode::GoFree);
  vm::Module M = vm::compileProgram(*C.Prog);
  std::string Listing = chunkListing(M, *C.Prog, "main");
  for (const char *Op : {"\tstore.index.slot ", "\tstore.index.s "})
    EXPECT_NE(Listing.find(Op), std::string::npos) << Op << "\n" << Listing;
  const std::vector<int64_t> Args = {8000, 48};
  ExecOptions Oracle;
  Oracle.Engine = ExecEngine::Ast;
  ExecOutcome Ref = execute(C, "main", Args, Oracle);
  ASSERT_TRUE(Ref.ok()) << Ref.Error;

  ExecOptions Conc;
  Conc.NumThreads = 3;
  Conc.Heap.Gc.Verify = true;
  Conc.Heap.Gc.MinHeapTrigger = 4 << 10;
  // A cycle opens a window only while another mutator is registered, and
  // on a loaded host the three overlap for only part of the run: frequent
  // cycles keep enough of them inside the overlap.
  Conc.Heap.Gc.Gogc = 25;
  ExecOutcome O = execute(C, "main", Args, Conc);
  ASSERT_TRUE(O.ok()) << O.Error;
  EXPECT_EQ(O.Run.Checksum, Ref.Run.Checksum * 3);
  EXPECT_GT(O.Stats.GcConcCycles, 10u) << "too few concurrent cycles";

  ExecOptions Rc;
  Rc.Heap.Gc.Backend = rt::GcBackendKind::Rc;
  Rc.Heap.Gc.ZctThreshold = 64;
  Rc.Heap.Gc.Verify = true;
  O = execute(C, "main", Args, Rc);
  ASSERT_TRUE(O.ok()) << O.Error;
  EXPECT_EQ(O.Run.Checksum, Ref.Run.Checksum);
  EXPECT_GT(O.Stats.GcBarrierHits, 2u * 8000) << "pointer stores missed it";
}

//===----------------------------------------------------------------------===//
// The differ's engine leg on arithmetic-boundary programs
//===----------------------------------------------------------------------===//

namespace {

/// Runs one boundary program through every standard differ leg (go oracle
/// on the tree-walker, vm engine law, gofree on both engines, poisoning,
/// gcoff, multi-threaded, parallel GC, rc, concurrent mark) and expects
/// agreement.
void expectDiffsClean(const std::string &Src) {
  fuzz::DiffOptions D;
  D.Args = {};
  D.MtThreads = 2;
  fuzz::DiffResult R = fuzz::diffProgram(Src, D);
  EXPECT_EQ(R.Status, fuzz::DiffStatus::Ok) << R.Failure;
}

} // namespace

TEST(VmDifferTest, StandardLegsIncludeBothEngines) {
  fuzz::DiffOptions D;
  std::vector<fuzz::LegResult> Legs = fuzz::standardLegs(D);
  ASSERT_FALSE(Legs.empty());
  // The oracle stays the tree-walker, explicitly pinned.
  EXPECT_EQ(Legs.front().Name, "go");
  EXPECT_NE(std::find(Legs.front().Flags.begin(), Legs.front().Flags.end(),
                      "--engine=ast"),
            Legs.front().Flags.end());
  auto HasLeg = [&](const char *Name) {
    for (const fuzz::LegResult &L : Legs)
      if (L.Name == Name)
        return true;
    return false;
  };
  EXPECT_TRUE(HasLeg("vm"));
  EXPECT_TRUE(HasLeg("gofree-ast"));
}

TEST(VmDifferTest, ArithmeticBoundariesDiffClean) {
  expectDiffsClean("func main() {\n"
                   "  min := -9223372036854775807 - 1\n"
                   "  m1 := -1\n"
                   "  sink(min / m1)\n"
                   "  sink(min % m1)\n"
                   "  sink(min * -1)\n"
                   "  sink(-min)\n"
                   "}\n");
  expectDiffsClean("func main() {\n"
                   "  x := 9223372036854775807\n"
                   "  for i := 0; i < 4; i = i + 1 {\n"
                   "    x = x * 31 + 7\n"
                   "    sink(x)\n"
                   "  }\n"
                   "}\n");
}

TEST(VmDifferTest, DivideByZeroDiffsClean) {
  // Every leg must agree on the fault string, engines included.
  expectDiffsClean("func main() {\n"
                   "  z := 0\n"
                   "  sink(5 / z)\n"
                   "}\n");
}
