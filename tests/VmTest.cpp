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
/// must not change behavior), module sharing across mutator threads, and
/// the int64 boundary arithmetic the paper's Go semantics require.
///
//===----------------------------------------------------------------------===//

#include "compiler/Pipeline.h"
#include "fuzz/Differ.h"
#include "vm/Compiler.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <algorithm>

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
  // && / || become peek-jumps over the right operand; there is no
  // short-circuit "operator" at runtime.
  Compilation C = compiled("func main() {\n"
                           "  a := true\n"
                           "  b := false\n"
                           "  if a && b { sink(1) }\n"
                           "  if a || b { sink(2) }\n"
                           "}\n");
  vm::Module M = vm::compileProgram(*C.Prog);
  std::string Listing = vm::disassemble(M);
  EXPECT_NE(Listing.find("jfalse.peek"), std::string::npos);
  EXPECT_NE(Listing.find("jtrue.peek"), std::string::npos);
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
  for (const char *Op : {"jnot.lt", "jnot.le", "jnot.gt", "jnot.ge"})
    EXPECT_NE(Listing.find(Op), std::string::npos) << Op << "\n" << Listing;
  // == is not an ordered comparison: it keeps eq + jfalse.
  EXPECT_NE(Listing.find("jfalse"), std::string::npos) << Listing;
  for (int64_t N : {0, 1, 4, 6, 9, 12})
    expectEngineEquivalence(Src, {N});
}

TEST(VmCompilerTest, ChunkRecordsMaxOperandDepth) {
  // sink(a + (b + (c + d))) holds four operands at once.
  Compilation C = compiled("func main() {\n"
                           "  a := 1\n  b := 2\n  c := 3\n  d := 4\n"
                           "  sink(a + (b + (c + d)))\n"
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
// The differ's engine leg on arithmetic-boundary programs
//===----------------------------------------------------------------------===//

namespace {

/// Runs one boundary program through every standard differ leg (go oracle
/// on the tree-walker, vm engine law, gofree on both engines, poisoning,
/// gcoff, migration, multi-threaded, parallel GC) and expects agreement.
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
