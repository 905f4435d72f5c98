//===- tests/PipelineTest.cpp - Public API contract tests -----------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// The compile()/execute() entry points are the library's public surface;
// these tests pin their error handling and option plumbing, and what a
// compile costs: its allocations and the coverage of its pass times.
//
//===----------------------------------------------------------------------===//

#include "CountingNew.h"
#include "compiler/Pipeline.h"
#include "support/Trace.h"
#include "workloads/Synth.h"

#include <gtest/gtest.h>

#include <chrono>

using namespace gofree;
using namespace gofree::compiler;

namespace {
/// The 2 MB program of perfbench's compile workload: 600 functions of 60
/// statements.
const std::string &bigProgram() {
  static const std::string Src = [] {
    workloads::SynthOptions SO;
    SO.NumFuncs = 600;
    SO.StmtsPerFunc = 60;
    SO.Seed = 12345;
    return workloads::synthProgram(SO);
  }();
  return Src;
}
} // namespace

TEST(PipelineTest, CompileAllocatesPerFunctionAndFreesAll) {
  // The AST, its lists and names live in the program's arena and the
  // escape analysis reuses its buffers and records its decisions on the
  // AST, so a compile allocates per function, not per node: 16,044 times
  // for these 600 functions. Nothing in the arena owns heap memory, so
  // destroying the compilation frees all of it.
  const std::string &Src = bigProgram();
  { Compilation Warm = compile("func main() {}\n"); } // First-use statics.
  using counting_new::DeleteCalls;
  using counting_new::NewCalls;
  uint64_t News = NewCalls, Deletes = DeleteCalls;
  uint64_t CompileNews;
  bool Ok;
  {
    Compilation C = compile(Src);
    Ok = C.ok();
    CompileNews = NewCalls - News;
  }
  uint64_t Leaked = (NewCalls - News) - (DeleteCalls - Deletes);
  ASSERT_TRUE(Ok);
  EXPECT_LE(CompileNews, 17000u);
  EXPECT_EQ(Leaked, 0u);
}

TEST(PipelineTest, PassTimesCoverCompile) {
  // The seven pass times account for the wall time of compile(): the call
  // graph, tag extraction and the bookkeeping between passes belong to a
  // pass too. Best of five, to step around a busy host.
  const std::string &Src = bigProgram();
  double Best = 0;
  for (int I = 0; I < 5; ++I) {
    auto Start = std::chrono::steady_clock::now();
    Compilation C = compile(Src);
    double Wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
    ASSERT_TRUE(C.ok());
    uint64_t Sum = 0;
    for (uint64_t Nanos : C.Passes.Nanos)
      Sum += Nanos;
    Best = std::max(Best, (double)Sum * 1e-9 / Wall);
  }
  EXPECT_GE(Best, 0.95);
}

TEST(PipelineTest, CompileErrorsAreReportedNotThrown) {
  Compilation C = compile("func main( {\n}\n", {});
  EXPECT_FALSE(C.ok());
  EXPECT_FALSE(C.Errors.empty());
  EXPECT_NE(C.Errors.find("expected"), std::string::npos);
}

TEST(PipelineTest, SemanticErrorsIncludePositions) {
  Compilation C = compile("func main() {\n  sink(q)\n}\n", {});
  EXPECT_FALSE(C.ok());
  EXPECT_NE(C.Errors.find("2:"), std::string::npos)
      << "diagnostics carry line numbers: " << C.Errors;
}

TEST(PipelineTest, MissingEntryFunction) {
  Compilation C = compile("func helper() {\n  sink(1)\n}\n", {});
  ASSERT_TRUE(C.ok());
  ExecOutcome O = execute(C, "main");
  EXPECT_FALSE(O.Run.ok());
  EXPECT_NE(O.Run.Error.find("no entry function"), std::string::npos);
}

TEST(PipelineTest, EntryArgumentCountChecked) {
  Compilation C = compile("func main(a int, b int) {\n  sink(a + b)\n}\n", {});
  ASSERT_TRUE(C.ok());
  EXPECT_FALSE(execute(C, "main", {1}).Run.ok());
  EXPECT_TRUE(execute(C, "main", {1, 2}).Run.ok());
}

TEST(PipelineTest, NonMainEntryPoints) {
  Compilation C = compile("func alpha(x int) {\n  sink(x)\n}\n"
                          "func beta(x int) {\n  sink(x * 2)\n}\n",
                          {});
  ASSERT_TRUE(C.ok());
  ExecOutcome A = execute(C, "alpha", {21});
  ExecOutcome B = execute(C, "beta", {21});
  ASSERT_TRUE(A.Run.ok() && B.Run.ok());
  EXPECT_NE(A.Run.Checksum, B.Run.Checksum);
}

TEST(PipelineTest, OneCompilationManyExecutions) {
  // A Compilation is immutable after compile(); executions are isolated
  // (fresh heap each) and deterministic.
  Compilation C = compile("func main(n int) {\n"
                          "  s := make([]int, n)\n"
                          "  for i := range s { s[i] = i }\n"
                          "  total := 0\n"
                          "  for _, v := range s { total += v }\n"
                          "  sink(total)\n"
                          "}\n",
                          {});
  ASSERT_TRUE(C.ok());
  ExecOutcome First = execute(C, "main", {100});
  for (int I = 0; I < 5; ++I) {
    ExecOutcome Again = execute(C, "main", {100});
    EXPECT_EQ(Again.Run.Checksum, First.Run.Checksum);
    EXPECT_EQ(Again.Stats.AllocCount, First.Stats.AllocCount);
  }
  ExecOutcome Different = execute(C, "main", {101});
  EXPECT_NE(Different.Run.Checksum, First.Run.Checksum);
}

TEST(PipelineTest, RcWithSeveralMutatorsIsRefusedBeforeRunning) {
  Compilation C = compile("func main(n int) {\n"
                          "  s := make([]int, n)\n"
                          "  sink(len(s))\n"
                          "}\n",
                          {});
  ASSERT_TRUE(C.ok());
  ExecOptions EO;
  EO.Heap.Gc.Backend = rt::GcBackendKind::Rc;
  EO.NumThreads = 2;
  ExecOutcome O = execute(C, "main", {100}, EO);
  EXPECT_EQ(O.Error, "the rc collector serves exactly one mutator, not 2");
  EXPECT_EQ(O.Run.SinkCount, 0u) << "no worker may run";
  EXPECT_EQ(O.Stats.AllocCount, 0u);
  EO.NumThreads = 1;
  EXPECT_TRUE(execute(C, "main", {100}, EO).ok());
}

TEST(PipelineTest, BlankInitializerCallMatchesGoOnBothEngines) {
  // stash stores s into h; the call's dropped result must not hide that
  // from the escape analysis, or s is freed and t reuses its memory.
  for (const char *Discard : {"_ :=", "_ ="}) {
    std::string Src = std::string("type H struct { s []int\n }\n"
                                  "func stash(h *H, s []int) int {\n"
                                  "  h.s = s\n"
                                  "  return 0\n"
                                  "}\n"
                                  "func main(n int) {\n"
                                  "  h := &H{}\n"
                                  "  {\n"
                                  "    s := make([]int, n)\n"
                                  "    s[0] = n\n"
                                  "    ") +
                      Discard +
                      " stash(h, s)\n"
                      "  }\n"
                      "  t := make([]int, n)\n"
                      "  t[0] = 7\n"
                      "  sink(h.s[0])\n"
                      "}\n";
    CompileOptions GoOpts;
    GoOpts.Mode = CompileMode::Go;
    Compilation Go = compile(Src, GoOpts);
    Compilation Free = compile(Src);
    ASSERT_TRUE(Go.ok() && Free.ok()) << Go.Errors << Free.Errors;
    for (ExecEngine Engine : {ExecEngine::Vm, ExecEngine::Ast}) {
      ExecOptions EO;
      EO.Engine = Engine;
      ExecOutcome G = execute(Go, "main", {5}, EO);
      ExecOutcome F = execute(Free, "main", {5}, EO);
      ASSERT_TRUE(G.Run.ok() && F.Run.ok()) << G.Run.Error << F.Run.Error;
      EXPECT_EQ(F.Run.Checksum, G.Run.Checksum)
          << Discard << " on engine " << (int)Engine;
    }
  }
}

TEST(PipelineTest, GoModeNeverRunsGoFreeRuntimeFrees) {
  CompileOptions CO;
  CO.Mode = CompileMode::Go;
  Compilation C = compile("func main() {\n"
                          "  m := make(map[int]int)\n"
                          "  for i := 0; i < 5000; i++ { m[i] = i }\n"
                          "  sink(len(m))\n"
                          "}\n",
                          CO);
  ASSERT_TRUE(C.ok());
  // Even if the caller asks for the GoFree runtime knobs, Go mode strips
  // them: stock Go has no tcfree at all.
  ExecOptions EO;
  EO.Interp.Map.GrowFreeOld = true;
  EO.Interp.Slice.FreeOldOnGrow = true;
  ExecOutcome O = execute(C, "main", {}, EO);
  ASSERT_TRUE(O.Run.ok());
  EXPECT_EQ(O.Stats.TcfreeCalls, 0u);
  EXPECT_EQ(O.Stats.tcfreeFreedBytes(), 0u);
}

TEST(PipelineTest, WallSecondsAndStatsPopulated) {
  // Variable size keeps the slice on the heap so allocation stats move.
  Compilation C = compile("func main(n int) {\n"
                          "  s := make([]int, n)\n"
                          "  sink(len(s))\n"
                          "}\n",
                          {});
  ASSERT_TRUE(C.ok());
  ExecOutcome O = execute(C, "main", {1000});
  EXPECT_GT(O.WallSeconds, 0.0);
  EXPECT_GT(O.Stats.AllocedBytes, 0u);
  EXPECT_EQ(O.Run.SinkCount, 1u);
}

// Every thread count takes one route: each worker, the lone worker of a
// one-thread run included, is a registered mutator tracing into its own
// hub sink. A one-thread run used to ignore ExecOptions::Hub.
TEST(PipelineTest, OneThreadRunTracesIntoHub) {
  // Short-lived slices (tcfree'd) and a retained slice grown past the
  // small pacing floor, so one run has allocations, frees and GC cycles.
  Compilation C = compile("func work(n int) int {\n"
                          "  s := make([]int, n)\n"
                          "  s[0] = n\n"
                          "  return s[0]\n"
                          "}\n"
                          "func main(rounds int) {\n"
                          "  acc := 0\n"
                          "  keep := make([]int, 0, 4)\n"
                          "  for i := 0; i < rounds; i = i + 1 {\n"
                          "    acc = acc + work(i % 64 + 16)\n"
                          "    keep = append(keep, i)\n"
                          "  }\n"
                          "  sink(acc + len(keep))\n"
                          "}\n",
                          {});
  ASSERT_TRUE(C.ok()) << C.Errors;

  struct Counts {
    uint64_t Tcfree = 0, Alloc = 0, GcCycles = 0;
  };
  auto Run = [&](int Threads) {
    trace::TraceHub Hub;
    ExecOptions EO;
    EO.NumThreads = Threads;
    EO.Hub = &Hub;
    EO.Heap.Gc.MinHeapTrigger = 64 << 10;
    ExecOutcome O = execute(C, "main", {20000}, EO);
    EXPECT_TRUE(O.ok()) << O.Error;
    EXPECT_EQ(Hub.sinkCount(), (size_t)Threads);
    EXPECT_EQ(Hub.dropped(), 0u);
    Counts N;
    bool Freed = false;
    for (const trace::Event &E : Hub.merge()) {
      switch (E.Kind) {
      case trace::EventKind::TcfreeFreed:
        Freed = true;
        ++N.Tcfree;
        break;
      case trace::EventKind::TcfreeGiveUp:
        ++N.Tcfree;
        break;
      case trace::EventKind::HeapAlloc:
      case trace::EventKind::StackAlloc:
        ++N.Alloc;
        break;
      case trace::EventKind::GcCycleEnd:
        ++N.GcCycles;
        break;
      default:
        break;
      }
    }
    EXPECT_TRUE(Freed) << Threads << " threads: no TcfreeFreed event";
    return N;
  };

  Counts One = Run(1);
  EXPECT_GT(One.Alloc, 0u);
  EXPECT_GT(One.Tcfree, 0u);
  EXPECT_GT(One.GcCycles, 0u);
  // Two workers run the same program: every tcfree call and allocation
  // is traced once per worker.
  Counts Two = Run(2);
  EXPECT_EQ(Two.Tcfree, 2 * One.Tcfree);
  EXPECT_EQ(Two.Alloc, 2 * One.Alloc);
}
