//===- tests/PropertyTest.cpp - Property tests over generated programs ----===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Property-based sweeps over randomly generated (but always well-typed)
// MiniGo programs. The invariants:
//
//   1. Go and GoFree builds produce identical observable behavior.
//   2. A poisoning tcfree never changes behavior (no live object freed).
//   3. Aggressive GC pacing never changes behavior (precise root scanning).
//   4. ToFree implies complete, not outlived, and points-to-heap, and is
//      never granted to parameters or escaped variables.
//   5. The solver is deterministic.
//
//===----------------------------------------------------------------------===//

#include "compiler/Pipeline.h"
#include "escape/Diagnostics.h"
#include "workloads/Synth.h"

#include <gtest/gtest.h>

using namespace gofree;
using namespace gofree::compiler;
using namespace gofree::escape;
using namespace gofree::workloads;

namespace {

std::string sourceFor(uint64_t Seed) {
  SynthOptions SO;
  SO.Seed = Seed;
  SO.NumFuncs = 10;
  SO.StmtsPerFunc = 28;
  return synthProgram(SO);
}

} // namespace

class SynthPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SynthPropertyTest, GoFreeBehaviorMatchesGo) {
  std::string Src = sourceFor(GetParam());
  CompileOptions GoOpts;
  GoOpts.Mode = CompileMode::Go;
  Compilation Go = compile(Src, GoOpts);
  Compilation Free = compile(Src, {});
  ASSERT_TRUE(Go.ok() && Free.ok()) << Free.Errors;
  ExecOutcome A = execute(Go, "main", {35});
  ExecOutcome B = execute(Free, "main", {35});
  ASSERT_TRUE(A.Run.ok()) << A.Run.Error;
  ASSERT_TRUE(B.Run.ok()) << B.Run.Error;
  EXPECT_EQ(A.Run.Checksum, B.Run.Checksum);
  EXPECT_EQ(A.Run.SinkCount, B.Run.SinkCount);
}

TEST_P(SynthPropertyTest, PoisoningTcfreeIsInvisible) {
  std::string Src = sourceFor(GetParam());
  Compilation Free = compile(Src, {});
  ASSERT_TRUE(Free.ok());
  ExecOutcome Clean = execute(Free, "main", {35});
  for (rt::MockTcfree Mock : {rt::MockTcfree::Zero, rt::MockTcfree::Flip}) {
    ExecOptions EO;
    EO.Heap.Mock = Mock;
    ExecOutcome Poisoned = execute(Free, "main", {35}, EO);
    ASSERT_TRUE(Poisoned.Run.ok()) << Poisoned.Run.Error;
    EXPECT_EQ(Clean.Run.Checksum, Poisoned.Run.Checksum)
        << "seed " << GetParam() << ": live object freed";
  }
}

TEST_P(SynthPropertyTest, AggressiveGcPacingIsInvisible) {
  std::string Src = sourceFor(GetParam());
  Compilation Free = compile(Src, {});
  ASSERT_TRUE(Free.ok());
  ExecOutcome Relaxed = execute(Free, "main", {25});
  ExecOptions Tight;
  Tight.Heap.Gc.MinHeapTrigger = 8 * 1024; // Collect almost constantly.
  ExecOutcome Stressed = execute(Free, "main", {25}, Tight);
  ASSERT_TRUE(Stressed.Run.ok()) << Stressed.Run.Error;
  EXPECT_EQ(Relaxed.Run.Checksum, Stressed.Run.Checksum);
  EXPECT_GE(Stressed.Stats.GcCycles, Relaxed.Stats.GcCycles);
}

TEST_P(SynthPropertyTest, ToFreeInvariants) {
  std::string Src = sourceFor(GetParam());
  Compilation C = compile(Src, {});
  ASSERT_TRUE(C.ok());
  for (const BuildResult &Build : C.Analysis.FuncGraphs) {
    for (const Location &L : Build.Graph.locations()) {
      if (!L.ToFree)
        continue;
      EXPECT_FALSE(L.incomplete()) << L.name();
      EXPECT_FALSE(L.Outlived) << L.name();
      EXPECT_TRUE(L.PointsToHeap) << L.name();
      if (L.Var) {
        EXPECT_FALSE(L.Var->IsParam) << L.name();
      }
    }
  }
  // Every variable scheduled for freeing carries the ToFree property.
  for (const minigo::FuncDecl *Fn : C.Prog->Funcs) {
    const BuildResult &Build = C.Analysis.FuncGraphs[Fn->Index];
    for (const minigo::VarDecl *V : Fn->AllVars) {
      if (V->ToFree) {
        EXPECT_TRUE(Build.Graph.loc(Build.varLoc(V)).ToFree) << V->Name;
      }
    }
  }
}

TEST_P(SynthPropertyTest, AnalysisIsDeterministic) {
  std::string Src = sourceFor(GetParam());
  Compilation A = compile(Src, {});
  Compilation B = compile(Src, {});
  ASSERT_TRUE(A.ok() && B.ok());
  EXPECT_EQ(escape::stackSiteIds(*A.Prog, A.Analysis),
            escape::stackSiteIds(*B.Prog, B.Analysis));
  auto ToFreeCount = [](const Compilation &C) {
    size_t N = 0;
    for (const minigo::FuncDecl *Fn : C.Prog->Funcs)
      for (const minigo::VarDecl *V : Fn->AllVars)
        N += V->ToFree;
    return N;
  };
  EXPECT_EQ(ToFreeCount(A), ToFreeCount(B));
  EXPECT_EQ(A.Instr.total(), B.Instr.total());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthPropertyTest,
                         ::testing::Range<uint64_t>(1, 16));

//===----------------------------------------------------------------------===//
// Cross-cutting: the full pipeline under one aggressive configuration
//===----------------------------------------------------------------------===//

TEST(StressTest, TightHeapManySeeds) {
  // Tiny GC trigger + poisoning tcfree + every seed: the harshest
  // combination must still be invisible.
  for (uint64_t Seed = 100; Seed < 106; ++Seed) {
    SynthOptions SO;
    SO.Seed = Seed;
    SO.NumFuncs = 8;
    SO.StmtsPerFunc = 35;
    std::string Src = synthProgram(SO);
    Compilation C = compile(Src, {});
    ASSERT_TRUE(C.ok());
    ExecOutcome Ref = execute(C, "main", {20});
    ExecOptions Harsh;
    Harsh.Heap.Gc.MinHeapTrigger = 4 * 1024;
    Harsh.Heap.Mock = rt::MockTcfree::Flip;
    ExecOutcome Out = execute(C, "main", {20}, Harsh);
    ASSERT_TRUE(Out.Run.ok()) << "seed " << Seed << ": " << Out.Run.Error;
    EXPECT_EQ(Ref.Run.Checksum, Out.Run.Checksum) << "seed " << Seed;
  }
}

TEST(StressTest, DeepCallChains) {
  SynthOptions SO;
  SO.Seed = 42;
  SO.NumFuncs = 60; // One long call chain.
  SO.StmtsPerFunc = 10;
  Compilation C = compile(synthProgram(SO), {});
  ASSERT_TRUE(C.ok());
  ExecOutcome O = execute(C, "main", {10});
  ASSERT_TRUE(O.Run.ok()) << O.Run.Error;
  EXPECT_GT(O.Stats.AllocCount, 0u);
}

