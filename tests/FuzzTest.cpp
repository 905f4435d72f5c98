//===- tests/FuzzTest.cpp - Differential fuzzing subsystem tests ----------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for src/fuzz: the generator emits deterministic, well-typed
/// programs; the differ classifies clean runs, fuel exhaustion, frontend
/// rejections, and real divergences; the reducer shrinks under a
/// predicate; heap-invariant verification accepts a live heap; and -- the
/// one that proves the whole loop works -- a mutation test: with
/// GOFREE_FUZZ_UNSOUND injecting an unsound escape-analysis decision, the
/// campaign must catch the bug within the smoke budget and reduce it to a
/// small (<= 30 line) reproducer that diffs clean again once the
/// injection is off.
///
//===----------------------------------------------------------------------===//

#include "compiler/Driver.h"
#include "fuzz/Differ.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/ProgramGen.h"
#include "fuzz/Reducer.h"
#include "runtime/Heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>

using namespace gofree;
using namespace gofree::fuzz;

namespace {

int lineCount(const std::string &S) {
  int N = 0;
  std::istringstream In(S);
  std::string Line;
  while (std::getline(In, Line))
    ++N;
  return N;
}

/// Scoped environment-variable setter for the mutation test.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    ::setenv(Name, Value, 1);
  }
  ~ScopedEnv() { ::unsetenv(Name); }

private:
  const char *Name;
};

} // namespace

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

TEST(ProgramGenTest, Deterministic) {
  GenOptions G = genOptionsForSeed(7);
  EXPECT_EQ(generateProgram(G), generateProgram(G));
}

TEST(ProgramGenTest, SeedsProduceDistinctPrograms) {
  EXPECT_NE(generateProgram(genOptionsForSeed(1)),
            generateProgram(genOptionsForSeed(2)));
}

TEST(ProgramGenTest, AllOptionsOffStillGenerates) {
  GenOptions G;
  G.Seed = 3;
  G.UseMaps = G.UseStructs = G.UsePointers = G.UseDefer = G.UsePanic = false;
  std::string Src = generateProgram(G);
  EXPECT_NE(Src.find("func main(n int)"), std::string::npos);
  EXPECT_EQ(Src.find("map["), std::string::npos);
  EXPECT_EQ(Src.find("defer"), std::string::npos);
  EXPECT_EQ(Src.find("panic"), std::string::npos);
}

TEST(ProgramGenTest, CompilesUnderBothPipelines) {
  // The differ treats a frontend rejection as a generator bug; enforce
  // that directly for a band of seeds in both modes.
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    std::string Src = generateProgram(genOptionsForSeed(Seed));
    for (const char *Mode : {"--mode=go", "--mode=gofree"}) {
      compiler::driver::PipelineOptions P;
      std::string Err;
      ASSERT_TRUE(compiler::driver::parseFlags({Mode}, P, &Err)) << Err;
      compiler::Compilation C = compiler::compile(Src, P.Compile);
      ASSERT_TRUE(C.ok()) << "seed " << Seed << " under " << Mode << ":\n"
                          << C.Errors << "\n"
                          << Src;
    }
  }
}

//===----------------------------------------------------------------------===//
// Differ
//===----------------------------------------------------------------------===//

TEST(DifferTest, StandardLegMatrix) {
  DiffOptions O;
  std::vector<LegResult> Legs = standardLegs(O);
  ASSERT_GE(Legs.size(), 7u);
  // The reference leg must come first; the MT leg must carry its factor.
  EXPECT_EQ(Legs.front().Name, "go");
  bool SawMt = false, SawZero = false, SawFlip = false;
  for (const LegResult &L : Legs) {
    if (L.Factor > 1) {
      SawMt = true;
      EXPECT_EQ(L.Factor, O.MtThreads);
    }
    for (const std::string &F : L.Flags) {
      if (F == "--mock=zero")
        SawZero = true;
      if (F == "--mock=flip")
        SawFlip = true;
    }
  }
  EXPECT_TRUE(SawMt);
  EXPECT_TRUE(SawZero);
  EXPECT_TRUE(SawFlip);
  // The concurrent-mark leg overlaps real mutators, so it runs N threads and
  // goes away with the MT leg when there is only one.
  auto Conc = std::find_if(Legs.begin(), Legs.end(), [](const LegResult &L) {
    return L.Name == "gofree-conc";
  });
  ASSERT_NE(Conc, Legs.end());
  EXPECT_EQ(Conc->Factor, O.MtThreads);
  for (int Threads : {0, 1}) {
    DiffOptions One;
    One.MtThreads = Threads;
    for (const LegResult &L : standardLegs(One)) {
      EXPECT_NE(L.Name, "gofree-conc") << "MtThreads=" << Threads;
      EXPECT_NE(L.Name, "gofree-mt") << "MtThreads=" << Threads;
      EXPECT_EQ(L.Factor, 1) << L.Name;
    }
  }
}

TEST(DifferTest, CleanSeedsDiffOk) {
  for (uint64_t Seed : {1, 2, 5}) {
    std::string Src = generateProgram(genOptionsForSeed(Seed));
    DiffResult R = diffProgram(Src, diffOptionsForSeed(Seed, 2));
    EXPECT_TRUE(R.ok()) << "seed " << Seed << ": " << R.Failure;
    EXPECT_EQ(R.Status, DiffStatus::Ok) << "seed " << Seed << ": " << R.Failure;
  }
}

TEST(DifferTest, TinyFuelIsSkippedNotFailed) {
  DiffOptions O = diffOptionsForSeed(1, 2);
  O.MaxSteps = 50;
  DiffResult R = diffProgram(generateProgram(genOptionsForSeed(1)), O);
  EXPECT_EQ(R.Status, DiffStatus::FuelSkipped) << R.Failure;
  EXPECT_TRUE(R.ok());
}

TEST(DifferTest, FrontendRejectionIsClassified) {
  DiffResult R = diffProgram("func main(", diffOptionsForSeed(1, 0));
  EXPECT_EQ(R.Status, DiffStatus::FrontendRejected);
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.Failure.empty());
}

//===----------------------------------------------------------------------===//
// Reducer
//===----------------------------------------------------------------------===//

TEST(ReducerTest, RemovesIrrelevantLinesAndBlocks) {
  // Synthetic predicate: "fails" while the marker line survives. The
  // reducer should strip everything else, including whole blocks and the
  // wrappers around the marker.
  std::string Src = "a := 1\n"
                    "if a > 0 {\n"
                    "  b := 2\n"
                    "  sink(b)\n"
                    "}\n"
                    "for i := 0; i < 3; i = i + 1 {\n"
                    "  MARKER\n"
                    "}\n"
                    "c := 3\n"
                    "sink(c)\n";
  auto StillFails = [](const std::string &S) {
    return S.find("MARKER") != std::string::npos;
  };
  std::string Out = reduceProgram(Src, StillFails);
  EXPECT_TRUE(StillFails(Out));
  EXPECT_LE(lineCount(Out), 2); // MARKER, possibly one wrapper remnant.
  EXPECT_EQ(Out.find("sink"), std::string::npos);
}

TEST(ReducerTest, RespectsAttemptBudget) {
  std::string Src;
  for (int I = 0; I < 200; ++I)
    Src += "line" + std::to_string(I) + "\n";
  int Calls = 0;
  ReduceOptions RO;
  RO.MaxAttempts = 10;
  std::string Out = reduceProgram(
      Src,
      [&](const std::string &) {
        ++Calls;
        return true; // Everything "fails": reduction would go to 1 line.
      },
      RO);
  EXPECT_LE(Calls, 10 + 1);
  EXPECT_GT(lineCount(Out), 1); // Budget stopped it early.
}

//===----------------------------------------------------------------------===//
// Heap invariant verification
//===----------------------------------------------------------------------===//

TEST(HeapVerifyTest, LiveHeapPassesVerification) {
  rt::HeapOptions HO;
  HO.Gc.Verify = true;
  rt::Heap H(HO);
  std::vector<uintptr_t> Objs;
  for (int I = 0; I < 200; ++I)
    Objs.push_back(H.allocate(16 + 8 * (I % 13), nullptr,
                              rt::AllocCat::Other, 0));
  // Free some through the tcfree path, then re-verify: freed slots must
  // not break the span accounting.
  for (size_t I = 0; I < Objs.size(); I += 3)
    H.tcfreeObject(Objs[I], 0, rt::FreeSource::TcfreeObject);
  std::string Report;
  EXPECT_TRUE(H.verifyInvariants(&Report)) << Report;
  EXPECT_TRUE(H.invariantFailure().empty()) << H.invariantFailure();
}

//===----------------------------------------------------------------------===//
// End-to-end campaigns
//===----------------------------------------------------------------------===//

TEST(FuzzCampaignTest, CleanCampaignPasses) {
  FuzzOptions FO;
  FO.Seed = 1;
  FO.Count = 10;
  FO.MtThreads = 2;
  FuzzReport R = runFuzz(FO);
  EXPECT_TRUE(R.ok()) << "seed " << R.FailingSeed << ": " << R.Failure << "\n"
                      << R.FailingProgram;
  EXPECT_EQ(R.Ran, 10);
  EXPECT_EQ(R.Passed + R.FuelSkipped, 10);
}

TEST(FuzzCampaignTest, MutationTestCatchesInjectedUnsoundness) {
  // The escape solver honors GOFREE_FUZZ_UNSOUND by skipping the Outlived
  // check (src/escape/Solver.cpp), i.e. it deliberately frees escaping
  // allocations. The differential campaign must catch that within the
  // smoke budget and reduce it to a small reproducer.
  FuzzReport R;
  {
    ScopedEnv Env("GOFREE_FUZZ_UNSOUND", "1");
    FuzzOptions FO;
    FO.Seed = 1;
    FO.Count = 40;
    FO.MtThreads = 2;
    FO.Reduce = true;
    R = runFuzz(FO);
    EXPECT_GT(R.Failures, 0) << "injected bug not caught in 40 seeds";
    EXPECT_EQ(R.FrontendRejected, 0);
    ASSERT_FALSE(R.Reduced.empty());
    EXPECT_LE(lineCount(R.Reduced), 30)
        << "reducer left a large reproducer:\n"
        << R.Reduced;
    // The reproducer itself must still fail under the injection.
    DiffResult Still =
        diffProgram(R.Reduced, diffOptionsForSeed(R.FailingSeed, 2));
    EXPECT_EQ(Still.Status, DiffStatus::Mismatch) << Still.Failure;
  }
  // Injection off: the same reproducer must diff clean, proving the
  // failure was the injected unsoundness and not a generator artifact.
  DiffResult Clean =
      diffProgram(R.Reduced, diffOptionsForSeed(R.FailingSeed, 2));
  EXPECT_TRUE(Clean.ok()) << Clean.Failure;
}
