//===- fuzz/Fuzzer.h - Differential fuzzing campaign driver ----*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ties the generator, the differential oracle and the reducer into one
/// campaign: for each seed derive a program shape, generate, diff all
/// legs, and on the first failure greedily reduce the program while the
/// same failure class reproduces. This is what `gofree fuzz` and the
/// fuzz_smoke test run.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_FUZZ_FUZZER_H
#define GOFREE_FUZZ_FUZZER_H

#include "fuzz/Differ.h"
#include "fuzz/ProgramGen.h"

#include <cstdint>
#include <cstdio>
#include <string>

namespace gofree {
namespace fuzz {

struct FuzzOptions {
  uint64_t Seed = 1; ///< First seed; seeds Seed..Seed+Count-1 are run.
  int Count = 100;
  int MtThreads = 3; ///< Worker count for the MT legs (<=1 drops them).
  bool Reduce = true;
  /// Progress/report stream; null is silent (the library default -- tests
  /// read the report struct instead).
  FILE *Out = nullptr;
};

struct FuzzReport {
  int Ran = 0;
  int Passed = 0;
  int FuelSkipped = 0;

  /// Set on the first failing seed (the campaign stops there so the
  /// artifacts below always describe one failure).
  int Failures = 0;
  int FrontendRejected = 0; ///< Generator bugs, counted as failures.
  uint64_t FailingSeed = 0;
  std::string FailingProgram;
  std::string Failure;
  std::string Reduced; ///< Reduced reproducer (empty when !Reduce).

  bool ok() const { return Failures == 0 && FrontendRejected == 0; }
};

/// The deterministic seed -> program-shape map: every consumer (CLI,
/// tests, check.sh corpus) sees the same program for the same seed.
GenOptions genOptionsForSeed(uint64_t Seed);
/// Entry-function argument for a seed (the program's `n`).
std::vector<int64_t> argsForSeed(uint64_t Seed);
/// The DiffOptions a campaign uses for one seed.
DiffOptions diffOptionsForSeed(uint64_t Seed, int MtThreads);

/// Runs the campaign; stops at the first failure (after reducing it).
FuzzReport runFuzz(const FuzzOptions &Opts);

} // namespace fuzz
} // namespace gofree

#endif // GOFREE_FUZZ_FUZZER_H
