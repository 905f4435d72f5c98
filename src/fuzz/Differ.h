//===- fuzz/Differ.h - Differential oracle over pipeline legs --*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzzer's oracle. One MiniGo program is run through several pipeline
/// "legs" -- stock Go on the tree-walking interpreter (the reference),
/// stock Go on the bytecode VM (the engine-equivalence law), GoFree with
/// the default and the aggressive target set, GoFree back on the
/// tree-walker, GoFree with zero/flip mock-tcfree poisoning, GoFree with
/// GC disabled, and with N real mutator threads (also under concurrent
/// mark) -- and their observables are compared:
///
///  - checksum, sink count, panic flag/value and runtime-fault string must
///    match the Go leg exactly (the multi-threaded legs run the entry N
///    times, so their checksum/sinks must be exactly N x the reference,
///    wrapping);
///  - the poisoning legs encode the paper's soundness claim: a tcfree that
///    merely *poisons* instead of freeing must never change observables,
///    because a correctly-inserted tcfree only ever touches dead memory;
///  - every leg runs with HeapOptions::Verify, so a heap-invariant
///    violation in any leg is a failure even when observables agree.
///
/// Each leg is built from driver::parseFlag flag strings, which the result
/// carries verbatim: any leg of a fuzz report can be reproduced with
/// `gofree <those flags> run prog.minigo`.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_FUZZ_DIFFER_H
#define GOFREE_FUZZ_DIFFER_H

#include "compiler/Pipeline.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gofree {
namespace fuzz {

struct DiffOptions {
  /// Arguments for the entry function (one int for generated programs).
  std::vector<int64_t> Args = {9};
  /// Worker count for the multi-threaded legs (0 or 1 drops them).
  int MtThreads = 3;
  /// Fuel per leg. Generated programs have Fibonacci-bounded call trees
  /// that stay far under this; a leg that still runs out is recorded as
  /// FuelSkipped, not as a divergence (legs burn fuel at different rates).
  uint64_t MaxSteps = 20'000'000;
  /// Small GC trigger so every leg actually cycles its collector.
  uint64_t GcMinTrigger = 64 << 10;
  /// Run every leg with heap-invariant checking at GC safepoints.
  bool Verify = true;
};

/// One pipeline leg: a name, the driver flag strings that configure it
/// (reproducible from the CLI), and the expected checksum/sink multiplier
/// relative to the reference leg (1 except for the multi-threaded legs).
struct LegResult {
  std::string Name;
  std::vector<std::string> Flags;
  int Factor = 1;
  compiler::ExecOutcome Outcome;
};

enum class DiffStatus : uint8_t {
  Ok,               ///< All legs agree (and no invariant violations).
  FuelSkipped,      ///< A leg ran out of fuel; observables incomparable.
  FrontendRejected, ///< The program didn't compile: a *generator* bug.
  Mismatch,         ///< Divergence, invariant violation, or compile split.
};

struct DiffResult {
  DiffStatus Status = DiffStatus::Ok;
  /// Human-readable description of the first divergence (Mismatch) or the
  /// frontend diagnostics (FrontendRejected).
  std::string Failure;
  std::vector<LegResult> Legs;

  /// FuelSkipped counts as ok: it is tracked, not failed.
  bool ok() const {
    return Status == DiffStatus::Ok || Status == DiffStatus::FuelSkipped;
  }
};

/// The leg matrix for \p Opts, outcomes not yet filled in.
std::vector<LegResult> standardLegs(const DiffOptions &Opts);

/// Runs \p Source through every standard leg and compares observables.
DiffResult diffProgram(const std::string &Source, const DiffOptions &Opts);

/// Describes the first leg of \p R whose observables (panic, runtime
/// fault, checksum, sink count) differ from the reference leg's, scaled
/// by the leg's Factor; empty when they all agree.
std::string firstDivergence(const DiffResult &R);

} // namespace fuzz
} // namespace gofree

#endif // GOFREE_FUZZ_DIFFER_H
