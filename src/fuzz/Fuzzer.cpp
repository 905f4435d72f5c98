//===- fuzz/Fuzzer.cpp - Differential fuzzing campaign driver -------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "fuzz/Reducer.h"
#include "support/Rng.h"

using namespace gofree;
using namespace gofree::fuzz;

GenOptions gofree::fuzz::genOptionsForSeed(uint64_t Seed) {
  // A distinct stream from the generator's own (which hashes Seed through
  // the same SplitMix64 but from statement one): perturb so shape bits and
  // statement bits never correlate.
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  GenOptions G;
  G.Seed = Seed;
  G.NumFuncs = (int)R.range(4, 12);
  G.StmtsPerFunc = (int)R.range(6, 14);
  G.UseMaps = R.chance(0.8);
  G.UseStructs = R.chance(0.85);
  G.UsePointers = R.chance(0.85);
  G.UseDefer = R.chance(0.7);
  G.UsePanic = R.chance(0.35);
  return G;
}

std::vector<int64_t> gofree::fuzz::argsForSeed(uint64_t Seed) {
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 0xa265);
  return {R.range(5, 17)};
}

DiffOptions gofree::fuzz::diffOptionsForSeed(uint64_t Seed, int MtThreads) {
  DiffOptions D;
  D.Args = argsForSeed(Seed);
  D.MtThreads = MtThreads;
  return D;
}

FuzzReport gofree::fuzz::runFuzz(const FuzzOptions &Opts) {
  FuzzReport Rep;
  for (int K = 0; K < Opts.Count; ++K) {
    uint64_t Seed = Opts.Seed + (uint64_t)K;
    GenOptions G = genOptionsForSeed(Seed);
    std::string Prog = generateProgram(G);
    DiffOptions D = diffOptionsForSeed(Seed, Opts.MtThreads);
    DiffResult R = diffProgram(Prog, D);
    ++Rep.Ran;

    switch (R.Status) {
    case DiffStatus::Ok:
      ++Rep.Passed;
      break;
    case DiffStatus::FuelSkipped:
      ++Rep.FuelSkipped;
      if (Opts.Out)
        std::fprintf(Opts.Out, "seed %llu: skipped (%s)\n",
                     (unsigned long long)Seed, R.Failure.c_str());
      break;
    case DiffStatus::FrontendRejected:
    case DiffStatus::Mismatch: {
      bool Frontend = R.Status == DiffStatus::FrontendRejected;
      if (Frontend)
        ++Rep.FrontendRejected;
      ++Rep.Failures;
      Rep.FailingSeed = Seed;
      Rep.FailingProgram = Prog;
      Rep.Failure = R.Failure;
      if (Opts.Out) {
        std::fprintf(Opts.Out, "seed %llu: FAIL: %s\n",
                     (unsigned long long)Seed, R.Failure.c_str());
        for (const LegResult &L : R.Legs) {
          std::string Flags;
          for (const std::string &F : L.Flags)
            Flags += " " + F;
          std::string Err =
              L.Outcome.ok() ? "" : " error: " + L.Outcome.Error;
          std::fprintf(Opts.Out, "  leg %-12s checksum=%016llx sinks=%llu%s\n",
                       L.Name.c_str(),
                       (unsigned long long)L.Outcome.Run.Checksum,
                       (unsigned long long)L.Outcome.Run.SinkCount,
                       Err.c_str());
          std::fprintf(Opts.Out, "    repro: gofree%s run <prog>\n",
                       Flags.c_str());
        }
      }
      if (Opts.Reduce) {
        // Keep the failure *class* fixed while shrinking: a mismatch must
        // stay a mismatch (a candidate that merely stops compiling is
        // FrontendRejected and therefore rejected), an observable
        // divergence must stay one (a verify-only failure such as the rc
        // count check needs a drain, so it keeps programs large), and a
        // generator bug must keep being rejected by the frontend.
        bool Diverged = !firstDivergence(R).empty();
        auto StillFails = [&](const std::string &Cand) {
          DiffResult CR = diffProgram(Cand, D);
          if (Frontend)
            return CR.Status == DiffStatus::FrontendRejected;
          return CR.Status == DiffStatus::Mismatch &&
                 (!Diverged || !firstDivergence(CR).empty());
        };
        Rep.Reduced = reduceProgram(Prog, StillFails);
        if (Opts.Out)
          std::fprintf(Opts.Out, "reduced reproducer:\n%s",
                       Rep.Reduced.c_str());
      }
      return Rep; // stop at the first failure
    }
    }
    if (Opts.Out && (K + 1) % 25 == 0)
      std::fprintf(Opts.Out, "fuzz: %d/%d seeds ok (%d fuel-skipped)\n",
                   K + 1, Opts.Count, Rep.FuelSkipped);
  }
  if (Opts.Out)
    std::fprintf(Opts.Out,
                 "fuzz: %d seeds, %d passed, %d fuel-skipped, 0 failures\n",
                 Rep.Ran, Rep.Passed, Rep.FuelSkipped);
  return Rep;
}
