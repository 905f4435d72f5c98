//===- fuzz/Differ.cpp - Differential oracle over pipeline legs -----------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Differ.h"

#include "compiler/Driver.h"
#include "runtime/HeapStats.h"

#include <cassert>

using namespace gofree;
using namespace gofree::fuzz;
using compiler::driver::PipelineOptions;

namespace {

bool startsWith(const std::string &S, const char *Prefix) {
  return S.rfind(Prefix, 0) == 0;
}

bool isCompileError(const compiler::ExecOutcome &O) {
  return startsWith(O.Error, "compile error:");
}

bool isInvariantViolation(const compiler::ExecOutcome &O) {
  return O.Error.find("heap invariant violation") != std::string::npos;
}

std::string hex64(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)V);
  return Buf;
}

} // namespace

std::vector<LegResult> gofree::fuzz::standardLegs(const DiffOptions &Opts) {
  // Common flags come after each leg's own, and --gc tokens only touch the
  // keys they mention, so a leg's backend choice composes with the shared
  // min-trigger/verify settings.
  std::vector<std::string> Common = {
      "--max-steps=" + std::to_string(Opts.MaxSteps),
      "--gc=min-trigger=" + std::to_string(Opts.GcMinTrigger) +
          (Opts.Verify ? ",verify=1" : ""),
  };

  auto Leg = [&](const char *Name, std::vector<std::string> Flags,
                 int Factor = 1) {
    LegResult L;
    L.Name = Name;
    L.Flags = std::move(Flags);
    L.Flags.insert(L.Flags.end(), Common.begin(), Common.end());
    L.Factor = Factor;
    return L;
  };

  std::vector<LegResult> Legs;
  // The reference leg MUST stay first: stock Go, no frees at all, executed
  // by the tree-walking interpreter -- the oracle both compilers and both
  // engines are measured against.
  Legs.push_back(Leg("go", {"--mode=go", "--engine=ast"}));
  // Engine law: the bytecode VM must reproduce the tree-walker's
  // observables bit for bit on the very same compilation.
  Legs.push_back(Leg("vm", {"--mode=go", "--engine=vm"}));
  // The remaining legs run on the default engine (the VM); gofree-ast
  // re-checks the instrumented pipeline on the tree-walker so an
  // engine-specific tcfree bug cannot hide behind a matching pair.
  Legs.push_back(Leg("gofree", {"--mode=gofree"}));
  Legs.push_back(Leg("gofree-ast", {"--mode=gofree", "--engine=ast"}));
  Legs.push_back(Leg("gofree-all", {"--mode=gofree", "--targets=all"}));
  // Poisoning legs: tcfree "succeeds" but scribbles on the object instead
  // of freeing it. Soundness says observables cannot change.
  Legs.push_back(Leg("gofree-zero", {"--mode=gofree", "--mock=zero"}));
  Legs.push_back(
      Leg("gofree-flip", {"--mode=gofree", "--targets=all", "--mock=flip"}));
  Legs.push_back(Leg("gofree-gcoff", {"--mode=gofree", "--gc=gogc=-1"}));
  const std::string Threads = "--num-threads=" + std::to_string(Opts.MtThreads);
  if (Opts.MtThreads > 1)
    Legs.push_back(
        Leg("gofree-mt", {"--mode=gofree", Threads}, Opts.MtThreads));
  // Parallel mark + lazy sweep: observables must not depend on how many
  // workers marked or when spans got swept.
  Legs.push_back(Leg("gofree-par", {"--mode=gofree", "--gc=workers=4"}));
  // The rc backend: a low drain threshold forces many ZCT drains per seed,
  // and observables still may not depend on which collector reclaimed the
  // garbage.
  Legs.push_back(
      Leg("gofree-rc", {"--mode=gofree", "--gc=rc,zct-threshold=256"}));
  // Concurrent tricolor marking under real mutators: while one thread's
  // collection marks with two workers, the others keep running, storing
  // through the write barrier and taking tcfree's GcRunning give-up.
  // Observables may depend on neither -- a skipped free is just garbage
  // the next cycle collects. (A cycle opens its window only while another
  // mutator is registered, so a one-mutator leg would have none.)
  if (Opts.MtThreads > 1)
    Legs.push_back(Leg("gofree-conc",
                       {"--mode=gofree", Threads, "--gc=workers=2,conc=1"},
                       Opts.MtThreads));
  return Legs;
}

namespace {

/// Every tcfree call must land in exactly one bucket: freed (by source,
/// including the map-growth frees that route through tcfreeObject), or
/// given up (by reason, with Mock counted as its own bucket). A leg that
/// leaks a call -- most plausibly a give-up path that forgot its counter
/// while racing a concurrent mark -- is a real bug even when observables
/// agree, same as an invariant violation.
std::string checkTcfreeAccounting(const LegResult &L) {
  const rt::StatsSnapshot &S = L.Outcome.Stats;
  uint64_t Accounted = 0;
  for (uint64_t C : S.TcfreeGiveUpsByReason)
    Accounted += C;
  for (uint64_t C : S.FreedCountBySource)
    Accounted += C;
  if (S.TcfreeCalls != Accounted)
    return "tcfree accounting leak: " + std::to_string(S.TcfreeCalls) +
           " calls but " + std::to_string(Accounted) +
           " accounted (give-ups by reason + freed by source)";
  return "";
}

} // namespace

DiffResult gofree::fuzz::diffProgram(const std::string &Source,
                                     const DiffOptions &Opts) {
  DiffResult R;
  R.Legs = standardLegs(Opts);

  for (LegResult &L : R.Legs) {
    PipelineOptions P;
    std::string Err;
    bool Parsed = compiler::driver::parseFlags(L.Flags, P, &Err);
    assert(Parsed && "standardLegs emitted a flag parseFlags rejects");
    (void)Parsed;
    L.Outcome = compiler::driver::compileAndRun(Source, P, Opts.Args);
  }

  const LegResult &Ref = R.Legs.front();

  // Frontend split: all legs share one frontend, so either every leg
  // rejects (a generator bug, reported as such) or none does.
  if (isCompileError(Ref.Outcome)) {
    for (const LegResult &L : R.Legs)
      if (!isCompileError(L.Outcome)) {
        R.Status = DiffStatus::Mismatch;
        R.Failure = "compile split: leg 'go' rejected the program but leg '" +
                    L.Name + "' compiled it";
        return R;
      }
    R.Status = DiffStatus::FrontendRejected;
    R.Failure = Ref.Outcome.Error;
    return R;
  }
  for (const LegResult &L : R.Legs) {
    if (isCompileError(L.Outcome)) {
      R.Status = DiffStatus::Mismatch;
      R.Failure = "compile split: leg '" + L.Name +
                  "' rejected a program the 'go' leg compiled: " +
                  L.Outcome.Error;
      return R;
    }
    if (isInvariantViolation(L.Outcome)) {
      R.Status = DiffStatus::Mismatch;
      R.Failure = "leg '" + L.Name + "': " + L.Outcome.Error;
      return R;
    }
    std::string Leak = checkTcfreeAccounting(L);
    if (!Leak.empty()) {
      R.Status = DiffStatus::Mismatch;
      R.Failure = "leg '" + L.Name + "': " + Leak;
      return R;
    }
  }

  // Fuel: legs burn steps at different rates (tcfree statements cost
  // fuel), so any out-of-fuel leg makes observables incomparable.
  for (const LegResult &L : R.Legs)
    if (L.Outcome.Run.OutOfFuel) {
      R.Status = DiffStatus::FuelSkipped;
      R.Failure = "leg '" + L.Name + "' ran out of fuel";
      return R;
    }

  R.Failure = firstDivergence(R);
  if (!R.Failure.empty())
    R.Status = DiffStatus::Mismatch;
  return R;
}

std::string gofree::fuzz::firstDivergence(const DiffResult &R) {
  const interp::RunResult &G = R.Legs.front().Outcome.Run;
  for (size_t I = 1; I < R.Legs.size(); ++I) {
    const LegResult &L = R.Legs[I];
    const interp::RunResult &O = L.Outcome.Run;
    uint64_t F = (uint64_t)L.Factor;
    std::string What;
    if (O.Panicked != G.Panicked)
      What = std::string("panicked=") + (O.Panicked ? "true" : "false") +
             ", go panicked=" + (G.Panicked ? "true" : "false");
    else if (G.Panicked && O.PanicValue != G.PanicValue)
      What = "panic value " + std::to_string(O.PanicValue) + ", go " +
             std::to_string(G.PanicValue);
    else if (O.Error != G.Error)
      What = "runtime fault '" + O.Error + "', go '" + G.Error + "'";
    else if (O.Checksum != G.Checksum * F)
      What = "checksum " + hex64(O.Checksum) + ", expected " +
             hex64(G.Checksum * F) +
             (F > 1 ? " (go x " + std::to_string(L.Factor) + ")" : "");
    else if (O.SinkCount != G.SinkCount * F)
      What = "sinks " + std::to_string(O.SinkCount) + ", expected " +
             std::to_string(G.SinkCount * F);
    if (!What.empty())
      return "leg '" + L.Name + "' diverged from 'go': " + What;
  }
  return "";
}
