//===- compiler/Pipeline.cpp - Source-to-execution pipeline ---------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "compiler/Pipeline.h"

#include "minigo/Frontend.h"
#include "vm/Compiler.h"
#include "vm/Vm.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace gofree;
using namespace gofree::compiler;

namespace {

/// Flattens the run result and any recorded heap-invariant violation into
/// ExecOutcome::Error (see the field comment in Pipeline.h). A panic wins
/// over fuel exhaustion deliberately: a program that panics *is* the
/// observable outcome, while OutOfFuel on top of it is an artifact of
/// where the budget ran out.
void flattenOutcome(ExecOutcome &O, rt::Heap &Heap, bool Verify) {
  if (Verify) {
    std::string Report;
    if (!Heap.verifyInvariants(&Report))
      O.Error = "heap invariant violation (post-run):\n" + Report;
  }
  if (O.Error.empty())
    O.Error = Heap.invariantFailure();
  if (!O.Error.empty())
    return;
  if (O.Run.Panicked)
    O.Error = "panic: " + std::to_string(O.Run.PanicValue);
  else if (!O.Run.Error.empty())
    O.Error = "runtime error: " + O.Run.Error;
  else if (O.Run.OutOfFuel)
    O.Error = "out of fuel after " + std::to_string(O.Run.Steps) + " steps";
}

} // namespace

Compilation gofree::compiler::compile(const std::string &Source,
                                      CompileOptions Opts) {
  Compilation C;
  C.Mode = Opts.Mode;
  auto SetPass = [&](trace::Pass P, uint64_t Nanos) {
    C.Passes.Nanos[(int)P] = Nanos;
    if (Opts.Trace)
      Opts.Trace->emit(trace::EventKind::PassTime, (uint8_t)P, Nanos);
  };
  DiagSink Diags;
  minigo::FrontendTimes FT;
  C.Prog = minigo::parseAndCheck(Source, Diags, &FT);
  SetPass(trace::Pass::Lex, FT.LexNanos);
  SetPass(trace::Pass::Parse, FT.ParseNanos);
  SetPass(trace::Pass::Sema, FT.SemaNanos);
  if (!C.Prog) {
    C.Errors = Diags.dump();
    return C;
  }
  escape::AnalysisOptions AO;
  AO.Build = Opts.Build;
  AO.Solve = Opts.Solve;
  AO.Targets = Opts.Mode == CompileMode::GoFree ? Opts.Targets
                                                : escape::FreeTargets::None;
  C.Analysis = escape::analyzeProgram(*C.Prog, AO);
  SetPass(trace::Pass::EscapeBuild, C.Analysis.Stats.BuildNanos);
  SetPass(trace::Pass::EscapeSolve, C.Analysis.Stats.PropagateNanos);
  SetPass(trace::Pass::Lifetime, C.Analysis.Stats.LifetimeNanos);
  if (Opts.Mode == CompileMode::GoFree) {
    auto InsertStart = std::chrono::steady_clock::now();
    C.Instr = instrument::insertFrees(*C.Prog);
    SetPass(trace::Pass::Insert,
            (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - InsertStart)
                .count());
  }
  return C;
}

ExecOutcome gofree::compiler::execute(const Compilation &C,
                                      const std::string &Entry,
                                      const std::vector<int64_t> &Args,
                                      ExecOptions Opts) {
  assert(C.ok() && "executing a failed compilation");
  ExecOutcome O;
  int N = std::max(Opts.NumThreads, 1);
  if (!rt::gcServesMutators(Opts.Heap.Gc.Backend, N)) {
    O.Error = rt::gcMutatorsError(Opts.Heap.Gc.Backend, N);
    return O;
  }
  // The runtime-only optimizations (GrowMapAndFreeOld, and the slice-grow
  // ablation) belong to GoFree's runtime; stock Go has no tcfree at all.
  if (C.Mode == CompileMode::Go) {
    Opts.Interp.Map.GrowFreeOld = false;
    Opts.Interp.Slice.FreeOldOnGrow = false;
  }
  // N workers share one heap, each owning cache id = its worker index.
  if (Opts.Heap.NumCaches < N)
    Opts.Heap.NumCaches = N;
  rt::Heap Heap(Opts.Heap);
  // A vm::Module is immutable during execution, so all workers share one
  // compilation, done here, before the clock starts.
  vm::Module SharedModule;
  if (Opts.Engine == ExecEngine::Vm)
    SharedModule = vm::compileProgram(*C.Prog);
  std::vector<interp::RunResult> Results((size_t)N);
  auto Worker = [&](int W) {
    trace::TraceSink *Sink = Opts.Hub ? Opts.Hub->makeSink() : nullptr;
    interp::InterpOptions IO = Opts.Interp;
    IO.CacheId = W;
    // The engine registers its root scanner before the thread becomes a
    // registered mutator, and deregisters after the scope ends (scanner
    // add/remove waits out GC cycles, which a mutator must not block on).
    auto Run = [&](auto &Engine) {
      rt::Heap::MutatorScope Scope(Heap, W, Sink);
      Results[(size_t)W] = Engine.run(Entry, Args);
    };
    if (Opts.Engine == ExecEngine::Ast) {
      interp::Interp I(*C.Prog, Heap, IO);
      Run(I);
    } else {
      vm::Vm V(*C.Prog, Heap, IO, SharedModule);
      Run(V);
    }
  };
  // Worker 0 runs on the calling thread; the rest are spawned.
  auto Start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> Spawned;
    Spawned.reserve((size_t)N - 1);
    for (int W = 1; W < N; ++W)
      Spawned.emplace_back(Worker, W);
    Worker(0);
    for (std::thread &T : Spawned)
      T.join();
  }
  auto End = std::chrono::steady_clock::now();
  O.WallSeconds = std::chrono::duration<double>(End - Start).count();

  // Combine: additive counters add (wrapping -- identical per-worker
  // checksums must not cancel out, so no XOR), the first failure wins.
  for (int W = 0; W < N; ++W) {
    const interp::RunResult &R = Results[(size_t)W];
    O.Run.Checksum += R.Checksum;
    O.Run.SinkCount += R.SinkCount;
    O.Run.Steps += R.Steps;
    if (R.Panicked && !O.Run.Panicked) {
      O.Run.Panicked = true;
      O.Run.PanicValue = R.PanicValue;
    }
    O.Run.OutOfFuel |= R.OutOfFuel;
    if (!R.Error.empty() && O.Run.Error.empty())
      O.Run.Error = R.Error;
  }
  O.Stats = Heap.stats().snap();
  O.GcBackend = Heap.gcBackend().name();
  flattenOutcome(O, Heap, Opts.Heap.Gc.Verify);
  return O;
}
