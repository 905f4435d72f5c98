//===- compiler/Pipeline.h - Source-to-execution pipeline ------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the library (fig. 2 of the paper): compile a
/// MiniGo source either like stock Go (escape analysis for stack allocation
/// only) or like GoFree (same stack decisions plus tcfree instrumentation),
/// then execute it on the runtime and collect the metrics of table 5.
///
/// Typical use:
/// \code
///   Compilation C = compile(Source, {CompileMode::GoFree});
///   ExecOutcome O = execute(C, "main", {1000});
///   // O.Run.Checksum, O.Stats.freeRatio(), O.Stats.GcCycles, ...
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_COMPILER_PIPELINE_H
#define GOFREE_COMPILER_PIPELINE_H

#include "escape/Analysis.h"
#include "instrument/FreeInserter.h"
#include "interp/Interp.h"
#include "minigo/Ast.h"
#include "runtime/Heap.h"

#include <memory>
#include <string>

namespace gofree {
namespace compiler {

/// Which compiler to emulate.
enum class CompileMode : uint8_t {
  Go,     ///< Stock Go: stack allocation, no explicit deallocation.
  GoFree, ///< GoFree: Go's decisions plus tcfree instrumentation.
};

/// Compilation options.
struct CompileOptions {
  CompileMode Mode = CompileMode::GoFree;
  /// Free targets when Mode is GoFree (section 6.5: slices and maps).
  escape::FreeTargets Targets = escape::FreeTargets::SlicesAndMaps;
  /// Solver/build knobs, for ablations.
  escape::BuildOptions Build;
  escape::SolverOptions Solve;
  /// Optional event sink receiving per-pass timing events. Not owned.
  trace::TraceSink *Trace = nullptr;
};

/// Wall time of each compiler pass, indexed by trace::Pass. Always
/// collected (timing the passes is cheap); also emitted as PassTime events
/// when a trace sink is attached.
struct PassTimes {
  uint64_t Nanos[trace::NumPasses] = {};
};

/// A compiled program ready to execute.
struct Compilation {
  CompileMode Mode = CompileMode::GoFree;
  std::unique_ptr<minigo::Program> Prog;
  escape::ProgramAnalysis Analysis;
  instrument::InstrumentStats Instr;
  PassTimes Passes;
  std::string Errors;

  bool ok() const { return Prog != nullptr; }
};

/// Compiles \p Source. On frontend errors, ok() is false and Errors holds
/// the diagnostics.
Compilation compile(const std::string &Source, CompileOptions Opts = {});

/// Which execution engine runs the compiled program. Both produce
/// bit-identical observable behavior (the fuzz differ enforces it); the
/// tree-walker survives as the oracle leg and for debugging.
enum class ExecEngine : uint8_t {
  Vm,  ///< Bytecode VM (src/vm): compile once, dispatch a flat opcode
       ///< stream. The default.
  Ast, ///< Tree-walking interpreter (src/interp).
};

/// Execution options: runtime configuration plus interpreter knobs.
struct ExecOptions {
  rt::HeapOptions Heap;
  interp::InterpOptions Interp;
  ExecEngine Engine = ExecEngine::Vm;
  /// Number of real mutator threads, at least 1. Every worker runs the
  /// entry function on one shared heap with its own engine, thread cache
  /// (cache id = worker index; Heap.NumCaches is raised to N if needed) and
  /// root scanner, as a registered mutator inside the GC's stop-the-world
  /// handshake. Worker 0 runs on the calling thread. Per-worker results
  /// are combined: checksums/steps add (wrapping), the first failure wins.
  /// A count the backend does not serve (rt::gcServesMutators) is refused:
  /// execute returns the error without running.
  int NumThreads = 1;
  /// Each worker traces into its own sink from here (merged at drain
  /// time). Not owned. Null disables runtime tracing.
  trace::TraceHub *Hub = nullptr;
};

/// Result of one execution: program observables plus runtime metrics.
struct ExecOutcome {
  interp::RunResult Run;
  rt::StatsSnapshot Stats;
  /// Stable name of the collector backend the run used (rt::gcBackendName;
  /// the `gc.backend` field of `gofree run --json` v3). Static storage.
  const char *GcBackend = "marksweep";
  double WallSeconds = 0.0;
  /// Flattened failure description, empty on success. Folds the cases
  /// callers used to probe separately: a panic ("panic: N"), an interpreter
  /// fault (Run.Error), fuel exhaustion, a heap-invariant violation
  /// (HeapOptions::Verify), and -- for Driver::compileAndRun -- frontend
  /// diagnostics. The structured fields in Run stay authoritative; this is
  /// the one string to print and the one bit to branch on.
  std::string Error;
  bool ok() const { return Error.empty(); }
};

/// Runs \p Entry on a fresh heap.
ExecOutcome execute(const Compilation &C, const std::string &Entry,
                    const std::vector<int64_t> &Args = {},
                    ExecOptions Opts = {});

} // namespace compiler
} // namespace gofree

#endif // GOFREE_COMPILER_PIPELINE_H
