//===- compiler/Driver.h - Unified pipeline configuration ------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One configuration surface for every embedder of the pipeline. Before
/// this existed, the CLI, three bench binaries, and the tests each parsed
/// their own subset of "--mode/--gogc/--mock/..." by hand, and drifted.
/// PipelineOptions bundles CompileOptions + ExecOptions + the entry point;
/// parseFlag/usageText give every front end the same flag grammar; and the
/// differential fuzz harness builds each of its legs from exactly these
/// flag strings, so a leg in a fuzz report can be reproduced verbatim with
/// `gofree <those flags> run prog.minigo`.
///
/// \code
///   driver::PipelineOptions P;
///   std::string Err;
///   if (driver::parseFlag("--mock=flip", P, &Err) != driver::FlagParse::Ok)
///     ...;
///   compiler::ExecOutcome O = driver::compileAndRun(Src, P, {1000});
///   if (!O.ok()) ...;   // O.Error flattens frontend/runtime/panic
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_COMPILER_DRIVER_H
#define GOFREE_COMPILER_DRIVER_H

#include "compiler/Pipeline.h"

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace gofree {
namespace compiler {
namespace driver {

/// Everything one pipeline invocation needs. The compile half and the
/// exec half stay the library's own structs; this is the bundle front
/// ends configure (via parseFlag) and hand around as one value.
struct PipelineOptions {
  CompileOptions Compile;
  ExecOptions Exec;
  std::string Entry = "main";
};

/// Result of applying one flag string.
enum class FlagParse : uint8_t {
  Ok,      ///< Recognized and applied.
  Unknown, ///< Not a pipeline flag (the caller may have its own flags).
  Invalid, ///< Recognized but the value is malformed; *Err says why.
};

/// Applies one `--name=value` (or boolean `--name`) flag to \p Opts.
/// Recognizes the pipeline flags listed by usageText(); anything else is
/// Unknown so front ends can layer their own flags on top. On Invalid,
/// \p Err (if non-null) receives a one-line diagnostic.
FlagParse parseFlag(std::string_view Flag, PipelineOptions &Opts,
                    std::string *Err = nullptr);

/// Applies several flags; stops at the first non-Ok flag and returns
/// false with \p Err set (Unknown flags are errors here -- use parseFlag
/// directly to mix in caller-specific flags).
bool parseFlags(std::initializer_list<std::string_view> Flags,
                PipelineOptions &Opts, std::string *Err = nullptr);
bool parseFlags(const std::vector<std::string> &Flags, PipelineOptions &Opts,
                std::string *Err = nullptr);

/// Usage text for the shared pipeline flags: one line per flag, aligned,
/// ready to print under a front end's own usage header.
std::string usageText();

/// Canonical leg name for a mode: "go" or "gofree". This is the value of
/// the JSONL "leg" field and of outcomeJson's "leg".
const char *legName(CompileMode M);

/// Compile + execute in one call, with frontend failures flattened into
/// ExecOutcome::Error (prefix "compile error:") instead of a separate
/// Compilation to probe. \p Compiled (if non-null) receives the
/// compilation for callers that also want instrumentation stats.
ExecOutcome compileAndRun(const std::string &Source,
                          const PipelineOptions &Opts,
                          const std::vector<int64_t> &Args,
                          Compilation *Compiled = nullptr);

/// One-line machine-readable JSON for an outcome (`gofree run --json`):
/// schema-versioned like the trace stream, carrying ok/error, the
/// observables (checksum, sinks, steps, panic), wall/GC time, and the
/// headline allocator counters. Documented in docs/TRACING.md.
std::string outcomeJson(const ExecOutcome &O, const char *Leg);

} // namespace driver
} // namespace compiler
} // namespace gofree

#endif // GOFREE_COMPILER_DRIVER_H
