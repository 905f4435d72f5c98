//===- bench/bench_vm.cpp - Bytecode VM vs tree-walker --------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Execution-engine benchmark: the six subject programs of the paper's
// evaluation run under the GoFree pipeline on both engines -- the
// tree-walking interpreter (src/interp) and the bytecode VM (src/vm) --
// and the wall-time ratio is reported. Checksums must match exactly (the
// engine-equivalence law the fuzz differ enforces); a mismatch is a hard
// failure. Engine construction, including AST-to-bytecode compilation, is
// excluded from the timed region by the pipeline itself, so the ratio is
// pure dispatch cost. The engines alternate within each repetition (and
// take turns going first), so a phase of host load slows both.
//
// --json prints a machine-readable summary (tools/check.sh bench pipes it
// into BENCH_vm.json). A -DGOFREE_VM_PROFILE=ON build also prints the
// `vm.ops` table of the VM runs (on stderr under --json), headed by the
// steps those runs reported.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"
#include "vm/Vm.h"

#include <cmath>
#include <cstdio>
#include <cstring>

using namespace gofree;
using namespace gofree::bench;
using namespace gofree::workloads;

namespace {

struct EngineSample {
  std::vector<double> TimeSec;
  uint64_t Checksum = 0;
};

/// Steps of every VM run, which the op profile's total must equal.
uint64_t VmSteps = 0;

/// Runs \p W once on \p Engine and records the wall time.
void runOnce(const compiler::Compilation &C, const Workload &W,
             const std::vector<int64_t> &Args, compiler::ExecEngine Engine,
             EngineSample &Out) {
  compiler::ExecOptions EO;
  EO.Engine = Engine;
  compiler::ExecOutcome O = compiler::execute(C, W.Entry, Args, EO);
  if (!O.ok()) {
    std::fprintf(stderr, "run failed for %s: %s\n", W.Name.c_str(),
                 O.Error.c_str());
    std::exit(1);
  }
  Out.TimeSec.push_back(O.WallSeconds);
  Out.Checksum = O.Run.Checksum;
  if (Engine == compiler::ExecEngine::Vm)
    VmSteps += O.Run.Steps;
}

struct Row {
  std::string Name;
  double AstMs = 0, VmMs = 0, Speedup = 0, P = 1.0;
};

} // namespace

int main(int argc, char **argv) {
  bool Json = false;
  for (int I = 1; I < argc; ++I)
    if (!std::strcmp(argv[I], "--json"))
      Json = true;

  int Runs = runCount();
  std::vector<Row> Rows;
  double LogSum = 0;
  for (const Workload &W : subjectWorkloads()) {
    compiler::CompileOptions CO;
    CO.Mode = compiler::CompileMode::GoFree;
    compiler::Compilation C = compiler::compile(W.Source, CO);
    if (!C.ok()) {
      std::fprintf(stderr, "compile failed for %s:\n%s", W.Name.c_str(),
                   C.Errors.c_str());
      return 1;
    }
    std::vector<int64_t> Args = W.Args;
    for (int64_t &A : Args)
      A = scaledArg(A);
    // Each repetition runs both engines, in alternating order, so a phase
    // of host load lands on both rather than on whichever ran in it.
    EngineSample Ast, Vm;
    for (int R = 0; R < Runs; ++R) {
      if (R % 2 == 0) {
        runOnce(C, W, Args, compiler::ExecEngine::Ast, Ast);
        runOnce(C, W, Args, compiler::ExecEngine::Vm, Vm);
      } else {
        runOnce(C, W, Args, compiler::ExecEngine::Vm, Vm);
        runOnce(C, W, Args, compiler::ExecEngine::Ast, Ast);
      }
    }
    if (Ast.Checksum != Vm.Checksum) {
      std::fprintf(stderr, "%s: engine checksum mismatch!\n", W.Name.c_str());
      return 1;
    }
    Row R;
    R.Name = W.Name;
    R.AstMs = summarize(Ast.TimeSec).Mean * 1e3;
    R.VmMs = summarize(Vm.TimeSec).Mean * 1e3;
    R.Speedup = R.VmMs > 0 ? R.AstMs / R.VmMs : 0.0;
    R.P = welchTTestPValue(Ast.TimeSec, Vm.TimeSec);
    LogSum += std::log(R.Speedup > 0 ? R.Speedup : 1.0);
    Rows.push_back(R);
  }
  double Geomean = std::exp(LogSum / (double)Rows.size());
  if (vm::OpProfileEnabled)
    std::fprintf(Json ? stderr : stdout, "vm.steps %llu\n%s",
                 (unsigned long long)VmSteps,
                 vm::formatOpProfile(vm::opProfile()).c_str());

  if (Json) {
    std::printf("{\n  \"bench\": \"vm\",\n  \"runs\": %d,\n", Runs);
    std::printf("  \"workloads\": [\n");
    for (size_t I = 0; I < Rows.size(); ++I)
      std::printf("    {\"name\": \"%s\", \"ast_ms\": %.3f, \"vm_ms\": %.3f, "
                  "\"speedup\": %.2f, \"p\": %.4f}%s\n",
                  Rows[I].Name.c_str(), Rows[I].AstMs, Rows[I].VmMs,
                  Rows[I].Speedup, Rows[I].P,
                  I + 1 < Rows.size() ? "," : "");
    std::printf("  ],\n  \"geomean_speedup\": %.2f\n}\n", Geomean);
    return 0;
  }

  std::printf("Execution engines: bytecode VM vs tree-walker "
              "(%d runs per engine, GoFree mode; >1.0x = VM faster)\n\n",
              Runs);
  std::printf("%-11s | %10s | %10s | %8s | %8s\n", "project", "ast ms",
              "vm ms", "speedup", "p");
  std::printf("------------+------------+------------+----------+---------\n");
  for (const Row &R : Rows)
    std::printf("%-11s | %10.2f | %10.2f | %7.2fx | %8s\n", R.Name.c_str(),
                R.AstMs, R.VmMs, R.Speedup, fmtP(R.P).c_str());
  std::printf("------------+------------+------------+----------+---------\n");
  std::printf("%-11s | %10s | %10s | %7.2fx |\n", "geomean", "", "", Geomean);
  return 0;
}
