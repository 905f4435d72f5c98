//===- examples/escape_explorer.cpp - Inspect the escape analysis ---------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// A compiler-developer tool: feed it a MiniGo file (or run it without
// arguments for a built-in demo) and it dumps, per function, the escape
// graph locations with their solved properties (table 1 of the paper),
// the resulting stack/heap and ToFree decisions, and the instrumented
// program with the inserted tcfree calls — the equivalent of Go's
// `-gcflags -m` diagnostics for GoFree.
//
// Usage:   ./build/examples/escape_explorer [file.minigo]
//
//===----------------------------------------------------------------------===//

#include "compiler/Pipeline.h"
#include "escape/Diagnostics.h"
#include "minigo/AstPrinter.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace gofree;
using namespace gofree::compiler;
using namespace gofree::escape;

namespace {

const char *DemoSource = R"go(
func produce(n int) []int {
  buf := make([]int, n)
  for i := 0; i < n; i = i + 1 {
    buf[i] = i * i
  }
  return buf
}

func main(n int) {
  short := make([]int, n)      // freed: dies in this scope
  long := make([]int, n)       // not freed: aliased by an outer scope below
  var keep []int
  {
    tmp := produce(n)          // freed: a factory result (content tags)
    short[0] = tmp[0]
    keep = long
  }
  cache := make(map[int]int, n)
  cache[1] = keep[0] + short[0]
  sink(cache[1])
}
)go";

const char *flag(bool B) { return B ? "yes" : "-"; }

} // namespace

int main(int Argc, char **Argv) {
  std::string Source = DemoSource;
  if (Argc > 1) {
    std::ifstream In(Argv[1]);
    if (!In) {
      std::fprintf(stderr, "cannot open %s\n", Argv[1]);
      return 1;
    }
    std::stringstream Ss;
    Ss << In.rdbuf();
    Source = Ss.str();
  }

  Compilation C = compile(Source, {});
  if (!C.ok()) {
    std::fprintf(stderr, "compile error:\n%s", C.Errors.c_str());
    return 1;
  }

  for (const minigo::FuncDecl *Fn : C.Prog->Funcs) {
    const BuildResult &B = C.Analysis.FuncGraphs[Fn->Index];
    std::printf("=== func %.*s: %zu locations, %zu edges ===\n",
                (int)Fn->Name.size(), Fn->Name.data(), B.Graph.size(),
                B.Graph.edgeCount());
    std::printf("%-14s %-10s %5s %5s %5s %5s %5s %6s %5s %7s\n", "location",
                "kind", "depth", "loop", "heap", "expos", "incmp", "outlvd",
                "ptsHp", "TOFREE");
    for (const Location &L : B.Graph.locations()) {
      const char *Kind = "";
      switch (L.Kind) {
      case LocKind::HeapLoc: Kind = "heapLoc"; break;
      case LocKind::Var: Kind = "var"; break;
      case LocKind::Alloc: Kind = "alloc"; break;
      case LocKind::Ret: Kind = "ret"; break;
      case LocKind::ParamCopy: Kind = "param-cpy"; break;
      case LocKind::RetCopy: Kind = "ret-cpy"; break;
      case LocKind::ContentTag: Kind = "content"; break;
      }
      std::printf("%-14s %-10s %5d %5d %5s %5s %5s %6s %5s %7s\n",
                  L.name().c_str(), Kind,
                  L.DeclDepth >= BigDepth ? 999 : L.DeclDepth,
                  L.LoopDepth >= BigDepth ? 999 : L.LoopDepth,
                  flag(L.HeapAlloc), flag(L.exposes()), flag(L.incomplete()),
                  flag(L.Outlived), flag(L.PointsToHeap), flag(L.ToFree));
    }
    std::printf("\n");
  }

  std::printf("=== decisions (-m) ===\n%s",
              renderEscapeDiagnostics(*C.Prog, C.Analysis).c_str());
  std::printf("(%u slice frees, %u map frees, %u object frees inserted)\n\n",
              C.Instr.SliceFrees, C.Instr.MapFrees, C.Instr.ObjectFrees);

  std::printf("=== instrumented program ===\n%s",
              minigo::printProgram(*C.Prog).c_str());
  return 0;
}
