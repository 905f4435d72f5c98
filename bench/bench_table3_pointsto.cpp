//===- bench/bench_table3_pointsto.cpp - Table 3 reproduction -------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
// Table 3: the points-to set of pd2 in figure 1's program under the three
// analyses, together with GoFree's completeness verdicts — the core of the
// completeness analysis (section 4.2): GoFree uses Go's cheap graph but
// knows *which* of its points-to sets to trust.
//
//===----------------------------------------------------------------------===//

#include "escape/Analysis.h"
#include "escape/Baselines.h"
#include "minigo/Frontend.h"

#include <cstdio>

using namespace gofree;
using namespace gofree::escape;
using namespace gofree::minigo;

namespace {

const char *Fig1Src = "type D struct { v int\n }\n"
                      "func f() {\n"
                      "  c := D{v: 1}\n"
                      "  d := D{v: 2}\n"
                      "  pd := &d\n"
                      "  ppd := &pd\n"
                      "  pc := &c\n"
                      "  *ppd = pc\n"
                      "  pd2 := *ppd\n"
                      "  sink(pd2.v)\n"
                      "}\n";

const VarDecl *findVar(const FuncDecl *Fn, const std::string &Name) {
  for (const VarDecl *V : Fn->AllVars)
    if (V->Name == Name)
      return V;
  return nullptr;
}

std::string joinNames(const std::vector<std::string> &Names) {
  if (Names.empty())
    return "{}";
  std::string Out = "{";
  for (size_t I = 0; I < Names.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Names[I];
  }
  return Out + "}";
}

} // namespace

int main() {
  std::printf("Table 3: points-to sets of pd2 in the fig. 1 program\n\n");
  std::printf("source:\n%s\n", Fig1Src);

  DiagSink Diags;
  auto Prog = parseAndCheck(Fig1Src, Diags);
  if (!Prog) {
    std::fprintf(stderr, "%s", Diags.dump().c_str());
    return 1;
  }
  const FuncDecl *Fn = Prog->Funcs[0];
  const VarDecl *Pd2 = findVar(Fn, "pd2");

  // Fast escape analysis: O(N), no points-to at all after a dereference.
  FastEscapeResult Fast = fastEscape(*Prog);
  std::printf("%-28s  PointsTo(pd2) = %s\n", "Fast Escape Analysis (O(N))",
              joinNames(Fast.pointsToNames(Pd2)).c_str());

  // Go escape graph: O(N^2), misses the indirect store.
  ProgramAnalysis Go = analyzeProgram(*Prog);
  const BuildResult &B = Go.FuncGraphs[Fn->Index];
  std::vector<std::string> GoNames;
  for (uint32_t Id : pointsToSet(B.Graph, B.varLoc(Pd2)))
    GoNames.push_back(B.Graph.loc(Id).name());
  std::printf("%-28s  PointsTo(pd2) = %s\n", "Go escape graph (O(N^2))",
              joinNames(GoNames).c_str());

  // Connection graph: O(N^3), complete.
  ConnGraphAnalysis CG(Fn);
  std::printf("%-28s  PointsTo(pd2) = %s\n", "Connection graph (O(N^3))",
              joinNames(CG.pointsToNames(Pd2)).c_str());

  std::printf("\nGoFree's completeness analysis on the Go graph:\n");
  for (const char *Name : {"pc", "pd", "ppd", "pd2"}) {
    const VarDecl *V = findVar(Fn, Name);
    const Location &L = B.Graph.loc(B.varLoc(V));
    std::printf("  %-4s Exposes=%-5s Incomplete=%-5s -> %s\n", Name,
                L.exposes() ? "true" : "false",
                L.incomplete() ? "true" : "false",
                L.incomplete() ? "must NOT be freed through this pointer"
                               : "points-to set is trustworthy");
  }
  std::printf("\npaper: Fast = {}, Go graph = {d} (incomplete, refused), "
              "Conn graph = {c, d}\n");
  return 0;
}
