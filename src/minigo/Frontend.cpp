//===- minigo/Frontend.cpp - Convenience driver ---------------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "minigo/Frontend.h"

#include "minigo/Lexer.h"
#include "minigo/Parser.h"
#include "minigo/Sema.h"

#include <chrono>

using namespace gofree;
using namespace gofree::minigo;

std::unique_ptr<Program> gofree::minigo::parseAndCheck(
    const std::string &Source, DiagSink &Diags, FrontendTimes *Times) {
  // Each stage's time runs from the end of the previous one, so the three
  // cover the whole call, the tokens' release included.
  FrontendTimes Unused;
  FrontendTimes &T = Times ? *Times : Unused;
  auto Lap = std::chrono::steady_clock::now();
  auto TakeLap = [&Lap] {
    auto Now = std::chrono::steady_clock::now();
    uint64_t Nanos =
        (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(Now -
                                                                       Lap)
            .count();
    Lap = Now;
    return Nanos;
  };
  // The tokens borrow Source; the parser copies every name it keeps into
  // the program's arena, so nothing refers to Source once this returns.
  std::vector<Token> Toks = Lexer(Source, Diags).lexAll();
  T.LexNanos = TakeLap();
  if (Diags.hasErrors())
    return nullptr;

  auto Prog = std::make_unique<Program>();
  bool Parsed = Parser(std::move(Toks), *Prog, Diags).parseProgram();
  T.ParseNanos = TakeLap();
  if (!Parsed)
    return nullptr;

  bool Checked = Sema(*Prog, Diags).run();
  T.SemaNanos = TakeLap();
  if (!Checked)
    return nullptr;
  return Prog;
}
