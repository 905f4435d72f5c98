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

namespace {
uint64_t nanosSince(std::chrono::steady_clock::time_point Start) {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Start)
      .count();
}
} // namespace

std::unique_ptr<Program> gofree::minigo::parseAndCheck(
    const std::string &Source, DiagSink &Diags, FrontendTimes *Times) {
  auto Start = std::chrono::steady_clock::now();
  // The tokens borrow Source; the parser copies every name it keeps into
  // the AST, so nothing refers to Source once this function returns.
  Lexer Lex(Source, Diags);
  std::vector<Token> Toks = Lex.lexAll();
  if (Times)
    Times->LexNanos = nanosSince(Start);
  if (Diags.hasErrors())
    return nullptr;

  Start = std::chrono::steady_clock::now();
  auto Prog = std::make_unique<Program>();
  Parser P(std::move(Toks), *Prog, Diags);
  bool Parsed = P.parseProgram();
  if (Times)
    Times->ParseNanos = nanosSince(Start);
  if (!Parsed)
    return nullptr;

  Start = std::chrono::steady_clock::now();
  Sema S(*Prog, Diags);
  bool Checked = S.run();
  if (Times)
    Times->SemaNanos = nanosSince(Start);
  if (!Checked)
    return nullptr;
  return Prog;
}
