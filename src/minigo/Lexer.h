//===- minigo/Lexer.h - MiniGo lexer ---------------------------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for MiniGo. Implements Go-style automatic semicolon
/// insertion so sources read like idiomatic Go.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_MINIGO_LEXER_H
#define GOFREE_MINIGO_LEXER_H

#include "minigo/Token.h"
#include "support/Diag.h"

#include <string_view>
#include <vector>

namespace gofree {
namespace minigo {

/// Lexes a whole MiniGo source buffer into a token vector.
///
/// The lexer does not copy the source: identifier tokens' Text views point
/// into it. The caller must keep \p Source alive for as long as it uses the
/// tokens lexAll returns (parseAndCheck keeps it for the whole parse; the
/// parser copies each name into the AST).
class Lexer {
public:
  Lexer(std::string_view Source, DiagSink &Diags);

  /// Lexes the entire buffer. The result always ends with an Eof token.
  std::vector<Token> lexAll();

private:
  Token next();
  char peek(size_t Ahead = 0) const;
  bool atEnd() const { return Pos >= Src.size(); }
  SourceLoc here() const { return {Line, uint32_t(Pos - LineStart + 1)}; }
  /// Consumes the '\n' at Pos and starts a new line.
  void newline() {
    ++Line;
    LineStart = ++Pos;
  }
  void skipSpaceAndComments(bool &SawNewline);
  /// True if a newline after \p K triggers semicolon insertion.
  static bool endsStatement(TokKind K);

  std::string_view Src;
  DiagSink &Diags;
  size_t Pos = 0;
  size_t LineStart = 0; ///< Offset of the first byte of the current line.
  uint32_t Line = 1;
};

} // namespace minigo
} // namespace gofree

#endif // GOFREE_MINIGO_LEXER_H
