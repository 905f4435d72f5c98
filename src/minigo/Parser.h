//===- minigo/Parser.h - MiniGo recursive-descent parser -------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser producing an untyped AST. Name resolution and
/// type inference happen in the separate Sema pass.
///
/// The parser allocates per program, not per node: every node, list and
/// name goes to the program's arena. A list is built on one reusable
/// scratch stack and copied out whole once its length is known; each
/// distinct identifier is copied into the arena once and numbered, so Sema
/// can resolve names by symbol id.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_MINIGO_PARSER_H
#define GOFREE_MINIGO_PARSER_H

#include "minigo/Ast.h"
#include "minigo/Token.h"
#include "support/Diag.h"

#include <cstring>
#include <initializer_list>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

namespace gofree {
namespace minigo {

/// Parses a token stream into a Program. On syntax errors, diagnostics are
/// reported and parsing attempts to recover at statement boundaries.
class Parser {
public:
  Parser(std::vector<Token> Tokens, Program &Prog, DiagSink &Diags);

  /// Parses the whole program. Returns false if any error was reported.
  bool parseProgram();

private:
  // Token stream helpers.
  const Token &cur() const { return Toks[Idx]; }
  const Token &lookahead(size_t N = 1) const {
    size_t I = Idx + N;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  void advance() {
    if (Idx + 1 < Toks.size())
      ++Idx;
  }
  bool at(TokKind K) const { return cur().is(K); }
  bool accept(TokKind K) {
    if (!at(K))
      return false;
    advance();
    return true;
  }
  bool expect(TokKind K, const char *Ctx);
  void error(const char *Msg);
  void syncToStmtBoundary();

  // Declarations.
  void parseTypeDecl();
  void parseFuncDecl();
  const Type *parseType();

  // Statements.
  /// Parses `{ ... }`; \p Prefix, when given, becomes its first statement.
  BlockStmt *parseBlock(Stmt *Prefix = nullptr);
  Stmt *parseStmt();
  Stmt *parseSimpleStmt();
  Stmt *parseIf();
  Stmt *parseFor();
  Stmt *parseRangeFor(SourceLoc Loc);
  Stmt *parseSwitch();
  Stmt *parseReturn();
  // Names.
  /// An interned identifier: its arena spelling and dense symbol id.
  struct Name {
    std::string_view Text;
    uint32_t Sym;
  };
  Name intern(std::string_view Text);
  /// Fresh name for desugaring temporaries (<Prefix><N>).
  Name freshName(const char *Prefix = "__gofree_syn");
  VarDecl *makeVar(Name N, SourceLoc Loc);

  // Lists, built on the scratch stack between mark() and take().
  size_t mark() const { return Scratch.size(); }
  template <typename T> void push(const T &Item) {
    static_assert(std::is_trivially_copyable_v<T> &&
                  sizeof(T) % sizeof(uintptr_t) == 0);
    size_t At = Scratch.size();
    Scratch.resize(At + sizeof(T) / sizeof(uintptr_t));
    std::memcpy(&Scratch[At], static_cast<const void *>(&Item), sizeof(T));
  }
  /// Moves the items pushed since \p Mark into an arena list.
  template <typename T> std::span<T> take(size_t Mark) {
    std::span<T> Items = Prog.Nodes.allocateList<T>(
        (Scratch.size() - Mark) * sizeof(uintptr_t) / sizeof(T));
    if (!Items.empty())
      std::memcpy(static_cast<void *>(Items.data()), &Scratch[Mark],
                  Items.size_bytes());
    Scratch.resize(Mark);
    return Items;
  }
  template <typename T> std::span<T> list(std::initializer_list<T> Items) {
    return Prog.Nodes.copy<T>({Items.begin(), Items.size()});
  }

  // Expressions.
  std::span<Expr *> parseExprList();
  Expr *parseExpr() { return parseBinary(0); }
  Expr *parseBinary(int MinPrec);
  Expr *parseUnary();
  Expr *parsePostfix(Expr *Base);
  Expr *parsePrimary();
  Expr *parseCompositeBody(std::string_view TypeName, SourceLoc Loc,
                           bool TakeAddr);

  template <typename T, typename... Args> T *make(SourceLoc Loc, Args &&...A) {
    T *Node = Prog.Nodes.create<T>(std::forward<Args>(A)...);
    Node->Loc = Loc;
    return Node;
  }

  std::vector<Token> Toks;
  size_t Idx = 0;
  Program &Prog;
  DiagSink &Diags;
  /// Go-style restriction: composite literals are not recognized directly in
  /// if/for headers, where `{` starts the block instead.
  bool CompositeOK = true;
  unsigned SynthCounter = 0;
  /// The scratch stack of the lists under construction, innermost on top.
  std::vector<uintptr_t> Scratch;
  /// Open-addressing table of symbol ids + 1 (0 = empty slot), keyed by
  /// spelling; SymNames[Sym] is the arena spelling of symbol Sym.
  std::vector<uint32_t> SymSlots;
  std::vector<std::string_view> SymNames;
};

} // namespace minigo
} // namespace gofree

#endif // GOFREE_MINIGO_PARSER_H
