//===- minigo/Token.h - MiniGo token definitions ---------------*- C++ -*-===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds for MiniGo, the Go subset the GoFree analyses consume. The
/// subset covers everything the escape analysis of the paper cares about:
/// pointers, address-of/dereference, structs, slices, maps, nested scopes,
/// loops, multi-value returns, defer and panic.
///
//===----------------------------------------------------------------------===//

#ifndef GOFREE_MINIGO_TOKEN_H
#define GOFREE_MINIGO_TOKEN_H

#include "support/SourceLoc.h"

#include <cstdint>
#include <string_view>

namespace gofree {
namespace minigo {

/// All MiniGo token kinds.
enum class TokKind : uint8_t {
  Eof,
  Ident,
  IntLit,
  // Keywords.
  KwFunc,
  KwVar,
  KwType,
  KwStruct,
  KwIf,
  KwElse,
  KwFor,
  KwRange,
  KwSwitch,
  KwCase,
  KwDefault,
  KwReturn,
  KwBreak,
  KwContinue,
  KwDefer,
  KwPanic,
  KwMake,
  KwNew,
  KwLen,
  KwCap,
  KwAppend,
  KwCopy,
  KwDelete,
  KwSink,
  KwMap,
  KwTrue,
  KwFalse,
  KwNil,
  KwInt,
  KwBool,
  // Punctuation and operators.
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Comma,
  Semi,
  Dot,
  Colon,
  Star,
  Amp,
  Plus,
  Minus,
  Slash,
  Percent,
  Assign,
  PlusEq,
  MinusEq,
  StarEq,
  SlashEq,
  PercentEq,
  PlusPlus,
  MinusMinus,
  Define, // :=
  EqEq,
  NotEq,
  Lt,
  Le,
  Gt,
  Ge,
  Not,
  AndAnd,
  OrOr,
};

/// Human-readable spelling of a token kind, for diagnostics.
const char *tokKindName(TokKind K);

/// One lexed token. It owns nothing: an identifier's Text points into the
/// source buffer the Lexer was given.
struct Token {
  TokKind Kind = TokKind::Eof;
  SourceLoc Loc;
  std::string_view Text; ///< Identifier spelling; empty otherwise.
  int64_t IntValue = 0;

  bool is(TokKind K) const { return Kind == K; }
};

// A 2 MB program lexes to ~800k tokens; keep each one small.
static_assert(sizeof(Token) <= 40, "Token grew past 40 bytes");

} // namespace minigo
} // namespace gofree

#endif // GOFREE_MINIGO_TOKEN_H
