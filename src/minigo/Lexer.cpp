//===- minigo/Lexer.cpp - MiniGo lexer ------------------------------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "minigo/Lexer.h"

#include <algorithm>
#include <cstdint>
#include <string>

using namespace gofree;
using namespace gofree::minigo;

const char *gofree::minigo::tokKindName(TokKind K) {
  switch (K) {
  case TokKind::Eof: return "end of file";
  case TokKind::Ident: return "identifier";
  case TokKind::IntLit: return "integer literal";
  case TokKind::KwFunc: return "'func'";
  case TokKind::KwVar: return "'var'";
  case TokKind::KwType: return "'type'";
  case TokKind::KwStruct: return "'struct'";
  case TokKind::KwIf: return "'if'";
  case TokKind::KwElse: return "'else'";
  case TokKind::KwFor: return "'for'";
  case TokKind::KwRange: return "'range'";
  case TokKind::KwSwitch: return "'switch'";
  case TokKind::KwCase: return "'case'";
  case TokKind::KwDefault: return "'default'";
  case TokKind::KwReturn: return "'return'";
  case TokKind::KwBreak: return "'break'";
  case TokKind::KwContinue: return "'continue'";
  case TokKind::KwDefer: return "'defer'";
  case TokKind::KwPanic: return "'panic'";
  case TokKind::KwMake: return "'make'";
  case TokKind::KwNew: return "'new'";
  case TokKind::KwLen: return "'len'";
  case TokKind::KwCap: return "'cap'";
  case TokKind::KwAppend: return "'append'";
  case TokKind::KwCopy: return "'copy'";
  case TokKind::KwDelete: return "'delete'";
  case TokKind::KwSink: return "'sink'";
  case TokKind::KwMap: return "'map'";
  case TokKind::KwTrue: return "'true'";
  case TokKind::KwFalse: return "'false'";
  case TokKind::KwNil: return "'nil'";
  case TokKind::KwInt: return "'int'";
  case TokKind::KwBool: return "'bool'";
  case TokKind::LParen: return "'('";
  case TokKind::RParen: return "')'";
  case TokKind::LBrace: return "'{'";
  case TokKind::RBrace: return "'}'";
  case TokKind::LBracket: return "'['";
  case TokKind::RBracket: return "']'";
  case TokKind::Comma: return "','";
  case TokKind::Semi: return "';'";
  case TokKind::Dot: return "'.'";
  case TokKind::Colon: return "':'";
  case TokKind::Star: return "'*'";
  case TokKind::Amp: return "'&'";
  case TokKind::Plus: return "'+'";
  case TokKind::Minus: return "'-'";
  case TokKind::Slash: return "'/'";
  case TokKind::Percent: return "'%'";
  case TokKind::Assign: return "'='";
  case TokKind::PlusEq: return "'+='";
  case TokKind::MinusEq: return "'-='";
  case TokKind::StarEq: return "'*='";
  case TokKind::SlashEq: return "'/='";
  case TokKind::PercentEq: return "'%='";
  case TokKind::PlusPlus: return "'++'";
  case TokKind::MinusMinus: return "'--'";
  case TokKind::Define: return "':='";
  case TokKind::EqEq: return "'=='";
  case TokKind::NotEq: return "'!='";
  case TokKind::Lt: return "'<'";
  case TokKind::Le: return "'<='";
  case TokKind::Gt: return "'>'";
  case TokKind::Ge: return "'>='";
  case TokKind::Not: return "'!'";
  case TokKind::AndAnd: return "'&&'";
  case TokKind::OrOr: return "'||'";
  }
  return "<bad token>";
}

namespace {

bool isLetter(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isIdentChar(char C) { return isLetter(C) || isDigit(C); }

/// The keyword \p W spells, or Ident. Switching on the length leaves at
/// most nine fixed-size comparisons.
TokKind keywordKind(std::string_view W) {
  switch (W.size()) {
  case 2:
    if (W == "if") return TokKind::KwIf;
    break;
  case 3:
    if (W == "var") return TokKind::KwVar;
    if (W == "for") return TokKind::KwFor;
    if (W == "new") return TokKind::KwNew;
    if (W == "len") return TokKind::KwLen;
    if (W == "cap") return TokKind::KwCap;
    if (W == "map") return TokKind::KwMap;
    if (W == "nil") return TokKind::KwNil;
    if (W == "int") return TokKind::KwInt;
    break;
  case 4:
    if (W == "func") return TokKind::KwFunc;
    if (W == "type") return TokKind::KwType;
    if (W == "else") return TokKind::KwElse;
    if (W == "case") return TokKind::KwCase;
    if (W == "make") return TokKind::KwMake;
    if (W == "copy") return TokKind::KwCopy;
    if (W == "sink") return TokKind::KwSink;
    if (W == "true") return TokKind::KwTrue;
    if (W == "bool") return TokKind::KwBool;
    break;
  case 5:
    if (W == "range") return TokKind::KwRange;
    if (W == "break") return TokKind::KwBreak;
    if (W == "defer") return TokKind::KwDefer;
    if (W == "panic") return TokKind::KwPanic;
    if (W == "false") return TokKind::KwFalse;
    break;
  case 6:
    if (W == "struct") return TokKind::KwStruct;
    if (W == "switch") return TokKind::KwSwitch;
    if (W == "return") return TokKind::KwReturn;
    if (W == "append") return TokKind::KwAppend;
    if (W == "delete") return TokKind::KwDelete;
    break;
  case 7:
    if (W == "default") return TokKind::KwDefault;
    break;
  case 8:
    if (W == "continue") return TokKind::KwContinue;
    break;
  }
  return TokKind::Ident;
}

} // namespace

Lexer::Lexer(std::string_view Source, DiagSink &Diags)
    : Src(Source), Diags(Diags) {}

char Lexer::peek(size_t Ahead) const {
  return Pos + Ahead < Src.size() ? Src[Pos + Ahead] : '\0';
}

bool Lexer::endsStatement(TokKind K) {
  switch (K) {
  case TokKind::Ident:
  case TokKind::IntLit:
  case TokKind::KwTrue:
  case TokKind::KwFalse:
  case TokKind::KwNil:
  case TokKind::KwInt:
  case TokKind::KwBool:
  case TokKind::KwBreak:
  case TokKind::KwContinue:
  case TokKind::KwReturn:
  case TokKind::RParen:
  case TokKind::RBrace:
  case TokKind::RBracket:
  case TokKind::PlusPlus:
  case TokKind::MinusMinus:
    return true;
  default:
    return false;
  }
}

void Lexer::skipSpaceAndComments(bool &SawNewline) {
  SawNewline = false;
  while (!atEnd()) {
    char C = Src[Pos];
    if (C == '\n') {
      SawNewline = true;
      newline();
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\r') {
      ++Pos;
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      // Stop at the newline so the loop above counts it.
      Pos = std::min(Src.find('\n', Pos), Src.size());
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      SourceLoc Open = here();
      Pos += 2;
      while (!atEnd() && !(Src[Pos] == '*' && peek(1) == '/')) {
        if (Src[Pos] == '\n') {
          SawNewline = true;
          newline();
        } else {
          ++Pos;
        }
      }
      if (atEnd())
        Diags.error(Open, "comment not terminated");
      else
        Pos += 2;
      continue;
    }
    break;
  }
}

Token Lexer::next() {
  Token T;
  T.Loc = here();
  if (atEnd()) {
    T.Kind = TokKind::Eof;
    return T;
  }
  size_t Start = Pos;
  char C = Src[Pos++];
  if (isLetter(C)) {
    while (!atEnd() && isIdentChar(Src[Pos]))
      ++Pos;
    std::string_view Word = Src.substr(Start, Pos - Start);
    T.Kind = keywordKind(Word);
    if (T.Kind == TokKind::Ident)
      T.Text = Word;
    return T;
  }
  if (isDigit(C)) {
    // Checked before each step, so the accumulation never overflows.
    int64_t V = C - '0';
    bool Overflow = false;
    while (!atEnd() && isDigit(Src[Pos])) {
      int D = Src[Pos++] - '0';
      Overflow |= V > (INT64_MAX - D) / 10;
      if (!Overflow)
        V = V * 10 + D;
    }
    T.Kind = TokKind::IntLit;
    if (Overflow)
      Diags.error(T.Loc, "integer literal " +
                             std::string(Src.substr(Start, Pos - Start)) +
                             " overflows int");
    else
      T.IntValue = V;
    return T;
  }
  switch (C) {
  case '(': T.Kind = TokKind::LParen; return T;
  case ')': T.Kind = TokKind::RParen; return T;
  case '{': T.Kind = TokKind::LBrace; return T;
  case '}': T.Kind = TokKind::RBrace; return T;
  case '[': T.Kind = TokKind::LBracket; return T;
  case ']': T.Kind = TokKind::RBracket; return T;
  case ',': T.Kind = TokKind::Comma; return T;
  case ';': T.Kind = TokKind::Semi; return T;
  case '.': T.Kind = TokKind::Dot; return T;
  case '*':
    if (peek() == '=') {
      ++Pos;
      T.Kind = TokKind::StarEq;
    } else {
      T.Kind = TokKind::Star;
    }
    return T;
  case '+':
    if (peek() == '=') {
      ++Pos;
      T.Kind = TokKind::PlusEq;
    } else if (peek() == '+') {
      ++Pos;
      T.Kind = TokKind::PlusPlus;
    } else {
      T.Kind = TokKind::Plus;
    }
    return T;
  case '-':
    if (peek() == '=') {
      ++Pos;
      T.Kind = TokKind::MinusEq;
    } else if (peek() == '-') {
      ++Pos;
      T.Kind = TokKind::MinusMinus;
    } else {
      T.Kind = TokKind::Minus;
    }
    return T;
  case '/':
    if (peek() == '=') {
      ++Pos;
      T.Kind = TokKind::SlashEq;
    } else {
      T.Kind = TokKind::Slash;
    }
    return T;
  case '%':
    if (peek() == '=') {
      ++Pos;
      T.Kind = TokKind::PercentEq;
    } else {
      T.Kind = TokKind::Percent;
    }
    return T;
  case ':':
    if (peek() == '=') {
      ++Pos;
      T.Kind = TokKind::Define;
    } else {
      T.Kind = TokKind::Colon;
    }
    return T;
  case '=':
    if (peek() == '=') {
      ++Pos;
      T.Kind = TokKind::EqEq;
    } else {
      T.Kind = TokKind::Assign;
    }
    return T;
  case '!':
    if (peek() == '=') {
      ++Pos;
      T.Kind = TokKind::NotEq;
    } else {
      T.Kind = TokKind::Not;
    }
    return T;
  case '<':
    if (peek() == '=') {
      ++Pos;
      T.Kind = TokKind::Le;
    } else {
      T.Kind = TokKind::Lt;
    }
    return T;
  case '>':
    if (peek() == '=') {
      ++Pos;
      T.Kind = TokKind::Ge;
    } else {
      T.Kind = TokKind::Gt;
    }
    return T;
  case '&':
    if (peek() == '&') {
      ++Pos;
      T.Kind = TokKind::AndAnd;
    } else {
      T.Kind = TokKind::Amp;
    }
    return T;
  case '|':
    if (peek() == '|') {
      ++Pos;
      T.Kind = TokKind::OrOr;
      return T;
    }
    break;
  default:
    break;
  }
  Diags.error(T.Loc, std::string("unexpected character '") + C + "'");
  T.Kind = TokKind::Semi; // Keep the parser moving.
  return T;
}

std::vector<Token> Lexer::lexAll() {
  // Synthesized programs lex to ~0.37 tokens per byte; reserving that once
  // spares the vector its doubling copies on the 2 MB compile inputs.
  std::vector<Token> Out;
  Out.reserve(Src.size() * 3 / 8 + 2);
  while (true) {
    bool SawNewline = false;
    skipSpaceAndComments(SawNewline);
    // Go-style automatic semicolon insertion.
    if (SawNewline && !Out.empty() && endsStatement(Out.back().Kind)) {
      Token Semi;
      Semi.Kind = TokKind::Semi;
      Semi.Loc = here();
      Out.push_back(Semi);
    }
    Token T = next();
    bool IsEof = T.is(TokKind::Eof);
    if (IsEof && !Out.empty() && endsStatement(Out.back().Kind)) {
      Token Semi;
      Semi.Kind = TokKind::Semi;
      Semi.Loc = T.Loc;
      Out.push_back(Semi);
    }
    Out.push_back(T);
    if (IsEof)
      break;
  }
  return Out;
}
