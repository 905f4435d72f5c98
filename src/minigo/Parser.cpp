//===- minigo/Parser.cpp - MiniGo recursive-descent parser ----------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "minigo/Parser.h"

#include <charconv>
#include <functional>
#include <optional>

using namespace gofree;
using namespace gofree::minigo;

Parser::Parser(std::vector<Token> Tokens, Program &Prog, DiagSink &Diags)
    : Toks(std::move(Tokens)), Prog(Prog), Diags(Diags) {
  assert(!Toks.empty() && Toks.back().is(TokKind::Eof) &&
         "token stream must end with Eof");
}

bool Parser::expect(TokKind K, const char *Ctx) {
  if (accept(K))
    return true;
  Diags.error(cur().Loc, std::string("expected ") + tokKindName(K) + " in " +
                             Ctx + ", found " + tokKindName(cur().Kind));
  return false;
}

void Parser::error(const char *Msg) { Diags.error(cur().Loc, Msg); }

void Parser::syncToStmtBoundary() {
  while (!at(TokKind::Eof) && !at(TokKind::Semi) && !at(TokKind::RBrace))
    advance();
  accept(TokKind::Semi);
}

bool Parser::parseProgram() {
  while (!at(TokKind::Eof)) {
    if (accept(TokKind::Semi))
      continue;
    if (at(TokKind::KwType)) {
      parseTypeDecl();
      continue;
    }
    if (at(TokKind::KwFunc)) {
      parseFuncDecl();
      continue;
    }
    error("expected 'func' or 'type' at top level");
    advance();
  }
  Prog.NumSymbols = (uint32_t)SymNames.size();
  return !Diags.hasErrors();
}

Parser::Name Parser::intern(std::string_view Text) {
  // Keep the table at most half full.
  if (SymNames.size() * 2 >= SymSlots.size()) {
    SymSlots.assign(SymSlots.empty() ? 1024 : SymSlots.size() * 2, 0);
    size_t Mask = SymSlots.size() - 1;
    for (uint32_t Sym = 0; Sym < SymNames.size(); ++Sym) {
      size_t I = std::hash<std::string_view>{}(SymNames[Sym]) & Mask;
      while (SymSlots[I])
        I = (I + 1) & Mask;
      SymSlots[I] = Sym + 1;
    }
  }
  size_t Mask = SymSlots.size() - 1;
  size_t I = std::hash<std::string_view>{}(Text) & Mask;
  for (; SymSlots[I]; I = (I + 1) & Mask) {
    uint32_t Sym = SymSlots[I] - 1;
    if (SymNames[Sym] == Text)
      return {SymNames[Sym], Sym};
  }
  uint32_t Sym = (uint32_t)SymNames.size();
  SymNames.push_back(Prog.Nodes.copy(Text));
  SymSlots[I] = Sym + 1;
  return {SymNames[Sym], Sym};
}

VarDecl *Parser::makeVar(Name N, SourceLoc Loc) {
  auto *V = Prog.Nodes.create<VarDecl>();
  V->Name = N.Text;
  V->Sym = N.Sym;
  V->Loc = Loc;
  return V;
}

void Parser::parseTypeDecl() {
  expect(TokKind::KwType, "type declaration");
  if (!at(TokKind::Ident)) {
    error("expected struct name");
    syncToStmtBoundary();
    return;
  }
  std::string_view Name = cur().Text;
  advance();
  expect(TokKind::KwStruct, "type declaration");
  expect(TokKind::LBrace, "struct body");
  std::vector<Field> Fields;
  while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
    if (accept(TokKind::Semi))
      continue;
    if (!at(TokKind::Ident)) {
      error("expected field name");
      syncToStmtBoundary();
      continue;
    }
    Field F;
    F.Name = cur().Text;
    advance();
    F.Ty = parseType();
    if (!F.Ty)
      continue;
    if (F.Ty->isStruct() && F.Ty->size() == 0) {
      Diags.error(cur().Loc, "struct '" + F.Ty->structName() +
                                 "' used by value before its definition");
      continue;
    }
    Fields.push_back(std::move(F));
  }
  expect(TokKind::RBrace, "struct body");
  Type *StructTy = Prog.Types->declareStruct(Name);
  if (StructTy->size() != 0 || !StructTy->fields().empty()) {
    Diags.error(cur().Loc, "struct '" + std::string(Name) + "' redefined");
    return;
  }
  Prog.Types->finalizeStruct(StructTy, std::move(Fields));
}

const Type *Parser::parseType() {
  SourceLoc Loc = cur().Loc;
  if (accept(TokKind::KwInt))
    return Prog.Types->getInt();
  if (accept(TokKind::KwBool))
    return Prog.Types->getBool();
  if (accept(TokKind::Star)) {
    const Type *Pointee = parseType();
    return Pointee ? Prog.Types->getPointer(Pointee) : nullptr;
  }
  if (accept(TokKind::LBracket)) {
    expect(TokKind::RBracket, "slice type");
    const Type *Elem = parseType();
    return Elem ? Prog.Types->getSlice(Elem) : nullptr;
  }
  if (accept(TokKind::KwMap)) {
    expect(TokKind::LBracket, "map type");
    const Type *Key = parseType();
    expect(TokKind::RBracket, "map type");
    const Type *Value = parseType();
    if (!Key || !Value)
      return nullptr;
    return Prog.Types->getMap(Key, Value);
  }
  if (at(TokKind::Ident)) {
    std::string_view Name = cur().Text;
    advance();
    return Prog.Types->declareStruct(Name);
  }
  Diags.error(Loc, std::string("expected a type, found ") +
                       tokKindName(cur().Kind));
  return nullptr;
}

void Parser::parseFuncDecl() {
  SourceLoc Loc = cur().Loc;
  expect(TokKind::KwFunc, "function declaration");
  auto *Fn = Prog.Nodes.create<FuncDecl>();
  Fn->Loc = Loc;
  if (at(TokKind::Ident)) {
    Fn->Name = intern(cur().Text).Text;
    advance();
  } else {
    error("expected function name");
  }
  expect(TokKind::LParen, "parameter list");
  size_t Mark = mark();
  while (!at(TokKind::RParen) && !at(TokKind::Eof)) {
    if (!at(TokKind::Ident)) {
      error("expected parameter name");
      break;
    }
    VarDecl *P = makeVar(intern(cur().Text), cur().Loc);
    P->IsParam = true;
    advance();
    P->Ty = parseType();
    push(P);
    if (!accept(TokKind::Comma))
      break;
  }
  Fn->Params = take<VarDecl *>(Mark);
  expect(TokKind::RParen, "parameter list");

  // Results: none, a single type, or a parenthesized list. Names in the
  // result list (Go's named results) are accepted and ignored; MiniGo
  // requires explicit return statements.
  if (at(TokKind::LParen)) {
    advance();
    Mark = mark();
    while (!at(TokKind::RParen) && !at(TokKind::Eof)) {
      // "name Type" or just "Type"; an identifier followed by the start of
      // a type is a result name.
      if (at(TokKind::Ident)) {
        TokKind NextK = lookahead().Kind;
        bool NextStartsType = NextK == TokKind::KwInt ||
                              NextK == TokKind::KwBool ||
                              NextK == TokKind::Star ||
                              NextK == TokKind::LBracket ||
                              NextK == TokKind::KwMap || NextK == TokKind::Ident;
        if (NextStartsType)
          advance(); // Skip the result name.
      }
      const Type *RT = parseType();
      if (RT)
        push(RT);
      if (!accept(TokKind::Comma))
        break;
    }
    Fn->Results = take<const Type *>(Mark);
    expect(TokKind::RParen, "result list");
  } else if (!at(TokKind::LBrace)) {
    if (const Type *RT = parseType())
      Fn->Results = list({RT});
  }

  Fn->Body = parseBlock();
  accept(TokKind::Semi);
  if (Prog.FuncByName.count(Fn->Name)) {
    Diags.error(Fn->Loc, "function '" + std::string(Fn->Name) + "' redefined");
    return;
  }
  Fn->Index = (uint32_t)Prog.Funcs.size();
  Prog.Funcs.push_back(Fn);
  Prog.FuncByName[Fn->Name] = Fn;
}

BlockStmt *Parser::parseBlock(Stmt *Prefix) {
  BlockStmt *B = make<BlockStmt>(cur().Loc);
  expect(TokKind::LBrace, "block");
  size_t Mark = mark();
  if (Prefix)
    push(Prefix);
  while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
    if (accept(TokKind::Semi))
      continue;
    Stmt *S = parseStmt();
    if (S)
      push(S);
  }
  B->Stmts = take<Stmt *>(Mark);
  expect(TokKind::RBrace, "block");
  return B;
}

Stmt *Parser::parseStmt() {
  SourceLoc Loc = cur().Loc;
  switch (cur().Kind) {
  case TokKind::LBrace:
    return parseBlock();
  case TokKind::KwVar: {
    advance();
    auto *DS = make<VarDeclStmt>(Loc);
    if (!at(TokKind::Ident)) {
      error("expected variable name after 'var'");
      syncToStmtBoundary();
      return nullptr;
    }
    DS->Vars = list({makeVar(intern(cur().Text), cur().Loc)});
    advance();
    DS->DeclaredTy = parseType();
    if (accept(TokKind::Assign))
      DS->Inits = list({parseExpr()});
    accept(TokKind::Semi);
    return DS;
  }
  case TokKind::KwIf:
    return parseIf();
  case TokKind::KwFor:
    return parseFor();
  case TokKind::KwSwitch:
    return parseSwitch();
  case TokKind::KwReturn:
    return parseReturn();
  case TokKind::KwBreak:
    advance();
    accept(TokKind::Semi);
    return make<BreakStmt>(Loc);
  case TokKind::KwContinue:
    advance();
    accept(TokKind::Semi);
    return make<ContinueStmt>(Loc);
  case TokKind::KwDefer: {
    advance();
    Expr *E = parseExpr();
    accept(TokKind::Semi);
    if (!E || E->kind() != ExprKind::Call) {
      Diags.error(Loc, "defer requires a function call");
      return nullptr;
    }
    return make<DeferStmt>(Loc, cast<CallExpr>(E));
  }
  case TokKind::KwPanic: {
    advance();
    expect(TokKind::LParen, "panic");
    Expr *E = parseExpr();
    expect(TokKind::RParen, "panic");
    accept(TokKind::Semi);
    return make<PanicStmt>(Loc, E);
  }
  case TokKind::KwSink: {
    advance();
    expect(TokKind::LParen, "sink");
    Expr *E = parseExpr();
    expect(TokKind::RParen, "sink");
    accept(TokKind::Semi);
    return make<SinkStmt>(Loc, E);
  }
  case TokKind::KwDelete: {
    advance();
    expect(TokKind::LParen, "delete");
    Expr *M = parseExpr();
    expect(TokKind::Comma, "delete");
    Expr *K = parseExpr();
    expect(TokKind::RParen, "delete");
    accept(TokKind::Semi);
    return make<DeleteStmt>(Loc, M, K);
  }
  default: {
    Stmt *S = parseSimpleStmt();
    accept(TokKind::Semi);
    return S;
  }
  }
}

Stmt *Parser::parseSimpleStmt() {
  SourceLoc Loc = cur().Loc;
  std::span<Expr *> Lhs = parseExprList();
  if (Lhs.empty()) {
    syncToStmtBoundary();
    return nullptr;
  }
  if (accept(TokKind::Define)) {
    auto *DS = make<VarDeclStmt>(Loc);
    size_t Mark = mark();
    for (Expr *L : Lhs) {
      auto *Id = dyn_cast<IdentExpr>(L);
      if (!Id) {
        Diags.error(L->Loc, "left side of ':=' must be an identifier");
        continue;
      }
      push(makeVar({Id->Name, Id->Sym}, Id->Loc));
    }
    DS->Vars = take<VarDecl *>(Mark);
    DS->Inits = parseExprList();
    return DS;
  }
  if (accept(TokKind::Assign)) {
    auto *AS = make<AssignStmt>(Loc);
    AS->Lhs = Lhs;
    AS->Rhs = parseExprList();
    return AS;
  }
  // Compound assignment and increment/decrement desugar into plain
  // assignments reusing the lvalue node (side effects in the lvalue are
  // evaluated twice; MiniGo documents this restriction).
  auto CompoundOp = [&]() -> std::optional<BinaryOp> {
    switch (cur().Kind) {
    case TokKind::PlusEq: return BinaryOp::Add;
    case TokKind::MinusEq: return BinaryOp::Sub;
    case TokKind::StarEq: return BinaryOp::Mul;
    case TokKind::SlashEq: return BinaryOp::Div;
    case TokKind::PercentEq: return BinaryOp::Mod;
    default: return std::nullopt;
    }
  };
  if (auto Op = CompoundOp()) {
    advance();
    if (Lhs.size() != 1) {
      Diags.error(Loc, "compound assignment takes a single operand");
      return nullptr;
    }
    Expr *Rhs = parseExpr();
    if (!Rhs)
      return nullptr;
    auto *AS = make<AssignStmt>(Loc);
    AS->Lhs = Lhs;
    AS->Rhs = list<Expr *>({make<BinaryExpr>(Loc, *Op, Lhs[0], Rhs)});
    return AS;
  }
  if (at(TokKind::PlusPlus) || at(TokKind::MinusMinus)) {
    BinaryOp Op = at(TokKind::PlusPlus) ? BinaryOp::Add : BinaryOp::Sub;
    advance();
    if (Lhs.size() != 1) {
      Diags.error(Loc, "'++'/'--' take a single operand");
      return nullptr;
    }
    auto *AS = make<AssignStmt>(Loc);
    AS->Lhs = Lhs;
    AS->Rhs = list<Expr *>(
        {make<BinaryExpr>(Loc, Op, Lhs[0], make<IntLitExpr>(Loc, 1))});
    return AS;
  }
  if (Lhs.size() != 1) {
    Diags.error(Loc, "expression list is not a statement");
    return nullptr;
  }
  return make<ExprStmt>(Loc, Lhs[0]);
}

Stmt *Parser::parseIf() {
  SourceLoc Loc = cur().Loc;
  expect(TokKind::KwIf, "if statement");
  auto *S = make<IfStmt>(Loc);
  bool SavedCompositeOK = CompositeOK;
  CompositeOK = false;
  // Go's `if init; cond { ... }`: the init statement scopes over both
  // branches, which a wrapping block models exactly.
  Stmt *Init = nullptr;
  {
    Stmt *First = parseSimpleStmt();
    if (accept(TokKind::Semi)) {
      Init = First;
      S->Cond = parseExpr();
    } else if (First) {
      if (auto *ES = dyn_cast<ExprStmt>(First))
        S->Cond = ES->E;
      else
        Diags.error(First->Loc, "if condition must be an expression");
    }
  }
  CompositeOK = SavedCompositeOK;
  S->Then = parseBlock();
  if (accept(TokKind::KwElse)) {
    if (at(TokKind::KwIf))
      S->Else = parseIf();
    else
      S->Else = parseBlock();
  }
  accept(TokKind::Semi);
  if (Init) {
    auto *Wrapper = make<BlockStmt>(S->Loc);
    Wrapper->Stmts = list<Stmt *>({Init, S});
    return Wrapper;
  }
  return S;
}

Parser::Name Parser::freshName(const char *Prefix) {
  char Buf[48];
  size_t Len = std::strlen(Prefix);
  std::memcpy(Buf, Prefix, Len);
  char *End = std::to_chars(Buf + Len, Buf + sizeof(Buf), SynthCounter++).ptr;
  return intern({Buf, (size_t)(End - Buf)});
}

/// `for i[, v] := range s { ... }`, desugared (evaluating the range
/// expression and its length exactly once, like Go):
///   { rng := s; n := len(rng)
///     for i := 0; i < n; i++ { v := rng[i]; ... } }
Stmt *Parser::parseRangeFor(SourceLoc Loc) {
  Name IdxName = intern(cur().Text);
  advance();
  Name ValName{};
  bool HasVal = false;
  if (accept(TokKind::Comma)) {
    if (!at(TokKind::Ident)) {
      error("expected value variable in range clause");
      syncToStmtBoundary();
      return nullptr;
    }
    ValName = intern(cur().Text);
    HasVal = true;
    advance();
  }
  expect(TokKind::Define, "range clause");
  expect(TokKind::KwRange, "range clause");
  bool SavedCompositeOK = CompositeOK;
  CompositeOK = false; // `{` after the range expression starts the body.
  Expr *RangeExpr = parseExpr();
  CompositeOK = SavedCompositeOK;
  if (!RangeExpr)
    return nullptr;
  if (IdxName.Text == "_")
    IdxName = freshName();

  auto Ref = [&](Name N) { return make<IdentExpr>(Loc, N.Text, N.Sym); };
  auto Decl1 = [&](Name N, Expr *Init) {
    auto *DS = make<VarDeclStmt>(Loc);
    DS->Vars = list({makeVar(N, Loc)});
    DS->Inits = list({Init});
    return DS;
  };

  // The distinctive prefix lets Sema verify the ranged expression is a
  // slice (the desugaring would silently misbehave on maps).
  Name RngName = freshName("__gofree_rng");
  Name LenName = freshName();
  auto *Wrapper = make<BlockStmt>(Loc);
  VarDeclStmt *RngDecl = Decl1(RngName, RangeExpr);
  VarDeclStmt *LenDecl = Decl1(LenName, make<LenExpr>(Loc, Ref(RngName)));

  auto *Loop = make<ForStmt>(Loc);
  Loop->Init = Decl1(IdxName, make<IntLitExpr>(Loc, 0));
  Loop->Cond = make<BinaryExpr>(Loc, BinaryOp::Lt, Ref(IdxName), Ref(LenName));
  auto *Post = make<AssignStmt>(Loc);
  Post->Lhs = list<Expr *>({Ref(IdxName)});
  Post->Rhs = list<Expr *>({make<BinaryExpr>(
      Loc, BinaryOp::Add, Ref(IdxName), make<IntLitExpr>(Loc, 1))});
  Loop->Post = Post;

  VarDeclStmt *ValDecl = nullptr;
  if (HasVal && ValName.Text != "_")
    ValDecl = Decl1(ValName, make<IndexExpr>(Loc, Ref(RngName), Ref(IdxName)));
  Loop->Body = parseBlock(ValDecl);
  Wrapper->Stmts = list<Stmt *>({RngDecl, LenDecl, Loop});
  accept(TokKind::Semi);
  return Wrapper;
}

/// Go's switch, desugared into an if/else-if chain over a temporary (no
/// fallthrough, like Go's default behavior).
Stmt *Parser::parseSwitch() {
  SourceLoc Loc = cur().Loc;
  expect(TokKind::KwSwitch, "switch statement");
  bool SavedCompositeOK = CompositeOK;
  CompositeOK = false;
  Expr *Tag = nullptr;
  if (!at(TokKind::LBrace))
    Tag = parseExpr();
  CompositeOK = SavedCompositeOK;

  auto *Wrapper = make<BlockStmt>(Loc);
  Name TagName{};
  VarDeclStmt *TagDecl = nullptr;
  if (Tag) {
    TagName = freshName();
    TagDecl = make<VarDeclStmt>(Loc);
    TagDecl->Vars = list({makeVar(TagName, Loc)});
    TagDecl->Inits = list({Tag});
  }

  expect(TokKind::LBrace, "switch body");
  struct Arm {
    std::span<Expr *> Guards; ///< Empty for default.
    BlockStmt *Body;
    SourceLoc Loc;
  };
  size_t ArmsMark = mark();
  while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
    if (accept(TokKind::Semi))
      continue;
    Arm A{};
    A.Loc = cur().Loc;
    if (accept(TokKind::KwCase)) {
      A.Guards = parseExprList();
      if (A.Guards.empty()) {
        error("empty case expression list");
        syncToStmtBoundary();
        continue;
      }
    } else if (accept(TokKind::KwDefault)) {
      // No guards.
    } else {
      error("expected 'case' or 'default' in switch body");
      syncToStmtBoundary();
      continue;
    }
    expect(TokKind::Colon, "switch case");
    A.Body = make<BlockStmt>(A.Loc);
    size_t BodyMark = mark();
    while (!at(TokKind::KwCase) && !at(TokKind::KwDefault) &&
           !at(TokKind::RBrace) && !at(TokKind::Eof)) {
      if (accept(TokKind::Semi))
        continue;
      if (Stmt *Sub = parseStmt())
        push(Sub);
    }
    A.Body->Stmts = take<Stmt *>(BodyMark);
    push(A);
  }
  std::span<Arm> Arms = take<Arm>(ArmsMark);
  expect(TokKind::RBrace, "switch body");
  accept(TokKind::Semi);

  // Build the chain back-to-front; default (guardless) arm is the final
  // else regardless of its position, like Go.
  Stmt *Else = nullptr;
  for (const Arm &A : Arms)
    if (A.Guards.empty())
      Else = A.Body;
  for (auto It = Arms.rbegin(); It != Arms.rend(); ++It) {
    if (It->Guards.empty())
      continue;
    Expr *Cond = nullptr;
    for (Expr *G : It->Guards) {
      Expr *One = Tag ? (Expr *)make<BinaryExpr>(
                            It->Loc, BinaryOp::Eq,
                            make<IdentExpr>(It->Loc, TagName.Text, TagName.Sym),
                            G)
                      : G;
      Cond = Cond ? make<BinaryExpr>(It->Loc, BinaryOp::Or, Cond, One) : One;
    }
    auto *If = make<IfStmt>(It->Loc);
    If->Cond = Cond;
    If->Then = It->Body;
    If->Else = Else;
    Else = If;
  }
  Stmt *Parts[2];
  size_t NumParts = 0;
  if (TagDecl)
    Parts[NumParts++] = TagDecl;
  if (Else)
    Parts[NumParts++] = Else;
  Wrapper->Stmts = Prog.Nodes.copy<Stmt *>({Parts, NumParts});
  return Wrapper;
}

Stmt *Parser::parseFor() {
  SourceLoc Loc = cur().Loc;
  expect(TokKind::KwFor, "for statement");
  // Range form: `for IDENT [, IDENT] := range EXPR { ... }`.
  if (at(TokKind::Ident)) {
    size_t Probe = 1;
    if (lookahead(1).is(TokKind::Comma) && lookahead(2).is(TokKind::Ident))
      Probe = 3;
    if (lookahead(Probe).is(TokKind::Define) &&
        lookahead(Probe + 1).is(TokKind::KwRange))
      return parseRangeFor(Loc);
  }
  auto *S = make<ForStmt>(Loc);
  bool SavedCompositeOK = CompositeOK;
  CompositeOK = false;
  if (!at(TokKind::LBrace)) {
    if (at(TokKind::Semi)) {
      // for ; cond ; post { }
      advance();
      if (!at(TokKind::Semi))
        S->Cond = parseExpr();
      expect(TokKind::Semi, "for clause");
      if (!at(TokKind::LBrace))
        S->Post = parseSimpleStmt();
    } else {
      Stmt *First = parseSimpleStmt();
      if (at(TokKind::Semi)) {
        // Three-clause form: the first statement was the init.
        advance();
        S->Init = First;
        if (!at(TokKind::Semi))
          S->Cond = parseExpr();
        expect(TokKind::Semi, "for clause");
        if (!at(TokKind::LBrace))
          S->Post = parseSimpleStmt();
      } else {
        // Condition-only form: the statement must be a bare expression.
        if (First) {
          if (auto *ES = dyn_cast<ExprStmt>(First))
            S->Cond = ES->E;
          else
            Diags.error(First->Loc, "for condition must be an expression");
        }
      }
    }
  }
  CompositeOK = SavedCompositeOK;
  S->Body = parseBlock();
  accept(TokKind::Semi);
  return S;
}

Stmt *Parser::parseReturn() {
  SourceLoc Loc = cur().Loc;
  expect(TokKind::KwReturn, "return statement");
  auto *S = make<ReturnStmt>(Loc);
  if (!at(TokKind::Semi) && !at(TokKind::RBrace))
    S->Values = parseExprList();
  accept(TokKind::Semi);
  return S;
}

std::span<Expr *> Parser::parseExprList() {
  size_t Mark = mark();
  do {
    Expr *E = parseExpr();
    if (!E)
      break;
    push(E);
  } while (accept(TokKind::Comma));
  return take<Expr *>(Mark);
}

/// Binary operator precedence; higher binds tighter. Returns -1 for
/// non-operators.
static int precedenceOf(TokKind K) {
  switch (K) {
  case TokKind::OrOr:
    return 1;
  case TokKind::AndAnd:
    return 2;
  case TokKind::EqEq:
  case TokKind::NotEq:
  case TokKind::Lt:
  case TokKind::Le:
  case TokKind::Gt:
  case TokKind::Ge:
    return 3;
  case TokKind::Plus:
  case TokKind::Minus:
    return 4;
  case TokKind::Star:
  case TokKind::Slash:
  case TokKind::Percent:
    return 5;
  default:
    return -1;
  }
}

static BinaryOp binOpOf(TokKind K) {
  switch (K) {
  case TokKind::OrOr: return BinaryOp::Or;
  case TokKind::AndAnd: return BinaryOp::And;
  case TokKind::EqEq: return BinaryOp::Eq;
  case TokKind::NotEq: return BinaryOp::Ne;
  case TokKind::Lt: return BinaryOp::Lt;
  case TokKind::Le: return BinaryOp::Le;
  case TokKind::Gt: return BinaryOp::Gt;
  case TokKind::Ge: return BinaryOp::Ge;
  case TokKind::Plus: return BinaryOp::Add;
  case TokKind::Minus: return BinaryOp::Sub;
  case TokKind::Star: return BinaryOp::Mul;
  case TokKind::Slash: return BinaryOp::Div;
  case TokKind::Percent: return BinaryOp::Mod;
  default: break;
  }
  assert(false && "not a binary operator token");
  return BinaryOp::Add;
}

Expr *Parser::parseBinary(int MinPrec) {
  Expr *Lhs = parseUnary();
  if (!Lhs)
    return nullptr;
  while (true) {
    int Prec = precedenceOf(cur().Kind);
    if (Prec < 0 || Prec < MinPrec)
      break;
    TokKind OpTok = cur().Kind;
    SourceLoc Loc = cur().Loc;
    advance();
    Expr *Rhs = parseBinary(Prec + 1);
    if (!Rhs)
      return Lhs;
    Lhs = make<BinaryExpr>(Loc, binOpOf(OpTok), Lhs, Rhs);
  }
  return Lhs;
}

Expr *Parser::parseUnary() {
  SourceLoc Loc = cur().Loc;
  if (accept(TokKind::Minus)) {
    Expr *Sub = parseUnary();
    return Sub ? make<UnaryExpr>(Loc, UnaryOp::Neg, Sub) : nullptr;
  }
  if (accept(TokKind::Not)) {
    Expr *Sub = parseUnary();
    return Sub ? make<UnaryExpr>(Loc, UnaryOp::Not, Sub) : nullptr;
  }
  if (accept(TokKind::Star)) {
    Expr *Sub = parseUnary();
    return Sub ? make<DerefExpr>(Loc, Sub) : nullptr;
  }
  if (accept(TokKind::Amp)) {
    // &T{...} is an allocating composite literal.
    if (at(TokKind::Ident) && lookahead().is(TokKind::LBrace)) {
      std::string_view Name = intern(cur().Text).Text;
      advance();
      return parseCompositeBody(Name, Loc, /*TakeAddr=*/true);
    }
    Expr *Sub = parseUnary();
    return Sub ? make<AddrOfExpr>(Loc, Sub) : nullptr;
  }
  Expr *P = parsePrimary();
  return P ? parsePostfix(P) : nullptr;
}

Expr *Parser::parsePostfix(Expr *Base) {
  while (true) {
    SourceLoc Loc = cur().Loc;
    if (accept(TokKind::Dot)) {
      if (!at(TokKind::Ident)) {
        error("expected field name after '.'");
        return Base;
      }
      Base = make<FieldExpr>(Loc, Base, intern(cur().Text).Text);
      advance();
      continue;
    }
    if (accept(TokKind::LBracket)) {
      // Index s[i] or slice s[lo:hi] (either bound optional).
      Expr *Lo = nullptr;
      if (!at(TokKind::Colon))
        Lo = parseExpr();
      if (accept(TokKind::Colon)) {
        Expr *Hi = nullptr;
        if (!at(TokKind::RBracket))
          Hi = parseExpr();
        expect(TokKind::RBracket, "slice expression");
        Base = make<SlicingExpr>(Loc, Base, Lo, Hi);
        continue;
      }
      expect(TokKind::RBracket, "index expression");
      Base = make<IndexExpr>(Loc, Base, Lo);
      continue;
    }
    if (at(TokKind::LParen) && Base->kind() == ExprKind::Ident) {
      advance();
      std::span<Expr *> Args;
      bool SavedCompositeOK = CompositeOK;
      CompositeOK = true;
      if (!at(TokKind::RParen))
        Args = parseExprList();
      CompositeOK = SavedCompositeOK;
      expect(TokKind::RParen, "call");
      Base = make<CallExpr>(Loc, cast<IdentExpr>(Base)->Name, Args);
      continue;
    }
    break;
  }
  return Base;
}

Expr *Parser::parseCompositeBody(std::string_view TypeName, SourceLoc Loc,
                                 bool TakeAddr) {
  expect(TokKind::LBrace, "composite literal");
  size_t Mark = mark();
  bool SavedCompositeOK = CompositeOK;
  CompositeOK = true;
  while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
    if (!at(TokKind::Ident)) {
      error("expected field name in composite literal");
      break;
    }
    std::string_view FieldName = intern(cur().Text).Text;
    advance();
    expect(TokKind::Colon, "composite literal");
    Expr *Init = parseExpr();
    push(FieldInit{FieldName, Init});
    if (!accept(TokKind::Comma))
      break;
  }
  std::span<FieldInit> Inits = take<FieldInit>(Mark);
  CompositeOK = SavedCompositeOK;
  expect(TokKind::RBrace, "composite literal");
  return make<CompositeExpr>(Loc, TypeName, Inits, TakeAddr);
}

Expr *Parser::parsePrimary() {
  SourceLoc Loc = cur().Loc;
  switch (cur().Kind) {
  case TokKind::IntLit: {
    int64_t V = cur().IntValue;
    advance();
    return make<IntLitExpr>(Loc, V);
  }
  case TokKind::KwTrue:
    advance();
    return make<BoolLitExpr>(Loc, true);
  case TokKind::KwFalse:
    advance();
    return make<BoolLitExpr>(Loc, false);
  case TokKind::KwNil:
    advance();
    return make<NilLitExpr>(Loc);
  case TokKind::Ident: {
    Name N = intern(cur().Text);
    advance();
    if (CompositeOK && at(TokKind::LBrace))
      return parseCompositeBody(N.Text, Loc, /*TakeAddr=*/false);
    return make<IdentExpr>(Loc, N.Text, N.Sym);
  }
  case TokKind::LParen: {
    advance();
    bool SavedCompositeOK = CompositeOK;
    CompositeOK = true;
    Expr *E = parseExpr();
    CompositeOK = SavedCompositeOK;
    expect(TokKind::RParen, "parenthesized expression");
    return E;
  }
  case TokKind::KwMake: {
    advance();
    expect(TokKind::LParen, "make");
    const Type *MadeTy = parseType();
    Expr *Len = nullptr;
    Expr *Cap = nullptr;
    if (accept(TokKind::Comma))
      Len = parseExpr();
    if (accept(TokKind::Comma))
      Cap = parseExpr();
    expect(TokKind::RParen, "make");
    if (!MadeTy)
      return nullptr;
    return make<MakeExpr>(Loc, MadeTy, Len, Cap);
  }
  case TokKind::KwNew: {
    advance();
    expect(TokKind::LParen, "new");
    const Type *AllocTy = parseType();
    expect(TokKind::RParen, "new");
    if (!AllocTy)
      return nullptr;
    return make<NewExpr>(Loc, AllocTy);
  }
  case TokKind::KwLen: {
    advance();
    expect(TokKind::LParen, "len");
    Expr *Sub = parseExpr();
    expect(TokKind::RParen, "len");
    return Sub ? make<LenExpr>(Loc, Sub) : nullptr;
  }
  case TokKind::KwCap: {
    advance();
    expect(TokKind::LParen, "cap");
    Expr *Sub = parseExpr();
    expect(TokKind::RParen, "cap");
    return Sub ? make<CapExpr>(Loc, Sub) : nullptr;
  }
  case TokKind::KwCopy: {
    advance();
    expect(TokKind::LParen, "copy");
    Expr *D = parseExpr();
    expect(TokKind::Comma, "copy");
    Expr *Sv = parseExpr();
    expect(TokKind::RParen, "copy");
    if (!D || !Sv)
      return nullptr;
    return make<CopyExpr>(Loc, D, Sv);
  }
  case TokKind::KwAppend: {
    advance();
    expect(TokKind::LParen, "append");
    Expr *S = parseExpr();
    expect(TokKind::Comma, "append");
    Expr *V = parseExpr();
    expect(TokKind::RParen, "append");
    if (!S || !V)
      return nullptr;
    return make<AppendExpr>(Loc, S, V);
  }
  default:
    Diags.error(Loc, std::string("expected an expression, found ") +
                         tokKindName(cur().Kind));
    advance();
    return nullptr;
  }
}
