//===- tests/LexerTest.cpp - Unit tests for the MiniGo lexer --------------===//
//
// Part of the GoFree-CPP project, reproducing "GoFree: Reducing Garbage
// Collection via Compiler-Inserted Freeing" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "minigo/Lexer.h"
#include "workloads/Synth.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace gofree;
using namespace gofree::minigo;

namespace {

/// A source and its tokens. Tokens point into the source, so the two live
/// and die together; the type is neither copied nor moved, because a move
/// would take a short string's bytes to a new address.
struct Lexed {
  explicit Lexed(std::string Source) : Src(std::move(Source)) {
    DiagSink Diags;
    Toks = Lexer(Src, Diags).lexAll();
    EXPECT_FALSE(Diags.hasErrors()) << Diags.dump();
  }
  Lexed(const Lexed &) = delete;
  Lexed &operator=(const Lexed &) = delete;

  const Token &operator[](size_t I) const { return Toks[I]; }
  std::vector<Token>::const_iterator begin() const { return Toks.begin(); }
  std::vector<Token>::const_iterator end() const { return Toks.end(); }

  const std::string Src;
  std::vector<Token> Toks;
};

Lexed lex(std::string Src) { return Lexed(std::move(Src)); }

std::vector<TokKind> kinds(const std::string &Src) {
  std::vector<TokKind> Out;
  for (const Token &T : lex(Src))
    Out.push_back(T.Kind);
  return Out;
}

/// The diagnostics lexing \p Src reports.
std::string lexErrors(const std::string &Src) {
  DiagSink Diags;
  Lexer(Src, Diags).lexAll();
  return Diags.dump();
}

/// FNV-1a over (kind, line, col, text, int value) of every token, each
/// field fed as fixed-width little-endian bytes and the text length-prefixed.
uint64_t tokenDigest(const std::vector<Token> &Toks) {
  uint64_t H = 14695981039346656037ull;
  auto Byte = [&H](uint8_t B) {
    H ^= B;
    H *= 1099511628211ull;
  };
  auto Word = [&Byte](uint64_t V, int Bytes) {
    for (int I = 0; I < Bytes; ++I)
      Byte(uint8_t(V >> (8 * I)));
  };
  for (const Token &T : Toks) {
    std::string_view Text = T.Text;
    Word(uint64_t(T.Kind), 1);
    Word(T.Loc.Line, 4);
    Word(T.Loc.Col, 4);
    Word(Text.size(), 4);
    for (char C : Text)
      Byte(uint8_t(C));
    Word(uint64_t(T.IntValue), 8);
  }
  return H;
}

std::string readFile(const std::filesystem::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

} // namespace

TEST(LexerTest, EmptyInput) {
  auto Ks = kinds("");
  ASSERT_EQ(Ks.size(), 1u);
  EXPECT_EQ(Ks[0], TokKind::Eof);
}

TEST(LexerTest, IdentifiersAndKeywords) {
  auto Ts = lex("func foo make x_1");
  EXPECT_EQ(Ts[0].Kind, TokKind::KwFunc);
  EXPECT_EQ(Ts[1].Kind, TokKind::Ident);
  EXPECT_EQ(Ts[1].Text, "foo");
  EXPECT_EQ(Ts[2].Kind, TokKind::KwMake);
  EXPECT_EQ(Ts[3].Kind, TokKind::Ident);
  EXPECT_EQ(Ts[3].Text, "x_1");
}

TEST(LexerTest, IntegerLiterals) {
  auto Ts = lex("0 42 123456789");
  EXPECT_EQ(Ts[0].IntValue, 0);
  EXPECT_EQ(Ts[1].IntValue, 42);
  EXPECT_EQ(Ts[2].IntValue, 123456789);
}

TEST(LexerTest, MultiCharOperators) {
  auto Ks = kinds(":= == != <= >= && ||");
  std::vector<TokKind> Want = {TokKind::Define, TokKind::EqEq, TokKind::NotEq,
                               TokKind::Le,     TokKind::Ge,   TokKind::AndAnd,
                               TokKind::OrOr,   TokKind::Eof};
  EXPECT_EQ(Ks, Want);
}

TEST(LexerTest, AutomaticSemicolonInsertion) {
  auto Ks = kinds("x := 1\ny := 2\n");
  std::vector<TokKind> Want = {
      TokKind::Ident, TokKind::Define, TokKind::IntLit, TokKind::Semi,
      TokKind::Ident, TokKind::Define, TokKind::IntLit, TokKind::Semi,
      TokKind::Eof};
  EXPECT_EQ(Ks, Want);
}

TEST(LexerTest, NoSemicolonAfterOperators) {
  // A newline after '+' must not insert a semicolon.
  auto Ks = kinds("x = 1 +\n2\n");
  std::vector<TokKind> Want = {TokKind::Ident,  TokKind::Assign,
                               TokKind::IntLit, TokKind::Plus,
                               TokKind::IntLit, TokKind::Semi,
                               TokKind::Eof};
  EXPECT_EQ(Ks, Want);
}

TEST(LexerTest, SemicolonAfterRBrace) {
  auto Ks = kinds("{ x }\n");
  std::vector<TokKind> Want = {TokKind::LBrace, TokKind::Ident, TokKind::Semi,
                               TokKind::RBrace, TokKind::Semi, TokKind::Eof};
  // Note: "x }" has no newline between x and }, so no semi after x... but the
  // lexer only inserts semicolons at newlines.
  Want = {TokKind::LBrace, TokKind::Ident, TokKind::RBrace, TokKind::Semi,
          TokKind::Eof};
  EXPECT_EQ(Ks, Want);
}

TEST(LexerTest, LineCommentsAreSkipped) {
  auto Ks = kinds("x // the variable\ny");
  std::vector<TokKind> Want = {TokKind::Ident, TokKind::Semi, TokKind::Ident,
                               TokKind::Semi, TokKind::Eof};
  EXPECT_EQ(Ks, Want);
}

TEST(LexerTest, BlockCommentsAreSkipped) {
  auto Ks = kinds("a /* b c d */ e");
  std::vector<TokKind> Want = {TokKind::Ident, TokKind::Ident, TokKind::Semi,
                               TokKind::Eof};
  EXPECT_EQ(Ks, Want);
}

TEST(LexerTest, BlockCommentWithNewlineInsertsSemi) {
  auto Ks = kinds("a /* multi\nline */ e");
  std::vector<TokKind> Want = {TokKind::Ident, TokKind::Semi, TokKind::Ident,
                               TokKind::Semi, TokKind::Eof};
  EXPECT_EQ(Ks, Want);
}

TEST(LexerTest, SourceLocationsAreTracked) {
  auto Ts = lex("x\n  yy");
  EXPECT_EQ(Ts[0].Loc.Line, 1u);
  EXPECT_EQ(Ts[0].Loc.Col, 1u);
  // Ts[1] is the inserted semicolon.
  EXPECT_EQ(Ts[2].Loc.Line, 2u);
  EXPECT_EQ(Ts[2].Loc.Col, 3u);
}

TEST(LexerTest, UnknownCharacterIsReported) {
  DiagSink Diags;
  Lexer L("x @ y", Diags);
  L.lexAll();
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LexerTest, AmpersandVsLogicalAnd) {
  auto Ks = kinds("&x && &y");
  std::vector<TokKind> Want = {TokKind::Amp,    TokKind::Ident,
                               TokKind::AndAnd, TokKind::Amp,
                               TokKind::Ident,  TokKind::Semi, TokKind::Eof};
  EXPECT_EQ(Ks, Want);
}

TEST(LexerTest, IdentifierTextPointsIntoTheSource) {
  auto Ts = lex("var longer_than_any_small_string_buffer int");
  ASSERT_EQ(Ts[1].Kind, TokKind::Ident);
  const char *Begin = Ts.Src.data(), *End = Begin + Ts.Src.size();
  EXPECT_GE(Ts[1].Text.data(), Begin);
  EXPECT_LE(Ts[1].Text.data() + Ts[1].Text.size(), End);
  EXPECT_EQ(Ts[1].Text.data(), Begin + 4);
}

TEST(LexerTest, LargestIntegerLiteralIsAccepted) {
  auto Ts = lex("9223372036854775807");
  EXPECT_EQ(Ts[0].Kind, TokKind::IntLit);
  EXPECT_EQ(Ts[0].IntValue, INT64_MAX);
}

TEST(LexerTest, OverflowingIntegerLiteralsAreRejected) {
  EXPECT_EQ(lexErrors("x := 9223372036854775808"),
            "1:6: error: integer literal 9223372036854775808 overflows int\n");
  EXPECT_EQ(lexErrors("\n  99999999999999999999"),
            "2:3: error: integer literal 99999999999999999999 overflows int\n");
}

TEST(LexerTest, UnterminatedBlockCommentIsReported) {
  EXPECT_EQ(lexErrors("x := 1\n  /* unterminated\n"),
            "2:3: error: comment not terminated\n");
  EXPECT_EQ(lexErrors("/*/"), "1:1: error: comment not terminated\n");
  EXPECT_EQ(lexErrors("/**/"), "");
}

// The digests below were recorded with the lexer that copied each
// identifier into its own std::string. Every in-tree MiniGo source must
// still lex to the same kinds, locations, spellings and values.
TEST(LexerTest, TokenStreamsMatchRecordedDigests) {
  struct Recorded {
    const char *Name;
    size_t Tokens;
    uint64_t Digest;
  };
  static const Recorded Want[] = {
      {"examples/quickstart.minigo", 326, 0x0a1d0cc083c4486eull},
      {"samples/buffers.minigo", 160, 0x34188108b2cce69cull},
      {"samples/wordfreq.minigo", 301, 0x4c35ee45a8a606c1ull},
      {"perfbench/churn.minigo", 502, 0x3a440ba40b4d342eull},
      {"subject gocompiler", 587, 0x2184c3012d0bb952ull},
      {"subject hugo", 439, 0x9668c0478a802d53ull},
      {"subject badger", 494, 0x0dc83dc6b96ba641ull},
      {"subject gojson", 276, 0x70bffe01d21bcc37ull},
      {"subject scheck", 375, 0x1c014e44943691feull},
      {"subject slayout", 246, 0x342c148b846eb3a9ull},
      {"synth 60x30 seed 7", 43475, 0x2c04457d142c21f3ull},
  };

  namespace fs = std::filesystem;
  const fs::path Root = GOFREE_SOURCE_DIR;
  std::vector<std::pair<std::string, std::string>> Sources;
  for (const char *Dir : {"examples", "samples"}) {
    std::vector<std::string> Files;
    for (const fs::directory_entry &E : fs::directory_iterator(Root / Dir))
      if (E.path().extension() == ".minigo")
        Files.push_back(std::string(Dir) + "/" +
                        E.path().filename().string());
    std::sort(Files.begin(), Files.end());
    for (const std::string &F : Files)
      Sources.emplace_back(F, readFile(Root / F));
  }
  Sources.emplace_back("perfbench/churn.minigo",
                       readFile(Root / "perfbench/churn.minigo"));
  for (const workloads::Workload &W : workloads::subjectWorkloads())
    Sources.emplace_back("subject " + W.Name, W.Source);
  workloads::SynthOptions SO;
  SO.NumFuncs = 60;
  SO.StmtsPerFunc = 30;
  SO.Seed = 7;
  Sources.emplace_back("synth 60x30 seed 7", workloads::synthProgram(SO));

  std::ostringstream Got;
  for (const auto &[Name, Src] : Sources) {
    auto Ts = lex(Src);
    Got << "      {\"" << Name << "\", " << Ts.Toks.size() << ", 0x"
        << std::hex << tokenDigest(Ts.Toks) << std::dec << "ull},\n";
  }
  std::ostringstream Expected;
  for (const Recorded &R : Want)
    Expected << "      {\"" << R.Name << "\", " << R.Tokens << ", 0x"
             << std::hex << R.Digest << std::dec << "ull},\n";
  EXPECT_EQ(Got.str(), Expected.str());
}
