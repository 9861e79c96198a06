//===- FrontendTest.cpp - MiniC lexer/parser/lowering unit tests --------------===//

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "ir/Interp.h"
#include "support/Strings.h"

#include <gtest/gtest.h>

#include <cctype>

using namespace gg;

namespace {

/// Tokens view \p S, so it must outlive them (string literals do).
std::vector<Token> lex(std::string_view S) {
  std::vector<Token> T;
  DiagnosticSink D;
  EXPECT_TRUE(lexMiniC(S, T, D)) << D.renderAll();
  return T;
}

TEST(Lexer, TokensAndValues) {
  auto T = lex("int x = 42 + 0x1f; // comment\nx <<= 'a';");
  ASSERT_GE(T.size(), 10u);
  EXPECT_EQ(T[0].Kind, Tok::KwInt);
  EXPECT_EQ(T[1].Kind, Tok::Ident);
  EXPECT_EQ(T[1].Text, "x");
  EXPECT_EQ(T[3].Kind, Tok::Number);
  EXPECT_EQ(T[3].Value, 42);
  EXPECT_EQ(T[5].Value, 31);
  bool SawShl = false, SawChar = false;
  for (const Token &Tok2 : T) {
    SawShl |= Tok2.Kind == Tok::ShlAssign;
    SawChar |= Tok2.Kind == Tok::Number && Tok2.Value == 'a';
  }
  EXPECT_TRUE(SawShl);
  EXPECT_TRUE(SawChar);
}

std::vector<Tok> kinds(std::string_view S) {
  std::vector<Tok> K;
  for (const Token &T : lex(S))
    K.push_back(T.Kind);
  return K;
}

TEST(Lexer, EveryTableRowLexesToItsKind) {
  struct Row {
    std::string_view Spelling;
    Tok Kind;
  };
  static constexpr Row Rows[] = {
#define SPELLED(Id, Spelling) {Spelling, Tok::Id},
#include "frontend/Tokens.def"
  };
  size_t Keywords = 0;
  for (const Row &R : Rows) {
    auto T = lex(R.Spelling);
    ASSERT_EQ(T.size(), 2u) << R.Spelling;
    EXPECT_EQ(T[0].Kind, R.Kind) << R.Spelling;
    EXPECT_EQ(T[0].Text, R.Spelling);
    EXPECT_EQ(T[1].Kind, Tok::End);
    EXPECT_EQ(tokName(R.Kind),
              std::string("'") + std::string(R.Spelling) + "'");
    Keywords += isalpha(static_cast<unsigned char>(R.Spelling[0])) != 0;
  }
  EXPECT_EQ(std::size(Rows), 60u);
  EXPECT_EQ(Keywords, 17u);
  EXPECT_STREQ(tokName(Tok::End), "end of input");
  EXPECT_STREQ(tokName(Tok::Ident), "identifier");
  EXPECT_STREQ(tokName(Tok::Number), "number");
}

TEST(Lexer, KeywordsAndIdentifiers) {
  EXPECT_EQ(kinds("int char short unsigned void register if else while for "
                  "do break continue return switch case default"),
            (std::vector<Tok>{Tok::KwInt, Tok::KwChar, Tok::KwShort,
                              Tok::KwUnsigned, Tok::KwVoid, Tok::KwRegister,
                              Tok::KwIf, Tok::KwElse, Tok::KwWhile,
                              Tok::KwFor, Tok::KwDo, Tok::KwBreak,
                              Tok::KwContinue, Tok::KwReturn, Tok::KwSwitch,
                              Tok::KwCase, Tok::KwDefault, Tok::End}));
  // A keyword is a whole word: a longer word that begins with one (or
  // with a prefix of one) stays an identifier.
  auto T = lex("integer do_it iffy int_ in Int doo whiles");
  ASSERT_EQ(T.size(), 9u);
  const char *Words[] = {"integer", "do_it", "iffy", "int_",
                         "in",      "Int",   "doo",  "whiles"};
  for (size_t I = 0; I < 8; ++I) {
    EXPECT_EQ(T[I].Kind, Tok::Ident) << Words[I];
    EXPECT_EQ(T[I].Text, Words[I]);
  }
}

TEST(Lexer, OperatorsTakeTheLongestMatch) {
  EXPECT_EQ(kinds("<<= << < <= >>= >> > >="),
            (std::vector<Tok>{Tok::ShlAssign, Tok::Shl, Tok::Less,
                              Tok::LessEq, Tok::ShrAssign, Tok::Shr,
                              Tok::Greater, Tok::GreaterEq, Tok::End}));
  EXPECT_EQ(kinds("a<<=b<<c<d"),
            (std::vector<Tok>{Tok::Ident, Tok::ShlAssign, Tok::Ident,
                              Tok::Shl, Tok::Ident, Tok::Less, Tok::Ident,
                              Tok::End}));
  EXPECT_EQ(kinds("<<<"), (std::vector<Tok>{Tok::Shl, Tok::Less, Tok::End}));
  EXPECT_EQ(kinds(">>>="),
            (std::vector<Tok>{Tok::Shr, Tok::GreaterEq, Tok::End}));
  EXPECT_EQ(kinds("+++=+"), (std::vector<Tok>{Tok::PlusPlus, Tok::PlusAssign,
                                              Tok::Plus, Tok::End}));
  EXPECT_EQ(kinds("x---y"), (std::vector<Tok>{Tok::Ident, Tok::MinusMinus,
                                              Tok::Minus, Tok::Ident,
                                              Tok::End}));
  EXPECT_EQ(kinds("&&&||| ==="),
            (std::vector<Tok>{Tok::AmpAmp, Tok::Amp, Tok::PipePipe, Tok::Pipe,
                              Tok::EqEq, Tok::Assign, Tok::End}));
}

TEST(Lexer, CommentsAndEscapes) {
  auto T = lex("/* multi\nline */ '\\n' '\\t' '\\0'");
  ASSERT_GE(T.size(), 3u);
  EXPECT_EQ(T[0].Value, '\n');
  EXPECT_EQ(T[1].Value, '\t');
  EXPECT_EQ(T[2].Value, 0);
}

TEST(Lexer, Errors) {
  std::vector<Token> T;
  DiagnosticSink D;
  EXPECT_FALSE(lexMiniC("int @ x;", T, D));
  std::vector<Token> T2;
  DiagnosticSink D2;
  EXPECT_FALSE(lexMiniC("/* unterminated", T2, D2));
  std::vector<Token> T3;
  DiagnosticSink D3;
  EXPECT_FALSE(lexMiniC("'a", T3, D3));
}

/// Compiles and interprets, expecting success; returns the result.
InterpResult runSource(const std::string &S) {
  Program P;
  DiagnosticSink D;
  EXPECT_TRUE(compileMiniC(S, P, D)) << D.renderAll() << "\n" << S;
  InterpResult R = interpret(P);
  EXPECT_TRUE(R.Ok) << R.Error;
  return R;
}

/// Expects a front-end diagnostic.
void expectError(const std::string &S, const std::string &Fragment) {
  Program P;
  DiagnosticSink D;
  EXPECT_FALSE(compileMiniC(S, P, D)) << "accepted: " << S;
  EXPECT_NE(D.renderAll().find(Fragment), std::string::npos)
      << "diagnostics were:\n"
      << D.renderAll();
}

TEST(Parser, PromotionsFollowC) {
  EXPECT_EQ(runSource("int main() { char c; c = -1; return c < 1; }")
                .ReturnValue,
            1);
  EXPECT_EQ(runSource("int main() { unsigned char c; c = 255; "
                      "return c; }")
                .ReturnValue,
            255);
  // unsigned short vs char compares at int width.
  EXPECT_EQ(runSource("int main() { unsigned short u; char c; "
                      "u = 65535; c = 4; return u < c; }")
                .ReturnValue,
            0);
  // unsigned int comparisons are unsigned.
  EXPECT_EQ(runSource("int main() { unsigned u; u = -1; "
                      "return u > 100; }")
                .ReturnValue,
            1);
}

TEST(Parser, OperatorPrecedence) {
  EXPECT_EQ(runSource("int main() { return 2 + 3 * 4; }").ReturnValue, 14);
  EXPECT_EQ(runSource("int main() { return (2 + 3) * 4; }").ReturnValue, 20);
  EXPECT_EQ(runSource("int main() { return 1 << 2 + 1; }").ReturnValue, 8);
  EXPECT_EQ(runSource("int main() { return 7 & 3 | 8; }").ReturnValue, 11);
  EXPECT_EQ(runSource("int main() { return 10 - 4 - 3; }").ReturnValue, 3);
  EXPECT_EQ(runSource("int main() { return 1 ? 2 : 3 ? 4 : 5; }")
                .ReturnValue,
            2);
  EXPECT_EQ(runSource("int main() { int a; int b; a = b = 3; "
                      "return a + b; }")
                .ReturnValue,
            6);

  struct Case {
    const char *Expr;
    int64_t Value;
  };
  auto Check = [](const Case &C) {
    EXPECT_EQ(runSource(strf("int main() { return %s; }", C.Expr))
                  .ReturnValue,
              C.Value)
        << C.Expr;
  };
  // Each adjacent pair of the 10 binary levels, the tighter operator
  // second and then first; the other grouping gives another value.
  for (const Case &C : std::initializer_list<Case>{
           {"1 || 0 && 0", 1}, {"0 && 0 || 1", 1},
           {"0 && 0 | 1", 0},  {"1 | 0 && 0", 0},
           {"1 | 1 ^ 1", 1},   {"1 ^ 1 | 1", 1},
           {"1 ^ 3 & 2", 3},   {"2 & 3 ^ 1", 3},
           {"2 & 2 == 2", 0},  {"2 == 2 & 2", 0},
           {"2 == 2 < 3", 0},  {"3 < 2 == 0", 1},
           {"1 < 1 << 1", 1},  {"1 << 1 < 1", 0},
           {"1 << 1 + 1", 4},  {"1 + 1 << 1", 4},
           {"2 + 3 * 4", 14},  {"2 * 3 + 4", 10}})
    Check(C);
  // Left-associativity where grouping changes the value.
  for (const Case &C : std::initializer_list<Case>{{"2 == 2 == 1", 1},
                                                   {"1 != 2 == 0", 0},
                                                   {"3 > 2 > 1", 0},
                                                   {"3 >= 2 < 1", 0},
                                                   {"16 >> 2 >> 1", 2},
                                                   {"1 << 3 >> 2", 2},
                                                   {"10 - 4 - 3", 3},
                                                   {"10 - 4 + 3", 9},
                                                   {"64 / 4 / 2", 8},
                                                   {"17 % 5 * 2", 4}})
    Check(C);
  // || && | ^ & are associative, so only the tree shows their grouping:
  // a OP b OP c must build (a OP b) OP c.
  for (const char *OpText : {"||", "&&", "|", "^", "&"}) {
    Program P;
    DiagnosticSink D;
    ASSERT_TRUE(compileMiniC(strf("int a; int b; int c;\n"
                                  "int main() { return a %s b %s c; }",
                                  OpText, OpText),
                             P, D))
        << D.renderAll();
    const Node *E = P.Functions[0].Body.back()->left();
    ASSERT_TRUE(E && E->left() && E->right()) << OpText;
    EXPECT_EQ(E->left()->Opcode, E->Opcode) << OpText;
    EXPECT_TRUE(E->right()->is(Op::Name)) << OpText;
  }
  // Relationals compare unsigned when either side promotes to unsigned.
  EXPECT_EQ(runSource("int main() { unsigned u; u = 1; return -1 < u; }")
                .ReturnValue,
            0);
  EXPECT_EQ(runSource("int main() { int i; i = 1; return -1 < i; }")
                .ReturnValue,
            1);
  EXPECT_EQ(runSource("int main() { unsigned u; u = 1; return -1 >= u; }")
                .ReturnValue,
            1);
  // Every compound assignment is x = x op y.
  for (const Case &C : std::initializer_list<Case>{{"x += 3", 13},
                                                   {"x -= 3", 7},
                                                   {"x *= 3", 30},
                                                   {"x /= 3", 3},
                                                   {"x %= 3", 1},
                                                   {"x &= 6", 2},
                                                   {"x |= 5", 15},
                                                   {"x ^= 6", 12},
                                                   {"x <<= 2", 40},
                                                   {"x >>= 2", 2}})
    EXPECT_EQ(runSource(strf("int main() { int x; int y; x = 10; y = (%s); "
                             "return x * 100 + y; }",
                             C.Expr))
                  .ReturnValue,
              C.Value * 101)
        << C.Expr;
}

TEST(Parser, ScopingShadowing) {
  EXPECT_EQ(runSource("int x = 1;\n"
                      "int main() { int x; x = 2; "
                      "{ int x; x = 3; print(x); } "
                      "print(x); return 0; }")
                .Output,
            "3\n2\n");
}

TEST(Parser, PointerOperations) {
  EXPECT_EQ(runSource("int v[3];\n"
                      "int main() { int *p; p = v; *p = 5; p[1] = 6; "
                      "*(p + 2) = 7; return v[0]*100 + v[1]*10 + v[2]; }")
                .ReturnValue,
            567);
  EXPECT_EQ(runSource("int x;\n"
                      "int main() { int *p; p = &x; *p = 9; return x; }")
                .ReturnValue,
            9);
}

TEST(Parser, Casts) {
  EXPECT_EQ(runSource("int main() { return (char)511; }").ReturnValue, -1);
  EXPECT_EQ(runSource("int main() { return (unsigned char)511; }")
                .ReturnValue,
            255);
  EXPECT_EQ(runSource("int main() { return (short)(65536 + 5); }")
                .ReturnValue,
            5);
  EXPECT_EQ(runSource("int main() { unsigned u; u = 3000000000; "
                      "return (int)u < 0; }")
                .ReturnValue,
            1);
}

TEST(Parser, VoidFunctions) {
  EXPECT_EQ(runSource("int g;\n"
                      "void set(int v) { g = v; }\n"
                      "int main() { set(12); return g; }")
                .ReturnValue,
            12);
}

TEST(Parser, Prototypes) {
  EXPECT_EQ(runSource("int later(int x);\n"
                      "int main() { return later(4); }\n"
                      "int later(int x) { return x * x; }")
                .ReturnValue,
            16);
}

TEST(Parser, ForWithDeclaration) {
  EXPECT_EQ(runSource("int main() { int s; s = 0; "
                      "for (int i = 0; i < 4; i++) s += i; return s; }")
                .ReturnValue,
            6);
}

TEST(Parser, Diagnostics) {
  expectError("int main() { return y; }", "undeclared identifier");
  expectError("int main() { foo(); }", "undeclared function");
  expectError("int f(int a) { return a; }\n"
              "int main() { return f(1, 2); }",
              "expects 1 argument");
  expectError("int main() { int x; int x; return 0; }", "redefinition");
  expectError("int main() { 3 = 4; return 0; }", "non-lvalue");
  expectError("int main() { int x; return *x; }", "non-pointer");
  expectError("int main() { return &5; }", "address of a non-lvalue");
  expectError("int main() { break; }", "outside a loop");
  expectError("int main() { continue; }", "outside a loop");
  expectError("void f() { return 3; }\nint main() { return 0; }",
              "void function");
  expectError("int main() { int *p; int *q; p = p - q; return 0; }",
              "pointer difference");
  expectError("int x; int x;\nint main() { return 0; }", "redefinition");
  expectError("int main() { register int r; r++ += 2; return 0; }",
              "lvalue");
  expectError("int main() { int **p; return 0; }", "multi-level");
  // Every token is named by its spelling.
  expectError("int x <<= 2;", "expected ';' after global declaration, "
                              "found '<<='");
  expectError("int main() { return 1 + ; }",
              "unexpected token ';' in expression");
  expectError("int main() { return %; }", "unexpected token '%'");
}

TEST(Parser, ImplicitReturnZero) {
  EXPECT_EQ(runSource("int main() { int x; x = 5; }").ReturnValue, 0);
}

TEST(Parser, CommaAndSideEffectOrder) {
  EXPECT_EQ(runSource("int g;\n"
                      "int bump() { g = g + 1; return g; }\n"
                      "int main() { int a; a = (bump(), bump(), g); "
                      "return a; }")
                .ReturnValue,
            2);
}

TEST(Parser, RegisterVariablesBehaveAsLocals) {
  EXPECT_EQ(runSource("int main() { register int a; register int b; "
                      "register int c; register int d; register int e; "
                      "register int f; register int g2; "
                      "a=1;b=2;c=3;d=4;e=5;f=6;g2=7; "
                      "return a+b+c+d+e+f+g2; }")
                .ReturnValue,
            28); // the 7th falls back to a frame local
}

TEST(Parser, CharArrayGlobalInit) {
  EXPECT_EQ(runSource("char s[4] = {104, 105, 33, 0};\n"
                      "int main() { printc(s[0]); printc(s[1]); "
                      "printc(s[2]); return 0; }")
                .Output,
            "hi!");
}

TEST(Parser, SwitchStatement) {
  EXPECT_EQ(runSource("int main() {\n"
                      "  int x; int r; x = 2; r = 0;\n"
                      "  switch (x) {\n"
                      "  case 1: r = 10; break;\n"
                      "  case 2: r = 20; break;\n"
                      "  case 3: r = 30; break;\n"
                      "  default: r = 99;\n"
                      "  }\n"
                      "  return r; }")
                .ReturnValue,
            20);
  // Fall-through and negative case values.
  EXPECT_EQ(runSource("int main() {\n"
                      "  int r; r = 0;\n"
                      "  switch (-3) {\n"
                      "  case -3: r = r + 1;\n"
                      "  case 5: r = r + 2; break;\n"
                      "  case 6: r = r + 4;\n"
                      "  }\n"
                      "  return r; }")
                .ReturnValue,
            3);
  // No default, no match: falls out.
  EXPECT_EQ(runSource("int main() { switch (9) { case 1: return 1; } "
                      "return 7; }")
                .ReturnValue,
            7);
  // break inside switch inside loop exits the switch only.
  EXPECT_EQ(runSource("int main() { int i; int s; s = 0;\n"
                      "  for (i = 0; i < 3; i++) {\n"
                      "    switch (i) { case 1: break; default: s += 10; }\n"
                      "    s += 1;\n"
                      "  }\n"
                      "  return s; }")
                .ReturnValue,
            23);
}

TEST(Parser, SwitchDiagnostics) {
  expectError("int main() { switch (1) { case 1: case 1: return 0; } }",
              "duplicate case");
  expectError("int main() { switch (1) { default: default: return 0; } }",
              "duplicate default");
  expectError("int main() { int x; switch (1) { case x: return 0; } }",
              "integer constants");
}

} // namespace
