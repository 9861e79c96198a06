//===- Lexer.cpp - MiniC lexical analysis --------------------------------===//

#include "frontend/Lexer.h"
#include "support/Strings.h"

#include <algorithm>
#include <array>
#include <cctype>

using namespace gg;

namespace {

constexpr const char *TokNames[] = {
#define TOKEN(Id, Name) Name,
#include "frontend/Tokens.def"
};

struct Spelled {
  std::string_view Text;
  Tok Kind;
};

constexpr Spelled Spellings[] = {
#define SPELLED(Id, Spelling) {Spelling, Tok::Id},
#include "frontend/Tokens.def"
};

using Buckets = std::array<std::vector<Spelled>, 256>;

/// The spelled rows by first character, longest first: the first row of a
/// bucket that matches is the longest match.
const Buckets &spellingsByFirstChar() {
  static const Buckets B = [] {
    Buckets R;
    for (const Spelled &S : Spellings)
      R[static_cast<unsigned char>(S.Text[0])].push_back(S);
    for (std::vector<Spelled> &Bucket : R)
      std::stable_sort(Bucket.begin(), Bucket.end(),
                       [](const Spelled &X, const Spelled &Y) {
                         return X.Text.size() > Y.Text.size();
                       });
    return R;
  }();
  return B;
}

} // namespace

const char *gg::tokName(Tok K) { return TokNames[static_cast<int>(K)]; }

bool gg::lexMiniC(std::string_view Src, std::vector<Token> &Tokens,
                  DiagnosticSink &Diags) {
  const Buckets &ByFirst = spellingsByFirstChar();
  size_t I = 0, N = Src.size();
  int Line = 1;
  size_t Start = 0;
  auto Push = [&](Tok K, int64_t V = 0) {
    Tokens.push_back({K, Src.substr(Start, I - Start), V, Line});
  };

  while (I < N) {
    char C = Src[I];
    Start = I;
    if (C == '\n') {
      ++Line;
      ++I;
      continue;
    }
    if (isspace(static_cast<unsigned char>(C))) {
      ++I;
      continue;
    }
    if (C == '/' && I + 1 < N && Src[I + 1] == '/') {
      while (I < N && Src[I] != '\n')
        ++I;
      continue;
    }
    if (C == '/' && I + 1 < N && Src[I + 1] == '*') {
      I += 2;
      while (I + 1 < N && !(Src[I] == '*' && Src[I + 1] == '/')) {
        if (Src[I] == '\n')
          ++Line;
        ++I;
      }
      if (I + 1 >= N) {
        Diags.error("unterminated comment", Line);
        return false;
      }
      I += 2;
      continue;
    }
    if (isalpha(static_cast<unsigned char>(C)) || C == '_') {
      while (I < N && (isalnum(static_cast<unsigned char>(Src[I])) ||
                       Src[I] == '_'))
        ++I;
      std::string_view Word = Src.substr(Start, I - Start);
      Tok K = Tok::Ident;
      for (const Spelled &S : ByFirst[static_cast<unsigned char>(C)])
        if (S.Text == Word) {
          K = S.Kind;
          break;
        }
      Push(K);
      continue;
    }
    if (isdigit(static_cast<unsigned char>(C))) {
      while (I < N && (isalnum(static_cast<unsigned char>(Src[I]))))
        ++I;
      std::optional<int64_t> V = parseInt(Src.substr(Start, I - Start));
      if (!V) {
        Diags.error(strf("bad numeric literal '%s'",
                         std::string(Src.substr(Start, I - Start)).c_str()),
                    Line);
        return false;
      }
      Push(Tok::Number, *V);
      continue;
    }
    if (C == '\'') {
      // Character literal with the common escapes.
      ++I;
      if (I >= N) {
        Diags.error("unterminated character literal", Line);
        return false;
      }
      int64_t V;
      if (Src[I] == '\\' && I + 1 < N) {
        char E = Src[I + 1];
        V = E == 'n' ? '\n' : E == 't' ? '\t' : E == '0' ? 0 : E;
        I += 2;
      } else {
        V = Src[I];
        ++I;
      }
      if (I >= N || Src[I] != '\'') {
        Diags.error("unterminated character literal", Line);
        return false;
      }
      ++I;
      Push(Tok::Number, V);
      continue;
    }

    const Spelled *Match = nullptr;
    for (const Spelled &S : ByFirst[static_cast<unsigned char>(C)])
      if (Src.substr(I, S.Text.size()) == S.Text) {
        Match = &S;
        break;
      }
    if (!Match) {
      Diags.error(strf("unexpected character '%c'", C), Line);
      return false;
    }
    I += Match->Text.size();
    Push(Match->Kind);
  }
  Tokens.push_back({Tok::End, {}, 0, Line});
  return true;
}
