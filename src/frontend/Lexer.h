//===- Lexer.h - MiniC lexical analysis -------------------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for MiniC, the C subset standing in for the paper's PCC
/// first pass. See Parser.h for the language summary.
///
//===----------------------------------------------------------------------===//

#ifndef GG_FRONTEND_LEXER_H
#define GG_FRONTEND_LEXER_H

#include "support/Error.h"

#include <cstdint>
#include <string_view>
#include <vector>

namespace gg {

enum class Tok : uint8_t {
#define TOKEN(Id, Name) Id,
#include "frontend/Tokens.def"
};

struct Token {
  Tok Kind = Tok::End;
  std::string_view Text; ///< spelling, a view into the lexed source
  int64_t Value = 0;     ///< numeric value
  int Line = 1;
};

/// Tokenizes \p Source; returns false on lexical errors. The tokens' Text
/// views point into \p Source, which must outlive them.
bool lexMiniC(std::string_view Source, std::vector<Token> &Tokens,
              DiagnosticSink &Diags);

/// The token kind as diagnostics name it: its quoted spelling, or its
/// class ("identifier").
const char *tokName(Tok K);

} // namespace gg

#endif // GG_FRONTEND_LEXER_H
