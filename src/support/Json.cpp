//===- Json.cpp - minimal JSON parsing ----------------------------------------===//

#include "support/Json.h"
#include "support/Strings.h"

#include <cstdlib>

using namespace gg;

const JsonValue *JsonValue::find(std::string_view Key) const {
  if (K != Object)
    return nullptr;
  for (const auto &[Name, V] : Obj)
    if (Name == Key)
      return &V;
  return nullptr;
}

namespace {

/// Recursive-descent reader over one string_view.
class Parser {
public:
  Parser(std::string_view Text, std::string &Err) : Text(Text), Err(Err) {}

  bool run(JsonValue &Out) {
    skipWs();
    if (!value(Out, /*Depth=*/0))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after the top-level value");
    return true;
  }

private:
  std::string_view Text;
  std::string &Err;
  size_t Pos = 0;
  /// Nesting cap: artifacts are a few levels deep; a hostile input must
  /// not recurse the parser off the stack.
  static constexpr int MaxDepth = 64;

  bool fail(const std::string &Why) {
    Err = strf("JSON error at byte %zu: %s", Pos, Why.c_str());
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return fail(strf("expected '%.*s'", static_cast<int>(Word.size()),
                       Word.data()));
    Pos += Word.size();
    return true;
  }

  bool string(std::string &Out) {
    if (Pos >= Text.size() || Text[Pos] != '"')
      return fail("expected '\"'");
    ++Pos;
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        break;
      char E = Text[Pos++];
      switch (E) {
      case '"': Out += '"'; break;
      case '\\': Out += '\\'; break;
      case '/': Out += '/'; break;
      case 'b': Out += '\b'; break;
      case 'f': Out += '\f'; break;
      case 'n': Out += '\n'; break;
      case 'r': Out += '\r'; break;
      case 't': Out += '\t'; break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned V = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          V <<= 4;
          if (H >= '0' && H <= '9')
            V |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            V |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            V |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad \\u escape digit");
        }
        // The writers only escape control characters; anything outside
        // ASCII is preserved as a replacement, which is fine for reports.
        Out += V < 0x80 ? static_cast<char>(V) : '?';
        break;
      }
      default:
        return fail(strf("bad escape '\\%c'", E));
      }
    }
    return fail("unterminated string");
  }

  bool value(JsonValue &Out, int Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    switch (C) {
    case 'n':
      Out.K = JsonValue::Null;
      return literal("null");
    case 't':
      Out.K = JsonValue::Bool;
      Out.B = true;
      return literal("true");
    case 'f':
      Out.K = JsonValue::Bool;
      Out.B = false;
      return literal("false");
    case '"':
      Out.K = JsonValue::String;
      return string(Out.Str);
    case '[': {
      Out.K = JsonValue::Array;
      ++Pos;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      while (true) {
        Out.Arr.emplace_back();
        if (!value(Out.Arr.back(), Depth + 1))
          return false;
        skipWs();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          skipWs();
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    case '{': {
      Out.K = JsonValue::Object;
      ++Pos;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      while (true) {
        std::string Key;
        if (!string(Key))
          return false;
        skipWs();
        if (Pos >= Text.size() || Text[Pos] != ':')
          return fail("expected ':'");
        ++Pos;
        skipWs();
        Out.Obj.emplace_back(std::move(Key), JsonValue());
        if (!value(Out.Obj.back().second, Depth + 1))
          return false;
        skipWs();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          skipWs();
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    default: {
      if (C != '-' && (C < '0' || C > '9'))
        return fail(strf("unexpected character '%c'", C));
      size_t End = Pos;
      while (End < Text.size() &&
             (Text[End] == '-' || Text[End] == '+' || Text[End] == '.' ||
              Text[End] == 'e' || Text[End] == 'E' ||
              (Text[End] >= '0' && Text[End] <= '9')))
        ++End;
      std::string Num(Text.substr(Pos, End - Pos));
      char *Stop = nullptr;
      double V = strtod(Num.c_str(), &Stop);
      if (!Stop || *Stop)
        return fail(strf("bad number '%s'", Num.c_str()));
      Out.K = JsonValue::Number;
      Out.Num = V;
      Pos = End;
      return true;
    }
    }
  }
};

} // namespace

bool gg::parseJson(std::string_view Text, JsonValue &Out, std::string &Err) {
  Out = JsonValue();
  return Parser(Text, Err).run(Out);
}

std::string gg::benchJson(std::string_view Bench,
                          const std::map<std::string, uint64_t> &Counts) {
  std::string Out = strf("{\n  \"schema\": \"gg-bench-v1\",\n"
                         "  \"bench\": \"%.*s\",\n  \"metrics\": {",
                         static_cast<int>(Bench.size()), Bench.data());
  const char *Sep = "\n";
  for (const auto &[Name, Count] : Counts) {
    Out += strf("%s    \"%s\": %llu", Sep, Name.c_str(),
                static_cast<unsigned long long>(Count));
    Sep = ",\n";
  }
  Out += "\n  }\n}\n";
  return Out;
}
