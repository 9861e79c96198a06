//===- Json.h - minimal JSON parsing ----------------------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON reader, just enough for the telemetry
/// artifacts this repo emits (`gg-stats-v1`, `gg-coverage-v1`,
/// `gg-profile-v1`): the offline `gg-report` tool and the coverage merge
/// path parse their inputs through it, so artifact consumers need no
/// third-party dependency. Not a general-purpose validator — it accepts
/// everything the writers produce and reports the first syntax error with
/// a byte offset. Also the one writer of `gg-bench-v1` baselines.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_JSON_H
#define GG_SUPPORT_JSON_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gg {

/// One parsed JSON value. Objects keep their members in document order
/// (the writers emit sorted keys, so iteration order is deterministic).
struct JsonValue {
  enum Kind : uint8_t { Null, Bool, Number, String, Array, Object };
  Kind K = Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::vector<std::pair<std::string, JsonValue>> Obj;

  bool isObject() const { return K == Object; }
  bool isArray() const { return K == Array; }
  bool isNumber() const { return K == Number; }
  bool isString() const { return K == String; }

  /// Object member lookup; null if absent or this is not an object.
  const JsonValue *find(std::string_view Key) const;

  /// Numeric accessors (0 on type mismatch; telemetry counts are
  /// non-negative, so 0 doubles as "absent").
  uint64_t asU64() const {
    return K == Number && Num > 0 ? static_cast<uint64_t>(Num) : 0;
  }
  double asDouble() const { return K == Number ? Num : 0; }

  /// Member shorthand: the named number, or \p Def when missing.
  double numberOr(std::string_view Key, double Def = 0) const {
    const JsonValue *V = find(Key);
    return V && V->K == Number ? V->Num : Def;
  }
};

/// Parses \p Text into \p Out. On failure returns false and sets \p Err
/// to a one-line message with the byte offset of the problem.
bool parseJson(std::string_view Text, JsonValue &Out, std::string &Err);

/// Renders a `gg-bench-v1` baseline: exact counts only, one metric per
/// line in sorted key order, so fresh and committed files compare for
/// equality and `diff -u` names the metric that changed.
std::string benchJson(std::string_view Bench,
                      const std::map<std::string, uint64_t> &Counts);

} // namespace gg

#endif // GG_SUPPORT_JSON_H
