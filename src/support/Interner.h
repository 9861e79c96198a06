//===- Interner.h - string interning ----------------------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple string interner. Interned strings are identified by dense
/// 32-bit ids, which the grammar and IR layers use as cheap symbol handles.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_INTERNER_H
#define GG_SUPPORT_INTERNER_H

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gg {

/// Dense handle for an interned string. Value 0 is reserved for "empty".
class InternedString {
public:
  InternedString() = default;
  explicit InternedString(uint32_t Id) : Id(Id) {}

  uint32_t id() const { return Id; }
  bool isEmpty() const { return Id == 0; }

  friend bool operator==(InternedString A, InternedString B) {
    return A.Id == B.Id;
  }
  friend bool operator!=(InternedString A, InternedString B) {
    return A.Id != B.Id;
  }
  friend bool operator<(InternedString A, InternedString B) {
    return A.Id < B.Id;
  }

private:
  uint32_t Id = 0;
};

/// Owns interned string storage; ids are stable for the table's lifetime.
class Interner {
public:
  Interner() { Strings.emplace_back(); /* id 0 = empty */ }

  /// Interns \p Text, returning its stable id.
  InternedString intern(std::string_view Text) {
    auto It = Index.find(std::string(Text));
    if (It != Index.end())
      return InternedString(It->second);
    uint32_t Id = static_cast<uint32_t>(Strings.size());
    Strings.emplace_back(Text);
    Index.emplace(Strings.back(), Id);
    return InternedString(Id);
  }

  /// The handle of \p Text if it is interned, else the empty handle. It
  /// never writes, so threads may share it while no one interns.
  InternedString find(std::string_view Text) const {
    auto It = Index.find(std::string(Text));
    return InternedString(It == Index.end() ? 0 : It->second);
  }

  /// Returns the text for \p Handle.
  const std::string &text(InternedString Handle) const {
    assert(Handle.id() < Strings.size() && "bad interned string id");
    return Strings[Handle.id()];
  }

  size_t size() const { return Strings.size(); }

private:
  std::vector<std::string> Strings;
  std::unordered_map<std::string, uint32_t> Index;
};

} // namespace gg

#endif // GG_SUPPORT_INTERNER_H
