//===- Interner.h - string interning ----------------------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple string interner. Interned strings are identified by dense
/// 32-bit ids, which the grammar and IR layers use as cheap symbol handles.
/// Each string is stored once; an open-addressing table of ids, hashed
/// from the looked-up string_view itself, indexes them, so a lookup
/// builds no temporary string and an entry costs no allocation of its own.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_INTERNER_H
#define GG_SUPPORT_INTERNER_H

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
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
    // Grow at half full, so a probe meets an empty slot soon.
    if (2 * Strings.size() >= Slots.size())
      rehash(Slots.empty() ? 64 : 2 * Slots.size());
    size_t I = slotOf(Text);
    if (Slots[I])
      return InternedString(Slots[I]);
    uint32_t Id = static_cast<uint32_t>(Strings.size());
    Strings.emplace_back(Text);
    Slots[I] = Id;
    return InternedString(Id);
  }

  /// The handle of \p Text if it is interned, else the empty handle. It
  /// never writes, so threads may share it while no one interns.
  InternedString find(std::string_view Text) const {
    return InternedString(Slots.empty() ? 0 : Slots[slotOf(Text)]);
  }

  /// Returns the text for \p Handle.
  const std::string &text(InternedString Handle) const {
    assert(Handle.id() < Strings.size() && "bad interned string id");
    return Strings[Handle.id()];
  }

  size_t size() const { return Strings.size(); }

private:
  std::vector<std::string> Strings;
  /// Power-of-two open-addressing table of ids; 0 marks an empty slot.
  std::vector<uint32_t> Slots;

  static size_t hash(std::string_view Text) {
    return std::hash<std::string_view>()(Text);
  }

  /// The slot holding \p Text's id, or the empty slot where it belongs
  /// (linear probing).
  size_t slotOf(std::string_view Text) const {
    const size_t Mask = Slots.size() - 1;
    for (size_t I = hash(Text) & Mask;; I = (I + 1) & Mask)
      if (!Slots[I] || Strings[Slots[I]] == Text)
        return I;
  }

  void rehash(size_t NumSlots) {
    Slots.assign(NumSlots, 0);
    const size_t Mask = NumSlots - 1;
    for (uint32_t Id = 1; Id < Strings.size(); ++Id) {
      size_t I = hash(Strings[Id]) & Mask;
      while (Slots[I])
        I = (I + 1) & Mask;
      Slots[I] = Id;
    }
  }
};

} // namespace gg

#endif // GG_SUPPORT_INTERNER_H
