//===- TableArtifacts.h - the table-event artifact files --------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two on-disk artifacts of the table-event registry
/// (support/TableEvents.h), as plain data that `gg-report` parses, merges
/// and renders:
///   * `gg-coverage-v1` — *how often*: reductions per production, visits
///     per parse state, hits and choices per dynamic-tie point, and
///     consultations per row of the Figure-3 instruction table;
///   * `gg-profile-v1` — *how much it costs*: ticks and events per state,
///     production, dyn point and code-generation phase.
///
/// Both carry the grammar/tables fingerprint and table shape, and share
/// one header (TableArtifact): one id-key parser, and one identity check
/// that refuses to sum artifacts built from different tables. JSON keys
/// are emitted sorted, so an artifact for a given input is byte-identical
/// at any thread count.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_TABLEARTIFACTS_H
#define GG_SUPPORT_TABLEARTIFACTS_H

#include <cstdint>
#include <map>
#include <string>

namespace gg {

struct JsonValue;

enum class ProfileMode : uint8_t { Off = 0, Instr };
enum class ProfileTimebase : uint8_t { Cycles = 0, Steps };

/// Parses a `--profile=` spec: off | instr, with an optional
/// `,cycles` / `,steps` timebase suffix. Returns false and sets \p Err
/// on junk.
bool parseProfileSpec(const std::string &Spec, ProfileMode &Mode,
                      ProfileTimebase &Timebase, std::string &Err);

/// What both artifacts open with: the identity of the tables their ids
/// index and how many compile() calls they cover.
struct TableArtifact {
  std::string Fingerprint; ///< grammar/tables identity (hex); "" = unset
  uint64_t Compiles = 0;   ///< compile() calls covered by the artifact
  uint64_t NumProds = 0, NumStates = 0;

protected:
  /// Checks the schema name and reads fingerprint, compiles and the
  /// shape's productions/states; the shape object goes to \p Shape.
  bool parseHeader(const JsonValue &V, const char *Schema,
                   const JsonValue *&Shape, std::string &Err);
  /// Fails when the fingerprints or table shapes disagree: such
  /// artifacts index different tables and must not be summed.
  bool sameTables(const TableArtifact &Other, std::string &Err) const;
  /// Folds \p Other's header in (after sameTables()).
  void mergeHeader(const TableArtifact &Other);
};

/// One dynamic-tie point's recorded behavior: how often the matcher hit a
/// deferred reduce/reduce tie there, and which production each event chose.
struct DynPointHits {
  uint64_t Hits = 0;
  std::map<int, uint64_t> Chosen; ///< production id -> times chosen
};

/// What one `gg-coverage-v1` file holds.
struct CoverageSnapshot : TableArtifact {
  uint64_t NumDynPoints = 0, NumRows = 0;
  std::map<int, uint64_t> ProdHits;  ///< production id -> reductions
  std::map<int, uint64_t> StateHits; ///< state -> visits (pushes)
  std::map<std::pair<int, int>, DynPointHits> Dyn; ///< (state, term) -> hits
  std::map<std::string, uint64_t> RowHits; ///< instruction-table row -> hits

  /// Serializes as one `gg-coverage-v1` JSON object with sorted keys.
  std::string toJson() const;

  /// Parses a `gg-coverage-v1` object. Returns false and sets \p Err on
  /// malformed input or a schema mismatch.
  bool parse(const JsonValue &V, std::string &Err);
  bool parse(const std::string &Text, std::string &Err);

  /// Adds \p Other into this artifact; fails (false, \p Err) when the
  /// two index different tables.
  bool merge(const CoverageSnapshot &Other, std::string &Err);
};

/// Ticks + event count for one bucket (a state, production, dyn point,
/// region or phase).
struct ProfCell {
  uint64_t Ticks = 0;
  uint64_t Events = 0;

  ProfCell &operator+=(const ProfCell &O) {
    Ticks += O.Ticks;
    Events += O.Events;
    return *this;
  }
};

/// What one `gg-profile-v1` file holds.
struct ProfileSnapshot : TableArtifact {
  /// States per derived table region. 64 states of the packed
  /// action/goto tables are roughly a hot cache page; region buckets
  /// show which table pages are hot.
  static constexpr uint64_t RegionSize = 64;

  ProfileMode Mode = ProfileMode::Off;
  ProfileTimebase Timebase = ProfileTimebase::Cycles;
  double TicksPerSecond = 0; ///< 0 under the steps timebase
  std::map<std::string, ProfCell> Phases; ///< phase name -> phase cost
  std::map<int, ProfCell> States; ///< state -> matcher loop cost
  std::map<int, ProfCell> Prods;  ///< production -> reduce-step cost
  std::map<std::pair<int, int>, ProfCell> Dyn; ///< (state,term) -> tie cost

  /// Region buckets derived from States (deterministic given States).
  std::map<int, ProfCell> regions() const;

  /// Ticks -> seconds in the shared MonoClock domain; 0 when the
  /// timebase is steps (ticks are unitless there).
  double seconds(uint64_t Ticks) const {
    return TicksPerSecond > 0 ? static_cast<double>(Ticks) / TicksPerSecond
                              : 0;
  }

  /// Serializes as one `gg-profile-v1` JSON object with sorted keys.
  /// Regions are emitted (derived) but never parsed back — they are
  /// recomputed, so round-trips stay byte-identical.
  std::string toJson() const;

  /// Parses a `gg-profile-v1` object. Returns false and sets \p Err on
  /// malformed input, an unknown mode or timebase, or a schema mismatch.
  bool parse(const JsonValue &V, std::string &Err);
  bool parse(const std::string &Text, std::string &Err);

  /// Adds \p Other into this artifact. Fails when fingerprints, table
  /// shapes or timebases disagree — such artifacts must not be summed.
  bool merge(const ProfileSnapshot &Other, std::string &Err);
};

} // namespace gg

#endif // GG_SUPPORT_TABLEARTIFACTS_H
