//===- TableArtifacts.cpp - gg-coverage-v1 and gg-profile-v1 files ------------===//

#include "support/TableArtifacts.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/Strings.h"

#include <algorithm>
#include <climits>

using namespace gg;

//===----------------------------------------------------------------------===//
// Names and spec parsing
//===----------------------------------------------------------------------===//

static const char *modeName(ProfileMode M) {
  return M == ProfileMode::Instr ? "instr" : "off";
}

static const char *timebaseName(ProfileTimebase TB) {
  return TB == ProfileTimebase::Steps ? "steps" : "cycles";
}

static bool parseTimebase(const std::string &Name, ProfileTimebase &TB) {
  if (Name != "cycles" && Name != "steps")
    return false;
  TB = Name == "steps" ? ProfileTimebase::Steps : ProfileTimebase::Cycles;
  return true;
}

bool gg::parseProfileSpec(const std::string &Spec, ProfileMode &Mode,
                          ProfileTimebase &Timebase, std::string &Err) {
  std::string ModePart = Spec, TbPart;
  size_t Comma = Spec.find(',');
  if (Comma != std::string::npos) {
    ModePart = Spec.substr(0, Comma);
    TbPart = Spec.substr(Comma + 1);
  }
  if (ModePart == "off")
    Mode = ProfileMode::Off;
  else if (ModePart == "instr")
    Mode = ProfileMode::Instr;
  else {
    Err = strf("unknown profile mode \"%s\" (want off|instr)",
               ModePart.c_str());
    return false;
  }
  Timebase = ProfileTimebase::Cycles;
  if (!TbPart.empty() && !parseTimebase(TbPart, Timebase)) {
    Err = strf("unknown profile timebase \"%s\" (want cycles|steps)",
               TbPart.c_str());
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Shared JSON rendering and parsing
//===----------------------------------------------------------------------===//

namespace {

std::string memberKey(int Id) { return strf("\"%d\":", Id); }
std::string memberKey(const std::pair<int, int> &Point) {
  return strf("\"%d:%d\":", Point.first, Point.second);
}
std::string memberKey(const std::string &Name) {
  return "\"" + jsonEscape(Name) + "\":";
}

std::string count(uint64_t N) {
  return strf("%llu", static_cast<unsigned long long>(N));
}
std::string cell(const ProfCell &C) {
  return strf("{\"ticks\":%llu,\"events\":%llu}",
              static_cast<unsigned long long>(C.Ticks),
              static_cast<unsigned long long>(C.Events));
}

/// Appends `,"Name":{...}`: one member per entry of \p M, in key order,
/// its value rendered by \p Value.
template <typename MapT, typename Fn>
void appendObject(std::string &Out, const char *Name, const MapT &M,
                  Fn Value) {
  Out += strf(",\"%s\":{", Name);
  const char *Sep = "";
  for (const auto &[Key, V] : M) {
    Out += Sep;
    Out += memberKey(Key);
    Out += Value(V);
    Sep = ",";
  }
  Out += '}';
}

/// "12" -> 12. Junk and ids beyond int's range fail, so a corrupt
/// artifact is refused instead of merged into the wrong bucket.
bool parseKey(std::string_view Key, int &Out) {
  if (Key.empty())
    return false;
  int64_t V = 0;
  for (char C : Key) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + (C - '0');
    if (V > INT_MAX)
      return false;
  }
  Out = static_cast<int>(V);
  return true;
}
/// "state:term" -> a dyn point.
bool parseKey(std::string_view Key, std::pair<int, int> &Out) {
  size_t Colon = Key.find(':');
  return Colon != std::string_view::npos &&
         parseKey(Key.substr(0, Colon), Out.first) &&
         parseKey(Key.substr(Colon + 1), Out.second);
}
bool parseKey(std::string_view Key, std::string &Out) {
  Out = Key;
  return true;
}

bool addCount(const JsonValue &V, uint64_t &N) {
  if (!V.isNumber())
    return false;
  N += V.asU64();
  return true;
}
bool addCell(const JsonValue &V, ProfCell &C) {
  if (!V.isObject())
    return false;
  C += {static_cast<uint64_t>(V.numberOr("ticks")),
        static_cast<uint64_t>(V.numberOr("events"))};
  return true;
}

/// Reads member \p What of \p V into \p Out: each key through parseKey,
/// each value added by \p Add (false = malformed value).
template <typename K, typename T, typename Fn>
bool readObject(const JsonValue &V, const char *What, std::map<K, T> &Out,
                Fn Add, std::string &Err) {
  const JsonValue *Obj = V.find(What);
  if (!Obj || !Obj->isObject()) {
    Err = strf("missing or non-object \"%s\"", What);
    return false;
  }
  for (const auto &[Key, Val] : Obj->Obj) {
    K Id;
    if (!parseKey(Key, Id) || !Add(Val, Out[Id])) {
      Err = strf("bad entry \"%s\" in \"%s\"", Key.c_str(), What);
      return false;
    }
  }
  return true;
}

template <typename MapT> void addAll(MapT &Into, const MapT &From) {
  for (const auto &[Key, N] : From)
    Into[Key] += N;
}

} // namespace

//===----------------------------------------------------------------------===//
// TableArtifact
//===----------------------------------------------------------------------===//

bool TableArtifact::parseHeader(const JsonValue &V, const char *Schema,
                                const JsonValue *&Shape, std::string &Err) {
  const JsonValue *S = V.find("schema");
  if (!S || S->Str != Schema) {
    Err = strf("not a %s artifact", Schema);
    return false;
  }
  if (const JsonValue *FP = V.find("fingerprint"))
    Fingerprint = FP->Str;
  Compiles = V.find("compiles") ? V.find("compiles")->asU64() : 0;
  Shape = V.find("shape");
  if (!Shape || !Shape->isObject()) {
    Err = "missing \"shape\"";
    return false;
  }
  NumProds = static_cast<uint64_t>(Shape->numberOr("productions"));
  NumStates = static_cast<uint64_t>(Shape->numberOr("states"));
  return true;
}

bool TableArtifact::sameTables(const TableArtifact &Other,
                               std::string &Err) const {
  if (!Fingerprint.empty() && !Other.Fingerprint.empty() &&
      Fingerprint != Other.Fingerprint) {
    Err = strf("fingerprint mismatch (%s vs %s): artifacts come from "
               "different grammars/tables",
               Fingerprint.c_str(), Other.Fingerprint.c_str());
    return false;
  }
  if ((NumProds && Other.NumProds && NumProds != Other.NumProds) ||
      (NumStates && Other.NumStates && NumStates != Other.NumStates)) {
    Err = "table shape mismatch: artifacts come from different tables";
    return false;
  }
  return true;
}

void TableArtifact::mergeHeader(const TableArtifact &Other) {
  if (Fingerprint.empty())
    Fingerprint = Other.Fingerprint;
  NumProds = std::max(NumProds, Other.NumProds);
  NumStates = std::max(NumStates, Other.NumStates);
  Compiles += Other.Compiles;
}

//===----------------------------------------------------------------------===//
// CoverageSnapshot
//===----------------------------------------------------------------------===//

std::string CoverageSnapshot::toJson() const {
  std::string Out = strf(
      "{\"schema\":\"gg-coverage-v1\",\"fingerprint\":\"%s\","
      "\"compiles\":%llu,\"shape\":{\"productions\":%llu,\"states\":%llu,"
      "\"dyn_points\":%llu,\"instr_rows\":%llu}",
      jsonEscape(Fingerprint).c_str(),
      static_cast<unsigned long long>(Compiles),
      static_cast<unsigned long long>(NumProds),
      static_cast<unsigned long long>(NumStates),
      static_cast<unsigned long long>(NumDynPoints),
      static_cast<unsigned long long>(NumRows));
  appendObject(Out, "productions", ProdHits, count);
  appendObject(Out, "states", StateHits, count);
  appendObject(Out, "dyn", Dyn, [](const DynPointHits &P) {
    std::string Point = "{\"hits\":" + count(P.Hits);
    appendObject(Point, "chosen", P.Chosen, count);
    return Point + "}";
  });
  appendObject(Out, "instr_rows", RowHits, count);
  return Out + "}";
}

bool CoverageSnapshot::parse(const JsonValue &V, std::string &Err) {
  *this = CoverageSnapshot();
  const JsonValue *Shape;
  if (!parseHeader(V, "gg-coverage-v1", Shape, Err))
    return false;
  NumDynPoints = static_cast<uint64_t>(Shape->numberOr("dyn_points"));
  NumRows = static_cast<uint64_t>(Shape->numberOr("instr_rows"));
  auto AddPoint = [&Err](const JsonValue &Val, DynPointHits &P) {
    if (!Val.isObject())
      return false;
    P.Hits += static_cast<uint64_t>(Val.numberOr("hits"));
    return !Val.find("chosen") ||
           readObject(Val, "chosen", P.Chosen, addCount, Err);
  };
  return readObject(V, "productions", ProdHits, addCount, Err) &&
         readObject(V, "states", StateHits, addCount, Err) &&
         readObject(V, "dyn", Dyn, AddPoint, Err) &&
         readObject(V, "instr_rows", RowHits, addCount, Err);
}

bool CoverageSnapshot::parse(const std::string &Text, std::string &Err) {
  JsonValue V;
  return parseJson(Text, V, Err) && parse(V, Err);
}

bool CoverageSnapshot::merge(const CoverageSnapshot &Other, std::string &Err) {
  if (!sameTables(Other, Err))
    return false;
  mergeHeader(Other);
  NumDynPoints = std::max(NumDynPoints, Other.NumDynPoints);
  NumRows = std::max(NumRows, Other.NumRows);
  addAll(ProdHits, Other.ProdHits);
  addAll(StateHits, Other.StateHits);
  for (const auto &[Key, P] : Other.Dyn) {
    DynPointHits &Mine = Dyn[Key];
    Mine.Hits += P.Hits;
    addAll(Mine.Chosen, P.Chosen);
  }
  addAll(RowHits, Other.RowHits);
  return true;
}

//===----------------------------------------------------------------------===//
// ProfileSnapshot
//===----------------------------------------------------------------------===//

std::map<int, ProfCell> ProfileSnapshot::regions() const {
  std::map<int, ProfCell> Out;
  for (const auto &[Id, C] : States)
    Out[static_cast<int>(Id / RegionSize)] += C;
  return Out;
}

std::string ProfileSnapshot::toJson() const {
  std::string Out = strf(
      "{\"schema\":\"gg-profile-v1\",\"fingerprint\":\"%s\","
      "\"mode\":\"%s\",\"timebase\":\"%s\",\"ticks_per_second\":%.9g,"
      "\"compiles\":%llu,"
      "\"shape\":{\"productions\":%llu,\"states\":%llu,\"region_size\":%llu}",
      jsonEscape(Fingerprint).c_str(), modeName(Mode), timebaseName(Timebase),
      TicksPerSecond, static_cast<unsigned long long>(Compiles),
      static_cast<unsigned long long>(NumProds),
      static_cast<unsigned long long>(NumStates),
      static_cast<unsigned long long>(RegionSize));
  appendObject(Out, "phases", Phases, cell);
  appendObject(Out, "states", States, cell);
  appendObject(Out, "productions", Prods, cell);
  // Regions are a pure projection of "states"; emitted for consumers,
  // ignored by parse() so round-trips stay byte-identical.
  appendObject(Out, "regions", regions(), cell);
  appendObject(Out, "dyn", Dyn, cell);
  return Out + "}";
}

bool ProfileSnapshot::parse(const JsonValue &V, std::string &Err) {
  *this = ProfileSnapshot();
  const JsonValue *Shape;
  if (!parseHeader(V, "gg-profile-v1", Shape, Err))
    return false;
  if (const JsonValue *M = V.find("mode")) {
    ProfileTimebase IgnoredTB;
    if (!parseProfileSpec(M->Str, Mode, IgnoredTB, Err))
      return false;
  }
  // An unknown timebase must not pass for cycles: merge() refuses to
  // sum ticks of different timebases.
  if (const JsonValue *TB = V.find("timebase");
      TB && !parseTimebase(TB->Str, Timebase)) {
    Err = strf("unknown profile timebase \"%s\"", TB->Str.c_str());
    return false;
  }
  TicksPerSecond = V.numberOr("ticks_per_second");
  return readObject(V, "phases", Phases, addCell, Err) &&
         readObject(V, "states", States, addCell, Err) &&
         readObject(V, "productions", Prods, addCell, Err) &&
         readObject(V, "dyn", Dyn, addCell, Err);
}

bool ProfileSnapshot::parse(const std::string &Text, std::string &Err) {
  JsonValue V;
  return parseJson(Text, V, Err) && parse(V, Err);
}

bool ProfileSnapshot::merge(const ProfileSnapshot &Other, std::string &Err) {
  if (!sameTables(Other, Err))
    return false;
  if (Compiles && Other.Compiles && Timebase != Other.Timebase) {
    Err = "timebase mismatch: cycles and steps ticks must not be summed";
    return false;
  }
  if (Mode == ProfileMode::Off)
    Mode = Other.Mode;
  if (!Compiles)
    Timebase = Other.Timebase;
  mergeHeader(Other);
  // Same-machine artifacts calibrate within noise of each other; keep the
  // larger sample's rate by preferring a nonzero existing value.
  if (TicksPerSecond == 0)
    TicksPerSecond = Other.TicksPerSecond;
  addAll(Phases, Other.Phases);
  addAll(States, Other.States);
  addAll(Prods, Other.Prods);
  addAll(Dyn, Other.Dyn);
  return true;
}
