//===- SerializeTest.cpp - table file round-trip tests -------------------------===//

#include "support/FaultInject.h"
#include "support/Strings.h"
#include "tablegen/Serialize.h"
#include "vax/VaxGrammar.h"
#include "tablegen/TableBuilder.h"

#include <gtest/gtest.h>

#include <functional>

using namespace gg;

namespace {

struct BuiltVax {
  Grammar G;
  MdSpec Spec;
  BuildResult R;
};

BuiltVax &built() {
  static BuiltVax B = [] {
    BuiltVax Out;
    DiagnosticSink D;
    if (!buildVaxGrammar(Out.G, Out.Spec, D))
      abort();
    Out.R = buildTables(Out.G);
    if (!Out.R.Ok)
      abort();
    return Out;
  }();
  return B;
}

TEST(Serialize, RoundTripIsExact) {
  BuiltVax &B = built();
  std::string Text = serializeTables(B.G, B.R.Tables);
  LRTables Loaded;
  DiagnosticSink D;
  ASSERT_TRUE(deserializeTables(Text, B.G, Loaded, D)) << D.renderAll();
  ASSERT_EQ(Loaded.NumStates, B.R.Tables.NumStates);
  ASSERT_EQ(Loaded.Actions.size(), B.R.Tables.Actions.size());
  for (size_t I = 0; I < Loaded.Actions.size(); ++I) {
    EXPECT_EQ(static_cast<int>(Loaded.Actions[I].Kind),
              static_cast<int>(B.R.Tables.Actions[I].Kind));
    EXPECT_EQ(Loaded.Actions[I].Target, B.R.Tables.Actions[I].Target);
  }
  EXPECT_EQ(Loaded.Gotos, B.R.Tables.Gotos);
  EXPECT_EQ(Loaded.DynChoices.size(), B.R.Tables.DynChoices.size());
  for (const auto &[Key, Prods] : B.R.Tables.DynChoices) {
    auto It = Loaded.DynChoices.find(Key);
    ASSERT_NE(It, Loaded.DynChoices.end());
    EXPECT_EQ(It->second, Prods);
  }
}

TEST(Serialize, FingerprintDetectsGrammarChange) {
  BuiltVax &B = built();
  std::string Text = serializeTables(B.G, B.R.Tables);

  // A different description (no reverse ops) must be rejected.
  Grammar G2;
  MdSpec Spec2;
  DiagnosticSink D;
  VaxGrammarOptions Opts;
  Opts.ReverseOps = false;
  ASSERT_TRUE(buildVaxGrammar(G2, Spec2, D, Opts));
  LRTables Loaded;
  DiagnosticSink D2;
  EXPECT_FALSE(deserializeTables(Text, G2, Loaded, D2));
  EXPECT_NE(D2.renderAll().find("fingerprint"), std::string::npos);
}

TEST(Serialize, FingerprintIsStable) {
  BuiltVax &B = built();
  Grammar G2;
  MdSpec Spec2;
  DiagnosticSink D;
  ASSERT_TRUE(buildVaxGrammar(G2, Spec2, D));
  EXPECT_EQ(grammarFingerprint(B.G), grammarFingerprint(G2));
}

TEST(Serialize, RejectsGarbage) {
  BuiltVax &B = built();
  LRTables T;
  DiagnosticSink D;
  EXPECT_FALSE(deserializeTables("not a table file", B.G, T, D));
  DiagnosticSink D2;
  EXPECT_FALSE(deserializeTables("ggtables 99\n", B.G, T, D2));
  // Truncation (missing end) is detected.
  std::string Text = serializeTables(B.G, B.R.Tables);
  DiagnosticSink D3;
  EXPECT_FALSE(
      deserializeTables(Text.substr(0, Text.size() / 2), B.G, T, D3));
}

// The v2 body checksum, duplicated here on purpose: it is part of the
// on-disk format, and the duplication pins it against accidental change.
uint64_t bodyChecksum(std::string_view Body) {
  uint64_t H = 0xC0DE;
  for (char C : Body)
    H ^= static_cast<uint8_t>(C) + 0x9e3779b97f4a7c15ull + (H << 6) +
         (H >> 2);
  return H;
}

/// Replaces a table file's body with \p NewBody, recomputing the checksum
/// header line so the *structural* validation (not the checksum) is what
/// judges the result.
std::string withBody(const std::string &Text, const std::string &NewBody) {
  size_t FirstNl = Text.find('\n');
  size_t SecondNl = Text.find('\n', FirstNl + 1);
  std::string Out = Text.substr(0, SecondNl + 1);
  Out += strf("checksum %llx %zu\n", (unsigned long long)bodyChecksum(NewBody),
              NewBody.size());
  Out += NewBody;
  return Out;
}

TEST(Serialize, BodyOffsetAndChecksumAgreeWithTheWriter) {
  BuiltVax &B = built();
  std::string Text = serializeTables(B.G, B.R.Tables);
  size_t Off = tableBodyOffset(Text);
  ASSERT_NE(Off, std::string::npos);
  // The header's checksum line matches our local reimplementation over
  // the exact body bytes — the format is what we think it is.
  std::string Body = Text.substr(Off);
  EXPECT_NE(Text.find(strf("checksum %llx %zu\n",
                           (unsigned long long)bodyChecksum(Body),
                           Body.size())),
            std::string::npos);
  // And an untouched re-headered file still loads.
  LRTables T;
  DiagnosticSink D;
  EXPECT_TRUE(deserializeTables(withBody(Text, Body), B.G, T, D))
      << D.renderAll();
  EXPECT_EQ(withBody(Text, Body), Text);
}

TEST(Serialize, AdversarialInputsAreRejectedWithDiagnostics) {
  BuiltVax &B = built();
  const std::string Text = serializeTables(B.G, B.R.Tables);
  const std::string Body = Text.substr(tableBodyOffset(Text));

  struct Case {
    const char *Name;
    std::function<std::string()> Make;
    const char *ExpectDiag;
  };
  const Case Cases[] = {
      {"empty file", [&] { return std::string(); }, "magic"},
      {"header only", [&] { return Text.substr(0, Text.find('\n') + 1); },
       "fingerprint"},
      {"wrong fingerprint",
       [&] {
         std::string T = Text;
         size_t P = T.find("fingerprint ") + 12;
         T[P] = T[P] == '0' ? '1' : '0';
         return T;
       },
       "fingerprint mismatch"},
      {"flipped body byte (checksum catches it first)",
       [&] {
         std::string T = Text;
         T[tableBodyOffset(T) + Body.size() / 2] ^= 0x01;
         return T;
       },
       "checksum mismatch"},
      {"truncated body",
       [&] { return Text.substr(0, Text.size() - Body.size() / 2); },
       "truncated"},
      {"declared length lies",
       [&] {
         std::string T = Text;
         size_t P = T.find("checksum ");
         size_t E = T.find('\n', P);
         size_t Sp = T.rfind(' ', E);
         return T.substr(0, Sp + 1) + "999999" + T.substr(E);
       },
       "checksum"},
      {"shift target out of range",
       [&] {
         return withBody(Text, Body.substr(0, Body.size() - 4) +
                                   "a 0 0:1:999999\nend\n");
       },
       "shift target"},
      {"reduce target out of range",
       [&] {
         return withBody(Text, Body.substr(0, Body.size() - 4) +
                                   "a 0 0:2:999999\nend\n");
       },
       "reduce target"},
      {"action kind out of range",
       [&] {
         return withBody(Text, Body.substr(0, Body.size() - 4) +
                                   "a 0 0:7:1\nend\n");
       },
       "action entry out of range"},
      {"goto entry out of range",
       [&] {
         return withBody(Text, Body.substr(0, Body.size() - 4) +
                                   "g 0 0:999999\nend\n");
       },
       "goto entry out of range"},
      {"action state out of range",
       [&] {
         return withBody(Text, Body.substr(0, Body.size() - 4) +
                                   "a 999999 0:1:1\nend\n");
       },
       "state out of range"},
      {"dynamic-choice production out of range",
       [&] {
         return withBody(Text, Body.substr(0, Body.size() - 4) +
                                   "d 0 0 999999\nend\n");
       },
       "dynamic-choice production"},
      {"entries before dims",
       [&] { return withBody(Text, "a 0 0:1:1\n" + Body); },
       "before dims"},
      {"missing end marker",
       [&] { return withBody(Text, Body.substr(0, Body.size() - 4)); },
       "missing end"},
      {"unrecognized line",
       [&] {
         return withBody(Text, Body.substr(0, Body.size() - 4) +
                                   "zap 1 2\nend\n");
       },
       "unrecognized"},
  };

  for (const Case &C : Cases) {
    LRTables T;
    DiagnosticSink D;
    EXPECT_FALSE(deserializeTables(C.Make(), B.G, T, D))
        << "case not rejected: " << C.Name;
    EXPECT_NE(D.renderAll().find(C.ExpectDiag), std::string::npos)
        << "case '" << C.Name << "' produced: " << D.renderAll();
  }
}

TEST(Serialize, FaultInjectedCorruptionIsCaughtByTheChecksum) {
  BuiltVax &B = built();
  std::string Text = serializeTables(B.G, B.R.Tables);

  FaultConfig C;
  C.CorruptTableByte = -2; // seed-derived offset
  C.Seed = 99;
  faultInject().setConfig(C);
  int64_t Off = faultInject().corruptTableBody(Text, tableBodyOffset(Text));
  faultInject().reset();
  // The returned offset is body-relative and always inside the body.
  ASSERT_GE(Off, 0);
  ASSERT_LT(Off, (int64_t)(Text.size() - tableBodyOffset(Text)));

  LRTables T;
  DiagnosticSink D;
  EXPECT_FALSE(deserializeTables(Text, B.G, T, D));
  EXPECT_NE(D.renderAll().find("checksum mismatch"), std::string::npos);
}

TEST(Serialize, ByteFlipSweepNeverCrashesTheLoader) {
  // Flip one byte at a stride across the whole file (header included) and
  // make sure every variant is either cleanly rejected or — when the flip
  // is semantically neutral — accepted; the loader must never crash or
  // hand back tables with out-of-range entries.
  BuiltVax &B = built();
  const std::string Text = serializeTables(B.G, B.R.Tables);
  for (size_t Off = 0; Off < Text.size(); Off += 211) {
    std::string T = Text;
    T[Off] ^= 0x11;
    LRTables L;
    DiagnosticSink D;
    if (!deserializeTables(T, B.G, L, D)) {
      EXPECT_TRUE(D.hasErrors()) << "rejected without a diagnostic";
    }
  }
}

} // namespace
