//===- CliOptions.cpp - shared example-driver options -------------------------===//

#include "support/CliOptions.h"
#include "support/FaultInject.h"
#include "support/FlightRecorder.h"
#include "support/Stats.h"
#include "support/TableEvents.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace gg;

CliParse gg::parseCommonDriverOption(const std::string &Arg,
                                     CommonDriverOptions &Opts) {
  if (Arg.rfind("--threads=", 0) == 0) {
    char *End = nullptr;
    long N = strtol(Arg.c_str() + 10, &End, 10);
    if (!End || *End || N < 0 || N > 256) {
      fprintf(stderr, "bad --threads value: %s\n", Arg.c_str());
      return CliParse::Bad;
    }
    Opts.Threads = static_cast<int>(N);
    return CliParse::Ok;
  }
  if (Arg.rfind("--stats-json=", 0) == 0) {
    Opts.StatsJsonPath = Arg.substr(13);
    return CliParse::Ok;
  }
  if (Arg.rfind("--trace-json=", 0) == 0) {
    Opts.TraceJsonPath = Arg.substr(13);
    return CliParse::Ok;
  }
  if (Arg.rfind("--coverage-json=", 0) == 0) {
    Opts.CoverageJsonPath = Arg.substr(16);
    return CliParse::Ok;
  }
  if (Arg.rfind("--profile=", 0) == 0) {
    std::string Err;
    if (!parseProfileSpec(Arg.substr(10), Opts.Profile, Opts.ProfileTb, Err)) {
      fprintf(stderr, "bad --profile spec: %s\n", Err.c_str());
      return CliParse::Bad;
    }
    Opts.ProfileGiven = true;
    return CliParse::Ok;
  }
  if (Arg.rfind("--profile-json=", 0) == 0) {
    Opts.ProfileJsonPath = Arg.substr(15);
    return CliParse::Ok;
  }
  if (Arg.rfind("--flight-json=", 0) == 0) {
    Opts.FlightJsonPath = Arg.substr(14);
    if (Opts.FlightJsonPath.empty() || Opts.FlightJsonPath == "-") {
      fprintf(stderr, "--flight-json= requires a file path (the dump runs "
                      "inside signal handlers, so stdout is not allowed)\n");
      return CliParse::Bad;
    }
    return CliParse::Ok;
  }
  if (Arg.rfind("--fault=", 0) == 0) {
    std::string Err;
    if (!faultInject().configure(Arg.substr(8), Err)) {
      fprintf(stderr, "bad --fault spec: %s\n", Err.c_str());
      return CliParse::Bad;
    }
    return CliParse::Ok;
  }
  return CliParse::NotMine;
}

const char *gg::commonDriverUsage() {
  return "[--threads=N] [--fault=SPEC] [--stats-json=FILE] "
         "[--trace-json=FILE] [--coverage-json=FILE] "
         "[--profile=off|instr[,cycles|,steps]] [--profile-json=FILE] "
         "[--flight-json=FILE]";
}

bool gg::writeTextOrStdout(const std::string &Path, const std::string &Text) {
  if (Path == "-") {
    fputs(Text.c_str(), stdout);
    return true;
  }
  std::ofstream Out(Path);
  if (!Out) {
    fprintf(stderr, "cannot write %s\n", Path.c_str());
    return false;
  }
  Out << Text;
  return true;
}

TelemetryDump::TelemetryDump(const CommonDriverOptions &O) : Opts(O) {
  if (!Opts.TraceJsonPath.empty())
    TraceRecorder::global().enable();
  if (!Opts.CoverageJsonPath.empty())
    tableEvents().armCoverage();
  // Asking for the artifact without picking a mode means instr; an
  // explicit --profile= wins (including --profile=off to disarm).
  if (!Opts.ProfileGiven && !Opts.ProfileJsonPath.empty())
    Opts.Profile = ProfileMode::Instr;
  if (Opts.Profile != ProfileMode::Off || Opts.ProfileGiven)
    tableEvents().configureProfile(Opts.Profile, Opts.ProfileTb);
  if (!Opts.FlightJsonPath.empty()) {
    flightSetDumpPath(Opts.FlightJsonPath.c_str());
    flightInstallHandlers();
  }
}

TelemetryDump::~TelemetryDump() {
  if (!Opts.StatsJsonPath.empty())
    writeTextOrStdout(Opts.StatsJsonPath, stats().toJson() + "\n");
  if (!Opts.TraceJsonPath.empty())
    writeTextOrStdout(Opts.TraceJsonPath,
                      TraceRecorder::global().toChromeJson());
  if (!Opts.CoverageJsonPath.empty())
    writeTextOrStdout(Opts.CoverageJsonPath,
                      tableEvents().coverageSnapshot().toJson() + "\n");
  if (!Opts.ProfileJsonPath.empty())
    writeTextOrStdout(Opts.ProfileJsonPath,
                      tableEvents().profileSnapshot().toJson() + "\n");
  // Every normal exit leaves a flight dump too, so the artifact exists
  // whether the process died screaming (crash handler) or politely.
  if (!Opts.FlightJsonPath.empty())
    flightDump("exit");
}
