//===- CliOptions.h - shared example-driver options -------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry/robustness option surface shared by the example drivers
/// (`run_vax`, `compile_minic`): `--threads=`, `--fault=`,
/// `--stats-json=`, `--trace-json=`, `--coverage-json=`, `--profile=`,
/// `--profile-json=`. Both drivers
/// parse these through one function so the flags cannot drift apart, and
/// `-` as a destination means stdout in both (it used to mean stderr in
/// compile_minic; telemetry consumers now get one contract).
///
/// TelemetryDump is the RAII half: constructing it enables the trace
/// recorder / coverage registry as requested, and its destructor writes
/// every requested artifact on any exit path from main().
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_CLIOPTIONS_H
#define GG_SUPPORT_CLIOPTIONS_H

#include "support/TableArtifacts.h"

#include <string>

namespace gg {

/// Values collected from the shared options.
struct CommonDriverOptions {
  int Threads = -1; ///< --threads=N; -1 = flag not given
  std::string StatsJsonPath;    ///< --stats-json=FILE ("-" = stdout)
  std::string TraceJsonPath;    ///< --trace-json=FILE ("-" = stdout)
  std::string CoverageJsonPath; ///< --coverage-json=FILE ("-" = stdout)
  std::string ProfileJsonPath;  ///< --profile-json=FILE ("-" = stdout)
  /// --flight-json=FILE: arm the always-on flight recorder's dump path
  /// and crash/SIGQUIT handlers; the gg-flight-v1 artifact is written on
  /// crash, SIGQUIT, and normal exit (reason "exit"). No "-" form — the
  /// dump must be async-signal-safe, so it only writes to a real file.
  std::string FlightJsonPath;
  /// --profile=off|instr[,cycles|,steps]. A --profile-json=
  /// destination with no explicit --profile= implies instr.
  ProfileMode Profile = ProfileMode::Off;
  ProfileTimebase ProfileTb = ProfileTimebase::Cycles;
  bool ProfileGiven = false; ///< an explicit --profile= was seen
};

/// Outcome of offering one argv token to the shared parser.
enum class CliParse {
  NotMine, ///< not a shared option; the driver handles it
  Ok,      ///< consumed
  Bad      ///< a shared option with a bad value; message already on stderr
};

/// Parses one argv token against the shared option set. `--fault=SPEC`
/// is routed to the global fault injector.
CliParse parseCommonDriverOption(const std::string &Arg,
                                 CommonDriverOptions &Opts);

/// The usage-line fragment for the shared options, for driver usage text.
const char *commonDriverUsage();

/// Writes \p Text to \p Path, with "-" meaning stdout. Returns false
/// (after reporting to stderr) when the file cannot be written.
bool writeTextOrStdout(const std::string &Path, const std::string &Text);

/// Enables the requested recorders at construction and dumps all
/// requested artifacts (stats JSON, Chrome trace JSON, coverage JSON,
/// profile JSON) at destruction — i.e. on every exit path of the
/// enclosing scope.
struct TelemetryDump {
  explicit TelemetryDump(const CommonDriverOptions &Opts);
  ~TelemetryDump();
  TelemetryDump(const TelemetryDump &) = delete;
  TelemetryDump &operator=(const TelemetryDump &) = delete;

private:
  CommonDriverOptions Opts;
};

} // namespace gg

#endif // GG_SUPPORT_CLIOPTIONS_H
