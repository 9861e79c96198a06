//===- Bench.h - the repository benchmark's shared pieces -------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark drives the system only through its public entry points
/// (compileMiniC, GGCodeGenerator::compile and its CodeGenStats,
/// PccCodeGenerator::compile, VaxTarget::create, serializeTables /
/// deserializeTables, CompileService, Server on a Unix socket, the Frame
/// codec). Every span is taken by the benchmark's own code around those
/// calls, kept in memory, and written once when the run ends; nothing
/// inside the system under test is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef GG_PERFBENCH_BENCH_H
#define GG_PERFBENCH_BENCH_H

#include "cg/CodeGenerator.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds(uint64_t Ns) { return static_cast<double>(Ns) / 1e9; }

/// FNV-1a over \p S: the reference identity of one output.
inline uint64_t hashBytes(std::string_view S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ull;
  return H;
}

/// Busy-waits \p Ns nanoseconds: the sensitivity self-check's injected
/// delay burns CPU the way real work would, rather than sleeping.
inline void spinNs(uint64_t Ns) {
  uint64_t End = nowNs() + Ns;
  while (nowNs() < End) {
  }
}

/// Median of \p V (0 when empty).
double median(std::vector<double> V);

/// Nearest-rank percentile of \p V, \p P in [0, 1] (0 when empty).
double percentile(std::vector<double> V, double P);

//===-- Host speed reference ----------------------------------------------===//

/// A burst of the reference workload takes about this long on an unloaded
/// host of the kind the benchmark was defined on (4-vCPU x86-64 VM).
constexpr double RefNominalS = 2.5e-3;

/// Runs one burst of the host-speed reference and returns its seconds.
///
/// Shared hosts drift: here, compiler-shaped work ran up to a third slower
/// for tens of seconds at a time while a plain arithmetic loop held
/// steady, so neighbours contend for caches and cores rather than clock.
/// The reference is compiler-shaped too (std::regex compiling patterns
/// and matching them over a fixed C-like text), and nothing in this
/// repository can make it faster or slower. Interleaved with the
/// measured work, it yields a scale for each window of time.
double referenceBurst();

/// Scale that converts a timing taken while reference bursts averaged
/// \p MeanBurstS into seconds at the nominal host speed.
inline double hostScale(double MeanBurstS) {
  return MeanBurstS > 0 ? RefNominalS / MeanBurstS : 1;
}

//===-- Spans -------------------------------------------------------------===//

/// One interval timed from outside a layer's entry point.
struct Span {
  const char *Name = ""; ///< static string: the layer
  uint64_t Id = 0;       ///< request or compile id shared by one tree
  uint64_t StartNs = 0, EndNs = 0;
  int32_t Parent = -1;   ///< index of the enclosing span, -1 for a root
  uint32_t Tid = 0;      ///< benchmark thread that recorded it
};

/// Duration and self time (duration minus the part its children cover)
/// summed over every span of one name.
struct SpanTotals {
  double TotalS = 0;
  double SelfS = 0;
  uint64_t Count = 0;
  double meanS() const { return Count ? TotalS / Count : 0; }
  double meanSelfS() const { return Count ? SelfS / Count : 0; }
};

/// The spans of one traced run, appended from any thread.
class SpanLog {
public:
  /// Appends a span and returns its index (the Parent of its children).
  int32_t add(const char *Name, uint64_t Id, uint64_t StartNs,
              uint64_t EndNs, int32_t Parent, uint32_t Tid);

  /// Per-name totals, with self time computed from the parent links.
  std::map<std::string, SpanTotals> totals() const;

  /// Spans whose interval is not inside their parent's (a broken join).
  size_t misnested() const;

  /// Writes the spans as Chrome trace_event JSON (chrome://tracing,
  /// Perfetto). Returns false when \p Path cannot be written.
  bool writeChromeTrace(const std::string &Path) const;

private:
  mutable std::mutex M;
  std::vector<Span> Spans; ///< guarded by M
};

//===-- Corpus and the correctness gate -----------------------------------===//

/// One generated program plus the oracle-checked references every timed
/// output is compared against.
struct Input {
  std::string Source;
  uint64_t GGHash = 0;  ///< GG assembly identity
  uint64_t PccHash = 0; ///< PCC assembly identity
  uint64_t GGCycles = 0; ///< simulated cycles of the GG output
  uint64_t PccCycles = 0; ///< simulated cycles of the PCC output
  size_t GGInsts = 0;    ///< static instructions GG emitted
};

enum class Shape {
  Large, ///< generateLargeProgram, 10 functions (the paper's section 8)
  Small, ///< 0-2 functions of 1-6 statements (interactive requests)
};

struct Corpus {
  Shape Kind = Shape::Small;
  std::vector<Input> Inputs;
  size_t Bytes = 0; ///< total source bytes
};

/// Draws \p Count programs of shape \p S from \p Seed. Programs the
/// interpreter cannot finish within a step budget are redrawn, so the
/// gate's simulations stay short.
Corpus makeCorpus(Shape S, size_t Count, uint64_t Seed);

/// The correctness gate: every program must agree across the three
/// oracles (IR interpreter, GG output on the simulator, PCC output on the
/// simulator), and compiling it twice must give identical bytes. Fills in
/// each Input's references. Returns false with \p Why on the first
/// disagreement.
bool gateCorpus(Corpus &C, const gg::VaxTarget &T, std::string &Why);

//===-- Single-shot compiles ----------------------------------------------===//

/// Timestamps around one single-shot compile's entry points.
struct CompileTimes {
  uint64_t Start = 0;       ///< before the Program exists
  uint64_t FrontendEnd = 0; ///< compileMiniC returned
  uint64_t BackendStart = 0;
  uint64_t BackendEnd = 0;  ///< the code generator returned
  uint64_t End = 0;         ///< Program and generator destroyed
};

/// Source -> GG assembly, frontend included. \p SpinNs is the injected
/// delay of the sensitivity self-check, spent inside the code generator's
/// span. Returns false with \p Err on a compile error.
bool compileGG(const gg::VaxTarget &T, const std::string &Source,
               std::string &Asm, gg::CodeGenStats &Stats, CompileTimes &Ts,
               std::string &Err, uint64_t SpinNs = 0);

/// Source -> PCC assembly, frontend included.
bool compilePcc(const std::string &Source, std::string &Asm,
                CompileTimes &Ts, std::string &Err);

/// What the interleaved GG/PCC passes measured.
struct SingleShotResult {
  uint64_t Attempted = 0, Failed = 0;
  /// Per untraced pass over the corpus: total GG and PCC seconds, at the
  /// nominal host speed.
  std::vector<double> GGPassS, PccPassS;
  /// Per traced pass (trace mode only), for the tracing overhead.
  std::vector<double> TracedGGPassS;
  /// Host scale of every recorded pass.
  std::vector<double> Scales;
  // Layer sums over the traced passes, in measured seconds.
  double FrontendS = 0, FrontendBytes = 0;
  double CgS = 0, TransformS = 0, MatchS = 0, InstrGenS = 0, EmitS = 0;
  double PccS = 0, PccBytes = 0;
  double Tokens = 0, Steps = 0;
  /// One pass's exact counts (identical on every pass).
  gg::CodeGenStats PassStats;
};

/// Compiles the corpus by GG and by PCC in interleaved passes until
/// \p Seconds have gone by, checking every output against its reference.
/// Pass 0 warms up and is not recorded. In trace mode every other pass is
/// traced into \p Log. \p InjectPct > 0 spins that share of each file's
/// warm-up GG time inside every later GG compile.
SingleShotResult runSingleShot(const gg::VaxTarget &T, const Corpus &C,
                               double Seconds, bool TraceMode,
                               double InjectPct, SpanLog &Log);

//===-- Served requests ---------------------------------------------------===//

/// Table builds (single-shot) and server starts (served) per run; set-up
/// time is their median.
constexpr int SetupRepeats = 11;

struct ServeConfig {
  std::string SocketPath;
  double Seconds = 1;
  int ReloadEvery = 0; ///< send a Reload frame before every Nth request
  bool TraceMode = false;
  double InjectPct = 0;
};

struct ServeResult {
  uint64_t Attempted = 0, Failed = 0, NonOk = 0;
  /// CompileService::create until the socket accepts, per repeat, at the
  /// nominal host speed.
  std::vector<double> SetupS;
  /// Round trips of the recorded blocks, at the nominal host speed:
  /// untraced requests, and (trace mode) traced ones.
  std::vector<double> RttS, TracedRttS;
  /// Per window of recorded blocks (host-scaled): median and 99th
  /// percentile round trip, and requests answered Ok per second.
  std::vector<double> WindowP50S, WindowP99S, WindowReqPerS;
  std::vector<double> Scales; ///< host scale of every recorded block
  uint64_t Reloads = 0;
  double ReloadS = 0;     ///< summed reloader time, as measured
  double HandlerS = 0, HandlerBytes = 0; ///< traced requests, as measured
};

/// Builds a CompileService and a Server wired exactly as
/// `compile_minic --serve` wires them (handler, reloader and status
/// augmenter injected; two workers), with timing wrappers around the
/// injected handler and reloader. Two closed-loop clients then send the
/// corpus round-robin over the Unix socket for \p Cfg.Seconds.
ServeResult runServed(const Corpus &C, const ServeConfig &Cfg, SpanLog &Log);

} // namespace pb

#endif // GG_PERFBENCH_BENCH_H
