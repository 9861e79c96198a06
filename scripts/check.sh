#!/usr/bin/env bash
#===------------------------------------------------------------------------===#
# check.sh - full local CI: sanitizer build, tests, telemetry smoke.
#
#   scripts/check.sh [--fast]
#
# 1. configures a separate build tree with -fsanitize=address,undefined,
# 2. builds everything, runs the tier1 label as a fast gate, then full
#    ctest (tier1 + slow/fuzz corpora),
# 3. smoke-runs `run_vax --stats-json --trace-json` over every program in
#    examples/programs/ and validates that the emitted JSON parses,
# 4. runs the fault-injection matrix: every example program under each
#    fault kind must still produce the unfaulted program output (the
#    degradation ladder recovers blocked trees via the PCC baseline),
#    and table corruption must be rejected by the loader's checksum,
# 5. runs the coverage smoke leg: compiles the differential corpus plus a
#    bridge-exercising program with --coverage-json, merges the artifacts
#    with gg-report and gates on dead bridge families / zero dynamic-tie
#    coverage,
# 6. runs the profile smoke leg: compiles the corpus with --profile=instr
#    and --profile-json, merges the gg-profile-v1 artifacts with
#    gg-report --profile, gates on >= 90% of the GG wall time being
#    attributed to instrumented phases, and asserts the steps-timebase
#    artifact is byte-identical across worker counts; both legs also
#    assert that arming coverage and the profile together leaves each
#    artifact byte-identical to a run that arms it alone, and a stats leg
#    asserts every --stats-json counter (but cg.parallel.*) and histogram
#    is identical across worker counts,
# 7. runs the compile-server smoke: a live `compile_minic --serve`
#    daemon (docs/server.md) under the sanitizers takes >= 1000 gg-load
#    corpus requests across the whole fault matrix plus a supervisor
#    crash drill — zero process deaths, non-faulted responses
#    byte-identical to single-shot,
# 8. runs the overload soak: a saturating open-loop gg-load against a
#    bounded-queue server under the overload-burst fault (excess requests
#    get OVERLOADED frames, zero watchdog kills), a slow-client drip
#    leg, a shed-oldest policy smoke, and a mid-soak SIGHUP hot-reload
#    drill through scripts/serve.sh ending in a clean SIGTERM drain,
# 9. runs scripts/bench.sh --check: a fresh served run's exact counts
#    must equal BENCH_server_throughput.json, and the tracing guard
#    (ctest's bench_baseline_* entries check the other two baselines),
# 10. builds the parallel-determinism test under -fsanitize=thread and
#    runs it: the work-stealing compile pipeline must be race-free, not
#    just deterministic. The matcher equivalence golden (4 threads,
#    telemetry armed), matcher_extra_test, the per-function match tally,
#    the chained phase scopes and the trace recorder run there too.
#
# --fast reuses the plain ./build tree (no sanitizers), runs only the
# tier1 gate and skips the TSAN leg: a quick pre-commit pass.
#
# --fuzz-minutes=N extends the fuzz smoke leg into an N-minute soak:
# gg-fuzz keeps re-running the full coverage plan under fresh per-round
# bindings (deterministically derived from the base seed) until the
# budget is spent. 0 (the default) runs the fixed-seed smoke only.
#===------------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-asan
SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
FAST=0
FUZZ_MINUTES=0
for arg in "$@"; do
  case "$arg" in
    --fast)
      BUILD_DIR=build
      SAN_FLAGS=""
      FAST=1
      ;;
    --fuzz-minutes=*)
      FUZZ_MINUTES="${arg#--fuzz-minutes=}"
      ;;
    *)
      echo "usage: scripts/check.sh [--fast] [--fuzz-minutes=N]" >&2
      exit 2
      ;;
  esac
done

echo "== configure ($BUILD_DIR)"
cmake -B "$BUILD_DIR" -S . \
  ${SAN_FLAGS:+-DCMAKE_CXX_FLAGS="$SAN_FLAGS"} \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null

echo "== build"
cmake --build "$BUILD_DIR" -j"$(nproc)"

echo "== ctest (tier1 fast gate)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -L tier1 -j"$(nproc)"

if [[ "$FAST" == 1 ]]; then
  echo "== fast pass done (tier1 only; full run: scripts/check.sh)"
  exit 0
fi

echo "== ctest (full suite: slow + fuzz corpora)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -LE tier1 -j"$(nproc)"

echo "== telemetry smoke (--stats-json / --trace-json on examples/programs)"
json_check() {
  # Prefer python3; fall back to the repo's own well-formedness test
  # having covered it if python3 is unavailable in the container.
  if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$1" >/dev/null
  else
    test -s "$1"
  fi
}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
for prog in examples/programs/*.c; do
  name=$(basename "$prog" .c)
  "$BUILD_DIR"/examples/run_vax "$prog" \
    --stats-json="$TMP/$name.stats.json" \
    --trace-json="$TMP/$name.trace.json" >/dev/null
  json_check "$TMP/$name.stats.json"
  json_check "$TMP/$name.trace.json"
  # The stats schema must carry all four Figure-2 phases.
  for key in cg.transform_seconds cg.match_seconds cg.instrgen_seconds \
             cg.emit_seconds; do
    grep -q "\"$key\"" "$TMP/$name.stats.json" ||
      { echo "missing $key in $name.stats.json" >&2; exit 1; }
  done
  echo "   $name: stats+trace JSON ok"
done

echo "== fault-injection matrix (degradation ladder under sanitizers)"
# Each fault kind must leave the program output identical to the unfaulted
# run (exit 0, recovered via the baseline) and, for the kinds that force
# syntactic blocks or register exhaustion, must report at least one
# recovered tree in the stats. cap-regs only bites on register-hungry
# trees, so its recovery count is asserted on the matrix total instead of
# per program.
recovered_total=0
for prog in examples/programs/*.c; do
  name=$(basename "$prog" .c)
  "$BUILD_DIR"/examples/run_vax "$prog" >"$TMP/$name.base.out" 2>/dev/null
  for fault in drop-prod=push_l truncate-input=3 cap-regs=1; do
    "$BUILD_DIR"/examples/run_vax "$prog" --fault="$fault" \
      --stats-json="$TMP/$name.fault.json" \
      >"$TMP/$name.fault.out" 2>"$TMP/$name.fault.err" ||
      { echo "run_vax --fault=$fault failed on $name" >&2
        cat "$TMP/$name.fault.err" >&2; exit 1; }
    cmp -s "$TMP/$name.base.out" "$TMP/$name.fault.out" ||
      { echo "output diverged under --fault=$fault on $name" >&2; exit 1; }
    rec=$(grep -o '"cg.recovered_trees":[0-9]*' "$TMP/$name.fault.json" |
          cut -d: -f2)
    blk=$(grep -o '"cg.blocked_trees":[0-9]*' "$TMP/$name.fault.json" |
          cut -d: -f2)
    [[ "$rec" == "$blk" ]] ||
      { echo "$name --fault=$fault: $blk blocked but only $rec recovered" >&2
        exit 1; }
    if [[ "$fault" != cap-regs=1 && "$rec" -lt 1 ]]; then
      echo "$name --fault=$fault: expected >=1 recovered tree" >&2; exit 1
    fi
    recovered_total=$((recovered_total + rec))
    echo "   $name --fault=$fault: output identical, $rec recovered"
  done
done
[[ "$recovered_total" -ge 1 ]] ||
  { echo "fault matrix never exercised the ladder" >&2; exit 1; }

# Corrupted table files must be rejected by the checksum, not crash.
"$BUILD_DIR"/examples/run_vax examples/programs/sieve.c \
  --fault=corrupt-table >/dev/null 2>"$TMP/corrupt.err"
grep -q "checksum" "$TMP/corrupt.err" ||
  { echo "corrupt-table run did not produce a checksum diagnostic" >&2
    exit 1; }
echo "   corrupt-table: loader rejected the file via its checksum"

# oom-arena exhausts the node arenas mid-pipeline. Memory exhaustion is
# NOT recoverable via the ladder (a fallback would just exhaust again),
# so the contract is a *clean* failure: ExitCompileFailure (1) — never a
# crash or sanitizer abort — an arena diagnostic, and the exhaustion
# visible in fault telemetry. A generous cap must never bite.
set +e
"$BUILD_DIR"/examples/run_vax examples/programs/sieve.c \
  --fault=oom-arena --stats-json="$TMP/oom.stats.json" \
  >/dev/null 2>"$TMP/oom.err"
oom_code=$?
set -e
[[ "$oom_code" -eq 1 ]] ||
  { echo "oom-arena: expected clean exit 1, got $oom_code" >&2; exit 1; }
grep -qi "arena" "$TMP/oom.err" ||
  { echo "oom-arena run produced no arena diagnostic" >&2; exit 1; }
grep -q '"fault.arena_exhaustions":[1-9]' "$TMP/oom.stats.json" ||
  { echo "oom-arena exhaustion missing from stats artifact" >&2; exit 1; }
"$BUILD_DIR"/examples/run_vax examples/programs/sieve.c \
  --fault=oom-arena=268435456 >"$TMP/oom.roomy.out" 2>/dev/null
cmp -s "$TMP/sieve.base.out" "$TMP/oom.roomy.out" ||
  { echo "output diverged under a generous oom-arena cap" >&2; exit 1; }
echo "   oom-arena: clean failure at 4KiB cap, identical output at 256MiB"

echo "== coverage smoke (gg-coverage-v1 artifacts through gg-report)"
# The generated corpus plus every example program covers the common table
# paths; the bridge program is hand-written to reach all three section
# 6.2.2 bridge-production families (MiniC only reaches the byte widths,
# so gg-report groups width replicas per family). The merged report must
# show zero dead bridge families and nonzero dynamic-tie coverage.
cat > "$TMP/bridges.c" <<'EOF'
char ga[64];
int main() {
  register int x;
  register char *cp;
  int i; int j; int s;
  s = 0;
  for (i = 0; i < 8; i = i + 1) {
    for (j = 0; j < 8; j = j + 1) {
      x = i;
      ga[x + i * j] = i + j;
      cp = ga;
      cp[i * j] = i - j;
      ga[i * j] = i + 2 * j;
      s = s + ga[x + i * j] + cp[i * j] + ga[i * j];
    }
  }
  print(s);
  return 0;
}
EOF
"$BUILD_DIR"/examples/compile_minic --gen-corpus=24 \
  --coverage-json="$TMP/corpus.cov.json" >/dev/null 2>&1
"$BUILD_DIR"/examples/compile_minic "$TMP/bridges.c" \
  --coverage-json="$TMP/bridges.cov.json" >/dev/null
for prog in examples/programs/*.c; do
  name=$(basename "$prog" .c)
  "$BUILD_DIR"/examples/compile_minic "$prog" \
    --coverage-json="$TMP/$name.cov.json" >/dev/null
done
json_check "$TMP/corpus.cov.json"
"$BUILD_DIR"/tools/gg-report "$TMP"/*.cov.json \
  --json="$TMP/merged.cov.json" \
  --fail-on-dead-bridge --fail-on-zero-dyn >"$TMP/coverage.report"
json_check "$TMP/merged.cov.json"
grep -E "productions reduced|dyn-tie points" "$TMP/coverage.report" |
  sed 's/^/  /'
echo "   coverage gates: bridge families live, dynamic ties exercised"

# The artifact must be a property of the input, not the schedule: the
# same corpus at different worker counts produces identical bytes.
"$BUILD_DIR"/examples/compile_minic --gen-corpus=6 --threads=1 \
  --coverage-json="$TMP/cov.t1.json" >/dev/null 2>&1
"$BUILD_DIR"/examples/compile_minic --gen-corpus=6 --threads=4 \
  --coverage-json="$TMP/cov.t4.json" >/dev/null 2>&1
cmp "$TMP/cov.t1.json" "$TMP/cov.t4.json" ||
  { echo "coverage artifact differs between thread counts" >&2; exit 1; }
echo "   coverage artifact byte-identical at --threads=1 vs 4"
# One table-event registry serves both artifacts: arming the profile
# beside coverage must not change the coverage artifact (the profile
# leg below checks the other direction on the same run).
"$BUILD_DIR"/examples/compile_minic --gen-corpus=6 --threads=4 \
  --coverage-json="$TMP/cov.both.json" --profile=instr,steps \
  --profile-json="$TMP/prof.both.json" >/dev/null 2>&1
cmp "$TMP/cov.t4.json" "$TMP/cov.both.json" ||
  { echo "coverage artifact changed with the profile armed too" >&2; exit 1; }
echo "   coverage artifact byte-identical with the profile armed too"

echo "== fuzz smoke (grammar-aware differential fuzzer under sanitizers)"
# Two fixed seeds through the full coverage plan: every program must pass
# all three oracles (gg-fuzz exits nonzero on any differential mismatch
# or prediction failure), and the run's own coverage artifact — recorded
# by the *real* matcher, not the planning simulator — must reach 100% of
# the reachable productions through the gg-report gate. A second seed
# varies every bound attribute while reusing the same witness plan.
for seed in 0xF0225EED 42; do
  "$BUILD_DIR"/tools/gg-fuzz --seed=$seed --threads=4 \
    --coverage-json="$TMP/fuzz.$seed.cov.json" >"$TMP/fuzz.$seed.out" ||
    { echo "gg-fuzz --seed=$seed found failures" >&2
      cat "$TMP/fuzz.$seed.out" >&2; exit 1; }
  json_check "$TMP/fuzz.$seed.cov.json"
  sed -n 's/^gg-fuzz: /   seed='$seed': /p' "$TMP/fuzz.$seed.out"
done
"$BUILD_DIR"/tools/gg-report "$TMP/fuzz.0xF0225EED.cov.json" \
  --fail-production-coverage=100 >"$TMP/fuzz.report" ||
  { echo "fuzz run left reachable productions uncovered" >&2
    cat "$TMP/fuzz.report" >&2; exit 1; }
grep "production coverage" "$TMP/fuzz.report" | sed 's/^ */   /'

# The verdicts and the artifact are properties of (seed, plan), not the
# schedule: byte-identical output and coverage at any --threads count.
"$BUILD_DIR"/tools/gg-fuzz --seed=0xF0225EED --threads=1 \
  --coverage-json="$TMP/fuzz.t1.cov.json" >"$TMP/fuzz.t1.out"
cmp "$TMP/fuzz.0xF0225EED.out" "$TMP/fuzz.t1.out" ||
  { echo "gg-fuzz output differs between thread counts" >&2; exit 1; }
cmp "$TMP/fuzz.0xF0225EED.cov.json" "$TMP/fuzz.t1.cov.json" ||
  { echo "fuzz coverage artifact differs between thread counts" >&2
    exit 1; }
echo "   verdicts + coverage artifact byte-identical at --threads=1 vs 4"

if [[ "$FUZZ_MINUTES" -gt 0 ]]; then
  echo "== fuzz soak (--fuzz-minutes=$FUZZ_MINUTES)"
  "$BUILD_DIR"/tools/gg-fuzz --seed=0xF0225EED --threads="$(nproc)" \
    --minutes="$FUZZ_MINUTES" >"$TMP/fuzz.soak.out" ||
    { echo "fuzz soak found failures" >&2
      cat "$TMP/fuzz.soak.out" >&2; exit 1; }
  sed -n 's/^gg-fuzz: /   /p' "$TMP/fuzz.soak.out"
fi

echo "== profile smoke (gg-profile-v1 artifacts through gg-report)"
# Compile the generated corpus under --profile=instr and feed the artifact
# through gg-report: it must parse, merge, rank, and attribute >= 90% of
# the GG matcher+codegen wall time (cg.total) to the instrumented phases.
# One worker: parallel workers' phase ticks would be summed against the
# one cg.total wall time, and the gate could not fail.
"$BUILD_DIR"/examples/compile_minic --gen-corpus=24 --threads=1 \
  --profile=instr --profile-json="$TMP/corpus.prof.json" >/dev/null 2>&1
json_check "$TMP/corpus.prof.json"
grep -q '"schema":"gg-profile-v1"' "$TMP/corpus.prof.json" ||
  { echo "profile artifact missing gg-profile-v1 schema" >&2; exit 1; }
"$BUILD_DIR"/examples/compile_minic examples/programs/sieve.c \
  --profile=instr --profile-json="$TMP/sieve.prof.json" >/dev/null
"$BUILD_DIR"/tools/gg-report --profile \
  "$TMP/corpus.prof.json" "$TMP/sieve.prof.json" \
  --profile-json="$TMP/merged.prof.json" \
  --fail-attribution-below=90 >"$TMP/profile.report"
json_check "$TMP/merged.prof.json"
grep -E "attributed:|hot states" "$TMP/profile.report" | sed 's/^/  /'
echo "   profile gates: artifacts merged, >=90% of wall time attributed"

# Joining coverage against the profile flags hot-but-rarely-hit buckets.
"$BUILD_DIR"/tools/gg-report --profile \
  "$TMP/merged.prof.json" "$TMP/corpus.cov.json" >/dev/null ||
  { echo "gg-report --profile with coverage join failed" >&2; exit 1; }
echo "   profile+coverage join ok"

# Under the steps timebase the artifact is a property of the input, not
# the schedule: byte-identical at different worker counts.
"$BUILD_DIR"/examples/compile_minic --gen-corpus=6 --threads=1 \
  --profile=instr,steps --profile-json="$TMP/prof.t1.json" >/dev/null 2>&1
"$BUILD_DIR"/examples/compile_minic --gen-corpus=6 --threads=4 \
  --profile=instr,steps --profile-json="$TMP/prof.t4.json" >/dev/null 2>&1
cmp "$TMP/prof.t1.json" "$TMP/prof.t4.json" ||
  { echo "profile artifact differs between thread counts" >&2; exit 1; }
echo "   steps-timebase artifact byte-identical at --threads=1 vs 4"
cmp "$TMP/prof.t4.json" "$TMP/prof.both.json" ||
  { echo "profile artifact changed with coverage armed too" >&2; exit 1; }
echo "   steps-timebase artifact byte-identical with coverage armed too"

# The stats map is a property of the input as well: every counter but the
# pool's own cg.parallel.* ones, and every histogram, match across worker
# counts. Values are seconds and are left out.
"$BUILD_DIR"/examples/compile_minic --gen-corpus=6 --threads=1 \
  --stats-json="$TMP/stats.t1.json" >/dev/null 2>&1
"$BUILD_DIR"/examples/compile_minic --gen-corpus=6 --threads=4 \
  --stats-json="$TMP/stats.t4.json" >/dev/null 2>&1
stats_counts() {
  sed -e 's/,"values":{[^}]*}//' -e 's/"cg\.parallel\.[a-z_]*":[0-9]*,//g' "$1"
}
cmp <(stats_counts "$TMP/stats.t1.json") <(stats_counts "$TMP/stats.t4.json") ||
  { echo "stats counters or histograms differ between thread counts" >&2
    exit 1; }
echo "   stats counters and histograms identical at --threads=1 vs 4"

# The no-artifact misuse paths must diagnose, not silently succeed.
if "$BUILD_DIR"/tools/gg-report >/dev/null 2>"$TMP/noargs.err"; then
  echo "gg-report with no arguments must fail" >&2; exit 1
fi
grep -q "usage:" "$TMP/noargs.err" ||
  { echo "gg-report no-args path printed no usage" >&2; exit 1; }
echo "   gg-report no-args path: usage diagnostic, nonzero exit"

echo "== compile-server smoke (daemon, quarantine, crash-only recovery)"
# 50 clean corpus programs through a live `compile_minic --serve` daemon
# (under the sanitizers): gg-load exits nonzero on any verify mismatch,
# client give-up, or unclean server death, so success here means zero
# process deaths and every response byte-identical to single-shot.
rm -f "$TMP/serve.sock"
"$BUILD_DIR"/tools/gg-load --socket="$TMP/serve.sock" \
  --spawn="$BUILD_DIR"/examples/compile_minic \
  --requests=50 --clients=4 --corpus=50 --verify \
  >"$TMP/serve.smoke.out" 2>&1 ||
  { echo "server smoke failed" >&2; cat "$TMP/serve.smoke.out" >&2; exit 1; }
sed -n 's/^gg-load: /   /p' "$TMP/serve.smoke.out" | head -2

# Fault-matrix soak: >= 1000 requests spread across every injectable
# fault (including stall-worker and oom-arena) against live servers.
# Faults are process-deterministic, so gg-load --verify checks that
# non-faulted responses are byte-identical to single-shot and requests a
# fault actually hit are quarantined or recovered, never fatal: the soak
# fails on any server death, give-up, or byte mismatch.
for fault in none drop-prod=push_l truncate-input=3 cap-regs=1 \
             stall-worker oom-arena=1000000; do
  rm -f "$TMP/serve.sock"
  if [[ "$fault" == none ]]; then unset GG_FAULT; else export GG_FAULT="$fault"; fi
  "$BUILD_DIR"/tools/gg-load --socket="$TMP/serve.sock" \
    --spawn="$BUILD_DIR"/examples/compile_minic \
    --requests=175 --clients=4 --corpus=12 --verify \
    >"$TMP/serve.soak.out" 2>&1 ||
    { echo "server soak failed under fault=$fault" >&2
      cat "$TMP/serve.soak.out" >&2; exit 1; }
  unset GG_FAULT
  echo "   fault=$fault: $(sed -n 's/^gg-load: \([0-9]* requests.*\)/\1/p' \
    "$TMP/serve.soak.out")"
done

# corrupt-table is the one fault a server must NOT serve through: startup
# self-verification fails, the process exits 3 (fatal fault), and the
# supervisor propagates that instead of restart-looping a doomed binary.
set +e
GG_FAULT=corrupt-table scripts/serve.sh "$BUILD_DIR"/examples/compile_minic \
  --serve="$TMP/serve.sock" >/dev/null 2>&1
fatal_code=$?
set -e
[[ "$fatal_code" -eq 3 ]] ||
  { echo "supervisor under corrupt-table: expected exit 3, got $fatal_code" >&2
    exit 1; }
echo "   corrupt-table: server refused startup, supervisor gave up (exit 3)"

# Crash drill: Crash frames kill the server mid-soak; scripts/serve.sh
# restarts it with backoff and clients replay their in-flight requests.
# Every response must still be byte-identical despite the restarts.
rm -f "$TMP/serve.sock"
"$BUILD_DIR"/tools/gg-load --socket="$TMP/serve.sock" \
  --spawn=scripts/serve.sh \
  --serve-arg="$BUILD_DIR"/examples/compile_minic \
  --serve-arg=--serve-allow-crash \
  --requests=60 --clients=4 --corpus=8 --crash-every=20 --verify \
  >"$TMP/serve.crash.out" 2>&1 ||
  { echo "crash drill failed" >&2; cat "$TMP/serve.crash.out" >&2; exit 1; }
restarts=$(grep -c "restart #" "$TMP/serve.crash.out" || true)
[[ "$restarts" -ge 1 ]] ||
  { echo "crash drill never exercised a supervisor restart" >&2; exit 1; }
sed -n 's/^gg-load: /   /p' "$TMP/serve.crash.out" | head -2
echo "   crash drill: $restarts supervisor restarts, zero lost requests"

echo "== overload soak (admission control, backpressure, drain, reload)"
# Saturating open-loop load against a bounded queue while the
# overload-burst fault inflates service times: the server must answer
# every accepted request (gg-load fails on any give-up), shed the excess
# with OVERLOADED frames (--expect-sheds fails if none arrive), and keep
# the watchdog out of it — overload is backpressure, not wedging.
rm -f "$TMP/serve.sock"
GG_FAULT=overload-burst=40 "$BUILD_DIR"/tools/gg-load \
  --socket="$TMP/serve.sock" \
  --spawn="$BUILD_DIR"/examples/compile_minic \
  --serve-arg=--serve-workers=2 \
  --serve-arg=--serve-queue-depth=4 \
  --serve-arg=--stats-json="$TMP/serve.overload.stats.json" \
  --requests=400 --clients=4 --corpus=12 --open-loop=400 \
  --timeout-ms=20000 --expect-sheds --verify \
  >"$TMP/serve.overload.out" 2>&1 ||
  { echo "overload soak failed" >&2; cat "$TMP/serve.overload.out" >&2
    exit 1; }
json_check "$TMP/serve.overload.stats.json"
grep -q '"server.watchdog_kills":0' "$TMP/serve.overload.stats.json" ||
  { echo "overload soak tripped the watchdog" >&2; exit 1; }
grep -q '"server.overloaded":[1-9]' "$TMP/serve.overload.stats.json" ||
  { echo "overload soak never shed on the server side" >&2; exit 1; }
sed -n 's/^gg-load: /   /p' "$TMP/serve.overload.out" | head -3

# Slow-client drip: gg-load's own frame writes are sliced into chunks
# with delays (the slow-client fault acts in the client process). A
# dripping writer must cost the server patience, not correctness.
rm -f "$TMP/serve.sock"
GG_FAULT=slow-client=2 "$BUILD_DIR"/tools/gg-load \
  --socket="$TMP/serve.sock" \
  --spawn="$BUILD_DIR"/examples/compile_minic \
  --requests=60 --clients=4 --corpus=8 --timeout-ms=30000 --verify \
  >"$TMP/serve.slow.out" 2>&1 ||
  { echo "slow-client soak failed" >&2; cat "$TMP/serve.slow.out" >&2
    exit 1; }
echo "   slow-client: $(sed -n 's/^gg-load: \([0-9]* requests.*\)/\1/p' \
  "$TMP/serve.slow.out")"

# Shed-oldest policy smoke: same saturation, displacement instead of
# rejection — the server-side counter proves the policy actually ran.
rm -f "$TMP/serve.sock"
GG_FAULT=overload-burst=40 "$BUILD_DIR"/tools/gg-load \
  --socket="$TMP/serve.sock" \
  --spawn="$BUILD_DIR"/examples/compile_minic \
  --serve-arg=--serve-workers=2 \
  --serve-arg=--serve-queue-depth=2 \
  --serve-arg=--serve-shed-policy=shed-oldest \
  --serve-arg=--stats-json="$TMP/serve.oldest.stats.json" \
  --requests=200 --clients=4 --corpus=8 --open-loop=400 \
  --timeout-ms=20000 --expect-sheds \
  >"$TMP/serve.oldest.out" 2>&1 ||
  { echo "shed-oldest soak failed" >&2; cat "$TMP/serve.oldest.out" >&2
    exit 1; }
grep -q '"server.shed_oldest":[1-9]' "$TMP/serve.oldest.stats.json" ||
  { echo "shed-oldest policy never displaced a queued request" >&2; exit 1; }
echo "   shed-oldest: displacement policy exercised under saturation"

# Reload drill: a supervised server takes live load while gg-load injects
# in-band Reload frames (--min-generation proves the swaps happened) and
# the supervisor forwards a mid-soak SIGHUP; --verify holds the
# byte-identity bar across generations, and a final SIGTERM must come
# back as a clean drain (supervisor exit 0), with the reloads and the
# drain visible in the server's stats artifact.
rm -f "$TMP/serve.sock"
scripts/serve.sh "$BUILD_DIR"/examples/compile_minic \
  --serve="$TMP/serve.sock" --serve-workers=2 \
  --stats-json="$TMP/serve.reload.stats.json" \
  >"$TMP/serve.reload.log" 2>&1 &
SUPERVISOR=$!
for _ in $(seq 1 100); do
  [[ -S "$TMP/serve.sock" ]] && break
  sleep 0.1
done
[[ -S "$TMP/serve.sock" ]] ||
  { echo "supervised server never bound its socket" >&2; exit 1; }
"$BUILD_DIR"/tools/gg-load --socket="$TMP/serve.sock" \
  --requests=120 --clients=4 --corpus=8 --verify \
  --reload-every=40 --min-generation=2 --timeout-ms=30000 --no-shutdown \
  >"$TMP/serve.reload.out" 2>&1 &
LOADPID=$!
sleep 0.5
kill -HUP "$SUPERVISOR" 2>/dev/null || true
wait "$LOADPID" ||
  { echo "reload drill load failed" >&2; cat "$TMP/serve.reload.out" >&2
    cat "$TMP/serve.reload.log" >&2; exit 1; }
kill -TERM "$SUPERVISOR"
set +e
wait "$SUPERVISOR"
drain_code=$?
set -e
[[ "$drain_code" -eq 0 ]] ||
  { echo "supervisor drain exited $drain_code (want 0: clean drain)" >&2
    cat "$TMP/serve.reload.log" >&2; exit 1; }
grep -q '"server.reloads":[1-9]' "$TMP/serve.reload.stats.json" ||
  { echo "reload drill: no reload recorded in server stats" >&2; exit 1; }
grep -q '"server.drains":[1-9]' "$TMP/serve.reload.stats.json" ||
  { echo "reload drill: SIGTERM drain missing from server stats" >&2
    exit 1; }
sed -n 's/^gg-load: /   /p' "$TMP/serve.reload.out" | head -3
echo "   reload drill: hot reloads under load, clean SIGTERM drain"

# Introspection smoke (docs/observability.md): a serving process must
# answer in-band Status probes (gg-top --once --json), dump a parseable
# gg-flight-v1 snapshot on SIGQUIT *while continuing to serve*, leave a
# second dump on its drain exit, leave a trace that joins back into
# per-request timelines (gg-report --trace), and keep answering through
# connection churn past its fd limit.
echo "== introspection smoke (gg-top, flight recorder, trace join, churn)"
rm -f "$TMP/serve.sock" "$TMP/serve.flight.json"
"$BUILD_DIR"/examples/compile_minic --serve="$TMP/serve.sock" \
  --serve-workers=2 \
  --trace-json="$TMP/serve.trace.json" \
  --flight-json="$TMP/serve.flight.json" \
  >"$TMP/serve.introspect.log" 2>&1 &
SERVER=$!
for _ in $(seq 1 100); do
  [[ -S "$TMP/serve.sock" ]] && break
  sleep 0.1
done
[[ -S "$TMP/serve.sock" ]] ||
  { echo "introspection server never bound its socket" >&2; exit 1; }
"$BUILD_DIR"/tools/gg-load --socket="$TMP/serve.sock" \
  --requests=40 --clients=4 --corpus=8 --trace-ids=5000 \
  --timeout-ms=30000 --no-shutdown >"$TMP/serve.introspect.out" 2>&1 ||
  { echo "introspection load failed" >&2
    cat "$TMP/serve.introspect.out" >&2; exit 1; }
"$BUILD_DIR"/tools/gg-top --socket="$TMP/serve.sock" --once --json \
  >"$TMP/serve.status.json" ||
  { echo "gg-top one-shot failed against a live server" >&2; exit 1; }
grep -q '"schema":"gg-status-v1"' "$TMP/serve.status.json" ||
  { echo "gg-top returned no gg-status-v1 snapshot" >&2
    cat "$TMP/serve.status.json" >&2; exit 1; }
grep -q '"generation":' "$TMP/serve.status.json" ||
  { echo "status snapshot is missing the service generation" >&2; exit 1; }
kill -QUIT "$SERVER"
for _ in $(seq 1 50); do
  [[ -s "$TMP/serve.flight.json" ]] && break
  sleep 0.1
done
if command -v python3 >/dev/null 2>&1; then
  python3 - "$TMP/serve.flight.json" <<'PYEOF' ||
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "gg-flight-v1", d.get("schema")
assert d["reason"] == "sigquit", d["reason"]
seqs = [e["seq"] for e in d["events"]]
assert seqs, "flight dump has no events"
assert all(a < b for a, b in zip(seqs, seqs[1:])), "seq not strictly monotone"
assert any(e["kind"] == "admit" and e["req"] >= 5000 for e in d["events"]), \
    "no admit event carries a --trace-ids request id"
PYEOF
    { echo "SIGQUIT flight dump failed validation" >&2
      head -c 400 "$TMP/serve.flight.json" >&2; exit 1; }
else
  grep -q '"schema":"gg-flight-v1"' "$TMP/serve.flight.json" ||
    { echo "SIGQUIT left no gg-flight-v1 dump" >&2; exit 1; }
fi
# SIGQUIT must not have stopped the server: probe it again, then drain.
"$BUILD_DIR"/tools/gg-top --socket="$TMP/serve.sock" --once --json \
  >/dev/null ||
  { echo "server stopped serving after SIGQUIT" >&2; exit 1; }
kill -TERM "$SERVER"
set +e
wait "$SERVER"
introspect_code=$?
set -e
[[ "$introspect_code" -eq 0 ]] ||
  { echo "introspection server drain exited $introspect_code" >&2
    cat "$TMP/serve.introspect.log" >&2; exit 1; }
json_check "$TMP/serve.trace.json"
"$BUILD_DIR"/tools/gg-report --trace "$TMP/serve.trace.json" --slowest=3 \
  >"$TMP/serve.tracereport.out" ||
  { echo "gg-report --trace failed on the server trace" >&2; exit 1; }
grep -q 'req 50[0-9][0-9]' "$TMP/serve.tracereport.out" ||
  { echo "trace report joined no --trace-ids request" >&2
    cat "$TMP/serve.tracereport.out" >&2; exit 1; }
echo "   status probes, SIGQUIT black box, trace join: all answered"

# Connection churn: each gg-top probe opens one connection and closes it.
# The server must release a connection's fd once its client leaves, so
# more probes than its fd limit leave it answering, holding about the fds
# it held before.
rm -f "$TMP/churn.sock"
(ulimit -n 64 && exec "$BUILD_DIR"/examples/compile_minic \
  --serve="$TMP/churn.sock" --serve-workers=1) >"$TMP/churn.log" 2>&1 &
CHURN=$!
for _ in $(seq 1 100); do
  [[ -S "$TMP/churn.sock" ]] && break
  sleep 0.1
done
"$BUILD_DIR"/tools/gg-top --socket="$TMP/churn.sock" --once --json \
  >/dev/null || { echo "churn server answered no probe" >&2; exit 1; }
churn_fds() { ls "/proc/$CHURN/fd" | wc -l; }
fds_before=$(churn_fds)
for _ in $(seq 1 80); do
  "$BUILD_DIR"/tools/gg-top --socket="$TMP/churn.sock" --once --json \
    --timeout-ms=2000 >/dev/null 2>&1 || true
done
"$BUILD_DIR"/tools/gg-top --socket="$TMP/churn.sock" --once --json \
  >/dev/null ||
  { echo "server stopped answering after 80 probes under ulimit -n 64" >&2
    exit 1; }
for _ in $(seq 1 20); do
  (( $(churn_fds) <= fds_before + 2 )) && break
  sleep 0.1
done
fds_after=$(churn_fds)
(( fds_after <= fds_before + 2 )) ||
  { echo "churn server holds $fds_after fds, $fds_before before" >&2
    exit 1; }
kill -TERM "$CHURN"
set +e
wait "$CHURN"
churn_code=$?
set -e
[[ "$churn_code" -eq 0 ]] ||
  { echo "churn server drain exited $churn_code" >&2
    cat "$TMP/churn.log" >&2; exit 1; }
echo "   connection churn: 80 probes under ulimit -n 64, fds" \
  "$fds_before -> $fds_after, still answering"

echo "== bench sentinel (served counts, tracing guard)"
scripts/bench.sh --check --build-dir "$BUILD_DIR"

echo "== TSAN leg (parallel code generation under -fsanitize=thread)"
# ASan and TSan cannot share a build tree; a third tree builds just the
# parallel-determinism test and hammers the work-stealing pipeline. TSAN's
# vector clocks detect ordering races even on a single-core host.
cmake -B build-tsan -S . \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-tsan -j"$(nproc)" --target parallel_test support_test \
  coverage_test profile_test match_golden_test matcher_extra_test \
  stats_trace_test
# parallel_test includes MatchTally.*: each worker publishes its
# function's match tally into the shared registry at 4 threads.
build-tsan/tests/parallel_test
# The phase clock is thread-local; PhaseScope.* nests and chains
# (PhaseScope::to) scopes and stamps flight events from the clock, beside
# the shared-registry hammers, including per-thread LocalHistograms
# merged into one LogHistogram. FlightRecorder.* hands ring slots from
# exiting threads to new ones.
build-tsan/tests/support_test \
  --gtest_filter='StatsThreading.*:PhaseScope.*:FlightRecorder.*'
build-tsan/tests/coverage_test \
  --gtest_filter='CoverageRegistry.ShardsSumExactlyUnderContention:CoveragePipeline.*'
build-tsan/tests/profile_test --gtest_filter='ProfilePipeline.*'
# The value-returning match() publishes each tree's tally at once; the
# equivalence golden at 4 threads with coverage + profile armed hammers
# those publishes from concurrent matchers.
build-tsan/tests/match_golden_test \
  --gtest_filter='MatchGolden.FourThreadsTelemetryArmed'
build-tsan/tests/matcher_extra_test
# The trace recorder locks once per span, at its end, and reads its epoch
# without the lock; the Trace.* tests close cg.function spans from 4
# workers at once.
build-tsan/tests/stats_trace_test --gtest_filter='Trace.*'
echo "   parallel_test + stats/phase/coverage/profile/matcher/trace hammers: race-free under TSAN"

echo "== all checks passed"
