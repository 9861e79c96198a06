#!/usr/bin/env bash
# Benchmark regression sentinel (see docs/observability.md).
#
#   scripts/bench.sh [--build-dir DIR] [--check] [--update]
#
# Runs the deterministic bench suites (E3 compile speed, E5 phase
# breakdown, E7 code quality) with --baseline-json, plus the compile
# server throughput run (gg-load against a live --serve daemon) and an
# overload leg (open-loop arrivals against a bounded queue, merged into
# the same artifact under the overload_ prefix: goodput, shed rate,
# tail latency), and either:
#
#   --update (default)  writes BENCH_compile_speed.json,
#                       BENCH_phase_breakdown.json and
#                       BENCH_code_quality.json at the repo root — the
#                       committed baselines;
#   --check             writes fresh metrics into the build tree and
#                       compares them against the committed baselines
#                       with `gg-report --check-bench`. Exits nonzero on
#                       any count-metric deviation beyond the default
#                       0.5% threshold (time metrics are informational
#                       and skipped). The overload_ metrics are
#                       load-dependent, so --noisy=overload_ keeps them
#                       informational like the time class. --check also
#                       runs alternating untraced/traced throughput legs
#                       and fails if the median traced throughput is more
#                       than 2% below the median untraced one.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build"
MODE=update
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --check) MODE=check; shift ;;
    --update) MODE=update; shift ;;
    *) echo "usage: bench.sh [--build-dir DIR] [--check|--update]" >&2; exit 2 ;;
  esac
done

for bin in bench/bench_compile_speed bench/bench_phase_breakdown \
           bench/bench_code_quality tools/gg-report tools/gg-load \
           examples/compile_minic; do
  if [ ! -x "$BUILD_DIR/$bin" ]; then
    echo "bench.sh: $BUILD_DIR/$bin missing (build the tree first)" >&2
    exit 1
  fi
done

if [ "$MODE" = update ]; then
  echo "== writing bench baselines at $ROOT"
  "$BUILD_DIR/bench/bench_compile_speed" \
      --baseline-json="$ROOT/BENCH_compile_speed.json" > /dev/null
  "$BUILD_DIR/bench/bench_phase_breakdown" \
      --baseline-json="$ROOT/BENCH_phase_breakdown.json" > /dev/null
  "$BUILD_DIR/bench/bench_code_quality" \
      --baseline-json="$ROOT/BENCH_code_quality.json" > /dev/null
  rm -f "$BUILD_DIR/bench-serve.sock"
  "$BUILD_DIR/tools/gg-load" --socket="$BUILD_DIR/bench-serve.sock" \
      --spawn="$BUILD_DIR/examples/compile_minic" \
      --requests=200 --clients=4 --corpus=16 --verify \
      --bench-json="$ROOT/BENCH_server_throughput.json" > /dev/null
  rm -f "$BUILD_DIR/bench-serve.sock"
  GG_FAULT=overload-burst=20 \
  "$BUILD_DIR/tools/gg-load" --socket="$BUILD_DIR/bench-serve.sock" \
      --spawn="$BUILD_DIR/examples/compile_minic" \
      --serve-arg=--serve-workers=2 --serve-arg=--serve-queue-depth=4 \
      --requests=300 --clients=4 --corpus=12 --open-loop=500 \
      --timeout-ms=20000 --expect-sheds \
      --bench-json="$ROOT/BENCH_server_throughput.json" \
      --bench-merge --bench-prefix=overload_ > /dev/null
  echo "   BENCH_compile_speed.json BENCH_phase_breakdown.json" \
       "BENCH_code_quality.json BENCH_server_throughput.json"
  exit 0
fi

echo "== bench sentinel: fresh run vs committed baselines"
FRESH="$BUILD_DIR/bench-fresh"
mkdir -p "$FRESH"
"$BUILD_DIR/bench/bench_compile_speed" \
    --baseline-json="$FRESH/compile_speed.json" > /dev/null
"$BUILD_DIR/bench/bench_phase_breakdown" \
    --baseline-json="$FRESH/phase_breakdown.json" > /dev/null
"$BUILD_DIR/bench/bench_code_quality" \
    --baseline-json="$FRESH/code_quality.json" > /dev/null
rm -f "$BUILD_DIR/bench-serve.sock"
"$BUILD_DIR/tools/gg-load" --socket="$BUILD_DIR/bench-serve.sock" \
    --spawn="$BUILD_DIR/examples/compile_minic" \
    --requests=200 --clients=4 --corpus=16 --verify \
    --bench-json="$FRESH/server_throughput.json" > /dev/null

# Always-on tracing overhead guard (docs/observability.md): PAIRS
# untraced/traced pairs of a throughput leg, alternating which side runs
# first so drift on the host falls on both. Each leg starts its own
# server and waits for its socket, so the reading covers serving only,
# not startup and gg-load's connect backoff. Fails when the median traced
# throughput is more than 2% below the median untraced one; a traced run
# that is faster never fails. Latency percentiles jitter more than 2%
# between two healthy runs, so only throughput is gated.
PAIRS=21
GUARD_REQUESTS=200
GUARD_SOCK="$BUILD_DIR/bench-guard.sock"
guard_leg() { # OUT [server args...] -> prints requests per second
  local out=$1 server
  shift
  rm -f "$GUARD_SOCK" "$out"
  "$BUILD_DIR/examples/compile_minic" --serve="$GUARD_SOCK" "$@" > /dev/null &
  server=$!
  for _ in $(seq 1 200); do
    [ -S "$GUARD_SOCK" ] && break
    sleep 0.05
  done
  "$BUILD_DIR/tools/gg-load" --socket="$GUARD_SOCK" \
      --requests=$GUARD_REQUESTS --clients=4 --corpus=16 --verify \
      --bench-json="$out" > /dev/null || { kill "$server"; return 1; }
  wait "$server" || return 1
  sed -n 's/.*"throughput_per_wall_seconds":\([0-9.eE+-]*\).*/\1/p' "$out"
}
echo "== always-on tracing overhead guard" \
     "(median of $PAIRS pairs, traced >= 98% of untraced)"
UNTRACED=()
TRACED=()
for i in $(seq 1 $PAIRS); do
  order="u t"
  [ $((i % 2)) -eq 1 ] || order="t u"
  for side in $order; do
    if [ "$side" = u ]; then
      UNTRACED+=("$(guard_leg "$FRESH/guard_untraced.json")")
    else
      TRACED+=("$(guard_leg "$FRESH/guard_traced.json" --trace-json=/dev/null)")
    fi
  done
  echo "   pair $i: untraced ${UNTRACED[-1]} req/s, traced ${TRACED[-1]} req/s"
done
median() {
  printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)] }'
}
awk -v u="$(median "${UNTRACED[@]}")" -v t="$(median "${TRACED[@]}")" 'BEGIN {
  if (!(u > 0 && t > 0)) { print "bench.sh: no throughput reading" > "/dev/stderr"; exit 1 }
  d = 100 * (t - u) / u
  printf "   median: untraced %.1f req/s, traced %.1f req/s (%+.2f%%)\n", u, t, d
  if (d < -2) {
    print "bench.sh: tracing costs more than 2% of throughput" > "/dev/stderr"
    exit 1
  }
}'
rm -f "$BUILD_DIR/bench-serve.sock"
GG_FAULT=overload-burst=20 \
"$BUILD_DIR/tools/gg-load" --socket="$BUILD_DIR/bench-serve.sock" \
    --spawn="$BUILD_DIR/examples/compile_minic" \
    --serve-arg=--serve-workers=2 --serve-arg=--serve-queue-depth=4 \
    --requests=300 --clients=4 --corpus=12 --open-loop=500 \
    --timeout-ms=20000 --expect-sheds \
    --bench-json="$FRESH/server_throughput.json" \
    --bench-merge --bench-prefix=overload_ > /dev/null
"$BUILD_DIR/tools/gg-report" --noisy=overload_ \
    --check-bench="$FRESH/compile_speed.json:$ROOT/BENCH_compile_speed.json" \
    --check-bench="$FRESH/phase_breakdown.json:$ROOT/BENCH_phase_breakdown.json" \
    --check-bench="$FRESH/code_quality.json:$ROOT/BENCH_code_quality.json" \
    --check-bench="$FRESH/server_throughput.json:$ROOT/BENCH_server_throughput.json"
