#!/usr/bin/env bash
# Benchmark regression sentinel (see docs/observability.md).
#
#   scripts/bench.sh [--build-dir DIR] [--check] [--update]
#
# Every committed BENCH_*.json baseline holds exact counts only, one metric
# per line, so a fresh run must reproduce it byte for byte. Time belongs to
# perfbench, the benchmark of record.
#
#   --update (default)  writes BENCH_compile_speed.json (E3),
#                       BENCH_code_quality.json (E7) and
#                       BENCH_server_throughput.json (gg-load against a
#                       live --serve daemon) at the repo root;
#   --check             checks what needs a live server: a fresh
#                       server_throughput file must equal the committed
#                       one (`diff -u` names the metric that moved), and
#                       the tracing guard below must pass. ctest checks
#                       the other two baselines (bench_baseline_*).
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

for bin in bench/bench_compile_speed bench/bench_code_quality \
           tools/gg-load examples/compile_minic; do
  if [ ! -x "$BUILD_DIR/$bin" ]; then
    echo "bench.sh: $BUILD_DIR/$bin missing (build the tree first)" >&2
    exit 1
  fi
done

serve_counts() { # OUT: 200 verified requests against a spawned server
  rm -f "$BUILD_DIR/bench-serve.sock"
  "$BUILD_DIR/tools/gg-load" --socket="$BUILD_DIR/bench-serve.sock" \
      --spawn="$BUILD_DIR/examples/compile_minic" \
      --requests=200 --clients=4 --corpus=16 --verify \
      --bench-json="$1" > /dev/null
}

if [ "$MODE" = update ]; then
  echo "== writing bench baselines at $ROOT"
  for b in compile_speed code_quality; do
    "$BUILD_DIR/bench/bench_$b" --baseline-json="$ROOT/BENCH_$b.json" > /dev/null
  done
  serve_counts "$ROOT/BENCH_server_throughput.json"
  echo "   BENCH_compile_speed.json BENCH_code_quality.json" \
       "BENCH_server_throughput.json"
  exit 0
fi

echo "== bench sentinel: fresh server counts vs BENCH_server_throughput.json"
FRESH="$BUILD_DIR/bench-fresh"
mkdir -p "$FRESH"
serve_counts "$FRESH/server_throughput.json"
diff -u "$ROOT/BENCH_server_throughput.json" "$FRESH/server_throughput.json" ||
  { echo "bench.sh: server counts differ from the committed baseline" \
         "(after an intended change: scripts/bench.sh --update)" >&2; exit 1; }

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
guard_leg() { # [server args...] -> prints requests per second
  local server out rps
  rm -f "$GUARD_SOCK"
  "$BUILD_DIR/examples/compile_minic" --serve="$GUARD_SOCK" "$@" > /dev/null &
  server=$!
  for _ in $(seq 1 200); do
    [ -S "$GUARD_SOCK" ] && break
    sleep 0.05
  done
  out=$("$BUILD_DIR/tools/gg-load" --socket="$GUARD_SOCK" \
      --requests=$GUARD_REQUESTS --clients=4 --corpus=16 --verify) ||
    { kill "$server"; return 1; }
  wait "$server" || return 1
  rps=$(sed -n 's/.*throughput \([0-9.]*\) req\/s.*/\1/p' <<< "$out")
  [ -n "$rps" ] || { echo "bench.sh: no throughput reading" >&2; return 1; }
  echo "$rps"
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
      UNTRACED+=("$(guard_leg)")
    else
      TRACED+=("$(guard_leg --trace-json=/dev/null)")
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
