#!/usr/bin/env python3
"""Sensitivity self-check: a known delay injected from the benchmark's side
must read as a regression in compare.py.

    python3 perfbench/selfcheck.py [WORKLOAD ...]

For each workload (default: all), seeds 1-3 run twice each for
BENCHMARK.json's run_seconds, once plain and once with a 10% injected
delay (a spin of 10% of the median GG compile inside every timed GG
compile, and of 10% of the median round trip inside the injected server
handler), alternating which goes first. Every end-to-end metric's change
is printed; the check passes when compare.py's rule flags each REQUIRED
metric on every workload. Served metrics carry bounds wider than 10% on a
shared host, so they are reported, not required.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import compare  # noqa: E402

WORKLOADS = ["compile-large", "serve-small", "serve-reload"]
REQUIRED = ["gg_pcc_time_ratio"]
DELAY_PCT = 10
SEEDS = [1, 2, 3]


def run(workload, seed, seconds, pct, results_dir):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--inject-delay-pct", str(pct), "--results-dir", results_dir]
    if subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL).returncode:
        sys.exit("selfcheck: run failed: " + " ".join(cmd))


def main(workloads):
    for w in workloads:
        if w not in WORKLOADS:
            sys.exit("selfcheck: unknown workload %s (one of %s)"
                     % (w, ", ".join(WORKLOADS)))
    bench = compare.load_spec()
    spec = {m["name"]: m for m in bench["end_to_end"]}
    work = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench", "selfcheck")

    missed = []
    for w in workloads or WORKLOADS:
        dirs = {k: os.path.join(work, w, k) for k in ("plain", "injected")}
        for d in dirs.values():
            shutil.rmtree(d, ignore_errors=True)
        for seed in SEEDS:
            order = [(0, "plain"), (DELAY_PCT, "injected")]
            for pct, kind in order if seed % 2 else reversed(order):
                run(w, seed, bench["run_seconds"], pct, dirs[kind])
        plain, _ = compare.load(dirs["plain"])
        injected, _ = compare.load(dirs["injected"])
        for name, m in spec.items():
            base = statistics.median(compare.values(plain[w][name]))
            new = statistics.median(compare.values(injected[w][name]))
            worse = compare.worse_by(base, new, m["better"])
            flagged = worse > m["bound"]
            verdict = "flagged" if flagged else "not flagged"
            if name in REQUIRED and not flagged:
                verdict = "MISSED"
                missed.append((w, name))
            print("%-13s %-20s worse by %+6.2f%% (bound %4.1f%%): %s"
                  % (w, name, worse * 100, m["bound"] * 100, verdict))
    if missed:
        print("selfcheck: FAIL, a %d%% delay went unflagged on %d metric(s)"
              % (DELAY_PCT, len(missed)))
        return 1
    print("selfcheck: ok, the injected %d%% delay was flagged on %s of every "
          "workload" % (DELAY_PCT, ", ".join(REQUIRED)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
