#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--inject-delay-pct P] [--results-dir DIR]

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last
line of standard output is the result object; the line before it is the
host and run stamp. Each result is also kept, with its stamp, as one JSON
file under the results directory (default <build>/results), which is what
compare.py reads.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
# A run takes --seconds plus its set-up (corpus gate, table builds, server
# starts; about 10 s on a 4-vCPU x86-64 VM) and is killed past this margin.
SETUP_ALLOWANCE_S = 150
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir):
    """Configures once, then builds incrementally; build chatter goes to
    stderr so stdout carries only the stamp and the result."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(min(os.cpu_count() or 1, 4))])
    for cmd in steps:
        left = deadline - time.monotonic()
        if left <= 0 or subprocess.run(cmd, stdout=sys.stderr, timeout=left).returncode:
            return None
    return os.path.join(build_dir, "perfbench")


def cmake_cache(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """Identity of the code measured, for checkouts without git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def stamp(args, build_dir):
    compiler = cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inject_delay_pct": args.inject_delay_pct,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "build_type": cmake_cache(build_dir, "CMAKE_BUILD_TYPE"),
        "compiler": version, "git_commit": git_commit(),
        "source_digest": source_digest(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["compile-large", "serve-small", "serve-reload"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    p.add_argument("--inject-delay-pct", type=float, default=0.0)
    p.add_argument("--results-dir")
    args = p.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds in (0, 600]")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    exe = build(build_dir)
    if not exe:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_dir, "out")
    results_dir = args.results_dir or os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)

    # The system under test sees only the generated inputs: no injected
    # faults from the environment.
    env = {k: v for k, v in os.environ.items() if k != "GG_FAULT"}
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--inject-delay-pct", repr(args.inject_delay_pct),
           "--out-dir", os.path.relpath(out_dir, ROOT)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=args.seconds + SETUP_ALLOWANCE_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        print(f"perfbench: benchmark exited {r.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1

    st = stamp(args, build_dir)
    name = "%s-seed%d-trace%d-%d-%d.json" % (args.workload, args.seed, args.trace,
                                             time.time_ns(), os.getpid())
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump({"stamp": st, "result": result}, f)
        f.write("\n")
    print("perfbench-stamp " + json.dumps(st))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
