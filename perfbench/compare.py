#!/usr/bin/env python3
"""Spreads and regressions over benchmark result records (from run.py).

    python3 perfbench/compare.py DIR              spread of every end-to-end
                                                  metric, per workload
    python3 perfbench/compare.py BASE_DIR NEW_DIR  NEW against BASE

Only untraced records count. The spread of a metric is the distance between
the first and third quartile of its values over the runs, as a share of
their median. NEW regresses on a metric when its median is worse than
BASE's by more than the metric's bound in BENCHMARK.json.

The EXACT metrics are counts fixed by the seed's corpus. Their bounds in
BENCHMARK.json only absorb the difference between corpora of different
seeds. Runs are paired by the seed in their stamp: on every seed both sides
ran, NEW regresses when an EXACT metric is worse at all, and within one
directory two runs of one seed must agree exactly. Without a common seed
the EXACT metrics fall back to their bounds.

The exit status is 1 when any metric regresses (or, with one directory, when
any spread other than setup_s exceeds its bound or an EXACT metric does not
repeat) or any run was incorrect.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = {"gg_sim_cycles", "gg_asm_insts"}


def load_spec():
    """BENCHMARK.json, after checking that metrics.json describes exactly
    the metrics it names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        described = json.load(f)
    for kind in ("end_to_end", "per_layer"):
        differ = {m["name"] for m in bench[kind]} ^ set(described[kind])
        if differ:
            sys.exit("compare: BENCHMARK.json and metrics.json disagree on %s: %s"
                     % (kind, ", ".join(sorted(differ))))
    return bench


def load(directory, names=None):
    """workload -> metric -> seed -> values, plus the count of incorrect
    runs. Given names, every record must report exactly those metrics."""
    runs, bad = {}, 0
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".json"):
            continue
        with open(os.path.join(directory, entry)) as f:
            rec = json.load(f)
        st, res = rec["stamp"], rec["result"]
        if st["trace"] != 0:
            continue
        if names is not None and set(res["metrics"]) != names:
            sys.exit("compare: %s reports %s, BENCHMARK.json names %s"
                     % (entry, sorted(res["metrics"]), sorted(names)))
        if not res["correct"] or res["failed"]:
            bad += 1
        per = runs.setdefault(st["workload"], {})
        for name, m in res["metrics"].items():
            per.setdefault(name, {}).setdefault(st["seed"], []).append(m["value"])
    return runs, bad


def values(by_seed):
    return [v for vs in by_seed.values() for v in vs]


def spread(vals):
    if len(vals) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def worse_by(base, new, better):
    """How much worse NEW is than BASE, as a share of BASE."""
    change = (new - base) / base
    return change if better == "lower" else -change


def paired_worst(base, new, better):
    """Largest worsening of an EXACT metric over the seeds both sides ran,
    and how many seeds that was (0: nothing to pair)."""
    common = sorted(set(base) & set(new))
    worst = max((worse_by(b, n, better) for s in common
                 for b in base[s] for n in new[s]), default=0.0)
    return worst, len(common)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bench = load_spec()
    metrics = bench["end_to_end"]
    names = {m["name"] for m in metrics}
    base, bad = load(argv[1], names)
    new, new_bad = load(argv[2], names) if len(argv) == 3 else (None, 0)
    failing = bad + new_bad > 0
    if failing:
        print("incorrect or failing runs: %d" % (bad + new_bad))

    for workload in sorted(base):
        b_runs = len(values(base[workload]["setup_s"]))
        n_runs = None if new is None else len(values(new.get(workload, {}).get("setup_s", {})))
        print("\n%s (%d runs%s)" % (workload, b_runs,
              "" if n_runs is None else " vs %d" % n_runs))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            b = base[workload][name]
            b_vals = values(b)
            b_med, b_spr = statistics.median(b_vals), spread(b_vals)
            if new is None:
                verdict = "ok"
                if b_spr > bound / 3:
                    verdict = "noisy (> bound/3)"
                if b_spr > bound:
                    verdict = "TOO NOISY"
                    failing |= name != "setup_s"
                if name in EXACT and any(len(set(vs)) > 1 for vs in b.values()):
                    verdict = "NOT EXACT (one seed, two values)"
                    failing = True
                print("  %-22s median %-14.6g spread %6.2f%%  bound %5.1f%%  %s"
                      % (name, b_med, b_spr * 100, bound * 100, verdict))
                continue
            n = new.get(workload, {}).get(name)
            if not n:
                continue
            n_vals = values(n)
            n_med = statistics.median(n_vals)
            w = worse_by(b_med, n_med, m["better"])
            regressed = w > bound
            rule = "bound %5.1f%%" % (bound * 100)
            if name in EXACT:
                worst, paired = paired_worst(b, n, m["better"])
                if paired:
                    regressed = worst > 0
                    rule = "exact on %d seeds, worst %+.3f%%" % (paired, worst * 100)
                else:
                    rule += " (no common seed)"
            failing |= regressed
            print("  %-22s base %-12.6g new %-12.6g worse by %+7.2f%%  %s"
                  "  spreads %5.2f%%/%5.2f%%  %s"
                  % (name, b_med, n_med, w * 100, rule, b_spr * 100,
                     spread(n_vals) * 100, "REGRESSION" if regressed else "ok"))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
