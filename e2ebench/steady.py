#!/usr/bin/env python3
"""Steadiness check: run two interleaved sets of the same build and compare.

    python3 e2ebench/steady.py

For every workload in BENCHMARK.json it runs set A and set B alternately
(A1 B1 A2 B2 ...), RUNS runs each, run i of both sets with seed i, through
run.py with the BENCHMARK.json run length. It then prints, per end-to-end
metric and set, the median and quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median, and whether the sets agree within the metric's
declared bound:
  - each set's spread is within the bound, and
  - the medians of the two sets differ by at most the bound, either way.
"target" additionally asks for every spread below a third of its bound.
Exits nonzero when the sets disagree or any run fails.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)\n%s%s"
                           % (workload, seed, proc.returncode, proc.stdout,
                              proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s seed %d: correctness check failed"
                           % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = ({}, {})
        for seed in range(1, RUNS + 1):
            for s in sets:
                for name, value in run_once(workload, seed,
                                            spec["run_seconds"]).items():
                    s.setdefault(name, []).append(value)
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g/%.4g" % (m["name"], sets[0][m["name"]][-1],
                                  sets[1][m["name"]][-1])
                for m in spec["end_to_end"])), flush=True)
        print("\n%-12s %-12s %10s %10s %10s %8s %8s %7s  %s" % (
            "workload", "metric", "median", "q1", "q3", "spread", "drift",
            "bound", "verdict"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = summarize(sets[0][name])
            b = summarize(sets[1][name])
            drift = (b[0] - a[0]) / a[0]
            spreads = [a[3], b[3]]
            agree = abs(drift) <= bound and all(x <= bound for x in spreads)
            target = all(x < bound / 3 for x in spreads)
            ok = ok and agree
            for label, (med, q1, q3, spread) in (("A", a), ("B", b)):
                print("%-12s %-12s %10.4g %10.4g %10.4g %7.1f%% %7.1f%% %6.0f%%"
                      "  %s" % (workload, name + " " + label, med, q1, q3,
                                100 * spread, 100 * drift, 100 * bound,
                                ("agree" if agree else "DISAGREE") +
                                ("" if target else " (spread above bound/3)")))
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
