#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at a tiny scale.

    python3 e2ebench/smoke_test.py

For every workload in BENCHMARK.json it runs run.py at --scale 0.02 for one
second, untraced and traced, and checks:
  - the last line is the result object with exactly the contract's keys,
    correct, and holding exactly the declared metrics with their units;
  - every declared metric is also printed as a "metric <name> <value> <unit>"
    line, and so are dense_s, rmse and error_rate where the workload has them;
  - the traced layer times account for the train: core.self_s plus the
    query.*_s times equal traced.train_s to rounding, and each of them lies
    between 0 and traced.train_s;
  - the replay reports the statements it covered, and covered all of them.
Finally it checks that the benchmark fails, without printing a result, in a
directory that holds only BENCHMARK.json and e2ebench/. Exits nonzero on the
first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
DENSE_WORKLOADS = {"favorita", "pilot_update"}


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "e2ebench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--scale", "0.02"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def metric_lines(stdout):
    printed = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = (float(parts[2]), parts[3])
    return printed


def check_run(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        fail("%s exited %d\n%s%s" % (where, proc.returncode, proc.stdout,
                                     proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail("%s: result keys %s" % (where, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        fail("%s: result %s" % (where, result))
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared}:
        fail("%s: metrics %s" % (where, sorted(result["metrics"])))
    printed = metric_lines(proc.stdout)
    for m in declared:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"],
                                                      (int, float)):
            fail("%s: %s reported as %s" % (where, m["name"], got))
        if printed.get(m["name"], (None, None))[1] != m["unit"]:
            fail("%s: no 'metric %s <value> %s' line" % (where, m["name"],
                                                         m["unit"]))
    info = ["error_rate"] + (["dense_s", "rmse"]
                             if workload in DENSE_WORKLOADS else [])
    for name in info:
        if name not in printed:
            fail("%s: no 'metric %s' line" % (where, name))
    if printed["error_rate"][0] != 0:
        fail("%s: error_rate %g" % (where, printed["error_rate"][0]))
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        train = values["traced.train_s"]
        parts = {k: v for k, v in values.items()
                 if k == "core.self_s" or (k.startswith("query.") and
                                           k.endswith("_s"))}
        if abs(sum(parts.values()) - train) > 1e-6 * max(1.0, train):
            fail("%s: layers sum to %.9g s, traced.train_s is %.9g s"
                 % (where, sum(parts.values()), train))
        # core.self_s is the train minus the logged statement times, so the
        # sum above holds by construction. Overlapping or double-counted
        # statement times show as a self time outside [0, train].
        for name, value in parts.items():
            if not 0 <= value <= train:
                fail("%s: %s is %.9g s, outside [0, traced.train_s = %.9g s]"
                     % (where, name, value, train))
        if not (0 < values["sql.parsed"] == values["sql.statements"] and
                0 < values["plan.planned"] == values["plan.selects"]):
            fail("%s: replay covered parsed %g of %g statements, planned %g "
                 "of %g SELECTs" % (where, values["sql.parsed"],
                                    values["sql.statements"],
                                    values["plan.planned"],
                                    values["plan.selects"]))
    print("ok  %s" % where, flush=True)


def check_fails_without_sources(spec):
    bare = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "e2ebench"),
                    os.path.join(bare, "e2ebench"))
    cmd = [sys.executable, os.path.join(bare, "e2ebench", "run.py"),
           "--workload", spec["workloads"][0]["name"], "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("benchmark without engine sources exited %d, printed %r"
             % (proc.returncode, proc.stdout[-300:]))
    print("ok  fails without engine sources (exit %d)" % proc.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_fails_without_sources(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
