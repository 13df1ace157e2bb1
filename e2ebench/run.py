#!/usr/bin/env python3
"""Build the engine and the end-to-end benchmark from source, then run one
workload in several fresh processes and merge their results.

    python3 e2ebench/run.py --workload favorita --seed 1 --seconds 30 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under e2ebench/, in Release mode; build output goes to stderr.
--seconds bounds the wall time of the run after the build. Each process's
own output is echoed with a "c|" (checks) or "p<k>|" (timing) prefix. Then
come the
merged "metric <name> <value> <unit>" lines and, as the last line of
standard output, the JSON result. With --trace 1 the span trace is written
to <build dir>/traces/.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")

# A checks process runs first: it trains the model once and runs the dense
# baseline and the oracle check, which take fixed work. Then the rest of
# --seconds is split between timing processes, one after another. Each
# process gets its own memory layout (ASLR, physical pages), and that alone
# moves its trains by up to about +-10% against another process on the same
# input. Pooling the trains of three processes averages it out. The last one
# runs the traced replay, when asked.
PROCESSES = 3
END_TO_END = ("train_s", "setup_s", "peak_rss_mb", "error_rate")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "e2ebench")


def build():
    """Configure (once) and build the e2e binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: engine sources (src/) not found next to e2ebench/",
              file=sys.stderr)
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "e2e", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "e2e")


def run_process(label, cmd):
    """Runs one process, echoes its output; returns (result, lines) or None
    when it printed no result."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print("%s| %s" % (label, line))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("%s| exited %d without a result" % (label, proc.returncode))
        return None
    return result, [line.split() for line in lines[:-1]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply the workload's row counts (smoke tests)")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    end = time.monotonic() + args.seconds
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--scale", repr(args.scale)]
    attempted = failed = 0
    correct = True
    digests = set()
    pooled = {"train_s": [], "setup_s": []}
    rss = []
    info = {}
    for k in range(PROCESSES + 1):
        checks = k == 0
        trace = args.trace if k == PROCESSES else 0
        seconds = max(end - time.monotonic(), 1e-3) / (PROCESSES + 1 - k)
        cmd = base + ["--seconds", repr(seconds), "--trace", str(trace),
                      "--checks", "1" if checks else "0"]
        if trace:
            traces = os.path.join(build_dir(), "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-file", os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed))]
        out = run_process("c" if checks else "p%d" % k, cmd)
        if out is None:
            return 1
        result, lines = out
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for parts in lines:
            if parts[:1] == ["model_digest"] and len(parts) == 2:
                digests.add(parts[1])
            elif parts[:1] == ["samples"] and not checks:
                pooled[parts[1]] += [float(v) for v in parts[2:]]
            elif parts[:1] == ["metric"] and len(parts) == 4:
                value, unit = float(parts[2]), parts[3]
                if parts[1] == "peak_rss_mb":
                    rss.append(value)
                elif parts[1] not in END_TO_END:
                    info[parts[1]] = (value, unit)

    # Every process must have trained the same model as the checks process.
    attempted += 1
    if len(digests) != 1:
        print("check FAILED: the processes trained %d different models"
              % len(digests))
        failed += 1
        correct = False
    if not pooled["train_s"]:
        return 1
    merged = {
        "train_s": (statistics.median(pooled["train_s"]), "s"),
        "setup_s": (statistics.median(pooled["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "error_rate": (failed / attempted, "ratio"),
    }
    merged.update(info)
    merged["trains"] = (len(pooled["train_s"]), "count")
    for name, (value, unit) in merged.items():
        print("metric %s %.9g %s" % (name, value, unit))
    reported = result["metrics"] if args.trace else {
        k: {"value": v, "unit": u} for k, (v, u) in merged.items()
        if k in END_TO_END and k != "error_rate"}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
