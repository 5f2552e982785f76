#!/usr/bin/env python3
"""The serving benchmark: one command per workload run, plus a compare mode.

Run one workload (from the root of a checkout of the repository):

    python3 perfbench/run.py --workload adhoc_n3 --seed 1 --seconds 10 --trace 0

The first run configures and builds the library and the benchmark with CMake
into .bench_build/ (Release); later runs rebuild only what changed. The run
prints the host fingerprint, a detail line and, last, the result object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1 (spans go to
.bench_build/spans/). --record FILE also appends the three lines, merged
into one JSON object, to FILE.

Compare two sets of recorded runs (for instance parent and change):

    python3 perfbench/run.py --compare parent.jsonl change.jsonl

prints, per workload and metric, each side's median and quartiles and a
verdict against the metric's bound: "worse", "no worse", or "unresolved"
when either side's spread (IQR / median) exceeds the bound.

    python3 perfbench/run.py --selftest

builds and runs the unit tests of the benchmark's helpers.

    python3 perfbench/run.py --workload paged_popular --seed 1 --seconds 5 \
        --trace 0 --read-rate 1800

serves an open-loop workload at another arrival rate, to find the rate at
which the stack saturates; the gated runs use each workload's own rate.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds `targets`; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src; "
            "run from a full checkout of the repository")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          check=False).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr, check=False).returncode == 0


def run_workload(args):
    if not build(["perfbench"]):
        log("build failed")
        return 2
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.read_rate:
        cmd += ["--read-rate", str(args.read_rate)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.csv")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if args.record and proc.returncode == 0 and len(lines) >= 3:
        record = {}
        for line in lines[-3:]:
            record.update(json.loads(line))
        with open(args.record, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    return proc.returncode


def load_bounds():
    """Bounds per metric: BENCHMARK.json's end-to-end bounds, plus those of
    the end-to-end metrics on the detail line, from perfbench/metrics.json.
    Returns {name: (bound or None, better)}."""
    out = {}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as f:
        extra = json.load(f)
    for m in bench["end_to_end"] + extra["detail_end_to_end"]:
        out[m["name"]] = (m["bound"], m["better"])
    for m in bench["per_layer"]:
        out[m["name"]] = (None, m["better"])
    return out


def collect(path):
    """{(workload, trace): {metric: [values]}} from a --record file."""
    runs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            detail = rec["detail"]
            key = (detail["workload"], detail["trace"])
            bucket = runs.setdefault(key, {})
            merged = dict(detail["metrics"])
            merged.update(rec["metrics"])
            for name, m in merged.items():
                bucket.setdefault(name, []).append(m["value"])
    return runs


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    if med:
        spread = (q3 - q1) / abs(med)
    else:
        spread = 0.0 if q3 == q1 else float("inf")
    return med, q1, q3, spread


def verdict(a, b, bound, better):
    """Change `b` against parent `a` under the metric's bound."""
    med_a, _, _, spread_a = summarize(a)
    med_b, _, _, spread_b = summarize(b)
    if bound is None:
        return "-"
    if max(spread_a, spread_b) > bound:
        return "unresolved"
    if med_a == 0:
        return "no worse" if med_b == 0 else "unresolved"
    change = (med_b - med_a) / abs(med_a)
    worse = change > bound if better == "lower" else change < -bound
    return "worse" if worse else "no worse"


def compare(path_a, path_b):
    bounds = load_bounds()
    a_runs, b_runs = collect(path_a), collect(path_b)
    any_worse = False
    print(f"{'workload':<14} {'metric':<32} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'bound':>6}  verdict")
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, trace = key
        a, b = a_runs[key], b_runs[key]
        for name in sorted(set(a) & set(b)):
            if name not in bounds:
                continue
            bound, better = bounds[name]
            ma, qa1, qa3, _ = summarize(a[name])
            mb, qb1, qb3, _ = summarize(b[name])
            v = verdict(a[name], b[name], bound, better)
            any_worse = any_worse or v == "worse"
            label = workload + ("" if trace == 0 else " (traced)")
            print(f"{label:<14} {name:<32} "
                  f"{f'{ma:.4g} [{qa1:.4g}, {qa3:.4g}]':>34} "
                  f"{f'{mb:.4g} [{qb1:.4g}, {qb3:.4g}]':>34} "
                  f"{'' if bound is None else bound:>6}  {v}")
    return 1 if any_worse else 0


def selftest():
    if not build(["perfbench_test"]):
        log("build failed")
        return 2
    return subprocess.run([os.path.join(BUILD, "perfbench_test")],
                          check=False).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--read-rate", type=float, default=0,
                        help="open-loop reads per second (capacity sweeps; "
                             "default: the workload's own rate)")
    parser.add_argument("--record", help="append the run's record here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --record files")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
