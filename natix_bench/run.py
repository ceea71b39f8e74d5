#!/usr/bin/env python3
"""Builds natix_bench from source and runs it.

Run from the repository root:

  python3 natix_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      Builds .bench_build/natix_bench if needed and runs one workload; the
      last line of stdout is the result JSON.
  python3 natix_bench/run.py --smoke [--binary <path>]
      Runs every workload at tiny sizes, untraced and traced, and checks the
      metric names and units against BENCHMARK.json.
  python3 natix_bench/run.py --spread <n> [--workloads a,b] [--seconds <s>]
      Runs each workload with n seeds and prints, per end-to-end metric, the
      median and the quartile spread as a share of the median.
  python3 natix_bench/run.py --overhead <n> [--workloads a,b] [--seconds <s>]
      Alternates untraced and traced runs n times per workload and reports
      the tracing overhead on the op latency median.

Build output goes to stderr, so stdout carries only the benchmark's own.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "natix_bench"
BUILD = ROOT / ".bench_build"
WORK = BUILD / "work"
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the natix_bench target; returns its path."""
    BUILD.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "natix_bench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                sys.exit("natix_bench: build failed: " + " ".join(cmd))
    return BUILD / "natix_bench"


def run(binary, workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(WORK)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"natix_bench: {workload} timed out", file=sys.stderr)
        return 1, None
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def smoke(binary):
    """Every workload, tiny sizes, both modes: names, units, finiteness."""
    spec = load_spec()
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(binary, w["name"], 1, 0.3, trace, smoke=True,
                               echo=False)
            where = f"{w['name']} trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: {result['failed']} failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != got:
                problems.append(f"{where}: metrics differ from BENCHMARK.json"
                                f" {key}: {sorted(set(want) ^ set(got))}")
            for name, m in result["metrics"].items():
                if not math.isfinite(m["value"]):
                    problems.append(f"{where}: {name} is not finite")
            print(f"smoke {where}: {len(got)} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} failed")
    for p in problems:
        print("SMOKE FAILURE: " + p, file=sys.stderr)
    return 1 if problems else 0


def quartile_spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def spread(binary, workloads, n, seconds):
    """n seeds per workload; per metric the median and IQR / median."""
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0
    for w in workloads:
        values = {}
        for seed in range(1, n + 1):
            code, result = run(binary, w, seed, seconds, 0, echo=False)
            if code != 0 or result is None:
                print(f"{w} seed {seed}: exit {code}")
                return 1
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, vals in values.items():
            med, rel = quartile_spread(vals)
            ok = k == "setup_s" or rel <= bounds[k] / 3
            worst = max(worst, 0 if ok else 1)
            print(f"{w:14s} {k:14s} median {med:12.4f}  spread {rel:7.2%}  "
                  f"bound {bounds[k]:.0%}  {'ok' if ok else 'WIDE'}  "
                  f"[{' '.join(f'{v:.4g}' for v in vals)}]")
    return worst


def overhead(binary, workloads, n, seconds):
    """Interleaved untraced/traced runs; traced op median over untraced."""
    for w in workloads:
        plain, traced, coverage = [], [], []
        for seed in range(1, n + 1):
            _, a = run(binary, w, seed, seconds, 0, echo=False)
            _, b = run(binary, w, seed, seconds, 1, echo=False)
            if a is None or b is None:
                print(f"{w} seed {seed}: run failed")
                return 1
            plain.append(a["metrics"]["op_p50_ref"]["value"])
            traced.append(b["metrics"]["harness.op_p50_ref"]["value"])
            coverage.append(b["metrics"]["harness.coverage_pct"]["value"])
        p, t = statistics.median(plain), statistics.median(traced)
        print(f"{w:14s} op_p50_ref untraced {p:9.4f}  traced {t:9.4f}  "
              f"overhead {t / p - 1:+7.2%}  span coverage "
              f"{statistics.median(coverage):6.2f}%")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spread", type=int, metavar="N")
    ap.add_argument("--overhead", type=int, metavar="N")
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--binary", help="use this natix_bench, do not build")
    args = ap.parse_args()

    binary = Path(args.binary) if args.binary else build()
    if args.smoke:
        return smoke(binary)
    seconds = args.seconds or load_spec()["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in load_spec()["workloads"]])
    if args.spread:
        return spread(binary, workloads, args.spread, seconds)
    if args.overhead:
        return overhead(binary, workloads, args.overhead, seconds)
    if not args.workload or args.seconds is None:
        ap.error("--workload and --seconds are required")
    code, _ = run(binary, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
