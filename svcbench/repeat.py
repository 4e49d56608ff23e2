#!/usr/bin/env python3
"""Repeatability check: runs one workload N times with different seeds and
prints, for every end-to-end metric, the median, the quartiles and the
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.

    python3 svcbench/repeat.py --workload churn-alert [--runs 10]
        [--seed-base 1] [--seconds 30] [--traced 3]

--seconds defaults to BENCHMARK.json's run_seconds. --traced N also makes
N traced runs (the first N seeds) and compares the median of the traced
runs' own end-to-end figures (their "E2E" line) with the untraced medians:
the tracing overhead. Every untraced run's result and the notes it printed
(phase length, sample count, generator lateness, ...) are saved to
.bench_build/results/<workload>-runs.json. Exits 1 if a run fails, reads
incorrect, or a spread other than setup_s's exceeds a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "svcbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    e2e = {}
    notes = []
    in_notes = True  # the indented lines before the metric tables
    for line in lines:
        if line.startswith("E2E "):
            e2e = json.loads(line[4:])
        elif line.startswith("end-to-end"):
            in_notes = False
        elif in_notes and line.startswith("  "):
            notes.append(line.strip())
    return result, e2e, notes


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    runs = []
    ok = True
    for i in range(args.runs):
        seed = args.seed_base + i
        result, _, notes = run_once(args.workload, seed, seconds, False)
        runs.append({"seed": seed, "result": result, "notes": notes})
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} " +
              " ".join(f"{k}={v:.4g}" for k, v in values.items()),
              flush=True)
        ok = ok and result["correct"]

    shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, seeds "
          f"{args.seed_base}..{args.seed_base + args.runs - 1}, failed "
          f"share(s) {sorted(shares)}")
    print(f"{'metric':<18} {'unit':<6} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6} {'bound/3':>8}")
    medians = {}
    for name, spec in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = summary(values)
        medians[name] = med
        spread = (q3 - q1) / med if med else float("inf")
        steady = spread <= spec["bound"] / 3
        if name != "setup_s":
            ok = ok and steady
        print(f"{name:<18} {spec['unit']:<6} {q1:12.4f} {med:12.4f} "
              f"{q3:12.4f} {spread:8.4f} {spec['bound']:6.2f} "
              f"{'ok' if steady else 'WIDE':>8}")

    if args.traced:
        print(f"\n{args.traced} traced runs (their own end-to-end figures):")
        traced = {name: [] for name in bounds}
        for i in range(args.traced):
            _, e2e, _ = run_once(args.workload, args.seed_base + i, seconds, True)
            for name in bounds:
                traced[name].append(e2e[name]["value"])
        for name in bounds:
            med = statistics.median(traced[name])
            delta = (med - medians[name]) / medians[name]
            print(f"{name:<18} untraced {medians[name]:12.4f}  traced "
                  f"{med:12.4f}  overhead {delta:+.1%}")

    out_dir = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-runs.json"), "w") as f:
        json.dump(runs, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
