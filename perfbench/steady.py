#!/usr/bin/env python3
"""Steadiness tool: repeat one workload over seeds and judge each metric.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workload fanout --runs 10 [--first-seed 1]
        [--seconds 10] [--sets 1] [--trace 0]

Runs `perfbench/run.py` once per seed (seeds first-seed, first-seed+1, ...)
and, for every metric of the result line, prints the median and quartiles
(`statistics.quantiles(values, n=4)`), the spread (Q3 - Q1) / median and
the metric's bound from BENCHMARK.json. A metric is `steady` when its
spread is under a third of its bound, `within` when under the bound, and
`NOT STEADY` otherwise; `setup_s` spread is reported but not judged. With
`--sets 2` the seeds run twice and the two sets' medians must agree within
the bound in either direction: |m2 - m1| / min(m1, m2) <= bound, so a set
run on a slow machine after one run on a fast machine fails as well as the
reverse. Exits 1 when any judged metric fails, or when any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}


def one_run(workload, seed, seconds, trace):
    cmd = [
        sys.executable,
        os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"run with seed {seed} failed (exit {out.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"run with seed {seed} reported incorrect output")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def disagreement(first, second):
    """|second - first| as a share of the smaller of the two medians."""
    low = min(first, second)
    if low <= 0:
        return 0.0 if first == second else float("inf")
    return abs(second - first) / low


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    spec = bounds()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    sets = []
    for s in range(args.sets):
        runs = []
        for seed in seeds:
            runs.append(one_run(args.workload, seed, args.seconds, args.trace))
            print(f"set {s + 1} seed {seed}: " + json.dumps(runs[-1]), flush=True)
        sets.append(runs)

    failed = False
    print(f"\n{args.workload}: {args.runs} runs per set, {args.seconds} s each")
    print(f"{'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
    medians = []
    for runs in sets:
        meds = {}
        for name in runs[0]:
            values = [r[name] for r in runs]
            med, q1, q3, spread = summarize(values)
            meds[name] = med
            bound = spec.get(name, {}).get("bound")
            if bound is None:
                verdict = "per-layer"
            elif name == "setup_s":
                verdict = "not judged"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within"
            else:
                verdict = "NOT STEADY"
                failed = True
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"{name:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f} {b:>6}  {verdict}")
        medians.append(meds)
    if len(medians) == 2:
        print("\nsecond set vs first (|m2 - m1| / min(m1, m2); must stay within the bound)")
        for name, m1 in medians[0].items():
            if name not in spec:
                continue
            m2 = medians[1][name]
            d = disagreement(m1, m2)
            ok = d <= spec[name]["bound"]
            failed |= not ok
            print(f"{name:<16} {m1:>14.6g} {m2:>14.6g} {d:>8.3f}  {'ok' if ok else 'DISAGREE'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
