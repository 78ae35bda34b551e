#!/usr/bin/env python3
"""Steadiness report: run workloads repeatedly and print each metric's spread.

    python3 perfbench/steady.py --runs 10                       # every workload, seeds 1..10
    python3 perfbench/steady.py --workload realism --runs 5 --seed-start 101

Each run is a separate untraced `run.py` process with a seed of its own,
one after another.  For every end-to-end metric it prints the median, the
quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and the
spread, the distance between the quartiles as a share of the median, next
to the metric's bound in BENCHMARK.json.  A spread under a third of the
bound is steady.  The exit code is 1 if a run failed or a spread is not
steady.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-start", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workload or names:
        runs = []
        for i in range(args.runs):
            seed = args.seed_start + i
            result = run_once(workload, seed, args.seconds)
            runs.append(result)
            print(f"# {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        print(f"{workload}: {args.runs} runs, one seed per run")
        print(f"  {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            median, q1, q3, rel = spread([r["metrics"][name]["value"] for r in runs])
            verdict = "steady" if rel < bound / 3 else "within bound" if rel <= bound else "TOO WIDE"
            if rel >= bound / 3:
                steady = False
            print(f"  {name:12s} {median:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.2%} {bound:6.2f} {verdict}")
        if any(not r["correct"] for r in runs):
            print(f"  FAILED checks in {sum(not r['correct'] for r in runs)} runs")
            steady = False
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
