#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternated pairs of runs.

Usage:

    python3 scripts/ab_pairs.py PARENT CHANGE --workload shift --seed 1 \\
        --seconds 40 --pairs 10

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, one
after the other; the side that runs first alternates from pair to pair.
Only each run's result line, the last line of its stdout, is read. For each
end-to-end metric the script prints each side's median and quartiles and
the pairs in which the change read better (by the metric's ``better`` in
the change's BENCHMARK.json). The checkout paths must be of equal length:
the length of the working directory alone moves memory and times.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout, args):
    """The result line of one untraced benchmark run in ``checkout``."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                          "--seed", str(args.seed), "--seconds", str(args.seconds),
                          "--trace", "0"], cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{checkout}: run.py exited {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"{checkout}: correct={result['correct']} failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args()
    sides = [args.parent.resolve(), args.change.resolve()]
    if len(str(sides[0])) != len(str(sides[1])):
        sys.exit(f"checkout paths differ in length: {sides[0]} and {sides[1]}")
    if args.pairs < 2:
        sys.exit("--pairs must be at least 2")
    spec = json.loads((sides[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        for side in sides if i % 2 == 0 else sides[::-1]:
            runs[side].append(run(side, args))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    for name, direction in better.items():
        parent, change = ([r[name] for r in runs[side]] for side in sides)
        cells = []
        for values in (parent, change):
            q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
            cells.append(f"{q2:.4g} ({q1:.4g}-{q3:.4g})")
        won = sum(c < p if direction == "lower" else c > p for p, c in zip(parent, change))
        print(f"{name}: parent {cells[0]} -> change {cells[1]}; "
              f"change better in {won}/{args.pairs}")


if __name__ == "__main__":
    main()
