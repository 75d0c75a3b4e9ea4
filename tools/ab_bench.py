"""Run the benchmark of two source trees in alternating pairs and summarise
each end-to-end metric.

    python3 tools/ab_bench.py PARENT CHANGE --workload W --seed S --pairs N --seconds T

PARENT and CHANGE are checkouts of this repository.  Each pair runs each
tree's own `bench/run.py --workload W --seed S --seconds T` once, in that
tree, one after the other: the parent first in odd pairs and the change
first in even pairs, so a drift of the machine's speed falls on both trees
alike.  Every run is printed with its end-to-end metrics and its failed
requests.  Then, for each end-to-end metric of BENCHMARK.json, one line
gives the median of each tree with its quartiles (numpy's linear
percentiles), the parent's interquartile range, in how many pairs the
change was better (strictly, in the metric's direction) and the relative
change of the median.  Exit status: 0 when every run gave a result, 2 when
a run exited with an error or printed no result.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
METRICS = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}


class RunError(Exception):
    pass


def command(tree: str, workload: str, seed: int, seconds: int) -> list[str]:
    """The benchmark run of one tree, started in that tree."""
    return [sys.executable, str(Path(tree).resolve() / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]


def run(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """The result line of one benchmark run of `tree`."""
    proc = subprocess.run(command(tree, workload, seed, seconds), cwd=tree,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{tree}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def summary(name: str, parent: list[float], change: list[float]) -> str:
    """One metric over the pairs: medians, quartiles, the parent's IQR and
    the wins of the change."""
    a, b = np.asarray(parent), np.asarray(change)
    (qa1, ma, qa3), (qb1, mb, qb3) = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
    wins = int(np.sum(b > a if METRICS[name] == "higher" else b < a))
    rel = f"{(mb - ma) / abs(ma):+.1%}" if ma else "n/a"
    return (f"{name:<16} {METRICS[name]:<6} A {ma:.6g} [{qa1:.6g}, {qa3:.6g}]  "
            f"B {mb:.6g} [{qb1:.6g}, {qb3:.6g}]  A IQR {qa3 - qa1:.3g}  "
            f"B better {wins}/{len(a)}  median {rel}")


def positive(text: str) -> int:
    """An integer of at least 1, as an argparse type."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=positive, default=10)
    parser.add_argument("--seconds", type=positive, default=25)
    args = parser.parse_args(argv)
    trees = {"A": args.parent, "B": args.change}
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds} s: "
          f"A = {args.parent}, B = {args.change}", flush=True)
    values: dict[str, dict[str, list[float]]] = {"A": {}, "B": {}}
    for pair in range(args.pairs):
        for side in ("AB" if pair % 2 == 0 else "BA"):
            try:
                res = run(trees[side], args.workload, args.seed, args.seconds)
            except RunError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            metrics = {name: res["metrics"][name]["value"] for name in METRICS}
            for name, value in metrics.items():
                values[side].setdefault(name, []).append(value)
            shown = " ".join(f"{name} {value:.6g}" for name, value in metrics.items())
            print(f"pair {pair + 1} {side}: {shown} failed {res['failed']}/{res['attempted']}",
                  flush=True)
    for name in METRICS:
        print(summary(name, values["A"][name], values["B"][name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
