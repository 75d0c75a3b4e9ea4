"""Compare what two source trees output on the first requests of a benchmark
workload.

    python3 tools/compare_outputs.py SRC_A SRC_B --workload W --seed S [S ...] --requests N

W is one workload of BENCHMARK.json, or `all` for each of them in turn, and
each workload is compared at each seed S in turn.

SRC_A and SRC_B are checkouts of this repository.  For each tree a child
process (this script with --dump) imports that tree's `src/magreduce` and
its `bench/workloads.py`, which it only reads, builds the workload's set-up
and runs the first N requests of the seeded request stream with the
benchmark's own executors, then the benchmark's check of each.  Every
output is kept: each number, array and string that a request returned
(found by walking its dataclasses, dicts and sequences; a sequence of
like items is stacked), the bytes of every file it wrote (the CLI's
trajectory CSV and report JSON) and the problems its check found.

The comparison prints one line per request: "identical" when every output
is byte-equal, otherwise each differing output with its max |difference|
(numbers of one shape, a CSV file of the same shape) or what else differs
(shape, CSV rows or columns, time grid, text), with the max |difference|
of the last rows of two CSV files whose time grids differ but end at the
same t (two adaptive runs to one t_end); then, for each output of a
request kind that differs in value, the largest max |difference| over
all requests; then "agree" or "DIFFER" for the workload at that seed.  Exit
status: 0 when every output of every workload at every seed is
byte-equal and every check passed in both trees, 1 otherwise, 2 when a
tree cannot be run.
"""
from __future__ import annotations

import argparse
import dataclasses
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

FILE = ":file:"  # marks the key of a file a request wrote
PROBLEMS = ":problems"
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
WORKLOADS = tuple(w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"])


def leaves(obj) -> dict[str, np.ndarray]:
    """Every number, array and string inside `obj`, keyed by its path."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        items = [(f".{f.name}", getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        items = [(f".{k}", v) for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        parts = [leaves(v) for v in obj]
        stacked = _stack(parts)
        if stacked is not None:
            return stacked
        items = [(f"[{i}]", v) for i, v in enumerate(obj)]
    elif isinstance(obj, (bool, int, float, complex, np.number, np.bool_, np.ndarray)):
        return {"": np.asarray(obj)}
    else:
        return {"": np.asarray(str(obj))}
    out = {}
    for key, value in items:
        for sub, leaf in leaves(value).items():
            out[key + sub] = leaf
    return out


def _stack(parts: list[dict]) -> dict | None:
    """The leaves of a sequence of like items as one array per path, or
    None when the items differ in paths, shapes or kinds."""
    if len(parts) < 2 or any(p.keys() != parts[0].keys() for p in parts):
        return None
    out = {}
    for key in parts[0]:
        column = [p[key] for p in parts]
        if any(c.shape != column[0].shape or c.dtype.kind not in "biufc" for c in column):
            return None
        out["[*]" + key] = np.stack(column)
    return out


def dump(tree: Path, workload: str, seed: int, requests: int, path: Path) -> None:
    """Run the first `requests` requests in `tree` and save their outputs."""
    sys.path.insert(0, str(tree / "bench"))
    import workloads  # the tree's own benchmark module, imported, not changed

    saved: dict[str, np.ndarray] = {}
    with tempfile.TemporaryDirectory() as scratch:
        ctx = workloads.setup(workload, seed, Path(scratch))
        for req in itertools.islice(workloads.requests(workload, seed), requests):
            run, check = workloads.KINDS[req["kind"]]
            prefix = f"{req['id']:04d} {req['kind']}"
            try:
                out = run(req, ctx)
            except Exception as exc:  # noqa: BLE001 - a failure is an output too
                saved[prefix + ".error"] = np.asarray(f"{type(exc).__name__}: {exc}")
                saved[prefix + PROBLEMS] = np.asarray("request raised")
                continue
            for key, leaf in leaves(out).items():
                saved[prefix + key] = leaf
            for written in sorted(ctx.out_dir.iterdir()):
                saved[prefix + FILE + written.name] = np.frombuffer(
                    written.read_bytes(), dtype=np.uint8)
            _, problems = check(req, ctx, out)
            saved[prefix + PROBLEMS] = np.asarray("; ".join(problems))
            for written in ctx.out_dir.iterdir():
                written.unlink()
        ctx.close()
    np.savez(path, **saved)


def _csv(raw: np.ndarray) -> np.ndarray:
    return np.loadtxt(io.StringIO(raw.tobytes().decode()), delimiter=",", skiprows=1,
                      ndmin=2)


def difference(key: str, a: np.ndarray, b: np.ndarray) -> float | str | None:
    """None when `a` and `b` are byte-equal; else what differs: the max
    |difference| over the places where the values differ, or (a string) why
    there is none to take, for two CSV grids that end at one t with the max
    |difference| of their last rows."""
    if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
        return None
    if FILE in key and key.endswith(".csv"):
        a, b = _csv(a), _csv(b)
        shape = f"CSV shape {a.shape} vs {b.shape} (rows, columns)"
        if a.shape[1] != b.shape[1]:
            return shape
        n = min(len(a), len(b))
        shifted = np.flatnonzero(a[:n, 0] != b[:n, 0])
        if a.shape != b.shape or shifted.size:
            # values at different times: only rows at one t can be compared
            grid = shape if a.shape != b.shape else f"time grid differs from row {shifted[0]}"
            if a[-1, 0] != b[-1, 0]:
                return grid
            return f"{grid}; last row (t = {a[-1, 0]:.6g}): max |diff| = {_max(a[-1], b[-1]):.3e}"
    elif FILE in key or a.dtype.kind not in "biufc" or b.dtype.kind not in "biufc":
        return "differs"
    if a.shape != b.shape:
        return f"shape {a.shape} vs {b.shape}"
    if not np.array_equal(np.isnan(a), np.isnan(b)):
        return "NaN in different places"
    return _max(a, b)


def _max(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| over the places where the values differ: a shared inf
    is no difference (inf - inf is NaN), nor is a shared NaN."""
    a, b = a.astype(complex), b.astype(complex)
    keep = (a != b) & ~np.isnan(a)
    return float(np.abs(a[keep] - b[keep]).max(initial=0.0))


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Report lines, one per request, and whether every output is
    byte-equal and every check passed in both trees."""
    lines, ok = [], True
    requests = sorted({re.match(r"\d+ \w+", k).group() for k in {*a, *b}})
    for req in requests:
        keys = sorted(k for k in {*a, *b} if k.startswith(req))
        found = []
        for key in keys:
            if key.endswith(PROBLEMS):
                continue
            name = key[len(req):].lstrip(".")
            if key not in a or key not in b:
                found.append(f"{name}: only in {'B' if key not in a else 'A'}")
                continue
            d = difference(key, a[key], b[key])
            if d is not None:
                found.append(f"{name}: " + (d if isinstance(d, str) else
                                            f"max |diff| = {d:.3e}"))
        for tree, outputs in (("A", a), ("B", b)):
            problems = str(outputs.get(req + PROBLEMS, "missing"))
            if problems:
                found.append(f"check failed in {tree}: {problems}")
        ok = ok and not found
        lines.append(f"{req}: " + ("; ".join(found) or "identical"))
    return lines, ok


def largest(a: dict, b: dict) -> dict[str, float]:
    """The largest max |difference| of each output that differs in value,
    over all requests, keyed by request kind and output name."""
    worst: dict[str, float] = {}
    for key in sorted(a.keys() & b.keys()):
        d = None if key.endswith(PROBLEMS) else difference(key, a[key], b[key])
        if isinstance(d, float):
            name = key.split(" ", 1)[1]
            worst[name] = max(worst.get(name, 0.0), d)
    return worst


def outputs(trees: list[Path], workload: str, seed: int, requests: int
            ) -> list[dict] | None:
    """The saved outputs of each tree on one workload, each from its own
    child process, or None (after saying why) when a tree cannot be run."""
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, tree in enumerate(trees):
            tree = tree.resolve()
            if not (tree / "src" / "magreduce").is_dir() or not (tree / "bench").is_dir():
                print(f"{tree}: not a checkout with src/magreduce and bench/", file=sys.stderr)
                return None
            path = Path(tmp) / f"{i}.npz"
            env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
                       OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
            run = subprocess.run(
                [sys.executable, __file__, str(tree), str(tree), "--workload", workload,
                 "--seed", str(seed), "--requests", str(requests), "--dump", str(path)],
                env=env, capture_output=True, text=True)
            if run.returncode != 0:
                print(f"{tree}: the requests did not run:\n{run.stderr[-2000:]}", file=sys.stderr)
                return None
            with np.load(path) as data:
                found.append({k: data[k] for k in data.files})
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, type=Path, metavar="SRC")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump is not None:
        dump(args.trees[0].resolve(), args.workload, args.seed[0], args.requests, args.dump)
        return 0
    agree = True
    for workload, seed in itertools.product(
            WORKLOADS if args.workload == "all" else (args.workload,), args.seed):
        found = outputs(args.trees, workload, seed, args.requests)
        if found is None:
            return 2
        lines, ok = compare(*found)
        print(f"{workload}, seed {seed}, {args.requests} requests: "
              f"A = {args.trees[0]}, B = {args.trees[1]}")
        print("\n".join(lines))
        for name, worst in largest(*found).items():
            print(f"largest max |diff| of {name} over all requests: {worst:.3e}")
        print("agree" if ok else "DIFFER")
        agree = agree and ok
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
