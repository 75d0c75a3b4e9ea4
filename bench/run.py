"""The magreduce benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Workloads (see BENCHMARK.json for why each exists): analytic_flows,
stage_verify, fd_supply; `all` runs each of them untraced and then traced.
Every workload is a closed loop with one client: callers of
`cli.run_config` and of the library wait for each result.

The run happens in fresh worker processes (bench/worker.py) with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1, so set-up time and peak
memory belong to this workload alone.  With --trace 0 this prints the
end-to-end metrics; set-up is repeated in SETUP_PROBES extra processes and
its median reported.  End-to-end times are wall times scaled to a fixed
reference speed of the machine, which a reference probe measures beside
every request and every set-up (worker.probe); the unscaled wall times are
printed too.  With --trace 1 it prints the per-layer metrics of a
separate traced run, which replays a fixed number of request cycles and
ignores --seconds.  Each run ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

The program is imported from `src/` of the checkout this file lives in;
without it the benchmark exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
# workloads.WORKLOADS; importing that module here would import the package
WORKLOADS = ("analytic_flows", "stage_verify", "fd_supply")
SETUP_PROBES = 8
# Every run must end within 180 s; leave room to report.
BUDGET_S = 170.0


class WorkerError(RuntimeError):
    pass


def declared(section: str, values: dict) -> dict:
    """`values` as {name: {value, unit}} with the units BENCHMARK.json
    declares; the names must be exactly the declared ones."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(values):
        raise WorkerError(f"{section} metrics {sorted(set(values) ^ set(units))} "
                          "are not both measured and declared in BENCHMARK.json")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {' '.join(args)} exceeded the time budget") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with status {proc.returncode}:\n"
                          + proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerError(f"worker printed no result:\n{proc.stdout[-2000:]}") from exc


def _print_failures(res: dict) -> None:
    for line in res["failures"]:
        print(f"  FAILED {line}")


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    res = run_worker(base + ["--seconds", str(seconds), "--trace", "0"], deadline)
    probes = [res] + [run_worker(base + ["--setup-only"], deadline)
                      for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes]
    setup_walls = [p["setup_wall_s"] for p in probes]
    attempted, failed = res["attempted"], res["failed"]
    metrics = {
        "setup_s": statistics.median(setups),
        "request_s_p50": res["request_s_p50"],
        "request_s_tail": res["request_s_tail"],
        "throughput_rps": res["throughput_rps"],
        "sim_steps_per_s": res["sim_steps_per_s"],
        "success_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    out = declared("end_to_end", metrics)
    print(f"workload {workload}, seed {seed}: closed loop, 1 client, {seconds} s")
    wall = res["wall"]
    print(f"  times at reference speed: wall time x {wall['probe_ref_s']} s / probe time; "
          f"median probe {wall['probe_s_p50']:.5f} s in this run")
    notes = {
        "setup_s": (f"median of {len(setups)} set-ups, each in a fresh process "
                    f"(wall {statistics.median(setup_walls):.4f} s)"),
        "request_s_p50": (f"median of {res['measured']} timed requests "
                          f"(wall {wall['request_s_p50']:.4f} s)"),
        "request_s_tail": (f"p{res['tail_percentile']:.1f}, the highest percentile "
                           f"with >= 10 of {res['measured']} samples beyond it "
                           f"(wall {wall['request_s_tail']:.4f} s)"),
        "throughput_rps": ("requests completed per second of request time "
                           f"(wall, loop incl. checks: {wall['throughput_rps']:.3f})"),
        "sim_steps_per_s": "accepted integrator steps per second of request time",
        "success_ratio": (f"fail_ratio = {failed}/{attempted} = "
                          f"{failed / attempted:.4f} (base: {attempted} attempted, "
                          f"{res['warmup']} of them warm-up)"),
        "peak_rss_mb": "peak resident memory of the worker process",
    }
    for name, m in out.items():
        print(f"  {name:<16} {m['value']:12.6g} {m['unit']:<6} {notes[name]}")
    for kind, p50 in res["per_kind_p50_s"].items():
        print(f"    p50 {kind:<26} {p50:.4f} s")
    _print_failures(res)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": out}


def per_layer(workload: str, seed: int, deadline: float) -> dict:
    res = run_worker(["--workload", workload, "--seed", str(seed), "--trace", "1"],
                     deadline)
    out = declared("per_layer", res["layers"])
    print(f"workload {workload}, seed {seed}: traced run of {res['traced_requests']} "
          f"requests, {res['spans']} spans written to {res['trace_file']}")
    for name, m in out.items():
        print(f"  {name:<32} {m['value']:12.6g} {m['unit']}")
    _print_failures(res)
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": out}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "magreduce" / "__init__.py").is_file():
        print(f"error: no magreduce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    for workload, trace in runs:
        deadline = time.monotonic() + BUDGET_S
        try:
            if trace:
                result = per_layer(workload, args.seed, deadline)
            else:
                result = end_to_end(workload, args.seed, args.seconds, deadline)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
