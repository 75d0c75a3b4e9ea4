"""One benchmark workload in one process.

    python3 bench/worker.py --workload W --seed N --seconds S [--trace 1]
    python3 bench/worker.py --workload W --seed N --setup-only

`bench/run.py` starts this in a fresh process with single-threaded BLAS and
`src` on the import path; run it directly only for debugging.  The last
line of standard output is one JSON object.

- Untraced run: set-up, one warm-up cycle of request kinds, then a closed
  loop (one client, each request sent when the previous one returned) for
  `--seconds`; reports latency, throughput, step rate and peak memory.
  A reference probe runs between requests and after set-up, and every
  time is reported at the reference speed (see `probe`).
- Traced run: a fixed number of cycles with every public magreduce function
  wrapped by the span tracer, each request run once with recording off and
  once with it on; reports the per-layer metrics and the tracing overhead,
  and writes the spans to `.bench_out/trace-<workload>.npz`.
- `--setup-only`: import and set-up, timed, nothing else.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np  # the benchmark's own dependency: outside the set-up clock

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# The reference probe: a fixed loop of small-array numpy operations and
# float conversions, the same kind of work as the package's right-hand
# sides.  The speed of a shared 2-vCPU VM drifts by up to +-25% within
# minutes, for the probe and the program alike, so a run times the probe
# beside every request and scales the request's wall time by
# PROBE_REF_S / (probe time).  The probe is the benchmark's own code, so
# the scaled times move with the program and not with the machine.
PROBE_ITERS = 2000
PROBE_REF_S = 0.005  # the probe's typical wall time on a 2-vCPU x86 VM

# Cycles of request kinds replayed in the traced run; each takes a few
# seconds untraced on a 2-core x86 VM, so span counts repeat exactly for a
# given seed.
TRACE_CYCLES = {"analytic_flows": 3, "stage_verify": 20, "fd_supply": 6}


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile).  With ten samples or fewer, the maximum."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def probe() -> float:
    """Wall time of one run of the reference loop."""
    a = np.ones(3)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(PROBE_ITERS):
        a = a * 1.0000001 + 0.1
        acc += float(a @ a)
    return time.perf_counter() - t0


def probe_median(n: int = 5) -> float:
    return float(np.median([probe() for _ in range(n)]))


def _results_summary(results) -> dict:
    failures = [f"request {r.request_id} ({r.kind}): {'; '.join(r.problems)}"
                for r in results if not r.ok]
    return {"attempted": len(results), "failed": len(failures),
            "failures": failures[:10]}


def _per_kind(results, scaled) -> dict[str, float]:
    kinds: dict[str, list[float]] = {}
    for r, seconds in zip(results, scaled):
        kinds.setdefault(r.kind, []).append(seconds)
    return {k: float(np.median(v)) for k, v in kinds.items()}


def _warm_up(workloads, ctx, workload: str, seed: int):
    """The request stream after one untimed cycle of kinds, and that cycle's
    results (checked like any other request)."""
    gen = workloads.requests(workload, seed)
    return gen, [workloads.attempt(next(gen), ctx) for _ in workloads.CYCLES[workload]]


def timed_run(workloads, ctx, workload: str, seed: int, seconds: float) -> dict:
    gen, warm = _warm_up(workloads, ctx, workload, seed)
    results, scaled, probes = [], [], [probe()]
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while time.perf_counter() < deadline:
        res = workloads.attempt(next(gen), ctx)
        probes.append(probe())
        results.append(res)
        # the machine's speed during the request: the probes on either side
        scaled.append(res.seconds * PROBE_REF_S / (0.5 * (probes[-2] + probes[-1])))
    wall = time.perf_counter() - t0
    times = [r.seconds for r in results]
    tail_s, tail_pct = tail(scaled)
    out = _results_summary(warm + results)
    out.update({
        "measured": len(results),
        "warmup": len(warm),
        "request_s_p50": float(np.median(scaled)),
        "request_s_tail": tail_s,
        "tail_percentile": tail_pct,
        "throughput_rps": len(results) / sum(scaled),
        "sim_steps_per_s": sum(r.steps for r in results) / sum(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "per_kind_p50_s": _per_kind(results, scaled),
        "wall": {"request_s_p50": float(np.median(times)),
                 "request_s_tail": tail(times)[0],
                 "throughput_rps": len(results) / wall,
                 "probe_s_p50": float(np.median(probes)),
                 "probe_ref_s": PROBE_REF_S},
    })
    return out


def traced_run(workloads, ctx, workload: str, seed: int) -> dict:
    import tracing
    from magreduce import cli, compat, lie, maglag, models, numerics, routh, semidirect

    ctx.close()
    tracer = tracing.Tracer()
    tracer.install({"lie": lie, "numerics": numerics, "maglag": maglag,
                    "routh": routh, "compat": compat, "semidirect": semidirect,
                    "models": models, "cli": cli})
    plain, traced = [], []
    try:
        # rebuilt under the wrappers, which must exist before systems do
        ctx = workloads.setup(workload, seed, OUT)
        with tracer.unrecorded():
            gen, warm = _warm_up(workloads, ctx, workload, seed)
        reqs = [next(gen) for _ in range(TRACE_CYCLES[workload]
                                         * len(workloads.CYCLES[workload]))]
        # Untraced and traced passes alternate request by request, so a drift
        # in machine speed cancels out of the overhead ratio.  The untraced
        # pass runs with recording off: the wrappers pass calls straight on.
        for r in reqs:
            with tracer.unrecorded():
                plain.append(workloads.attempt(r, ctx))
            traced.append(workloads.attempt(r, ctx, span=tracer.request,
                                            unrecorded=tracer.unrecorded))
    finally:
        tracer.uninstall()
        ctx.close()
    trace_path = OUT / f"trace-{workload}.npz"
    tracer.save(trace_path)
    metrics = tracing.layer_metrics(tracer.spans(), tracer.names, len(reqs))
    metrics["trace_overhead_ratio"] = (sum(r.seconds for r in traced)
                                       / sum(r.seconds for r in plain))
    out = _results_summary(warm + plain + traced)
    out.update({"traced_requests": len(reqs), "spans": len(tracer.start),
                "trace_file": str(trace_path.relative_to(ROOT)),
                "layers": metrics})
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    probe()  # warm the probe's own code paths
    before = probe_median()
    t0 = time.perf_counter()
    import workloads  # imports magreduce
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    ctx = workloads.setup(args.workload, args.seed, OUT)
    setup_s = time.perf_counter() - t0
    setup_probe = 0.5 * (before + probe_median())

    import magreduce
    src = (ROOT / "src").resolve()
    if src not in Path(magreduce.__file__).resolve().parents:
        ctx.close()
        print(f"error: magreduce was imported from {magreduce.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    try:
        if args.setup_only:
            result: dict = {}
        elif args.trace:
            result = traced_run(workloads, ctx, args.workload, args.seed)
        else:
            result = timed_run(workloads, ctx, args.workload, args.seed, args.seconds)
    finally:
        ctx.close()
    result["setup_s"] = setup_s * PROBE_REF_S / setup_probe
    result["setup_wall_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
