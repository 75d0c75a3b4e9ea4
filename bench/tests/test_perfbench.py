"""Tests of the benchmark itself: the seeded generator, the span arithmetic
and the failure accounting of the closed loop."""
import itertools
import json

import numpy as np
import pytest

import tracing
import worker
import workloads
from magreduce import numerics


def _first(workload, seed, n):
    return json.dumps(list(itertools.islice(workloads.requests(workload, seed), n)))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    n = 3 * len(workloads.CYCLES[workload])
    assert _first(workload, 7, n) == _first(workload, 7, n)
    assert _first(workload, 7, n) != _first(workload, 8, n)
    assert (json.dumps(workloads.run_params(workload, 7))
            == json.dumps(workloads.run_params(workload, 7)))


def test_generator_cycles_kinds_in_fixed_order():
    cycle = [kind for kind, _ in workloads.CYCLES["analytic_flows"]]
    reqs = list(itertools.islice(workloads.requests("analytic_flows", 3), 2 * len(cycle)))
    assert [r["kind"] for r in reqs] == cycle * 2
    assert [r["id"] for r in reqs] == list(range(2 * len(cycle)))


def _spans(rows):
    """rows: (name, parent, start, end, work)."""
    names = sorted({r[0] for r in rows})
    return ({"name": np.array([names.index(r[0]) for r in rows], dtype=np.int32),
             "parent": np.array([r[1] for r in rows], dtype=np.int32),
             "request": np.zeros(len(rows), dtype=np.int32),
             "start": np.array([r[2] for r in rows], dtype=float),
             "end": np.array([r[3] for r in rows], dtype=float),
             "work": np.array([r[4] for r in rows], dtype=np.int64)}, names)


def test_self_time_subtracts_covered_child_time():
    spans, _ = _spans([
        ("request", -1, 0.0, 10.0, 0),   # 0
        ("a", 0, 1.0, 4.0, 0),           # 1
        ("b", 1, 2.0, 3.0, 0),           # 2: grandchild of 0
        ("c", 0, 5.0, 9.0, 0),           # 3
        ("d", 0, 8.0, 11.0, 0),          # 4: overlaps c, ends past its parent
    ])
    own = tracing.self_times(spans["start"], spans["end"], spans["parent"])
    # root: 10 - |[1,4] u [5,10]| = 10 - 3 - 5
    np.testing.assert_allclose(own, [2.0, 2.0, 1.0, 4.0, 3.0])


def test_layer_metrics_count_nested_spans_once():
    rows = [("request", -1, 0.0, 10.0, 0),
            ("numerics.rkf45_integrate", 0, 0.0, 8.0, 2)]
    rows += [("numerics.rhs", 1, 0.5 * i, 0.5 * i + 0.25, 0) for i in range(12)]
    rows += [("numerics.fd_exterior_derivative", 0, 8.0, 9.0, 6),
             ("numerics.fd_jacobian", 14, 8.1, 8.9, 6)]
    spans, names = _spans(rows)
    out = tracing.layer_metrics(spans, names, n_requests=2)
    assert out["numerics.rhs_evals"] == 6.0            # 12 spans over 2 requests
    assert out["numerics.rhs_s"] == pytest.approx(1.5)
    assert out["numerics.stepper_self_s"] == pytest.approx(2.5)
    assert out["numerics.step_accept_ratio"] == pytest.approx(1.0)
    assert out["numerics.fd_calls"] == 1.0
    assert out["numerics.fd_fevals"] == 3.0            # the outer span's 6
    assert out["numerics.fd_s"] == pytest.approx(0.5)


def test_tracer_records_integrator_spans_and_restores():
    original = numerics.rk4_integrate
    tracer = tracing.Tracer()
    tracer.install({"numerics": numerics})
    try:
        with tracer.request(0):
            times, _ = numerics.integrate_ode(lambda t, y: -y, np.ones(1), 0.0, 0.05,
                                              numerics.StepperChoice(kind="rk4", h=0.01))
    finally:
        tracer.uninstall()
    assert numerics.rk4_integrate is original
    spans = tracer.spans()
    counts = {name: int((spans["name"] == i).sum()) for i, name in enumerate(tracer.names)}
    assert counts["numerics.rk4_step"] == 5
    assert counts["numerics.rhs"] == 20
    ode = tracer.names.index("numerics.integrate_ode")
    assert spans["work"][spans["name"] == ode].tolist() == [len(times) - 1]
    assert set(spans["request"].tolist()) == {0}


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct = worker.tail([float(i) for i in range(100)])
    assert (value, pct) == (89.0, 90.0)
    assert worker.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_irregular_request_counts_as_failed(tmp_path):
    ctx = workloads.setup("fd_supply", 0, tmp_path)
    try:
        req = next(r for r in workloads.requests("fd_supply", 0)
                   if r["kind"] == "fd_magnetic")
        good = workloads.attempt(req, ctx)
        singular = workloads.attempt(dict(req, g0=0.0, g1=0.0), ctx)
    finally:
        ctx.close()
    assert good.ok and good.steps > 0
    assert not singular.ok
    assert "RegularityError" in singular.problems[0]


def test_missed_tolerance_counts_as_failed(tmp_path):
    ctx = workloads.setup("analytic_flows", 0, tmp_path)
    try:
        req = next(r for r in workloads.requests("analytic_flows", 0)
                   if r["kind"] == "cli_beanie_full")
        # a step far too coarse for the energy bound
        req["config"]["stepper"] = {"kind": "rk4", "h": 0.5}
        req["config"]["t_end"] = 20.0
        res = workloads.attempt(req, ctx)
    finally:
        ctx.close()
    assert not res.ok
    assert any("energy_drift" in msg for msg in res.problems)


def test_timed_run_scales_times_by_neighbouring_probes(monkeypatch):
    """Each request's time is scaled by the mean of the probes on either
    side of it; throughput and step rate use the scaled times."""
    probes = iter([0.01, 0.01, 0.02] + [0.005] * 1000)
    monkeypatch.setattr(worker, "probe", lambda: next(probes))

    class Fake:
        CYCLES = {"w": (("k", 1.0),)}

        @staticmethod
        def requests(workload, seed):
            return ({"id": i} for i in itertools.count())

        @staticmethod
        def attempt(req, ctx):
            return workloads.Result(req["id"], "k", 0.2, 10, [])

    clock = itertools.count(0.0, 0.3)
    monkeypatch.setattr(worker.time, "perf_counter", lambda: next(clock))
    out = worker.timed_run(Fake, None, "w", 0, seconds=1.0)
    ref = worker.PROBE_REF_S
    # the warm-up request is not probed; then probes 0.01 | 0.01 | 0.02 | ...
    scaled = [0.2 * ref / 0.01, 0.2 * ref / 0.015, 0.2 * ref / 0.0125]
    assert out["measured"] == 3
    assert out["request_s_p50"] == pytest.approx(np.median(scaled))
    assert out["throughput_rps"] == pytest.approx(3 / sum(scaled))
    assert out["sim_steps_per_s"] == pytest.approx(30 / sum(scaled))
    assert out["wall"]["request_s_p50"] == pytest.approx(0.2)
