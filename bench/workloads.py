"""Seeded request generator and request executors for the magreduce benchmark.

A workload is an endless, seeded sequence of requests.  Each request is a
plain JSON-able dict (`id`, `kind` and the kind's inputs), so the same seed
gives byte-identical request lists and the program only ever sees the
generated configs and states.  Requests cycle through a fixed order of
kinds; only their inputs are drawn from the seed, which keeps the mix of
kinds, and so the shape of the latency distribution, the same for every
seed.

The horizons below are sized so that most kinds cost roughly the same on
the seed code (about a quarter of a second on a 2-core x86 VM).  The two
rkf45 kinds are lighter on purpose: their step counts depend on the drawn
inputs (accepted steps per unit time of the reduced rotor vary fifteenfold
across draws), so at full weight their few most expensive draws would set
the run's tail latency and make it a property of the seed.  The rkf45 full
rotor is also held near t = 10 by its chart.  A latency
distribution made of equally heavy kinds has no gap for the median to jump
across when the request count changes by one.  On top of that, request
sizes step through a fixed ladder (SIZE_LADDER, the same for every seed),
so that the percentiles of a run sit on a smooth spread of request costs:
with every request the same size, a run's median and tail jump with the
machine's speed from one request to the next instead of averaging it.

Each request is timed, then checked with the clock stopped: the check
counts the accepted integrator steps of the trajectories it produced and
lists every missed tolerance.  Checks use this module's own copy of the
tolerances, so loosening a default in the program cannot turn a failing
request into a passing one.
"""
from __future__ import annotations

import contextlib
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from magreduce import cli, compat, lie, maglag, models, routh, semidirect
from magreduce.lie import CoVector
from magreduce.maglag import MagLagState, MagneticSystem
from magreduce.numerics import StepperChoice

# The seed's cli.DEFAULT_THRESHOLDS.  CLI reports must meet these bounds.
CLI_THRESHOLDS = {
    ("rotor", "full"): {"momentum_drift": 1e-7},
    ("rotor", "reduce-full-group"): {"energy_drift": 1e-8,
                                     "casimir_drift": 1e-9},
    ("beanie", "full"): {"nu_drift": 1e-8, "b_norm_drift": 1e-8,
                         "energy_drift": 1e-8},
    ("beanie", "reduce-full-group"): {"energy_drift": 1e-8,
                                      "nu_drift": 1e-9,
                                      "casimir_drift": 1e-9},
    ("beanie", "reduce-abelian"): {"energy_drift": 1e-8},
    ("beanie", "verify-equivalence"): {"routhian_identity_residual": 1e-8,
                                       "form_identity_residual": 1e-6,
                                       "trajectory_deviation": 1e-5,
                                       "casimir_drift": 1e-9,
                                       "nu_drift": 1e-9},
    ("beanie", "verify-lemma"): {"lemma_residual": 1e-6},
}

# Library tolerances, as documented in the package README.  The mapped
# trajectory bound (1e-5) is the verify-equivalence threshold above.
ENERGY_TOL = 1e-8
CASIMIR_TOL = 1e-9
PULLBACK_TOL = 1e-6
TWIN_TOL = 1e-6
# Momentum-map drift of a reconstructed group motion (midpoint update).
RECONSTRUCT_TOL = 1e-6

RK4_FINE = {"kind": "rk4", "h": 1e-3}
RK4_COARSE = {"kind": "rk4", "h": 1e-2}
RKF45_TIGHT = {"kind": "rkf45", "h": 1e-3, "atol": 1e-12, "rtol": 1e-12}

# Kind cycles and per-kind horizons (t_end).
CYCLES = {
    "analytic_flows": (
        ("cli_rotor_full_rk4", 0.4),
        ("cli_rotor_full_rkf45", 8.5),
        ("cli_rotor_reduced_rk4", 1.05),
        ("cli_rotor_reduced_rkf45", 45.0),
        ("cli_beanie_full", 3.4),
        ("cli_beanie_reduced", 1.0),
        ("cli_beanie_abelian", 1.2),
        ("lib_rotor_reconstruct", 0.75),
    ),
    "stage_verify": (
        ("stage_chain", 1.0),
    ),
    "fd_supply": (
        ("fd_rotor_twin", 0.16),
        ("fd_quartic", 0.8),
        ("fd_magnetic", 2.2),
        ("fd_pullback", 0.27),
    ),
}
WORKLOADS = tuple(CYCLES)

# Horizons scale by 0.8 ... 1.2 in 25 steps of 1/60, and a stage_chain
# request hands 2 ... 42 samples to compat.verify_symplectomorphism.  25
# steps are coprime to every cycle length, so each kind meets every size,
# and they are fine enough that the upper percentiles of a run fall on a
# near-continuous spread of sizes, not on the edge of one coarse step.
SIZE_LADDER = tuple(0.8 + 0.4 * k / 24 for k in range(25))


# ---------------------------------------------------------------------------
# generator


def _u(rng: np.random.Generator, lo: float, hi: float, size=None):
    out = rng.uniform(lo, hi, size)
    return float(out) if size is None else [float(v) for v in out]


def _rotor_momentum(rng, c_max: float = 0.7) -> list[float]:
    """Body momentum of norm in [0.6, 1.2] with |m3|/|m| <= c_max.

    Along the full rotor's motion the Euler chart's |cos beta| equals
    |m3|/|m|, which drifts as the body momentum precesses; the chart
    refuses |cos beta| >= 0.99.  c_max = 0.7 is safe over short horizons,
    and c_max = 0.5 kept the drift below 0.94 over t = 10 in 1500 seeded
    draws."""
    norm = _u(rng, 0.6, 1.2)
    c = _u(rng, -c_max, c_max)
    phi = _u(rng, -math.pi, math.pi)
    s = math.sqrt(1.0 - c * c)
    return [norm * s * math.cos(phi), norm * s * math.sin(phi), norm * c]


def _rotor_params(rng) -> dict:
    return {"inertia_body": _u(rng, 1.5, 3.5, 3),
            "inertia_rotor": [0.0, 0.0, _u(rng, 0.5, 1.0)]}


def _beanie_params(rng) -> dict:
    return {"m": _u(rng, 0.7, 1.5), "i1": _u(rng, 1.0, 3.0),
            "i2": _u(rng, 0.5, 1.5), "potential_strength": _u(rng, 0.5, 1.5)}


def _nonzero_a(rng) -> list[float]:
    r = _u(rng, 0.5, 1.5)
    ang = _u(rng, -math.pi, math.pi)
    return [r * math.cos(ang), r * math.sin(ang)]


def run_params(workload: str, seed: int) -> dict:
    """System parameters shared by every request of one run; the systems
    built from them are the run's set-up."""
    rng = np.random.default_rng([seed, 0])
    return {"rotor": _rotor_params(rng), "beanie": _beanie_params(rng),
            "a": _nonzero_a(rng),
            "quartic": {"c4": _u(rng, 0.03, 0.07), "cx": _u(rng, 0.05, 0.15)}}


def _cli_request(model: str, mode: str, t_end: float, stepper: dict,
                 params: dict, momentum: dict, initial: list | None) -> dict:
    cfg = {"model": model, "mode": mode, "params": params,
           "momentum": momentum, "stepper": dict(stepper), "t_end": t_end}
    if initial is not None:
        cfg["initial"] = initial
    return {"config": cfg}


def _make(kind: str, t_end: float, size: int, rng: np.random.Generator) -> dict:
    if kind == "cli_rotor_full_rk4":
        return _cli_request("rotor", "full", t_end, RK4_FINE, _rotor_params(rng),
                            {"mu": _rotor_momentum(rng)}, None)
    if kind == "cli_rotor_full_rkf45":
        return _cli_request("rotor", "full", t_end, RKF45_TIGHT, _rotor_params(rng),
                            {"mu": _rotor_momentum(rng, c_max=0.5)}, None)
    if kind in ("cli_rotor_reduced_rk4", "cli_rotor_reduced_rkf45"):
        stepper = RK4_FINE if kind.endswith("rk4") else RKF45_TIGHT
        params = _rotor_params(rng)
        initial = [_u(rng, -1.0, 1.0), _u(rng, -0.5, 0.5)] + _rotor_momentum(rng)
        return _cli_request("rotor", "reduce-full-group", t_end, stepper, params,
                            {}, initial)
    if kind == "cli_beanie_full":
        initial = (_u(rng, -0.6, 0.6, 4) + _u(rng, -0.5, 0.5, 2)
                   + _u(rng, -1.0, 1.0, 2))
        return _cli_request("beanie", "full", t_end, RK4_FINE, _beanie_params(rng),
                            {}, initial)
    if kind == "cli_beanie_reduced":
        initial = ([_u(rng, -0.6, 0.6), _u(rng, -0.5, 0.5), _u(rng, -1.5, 1.5)]
                   + _nonzero_a(rng))
        return _cli_request("beanie", "reduce-full-group", t_end, RK4_FINE,
                            _beanie_params(rng), {}, initial)
    if kind == "cli_beanie_abelian":
        initial = _u(rng, -0.6, 0.6, 2) + _u(rng, -0.5, 0.5, 2)
        return _cli_request("beanie", "reduce-abelian", t_end, RK4_FINE,
                            _beanie_params(rng), {"a": _nonzero_a(rng)}, initial)
    if kind in ("lib_rotor_reconstruct", "fd_rotor_twin"):
        return {"t_end": t_end, "x0": _u(rng, -1.0, 1.0),
                "xdot0": _u(rng, -0.5, 0.5), "m0": _rotor_momentum(rng)}
    if kind == "stage_chain":
        n = 2 + 40 * size // 24
        samples = np.column_stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                                   rng.uniform(-math.pi, math.pi, n),
                                   rng.uniform(-1.5, 1.5, n)])
        return {"t_end": t_end, "mu": _u(rng, -1.5, 1.5), "a": _nonzero_a(rng),
                "config_seed": int(rng.integers(0, 2 ** 31)),
                "samples": [[float(v) for v in row] for row in samples],
                "tangent_seed": int(rng.integers(0, 2 ** 31))}
    if kind == "fd_quartic":
        return {"t_end": t_end, "x0": _u(rng, -0.5, 0.5),
                "xdot0": _u(rng, -0.5, 0.5), "nu0": _u(rng, -0.8, 0.8, 2)}
    if kind == "fd_magnetic":
        return {"t_end": t_end, "g0": _u(rng, 1.2, 1.8), "g1": _u(rng, 0.2, 0.6),
                "q0": _u(rng, -0.5, 0.5), "v0": _u(rng, -0.8, 0.8),
                "p0": _u(rng, -0.5, 0.5, 2)}
    if kind == "fd_pullback":
        return {"t_end": t_end, "z1": [_u(rng, -0.5, 0.5), _u(rng, -0.5, 0.5),
                                       _u(rng, -math.pi, math.pi),
                                       _u(rng, -1.2, 1.2)]}
    raise ValueError(f"unknown request kind {kind!r}")


def requests(workload: str, seed: int) -> Iterator[dict]:
    """Endless request sequence: the workload's kinds in cycle order, inputs
    drawn from one seeded stream."""
    if workload not in CYCLES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, 1])
    i = 0
    while True:
        for kind, t_end in CYCLES[workload]:
            size = i % len(SIZE_LADDER)
            req = {"id": i, "kind": kind}
            req.update(_make(kind, round(t_end * SIZE_LADDER[size], 6), size, rng))
            yield req
            i += 1


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Context:
    """Systems built once per run, plus a scratch directory for CLI output."""
    params: dict
    out_dir: Path
    systems: dict = field(default_factory=dict)

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def _beanie_lib_params(p: dict) -> models.BeanieParams:
    c = p["potential_strength"]
    return models.BeanieParams(
        m=p["m"], i1=p["i1"], i2=p["i2"],
        potential=lambda phi: c * (1.0 - math.cos(float(np.atleast_1d(phi)[0]))),
        dpotential=lambda phi: np.array([c * math.sin(float(np.atleast_1d(phi)[0]))]))


def quartic_lagrangian(c4: float, cx: float) -> routh.InvariantLagrangian:
    """Non-mechanical Lagrangian, quartic in the group velocity, with only
    the group-velocity gradient supplied: momentum inversion takes the
    Newton path and every other derivative is differenced."""
    def ell(x, xd, xi):
        return (0.5 * float(xd @ xd) + 0.5 * float(xi @ xi)
                + c4 * float(xi @ xi) ** 2 + cx * x[0] * xi[0])

    def dell_dxi(x, xd, xi):
        return xi + 4.0 * c4 * float(xi @ xi) * xi + np.array([cx * x[0], 0.0])

    return routh.InvariantLagrangian(sdim=1, group=lie.translations(2), ell=ell,
                                     dell_dxi=dell_dxi)


def magnetic_fd_system(g0: float, g1: float) -> MagneticSystem:
    """Values-only magnetic system on one base and two fibre coordinates.

    The 2-form is d(p0 g(q) dp1) with g(q) = g0 + g1 cos q, closed by
    construction and state dependent; every derivative of the Lagrangian is
    differenced.  g0 = g1 = 0 makes the fibre block singular."""
    def bform(q, p):
        g = g0 + g1 * math.cos(q[0])
        dg = -g1 * math.sin(q[0])
        return (np.zeros((1, 1)), np.array([[0.0, p[0] * dg]]),
                np.array([[0.0, g], [-g, 0.0]]))

    return MagneticSystem(
        n=1, k=2,
        lagrangian=lambda q, v, p: (0.5 * v[0] ** 2 - 0.5 * q[0] ** 2
                                    - 0.25 * (p[0] ** 2 + p[1] ** 2)),
        bform=bform, name="values_only_magnetic")


def pulled_back_system(sd, a: CoVector):
    """The stage-equivalence transformation data for (sd, a) and the system
    it pulls back: (r2 system, pair, beta, psi, pulled-back system)."""
    s, d0 = sd.sdim, sd.d0
    r2 = semidirect.abelian_reduced_system(sd, a)
    pair = compat.TransformationPair(n1=s, vf=d0, k2=0)

    def beta(p1):  # p1 = (x, theta, nu)
        return np.array(p1[s + d0:])

    def psi(z1):
        return compat.solve_psi(r2, pair, beta, z1)

    return r2, pair, beta, psi, compat.build_system(r2, pair, beta)


def setup(workload: str, seed: int, scratch_root: Path) -> Context:
    """Build the run's shared systems (metric caches included)."""
    params = run_params(workload, seed)
    scratch_root.mkdir(parents=True, exist_ok=True)
    ctx = Context(params, Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root)))
    rotor = models.RotorParams(**params["rotor"])
    ctx.systems["rotor_lag"] = models.rotor_lagrangian(rotor)
    if workload == "stage_verify":
        ctx.systems["beanie_sd"] = models.beanie_gv_lagrangian(
            _beanie_lib_params(params["beanie"]))
    elif workload == "fd_supply":
        lag = ctx.systems["rotor_lag"]
        ctx.systems["rotor_twin"] = routh.InvariantLagrangian(
            sdim=1, group=lie.so3(), ell=lag.ell)
        ctx.systems["quartic"] = quartic_lagrangian(**params["quartic"])
        sd = models.beanie_gv_lagrangian(_beanie_lib_params(params["beanie"]))
        ctx.systems["pullback"] = pulled_back_system(sd, CoVector(params["a"]))[-1]
    return ctx


# ---------------------------------------------------------------------------
# executors
#
# Each kind has a `run` step, which is the timed request, and a `check`
# step, which runs after the clock stops and returns (steps, problems).


def _bound(problems: list[str], name: str, value: float, tol: float) -> None:
    if not (value <= tol):  # NaN fails too
        problems.append(f"{name} = {value:.3e} exceeds {tol:g}")


def _steps(traj) -> int:
    return len(traj.times) - 1


def run_cli(req: dict, ctx: Context):
    cfg = cli.validate_config(req["config"])
    return cfg, cli.run_config(cfg, ctx.out_dir)


def check_cli(req: dict, ctx: Context, out) -> tuple[int, list[str]]:
    cfg, (code, report) = out
    problems: list[str] = []
    if code != 0 or not report.get("passed"):
        problems.append(f"report not passed (exit {code})")
    for name, bound in CLI_THRESHOLDS[(cfg["model"], cfg["mode"])].items():
        if name not in report["metrics"]:
            problems.append(f"report lacks {name}")
        else:
            _bound(problems, name, float(report["metrics"][name]), bound)
    if cfg["mode"] == "verify-lemma":
        return 0, problems
    if cfg["mode"] == "verify-equivalence":
        # the orbit flow and the V-reduced flow, both over t_end
        return 2 * math.ceil(cfg["t_end"] / cfg["stepper"]["h"] - 1e-12), problems
    with open(ctx.out_dir / "trajectory.csv") as fh:
        steps = sum(1 for _ in fh) - 2  # header and initial state
    if steps < 1:
        problems.append("trajectory CSV holds no steps")
    return steps, problems


def run_rotor_reconstruct(req: dict, ctx: Context):
    lag = ctx.systems["rotor_lag"]
    m0 = CoVector(req["m0"])
    sys_ = routh.ReducedRouthSystem(lag, mu=m0)
    traj = routh.integrate_reduced(
        sys_, routh.ReducedState([req["x0"]], [req["xdot0"]], m0), req["t_end"],
        StepperChoice(**RK4_FINE))
    return traj, routh.reconstruct(sys_, traj, lie.identity(lag.group))


def check_rotor_reconstruct(req: dict, ctx: Context, out) -> tuple[int, list[str]]:
    traj, gs = out
    spec = ctx.systems["rotor_lag"].group
    m0 = np.asarray(req["m0"])
    problems: list[str] = []
    _bound(problems, "energy_drift", traj.report.entries["energy_drift"], ENERGY_TOL)
    _bound(problems, "casimir_drift",
           traj.report.entries["casimir_momentum_norm_drift"], CASIMIR_TOL)
    if len(gs) != len(traj.times):
        problems.append("reconstruction length differs from the trajectory")
        return _steps(traj), problems
    worst = 0.0
    for i in list(range(0, len(gs), 50)) + [len(gs) - 1]:
        j = lie.coadjoint(spec, lie.inverse(spec, gs[i]), CoVector(traj.states[i, 2:]))
        worst = max(worst, float(np.max(np.abs(j.coords - m0))))
    _bound(problems, "momentum_map_drift", worst, RECONSTRUCT_TOL)
    return _steps(traj), problems


def run_stage_chain(req: dict, ctx: Context):
    reports = []
    for mode in ("verify-equivalence", "verify-lemma"):
        cfg = cli.validate_config({
            "model": "beanie", "mode": mode, "params": ctx.params["beanie"],
            "momentum": {"mu": req["mu"], "a": req["a"]},
            "stepper": dict(RK4_COARSE), "t_end": req["t_end"],
            "seed": req["config_seed"]})
        reports.append((cfg, cli.run_config(cfg, ctx.out_dir)))
    r2, pair, beta, psi, sys1 = pulled_back_system(ctx.systems["beanie_sd"],
                                                   CoVector(req["a"]))
    rep = compat.verify_symplectomorphism(
        sys1, r2, psi, np.array(req["samples"]),
        np.random.default_rng(req["tangent_seed"]), tangent_pairs=10,
        beta=beta, pair=pair)
    return reports, rep


def check_stage_chain(req: dict, ctx: Context, out) -> tuple[int, list[str]]:
    reports, rep = out
    steps = 0
    problems: list[str] = []
    for cli_out in reports:
        n, found = check_cli(req, ctx, cli_out)
        steps += n
        problems += [f"{cli_out[0]['mode']}: {msg}" for msg in found]
    if rep["samples"] != len(req["samples"]):
        problems.append("symplectomorphism check skipped samples")
    _bound(problems, "symplectic_pullback", rep["max_residual_form"], PULLBACK_TOL)
    _bound(problems, "energy_pullback", rep["max_residual_energy"], ENERGY_TOL)
    return steps, problems


def run_rotor_twin(req: dict, ctx: Context):
    m0 = CoVector(req["m0"])
    s0 = routh.ReducedState([req["x0"]], [req["xdot0"]], m0)
    stepper = StepperChoice(**RK4_COARSE)
    return tuple(
        routh.integrate_reduced(routh.ReducedRouthSystem(ctx.systems[name], m0),
                                s0, req["t_end"], stepper)
        for name in ("rotor_lag", "rotor_twin"))


def check_rotor_twin(req: dict, ctx: Context, out) -> tuple[int, list[str]]:
    ref, twin = out
    problems: list[str] = []
    if twin.states.shape != ref.states.shape:
        problems.append("twin and analytic trajectories differ in length")
    else:
        _bound(problems, "twin_deviation",
               float(np.max(np.abs(twin.states - ref.states))), TWIN_TOL)
    _bound(problems, "energy_drift", twin.report.entries["energy_drift"], ENERGY_TOL)
    _bound(problems, "casimir_drift",
           twin.report.entries["casimir_momentum_norm_drift"], CASIMIR_TOL)
    return _steps(ref) + _steps(twin), problems


def run_quartic(req: dict, ctx: Context):
    nu0 = CoVector(req["nu0"])
    return routh.integrate_reduced(
        routh.ReducedRouthSystem(ctx.systems["quartic"], mu=nu0),
        routh.ReducedState([req["x0"]], [req["xdot0"]], nu0), req["t_end"],
        StepperChoice(**RK4_COARSE))


def run_magnetic(req: dict, ctx: Context):
    return maglag.integrate(magnetic_fd_system(req["g0"], req["g1"]),
                            MagLagState([req["q0"]], [req["v0"]], req["p0"]),
                            req["t_end"], StepperChoice(**RK4_COARSE))


def run_pullback(req: dict, ctx: Context):
    sys1 = ctx.systems["pullback"]
    return maglag.integrate(sys1, maglag.unpack(sys1, np.array(req["z1"])),
                            req["t_end"], StepperChoice(**RK4_COARSE))


def check_energy(req: dict, ctx: Context, traj) -> tuple[int, list[str]]:
    problems: list[str] = []
    _bound(problems, "energy_drift", traj.report.entries["energy_drift"], ENERGY_TOL)
    return _steps(traj), problems


KINDS: dict[str, tuple[Callable, Callable]] = {
    "cli_rotor_full_rk4": (run_cli, check_cli),
    "cli_rotor_full_rkf45": (run_cli, check_cli),
    "cli_rotor_reduced_rk4": (run_cli, check_cli),
    "cli_rotor_reduced_rkf45": (run_cli, check_cli),
    "cli_beanie_full": (run_cli, check_cli),
    "cli_beanie_reduced": (run_cli, check_cli),
    "cli_beanie_abelian": (run_cli, check_cli),
    "lib_rotor_reconstruct": (run_rotor_reconstruct, check_rotor_reconstruct),
    "stage_chain": (run_stage_chain, check_stage_chain),
    "fd_rotor_twin": (run_rotor_twin, check_rotor_twin),
    "fd_quartic": (run_quartic, check_energy),
    "fd_magnetic": (run_magnetic, check_energy),
    "fd_pullback": (run_pullback, check_energy),
}


@dataclass
class Result:
    request_id: int
    kind: str
    seconds: float
    steps: int
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def attempt(req: dict, ctx: Context, span=contextlib.nullcontext,
            unrecorded=contextlib.nullcontext) -> Result:
    """Time one request, then check its output with the clock stopped.

    `span(request_id)` encloses the timed step and `unrecorded()` the check
    (the traced run passes its tracer's hooks).  An exception in either step
    makes a failed request, never a crashed run."""
    run, check = KINDS[req["kind"]]
    t0 = time.perf_counter()
    try:
        with span(req["id"]):
            out = run(req, ctx)
    except Exception as exc:  # noqa: BLE001 - the closed loop keeps serving
        return Result(req["id"], req["kind"], time.perf_counter() - t0, 0,
                      [f"{type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - t0
    try:
        with unrecorded():
            steps, problems = check(req, ctx, out)
    except Exception as exc:  # noqa: BLE001
        steps, problems = 0, [f"check raised {type(exc).__name__}: {exc}"]
    return Result(req["id"], req["kind"], seconds, steps, problems)
