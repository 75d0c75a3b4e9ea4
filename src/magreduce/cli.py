"""Configuration-driven command line: run simulations, projections and
verification suites, emitting trajectory CSV and report JSON.

Usage:
    magreduce run <config.json> [--out-dir D] [--seed N]
    magreduce verify <config.json> [--out-dir D] [--seed N]
    magreduce list-models

Exit status: 0 when every configured threshold passes, 1 on a numerical
failure, 2 on a configuration error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, maglag, models, routh, semidirect
from .lie import CoVector
from .maglag import MagLagState
from .numerics import (NewtonConvergenceError, NonFiniteStateError,
                       RegularityError, StepSizeError, StepperChoice)


class ConfigError(ValueError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _check_keys(block: dict, name: str, allowed: tuple) -> None:
    unknown = sorted(set(block) - set(allowed))
    _require(not unknown, f"unknown {name} keys {unknown} (choose from {sorted(allowed)})")


def _check_numbers(value, key: str = "") -> None:
    """Booleans and non-finite numbers are config errors wherever they
    appear; the message names the key."""
    if isinstance(value, dict):
        for k, v in value.items():
            _check_numbers(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _check_numbers(v, f"{key}[{i}]")
    else:
        _require(not isinstance(value, bool), f"{key} must be a number, not a boolean")
        _require(not isinstance(value, float) or math.isfinite(value),
                 f"{key} must be finite, got {value}")


def _vector(value, size: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value))
    _require(arr.shape == (size,) and arr.dtype.kind in "iuf",
             f"{name} must hold {size} number(s)")
    return arr.astype(float)


def _rotor_inputs(params: dict, momentum: dict):
    _check_keys(params, "params", ("inertia_body", "inertia_rotor"))
    _check_keys(momentum, "momentum", ("mu",))
    mu = _vector(momentum.get("mu", [0.8, 0.2, 0.3]), 3, "momentum.mu")
    return models.RotorParams(**params), (CoVector(mu),)


def _beanie_inputs(params: dict, momentum: dict):
    _check_keys(params, "params", ("m", "i1", "i2", "potential_strength"))
    _check_keys(momentum, "momentum", ("mu", "a"))
    kwargs = {k: v for k, v in params.items() if k != "potential_strength"}
    if "potential_strength" in params:
        kwargs["potential"], kwargs["dpotential"] = models.default_potential(
            _vector(params["potential_strength"], 1, "params.potential_strength")[0])
    mu = _vector(momentum.get("mu", 1.0), 1, "momentum.mu")
    a = _vector(momentum.get("a", [1.0, 0.0]), 2, "momentum.a")
    _require(a.any(), "dual action not onto: momentum.a must be nonzero")
    return models.BeanieParams(**kwargs), (CoVector(mu), CoVector(a))


class Job(NamedTuple):
    """What a mode runner reads."""
    params: object
    level: tuple  # the momentum level, as CoVectors
    initial: np.ndarray | None  # None: the mode reads none
    t_end: float
    stepper: StepperChoice
    seed: int
    csv: Path


def _drift(series: np.ndarray) -> float:
    return float(np.max(np.abs(series - series[0])))


def _rotor_full_start(params, level) -> np.ndarray:
    """The chart state with body momentum `momentum.mu`, x = 0, xdot = 0.2."""
    mu = level[0].coords
    try:
        return models.rotor_chart_state_from_momentum(params, mu, xdot=0.2)
    except ValueError as exc:
        raise ConfigError(f"momentum.mu = {mu.tolist()} gives rotor full no start "
                          f"state ({exc}); give `initial` instead") from exc


def _rotor_full(job: Job) -> dict:
    traj = models.rotor_full_trajectory(job.params, job.initial, job.t_end, job.stepper)
    j = models.rotor_spatial_momentum(job.params, traj.states)
    maglag.write_csv(job.csv, traj.times, np.column_stack([traj.states, j]),
                     traj.columns + ("J0", "J1", "J2"))
    return {"momentum_drift": _drift(j)}


def _rotor_reduced(job: Job) -> dict:
    init = job.initial
    nu0 = CoVector(init[2:5])
    traj = routh.integrate_reduced(models.rotor_reduced_system(job.params, nu0),
                                   routh.ReducedState(init[:1], init[1:2], nu0),
                                   job.t_end, job.stepper)
    traj.to_csv(job.csv)
    return {"energy_drift": traj.report.entries["energy_drift"],
            "casimir_drift": traj.report.entries["casimir_momentum_norm_drift"]}


def _beanie_full(job: Job) -> dict:
    traj = models.beanie_full_trajectory(job.params, job.initial, job.t_end, job.stepper)
    nus, bs = models.beanie_momenta(job.params, traj.states)
    babs = np.hypot(bs.real, bs.imag)  # as abs() of a complex; np.abs rounds differently
    energies = models.beanie_energy(job.params, traj.states)
    maglag.write_csv(job.csv, traj.times, np.column_stack([traj.states, nus, babs]),
                     traj.columns + ("nu", "b_abs"))
    return {"nu_drift": _drift(nus), "b_norm_drift": _drift(babs),
            "energy_drift": _drift(energies)}


def _beanie_reduced(job: Job) -> dict:
    init = job.initial
    traj = semidirect.integrate_reduced_full(
        models.beanie_gv_lagrangian(job.params), init[:1], init[1:2],
        CoVector(init[2:3]), CoVector(init[3:5]), job.t_end, job.stepper)
    traj.to_csv(job.csv)
    return {"energy_drift": traj.report.entries["energy_drift"],
            "casimir_drift": traj.report.entries["casimir_translation_momentum_norm_drift"],
            "nu_drift": _drift(traj.states[:, 2])}


def _beanie_abelian(job: Job) -> dict:
    init = job.initial
    sys_ = semidirect.abelian_reduced_system(models.beanie_gv_lagrangian(job.params), job.level[1])
    traj = maglag.integrate(sys_, MagLagState(init[:2], init[2:4], np.zeros(0)),
                            job.t_end, job.stepper)
    traj.to_csv(job.csv)
    return {"energy_drift": traj.report.entries["energy_drift"]}


def _beanie_equivalence(job: Job) -> dict:
    mu, a = job.level
    return dict(semidirect.build_stage_equivalence(
        models.beanie_gv_lagrangian(job.params), mu, a, n_points=100,
        t_end=job.t_end, stepper=job.stepper, seed=job.seed).report)


def _beanie_lemma(job: Job) -> dict:
    rng = np.random.default_rng(job.seed)
    samples = np.column_stack([rng.uniform(-2.0, 2.0, 100),
                               rng.uniform(-np.pi, np.pi, 100)])
    return {"lemma_residual": semidirect.verify_lemma_B_equals_dtheta(
        models.beanie_gv_lagrangian(job.params), job.level[1], samples)}


class Mode(NamedTuple):
    """One (model, mode): the runner, its default pass thresholds (one per
    metric it reports), the length of `initial` (None: the mode reads none)
    and its default from (params, momentum level), the momentum keys that
    only feed that default (a config may not give them with `initial`), and
    whether the `verify` subcommand accepts it."""
    run: Callable[[Job], dict]
    thresholds: dict
    initial: int | None = None
    start: Callable[[object, tuple], object] | None = None
    start_only: tuple[str, ...] = ()
    verify: bool = False


class Model(NamedTuple):
    inputs: Callable[[dict, dict], tuple]  # params, momentum blocks -> params, level
    modes: dict[str, Mode]


MODELS = {
    "rotor": Model(_rotor_inputs, {
        "full": Mode(_rotor_full, {"momentum_drift": 1e-7}, 8, _rotor_full_start),
        "reduce-full-group": Mode(
            _rotor_reduced, {"energy_drift": 1e-8, "casimir_drift": 1e-9}, 5,
            lambda params, level: np.concatenate([[0.0, 0.2], level[0].coords]),
            start_only=("mu",)),
    }),
    "beanie": Model(_beanie_inputs, {
        "full": Mode(_beanie_full, {"nu_drift": 1e-8, "b_norm_drift": 1e-8,
                                    "energy_drift": 1e-8}, 8,
                     lambda params, level: [0.4, 0.0, 0.0, 0.0, 0.3, 0.1, 1.0, 0.0]),
        "reduce-full-group": Mode(_beanie_reduced, {
            "energy_drift": 1e-8, "nu_drift": 1e-9, "casimir_drift": 1e-9}, 5,
            lambda params, level: np.concatenate([[0.4, 0.3], level[0].coords,
                                                  level[1].coords]),
            start_only=("mu", "a")),
        "reduce-abelian": Mode(_beanie_abelian, {"energy_drift": 1e-8}, 4,
                               lambda params, level: [0.4, 0.0, 0.3, 0.1]),
        "verify-equivalence": Mode(_beanie_equivalence, {
            "routhian_identity_residual": 1e-8, "form_identity_residual": 1e-6,
            "trajectory_deviation": 1e-5, "casimir_drift": 1e-9, "nu_drift": 1e-9},
            verify=True),
        "verify-lemma": Mode(_beanie_lemma, {"lemma_residual": 1e-6}, verify=True),
    }),
}
MODES = {name: tuple(model.modes) for name, model in MODELS.items()}
DEFAULT_THRESHOLDS = {(name, mode): rec.thresholds for name, model in MODELS.items()
                      for mode, rec in model.modes.items()}
_BLOCKS = ("params", "momentum", "stepper", "output", "thresholds")


def _inputs(cfg: dict):
    """(params, momentum level, stepper, initial state) from the library
    constructors; the initial state is the mode's default when the config
    gives none, and None when the mode reads none."""
    model = MODELS[cfg["model"]]
    rec = model.modes[cfg["mode"]]
    try:
        params, level = model.inputs(cfg["params"], cfg["momentum"])
        initial = cfg.get("initial")
        if initial is None and rec.start is not None:
            initial = rec.start(params, level)
        return (params, level, StepperChoice(**cfg["stepper"]),
                None if initial is None else np.asarray(initial, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def validate_config(cfg: dict) -> dict:
    """Schema check; returns the config with defaults filled in."""
    _require(isinstance(cfg, dict), "config must be a JSON object")
    _check_keys(cfg, "config", ("model", "mode", "initial", "t_end", "seed") + _BLOCKS)
    _check_numbers(cfg)
    model, mode = cfg.get("model"), cfg.get("mode")
    _require(isinstance(model, str) and model in MODELS,
             f"model must be one of {sorted(MODELS)}")
    _require(mode in MODES[model], f"mode {mode!r} is not defined for model "
                                   f"{model!r} (choose from {MODES[model]})")
    # the stepper default echoes only kind and h, as config_sha256 always did
    out = {"params": {}, "momentum": {}, "output": {}, "thresholds": {},
           "stepper": {"kind": StepperChoice.kind, "h": StepperChoice.h},
           "t_end": 10.0, "seed": 0, **cfg}
    for name in _BLOCKS:
        _require(isinstance(out[name], dict), f"{name} must be an object")
    _require(isinstance(out["t_end"], (int, float)) and out["t_end"] > 0,
             "t_end must be a positive number")
    _require(isinstance(out["seed"], int) and out["seed"] >= 0,
             "seed must be a nonnegative integer")
    known = sorted(DEFAULT_THRESHOLDS[(model, mode)])
    for name, bound in out["thresholds"].items():
        _require(name in known, f"unknown threshold {name!r} for {model} {mode} "
                                f"(choose from {known})")
        _require(isinstance(bound, (int, float)), f"thresholds.{name} must be a number")
    initial, rec = out.get("initial"), MODELS[model].modes[mode]
    if initial is not None:
        # input that would be accepted and never read
        _require(rec.initial is not None, f"initial is not read by {model} {mode}")
        for key in rec.start_only:
            _require(key not in out["momentum"], f"momentum.{key} is not read by "
                                                 f"{model} {mode} when initial is given")
        _require(isinstance(initial, list) and all(isinstance(v, (int, float)) for v in initial),
                 "initial must be a list of numbers")
        _require(len(initial) == rec.initial,
                 f"initial must hold {rec.initial} numbers for {model} {mode}, "
                 f"got {len(initial)}")
    _check_keys(out["output"], "output", ("csv", "report"))
    _require(all(isinstance(v, str) and v for v in out["output"].values()),
             "output file names must be nonempty strings")
    _inputs(out)
    return out


def run_config(cfg: dict, out_dir: Path) -> tuple[int, dict]:
    """Execute a validated config; writes outputs and returns (exit, report)."""
    model, mode = cfg["model"], cfg["mode"]
    rec = MODELS[model].modes[mode]
    params, level, stepper, initial = _inputs(cfg)
    metrics = rec.run(Job(params, level, initial, float(cfg["t_end"]), stepper,
                          cfg["seed"], out_dir / cfg["output"].get("csv", "trajectory.csv")))
    thresholds = {**rec.thresholds, **cfg["thresholds"]}
    passed = all(metrics[name] <= bound for name, bound in thresholds.items())
    report = {"tool": "magreduce", "version": __version__,
              "config_sha256": config_hash(cfg), "model": model, "mode": mode,
              "metrics": metrics, "thresholds": thresholds, "passed": bool(passed)}
    report_path = out_dir / cfg["output"].get("report", "report.json")
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return (0 if passed else 1), report


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="magreduce", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "verify"):
        p = sub.add_parser(name)
        p.add_argument("config", type=Path)
        p.add_argument("--out-dir", type=Path, default=Path("."))
        p.add_argument("--seed", type=int, default=None)
    sub.add_parser("list-models")
    args = parser.parse_args(argv)

    if args.command == "list-models":
        for model, modes in MODES.items():
            print(f"{model}: {', '.join(modes)}")
        return 0

    try:
        cfg = json.loads(args.config.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None and isinstance(cfg, dict):
        cfg["seed"] = args.seed
    try:
        cfg = validate_config(cfg)
        verify_modes = sorted({mode for model in MODELS.values()
                               for mode, rec in model.modes.items() if rec.verify})
        _require(args.command != "verify" or MODELS[cfg["model"]].modes[cfg["mode"]].verify,
                 f"'verify' requires one of the modes {verify_modes}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    args.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        code, report = run_config(cfg, args.out_dir)
    except (RegularityError, NewtonConvergenceError, StepSizeError,
            NonFiniteStateError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    status = "PASS" if report["passed"] else "FAIL"
    for name, value in report["metrics"].items():
        bound = report["thresholds"].get(name)
        note = f" (threshold {bound:g})" if bound is not None else ""
        print(f"{name}: {value:.3e}{note}")
    print(f"{status}: {cfg['model']} {cfg['mode']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
