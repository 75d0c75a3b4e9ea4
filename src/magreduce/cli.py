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
import sys
from pathlib import Path

import numpy as np

from . import __version__, lie, maglag, models, numerics, routh, semidirect
from .lie import CoVector
from .maglag import MagLagState, RegularityError
from .numerics import (NewtonConvergenceError, NonFiniteStateError,
                       StepSizeError, StepperChoice)

MODES = {
    "rotor": ("full", "reduce-full-group"),
    "beanie": ("full", "reduce-full-group", "reduce-abelian",
               "verify-equivalence", "verify-lemma"),
}
VERIFY_MODES = ("verify-equivalence", "verify-lemma")

# Default pass thresholds per (model, mode); all overridable from the
# config "thresholds" block.
DEFAULT_THRESHOLDS = {
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

# Length of the "initial" state for each (model, mode) that reads it.
INITIAL_SIZES = {
    ("rotor", "full"): 8,
    ("rotor", "reduce-full-group"): 5,
    ("beanie", "full"): 8,
    ("beanie", "reduce-full-group"): 5,
    ("beanie", "reduce-abelian"): 4,
}


class ConfigError(ValueError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def validate_config(cfg: dict) -> dict:
    """Schema check; returns the config with defaults filled in."""
    _require(isinstance(cfg, dict), "config must be a JSON object")
    unknown = set(cfg) - {"model", "mode", "params", "momentum", "initial",
                          "stepper", "t_end", "seed", "output", "thresholds"}
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    model = cfg.get("model")
    _require(model in MODES, f"model must be one of {sorted(MODES)}")
    mode = cfg.get("mode")
    _require(mode in MODES[model],
             f"mode {mode!r} is not defined for model {model!r} "
             f"(choose from {MODES[model]})")
    params = cfg.get("params", {})
    _require(isinstance(params, dict), "params must be an object")
    momentum = cfg.get("momentum", {})
    _require(isinstance(momentum, dict), "momentum must be an object")
    if model == "beanie":
        a = momentum.get("a", [1.0, 0.0])
        _require(isinstance(a, list) and len(a) == 2,
                 "momentum.a must be [re, im]")
        if abs(complex(a[0], a[1])) == 0.0:
            raise ConfigError("dual action not onto: momentum.a must be nonzero")
    stepper = cfg.get("stepper", {})
    _require(isinstance(stepper, dict), "stepper must be an object")
    kind = stepper.get("kind", "rk4")
    _require(kind in ("rk4", "rkf45"), "stepper.kind must be rk4 or rkf45")
    t_end = cfg.get("t_end", 10.0)
    _require(isinstance(t_end, (int, float)) and t_end > 0,
             "t_end must be a positive number")
    seed = cfg.get("seed", 0)
    _require(isinstance(seed, int) and seed >= 0, "seed must be a nonnegative integer")
    thresholds = cfg.get("thresholds", {})
    _require(isinstance(thresholds, dict)
             and all(isinstance(v, (int, float)) for v in thresholds.values()),
             "thresholds must map names to numbers")
    known = sorted(DEFAULT_THRESHOLDS[(model, mode)])
    unknown = sorted(set(thresholds) - set(known))
    _require(not unknown, f"unknown thresholds {unknown} for {model} {mode} "
                          f"(choose from {known})")
    initial = cfg.get("initial")
    if initial is not None:
        _require(isinstance(initial, list)
                 and all(isinstance(v, (int, float)) for v in initial),
                 "initial must be a list of numbers")
        size = INITIAL_SIZES.get((model, mode))
        _require(size is None or len(initial) == size,
                 f"initial must hold {size} numbers for {model} {mode}, "
                 f"got {len(initial)}")
    out = dict(cfg)
    out.setdefault("params", {})
    out.setdefault("momentum", {})
    out.setdefault("stepper", {"kind": "rk4", "h": 1e-3})
    out.setdefault("t_end", 10.0)
    out.setdefault("seed", 0)
    out.setdefault("output", {})
    out.setdefault("thresholds", {})
    return out


def _stepper_from(cfg: dict) -> StepperChoice:
    block = cfg["stepper"]
    return StepperChoice(kind=block.get("kind", "rk4"),
                         h=block.get("h", 1e-3),
                         atol=block.get("atol", 1e-10),
                         rtol=block.get("rtol", 1e-10),
                         h_min=block.get("h_min", 1e-12))


def _rotor_params(cfg: dict) -> models.RotorParams:
    p = cfg["params"]
    return models.RotorParams(
        inertia_body=p.get("inertia_body", (3.0, 2.0, 1.0)),
        inertia_rotor=p.get("inertia_rotor", (0.0, 0.0, 1.0)))


def _beanie_params(cfg: dict) -> models.BeanieParams:
    p = cfg["params"]
    c = p.get("potential_strength", 1.0)
    return models.BeanieParams(
        m=p.get("m", 1.0), i1=p.get("i1", 2.0), i2=p.get("i2", 1.0),
        potential=lambda phi: c * (1.0 - np.cos(float(np.atleast_1d(phi)[0]))),
        dpotential=lambda phi: np.array([c * np.sin(float(np.atleast_1d(phi)[0]))]))


def _drift(series: np.ndarray) -> float:
    return float(np.max(np.abs(series - series[0])))


def run_config(cfg: dict, out_dir: Path) -> tuple[int, dict]:
    """Execute a validated config; writes outputs and returns (exit, report)."""
    model, mode = cfg["model"], cfg["mode"]
    stepper = _stepper_from(cfg)
    t_end = float(cfg["t_end"])
    thresholds = dict(DEFAULT_THRESHOLDS[(model, mode)])
    thresholds.update(cfg["thresholds"])
    metrics: dict[str, float] = {}
    csv_path = out_dir / cfg["output"].get("csv", "trajectory.csv")
    report_path = out_dir / cfg["output"].get("report", "report.json")

    if model == "rotor":
        params = _rotor_params(cfg)
        m0 = np.asarray(cfg["momentum"].get("mu", [0.8, 0.2, 0.3]), dtype=float)
        if mode == "full":
            init = cfg.get("initial")
            state0 = (np.asarray(init, dtype=float) if init is not None
                      else models.rotor_chart_state_from_momentum(params, m0, xdot=0.2))
            traj = models.rotor_full_trajectory(params, state0, t_end, stepper)
            j = np.array([models.rotor_spatial_momentum(params, s)
                          for s in traj.states])
            metrics["momentum_drift"] = float(np.max(np.abs(j - j[0])))
            extra = np.column_stack([j])
            cols = traj.columns + ("J0", "J1", "J2")
            maglag.write_csv(csv_path, traj.times,
                             np.column_stack([traj.states, extra]), cols)
        else:  # reduce-full-group
            init = cfg.get("initial")
            if init is not None:
                arr = np.asarray(init, dtype=float)
                x0, xd0, nu0 = arr[:1], arr[1:2], arr[2:5]
            else:
                x0, xd0, nu0 = np.zeros(1), np.array([0.2]), m0
            sys = models.rotor_reduced_system(params, CoVector(nu0))
            traj = routh.integrate_reduced(
                sys, routh.ReducedState(x0, xd0, CoVector(nu0)), t_end, stepper)
            metrics["energy_drift"] = traj.report.entries["energy_drift"]
            metrics["casimir_drift"] = traj.report.entries[
                "casimir_momentum_norm_drift"]
            traj.to_csv(csv_path)

    else:  # beanie
        params = _beanie_params(cfg)
        a_list = cfg["momentum"].get("a", [1.0, 0.0])
        a = complex(a_list[0], a_list[1])
        mu = float(np.atleast_1d(cfg["momentum"].get("mu", 1.0))[0])
        if mode == "full":
            init = cfg.get("initial")
            state0 = (np.asarray(init, dtype=float) if init is not None
                      else np.array([0.4, 0.0, 0.0, 0.0, 0.3, 0.1, 1.0, 0.0]))
            traj = models.beanie_full_trajectory(params, state0, t_end, stepper)
            momenta = [models.beanie_momenta(params, s) for s in traj.states]
            nus = np.array([m[0] for m in momenta])
            babs = np.array([abs(m[1]) for m in momenta])
            energies = np.array([_beanie_energy(params, s) for s in traj.states])
            metrics["nu_drift"] = _drift(nus)
            metrics["b_norm_drift"] = _drift(babs)
            metrics["energy_drift"] = _drift(energies)
            cols = traj.columns + ("nu", "b_abs")
            maglag.write_csv(csv_path, traj.times,
                             np.column_stack([traj.states, nus, babs]), cols)
        elif mode == "reduce-full-group":
            sd = models.beanie_gv_lagrangian(params)
            init = cfg.get("initial")
            if init is not None:
                arr = np.asarray(init, dtype=float)
                x0, xd0 = arr[:1], arr[1:2]
                nu0, b0 = arr[2:3], arr[3:5]
            else:
                x0, xd0 = np.array([0.4]), np.array([0.3])
                nu0, b0 = np.array([mu]), np.array([a.real, a.imag])
            traj = semidirect.integrate_reduced_full(
                sd, x0, xd0, CoVector(nu0), CoVector(b0), t_end, stepper)
            metrics["energy_drift"] = traj.report.entries["energy_drift"]
            metrics["casimir_drift"] = traj.report.entries[
                "casimir_translation_momentum_norm_drift"]
            metrics["nu_drift"] = _drift(traj.states[:, 2])
            traj.to_csv(csv_path)
        elif mode == "reduce-abelian":
            sys = models.beanie_r2_system(params, a)
            init = cfg.get("initial")
            arr = (np.asarray(init, dtype=float) if init is not None
                   else np.array([0.4, 0.0, 0.3, 0.1]))
            s0 = MagLagState(arr[:2], arr[2:4], np.zeros(0))
            traj = maglag.integrate(sys, s0, t_end, stepper)
            metrics["energy_drift"] = traj.report.entries["energy_drift"]
            traj.to_csv(csv_path)
        elif mode == "verify-equivalence":
            sd = models.beanie_gv_lagrangian(params)
            eq = semidirect.build_stage_equivalence(
                sd, CoVector([mu]), CoVector([a.real, a.imag]),
                n_points=100, t_end=t_end, stepper=stepper, seed=cfg["seed"])
            metrics.update(eq.report)
        else:  # verify-lemma
            sd = models.beanie_gv_lagrangian(params)
            rng = np.random.default_rng(cfg["seed"])
            samples = np.column_stack([rng.uniform(-2.0, 2.0, 100),
                                       rng.uniform(-np.pi, np.pi, 100)])
            metrics["lemma_residual"] = semidirect.verify_lemma_B_equals_dtheta(
                sd, CoVector([a.real, a.imag]), samples)

    passed = all(metrics[name] <= bound
                 for name, bound in thresholds.items())
    report = {
        "tool": "magreduce",
        "version": __version__,
        "config_sha256": config_hash(cfg),
        "model": model,
        "mode": mode,
        "metrics": metrics,
        "thresholds": thresholds,
        "passed": bool(passed),
    }
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return (0 if passed else 1), report


def _beanie_energy(params: models.BeanieParams, state: np.ndarray) -> float:
    phid, thetad, xd, yd = state[4:]
    return (0.5 * params.m * (xd ** 2 + yd ** 2) + 0.5 * params.i1 * thetad ** 2
            + 0.5 * params.i2 * (thetad + phid) ** 2
            + params.potential(state[:1]))


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
    if args.seed is not None:
        cfg["seed"] = args.seed
    try:
        cfg = validate_config(cfg)
        if args.command == "verify" and cfg["mode"] not in VERIFY_MODES:
            raise ConfigError(
                f"'verify' requires one of the modes {VERIFY_MODES}")
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
