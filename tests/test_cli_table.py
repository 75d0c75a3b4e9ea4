"""The CLI mode table: every (model, mode) entry runs and reports exactly
its threshold names, bad configs exit 2, and the demo configs run."""
import json
from pathlib import Path

import pytest

from magreduce import cli

DEMO_CONFIGS = sorted((Path(__file__).parent.parent / "demos" / "configs").glob("*.json"))


def run(tmp_path, cfg, command="run"):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return cli.main([command, str(path), "--out-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("model,mode", sorted(cli.DEFAULT_THRESHOLDS))
def test_every_table_entry_reports_its_thresholds(tmp_path, model, mode):
    assert run(tmp_path, {"model": model, "mode": mode, "t_end": 0.2,
                          "stepper": {"kind": "rk4", "h": 0.01}}) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(report["metrics"]) == set(cli.DEFAULT_THRESHOLDS[(model, mode)])


def test_rkf45_verify_equivalence_passes(tmp_path):
    # the two adaptive grids differ; the deviation is read at shared times
    assert run(tmp_path, {"model": "beanie", "mode": "verify-equivalence",
                          "t_end": 2.0, "stepper": {"kind": "rkf45", "h": 0.01}},
               command="verify") == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["metrics"]["trajectory_deviation"] <= 1e-5


BEANIE_FULL = {"model": "beanie", "mode": "full", "t_end": 0.1}
ROTOR_FULL = {"model": "rotor", "mode": "full", "t_end": 0.1}
BAD_CONFIGS = {
    # misspelt keys in every block
    "params_key": (dict(ROTOR_FULL, params={"inertia_bdy": [3, 2, 1]}), "inertia_bdy"),
    "stepper_key": (dict(BEANIE_FULL, stepper={"hh": 0.01}), "hh"),
    "output_key": (dict(BEANIE_FULL, output={"cvs": "x.csv"}), "cvs"),
    "momentum_key": (dict(BEANIE_FULL, momentum={"aa": [1, 0]}), "aa"),
    # booleans, or an infinite horizon, where numbers are expected
    "t_end_bool": (dict(BEANIE_FULL, t_end=True), "t_end"),
    "t_end_inf": (dict(BEANIE_FULL, t_end=float("inf")), "t_end"),
    "seed_bool": (dict(BEANIE_FULL, seed=True), "seed"),
    "initial_bool": (dict(BEANIE_FULL, initial=[0.4, 0, 0, 0, 0.3, 0.1, True, 0]),
                     "initial[6]"),
    "threshold_bool": (dict(BEANIE_FULL, thresholds={"nu_drift": False}),
                       "thresholds.nu_drift"),
    # non-finite numbers: a NaN threshold fails every run, Infinity passes every run
    "threshold_nan": (dict(BEANIE_FULL, thresholds={"nu_drift": float("nan")}),
                      "thresholds.nu_drift"),
    "threshold_inf": (dict(BEANIE_FULL, thresholds={"energy_drift": float("inf")}),
                      "thresholds.energy_drift"),
    # values the library constructors refuse
    "negative_h": (dict(BEANIE_FULL, stepper={"h": -0.01}), "step sizes"),
    "short_inertia": (dict(ROTOR_FULL, params={"inertia_body": [1, 2]}), "3-vectors"),
    "beanie_mu_pair": (dict(BEANIE_FULL, momentum={"mu": [1, 2]}), "momentum.mu"),
    "tiny_atol": (dict(BEANIE_FULL, stepper={"kind": "rkf45", "atol": 1e-20}), "atol"),
    "rotor_mu_string": (dict(ROTOR_FULL, momentum={"mu": ["a", "b", "c"]}), "momentum.mu"),
    "potential_object": (dict(BEANIE_FULL, params={"potential": 1.0}), "potential"),
    # rotor full starts from the momentum when no initial state is given
    "rotor_full_zero_mu": (dict(ROTOR_FULL, momentum={"mu": [0, 0, 0]}), "momentum.mu"),
    # input the mode would accept and never read
    "equivalence_initial": ({"model": "beanie", "mode": "verify-equivalence",
                             "initial": [1, 2, 3]}, "initial is not read"),
    "lemma_initial": ({"model": "beanie", "mode": "verify-lemma", "initial": [0.5]},
                      "initial is not read"),
    "rotor_reduced_mu_and_initial": ({"model": "rotor", "mode": "reduce-full-group",
                                      "momentum": {"mu": [0.8, 0.2, 0.3]},
                                      "initial": [0.0, 0.2, 0.8, 0.2, 0.3]}, "momentum.mu"),
    "beanie_reduced_a_and_initial": ({"model": "beanie", "mode": "reduce-full-group",
                                      "momentum": {"a": [0, 3]},
                                      "initial": [0.4, 0.3, 1, 1, 0]}, "momentum.a"),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_exits_2(tmp_path, capsys, name):
    cfg, needle = BAD_CONFIGS[name]
    assert run(tmp_path, cfg) == 2
    assert needle in capsys.readouterr().err


def test_rotor_full_zero_mu_runs_from_initial(tmp_path):
    state0 = [0.0, 0.3, 1.0, 0.2, 0.2, 0.1, 0.0, 0.4]
    assert run(tmp_path, dict(ROTOR_FULL, momentum={"mu": [0, 0, 0]}, initial=state0)) == 0


def test_momentum_without_initial_still_read(tmp_path):
    # the check reads the keys the user gave, not the filled-in defaults
    cfg = {"model": "rotor", "mode": "reduce-full-group", "t_end": 0.1,
           "momentum": {"mu": [0.8, 0.2, 0.3]}}
    assert cli.validate_config(cfg)["momentum"] == {"mu": [0.8, 0.2, 0.3]}
    assert run(tmp_path, cfg) == 0
    assert run(tmp_path, {"model": "rotor", "mode": "reduce-full-group", "t_end": 0.1,
                          "initial": [0.0, 0.2, 0.8, 0.2, 0.3]}) == 0


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_config_runs(tmp_path, path):
    cfg = json.loads(path.read_text())
    cli.validate_config(cfg)
    cfg["t_end"] = 0.3
    assert run(tmp_path, cfg) == 0
