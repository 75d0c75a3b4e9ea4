"""Command-line entry point: modes, exit codes, reports, determinism."""
import json

import numpy as np
import pytest

from magreduce import cli, maglag, models
from magreduce.numerics import StepperChoice
from oracles import beanie_r2_system


def write_config(tmp_path, name, **cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_list_models(capsys):
    assert cli.main(["list-models"]) == 0
    out = capsys.readouterr().out
    assert "rotor" in out and "beanie" in out


def test_verify_equivalence_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, "eq.json", model="beanie",
                       mode="verify-equivalence", t_end=2.0)
    code = cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    assert report["metrics"]["routhian_identity_residual"] <= 1e-8
    assert report["version"]
    assert len(report["config_sha256"]) == 64


def test_full_mode_writes_conserved_nu_column(tmp_path):
    cfg = write_config(tmp_path, "full.json", model="beanie", mode="full",
                       t_end=2.0)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out-dir", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    nu_col = header.index("nu")
    nus = np.array([float(l.split(",")[nu_col]) for l in lines[1:]])
    assert np.max(np.abs(nus - nus[0])) <= 1e-8


def test_zero_momentum_rejected(tmp_path):
    cfg = write_config(tmp_path, "bad.json", model="beanie",
                       mode="reduce-full-group",
                       momentum={"a": [0.0, 0.0]})
    assert cli.main(["run", str(cfg)]) == 2


def test_unknown_mode_rejected(tmp_path):
    cfg = write_config(tmp_path, "bad.json", model="rotor",
                       mode="verify-lemma")
    assert cli.main(["run", str(cfg)]) == 2


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, "bad.json", model="rotor", mode="full",
                       tend=1.0)
    assert cli.main(["run", str(cfg)]) == 2


def test_verify_subcommand_requires_verify_mode(tmp_path):
    cfg = write_config(tmp_path, "full.json", model="beanie", mode="full")
    assert cli.main(["verify", str(cfg)]) == 2
    cfg2 = write_config(tmp_path, "lemma.json", model="beanie",
                        mode="verify-lemma")
    assert cli.main(["verify", str(cfg2), "--out-dir", str(tmp_path / "o")]) == 0


def test_deterministic_csv(tmp_path):
    cfg = write_config(tmp_path, "run.json", model="beanie",
                       mode="reduce-full-group", t_end=1.0, seed=3)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(cfg), "--out-dir", str(out1)]) == 0
    assert cli.main(["run", str(cfg), "--out-dir", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == \
        (out2 / "trajectory.csv").read_bytes()


def test_threshold_override_can_fail(tmp_path):
    cfg = write_config(tmp_path, "strict.json", model="beanie", mode="full",
                       t_end=1.0, thresholds={"energy_drift": 1e-30})
    assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1


def test_rotor_modes_run(tmp_path):
    cfg = write_config(tmp_path, "r1.json", model="rotor", mode="full",
                       t_end=1.0)
    assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "o1")]) == 0
    cfg2 = write_config(tmp_path, "r2.json", model="rotor",
                        mode="reduce-full-group", t_end=1.0)
    assert cli.main(["run", str(cfg2), "--out-dir", str(tmp_path / "o2")]) == 0
    report = json.loads((tmp_path / "o2" / "report.json").read_text())
    assert report["metrics"]["casimir_drift"] <= 1e-9


def test_unknown_threshold_name_rejected(tmp_path, capsys):
    # a misspelt threshold used to score the missing metric as 0 and pass
    cfg = write_config(tmp_path, "typo.json", model="rotor",
                       mode="reduce-full-group", t_end=0.1,
                       thresholds={"energy_drfit": 0})
    assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "energy_drfit" in capsys.readouterr().err


def test_initial_length_checked_per_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, "short.json", model="rotor",
                       mode="reduce-full-group", initial=[0.1, 0.2])
    assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "initial must hold 5 numbers" in capsys.readouterr().err


def test_non_finite_trajectory_exits_1(tmp_path, capsys):
    # body rates far beyond what h = 0.5 resolves: RK4 overflows
    cfg = write_config(tmp_path, "blowup.json", model="rotor",
                       mode="reduce-full-group", t_end=50.0,
                       initial=[0.0, 0.2, 1e3, 1e3, 1e3],
                       stepper={"kind": "rk4", "h": 0.5})
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert "non-finite state at t =" in capsys.readouterr().err


@pytest.mark.parametrize("a", [[1.0, 0.5], [0.3, -1.2], [-0.8, 0.6]])
def test_reduce_abelian_is_the_hand_written_system(tmp_path, a):
    # the mode runs semidirect.abelian_reduced_system; the hand-written
    # closed form of the same system gives the same rk4 trajectory
    cfg = write_config(tmp_path, "abelian.json", model="beanie", mode="reduce-abelian",
                       t_end=5.0, momentum={"a": a}, stepper={"kind": "rk4", "h": 1e-3})
    assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    csv = np.loadtxt(tmp_path / "o" / "trajectory.csv", delimiter=",", skiprows=1)
    hand = maglag.integrate(beanie_r2_system(models.BeanieParams(), complex(*a)),
                            maglag.MagLagState([0.4, 0.0], [0.3, 0.1], np.zeros(0)), 5.0,
                            StepperChoice(kind="rk4", h=1e-3))
    assert np.array_equal(csv[:, 0], hand.times)
    assert np.max(np.abs(csv[:, 1:] - hand.states)) <= 1e-13
