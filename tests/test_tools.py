"""tools/compare_outputs.py: a tree compared with itself agrees, and the
comparison names what differs and by how much."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_compared_with_itself_agrees():
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload",
                          "analytic_flows", "--seed", "5", "--requests", "2"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[1:] == ["0000 cli_rotor_full_rk4: identical",
                         "0001 cli_rotor_full_rkf45: identical", "agree"]


def test_compare_reports_differences():
    tool = load_tool()
    a = tool.leaves({"x": [np.eye(2), np.eye(2)], "name": "rk4", "n": 3})
    assert sorted(a) == [".n", ".name", ".x[*]"] and a[".x[*]"].shape == (2, 2, 2)
    csv = b"t,x\n0,1\n0.5,2\n"
    base = {"0000 k" + key: leaf for key, leaf in a.items()}
    base["0000 k:file:trajectory.csv"] = np.frombuffer(csv, dtype=np.uint8)
    base["0000 k:problems"] = np.asarray("")
    same, ok = tool.compare(base, dict(base))
    assert same == ["0000 k: identical"] and ok

    moved = dict(base)
    moved["0000 k.x[*]"] = a[".x[*]"] + 1e-13
    moved["0000 k:file:trajectory.csv"] = np.frombuffer(b"t,x\n0,1\n0.5,2.000001\n",
                                                        dtype=np.uint8)
    lines, ok = tool.compare(base, moved)
    assert not ok and "x[*]: max |diff| = 1.000e-13" in lines[0]
    assert ":file:trajectory.csv: max |diff| = 1.000e-06" in lines[0]

    # an inf (or NaN) both trees have at the same place is no difference
    inf_a, inf_b = dict(base), dict(base)
    inf_a["0000 k.n"] = np.asarray([np.inf, np.nan, 1.0])
    inf_b["0000 k.n"] = np.asarray([np.inf, np.nan, 1.0 + 2e-16])
    lines, ok = tool.compare(inf_a, inf_b)
    assert not ok and lines == ["0000 k: n: max |diff| = 2.220e-16"]

    wider = dict(base)
    wider["0000 k:file:trajectory.csv"] = np.frombuffer(b"t,x,y\n0,1,0\n0.5,2,0\n",
                                                        dtype=np.uint8)
    lines, ok = tool.compare(base, wider)
    assert not ok and "CSV shape (2, 2) vs (2, 3) (rows, columns)" in lines[0]

    shifted = dict(base)
    shifted["0000 k:file:trajectory.csv"] = np.frombuffer(b"t,x\n0,1\n0.4,2\n", dtype=np.uint8)
    shifted["0000 k:problems"] = np.asarray("energy_drift = 1 exceeds 1e-08")
    lines, ok = tool.compare(base, shifted)
    assert not ok and "time grid differs from row 1" in lines[0]
    assert "check failed in B: energy_drift" in lines[0]
