"""Each demo script runs to the end and writes its trajectory CSV."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_and_writes_its_csv(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    written = [p.name for p in tmp_path.iterdir()]
    assert len(written) == 1 and written[0].endswith(".csv")
    assert run.stdout.rstrip().endswith(f"wrote {written[0]}")
    lines = (tmp_path / written[0]).read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    assert rows.shape[0] >= 2 and rows.shape[1] == len(header)
    assert np.isfinite(rows).all()
    assert np.all(np.diff(rows[:, 0]) > 0)
