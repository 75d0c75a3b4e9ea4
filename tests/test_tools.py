"""tools/compare_outputs.py: a tree compared with itself agrees, and the
comparison names what differs and by how much."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"


def load_tool(path: Path = TOOL):
    spec = importlib.util.spec_from_file_location(path.stem, path)
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
    assert "last row" not in lines[0] and "check failed in B: energy_drift" in lines[0]


def test_csv_grids_that_end_at_one_t_compare_their_last_rows():
    # two adaptive runs to the same t_end: the grids differ, the last rows
    # are compared, with as many or with different numbers of rows
    tool = load_tool()

    def csv(text):
        return {"0000 k:file:trajectory.csv": np.frombuffer(text, dtype=np.uint8),
                "0000 k:problems": np.asarray("")}

    base = csv(b"t,x,y\n0,1,0\n0.5,2,0\n1,3,-1\n")
    lines, ok = tool.compare(base, csv(b"t,x,y\n0,1,0\n0.4,2,0\n1,3.25,-1.5\n"))
    assert not ok and lines == ["0000 k: :file:trajectory.csv: time grid differs from row 1; "
                                "last row (t = 1): max |diff| = 5.000e-01"]
    lines, ok = tool.compare(base, csv(b"t,x,y\n0,1,0\n1,3,-1.125\n"))
    assert not ok and lines == ["0000 k: :file:trajectory.csv: CSV shape (3, 3) vs (2, 3) "
                                "(rows, columns); last row (t = 1): max |diff| = 1.250e-01"]
    lines, ok = tool.compare(base, csv(b"t,x,y\n0,1,0\n0.5,2,0\n0.9,3,-1\n"))
    assert not ok and lines == ["0000 k: :file:trajectory.csv: time grid differs from row 2"]


def test_all_workloads_in_one_call():
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload", "all",
                          "--seed", "5", "--requests", "1"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    heads = [line.split(",")[0] for line in lines if ", seed 5, 1 requests" in line]
    assert heads == ["analytic_flows", "stage_verify", "fd_supply"]
    assert lines.count("agree") == 3 and len(lines) == 9


def test_all_workloads_differ_when_one_does(monkeypatch, capsys):
    tool = load_tool()
    same = {"0000 k.x": np.zeros(2), "0000 k:problems": np.asarray("")}
    moved = dict(same, **{"0000 k.x": np.ones(2)})
    monkeypatch.setattr(tool, "outputs", lambda trees, workload, *args: (
        [same, moved] if workload == "stage_verify" else [same, dict(same)]))
    assert tool.main(["A", "B", "--workload", "all", "--seed", "5", "--requests", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line in ("agree", "DIFFER")] == ["agree", "DIFFER", "agree"]
    assert tool.main(["A", "B", "--workload", "fd_supply", "--seed", "5",
                      "--requests", "1"]) == 0


def test_several_seeds_one_summary_each(monkeypatch, capsys):
    tool = load_tool()
    same = {"0000 k.x": np.zeros(2), "0000 k:problems": np.asarray("")}
    moved = dict(same, **{"0000 k.x": np.ones(2)})
    seen = []

    def outputs(trees, workload, seed, requests):
        seen.append((workload, seed))
        return [same, moved] if (workload, seed) == ("fd_supply", 7) else [same, dict(same)]

    monkeypatch.setattr(tool, "outputs", outputs)
    assert tool.main(["A", "B", "--workload", "all", "--seed", "5", "7", "--requests", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert seen == [(w, s) for w in tool.WORKLOADS for s in (5, 7)]
    heads = [line.split(":")[0] for line in out if "requests: A = A, B = B" in line]
    assert heads == [f"{w}, seed {s}, 1 requests" for w in tool.WORKLOADS for s in (5, 7)]
    assert [line for line in out if line in ("agree", "DIFFER")] == ["agree"] * 5 + ["DIFFER"]
    assert tool.main(["A", "B", "--workload", "stage_verify", "--seed", "5", "7",
                      "--requests", "1"]) == 0


def test_largest_difference_of_each_output_over_all_requests(monkeypatch, capsys):
    tool = load_tool()
    ok = np.asarray("")
    a = {"0000 k.x": np.zeros(2), "0000 k.name": np.asarray("rk4"), "0000 k:problems": ok,
         "0001 j.y": np.zeros(3), "0001 j:problems": ok,
         "0002 k.x": np.zeros(2), "0002 k.name": np.asarray("rk4"), "0002 k:problems": ok}
    b = dict(a, **{"0000 k.x": np.array([1e-12, 0.0]), "0000 k.name": np.asarray("rkf45"),
                   "0002 k.x": np.array([0.0, -3e-11])})
    # j.y agrees and k.name differs in text, so neither has a largest value
    assert tool.largest(a, b) == {"k.x": 3e-11}
    monkeypatch.setattr(tool, "outputs", lambda *args: [a, b])
    assert tool.main(["A", "B", "--workload", "fd_supply", "--seed", "5", "--requests", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["largest max |diff| of k.x over all requests: 3.000e-11", "DIFFER"]


AB_TOOL = ROOT / "tools" / "ab_bench.py"
# a tree's bench/run.py: logs its tree and arguments, then prints a result
# line whose throughput depends on the tree and on its run count
AB_STUB = """
import json, os, sys
from pathlib import Path
tree = Path(__file__).resolve().parents[1]
log = tree.parent / "log"
with log.open("a") as f:
    f.write(" ".join([tree.name, str(Path.cwd() == tree), *sys.argv[1:]]) + "\\n")
if tree.name == "broken":
    sys.exit("no result")
runs = [line.split()[0] for line in log.read_text().splitlines()].count(tree.name)
rps = {"parent": [30.0, 31.0, 29.0], "change": [32.0, 30.5, 33.0]}[tree.name][runs - 1]
metrics = {name: {"value": 1.0, "unit": "-"} for name in NAMES}
metrics["throughput_rps"]["value"] = rps
print("human-readable lines first")
print(json.dumps({"correct": True, "attempted": 12, "failed": 0, "metrics": metrics}))
"""


def test_ab_bench_alternates_the_trees_and_summarises_each_metric(tmp_path, monkeypatch,
                                                                  capsys):
    tool = load_tool(AB_TOOL)
    for name in ("parent", "change", "broken"):
        (tmp_path / name / "bench").mkdir(parents=True)
        (tmp_path / name / "bench" / "run.py").write_text(
            AB_STUB.replace("NAMES", repr(list(tool.METRICS))))
    monkeypatch.chdir(tmp_path)  # trees given relative to the working directory
    assert tool.main(["parent", "change", "--workload", "stage_verify", "--seed", "5",
                      "--pairs", "3", "--seconds", "2"]) == 0
    # each tree's own benchmark, run in that tree: the parent first in odd
    # pairs, the change in even ones
    args = "True --workload stage_verify --seed 5 --seconds 2"
    assert (tmp_path / "log").read_text().splitlines() == [
        f"{tree} {args}" for tree in ("parent", "change", "change", "parent", "parent",
                                      "change")]
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out[1:7]] == [
        "pair 1 A", "pair 1 B", "pair 2 B", "pair 2 A", "pair 3 A", "pair 3 B"]
    assert "throughput_rps 30.5 " in out[3] and out[3].endswith("failed 0/12")
    # pairs (30, 32), (31, 30.5), (29, 33): medians 30 and 32, quartiles
    # [29.5, 30.5] and [31.25, 32.5], the change better in 2 of 3
    rps = next(line for line in out if line.startswith("throughput_rps "))
    assert rps.split() == ["throughput_rps", "higher", "A", "30", "[29.5,", "30.5]", "B", "32",
                           "[31.25,", "32.5]", "A", "IQR", "1", "B", "better", "2/3",
                           "median", "+6.7%"]
    p50 = next(line for line in out if line.startswith("request_s_p50 "))
    assert "A IQR 0 " in p50 and "B better 0/3" in p50
    assert len(out) == 7 + len(tool.METRICS)

    # a run with no result stops the comparison
    assert tool.main(["broken", "change", "--workload", "fd_supply", "--seed", "7",
                      "--pairs", "1", "--seconds", "2"]) == 2
    assert "no result" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [("--pairs", "0"), ("--pairs", "-3"),
                                           ("--seconds", "0")])
def test_ab_bench_refuses_fewer_than_one_pair_or_second(option, value, monkeypatch, capsys):
    tool = load_tool(AB_TOOL)

    def no_run(*args):
        raise AssertionError("started a benchmark run")

    monkeypatch.setattr(tool, "run", no_run)
    with pytest.raises(SystemExit) as exit_:
        tool.main(["A", "B", "--workload", "stage_verify", "--seed", "5", option, value])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: must be at least 1, got {value}" in captured.err
