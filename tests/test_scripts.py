import importlib
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def test_refinement_study_runs(tmp_path):
    # two coarse levels of the separable oracle, run as a user would run the script
    out = tmp_path / "refinement.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "pde_refinement_study.py"),
         "--levels", "64", "128", "--r-inf", "8", "--out", str(out)],
        check=True, capture_output=True, text=True, env=env, timeout=300,
    )
    header, *rows = out.read_text().splitlines()
    assert header == "M,T_e,T_e_error,sup_error,ratio"
    assert [row.split(",")[0] for row in rows] == ["64", "128"]
    values = [[float(x) for x in row.split(",")[1:]] for row in rows]
    assert all(math.isfinite(x) for x in values[0][:3]) and math.isnan(values[0][3])
    assert all(math.isfinite(x) for x in values[1])
    assert values[1][3] > 1.5  # halving dr shrinks the sup error


def test_refinement_study_refuses_an_unresolved_level_first(tmp_path, capsys, monkeypatch):
    # cells 1.875 wide at N = 2 leave cell 1 uncoupled: the script exits 2 before the ground-state search
    def unreachable(*args, **kwargs):
        raise AssertionError("the ground state was sought before every level was checked")

    # the package re-exports the function classify under the module's name
    monkeypatch.setattr(importlib.import_module("selfsim.classify"), "find_ground_state", unreachable)
    argv = ["pde_refinement_study.py", "--levels", "64", "8", "--out", str(tmp_path / "r.csv")]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(ROOT / "scripts" / "pde_refinement_study.py"), run_name="__main__")
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "M = 8 cells on R_inf = 15.0" in err and "inner neighbour" in err
    assert list(tmp_path.iterdir()) == []
