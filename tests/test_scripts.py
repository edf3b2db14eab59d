import math
import os
import subprocess
import sys
from pathlib import Path

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
