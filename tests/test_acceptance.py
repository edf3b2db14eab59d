"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from selfsim.acceptance import CRITERIA, run_acceptance


@pytest.mark.parametrize("index,title,fn", CRITERIA, ids=[f"criterion_{i:02d}" for i, _, _ in CRITERIA])
def test_criterion(ctx, index, title, fn, capsys):
    results = run_acceptance(ctx, only={index})
    assert len(results) == 1
    res = results[0]
    with capsys.disabled():
        print(flush=True)
        print(res.line(), flush=True)
        for check in res.checks:
            print(check.line(), flush=True)
    detail = "\n".join(c.line() for c in res.checks if not c.passed)
    assert res.passed, f"criterion {index} failed:\n{detail}"


def test_runtime_check_is_appended_from_the_budget_table(ctx):
    results = {res.index: res for res in run_acceptance(ctx, only={2, 3})}
    last = results[2].checks[-1]
    assert (last.name, last.tol) == ("runtime [s]", 1.0)
    assert all(check.name != "runtime [s]" for check in results[3].checks)


def test_the_context_builds_each_artifact_once(ctx):
    # a default given explicitly reads the same entry as one left out
    assert ctx.ground_state(2, 1.5) is ctx.ground_state(2, 1.5, rel_tol=1e-12)
    assert ctx.trajectory(2, 1.5, 1.0) is ctx.trajectory(2, 1.5, 1.0)


def test_a_missing_plateau_fails_criterion_5_and_does_not_crash_it():
    # criterion 5 holds its own reference to estimate_l, so a child patches
    # selfsim.classify before selfsim.acceptance is imported
    code = textwrap.dedent("""
        import importlib, sys
        classify = importlib.import_module("selfsim.classify")  # the package's classify is the function

        def no_plateau(traj):
            raise classify.NoPlateauError("no flat window")

        classify.estimate_l = no_plateau
        from selfsim.cli import main
        sys.exit(main(["verify", "--only", "5"]))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stderr) == (1, "")
    head, *rest = out.stdout.splitlines()
    assert head.startswith("[ 5] FAIL  fast-decay tail slope and rho*g plateau")
    assert rest == [
        "      FAIL  rho*g plateau found, (2,1.5) = nan",
        "      FAIL  rho*g plateau found, (3,1.7) = nan",
        "acceptance: 0/1 criteria passed",
    ]
