"""Acceptance gate: every criterion at its stated tolerance, one line each."""

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
