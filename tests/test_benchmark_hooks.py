"""The library names the benchmark's tracer hooks into.

perfbench/tracing.py wraps module attributes of the library and counts ODE
steps through ``Trajectory.dense``; a target it cannot find silently drops
that metric from a traced run. These tests load the tracer by path, as the
benchmark does, and fail when the library stops offering what it reads.
"""

import importlib
import importlib.util
from pathlib import Path

from scipy.integrate import solve_ivp

from selfsim.profile_ode import (
    ABS_TOL,
    IntegratorOptions,
    _rhs_arrays,
    eps_start,
    integrate,
    series_start,
)

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_callable():
    tracing = _load_tracing()
    for module_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_ode_steps_counts_the_accepted_steps(P2):
    tracing = _load_tracing()
    traj = integrate(P2, 1.0)
    # a = 1 is far below a_*: the run is truncated at r_max, so no terminal
    # event cuts it short and a plain solve over the horizon takes the same steps
    assert traj.event("Truncated") is not None
    opts = IntegratorOptions()
    eps = eps_start(1.0)
    st0 = series_start(P2, 1.0, eps)
    sol = solve_ivp(
        lambda r, y: _rhs_arrays(P2, r, y[0], y[1], True),
        (eps, opts.r_max),
        [st0.f, st0.g],
        method="DOP853",
        rtol=opts.rel_tol,
        atol=ABS_TOL,
    )
    steps = tracing.ode_steps(traj)
    assert steps > 0
    assert steps == len(sol.t) - 1
