"""The in-repo Brent root finder takes scipy.optimize.brentq's iterates.

Each case runs both on the same function, bracket and tolerances and
compares the outcome: the root to the bit, or the type of the exception.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq

from selfsim.profile_ode import _ROOT_TOL
from selfsim.roots import RTOL, brentq

# the (xtol, rtol) pairs the library passes: event location, find_r_G and
# criterion 2's xtol with the default rtol
TOLERANCES = [
    {"xtol": _ROOT_TOL, "rtol": _ROOT_TOL},
    {"xtol": 1e-15, "rtol": 8.9e-16},
    {"xtol": 1e-14},
]

FAMILIES = {
    "line": lambda c: lambda x: x - c,
    "cubic": lambda c: lambda x: (x - c) ** 3,
    "steep": lambda c: lambda x: math.tanh(50.0 * (x - c)),
    "exp": lambda c: lambda x: math.exp(x) - math.exp(c),
    "three roots": lambda c: lambda x: (x - c) * (x - c - 0.3) * (x + 0.7),
    "step": lambda c: lambda x: 1.0 if x > c else -1.0,
    "tiny": lambda c: lambda x: math.copysign(1e-300, x - c) if x != c else 0.0,
    "nan past root": lambda c: lambda x: math.nan if x > c + 0.5 else x - c,
    # equal values on a plateau make a zero divisor in the extrapolation
    "clamped": lambda c: lambda x: max(-1.0, min(1.0, 100.0 * (x - c))),
}


def outcome(solver, f, a, b, tol):
    try:
        return solver(f, a, b, **tol).hex()
    except Exception as exc:
        return type(exc)


ENDS = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300))


@given(
    family=st.sampled_from(sorted(FAMILIES)),
    c=st.floats(-3.0, 3.0),
    a=ENDS,
    b=ENDS,
    tol=st.sampled_from(TOLERANCES),
)
@settings(max_examples=400, deadline=None)
def test_same_roots_and_errors_as_scipy(family, c, a, b, tol):
    f = FAMILIES[family](c)
    assert outcome(brentq, f, a, b, tol) == outcome(scipy_brentq, f, a, b, tol)


@pytest.mark.parametrize(
    "f, a, b, tol, expected",
    [
        (math.sin, 3.0, 4.0, {"xtol": 0.0}, ValueError),
        (math.sin, 3.0, 4.0, {"rtol": RTOL / 2}, ValueError),
        (lambda x: math.nan, 3.0, 4.0, {}, ValueError),
        (math.sin, 1.0, 2.0, {}, ValueError),
        # a step function admits only bisection: 100 halvings of 2e300 stay wide
        (lambda x: 1.0 if x > 0.5 else -1.0, -1e300, 1e300, {}, RuntimeError),
        (math.sin, 0.0, 1.0, {}, (0.0).hex()),
        (math.sin, 3.0, 4.0, {}, math.pi.hex()),
    ],
    ids=["xtol", "rtol", "nan", "same sign", "no convergence", "root at an end", "pi"],
)
def test_the_wrappers_checks(f, a, b, tol, expected):
    assert outcome(brentq, f, a, b, tol) == outcome(scipy_brentq, f, a, b, tol) == expected
