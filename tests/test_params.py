import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from selfsim.params import OutOfRangeError, make_params, rho_antideriv, weight_rho


def test_derived_exponents_2_15():
    P = make_params(2, 1.5)
    assert P.p_c == pytest.approx(4.0 / 3.0, abs=0)
    assert P.e_time == 2.0
    assert P.e_slow == 1.0
    assert P.e_g == 2.0
    assert P.e_flux == 1.0
    assert P.e_weight == pytest.approx(1.2)


def test_derived_exponents_3_17():
    P = make_params(3, 1.7)
    assert P.p_c == 1.5
    assert P.e_flux == pytest.approx(3.0 / 7.0)


@pytest.mark.parametrize(
    "N,p",
    [(2, 1.2), (2, 4.0 / 3.0), (2, 2.0), (2, 2.5), (1, 1.0), (3, 1.5), (2, float("nan")), (2, float("inf")),
     (2, "1.6"), (2, True)],
)
def test_out_of_range_p(N, p):
    with pytest.raises(OutOfRangeError):
        make_params(N, p)


@pytest.mark.parametrize("N", [0, -1, 1.5, True])
def test_out_of_range_N(N):
    with pytest.raises(OutOfRangeError):
        make_params(N, 1.9)


def test_make_params_deterministic():
    assert make_params(2, 1.5) == make_params(2, 1.5)


@given(
    N=st.integers(min_value=1, max_value=6),
    frac=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
@settings(max_examples=50, deadline=None)
def test_make_params_total_on_admissible_wedge(N, frac):
    p_c = 2.0 * N / (N + 1.0)
    p = p_c + frac * (2.0 - p_c)
    if p <= p_c or p >= 2.0:  # float rounding at the wedge edges
        return
    P = make_params(N, p)
    for e in (P.e_flux, P.e_g, P.e_slow, P.e_time, P.e_weight):
        assert math.isfinite(e) and e > 0.0


def test_weight_rho_values():
    assert weight_rho(make_params(2, 1.5), 1.0) == pytest.approx(math.e, rel=1e-15)
    assert weight_rho(make_params(1, 1.5), 3.0) == pytest.approx(math.e**3, rel=1e-15)
    assert weight_rho(make_params(3, 1.7), 2.0) == pytest.approx(4.0 * math.e**2, rel=1e-15)


def test_weight_rho_rejects_nonpositive():
    P = make_params(2, 1.5)
    with pytest.raises(ValueError):
        weight_rho(P, 0.0)
    with pytest.raises(ValueError):
        weight_rho(P, np.array([1.0, -2.0]))


@given(
    N=st.integers(min_value=1, max_value=5),
    r=st.floats(min_value=0.05, max_value=30.0),
)
@settings(max_examples=60, deadline=None)
def test_rho_log_derivative_identity(N, r):
    # rho'/rho = 1 + (N-1)/r, by central differences at rel tol 1e-8
    P = make_params(N, 0.5 * (2.0 * N / (N + 1.0) + 2.0))
    h = 1e-6 * r
    fd = (weight_rho(P, r + h) - weight_rho(P, r - h)) / (2.0 * h)
    target = (1.0 + (N - 1.0) / r) * weight_rho(P, r)
    assert fd == pytest.approx(target, rel=1e-8)


@pytest.mark.parametrize("N", [1, 2, 3, 5])
@pytest.mark.parametrize("r", [1e-6, 1e-4, 0.3, 0.999, 1.0, 2.5, 17.0])
def test_rho_antideriv_matches_quadrature(N, r):
    P = make_params(N, 0.5 * (2.0 * N / (N + 1.0) + 2.0))
    ref, _ = quad(lambda s: s ** (N - 1) * np.exp(s), 0.0, r, epsabs=1e-300, epsrel=1e-13)
    assert rho_antideriv(P, r) == pytest.approx(ref, rel=1e-10)


def test_rho_antideriv_continuous_at_series_crossover():
    P = make_params(3, 1.7)
    below, above = rho_antideriv(P, 1.0 - 1e-12), rho_antideriv(P, 1.0 + 1e-12)
    assert below == pytest.approx(above, rel=1e-10)
