"""The implicit sweep: bit identity with a banded-solver reference, its error checks, step sequences."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import LinAlgError, solve_banded

from selfsim import pde
from selfsim.params import make_params
from selfsim.pde import (
    MaxStepsExceededError,
    PdeConfig,
    _clip_count,
    _couplings,
    _diffusivity,
    _geometry,
    _step_imex,
    _sweep,
    make_grid,
    make_initial,
)


def reference_be_sweep(config, grid, u, dt):
    """The sweep as a (3, M) band handed to ``solve_banded((1, 1), ...)``."""
    p, N = config.params.p, config.params.N
    dr, M = grid.dr, grid.M
    D = np.empty(M + 1)
    D[1:-1] = np.diff(u) / dr
    D[0] = 0.0
    D[-1] = -u[-1] / dr
    c = (D * D + pde.EPS_REG**2) ** ((p - 2.0) / 2.0)
    w_face = grid.faces ** (N - 1)
    if N == 1:
        w_face[0] = 0.0
    # theta sink: cell i absorbs theta c(D_{i+1/2}) |D_{i+1/2}| + (1 - theta) c(D_{i-1/2}) |D_{i-1/2}|,
    # lagged, through couplings dt/dr theta c to u_{i+1} and -dt/dr (1 - theta) c to u_{i-1}
    q = (grid.faces[:-1] / grid.centers) ** (N - 1) / dr
    theta = np.maximum(0.5, 1.0 - q)
    k_up = w_face[1:] / (grid.centers ** (N - 1) * dr * dr) + theta / dr
    k_dn = np.maximum(q - 0.5, 0.0) / dr  # = r_{i-1/2}^(N-1) / (r_i^(N-1) dr^2) - (1 - theta) / dr
    k_dn[0] = 0.0  # the symmetry face
    up = dt * k_up * c[1:]
    dn = dt * k_dn * c[:-1]
    ab = np.zeros((3, M))
    ab[0, 1:] = -up[:-1]
    ab[1, :] = 1.0 + up + dn
    ab[2, :-1] = -dn[1:]
    u_new = solve_banded((1, 1), ab, u)
    sat = int(np.count_nonzero(u_new < 0.0))
    np.clip(u_new, 0.0, None, out=u_new)
    return u_new, sat


def reference_substeps(config, grid, u, dt, n):
    """n reference sweeps of dt/n from u, each clipped at zero; returns the result and the last clip count."""
    for _ in range(n):
        u, sat = reference_be_sweep(config, grid, u, dt / n)
    return u, sat


def reference_tableau(config, grid, u, dt):
    """T32 and T33 of the Aitken-Neville tableau over one dt sweep, two dt/2 sweeps and three dt/3 sweeps."""
    u1, _ = reference_substeps(config, grid, u, dt, 1)
    u2, _ = reference_substeps(config, grid, u, dt, 2)
    u3, sat3 = reference_substeps(config, grid, u, dt, 3)
    T22 = 2.0 * u2 - u1
    T32 = 3.0 * u3 - 2.0 * u2
    T33 = T32 + 0.5 * (T32 - T22)
    return T32, T33, sat3


def reference_step(config, grid, u, dt):
    """The extrapolated step T33."""
    _, u_new, sat3 = reference_tableau(config, grid, u, dt)
    sat = sat3 + int(np.count_nonzero(u_new < 0.0))
    # a cell driven to zero or below, or below the smallest normal float, zeroes the tail beyond it
    dead = np.flatnonzero(u_new < np.finfo(float).tiny)
    if dead.size:
        u_new[dead[0]:] = 0.0
    return u_new, sat


def reference_error(config, grid, u, dt):
    """The error estimate |T33 - T32|."""
    T32, T33, _ = reference_tableau(config, grid, u, dt)
    return np.abs(T33 - T32)


def wedge_params(N, frac):
    p_c = 2.0 * N / (N + 1.0)
    return make_params(N, p_c + frac * (2.0 - p_c))


class TestBitIdentity:
    @given(
        N=st.integers(min_value=1, max_value=3),
        frac=st.floats(min_value=0.01, max_value=0.99),
        R_inf=st.floats(min_value=1.0, max_value=20.0),
        log_dt=st.floats(min_value=-10.0, max_value=1.0),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_sweep_and_step_match_banded_reference(self, N, frac, R_inf, log_dt, data):
        cfg = PdeConfig(params=wedge_params(N, frac))
        M = data.draw(st.integers(min_value=8, max_value=64))
        values = data.draw(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=M, max_size=M))
        u = np.sort(np.array(values))[::-1]  # non-increasing, non-negative
        grid = make_grid(R_inf, M)
        dt = 10.0**log_dt
        geom = _geometry(cfg, grid)
        # one BE sweep, composed from the parts the step is built of
        u_be = _sweep(u, _diffusivity(geom, u), _couplings(geom, dt))
        sat_be = _clip_count(u_be)
        want_be = reference_be_sweep(cfg, grid, u, dt)
        assert np.array_equal(u_be, want_be[0])
        assert sat_be == want_be[1]
        got, want = _step_imex(geom, u, dt), reference_step(cfg, grid, u, dt)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert np.array_equal(got[2], reference_error(cfg, grid, u, dt))


class TestSolverChecks:
    """The checks of ``solve_banded`` survive the direct LAPACK call."""

    @pytest.fixture
    def setup(self):
        P = make_params(2, 1.5)
        cfg = PdeConfig(params=P)
        grid = make_grid(8.0, 40)
        return _geometry(cfg, grid), make_initial(cfg, grid).values

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [0, 17, 39])
    def test_non_finite_data_raises(self, setup, bad, where):
        geom, u = setup
        u = u.copy()
        u[where] = bad
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError):
                _step_imex(geom, u, 1e-3)

    @pytest.mark.parametrize("info, error", [(3, LinAlgError), (-2, ValueError)])
    def test_lapack_failure_raises(self, setup, monkeypatch, info, error):
        geom, u = setup

        def failing_gtsv(dl, d, du, b, **overwrite):
            return dl, d, du, b, info

        monkeypatch.setattr(pde, "_lapack_gtsv", lambda: failing_gtsv)
        with pytest.raises(error):
            _step_imex(geom, u, 1e-3)


class TestStepSequences:
    """Production steps keep the profile radially non-increasing, obey the max principle and stay under the bound.

    The run is the production loop (error control with rejection) cut
    after 300 accepted steps, or at extinction if that comes first; every
    attempted step, accepted or not, is checked against its own input. The
    accepted ones must also stay under the supersolution kappa0 e^(-r/(p-1))
    (the exp_tail data itself), up to 1e-11 kappa0: the error control lets
    each cell's error reach ATOL = 1e-12 times kappa0, and the excess sits in
    the far tail where the bound is itself about 1e-11 kappa0 (at most
    3.7e-12 kappa0 over four hypothesis seeds of 300 draws each). A
    rejected attempt's error is above tolerance, and the first attempt at
    N = 1, p = 1.99, kappa0 = 0.5, R_inf = 4, M = 64 exceeds the bound by
    1.7e-6 kappa0 before the control cuts its dt. Grids start at 8 cells (``RadialGrid``): on 4 cells of
    width 3 the extrapolated step can raise a cell above its inner
    neighbour (by up to 5e-5 of the peak at N = 2, p = 1.83, R_inf = 12).
    The coarse grids here (cells up to 2.5 wide) need the theta sink: with
    centered sinks, 8 cells of width 1.9 at N = 3, p = 1.97 lose
    monotonicity at t = 1.08 whatever the dt.
    """

    @given(
        N=st.integers(min_value=1, max_value=3),
        frac=st.floats(min_value=0.01, max_value=0.99),
        kappa0=st.floats(min_value=0.5, max_value=2.0),
        R_inf=st.floats(min_value=4.0, max_value=20.0),
        M=st.integers(min_value=8, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    # cells of width 2.2: without the zeroed tail the extrapolation clips cell 7
    # at attempt 18 and cell 8 rises above it
    @example(N=2, frac=0.01, kappa0=1.0, R_inf=20.0, M=9)
    @example(N=1, frac=0.5, kappa0=1.0, R_inf=16.75, M=8)  # cells of width 2.1 at N = 1
    @example(N=1, frac=0.99, kappa0=0.5, R_inf=4.0, M=64)  # a rejected first attempt above the bound
    def test_monotone_and_max_principle(self, N, frac, kappa0, R_inf, M):
        cfg = PdeConfig(params=wedge_params(N, frac), kappa0=kappa0)
        field = make_initial(cfg, make_grid(R_inf, M))
        if field.values.max() <= 10.0 * cfg.extinction_threshold:
            # less than the decade the T_e fit reads: the run refuses the data
            with pytest.raises(ValueError, match="final decade"):
                pde.run_to_extinction(cfg, field)
            return
        attempts = []  # (input, output) of every attempted step
        production_step = pde._step_imex

        def checked_step(geom, u_in, dt):
            u, sat, error = production_step(geom, u_in, dt)
            assert np.all(np.diff(u) <= 0.0)
            assert u.max() <= u_in.max()
            attempts.append((u_in, u))
            return u, sat, error

        with mock.patch.object(pde, "_step_imex", checked_step), mock.patch.object(pde, "MAX_STEPS", 300):
            # data that starts near the threshold dies out before MAX_STEPS
            try:
                steps = pde.run_to_extinction(cfg, field).n_steps
            except MaxStepsExceededError:
                steps = 300
        # an attempt was accepted when the next one starts from its output;
        # the last one was accepted, since the run stopped after it
        accepted = [cur[1] for cur, nxt in zip(attempts, attempts[1:]) if nxt[0] is cur[1]] + [attempts[-1][1]]
        assert len(accepted) == steps
        for u in accepted:
            assert np.all(u <= field.values + 1e-11 * kappa0)


class TestErrorControl:
    """The error controller rejects and retries, and runs end with a usable fit."""

    def test_rejected_attempt_advances_nothing(self):
        cfg = PdeConfig(params=make_params(2, 1.5))
        field = make_initial(cfg, make_grid(8.0, 32))
        attempts = []  # (input, output, dt) of every attempted step
        production_step = pde._step_imex

        def step_with_one_bad_estimate(geom, u_in, dt):
            u, sat, error = production_step(geom, u_in, dt)
            if not attempts:
                error = np.full_like(error, 1.0)  # e ~ 1 / (RTOL peak) >> 1
            attempts.append((u_in, u, dt))
            return u, sat, error

        with mock.patch.object(pde, "_step_imex", step_with_one_bad_estimate):
            frames = pde.run_to_extinction(cfg, field)
        assert frames.rejected_steps >= 1
        accepted = [cur for cur, nxt in zip(attempts, attempts[1:]) if nxt[0] is cur[1]] + attempts[-1:]
        assert frames.n_steps == len(accepted) == len(attempts) - frames.rejected_steps
        assert attempts[1][0] is attempts[0][0]  # the first attempt is retried from the same state
        assert attempts[1][2] < attempts[0][2]  # with a smaller dt
        t = 0.0
        for _, _, dt in accepted:
            t += dt
        assert frames.t[-1] == t  # the rejected dt never reached the clock
        assert frames.dt_min == min(a[2] for a in accepted)
        assert frames.dt_max == max(a[2] for a in accepted)

    @given(
        N=st.integers(min_value=1, max_value=3),
        frac=st.floats(min_value=0.01, max_value=0.99),
        kappa0=st.floats(min_value=0.5, max_value=2.0),
        R_inf=st.floats(min_value=4.0, max_value=20.0),
        M=st.integers(min_value=8, max_value=64),
    )
    @settings(max_examples=20, deadline=None)
    def test_final_decade_holds_enough_records(self, N, frac, kappa0, R_inf, M):
        # REL_CHANGE caps the step where ATOL alone would cross the final
        # decade in a few dozen steps, too few records for the fit; records
        # follow the sup norm, so their count does not grow with the steps
        cfg = PdeConfig(params=wedge_params(N, frac), kappa0=kappa0)
        field = make_initial(cfg, make_grid(R_inf, M))
        # the fit needs a whole final decade, so the run refuses data that
        # starts inside it (at N = 1, p = 1.01 the first cell can hold only
        # ~1e-10 kappa0); TestStepSequences checks the refusal
        assume(field.values.max() > 10.0 * cfg.extinction_threshold)
        frames = pde.run_to_extinction(cfg, field)
        assert np.isfinite(frames.T_e_estimate)
        assert np.count_nonzero(frames.sup <= 10.0 * frames.sup[-1]) >= pde.FIT_MIN_RECORDS
        decades = math.log10(frames.sup[0] / frames.sup[-1])
        assert frames.t.size <= pde.RECORDS_PER_DECADE * decades + len(frames.snapshots) + 1
