"""The implicit sweep: bit identity with a banded-solver reference, its error checks, step sequences."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import LinAlgError, solve_banded, solveh_banded

from selfsim import pde
from selfsim.params import make_params, weight_rho
from selfsim.pde import (
    MaxStepsExceededError,
    PdeConfig,
    RadialGrid,
    _diffusivity,
    _geometry,
    _rows,
    _step_imex,
    _sweep,
    make_initial,
    run_to_extinction,
)


def reference_couplings(config, grid):
    """(k_up, k_dn): the couplings of a sweep to u_{i+1} and u_{i-1} per unit dt and diffusivity."""
    N, dr = config.params.N, grid.dr
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
    return k_up, k_dn


def reference_scale(k_up, k_dn):
    """s with s_{i+1}/s_i = sqrt(k_up_i / k_dn_{i+1}), s_0 = 1, or None where a sweep is not symmetrised.

    Rows i and i+1 couple through the same diffusivity, so diag(s) A diag(s)^-1 is
    symmetric; it needs every inner coupling and a scale below pde._S_MAX.
    """
    if not (k_dn[1:] > 0.0).all():
        return None
    with np.errstate(over="ignore"):
        s = np.cumprod(np.sqrt(np.concatenate(([1.0], k_up[:-1] / k_dn[1:]))))
    return s if s[-1] <= pde._S_MAX else None


def reference_be_sweep(config, grid, u, dt):
    """The sweep as a band: ``solveh_banded`` on the symmetrised rows, or ``solve_banded((1, 1), ...)``.

    The symmetrised system is diag(s) A diag(s)^-1 (s u) = s u^n, whose
    off-diagonal is -dt sqrt(k_up_i k_dn_{i+1}) c_{i+1/2}.
    """
    p, M = config.params.p, grid.M
    D = np.empty(M + 1)
    D[1:-1] = np.diff(u) / grid.dr
    D[0] = 0.0
    D[-1] = -u[-1] / grid.dr
    c = (D * D + pde.EPS_REG**2) ** ((p - 2.0) / 2.0)
    k_up, k_dn = reference_couplings(config, grid)
    up = k_up * c[1:]
    dn = k_dn * c[:-1]
    s = reference_scale(k_up, k_dn)
    if s is None:
        ab = np.zeros((3, M))
        ab[0, 1:] = -dt * up[:-1]
        ab[1, :] = 1.0 + dt * (up + dn)
        ab[2, :-1] = -dt * dn[1:]
        u_new = solve_banded((1, 1), ab, u)
    else:
        ab = np.zeros((2, M))  # the upper form: superdiagonal, diagonal
        ab[0, 1:] = -dt * (np.sqrt(k_up[:-1] * k_dn[1:]) * c[1:-1])
        ab[1, :] = 1.0 + dt * (up + dn)
        u_new = solveh_banded(ab, s * u) * (1.0 / s)
    sat = int(np.count_nonzero(u_new < 0.0))
    np.clip(u_new, 0.0, None, out=u_new)
    return u_new, sat


def reference_substeps(config, grid, u, dt, n):
    """n reference sweeps of dt/n from u, each clipped at zero; returns the result and the last clip count."""
    for _ in range(n):
        u, sat = reference_be_sweep(config, grid, u, dt / n)
    return u, sat


def reference_tableau(config, grid, u, dt):
    """T43 and T44 of the Aitken-Neville tableau over the step counts 1, 2, 3 and 4."""
    u1, _ = reference_substeps(config, grid, u, dt, 1)
    u2, _ = reference_substeps(config, grid, u, dt, 2)
    u3, _ = reference_substeps(config, grid, u, dt, 3)
    u4, sat4 = reference_substeps(config, grid, u, dt, 4)
    T22 = 2.0 * u2 - u1
    T32 = 3.0 * u3 - 2.0 * u2
    T33 = T32 + 0.5 * (T32 - T22)
    T42 = 4.0 * u4 - 3.0 * u3
    T43 = 2.0 * T42 - T32
    T44 = T43 + (T43 - T33) / 3.0
    return T43, T44, sat4


def reference_step(config, grid, u, dt):
    """The extrapolated step T44."""
    _, u_new, sat4 = reference_tableau(config, grid, u, dt)
    sat = sat4 + int(np.count_nonzero(u_new < 0.0))
    # a cell that rises above the lowest cell inside it by at most ATOL kappa0 is capped at it
    floor = u_new[0]
    for i in range(u_new.size):
        if 0.0 < u_new[i] - floor <= pde.ATOL * config.kappa0:
            u_new[i] = floor
        floor = min(floor, u_new[i])
    # a cell driven to zero or below, or below the smallest normal float, zeroes the tail beyond it
    dead = np.flatnonzero(u_new < np.finfo(float).tiny)
    if dead.size:
        u_new[dead[0]:] = 0.0
    return u_new, sat


def reference_error(config, grid, u, dt):
    """The error estimate |T44 - T43|."""
    T43, T44, _ = reference_tableau(config, grid, u, dt)
    return np.abs(T44 - T43)


def one_sweep(geom, u, dt):
    """One production sweep from u, clipped at zero: (result, clipped cells)."""
    u_new = _sweep(geom, _rows(geom, u, _diffusivity(geom, u)), dt, overwrite_rhs=False)
    sat = int(np.count_nonzero(u_new < 0.0))
    np.maximum(u_new, 0.0, out=u_new)
    return u_new, sat


def wedge_params(N, frac):
    p_c = 2.0 * N / (N + 1.0)
    return make_params(N, p_c + frac * (2.0 - p_c))


class TestBitIdentity:
    def test_sweep_and_step_match_banded_reference(self):
        symmetrised = []  # per example: did the grid take the ptsv path?

        @given(
            N=st.integers(min_value=1, max_value=3),
            frac=st.floats(min_value=0.01, max_value=0.99),
            R_inf=st.floats(min_value=1.0, max_value=20.0),
            log_dt=st.floats(min_value=-10.0, max_value=1.0),
            values=st.integers(min_value=8, max_value=64).flatmap(
                lambda M: st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=M, max_size=M)
            ),
        )
        @settings(max_examples=30, deadline=None)
        @example(N=1, frac=0.5, R_inf=20.0, log_dt=-2.0, values=[3.0] * 8)  # cells 2.5 wide: no inner coupling
        @example(N=2, frac=0.5, R_inf=10.0, log_dt=-2.0, values=[3.0] * 64)  # fully coupled
        def check(N, frac, R_inf, log_dt, values):
            cfg = PdeConfig(params=wedge_params(N, frac))
            u = np.sort(np.array(values))[::-1]  # non-increasing, non-negative
            grid = RadialGrid(R_inf, u.size)
            dt = 10.0**log_dt
            geom = _geometry(cfg, grid)
            symmetrised.append(geom.s is not None)
            got_be, want_be = one_sweep(geom, u, dt), reference_be_sweep(cfg, grid, u, dt)
            assert np.array_equal(got_be[0], want_be[0])
            assert got_be[1] == want_be[1]
            got, want = _step_imex(geom, u, dt), reference_step(cfg, grid, u, dt)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1]
            assert np.array_equal(got[2], reference_error(cfg, grid, u, dt))

        check()
        assert set(symmetrised) == {True, False}


class TestSymmetrisedSweep:
    """The scaled symmetric sweep solves the unscaled system, in the paper's weight sqrt(rho)."""

    @given(
        N=st.integers(min_value=1, max_value=5),
        frac=st.floats(min_value=0.01, max_value=0.99),
        dr=st.floats(min_value=0.005, max_value=0.39),  # below 2 (2/3)^(N-1): every inner coupling > 0
        log_dt=st.floats(min_value=-10.0, max_value=1.0),
        values=st.integers(min_value=8, max_value=400).flatmap(
            lambda M: st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=M, max_size=M)
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_ptsv_sweep_solves_the_unscaled_rows(self, N, frac, dr, log_dt, values):
        # the componentwise backward error in the unscaled rows, |A x - u| <= tol (|A| |x| + |u|),
        # is blind to the diagonal scaling; a large dt makes the rows ill conditioned, so the
        # results of two backward-stable solvers can differ far above this tolerance. A tail cell
        # below the smallest normal float keeps few bits (x = (s x) / s rounds there), and the
        # step zeroes the tail from such a cell, so the bound has that absolute floor
        cfg = PdeConfig(params=wedge_params(N, frac))
        u = np.sort(np.array(values))[::-1]
        grid = RadialGrid(dr * u.size, u.size)
        dt = 10.0**log_dt
        geom = _geometry(cfg, grid)
        assert geom.s is not None
        c = _diffusivity(geom, u)
        up, dn = dt * geom.k_up * c[1:], dt * geom.k_dn * c[:-1]
        ab = np.zeros((3, u.size))
        ab[0, 1:] = -up[:-1]
        ab[1, :] = 1.0 + up + dn
        ab[2, :-1] = -dn[1:]
        for x in (_sweep(geom, _rows(geom, u, c), dt, overwrite_rhs=False), solve_banded((1, 1), ab, u)):
            terms = np.stack([ab[1] * x, np.zeros_like(x), np.zeros_like(x), -u])
            terms[1, 1:] = ab[2, :-1] * x[:-1]
            terms[2, :-1] = ab[0, 1:] * x[1:]
            bound = 8.0 * np.finfo(float).eps * np.abs(terms).sum(axis=0) + np.finfo(float).tiny
            assert np.all(np.abs(terms.sum(axis=0)) <= bound)

    @pytest.mark.parametrize("N, p", [(2, 1.5), (3, 1.7)])
    def test_scale_is_the_square_root_of_the_weight(self, N, p):
        # s^2 tracks rho = r^(N-1) e^r, the weight of the paper's L^2(rho), on the production grid
        params = make_params(N, p)
        grid = RadialGrid(15.0, 2000)
        ratio = _geometry(PdeConfig(params=params), grid).s / np.sqrt(weight_rho(params, grid.centers))
        assert ratio.max() / ratio.min() - 1.0 <= 3e-3

    def test_scaled_state_stays_finite_at_the_steepest_accepted_data(self):
        # face gradients just below sqrt(max float), past which the first dt is nan and the run
        # refuses the data, on a grid whose scale is just inside _S_MAX: s u reaches ~1e253
        cfg = PdeConfig(params=make_params(1, 1.5))
        grid = RadialGrid(455.0, 4000)
        geom = _geometry(cfg, grid)
        assert 1e98 < geom.s[-1] <= pde._S_MAX
        u = 1.3e154 * (grid.R_inf - grid.centers)
        for dt in (1e-3, 1.0):
            u_new, _, error = _step_imex(geom, u, dt)
            assert np.isfinite(u_new).all() and np.isfinite(error).all()

    def test_grid_past_the_scale_bound_runs_on_gtsv(self):
        # cells 1.2 wide couple every neighbour at N = 1, but s ~ e^(r/2) passes _S_MAX by r ~ 460
        cfg = PdeConfig(params=make_params(1, 1.5))
        grid = RadialGrid(480.0, 400)
        k_up, k_dn = reference_couplings(cfg, grid)
        assert (k_dn[1:] > 0.0).all()
        assert _geometry(cfg, grid).s is None
        frames = run_to_extinction(cfg, make_initial(cfg, grid))
        assert math.isfinite(frames.T_e_estimate)
        assert frames.monotone_violations == 0


class TestSolverChecks:
    """The checks of ``solve_banded`` and ``solveh_banded`` survive the direct LAPACK calls."""

    @pytest.fixture
    def setup(self):
        P = make_params(2, 1.5)
        cfg = PdeConfig(params=P)
        grid = RadialGrid(8.0, 40)
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
    def test_lapack_failure_raises(self, monkeypatch, info, error):
        def failing(*arrays, **overwrite):
            return (*arrays, info)

        loaded = []
        monkeypatch.setattr(pde, "_lapack", lambda name: loaded.append(name) or failing)
        cfg = PdeConfig(params=make_params(2, 1.5))
        # 40 cells 0.2 wide take the symmetrised sweep, 8 cells 2 wide (no inner coupling at N = 2) the general one
        for grid, routine in ((RadialGrid(8.0, 40), "dptsv"), (RadialGrid(16.0, 8), "dgtsv")):
            geom = _geometry(cfg, grid)
            assert (geom.s is not None) == (routine == "dptsv")
            with pytest.raises(error):
                _step_imex(geom, make_initial(cfg, grid).values, 1e-3)
            assert loaded.pop() == routine and not loaded


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
    # cells 1.42 wide, cell 1 without inner coupling: attempt 276 lifts cell 2 above cell 1 by
    # 6e-15 (0.005 ATOL kappa0) at a peak of 2.9e-4, and the step caps it
    @example(N=2, frac=0.5546875, kappa0=1.375, R_inf=19.8125, M=14)
    def test_monotone_and_max_principle(self, N, frac, kappa0, R_inf, M):
        cfg = PdeConfig(params=wedge_params(N, frac), kappa0=kappa0)
        field = make_initial(cfg, RadialGrid(R_inf, M))
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


    @pytest.mark.parametrize("rise", [0.5, 2.0])
    def test_only_a_rise_within_atol_is_capped(self, rise):
        # a cell above its inner neighbour by at most ATOL kappa0, a rounding error the control
        # accepts, is capped at it; a larger rise is kept
        cfg = PdeConfig(params=make_params(2, 1.5), kappa0=1.5)
        grid = RadialGrid(8.0, 32)
        geom = _geometry(cfg, grid)
        u = make_initial(cfg, grid).values
        u[10] = u[9] + rise * pde.ATOL * cfg.kappa0
        uncapped, _, _ = _step_imex(dataclasses.replace(geom, atol=0.0), u, 1e-14)
        u_new, _, _ = _step_imex(geom, u, 1e-14)
        assert np.diff(uncapped)[9] > 0.4 * rise * pde.ATOL * cfg.kappa0
        if rise <= 1.0:
            assert u_new[10] == u_new[9]
            assert np.all(np.diff(u_new) <= 0.0)
        else:
            assert np.array_equal(u_new, uncapped)

    def test_a_rise_above_atol_reaches_the_monitor(self):
        # a bump of 1e-3 in the data is no rounding error: the steps keep it, and the run counts
        # it after the data itself (which counts once) and after the steps that follow
        cfg = PdeConfig(params=make_params(2, 1.5), kappa0=1.5)
        grid = RadialGrid(8.0, 32)
        u = make_initial(cfg, grid).values
        u[10] = u[9] + 1e-3
        frames = run_to_extinction(cfg, pde.Field(grid=grid, values=u))
        assert frames.monotone_violations > 1


class TestErrorControl:
    """The error controller rejects and retries, and runs end with a usable fit."""

    def test_rejected_attempt_advances_nothing(self):
        cfg = PdeConfig(params=make_params(2, 1.5))
        field = make_initial(cfg, RadialGrid(8.0, 32))
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
        field = make_initial(cfg, RadialGrid(R_inf, M))
        # the fit needs a whole final decade, so the run refuses data that
        # starts inside it (at N = 1, p = 1.01 the first cell can hold only
        # ~1e-10 kappa0); TestStepSequences checks the refusal
        assume(field.values.max() > 10.0 * cfg.extinction_threshold)
        frames = pde.run_to_extinction(cfg, field)
        assert np.isfinite(frames.T_e_estimate)
        assert np.count_nonzero(frames.sup <= 10.0 * frames.sup[-1]) >= pde.FIT_MIN_RECORDS
        decades = math.log10(frames.sup[0] / frames.sup[-1])
        assert frames.t.size <= pde.RECORDS_PER_DECADE * decades + len(frames.snapshots) + 1
