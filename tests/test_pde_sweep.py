"""The implicit sweep: bit identity with a banded-solver reference, its error checks, step sequences."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import LinAlgError, solve_banded

from selfsim import pde
from selfsim.params import make_params
from selfsim.pde import MaxStepsExceededError, PdeConfig, _geometry, _step_imex, make_grid, make_initial


def reference_be_sweep(config, grid, u, dt):
    """The sweep as a (3, M) band handed to ``solve_banded((1, 1), ...)``."""
    p, N = config.params.p, config.params.N
    dr, M = grid.dr, grid.M
    D = np.empty(M + 1)
    D[1:-1] = np.diff(u) / dr
    D[0] = 0.0
    D[-1] = -u[-1] / dr
    c = (D * D + config.eps_reg**2) ** ((p - 2.0) / 2.0)
    w_face = grid.faces ** (N - 1)
    if N == 1:
        w_face[0] = 0.0
    lam = dt / (grid.centers ** (N - 1) * dr * dr)
    up = lam * w_face[1:] * c[1:]
    dn = lam * w_face[:-1] * c[:-1]
    ab = np.zeros((3, M))
    ab[0, 1:] = -up[:-1]
    ab[1, :] = 1.0 + up + dn
    ab[2, :-1] = -dn[1:]
    Db = np.empty_like(u)
    Db[1:-1] = (u[2:] - u[:-2]) / (2.0 * dr)
    Db[0] = (u[1] - u[0]) / (2.0 * dr)
    Db[-1] = (0.0 - u[-2]) / (2.0 * dr)
    sink = np.abs(Db) ** (p - 1.0)
    u_new = solve_banded((1, 1), ab, u - dt * sink)
    sat = int(np.count_nonzero(u_new < 0.0))
    np.clip(u_new, 0.0, None, out=u_new)
    return u_new, sat


def reference_step(config, grid, u, dt):
    """Richardson extrapolation of one dt sweep and two dt/2 sweeps."""
    u_big, _ = reference_be_sweep(config, grid, u, dt)
    u_half, _ = reference_be_sweep(config, grid, u, 0.5 * dt)
    u_half, sat_half = reference_be_sweep(config, grid, u_half, 0.5 * dt)
    u_new = 2.0 * u_half - u_big
    sat = sat_half + int(np.count_nonzero(u_new < 0.0))
    np.clip(u_new, 0.0, None, out=u_new)
    return u_new, sat


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
        M = data.draw(st.integers(min_value=4, max_value=64))
        values = data.draw(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=M, max_size=M))
        u = np.sort(np.array(values))[::-1]  # non-increasing, non-negative
        grid = make_grid(R_inf, M)
        dt = 10.0**log_dt
        geom = _geometry(cfg, grid)
        for got, want in (
            (_step_imex(geom, u, dt, plain_be=True), reference_be_sweep(cfg, grid, u, dt)),
            (_step_imex(geom, u, dt), reference_step(cfg, grid, u, dt)),
        ):
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1]


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
                _step_imex(geom, u, 1e-3, plain_be=True)
            with pytest.raises(ValueError):
                _step_imex(geom, u, 1e-3)

    @pytest.mark.parametrize("info, error", [(3, LinAlgError), (-2, ValueError)])
    def test_lapack_failure_raises(self, setup, monkeypatch, info, error):
        geom, u = setup

        def failing_gtsv(dl, d, du, b, **overwrite):
            return dl, d, du, b, info

        monkeypatch.setattr(pde, "dgtsv", failing_gtsv)
        with pytest.raises(error):
            _step_imex(geom, u, 1e-3, plain_be=True)
        with pytest.raises(error):
            _step_imex(geom, u, 1e-3)


class TestStepSequences:
    """Production steps keep the profile radially non-increasing and obey the max principle.

    The run is the production loop (plain-BE starter, step controller) cut
    after 300 steps. Grids start at 8 cells: on 4 cells of width 3 the
    extrapolated step can raise a cell above its inner neighbour (by up to
    5e-5 of the peak at N = 2, p = 1.83, R_inf = 12). The supersolution bound
    kappa0 e^(-r/(p-1)) is not checked here: at M <= 64 the discretization
    exceeds it by ~1e-10 kappa0.
    """

    @given(
        N=st.integers(min_value=1, max_value=3),
        frac=st.floats(min_value=0.01, max_value=0.99),
        kappa0=st.floats(min_value=0.5, max_value=2.0),
        R_inf=st.floats(min_value=4.0, max_value=20.0),
        M=st.integers(min_value=8, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_and_max_principle(self, N, frac, kappa0, R_inf, M):
        cfg = PdeConfig(params=wedge_params(N, frac), kappa0=kappa0)
        field = make_initial(cfg, make_grid(R_inf, M))
        assume(field.values.max() > cfg.extinction_threshold)  # data the run accepts
        peaks = [float(field.values.max())]
        production_step = pde._step_imex

        def checked_step(*args, **kwargs):
            u, sat = production_step(*args, **kwargs)
            assert np.all(np.diff(u) <= 0.0)
            assert u.max() <= peaks[-1]
            peaks.append(float(u.max()))
            return u, sat

        with mock.patch.object(pde, "_step_imex", checked_step), mock.patch.object(pde, "MAX_STEPS", 300):
            with pytest.raises(MaxStepsExceededError):
                pde.run_to_extinction(cfg, field)
        assert len(peaks) == 301
