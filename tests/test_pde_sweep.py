"""The implicit sweep: the grids it resolves, bit identity with a banded-solver reference, its error checks,
its LAPACK load, step sequences."""

import functools
import itertools
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import solve_banded, solveh_banded

from selfsim import pde
from selfsim.params import make_params, weight_rho
from selfsim.pde import (
    MaxStepsExceededError,
    PdeConfig,
    RadialGrid,
    SingularSweepError,
    _diffusivity,
    _geometry,
    _rows,
    _step_imex,
    _sweep,
    make_initial,
    resolved_couplings,
    run_to_extinction,
)


def reference_couplings(config, grid):
    """(k_up, k_dn): the couplings of a sweep to u_{i+1} and u_{i-1} per unit dt and diffusivity."""
    N, dr = config.params.N, grid.dr
    w_face = grid.faces ** (N - 1)
    # the sink: cell i absorbs theta c(D_{i+1/2}) |D_{i+1/2}| + (1 - theta) c(D_{i-1/2}) |D_{i-1/2}|, lagged,
    # through couplings dt/dr theta c to u_{i+1} and -dt/dr (1 - theta) c to u_{i-1}; theta = 1/2,
    # but cell 0 at N >= 2 absorbs through its outer face alone (its inner face has weight 0)
    theta = np.full(grid.M, 0.5)
    if N > 1:
        theta[0] = 1.0
    q = (grid.faces[:-1] / grid.centers) ** (N - 1) / dr
    k_up = w_face[1:] / (grid.centers ** (N - 1) * dr * dr) + theta / dr
    k_dn = (q - 0.5) / dr  # = r_{i-1/2}^(N-1) / (r_i^(N-1) dr^2) - (1 - theta) / dr
    k_dn[0] = 0.0  # the symmetry face
    return k_up, k_dn


def reference_scale(k_up, k_dn):
    """s with s_{i+1}/s_i = sqrt(k_up_i / k_dn_{i+1}), s_0 = 1.

    Rows i and i+1 couple through the same diffusivity, so diag(s) A diag(s)^-1 is symmetric.
    """
    return np.cumprod(np.sqrt(np.concatenate(([1.0], k_up[:-1] / k_dn[1:]))))


def reference_be_sweep(config, grid, u, dt):
    """The sweep as a band: ``solveh_banded`` on the symmetrised rows.

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


def reference_projection(u, T44):
    """From a non-increasing u: the running minimum of T44 from u's peak, and how far each cell moved."""
    moved = np.zeros_like(T44)
    projected = T44.copy()
    lowest = u[0]
    for i in range(T44.size):
        if projected[i] > lowest:
            moved[i] = projected[i] - lowest
            projected[i] = lowest
        lowest = projected[i]
    return projected, moved


def reference_step(config, grid, u, dt):
    """The extrapolated step T44, projected from a non-increasing u."""
    _, T44, sat4 = reference_tableau(config, grid, u, dt)
    sat = sat4 + int(np.count_nonzero(T44 < 0.0))
    u_new, _ = reference_projection(u, T44)
    # a cell driven to zero or below, or below the smallest normal float, zeroes the tail beyond it
    dead = np.flatnonzero(u_new < np.finfo(float).tiny)
    if dead.size:
        u_new[dead[0]:] = 0.0
    return u_new, sat


def reference_error(config, grid, u, dt):
    """The error estimate |T44 - T43|, or the distance the projection moved a cell where that is larger."""
    T43, T44, _ = reference_tableau(config, grid, u, dt)
    return np.maximum(np.abs(T44 - T43), reference_projection(u, T44)[1])


def one_sweep(geom, u, dt):
    """One production sweep from u, clipped at zero: (result, clipped cells)."""
    u_new = _sweep(geom, _rows(geom, u, _diffusivity(geom, u)), dt, overwrite_rhs=False)
    sat = int(np.count_nonzero(u_new < 0.0))
    np.maximum(u_new, 0.0, out=u_new)
    return u_new, sat


def whole_march():
    """(geometry, u0, steps) of the accepted steps of a (2, 1.5) exp_tail run on 32 cells, to extinction."""
    cfg = PdeConfig(params=make_params(2, 1.5))
    grid = RadialGrid(8.0, 32)
    geom = _geometry(cfg, grid)
    u0 = make_initial(cfg, grid).values
    steps = []
    for step in pde._march(geom, u0):
        steps.append(step)
        if step.u_new[0] <= cfg.extinction_threshold:
            break
    return geom, u0, steps


def wedge_params(N, frac):
    p_c = 2.0 * N / (N + 1.0)
    return make_params(N, p_c + frac * (2.0 - p_c))


class TestBitIdentity:
    @given(
        N=st.integers(min_value=1, max_value=3),
        frac=st.floats(min_value=0.01, max_value=0.99),
        width=st.floats(min_value=0.01, max_value=1.0, exclude_max=True),
        log_dt=st.floats(min_value=-10.0, max_value=1.0),
        values=st.integers(min_value=8, max_value=64).flatmap(
            lambda M: st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=M, max_size=M)
        ),
    )
    @settings(max_examples=30, deadline=None)
    @example(N=1, frac=0.5, width=0.9999, log_dt=-2.0, values=[3.0] * 8)  # cells at the edge, 2 wide
    @example(N=3, frac=0.5, width=0.9999, log_dt=0.0, values=[3.0] * 32 + [1.0] * 32)
    @example(N=2, frac=0.5, width=0.1171875, log_dt=-2.0, values=[3.0] * 64)  # R_inf = 10
    def test_sweep_and_step_match_banded_reference(self, resolved_grid, N, frac, width, log_dt, values):
        cfg = PdeConfig(params=wedge_params(N, frac))
        u = np.sort(np.array(values))[::-1]  # non-increasing, non-negative
        grid = resolved_grid(N, width, u.size)
        dt = 10.0**log_dt
        geom = _geometry(cfg, grid)
        got_be, want_be = one_sweep(geom, u, dt), reference_be_sweep(cfg, grid, u, dt)
        assert np.array_equal(got_be[0], want_be[0])
        assert got_be[1] == want_be[1]
        got, want = _step_imex(geom, u, dt, _diffusivity(geom, u)), reference_step(cfg, grid, u, dt)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert np.array_equal(got[2], reference_error(cfg, grid, u, dt))


class TestRefusal:
    """A run accepts only grids on which every cell i >= 1 couples to its inner neighbour and the scale stays bounded."""

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_the_edge_is_two_thirds_to_the_power_n_minus_one(self, N):
        # cell 1 couples to cell 0 iff dr < 2 (2/3)^(N-1), and the cells further out couple more strongly
        edge, M = 2.0 * (2.0 / 3.0) ** (N - 1), 8
        k_up, k_dn, s = resolved_couplings(N, RadialGrid((1.0 - 1e-6) * edge * M, M))
        assert (k_dn[1:] > 0.0).all() and s[-1] <= pde._S_MAX
        R_inf = (1.0 + 1e-6) * edge * M
        with pytest.raises(ValueError, match=f"M = 8 cells on R_inf = {re.escape(repr(R_inf))} at N = {N} .*M > R_inf / "):
            resolved_couplings(N, RadialGrid(R_inf, M))

    @pytest.mark.parametrize(
        "params, R_inf, M",
        [
            (wedge_params(2, 0.5546875), 19.8125, 14),  # cells 1.42 wide, the edge 1.33
            (make_params(3, 1.97), 15.3, 8),  # cells 1.9 wide, the edge 0.89
            (make_params(2, 1.5), 16.0, 8),
            (make_params(1, 1.5), 20.0, 8),  # cells 2.5 wide, the edge 2
        ],
        ids=["N2-dr1.42", "N3-dr1.9", "N2-dr2", "N1-dr2.5"],
    )
    def test_a_grid_without_every_inner_coupling_is_refused(self, params, R_inf, M):
        # with theta = 1/2 the sink outweighs the inflow from the inner neighbour: the profile could rise outward
        cfg = PdeConfig(params=params)
        grid = RadialGrid(R_inf, M)
        with pytest.raises(ValueError, match=f"M = {M} cells on R_inf = {re.escape(repr(R_inf))} .*inner neighbour"):
            run_to_extinction(cfg, make_initial(cfg, grid))

    def test_grid_past_the_scale_bound_is_refused(self):
        # cells 1.2 wide couple every neighbour at N = 1, but s ~ e^(r/2) passes _S_MAX by r ~ 460
        cfg = PdeConfig(params=make_params(1, 1.5))
        grid = RadialGrid(480.0, 400)
        k_up, k_dn = reference_couplings(cfg, grid)
        assert (k_dn[1:] > 0.0).all()
        with pytest.raises(ValueError, match="M = 400 cells on R_inf = 480.0 .*passes 1e\\+100 at r = 4.*shorter R_inf"):
            _geometry(cfg, grid)

    @pytest.mark.parametrize("N, R_inf", [(1, 1e-78), (2, 1e-100), (2, 1e-300), (5, 1e-70)])
    def test_cells_too_narrow_to_couple_are_refused(self, N, R_inf):
        # the couplings grow like 1/dr^2 and overflow: refused by name, with no numpy warning on the way
        cfg = PdeConfig(params=wedge_params(N, 0.5))
        grid = RadialGrid(R_inf, 8)
        dr = re.escape(repr(grid.dr))
        with pytest.raises(ValueError, match=f"M = 8 cells on R_inf = {re.escape(repr(R_inf))} .*narrow.*dr = {dr}"):
            run_to_extinction(cfg, make_initial(cfg, grid))

    @pytest.mark.parametrize("N, R_inf", [(2, 1e-70), (1, 1e-75)])
    def test_narrow_cells_whose_couplings_are_finite_still_run(self, N, R_inf):
        cfg = PdeConfig(params=make_params(N, 1.5))
        assert run_to_extinction(cfg, make_initial(cfg, RadialGrid(R_inf, 8))).T_e_estimate > 0.0


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
    # two cells with D = 0 at p = 1.01 couple by c = 7.6e11: ptsv meets a pivot of rounding size, gtsv takes over
    @example(N=1, frac=0.01, dr=0.005, log_dt=0.0, values=[0.0] * 6 + [111.0] * 2)
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
            u_new, _, error = _step_imex(geom, u, dt, _diffusivity(geom, u))
            assert np.isfinite(u_new).all() and np.isfinite(error).all()


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
                _step_imex(geom, u, 1e-3, _diffusivity(geom, u))

    @pytest.mark.parametrize("info, error", [(3, SingularSweepError), (-2, ValueError)])
    def test_lapack_failure_raises(self, monkeypatch, info, error):
        # a failed pivot of ptsv (info > 0) hands the rows to gtsv, whose failure is numerical (not
        # numpy's LinAlgError, a ValueError); a bad argument raises at once
        def failing(*arrays, **overwrite):
            return (*arrays, info)

        loaded = []
        monkeypatch.setattr(pde, "_lapack", lambda name: loaded.append(name) or failing)
        cfg = PdeConfig(params=make_params(2, 1.5))
        grid = RadialGrid(8.0, 40)
        geom, u = _geometry(cfg, grid), make_initial(cfg, grid).values
        with pytest.raises(error) as raised:
            _step_imex(geom, u, 1e-3, _diffusivity(geom, u))
        assert not isinstance(raised.value, np.linalg.LinAlgError)
        assert loaded == (["dptsv", "dgtsv"] if info > 0 else ["dptsv"])


# in a fresh interpreter: load the routines in the given order, then hash a production-grid sweep by ptsv and
# the same sweep by gtsv (ptsv made to fail its pivot), once through pde._lapack and once through scipy.linalg.lapack
FRESH_LOAD = textwrap.dedent("""
    import hashlib, json
    {first}
    {second}
    from selfsim import make_params
    same = [pde._lapack(name) is getattr(lapack, name) for name in ("dptsv", "dgtsv")]
    cfg = pde.PdeConfig(params=make_params(2, 1.5))
    grid = pde.RadialGrid(15.0, 2000)
    geom, u = pde._geometry(cfg, grid), pde.make_initial(cfg, grid).values
    rows = pde._rows(geom, u, pde._diffusivity(geom, u))

    def digest(load):
        pde._lapack = load
        return hashlib.sha256(pde._sweep(geom, rows, 1e-3, overwrite_rhs=False).tobytes()).hexdigest()

    def failed_pivot(*arrays, **overwrite):
        return (*arrays, 1)

    digests = {{}}
    for route, load in (("pde", pde._lapack), ("scipy.linalg", lambda name: getattr(lapack, name))):
        digests[route + " ptsv"] = digest(load)
        digests[route + " gtsv"] = digest(lambda name, load=load: failed_pivot if name == "dptsv" else load(name))
    print(json.dumps([same, digests]))
""")
EXTENSION = "from selfsim import pde; pde._lapack('dptsv')"
PACKAGE = "from scipy.linalg import lapack"


class TestLapackLoad:
    """The sweeps load scipy's compiled LAPACK extension without the scipy.linalg package: same routines, same bits."""

    @staticmethod
    def fresh(first, second):
        code = FRESH_LOAD.format(first=first, second=second)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
        return json.loads(out.stdout)

    def test_either_load_order_gives_the_routines_and_bits_of_scipy_linalg(self):
        (same, digests), (same_reversed, digests_reversed) = self.fresh(EXTENSION, PACKAGE), self.fresh(PACKAGE, EXTENSION)
        assert same == same_reversed == [True, True]
        assert digests == digests_reversed
        for solver in ("ptsv", "gtsv"):
            assert digests[f"pde {solver}"] == digests[f"scipy.linalg {solver}"]

    def test_a_missing_extension_is_an_import_error_naming_its_path(self, monkeypatch, tmp_path):
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
        monkeypatch.setattr(pde, "_flapack", functools.cache(pde._flapack.__wrapped__))  # a cache of its own
        with pytest.raises(ImportError, match=f"no _flapack in {re.escape(str(tmp_path / 'linalg'))}"):
            pde._lapack("dptsv")


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
    1.7e-6 kappa0 before the control cuts its dt. Grids start at 8 cells
    (``RadialGrid``), and their cells are drawn up to the widest the sweep
    resolves, 2 (2/3)^(N-1) (``TestRefusal``). No step may lift a cell above
    its inner neighbour, not even by a rounding error.
    """

    @given(
        N=st.integers(min_value=1, max_value=3),
        frac=st.floats(min_value=0.01, max_value=0.99),
        kappa0=st.floats(min_value=0.5, max_value=2.0),
        width=st.floats(min_value=0.01, max_value=1.0, exclude_max=True),
        M=st.integers(min_value=8, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    @example(N=1, frac=0.99, kappa0=0.5, width=0.03125, M=64)  # R_inf = 4: a rejected first attempt above the bound
    @example(N=1, frac=0.5, kappa0=1.0, width=0.9999, M=8)  # cells at the edge
    @example(N=2, frac=0.01, kappa0=1.0, width=0.9999, M=9)
    @example(N=3, frac=0.99, kappa0=2.0, width=0.9999, M=64)
    @example(N=1, frac=0.01953125, kappa0=1.0, width=0.015625, M=14)  # a flat top: T44 lifts cell 1 over cell 0
    @example(N=1, frac=0.01171875, kappa0=2.0, width=0.01, M=8)  # the first step lifts the peak by rounding
    @example(N=1, frac=0.028087827069751853, kappa0=1.817417963740239, width=0.012747540330153968, M=36)  # by 1.5e-6
    def test_monotone_and_max_principle(self, resolved_grid, N, frac, kappa0, width, M):
        cfg = PdeConfig(params=wedge_params(N, frac), kappa0=kappa0)
        field = make_initial(cfg, resolved_grid(N, width, M))
        if field.values.max() <= 10.0 * cfg.extinction_threshold:
            # less than the decade the T_e fit reads: the run refuses the data
            with pytest.raises(ValueError, match="final decade"):
                pde.run_to_extinction(cfg, field)
            return
        attempts = []  # (input, output) of every attempted step
        production_step = pde._step_imex

        def checked_step(geom, u_in, dt, c):
            u, sat, error = production_step(geom, u_in, dt, c)
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

    def test_a_rise_is_refused_before_any_sweep(self, monkeypatch):
        # a bump of 1e-3 in the data is outside the paper's hypotheses: the run refuses it by
        # name, before any step
        def unreachable(*args, **kwargs):
            raise AssertionError("a step ran on rising data")

        monkeypatch.setattr(pde, "_step_imex", unreachable)
        cfg = PdeConfig(params=make_params(2, 1.5), kappa0=1.5)
        grid = RadialGrid(8.0, 32)
        u = make_initial(cfg, grid).values
        u[10] = u[9] + 1e-3
        with pytest.raises(pde.NonMonotoneInitialDataError, match="non-increasing"):
            run_to_extinction(cfg, pde.Field(grid=grid, values=u))


class TestErrorControl:
    """The error controller rejects and retries, and runs end with a usable fit."""

    def test_rejected_attempt_advances_nothing(self):
        cfg = PdeConfig(params=make_params(2, 1.5))
        field = make_initial(cfg, RadialGrid(8.0, 32))
        attempts = []  # (input, output, dt) of every attempted step
        production_step = pde._step_imex

        def step_with_one_bad_estimate(geom, u_in, dt, c):
            u, sat, error = production_step(geom, u_in, dt, c)
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
        for _, _, dt in accepted[:-1]:
            t += dt
        # the rejected dt never reached the clock: the last record, the crossing
        # of the extinction threshold, falls inside the last accepted step
        assert t < frames.t[-1] <= t + accepted[-1][2]
        assert frames.dt_min == min(a[2] for a in accepted)
        assert frames.dt_max == max(a[2] for a in accepted)

    def test_march_chains_its_steps_and_shares_the_diffusivity(self):
        # each step starts where the one before ended, with its end rate u_t = L_h(u) carried over;
        # the diffusivity built once per accepted state gives the bits of one built afresh
        geom, u0, steps = whole_march()
        assert steps[0].t == 0.0 and steps[0].u is u0
        for step, nxt in zip(steps, steps[1:]):
            assert nxt.t == step.t + step.dt
            assert nxt.u is step.u_new and nxt.u_t is step.u_t_new
        for step in steps:
            c = _diffusivity(geom, step.u)
            assert np.array_equal(step.u_t, pde._residual(geom, step.u, c))
            assert np.array_equal(step.u_new, _step_imex(geom, step.u, step.dt, c)[0])
            # the interpolant meets the two ends to the bit
            u, u_t = step.at(0.0)
            assert np.array_equal(u, step.u) and np.array_equal(u_t, step.u_t)
            u, u_t = step.at(1.0)
            assert np.array_equal(u, step.u_new) and np.array_equal(u_t, step.u_t_new)

    def test_crossing_solves_the_cell0_interpolant(self):
        # a level between the step's ends of cell 0 is met where the interpolant's cell 0
        # equals it to a few ulp; the end level u_new[0] is met at theta = 1 exactly, and a
        # level at or above cell 0's value at lo returns lo
        _, _, steps = whole_march()
        for step, frac in itertools.product(steps, [0.001, 0.3, 0.5, 0.9, 0.999]):
            u0, u1 = float(step.u[0]), float(step.u_new[0])
            assert u0 > u1
            assert step.crossing(u1, 0.0) == 1.0
            assert step.crossing(u0, 0.0) == 0.0
            level = u1 + frac * (u0 - u1)
            theta = step.crossing(level, 0.0)
            assert 0.0 < theta < 1.0
            assert abs(float(step.at(theta)[0][0]) - level) <= 4.0 * math.ulp(level)
            lo = 0.5 * theta
            at_lo = float(step.at(lo)[0][0])
            assert step.crossing(at_lo, lo) == lo and step.crossing(2.0 * at_lo, lo) == lo
            theta = step.crossing(level, lo)
            assert lo < theta < 1.0
            assert abs(float(step.at(theta)[0][0]) - level) <= 4.0 * math.ulp(level)

    @pytest.mark.parametrize("ulps", [1, 2, 3])
    def test_an_extinction_threshold_just_below_the_last_threshold_is_met_at_its_crossing(self, monkeypatch, ulps):
        # a peak a few ulp above 1e-10 10^(399/40) puts threshold 399 as many ulp above the
        # extinction threshold 1e-10: cell 0 meets it at the crossing of threshold 399 to
        # brentq's 4 ulp, so ``crossing`` returns its lo there and the two records share t
        cfg = PdeConfig(params=make_params(2, 1.5))
        grid = RadialGrid(8.0, 32)
        shape = make_initial(cfg, grid).values
        peak = 1e-10 * 10.0 ** (399 / 40)
        for _ in range(ulps):
            peak = math.nextafter(peak, math.inf)
        at_lo = []
        production_crossing = pde._Step.crossing

        def crossing(step, level, lo):
            theta = production_crossing(step, level, lo)
            at_lo.append(lo > 0.0 and theta == lo)
            return theta

        monkeypatch.setattr(pde._Step, "crossing", crossing)
        frames = run_to_extinction(cfg, pde.Field(grid, peak * (shape / shape[0])))
        assert len(frames.t) == 401 and frames.sup[-1] == 1e-10 and frames.sup[-2] > 1e-10
        assert frames.t[-1] == frames.t[-2]
        assert at_lo[-1] and not any(at_lo[:-1])

    def test_dense_output_agrees_with_a_tighter_run(self, monkeypatch):
        # records fall at the same thresholds in every run, so a run at RTOL/100 (905 steps
        # against 372 at M = 200) is a reference record by record. Measured: the record times
        # differ by at most 5.5e-7 T_e, and the snapshots of criterion 12's window
        # (T_e - t >= ENDGAME_FRACTION T_e) by 2.2e-6 of their peak; each bound is twice
        # that. Records read off the straight line between step ends miss both bounds
        # (4.1e-5 T_e and 4.8e-5 of the peak)
        cfg = PdeConfig(params=make_params(2, 1.5))
        field = make_initial(cfg, RadialGrid(15.0, 200))
        run = pde.run_to_extinction(cfg, field)
        monkeypatch.setattr(pde, "RTOL", pde.RTOL / 100.0)
        ref = pde.run_to_extinction(cfg, field)
        assert ref.n_steps > 2 * run.n_steps
        assert np.array_equal(run.sup, ref.sup)
        T_e = ref.T_e_estimate
        assert np.max(np.abs(run.t - ref.t)) <= 1.1e-6 * T_e
        kept = [(u, u_ref) for (_, u), (t_ref, u_ref) in zip(run.snapshots, ref.snapshots)
                if T_e - t_ref >= pde.ENDGAME_FRACTION * T_e]
        assert len(kept) == 19
        assert max(np.max(np.abs(u - u_ref)) / u_ref[0] for u, u_ref in kept) <= 4.4e-6

    @given(
        N=st.integers(min_value=1, max_value=3),
        frac=st.floats(min_value=0.01, max_value=0.99),
        kappa0=st.floats(min_value=0.5, max_value=2.0),
        width=st.floats(min_value=0.01, max_value=1.0, exclude_max=True),
        M=st.integers(min_value=8, max_value=64),
    )
    @settings(max_examples=20, deadline=None)
    @example(N=2, frac=0.5, kappa0=1.0, width=0.9999, M=64)  # cells at the edge
    def test_final_decade_holds_enough_records(self, resolved_grid, N, frac, kappa0, width, M):
        # records fall where the peak crosses each threshold sup[0] 10^(-j/40) above the
        # extinction threshold, and at that threshold: their count is set by the data alone,
        # however few steps the error control takes across the final decade
        cfg = PdeConfig(params=wedge_params(N, frac), kappa0=kappa0)
        field = make_initial(cfg, resolved_grid(N, width, M))
        # the fit needs a whole final decade, so the run refuses data that
        # starts inside it (at N = 1, p = 1.01 the first cell can hold only
        # ~1e-10 kappa0); TestStepSequences checks the refusal
        assume(field.values.max() > 10.0 * cfg.extinction_threshold)
        frames = pde.run_to_extinction(cfg, field)
        assert np.isfinite(frames.T_e_estimate)
        assert np.count_nonzero(frames.sup <= 10.0 * frames.sup[-1]) >= pde.FIT_MIN_RECORDS
        above = 1
        while frames.sup[0] * 10.0 ** (-above / pde.RECORDS_PER_DECADE) > cfg.extinction_threshold:
            above += 1
        assert frames.t.size == above + 1
