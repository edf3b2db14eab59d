import math
import os
import re
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from selfsim import pde
from selfsim.acceptance import mass_balance_defect
from selfsim.params import make_params
from selfsim.profile_ode import IntegratorOptions, integrate
from selfsim.pde import (
    BadExtinctionTimeError,
    FrameSeries,
    InsufficientDecayError,
    PdeConfig,
    RadialGrid,
    TimestepUnderflowError,
    compare_to_profile,
    fit_extinction,
    make_initial,
    profile_errors,
    rate_exponent,
    rescale_frames,
    run_to_extinction,
    separable_amplitude,
    separable_initial,
    sphere_area,
    weighted_functionals,
)
from selfsim.pde import (
    CFL_SAFETY,
    _diffusivity,
    _geometry,
    _residual,
    _rows,
    _step_imex,
    _sweep,
)


def explicit_step(geom, u, dt=None):
    """The oracle of the implicit step: forward Euler on L_h, clipped at zero.

    dt defaults to the stability bound, the run's first dt; returns (u_new, dt, clamped cells).
    """
    if dt is None:
        dt = geom.dt_first
    u_new = u + dt * _residual(geom, u, _diffusivity(geom, u))
    clamped = int(np.count_nonzero(u_new < 0.0))
    np.clip(u_new, 0.0, None, out=u_new)
    return u_new, dt, clamped


def face_flux(grid, p, u):
    """(D, Phi(D)) at the faces j = 0..M: Phi(D) = (D^2 + eps^2)^((p-2)/2) D.

    The symmetry ghost u_{-1} = u_0 and the zero ghost u_M = 0 close the gradients.
    """
    D = np.diff(np.concatenate(([u[0]], u, [0.0]))) / grid.dr
    return D, (D * D + pde.EPS_REG**2) ** ((p - 2.0) / 2.0) * D


def flux_slope(D, p):
    """Phi'(D) = (D^2 + eps^2)^((p-4)/2) (eps^2 + (p-1) D^2) at the faces."""
    eps2 = pde.EPS_REG**2
    return (D * D + eps2) ** ((p - 4.0) / 2.0) * (eps2 + (p - 1.0) * D * D)


def flux_form(grid, params, u):
    """L_h as the module docstring writes it: div(r^(N-1) Phi)/r^(N-1) minus the sink.

    Cell i absorbs the mean of its face fluxes, (|Phi_{i+1/2}| + |Phi_{i-1/2}|)/2;
    cell 0 at N >= 2, whose inner face has weight 0, all of |Phi_{1/2}|.
    """
    N, dr = params.N, grid.dr
    _, phi = face_flux(grid, params.p, u)
    div = np.diff(grid.faces ** (N - 1) * phi) / (grid.centers ** (N - 1) * dr)
    sink = 0.5 * (np.abs(phi[1:]) + np.abs(phi[:-1]))
    if N > 1:
        sink[0] = np.abs(phi[1])
    return div - sink


@pytest.fixture(scope="module")
def grid2000():
    return RadialGrid(15.0, 2000)


@pytest.fixture(scope="session")
def sep_frames(ctx):
    return ctx.pde_separable(M=2000)


@pytest.fixture(scope="session")
def exp_frames(ctx):
    return ctx.pde_exp_tail()


def test_sphere_area():
    # math.gamma rounds these three correctly
    assert sphere_area(1) == 2.0
    assert sphere_area(2) == 2.0 * math.pi
    assert sphere_area(3) == 4.0 * math.pi


def test_grid_geometry():
    grid = RadialGrid(15.0, 2000)
    assert grid.dr == pytest.approx(7.5e-3)
    assert grid.centers[0] == pytest.approx(grid.dr / 2.0)
    assert grid.faces[0] == 0.0 and grid.faces[-1] == pytest.approx(15.0)
    with pytest.raises(ValueError):
        RadialGrid(15.0, 2)
    # below 8 cells the extrapolated step can break radial monotonicity
    with pytest.raises(ValueError):
        RadialGrid(12.0, 7)
    assert RadialGrid(12.0, 8).M == 8


@pytest.mark.parametrize(
    "R_inf, M, name",
    [(8.0, 120.5, "M"), (8.0, "abc", "M"), (8.0, True, "M"), (float("nan"), 100, "R_inf"),
     (float("inf"), 100, "R_inf"), (-1.0, 100, "R_inf"), ("8", 100, "R_inf")],
)
def test_grid_checks_its_fields(R_inf, M, name):
    with pytest.raises(ValueError, match=name):
        RadialGrid(R_inf, M)


@pytest.mark.parametrize(
    "kw, name",
    [({"kappa0": "x"}, "kappa0"), ({"kappa0": math.inf}, "kappa0"), ({"kappa0": 0.0}, "kappa0"),
     ({"kappa0": True}, "kappa0"), ({"T0": -1.0}, "T0"), ({"T0": math.nan}, "T0")],
)
def test_config_checks_its_fields(P2, kw, name):
    with pytest.raises(ValueError, match=name):
        PdeConfig(params=P2, **kw)


@pytest.mark.parametrize("p", [1.5, 1.7])
def test_separable_initial_checks_T0_before_the_amplitude(monkeypatch, p):
    # at p = 1.7 a negative T0 gives a complex amplitude, at p = 1.5 the one of -T0
    def unreachable(*args, **kwargs):
        raise AssertionError("the amplitude was evaluated before T0 was checked")

    monkeypatch.setattr(pde, "separable_amplitude", unreachable)
    profile = types.SimpleNamespace(params=make_params(2, p), a=6.0)
    with pytest.raises(ValueError, match="T0"):
        separable_initial(profile, RadialGrid(8.0, 32), T0=-1.0)


def never_accepted(geom, u, dt, c):
    """A stand-in for ``_step_imex`` whose error estimate no dt satisfies."""
    return u.copy(), 0, np.full_like(u, np.inf)


@pytest.mark.parametrize("accepted", [0, 3, 40])
def test_dt_floor_is_ten_ulp_of_the_clock(P2, monkeypatch, accepted):
    # the first attempts are accepted (a zero error estimate, so dt grows 1.25x), every later one is
    # rejected (dt falls 5x): the run stops at the first dt below 10 ulp of t, at t = 0 ten
    # times the smallest subnormal, and not one attempt sooner
    attempts = []

    def accepted_then_never(geom, u, dt, c):
        attempts.append(dt)
        if len(attempts) <= accepted:
            return u.copy(), 0, np.zeros_like(u)
        return never_accepted(geom, u, dt, c)

    monkeypatch.setattr(pde, "_step_imex", accepted_then_never)
    cfg = PdeConfig(params=P2)
    with pytest.raises(TimestepUnderflowError, match="dt underflow"):
        run_to_extinction(cfg, make_initial(cfg, RadialGrid(8.0, 32)))
    t = 0.0
    for dt in attempts[:accepted]:
        t += dt
    floor = 10.0 * (math.nextafter(t, math.inf) - t)
    assert len(attempts) > accepted
    assert min(attempts) == attempts[-1] >= floor > 0.2 * attempts[-1]


def test_run_refuses_data_whose_face_gradients_square_past_the_float_range(monkeypatch):
    # at N = 1, p = 1.1 the first record of kappa0 = 1e154 is finite but the
    # square of its steepest face gradient is not: the diffusivity would read 0
    def unreachable(*args, **kwargs):
        raise AssertionError("a sweep ran before the amplitude was checked")

    monkeypatch.setattr(pde, "_step_imex", unreachable)
    P = make_params(1, 1.1)
    cfg = PdeConfig(params=P, kappa0=1e154)
    grid = RadialGrid(15.0, 100)
    field = make_initial(cfg, grid)
    I, J, _, E = weighted_functionals(P, grid, field.values)
    assert all(map(math.isfinite, (I, J, E)))
    with pytest.raises(ValueError, match=r"kappa0 = 1e\+154 overflows the first record or a squared face gradient"):
        run_to_extinction(cfg, field)


@pytest.mark.parametrize(
    "defect, words",
    [
        (lambda u: u - u[20], "must be non-negative; its last cell is -"),  # cells 21-31 below zero
        (lambda u: np.where(np.arange(u.size) == 5, math.nan, u), "must be finite; got nan"),
        (lambda u: np.where(np.arange(u.size) == 5, math.inf, u), "must be finite; got inf"),
        (lambda u: u[:-1], r"one value per cell, shape \(32,\); got shape \(31,\)"),
        (lambda u: np.stack([u, u]), r"one value per cell, shape \(32,\); got shape \(2, 32\)"),
    ],
    ids=["negative_tail", "nan_cell", "inf_cell", "wrong_length", "two_dimensional"],
)
def test_run_refuses_data_outside_the_hypotheses_before_any_sweep(monkeypatch, P2, defect, words):
    # the paper's data is finite, non-negative and non-increasing, one value per cell; the run
    # checks that once, at its entry, and names the defect
    def unreachable(*args, **kwargs):
        raise AssertionError("a sweep ran before the data was checked")

    monkeypatch.setattr(pde, "_sweep", unreachable)
    cfg = PdeConfig(params=P2)
    grid = RadialGrid(8.0, 32)
    field = pde.Field(grid, defect(make_initial(cfg, grid).values))
    with pytest.raises(ValueError, match=words) as refused:
        run_to_extinction(cfg, field)
    assert not isinstance(refused.value, pde.NonMonotoneInitialDataError)


def test_run_refuses_data_above_kappa0_before_any_sweep(monkeypatch, gs2):
    # kappa0 scales the run's extinction threshold and ATOL: separable data paired by hand with
    # six times its field once ran 310 steps to a T_e of 2.45 (1.0004 from the paired data)
    def unreachable(*args, **kwargs):
        raise AssertionError("a sweep ran before the peak was checked")

    monkeypatch.setattr(pde, "_sweep", unreachable)
    cfg, field = separable_initial(gs2.traj, RadialGrid(15.0, 200))
    assert field.values[0] <= cfg.kappa0
    peak = float(6.0 * field.values[0])
    with pytest.raises(ValueError, match=re.escape(f"initial peak {peak!r} exceeds kappa0 = {cfg.kappa0!r}")):
        run_to_extinction(cfg, pde.Field(field.grid, 6.0 * field.values))


@pytest.mark.parametrize("kappa0", [1e-300, 2.2e-298, 5e-324])
def test_config_refuses_a_subnormal_extinction_threshold(P2, kappa0):
    # 1e-10 kappa0 below the smallest normal float is never crossed: the run
    # would go on until the tail rule zeroes the whole field
    with pytest.raises(ValueError, match="kappa0"):
        PdeConfig(params=P2, kappa0=kappa0)
    assert PdeConfig(params=P2, kappa0=2.3e-298).extinction_threshold >= np.finfo(float).tiny


def test_separable_initial_names_the_source_of_a_tiny_amplitude():
    # at p = 1.9 the amplitude is (0.1 T0)^10 a_*: 1e-300 at T0 = 1e-29, and 0 at T0 = 1e-40
    profile = types.SimpleNamespace(params=make_params(2, 1.9), a=1.0)
    for T0 in (1e-29, 1e-40):
        with pytest.raises(ValueError, match="kappa0.*amplitude follows from T0 and a_"):
            separable_initial(profile, RadialGrid(8.0, 32), T0=T0)


def test_separable_data_names_the_source_of_a_huge_amplitude(gs2):
    # at p = 1.5 the amplitude is (0.5 T0)^2 a_*: 2.5e199 a_* at T0 = 1e100, which overflows the first record
    cfg, field = separable_initial(gs2.traj, RadialGrid(8.0, 16), T0=1e100)
    with pytest.raises(ValueError, match="kappa0 = .* overflows .*amplitude follows from T0 and a_"):
        run_to_extinction(cfg, field)


def test_run_returns_once_the_field_is_zero():
    # a step that zeroes the field crosses every threshold at once: each is
    # recorded on the step's dense output, and the run stops at the crossing of
    # the extinction threshold 1e-10 kappa0, after the 40 snapshots of the
    # 9.8 decades above it; run in a child so a hang fails
    code = textwrap.dedent("""
        import numpy as np
        from selfsim import make_params, pde
        pde._step_imex = lambda geom, u, dt, c: (np.zeros_like(u), 0, np.zeros_like(u))
        cfg = pde.PdeConfig(params=make_params(2, 1.5))
        frames = pde.run_to_extinction(cfg, pde.make_initial(cfg, pde.RadialGrid(8.0, 16)))
        print(frames.n_steps, frames.sup[-1], len(frames.snapshots))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["1", "1e-10", "40"]


def test_default_domain_truncation_is_negligible(P2):
    # at the production defaults the Dirichlet boundary sits where the
    # admissible data bound has decayed below 1e-12 of the amplitude
    assert math.exp(-15.0 / (P2.p - 1.0)) < 1e-12


class TestConfig:
    def test_extinction_threshold_default(self, P2):
        cfg = PdeConfig(params=P2, kappa0=2.0)
        assert cfg.extinction_threshold == pytest.approx(2e-10)

    def test_rejects_bad_fields(self, P2):
        with pytest.raises(ValueError):
            PdeConfig(params=P2, init_kind="wrong")
        with pytest.raises(ValueError):
            PdeConfig(params=P2, kappa0=0.0)


class TestInitialData:
    def test_exp_tail_values(self, P2, grid2000):
        cfg = PdeConfig(params=P2, kappa0=1.0)
        field = make_initial(cfg, grid2000)
        expect = np.exp(-grid2000.centers / (P2.p - 1.0))
        assert np.array_equal(field.values, expect)
        assert field.values.max() > 0.99  # u -> kappa0 at the center

    def test_separable_peak(self, gs2, grid2000):
        # ((2-p) T0)^(1/(2-p)) = 0.25 at p = 3/2, T0 = 1
        cfg, field = separable_initial(gs2.traj, grid2000)
        assert cfg.kappa0 == 0.25 * gs2.a_star
        assert field.values.max() == pytest.approx(0.25 * gs2.a_star, rel=1e-4)

    def test_make_initial_refuses_separable_data_by_name(self, P2, grid2000):
        # separable data follows its profile: a config alone cannot build it
        cfg = PdeConfig(params=P2, init_kind="separable")
        with pytest.raises(ValueError, match=r"separable_initial\(profile, grid, T0\)"):
            make_initial(cfg, grid2000)

    @pytest.mark.parametrize("ratio, status", [(1.1, "FZero"), (0.9, "horizon")], ids=["A_side", "C_side"])
    def test_separable_initial_reads_the_run(self, P2, gs2, ratio, status):
        # from f(.; a) on either side of a_*: the A run is cut at its zero inside the grid,
        # the C run covers it; the config and the data share one amplitude and the run's height
        traj = integrate(P2, ratio * gs2.a_star)
        assert traj.status == status and (traj.r_end < 15.0) == (status == "FZero")
        grid = RadialGrid(15.0, 300)
        cfg, field = separable_initial(traj, grid, T0=0.5)
        amp = separable_amplitude(P2, 0.5)
        assert (cfg.params, cfg.init_kind, cfg.T0) == (P2, "separable", 0.5)
        assert cfg.kappa0 == amp * traj.a
        assert field.grid == grid and np.array_equal(field.values, amp * pde._profile_on_grid(traj, grid))
        assert np.all(field.values[grid.centers > traj.r_end] == 0.0) and np.all(np.diff(field.values) <= 0.0)


class TestExplicitStep:
    def test_zero_is_fixed_point(self, P2):
        geom = _geometry(PdeConfig(params=P2), RadialGrid(10.0, 64))
        u_new, _, clamped = explicit_step(geom, np.zeros(64))
        assert np.array_equal(u_new, np.zeros(64))
        assert clamped == 0

    def test_separable_one_step_decay_rate(self, gs2, grid2000, monkeypatch):
        # d/dt log ||u|| = -1/((2-p) T0) = -2 at t = 0, up to discretization
        monkeypatch.setattr(pde, "EPS_REG", 1e-8)
        cfg, field = separable_initial(gs2.traj, grid2000)
        u0 = field.values
        u1, dt, _ = explicit_step(_geometry(cfg, grid2000), u0)
        rate = (u1.max() - u0.max()) / dt / u0.max()
        assert rate == pytest.approx(-2.0, rel=0.10)

    def test_monotone_preserved_over_1000_steps(self, gs2, grid2000, monkeypatch):
        monkeypatch.setattr(pde, "EPS_REG", 1e-8)
        cfg, field = separable_initial(gs2.traj, grid2000)
        geom, u = _geometry(cfg, grid2000), field.values
        clamps = 0
        for _ in range(1000):
            u, _, c = explicit_step(geom, u)
            clamps += c
        assert np.all(np.diff(u) <= 1e-13 * u.max())  # monitor count 0
        # clamp monitor: < 0.1% of cell updates
        assert clamps / (1000 * grid2000.M) < 1e-3

    @pytest.mark.parametrize("eps, top, sink_binds", [(1e-4, 100.0, False)])
    def test_dt_rule_is_the_flux_form_rule(self, P2, monkeypatch, eps, top, sink_binds):
        # the first dt is cfl dr^2 / (2 max Phi'(D)), to the bit; the absorption bound
        # dr / max(1, max |Phi(D)|), which the rule no longer takes, does not bind on these data
        monkeypatch.setattr(pde, "EPS_REG", eps)
        grid = RadialGrid(10.0, 100)
        u = np.linspace(top, 0.0, 100)
        D, phi = face_flux(grid, P2.p, u)
        diffusive = grid.dr * grid.dr / (2.0 * flux_slope(D, P2.p).max())
        absorption = grid.dr / max(1.0, np.abs(phi).max())
        assert (absorption < diffusive) == sink_binds
        assert _geometry(PdeConfig(params=P2), grid).dt_first == CFL_SAFETY * diffusive

    @given(
        N=st.integers(min_value=1, max_value=3),
        frac=st.floats(min_value=0.01, max_value=0.99),
        width=st.floats(min_value=0.01, max_value=1.0, exclude_max=True),
        kappa0=st.floats(min_value=0.5, max_value=2.0),
        exp_tail=st.booleans(),
        values=st.integers(min_value=8, max_value=64).flatmap(
            lambda M: st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=M, max_size=M)
        ),
    )
    @settings(max_examples=60, deadline=None)
    @example(N=1, frac=0.5, kappa0=1.0, width=0.9999, exp_tail=True, values=[0.0] * 8)  # cells at the edge
    @example(N=3, frac=0.99, kappa0=0.5, width=0.9999, exp_tail=False, values=list(range(64)))
    # a face gradient of 1.43e-20, where Phi'(D) falls short of Phi'(0) by less than
    # rounding: the float Phi' reads one ulp above its value at the flat center face
    @example(N=1, frac=0.45, kappa0=1.0, width=0.5, exp_tail=False, values=[1.0] * 7 + [1.43e-20])
    def test_first_dt_is_the_bound_at_the_flat_center(self, resolved_grid, N, frac, kappa0, width, exp_tail, values):
        # Phi' falls with |D| and D_0 = 0, so the explicit bound cfl dr^2 / (2 max Phi'(D))
        # over any non-increasing data is the grid's constant dt_first, to the bit; only at
        # a face where Phi'(D) falls short of Phi'(0) by less than rounding, a relative
        # 1.5 (2 - p) D^2 / eps^2 below a few ulp, may the float Phi' read a few ulp above it
        p_c = 2.0 * N / (N + 1.0)
        cfg = PdeConfig(params=make_params(N, p_c + frac * (2.0 - p_c)), kappa0=kappa0)
        p, ulp = cfg.params.p, 2.0**-52
        grid = resolved_grid(N, width, len(values))
        u = make_initial(cfg, grid).values if exp_tail else np.sort(np.array(values, dtype=float))[::-1]
        D, _ = face_flux(grid, p, u)
        slope = flux_slope(D, p)
        assert D[0] == 0.0
        assert _geometry(cfg, grid).dt_first == CFL_SAFETY * (grid.dr * grid.dr / (2.0 * slope[0]))
        lifted = slope > slope[0]
        assert np.all(1.5 * (2.0 - p) * D[lifted] ** 2 / pde.EPS_REG**2 < 4.0 * ulp)
        assert slope.max() <= slope[0] * (1.0 + 4.0 * ulp)


class TestResidual:
    @given(
        N=st.integers(min_value=1, max_value=3),
        frac=st.floats(min_value=0.01, max_value=0.99),
        width=st.floats(min_value=0.01, max_value=1.0, exclude_max=True),
        values=st.integers(min_value=8, max_value=64).flatmap(
            lambda M: st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=M, max_size=M)
        ),
    )
    @settings(max_examples=60, deadline=None)
    @example(N=1, frac=0.5, width=0.9999, values=[3.0] * 4 + [1.0] * 4)  # cells at the edge
    @example(N=3, frac=0.5, width=0.9999, values=list(range(64)))
    def test_matches_the_flux_form_on_non_increasing_data(self, resolved_grid, N, frac, width, values):
        p_c = 2.0 * N / (N + 1.0)
        P = make_params(N, p_c + frac * (2.0 - p_c))
        u = np.sort(np.array(values, dtype=float))[::-1]  # non-increasing, non-negative: every Phi <= 0
        grid = resolved_grid(N, width, u.size)
        ref = flux_form(grid, P, u)
        geom = _geometry(PdeConfig(params=P), grid)
        residual = _residual(geom, u, _diffusivity(geom, u))
        assert np.max(np.abs(residual - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestCrossValidation:
    @staticmethod
    def _explicit_and_imex(geom, u0, t_end, dt_explicit=None):
        """u at t_end from the explicit oracle and from the implicit step on a growing dt."""
        u, t = u0.copy(), 0.0
        while t < t_end:
            u, dt, _ = explicit_step(geom, u, None if dt_explicit is None else min(dt_explicit, t_end - t + 1e-16))
            t += dt
        v, t, dt = u0.copy(), 0.0, 1e-7
        while t < t_end:
            dt = min(dt, t_end - t + 1e-16)
            v, _, _ = _step_imex(geom, v, dt, _diffusivity(geom, v))
            t += dt
            dt = min(dt * 1.2, 2e-4)
        return u, v

    def test_explicit_matches_imex(self, gs2, monkeypatch):
        # same spatial operator, two steppers; coarse grid, eps large enough
        # for the explicit dt rule to be affordable
        monkeypatch.setattr(pde, "EPS_REG", 1e-4)
        grid = RadialGrid(10.0, 250)
        cfg, field = separable_initial(gs2.traj, grid)
        u0 = field.values
        u, v = self._explicit_and_imex(_geometry(cfg, grid), u0, 0.05)
        assert np.max(np.abs(u - v)) / u.max() < 1e-3
        # both match the analytic separable peak law (1 - t)^2
        exact = u0.max() * (1.0 - 0.05) ** 2
        assert u.max() == pytest.approx(exact, rel=1e-3)
        assert v.max() == pytest.approx(exact, rel=1e-3)


class TestFunctionals:
    def test_zero_field(self, P2, grid2000):
        I, J, D, E = weighted_functionals(P2, grid2000, np.zeros(grid2000.M))
        assert I == 0.0 and J == 0.0 and E == 0.0

    def test_against_quadrature(self, P2):
        # u = e^(-r^2/4) is dead at R_inf (the outer ghost face carries the
        # scheme's Dirichlet jump, so fields must vanish there for the
        # discrete functionals to estimate the continuum integrals)
        grid = RadialGrid(15.0, 4000)
        u = np.exp(-grid.centers**2 / 4.0)
        I, J, _, E = weighted_functionals(P2, grid, u)
        I_ref = math.pi * quad(lambda r: r * np.exp(r) * np.exp(-r**2 / 2.0), 0.0, 15.0)[0]
        J_ref = (2.0 * math.pi / P2.p) * quad(
            lambda r: r * np.exp(r) * (r / 2.0 * np.exp(-r**2 / 4.0)) ** P2.p, 0.0, 15.0
        )[0]
        assert I == pytest.approx(I_ref, rel=1e-5)
        assert J == pytest.approx(J_ref, rel=1e-4)
        assert E == pytest.approx(J - I, rel=1e-12)

    def test_dissipation_of_the_rate(self, P2, grid2000):
        # D = |S^(N-1)| sum_i rho_i u_t,i^2 dr of a given rate u_t, rho = r^(N-1) e^r; nan without one
        r = grid2000.centers
        u = np.exp(-r)
        u_t = -0.5 * r * np.exp(-r)
        D = weighted_functionals(P2, grid2000, u, u_t)[2]
        assert D == pytest.approx(2.0 * math.pi * np.sum(r * np.exp(r) * u_t**2) * grid2000.dr, rel=1e-13)
        assert math.isnan(weighted_functionals(P2, grid2000, u)[2])


class TestFits:
    def _synthetic(self, P2, T_e=0.8, n=200):
        # log-spaced records so every decade of the sup norm is populated
        t = T_e - np.geomspace(0.4, 0.005, n)
        sup = (2.0 * (T_e - t)) ** P2.e_time
        frames = FrameSeries(grid=RadialGrid(1.0, 8), config=PdeConfig(params=P2))
        frames.t, frames.sup = t, sup
        return frames

    def test_exact_power_law_recovered(self, P2):
        frames = self._synthetic(P2)
        T_e, r2 = fit_extinction(frames)
        assert T_e == pytest.approx(0.8, rel=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        m, _ = rate_exponent(frames, T_e)
        assert m == pytest.approx(P2.e_time, rel=1e-8)

    def test_constant_input_is_insufficient(self, P2):
        frames = FrameSeries(grid=RadialGrid(1.0, 8), config=PdeConfig(params=P2))
        frames.t = np.linspace(0.0, 1.0, 100)
        frames.sup = np.ones(100)
        with pytest.raises(InsufficientDecayError):
            fit_extinction(frames)

    def test_too_few_records(self, P2):
        frames = self._synthetic(P2, n=10)
        with pytest.raises(InsufficientDecayError):
            fit_extinction(frames)

    def test_a_failed_fit_fails_the_run(self, P2, monkeypatch):
        # the run does not hand back T_e = nan: a fit that fails raises through run_to_extinction
        def no_fit(frames):
            raise InsufficientDecayError("no final decade")

        monkeypatch.setattr(pde, "fit_extinction", no_fit)
        cfg = PdeConfig(params=P2)
        with pytest.raises(InsufficientDecayError, match="no final decade"):
            run_to_extinction(cfg, make_initial(cfg, RadialGrid(8.0, 32)))


class TestRescale:
    def test_initial_frame_formula(self, P2, sep_frames):
        T_e = sep_frames.T_e_estimate
        (s0, v0) = rescale_frames(sep_frames, T_e)[0]
        t0, u0 = sep_frames.snapshots[0]
        assert s0 == 0.0 and t0 == 0.0
        assert np.allclose(v0, u0 / ((2.0 - P2.p) * T_e) ** P2.e_time, rtol=1e-14)

    def test_bad_extinction_time(self, P2, sep_frames):
        with pytest.raises(BadExtinctionTimeError):
            rescale_frames(sep_frames, sep_frames.snapshots[1][0])

    def test_profile_errors_is_built_from_the_parts(self, gs2, sep_frames):
        cmp = profile_errors(sep_frames, gs2.traj)
        rescaled = rescale_frames(sep_frames, sep_frames.T_e_estimate)
        assert np.array_equal(cmp.t, [t_k for t_k, _ in sep_frames.snapshots])
        assert np.array_equal(cmp.s, [s_k for s_k, _ in rescaled])
        assert np.array_equal(cmp.v, [v_k for _, v_k in rescaled])
        assert np.array_equal(cmp.sup_error, compare_to_profile(sep_frames, rescaled, gs2.traj))
        # both windows keep a leading run of snapshots; T_e ~ T0, so the oracle
        # window lies inside the pre-endgame one
        assert pde.ORACLE_HORIZON < 1.0 - pde.ENDGAME_FRACTION
        for mask in (cmp.oracle, cmp.before_endgame):
            assert mask[0] and not mask[-1] and np.all(np.diff(mask.astype(int)) <= 0)
        assert np.all(cmp.before_endgame[cmp.oracle])
        assert cmp.oracle.sum() < cmp.before_endgame.sum()

    def test_profile_must_cover_grid(self, P2, gs2, sep_frames):
        short = integrate(P2, gs2.a_star, IntegratorOptions(r_max=10.0))
        with pytest.raises(ValueError, match=r"ends at r_end = 10\.0 \(horizon\), short of R_inf = 15\.0"):
            compare_to_profile(sep_frames, rescale_frames(sep_frames, 2.0), short)

    def test_profile_of_another_point_is_refused(self, gs3, exp_frames):
        # an exp_tail (2, 1.5) run against the (3, 1.7) ground state read sup errors of about 3.6
        words = r"the run and the profile must share \(N, p\), got \(2, 1\.5\) and \(3, 1\.7\)"
        with pytest.raises(ValueError, match=words):
            compare_to_profile(exp_frames, rescale_frames(exp_frames, exp_frames.T_e_estimate), gs3.traj)
        with pytest.raises(ValueError, match=words):
            profile_errors(exp_frames, gs3.traj)

    def test_profile_below_its_series_start_is_read_at_the_start(self, gs2):
        # below r[0] the profile is flat to O(eps^2), so those centers read f(r[0]); a real
        # grid puts a center there only past M ~ 4e7, so the grid here is a stand-in
        r0 = gs2.traj.r[0]
        centers = np.array([0.25 * r0, 0.5 * r0, r0, 2.0 * r0, 1.0, 10.0])
        f = pde._profile_on_grid(gs2.traj, types.SimpleNamespace(R_inf=15.0, centers=centers))
        f0 = gs2.traj.eval(r0)[0]
        assert np.array_equal(f[:3], [f0] * 3)
        assert np.array_equal(f[3:], np.clip(gs2.traj.eval(centers[3:])[0], 0.0, None))

    def test_profile_ending_at_its_zero_covers_grid(self, P2, gs2):
        # a bisection midpoint on the A side of a_* stops at its first zero
        # short of R_inf = 15; past the trust radius f_* is below ~1e-10, so
        # the zero-extended profile still stands in for the ground state
        a_side = integrate(P2, gs2.a_star + 1e-9)
        assert a_side.status == "FZero" and a_side.r_end < 15.0
        grid = RadialGrid(15.0, 300)
        u = separable_initial(a_side, grid)[1].values
        cfg, field = separable_initial(gs2.traj, grid)
        u_star = field.values
        assert np.all(u[grid.centers > a_side.r_end] == 0.0)
        assert np.max(np.abs(u - u_star)) < 1e-8
        v_star = u_star / separable_amplitude(P2, 1.0)
        frames = FrameSeries(grid=grid, config=cfg)
        assert compare_to_profile(frames, [(0.0, v_star)], a_side)[0] < 1e-8


class TestSweepProperties:
    """One BE sweep: an M-matrix solve with the sink in the matrix."""

    @given(
        N=st.integers(min_value=1, max_value=3),
        frac=st.floats(min_value=0.01, max_value=0.99),
        width=st.floats(min_value=0.01, max_value=1.0, exclude_max=True),
        log_dt=st.floats(min_value=-10.0, max_value=1.0),
        values=st.integers(min_value=8, max_value=64).flatmap(
            lambda M: st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=M, max_size=M)
        ),
    )
    @settings(max_examples=40, deadline=None)
    @example(N=1, frac=0.5, width=0.9999, log_dt=1.0, values=[3.0] * 4 + [1.0] * 4)  # cells at the edge
    @example(N=2, frac=0.5, width=0.9999, log_dt=1.0, values=list(range(64)))
    def test_nonnegative_and_max_principle(self, resolved_grid, N, frac, width, log_dt, values):
        p_c = 2.0 * N / (N + 1.0)
        P = make_params(N, p_c + frac * (2.0 - p_c))
        u = np.sort(np.array(values, dtype=float))[::-1]  # non-increasing, non-negative
        geom = _geometry(PdeConfig(params=P), resolved_grid(N, width, u.size))
        assert geom.k_dn[0] == 0.0 and (geom.k_dn[1:] > 0.0).all()
        dt = 10.0**log_dt
        u_new = _sweep(geom, _rows(geom, u, _diffusivity(geom, u)), dt, overwrite_rhs=False)
        np.maximum(u_new, 0.0, out=u_new)
        assert np.all(u_new >= 0.0)
        # exact for the exact solve; the float solve may overshoot by roundoff
        assert u_new.max() <= u.max() * (1.0 + 1e-13)


class TestSeparableRun:
    def test_extinction_time(self, sep_frames):
        assert sep_frames.T_e_estimate == pytest.approx(1.0, rel=0.02)

    def test_norm_and_mass_monotone(self, sep_frames):
        assert np.all(np.diff(sep_frames.sup) <= 0.0)
        assert np.all(np.diff(sep_frames.I) <= 1e-12 * sep_frames.I[0])

    def test_frames_stay_on_profile(self, gs2, sep_frames):
        cmp = profile_errors(sep_frames, gs2.traj)
        assert cmp.sup_error[cmp.oracle].max() <= 0.03 * gs2.a_star

    def test_rescaled_norm_floor(self, gs2, sep_frames):
        cmp = profile_errors(sep_frames, gs2.traj)
        assert cmp.v[cmp.before_endgame].max(axis=1).min() > 0.5 * gs2.a_star

    def test_mass_balance_law(self, sep_frames):
        # dI/dt = -p J over criterion 12's mid-run window, records up to 1.54:1 apart
        assert mass_balance_defect(sep_frames) < 2e-3

    def test_no_instability_monitors(self, sep_frames):
        assert sep_frames.clamp_events == 0
        assert sep_frames.monotone_violations == 0


class TestExpTailRun:
    def test_supersolution_bound(self, exp_frames):
        assert exp_frames.supersolution_excess <= 1e-12

    def test_rate_fit(self, P2, exp_frames):
        assert exp_frames.rate_r2 >= 0.999
        m, _ = rate_exponent(exp_frames, exp_frames.T_e_estimate)
        assert m == pytest.approx(P2.e_time, rel=0.10)

    def test_convergence_to_profile(self, gs2, exp_frames):
        cmp = profile_errors(exp_frames, gs2.traj)
        kept = cmp.sup_error[cmp.before_endgame]
        assert kept[-1] <= 0.05 * gs2.a_star
        assert kept[-3] >= kept[-2] >= kept[-1]

    def test_mass_balance_law_second_order(self, exp_frames):
        # dI/dt = -p J over criterion 12's mid-run window, with the three-point
        # derivative that is second order on uneven record intervals (records
        # follow the sup norm and land a few steps apart, so neighbouring
        # intervals differ by up to 1.35:1)
        assert mass_balance_defect(exp_frames) < 2e-3

    def test_step_count(self, exp_frames):
        # the production run: 399 steps of the fourth-order extrapolation, set by the error control alone
        assert exp_frames.n_steps <= 405
        assert exp_frames.rejected_steps == 0
        assert exp_frames.t.size == 401

    def test_records_fall_at_the_indexed_thresholds(self, exp_frames):
        # record j > 0 is where the peak crosses sup[0] 10^(-j/40), read off the step's dense
        # output, up to the last one above the extinction threshold; the run ends with the
        # crossing of that threshold, and every 10th record but the last is a snapshot
        frames, per_decade = exp_frames, pde.RECORDS_PER_DECADE
        ext_tol = frames.config.extinction_threshold
        levels = [frames.sup[0] * 10.0 ** (-j / per_decade) for j in range(1, frames.t.size - 1)]
        assert np.array_equal(frames.sup[1:-1], levels)
        assert frames.sup[-1] == ext_tol
        assert frames.sup[0] * 10.0 ** (-(frames.t.size - 1) / per_decade) <= ext_tol < levels[-1]
        assert np.all(np.diff(frames.t) > 0.0)
        stride = per_decade // pde.SNAPSHOTS_PER_DECADE
        assert np.array_equal([t_k for t_k, _ in frames.snapshots], frames.t[:-1:stride])
        for (_, u_k), sup in zip(frames.snapshots, frames.sup[:-1:stride]):
            assert np.all(np.diff(u_k) <= 0.0) and u_k[-1] >= 0.0
            assert abs(u_k[0] - sup) <= 1e-12 * sup
        assert math.isnan(frames.D[0]) and np.all(np.isfinite(frames.D[1:]))

    def test_energy_chain_nonincreasing(self, P2, gs2, exp_frames):
        cmp = profile_errors(exp_frames, gs2.traj)
        E_v = np.array([weighted_functionals(P2, exp_frames.grid, v)[3] for v in cmp.v[cmp.before_endgame]])
        assert np.all(E_v >= 0.0)
        assert np.max(np.diff(E_v)) <= 1e-3 * E_v[0]
