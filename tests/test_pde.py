import math
import os
import subprocess
import sys
import textwrap
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
    separable_config,
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
    explicit_dt,
)


def explicit_step(geom, u, dt=None):
    """The oracle of the implicit step: forward Euler on L_h, clipped at zero.

    dt defaults to the stability rule at u; returns (u_new, dt, clamped cells).
    """
    if dt is None:
        dt = explicit_dt(geom, u)
    u_new = u + dt * _residual(geom, u)
    clamped = int(np.count_nonzero(u_new < 0.0))
    np.clip(u_new, 0.0, None, out=u_new)
    return u_new, dt, clamped


def face_flux(grid, p, u):
    """(D, Phi(D)) at the faces j = 0..M: Phi(D) = (D^2 + eps^2)^((p-2)/2) D.

    The symmetry ghost u_{-1} = u_0 and the zero ghost u_M = 0 close the gradients.
    """
    D = np.diff(np.concatenate(([u[0]], u, [0.0]))) / grid.dr
    return D, (D * D + pde.EPS_REG**2) ** ((p - 2.0) / 2.0) * D


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
def test_separable_config_checks_T0_before_the_amplitude(p):
    # at p = 1.7 a negative T0 gives a complex amplitude, at p = 1.5 the one of -T0
    with pytest.raises(ValueError, match="T0"):
        separable_config(make_params(2, p), 6.0, T0=-1.0)


def never_accepted(geom, u, dt):
    """A stand-in for ``_step_imex`` whose error estimate no dt satisfies."""
    return u.copy(), 0, np.full_like(u, np.inf)


def test_run_stops_when_dt_underflows(P2, monkeypatch):
    # every attempt is rejected, so dt falls 5x per attempt until the guard stops the run
    monkeypatch.setattr(pde, "_step_imex", never_accepted)
    cfg = PdeConfig(params=P2)
    with pytest.raises(TimestepUnderflowError, match="underflow"):
        run_to_extinction(cfg, make_initial(cfg, RadialGrid(8.0, 32)))


@pytest.mark.parametrize("kappa0", [1e-300, 2.2e-298, 5e-324])
def test_config_refuses_a_subnormal_extinction_threshold(P2, kappa0):
    # 1e-10 kappa0 below the smallest normal float is never crossed: the run
    # would go on until the tail rule zeroes the whole field
    with pytest.raises(ValueError, match="kappa0"):
        PdeConfig(params=P2, kappa0=kappa0)
    assert PdeConfig(params=P2, kappa0=2.3e-298).extinction_threshold >= np.finfo(float).tiny


def test_separable_config_names_the_source_of_a_tiny_amplitude():
    # at p = 1.9 the amplitude is (0.1 T0)^10 a_*: 1e-300 at T0 = 1e-29, and 0 at T0 = 1e-40
    for T0 in (1e-29, 1e-40):
        with pytest.raises(ValueError, match="kappa0.*amplitude follows from T0 and a_"):
            separable_config(make_params(2, 1.9), 1.0, T0=T0)


def test_separable_data_names_the_source_of_a_huge_amplitude():
    # at p = 1.5 the amplitude is (0.5 T0)^2 a_*: 2.5e199 a_* at T0 = 1e100, which overflows the first record
    P = make_params(2, 1.5)
    cfg = separable_config(P, 1.0, T0=1e100)
    field = pde.Field(RadialGrid(8.0, 16), np.full(16, cfg.kappa0))
    with pytest.raises(ValueError, match="kappa0 = .* overflows .*amplitude follows from T0 and a_"):
        run_to_extinction(cfg, field)


def test_run_returns_once_the_field_is_zero():
    # a step that zeroes the field leaves a peak of 0, which the record and
    # snapshot thresholds never pass by scaling; run in a child so a hang fails
    code = textwrap.dedent("""
        import numpy as np
        from selfsim import make_params, pde
        pde._step_imex = lambda geom, u, dt: (np.zeros_like(u), 0, np.zeros_like(u))
        cfg = pde.PdeConfig(params=make_params(2, 1.5))
        frames = pde.run_to_extinction(cfg, pde.make_initial(cfg, pde.RadialGrid(8.0, 16)))
        print(frames.n_steps, frames.sup[-1], len(frames.snapshots))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["1", "0.0", "2"]


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

    def test_separable_peak(self, P2, gs2, grid2000):
        # ((2-p) T0)^(1/(2-p)) = 0.25 at p = 3/2, T0 = 1
        cfg = separable_config(P2, gs2.a_star)
        assert cfg.kappa0 == 0.25 * gs2.a_star
        field = make_initial(cfg, grid2000, gs2.traj)
        assert field.values.max() == pytest.approx(0.25 * gs2.a_star, rel=1e-4)

    def test_separable_needs_profile(self, P2, grid2000):
        cfg = PdeConfig(params=P2, init_kind="separable")
        with pytest.raises(ValueError):
            make_initial(cfg, grid2000)


class TestExplicitStep:
    def test_zero_is_fixed_point(self, P2):
        geom = _geometry(PdeConfig(params=P2), RadialGrid(10.0, 64))
        u_new, _, clamped = explicit_step(geom, np.zeros(64))
        assert np.array_equal(u_new, np.zeros(64))
        assert clamped == 0

    def test_separable_one_step_decay_rate(self, P2, gs2, grid2000, monkeypatch):
        # d/dt log ||u|| = -1/((2-p) T0) = -2 at t = 0, up to discretization
        monkeypatch.setattr(pde, "EPS_REG", 1e-8)
        cfg = separable_config(P2, gs2.a_star)
        u0 = make_initial(cfg, grid2000, gs2.traj).values
        u1, dt, _ = explicit_step(_geometry(cfg, grid2000), u0)
        rate = (u1.max() - u0.max()) / dt / u0.max()
        assert rate == pytest.approx(-2.0, rel=0.10)

    def test_monotone_preserved_over_1000_steps(self, P2, gs2, grid2000, monkeypatch):
        monkeypatch.setattr(pde, "EPS_REG", 1e-8)
        cfg = separable_config(P2, gs2.a_star)
        geom = _geometry(cfg, grid2000)
        u = make_initial(cfg, grid2000, gs2.traj).values
        clamps = 0
        for _ in range(1000):
            u, _, c = explicit_step(geom, u)
            clamps += c
        assert np.all(np.diff(u) <= 1e-13 * u.max())  # monitor count 0
        # clamp monitor: < 0.1% of cell updates
        assert clamps / (1000 * grid2000.M) < 1e-3

    def test_dt_rule_uses_both_bounds(self, P2, monkeypatch):
        monkeypatch.setattr(pde, "EPS_REG", 1e-4)
        grid = RadialGrid(10.0, 100)
        geom = _geometry(PdeConfig(params=P2), grid)
        steep = np.linspace(100.0, 0.0, 100)  # |Dbar|^(p-1) > 1 engages the sink bound
        dt_steep = explicit_dt(geom, steep)
        assert dt_steep <= CFL_SAFETY * grid.dr / np.max(np.abs(np.gradient(steep, grid.dr))) ** (P2.p - 1.0) * 1.01

    @pytest.mark.parametrize("eps, top, sink_binds", [(1e-4, 100.0, False), (0.1, 1e5, True)])
    def test_dt_rule_is_the_flux_form_rule(self, P2, monkeypatch, eps, top, sink_binds):
        # cfl * min(dr^2 / (2 max Phi'(D)), dr / max(1, max |Phi(D)|)), to the bit
        monkeypatch.setattr(pde, "EPS_REG", eps)
        grid = RadialGrid(10.0, 100)
        u = np.linspace(top, 0.0, 100)
        p = P2.p
        D, phi = face_flux(grid, p, u)
        slope = (D * D + eps * eps) ** ((p - 4.0) / 2.0) * (eps * eps + (p - 1.0) * D * D)
        diffusive = grid.dr * grid.dr / (2.0 * slope.max())
        absorption = grid.dr / max(1.0, np.abs(phi).max())
        assert (absorption < diffusive) == sink_binds
        assert explicit_dt(_geometry(PdeConfig(params=P2), grid), u) == CFL_SAFETY * min(diffusive, absorption)


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
        residual = _residual(_geometry(PdeConfig(params=P), grid), u)
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
            v, _, _ = _step_imex(geom, v, dt)
            t += dt
            dt = min(dt * 1.2, 2e-4)
        return u, v

    def test_explicit_matches_imex(self, P2, gs2, monkeypatch):
        # same spatial operator, two steppers; coarse grid, eps large enough
        # for the explicit dt rule to be affordable
        monkeypatch.setattr(pde, "EPS_REG", 1e-4)
        grid = RadialGrid(10.0, 250)
        cfg = separable_config(P2, gs2.a_star)
        u0 = make_initial(cfg, grid, gs2.traj).values
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

    def test_dissipation_requires_pair(self, P2, grid2000):
        u = np.exp(-grid2000.centers)
        D = weighted_functionals(P2, grid2000, u, u_prev=u * 1.01, dt=0.1)[2]
        assert D > 0.0
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
        with pytest.raises(ValueError):
            compare_to_profile(sep_frames, rescale_frames(sep_frames, 2.0), short)

    def test_profile_ending_at_its_zero_covers_grid(self, P2, gs2):
        # a bisection midpoint on the A side of a_* stops at its first zero
        # short of R_inf = 15; past the trust radius f_* is below ~1e-10, so
        # the zero-extended profile still stands in for the ground state
        a_side = integrate(P2, gs2.a_star + 1e-9)
        assert a_side.status == "FZero" and a_side.r_end < 15.0
        grid = RadialGrid(15.0, 300)
        cfg = separable_config(P2, gs2.a_star)
        u = make_initial(separable_config(P2, a_side.a), grid, a_side).values
        u_star = make_initial(cfg, grid, gs2.traj).values
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
        # the production run: 588 steps of the fourth-order extrapolation (1,180 of the third-order one)
        assert exp_frames.n_steps <= 600
        assert exp_frames.rejected_steps == 0
        assert exp_frames.t.size == 401

    def test_energy_chain_nonincreasing(self, P2, gs2, exp_frames):
        cmp = profile_errors(exp_frames, gs2.traj)
        E_v = np.array([weighted_functionals(P2, exp_frames.grid, v)[3] for v in cmp.v[cmp.before_endgame]])
        assert np.all(E_v >= 0.0)
        assert np.max(np.diff(E_v)) <= 1e-3 * E_v[0]
