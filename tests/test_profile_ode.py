import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfsim.params import make_params, weight_rho
from selfsim.profile_ode import (
    IntegratorOptions,
    ProfileState,
    energy,
    eps_start,
    integrate,
    psi_integrate,
    rhs,
    series_start,
)


def fd4(fun, r, h):
    return (fun(r - 2 * h) - 8 * fun(r - h) + 8 * fun(r + h) - fun(r + 2 * h)) / (12.0 * h)


class TestRhs:
    def test_g_zero_kills_two_terms(self, P2):
        df, dg = rhs(P2, ProfileState(r=1.0, f=1.0, g=0.0))
        assert df == 0.0
        assert dg == 1.0

    def test_initial_slope_is_a_over_N(self):
        # near r -> 0 with f ~ a, g ~ a r / N the g-slope tends to a/N
        for N, p, a in [(2, 1.5, 1.0), (3, 1.7, 2.5), (1, 1.5, 0.3)]:
            P = make_params(N, p)
            r = 1e-9
            _, dg = rhs(P, ProfileState(r=r, f=a, g=a * r / N))
            assert dg == pytest.approx(a / N, rel=1e-8)

    def test_direct_evaluation(self, P2):
        # |f'| = |g|^(1/(p-1)) = 0.25^2, so df = -0.0625 (and the exponent on
        # |g| in df = -|g|^e g is e = (2-p)/(p-1) = 1 at p = 3/2)
        df, dg = rhs(P2, ProfileState(r=2.0, f=0.5, g=0.25))
        assert df == pytest.approx(-0.0625, abs=0)
        assert dg == pytest.approx(0.5 - 0.25 - 0.125, abs=0)


class TestSeriesStart:
    def test_leading_order_values(self):
        P = make_params(2, 1.5)
        st = series_start(P, 1.0, 1e-6)
        assert st.g == pytest.approx(5e-7, rel=0, abs=1e-22)
        assert 1.0 - st.f == pytest.approx((1.0 / 3.0) * 0.25 * 1e-18, rel=1e-12)

    def test_g_slope_any_dimension(self):
        P = make_params(3, 1.7)
        st = series_start(P, 2.0, 1e-7)
        assert st.g == pytest.approx(2.0 * 1e-7 / 3.0, rel=1e-15)

    def test_limit_is_initial_condition(self, P2):
        st = series_start(P2, 4.0, 1e-12)
        assert st.f == pytest.approx(4.0, abs=1e-30)
        assert st.g == pytest.approx(0.0, abs=1e-11)

    def test_f_correction_scales_like_eps_power(self, P2):
        # the omitted remainder is higher order: the correction itself scales
        # as eps^(p/(p-1)), i.e. halving eps divides it by 8 at p = 3/2
        # (eps large enough that 4 - f does not lose digits to cancellation)
        c1 = 4.0 - series_start(P2, 4.0, 1e-2).f
        c2 = 4.0 - series_start(P2, 4.0, 5e-3).f
        assert c1 / c2 == pytest.approx(8.0, rel=1e-6)


class TestIntegrate:
    def test_large_a_crosses_zero_with_negative_slope(self, P2):
        traj = integrate(P2, 100.0)
        ev = traj.event("FZero")
        assert ev is not None and np.isfinite(ev.r)
        assert ev.info["slope"] < 0.0

    def test_small_a_stays_positive(self, P2):
        traj = integrate(P2, 1e-3)
        assert traj.event("FZero") is None
        assert np.all(traj.f > 0.0)
        assert traj.event("Truncated").r == pytest.approx(50.0)

    @pytest.mark.parametrize("a", [1e-3, 0.5, 2.0])
    def test_f1_bounds_hold(self, P2, a):
        traj = integrate(P2, a)
        assert np.all(traj.f > 0.0)
        assert np.all(traj.f < a * (1.0 + 1e-12))
        bound = -((a / P2.N * traj.r) ** P2.e_g)
        assert np.all(traj.fprime < 0.0)
        assert np.all(traj.fprime > bound * (1.0 + 1e-9))

    def test_fzero_implies_finite_gzero(self, P2):
        # continuing past R(a) must reach g = 0 at finite R1 > R
        traj = integrate(P2, 100.0, IntegratorOptions(track_past_fzero=True))
        evf, evg = traj.event("FZero"), traj.event("GZero")
        assert evf is not None and evg is not None
        assert evg.r > evf.r

    def test_tolerance_refinement_self_consistency(self, P2):
        f10 = []
        for rtol in (1e-10, 5e-11):
            traj = integrate(P2, 1.0, IntegratorOptions(rel_tol=rtol))
            f10.append(traj.eval(10.0)[0])
        assert abs(f10[0] - f10[1]) / abs(f10[1]) < 10.0 * 1e-10

    @pytest.mark.parametrize("field", ["rel_tol", "r_max"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_options_reject_non_finite_or_non_positive(self, field, value):
        # an infinite horizon never ends a run, a NaN one ends it at once
        with pytest.raises(ValueError, match=field):
            IntegratorOptions(**{field: value})

    def test_sample_spacing_dense_region(self, P2):
        traj = integrate(P2, 1.0)
        near = traj.r[traj.r <= 20.0]
        assert np.max(np.diff(near)) <= 0.05 + 1e-12


class TestEnergy:
    def test_at_the_center(self, P2):
        assert energy(P2, ProfileState(r=1e-12, f=3.0, g=0.0)) == pytest.approx(4.5)

    def test_direct_value(self, P2):
        assert energy(P2, ProfileState(r=1.0, f=0.0, g=1.0)) == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
    def test_nonincreasing_along_trajectories(self, P2, a):
        traj = integrate(P2, a)
        assert np.max(np.diff(traj.E)) <= 1e-12 * traj.E[0]


class TestStructuralIdentities:
    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_divergence_form_and_w_slope(self, P2, a):
        # d/dr[rho |f'|^(p-2) f'] = -rho f, equivalently w' = rho f
        traj = integrate(P2, a)
        ev = traj.event("FZero")
        hi = 0.99 * (ev.r if ev is not None else traj.r_end)
        h = 5e-3
        r = np.linspace(0.1, hi - 2 * h, 1200)

        def w_of(x):
            return weight_rho(P2, x) * traj.eval(x)[1]

        lhs = fd4(w_of, r, h)
        rho_f = weight_rho(P2, r) * traj.eval(r)[0]
        assert np.max(np.abs(lhs - rho_f) / np.abs(rho_f)) < 1e-6

    def test_w_and_h_definitions(self, P2):
        traj = integrate(P2, 1.0)
        assert np.allclose(traj.w, weight_rho(P2, traj.r) * traj.g, rtol=1e-14)
        m = traj.g > 0
        assert np.allclose(traj.h[m], traj.f[m] / traj.g[m], rtol=1e-14)

    def test_h_tends_to_one_for_slow_decay(self, P2):
        traj = integrate(P2, 0.5)
        assert traj.h[-1] == pytest.approx(1.0, abs=1e-3)

    def test_h_near_zero_while_shadowing_ground_state(self, gs2):
        m = (gs2.traj.r >= gs2.plateau_window[0]) & (gs2.traj.r <= gs2.plateau_window[1])
        assert np.nanmax(np.abs(gs2.traj.h[m])) < 0.1


class TestPsi:
    def test_finite_first_zero_with_negative_slope(self, P2):
        psi = psi_integrate(P2)
        ev = psi.event("FZero")
        assert ev is not None and ev.info["slope"] < 0.0

    def test_initial_energy_is_half(self, P2):
        psi = psi_integrate(P2)
        assert psi.E[0] == pytest.approx(0.5, rel=1e-10)

    def test_rescaled_profiles_converge_to_psi(self, ctx, P2):
        psi = psi_integrate(P2)
        s0 = psi.event("FZero").r
        s = np.linspace(psi.r[0], s0, 1500)
        ref = psi.eval(s)[0]
        sups = []
        for a in (10.0, 100.0, 1000.0):
            scale = a ** (-(2.0 - P2.p) / P2.p)
            traj = ctx.trajectory(2, 1.5, a, track_past_fzero=True, r_max=s0 * scale * 1.05 + 0.5)
            sups.append(np.max(np.abs(traj.eval(s * scale)[0] / a - ref)))
        assert sups[0] > sups[1] > sups[2]


def test_eps_start_rule():
    assert eps_start(1.0) == 1e-6
    assert eps_start(0.001) == 1e-6
    assert eps_start(1e4) == 1e-8


@given(a=st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=15, deadline=None)
def test_solution_insensitive_to_series_start_radius(a):
    # the eps-start truncation is below integrator tolerance: launching from
    # eps/4 instead of eps moves f(1) by less than 1e-9 relative, with the
    # production solver settings
    P = make_params(2, 1.5)
    from scipy.integrate import solve_ivp
    from selfsim.profile_ode import ABS_TOL, _rhs_arrays

    vals = []
    for eps in (eps_start(a), eps_start(a) / 4.0):
        st0 = series_start(P, a, eps)
        sol = solve_ivp(
            lambda r, y: _rhs_arrays(P, r, y[0], y[1], True),
            (eps, 1.0),
            [st0.f, st0.g],
            method="DOP853",
            rtol=IntegratorOptions().rel_tol,
            atol=ABS_TOL,
        )
        vals.append(sol.y[0, -1])
    assert abs(vals[0] - vals[1]) <= 1e-9 * abs(vals[1]) + 1e-300
