import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from selfsim.params import make_params, weight_rho
from selfsim.profile_ode import IntegratorOptions, shoot
from selfsim.pohozaev import (
    G_cubic,
    G_direct,
    GridMismatchError,
    J_along,
    J_at,
    J_eval,
    coeff_functions,
    cubic_coeffs,
    find_r_G,
    small_a_limit_z0,
    wronskian_check,
)


class TestCoefficients:
    def test_large_r_ratios(self, P2):
        # beta/alpha -> 0.4 and gamma/(2 alpha) -> -0.04 with O(1/r) bias;
        # rho^e_weight overflows past r ~ 590, so probe just below that
        r = np.array([250.0, 500.0])
        alpha, beta, gamma, delta = coeff_functions(P2, r)
        assert np.all(delta == alpha)
        assert beta[-1] / alpha[-1] == pytest.approx(0.4, abs=1e-3)
        assert gamma[-1] / (2 * alpha[-1]) == pytest.approx(-0.04, abs=2e-4)
        # the O(1/r) bias shrinks by jumping from r=250 to r=500
        assert abs(beta[1] / alpha[1] - 0.4) < abs(beta[0] / alpha[0] - 0.4)

    def test_exact_large_r_limits(self, P3):
        # the limits are 2(p-1)/(3p-2) and -(2-p)(p-1)/(3p-2)^2
        p = P3.p
        r = np.array([500.0])
        alpha, beta, gamma, _ = coeff_functions(P3, r)
        assert beta[0] / alpha[0] == pytest.approx(2 * (p - 1) / (3 * p - 2), rel=1e-2)
        assert gamma[0] / (2 * alpha[0]) == pytest.approx(
            -(2 - p) * (p - 1) / (3 * p - 2) ** 2, rel=1e-2
        )

    def test_dimension_one_gamma_is_pure_constant_times_alpha(self):
        P = make_params(1, 1.5)
        r = np.array([0.1, 1.0, 7.0])
        alpha, _, gamma, _ = coeff_functions(P, r)
        ratios = gamma / alpha
        assert np.allclose(ratios, ratios[0], rtol=1e-14)

    def test_rejects_nonpositive_radius(self, P2):
        with pytest.raises(ValueError):
            coeff_functions(P2, 0.0)


class TestCubic:
    def test_exact_values_2_15(self, P2):
        M0, M1, M2, M3 = cubic_coeffs(P2)
        assert (M3, M2, M1, M0) == (7.0, -0.25, -1.5, -0.5)

    @pytest.mark.parametrize("N", [2, 3])
    def test_M3_at_critical_exponent(self, N):
        p_c = 2.0 * N / (N + 1.0)
        M3 = cubic_coeffs(make_params(N, p_c + 1e-14))[3]
        assert abs(M3 - 4.0 * N**3 / (N + 1.0) ** 2) <= 1e-12

    @given(p=st.floats(min_value=1.01, max_value=1.99))
    @settings(max_examples=40, deadline=None)
    def test_M0_M1_negative_in_fast_range(self, p):
        # M0 = -2(p-1)(2-p), M1 = -6(p-1)(2-p) are negative for p in (1,2);
        # evaluate at N=1 where every p in (1,2) is admissible
        M0, M1, _, _ = cubic_coeffs(make_params(1, p))
        assert M0 < 0.0 and M1 < 0.0

    def test_root_bracket_and_value(self, P2):
        # P(z) = 7 z^3 - 0.25 z^2 - 1.5 z - 0.5 changes sign in (0.55, 0.65)
        def cubic(z):
            return ((7.0 * z - 0.25) * z - 1.5) * z - 0.5

        assert cubic(0.55) < 0.0 < cubic(0.65)
        r_G = find_r_G(P2)
        assert 1.0 / 0.65 < r_G < 1.0 / 0.55
        assert r_G == pytest.approx(1.6774334840497553, rel=1e-12)

    def test_sign_table_around_r_G(self, P2):
        r_G = find_r_G(P2)
        assert G_cubic(P2, r_G / 2.0) > 0.0
        assert G_cubic(P2, 2.0 * r_G) < 0.0

    def test_degenerate_dimension_one(self):
        P = make_params(1, 1.5)
        assert find_r_G(P) == 0.0
        r = np.linspace(0.2, 10.0, 50)
        assert np.all(G_direct(P, r) < 0.0)
        mism = np.abs(G_direct(P, r) - G_cubic(P, r)) / (np.abs(G_cubic(P, r)) + 1.0)
        assert np.max(mism) < 1e-5


class TestJ:
    def test_vanishes_at_origin(self, ctx):
        for a in (0.1, 1.0, 10.0):
            series = J_along(ctx.trajectory(2, 1.5, a))
            assert abs(series.J[0]) < 1e-8 * (1.0 + np.max(np.abs(series.J)))

    def test_small_a_drives_J_negative(self, ctx):
        series = J_along(ctx.trajectory(2, 1.5, 0.1))
        assert series.J[-1] < 0.0
        tail = series.J[series.r > 10.0]
        assert np.all(np.diff(tail) < 0.0)

    def test_monotone_up_then_down_for_class_C(self, ctx, P2):
        series = J_along(ctx.trajectory(2, 1.5, 0.5))
        r_G = find_r_G(P2)
        assert np.all(np.diff(series.J[series.r < 0.98 * r_G]) > 0.0)
        zone = (series.r > 1.02 * r_G) & (series.r < 40.0)
        assert np.all(np.diff(series.J[zone]) < 0.0)

    def test_derivative_identity_spot(self, ctx, P2):
        traj = ctx.trajectory(2, 1.5, 1.0)
        h = 1e-3
        r = np.linspace(0.5, 8.0, 300)

        def J_of(x):
            f, g = traj.eval(x)
            return J_eval(P2, x, f, g)

        fd = (J_of(r - 2 * h) - 8 * J_of(r - h) + 8 * J_of(r + h) - J_of(r + 2 * h)) / (12 * h)
        Gg2 = G_cubic(P2, r) * traj.eval(r)[1] ** 2
        assert np.max(np.abs(fd - Gg2) / (np.abs(Gg2) + 1.0)) < 1e-5

    @given(N=st.integers(1, 5), frac=st.floats(0.02, 0.98), log_a=st.floats(-3.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_step_end_J_is_J_eval(self, N, frac, log_a):
        # the float J a probe tests at each step end, from the stepper's own
        # g', is J_eval's J far below the 1e-8 threshold of the C verdict.
        # Only rounding differs: numpy's array pow and libm's float pow part in
        # the last bit for ~5 % of arguments, and at N = 5 J's terms cancel to
        # ~1/70 of their size, so 1 % of 1,500 drawn runs passed 1e-14 and the
        # worst read 2.5e-14
        P = make_params(N, 2.0 * N / (N + 1.0) + frac * (2.0 - 2.0 * N / (N + 1.0)))
        ends = []

        def record(r, f, g, dg):
            ends.append((r, f, g, J_at(P, r, g, dg)))

        shoot(P, 10.0**log_a, IntegratorOptions(), stop=record)
        r, f, g, J = (np.array(x) for x in zip(*ends))
        ref = J_eval(P, r, f, g)
        assert np.all(np.abs(J - ref) <= 1e-13 * (1.0 + np.maximum.accumulate(np.abs(ref))))

    def test_ground_state_candidate_positive_and_scaled(self, P2, gs2):
        # J > 0 on the trust window; J * rho^(4(p-1)/(3p-2)) stays within a
        # band around l^2 p(2-p)/(2 (3p-2)^2)
        series = J_along(gs2.traj)
        m = (series.r >= gs2.plateau_window[0]) & (series.r <= gs2.plateau_window[1])
        assert np.all(series.J[m] > 0.0)
        const = gs2.l_star**2 * P2.p * (2 - P2.p) / (2 * (3 * P2.p - 2) ** 2)
        scaled = series.J[m] * weight_rho(P2, series.r[m]) ** (4 * (P2.p - 1) / (3 * P2.p - 2))
        assert np.all(scaled / const > 0.3) and np.all(scaled / const < 3.0)


class TestGDirect:
    @pytest.mark.parametrize("point", [(2, 1.5), (3, 1.7)])
    def test_agrees_with_cubic(self, point):
        P = make_params(*point)
        r = np.linspace(0.1, 20.0, 2000)
        mism = np.abs(G_direct(P, r) - G_cubic(P, r)) / (np.abs(G_cubic(P, r)) + 1.0)
        assert np.max(mism) < 1e-5


class TestPairDiagnostics:
    def test_identical_trajectories_zero_wronskian(self, ctx):
        t1 = ctx.trajectory(2, 1.5, 1.0)
        pair = wronskian_check(t1, t1, r_hi=5.0)
        assert pair.residual == 0.0
        assert np.max(np.abs(pair.W)) == 0.0

    def test_residual_and_limits(self, ctx):
        pair = wronskian_check(ctx.trajectory(2, 1.5, 0.5), ctx.trajectory(2, 1.5, 1.0), r_hi=5.0)
        assert pair.residual < 1e-5
        assert abs(pair.W[0]) <= 1e-12 * np.max(np.abs(pair.W))  # W(0) = 0
        assert pair.q[0] == pytest.approx(2.0, abs=1e-6)
        assert abs(pair.X[0]) <= 1e-6 * (1.0 + np.nanmax(np.abs(pair.X)))

    def test_q_decreasing_while_J1_nonnegative(self, ctx, P2):
        t1 = ctx.trajectory(2, 1.5, 0.5)
        pair = wronskian_check(t1, ctx.trajectory(2, 1.5, 1.0), r_hi=5.0)
        J1 = J_eval(P2, pair.r, *t1.eval(pair.r))
        q = pair.q[J1 >= 0.0]
        assert np.all(np.diff(q) < 0.0)

    def test_grid_mismatch(self, ctx):
        t1 = ctx.trajectory(2, 1.5, 0.5)
        with pytest.raises(GridMismatchError):
            wronskian_check(t1, t1, r_hi=1e-9)

    def test_requires_ordered_heights(self, ctx):
        with pytest.raises(ValueError):
            wronskian_check(ctx.trajectory(2, 1.5, 1.0), ctx.trajectory(2, 1.5, 0.5), r_hi=5.0)

    def test_refuses_a_pair_of_two_parameter_points(self, ctx):
        # each run carries its (N, p): a pair of two equations has no Wronskian identity
        with pytest.raises(ValueError, match=r"\(2, 1\.5\) and \(3, 1\.7\)"):
            wronskian_check(ctx.trajectory(2, 1.5, 0.5), ctx.trajectory(3, 1.7, 1.0), r_hi=5.0)


class TestSmallALimit:
    def test_z0_against_quadrature(self, P2):
        r = np.array([0.5, 3.0, 10.0])
        z0, _ = small_a_limit_z0(P2, r)
        for ri, zi in zip(r, z0):
            ref, _ = quad(lambda s: s * np.exp(s), 0.0, ri)
            assert zi == pytest.approx(ref / weight_rho(P2, ri), rel=1e-10)

    def test_small_r_slope(self, P2):
        z0, _ = small_a_limit_z0(P2, np.array([1e-4]))
        # z0(r)/r = 1/N - r/(N(N+1)) + O(r^2)
        assert z0[0] / 1e-4 == pytest.approx(0.5 - 1e-4 / 6.0, rel=1e-9)

    def test_limit_one_at_infinity_dimension_one(self):
        P = make_params(1, 1.5)
        z0, _ = small_a_limit_z0(P, np.array([40.0]))
        assert abs(z0[0] - 1.0) < 1e-6

    def test_Z0_diverges_negative(self, P2):
        r = np.array([10.0, 20.0, 30.0])
        _, Z0 = small_a_limit_z0(P2, r)
        assert np.all(Z0 < 0.0) and Z0[2] < Z0[1] < Z0[0]

    def test_rescaled_shooting_converges_to_z0(self, ctx, P2):
        r = np.linspace(1e-4, 10.0, 1500)
        z0, _ = small_a_limit_z0(P2, r)
        sups = []
        for a in (1e-1, 1e-2, 1e-3):
            traj = ctx.trajectory(2, 1.5, a)
            sups.append(np.max(np.abs(traj.eval(r)[1] / a - z0)))
        assert sups[0] > sups[1] > sups[2]

    def test_rejects_bad_grid(self, P2):
        with pytest.raises(ValueError):
            small_a_limit_z0(P2, np.array([1.0, 0.5]))
