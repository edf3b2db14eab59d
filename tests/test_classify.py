import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfsim.params import make_params
from selfsim.profile_ode import SAMPLE_DR, IntegratorOptions, integrate
from selfsim.pohozaev import J_along, find_r_G
from selfsim.classify import (
    END_WIDTH,
    J_NEG_THRESHOLD,
    WindowTooShortError,
    _Search,
    bisect_a_star,
    bracket_search,
    classify,
    estimate_l,
    tail_slopes,
)


def sample_oracle(params, traj):
    """(verdict, R, slope, r_bar) by the rule on a whole trajectory's samples.

    A at a falling f-zero. C if J < -J_NEG_THRESHOLD (1 + running max |J|)
    at some sample past r_G with f > 0, and still at the last sample; r_bar
    is the first such sample. Otherwise Unresolved.
    """
    ev = traj.event("FZero")
    if ev is not None and ev.info["slope"] < 0.0:
        return "A", ev.r, ev.info["slope"], None
    series = J_along(params, traj)
    thr = J_NEG_THRESHOLD * (1.0 + np.maximum.accumulate(np.abs(series.J)))
    idx = np.flatnonzero((series.J < -thr) & (series.r > find_r_G(params)) & (traj.f > 0.0))
    if idx.size and series.J[-1] < -thr[-1]:
        return "C", None, None, float(series.r[idx[0]])
    return "Unresolved", None, None, None


class TestClassify:
    def test_large_a_is_A(self, P2):
        c = classify(P2, 100.0)
        assert c.verdict == "A"
        assert np.isfinite(c.R) and c.slope < 0.0

    def test_small_a_is_C(self, P2):
        c = classify(P2, 1e-3)
        assert c.verdict == "C"
        assert c.r_bar > find_r_G(P2)
        assert c.J_at_rbar < 0.0

    def test_near_ground_state_unresolved_at_short_horizon(self, P2, gs2):
        # a height within the final bracket is numerically indistinguishable
        # from B until the trajectory peels off; at a short horizon the
        # verdict must be the honest Unresolved, with diagnostics attached
        c = classify(P2, gs2.a_star, IntegratorOptions(r_max=25.0))
        assert c.verdict == "Unresolved"
        assert c.diagnostics["status"] == "horizon"
        assert abs(c.diagnostics["h_end"]) < 0.1 or abs(c.diagnostics["h_end"] - 1.0) < 0.1

    def test_deterministic(self, P2):
        assert classify(P2, 0.7) == classify(P2, 0.7)

    def test_rejects_nonpositive_height(self, P2):
        with pytest.raises(ValueError):
            classify(P2, 0.0)

    def test_structure_consistency(self, P2, gs2):
        # C below the bracket, A above it
        for a in (gs2.a_lo / 4.0, gs2.a_lo * 0.99):
            assert classify(P2, a).verdict == "C"
        for a in (gs2.a_hi * 1.01, gs2.a_hi * 4.0):
            assert classify(P2, a).verdict == "A"

    @pytest.mark.parametrize("point", [(2, 1.5), (3, 1.7)])
    def test_verdicts_match_the_sample_oracle(self, ctx, point):
        # seeded heights on both sides of a_*, far off and within 1e-8: the
        # probe that stops at its proof agrees with the rule applied to the
        # whole trajectory; r_bar, interpolated between step ends, lies within
        # one sample spacing of the oracle's first negative sample
        P, gs = ctx.params(*point), ctx.ground_state(*point)
        rng = np.random.default_rng(15)
        verdicts = []
        for side in (-1.0, 1.0):
            far = gs.a_star * (1.0 + side * rng.uniform(0.05, 0.8, 2))
            near = gs.a_star + side * rng.uniform(1e-9, 1e-8, 2)
            for a in (*far, *near):
                c = classify(P, a)
                verdict, R, slope, r_bar = sample_oracle(P, integrate(P, a))
                assert c.verdict == verdict
                assert (c.R, c.slope) == (R, slope)
                if verdict == "C":
                    assert abs(c.r_bar - r_bar) <= SAMPLE_DR + 0.01
                    assert c.J_at_rbar < 0.0
                verdicts.append(verdict)
        assert verdicts == ["C"] * 4 + ["A"] * 4

    def test_probe_stops_at_its_verdict(self, P2):
        opts = IntegratorOptions()
        c = classify(P2, 1.0, opts)
        assert c.verdict == "C"
        assert c.r_bar < c.r_end < opts.r_max
        assert 0 < c.steps < len(integrate(P2, 1.0, opts).dense.sol_near.ts) - 1
        c = classify(P2, 100.0, opts)
        assert c.verdict == "A"
        assert c.r_end == c.R
        assert c.steps == len(integrate(P2, 100.0, opts).dense.sol_near.ts) - 1

    def test_off_default_parameter_point(self):
        # nothing in the machinery is tuned to the two default points
        P = make_params(4, 1.75)
        assert classify(P, 1e-2).verdict == "C"
        assert classify(P, 200.0).verdict == "A"
        a_lo, a_hi = bracket_search(P)
        assert 0.0 < a_lo < a_hi


class TestBracketAndBisection:
    def test_bracket_ordered_with_verdicts(self, P2):
        a_lo, a_hi = bracket_search(P2)
        assert 0.0 < a_lo < a_hi
        assert classify(P2, a_lo).verdict == "C"
        assert classify(P2, a_hi).verdict == "A"

    def test_bracket_found_at_second_point(self, P3):
        a_lo, a_hi = bracket_search(P3)
        assert 0.0 < a_lo < a_hi

    @pytest.mark.parametrize("point", [(2, 1.5), (3, 1.7)])
    def test_width_and_iterations(self, ctx, point):
        gs = ctx.ground_state(*point)
        assert gs.a_hi - gs.a_lo <= 1e-10
        assert gs.iterations <= 200
        assert gs.l_star > 0.0 and gs.c_star > 0.0
        assert gs.c_star == pytest.approx(
            (gs.params.p - 1.0) * gs.l_star ** gs.params.e_g, rel=1e-14
        )

    def test_invariance_to_initial_bracket(self, P2, gs2):
        alt = bisect_a_star(P2, (gs2.a_lo / 8.0, gs2.a_hi * 8.0), tol_a=1e-10)
        assert abs(alt.a_star - gs2.a_star) <= 10.0 * 1e-10

    def test_tolerance_agreement(self, ctx):
        gs = ctx.ground_state(2, 1.5)
        gs13 = ctx.ground_state(2, 1.5, rel_tol=1e-13)
        assert min(gs.a_hi, gs13.a_hi) > max(gs.a_lo, gs13.a_lo)

    # the brackets of the plain bisection this search replaced, at both tolerances
    BISECTION = {(2, 1.5): (6.035320330374816, 6.035320330425748), (3, 1.7): (9.386778033382143, 9.386778033436713)}

    @pytest.mark.parametrize("rel_tol", [1e-12, 1e-13])
    @pytest.mark.parametrize(
        "point, bracket",
        [
            (
                (2, 1.5),
                {1e-12: (6.035320330385179, 6.035320330407329), 1e-13: (6.035320330385837, 6.035320330408745)},
            ),
            (
                (3, 1.7),
                {1e-12: (9.386778033380871, 9.386778033418418), 1e-13: (9.38677803337808, 9.386778033415231)},
            ),
        ],
    )
    def test_bracket_bits_pinned(self, ctx, point, bracket, rel_tol):
        # the search reads the probes' radii as well as their verdicts, so each
        # tolerance has its own bracket; every one overlaps the bisection's
        gs = ctx.ground_state(*point, rel_tol=rel_tol)
        assert (gs.a_lo, gs.a_hi) == bracket[rel_tol]
        assert gs.a_hi - gs.a_lo <= 0.45e-10
        old_lo, old_hi = self.BISECTION[point]
        assert min(gs.a_hi, old_hi) > max(gs.a_lo, old_lo)

    @pytest.mark.parametrize("point", [(2, 1.5), (3, 1.7)])
    def test_search_moves_endpoints_only_onto_proven_verdicts(self, ctx, monkeypatch, point):
        P = ctx.params(*point)
        start = bracket_search(P)
        module = importlib.import_module("selfsim.classify")
        probes = []

        def recorded(params, a, opts=None):
            probes.append(classify(params, a, opts))
            return probes[-1]

        monkeypatch.setattr(module, "classify", recorded)
        gs = bisect_a_star(P, start)
        # replay: every probe lies inside the bracket the proven verdicts
        # before it leave, and only a proven verdict moves an endpoint
        a_lo, a_hi = start
        for c in probes:
            assert a_lo < c.a < a_hi
            if c.verdict == "C":
                a_lo = c.a
            elif c.verdict == "A":
                a_hi = c.a
        assert (a_lo, a_hi) == (gs.a_lo, gs.a_hi)
        assert gs.a_hi - gs.a_lo <= END_WIDTH * 1e-10
        assert gs.iterations == len(probes) <= 28
        assert gs.probe_steps == sum(c.steps for c in probes)

    @given(k=st.integers(0, 3), tol_a=st.floats(1e-10, 1e-6))
    @settings(max_examples=12, deadline=None)
    def test_search_from_widened_brackets(self, P2, gs2, k, tol_a):
        search = _Search(P2, gs2.a_lo / 2.0**k, gs2.a_hi * 2.0**k, IntegratorOptions())
        search.run(tol_a)
        assert search.a_hi - search.a_lo <= END_WIDTH * tol_a
        assert min(search.a_hi, gs2.a_hi) > max(search.a_lo, gs2.a_lo)
        proven = {(c.a, c.verdict) for c in search.probes}
        assert search.a_lo == gs2.a_lo / 2.0**k or (search.a_lo, "C") in proven
        assert search.a_hi == gs2.a_hi * 2.0**k or (search.a_hi, "A") in proven

    def test_dimension_one_converges(self):
        P = make_params(1, 1.5)
        gs = bisect_a_star(P, bracket_search(P), tol_a=1e-8)
        assert gs.a_hi - gs.a_lo <= 1e-8
        assert gs.l_star > 0.0

    def test_rejects_bad_bracket(self, P2):
        with pytest.raises(ValueError):
            bisect_a_star(P2, (2.0, 1.0))

    @pytest.mark.parametrize("tol_a", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_tolerance(self, P2, tol_a):
        # 0 and -1 would bisect to BISECT_MAX_ITER, a NaN would skip the loop
        with pytest.raises(ValueError, match="tol_a"):
            bisect_a_star(P2, (1.0, 100.0), tol_a=tol_a)


class TestPlateau:
    def test_ground_state_plateau(self, P2, gs2):
        est = estimate_l(P2, gs2.traj)
        assert est.found
        assert est.window[1] - est.window[0] >= 1.0
        assert est.l == pytest.approx(gs2.l_star, rel=1e-12)

    def test_class_A_has_no_plateau(self, P2):
        traj = integrate(P2, 100.0)
        assert not estimate_l(P2, traj).found

    def test_tighter_bracket_moves_l_little(self, P2, gs2):
        finer = bisect_a_star(P2, (gs2.a_lo, gs2.a_hi), tol_a=1e-12)
        assert abs(finer.l_star - gs2.l_star) / gs2.l_star < 1e-3


class TestTailSlopes:
    def test_fast_decay_rate(self, P2, gs2):
        win = (0.5 * gs2.trust_radius, 0.95 * gs2.trust_radius)
        ts = tail_slopes(P2, gs2.traj, exp_window=win)
        assert ts.slope_exp == pytest.approx(-2.0, rel=0.02)
        assert ts.g_over_f > 100.0  # g/f -> infinity on the fast branch

    def test_slow_decay_rate_and_prefactor(self, ctx, P2, gs2):
        traj = ctx.trajectory(2, 1.5, gs2.a_lo / 10.0, r_max=1e3)
        ts = tail_slopes(P2, traj, alg_window=(100.0, 950.0))
        assert ts.slope_alg == pytest.approx(-1.0, rel=0.05)
        assert ts.prefactor_ratio == pytest.approx(1.0, abs=0.10)
        assert ts.g_over_f == pytest.approx(1.0, abs=0.05)

    def test_window_too_short(self, P2, gs2):
        with pytest.raises(WindowTooShortError):
            tail_slopes(P2, gs2.traj, exp_window=(49.9, 50.0))

