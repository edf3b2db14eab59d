import math
from dataclasses import fields, replace
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from scipy.integrate import DOP853, solve_ivp

from selfsim import dop853_coefficients as dop, profile_ode
from selfsim.classify import classify
from selfsim.params import make_params, weight_rho
from selfsim.profile_ode import (
    ABS_TOL,
    IntegratorOptions,
    StepSizeUnderflowError,
    DENSE_UNTIL,
    _dense,
    _energy_arrays,
    _horner,
    _rhs_arrays,
    _sample_grid,
    _trial,
    eps_start,
    integrate,
    psi_integrate,
    series_start,
    shoot,
)


def fd4(fun, r, h):
    return (fun(r - 2 * h) - 8 * fun(r - h) + 8 * fun(r + h) - fun(r + 2 * h)) / (12.0 * h)


class TestRhs:
    def test_g_zero_kills_two_terms(self, P2):
        df, dg = _rhs_arrays(P2, 1.0, 1.0, 0.0, absorption=True)
        assert df == 0.0
        assert dg == 1.0

    def test_initial_slope_is_a_over_N(self):
        # near r -> 0 with f ~ a, g ~ a r / N the g-slope tends to a/N
        for N, p, a in [(2, 1.5, 1.0), (3, 1.7, 2.5), (1, 1.5, 0.3)]:
            P = make_params(N, p)
            r = 1e-9
            _, dg = _rhs_arrays(P, r, a, a * r / N, absorption=True)
            assert dg == pytest.approx(a / N, rel=1e-8)

    def test_direct_evaluation(self, P2):
        # |f'| = |g|^(1/(p-1)) = 0.25^2, so df = -0.0625 (and the exponent on
        # |g| in df = -|g|^e g is e = (2-p)/(p-1) = 1 at p = 3/2)
        df, dg = _rhs_arrays(P2, 2.0, 0.5, 0.25, absorption=True)
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
        assert traj.status == "FZero" and np.isfinite(traj.r_end)
        assert traj.end_slope < 0.0

    def test_small_a_stays_positive(self, P2):
        traj = integrate(P2, 1e-3)
        assert np.all(traj.f > 0.0)
        assert traj.status == "horizon"
        assert traj.r_end == pytest.approx(50.0)

    @pytest.mark.parametrize("a", [1e-3, 0.5, 2.0])
    def test_f1_bounds_hold(self, P2, a):
        traj = integrate(P2, a)
        assert np.all(traj.f > 0.0)
        assert np.all(traj.f < a * (1.0 + 1e-12))
        bound = -((a / P2.N * traj.r) ** P2.e_g)
        assert np.all(traj.fprime < 0.0)
        assert np.all(traj.fprime > bound * (1.0 + 1e-9))

    def test_tolerance_refinement_self_consistency(self, P2):
        f10 = []
        for rtol in (1e-10, 5e-11):
            traj = integrate(P2, 1.0, IntegratorOptions(rel_tol=rtol))
            f10.append(traj.eval(10.0)[0])
        assert abs(f10[0] - f10[1]) / abs(f10[1]) < 10.0 * 1e-10

    def test_options_have_two_settings(self):
        assert [f.name for f in fields(IntegratorOptions)] == ["rel_tol", "r_max"]

    @pytest.mark.parametrize("field", ["rel_tol", "r_max"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_options_reject_non_finite_or_non_positive(self, field, value):
        # an infinite horizon never ends a run, a NaN one ends it at once
        with pytest.raises(ValueError, match=field):
            IntegratorOptions(**{field: value})

    @pytest.mark.parametrize("value", [1e-15, 2.2e-14])
    def test_options_reject_rel_tol_below_100_eps(self, value):
        # scipy raised such a tolerance to 100 eps without a word, so a run
        # at 1e-15 took the steps of one at 2.22e-14
        with pytest.raises(ValueError, match="rel_tol"):
            IntegratorOptions(rel_tol=value)

    def test_options_accept_rel_tol_at_100_eps(self, P2):
        opts = IntegratorOptions(rel_tol=100 * np.finfo(float).eps)
        assert shoot(P2, 1.0, replace(opts, r_max=2.0)).status == "horizon"

    @pytest.mark.parametrize("r_max", [1e-9, 1e-6])
    def test_horizon_at_or_below_the_series_start_is_refused(self, P2, r_max):
        # eps_start(1) = 1e-6: the run would step backwards, or not at all
        with pytest.raises(ValueError, match="r_max"):
            shoot(P2, 1.0, IntegratorOptions(r_max=r_max))
        with pytest.raises(ValueError, match="r_max"):
            integrate(P2, 1.0, IntegratorOptions(r_max=r_max))

    def test_float_overflow_in_a_trial_step_rejects_it(self):
        # at p = 1.01 the flux power |g|^99 leaves the float range in trial
        # stages of large steps; the step is rejected and the run goes on
        P = make_params(1, 1.01)
        traj = integrate(P, 10.0)
        assert traj.status == "FZero" and traj.end_slope < 0.0

    def test_nan_rhs_ends_in_underflow(self, P2, monkeypatch):
        # a NaN error norm shrinks the step like a failed one, down to 10 ulp
        def nan_past_one(params, r, f, g, absorption):
            if r > 1.0:
                return math.nan, math.nan
            return _rhs_arrays(params, r, f, g, absorption)

        monkeypatch.setattr(profile_ode, "_rhs_arrays", nan_past_one)
        shot = shoot(P2, 1.0, IntegratorOptions())
        assert shot.status == "underflow"
        assert 1.0 - 1e-12 < shot.end.r <= 1.0
        with pytest.raises(StepSizeUnderflowError) as info:
            integrate(P2, 1.0)
        assert info.value.last_state == shot.end
        c = classify(P2, 1.0)
        assert c.verdict == "Unresolved"
        assert c.diagnostics["status"] == "underflow"
        assert c.r_end == shot.end.r

    def test_sample_spacing_dense_region(self, P2):
        traj = integrate(P2, 1.0)
        near = traj.r[traj.r <= 20.0]
        assert np.max(np.diff(near)) <= 0.05 + 1e-12


def solve_ivp_run(params, a, opts, absorption):
    """The same run as one solve_ivp call with dense output, ended by the first zero of f."""
    eps = eps_start(a)
    st0 = series_start(params, a, eps)

    def f_zero(r, y):
        return y[0]

    f_zero.direction = -1.0
    f_zero.terminal = True
    return solve_ivp(
        lambda r, y: _rhs_arrays(params, r, y[0], y[1], absorption),
        (eps, opts.r_max),
        [st0.f, st0.g],
        method="DOP853",
        rtol=opts.rel_tol,
        atol=ABS_TOL,
        dense_output=True,
        events=[f_zero],
    )


def test_tableau_is_scipys_to_the_bit():
    n = dop.N_STAGES
    ours = {
        "C": dop.C[:n],
        "A": [row[:n] for row in dop.A[:n]],
        "B": dop.B,
        "E3": dop.E3,
        "E5": dop.E5,
        "D": dop.D,
        "C_EXTRA": dop.C[n + 1 :],
        "A_EXTRA": dop.A[n + 1 :],
    }
    for name, values in ours.items():
        theirs = getattr(DOP853, name)
        assert np.array(values).shape == theirs.shape, name
        assert np.array(values).tobytes() == theirs.tobytes(), name


def trial_oracle(fun, r, y, k, h, rtol):
    """``_trial`` as a loop over the full tableau rows, each sum ``sum(map(mul, row, k))``."""
    f, g = y
    kf, kg = [k[0]], [k[1]]
    for c, row in zip(dop.C[1 : dop.N_STAGES], dop.A[1 : dop.N_STAGES]):
        slope = fun(r + c * h, f + sum(map(mul, row, kf)) * h, g + sum(map(mul, row, kg)) * h)
        kf.append(slope[0])
        kg.append(slope[1])
    f_new, g_new = f + h * sum(map(mul, dop.B, kf)), g + h * sum(map(mul, dop.B, kg))
    k_new = fun(r + h, f_new, g_new)
    kf.append(k_new[0])
    kg.append(k_new[1])
    sf = ABS_TOL + max(abs(f), abs(f_new)) * rtol
    sg = ABS_TOL + max(abs(g), abs(g_new)) * rtol
    e5f, e5g = sum(map(mul, dop.E5, kf)) / sf, sum(map(mul, dop.E5, kg)) / sg
    e3f, e3g = sum(map(mul, dop.E3, kf)) / sf, sum(map(mul, dop.E3, kg)) / sg
    e5, e3 = e5f * e5f + e5g * e5g, e3f * e3f + e3g * e3g
    err = 0.0 if e5 == 0 and e3 == 0 else h * e5 / math.sqrt((e5 + 0.01 * e3) * 2)
    return (f_new, g_new), k_new, (kf, kg), err


def dense_oracle(fun, r_old, y_old, r, y, stages):
    """``_dense`` as a loop over the full rows of the extra stages and of D."""
    (f_old, g_old), (f, g), (kf, kg) = y_old, y, stages
    h = r - r_old
    kf, kg = list(kf), list(kg)
    for c, row in zip(dop.C[dop.N_STAGES + 1 :], dop.A[dop.N_STAGES + 1 :]):
        f_s, g_s = f_old + sum(map(mul, row, kf)) * h, g_old + sum(map(mul, row, kg)) * h
        slope = fun(r_old + c * h, f_s, g_s)
        kf.append(slope[0])
        kg.append(slope[1])
    df, dg = f - f_old, g - g_old
    coef = [r_old, h, f_old, g_old, df, dg, h * kf[0] - df, h * kg[0] - dg]
    coef += [2 * df - h * (kf[12] + kf[0]), 2 * dg - h * (kg[12] + kg[0])]
    for row in dop.D:
        coef += [h * sum(map(mul, row, kf)), h * sum(map(mul, row, kg))]
    return tuple(coef)


def float_bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def outcome(step, *args):
    """A step function's result, or the type of the exception it raised."""
    try:
        return step(*args)
    except OverflowError as exc:
        return type(exc)


signed_magnitude = st.builds(
    lambda m, sign: sign * m, st.floats(min_value=1e-12, max_value=1e3), st.sampled_from([1.0, -1.0])
)


@st.composite
def wedge_points(draw):
    """(N, p) with N in 1..5 and p inside (2N/(N+1), 2)."""
    N = draw(st.integers(min_value=1, max_value=5))
    return N, draw(st.floats(min_value=2 * N / (N + 1), max_value=2.0, exclude_min=True, exclude_max=True))


@given(
    point=wedge_points(),
    absorption=st.booleans(),
    r=st.floats(min_value=1e-8, max_value=50.0),
    f=signed_magnitude,
    g=signed_magnitude,
    h=st.floats(min_value=1e-9, max_value=2.0),
    rtol=st.floats(min_value=100 * np.finfo(float).eps, max_value=1e-3),
)
@settings(max_examples=400, deadline=None)
def test_written_out_stages_are_the_tableau_loop_to_the_bit(point, absorption, r, f, g, h, rtol):
    P = make_params(*point)

    def fun(r, f, g):
        return _rhs_arrays(P, r, f, g, absorption)

    k = outcome(fun, r, f, g)
    assume(k is not OverflowError)
    want = outcome(trial_oracle, fun, r, (f, g), k, h, rtol)
    got = outcome(_trial, fun, r, (f, g), k, h, rtol)
    if want is OverflowError or got is OverflowError:
        assert got is want
        return
    (y_want, k_want, stages_want, err_want), (y_got, k_got, stages_got, err_got) = want, got
    if not math.isfinite(err_want):
        # a non-finite slope or state: both norms reject the step
        assert not math.isfinite(err_got)
        return
    assert float_bits(y_got) == float_bits(y_want)
    assert float_bits(k_got) == float_bits(k_want)
    assert float_bits(stages_got) == float_bits(stages_want)
    assert float_bits(err_got) == float_bits(err_want)

    coef_want = outcome(dense_oracle, fun, r, (f, g), r + h, y_want, stages_want)
    coef_got = outcome(_dense, fun, r, (f, g), r + h, y_got, stages_got)
    if coef_want is OverflowError or coef_got is OverflowError:
        assert coef_got is coef_want
    elif all(map(math.isfinite, coef_want)):
        assert len(coef_got) == 18
        assert float_bits(coef_got) == float_bits(coef_want)
    else:
        # a non-finite extra stage reaches every row of D either way
        assert not all(map(math.isfinite, coef_got))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_step_end_slope_rejects_the_trial(P2, bad):
    # the step-end slope has zero weight in both error estimators; the full
    # rows still turn it into a NaN norm, and so must the written-out sums
    def fun_with_bad_end(r, f, g):
        calls.append(r)
        return (bad, 0.5) if len(calls) == 12 else _rhs_arrays(P2, r, f, g, True)

    k = _rhs_arrays(P2, 1.0, 0.8, 0.3, True)
    for step in (trial_oracle, _trial):
        calls = []
        *_, err = step(fun_with_bad_end, 1.0, (0.8, 0.3), k, 1e-3, 1e-12)
        assert len(calls) == 12 and math.isnan(err)


class TestSteppingLoop:
    """The hand-stepped DOP853 loop against solve_ivp at production settings."""

    CASES = {
        "truncated": (1.0, {}, True),
        "fzero": (7.0, {}, True),
        "psi": (1.0, {}, False),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_agrees_with_solve_ivp(self, P2, case):
        # the float stepper runs scipy's tableau and control law; only the
        # rounding of the stage sums differs, and the error estimate is a
        # cancellation, so the step sequences may part after a few steps
        a, kw, absorption = self.CASES[case]
        opts = IntegratorOptions(**kw)
        traj = integrate(P2, a, opts) if absorption else psi_integrate(P2, opts)
        ref = solve_ivp_run(P2, a, opts, absorption)
        assert ref.status >= 0
        steps, ref_steps = len(traj.dense.ts) - 1, len(ref.sol.ts) - 1
        assert abs(steps - ref_steps) <= 0.1 * ref_steps
        y = ref.sol(traj.r)
        scale = max(np.max(np.abs(y[0])), np.max(np.abs(y[1])))
        assert np.max(np.abs(traj.f - y[0])) <= 1e-10 * scale
        assert np.max(np.abs(traj.g - y[1])) <= 1e-10 * scale

        (zeros,) = ref.t_events
        if zeros.size:
            assert traj.r_end == pytest.approx(float(zeros.min()), rel=1e-12, abs=0)
        # a run that no zero of f ends stops at r_max, where solve_ivp stops
        assert (traj.status == "horizon") == (ref.status == 0)
        if ref.status == 0:
            assert traj.r_end == ref.t[-1]
        expected = {"truncated": (0, "horizon"), "fzero": (1, "FZero"), "psi": (1, "FZero")}
        assert (zeros.size, traj.status) == expected[case]

    @pytest.mark.parametrize("case", ["fzero", "psi"])
    def test_event_info_is_the_rhs_at_the_root(self, P2, case):
        # the crossing slope is f' of the end state, which is the root itself;
        # f' does not depend on the absorption, so psi's slope reads the same way
        a, kw, absorption = self.CASES[case]
        opts = IntegratorOptions(**kw)
        traj = integrate(P2, a, opts) if absorption else psi_integrate(P2, opts)
        f, g = traj.eval(traj.r_end)
        assert (traj.end.f, traj.end.g) == (float(f), float(g))
        assert traj.end_slope == float(_rhs_arrays(P2, traj.r_end, f, g, absorption)[0]) < 0.0

    @pytest.mark.parametrize("case", ["truncated", "fzero"])
    def test_run_without_dense_output_takes_the_same_steps(self, P2, case):
        a, kw, _ = self.CASES[case]
        opts = IntegratorOptions(**kw)
        traj = integrate(P2, a, opts)
        shot = shoot(P2, a, opts)
        assert shot.dense is None
        assert shot.steps == traj.steps == len(traj.dense.ts) - 1
        assert shot.status == traj.status
        assert shot.end == traj.end

    def test_stop_ends_the_run_at_a_step_end(self, P2):
        seen = []

        def stop(r, f, g):
            seen.append(r)
            return r > 10.0

        shot = shoot(P2, 1.0, IntegratorOptions(), stop=stop)
        assert shot.status == "stopped"
        assert shot.end.r == seen[-1] > 10.0 >= seen[-2]
        assert shot.steps == len(seen)


class TestSampledColumns:
    """A kept run's sampled columns are read from its dense output on first use."""

    @pytest.mark.parametrize(
        "a, kw", [(1.0, {}), (7.0, {}), (0.5, {"r_max": 15.0})]
    )
    def test_columns_are_the_dense_output_on_the_sample_grid(self, P2, a, kw):
        traj = integrate(P2, a, IntegratorOptions(**kw))
        columns = ("r", "f", "g", "fprime", "E", "w", "h")
        assert not set(columns) & set(vars(traj))
        r = _sample_grid(traj.dense.ts[0], traj.end.r)
        f, g = traj.dense(r)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = {
                "r": r,
                "f": f,
                "g": g,
                "fprime": _rhs_arrays(P2, r, f, g, absorption=True)[0],
                "E": _energy_arrays(P2, f, g),
                "w": weight_rho(P2, r) * g,
                "h": np.where(g > 0.0, f / g, np.nan),
            }
        for name in columns:
            assert getattr(traj, name).tobytes() == want[name].tobytes(), name
            assert getattr(traj, name) is getattr(traj, name)
        # linspace writes its endpoint exactly: the last sample is the end radius
        assert traj.r_end == traj.r[-1]
        assert (traj.r_end > DENSE_UNTIL) == (traj.status == "horizon" and a == 1.0)

    def test_psi_columns_use_the_same_rules(self, P2):
        psi = psi_integrate(P2)
        assert psi.status == "FZero" and psi.r_end == psi.r[-1]
        assert psi.fprime.tobytes() == _rhs_arrays(P2, psi.r, psi.f, psi.g, absorption=False)[0].tobytes()


def segment_oracle(dense, r: float) -> np.ndarray:
    """(f, g) at one radius as scipy's OdeSolution and Dop853DenseOutput gave it.

    The segment is searchsorted(ts, r, "left") - 1 clipped to the segments;
    its Horner sum runs on numpy values, from F6 down to F0, times x and
    1 - x by turns, then plus the step's start.
    """
    k = min(max(int(np.searchsorted(dense.ts, r, side="left")) - 1, 0), len(dense.ts) - 2)
    r_old, h, f_old, g_old, *F = dense.coef[k]
    x = (np.asarray(r) - r_old) / h
    y = np.zeros(2)
    for i, f in enumerate(reversed(np.reshape(F, (7, 2)))):
        y += f
        y *= x if i % 2 == 0 else 1 - x
    y += np.array([f_old, g_old])
    return y


class TestDenseOutput:
    """The vectorised dense output against the per-segment formula it replaced."""

    @pytest.mark.parametrize("point, a", [((2, 1.5), 1.0), ((2, 1.5), 100.0), ((2, 1.5), None), ((3, 1.7), None)])
    def test_eval_is_the_per_segment_formula_bit_for_bit(self, ctx, point, a):
        P = ctx.params(*point)
        traj = integrate(P, ctx.ground_state(*point).a_star if a is None else a)
        ts = traj.dense.ts
        # 4,000 radii reaching past both ends, and every segment end
        r = np.concatenate([np.linspace(ts[0] - 1.0, ts[-1] + 1.0, 4000), ts])
        want = np.array([segment_oracle(traj.dense, x) for x in r]).T
        f, g = traj.eval(r)
        assert f.tobytes() == want[0].tobytes()
        assert g.tobytes() == want[1].tobytes()
        # one radius at a time, as brentq calls it on the step that holds an event
        for x in r[::41]:
            k = min(max(int(np.searchsorted(ts, x, side="left")) - 1, 0), len(ts) - 2)
            got = np.array(_horner(tuple(traj.dense.coef[k]), float(x)))
            assert got.tobytes() == segment_oracle(traj.dense, x).tobytes()

    def test_scalar_eval_keeps_the_shape(self, P2):
        traj = integrate(P2, 1.0)
        f, g = traj.eval(2.0)
        assert np.ndim(f) == np.ndim(g) == 0
        assert (float(f), float(g)) == tuple(float(v) for v in segment_oracle(traj.dense, 2.0))

    @pytest.mark.parametrize(
        "a, kw, roots",
        [(100.0, {}, {"FZero": 0.7255126829577537}), (7.0, {"r_max": 3.2}, {"FZero": 3.1106755746826167})],
    )
    def test_event_roots_pinned(self, P2, a, kw, roots):
        # brentq runs on one step's interpolant; its roots keep the bits they
        # had when each step was a scipy DenseOutput, and a horizon just past
        # the zero leaves them as they are
        traj = integrate(P2, a, IntegratorOptions(**kw))
        assert {traj.status: traj.r_end} == roots
        assert psi_integrate(P2).r_end == 2.8307852700958747


class TestEnergy:
    def test_at_the_center(self, P2):
        assert _energy_arrays(P2, 3.0, 0.0) == pytest.approx(4.5)

    def test_direct_value(self, P2):
        assert _energy_arrays(P2, 0.0, 1.0) == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
    def test_nonincreasing_along_trajectories(self, P2, a):
        traj = integrate(P2, a)
        assert np.max(np.diff(traj.E)) <= 1e-12 * traj.E[0]


class TestStructuralIdentities:
    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_divergence_form_and_w_slope(self, P2, a):
        # d/dr[rho |f'|^(p-2) f'] = -rho f, equivalently w' = rho f
        traj = integrate(P2, a)
        hi = 0.99 * traj.r_end
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
        assert psi.status == "FZero" and psi.end_slope < 0.0

    def test_initial_energy_is_half(self, P2):
        psi = psi_integrate(P2)
        assert psi.E[0] == pytest.approx(0.5, rel=1e-10)

    def test_rescaled_profiles_converge_to_psi(self, ctx, P2):
        # criterion 9's comparison: each run reaches s0 scale before it ends,
        # so no value is read past its end, and the sups keep their bits
        psi = psi_integrate(P2)
        s0 = psi.r_end
        s = np.linspace(psi.r[0], s0, 2000)
        ref = psi.eval(s)[0]
        sups = []
        for a in (10.0, 100.0, 1000.0):
            scale = a ** (-(2.0 - P2.p) / P2.p)
            traj = ctx.trajectory(2, 1.5, a, r_max=s0 * scale * 1.05 + 0.5)
            assert traj.r_end >= s0 * scale
            sups.append(float(np.max(np.abs(traj.eval(s * scale)[0] / a - ref))))
        assert sups == [0.33957362765268095, 0.18075605165778913, 0.08975116463232503]


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
