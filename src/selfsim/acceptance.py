"""Acceptance suite: every release-gating check, one function per criterion.

Each criterion returns a CriterionResult whose checks carry the measured
value and the tolerance it was gated against. The CLI `verify` subcommand and
the pytest suite both run these functions; expensive artifacts (ground-state
bisections, production PDE runs) are memoized on the shared context.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .params import Params, make_params, weight_rho, rho_antideriv
from .profile_ode import IntegratorOptions, Trajectory, integrate, psi_integrate
from .pohozaev import (
    G_cubic,
    G_direct,
    J_eval,
    cubic_coeffs,
    find_r_G,
    small_a_limit_z0,
    wronskian_check,
)
from .classify import TOL_A, GroundStateResult, classify, estimate_l, fast_tail_slope, find_ground_state, slow_tail
from .pde import (
    ORACLE_HORIZON,
    FrameSeries,
    PdeConfig,
    RadialGrid,
    make_initial,
    profile_errors,
    rate_exponent,
    run_to_extinction,
    separable_initial,
    weighted_functionals,
)
from .roots import brentq

__all__ = ["Check", "CriterionResult", "AcceptanceContext", "CRITERIA", "RUNTIME_CHECK", "mass_balance_defect", "run_acceptance"]

POINTS = ((2, 1.5), (3, 1.7))


@dataclass
class Check:
    name: str
    value: float
    tol: float | None
    passed: bool

    def line(self) -> str:
        tol = "" if self.tol is None else f" (tol {self.tol:g})"
        return f"      {'ok' if self.passed else 'FAIL'}  {self.name} = {self.value:.6g}{tol}"


@dataclass
class CriterionResult:
    index: int
    title: str
    checks: list[Check] = field(default_factory=list)
    runtime: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, value: float, tol: float | None, passed: bool | None = None):
        if passed is None:
            passed = abs(value) <= tol if tol is not None else False
        self.checks.append(Check(name, float(value), tol, bool(passed)))

    def line(self) -> str:
        return f"[{self.index:2d}] {'PASS' if self.passed else 'FAIL'}  {self.title}  ({self.runtime:.1f}s)"


class AcceptanceContext:
    """Memoized expensive artifacts shared between criteria."""

    def __init__(self):
        self._cache: dict = {}

    def params(self, N: int, p: float) -> Params:
        return self._memo(("params", N, p), lambda: make_params(N, p))

    def ground_state(
        self, N: int, p: float, rel_tol: float = IntegratorOptions().rel_tol
    ) -> GroundStateResult:
        return self._memo(
            ("gs", N, p, rel_tol),
            lambda: find_ground_state(self.params(N, p), IntegratorOptions(rel_tol=rel_tol)),
        )

    def trajectory(self, N: int, p: float, a: float, **opt_kw) -> Trajectory:
        key = ("traj", N, p, a, tuple(sorted(opt_kw.items())))
        return self._memo(
            key, lambda: integrate(self.params(N, p), a, IntegratorOptions(**opt_kw))
        )

    def pde_separable(self, M: int = 2000):
        def build():
            return run_to_extinction(*separable_initial(self.ground_state(2, 1.5).traj, RadialGrid(15.0, M)))

        return self._memo(("pde-sep", M), build)

    def pde_exp_tail(self):
        def build():
            P = self.params(2, 1.5)
            grid = RadialGrid(15.0, 2000)
            cfg = PdeConfig(params=P, init_kind="exp_tail", kappa0=1.0)
            return run_to_extinction(cfg, make_initial(cfg, grid))

        return self._memo(("pde-exp",), build)

    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]


def _fd4(fun, r: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order central difference of fun at the points r."""
    return (fun(r - 2 * h) - 8 * fun(r - h) + 8 * fun(r + h) - fun(r + 2 * h)) / (12.0 * h)


def criterion_1(ctx: AcceptanceContext, res: CriterionResult):
    """Pohozaev derivative identity J' = G g^2 along shooting runs."""
    P = ctx.params(2, 1.5)
    h = 1e-3
    for a in (0.1, 1.0, 10.0):
        traj = ctx.trajectory(2, 1.5, a)
        hi = min(10.0, 0.995 * traj.r_end)
        r = np.linspace(0.1, hi, 2000)

        def J_of(rr):
            f, g = traj.eval(rr)
            return J_eval(P, rr, f, g)

        fd = _fd4(J_of, r, h)
        Gg2 = G_cubic(P, r) * traj.eval(r)[1] ** 2
        rel = np.max(np.abs(fd - Gg2) / (np.abs(Gg2) + 1.0))
        res.add(f"max rel |dJ/dr - G g^2|, a={a}", rel, 1e-5)


def criterion_2(ctx: AcceptanceContext, res: CriterionResult):
    """Direct G agrees with the cubic form; r_G matches the observed sign flip."""
    for N, p in POINTS:
        P = ctx.params(N, p)
        r = np.linspace(0.1, 20.0, 4000)
        mismatch = np.max(np.abs(G_direct(P, r) - G_cubic(P, r)) / (np.abs(G_cubic(P, r)) + 1.0))
        res.add(f"max |G_direct - G_cubic|/(|G|+1), ({N},{p})", mismatch, 1e-5)
        r_G = find_r_G(P)
        flip = brentq(lambda rr: float(G_direct(P, np.array([rr]))[0]), 0.8 * r_G, 1.2 * r_G, xtol=1e-14)
        res.add(f"|r_G(cubic) - r_G(direct)|, ({N},{p})", abs(flip - r_G), 1e-6)


def criterion_3(ctx: AcceptanceContext, res: CriterionResult):
    """Printed cubic coefficients, exactly; M3 at p_c equals 4N^3/(N+1)^2."""
    P = ctx.params(2, 1.5)
    M0, M1, M2, M3 = cubic_coeffs(P)
    expected = {"M3": 7.0, "M2": -0.25, "M1": -1.5, "M0": -0.5}
    got = {"M3": M3, "M2": M2, "M1": M1, "M0": M0}
    for k, v in expected.items():
        res.add(f"{k}(2,1.5) == {v}", got[k], None, got[k] == v)
    for N, p in POINTS:
        # evaluate at p_c + tiny: make_params rejects p = p_c itself
        p_c = 2.0 * N / (N + 1.0)
        M3c = cubic_coeffs(make_params(N, p_c + 1e-14))[3]
        target = 4.0 * N**3 / (N + 1.0) ** 2
        res.add(f"|M3(p_c) - 4N^3/(N+1)^2|, N={N}", abs(M3c - target), 1e-12)


def criterion_4(ctx: AcceptanceContext, res: CriterionResult):
    """Ground-state bisection: width, structure, and tolerance-agreement."""
    for N, p in POINTS:
        gs = ctx.ground_state(N, p)
        res.add(f"bracket width, ({N},{p})", gs.a_hi - gs.a_lo, TOL_A)
        res.add(f"iterations, ({N},{p})", gs.iterations, 200.0, gs.iterations <= 200)
        opts = IntegratorOptions()
        res.add(
            f"classify(a_lo/2) is C, ({N},{p})",
            gs.a_lo / 2.0,
            None,
            classify(ctx.params(N, p), gs.a_lo / 2.0, opts).verdict == "C",
        )
        res.add(
            f"classify(2 a_hi) is A, ({N},{p})",
            2.0 * gs.a_hi,
            None,
            classify(ctx.params(N, p), 2.0 * gs.a_hi, opts).verdict == "A",
        )
        gs13 = ctx.ground_state(N, p, rel_tol=1e-13)
        overlap = min(gs.a_hi, gs13.a_hi) - max(gs.a_lo, gs13.a_lo)
        res.add(f"bracket overlap at rel_tol 1e-13, ({N},{p})", overlap, None, overlap > 0.0)


def criterion_5(ctx: AcceptanceContext, res: CriterionResult):
    """Fast-decay tail at the bisection midpoint: its rate on (0.5, 0.95) trust_radius and the rho*g plateau."""
    for N, p in POINTS:
        gs = ctx.ground_state(N, p)
        target = -1.0 / (p - 1.0)
        win = (0.5 * gs.trust_radius, 0.95 * gs.trust_radius)
        slope = fast_tail_slope(gs.traj, win)
        res.add(
            f"|slope_exp - ({target:g})| / |{target:g}|, ({N},{p})",
            abs(slope - target) / abs(target),
            0.02,
        )
        plateau = estimate_l(gs.traj)
        res.add(f"rho*g plateau found, ({N},{p})", plateau.l, None, plateau.found)
        mask = (gs.traj.r >= plateau.window[0]) & (gs.traj.r <= plateau.window[1])
        w = gs.traj.w[mask]
        # sits just under the bound by construction: the estimator returns
        # the longest window satisfying it, and the check re-measures the
        # same deterministic samples
        res.add(
            f"in-window variation of rho*g, ({N},{p})",
            (w.max() - w.min()) / abs(w.mean()),
            0.005,
        )


def criterion_6(ctx: AcceptanceContext, res: CriterionResult):
    """Slow-decay tail at a_lo/10: log-log slope and the prefactor law on (100, 950)."""
    for N, p in POINTS:
        gs = ctx.ground_state(N, p)
        traj = ctx.trajectory(N, p, gs.a_lo / 10.0, r_max=1e3)
        target = -(p - 1.0) / (2.0 - p)
        slope, prefactor_ratio = slow_tail(traj, (100.0, 950.0))
        res.add(
            f"|slope_alg - ({target:g})| / |{target:g}|, ({N},{p})",
            abs(slope - target) / abs(target),
            0.05,
        )
        res.add(
            f"|prefactor ratio - 1| at r ~ 1e3, ({N},{p})",
            abs(prefactor_ratio - 1.0),
            0.10,
        )


def criterion_7(ctx: AcceptanceContext, res: CriterionResult):
    """ODE structural invariants on the suite trajectories."""
    worst = {"f1_f": 0.0, "f1_fp": 0.0, "dE": -np.inf, "f2": 0.0}
    for N, p in POINTS:
        P = ctx.params(N, p)
        heights = [0.1, 1.0, 10.0, ctx.ground_state(N, p).a_star]
        for a in heights:
            traj = ctx.trajectory(N, p, float(a))
            r_hi = 0.999 * traj.r_end
            m = traj.r <= r_hi
            r, f, g = traj.r[m], traj.f[m], traj.g[m]
            # (f1): 0 < f < a and -((a/N) r)^(1/(p-1)) < f' < 0 (1e-12 slack at
            # the series start, which sits exactly on the slope bound)
            ok_f = np.all((f > 0.0) & (f < a * (1 + 1e-12)))
            bound = -((a / N * r) ** (1.0 / (p - 1.0)))
            fp = traj.fprime[m]
            ok_fp = np.all((fp < 0.0) & (fp > bound * (1 + 1e-9)))
            worst["f1_f"] = max(worst["f1_f"], 0.0 if ok_f else 1.0)
            worst["f1_fp"] = max(worst["f1_fp"], 0.0 if ok_fp else 1.0)
            # energy nonincreasing along samples
            worst["dE"] = max(worst["dE"], float(np.max(np.diff(traj.E))) / traj.E[0])
            # divergence form (f2), d/dr[rho * (-g)] = -rho f, is the identity
            # w' = rho f for w = rho g, so one residual checks both. It is
            # taken by 4th-order differencing of the dense output, where
            # f >= 5% a: past that, the derivative being verified sits below
            # the integrator noise floor (w stays O(l) on the fast-decay
            # plateau while its increments vanish, and the A-branch crossing
            # has |w| >> rho f), so a relative comparison measures noise.
            # The step shrinks with r: the (N-1)/r terms inflate the fifth
            # derivative that drives the stencil's truncation error.
            live = r[f >= 0.05 * a]
            hi = max(min(float(live[-1]), r_hi) - 0.025, 0.2)
            rr = np.linspace(0.1, hi, 1500)
            h = np.minimum(1e-2, 0.1 * rr)

            def neg_rho_g(x):
                return -weight_rho(P, x) * traj.eval(x)[1]

            lhs = _fd4(neg_rho_g, rr, h)
            rho_f = weight_rho(P, rr) * traj.eval(rr)[0]
            rel = np.max(np.abs(lhs + rho_f) / np.maximum(np.abs(rho_f), 1e-300))
            worst["f2"] = max(worst["f2"], float(rel))
    res.add("(f1) bounds violated anywhere", worst["f1_f"] + worst["f1_fp"], None, worst["f1_f"] + worst["f1_fp"] == 0.0)
    res.add("max energy increase / E(0)", worst["dE"], 1e-12, worst["dE"] <= 1e-12)
    res.add("max rel (f2) / w' = rho f residual", worst["f2"], 1e-6)


def criterion_8(ctx: AcceptanceContext, res: CriterionResult):
    """Wronskian quadrature identity and the pair diagnostics at (0.5, 1.0)."""
    t1 = ctx.trajectory(2, 1.5, 0.5)
    t2 = ctx.trajectory(2, 1.5, 1.0)
    pair = wronskian_check(t1, t2, r_hi=5.0)
    res.add("Wronskian identity residual on [0, 5]", pair.residual, 1e-5)
    res.add("|q(0+) - a2/a1|", abs(pair.q[0] - 2.0), 1e-6)
    scale = 1.0 + float(np.nanmax(np.abs(pair.X)))
    res.add("|X(0+)| / (1 + max|X|)", abs(pair.X[0]) / scale, 1e-6)


def criterion_9(ctx: AcceptanceContext, res: CriterionResult):
    """Large-a limit: psi has a finite zero and phi(.;a) -> psi uniformly."""
    P = ctx.params(2, 1.5)
    psi = psi_integrate(P)
    s0 = psi.r_end
    res.add("psi first zero s0", s0, None, psi.status == "FZero" and math.isfinite(s0))
    res.add("psi'(s0) < 0", psi.end_slope, None, psi.end_slope < 0.0)
    s = np.linspace(psi.r[0], s0, 2000)
    psi_vals = psi.eval(s)[0]
    sups = []
    for a in (10.0, 100.0, 1000.0):
        scale = a ** (-(2.0 - P.p) / P.p)
        traj = ctx.trajectory(2, 1.5, a, r_max=s0 * scale * 1.05 + 0.5)
        phi = traj.eval(s * scale)[0] / a
        sups.append(float(np.max(np.abs(phi - psi_vals))))
    res.add("sup|phi - psi| decreasing over a = 10, 1e2, 1e3", sups[-1], None,
            sups[0] > sups[1] > sups[2])


def criterion_10(ctx: AcceptanceContext, res: CriterionResult):
    """Small-a limit z0: quadrature accuracy, limits, and g/a -> z0.

    The raw statements "z0(r)/r = 1/N within 1e-6 at r = 1e-4" and
    "z0(40) = 1 within 1e-6" hold only as quadrature-accuracy statements:
    analytically z0(r)/r - 1/N = -r/(N(N+1)) + O(r^2) and
    z0(40) = 1 - (N-1)/40 + O(r^-2), so the 1e-6 gates are applied to the
    quadrature against the closed forms, the computed deviation values are
    pinned, and z0(40) = 1 itself is asserted where it is true (N = 1).
    """
    from scipy.integrate import quad

    for N, p in POINTS:
        P = ctx.params(N, p)
        for r in (1e-4, 40.0):
            val = rho_antideriv(P, r)
            ref, _ = quad(lambda s: s ** (N - 1) * np.exp(s), 0.0, r, epsabs=1e-300, epsrel=1e-13)
            res.add(f"rho antiderivative vs quad, r={r:g}, ({N},{p})", abs(val - ref) / ref, 1e-6)
        z0_small, _ = small_a_limit_z0(P, np.array([1e-4]))
        dev = z0_small[0] / 1e-4 - 1.0 / N
        predicted = -1e-4 / (N * (N + 1.0))
        res.add(
            f"z0(r)/r - 1/N matches -r/(N(N+1)) at r=1e-4, ({N},{p})",
            abs(dev - predicted) / abs(predicted),
            0.2,
        )
        z0_far, _ = small_a_limit_z0(P, np.array([20.0, 40.0]))
        res.add(f"z0(40) -> 1 monotone, ({N},{p})", z0_far[1], None,
                abs(z0_far[1] - 1.0) < abs(z0_far[0] - 1.0))
    P1 = make_params(1, 1.5)
    z0_1, _ = small_a_limit_z0(P1, np.array([40.0]))
    res.add("|z0(40) - 1| at N=1", abs(z0_1[0] - 1.0), 1e-6)

    P = ctx.params(2, 1.5)
    rwin = np.linspace(1e-4, 10.0, 2000)
    z0w, _ = small_a_limit_z0(P, rwin)
    sups = []
    for a in (1e-1, 1e-2, 1e-3):
        traj = ctx.trajectory(2, 1.5, a)
        sups.append(float(np.max(np.abs(traj.eval(rwin)[1] / a - z0w))))
    res.add("sup|g/a - z0| decreasing over a = 1e-1..1e-3", sups[-1], None,
            sups[0] > sups[1] > sups[2])


def criterion_11(ctx: AcceptanceContext, res: CriterionResult):
    """Separable oracle at (M, R_inf) = (2000, 15): T_e and per-frame error."""
    gs = ctx.ground_state(2, 1.5)
    frames = ctx.pde_separable(M=2000)
    res.add("|T_e - 1|", abs(frames.T_e_estimate - 1.0), 0.02)
    cmp = profile_errors(frames, gs.traj)
    res.add(f"max sup_error for t <= {ORACLE_HORIZON:g} T0 [fraction of a_*]",
            cmp.sup_error[cmp.oracle].max() / gs.a_star, 0.03)


def mass_balance_defect(frames: FrameSeries) -> float:
    """max |dI/dt + pJ| / pJ over the mid-run records, 0.25 T_e < t < 0.7 T_e less five at each end.

    dI/dt is the three-point derivative, second order on the uneven record
    intervals (records follow the sup norm, so neighbouring intervals differ).
    """
    t, I, J = frames.t, frames.I, frames.J
    T_e = frames.T_e_estimate
    k = np.flatnonzero((t > 0.25 * T_e) & (t < 0.7 * T_e))[5:-5]
    h1, h2 = t[k] - t[k - 1], t[k + 1] - t[k]
    dIdt = (-h2 / (h1 * (h1 + h2)) * I[k - 1] + (h2 - h1) / (h1 * h2) * I[k]
            + h1 / (h2 * (h1 + h2)) * I[k + 1])
    pJ = frames.config.params.p * J[k]
    return float(np.max(np.abs(dIdt + pJ) / pJ))


def criterion_12(ctx: AcceptanceContext, res: CriterionResult):
    """Desk-scale convergence to the profile from exponential-tail data."""
    P = ctx.params(2, 1.5)
    gs = ctx.ground_state(2, 1.5)
    frames = ctx.pde_exp_tail()
    T_e = frames.T_e_estimate
    cmp = profile_errors(frames, gs.traj)
    last3 = cmp.sup_error[cmp.before_endgame][-3:]
    res.add("sup_error nonincreasing over last 3 frames", last3[-1], None,
            last3[0] >= last3[1] >= last3[2])
    res.add("final sup_error [fraction of a_*]", last3[-1] / gs.a_star, 0.05)
    expo, _ = rate_exponent(frames, T_e)
    res.add("|rate exponent - 1/(2-p)| / (1/(2-p))", abs(expo - P.e_time) / P.e_time, 0.10)
    res.add("rate fit R^2 >= 0.999", frames.rate_r2, None, frames.rate_r2 >= 0.999)
    res.add("max mid-run |dI/dt + pJ| / pJ", mass_balance_defect(frames), 0.02)
    E_v = np.array([weighted_functionals(P, frames.grid, v)[3] for v in cmp.v[cmp.before_endgame]])
    res.add("E(v(s_k)) increase beyond 1e-3 slack", float(np.max(np.diff(E_v))), 1e-3 * E_v[0],
            bool(np.max(np.diff(E_v)) <= 1e-3 * E_v[0]))
    res.add("supersolution excess beyond bound", frames.supersolution_excess, 1e-12)


def criterion_13(ctx: AcceptanceContext, res: CriterionResult):
    """Doubling M in the separable run reduces its largest oracle sup error by >= 1.5x.

    At both M that error sits on frame 0, the data rescaled by the fitted T_e, so the ratio (2.03) reads
    the error of T_e (|T_e - 1| = 6.8e-6 and 3.3e-6), not spatial refinement; the title is the report's.
    """
    gs = ctx.ground_state(2, 1.5)

    def sup_err(M):
        cmp = profile_errors(ctx.pde_separable(M=M), gs.traj)
        return cmp.sup_error[cmp.oracle].max()

    ratio = sup_err(2000) / sup_err(4000)
    res.add("sup_error(M=2000) / sup_error(M=4000)", ratio, None, ratio >= 1.5)


CRITERIA = [
    (1, "Pohozaev identity J' = G g^2 (rel 1e-5)", criterion_1),
    (2, "G direct vs cubic cross-check (rel 1e-5, r_G 1e-6)", criterion_2),
    (3, "cubic coefficients exact; M3 at p_c", criterion_3),
    (4, "ground-state bisection: width, structure, tolerance agreement", criterion_4),
    (5, "fast-decay tail slope and rho*g plateau", criterion_5),
    (6, "slow-decay tail slope and prefactor", criterion_6),
    (7, "ODE structural invariants (f1, energy, divergence form)", criterion_7),
    (8, "Wronskian identity and pair diagnostics", criterion_8),
    (9, "large-a limit via psi", criterion_9),
    (10, "small-a limit via z0", criterion_10),
    (11, "PDE separable oracle (M=2000, R_inf=15)", criterion_11),
    (12, "PDE convergence to profile from exp_tail data", criterion_12),
    (13, "grid-refinement sanity (M=2000 vs 4000)", criterion_13),
]

# wall-time budgets [s]: the criterion's last check, RUNTIME_CHECK, is its runtime against this
RUNTIME_BUDGET = {1: 5.0, 2: 1.0, 4: 60.0, 9: 5.0, 11: 300.0, 12: 600.0}
RUNTIME_CHECK = "runtime [s]"


def run_acceptance(ctx: AcceptanceContext, echo=None, only: set[int] | None = None) -> list[CriterionResult]:
    """Run the acceptance criteria on ctx's shared runs, one pass/fail line each."""
    results = []
    for index, title, fn in CRITERIA:
        if only is not None and index not in only:
            continue
        res = CriterionResult(index=index, title=title)
        start = time.perf_counter()
        fn(ctx, res)
        res.runtime = time.perf_counter() - start
        if index in RUNTIME_BUDGET:
            res.add(RUNTIME_CHECK, res.runtime, RUNTIME_BUDGET[index])
        results.append(res)
        if echo:
            echo(res.line())
            for check in res.checks:
                if not check.passed:
                    echo(check.line())
    return results
