"""Shooting-parameter classification and the fast-decaying ground state.

The admissible heights split into C = (0, a_*) (positive profiles with slow
algebraic decay), the singleton B = {a_*} (the unique fast exponential
decayer), and A = (a_*, infinity) (sign change at finite radius). B has
measure zero, so it is never a direct verdict: a run that neither crosses
zero nor drives the Pohozaev functional negative stays "Unresolved", and a_*
is produced only as the limit of a (C, A) bisection.

The settings no caller varies are module constants: the J-negativity
threshold J_NEG_THRESHOLD of the C verdict, the doubling budget
BRACKET_MAX_STEPS of ``bracket_search``, the iteration budget
BISECT_MAX_ITER of ``bisect_a_star``, and the plateau tolerance PLATEAU_TOL
and minimum length PLATEAU_MIN_LEN of ``estimate_l``. TOL_A is the one
default of the bisection tolerance tol_a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .params import Params, require_positive
from .profile_ode import IntegratorOptions, Trajectory, integrate, shoot
# J_along is unused here, but perfbench/tracing.py wraps it on this module
from .pohozaev import J_along, J_eval, find_r_G  # noqa: F401

__all__ = [
    "Classification",
    "GroundStateResult",
    "PlateauEstimate",
    "TailSlopes",
    "BracketFailureError",
    "BisectionStallError",
    "NoPlateauError",
    "WindowTooShortError",
    "classify",
    "bracket_search",
    "bisect_a_star",
    "find_ground_state",
    "estimate_l",
    "tail_slopes",
]

# C verdict: J below -J_NEG_THRESHOLD * (1 + running max |J|) past r_G, the
# running max taken over the probe's accepted step ends so far
J_NEG_THRESHOLD = 1e-8
BRACKET_MAX_STEPS = 60  # doublings (and halvings) of bracket_search
BISECT_MAX_ITER = 200
# default bisection tolerance on the bracket width; criterion 4 gates at it
TOL_A = 1e-10
# step ends per vectorised J evaluation of a probe: J_eval on one state at a
# time costs about a quarter of the probe's time
_J_BLOCK = 16
PLATEAU_TOL = 0.005  # relative variation of rho*g within a plateau window
PLATEAU_MIN_LEN = 1.0


class BracketFailureError(RuntimeError):
    """Doubling/halving never produced a (C, A) bracket."""


class BisectionStallError(RuntimeError):
    """Bisection exceeded its iteration budget."""


class NoPlateauError(RuntimeError):
    """No flat stretch of rho*g long enough to read off l."""


class WindowTooShortError(ValueError):
    """Tail-fit window contains too few usable samples."""


@dataclass(frozen=True)
class Classification:
    a: float
    verdict: str  # "A" | "C" | "Unresolved"
    r_end: float  # where the probe stopped integrating
    steps: int  # accepted DOP853 steps of the probe
    R: float | None = None  # A: first zero of f
    slope: float | None = None  # A: f'(R) < 0
    r_bar: float | None = None  # C: first J-negativity radius, between step ends
    J_at_rbar: float | None = None
    diagnostics: dict | None = None  # Unresolved: why, and the h/g-f/J state at r_end


@dataclass
class PlateauEstimate:
    found: bool
    l: float
    window: tuple[float, float]


@dataclass(frozen=True)
class TailSlopes:
    slope_exp: float  # fitted exponential rate, algebraic prefactor removed
    slope_alg: float  # fitted log f vs log r slope
    g_over_f: float  # mean g/f on the exponential window
    prefactor_ratio: float  # f * ((2-p) r/(p-1))^((p-1)/(2-p)) at the largest radius


@dataclass
class GroundStateResult:
    params: Params
    a_lo: float
    a_hi: float
    a_star: float
    l_star: float
    c_star: float
    trust_radius: float
    plateau_window: tuple[float, float]
    iterations: int
    traj: Trajectory  # run at the final bracket midpoint


def classify(params: Params, a: float, opts: IntegratorOptions | None = None) -> Classification:
    """Classify one shooting height into A / C / Unresolved, stopping once proven.

    A requires the f-zero event with negative crossing slope. C requires the
    Pohozaev functional to fall below -threshold at an accepted step end past
    r_G with f still positive: J is provably decreasing on that range, so it
    stays there and the run stops. r_bar is the root of J + threshold, linear
    between the two step ends that bracket it. A run that ends at r_max, at a
    g-zero or on step-size underflow is Unresolved, never guessed; its
    diagnostics say which and give the end state.
    """
    if a <= 0:
        raise ValueError("shooting parameter a must be positive")
    opts = opts or IntegratorOptions()
    proof = _SlowDecayProof(params, find_r_G(params))
    shot = shoot(params, a, replace(opts, track_past_fzero=False), stop=proof)
    done = {"a": a, "r_end": shot.end.r, "steps": shot.steps}
    ev = shot.events.get("FZero")
    if ev is not None and ev.info["slope"] < 0.0:
        return Classification(verdict="A", R=ev.r, slope=ev.info["slope"], **done)
    if shot.status == "stopped" or proof.check():
        return Classification(verdict="C", r_bar=proof.r_bar, J_at_rbar=proof.J_at_rbar, **done)

    end = shot.end
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = {
            "status": shot.status,
            "h_end": float(np.float64(end.f) / end.g) if end.g > 0.0 else math.nan,
            "g_over_f_end": float(np.float64(end.g) / end.f),
            "J_end": float(J_eval(params, end.r, end.f, end.g)),
        }
    return Classification(verdict="Unresolved", diagnostics=diag, **done)


class _SlowDecayProof:
    """Stop test of a probe: proves the C verdict at accepted step ends.

    Step ends are buffered and J is evaluated _J_BLOCK at a time, so a probe
    runs at most _J_BLOCK - 1 steps past its proof; ``check`` tests what is
    still buffered when the run ends otherwise.
    """

    def __init__(self, params: Params, r_G: float):
        self.params, self.r_G = params, r_G
        self.r: list[float] = []
        self.f: list[float] = []
        self.g: list[float] = []
        self.J: list[float] = []  # J at the checked step ends
        self.v: list[float] = []  # J + threshold there
        self.J_max = 0.0
        self.r_bar: float | None = None
        self.J_at_rbar: float | None = None

    def __call__(self, r: float, f: float, g: float) -> bool:
        self.r.append(r)
        self.f.append(f)
        self.g.append(g)
        return len(self.r) - len(self.J) >= _J_BLOCK and self.check()

    def check(self) -> bool:
        """Test the buffered step ends; True (with r_bar set) once C is proven."""
        n = len(self.J)
        r, f, g = (np.array(x[n:]) for x in (self.r, self.f, self.g))
        if not r.size:
            return False
        J = J_eval(self.params, r, f, g)
        running = np.maximum.accumulate(np.maximum(np.abs(J), self.J_max))
        thr = J_NEG_THRESHOLD * (1.0 + running)
        self.J_max = float(running[-1])
        self.J.extend(J)
        self.v.extend(J + thr)
        hit = np.flatnonzero((J < -thr) & (r > self.r_G) & (f > 0.0))
        if not hit.size:
            return False
        k = n + int(hit[0])
        if k == 0:
            self.r_bar, self.J_at_rbar = float(self.r[0]), float(self.J[0])
            return True
        r0, r1 = self.r[k - 1], self.r[k]
        v0, v1 = self.v[k - 1], self.v[k]
        # the root of J + threshold; where the step before failed the test
        # only by lying inside r_G, the test turns true at r_G itself
        r_bar = max(r0 + (r1 - r0) * v0 / (v0 - v1), self.r_G) if v0 > 0.0 else self.r_G
        self.r_bar = float(r_bar)
        self.J_at_rbar = float(self.J[k - 1] + (self.J[k] - self.J[k - 1]) * (r_bar - r0) / (r1 - r0))
        return True


def bracket_search(
    params: Params, opts: IntegratorOptions | None = None, a_init: float = 1.0
) -> tuple[float, float]:
    """Find a_lo in C and a_hi in A by doubling/halving from a_init."""
    opts = opts or IntegratorOptions()
    verdicts: dict[float, str] = {}

    def verdict(a: float) -> str:
        if a not in verdicts:
            verdicts[a] = classify(params, a, opts).verdict
        return verdicts[a]

    a_hi = None
    a = a_init
    for _ in range(BRACKET_MAX_STEPS):
        if verdict(a) == "A":
            a_hi = a
            break
        a *= 2.0
    if a_hi is None:
        raise BracketFailureError(f"no A verdict found up to a={a / 2.0}")

    a_lo = None
    a = a_init
    for _ in range(BRACKET_MAX_STEPS):
        if verdict(a) == "C":
            a_lo = a
            break
        a /= 2.0
    if a_lo is None:
        raise BracketFailureError(f"no C verdict found down to a={a * 2.0}")
    return a_lo, a_hi


def _classify_resolving(params: Params, a: float, opts: IntegratorOptions) -> Classification:
    """Classify, extending the horizon up to 10x before giving up."""
    c = classify(params, a, opts)
    for scale in (2.0, 5.0, 10.0):
        if c.verdict != "Unresolved":
            return c
        c = classify(params, a, replace(opts, r_max=scale * opts.r_max))
    return c


def bisect_a_star(
    params: Params,
    bracket: tuple[float, float],
    tol_a: float = TOL_A,
    opts: IntegratorOptions | None = None,
) -> GroundStateResult:
    """Bisect the (C, A) bracket down to tol_a and extract l and c.

    The (C, A) invariant is preserved strictly: an endpoint moves only onto a
    height with a proven verdict. Unresolved midpoints are retried at longer
    horizons, then sidestepped by probing off-center points.
    """
    opts = opts or IntegratorOptions()
    a_lo, a_hi = bracket
    if not 0.0 < a_lo < a_hi:
        raise ValueError("bracket must satisfy 0 < a_lo < a_hi")
    require_positive("tol_a", tol_a)  # tol_a <= 0 never ends the loop, a NaN skips it

    iterations = 0
    while a_hi - a_lo > tol_a:
        iterations += 1
        if iterations > BISECT_MAX_ITER:
            raise BisectionStallError(
                f"no convergence after {BISECT_MAX_ITER} iterations; width {a_hi - a_lo:.3g}"
            )
        moved = False
        for frac in (0.5, 0.375, 0.625, 0.25, 0.75):
            a_mid = a_lo + frac * (a_hi - a_lo)
            c = _classify_resolving(params, a_mid, opts)
            if c.verdict == "A":
                a_hi, moved = a_mid, True
                break
            if c.verdict == "C":
                a_lo, moved = a_mid, True
                break
        if not moved:
            raise BisectionStallError(
                f"bracket [{a_lo}, {a_hi}] unresolvable at 10x horizon; "
                "tighten tolerances or extend r_max"
            )

    a_star = 0.5 * (a_lo + a_hi)
    traj = integrate(params, a_star, opts)
    plateau = estimate_l(params, traj)
    if not plateau.found:
        traj = integrate(params, a_star, replace(opts, r_max=2.0 * opts.r_max))
        plateau = estimate_l(params, traj)
    if not plateau.found:
        raise NoPlateauError(
            "no rho*g plateau at the bisection limit; r_max too short or bracket too wide"
        )
    l_star = plateau.l
    c_star = (params.p - 1.0) * l_star**params.e_g
    trust = _trust_radius(params, a_lo, a_hi, traj, opts)
    return GroundStateResult(
        params=params,
        a_lo=a_lo,
        a_hi=a_hi,
        a_star=a_star,
        l_star=l_star,
        c_star=c_star,
        trust_radius=trust,
        plateau_window=plateau.window,
        iterations=iterations,
        traj=traj,
    )


def find_ground_state(
    params: Params, opts: IntegratorOptions | None = None, tol_a: float = TOL_A
) -> GroundStateResult:
    """The ground state a_*: bracket from a = 1, then bisect down to tol_a."""
    require_positive("tol_a", tol_a)  # a bad tolerance exits before seconds of bracket shooting
    opts = opts or IntegratorOptions()
    return bisect_a_star(params, bracket_search(params, opts), tol_a=tol_a, opts=opts)


def _trust_radius(
    params: Params, a_lo: float, a_hi: float, traj_mid: Trajectory, opts: IntegratorOptions
) -> float:
    """Largest radius before the bracket-endpoint runs separate by >1%."""
    t_lo = integrate(params, a_lo, opts)
    t_hi = integrate(params, a_hi, opts)
    r_hi = min(t_lo.r_end, t_hi.r_end, traj_mid.r_end)
    r = np.linspace(traj_mid.r[0], r_hi, 4000)
    f_lo, _ = t_lo.eval(r)
    f_hi, _ = t_hi.eval(r)
    f_mid, _ = traj_mid.eval(r)
    scale = np.maximum(np.abs(f_mid), 1e-300)
    apart = np.abs(f_lo - f_hi) / scale > 0.01
    k = np.flatnonzero(apart)
    return float(r[k[0]]) if k.size else float(r_hi)


def estimate_l(params: Params, traj: Trajectory) -> PlateauEstimate:
    """Longest window where rho*g varies by < PLATEAU_TOL; its mean estimates l.

    Returns found=False (soft failure) when no window of length PLATEAU_MIN_LEN
    exists, e.g. for class-A trajectories where rho*g dives to zero.
    """
    valid = (traj.g > 0.0) & (traj.r >= 1.0)
    r = traj.r[valid]
    w = traj.w[valid]
    if r.size < 8:
        return PlateauEstimate(found=False, l=math.nan, window=(math.nan, math.nan))
    best = (0.0, 0, 0)
    i = 0
    for j in range(1, r.size):
        seg = w[i : j + 1]
        while seg.max() - seg.min() > PLATEAU_TOL * abs(seg.mean()):
            i += 1
            seg = w[i : j + 1]
        if r[j] - r[i] > best[0]:
            best = (r[j] - r[i], i, j)
    length, i, j = best
    if length < PLATEAU_MIN_LEN:
        return PlateauEstimate(found=False, l=math.nan, window=(math.nan, math.nan))
    return PlateauEstimate(
        found=True, l=float(np.mean(w[i : j + 1])), window=(float(r[i]), float(r[j]))
    )


def tail_slopes(
    params: Params,
    traj: Trajectory,
    exp_window: tuple[float, float] | None = None,
    alg_window: tuple[float, float] | None = None,
) -> TailSlopes:
    """Least-squares decay rates of f on trusted windows.

    slope_exp fits log(f * r^((N-1)/(p-1))) against r, i.e. the exponential
    rate with the known algebraic prefactor of the fast-decay asymptotic
    removed (a raw log f fit carries an O((N-1)/r) bias that never reaches
    the asymptotic rate on desk-scale windows). Expected -1/(p-1) for the
    ground state. slope_alg fits log f against log r; expected -(p-1)/(2-p)
    for slow-decay profiles.
    """
    r_end = traj.r_end
    if exp_window is None:
        exp_window = (0.3 * r_end, 0.75 * r_end)
    if alg_window is None:
        alg_window = (0.2 * r_end, 0.8 * r_end)

    def window_data(win):
        mask = (traj.r >= win[0]) & (traj.r <= win[1]) & (traj.f > 0.0)
        if np.count_nonzero(mask) < 10:
            raise WindowTooShortError(f"window {win} has fewer than 10 usable samples")
        return traj.r[mask], traj.f[mask], traj.g[mask]

    r_e, f_e, g_e = window_data(exp_window)
    y = np.log(f_e) + (params.N - 1.0) * params.e_g * np.log(r_e)
    slope_exp = float(np.polyfit(r_e, y, 1)[0])
    g_over_f = float(np.mean(g_e / f_e))

    r_a, f_a, _ = window_data(alg_window)
    slope_alg = float(np.polyfit(np.log(r_a), np.log(f_a), 1)[0])

    r_last, f_last = r_a[-1], f_a[-1]
    pref = float(f_last * ((2.0 - params.p) / (params.p - 1.0) * r_last) ** params.e_slow)
    return TailSlopes(
        slope_exp=slope_exp, slope_alg=slope_alg, g_over_f=g_over_f, prefactor_ratio=pref
    )

