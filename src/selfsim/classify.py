"""Shooting-parameter classification and the fast-decaying ground state.

The admissible heights split into C = (0, a_*) (positive profiles with slow
algebraic decay), the singleton B = {a_*} (the unique fast exponential
decayer), and A = (a_*, infinity) (sign change at finite radius). B has
measure zero, so it is never a direct verdict: a run that neither crosses
zero nor drives the Pohozaev functional negative stays "Unresolved", and a_*
is produced only as the limit of a (C, A) bracket whose endpoints move only
onto proven verdicts. Near a_* the search reads how far each probe ran as
well as its verdict: the zero radius R of an A probe and the J-negativity
radius r_bar of a C probe grow linearly in -log|a - a_*|, so the search
probes where the model through its last probes puts a_* (``bisect_a_star``).

The settings no caller varies are module constants: the J-negativity
threshold J_NEG_THRESHOLD of the C verdict, the doubling budget
BRACKET_MAX_STEPS of ``bracket_search``, the probe budget BISECT_MAX_ITER,
the model settings MODEL_WIDTH, PAIR_FRAC and PAIR_MIN and the final width
END_WIDTH of ``bisect_a_star``, and the plateau tolerance PLATEAU_TOL and
minimum length PLATEAU_MIN_LEN of ``estimate_l``. TOL_A is the one default
of the search tolerance tol_a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .params import NumericalError, Params, require_positive
from .profile_ode import IntegratorOptions, Trajectory, integrate, shoot
# J_along is unused here, but perfbench/tracing.py wraps it on this module
from .pohozaev import J_along, J_eval, find_r_G  # noqa: F401
from .roots import brentq

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
BISECT_MAX_ITER = 200  # shooting runs of one ground-state search
# model steps take over once the bracket is narrower than MODEL_WIDTH * a_hi
MODEL_WIDTH = 1e-2
# half-width of a model pair: PAIR_FRAC of the bracket width, at least
# PAIR_MIN * tol_a; the model misses a_* by a few percent of the distance
# to its nearest probe
PAIR_FRAC = 0.02
PAIR_MIN = 0.2
# the search ends once the bracket is at most END_WIDTH * tol_a wide, so the
# midpoint lies within 0.225 tol_a of every height in it: at tol_a = 1e-10
# that keeps a_* inside the README's stated errors from every start tried
# (a_init in [0.5, 2])
END_WIDTH = 0.45
# default search tolerance on the bracket width; criterion 4 gates at it
TOL_A = 1e-10
# step ends per vectorised J evaluation of a probe: J_eval costs about 50 us
# on one state and on 64 alike, five trial steps of DOP853 (9 us each), so one
# state at a time would take most of the probe's time. In the two-point
# ground-state search, blocks of 32 and 64 ran 3 to 10 % faster than 16, within
# the host's spread, and cost more steps past the proof (probe_steps 9,181 at
# 16, 9,421 at 32, 9,848 at 64), so the block stays at 16
_J_BLOCK = 16
PLATEAU_TOL = 0.005  # relative variation of rho*g within a plateau window
PLATEAU_MIN_LEN = 1.0


class BracketFailureError(NumericalError):
    """Doubling/halving never produced a (C, A) bracket."""


class BisectionStallError(NumericalError):
    """The ground-state search exceeded its probe budget or met an unresolvable bracket."""


class NoPlateauError(NumericalError):
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
    """The proven (C, A) bracket, its midpoint a_* and the run there to the search's r_max.

    The tail constants l_star, c_star, plateau_window and trust_radius are computed on first read.
    """

    params: Params
    a_lo: float
    a_hi: float
    a_star: float
    iterations: int  # shooting runs of the search, horizon retries included
    probe_steps: int  # their accepted DOP853 steps
    traj: Trajectory  # run at the final bracket midpoint
    opts: IntegratorOptions  # the settings the search ran with

    @cached_property
    def _plateau(self) -> PlateauEstimate:
        plateau = estimate_l(self.params, self.traj)
        if not plateau.found:
            longer = replace(self.opts, r_max=2.0 * self.opts.r_max)
            plateau = estimate_l(self.params, integrate(self.params, self.a_star, longer))
        if not plateau.found:
            raise NoPlateauError(
                f"no rho*g plateau at a_* = {self.a_star!r}: no {PLATEAU_TOL:.1%}-flat window of length >= "
                f"{PLATEAU_MIN_LEN:g} on the midpoint run to r_max = {self.opts.r_max:g} or its rerun to {longer.r_max:g}"
            )
        return plateau

    l_star = property(lambda self: self._plateau.l)
    plateau_window = property(lambda self: self._plateau.window)

    @property
    def c_star(self) -> float:
        return (self.params.p - 1.0) * self.l_star**self.params.e_g

    @cached_property
    def trust_radius(self) -> float:
        """Largest radius before the bracket-endpoint runs separate by >1%."""
        t_lo = integrate(self.params, self.a_lo, self.opts)
        t_hi = integrate(self.params, self.a_hi, self.opts)
        r_hi = min(t_lo.r_end, t_hi.r_end, self.traj.r_end)
        r = np.linspace(self.traj.r[0], r_hi, 4000)
        f_lo, f_hi, f_mid = (t.eval(r)[0] for t in (t_lo, t_hi, self.traj))
        scale = np.maximum(np.abs(f_mid), 1e-300)
        k = np.flatnonzero(np.abs(f_lo - f_hi) / scale > 0.01)
        return float(r[k[0]]) if k.size else float(r_hi)


def classify(params: Params, a: float, opts: IntegratorOptions | None = None) -> Classification:
    """Classify one shooting height into A / C / Unresolved, stopping once proven.

    A requires the run to end at the first zero of f (status "FZero") with
    negative crossing slope. C requires the Pohozaev functional to fall below
    -threshold at an accepted step end past r_G with f still positive: J is
    provably decreasing on that range, so it stays there and the run stops. r_bar is the root of J + threshold, linear
    between the two step ends that bracket it. A run that ends at r_max or on
    step-size underflow is Unresolved, never guessed; its diagnostics say
    which and give the end state.
    """
    opts = opts or IntegratorOptions()
    proof = _SlowDecayProof(params, find_r_G(params))
    shot = shoot(params, a, opts, stop=proof)
    done = {"a": a, "r_end": shot.r_end, "steps": shot.steps}
    if shot.status == "FZero" and shot.end_slope < 0.0:
        return Classification(verdict="A", R=shot.r_end, slope=shot.end_slope, **done)
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


def bisect_a_star(
    params: Params,
    bracket: tuple[float, float],
    tol_a: float = TOL_A,
    opts: IntegratorOptions | None = None,
) -> GroundStateResult:
    """Narrow the (C, A) bracket to at most END_WIDTH * tol_a and run its midpoint a_*.

    The search bisects until the bracket is narrower than MODEL_WIDTH * a_hi.
    From there it also reads how far its probes ran: near a_* the deviation
    from f_* grows like e^(mu r), so an A probe's zero radius R and a C
    probe's J-negativity radius r_bar grow linearly in -log|a - a_*|. The
    model a - a_* = K e^(-mu R) through the last three A probes (else
    a_* - a = K' e^(-nu r_bar) through the last three C probes) estimates
    a_*, and the search probes the pair a_est -+ max(PAIR_FRAC * width,
    PAIR_MIN * tol_a) around it, so a good estimate ends on a straddling pair
    0.4 tol_a wide. It bisects instead whenever no model fits inside the
    bracket or the last model round failed to quarter the width: the
    safeguard of Brent's method. The (C, A) invariant is preserved strictly:
    an endpoint moves only onto a height with a proven verdict. Unresolved
    probes are retried at longer horizons; a bisection step sidesteps one by
    probing off-center points. ``iterations`` counts the search's shooting
    runs and ``probe_steps`` their accepted steps.
    """
    opts = opts or IntegratorOptions()
    a_lo, a_hi = bracket
    if not 0.0 < a_lo < a_hi:
        raise ValueError("bracket must satisfy 0 < a_lo < a_hi")
    require_positive("tol_a", tol_a)  # tol_a <= 0 never ends the loop, a NaN skips it

    search = _Search(params, a_lo, a_hi, opts)
    search.run(tol_a)
    a_star = 0.5 * (search.a_lo + search.a_hi)
    return GroundStateResult(
        params=params,
        a_lo=search.a_lo,
        a_hi=search.a_hi,
        a_star=a_star,
        iterations=len(search.probes),
        probe_steps=sum(c.steps for c in search.probes),
        traj=integrate(params, a_star, opts),
        opts=opts,
    )


class _Search:
    """The (C, A) bracket of ``bisect_a_star`` and the probes that narrow it."""

    def __init__(self, params: Params, a_lo: float, a_hi: float, opts: IntegratorOptions):
        self.params, self.opts = params, opts
        self.a_lo, self.a_hi = a_lo, a_hi
        self.probes: list[Classification] = []  # every shooting run, retries included
        # (a, R) of the A verdicts and (a, r_bar) of the C verdicts, in order
        self.radii: dict[str, list[tuple[float, float]]] = {"A": [], "C": []}

    def run(self, tol_a: float) -> None:
        model_failed = False
        while self.a_hi - self.a_lo > END_WIDTH * tol_a:
            width = self.a_hi - self.a_lo
            a_est = None
            if not model_failed and width < MODEL_WIDTH * self.a_hi:
                a_est = self.estimate(tol_a)
            if a_est is None:
                self.bisect()
                model_failed = False
                continue
            half = max(PAIR_MIN * tol_a, PAIR_FRAC * width)
            for a in (a_est - half, a_est + half):
                # the first probe may have moved an endpoint past the second
                if self.a_lo < a < self.a_hi:
                    self.probe(a)
            model_failed = self.a_hi - self.a_lo > 0.25 * width

    def probe(self, a: float) -> str:
        """Classify a, extending the horizon up to 10x, and move the endpoint it proves."""
        for scale in (1.0, 2.0, 5.0, 10.0):
            if len(self.probes) >= BISECT_MAX_ITER:
                raise BisectionStallError(
                    f"no convergence after {BISECT_MAX_ITER} probes; "
                    f"width {self.a_hi - self.a_lo:.3g}"
                )
            opts = self.opts if scale == 1.0 else replace(self.opts, r_max=scale * self.opts.r_max)
            c = classify(self.params, a, opts)
            self.probes.append(c)
            if c.verdict == "A":
                self.a_hi = a
                self.radii["A"].append((a, c.R))
                break
            if c.verdict == "C":
                self.a_lo = a
                self.radii["C"].append((a, c.r_bar))
                break
        return c.verdict

    def bisect(self) -> None:
        a_lo, a_hi = self.a_lo, self.a_hi
        for frac in (0.5, 0.375, 0.625, 0.25, 0.75):
            if self.probe(a_lo + frac * (a_hi - a_lo)) != "Unresolved":
                return
        raise BisectionStallError(
            f"bracket [{a_lo}, {a_hi}] unresolvable at 10x horizon; "
            "tighten tolerances or extend r_max"
        )

    def estimate(self, tol_a: float) -> float | None:
        """a_* from the model through the last three A probes, else the last three C probes.

        The zero radius R of an A probe is a root to 4 ulp; r_bar is
        interpolated between step ends, so the A model is the sharper one.
        """
        for kind, side in (("A", 1.0), ("C", -1.0)):
            pts = self.radii[kind][-3:]
            if len(pts) == 3:
                a_fit = _model_root(pts, side, self.a_lo, self.a_hi, 1e-3 * tol_a)
                if a_fit is not None:
                    return a_fit
        return None


def _model_root(pts, side: float, a_lo: float, a_hi: float, xtol: float) -> float | None:
    """The a_* of side * (a - a_*) = K e^(-mu x) through three (a, x) probes, or None.

    side is +1 for A probes (above a_*, x = R) and -1 for C probes (below,
    x = r_bar). The radii must grow toward a_*; the root is sought between
    the nearest probe and the far end of the bracket, and None means the
    three points fit no such model there.
    """
    (a1, x1), (a2, x2), (a3, x3) = pts
    if not x1 < x2 < x3:
        return None

    def mismatch(s):
        l1, l2, l3 = (math.log(side * (a - s)) for a in (a1, a2, a3))
        return (l1 - l2) / (x1 - x2) - (l2 - l3) / (x2 - x3)

    far = a_lo if side > 0 else a_hi
    close = math.nextafter(a3, far)
    if not mismatch(far) < 0.0 < mismatch(close):
        return None
    return brentq(mismatch, far, close, xtol=xtol)


def find_ground_state(
    params: Params, opts: IntegratorOptions | None = None, tol_a: float = TOL_A
) -> GroundStateResult:
    """The ground state a_*: bracket from a = 1, then narrow the bracket to tol_a."""
    require_positive("tol_a", tol_a)  # a bad tolerance exits before seconds of bracket shooting
    opts = opts or IntegratorOptions()
    return bisect_a_star(params, bracket_search(params, opts), tol_a=tol_a, opts=opts)


def estimate_l(params: Params, traj: Trajectory) -> PlateauEstimate:
    """Longest window where rho*g varies by < PLATEAU_TOL; its mean estimates l.

    Returns found=False (soft failure) when no window of length PLATEAU_MIN_LEN
    exists, e.g. for class-A trajectories, which end at their zero while rho*g
    still climbs.
    """
    # a guard: g stays positive up to the run's end, the first zero of f
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

