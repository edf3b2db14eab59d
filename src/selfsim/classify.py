"""Shooting-parameter classification and the fast-decaying ground state.

The admissible heights split into C = (0, a_*) (positive profiles with slow
algebraic decay), the singleton B = {a_*} (the unique fast exponential
decayer), and A = (a_*, infinity) (sign change at finite radius). B has
measure zero, so it is never a direct verdict: a run that neither crosses
zero nor drives the Pohozaev functional negative stays "Unresolved", and a_*
is produced only as the limit of a (C, A) bracket whose endpoints move only
onto proven verdicts. A probe stops at the step end that proves its verdict:
the zero of f for A, the first step end passing the J test for C. Near a_*
the search reads how far each probe ran as well as its verdict: the zero
radius R of an A probe and the J-negativity radius r_bar of a C probe grow
linearly in -log|a - a_*|, so the search probes where the model through its
last probes puts a_* (``bisect_a_star``).

Each tail law of the profile has its own least-squares fit, on the one
window its caller names: ``fast_tail_slope`` the exponential rate of the
ground state f_* ~ c_* r^(-(N-1)/(p-1)) e^(-r/(p-1)), ``slow_tail`` the
algebraic decay r^(-(p-1)/(2-p)) of class C and its prefactor. Both read
(N, p) off the trajectory they fit, as ``GroundStateResult`` off its run.

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
from functools import cache, cached_property

import numpy as np

from .params import NumericalError, Params, require_positive
from .profile_ode import IntegratorOptions, Trajectory, _rhs_arrays, integrate, shoot
# J_along is unused here, but perfbench/tracing.py wraps it on this module
from .pohozaev import J_along, J_at, find_r_G  # noqa: F401
from .roots import brentq

__all__ = [
    "Classification",
    "GroundStateResult",
    "BracketFailureError",
    "BisectionStallError",
    "NoPlateauError",
    "WindowTooShortError",
    "classify",
    "bracket_search",
    "bisect_a_star",
    "find_ground_state",
    "estimate_l",
    "fast_tail_slope",
    "slow_tail",
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
class GroundStateResult:
    """The proven (C, A) bracket, its midpoint a_* and the run there to the search's r_max.

    The tail constants l_star, c_star, plateau_window and trust_radius are computed on first read.
    """

    a_lo: float
    a_hi: float
    a_star: float
    iterations: int  # shooting runs of the search, horizon retries included
    probe_steps: int  # their accepted DOP853 steps
    traj: Trajectory  # run at the final bracket midpoint; its params are the search's
    opts: IntegratorOptions  # the settings the search ran with

    @cached_property
    def _plateau(self) -> tuple[float, tuple[float, float]]:
        try:
            return estimate_l(self.traj)
        except NoPlateauError:
            longer = replace(self.opts, r_max=2.0 * self.opts.r_max)
        try:
            return estimate_l(integrate(self.traj.params, self.a_star, longer))
        except NoPlateauError:
            raise NoPlateauError(
                f"no rho*g plateau at a_* = {self.a_star!r}: no {PLATEAU_TOL:.1%}-flat window of length >= "
                f"{PLATEAU_MIN_LEN:g} on the midpoint run to r_max = {self.opts.r_max:g} or its rerun to {longer.r_max:g}"
            ) from None

    l_star = property(lambda self: self._plateau[0])
    plateau_window = property(lambda self: self._plateau[1])

    @property
    def c_star(self) -> float:
        return (self.traj.params.p - 1.0) * self.l_star**self.traj.params.e_g

    @cached_property
    def trust_radius(self) -> float:
        """Largest radius before the bracket-endpoint runs separate by >1%."""
        t_lo = integrate(self.traj.params, self.a_lo, self.opts)
        t_hi = integrate(self.traj.params, self.a_hi, self.opts)
        r_hi = min(t_lo.r_end, t_hi.r_end, self.traj.r_end)
        r = np.linspace(self.traj.r[0], r_hi, 4000)
        f_lo, f_hi, f_mid = (t.eval(r)[0] for t in (t_lo, t_hi, self.traj))
        scale = np.maximum(np.abs(f_mid), 1e-300)
        k = np.flatnonzero(np.abs(f_lo - f_hi) / scale > 0.01)
        return float(r[k[0]]) if k.size else float(r_hi)


def classify(params: Params, a: float, opts: IntegratorOptions = IntegratorOptions()) -> Classification:
    """Classify one shooting height into A / C / Unresolved, stopping once proven.

    A requires the run to end at the first zero of f (status "FZero") with
    negative crossing slope. C requires the Pohozaev functional to fall below
    -threshold at an accepted step end past r_G with f still positive: J is
    provably decreasing on that range, so it stays there, and the run stops
    at the first step end that proves it. r_bar is the root of J + threshold,
    linear between that step end and the one before. A run that ends at
    r_max or on step-size underflow is Unresolved, never guessed; its
    diagnostics say which and give the end state.
    """
    proof = _SlowDecayProof(params)
    shot = shoot(params, a, opts, stop=proof)
    done = {"a": a, "r_end": shot.r_end, "steps": shot.steps}
    if shot.status == "FZero" and shot.end_slope < 0.0:
        return Classification(verdict="A", R=shot.r_end, slope=shot.end_slope, **done)
    if shot.status == "stopped":
        return Classification(verdict="C", r_bar=proof.r_bar, J_at_rbar=proof.J_at_rbar, **done)

    end = shot.end
    _, dg = _rhs_arrays(params, end.r, end.f, end.g, absorption=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = {
            "status": shot.status,
            "h_end": float(np.float64(end.f) / end.g) if end.g > 0.0 else math.nan,
            "g_over_f_end": float(np.float64(end.g) / end.f),
            "J_end": J_at(params, end.r, end.g, dg),
        }
    return Classification(verdict="Unresolved", diagnostics=diag, **done)


class _SlowDecayProof:
    """Stop test of a probe past r_G = find_r_G(params): J in plain floats at each accepted step end, from
    the stepper's own g'; the previous step end's (r, J, J + threshold) is kept for r_bar."""

    def __init__(self, params: Params):
        self.params, self.r_G = params, find_r_G(params)
        self.prev: tuple[float, float, float] | None = None
        self.J_max = 0.0  # running max |J| over the step ends so far
        self.r_bar: float | None = None
        self.J_at_rbar: float | None = None

    def __call__(self, r: float, f: float, g: float, dg: float) -> bool:
        """Test one step end; True (with r_bar set) once C is proven."""
        J = J_at(self.params, r, g, dg)
        self.J_max = max(self.J_max, abs(J))
        thr = J_NEG_THRESHOLD * (1.0 + self.J_max)
        prev, self.prev = self.prev, (r, J, J + thr)
        if not (J < -thr and r > self.r_G and f > 0.0):
            return False
        if prev is None:
            self.r_bar, self.J_at_rbar = r, J
            return True
        (r0, J0, v0), v1 = prev, J + thr
        # the root of J + threshold; where the step before failed the test
        # only by lying inside r_G, the test turns true at r_G itself
        self.r_bar = max(r0 + (r - r0) * v0 / (v0 - v1), self.r_G) if v0 > 0.0 else self.r_G
        self.J_at_rbar = J0 + (J - J0) * (self.r_bar - r0) / (r - r0)
        return True


def bracket_search(
    params: Params, opts: IntegratorOptions = IntegratorOptions(), a_init: float = 1.0
) -> tuple[float, float]:
    """Find a_lo in C and a_hi in A by doubling/halving from a_init."""
    verdict = cache(lambda a: classify(params, a, opts).verdict)  # a_init is classified once, for both walks

    def walk(factor: float, want: str) -> float:
        a = a_init
        for _ in range(BRACKET_MAX_STEPS):
            if verdict(a) == want:
                return a
            a *= factor
        raise BracketFailureError(f"no {want} verdict found {'up' if factor > 1.0 else 'down'} to a={a / factor}")

    a_hi = walk(2.0, "A")
    return walk(0.5, "C"), a_hi


def bisect_a_star(
    params: Params,
    bracket: tuple[float, float],
    tol_a: float = TOL_A,
    opts: IntegratorOptions = IntegratorOptions(),
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
    runs and ``probe_steps`` their accepted steps. A tol_a finer than the float
    spacing at a_* is refused (ValueError) once no float lies between the ends.
    """
    a_lo, a_hi = bracket
    if not 0.0 < a_lo < a_hi:
        raise ValueError("bracket must satisfy 0 < a_lo < a_hi")
    require_positive("tol_a", tol_a)  # tol_a <= 0 never ends the loop, a NaN skips it

    search = _Search(params, a_lo, a_hi, opts)
    search.run(tol_a)
    a_star = 0.5 * (search.a_lo + search.a_hi)
    return GroundStateResult(
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

    def run(self, tol_a: float) -> None:
        model_failed = False
        while self.a_hi - self.a_lo > END_WIDTH * tol_a:
            width = self.a_hi - self.a_lo
            if math.nextafter(self.a_lo, self.a_hi) == self.a_hi:  # no float lies between: the width is final
                raise ValueError(f"tol_a = {tol_a!r} is finer than the floats at a_* resolve: a_lo = {self.a_lo!r} "
                                 f"and a_hi = {self.a_hi!r} are adjacent, {width:.3g} apart; the smallest tol_a "
                                 f"this bracket meets is {math.nextafter(width / END_WIDTH, math.inf)!r}")
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
                break
            if c.verdict == "C":
                self.a_lo = a
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
        for kind, side, x in (("A", 1.0, "R"), ("C", -1.0, "r_bar")):
            pts = [(c.a, getattr(c, x)) for c in self.probes if c.verdict == kind][-3:]
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
    params: Params, opts: IntegratorOptions = IntegratorOptions(), tol_a: float = TOL_A
) -> GroundStateResult:
    """The ground state a_*: bracket from a = 1, then narrow the bracket to tol_a."""
    require_positive("tol_a", tol_a)  # a bad tolerance exits before seconds of bracket shooting
    return bisect_a_star(params, bracket_search(params, opts), tol_a=tol_a, opts=opts)


def estimate_l(traj: Trajectory) -> tuple[float, tuple[float, float]]:
    """(l, window): the longest window where rho*g varies by < PLATEAU_TOL, and its mean, which estimates l.

    Raises NoPlateauError when fewer than 8 samples are usable or no window
    of length PLATEAU_MIN_LEN exists, e.g. for class-A trajectories, which
    end at their zero while rho*g still climbs.
    """
    # a guard: g stays positive up to the run's end, the first zero of f; and
    # rho overflows past r ~ 700, where a window of inf would read as flat
    w = traj.w
    valid = (traj.g > 0.0) & (traj.r >= 1.0) & np.isfinite(w)
    r = traj.r[valid]
    w = w[valid]
    if r.size < 8:
        raise NoPlateauError(f"{r.size} usable rho*g samples; a plateau needs 8")
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
        raise NoPlateauError(f"no {PLATEAU_TOL:.1%}-flat rho*g window of length >= {PLATEAU_MIN_LEN:g}")
    return float(np.mean(w[i : j + 1])), (float(r[i]), float(r[j]))


def _window(traj: Trajectory, window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """(r, f) at the samples of window where f > 0; at least 10 of them."""
    mask = (traj.r >= window[0]) & (traj.r <= window[1]) & (traj.f > 0.0)
    if np.count_nonzero(mask) < 10:
        raise WindowTooShortError(f"window {window} has fewer than 10 usable samples")
    return traj.r[mask], traj.f[mask]


def fast_tail_slope(traj: Trajectory, window: tuple[float, float]) -> float:
    """Least-squares exponential decay rate of f on window; expected -1/(p-1) for the ground state.

    It fits log(f * r^((N-1)/(p-1))) against r, i.e. the rate with the known
    algebraic prefactor of the fast-decay asymptotic removed (a raw log f fit
    carries an O((N-1)/r) bias that never reaches the asymptotic rate on
    desk-scale windows).
    """
    r, f = _window(traj, window)
    y = np.log(f) + (traj.params.N - 1.0) * traj.params.e_g * np.log(r)
    return float(np.polyfit(r, y, 1)[0])


def slow_tail(traj: Trajectory, window: tuple[float, float]) -> tuple[float, float]:
    """(slope, prefactor ratio) of the slow algebraic decay of f on window.

    slope is the least-squares slope of log f against log r, expected
    -(p-1)/(2-p) for slow-decay profiles; the prefactor ratio is
    f * ((2-p) r/(p-1))^((p-1)/(2-p)) at the window's largest radius, expected 1.
    """
    r, f = _window(traj, window)
    slope = float(np.polyfit(np.log(r), np.log(f), 1)[0])
    P = traj.params
    pref = float(f[-1] * ((2.0 - P.p) / (P.p - 1.0) * r[-1]) ** P.e_slow)
    return slope, pref
