"""Shooting integrator for the radial profile equation.

The second-order profile equation

    (|f'|^(p-2) f')'(r) + (N-1)/r (|f'|^(p-2) f')(r) + f(r) - |f'(r)|^(p-1) = 0,
    f(0) = a, f'(0) = 0,

is integrated as the first-order system in (f, g) with g = -|f'|^(p-2) f':

    f' = -|g|^((2-p)/(p-1)) g,      g' = f - |g| - (N-1) g / r.

Sign convention: the g-equation above is the one consistent with the initial
slope g'(0) = a/N > 0 and with the second-order equation satisfied by g; it is
adopted everywhere (see the h = f/g and w = rho*g identities, which hold
exactly for it).

Each run is one stepping loop of explicit adaptive Runge-Kutta (DOP853,
``shoot``) over (eps, r_max), with a series start at r = eps to clear the
1/r coordinate singularity. It ends at the first zero of f, located on the
dense output of the step that brackets it: a height is in A exactly when
that zero exists, so no other event is watched. The state is two numbers,
so the steps are taken in plain floats: scipy's DOP853 tableau, copied
literal for literal into ``dop853_coefficients``, with scipy's initial-step
rule, error norm and control law, and the zero located by the Brent port in
``roots``; neither ``scipy.integrate`` nor ``scipy.optimize`` is imported.
As in Hairer's own ``dop853.f``, the stages are written out, one statement
each (``_trial``, ``_dense``): each sum runs left to right in tableau order
and leaves out the terms whose coefficient is zero. Those terms add signed
zeros, which leave a nonzero sum's bits as they are, so a trial step takes
the same values as a loop over the full tableau rows at about 40 % of its
cost.
Every run is one ``Trajectory``: how it ended, its end state and step
count. A kept run (``integrate``, ``psi_integrate``) also keeps
every step's interpolant coefficients as floats and stacks them into one
array at the end (``_DenseOutput``), which evaluates any number of radii in
one vectorised Horner sum, to the bits of scipy's per-segment OdeSolution;
its sampled columns are read from it on first use. A classification probe
computes the coefficients only for the step that holds the zero, and may end
the run early through its stop test. The
embedded error control alone sets the accuracy: there is no step cap, so
rel_tol is what a tighter or looser run changes. The settings no caller
varies are module constants: the absolute tolerance ABS_TOL, and the sample
spacing SAMPLE_DR with the radius DENSE_UNTIL where it relaxes;
``IntegratorOptions`` keeps the ones that do vary (rel_tol, r_max).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import dop853_coefficients as dop
from .params import NumericalError, Params, require_positive, weight_rho
from .roots import RTOL, brentq

__all__ = [
    "IntegratorOptions",
    "ProfileState",
    "Trajectory",
    "StepSizeUnderflowError",
    "NoZeroWithinHorizonError",
    "series_start",
    "run_start",
    "integrate",
    "shoot",
    "psi_integrate",
]


class StepSizeUnderflowError(NumericalError):
    """Adaptive stepper gave up; carries the last good state for diagnostics."""

    def __init__(self, message: str, last_state: "ProfileState | None" = None):
        super().__init__(message)
        self.last_state = last_state


class NoZeroWithinHorizonError(NumericalError):
    """psi stayed positive up to r_max, which contradicts its finite first zero."""


# near-pure relative control: an absolute floor at 1e-12 buries the
# exponential tails that the near-a_* classification runs live on
ABS_TOL = 1e-60
# spacing of the stored samples for r <= DENSE_UNTIL; beyond that it
# relaxes to bound sample counts
SAMPLE_DR = 0.05
DENSE_UNTIL = 20.0
# the zero of f to 4 ulp, the brentq tolerance of scipy's own event location
_ROOT_TOL = RTOL


@dataclass(frozen=True)
class IntegratorOptions:
    # the coarsest decade that resolves the separatrix: at 1e-10 a_* moves by
    # 1e-10 to 2e-10, and at 1e-11 the (2, 1.5) bisection midpoint turns A at
    # r = 15.5, where 1e-12 and 1e-13 keep it unresolved past r = 25
    rel_tol: float = 1e-12
    r_max: float = 50.0

    def __post_init__(self):
        # a NaN passes a plain <= 0 test and an infinite horizon never ends
        require_positive("rel_tol", self.rel_tol)
        require_positive("r_max", self.r_max)
        # DOP853's error control stops at 100 ulp: scipy raises a smaller
        # rtol to that floor without a word, so a smaller one is refused here
        floor = 100 * np.finfo(float).eps
        if self.rel_tol < floor:
            raise ValueError(f"rel_tol must be at least 100 eps = {floor:.6g}, got {self.rel_tol!r}")
        # a looser one ends runs wrongly without a word: at 1e-2 classify calls
        # 0.999 a_* at (3, 1.7) A, and at 0.5 a height in C reaches a zero of
        # f; from 1e-3 down, heights 0.1 to 10 a_* keep their verdicts
        if self.rel_tol > 1e-3:
            raise ValueError(f"rel_tol must be at most 1e-3, got {self.rel_tol!r}")


@dataclass(frozen=True)
class ProfileState:
    r: float
    f: float
    g: float


@dataclass
class Trajectory:
    """One shooting run: how it ended, where, and, when kept, its dense output.

    ``status`` names what ended it: "FZero" (the first zero of f), "horizon"
    (r_max), "stopped" (the caller's stop test) or "underflow" (the step size
    fell below 10 ulp of r). ``end`` is the state there: the root for
    "FZero", else the last accepted step end. ``dense`` is the run's dense
    output when it was kept; the sampled columns (``r`` to ``h``) are read
    from it on first use.
    """

    params: Params
    a: float
    status: str
    end: ProfileState
    steps: int
    dense: _DenseOutput | None = None

    @property
    def r_end(self) -> float:
        return self.end.r

    @property
    def end_slope(self) -> float:
        """f' at ``end``: the crossing slope of an "FZero" run."""
        # f' does not depend on the absorption term
        return float(_rhs_arrays(self.params, self.end.r, self.end.f, self.end.g, absorption=True)[0])

    def eval(self, r):
        """Evaluate (f, g) anywhere in the integrated range via dense output."""
        r = np.asarray(r, dtype=float)
        y = self.dense(r)
        return y[0], y[1]

    @cached_property
    def r(self) -> np.ndarray:
        return _sample_grid(self.dense.ts[0], self.end.r)

    @cached_property
    def _sampled(self) -> np.ndarray:
        return self.dense(self.r)

    @cached_property
    def f(self) -> np.ndarray:
        return self._sampled[0]

    @cached_property
    def g(self) -> np.ndarray:
        return self._sampled[1]

    @cached_property
    def fprime(self) -> np.ndarray:
        # f' does not depend on the absorption term
        return _rhs_arrays(self.params, self.r, self.f, self.g, absorption=True)[0]

    @cached_property
    def E(self) -> np.ndarray:
        return _energy_arrays(self.params, self.f, self.g)

    @cached_property
    def w(self) -> np.ndarray:
        """w = rho*g, whose slope is w' = rho*f."""
        with np.errstate(over="ignore"):
            # rho overflows past r ~ 700 on slow-decay horizons; w is a
            # moderate-r diagnostic, and estimate_l reads only finite w
            return weight_rho(self.params, self.r) * self.g

    @cached_property
    def h(self) -> np.ndarray:
        """h = w'/w = f/g, NaN wherever g <= 0. A run ends at the first zero of
        f, and g cannot reach zero before it (g' = f > 0 where g = 0), so the
        guard only keeps the ratio defined."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.g > 0.0, self.f / self.g, np.nan)


def eps_start(a: float) -> float:
    """Series-start radius; shrinks for large a where f bends faster."""
    return max(1e-8, 1e-6 / max(1.0, a))


def _rhs_arrays(params: Params, r, f, g, absorption: bool):
    """Right-hand side (df, dg) of the first-order system, elementwise."""
    absg = abs(g)
    df = -(absg**params.e_flux) * g
    dg = f - (params.N - 1) * g / r
    if absorption:
        dg = dg - absg
    return df, dg


def series_start(params: Params, a: float, eps: float) -> ProfileState:
    """Leading-order state at r = eps from g ~ a r / N and f' = -(a r/N)^(1/(p-1)).

    The f-correction is the integral of the leading slope; the matching
    g-correction enters only at higher order in eps and is omitted. It is
    written through g0 = a eps / N, since eps^(p/(p-1)) = eps^(1/(p-1)) eps:
    (a/N)^(1/(p-1)) alone overflows long before the correction does. A
    height whose correction reaches a (or overflows) has its first zero
    inside r = eps, and is refused.
    """
    require_positive("a", a)  # NaN and inf too: a NaN would shoot on to a step-size underflow
    p = params.p
    g0 = a * eps / params.N
    try:
        f0 = a - (p - 1.0) / p * g0**params.e_g * eps
    except OverflowError:
        f0 = -math.inf
    if not f0 > 0.0:
        raise ValueError(f"a = {a!r} is too large: f falls to zero before the series start r = {eps:.6g}")
    return ProfileState(r=eps, f=f0, g=g0)


def run_start(params: Params, a: float, opts: IntegratorOptions) -> ProfileState:
    """The series start of a run from a, refusing also a horizon inside it and a height so small
    (a rel_tol < ABS_TOL: a < 1e-48 at the defaults) that the absolute tolerance would set the steps."""
    eps = eps_start(a)
    if not opts.r_max > eps:
        raise ValueError(f"r_max must exceed the series start r = {eps:.6g}, got {opts.r_max!r}")
    state = series_start(params, a, eps)
    if a * opts.rel_tol < ABS_TOL:
        bound = f"ABS_TOL / rel_tol = {ABS_TOL / opts.rel_tol:.6g}"
        raise ValueError(f"a = {a!r} is too small: below {bound} the absolute tolerance, not rel_tol, sets the steps")
    return state


def _energy_arrays(params: Params, f, g):
    """E = (p-1)/p |f'|^p + f^2/2 with |f'|^p = |g|^(p/(p-1)), elementwise."""
    p = params.p
    return (p - 1.0) / p * np.abs(g) ** (p * params.e_g) + 0.5 * f * f


def integrate(params: Params, a: float, opts: IntegratorOptions = IntegratorOptions()) -> Trajectory:
    """Shoot from f(0)=a, f'(0)=0 until f crosses zero or r_max, and keep the run.

    The trajectory ends at the first of: FZero (f crosses zero; the root is
    resolved on the dense output of the step that brackets it, and
    ``end_slope`` is f' there) or r_max (status "horizon"). Step-size
    underflow raises StepSizeUnderflowError.
    """
    return _kept_run(params, a, opts, absorption=True)


def psi_integrate(params: Params, opts: IntegratorOptions = IntegratorOptions()) -> Trajectory:
    """Integrate the absorption-free companion problem psi(0)=1, psi'(0)=0.

    Ends at the first zero s0 of psi (``r_end``, with ``end_slope`` psi'
    there); psi provably has one, so running out of horizon raises
    NoZeroWithinHorizonError.
    """
    traj = _kept_run(params, 1.0, opts, absorption=False)
    if traj.status != "FZero":
        raise NoZeroWithinHorizonError(
            f"psi stayed positive up to r_max={opts.r_max}; this signals a bug"
        )
    return traj


def _kept_run(params: Params, a: float, opts: IntegratorOptions, absorption: bool) -> Trajectory:
    traj = shoot(params, a, opts, absorption, keep_dense=True)
    if traj.status == "underflow":
        raise StepSizeUnderflowError(
            f"step size underflow at r={traj.end.r:.6g} (a={a:.17g})", traj.end
        )
    return traj


def shoot(
    params: Params,
    a: float,
    opts: IntegratorOptions,
    absorption: bool = True,
    keep_dense: bool = False,
    stop=None,
) -> Trajectory:
    """Step DOP853 from the series start to r_max, the first zero of f or ``stop``.

    The steps are scipy's DOP853 steps in plain floats (``_first_step``,
    ``_step``, ``_dense``): the same tableau, error norm and control law, so
    the same step sequence up to the rounding of the stage sums. The sign of
    f is compared at each accepted step end, and a downward crossing is
    resolved by ``roots.brentq`` to 4 ulp on that step's interpolant, as
    scipy's IVP front end does, and ends the run. With ``keep_dense`` every
    step's interpolant coefficients are kept and become one ``_DenseOutput``
    at the end; otherwise they are computed only for the step that holds the
    zero.
    ``stop(r, f, g, dg)`` sees each accepted step end before the zero, with
    the step's own end slope dg = g' there, and a true return ends the run at
    that step end.
    """
    state0 = run_start(params, a, opts)

    def fun(r, f, g):
        return _rhs_arrays(params, r, f, g, absorption)

    rtol, r_max = opts.rel_tol, opts.r_max
    ts, coefs = [state0.r], []
    r, y = state0.r, (state0.f, state0.g)
    k = fun(r, *y)
    h_abs = _first_step(fun, r, y, k, r_max, rtol)
    status, steps = None, 0
    while status is None:
        step = _step(fun, r, y, k, h_abs, r_max, rtol)
        if step is None:
            status = "underflow"
            break
        steps += 1
        r_old, y_old = r, y
        r, y, k, h_abs, stages = step
        coef = _dense(fun, r_old, y_old, r, y, stages) if keep_dense else None
        if y_old[0] >= 0.0 >= y[0]:
            coef = coef or _dense(fun, r_old, y_old, r, y, stages)
            root = brentq(lambda s: _horner(coef, s)[0], r_old, r, xtol=_ROOT_TOL, rtol=_ROOT_TOL)
            status, r, y = "FZero", root, _horner(coef, root)
        elif stop is not None and stop(r, y[0], y[1], k[1]):
            status = "stopped"
        elif r >= r_max:
            status = "horizon"
        # a root on the step's start adds no segment, as in scipy
        if keep_dense and not (len(ts) > 1 and ts[-1] == r):
            ts.append(r)
            coefs.append(coef)
    end = ProfileState(r=float(r), f=float(y[0]), g=float(y[1]))
    dense = _DenseOutput(ts, coefs) if coefs else None
    return Trajectory(params, a, status, end, steps, dense)


# The DOP853 tableau, each nonzero entry bound to a name once: the node _Ci
# and row _Ai_j of stage i, the weights _Bj, the error estimators _E5_j and
# _E3_j and the interpolant rows _Di_j, indexed as in dop853_coefficients. A
# zero entry unpacks into ``_`` and its term is left out of the stage sums, as
# does the step end's node 1: that stage is evaluated at r + h.
_, _C1, _C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10, _C11, _, _C13, _C14, _C15 = dop.C
(_A1_0,) = dop.A[1][:1]
_A2_0, _A2_1 = dop.A[2][:2]
_A3_0, _, _A3_2 = dop.A[3][:3]
_A4_0, _, _A4_2, _A4_3 = dop.A[4][:4]
_A5_0, _, _, _A5_3, _A5_4 = dop.A[5][:5]
_A6_0, _, _, _A6_3, _A6_4, _A6_5 = dop.A[6][:6]
_A7_0, _, _, _A7_3, _A7_4, _A7_5, _A7_6 = dop.A[7][:7]
_A8_0, _, _, _A8_3, _A8_4, _A8_5, _A8_6, _A8_7 = dop.A[8][:8]
_A9_0, _, _, _A9_3, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8 = dop.A[9][:9]
_A10_0, _, _, _A10_3, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9 = dop.A[10][:10]
_A11_0, _, _, _A11_3, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10 = dop.A[11][:11]
_A13_0, _, _, _, _, _, _A13_6, _A13_7, _A13_8, _A13_9, _A13_10, _A13_11, _A13_12 = dop.A[13][:13]
_A14_0, _, _, _, _, _A14_5, _A14_6, _A14_7, _, _, _A14_10, _A14_11, _A14_12, _A14_13 = dop.A[14][:14]
_A15_0, _, _, _, _, _A15_5, _A15_6, _A15_7, _A15_8, _, _, _, _A15_12, _A15_13, _A15_14 = dop.A[15][:15]
_B0, _, _, _, _, _B5, _B6, _B7, _B8, _B9, _B10, _B11 = dop.B[:12]
_E5_0, _, _, _, _, _E5_5, _E5_6, _E5_7, _E5_8, _E5_9, _E5_10, _E5_11 = dop.E5[:12]
_E3_0, _, _, _, _, _E3_5, _E3_6, _E3_7, _E3_8, _E3_9, _E3_10, _E3_11 = dop.E3[:12]
_D0_0, _, _, _, _, _D0_5, _D0_6, _D0_7, _D0_8, _D0_9, _D0_10, _D0_11, _D0_12, _D0_13, _D0_14, _D0_15 = dop.D[0]
_D1_0, _, _, _, _, _D1_5, _D1_6, _D1_7, _D1_8, _D1_9, _D1_10, _D1_11, _D1_12, _D1_13, _D1_14, _D1_15 = dop.D[1]
_D2_0, _, _, _, _, _D2_5, _D2_6, _D2_7, _D2_8, _D2_9, _D2_10, _D2_11, _D2_12, _D2_13, _D2_14, _D2_15 = dop.D[2]
_D3_0, _, _, _, _, _D3_5, _D3_6, _D3_7, _D3_8, _D3_9, _D3_10, _D3_11, _D3_12, _D3_13, _D3_14, _D3_15 = dop.D[3]
del _


def _rms(u: float, v: float) -> float:
    return math.hypot(u, v) / math.sqrt(2.0)


def _first_step(fun, r, y, k, r_max, rtol) -> float:
    """scipy's select_initial_step for an error estimator of order 7."""
    (f, g), (kf, kg) = y, k
    sf, sg = ABS_TOL + abs(f) * rtol, ABS_TOL + abs(g) * rtol
    span = r_max - r
    d0 = _rms(f / sf, g / sg)
    d1 = _rms(kf / sf, kg / sg)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    kf1, kg1 = fun(r + h0, f + h0 * kf, g + h0 * kg)
    d2 = _rms((kf1 - kf) / sf, (kg1 - kg) / sg) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, span)


def _step(fun, r, y, k, h_abs, r_max, rtol):
    """One accepted DOP853 step from r with scipy's control law, or None on underflow.

    Returns the new r, state and slope, the next step size and the stage
    slopes that ``_dense`` extends. The law: safety 0.9, step factors within
    [0.2, 10] from err^(-1/8), no growth right after a rejection, and a step
    below 10 ulp of r gives up.
    """
    min_step = 10 * (math.nextafter(r, math.inf) - r)
    h_abs = max(h_abs, min_step)
    rejected = False
    while h_abs >= min_step:
        r_new = min(r + h_abs, r_max)
        h_abs = r_new - r
        try:
            y_new, k_new, stages, err = _trial(fun, r, y, k, h_abs, rtol)
        except OverflowError:
            # a float power left the range where an array would hold inf
            err = math.inf
        if err < 1:
            factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** (-1 / 8))
            if rejected:
                factor = min(1.0, factor)
            return r_new, y_new, k_new, h_abs * factor, stages
        # in this order a NaN norm shrinks the step too, down to underflow
        h_abs *= max(0.2, 0.9 * err ** (-1 / 8))
        rejected = True
    return None


def _trial(fun, r, y, k, h, rtol):
    """One DOP853 trial step of size h: the new state and slope, the 13 stage
    slopes (an f and a g tuple) and the combined err5/err3 norm.

    Each stage sum is written out left to right in tableau order, without the
    terms whose coefficient is zero. A zero coefficient times a finite slope
    is a signed zero, and adding one leaves a nonzero partial sum as it is, so
    with finite slopes the sums have the bits of the full tableau rows summed
    term by term (a sum that is exactly zero may differ in its sign). A
    non-finite slope of stages 0 to 11 still reaches the error estimators,
    directly or through the stages after it, and makes the norm non-finite.
    The step-end slope has no weight there, so the norm is NaN when it is
    not finite: such a step is rejected, as the full rows reject it, where
    its zero weight times the slope is NaN.
    """
    f, g = y
    k0f, k0g = k
    k1f, k1g = fun(r + _C1 * h, f + (_A1_0 * k0f) * h, g + (_A1_0 * k0g) * h)
    k2f, k2g = fun(r + _C2 * h, f + (_A2_0 * k0f + _A2_1 * k1f) * h, g + (_A2_0 * k0g + _A2_1 * k1g) * h)
    k3f, k3g = fun(r + _C3 * h, f + (_A3_0 * k0f + _A3_2 * k2f) * h, g + (_A3_0 * k0g + _A3_2 * k2g) * h)
    k4f, k4g = fun(
        r + _C4 * h,
        f + (_A4_0 * k0f + _A4_2 * k2f + _A4_3 * k3f) * h,
        g + (_A4_0 * k0g + _A4_2 * k2g + _A4_3 * k3g) * h,
    )
    k5f, k5g = fun(
        r + _C5 * h,
        f + (_A5_0 * k0f + _A5_3 * k3f + _A5_4 * k4f) * h,
        g + (_A5_0 * k0g + _A5_3 * k3g + _A5_4 * k4g) * h,
    )
    k6f, k6g = fun(
        r + _C6 * h,
        f + (_A6_0 * k0f + _A6_3 * k3f + _A6_4 * k4f + _A6_5 * k5f) * h,
        g + (_A6_0 * k0g + _A6_3 * k3g + _A6_4 * k4g + _A6_5 * k5g) * h,
    )
    k7f, k7g = fun(
        r + _C7 * h,
        f + (_A7_0 * k0f + _A7_3 * k3f + _A7_4 * k4f + _A7_5 * k5f + _A7_6 * k6f) * h,
        g + (_A7_0 * k0g + _A7_3 * k3g + _A7_4 * k4g + _A7_5 * k5g + _A7_6 * k6g) * h,
    )
    k8f, k8g = fun(
        r + _C8 * h,
        f + (_A8_0 * k0f + _A8_3 * k3f + _A8_4 * k4f + _A8_5 * k5f + _A8_6 * k6f + _A8_7 * k7f) * h,
        g + (_A8_0 * k0g + _A8_3 * k3g + _A8_4 * k4g + _A8_5 * k5g + _A8_6 * k6g + _A8_7 * k7g) * h,
    )
    k9f, k9g = fun(
        r + _C9 * h,
        f + (_A9_0 * k0f + _A9_3 * k3f + _A9_4 * k4f + _A9_5 * k5f + _A9_6 * k6f + _A9_7 * k7f
            + _A9_8 * k8f) * h,
        g + (_A9_0 * k0g + _A9_3 * k3g + _A9_4 * k4g + _A9_5 * k5g + _A9_6 * k6g + _A9_7 * k7g
            + _A9_8 * k8g) * h,
    )
    k10f, k10g = fun(
        r + _C10 * h,
        f + (_A10_0 * k0f + _A10_3 * k3f + _A10_4 * k4f + _A10_5 * k5f + _A10_6 * k6f + _A10_7 * k7f
            + _A10_8 * k8f + _A10_9 * k9f) * h,
        g + (_A10_0 * k0g + _A10_3 * k3g + _A10_4 * k4g + _A10_5 * k5g + _A10_6 * k6g + _A10_7 * k7g
            + _A10_8 * k8g + _A10_9 * k9g) * h,
    )
    k11f, k11g = fun(
        r + _C11 * h,
        f + (_A11_0 * k0f + _A11_3 * k3f + _A11_4 * k4f + _A11_5 * k5f + _A11_6 * k6f + _A11_7 * k7f
            + _A11_8 * k8f + _A11_9 * k9f + _A11_10 * k10f) * h,
        g + (_A11_0 * k0g + _A11_3 * k3g + _A11_4 * k4g + _A11_5 * k5g + _A11_6 * k6g + _A11_7 * k7g
            + _A11_8 * k8g + _A11_9 * k9g + _A11_10 * k10g) * h,
    )
    f_new = f + h * (_B0 * k0f + _B5 * k5f + _B6 * k6f + _B7 * k7f + _B8 * k8f + _B9 * k9f + _B10 * k10f
        + _B11 * k11f)
    g_new = g + h * (_B0 * k0g + _B5 * k5g + _B6 * k6g + _B7 * k7g + _B8 * k8g + _B9 * k9g + _B10 * k10g
        + _B11 * k11g)
    k_new = k12f, k12g = fun(r + h, f_new, g_new)
    sf = ABS_TOL + max(abs(f), abs(f_new)) * rtol
    sg = ABS_TOL + max(abs(g), abs(g_new)) * rtol
    e5f = (_E5_0 * k0f + _E5_5 * k5f + _E5_6 * k6f + _E5_7 * k7f + _E5_8 * k8f + _E5_9 * k9f
        + _E5_10 * k10f + _E5_11 * k11f) / sf
    e5g = (_E5_0 * k0g + _E5_5 * k5g + _E5_6 * k6g + _E5_7 * k7g + _E5_8 * k8g + _E5_9 * k9g
        + _E5_10 * k10g + _E5_11 * k11g) / sg
    e3f = (_E3_0 * k0f + _E3_5 * k5f + _E3_6 * k6f + _E3_7 * k7f + _E3_8 * k8f + _E3_9 * k9f
        + _E3_10 * k10f + _E3_11 * k11f) / sf
    e3g = (_E3_0 * k0g + _E3_5 * k5g + _E3_6 * k6g + _E3_7 * k7g + _E3_8 * k8g + _E3_9 * k9g
        + _E3_10 * k10g + _E3_11 * k11g) / sg
    e5, e3 = e5f * e5f + e5g * e5g, e3f * e3f + e3g * e3g
    if not (math.isfinite(k12f) and math.isfinite(k12g)):
        err = math.nan
    elif e5 == 0 and e3 == 0:
        err = 0.0
    else:
        err = h * e5 / math.sqrt((e5 + 0.01 * e3) * 2)
    stages = (
        (k0f, k1f, k2f, k3f, k4f, k5f, k6f, k7f, k8f, k9f, k10f, k11f, k12f),
        (k0g, k1g, k2g, k3g, k4g, k5g, k6g, k7g, k8g, k9g, k10g, k11g, k12g),
    )
    return (f_new, g_new), k_new, stages, err


def _dense(fun, r_old, y_old, r, y, stages) -> tuple[float, ...]:
    """The step's interpolant: three extra stages, then scipy's F coefficients.

    The coefficients are the floats (r_old, h, f_old, g_old, F0, ..., F6)
    with each F_k an (f, g) pair, the layout ``_horner`` and ``_DenseOutput``
    read. The sums are written out as in ``_trial``, zero terms left out,
    and with finite slopes have the bits of the full rows.
    """
    (f_old, g_old), (f, g) = y_old, y
    (k0f, _, _, _, _, k5f, k6f, k7f, k8f, k9f, k10f, k11f, k12f), (
        k0g, _, _, _, _, k5g, k6g, k7g, k8g, k9g, k10g, k11g, k12g
    ) = stages
    h = r - r_old
    k13f, k13g = fun(
        r_old + _C13 * h,
        f_old + (_A13_0 * k0f + _A13_6 * k6f + _A13_7 * k7f + _A13_8 * k8f + _A13_9 * k9f
            + _A13_10 * k10f + _A13_11 * k11f + _A13_12 * k12f) * h,
        g_old + (_A13_0 * k0g + _A13_6 * k6g + _A13_7 * k7g + _A13_8 * k8g + _A13_9 * k9g
            + _A13_10 * k10g + _A13_11 * k11g + _A13_12 * k12g) * h,
    )
    k14f, k14g = fun(
        r_old + _C14 * h,
        f_old + (_A14_0 * k0f + _A14_5 * k5f + _A14_6 * k6f + _A14_7 * k7f + _A14_10 * k10f
            + _A14_11 * k11f + _A14_12 * k12f + _A14_13 * k13f) * h,
        g_old + (_A14_0 * k0g + _A14_5 * k5g + _A14_6 * k6g + _A14_7 * k7g + _A14_10 * k10g
            + _A14_11 * k11g + _A14_12 * k12g + _A14_13 * k13g) * h,
    )
    k15f, k15g = fun(
        r_old + _C15 * h,
        f_old + (_A15_0 * k0f + _A15_5 * k5f + _A15_6 * k6f + _A15_7 * k7f + _A15_8 * k8f
            + _A15_12 * k12f + _A15_13 * k13f + _A15_14 * k14f) * h,
        g_old + (_A15_0 * k0g + _A15_5 * k5g + _A15_6 * k6g + _A15_7 * k7g + _A15_8 * k8g
            + _A15_12 * k12g + _A15_13 * k13g + _A15_14 * k14g) * h,
    )
    df, dg = f - f_old, g - g_old
    return (
        r_old, h, f_old, g_old,
        df, dg,
        h * k0f - df, h * k0g - dg,
        2 * df - h * (k12f + k0f), 2 * dg - h * (k12g + k0g),
        # F3 to F6: h times the four rows of D
        h * (_D0_0 * k0f + _D0_5 * k5f + _D0_6 * k6f + _D0_7 * k7f + _D0_8 * k8f + _D0_9 * k9f
            + _D0_10 * k10f + _D0_11 * k11f + _D0_12 * k12f + _D0_13 * k13f + _D0_14 * k14f + _D0_15 * k15f),
        h * (_D0_0 * k0g + _D0_5 * k5g + _D0_6 * k6g + _D0_7 * k7g + _D0_8 * k8g + _D0_9 * k9g
            + _D0_10 * k10g + _D0_11 * k11g + _D0_12 * k12g + _D0_13 * k13g + _D0_14 * k14g + _D0_15 * k15g),
        h * (_D1_0 * k0f + _D1_5 * k5f + _D1_6 * k6f + _D1_7 * k7f + _D1_8 * k8f + _D1_9 * k9f
            + _D1_10 * k10f + _D1_11 * k11f + _D1_12 * k12f + _D1_13 * k13f + _D1_14 * k14f + _D1_15 * k15f),
        h * (_D1_0 * k0g + _D1_5 * k5g + _D1_6 * k6g + _D1_7 * k7g + _D1_8 * k8g + _D1_9 * k9g
            + _D1_10 * k10g + _D1_11 * k11g + _D1_12 * k12g + _D1_13 * k13g + _D1_14 * k14g + _D1_15 * k15g),
        h * (_D2_0 * k0f + _D2_5 * k5f + _D2_6 * k6f + _D2_7 * k7f + _D2_8 * k8f + _D2_9 * k9f
            + _D2_10 * k10f + _D2_11 * k11f + _D2_12 * k12f + _D2_13 * k13f + _D2_14 * k14f + _D2_15 * k15f),
        h * (_D2_0 * k0g + _D2_5 * k5g + _D2_6 * k6g + _D2_7 * k7g + _D2_8 * k8g + _D2_9 * k9g
            + _D2_10 * k10g + _D2_11 * k11g + _D2_12 * k12g + _D2_13 * k13g + _D2_14 * k14g + _D2_15 * k15g),
        h * (_D3_0 * k0f + _D3_5 * k5f + _D3_6 * k6f + _D3_7 * k7f + _D3_8 * k8f + _D3_9 * k9f
            + _D3_10 * k10f + _D3_11 * k11f + _D3_12 * k12f + _D3_13 * k13f + _D3_14 * k14f + _D3_15 * k15f),
        h * (_D3_0 * k0g + _D3_5 * k5g + _D3_6 * k6g + _D3_7 * k7g + _D3_8 * k8g + _D3_9 * k9g
            + _D3_10 * k10g + _D3_11 * k11g + _D3_12 * k12g + _D3_13 * k13g + _D3_14 * k14g + _D3_15 * k15g),
    )


def _horner(coef, r):
    """(f, g) at r on a step's interpolant, in the operation order of scipy's
    Dop853DenseOutput: from F6 down to F0, times x and 1 - x by turns, then
    plus the step's start.

    ``coef[k]`` is the k-th number of ``_dense``'s layout: a float for one
    step, as brentq calls it, or an array holding it for each radius of an
    array ``r``. The arithmetic is elementwise, so both give the same bits.
    """
    x = (r - coef[0]) / coef[1]
    f = g = 0.0
    for i in range(7):
        w = x if i % 2 == 0 else 1 - x
        f = (f + coef[16 - 2 * i]) * w
        g = (g + coef[17 - 2 * i]) * w
    return f + coef[2], g + coef[3]


class _DenseOutput:
    """A kept run's interpolants, one row of ``_dense`` coefficients per step.

    Called with radii, it evaluates them all at once as scipy's OdeSolution
    did one segment at a time: each radius takes the first segment whose end
    it does not exceed (``searchsorted`` on the step ends, side "left"),
    clipped to the first and last segment, and ``_horner`` runs on the
    gathered coefficients, so the values are the same bits.

    Only perfbench/tracing.py reads the attributes ``sol_near`` and
    ``sol_far``, the names of the two integration phases a run once had; it
    counts accepted steps through them. A run now has one phase: ``sol_near``
    is this object, whose ``ts`` holds the step ends, and ``sol_far`` is
    always None.
    """

    sol_far = None

    def __init__(self, ts, coefs):
        self.ts = np.array(ts)
        self.coef = np.array(coefs)

    @property
    def sol_near(self) -> "_DenseOutput":
        return self

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        seg = np.clip(np.searchsorted(self.ts, r, side="left") - 1, 0, len(self.coef) - 1)
        return np.array(_horner(np.moveaxis(self.coef[seg], -1, 0), r))


def _sample_grid(eps: float, r_end: float) -> np.ndarray:
    near_end = min(r_end, DENSE_UNTIL)
    n_near = max(2, int(np.ceil((near_end - eps) / SAMPLE_DR)) + 1)
    grid = np.linspace(eps, near_end, n_near)
    if r_end > near_end:
        far_dr = max(SAMPLE_DR, (r_end - near_end) / 4000.0)
        n_far = max(2, int(np.ceil((r_end - near_end) / far_dr)) + 1)
        grid = np.concatenate([grid, np.linspace(near_end, r_end, n_far)[1:]])
    return grid
