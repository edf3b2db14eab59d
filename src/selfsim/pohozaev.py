"""Pohozaev functional J and its sign function G.

J is the weighted quadratic-plus-power functional of (g, g') whose derivative
along shooting trajectories is J'(r) = G(r) g(r)^2. G does not depend on the
shooting parameter and changes sign exactly once, at r_G, the reciprocal of
the unique positive root of an explicit cubic. The cubic form is the
production path; the direct finite-difference form G_direct exists purely as
an independent cross-check of the coefficient algebra. The diagnostics along
runs, ``J_along`` and ``wronskian_check``, read (N, p) off the runs.

The settings no caller varies are module constants: the root-bracket limit
CUBIC_Z_MAX of ``find_r_G``, the relative finite-difference step
FD_STEP_REL of ``G_direct``, and the grid size WRONSKIAN_POINTS of
``wronskian_check``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import NumericalError, Params, _rho, rho_antideriv, weight_rho
from .profile_ode import Trajectory, _rhs_arrays
from .roots import brentq

__all__ = [
    "JSeries",
    "PairSeries",
    "RootBracketFailureError",
    "GridMismatchError",
    "coeff_functions",
    "cubic_coeffs",
    "find_r_G",
    "G_cubic",
    "G_direct",
    "J_eval",
    "J_at",
    "J_along",
    "wronskian_check",
    "small_a_limit_z0",
]

CUBIC_Z_MAX = 1e3  # find_r_G doubles z up to here looking for the cubic's sign change
FD_STEP_REL = 1e-5  # central-difference step of G_direct, relative to r
WRONSKIAN_POINTS = 4001  # common-grid size of wronskian_check


class RootBracketFailureError(NumericalError):
    """No sign change found for the cubic; signals a coefficient bug."""


class GridMismatchError(ValueError):
    """Two trajectories do not share a usable common radius window."""


@dataclass
class JSeries:
    r: np.ndarray
    J: np.ndarray
    G: np.ndarray
    gsq: np.ndarray


@dataclass
class PairSeries:
    """Pairwise diagnostics of two trajectories on a common grid."""

    r: np.ndarray
    q: np.ndarray  # g2/g1
    X: np.ndarray  # q^2 J1 - J2
    W: np.ndarray  # Wronskian g1' g2 - g1 g2'
    residual: float


def coeff_functions(params: Params, r):
    """Coefficients (alpha, beta, gamma, delta) of J at radius r > 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("coefficient functions require r > 0")
    with np.errstate(over="ignore"):  # rho and its powers overflow past r ~ 590-700: those entries read inf
        alpha, beta, gamma = _coeffs(params, r, np.exp)
    return alpha, beta, gamma, alpha


def _coeffs(params: Params, r, exp):
    """(alpha, beta, gamma) of J at r > 0, elementwise: exp is np.exp on arrays, math.exp on a float."""
    N, p = params.N, params.p
    q = 3.0 * p - 2.0
    alpha = _rho(params, r, exp) ** params.e_weight
    beta = (2.0 * (p - 1.0) / q) * (1.0 + (N - 1.0) / r) * alpha
    c0 = 2.0 * (p - 1.0) * (2.0 - p) / q**2
    c1 = 4.0 * (N - 1.0) * (p - 1.0) * (2.0 - p) / q**2
    c2 = (N - 1.0) * (p * q + 2.0 * (N - 1.0) * (p - 1.0) * (2.0 - p)) / q**2
    gamma = -(c0 + c1 / r + c2 / r**2) * alpha
    return alpha, beta, gamma


def cubic_coeffs(params: Params) -> tuple[float, float, float, float]:
    """(M0, M1, M2, M3) of the cubic P(z) = (N-1)(M3 z^3 + M2 z^2 + M1 z) + M0."""
    N, p = params.N, params.p
    q = 3.0 * p - 2.0
    M3 = q**2 + (N - 1.0) * q * (3.0 * p - 4.0) - 2.0 * (p - 1.0) * (2.0 - p) * (N - 1.0) ** 2
    M2 = q * (3.0 * p - 4.0) - 6.0 * (N - 1.0) * (p - 1.0) * (2.0 - p)
    M1 = -6.0 * (p - 1.0) * (2.0 - p)
    M0 = -2.0 * (p - 1.0) * (2.0 - p)
    return M0, M1, M2, M3


def _cubic_eval(params: Params, z):
    M0, M1, M2, M3 = cubic_coeffs(params)
    n1 = params.N - 1.0
    return ((M3 * n1 * z + M2 * n1) * z + M1 * n1) * z + M0


def find_r_G(params: Params) -> float:
    """Radius where G changes sign: the reciprocal of the cubic's positive root.

    For N = 1 the cubic degenerates to the negative constant M0 (G < 0
    everywhere) and the returned radius is 0.
    """
    if params.N == 1:
        return 0.0
    z_hi = 1.0
    while _cubic_eval(params, z_hi) <= 0.0:
        z_hi *= 2.0
        if z_hi > CUBIC_Z_MAX:
            raise RootBracketFailureError(
                f"cubic has no sign change in (0, {CUBIC_Z_MAX}]; coefficients are wrong"
            )
    z_star = brentq(lambda z: _cubic_eval(params, z), 0.0, z_hi, xtol=1e-15, rtol=8.9e-16)
    return 1.0 / z_star


def G_cubic(params: Params, r):
    """G via the cubic identity (production path)."""
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):  # inf past rho's overflow, as in coeff_functions
        alpha = weight_rho(params, r) ** params.e_weight
    q = 3.0 * params.p - 2.0
    return params.p / q**3 * alpha * _cubic_eval(params, 1.0 / r)


def G_direct(params: Params, r):
    """G from its definition (N-1) beta / r^2 + gamma'/2, gamma' by central FD.

    Deliberately independent of the cubic form; the two must agree to
    rounding-plus-FD error, which certifies the coefficient algebra.
    """
    r = np.asarray(r, dtype=float)
    _, beta, _, _ = coeff_functions(params, r)
    h = FD_STEP_REL * r
    gamma_p = coeff_functions(params, r + h)[2]
    gamma_m = coeff_functions(params, r - h)[2]
    with np.errstate(invalid="ignore"):  # inf - inf (and 0 inf at N = 1) past rho's overflow reads nan
        dgamma = (gamma_p - gamma_m) / (2.0 * h)
        return (params.N - 1.0) / r**2 * beta + 0.5 * dgamma


def J_eval(params: Params, r, f, g):
    """J from state values; g' is reconstructed from the flow field."""
    r, f, g = (np.asarray(x, dtype=float) for x in (r, f, g))
    _, gp = _rhs_arrays(params, r, f, g, absorption=True)
    alpha, beta, gamma, _ = coeff_functions(params, r)
    with np.errstate(invalid="ignore"):  # inf - inf past rho's overflow reads nan
        return _J(params, alpha, beta, gamma, g, gp)


def J_at(params: Params, r: float, g: float, dg: float) -> float:
    """J at one radius r > 0 in plain floats from g and its slope dg, at a tenth of J_eval's cost per
    call; NaN where a float power leaves the range (past r ~ 590 at (2, 1.5)), as J_eval's inf - inf is."""
    try:
        return _J(params, *_coeffs(params, r, math.exp), g, dg)
    except OverflowError:
        return math.nan


def _J(params: Params, alpha, beta, gamma, g, gp):
    """J from its coefficients and (g, g'), elementwise; delta is alpha."""
    p = params.p
    power = (p - 1.0) / p * alpha * abs(g) ** (p * params.e_g)
    return 0.5 * alpha * gp**2 + beta * g * gp + 0.5 * gamma * g**2 + power


def J_along(traj: Trajectory) -> JSeries:
    """J, G and g^2 at a trajectory's samples, for the trajectory's own (N, p)."""
    r, f, g, params = traj.r, traj.f, traj.g, traj.params
    return JSeries(r=r, J=J_eval(params, r, f, g), G=G_cubic(params, r), gsq=g * g)


def _common_window(traj1: Trajectory, traj2: Trajectory, r_hi: float):
    lo = max(traj1.r[0], traj2.r[0])
    hi = min(traj1.r_end, traj2.r_end, r_hi)
    # a guard: g stays positive up to a run's end, the first zero of f
    for t in (traj1, traj2):
        bad = t.r[t.g <= 0.0]
        if bad.size:
            hi = min(hi, float(bad[0]))
    if not hi > lo:
        raise GridMismatchError("trajectories share no window with both g > 0")
    return lo, hi


def wronskian_check(traj1: Trajectory, traj2: Trajectory, r_hi: float) -> PairSeries:
    """Residual of the Wronskian quadrature identity for a pair a1 < a2 of one (N, p).

    W = g1' g2 - g1 g2' is compared against the integral of
    rho(s) (g2^((2-p)/(p-1)) - g1^((2-p)/(p-1))) g1 g2 / rho(r) on the common
    refinement (both trajectories' dense outputs evaluated on one fine grid).
    Returns the pairwise series; ``residual`` is the max mismatch relative to
    the scale of W on the window up to r_hi where both g > 0.
    """
    from scipy.integrate import cumulative_simpson

    params, other = traj1.params, traj2.params
    if other != params:
        raise ValueError(f"the pair must share (N, p), got ({params.N}, {params.p!r}) and ({other.N}, {other.p!r})")
    if not traj1.a <= traj2.a:
        raise ValueError("call with traj1.a <= traj2.a")
    lo, hi = _common_window(traj1, traj2, r_hi)
    r = np.linspace(lo, hi, WRONSKIAN_POINTS)
    f1, g1 = traj1.eval(r)
    f2, g2 = traj2.eval(r)
    _, gp1 = _rhs_arrays(params, r, f1, g1, absorption=True)
    _, gp2 = _rhs_arrays(params, r, f2, g2, absorption=True)
    W = gp1 * g2 - g1 * gp2
    rho = weight_rho(params, r)
    integrand = rho * (g2**params.e_flux - g1**params.e_flux) * g1 * g2
    Q = cumulative_simpson(integrand, x=r, initial=0.0) / rho
    # the [0, lo] head of the integral: integrand ~ rho * r^(2 + e_flux), negligible
    scale = max(np.max(np.abs(W)), np.max(np.abs(Q)), 1e-300)
    residual = float(np.max(np.abs(W - Q)) / scale)

    J1 = J_eval(params, r, f1, g1)
    J2 = J_eval(params, r, f2, g2)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(g1 > 0.0, g2 / g1, np.nan)
    X = q**2 * J1 - J2
    return PairSeries(r=r, q=q, X=X, W=W, residual=residual)


def small_a_limit_z0(params: Params, r_grid) -> tuple[np.ndarray, np.ndarray]:
    """Small-a limit profile z0 = rho^(-1) int_0^r rho, and its J-limit Z0.

    z0 solves the linearized shooting problem with z0(0) = 0, z0'(0) = 1/N and
    z0 -> 1 at infinity; Z0 drops the power term of J (it vanishes in the
    small-a limit).
    """
    r = np.asarray(r_grid, dtype=float)
    if np.any(r <= 0.0) or np.any(np.diff(r) <= 0.0):
        raise ValueError("r_grid must be positive and increasing")
    rho = weight_rho(params, r)
    z0 = rho_antideriv(params, r) / rho
    z0p = 1.0 - (1.0 + (params.N - 1.0) / r) * z0
    alpha, beta, gamma, _ = coeff_functions(params, r)
    Z0 = 0.5 * alpha * z0p**2 + beta * z0 * z0p + 0.5 * gamma * z0**2
    return z0, Z0
