"""Problem parameters for the critical diffusive Hamilton-Jacobi model.

All derived exponents are computed once in :func:`make_params` and carried
around in an immutable :class:`Params`, so the rest of the code never
re-derives them from ``(N, p)``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["Params", "OutOfRangeError", "NumericalError", "make_params", "require_positive", "weight_rho", "rho_antideriv"]


class OutOfRangeError(ValueError):
    """Raised when (N, p) falls outside the admissible fast-diffusion wedge."""


class NumericalError(RuntimeError):
    """A computation on valid settings failed; the base of every numerical failure (CLI exit 3)."""


def require_positive(name: str, value) -> None:
    """Raise ValueError naming the setting unless value is a real, finite number > 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


@dataclass(frozen=True)
class Params:
    """Dimension, diffusion exponent and every derived exponent used downstream.

    Attributes
    ----------
    N : int
        Space dimension, N >= 1.
    p : float
        Diffusion exponent, restricted to p_c < p < 2 with p_c = 2N/(N+1).
    p_c : float
        Critical exponent 2N/(N+1).
    e_flux : float
        (2-p)/(p-1); exponent in f' = -|g|^e_flux * g.
    e_g : float
        1/(p-1); exponent of g in the second-order g-equation.
    e_slow : float
        (p-1)/(2-p); algebraic decay exponent of slow-decay profiles.
    e_time : float
        1/(2-p); extinction-rate exponent.
    e_weight : float
        2p/(3p-2); exponent of the Pohozaev coefficient weight.
    """

    N: int
    p: float
    p_c: float
    e_flux: float
    e_g: float
    e_slow: float
    e_time: float
    e_weight: float


def make_params(N: int, p: float) -> Params:
    """Validate (N, p) and precompute all derived exponents.

    Raises
    ------
    OutOfRangeError
        If N < 1, N is not an integer, p is not a finite real, or p lies outside
        (2N/(N+1), 2). The construction never clamps.
    """
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool):
        raise OutOfRangeError(f"N must be an integer >= 1, got {N!r}")
    if N < 1:
        raise OutOfRangeError(f"N must be >= 1, got {N}")
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise OutOfRangeError(f"p must be a real number, got {p!r}")
    p = float(p)
    if not math.isfinite(p):
        raise OutOfRangeError(f"p must be finite, got {p}")
    p_c = 2.0 * N / (N + 1.0)
    if p <= p_c:
        raise OutOfRangeError(f"p={p} violates p > p_c = 2N/(N+1) = {p_c}")
    if p >= 2.0:
        raise OutOfRangeError(f"p={p} violates p < 2")
    return Params(
        N=int(N),
        p=p,
        p_c=p_c,
        e_flux=(2.0 - p) / (p - 1.0),
        e_g=1.0 / (p - 1.0),
        e_slow=(p - 1.0) / (2.0 - p),
        e_time=1.0 / (2.0 - p),
        e_weight=2.0 * p / (3.0 * p - 2.0),
    )


def weight_rho(params: Params, r):
    """Weight rho(r) = r^(N-1) e^r, defined for r > 0 (vectorized)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("weight_rho requires r > 0")
    out = r ** (params.N - 1) * np.exp(r)
    return float(out) if out.ndim == 0 else out


def rho_antideriv(params: Params, r):
    """Antiderivative R(r) = int_0^r s^(N-1) e^s ds, accurate for all r > 0.

    Uses the closed form from repeated integration by parts for r >= 1 and a
    power series for r < 1; the closed form loses all significant digits near
    r = 0 once N >= 2, which is exactly where the small-radius limits are
    probed.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("rho_antideriv requires r >= 0")
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    out = np.empty_like(r)
    small = r < 1.0
    if np.any(small):
        out[small] = _rho_antideriv_series(params.N, r[small])
    if np.any(~small):
        out[~small] = _rho_antideriv_closed(params.N, r[~small])
    return float(out[0]) if scalar else out


def _rho_antideriv_series(N: int, r: np.ndarray) -> np.ndarray:
    # int_0^r s^(N-1) e^s ds = sum_k r^(N+k) / (k! (N+k)); converges fast for r < 1
    total = np.zeros_like(r)
    term = r**N / N  # k = 0
    k = 0
    while True:
        total += term
        k += 1
        term = term * r * (N + k - 1) / (k * (N + k))
        if np.all(np.abs(term) <= 1e-18 * np.abs(total)) or k > 60:
            return total + term


def _rho_antideriv_closed(N: int, r: np.ndarray) -> np.ndarray:
    if N == 1:
        return np.expm1(r)
    # I_N(r) = r^(N-1) e^r - (N-1) I_{N-1}(r), grounded at I_1 = e^r - 1
    acc = np.expm1(r)
    er = np.exp(r)
    for n in range(2, N + 1):
        acc = r ** (n - 1) * er - (n - 1) * acc
    return acc
