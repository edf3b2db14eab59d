"""Brent's bracketing root finder (Brent 1973, ch. 4) in plain Python floats.

``brentq`` is a line-for-line port of scipy's ``brentq``: the C routine
(inverse quadratic interpolation, secant steps and bisection, with a step
never shorter than the tolerance) and the checks of its Python wrapper. It
takes the same iterates in the same float operations, so it returns the
same root, and it spares every caller the import of ``scipy.optimize``.
"""

from __future__ import annotations

import math
import sys

__all__ = ["brentq"]

# scipy's default relative tolerance, and the smallest it accepts
RTOL = 4 * sys.float_info.epsilon
MAXITER = 100


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = RTOL) -> float:
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    The root x0 satisfies |x - x0| <= xtol + rtol |x0| for the exact root x.
    ``xtol`` must be positive and ``rtol`` at least 4 eps (ValueError), a NaN
    value of f and ends of the same sign raise ValueError, and no convergence
    within MAXITER iterations raises RuntimeError.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL:g})")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate; where C divides by zero it gets an inf or NaN
                # step, which the test below always sends to bisection
                try:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:
                    stry = math.inf
            # C's MIN(a, b), which takes b unless a < b
            limit = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < limit:
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {MAXITER} iterations.")
