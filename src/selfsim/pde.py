"""Radial finite-difference solver for u_t = div(|grad u|^(p-2) grad u) - |grad u|^(p-1).

Cell-centered conservative scheme on [0, R_inf]: centers r_i = (i+1/2) dr,
faces at j dr. The inner face carries the weight (0)^(N-1) = 0 (N >= 2), so
the r = 0 symmetry condition holds identically; for N = 1 the symmetry ghost
forces a zero face gradient instead. The outer boundary is a u = 0 ghost
cell, justified by the exponential decay of admissible data. The flux is
regularized, Phi(s) = (s^2 + eps^2)^((p-2)/2) s, to cap the fast-diffusion
singularity |grad u|^(p-2) -> inf at flat points.

The absorption |u_r|^(p-1) is written in flux form. On a non-increasing
profile it equals the flux magnitude |Phi(u_r)|, so cell i absorbs the mean
of its two face fluxes, S_i = (|Phi_{i+1/2}| + |Phi_{i-1/2}|)/2, second
order; the symmetry face adds nothing to cell 0, which absorbs all of
|Phi_{1/2}| at N >= 2, where its inner face carries no weight. A run accepts
only grids on which every cell i >= 1 couples to its inner neighbour: the
diffusion across the inner face, r_{i-1/2}^(N-1)/(r_i^(N-1) dr^2), must
outweigh the sink's share of it, 1/(2 dr). That holds everywhere iff it holds
at cell 1, iff dr < 2 (2/3)^(N-1) (2 at N = 1, 1.33 at N = 2, 0.40 at N = 5);
a wider cell could not resolve the decay length p - 1 of e^(-r/(p-1))
anyway, and ``resolved_couplings`` refuses it (ValueError). At N = 1 the
discrete kappa0 e^(-r/(p-1)) is a supersolution iff dr >= 2 tanh(dr/2),
which always holds (slack dr^2/12), and N >= 2 adds slack, so the bound holds
for the spatial operator on every accepted grid.

Production time stepping (``run_to_extinction``) is lagged-diffusivity
backward Euler: the face flux is c(D^n) D^(n+1) with the secant diffusivity
c(s) = (s^2+eps^2)^((p-2)/2), and the sink is lagged the same way,
c(D^n) |D^(n+1)|. Both join the couplings of a tridiagonal solve whose
right-hand side is u^n. The couplings k_up, k_dn (``resolved_couplings``) are
non-negative, so every sweep is an M-matrix at any dt (positivity and max
principle); each sweep's result is clipped at zero. Each step is the
extrapolated linearly implicit Euler method with the harmonic sequence
1, 2, 3, 4 (Deuflhard, SIAM Review 27, 1985; Hairer and Wanner, Solving ODEs
II, IV.9): one dt sweep u1, two dt/2 sweeps u2, three dt/3 sweeps u3 and
four dt/4 sweeps u4 fill the Aitken-Neville tableau T22 = 2 u2 - u1,
T32 = 3 u3 - 2 u2, T33 = T32 + (T32 - T22)/2, T42 = 4 u4 - 3 u3,
T43 = 2 T42 - T32, T44 = T43 + (T43 - T33)/3, whose columns are of order
1, 2, 3 and 4. ``_step_imex`` is the one implicit step: it takes the run's
geometry, runs the ten sweeps and returns T44 together with the error
estimate |T44 - T43|, the local error of the third-order T43 (the step
advances the highest column, as extrapolation codes do). On stiff cells the
extrapolation can drive a tail cell to zero or below (or into the subnormal
range), which zeroes the tail beyond it.

``_control`` chooses dt from that estimate, measured per cell in the mixed
norm max_i |T44 - T43|_i / (RTOL max(u_prev_i, u_try_i) + ATOL kappa0).
The estimate is O(dt^4), so dt scales with the fourth root of the norm's
inverse. An attempt above 1 is rejected and retried with a smaller dt,
leaving the state, the clock, the step count and the records untouched; an
accepted step sets the next dt from the same norm. A run starts at t = 0;
its initial data is the first record (with D = nan, as no step precedes it)
and the first snapshot. The records of the functionals follow the sup norm,
RECORDS_PER_DECADE per decade, as the snapshots do. REL_CHANGE, one record
interval of the sup norm, caps the change of u per step relative to the
peak, so once ATOL dominates the step still crosses at most about one record
threshold and the final decade keeps enough records for ``fit_extinction``.

Sweeps are solved as symmetric systems. Rows i and i+1 couple through
the same diffusivity c_{i+1/2}, so the ratio of their couplings,
k_up_i / k_dn_{i+1}, is pure geometry, and the diagonal scale
s_{i+1}/s_i = sqrt(k_up_i / k_dn_{i+1}) turns each sweep into a symmetric
M-matrix (a Stieltjes matrix) in the unknown s u, with off-diagonal
-dt sqrt(k_up_i k_dn_{i+1}) c_{i+1/2}. The scale is the square root of the
weight rho = r^(N-1) e^r of the paper's L^2(rho) up to a constant factor
(to 0.22 % on the production grid): the variational structure of the
equation, seen by the grid. LAPACK ptsv solves such a system by LDL^T
without pivoting, in about three quarters of gtsv's time at M = 2000. The
scale needs every inner coupling, and it grows as e^(r/2), so on long grids
it passes _S_MAX; ``resolved_couplings`` refuses such a grid too, and every
accepted run sweeps this one way.

A step does only the work whose result changes. The run builds its
geometry once (``_geometry``: the couplings, their scale s, 1/s and
symmetric couplings, eps^2, p, the diffusivity's exponent, the
supersolution bound and ATOL kappa0), and the weights of ``weighted_functionals`` are
cached per grid. Each sweep hands its diagonals to LAPACK directly (ptsv is
the routine ``solveh_banded`` calls for a two-row band, gtsv the one
``solve_banded`` calls for one sub- and one superdiagonal, so the bits are
the same) and keeps the wrappers' checks: a non-finite entry raises
ValueError, a singular system SingularSweepError. A system whose ptsv meets
a non-positive pivot is solved again by gtsv. ``scipy.linalg``,
where both live, is imported by the first sweep, not with the module. The
first sweep of each column starts from the step's state, and the four share
its rows: the diagonal's dt part, the symmetric couplings and s u are built
once per step.

``_residual`` is the library's one spelling of the discrete operator L_h,
read off the sweep's matrix: L_h(u)_i = c_up k_up (u_{i+1} - u_i) -
c_dn k_dn (u_i - u_{i-1}) with c = c(u). On a non-increasing u it equals the
flux form div(r^(N-1) Phi)/r^(N-1) - S_i above. The run's first dt is the
explicit stability rule ``explicit_dt``,
cfl * min(dr^2 / (2 max Phi'(D)), dr / max(1, max |Phi(D)|)). It is bound
by Phi'(0) = eps^(p-2) (some interface always sits at D ~ 0: the flat
center, the far tail), so dt ~ 1e-11 at production resolution. Forward
Euler on L_h at that dt could not finish an extinction run; the test suite
keeps it only as the oracle of the implicit step (``tests/test_pde.py``).

The settings no caller varies are module constants: EPS_REG of the flux,
CFL_SAFETY, RTOL, ATOL, RECORDS_PER_DECADE (REL_CHANGE derives from it),
SNAPSHOTS_PER_DECADE, MAX_STEPS and EXTINCTION_FRACTION of the run,
FIT_MIN_RECORDS of ``fit_extinction``, RATE_DECADES of ``rate_exponent``,
and ENDGAME_FRACTION and ORACLE_HORIZON, the windows of ``profile_errors``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field as dfield

import numpy as np

from .params import NumericalError, Params, require_positive, weight_rho
from .profile_ode import Trajectory

__all__ = [
    "EPS_REG",
    "CFL_SAFETY",
    "RTOL",
    "ATOL",
    "REL_CHANGE",
    "RECORDS_PER_DECADE",
    "RadialGrid",
    "Field",
    "PdeConfig",
    "FrameSeries",
    "NonMonotoneInitialDataError",
    "TimestepUnderflowError",
    "MaxStepsExceededError",
    "BadExtinctionTimeError",
    "InsufficientDecayError",
    "SingularSweepError",
    "resolved_couplings",
    "sphere_area",
    "make_grid",
    "make_initial",
    "separable_amplitude",
    "separable_config",
    "run_to_extinction",
    "weighted_functionals",
    "fit_extinction",
    "rate_exponent",
    "rescale_frames",
    "compare_to_profile",
    "ProfileErrors",
    "profile_errors",
]


# flux regularization eps: with the implicit stepper a large eps buys no
# stability and only displaces the operator where gradients are small;
# 1e-12 keeps the endgame (peaks near the extinction threshold) inside
# the genuine p-Laplacian regime and the capped-diffusivity crossover
# overfeed of the far tail below the 1e-12 comparison slack
EPS_REG = 1e-12
CFL_SAFETY = 0.4  # explicit stability rule: fraction of the bound
RTOL = 2e-6  # error control on |T44 - T43|: relative part of the per-cell scale
ATOL = 1e-12  # absolute part, times kappa0
RECORDS_PER_DECADE = 40  # functional records per decade of the sup norm
# record-density cap: max |du| / ||u||_inf per step, one record interval of the
# sup norm. Once ||u|| < ATOL/RTOL the absolute tolerance dominates and the
# error control alone would cross the final decade in a few dozen steps, too
# few records for fit_extinction
REL_CHANGE = 1.0 - 10.0 ** (-1.0 / RECORDS_PER_DECADE)
SNAPSHOTS_PER_DECADE = 4  # stored fields per decade of the sup norm
MAX_STEPS = 20_000_000
EXTINCTION_FRACTION = 1e-10  # a run ends once ||u||_inf < this * kappa0
FIT_MIN_RECORDS = 20  # records the extinction fit needs in the final decade
RATE_DECADES = 2.0  # decades of the sup norm the rate-exponent fit spans
# the windows of ``profile_errors``. Rescaling by (T_e - t)^(-1/(2-p)) magnifies
# the error of the fitted T_e as t -> T_e: before_endgame leaves out T_e - t <
# ENDGAME_FRACTION T_e, oracle leaves out t > ORACLE_HORIZON T0 (separable data ends at T0)
ENDGAME_FRACTION = 0.01
ORACLE_HORIZON = 0.9
_TINY = np.finfo(float).tiny  # the smallest normal float: a step zeroes the tail from the first cell below it


class NonMonotoneInitialDataError(ValueError):
    """Initial data must have a radially non-increasing profile."""


class TimestepUnderflowError(NumericalError):
    pass


class MaxStepsExceededError(NumericalError):
    pass


class BadExtinctionTimeError(ValueError):
    """A stored frame lies at or beyond the supplied extinction time."""


class InsufficientDecayError(NumericalError):
    """Fewer than the required records in the final decade of the sup norm."""


class SingularSweepError(NumericalError):
    """LAPACK found a sweep's matrix singular."""


def sphere_area(N: int) -> float:
    """Surface area of the unit sphere S^(N-1)."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


@dataclass(frozen=True)
class RadialGrid:
    R_inf: float
    M: int

    def __post_init__(self):
        # below 8 cells the extrapolated step can break radial monotonicity
        if isinstance(self.M, bool) or not isinstance(self.M, numbers.Integral) or self.M < 8:
            raise ValueError(f"need an integer M >= 8 cells, got {self.M!r}")
        require_positive("R_inf", self.R_inf)

    @property
    def dr(self) -> float:
        return self.R_inf / self.M

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.M) + 0.5) * self.dr

    @property
    def faces(self) -> np.ndarray:
        return np.arange(self.M + 1) * self.dr


def make_grid(R_inf: float, M: int) -> RadialGrid:
    """RadialGrid(R_inf, M); only perfbench/workloads.py still calls it."""
    return RadialGrid(R_inf=R_inf, M=M)


@dataclass
class Field:
    grid: RadialGrid
    values: np.ndarray


@dataclass(frozen=True)
class PdeConfig:
    params: Params
    kappa0: float = 1.0
    init_kind: str = "exp_tail"  # "exp_tail" | "separable"
    T0: float = 1.0  # separable only

    def __post_init__(self):
        require_positive(f"kappa0{self.amplitude_source}", self.kappa0)
        require_positive("T0", self.T0)
        if self.init_kind not in ("exp_tail", "separable"):
            raise ValueError(f"unknown init_kind {self.init_kind!r}")
        # a subnormal threshold is never crossed: the _TINY rule zeroes the field first
        if self.extinction_threshold < _TINY:
            raise ValueError(f"kappa0 must be >= {_TINY / EXTINCTION_FRACTION:.3g}, so that the extinction threshold "
                             f"{EXTINCTION_FRACTION:g} kappa0 is a normal float; got {self.kappa0!r}{self.amplitude_source}")

    @property
    def amplitude_source(self) -> str:
        """Added to a refused kappa0: separable data's amplitude is not a setting."""
        return " (separable data: the amplitude follows from T0 and a_*)" if self.init_kind == "separable" else ""

    @property
    def extinction_threshold(self) -> float:
        return EXTINCTION_FRACTION * self.kappa0


def separable_amplitude(params: Params, tau: float) -> float:
    """((2-p) tau)^(1/(2-p)): the separable solution's time factor tau before extinction."""
    return ((2.0 - params.p) * tau) ** params.e_time


def separable_config(params: Params, a_star: float, T0: float = 1.0) -> PdeConfig:
    """Separable data that extinguishes at T0: peak separable_amplitude(T0) * a_*."""
    require_positive("T0", T0)  # before a negative T0 makes a complex or a wrong amplitude
    return PdeConfig(params=params, kappa0=separable_amplitude(params, T0) * a_star, init_kind="separable", T0=T0)


@dataclass
class FrameSeries:
    """Per-record functionals, stored snapshots and run tallies."""

    grid: RadialGrid
    config: PdeConfig
    t: np.ndarray = dfield(default_factory=lambda: np.empty(0))
    sup: np.ndarray = dfield(default_factory=lambda: np.empty(0))
    I: np.ndarray = dfield(default_factory=lambda: np.empty(0))
    J: np.ndarray = dfield(default_factory=lambda: np.empty(0))
    D: np.ndarray = dfield(default_factory=lambda: np.empty(0))
    E: np.ndarray = dfield(default_factory=lambda: np.empty(0))
    snapshots: list = dfield(default_factory=list)  # (t_k, u_k) pairs
    T_e_estimate: float = math.nan
    rate_r2: float = math.nan
    n_steps: int = 0
    rejected_steps: int = 0  # attempts the error control refused and retried
    dt_min: float = math.inf  # range of the accepted steps' dt
    dt_max: float = 0.0
    clamp_events: int = 0  # explicit-step clamps; the implicit path has none
    sink_saturations: int = 0
    monotone_violations: int = 0
    supersolution_excess: float = 0.0  # max of u - kappa0 e^(-r/(p-1)) over records


def make_initial(config: PdeConfig, grid: RadialGrid, profile: Trajectory | None = None) -> Field:
    """Initial field: exponential tail or separable profile slice, validated non-increasing.

    separable: u = separable_amplitude(T0) f(r; a_*), with f read off the
    supplied ground-state trajectory's dense output.
    """
    if config.init_kind == "exp_tail":
        u = _exp_tail(config, grid.centers)
    else:
        if profile is None:
            raise ValueError("separable initial data needs the ground-state trajectory")
        u = separable_amplitude(config.params, config.T0) * _profile_on_grid(profile, grid)
    if np.any(np.diff(u) > 0.0):
        raise NonMonotoneInitialDataError("initial profile must be non-increasing in r")
    return Field(grid=grid, values=u)


def _exp_tail(config: PdeConfig, r: np.ndarray) -> np.ndarray:
    """kappa0 e^(-r/(p-1)): the exp_tail initial data and the supersolution that bounds its run."""
    return config.kappa0 * np.exp(-r / (config.params.p - 1.0))


def _face_gradients(u: np.ndarray, dr: float) -> np.ndarray:
    """D_j at faces j = 0..M; symmetry ghost at the center, zero ghost outside."""
    D = np.empty(u.size + 1)
    np.subtract(u[1:], u[:-1], out=D[1:-1])  # np.diff(u), in place
    D[1:-1] /= dr
    D[0] = 0.0
    D[-1] = -u[-1] / dr
    return D


def _flux_slope(D: np.ndarray, eps2: float, p: float) -> np.ndarray:
    """Phi'(D) = (D^2 + eps^2)^((p-4)/2) (eps^2 + (p-1) D^2), the flux's slope."""
    return (D * D + eps2) ** ((p - 4.0) / 2.0) * (eps2 + (p - 1.0) * D * D)


@dataclass(frozen=True)
class _Geometry:
    """The per-run constants of the implicit sweep, built once by ``_geometry``."""

    dr: float
    p: float  # the flux exponent, for Phi' in the explicit dt rule
    k_up: np.ndarray  # coupling to u_{i+1} per unit dt and diffusivity: diffusion plus sink
    k_dn: np.ndarray  # coupling to u_{i-1}, likewise; > 0 but at cell 0, so every sweep is an M-matrix
    eps2: float
    c_exp: float  # (p-2)/2: the secant diffusivity's exponent
    bound: np.ndarray  # the supersolution kappa0 e^(-r/(p-1)) at the centers
    atol: float  # ATOL kappa0: the absolute error a step may make per cell
    s: np.ndarray  # the diagonal scale s_{i+1}/s_i = sqrt(k_up_i / k_dn_{i+1}), s_0 = 1
    inv_s: np.ndarray  # 1/s
    k_sym: np.ndarray  # sqrt(k_up_i k_dn_{i+1}): the coupling across face i+1/2 in the scaled rows


# the largest symmetrising scale: a run refuses data whose face gradients
# square past the float range (its first dt would be nan), so an accepted
# non-increasing u peaks below 1.4e154 R_inf; with s <= 1e100, s u stays below
# ~1e257 and the elimination keeps 50 decades. s grows as e^(r/2) on fine
# grids (past 1e100 by R_inf ~ 460 at N = 1), faster on coarse ones (by
# R_inf ~ 100 near the edge dr -> 2 at N = 1)
_S_MAX = 1e100


def resolved_couplings(N: int, grid: RadialGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k_up, k_dn, s): the couplings of a sweep on grid and their symmetrising scale; refuses a grid without them.

    Cell i's row of a sweep is u_i - dt [c_up k_up (u_{i+1} - u_i) - c_dn k_dn (u_i - u_{i-1})] = u^n_i
    with k_up = r_{i+1/2}^(N-1) / (r_i^(N-1) dr^2) + theta_i / dr and
    k_dn = r_{i-1/2}^(N-1) / (r_i^(N-1) dr^2) - (1 - theta_i) / dr: the
    flux-form sink lagged into the sweep, with theta_i = 1/2 but theta_0 = 1
    at N >= 2. Cell 0 has no inner coupling: its inner face is the symmetry face.

    Rows i and i+1 couple through the same c_{i+1/2}, so the ratio of their
    couplings, k_up_i / k_dn_{i+1}, is a constant of the grid, and the scale
    s_{i+1}/s_i = sqrt(k_up_i / k_dn_{i+1}), s_0 = 1, turns every sweep into a
    symmetric M-matrix. A grid is refused (ValueError naming M and R_inf)
    unless every inner coupling k_dn_{i>=1} > 0, i.e. dr < 2 (2/3)^(N-1), and
    s_{M-1} <= _S_MAX.
    """
    dr, r = grid.dr, grid.centers
    theta = np.full(grid.M, 0.5)
    theta[0] = 1.0 if N > 1 else 0.5  # at N >= 2 cell 0's inner face carries no weight
    k_dn = ((grid.faces[:-1] / r) ** (N - 1) / dr - 0.5) / dr
    k_dn[0] = 0.0
    k_up = grid.faces[1:] ** (N - 1) / (r ** (N - 1) * dr * dr) + theta / dr
    where = f"a grid of M = {grid.M} cells on R_inf = {grid.R_inf!r} at N = {N}"
    if not (k_dn[1:] > 0.0).all():
        edge = 2.0 * (2.0 / 3.0) ** (N - 1)
        raise ValueError(f"{where} leaves a cell without coupling to its inner neighbour: cells must be narrower "
                         f"than 2 (2/3)^(N-1) = {edge:.6g}, i.e. M > R_inf / {edge:.6g} = {grid.R_inf / edge:.6g}")
    with np.errstate(over="ignore"):  # a scale past _S_MAX may overflow
        s = np.cumprod(np.sqrt(np.concatenate(([1.0], k_up[:-1] / k_dn[1:]))))
    if not s[-1] <= _S_MAX:
        raise ValueError(f"{where} is too long: the scale that symmetrises its sweeps passes {_S_MAX:g} at "
                         f"r = {r[np.argmax(s > _S_MAX)]:.6g}; take a shorter R_inf")
    return k_up, k_dn, s


def _geometry(config: PdeConfig, grid: RadialGrid) -> _Geometry:
    """The per-run constants of the sweep on grid, from ``resolved_couplings``, which refuses a grid without them."""
    p = config.params.p
    k_up, k_dn, s = resolved_couplings(config.params.N, grid)
    return _Geometry(
        dr=grid.dr,
        p=p,
        k_up=k_up,
        k_dn=k_dn,
        eps2=EPS_REG**2,
        c_exp=(p - 2.0) / 2.0,
        bound=_exp_tail(config, grid.centers),
        atol=ATOL * config.kappa0,
        s=s,
        inv_s=1.0 / s,
        k_sym=np.sqrt(k_up[:-1] * k_dn[1:]),
    )


def _diffusivity(g: _Geometry, u: np.ndarray) -> np.ndarray:
    """The lagged diffusivity c(D) = (D^2 + eps^2)^((p-2)/2) at the faces."""
    c = _face_gradients(u, g.dr)
    c *= c
    c += g.eps2
    c **= g.c_exp
    return c


def _residual(g: _Geometry, u: np.ndarray) -> np.ndarray:
    """The discrete operator L_h(u) that a sweep's matrix encodes: u_t = L_h(u).

    L_h(u)_i = dr (k_up c_up D_{i+1/2} - k_dn c_dn D_{i-1/2}) with c = c(u).
    It equals the flux form div(r^(N-1) Phi)/r^(N-1) - S_i only on a
    non-increasing u, where every Phi <= 0; that is the scheme's invariant.
    On a rising profile the lagged couplings add the sink where the flux
    form subtracts it.
    """
    D = _face_gradients(u, g.dr)
    flux = _diffusivity(g, u) * D
    return g.dr * (g.k_up * flux[1:] - g.k_dn * flux[:-1])


def explicit_dt(g: _Geometry, u: np.ndarray) -> float:
    """The explicit stability rule: cfl * min(diffusive bound, absorption bound).

    The diffusive bound is dr^2 / (2 max Phi'(D)), the absorption bound
    dr / max(1, max |Phi(D)|) with |Phi(D)| = c(D) |D|.
    """
    D = _face_gradients(u, g.dr)
    diff_bound = g.dr * g.dr / (2.0 * float(np.max(_flux_slope(D, g.eps2, g.p))))
    sink = float(np.max(_diffusivity(g, u) * np.abs(D)))
    return CFL_SAFETY * min(diff_bound, g.dr / max(1.0, sink))


@functools.cache
def _lapack(name: str):
    """A LAPACK routine, loaded by the first sweep: importing scipy.linalg takes
    most of the library's import time, which a process that never sweeps
    should not pay."""
    from scipy.linalg import lapack

    return getattr(lapack, name)


def _require_finite(d: np.ndarray, b: np.ndarray) -> None:
    """The check of ``solve_banded`` and ``solveh_banded``: a non-finite entry of the
    diagonal or the right-hand side raises ValueError (a sweep's off-diagonals
    scale the diffusivities that its diagonal sums, so they cannot be
    non-finite alone)."""
    # an inf or a nan in d or b makes the dot product non-finite (inf * 0 is a
    # nan); only an overflowing product of finite values needs the elementwise test
    if not math.isfinite(float(np.dot(d, b))) and not (np.isfinite(d).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")


def _solution(name: str, out: tuple) -> np.ndarray:
    """The solution of a LAPACK ?tsv call's outputs, or the wrappers' error: a
    singular system raises SingularSweepError, an illegal argument ValueError."""
    *_, x, info = out
    if info > 0:
        raise SingularSweepError(f"singular matrix (info {info} of internal {name})")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal {name}")
    return x


def _rows(g: _Geometry, u: np.ndarray, c: np.ndarray):
    """The parts of a sweep from u, with c = c(u), that do not depend on its dt: (a, off, rhs).

    a = k_up c_up + k_dn c_dn is the diagonal's dt part, off = k_sym c at the
    inner faces and rhs = s u.
    """
    a = g.k_up * c[1:]
    a += g.k_dn * c[:-1]
    return a, g.k_sym * c[1:-1], g.s * u


def _sweep(g: _Geometry, rows, h: float, overwrite_rhs: bool) -> np.ndarray:
    """One lagged-diffusivity BE solve of step h from ``_rows``; not clipped.

    Row i is (1 + h a_i) u_i - h k_up c_up u_{i+1} - h k_dn c_dn u_{i-1} = u^n_i
    (the Dirichlet 0 ghost for i = M-1): diffusion and absorption balance
    within the one solve. It is solved in s u, with the symmetric couplings
    -h k_sym c, by LAPACK ptsv (LDL^T without pivoting, the routine
    ``solveh_banded`` calls for a two-row band), or by gtsv (the one
    ``solve_banded`` calls for one sub- and one superdiagonal) where ptsv
    meets a non-positive pivot, in place and without the wrappers; the
    result is scaled back by 1/s.
    """
    a, off, rhs = rows
    d = h * a
    d += 1.0
    _require_finite(d, rhs)
    name, out = "ptsv", _lapack("dptsv")(d, (-h) * off, rhs, overwrite_d=1, overwrite_e=1, overwrite_b=overwrite_rhs)
    if out[-1] > 0:
        # a coupling so strong that rounding takes the 1 of its rows leaves a
        # pivot of rounding size, which can come out <= 0; gtsv pivots and
        # solves the same rows (ptsv left rhs as it was)
        e = (-h) * off
        name, out = "gtsv", _lapack("dgtsv")(e, 1.0 + h * a, e.copy(), rhs, overwrite_dl=1, overwrite_d=1,
                                             overwrite_du=1, overwrite_b=overwrite_rhs)
    x = _solution(name, out)
    x *= g.inv_s
    return x


def _step_imex(geom: _Geometry, u: np.ndarray, dt: float):
    """One implicit step from u; returns (u_new, saturations, error).

    u_new is the corner T44 of the Aitken-Neville tableau over the step
    counts 1, 2, 3, 4: u1, u2, u3 and u4 are one dt sweep, two dt/2 sweeps,
    three dt/3 sweeps and four dt/4 sweeps, each clipped at zero, and
    T22 = 2 u2 - u1, T32 = 3 u3 - 2 u2, T33 = T32 + (T32 - T22)/2,
    T42 = 4 u4 - 3 u3, T43 = 2 T42 - T32, T44 = T43 + (T43 - T33)/3.
    The four first sweeps start from u and share its rows. error is
    |T44 - T43|: T43 is third order, so this estimates its local error,
    O(dt^4), and T44 is one order better. On stiff cells the extrapolation
    can drive a tail cell to zero or below; that zeroes the whole tail
    beyond it, as does a subnormal cell (below _TINY), whose few bits cannot
    order a tail.
    saturations counts the cells u4's last sweep clipped and those the
    extrapolation drives negative.
    """
    first = _rows(geom, u, _diffusivity(geom, u))
    columns = []
    for n in (1, 2, 3, 4):
        h = dt / n
        v = _sweep(geom, first, h, overwrite_rhs=False)
        for _ in range(n - 1):
            np.maximum(v, 0.0, out=v)  # np.clip(v, 0.0, None) without its dispatch
            v = _sweep(geom, _rows(geom, v, _diffusivity(geom, v)), h, overwrite_rhs=True)
        columns.append(v)
    u1, u2, u3, u4 = columns
    sat = int(np.count_nonzero(u4 < 0.0))
    for v in columns:
        np.maximum(v, 0.0, out=v)
    t22 = 2.0 * u2 - u1
    t32 = 3.0 * u3 - 2.0 * u2
    t33 = t32 + 0.5 * (t32 - t22)
    t43 = 2.0 * (4.0 * u4 - 3.0 * u3) - t32
    u_new = t43 + (t43 - t33) / 3.0
    error = np.abs(u_new - t43)
    sat += int(np.count_nonzero(u_new < 0.0))
    below = u_new < _TINY
    dead = int(below.argmax())
    if below[dead]:
        u_new[dead:] = 0.0
    return u_new, sat, error


def _control(error: np.ndarray, u_prev: np.ndarray, u_try: np.ndarray, peak_prev: float, dt: float, atol: float):
    """Step-size control for the attempt u_prev -> u_try: returns (accepted, next dt).

    The error norm is e = max_i error_i / (RTOL max(u_prev_i, u_try_i) + atol).
    An attempt with e > 1 is rejected and retried with dt scaled by
    max(0.2, 0.9 e^(-1/4)). After an accepted step dt grows by at most 1.25
    and is further capped so that the next step changes u by about REL_CHANGE
    of the peak. error is overwritten.
    """
    scale = np.maximum(u_prev, u_try)
    scale *= RTOL
    scale += atol
    error /= scale
    e = float(error.max())
    # the estimate |T44 - T43| is the local error of the third-order T43,
    # O(dt^4), hence the exponent 1/4
    factor = 0.9 * max(e, 1e-30) ** (-1.0 / 4.0)
    if e > 1.0:
        return False, dt * max(0.2, factor)
    du = np.subtract(u_try, u_prev)
    np.abs(du, out=du)
    change = max(float(du.max()) / peak_prev, 1e-30)
    return True, dt * min(1.25, max(0.2, min(factor, 0.9 * REL_CHANGE / change)))


def weighted_functionals(
    params: Params,
    grid: RadialGrid,
    u: np.ndarray,
    u_prev: np.ndarray | None = None,
    dt: float | None = None,
) -> tuple[float, float, float, float]:
    """(I, J, D, E): weighted L2 mass, weighted gradient energy, dissipation, J - I."""
    p = params.p
    dr = grid.dr
    omega, w_c, w_f = _functional_weights(grid, params)
    I = 0.5 * omega * float(np.sum(w_c * u * u)) * dr
    Dg = _face_gradients(u, dr)
    J = omega / p * float(np.sum(w_f * np.abs(Dg[1:]) ** p)) * dr
    Dfun = math.nan
    if u_prev is not None and dt is not None:
        du = (u - u_prev) / dt
        Dfun = omega * float(np.sum(w_c * du * du)) * dr
    return I, J, Dfun, J - I


@functools.lru_cache(maxsize=8)
def _functional_weights(grid: RadialGrid, params: Params) -> tuple[float, np.ndarray, np.ndarray]:
    """|S^(N-1)|, rho = r^(N-1) e^r at the centers and at the faces j >= 1 (read-only)."""
    w_c = weight_rho(params, grid.centers)
    w_f = weight_rho(params, grid.faces[1:])
    w_c.flags.writeable = False
    w_f.flags.writeable = False
    return sphere_area(params.N), w_c, w_f


def run_to_extinction(config: PdeConfig, field: Field) -> FrameSeries:
    """March from t = 0 to ||u||_inf < ext_tol, recording functionals and snapshots.

    The initial data is the first record (its dissipation D is nan: there is
    no step yet) and the first snapshot. After that a record is appended
    whenever the sup norm crosses the next of RECORDS_PER_DECADE logarithmic
    thresholds per decade, or the next of SNAPSHOTS_PER_DECADE snapshot
    thresholds (snapshots store the full field), and at the end. The
    extinction estimate and rate fit are filled in at the end from the final
    recorded decade.
    """
    grid = field.grid
    u = field.values.copy()
    ext_tol = config.extinction_threshold
    peak = float(u.max())
    if peak <= 10.0 * ext_tol:
        raise ValueError("initial peak must exceed 10x the extinction threshold: the T_e fit reads the final decade")

    frames = FrameSeries(grid=grid, config=config)
    geom = _geometry(config, grid)
    rows = []  # (t, sup, I, J, D, E) per record
    snap_factor = 10.0 ** (-1.0 / SNAPSHOTS_PER_DECADE)
    next_snap = peak * snap_factor
    rec_factor = 10.0 ** (-1.0 / RECORDS_PER_DECADE)
    next_rec = peak * rec_factor
    with np.errstate(over="ignore", invalid="ignore"):  # a huge amplitude overflows here first
        dt = explicit_dt(geom, u)
        record = weighted_functionals(config.params, grid, u)  # the first record (D = nan)
    if not all(map(math.isfinite, (dt, record[0], record[1], record[3]))):  # refused before any sweep
        raise ValueError(f"kappa0 = {config.kappa0!r} overflows the first time step or record{config.amplitude_source}")
    t, u_prev, dt_step = 0.0, None, None  # u_prev and dt_step: the last accepted step
    while True:
        if config.init_kind == "exp_tail":
            frames.supersolution_excess = max(frames.supersolution_excess, float((u - geom.bound).max()))
        # instability monitor: flag new extrema at 1e-6 of the current peak;
        # the flux/sink balance zone carries O(dr^2) truncation texture far
        # below that, which is not an instability
        if (np.subtract(u[1:], u[:-1]) > 1e-6 * max(peak, ext_tol)).any():
            frames.monotone_violations += 1

        hit_snap = u_prev is None or peak < next_snap
        if peak < next_rec or hit_snap or peak < ext_tol:
            if u_prev is not None:  # the first record is read above
                record = weighted_functionals(config.params, grid, u, u_prev, dt_step)
            rows.append((t, peak, *record))
            while next_rec > peak >= ext_tol:  # the last record stops it: scaling never gets below a peak of 0
                next_rec *= rec_factor
        if hit_snap:
            frames.snapshots.append((t, u.copy()))
            while next_snap > peak >= ext_tol:
                next_snap *= snap_factor
        if peak < ext_tol:
            break
        if frames.n_steps >= MAX_STEPS:
            raise MaxStepsExceededError(f"no extinction after {frames.n_steps} steps (peak={peak:.3e})")

        while True:  # a rejected attempt leaves the state and the clock untouched
            if dt < 1e-16:
                raise TimestepUnderflowError(f"imex dt underflow at t={t:.6g}")
            u_try, sat, error = _step_imex(geom, u, dt)
            accepted, dt_next = _control(error, u, u_try, peak, dt, geom.atol)
            if accepted:
                break
            frames.rejected_steps += 1
            dt = dt_next
        u_prev, u = u, u_try
        frames.sink_saturations += sat
        frames.dt_min = min(frames.dt_min, dt)
        frames.dt_max = max(frames.dt_max, dt)
        frames.n_steps += 1
        t += dt
        peak = float(u.max())
        dt_step, dt = dt, dt_next

    frames.t, frames.sup, frames.I, frames.J, frames.D, frames.E = (np.asarray(column) for column in zip(*rows))
    try:
        frames.T_e_estimate, frames.rate_r2 = fit_extinction(frames)
    except InsufficientDecayError:
        pass
    return frames


def fit_extinction(frames: FrameSeries) -> tuple[float, float]:
    """Extinction time from the linear law ||u||^(2-p) = m (T_e - t).

    Least squares over the final recorded decade of the sup norm; T_e is the
    root of the fit and rate_r2 its coefficient of determination.
    """
    sup, t = frames.sup, frames.t
    if sup.size < FIT_MIN_RECORDS or sup[-1] <= 0.0 or sup[0] < 10.0 * sup[-1]:
        raise InsufficientDecayError(f"need >= {FIT_MIN_RECORDS} records spanning the final decade")
    lo = sup[-1]
    mask = (sup <= 10.0 * lo) & (sup >= lo)
    if np.count_nonzero(mask) < FIT_MIN_RECORDS:
        raise InsufficientDecayError(
            f"only {np.count_nonzero(mask)} records in the final decade"
        )
    m, b, r2 = _linear_fit(t[mask], sup[mask] ** (2.0 - frames.config.params.p))
    return float(-b / m), r2


def rate_exponent(frames: FrameSeries, T_e: float) -> tuple[float, float]:
    """Fitted exponent of ||u||_inf against (T_e - t) over the last RATE_DECADES decades."""
    sup, t = frames.sup, frames.t
    mask = (t < T_e) & (sup > 0.0) & (sup <= frames.sup[-1] * 10.0**RATE_DECADES)
    if np.count_nonzero(mask) < 10:
        raise InsufficientDecayError("too few records for the rate-exponent fit")
    m, _, r2 = _linear_fit(np.log(T_e - t[mask]), np.log(sup[mask]))
    return float(m), r2


def _linear_fit(x: np.ndarray, y: np.ndarray):
    """Least-squares line y = m x + b and its coefficient of determination R^2."""
    m, b = np.polyfit(x, y, 1)
    y_hat = m * x + b
    ss_res = float(np.sum((y - y_hat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return m, b, 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0


def rescale_frames(frames: FrameSeries, T_e: float) -> list[tuple[float, np.ndarray]]:
    """Self-similar frames (s_k, v_k) from the stored snapshots.

    v = u / separable_amplitude(T_e - t) and s = -log((T_e - t)/T_e)/(2-p).
    """
    params = frames.config.params
    out = []
    for t_k, u_k in frames.snapshots:
        if t_k >= T_e:
            raise BadExtinctionTimeError(f"snapshot at t={t_k} is not before T_e={T_e}")
        tau = T_e - t_k
        s_k = -math.log(tau / T_e) / (2.0 - params.p)
        v_k = u_k / separable_amplitude(params, tau)
        out.append((s_k, v_k))
    return out


def _profile_on_grid(profile: Trajectory, grid: RadialGrid) -> np.ndarray:
    """Profile values at the cell centers through the dense ODE output, clipped at zero.

    The trajectory must reach R_inf, or end at its first zero inside the
    grid, past which the value is 0: a bisection midpoint a hair above a_*
    crosses zero a little short of the default R_inf, and past the trust
    radius the ground state is below ~1e-10, so reading it as 0 there is
    exact to that level. The trajectory's own dense interpolant is exact to
    integrator tolerance everywhere, including between the coarse samples
    near r = 0 where the cubic top would defeat a shape-preserving fit of the
    sample table.
    """
    if profile.r_end < grid.R_inf and profile.status != "FZero":
        raise ValueError("profile trajectory does not cover the grid")
    r = grid.centers
    lo = profile.r[0]
    below = r < lo
    live = ~below & (r <= profile.r_end)
    out = np.zeros_like(r)
    if live.any():
        out[live] = profile.eval(r[live])[0]
    if below.any():
        # below the series-start radius the profile is flat to O(eps^2)
        out[below] = profile.eval(lo)[0]
    return np.clip(out, 0.0, None)


def compare_to_profile(
    frames: FrameSeries,
    rescaled: list[tuple[float, np.ndarray]],
    profile: Trajectory,
) -> np.ndarray:
    """Sup-norm distance of each rescaled frame from the ground-state profile."""
    f_ref = _profile_on_grid(profile, frames.grid)
    return np.array([float(np.max(np.abs(v_k - f_ref))) for _, v_k in rescaled])


@dataclass(frozen=True)
class ProfileErrors:
    """A run against the profile, one entry per stored snapshot, with its two judging windows."""

    t: np.ndarray
    s: np.ndarray  # self-similar time -log((T_e - t)/T_e)/(2-p)
    v: np.ndarray  # rescaled fields, one row per snapshot
    sup_error: np.ndarray  # sup |v_k - f_*|
    before_endgame: np.ndarray  # T_e - t >= ENDGAME_FRACTION T_e
    oracle: np.ndarray  # t <= ORACLE_HORIZON T0


def profile_errors(frames: FrameSeries, profile: Trajectory) -> ProfileErrors:
    """Rescale the snapshots with the run's own T_e estimate and measure each against the profile."""
    T_e = frames.T_e_estimate
    rescaled = rescale_frames(frames, T_e)
    t = np.array([t_k for t_k, _ in frames.snapshots])
    s, v = (np.array(column) for column in zip(*rescaled))
    errors = compare_to_profile(frames, rescaled, profile)
    return ProfileErrors(t, s, v, errors, (T_e - t) >= ENDGAME_FRACTION * T_e, t <= ORACLE_HORIZON * frames.config.T0)
