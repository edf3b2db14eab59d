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

Each run is one call of explicit adaptive Runge-Kutta (DOP853) over
(eps, r_max), with a series start at r = eps to clear the 1/r coordinate
singularity, dense output, and sign-change events for f and g. The embedded
error control alone sets the accuracy: there is no step cap, so rel_tol is
what a tighter or looser run changes. The settings no caller varies are
module constants: the absolute tolerance ABS_TOL, and the sample spacing
SAMPLE_DR with the radius DENSE_UNTIL where it relaxes; ``IntegratorOptions``
keeps the ones that do vary (rel_tol, r_max, track_past_fzero).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .params import Params, require_positive, weight_rho

__all__ = [
    "IntegratorOptions",
    "ProfileState",
    "TrajEvent",
    "Trajectory",
    "StepSizeUnderflowError",
    "NoZeroWithinHorizonError",
    "rhs",
    "series_start",
    "integrate",
    "energy",
    "w_and_h",
    "psi_integrate",
]


class StepSizeUnderflowError(RuntimeError):
    """Adaptive stepper gave up; carries the last good state for diagnostics."""

    def __init__(self, message: str, last_state: "ProfileState | None" = None):
        super().__init__(message)
        self.last_state = last_state


class NoZeroWithinHorizonError(RuntimeError):
    """psi stayed positive up to r_max, which contradicts its finite first zero."""


# near-pure relative control: an absolute floor at 1e-12 buries the
# exponential tails that the near-a_* classification runs live on
ABS_TOL = 1e-60
# spacing of the stored samples for r <= DENSE_UNTIL; beyond that it
# relaxes to bound sample counts
SAMPLE_DR = 0.05
DENSE_UNTIL = 20.0


@dataclass(frozen=True)
class IntegratorOptions:
    # the coarsest decade that resolves the separatrix: at 1e-10 a_* moves by
    # 1e-10 to 2e-10, and at 1e-11 the (2, 1.5) bisection midpoint turns A at
    # r = 15.5, where 1e-12 and 1e-13 keep it unresolved past r = 25
    rel_tol: float = 1e-12
    r_max: float = 50.0
    # continue past the first zero of f (f < 0 permitted) until g crosses zero
    track_past_fzero: bool = False

    def __post_init__(self):
        # a NaN passes a plain <= 0 test and an infinite horizon never ends
        require_positive("rel_tol", self.rel_tol)
        require_positive("r_max", self.r_max)


@dataclass(frozen=True)
class ProfileState:
    r: float
    f: float
    g: float


@dataclass(frozen=True)
class TrajEvent:
    kind: str  # "FZero" | "GZero" | "Truncated"
    r: float
    info: dict = field(default_factory=dict)


@dataclass
class Trajectory:
    """Sampled shooting run plus its dense interpolant and detected events."""

    params: Params
    a: float
    r: np.ndarray
    f: np.ndarray
    g: np.ndarray
    fprime: np.ndarray
    E: np.ndarray
    w: np.ndarray
    h: np.ndarray
    events: list[TrajEvent]
    dense: object  # callable dense output over [eps_start, r_end]; see _DenseOutput

    @property
    def r_end(self) -> float:
        return float(self.r[-1])

    def event(self, kind: str) -> TrajEvent | None:
        for ev in self.events:
            if ev.kind == kind:
                return ev
        return None

    def eval(self, r):
        """Evaluate (f, g) anywhere in the integrated range via dense output."""
        r = np.asarray(r, dtype=float)
        y = self.dense(r)
        return y[0], y[1]


def eps_start(a: float) -> float:
    """Series-start radius; shrinks for large a where f bends faster."""
    return max(1e-8, 1e-6 / max(1.0, a))


def rhs(params: Params, state: ProfileState) -> tuple[float, float]:
    """Right-hand side (df, dg) of the first-order system at one state."""
    df, dg = _rhs_arrays(params, state.r, state.f, state.g, absorption=True)
    return float(df), float(dg)


def _rhs_arrays(params: Params, r, f, g, absorption: bool):
    absg = np.abs(g)
    df = -(absg**params.e_flux) * g
    dg = f - (params.N - 1) * g / r
    if absorption:
        dg = dg - absg
    return df, dg


def series_start(params: Params, a: float, eps: float) -> ProfileState:
    """Leading-order state at r = eps from g ~ a r / N and f' = -(a r/N)^(1/(p-1)).

    The f-correction is the integral of the leading slope; the matching
    g-correction enters only at higher order in eps and is omitted.
    """
    if a <= 0:
        raise ValueError("shooting parameter a must be positive")
    p = params.p
    g0 = a * eps / params.N
    f0 = a - (p - 1.0) / p * (a / params.N) ** params.e_g * eps ** (p / (p - 1.0))
    return ProfileState(r=eps, f=f0, g=g0)


def energy(params: Params, state: ProfileState) -> float:
    """E = (p-1)/p |f'|^p + f^2/2 with |f'|^p = |g|^(p/(p-1))."""
    return float(_energy_arrays(params, state.f, state.g))


def _energy_arrays(params: Params, f, g):
    p = params.p
    return (p - 1.0) / p * np.abs(g) ** (p * params.e_g) + 0.5 * f * f


def integrate(params: Params, a: float, opts: IntegratorOptions | None = None) -> Trajectory:
    """Shoot from f(0)=a, f'(0)=0 until an f/g sign change or r_max.

    The trajectory ends at the first of: FZero (f crosses zero, slope
    recorded), GZero (g crosses zero; only reachable with track_past_fzero),
    or Truncated at r_max. Events are root-resolved by the integrator's
    dense-output bracketing.
    """
    return _integrate_fg(params, a, opts or IntegratorOptions(), absorption=True)


def psi_integrate(params: Params, opts: IntegratorOptions | None = None) -> Trajectory:
    """Integrate the absorption-free companion problem psi(0)=1, psi'(0)=0.

    Ends at the first zero s0 of psi with its slope recorded; psi provably
    has one, so running out of horizon raises NoZeroWithinHorizonError.
    """
    opts = opts or IntegratorOptions()
    traj = _integrate_fg(params, 1.0, opts, absorption=False)
    if traj.event("FZero") is None:
        raise NoZeroWithinHorizonError(
            f"psi stayed positive up to r_max={opts.r_max}; this signals a bug"
        )
    return traj


class _DenseOutput:
    """The run's one scipy OdeSolution, callable like it.

    perfbench/tracing.py counts accepted steps through the attributes
    ``sol_near`` and ``sol_far`` of ``Trajectory.dense``, the names of the
    two integration phases a run once had. A run now has one phase:
    ``sol_near`` is its OdeSolution and ``sol_far`` is always None.
    """

    sol_far = None

    def __init__(self, sol):
        self.sol_near = sol

    def __call__(self, r):
        return self.sol_near(r)


def _integrate_fg(params: Params, a: float, opts: IntegratorOptions, absorption: bool) -> Trajectory:
    eps = eps_start(a)
    state0 = series_start(params, a, eps)

    def odefun(r, y):
        return _rhs_arrays(params, r, y[0], y[1], absorption)

    def ev_fzero(r, y):
        return y[0]

    def ev_gzero(r, y):
        return y[1]

    ev_fzero.direction = -1.0
    ev_fzero.terminal = not opts.track_past_fzero
    ev_gzero.direction = -1.0
    ev_gzero.terminal = True

    sol = solve_ivp(
        odefun,
        (eps, opts.r_max),
        [state0.f, state0.g],
        method="DOP853",
        rtol=opts.rel_tol,
        atol=ABS_TOL,
        dense_output=True,
        events=[ev_fzero, ev_gzero],
    )
    _check_underflow(sol, a)
    dense = _DenseOutput(sol.sol)
    r_end = float(sol.t[-1])
    f_roots, g_roots = sol.t_events

    events: list[TrajEvent] = []
    if f_roots.size:
        rf = float(f_roots.min())
        yf = dense(rf)
        dff, _ = _rhs_arrays(params, rf, yf[0], yf[1], absorption)
        events.append(TrajEvent("FZero", rf, {"slope": float(dff), "g": float(yf[1])}))
    if g_roots.size:
        rg = float(g_roots.min())
        yg = dense(rg)
        _, dgg = _rhs_arrays(params, rg, yg[0], yg[1], absorption)
        events.append(TrajEvent("GZero", rg, {"gprime": float(dgg), "f": float(yg[0])}))
    events.sort(key=lambda ev: ev.r)
    if sol.status == 0:
        events.append(TrajEvent("Truncated", r_end))

    r_grid = _sample_grid(eps, r_end)
    y = dense(r_grid)
    f, g = y[0], y[1]
    fprime, _ = _rhs_arrays(params, r_grid, f, g, absorption)
    E = _energy_arrays(params, f, g)

    traj = Trajectory(
        params=params,
        a=a,
        r=r_grid,
        f=f,
        g=g,
        fprime=fprime,
        E=E,
        w=np.empty(0),
        h=np.empty(0),
        events=events,
        dense=dense,
    )
    return w_and_h(params, traj)


def _check_underflow(sol, a: float) -> None:
    if sol.status == -1:
        last = ProfileState(r=float(sol.t[-1]), f=float(sol.y[0, -1]), g=float(sol.y[1, -1]))
        raise StepSizeUnderflowError(
            f"step size underflow at r={last.r:.6g} (a={a:.17g}): {sol.message}", last
        )


def _sample_grid(eps: float, r_end: float) -> np.ndarray:
    near_end = min(r_end, DENSE_UNTIL)
    n_near = max(2, int(np.ceil((near_end - eps) / SAMPLE_DR)) + 1)
    grid = np.linspace(eps, near_end, n_near)
    if r_end > near_end:
        far_dr = max(SAMPLE_DR, (r_end - near_end) / 4000.0)
        n_far = max(2, int(np.ceil((r_end - near_end) / far_dr)) + 1)
        grid = np.concatenate([grid, np.linspace(near_end, r_end, n_far)[1:]])
    return grid


def w_and_h(params: Params, traj: Trajectory) -> Trajectory:
    """Annotate a trajectory with w = rho*g and h = w'/w = f/g.

    The identity w' = rho*f makes h = f/g; h is NaN wherever g <= 0 (past the
    GZero event the ratio has no meaning for the dichotomy diagnostics).
    """
    with np.errstate(over="ignore"):
        # rho overflows past r ~ 700 on slow-decay horizons; w is a
        # moderate-r diagnostic, inf is acceptable there
        rho = weight_rho(params, traj.r)
        traj.w = rho * traj.g
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(traj.g > 0.0, traj.f / traj.g, np.nan)
    traj.h = h
    return traj
