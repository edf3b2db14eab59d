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
1/r coordinate singularity and sign-change events for f and g, located on
the dense output of the step that brackets them. A kept trajectory
(``integrate``, ``psi_integrate``) stores every step's dense output; a
classification probe stores none and may end the run early through its stop
test. The embedded error control alone sets the accuracy: there is no step
cap, so rel_tol is what a tighter or looser run changes. The settings no
caller varies are module constants: the absolute tolerance ABS_TOL, and the
sample spacing SAMPLE_DR with the radius DENSE_UNTIL where it relaxes;
``IntegratorOptions`` keeps the ones that do vary (rel_tol, r_max,
track_past_fzero).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import DOP853, OdeSolution
from scipy.optimize import brentq

from .params import Params, require_positive, weight_rho

__all__ = [
    "IntegratorOptions",
    "ProfileState",
    "TrajEvent",
    "Trajectory",
    "Shot",
    "StepSizeUnderflowError",
    "NoZeroWithinHorizonError",
    "rhs",
    "series_start",
    "integrate",
    "shoot",
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
# event roots to 4 ulp, the brentq tolerance of scipy's own event location
_ROOT_TOL = 4.0 * np.finfo(float).eps


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
    or Truncated at r_max. Events are root-resolved on the dense output of
    the step that brackets them.
    """
    return _trajectory(params, a, opts or IntegratorOptions(), absorption=True)


def psi_integrate(params: Params, opts: IntegratorOptions | None = None) -> Trajectory:
    """Integrate the absorption-free companion problem psi(0)=1, psi'(0)=0.

    Ends at the first zero s0 of psi with its slope recorded; psi provably
    has one, so running out of horizon raises NoZeroWithinHorizonError.
    """
    opts = opts or IntegratorOptions()
    traj = _trajectory(params, 1.0, opts, absorption=False)
    if traj.event("FZero") is None:
        raise NoZeroWithinHorizonError(
            f"psi stayed positive up to r_max={opts.r_max}; this signals a bug"
        )
    return traj


@dataclass
class Shot:
    """How one shooting run ended.

    ``status`` names what ended it: "horizon" (r_max), the kind of a terminal
    event ("FZero" or "GZero"), "stopped" (the caller's stop test) or
    "underflow" (the step size fell below the spacing of floats). ``end`` is
    the state there: the event root for an event, else the last accepted
    step end. ``events`` maps each kind to its first root, in order of
    radius. ``dense`` is the run's OdeSolution when it was kept.
    """

    status: str
    end: ProfileState
    steps: int
    events: dict[str, TrajEvent]
    dense: OdeSolution | None = None


def shoot(
    params: Params,
    a: float,
    opts: IntegratorOptions,
    absorption: bool = True,
    keep_dense: bool = False,
    stop=None,
) -> Shot:
    """Step DOP853 from the series start to r_max, a terminal event or ``stop``.

    This is the loop scipy's IVP front end runs around DOP853 with events,
    with the same steps, event roots and dense output: the signs of f and g
    are compared at each accepted step end, and a downward crossing is
    resolved by brentq to 4 ulp on that step's dense output. FZero ends the
    run unless ``opts.track_past_fzero``; GZero always does. With
    ``keep_dense`` every step's interpolant goes into the OdeSolution;
    otherwise one is built only for a step that holds an event.
    ``stop(r, f, g)`` sees each accepted step end that no terminal event cut
    short, and a true return ends the run.
    """
    eps = eps_start(a)
    state0 = series_start(params, a, eps)

    def odefun(r, y):
        return _rhs_arrays(params, r, y[0], y[1], absorption)

    solver = DOP853(odefun, eps, [state0.f, state0.g], opts.r_max, rtol=opts.rel_tol, atol=ABS_TOL)
    terminal = {"FZero": not opts.track_past_fzero, "GZero": True}
    events: dict[str, TrajEvent] = {}
    ts, interpolants = [eps], []
    r, y = eps, solver.y
    status, steps = None, 0
    while status is None:
        solver.step()
        if solver.status == "failed":
            status = "underflow"
            break
        steps += 1
        (f_old, g_old), r, y = y, solver.t, solver.y
        sol = solver.dense_output() if keep_dense else None
        crossed = [k for k, (old, new) in enumerate(((f_old, y[0]), (g_old, y[1]))) if old >= 0.0 >= new]
        if crossed:
            sol = sol or solver.dense_output()
            roots = sorted(
                (brentq(lambda s, k=k: sol(s)[k], solver.t_old, r, xtol=_ROOT_TOL, rtol=_ROOT_TOL), k)
                for k in crossed
            )
            for root, k in roots:
                kind, y_root = ("FZero", "GZero")[k], sol(root)
                events.setdefault(kind, _event(params, kind, root, y_root, absorption))
                if terminal[kind]:
                    status, r, y = kind, root, y_root
                    break
        if status is None:
            if stop is not None and stop(r, y[0], y[1]):
                status = "stopped"
            elif solver.status == "finished":
                status = "horizon"
        # a terminal root on the step's start adds no segment, as in scipy
        if keep_dense and not (len(ts) > 1 and ts[-1] == r):
            ts.append(r)
            interpolants.append(sol)
    end = ProfileState(r=float(r), f=float(y[0]), g=float(y[1]))
    dense = OdeSolution(ts, interpolants) if keep_dense and interpolants else None
    return Shot(status=status, end=end, steps=steps, events=events, dense=dense)


def _event(params: Params, kind: str, r: float, y, absorption: bool) -> TrajEvent:
    df, dg = _rhs_arrays(params, r, y[0], y[1], absorption)
    if kind == "FZero":
        return TrajEvent(kind, r, {"slope": float(df), "g": float(y[1])})
    return TrajEvent(kind, r, {"gprime": float(dg), "f": float(y[0])})


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


def _trajectory(params: Params, a: float, opts: IntegratorOptions, absorption: bool) -> Trajectory:
    shot = shoot(params, a, opts, absorption, keep_dense=True)
    if shot.status == "underflow":
        raise StepSizeUnderflowError(
            f"step size underflow at r={shot.end.r:.6g} (a={a:.17g})", shot.end
        )
    events = list(shot.events.values())
    if shot.status == "horizon":
        events.append(TrajEvent("Truncated", shot.end.r))

    dense = _DenseOutput(shot.dense)
    r_grid = _sample_grid(shot.dense.t_min, shot.end.r)
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
