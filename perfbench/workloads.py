"""The benchmark workloads: inputs drawn from a seed, set-up, and one gated round.

Seed 0 is the acceptance configuration. Other seeds draw the workload's one
input from [0.5, 2]: the bracket-search start a_init for ``ground_state``,
the amplitude kappa0 of the exponential tail for ``extinction_fine``. A round
runs each of the workload's ``parts`` once, and each part is timed on its
own. A part is a list of operations; an operation that raises or misses one
of its acceptance gates counts as failed.
"""

from __future__ import annotations

import hashlib
import random
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from selfsim import IntegratorOptions, __version__, bisect_a_star, bracket_search, make_params
from selfsim.pde import (
    PdeConfig,
    compare_to_profile,
    make_grid,
    make_initial,
    rate_exponent,
    rescale_frames,
    run_to_extinction,
)
from selfsim.reporting import SCHEMA_VERSION, write_csv, write_summary

# README reference values: (N, p) -> (a_*, stated error)
REFERENCE = {(2, 1.5): (6.0353203304, 5e-11), (3, 1.7): (9.3867780334, 6e-11)}
TOL_A = 1e-10
# The extinction set-up starts the bracket search where every production
# caller does (the default a_init = 1). From other starts the bisection
# midpoint can land on the A side of a_*; its trajectory then crosses zero
# near r = 14.5, short of R_inf = 15, and compare_to_profile raises.
EXTINCTION_A_INIT = 1.0
M_FINE = 2000
R_INF = 15.0


def _draw(seed: int) -> float:
    return 1.0 if seed == 0 else random.Random(seed).uniform(0.5, 2.0)


@dataclass
class Op:
    label: str
    checks: list = field(default_factory=list)  # (name, value or None, gate, passed)
    error: str | None = None

    def at_most(self, name: str, value: float, limit: float) -> float:
        value = float(value)
        self.checks.append((name, value, f"<= {limit:g}", value <= limit))
        return value

    def at_least(self, name: str, value: float, limit: float) -> float:
        value = float(value)
        self.checks.append((name, value, f">= {limit:g}", value >= limit))
        return value

    def holds(self, name: str, passed: bool) -> None:
        self.checks.append((name, None, "", bool(passed)))

    def fail(self, exc: Exception) -> None:
        traceback.print_exception(exc)
        self.error = f"{type(exc).__name__}: {exc}"

    @property
    def passed(self) -> bool:
        return self.error is None and all(c[3] for c in self.checks)


@dataclass
class Round:
    ops: list[Op]
    acc: dict[str, float] = field(default_factory=dict)  # the acc.* metrics
    layer: dict[str, float] = field(default_factory=dict)  # counts read off the results
    digest: str | None = None


def merge(rounds: list[Round]) -> Round:
    """One round from its parts: counts add up and each accuracy value keeps its largest."""
    out = Round(ops=[op for rnd in rounds for op in rnd.ops])
    for rnd in rounds:
        for name, value in rnd.layer.items():
            out.layer[name] = out.layer.get(name, 0) + value
        for name, value in rnd.acc.items():
            out.acc[name] = max(out.acc.get(name, value), value)
        out.digest = rnd.digest or out.digest
    return out


def _ground_state(P, a_init: float, tracer):
    opts = IntegratorOptions()
    with tracer.span("classify.bracket"):
        bracket = bracket_search(P, opts, a_init=a_init)
    with tracer.span("classify.bisect"):
        return bisect_a_star(P, bracket, tol_a=TOL_A, opts=opts)


def _ground_state_acc(gs, ref: float) -> dict[str, float]:
    return {"acc.a_star_dev": abs(gs.a_star - ref), "acc.bracket_width": gs.a_hi - gs.a_lo}


class GroundState:
    """Bracket and bisect a_* to 1e-10 at both reference points, one part each."""

    parts = tuple(REFERENCE)

    def inputs(self, seed: int) -> dict:
        return {"a_init": _draw(seed)}

    def setup(self, inp: dict, tracer) -> dict:
        return {"a_init": inp["a_init"], "params": {key: make_params(*key) for key in REFERENCE}}

    def run(self, state: dict, key, tracer, workdir: Path) -> Round:
        ref, err = REFERENCE[key]
        op = Op(f"a_* at (N, p) = {key}")
        rnd = Round(ops=[op])
        # an operation boundary: any exception fails this operation only
        try:
            gs = _ground_state(state["params"][key], state["a_init"], tracer)
            op.at_most("|a_* - reference|", abs(gs.a_star - ref), err)
            op.at_most("bracket width", gs.a_hi - gs.a_lo, TOL_A)
        except Exception as exc:
            op.fail(exc)
            return rnd
        rnd.layer["classify.bisect.iterations"] = gs.iterations
        rnd.acc = _ground_state_acc(gs, ref)
        return rnd


class ExtinctionFine:
    """The production pde-run default (exp_tail, M = 2000, R_inf = 15) with criterion 12's gates.

    The set-up includes the ground state at (2, 1.5) that the comparison
    needs, which a user pays on every compare run.
    """

    parts = ("exp_tail",)

    def inputs(self, seed: int) -> dict:
        return {"kappa0": _draw(seed)}

    def setup(self, inp: dict, tracer) -> dict:
        P = make_params(2, 1.5)
        gs = _ground_state(P, EXTINCTION_A_INIT, tracer)
        cfg = PdeConfig(params=P, init_kind="exp_tail", kappa0=inp["kappa0"])
        with tracer.span("pde.make_initial"):
            initial = make_initial(cfg, make_grid(R_INF, M_FINE))
        return {"P": P, "gs": gs, "cfg": cfg, "initial": initial}

    def run(self, state: dict, part, tracer, workdir: Path) -> Round:
        P, gs, cfg = state["P"], state["gs"], state["cfg"]
        op = Op(f"exp_tail M={M_FINE} kappa0={cfg.kappa0:.6g}")
        rnd = Round(ops=[op], acc=_ground_state_acc(gs, REFERENCE[(2, 1.5)][0]))
        rnd.layer["classify.bisect.iterations"] = gs.iterations
        # an operation boundary: any exception fails the operation
        try:
            with tracer.span("pde.run_to_extinction"):
                frames = run_to_extinction(cfg, state["initial"])
            rnd.layer.update(
                {
                    "pde.cells": M_FINE,
                    "pde.steps": frames.n_steps,
                    "pde.records": len(frames.t),
                    "pde.snapshots": len(frames.snapshots),
                    "pde.sink_saturations": frames.sink_saturations,
                    "pde.monotone_violations": frames.monotone_violations,
                }
            )
            T_e = frames.T_e_estimate
            with tracer.span("pde.compare"):
                errs = compare_to_profile(frames, rescale_frames(frames, T_e), gs.traj)
            kept = [e for e, (t_k, _) in zip(errs, frames.snapshots) if T_e - t_k >= 0.01 * T_e]
            last3 = kept[-3:]
            expo, _ = rate_exponent(frames, T_e)
            op.holds("last 3 sup_errors nonincreasing", last3[0] >= last3[1] >= last3[2])
            rnd.acc["acc.sup_err_rel"] = op.at_most("final sup_error / a_*", last3[-1] / gs.a_star, 0.05)
            rnd.acc["acc.rate_exponent_err"] = op.at_most(
                "|rate exponent - 1/(2-p)| / (1/(2-p))", abs(expo - P.e_time) / P.e_time, 0.10
            )
            rnd.acc["acc.rate_r2"] = op.at_least("rate fit R^2", frames.rate_r2, 0.999)
            rnd.acc["acc.supersolution_excess"] = op.at_most(
                "supersolution excess", frames.supersolution_excess, 1e-12 * cfg.kappa0
            )
            with tempfile.TemporaryDirectory(dir=workdir) as tmp:
                with tracer.span("reporting.write"):
                    write_outputs(Path(tmp) / "run", cfg, frames)
                rnd.digest, rnd.layer["reporting.bytes"] = digest_dir(Path(tmp))
        except Exception as exc:
            op.fail(exc)
        return rnd


def write_outputs(base: Path, cfg: PdeConfig, frames) -> None:
    """The data files `selfsim pde-run` writes for this configuration: records, frames and summary."""
    write_csv(
        f"{base}_records.csv",
        ["t", "sup", "I", "J", "D", "E"],
        zip(frames.t, frames.sup, frames.I, frames.J, frames.D, frames.E),
    )
    centers = frames.grid.centers
    for k, (_, u_k) in enumerate(frames.snapshots):
        write_csv(f"{base}_frame{k:03d}.csv", ["r", "u"], zip(centers, u_k))
    P = cfg.params
    write_summary(
        f"{base}_summary.json",
        {
            "schema": SCHEMA_VERSION,
            "version": __version__,
            "inputs": {
                "N": P.N,
                "p": P.p,
                "M": frames.grid.M,
                "R_inf": frames.grid.R_inf,
                "init": cfg.init_kind,
                "kappa0": cfg.kappa0,
            },
            "results": {
                "T_e": frames.T_e_estimate,
                "rate_r2": frames.rate_r2,
                "n_steps": frames.n_steps,
                "snapshots": len(frames.snapshots),
                "clamp_events": frames.clamp_events,
                "sink_saturations": frames.sink_saturations,
                "monotone_violations": frames.monotone_violations,
                "supersolution_excess": frames.supersolution_excess,
            },
        },
    )


def digest_dir(path: Path) -> tuple[str, int]:
    """SHA-256 over the files of a directory (names and bytes) and their total size."""
    h = hashlib.sha256()
    size = 0
    for item in sorted(path.iterdir()):
        data = item.read_bytes()
        h.update(item.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


WORKLOADS = {"ground_state": GroundState(), "extinction_fine": ExtinctionFine()}
