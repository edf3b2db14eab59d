"""Command-line interface.

Subcommands: params, profile, classify, sweep (its heights one after
another, in the calling process), find-astar, pohozaev, pde-run,
pde-compare, verify. Exit codes: 0 success, 1 check failure, 2 usage error
(any ValueError, such as a kappa0 below 2.23e-298, whose extinction
threshold would be subnormal), 3 numerical failure (any NumericalError) or
I/O error.

All data files are deterministic for a fixed configuration: floats carry 17
significant digits and JSON keys are sorted; version/timestamp metadata and
wall-clock seconds go to a `.meta.json` sidecar only (pass --meta; `verify
--out` always writes one).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .params import NumericalError, make_params, require_positive
from .profile_ode import IntegratorOptions, eps_start, integrate, series_start
from .pohozaev import J_along, coeff_functions, cubic_coeffs, find_r_G, G_cubic, G_direct
from .classify import TOL_A, classify, find_ground_state
from .pde import (PdeConfig, RadialGrid, make_initial, profile_errors, resolved_couplings, run_to_extinction,
                  separable_config)
from .reporting import SCHEMA_VERSION, read_summary, validate_config, write_csv, write_sidecar, write_summary
from .acceptance import CRITERIA, RUNTIME_CHECK, AcceptanceContext, run_acceptance

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _add_model_args(sp):
    sp.add_argument("--N", type=int, required=True, help="space dimension (>= 1)")
    sp.add_argument("--p", type=float, required=True, help="diffusion exponent in (2N/(N+1), 2)")


def _add_ode_args(sp):
    default = IntegratorOptions()
    sp.add_argument("--rmax", type=float, default=default.r_max, help="integration horizon")
    sp.add_argument("--rtol", type=float, default=default.rel_tol, help="integrator relative tolerance")


def _opts(args) -> IntegratorOptions:
    return IntegratorOptions(rel_tol=args.rtol, r_max=args.rmax)


def _summary_skeleton(N, p, **inputs) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "inputs": {"N": N, "p": p, **inputs},
        "results": {},
    }


def cmd_params(args) -> int:
    P = make_params(args.N, args.p)
    summary = _summary_skeleton(args.N, args.p)
    summary["results"] = {k: getattr(P, k) for k in ("p_c", "e_flux", "e_g", "e_slow", "e_time", "e_weight")}
    _emit(args, summary, args.out)
    return EXIT_OK


def cmd_profile(args) -> int:
    P = make_params(args.N, args.p)
    traj = integrate(P, args.a, _opts(args))
    series = J_along(P, traj)
    rows = zip(traj.r, traj.f, traj.g, traj.fprime, traj.E, traj.w, traj.h, series.J)
    write_csv(args.out, ["r", "f", "g", "fprime", "E", "w", "h", "J"], rows)
    if args.meta:
        write_sidecar(args.out, {"command": "profile", "a": args.a})
    print(f"wrote {args.out}: {len(traj.r)} samples, status {traj.status}, r_end {traj.r_end:.6g}")
    return EXIT_OK


def cmd_classify(args) -> int:
    P = make_params(args.N, args.p)
    c = classify(P, args.a, _opts(args))
    summary = _summary_skeleton(args.N, args.p, a=args.a, rmax=args.rmax, rtol=args.rtol)
    summary["results"] = {
        "verdict": c.verdict,
        "R": c.R,
        "slope": c.slope,
        "r_bar": c.r_bar,
        "J_at_rbar": c.J_at_rbar,
        "diagnostics": c.diagnostics,
        "r_end": c.r_end,
        "steps": c.steps,
    }
    _emit(args, summary, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    P, opts = make_params(args.N, args.p), _opts(args)  # every setting is checked before any classification
    require_positive("--a-min", args.a_min)
    require_positive("--a-max", args.a_max)
    require_positive("--num", args.num)
    for a in (args.a_min, args.a_max):  # a height too large for the series start, at either end
        series_start(P, a, eps_start(a))
    spacing = np.geomspace if args.log else np.linspace
    found = [classify(P, float(a), opts) for a in spacing(args.a_min, args.a_max, args.num)]
    out_rows = [(c.a, c.verdict, _nan(c.R), _nan(c.slope), _nan(c.r_bar), _nan(c.J_at_rbar)) for c in found]
    write_csv(args.out, ["a", "verdict", "R", "slope", "r_bar", "J_at_rbar"], out_rows)
    if args.meta:
        write_sidecar(args.out, {"command": "sweep"})
    print(f"wrote {args.out}: {len(out_rows)} classifications")
    return EXIT_OK


def _nan(x):
    return float("nan") if x is None else x


def cmd_find_astar(args) -> int:
    P = make_params(args.N, args.p)
    gs = find_ground_state(P, _opts(args), tol_a=args.tol)
    summary = _summary_skeleton(args.N, args.p, tol=args.tol, rmax=args.rmax, rtol=args.rtol)
    summary["results"] = {
        "a_lo": gs.a_lo,
        "a_hi": gs.a_hi,
        "a_star": gs.a_star,
        "l_star": gs.l_star,
        "c_star": gs.c_star,
        "trust_radius": gs.trust_radius,
        "plateau_window": list(gs.plateau_window),
        "iterations": gs.iterations,
        "probe_steps": gs.probe_steps,
    }
    _emit(args, summary, args.out)
    return EXIT_OK


def cmd_pohozaev(args) -> int:
    P = make_params(args.N, args.p)
    require_positive("--num", args.num)
    require_positive("--r-min", args.r_min)
    require_positive("--r-max", args.r_max)
    traj = None if args.a is None else integrate(P, args.a, IntegratorOptions(r_max=args.r_max))  # before any file
    r = np.linspace(args.r_min, args.r_max, args.num)
    alpha, beta, gamma, delta = coeff_functions(P, r)
    rows = zip(r, alpha, beta, gamma, delta, G_cubic(P, r), G_direct(P, r))
    write_csv(args.out, ["r", "alpha", "beta", "gamma", "delta", "G_cubic", "G_direct"], rows)
    if traj is not None:
        series = J_along(P, traj)
        out = Path(args.out)
        j_path = out.with_name(out.name.removesuffix(".csv") + "_J.csv")
        write_csv(j_path, ["r", "J", "G", "gsq"], zip(series.r, series.J, series.G, series.gsq))
        print(f"wrote {j_path}")
    summary = _summary_skeleton(args.N, args.p)
    M0, M1, M2, M3 = cubic_coeffs(P)
    # N = 1: the cubic collapses to the constant M0 < 0, G < 0 everywhere
    summary["results"] = {"M0": M0, "M1": M1, "M2": M2, "M3": M3, "r_G": find_r_G(P), "degenerate": P.N == 1}
    print(f"wrote {args.out}")
    _emit(args, summary, args.json)
    return EXIT_OK


PDE_RUN_DEFAULTS = {"init": "exp_tail", "M": 2000, "r_inf": 15.0, "kappa0": 1.0, "T0": 1.0}


def _add_pde_args(sp):
    """The run flags pde-run and pde-compare share; an unset flag resolves in ``_pde_settings``."""
    sp.add_argument("--init", choices=["exp_tail", "separable"])
    sp.add_argument("--M", type=int)
    sp.add_argument("--r-inf", dest="r_inf", type=float)
    sp.add_argument("--kappa0", type=float)
    sp.add_argument("--T0", type=float)


def _pde_settings(args) -> dict:
    """N, p and the run settings, kept as given: explicit flags, then the --config file, then PDE_RUN_DEFAULTS.

    A setting given explicitly (flag or config key) that the chosen initial
    data ignores is refused, rather than dropped without a word.
    """
    settings = {"N": None, "p": None, **PDE_RUN_DEFAULTS}
    given = {}
    config = getattr(args, "config", None)
    if config:
        loaded = validate_config(read_summary(config), set(settings), config)
        given.update({k: v for k, v in loaded.items() if k != "schema"})
    for key in settings:
        flag = getattr(args, key, None)
        if flag is not None:
            given[key] = flag
    settings.update(given)
    if settings["N"] is None or settings["p"] is None:
        raise ValueError("--N and --p are required (flags or --config)")
    # separable data's amplitude follows from T0 and a_*; exp_tail data has no T0
    ignored = {"exp_tail": "T0", "separable": "kappa0"}.get(settings["init"])
    if ignored in given:
        raise ValueError(f"{ignored} does not apply to {settings['init']} initial data")
    return settings


def _run_pde(settings: dict, tol_a: float | None = None):
    """Build the params, grid and config of a run and run it to extinction; returns (config, frames, gs).

    Every setting is checked before the ground state gs is sought: at tol_a
    when one is given (pde-compare), else at the default tolerance and only
    for separable data, which starts from it.
    """
    P = make_params(settings["N"], settings["p"])
    grid = RadialGrid(settings["r_inf"], settings["M"])
    resolved_couplings(P.N, grid)  # a grid the sweep cannot resolve is refused here, not after the search
    cfg = PdeConfig(params=P, kappa0=settings["kappa0"], init_kind=settings["init"], T0=settings["T0"])
    gs = None
    if tol_a is not None:
        gs = find_ground_state(P, tol_a=tol_a)
    elif cfg.init_kind == "separable":
        gs = find_ground_state(P)
    if cfg.init_kind == "separable":
        cfg = separable_config(P, gs.a_star, T0=cfg.T0)
    frames = run_to_extinction(cfg, make_initial(cfg, grid, None if gs is None else gs.traj))
    return cfg, frames, gs


def _pde_summary(settings: dict, cfg: PdeConfig, frames, **inputs) -> dict:
    """A PDE run's summary: grid, initial data and amplitude in, T_e fit, step counters and monitors out."""
    # kappa0 is the run's amplitude: for separable data it follows from T0 and a_*
    inputs.update(M=settings["M"], R_inf=settings["r_inf"], init=settings["init"], kappa0=cfg.kappa0)
    if settings["init"] == "separable":
        inputs["T0"] = cfg.T0
    summary = _summary_skeleton(settings["N"], settings["p"], **inputs)
    summary["results"] = {
        "T_e": frames.T_e_estimate,
        "rate_r2": frames.rate_r2,
        "n_steps": frames.n_steps,
        "rejected_steps": frames.rejected_steps,
        "dt_min": frames.dt_min,
        "dt_max": frames.dt_max,
        "snapshots": len(frames.snapshots),
        "clamp_events": frames.clamp_events,
        "sink_saturations": frames.sink_saturations,
        "monotone_violations": frames.monotone_violations,
        "supersolution_excess": frames.supersolution_excess,
    }
    return summary


def cmd_pde_run(args) -> int:
    settings = _pde_settings(args)
    cfg, frames, _ = _run_pde(settings)
    write_csv(
        f"{args.out}_records.csv",
        ["t", "sup", "I", "J", "D", "E"],
        zip(frames.t, frames.sup, frames.I, frames.J, frames.D, frames.E),
    )
    for k, (t_k, u_k) in enumerate(frames.snapshots):
        write_csv(f"{args.out}_frame{k:03d}.csv", ["r", "u"], zip(frames.grid.centers, u_k))
    write_summary(f"{args.out}_summary.json", _pde_summary(settings, cfg, frames))
    if args.meta:
        write_sidecar(f"{args.out}_summary.json", {"command": "pde-run"})
    print(f"wrote {args.out}_records.csv, {len(frames.snapshots)} frames, {args.out}_summary.json")
    return EXIT_OK


def cmd_pde_compare(args) -> int:
    settings = _pde_settings(args)
    cfg, frames, gs = _run_pde(settings, tol_a=args.tol)
    cmp = profile_errors(frames, gs.traj)
    write_csv(f"{args.out}_compare.csv", ["s", "t", "sup_error"], zip(cmp.s, cmp.t, cmp.sup_error))
    kept = cmp.sup_error[cmp.before_endgame]
    summary = _pde_summary(settings, cfg, frames, tol=args.tol)
    summary["results"].update(
        a_star=gs.a_star,
        final_sup_error=kept[-1] if kept.size else float("nan"),
        final_sup_error_rel_astar=(kept[-1] / gs.a_star) if kept.size else float("nan"),
    )
    write_summary(f"{args.out}_summary.json", summary)
    if args.meta:
        write_sidecar(f"{args.out}_summary.json", {"command": "pde-compare"})
    print(f"wrote {args.out}_compare.csv and {args.out}_summary.json")
    return EXIT_OK


def cmd_verify(args) -> int:
    only = set(args.only) if args.only else None
    results = run_acceptance(AcceptanceContext(), echo=print, only=only)
    failed = [r for r in results if not r.passed]
    print(f"acceptance: {len(results) - len(failed)}/{len(results)} criteria passed")
    if args.out:
        summary = {
            "schema": SCHEMA_VERSION,
            "version": __version__,
            "results": {
                str(r.index): {
                    "title": r.title,
                    "passed": r.passed,
                    "checks": [
                        {"name": c.name, "tol": c.tol, "passed": c.passed}
                        | ({} if c.name == RUNTIME_CHECK else {"value": c.value})
                        for c in r.checks
                    ],
                }
                for r in results
            },
        }
        write_summary(args.out, summary)
        # wall-clock seconds differ from run to run, so they go to the sidecar, not the report
        write_sidecar(args.out, {"command": "verify", "runtime_s": {str(r.index): r.runtime for r in results}})
    return EXIT_OK if not failed else EXIT_CHECK_FAILURE


def _emit(args, summary: dict, out: str | None) -> None:
    """Write the summary JSON to ``out``, or print it when no path is given."""
    if out:
        write_summary(out, summary)
        if getattr(args, "meta", False):
            write_sidecar(out)
        print(f"wrote {out}")
    else:
        print(json.dumps(summary, indent=2, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="selfsim",
        description="Self-similar extinction profiles: shooting classification and PDE verification",
    )
    ap.add_argument("--version", action="version", version=f"selfsim {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("params", help="derived exponents for (N, p)")
    _add_model_args(sp)
    sp.add_argument("--out", help="write JSON here instead of stdout")
    sp.add_argument("--meta", action="store_true", help="write a .meta.json sidecar")
    sp.set_defaults(fn=cmd_params)

    sp = sub.add_parser("profile", help="one shooting trajectory to CSV")
    _add_model_args(sp)
    sp.add_argument("--a", type=float, required=True)
    _add_ode_args(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--meta", action="store_true")
    sp.set_defaults(fn=cmd_profile)

    sp = sub.add_parser("classify", help="classify one shooting height")
    _add_model_args(sp)
    sp.add_argument("--a", type=float, required=True)
    _add_ode_args(sp)
    sp.add_argument("--out", help="write JSON here instead of stdout")
    sp.add_argument("--meta", action="store_true")
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("sweep", help="classify an a-grid to CSV")
    _add_model_args(sp)
    sp.add_argument("--a-min", type=float, required=True)
    sp.add_argument("--a-max", type=float, required=True)
    sp.add_argument("--num", type=int, default=20)
    sp.add_argument("--log", action="store_true", help="geometric a-grid")
    _add_ode_args(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--meta", action="store_true")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("find-astar", help="bisect the ground-state height")
    _add_model_args(sp)
    sp.add_argument("--tol", type=float, default=TOL_A)
    _add_ode_args(sp)
    sp.add_argument("--out", help="write JSON here instead of stdout")
    sp.add_argument("--meta", action="store_true")
    sp.set_defaults(fn=cmd_find_astar)

    sp = sub.add_parser("pohozaev", help="coefficient/G tables and r_G")
    _add_model_args(sp)
    sp.add_argument("--a", type=float, help="also dump J along this trajectory")
    sp.add_argument("--r-min", type=float, default=0.1)
    sp.add_argument("--r-max", type=float, default=20.0)
    sp.add_argument("--num", type=int, default=400)
    sp.add_argument("--out", required=True)
    sp.add_argument("--json", help="write the r_G/M summary JSON here")
    sp.add_argument("--meta", action="store_true")
    sp.set_defaults(fn=cmd_pohozaev)

    sp = sub.add_parser("pde-run", help="radial extinction run")
    sp.add_argument("--N", type=int, help="space dimension (>= 1)")
    sp.add_argument("--p", type=float, help="diffusion exponent in (2N/(N+1), 2)")
    sp.add_argument("--config", help="JSON run configuration (unknown keys rejected; flags override)")
    _add_pde_args(sp)
    sp.add_argument("--out", required=True, help="output path prefix")
    sp.add_argument("--meta", action="store_true")
    sp.set_defaults(fn=cmd_pde_run)

    sp = sub.add_parser("pde-compare", help="run + rescale + compare to the profile")
    _add_model_args(sp)
    _add_pde_args(sp)
    sp.add_argument("--tol", type=float, default=TOL_A)
    sp.add_argument("--out", required=True, help="output path prefix")
    sp.add_argument("--meta", action="store_true")
    sp.set_defaults(fn=cmd_pde_compare)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.add_argument("--only", type=int, nargs="+", choices=[index for index, _, _ in CRITERIA],
                    metavar="N", help="run only these criterion numbers")
    sp.add_argument("--out", help="write a JSON report here")
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
