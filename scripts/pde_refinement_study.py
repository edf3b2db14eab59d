#!/usr/bin/env python3
"""Grid- and time-refinement study of the extinction solver.

Runs the separable oracle (exact extinction time T0, exact rescaled limit
f(.; a_*)) across a ladder of resolutions and prints the sup-norm error and
fitted-T_e error per run, plus observed convergence ratios.

Usage:
    python scripts/pde_refinement_study.py --levels 500 1000 2000 4000
"""

import argparse

from selfsim.params import make_params
from selfsim.classify import find_ground_state
from selfsim.pde import RadialGrid, profile_errors, resolved_couplings, run_to_extinction, separable_initial
from selfsim.reporting import write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=2)
    ap.add_argument("--p", type=float, default=1.5)
    ap.add_argument("--r-inf", type=float, default=15.0)
    ap.add_argument("--levels", type=int, nargs="+", default=[500, 1000, 2000, 4000])
    ap.add_argument("--out", default="refinement.csv")
    args = ap.parse_args()

    P = make_params(args.N, args.p)
    grids = [RadialGrid(args.r_inf, M) for M in args.levels]
    for grid in grids:  # every level is checked before the ground state is sought
        try:
            resolved_couplings(P.N, grid)
        except ValueError as exc:
            ap.error(str(exc))
    gs = find_ground_state(P)
    print(f"a_* = {gs.a_star:.12g}")

    rows = []
    prev_err = None
    for grid in grids:
        frames = run_to_extinction(*separable_initial(gs.traj, grid))
        cmp = profile_errors(frames, gs.traj)
        err = cmp.sup_error[cmp.oracle].max()
        ratio = float("nan") if prev_err is None else prev_err / err
        prev_err = err
        rows.append((grid.M, frames.T_e_estimate, abs(frames.T_e_estimate - 1.0), err, ratio))
        print(f"M={grid.M:5d}: T_e={frames.T_e_estimate:.8f}  sup_err={err:.3e}  ratio={ratio:.2f}")
    write_csv(args.out, ["M", "T_e", "T_e_error", "sup_error", "ratio"], rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
