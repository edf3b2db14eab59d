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
from selfsim.pde import make_grid, make_initial, profile_errors, run_to_extinction, separable_config
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
    gs = find_ground_state(P)
    print(f"a_* = {gs.a_star:.12g}")

    rows = []
    prev_err = None
    for M in args.levels:
        grid = make_grid(args.r_inf, M)
        cfg = separable_config(P, gs.a_star)
        frames = run_to_extinction(cfg, make_initial(cfg, grid, gs.traj))
        cmp = profile_errors(frames, gs.traj)
        err = cmp.sup_error[cmp.oracle].max()
        ratio = float("nan") if prev_err is None else prev_err / err
        prev_err = err
        rows.append((M, frames.T_e_estimate, abs(frames.T_e_estimate - 1.0), err, ratio))
        print(f"M={M:5d}: T_e={frames.T_e_estimate:.8f}  sup_err={err:.3e}  ratio={ratio:.2f}")
    write_csv(args.out, ["M", "T_e", "T_e_error", "sup_error", "ratio"], rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
