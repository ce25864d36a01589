#!/usr/bin/env python3
"""Refinement study for the Whittaker finite-difference oracle.

Sweeps the grid resolution and prints, per bound level, the relative
error of the oracle energy against the closed form, plus the observed
convergence order between successive grids.  CSV to stdout.

On stderr it also prints each level's measured lattice term
(mu(h) - mu_l)/h^2 beside the closed form C_l of
``numverify.lattice_term``.  It exits 1 when a level with
al = 2 beta - 2 l - 1 >= 3 misses mu_l + C_l h^2 by more than
1e-3 |C_l| h^2 + 1e-8, the 1e-8 covering the rounding floor of the
eigen-solve (about 2e-9 at n = 32000).
"""

import argparse
import math
import sys

from curvedhall import numverify, spectra


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta", type=float, default=5.0)
    ap.add_argument("--smax", type=float, default=80.0)
    ap.add_argument("--smin", type=float, default=1e-3)
    ap.add_argument("--grids", default="2000,4000,8000,16000,32000",
                    help="comma-separated interior point counts")
    args = ap.parse_args()

    levels = spectra.halfplane_level_count(args.beta)
    analytic = [spectra.landau_halfplane(args.beta, l).energy
                for l in range(levels)]
    closed = [0.25 - (args.beta - l - 0.5) ** 2 for l in range(levels)]
    terms = [numverify.lattice_term(args.beta, l) for l in range(levels)]
    grids = [int(v) for v in args.grids.split(",")]

    print("n_points," + ",".join(f"relerr_l{l}" for l in range(levels)))
    prev = None
    failed = False
    for n in grids:
        grid = numverify.FDGrid(args.smin, args.smax, n)
        spec = numverify.whittaker_oracle(args.beta, grid, levels)
        errs = [abs(e - a) / a for e, a in zip(spec.energies, analytic)]
        print(f"{n}," + ",".join(f"{e:.6e}" for e in errs))
        if prev is not None:
            orders = [math.log2(p / e) for p, e in zip(prev, errs)]
            print("# observed order: "
                  + " ".join(f"{o:.2f}" for o in orders), file=sys.stderr)
        prev = errs
        h2 = grid.h * grid.h
        for l, (mu, mu_l, c) in enumerate(zip(spec.mu, closed, terms)):
            miss = abs(mu - (mu_l + c * h2))
            line = (f"# n={n} l={l} (mu - mu_l)/h^2 = {(mu - mu_l) / h2:.6g}"
                    f" C_l = {c:.6g} |mu - mu_l - C_l h^2| = {miss:.3g}")
            if 2.0 * args.beta - 2 * l - 1 >= 3.0:
                bound = 1e-3 * abs(c) * h2 + 1e-8
                if miss > bound:
                    failed = True
                    line += f" > {bound:.3g}: MISSES"
            else:
                line += " (no h^2 term)"
            print(line, file=sys.stderr)
    if failed:
        print("# a level misses its lattice term mu_l + C_l h^2",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
