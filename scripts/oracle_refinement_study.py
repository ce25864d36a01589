#!/usr/bin/env python3
"""Refinement study for the Whittaker finite-difference oracle.

Sweeps the grid resolution and prints, per bound level, the relative
error of the oracle energy against the closed form, plus the observed
convergence order between successive grids.  CSV to stdout.

On stderr it also prints each level's measured lattice term
(mu(h) - mu_l)/h^2 beside the closed form C_l of
``numverify.lattice_term`` and the h^3 coefficient D (0 but at al = 1).  It exits 1 when a level with
al = 2 beta - 2 l - 1 >= 3 misses mu_l + C_l h^2 by more than
1e-3 |C_l| h^2 + 1e-8 + W, the 1e-8 covering the rounding floor of the
eigen-solve (about 2e-9 at n = 32000) and W = ``numverify.wall_shift``
the most the Dirichlet wall at s_max can raise the level, a miss that
does not shrink with h.  W is below 1e-18 at beta = 5 and s_max = 80;
at beta = 12 and n = 32000 the measured misses of levels 3 to 11 are
0.63 to 0.94 of their W.

The level with al = 1 (an integer beta, l = beta - 1, mu_l = 0) is
checked against

    mu(h) = (l+1)/32 h^2 + beta^2/64 h^3 + O(h^4).

(l+1)/32 is the formula of ``lattice_term`` at al = 1: phi ~ s at the
origin, so int (phi'')^2 converges, and the (al-1) of M_-2 and M_-3
cancels in the ratio.  The oracle seeds this level's Newton walk with
both terms; the seed only decides where the walk starts, and the
level's Sturm count certificate alone decides mu.  The h^3 term is
measured, not derived: the fitted coefficient over beta^2/64 is 1.002,
1.005, 1.009, 1.016 and 1.047 for beta = 1, 2, 3, 5 and 12 at
n = 4000, and 1.003, 1.002, 1.003, 1.003 and 1.012 at n = 16000
(s_max = 80), and the miss after both terms shrinks like h^4.  The
script exits 1 when that level misses the model by more than
1e-1 (beta^2/64) h^3 + 1e-8 + W, a tenth of its h^3 term.  Other levels
with al <= 2 have no check: their error is O(h^al)-like.
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
            al = 2.0 * args.beta - 2 * l - 1
            d = args.beta * args.beta / 64.0 if al == 1.0 else 0.0
            miss = abs(mu - (mu_l + (c + d * grid.h) * h2))
            line = (f"# n={n} l={l} (mu - mu_l)/h^2 = {(mu - mu_l) / h2:.6g}"
                    f" C_l = {c:.6g} D = {d:.6g}"
                    f" |mu - mu_l - C_l h^2 - D h^3| = {miss:.3g}")
            # the wall at s_max raises mu by at most this, whatever h is
            wall = numverify.wall_shift(args.beta, mu, args.smax)
            if al >= 3.0:
                bound = 1e-3 * abs(c) * h2 + 1e-8 + wall
            elif al == 1.0:
                bound = 1e-1 * d * h2 * grid.h + 1e-8 + wall
            else:
                bound = math.inf
                line += " (no h^2 term)"
            if miss > bound:
                failed = True
                line += f" > {bound:.3g}: MISSES"
            print(line, file=sys.stderr)
    if failed:
        print("# a level misses its lattice term mu_l + C_l h^2 "
              "(+ D h^3 at al = 1)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
