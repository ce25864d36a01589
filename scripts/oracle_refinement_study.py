#!/usr/bin/env python3
"""Refinement study for the Whittaker finite-difference oracle.

Sweeps the grid resolution and prints, per bound level, the relative
error of the oracle energy against the closed form, plus the observed
convergence order between successive grids.  CSV to stdout.

On stderr it also checks each level against the lattice seed model the
oracle starts its Newton walk from, al = 2 beta - 2 l - 1 and
mu_l = 1/4 - (beta - l - 1/2)^2:

* al = 1, 3 or al > 4: mu_l + C_l h^2 + D_l h^4, plus beta^2/64 h^3 at
  al = 1 (``numverify.lattice_term`` and ``numverify.lattice_h4_term``).
  It prints the measured h^2 coefficient (mu - mu_l)/h^2 beside C_l and
  the measured h^4 coefficient (mu - mu_l - C_l h^2 - K3 h^3)/h^4 beside
  D_l, K3 being the h^3 coefficient (beta^2/64 at al = 1, else 0), and
  exits 1 when a level misses the model by more than
  0.25 |D_l| h^4 + 1e-8 + W.  The rest is O(h^5): the largest measured
  ratio of rest to D_l h^4 is about 0.06, at h = 0.08.
* al in (2, 4] other than 3: mu_l + C_l h^2, with no h^4 term (at
  al = 4 the h^4 term has a pole, and the rest goes like h^4 ln h).  It
  exits 1 when a level misses by more than 1e-3 |C_l| h^2 + 1e-8 + W.
* al = 2 (a half-integer beta): mu_l + (A_l + B_l ln h) h^2 of
  ``numverify.lattice_log_term``.  The rest is O(h^3 ln h); it exits 1
  when the level misses by more than 0.05 B_l h^2 |ln h| + 1e-8 + W.
* al < 2 other than 1: no check, as the error is O(h^al)-like.

The 1e-8 covers the rounding floor of the eigen-solve (about 2e-9 at
n = 32000) and W = ``numverify.wall_shift`` the most the Dirichlet wall
at s_max can raise the level, a miss that does not shrink with h.  W is
below 1e-18 at beta = 5 and s_max = 80; at beta = 12 and n = 32000 the
measured misses of levels 3 to 11 are 0.63 to 0.94 of their W.

The fitted terms are beta^2/64 (h^3 at al = 1), D_l at al = 1 and A_l;
the derivations and the fit data are in the docstrings.  The oracle
seeds each level's Newton walk with its model; the seed only decides
where the walk starts, and the level's Sturm count certificate alone
decides mu.
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

    beta = args.beta
    levels = spectra.halfplane_level_count(beta)
    analytic = [spectra.landau_halfplane(beta, l).energy
                for l in range(levels)]
    closed = [0.25 - (beta - l - 0.5) ** 2 for l in range(levels)]
    als = [2.0 * beta - 2 * l - 1 for l in range(levels)]
    c2 = [numverify.lattice_term(beta, l) for l in range(levels)]
    c4 = [numverify.lattice_h4_term(beta, l) for l in range(levels)]
    logs = [numverify.lattice_log_term(beta, l) for l in range(levels)]
    k3 = [beta * beta / 64.0 if al == 1.0 else 0.0 for al in als]
    grids = [int(v) for v in args.grids.split(",")]

    print("n_points," + ",".join(f"relerr_l{l}" for l in range(levels)))
    prev = None
    failed = False
    for n in grids:
        grid = numverify.FDGrid(args.smin, args.smax, n)
        spec = numverify.whittaker_oracle(beta, grid, levels)
        errs = [abs(e - a) / a for e, a in zip(spec.energies, analytic)]
        print(f"{n}," + ",".join(f"{e:.6e}" for e in errs))
        if prev is not None:
            orders = [math.log2(p / e) for p, e in zip(prev, errs)]
            print("# observed order: "
                  + " ".join(f"{o:.2f}" for o in orders), file=sys.stderr)
        prev = errs
        h = grid.h
        h2 = h * h
        for l, mu in enumerate(spec.mu):
            al, rest = als[l], mu - closed[l]
            line = f"# n={n} l={l} al={al:g}"
            # the wall at s_max raises mu by at most this, whatever h is
            wall = numverify.wall_shift(beta, mu, args.smax)
            if al == 2.0:
                a, b = logs[l]
                miss = abs(rest - (a + b * math.log(h)) * h2)
                line += (f" (mu - mu_l)/h^2 - B_l ln h = "
                         f"{rest / h2 - b * math.log(h):.6g} A_l = {a:.6g}"
                         f" B_l = {b:.6g}")
                bound = 0.05 * b * h2 * abs(math.log(h)) + 1e-8 + wall
            elif al > 2.0 or al == 1.0:
                line += (f" (mu - mu_l)/h^2 = {rest / h2:.6g}"
                         f" C_l = {c2[l]:.6g}")
                rest -= (c2[l] + k3[l] * h) * h2
                if c4[l]:
                    line += (f" K3 = {k3[l]:.6g} (mu - model_3)/h^4 = "
                             f"{rest / (h2 * h2):.6g} D_l = {c4[l]:.6g}")
                    rest -= c4[l] * h2 * h2
                    bound = 0.25 * abs(c4[l]) * h2 * h2 + 1e-8 + wall
                else:
                    bound = 1e-3 * abs(c2[l]) * h2 + 1e-8 + wall
                miss = abs(rest)
            else:
                print(line + " (no check: no h^2 term)", file=sys.stderr)
                continue
            line += f" |mu - model| = {miss:.3g}"
            if miss > bound:
                failed = True
                line += f" > {bound:.3g}: MISSES"
            print(line, file=sys.stderr)
    if failed:
        print("# a level misses its lattice seed model", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
