#!/usr/bin/env python3
"""Refinement study for the Whittaker finite-difference oracle.

Sweeps the grid resolution over GRIDS interior point counts (s_min =
SMIN) and prints, per bound level, the relative error of the oracle
energy against the closed form, plus the observed convergence order
between successive grids.  CSV to stdout.

On stderr it also checks each level against the lattice seed model the
oracle starts its Newton walk from, ``numverify.lattice_model``, whose
docstring holds the derivations and the fit data.  Each line gives the
measured h^2 coefficient (mu - model.mu)/h^2 at grid spacing h, the
model's nonzero terms and the miss |mu - model.at(h)|.  The script exits
1 when a level misses by more than a bound picked by the model's first
nonzero term, plus 1e-8 + W:

* log_b (al = 2 beta - 2 l - 1 = 2, a half-integer beta):
  0.05 log_b h^2 |ln h|, as the rest is O(h^3 ln h).
* c4 (al = 1, 3 or al > 4): 0.25 |c4| h^4.  The rest is O(h^5): the
  largest measured ratio of rest to c4 h^4 is about 0.06, at h = 0.08.
* c2 (al in (2, 4] other than 3, where there is no h^4 term; at al = 4
  it has a pole, and the rest goes like h^4 ln h): 1e-3 |c2| h^2.
* none (al < 2 other than 1): no check, as the error is O(h^al)-like.

The 1e-8 covers the rounding floor of the eigen-solve (about 2e-9 at
n = 32000) and W = ``numverify.wall_shift`` the most the Dirichlet wall
at s_max can raise the level, a miss that does not shrink with h.  W is
below 1e-18 at beta = 5 and s_max = 80; at beta = 12 and n = 32000 the
measured misses of levels 3 to 11 are 0.63 to 0.94 of their W.

The fitted terms are c3 = beta^2/64 and c4 at al = 1, and log_a.  The
seed only decides where the walk starts, and the level's Sturm count
certificate alone decides mu.
"""

import argparse
import math
import sys

from curvedhall import numverify, spectra

SMIN = 1e-3
GRIDS = (2000, 4000, 8000, 16000, 32000)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta", type=float, default=5.0)
    ap.add_argument("--smax", type=float, default=80.0)
    args = ap.parse_args()

    beta = args.beta
    levels = spectra.halfplane_level_count(beta)
    analytic = [spectra.landau_halfplane(beta, l).energy
                for l in range(levels)]
    models = [numverify.lattice_model(beta, l) for l in range(levels)]

    print("n_points," + ",".join(f"relerr_l{l}" for l in range(levels)))
    prev = None
    failed = False
    for n in GRIDS:
        grid = numverify.FDGrid(SMIN, args.smax, n)
        spec = numverify.whittaker_oracle(beta, grid, levels)
        errs = [abs(e - a) / a for e, a in zip(spec.energies, analytic)]
        print(f"{n}," + ",".join(f"{e:.6e}" for e in errs))
        if prev is not None:
            orders = [math.log2(p / e) for p, e in zip(prev, errs)]
            print("# observed order: "
                  + " ".join(f"{o:.2f}" for o in orders), file=sys.stderr)
        prev = errs
        h2 = grid.h * grid.h
        for l, (mu, model) in enumerate(zip(spec.mu, models)):
            terms = "".join(f" {k} = {v:.6g}" for k, v in
                            model._asdict().items() if v and k != "mu")
            line = (f"# n={n} l={l} (mu - model.mu)/h^2 = "
                    f"{(mu - model.mu) / h2:.6g}{terms}")
            if model.log_b:
                bound = 0.05 * model.log_b * h2 * abs(math.log(grid.h))
            elif model.c4:
                bound = 0.25 * abs(model.c4) * h2 * h2
            elif model.c2:
                bound = 1e-3 * abs(model.c2) * h2
            else:
                print(line + " (no check: no h^2 term)", file=sys.stderr)
                continue
            # the wall at s_max raises mu by at most W, whatever h is
            bound += 1e-8 + numverify.wall_shift(beta, mu, args.smax)
            miss = abs(mu - model.at(grid.h))
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
