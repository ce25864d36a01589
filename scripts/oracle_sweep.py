#!/usr/bin/env python3
"""Work per cell of the Whittaker oracle on cells off the benchmark.

Runs ``numverify.whittaker_oracle`` on every bound level of each
(beta, n) cell of BETAS x POINTS, at s_max = SMAX, and prints one CSV
row per cell: the levels solved, the Newton steps and Sturm counts
taken, and the wall time in ms.  The counts come from wrapping the solver's three
row passes: ``_sturm_slope`` is a lone Newton step, ``_sturm_count`` a
lone count, and ``_sturm_count_slope`` a shared pass that takes one of
each.  A last row sums the cells.

The cells (beta 12 to 24.5, n 4000 to 16000) are deep, narrow wells
whose rounding floor, eps times the largest |d_i| of the matrix, is
near the 1e-9 certificate window, where a walk can stall.

Exits 1 if a solved mu is not finite or not below 1/4, or a cell's
solve raises; the other cells are still run.  Stdlib only.

    python scripts/oracle_sweep.py
"""

import math
import sys
import time
from collections import Counter

from curvedhall import numverify, spectra

BETAS = (12.0, 16.0, 20.0, 24.5)
POINTS = (4000, 8000, 16000)
SMAX = 120.0
PASSES = ("_sturm_slope", "_sturm_count", "_sturm_count_slope")


def count_passes():
    """Wrap the three row passes in ``numverify``; return their counter."""
    calls = Counter()

    def wrap(name):
        real = getattr(numverify, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        setattr(numverify, name, counted)
    for name in PASSES:
        wrap(name)
    return calls


def main():
    calls = count_passes()
    total = Counter()
    bad = []
    print("beta,n,levels,steps,counts,lone_steps,shared,lone_counts,ms")
    for beta in BETAS:
        levels = spectra.halfplane_level_count(beta)
        for n in POINTS:
            grid = numverify.FDGrid(1e-3, SMAX, n)
            calls.clear()
            t0 = time.perf_counter()
            try:
                spec = numverify.whittaker_oracle(beta, grid, levels)
            except (ValueError, RuntimeError) as ex:
                # the oracle's own check of a nan mu or one at 1/4 or above
                bad.append(f"beta={beta!r} n={n}: {ex}")
                continue
            ms = (time.perf_counter() - t0) * 1e3
            bad += [f"beta={beta!r} n={n}: level {j} has mu = {v!r}, not a "
                    "finite value below 1/4" for j, v in enumerate(spec.mu)
                    if not (math.isfinite(v) and v < 0.25)]
            slope, count, shared = (calls[p] for p in PASSES)
            row = Counter(levels=len(spec.mu), steps=slope + shared,
                          counts=count + shared, lone_steps=slope,
                          shared=shared, lone_counts=count)
            total.update(row)
            total["ms"] += ms
            print(f"{beta!r},{n},{row['levels']},{row['steps']},"
                  f"{row['counts']},{slope},{shared},{count},{ms:.1f}")
    print(f"total,,{total['levels']},{total['steps']},{total['counts']},"
          f"{total['lone_steps']},{total['shared']},{total['lone_counts']},"
          f"{total['ms']:.1f}")
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
