#!/usr/bin/env python3
"""Conserved-charge drift of the bounded reference orbit vs step size.

Integrates the bounded preset over a fixed number of periods for a
ladder of RK4 step sizes, reporting the worst relative drift of each
charge and the circle-fit quality.  The period is the closed form
``classical.estimate_period`` takes from the charges,
T = 4 pi a^2 / sqrt(-(L1^2 + L2 L3)); no run is integrated to find it.
The drift column should fall like dt^4 until roundoff.  CSV to stdout.
"""

import argparse

from curvedhall import classical


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta", type=float, default=4.0)
    ap.add_argument("--a", type=float, default=1.0)
    ap.add_argument("--periods", type=int, default=10)
    ap.add_argument("--steps-per-period",
                    default="250,500,1000,2000,4000")
    args = ap.parse_args()

    s0 = classical.PhaseState(0.0, 0.0, 1.0, -1.0, 0.0)
    period = classical.estimate_period(s0, args.a, args.beta)

    print("dt,drift_H,drift_L1,drift_L2,drift_L3,circle_rms_over_r")
    for spp in (int(v) for v in args.steps_per_period.split(",")):
        dt = period / spp
        steps = spp * args.periods
        traj = classical.integrate_rk4(s0, args.a, args.beta, dt, steps)
        drift = classical.drift_summary(traj)
        _, _, r, rms = classical.circle_fit(traj)
        print(f"{dt:.6e},{drift['H']:.3e},{drift['L1']:.3e},"
              f"{drift['L2']:.3e},{drift['L3']:.3e},{rms / r:.3e}")


if __name__ == "__main__":
    main()
