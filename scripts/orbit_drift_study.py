#!/usr/bin/env python3
"""Conserved-charge drift of the bounded reference orbit vs step size.

Integrates the bounded preset over PERIODS periods for a ladder of RK4
step sizes, reporting the worst relative drift of each charge and the
largest |dist - r| / r of the states from the orbit's exact circle
``classical.orbit_circle``, the circle its charges fix.  The period is
the closed form ``classical.estimate_period`` takes from the charges,
T = 4 pi a^2 / sqrt(-(L1^2 + L2 L3)); no run is integrated to find
either.  Both columns should fall like dt^4 until roundoff.  CSV to
stdout; exits 1 if the circle column falls less than 8x per halving of
dt while above 1e-12, so a run gates RK4's order against the exact
circle.

    python scripts/orbit_drift_study.py [--beta 4] [--a 1]
"""

import argparse
import math
import sys

from curvedhall import classical

PERIODS = 10
STEPS_PER_PERIOD = (250, 500, 1000, 2000, 4000)
MIN_FALL = 8.0      # fourth order falls 16x per halving of dt
FLOOR = 1e-12       # below this, roundoff may stop the fall


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta", type=float, default=4.0)
    ap.add_argument("--a", type=float, default=1.0)
    args = ap.parse_args()

    s0 = classical.PhaseState(0.0, 0.0, 1.0, -1.0, 0.0)
    period = classical.estimate_period(s0, args.a, args.beta)
    cx, cy, r = classical.orbit_circle(s0, args.a, args.beta)

    print("dt,drift_H,drift_L1,drift_L2,drift_L3,circle_dev_over_r")
    devs = []
    for spp in STEPS_PER_PERIOD:
        dt = period / spp
        traj = classical.integrate_rk4(s0, args.a, args.beta, dt,
                                       spp * PERIODS)
        drift = classical.drift_summary(traj)
        dev = max(abs(math.hypot(s.x - cx, s.y - cy) - r)
                  for s in traj.states) / r
        devs.append(dev)
        print(f"{dt:.6e},{drift['H']:.3e},{drift['L1']:.3e},"
              f"{drift['L2']:.3e},{drift['L3']:.3e},{dev:.3e}")
    slow = [(c, f) for c, f in zip(devs, devs[1:])
            if f > FLOOR and c < MIN_FALL * f]
    if slow:
        print(f"circle deviation falls less than {MIN_FALL:g}x per halving "
              f"of dt: {slow}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
