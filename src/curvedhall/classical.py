"""Classical dynamics on the magnetic half-plane.

Hamilton's equations for H = (1/4a^2)[y^2(p_x^2+p_y^2) + 2 beta y p_x
+ beta^2], integrated with classic RK4.  Conserved-quantity drift is the
accuracy metric (the scheme is not symplectic; desk-scale runs are short
enough that drift is itself the thing we measure), and bounded orbits
are verified to be Euclidean circles by a least-squares fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .errors import DomainError, FitSingularError, UsageError


@dataclass(frozen=True)
class PhaseState:
    t: float
    x: float
    y: float
    px: float
    py: float

    def __post_init__(self):
        vals = (self.t, self.x, self.y, self.px, self.py)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("non-finite phase-space state")
        if not self.y > 0:
            raise DomainError("y must be positive (upper half-plane)")


@dataclass(frozen=True)
class Trajectory:
    a: float
    beta: float
    dt: float
    states: tuple
    domain_exit: bool = False


def _rhs(x, y, px, py, a, beta):
    y2 = y * y
    inv = 1.0 / (2.0 * a * a)
    return ((y2 * px + beta * y) * inv, y2 * py * inv, 0.0,
            -(y * (px * px + py * py) + beta * px) * inv)


def _rk4_step(x, y, px, py, a, beta, h):
    """One classic RK4 step: the next (x, y, px, py), or None once a stage
    or the result leaves the upper half-plane."""
    k1 = _rhs(x, y, px, py, a, beta)
    y2 = y + 0.5 * h * k1[1]
    if y2 <= 0:
        return None
    k2 = _rhs(x + 0.5 * h * k1[0], y2, px + 0.5 * h * k1[2],
              py + 0.5 * h * k1[3], a, beta)
    y3 = y + 0.5 * h * k2[1]
    if y3 <= 0:
        return None
    k3 = _rhs(x + 0.5 * h * k2[0], y3, px + 0.5 * h * k2[2],
              py + 0.5 * h * k2[3], a, beta)
    y4 = y + h * k3[1]
    if y4 <= 0:
        return None
    k4 = _rhs(x + h * k3[0], y4, px + h * k3[2], py + h * k3[3], a, beta)
    y += h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    if y <= 0:
        return None
    return (x + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]), y,
            px + h / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
            py + h / 6.0 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]))


def integrate_rk4(s0, a, beta, dt, steps):
    """Fixed-step RK4.  If the trajectory reaches y <= 0 the run halts and
    the partial trajectory is returned with ``domain_exit`` set (orbits
    tangent to the boundary are meaningful limits, not errors)."""
    if not all(math.isfinite(v) for v in (a, beta, dt)):
        raise UsageError("a, beta and dt must be finite")
    if not dt > 0:
        raise UsageError("dt must be positive")
    if a == 0:
        raise UsageError("a must be nonzero")
    if steps < 0:
        raise UsageError("steps must be nonnegative")
    states = [s0]
    x, y, px, py = s0.x, s0.y, s0.px, s0.py
    t = s0.t
    for _ in range(steps):
        nxt = _rk4_step(x, y, px, py, a, beta, dt)
        if nxt is None or not all(math.isfinite(v) for v in nxt):
            return Trajectory(a, beta, dt, tuple(states), domain_exit=True)
        x, y, px, py = nxt
        t += dt
        states.append(PhaseState(t, x, y, px, py))
    return Trajectory(a, beta, dt, tuple(states))


def conserved_values(s, a, beta):
    """(H, L1, L2, L3), the energy and the three Noether charges.

    L2 is the translation charge p_x (the choice that closes the bracket
    algebra; see the identity suite).
    """
    if not s.y > 0:
        raise DomainError("y must be positive")
    y2 = s.y * s.y
    H = (y2 * (s.px * s.px + s.py * s.py) + 2 * beta * s.y * s.px
         + beta * beta) / (4 * a * a)
    L1 = s.x * s.px + s.y * s.py
    L2 = s.px
    L3 = (y2 - s.x * s.x) * s.px - 2 * s.x * s.y * s.py + 2 * beta * s.y
    return H, L1, L2, L3


def drift_summary(traj):
    """Max relative drift of each conserved scalar along the trajectory;
    all NaN if any conserved value is NaN, all 0 if every value is 0."""
    names = ("H", "L1", "L2", "L3")
    ref = conserved_values(traj.states[0], traj.a, traj.beta)
    vals = [conserved_values(s, traj.a, traj.beta) for s in traj.states]
    if any(map(math.isnan, chain.from_iterable(vals))):
        # max() below would drop the NaN and report a perfect drift
        return dict.fromkeys(names, math.nan)
    # a charge whose exact value on the orbit is zero (the preset orbit has
    # L1 = 0) has no scale of its own; judge every charge against the
    # largest charge magnitude the orbit attains
    common = max(abs(v[k]) for v in vals for k in range(4))
    if common == 0.0:
        # every charge is exactly 0 at every step: no drift, and no scale
        return dict.fromkeys(names, 0.0)
    scales = [max(abs(ref[k]), common) for k in range(4)]
    worst = [0.0] * 4
    for now in vals[1:]:
        for k in range(4):
            worst[k] = max(worst[k], abs(now[k] - ref[k]) / scales[k])
    return dict(zip(names, worst))


def circle_fit(traj_or_points):
    """Least-squares circle through (x, y) samples (algebraic Kasa fit).

    Returns (cx, cy, r, rms) with rms the geometric residual
    sqrt(mean((dist - r)^2)).  Collinear data raises FitSingularError.

    Both the collinearity test and the least-squares solve work on a
    modified Gram-Schmidt factorisation Q R of the centred n x 2 data, so
    the smaller singular value is resolved to ~1e-16 of the larger.  The
    2 x 2 Gram (covariance) matrix and the normal equations square the
    condition number and cannot resolve a ratio below ~1e-8.
    """
    if isinstance(traj_or_points, Trajectory):
        pts = [(s.x, s.y) for s in traj_or_points.states]
    else:
        pts = [(float(x), float(y)) for x, y in traj_or_points]
    n = len(pts)
    if n < 10:
        raise ValueError("need at least 10 points for a circle fit")
    if not all(math.isfinite(v) for v in chain.from_iterable(pts)):
        raise ValueError("circle fit needs finite points")
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    u = [x - mx for x in xs]
    v = [y - my for y in ys]
    # R = [[r11, r12], [0, r22]]; q1 = u / r11, and w is v minus its q1 part
    r11 = math.hypot(*u)
    if r11 == 0.0:
        raise FitSingularError("points are collinear; no circle")
    q1 = [ui / r11 for ui in u]
    r12 = math.fsum(qi * vi for qi, vi in zip(q1, v))
    w = [vi - r12 * qi for qi, vi in zip(q1, v)]
    r22 = math.hypot(*w)
    # singular values of R: the larger without cancellation, the smaller
    # as |det R| / sigma_max
    s_max = 0.5 * (math.hypot(r11 + r22, r12) + math.hypot(r11 - r22, r12))
    s_min = r11 * r22 / s_max
    if s_min < 1e-12 * max(s_max, 1.0):
        raise FitSingularError("points are collinear; no circle")
    # in centred coordinates x^2 + y^2 + D x + E y + F = 0 has the same
    # residuals; the constant column is orthogonal to u and v, so F is the
    # mean of the rhs and (D, E) solve R [D, E] = Q^T g for the centred g
    rhs = [-(a * a + b * b) for a, b in zip(u, v)]
    F = math.fsum(rhs) / n
    g = [t - F for t in rhs]
    c1 = math.fsum(qi * gi for qi, gi in zip(q1, g))
    c2 = math.fsum(wi * gi for wi, gi in zip(w, g)) / r22
    E = c2 / r22
    D = (c1 - r12 * E) / r11
    cu, cv = -D / 2.0, -E / 2.0
    r2 = cu * cu + cv * cv - F
    if r2 <= 0:
        raise FitSingularError("degenerate circle fit (nonpositive radius)")
    r = math.sqrt(r2)
    rms = math.sqrt(math.fsum((math.hypot(a - cu, b - cv) - r) ** 2
                              for a, b in zip(u, v)) / n)
    return mx + cu, my + cv, r, rms


def estimate_period(s0, a, beta, probe_dt=1e-3):
    """Angle-winding period estimate for a bounded orbit: integrate until
    the polar angle about the fitted circle center accumulates 2 pi, in at
    most 200 000 probe steps."""
    warm = integrate_rk4(s0, a, beta, probe_dt, 2000)
    if warm.domain_exit:
        raise DomainError("probe trajectory left the domain; orbit not bounded")
    cx, cy, _, _ = circle_fit(warm)
    x, y, px, py = s0.x, s0.y, s0.px, s0.py
    prev = math.atan2(y - cy, x - cx)
    acc = 0.0
    for i in range(1, 200_001):
        nxt = _rk4_step(x, y, px, py, a, beta, probe_dt)
        if nxt is None:
            raise DomainError("orbit left the domain; not bounded")
        x, y, px, py = nxt
        th = math.atan2(y - cy, x - cx)
        d = th - prev
        if d > math.pi:
            d -= 2 * math.pi
        elif d < -math.pi:
            d += 2 * math.pi
        acc += d
        prev = th
        if abs(acc) >= 2 * math.pi:
            # linear interpolation inside the last step
            over = abs(acc) - 2 * math.pi
            frac = 1.0 - over / abs(d) if d else 0.0
            return (i - 1 + frac) * probe_dt
    raise DomainError("no full revolution within the probe window")


def trajectory_csv(traj, stream):
    """CSV with conserved columns, full double precision."""
    stream.write("t,x,y,px,py,H,L1,L2,L3\n")
    for s in traj.states:
        H, L1, L2, L3 = conserved_values(s, traj.a, traj.beta)
        if not all(map(math.isfinite, (H, L1, L2, L3))):
            raise OverflowError(f"conserved values are not finite at t={s.t!r}")
        row = (s.t, s.x, s.y, s.px, s.py, H, L1, L2, L3)
        stream.write(",".join(f"{v:.17g}" for v in row) + "\n")
