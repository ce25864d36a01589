"""Classical dynamics on the magnetic half-plane.

Hamilton's equations for H = (1/4a^2)[y^2(p_x^2+p_y^2) + 2 beta y p_x
+ beta^2], integrated with classic RK4.  Conserved-quantity drift is the
accuracy metric (the scheme is not symplectic; desk-scale runs are short
enough that drift is itself the thing we measure), and bounded orbits
are verified to be Euclidean circles by a least-squares fit.  The period
of a bounded orbit is a closed form in its Noether charges
(``estimate_period``); no integration enters it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain, islice

from .errors import (DomainError, FitSingularError, check_finite, check_int,
                     check_positive, check_scale)


class PhaseState(namedtuple("PhaseState", "t x y px py")):
    """A phase-space point at time t: every field finite, and y > 0 (the
    upper half-plane).  The constructor and ``_replace`` check both;
    ``_make`` does not, for code that has checked the fields itself."""

    __slots__ = ()

    def __new__(cls, t, x, y, px, py):
        if not all(math.isfinite(v) for v in (t, x, y, px, py)):
            raise DomainError("non-finite phase-space state")
        if not y > 0:
            raise DomainError("y must be positive (upper half-plane)")
        return super().__new__(cls, t, x, y, px, py)

    def _replace(self, **changes):
        # namedtuple's own _replace builds through _make, past the check
        return type(self)(*super()._replace(**changes))


Trajectory = namedtuple("Trajectory", "a beta states domain_exit",
                        defaults=(False,))


def _rk4_step(x, y, px, py, a, beta, h):
    """One classic RK4 step: the next (x, y, px, py), or None once a stage
    or the result leaves the upper half-plane.

    Hamilton's equations are written out at each stage:
    dx = (y^2 px + beta y) / 2a^2, dy = y^2 py / 2a^2, dpx = 0 and
    dpy = -(y (px^2 + py^2) + beta px) / 2a^2.  A stage's px is still
    px + (h/2) * 0.0, which turns a -0.0 into 0.0 as the full step does.
    """
    inv = 1.0 / (2.0 * a * a)
    hh = 0.5 * h
    yy = y * y
    dx1 = (yy * px + beta * y) * inv
    dy1 = yy * py * inv
    dq1 = -(y * (px * px + py * py) + beta * px) * inv
    y2 = y + hh * dy1
    if y2 <= 0:
        return None
    p2 = px + hh * 0.0
    q2 = py + hh * dq1
    yy = y2 * y2
    dx2 = (yy * p2 + beta * y2) * inv
    dy2 = yy * q2 * inv
    dq2 = -(y2 * (p2 * p2 + q2 * q2) + beta * p2) * inv
    y3 = y + hh * dy2
    if y3 <= 0:
        return None
    q3 = py + hh * dq2
    yy = y3 * y3
    dx3 = (yy * p2 + beta * y3) * inv
    dy3 = yy * q3 * inv
    dq3 = -(y3 * (p2 * p2 + q3 * q3) + beta * p2) * inv
    y4 = y + h * dy3
    if y4 <= 0:
        return None
    p4 = px + h * 0.0
    q4 = py + h * dq3
    yy = y4 * y4
    dx4 = (yy * p4 + beta * y4) * inv
    dy4 = yy * q4 * inv
    dq4 = -(y4 * (p4 * p4 + q4 * q4) + beta * p4) * inv
    h6 = h / 6.0
    y += h6 * (dy1 + 2 * dy2 + 2 * dy3 + dy4)
    if y <= 0:
        return None
    return (x + h6 * (dx1 + 2 * dx2 + 2 * dx3 + dx4), y, px + h6 * 0.0,
            py + h6 * (dq1 + 2 * dq2 + 2 * dq3 + dq4))


def integrate_rk4(s0, a, beta, dt, steps):
    """Fixed-step RK4.  If the trajectory reaches y <= 0 the run halts and
    the partial trajectory is returned with ``domain_exit`` set (orbits
    tangent to the boundary are meaningful limits, not errors).  An a
    that ``check_scale`` rejects is a ``UsageError``, as are a non-finite
    beta and a dt outside (0, inf)."""
    check_scale(a)
    check_finite(beta=beta)
    check_positive(dt=dt)
    steps = check_int(steps, "steps", least=0)
    states = [s0]
    t, x, y, px, py = s0
    make = PhaseState._make
    for _ in range(steps):
        nxt = _rk4_step(x, y, px, py, a, beta, dt)
        if nxt is None or not all(map(math.isfinite, nxt)):
            return Trajectory(a, beta, tuple(states), domain_exit=True)
        x, y, px, py = nxt
        t += dt
        if t == math.inf:
            # the one field the step does not check: dt > 0, so only +inf
            raise DomainError("non-finite phase-space state")
        # every field is checked, so past the constructor's own check
        states.append(make((t, x, y, px, py)))
    return Trajectory(a, beta, tuple(states))


def conserved_values(s, a, beta):
    """(H, L1, L2, L3), the energy and the three Noether charges.

    L2 is the translation charge p_x (the choice that closes the bracket
    algebra; see the identity suite).  An a that ``check_scale`` rejects,
    such as 1e-170, whose square underflows to 0, is a ``UsageError``.
    """
    check_scale(a)
    _, x, y, px, py = s
    if not y > 0:
        raise DomainError("y must be positive")
    y2 = y * y
    H = (y2 * (px * px + py * py) + 2 * beta * y * px + beta * beta) / (4 * a * a)
    L1 = x * px + y * py
    L2 = px
    L3 = (y2 - x * x) * px - 2 * x * y * py + 2 * beta * y
    return H, L1, L2, L3


def drift_summary(traj):
    """Max relative drift of each conserved scalar along the trajectory;
    all NaN if any conserved value is NaN, all 0 if every value is 0."""
    return _drift([conserved_values(s, traj.a, traj.beta) for s in traj.states])


def _drift(vals):
    """``drift_summary`` of the charges ``vals``, one tuple per state."""
    names = ("H", "L1", "L2", "L3")
    if any(map(math.isnan, chain.from_iterable(vals))):
        # max() below would drop the NaN and report a perfect drift
        return dict.fromkeys(names, math.nan)
    # a charge whose exact value on the orbit is zero (the preset orbit has
    # L1 = 0) has no scale of its own; judge every charge against the
    # largest charge magnitude the orbit attains
    common = max(map(abs, chain.from_iterable(vals)))
    if common == 0.0:
        # every charge is exactly 0 at every step: no drift, and no scale
        return dict.fromkeys(names, 0.0)
    # dividing by a positive scale is monotone, so the largest deviation
    # divided once is the largest relative drift
    ref = vals[0]
    return {name: max(abs(v[k] - ref[k]) for v in vals) / common
            for k, name in enumerate(names)}


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


def estimate_period(s0, a, beta):
    """The period T = 4 pi a^2 / sqrt(det) of the bounded orbit through s0.

    The flow of H is the Moebius flow z(t) = exp(tM) z0 of
    M = (1/4a^2) [[L1, L3], [L2, -L1]], and det = -(L1^2 + L2 L3) is
    16 a^4 det M = beta^2 - 4 a^2 H (the identity suite's
    classical-hamiltonian-charges report) without the beta^2 cancellation.  Then exp(tM) = cos(wt) I +
    (sin(wt) / w) M with w = sqrt(det) / 4a^2, and since -I moves no
    point, T = pi / w.  An orbit with det <= 0 is unbounded or a
    horocycle: ``DomainError``.  A T that overflows or underflows raises
    ``OverflowError``; an a that ``check_scale`` rejects, or a beta that
    is not finite, ``UsageError``."""
    check_scale(a)
    check_finite(beta=beta)
    _, L1, L2, L3 = conserved_values(s0, a, beta)
    det = -(L1 * L1 + L2 * L3)
    if not det > 0:
        raise DomainError(f"orbit not bounded: -(L1^2 + L2 L3) = {det!r}")
    T = 4 * math.pi * a * a / math.sqrt(det)
    if not 0 < T < math.inf:
        raise OverflowError(f"the period is not a positive finite float: {T!r}")
    return T


def trajectory_csv(traj):
    """(CSV text as an iterator of pieces, ``drift_summary``), both from
    one computation of each state's charges.  The CSV has conserved columns
    in full double precision.  A charge that is not finite raises
    ``OverflowError`` here, before any text is made."""
    states = traj.states
    vals = [conserved_values(s, traj.a, traj.beta) for s in states]
    for s, v in zip(states, vals):
        if not all(map(math.isfinite, v)):
            raise OverflowError(f"conserved values are not finite at t={s.t!r}")
    row = ",".join(["%.17g"] * 9) + "\n"
    rows = (row % (*s, *v) for s, v in zip(states, vals))
    # ~150 kB a piece: a pipe's reader gets a few large reads, not one
    # per 8 kB that a stream flushes of single rows
    blocks = iter(lambda: "".join(islice(rows, 1024)), "")
    return chain(("t,x,y,px,py,H,L1,L2,L3\n",), blocks), _drift(vals)
