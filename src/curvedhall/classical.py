"""Classical dynamics on the magnetic half-plane.

Hamilton's equations for H = (1/4a^2)[y^2(p_x^2+p_y^2) + 2 beta y p_x
+ beta^2], integrated with classic RK4; ``integrate_rk4`` holds the one
RK4 step.  Since dp_x/dt = 0, RK4 keeps p_x bit for bit (a -0.0 becomes
0.0 at the first step), so the CSV's px and L2 columns repeat after row
0.  The charges (H, L1, L2, L3) are written once, in one pass over the
states that ``conserved_values``, ``drift_summary`` and
``trajectory_csv`` share.  Conserved-quantity drift is the
accuracy metric (the scheme is not symplectic; desk-scale runs are short
enough that drift is itself the thing we measure).  A bounded orbit's
period (``estimate_period``) and its circle (``orbit_circle``) are closed
forms in its Noether charges, and no integration enters them: a run is
checked against the circle its charges fix, not a least-squares fit.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain, islice

from .errors import (DomainError, check_finite, check_int, check_positive,
                     check_scale)


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


def integrate_rk4(s0, a, beta, dt, steps):
    """Fixed-step RK4.  If the trajectory reaches y <= 0 the run halts and
    the partial trajectory is returned with ``domain_exit`` set (orbits
    tangent to the boundary are meaningful limits, not errors).  An a
    that ``check_scale`` rejects is a ``UsageError``, as are a non-finite
    beta and a dt outside (0, inf).

    Each step writes Hamilton's equations out at the four stages:
    dx = (y^2 px + beta y) / 2a^2, dy = y^2 py / 2a^2, dpx = 0 and
    dpy = -(y (px^2 + py^2) + beta px) / 2a^2.  Since dpx = 0, the px of
    stages 2-4 and of the step's result is px + c * 0.0 for a finite
    c >= 0, which is p = px + 0.0: px bit for bit, but a -0.0 turned into
    0.0.  So p, p^2 and beta p are formed once per call.  Stage 1 keeps px
    itself in dx, where a -0.0 can set the sign of a zero x.  Its dpy may
    take p^2 and beta p: p^2 is px^2, and y (p^2 + py^2) is never -0.0
    (y > 0), so adding beta p in place of beta px changes at most the
    sign of a zero sum, which is +0.0 either way.
    """
    check_scale(a)
    check_finite(beta=beta)
    check_positive(dt=dt)
    steps = check_int(steps, "steps", least=0)
    states = [s0]
    t, x, y, px, py = s0
    inv = 1.0 / (2.0 * a * a)
    hh, h6, p = 0.5 * dt, dt / 6.0, px + 0.0
    pp, bp = p * p, beta * p
    isfinite, new = math.isfinite, tuple.__new__
    for _ in range(steps):
        yy = y * y
        dx1 = (yy * px + beta * y) * inv
        dy1 = yy * py * inv
        dq1 = -(y * (pp + py * py) + bp) * inv
        y2 = y + hh * dy1
        q2 = py + hh * dq1
        yy = y2 * y2
        dx2 = (yy * p + beta * y2) * inv
        dy2 = yy * q2 * inv
        dq2 = -(y2 * (pp + q2 * q2) + bp) * inv
        y3 = y + hh * dy2
        q3 = py + hh * dq2
        yy = y3 * y3
        dx3 = (yy * p + beta * y3) * inv
        dy3 = yy * q3 * inv
        dq3 = -(y3 * (pp + q3 * q3) + bp) * inv
        y4 = y + dt * dy3
        q4 = py + dt * dq3
        yy = y4 * y4
        dx4 = (yy * p + beta * y4) * inv
        dy4 = yy * q4 * inv
        dq4 = -(y4 * (pp + q4 * q4) + bp) * inv
        y += h6 * (dy1 + 2.0 * dy2 + 2.0 * dy3 + dy4)
        x += h6 * (dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4)
        py += h6 * (dq1 + 2.0 * dq2 + 2.0 * dq3 + dq4)
        # a stage or the step below the upper half-plane, or a field that
        # is not finite, ends the run; no stage divides, so none of them
        # can raise before this test
        if (y2 <= 0 or y3 <= 0 or y4 <= 0 or y <= 0
                or not (isfinite(x) and isfinite(y) and isfinite(py))):
            return Trajectory(a, beta, tuple(states), domain_exit=True)
        t += dt
        if t == math.inf:
            # the one field the step does not check: dt > 0, so only +inf
            raise DomainError("non-finite phase-space state")
        # every field is checked, so past the constructor's own check
        states.append(new(PhaseState, (t, x, y, p, py)))
        px = p      # the px at which the next step's stage 1 starts
    return Trajectory(a, beta, tuple(states))


def _charges(states, a, beta):
    """(H, L1, L2, L3) of each state, in one pass: the one place the
    charges are written.  An a that ``check_scale`` rejects is a
    ``UsageError``; a state with y <= 0 (or nan) a ``DomainError``."""
    check_scale(a)
    if not all(s[2] > 0 for s in states):
        raise DomainError("y must be positive")
    a4, b2, bb = 4 * a * a, 2 * beta, beta * beta
    return [((y * y * (px * px + py * py) + b2 * y * px + bb) / a4,
             x * px + y * py, px,
             (y * y - x * x) * px - 2 * x * y * py + b2 * y)
            for _, x, y, px, py in states]


def _finite(states, vals):
    """``vals``, the charges of ``states``, once all are finite; else an
    ``OverflowError`` that names the first state's t where one is not."""
    # the states one by one only to name the t of a charge that is not
    if not all(map(math.isfinite, chain.from_iterable(vals))):
        for s, v in zip(states, vals):
            if not all(map(math.isfinite, v)):
                raise OverflowError(
                    f"conserved values are not finite at t={s[0]!r}")
    return vals


def conserved_values(s, a, beta):
    """(H, L1, L2, L3), the energy and the three Noether charges.

    L2 is the translation charge p_x (the choice that closes the bracket
    algebra; see the identity suite).  An a that ``check_scale`` rejects,
    such as 1e-170, whose square underflows to 0, is a ``UsageError``, as
    is a beta that is not finite.  A charge that overflows raises
    ``OverflowError``.
    """
    vals = _charges((s,), a, beta)
    check_finite(beta=beta)
    return _finite((s,), vals)[0]


def drift_summary(traj):
    """Max relative drift of each conserved scalar along the trajectory;
    all NaN if any conserved value is NaN, all 0 if every value is 0.  An
    infinite conserved value, and none NaN, raises ``OverflowError``: no
    drift is measured against an infinite scale."""
    vals = _charges(traj.states, traj.a, traj.beta)
    if not any(map(math.isnan, chain.from_iterable(vals))):
        _finite(traj.states, vals)
    return _drift(vals)


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


def _fixed_point(s0, a, beta):
    """(det, z*) of the bounded orbit through s0: det = -(L1^2 + L2 L3)
    and z*, the fixed point of M = (1/4a^2) [[L1, L3], [L2, -L1]] in the
    upper half-plane, with Re z* = L1 / L2 and Im z* = sqrt(det) / |L2|
    (det > 0 forces L2 L3 < 0, so L2 != 0).  A det <= 0 is a
    ``DomainError``; a charge or det that overflows, ``OverflowError``;
    an a that ``check_scale`` rejects, or a beta that is not finite,
    ``UsageError`` (from ``conserved_values``)."""
    _, L1, L2, L3 = conserved_values(s0, a, beta)
    det = -(L1 * L1 + L2 * L3)
    if math.isnan(det):
        # inf - inf: the sign of det, bounded or not, is lost
        raise OverflowError("-(L1^2 + L2 L3) overflows")
    if not det > 0:
        raise DomainError(f"orbit not bounded: -(L1^2 + L2 L3) = {det!r}")
    return det, complex(L1 / L2, math.sqrt(det) / abs(L2))


def estimate_period(s0, a, beta):
    """The period T = 4 pi a^2 / sqrt(det) of the bounded orbit through s0.

    The flow of H is the Moebius flow z(t) = exp(tM) z0 of
    M = (1/4a^2) [[L1, L3], [L2, -L1]], and det = -(L1^2 + L2 L3) is
    16 a^4 det M = beta^2 - 4 a^2 H (the identity suite's
    classical-hamiltonian-charges report) without the beta^2 cancellation.  Then exp(tM) = cos(wt) I +
    (sin(wt) / w) M with w = sqrt(det) / 4a^2, and since -I moves no
    point, T = pi / w.  An orbit with det <= 0 is unbounded or a
    horocycle: ``DomainError``.  A charge or det that overflows, and a T
    that overflows or underflows, raise ``OverflowError``; an a that
    ``check_scale`` rejects, or a beta that is not finite, ``UsageError``
    (from ``conserved_values``)."""
    det, _ = _fixed_point(s0, a, beta)
    T = 4 * math.pi * a * a / math.sqrt(det)
    if not 0 < T < math.inf:
        raise OverflowError(f"the period is not a positive finite float: {T!r}")
    return T


def orbit_circle(s0, a, beta):
    """(cx, cy, r), the Euclidean circle of the bounded orbit through s0.

    exp(tM) fixes z* (``_fixed_point``), so the orbit is the hyperbolic
    circle about z* through z0 = x0 + i y0.  With
    q = |z0 - z*|^2 / (2 y0 Im z*) = cosh R - 1 for its hyperbolic radius
    R, cx = Re z*, cy = Im z* (1 + q) and r = Im z* sqrt(q (q + 2)), which
    no cancellation spoils for a small orbit.  A state at rest (H = 0) is
    its own fixed point, with r = 0.  The errors are those of
    ``estimate_period``; a circle that overflows or underflows, so that
    one of its numbers is not finite, raises ``OverflowError``."""
    _, z = _fixed_point(s0, a, beta)
    dx, dy, den = s0[1] - z.real, s0[2] - z.imag, 2 * s0[2] * z.imag
    q = (dx * dx + dy * dy) / den if den else math.inf
    circle = z.real, z.imag * (1 + q), z.imag * math.sqrt(q * (q + 2))
    if not all(map(math.isfinite, circle)):
        raise OverflowError(f"the orbit's circle is not finite: {circle!r}")
    return circle


def trajectory_csv(traj):
    """(CSV text as an iterator of pieces, ``drift_summary``), both from
    one computation of each state's charges.  The CSV has conserved columns
    in full double precision.  A charge that is not finite raises
    ``OverflowError`` here, before any text is made."""
    states = traj.states
    vals = _finite(states, _charges(states, traj.a, traj.beta))
    row = ",".join(["%.17g"] * 9) + "\n"
    rows = (row % (*s, *v) for s, v in zip(states, vals))
    # ~150 kB a piece: a pipe's reader gets a few large reads, not one
    # per 8 kB that a stream flushes of single rows
    blocks = iter(lambda: "".join(islice(rows, 1024)), "")
    return chain(("t,x,y,px,py,H,L1,L2,L3\n",), blocks), _drift(vals)
