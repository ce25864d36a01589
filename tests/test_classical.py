"""RK4 dynamics, conserved-charge drift, and the orbit's period and circle
in closed form from its charges."""

import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curvedhall import classical
from curvedhall.errors import (DomainError, UsageError, check_finite,
                               check_int, check_positive, check_scale)
from test_numverify import _within

BETA, A = 4.0, 1.0


def preset():
    return classical.PhaseState(0.0, 0.0, 1.0, -1.0, 0.0)


def test_state_rejects_lower_halfplane():
    with pytest.raises(DomainError):
        classical.PhaseState(0.0, 0.0, -1.0, 0.0, 0.0)


@pytest.mark.parametrize("field, value, message", [
    ("y", -1.0, "upper half-plane"), ("y", 0.0, "upper half-plane"),
    ("px", math.nan, "non-finite"), ("t", math.inf, "non-finite"),
])
def test_state_checks_constructor_and_replace(field, value, message):
    fields = {**preset()._asdict(), field: value}
    with pytest.raises(DomainError, match=message):
        classical.PhaseState(**fields)
    # namedtuple's own _replace would skip the check
    with pytest.raises(DomainError, match=message):
        preset()._replace(**{field: value})
    assert preset()._replace(x=2.0) == classical.PhaseState(0.0, 2.0, 1.0, -1.0, 0.0)


def test_integrated_states_are_phase_states():
    traj = classical.integrate_rk4(preset(), A, BETA, 1e-2, 20)
    assert len(traj.states) == 21
    assert all(type(s) is classical.PhaseState for s in traj.states)


def test_time_overflow_is_domain_error():
    # at rest with beta = 0 the state never moves; t is the one field the
    # integrator builds without the constructor, and it still may not be inf
    s0 = classical.PhaseState(0.0, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError, match="non-finite"):
        classical.integrate_rk4(s0, 1.0, 0.0, 1e308, 2)


def test_rhs_px_conserved():
    traj = classical.integrate_rk4(preset(), A, BETA, 1e-3, 50)
    assert all(s.px == -1.0 for s in traj.states)


def test_preset_orbit_is_bounded():
    H = classical.conserved_values(preset(), A, BETA)[0]
    assert 4 * A * A * H < BETA * BETA


def test_charges_constant_along_orbit():
    T = classical.estimate_period(preset(), A, BETA)
    traj = classical.integrate_rk4(preset(), A, BETA, 10 * T / 20000, 20000)
    drift = classical.drift_summary(traj)
    assert all(v <= 1e-8 for v in drift.values()), drift


def test_rk4_fourth_order_convergence():
    s0 = preset()
    t_end = 1.0

    def endpoint(dt):
        traj = classical.integrate_rk4(s0, A, BETA, dt, int(round(t_end / dt)))
        s = traj.states[-1]
        return np.array([s.x, s.y, s.px, s.py])

    ref = endpoint(1e-4)
    errs = [np.linalg.norm(endpoint(dt) - ref) for dt in (8e-3, 4e-3, 2e-3)]
    p1 = math.log2(errs[0] / errs[1])
    p2 = math.log2(errs[1] / errs[2])
    assert 3.7 <= p1 <= 4.3
    assert 3.7 <= p2 <= 4.3


def test_domain_exit_flagged():
    # the exact flow only reaches y = 0 asymptotically; a coarse step and
    # a strong downward kick make the integrator overshoot the boundary
    s0 = classical.PhaseState(0.0, 0.0, 0.5, 0.0, -10.0)
    traj = classical.integrate_rk4(s0, A, BETA, 1.0, 100)
    assert traj.domain_exit
    assert len(traj.states) < 101


def test_csv_format():
    traj = classical.integrate_rk4(preset(), A, BETA, 1e-3, 5)
    rows, _ = classical.trajectory_csv(traj)
    lines = "".join(rows).splitlines()
    assert lines[0] == "t,x,y,px,py,H,L1,L2,L3"
    assert len(lines) == 7
    assert float(lines[1].split(",")[5]) == pytest.approx(2.25)


def test_csv_comes_in_blocks_of_rows():
    # a pipe's reader then takes a few large reads, not one per 8 kB flush
    traj = classical.integrate_rk4(preset(), A, BETA, 1e-3, 3000)
    pieces = list(classical.trajectory_csv(traj)[0])
    assert [p.count("\n") for p in pieces] == [1, 1024, 1024, 953]


# -- the period and the orbit in closed form ---------------------------------

PRESET = (0.0, 0.0, 1.0, -1.0, 0.0)

# (state, a, beta) of four bounded orbits: the preset, the preset at a
# second scale and field, and two off-preset orbits
ORBITS = [
    (PRESET, 1.0, 4.0),
    (PRESET, 1.3, 5.0),
    ((0.0, 0.3, 2.0, -0.5, 0.7), 1.0, 4.0),
    ((0.0, 1.0, 0.5, -1.0, 0.2), 2.0, 3.0),
]


def _exact_z(s0, a, beta, t):
    """x + iy of the exact orbit at time t: the Moebius map exp(tM) of z0,
    where exp(tM) = cos(wt) I + (sin(wt) / w) M for
    M = (1/4a^2) [[L1, L3], [L2, -L1]] and w = sqrt(det M)."""
    _, L1, L2, L3 = classical.conserved_values(s0, a, beta)
    w = math.sqrt(-(L1 * L1 + L2 * L3)) / (4 * a * a)
    c, s = math.cos(w * t), math.sin(w * t) / (w * 4 * a * a)
    z0 = complex(s0.x, s0.y)
    return ((c + s * L1) * z0 + s * L3) / (s * L2 * z0 + c - s * L1)


def _circle_through(z1, z2, z3):
    """(cx, cy, r) of the circle through three points of the plane."""
    w = (z3 - z1) / (z2 - z1)
    c = (z2 - z1) * (w - abs(w) ** 2) / (2j * w.imag) + z1
    return c.real, c.imag, abs(z1 - c)


def test_orbit_is_a_circle():
    # the exact orbit's circle, through three of its points
    for s0, a, beta in ORBITS:
        s0 = classical.PhaseState(*s0)
        T = classical.estimate_period(s0, a, beta)
        cx, cy, r = classical.orbit_circle(s0, a, beta)
        want = _circle_through(*(_exact_z(s0, a, beta, k * T / 3)
                                 for k in range(3)))
        assert max(abs(g - w) for g, w in zip((cx, cy, r), want)) <= 1e-12 * r
        assert cy > r      # inside the upper half-plane: bounded


def _probe_period(s0, a, beta, probe_dt):
    """The period by angle winding, as ``estimate_period`` found it before
    the closed form: integrate until the polar angle about the circle
    through three states of a warm-up run accumulates 2 pi, in at most
    200 000 steps.  Neither the charges nor ``orbit_circle`` enter."""
    warm = classical.integrate_rk4(s0, a, beta, probe_dt, 2000)
    assert not warm.domain_exit
    cx, cy, _ = _circle_through(*(complex(s.x, s.y)
                                  for s in warm.states[::1000]))
    x, y, px, py = s0.x, s0.y, s0.px, s0.py
    prev = math.atan2(y - cy, x - cx)
    acc = 0.0
    for i in range(1, 200_001):
        x, y, px, py = _rk4_step_reference(x, y, px, py, a, beta, probe_dt)
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
    raise AssertionError("no full revolution within the probe window")


@pytest.mark.parametrize("s0, a, beta", ORBITS)
def test_period_matches_the_probe(s0, a, beta):
    # the probe's own error at probe_dt = 1e-3 is at most 1.6e-8 relative;
    # the period of the matrix group, 2 pi / w, is twice T
    s0 = classical.PhaseState(*s0)
    T = classical.estimate_period(s0, a, beta)
    assert T == pytest.approx(_probe_period(s0, a, beta, 1e-3), rel=1e-7)


@pytest.mark.parametrize("s0, a, beta", ORBITS)
def test_rk4_follows_the_exact_orbit(s0, a, beta):
    # over 10 periods at dt = T/1000 the largest |dz| is 2.9e-8 to 4.0e-7
    # on these orbits; the error ratio per halving of dt wanders from 38
    # to 12, so the bound is at a fixed dt and no order is fitted
    s0 = classical.PhaseState(*s0)
    T = classical.estimate_period(s0, a, beta)
    traj = classical.integrate_rk4(s0, a, beta, T / 1000, 10_000)
    assert not traj.domain_exit
    err = max(abs(complex(s.x, s.y) - _exact_z(s0, a, beta, s.t))
              for s in traj.states)
    assert err <= 1e-6


@pytest.mark.parametrize("s0, a, beta, error", [
    # unbounded: the probe wound for 0.5 s on the first and its circle fit
    # failed on the second; the third is a horocycle (det = 0) and the
    # fourth is test_domain_exit_flagged's state
    ((0.0, 0.0, 1.0, 1.0, 0.0), A, 2.5, DomainError),
    ((0.0, 0.0, 1.0, 0.0, 0.5), A, 1.0, DomainError),
    ((0.0, 0.0, 1.0, -8.0, 0.0), A, BETA, DomainError),
    ((0.0, 0.0, 0.5, 0.0, -10.0), A, BETA, DomainError),
    (PRESET, math.nan, BETA, UsageError), (PRESET, A, math.nan, UsageError),
    (PRESET, A, math.inf, UsageError), (PRESET, 0.0, BETA, UsageError),
    (PRESET, 1e200, BETA, OverflowError),      # 4 pi a^2 is inf
])
def test_period_raises_where_there_is_none(s0, a, beta, error, monkeypatch):
    # answered from the charges and the parameters, with no step taken, and
    # the same from the period and the circle
    monkeypatch.setattr(classical, "integrate_rk4", None)
    s0 = classical.PhaseState(*s0)
    for f in (classical.estimate_period, classical.orbit_circle):
        if f is classical.orbit_circle and a == 1e200:
            # a scales time only: the circle is the a = 1 one
            assert f(s0, a, beta) == f(s0, 1.0, beta)
            continue
        with pytest.raises(error) as caught:
            f(s0, a, beta)
        # a DomainError in place of a UsageError would call the orbit
        # unbounded
        assert caught.type is error


@pytest.mark.parametrize("a, beta, dt", [
    (math.nan, BETA, 1e-3), (A, math.nan, 1e-3), (A, math.inf, 1e-3),
    (A, BETA, math.inf),
])
def test_rk4_rejects_non_finite_parameters(a, beta, dt):
    with pytest.raises(ValueError):
        classical.integrate_rk4(preset(), a, beta, dt, 3)


def test_drift_summary_keeps_nan():
    # hand-built, since integrate_rk4 refuses beta = nan; every charge is
    # nonzero, so no scale is zero and only the NaN can hide
    s = classical.PhaseState(0.0, 0.5, 1.0, -1.0, 0.2)
    traj = classical.Trajectory(1.0, math.nan, (s, s))
    assert all(math.isnan(v) for v in classical.drift_summary(traj).values())


def test_drift_summary_all_charges_zero():
    # at rest with beta = 0 every charge is exactly 0 at every step
    s0 = classical.PhaseState(0.0, 0.0, 1.0, 0.0, 0.0)
    traj = classical.integrate_rk4(s0, 1.0, 0.0, 0.01, 2)
    assert classical.drift_summary(traj) == dict.fromkeys(
        ("H", "L1", "L2", "L3"), 0.0)


def test_rk4_rejects_zero_scale():
    with pytest.raises(UsageError):
        classical.integrate_rk4(preset(), 0.0, BETA, 0.01, 2)


@pytest.mark.parametrize("a", [1e-170, -1e-170, 1e-200, 5e-324])
@pytest.mark.parametrize("call", [
    lambda a: classical.integrate_rk4(preset(), a, BETA, 0.01, 2),
    lambda a: classical.conserved_values(preset(), a, BETA),
    lambda a: classical.estimate_period(preset(), a, BETA),
], ids=["integrate_rk4", "conserved_values", "estimate_period"])
def test_scale_whose_square_underflows_is_a_usage_error(call, a):
    # a^2 = 0.0 here: each divided by it and raised a raw
    # ZeroDivisionError, which the CLI reported as a numerical failure
    assert a * a == 0.0
    with pytest.raises(UsageError, match="nonzero a\\^2") as caught:
        call(a)
    assert caught.type is UsageError


@pytest.mark.parametrize("steps", [2.5, math.nan, "3"])
def test_rk4_rejects_a_step_count_that_is_not_an_int(steps):
    # range(2.5) raised a raw TypeError
    with pytest.raises(UsageError, match="steps"):
        classical.integrate_rk4(preset(), A, BETA, 0.01, steps)


# -- the step and the drift against frozen copies of the earlier code -------

def _rhs_reference(x, y, px, py, a, beta):
    y2 = y * y
    inv = 1.0 / (2.0 * a * a)
    return ((y2 * px + beta * y) * inv, y2 * py * inv, 0.0,
            -(y * (px * px + py * py) + beta * px) * inv)


def _rk4_step_reference(x, y, px, py, a, beta, h):
    """The step as it was with a separate right-hand side."""
    k1 = _rhs_reference(x, y, px, py, a, beta)
    y2 = y + 0.5 * h * k1[1]
    if y2 <= 0:
        return None
    k2 = _rhs_reference(x + 0.5 * h * k1[0], y2, px + 0.5 * h * k1[2],
                        py + 0.5 * h * k1[3], a, beta)
    y3 = y + 0.5 * h * k2[1]
    if y3 <= 0:
        return None
    k3 = _rhs_reference(x + 0.5 * h * k2[0], y3, px + 0.5 * h * k2[2],
                        py + 0.5 * h * k2[3], a, beta)
    y4 = y + h * k3[1]
    if y4 <= 0:
        return None
    k4 = _rhs_reference(x + h * k3[0], y4, px + h * k3[2], py + h * k3[3],
                        a, beta)
    y += h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    if y <= 0:
        return None
    return (x + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]), y,
            px + h / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
            py + h / 6.0 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]))


def _integrate_rk4_reference(s0, a, beta, dt, steps):
    """integrate_rk4 as it was: one call of a separate step per step."""
    check_scale(a)
    check_finite(beta=beta)
    check_positive(dt=dt)
    steps = check_int(steps, "steps", least=0)
    states = [s0]
    t, x, y, px, py = s0
    for _ in range(steps):
        nxt = _rk4_step_reference(x, y, px, py, a, beta, dt)
        if nxt is None or not all(map(math.isfinite, nxt)):
            return classical.Trajectory(a, beta, tuple(states), domain_exit=True)
        x, y, px, py = nxt
        t += dt
        if t == math.inf:
            raise DomainError("non-finite phase-space state")
        states.append(classical.PhaseState._make((t, x, y, px, py)))
    return classical.Trajectory(a, beta, tuple(states))


def _conserved_values_reference(s, a, beta):
    """conserved_values as it was: one state, and no check of the result."""
    check_scale(a)
    _, x, y, px, py = s
    if not y > 0:
        raise DomainError("y must be positive")
    y2 = y * y
    H = (y2 * (px * px + py * py) + 2 * beta * y * px + beta * beta) / (4 * a * a)
    return H, x * px + y * py, px, (y2 - x * x) * px - 2 * x * y * py + 2 * beta * y


def _outcome(call, *args):
    """The call's result, or its exception's type and message."""
    try:
        return call(*args)
    except (ArithmeticError, ValueError) as ex:
        return type(ex), str(ex)


def _bits(result):
    """A trajectory, each state with its type, or a tuple of floats, with
    every float as float.hex; any other outcome as it is."""
    if isinstance(result, classical.Trajectory):
        return (result.a, result.beta, result.domain_exit,
                [(type(s), _bits(s)) for s in result.states])
    if isinstance(result, tuple) and all(type(v) is float for v in result):
        return tuple(map(float.hex, result))
    return result


def _integrate_one(x, y, px, py, a, beta, h):
    """One step of integrate_rk4: the next (x, y, px, py) as float.hex, or
    None where the run ends."""
    traj = classical.integrate_rk4(classical.PhaseState(0.0, x, y, px, py),
                                   a, beta, h, 1)
    return None if traj.domain_exit else tuple(map(float.hex, traj.states[1][1:]))


def _step_one(x, y, px, py, a, beta, h):
    """The reference step's outcome in ``_integrate_one``'s terms."""
    nxt = _rk4_step_reference(x, y, px, py, a, beta, h)
    if nxt is None or not all(map(math.isfinite, nxt)):
        return None
    return tuple(map(float.hex, nxt))


_reals = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(-10.0, 10.0), st.floats(allow_nan=False,
                                                     allow_infinity=False))
_scales = _reals.filter(lambda a: a * a != 0.0)


@settings(max_examples=300)
@given(x=_reals, y=st.one_of(st.floats(0.01, 10.0),
                             st.floats(min_value=5e-324, allow_infinity=False)),
       px=_reals, py=_reals, a=_scales, beta=_reals,
       h=st.one_of(st.sampled_from([1e-3, 0.01, 1.0, 5e-324]),
                   st.floats(1e-3, 2.0)))
@example(x=-0.0, y=1.0, px=-0.0, py=0.0, a=1.0, beta=-0.0, h=0.01)
# stage 1 must take px itself: with p = +0.0 there, x came out +0.0
@example(x=-0.0, y=0.49, px=-0.0, py=100.0, a=1.0, beta=-5e-324, h=0.01)
def test_rk4_step_matches_reference(x, y, px, py, a, beta, h):
    args = (x, y, px, py, a, beta, h)
    assert _integrate_one(*args) == _step_one(*args)


def _drift_reference(traj):
    """drift_summary as it was: a per-element maximum of relative drifts."""
    names = ("H", "L1", "L2", "L3")
    ref = _conserved_values_reference(traj.states[0], traj.a, traj.beta)
    vals = [_conserved_values_reference(s, traj.a, traj.beta)
            for s in traj.states]
    if any(math.isnan(v) for row in vals for v in row):
        return dict.fromkeys(names, math.nan)
    common = max(abs(v[k]) for v in vals for k in range(4))
    if common == 0.0:
        return dict.fromkeys(names, 0.0)
    scales = [max(abs(ref[k]), common) for k in range(4)]
    worst = [0.0] * 4
    for now in vals[1:]:
        for k in range(4):
            worst[k] = max(worst[k], abs(now[k] - ref[k]) / scales[k])
    return dict(zip(names, worst))


def _trajectory_csv_reference(traj):
    """trajectory_csv as it was, with its text joined."""
    vals = [_conserved_values_reference(s, traj.a, traj.beta)
            for s in traj.states]
    for s, v in zip(traj.states, vals):
        if not all(map(math.isfinite, v)):
            raise OverflowError(f"conserved values are not finite at t={s.t!r}")
    row = ",".join(["%.17g"] * 9) + "\n"
    return ("t,x,y,px,py,H,L1,L2,L3\n"
            + "".join(row % (*s, *v) for s, v in zip(traj.states, vals)),
            _drift_reference(traj))


def _trajectory_csv_joined(traj):
    pieces, drift = classical.trajectory_csv(traj)
    return "".join(pieces), drift


def _nan_aware(outcome):
    """An outcome whose drift dict compares equal where both hold NaN."""
    if isinstance(outcome, dict):
        return {k: "nan" if math.isnan(v) else v for k, v in outcome.items()}
    if isinstance(outcome, tuple) and isinstance(outcome[-1], dict):
        return (*outcome[:-1], _nan_aware(outcome[-1]))
    return outcome


@settings(max_examples=100)
@given(x=st.one_of(st.sampled_from([0.0, -0.0, 1e200]), st.floats(-3.0, 3.0)),
       y=st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.05, 5.0)),
       px=st.one_of(st.sampled_from([0.0, -0.0, -1.0]), st.floats(-3.0, 3.0)),
       py=st.one_of(st.sampled_from([0.0, -0.0, -10.0]), st.floats(-20.0, 20.0)),
       a=st.one_of(st.sampled_from([1.0, -1.5, 1e200, 1e-170, 0.0]),
                   st.floats(0.3, 3.0)),
       beta=st.one_of(st.sampled_from([0.0, -0.0, 4.0, -5e-324, 1e200,
                                       -1e200, math.nan]),
                      st.floats(-10.0, 10.0)),
       dt=st.one_of(st.sampled_from([1e-3, 0.05, 1.0]), st.floats(1e-4, 2.0)),
       steps=st.integers(0, 300))
@example(x=-0.0, y=1.0, px=-0.0, py=0.0, a=1.0, beta=-0.0, dt=0.01, steps=5)
@example(x=0.0, y=0.5, px=0.0, py=-10.0, a=1.0, beta=4.0, dt=1.0, steps=100)
@example(x=0.0, y=1.0, px=1.0, py=0.0, a=1.0, beta=1e200, dt=0.01, steps=3)
@example(x=0.0, y=1.0, px=-1.0, py=0.0, a=1.0, beta=1e200, dt=0.01, steps=3)
def test_trajectory_path_matches_the_earlier_code(x, y, px, py, a, beta, dt,
                                                  steps):
    # integrate_rk4, conserved_values, drift_summary and trajectory_csv
    # against the frozen copies above: every state bit for bit, the CSV
    # byte for byte, the drift NaN-aware, and each error's type and message
    s0 = classical.PhaseState(0.0, x, y, px, py)
    traj = _outcome(classical.integrate_rk4, s0, a, beta, dt, steps)
    assert _bits(traj) == _bits(_outcome(_integrate_rk4_reference, s0, a,
                                         beta, dt, steps))
    if not isinstance(traj, classical.Trajectory):
        return
    csv = _outcome(_trajectory_csv_reference, traj)
    assert _nan_aware(_outcome(_trajectory_csv_joined, traj)) == _nan_aware(csv)
    # where a charge is infinite and none is NaN, drift_summary raises the
    # CSV's error, where it once measured drift against an infinite scale
    vals = [_conserved_values_reference(s, a, beta) for s in traj.states]
    if isinstance(csv[0], str) or any(map(math.isnan, chain(*vals))):
        want = _drift_reference(traj)
    else:
        want = csv
    assert _nan_aware(_outcome(classical.drift_summary, traj)) == \
        _nan_aware(want)
    # conserved_values now raises where a charge is not finite
    for s, v in zip((traj.states[0], traj.states[-1]), (vals[0], vals[-1])):
        want = v if all(map(math.isfinite, v)) else (
            OverflowError, f"conserved values are not finite at t={s.t!r}")
        assert _bits(_outcome(classical.conserved_values, s, a, beta)) == \
            _bits(want)


@pytest.mark.parametrize("s0, a, beta, dt, steps", [
    ((0.0, 0.0, 1.0, -1.0, 0.0), A, BETA, 2e-3, 3000),
    ((0.0, 0.3, 0.7, 0.4, -0.2), -1.5, 2.0, 1e-2, 800),
    ((0.0, -1.0, 2.0, 0.5, 0.5), 1.0, -3.0, 5e-2, 400),
    ((0.0, 0.0, 0.5, 0.0, -10.0), A, BETA, 1.0, 100),      # domain exit
    ((0.0, 0.0, 1.0, 0.0, 0.0), A, 0.0, 1e-2, 5),           # all zero
    ((0.0, 0.0, 1.0, -1.0, 0.0), A, BETA, 1e-2, 0),         # one state
])
def test_drift_summary_matches_reference(s0, a, beta, dt, steps):
    traj = classical.integrate_rk4(classical.PhaseState(*s0), a, beta, dt, steps)
    assert classical.drift_summary(traj) == _drift_reference(traj)
    # the CSV pass takes its drift from the same charges
    assert classical.trajectory_csv(traj)[1] == classical.drift_summary(traj)


# -- every public numeric function on hostile floats --------------------------

_HOSTILE = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0, 5e-324]
_any = st.one_of(st.sampled_from(_HOSTILE), st.floats(-10.0, 10.0))
# a PhaseState's fields: finite, y > 0, hostile where the state allows it
_field = st.one_of(st.sampled_from([1e308, -1e308, 0.0, -0.0, 5e-324]),
                   st.floats(-10.0, 10.0))
_y = st.one_of(st.sampled_from([1e308, 5e-324]), st.floats(0.01, 10.0))
_states = st.builds(classical.PhaseState, st.just(0.0), _field, _y, _field,
                    _field)


# each sweep is one property per function; together they take ~1 s
_SWEEP = settings(max_examples=60)


def _finite(values):
    return all(map(math.isfinite, values))


@_SWEEP
@given(t=_any, x=_any, y=_any, px=_any, py=_any)
def test_sweep_phase_state(t, x, y, px, py):
    with _within(5):
        try:
            s = classical.PhaseState(t, x, y, px, py)
        except DomainError:
            return
    assert _finite(s) and s.y > 0


def _trajectory(s0, a, beta, dt, steps):
    """integrate_rk4's trajectory, or None where it raises its documented
    UsageError (DomainError is one)."""
    with _within(5):
        try:
            traj = classical.integrate_rk4(s0, a, beta, dt, steps)
        except UsageError:
            return None
    assert all(type(s) is classical.PhaseState and _finite(s) and s.y > 0
               for s in traj.states)
    return traj


@_SWEEP
@given(s0=_states, a=_any, beta=_any, dt=_any, steps=st.integers(0, 20))
def test_sweep_integrate_rk4(s0, a, beta, dt, steps):
    _trajectory(s0, a, beta, dt, steps)


@_SWEEP
@given(s=_states, a=_any, beta=_any)
def test_sweep_conserved_values(s, a, beta):
    with _within(5):
        try:
            charges = classical.conserved_values(s, a, beta)
        except (UsageError, OverflowError):
            return
    assert _finite(charges)


@_SWEEP
@given(s0=_states, a=_any, beta=_any, steps=st.integers(0, 5))
def test_sweep_drift_summary_and_csv(s0, a, beta, steps):
    traj = _trajectory(s0, a, beta, 0.01, steps)
    if traj is None:
        return
    with _within(5):
        try:
            drift = classical.drift_summary(traj)
        except OverflowError:
            drift = None
        try:
            pieces, csv_drift = classical.trajectory_csv(traj)
            text = "".join(pieces)
        except OverflowError:
            text = csv_drift = None
    # NaN only where the docstring has it: all four, from a NaN charge
    if drift is not None and not _finite(drift.values()):
        assert all(map(math.isnan, drift.values()))
        assert any(math.isnan(v) for s in traj.states
                   for v in _conserved_values_reference(s, a, beta))
    if text is not None:
        assert _finite(csv_drift.values())
        assert _finite(float(v) for row in text.splitlines()[1:]
                       for v in row.split(","))


@_SWEEP
@given(s0=_states, a=_any, beta=_any)
# a state at rest (H = 0) is its own fixed point: the circle is a point
@example(s0=classical.PhaseState(0.0, 0.0, 1.0, -1.0, 0.0), a=1.0, beta=1.0)
def test_sweep_estimate_period(s0, a, beta):
    with _within(5):
        try:
            T = classical.estimate_period(s0, a, beta)
        except (UsageError, OverflowError):
            T = None
        try:
            cx, cy, r = circle = classical.orbit_circle(s0, a, beta)
        except (UsageError, OverflowError):
            circle = None
    if T is not None:
        assert 0 < T < math.inf
    if circle is not None:
        # cy - r = Im z* / (1 + q + sqrt(q (q + 2))) is below the rounding
        # of cy once q passes 2^53, so cy = r may be the nearest floats
        assert _finite(circle) and 0 <= r <= cy


@pytest.mark.parametrize("call, error", [
    # a nan beta, and charges that overflow, came back as nan and inf
    (lambda: classical.conserved_values(preset(), A, math.nan), UsageError),
    (lambda: classical.conserved_values(
        classical.PhaseState(0.0, 1e200, 1.0, -1.0, 0.0), A, BETA),
     OverflowError),
    # H = inf at every state: the drift of H read nan and of L1 0.0
    (lambda: classical.drift_summary(classical.integrate_rk4(
        classical.PhaseState(0.0, 0.0, 1.0, 1.0, 0.0), A, 1e200, 0.01, 3)),
     OverflowError),
    # bounded orbits far out along x (beta^2 - 4a^2 H = 7 and 1e20 > 0),
    # which were called unbounded: an infinite L3, and inf - inf in det
    (lambda: classical.estimate_period(
        classical.PhaseState(0.0, 1e200, 1.0, -1.0, 0.0), A, BETA),
     OverflowError),
    (lambda: classical.estimate_period(
        classical.PhaseState(0.0, 1e145, 1.0, -1e10, 0.0), A, 1e10),
     OverflowError),
], ids=["cv-nan-beta", "cv-overflow", "drift-inf-H", "period-inf-L3",
        "period-nan-det"])
def test_sweep_findings_raise_their_documented_error(call, error):
    with pytest.raises(error) as caught:
        call()
    assert caught.type is error
