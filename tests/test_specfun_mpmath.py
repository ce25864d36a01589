"""Special functions against mpmath as an independent reference.

mpmath is a test-only dependency: without it this module is skipped.
Parameters are drawn as multiples of 1/64, so that 1/2 + n - beta is exact
in floating point and both sides sum the same series (the truncating one
exactly when the parameter is a nonpositive integer).
"""

import math

import pytest
from hypothesis import given, strategies as st

from curvedhall import specfun

mpmath = pytest.importorskip("mpmath")


def sixty_fourths(lo, hi):
    return st.integers(lo * 64, hi * 64).map(lambda k: k / 64)


def _within(ours, est, mp):
    """|ours - mp| <= est + 1e-12 |mp|, mp evaluated at 40 digits."""
    return abs(ours - float(mp)) <= est + 1e-12 * abs(float(mp))


@given(sixty_fourths(-6, 6), sixty_fourths(1, 8),
       st.floats(-30.0, 30.0, allow_nan=False))
def test_hyp1f1_within_its_error_estimate(alpha, b, z):
    r = specfun.hyp1f1(alpha, b, z)
    with mpmath.workdps(40):
        mp = mpmath.hyp1f1(alpha, b, z)
    assert _within(r.value, r.est_abs_error, mp)


@given(sixty_fourths(1, 8), sixty_fourths(0, 4),
       st.floats(0.01, 40.0, allow_nan=False))
def test_whittaker_m_within_its_error_estimate(beta, n, s):
    ours = specfun.whittaker_m(beta, n, s)
    series = specfun.hyp1f1(0.5 + n - beta, 1.0 + 2.0 * n, s)
    est = math.exp(-s / 2.0) * s ** (0.5 + n) * series.est_abs_error
    with mpmath.workdps(40):
        mp = mpmath.whitm(beta, n, s)
    assert _within(ours, est, mp)


@given(st.integers(0, 12), sixty_fourths(0, 12),
       st.floats(0.0, 40.0, allow_nan=False))
def test_laguerre_matches_reference(n, tau, z):
    # exact rational recurrence: one rounding at the end, no estimate
    with mpmath.workdps(40):
        mp = mpmath.laguerre(n, tau, z)
    assert _within(specfun.laguerre(n, tau, z), 0.0, mp)


@pytest.mark.parametrize("alpha, b, z", [
    (-2 + 1e-13, 1.0, 40.0),
    (-3 - 1e-13, 2.5, 30.0),
    (1e-13, 1.0, 35.0),
    (-4 + 5e-13, 1.5, -20.0),
])
def test_hyp1f1_near_integer_alpha_estimate_covers_the_tail(alpha, b, z):
    # only an exactly integer alpha truncates; a near-integer one sums the
    # full series, whose tail beyond the polynomial is ~|alpha + n| e^z
    r = specfun.hyp1f1(alpha, b, z)
    with mpmath.workdps(40):
        mp = mpmath.hyp1f1(alpha, b, z)
    assert _within(r.value, r.est_abs_error, mp)
    assert _within(r.value, 0.0, mp)
