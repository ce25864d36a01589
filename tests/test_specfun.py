"""Laguerre, confluent hypergeometric, and Whittaker evaluations."""

import math

import pytest
from hypothesis import given, strategies as st

from curvedhall import specfun
from curvedhall.errors import PoleError, UsageError
from test_numverify import _within


def test_laguerre_low_orders():
    assert specfun.laguerre(0, 0.0, 1.7) == pytest.approx(1.0)
    assert specfun.laguerre(1, 0.0, 2.0) == pytest.approx(-1.0)
    assert specfun.laguerre(2, 0.0, 2.0) == pytest.approx(-1.0)
    # L_2^(0)(z) = 1 - 2z + z^2/2
    z = 0.37
    assert specfun.laguerre(2, 0.0, z) == pytest.approx(1 - 2 * z + z * z / 2)


def test_hyp1f1_truncating_cases():
    assert specfun.hyp1f1(-1, 2.0, 3.0).value == pytest.approx(-0.5)
    r = specfun.hyp1f1(0, 5.0, 100.0)
    assert r.value == 1.0


def test_hyp1f1_exponential():
    # 1F1(b; b; z) = e^z
    r = specfun.hyp1f1(3.0, 3.0, 1.25)
    assert r.value == pytest.approx(math.exp(1.25), rel=1e-13)


def test_hyp1f1_pole_detected():
    with pytest.raises(PoleError):
        specfun.hyp1f1(0.5, -2.0, 1.0)
    # truncation before the pole is fine
    assert specfun.hyp1f1(-1, -2.0, 2.0).value == pytest.approx(2.0)


@given(st.integers(0, 10), st.integers(0, 6),
       st.floats(0.05, 8.0, allow_nan=False))
def test_laguerre_1f1_identity(n, tau_int, z):
    """L_n^(tau)(z) = binom(n+tau, n) 1F1(-n; tau+1; z)."""
    tau = float(tau_int)
    lhs = specfun.laguerre(n, tau, z)
    rhs = (math.comb(n + tau_int, n)
           * specfun.hyp1f1(-n, tau + 1.0, z).value)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(st.floats(0.2, 3.0), st.floats(3.5, 8.0), st.floats(0.1, 5.0))
def test_kummer_reflection(alpha, b, z):
    """1F1(alpha; b; z) = e^z 1F1(b - alpha; b; -z)."""
    lhs = specfun.hyp1f1(alpha, b, z).value
    rhs = math.exp(z) * specfun.hyp1f1(b - alpha, b, -z).value
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_whittaker_known_value():
    # truncating case: 1F1(0; ...) = 1, so M = e^{-s/2} s^{1/2+n}
    assert specfun.whittaker_m(5.0, 4.5, 1.0) == pytest.approx(
        math.exp(-0.5), rel=1e-13)


@pytest.mark.parametrize("n", [0.5, 1.5, 2.5])
def test_whittaker_small_s_slope(n):
    """log M ~ (1/2 + n) log s as s -> 0."""
    beta = 5.0
    s1, s2 = 1e-6, 2e-6
    slope = (math.log(specfun.whittaker_m(beta, n, s2))
             - math.log(specfun.whittaker_m(beta, n, s1))) / math.log(2.0)
    assert slope == pytest.approx(0.5 + n, abs=1e-3)


def test_whittaker_rejects_nonpositive_s():
    with pytest.raises(ValueError):
        specfun.whittaker_m(5.0, 4.5, 0.0)


@pytest.mark.parametrize("call, name", [
    # each raised "cannot convert NaN (Infinity) to integer ratio"
    (lambda: specfun.laguerre(3, 1.0, math.nan), "z"),
    (lambda: specfun.laguerre(3, math.nan, 1.0), "tau"),
    (lambda: specfun.whittaker_m(5.0, 0.5, math.nan), "s"),
    (lambda: specfun.whittaker_m(5.0, 0.5, math.inf), "s"),
    # each summed 10 000 terms before a ConvergenceError
    (lambda: specfun.hyp1f1(0.5, 1.0, math.nan), "z"),
    (lambda: specfun.hyp1f1(math.nan, 1.0, 1.0), "alpha"),
    # a raw TypeError from range
    (lambda: specfun.laguerre(2.5, 1.0, 1.0), "n"),
    (lambda: specfun.laguerre(math.nan, 1.0, 1.0), "n"),
    # each named hyp1f1's alpha or b
    (lambda: specfun.whittaker_m(math.nan, 0.5, 1.0), "beta"),
    (lambda: specfun.whittaker_m(5.0, math.inf, 1.0), "n"),
], ids=["laguerre-z", "laguerre-tau", "whittaker-nan-s", "whittaker-inf-s",
        "hyp1f1-z", "hyp1f1-alpha", "laguerre-float-n", "laguerre-nan-n",
        "whittaker-nan-beta", "whittaker-inf-n"])
def test_non_finite_argument_is_a_usage_error_naming_it(call, name):
    with pytest.raises(UsageError, match=rf"\b{name}\b"):
        call()


@pytest.mark.parametrize("call", [
    lambda: specfun.hyp1f1(-3, 1.0, 1e300),
    lambda: specfun.laguerre(3, 1.0, 1e300),
], ids=["hyp1f1", "laguerre"])
def test_polynomial_beyond_a_double_says_so(call):
    # each was a bare "integer division result too large for a float"
    with pytest.raises(OverflowError, match="beyond a double"):
        call()


@pytest.mark.parametrize("call, degree", [
    # 2.9 s at n = 4000 and growing as n^2.6: 20000 took minutes
    (lambda: specfun.laguerre(20_000, 1.0, 1.0), "20000"),
    (lambda: specfun.hyp1f1(-20_000.0, 1.0, 1.0), "20000"),
    # alpha = -1e300 is a nonpositive integer: a sum of 1e300 terms
    (lambda: specfun.whittaker_m(1e300, 1, 1.0), r"1e\+300"),
], ids=["laguerre", "hyp1f1", "whittaker"])
def test_degree_above_the_cap_is_a_usage_error_naming_it(call, degree):
    with _within(2):
        with pytest.raises(UsageError, match=rf"degree .*\b{degree}\b"):
            call()


def test_the_cap_is_the_largest_degree_summed():
    n = specfun.DEGREE_CAP
    with _within(2):
        lag = specfun.laguerre(n, 1.0, 1.0)
        f = specfun.hyp1f1(-n, 2.0, 1.0).value
    # L_n^(1)(z) = (n + 1) 1F1(-n; 2; z)
    assert lag == pytest.approx((n + 1) * f, rel=1e-12)
    for call in (lambda: specfun.laguerre(n + 1, 1.0, 1.0),
                 lambda: specfun.hyp1f1(-n - 1.0, 2.0, 1.0)):
        with pytest.raises(UsageError, match=rf"degree .*\b{n + 1}\b"):
            call()
