"""Special functions for the closed-form eigenfunctions.

Generalized Laguerre polynomials (three-term recurrence), the confluent
hypergeometric series 1F1, and the regular Whittaker function M.  Double
precision throughout; the truncating (polynomial) case of 1F1 is detected
a priori from the first parameter, which is exactly where the bound
states live.

Arguments are checked where they enter, by the rules of ``errors``: a
degree that is not an int >= 0 (``check_int``), a nan or infinite
parameter (``check_finite``) and a Whittaker s outside (0, inf)
(``check_positive``) are each a ``UsageError`` that names the argument.
So is a polynomial degree above ``DEGREE_CAP``, a Laguerre n or the
-alpha of a truncating 1F1: the exact sums cost more than n^2.5 in time,
and far more for floats whose rationals are long.
The truncating sum of ``hyp1f1`` and the Laguerre recurrence share no
code, so that each can check the other.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import (ConvergenceError, PoleError, UsageError, check_finite,
                     check_int, check_positive)

TERM_CAP = 10_000
# the largest degree of an exact sum.  At 80 the slowest floats (a
# parameter of 1.7e308 with a z of 5e-324, ~2100-bit rationals) took
# 0.7 s in laguerre and 1.0-1.2 s in hyp1f1 on one 2-core x86-64 VM;
# ordinary floats take milliseconds
DEGREE_CAP = 80


SeriesResult = namedtuple("SeriesResult", "value est_abs_error")


def _is_nonpositive_int(v):
    return v <= 0.5 and abs(v - round(v)) < 1e-12 and round(v) <= 0


def laguerre(n, tau, z):
    """Generalized Laguerre polynomial L_n^(tau)(z) as a float; see
    ``_laguerre_exact``.  OverflowError where the value is beyond a double."""
    try:
        return float(_laguerre_exact(n, tau, z))
    except OverflowError:
        raise OverflowError(
            f"L_{n}^({tau})({z}) is beyond a double") from None


def _laguerre_exact(n, tau, z):
    """L_n^(tau)(z) as a Fraction, by the three-term recurrence run in
    exact rational arithmetic (every float is a rational, and the
    polynomial degree is small, so exactness is free and removes the
    cancellation loss near the polynomial's roots).  A degree n that is
    not an int in [0, DEGREE_CAP], or a non-finite tau or z, is a
    UsageError."""
    n = check_int(n, "laguerre's degree n", least=0)
    if n > DEGREE_CAP:
        raise UsageError(f"laguerre's degree n = {n} > {DEGREE_CAP}")
    check_finite(tau=tau, z=z)
    if n == 0:
        return Fraction(1)
    tau, z = Fraction(tau), Fraction(z)
    prev, cur = Fraction(1), tau + 1 - z
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1 + tau - z) * cur
                          - (k - 1 + tau) * prev) / k
    return cur


def hyp1f1(alpha, b, z):
    """1F1(alpha; b; z) = sum_k (alpha)_k z^k / ((b)_k k!).

    Truncates, summing the polynomial exactly, when alpha is exactly a
    nonpositive integer -n; any other alpha, however close to -n, sums the
    float series until the term magnitude drops below 1e-14.  The error
    estimate of the float sum is a geometric tail bound plus max|term| *
    2^-52 per term summed: where the terms change sign (z < 0, or the first
    terms for alpha < 0) they cancel, and the rounding relative to the
    largest term outweighs the tail.  A b within 1e-12 of a nonpositive
    integer is a pole unless the polynomial stops before it.  A non-finite
    alpha, b or z, and a polynomial degree -alpha above DEGREE_CAP, is a
    UsageError, and a polynomial whose value is beyond a double raises
    OverflowError.
    """
    check_finite(alpha=alpha, b=b, z=z)
    truncates = alpha <= 0 and float(alpha).is_integer()
    if truncates and -alpha > DEGREE_CAP:
        raise UsageError(f"1F1's degree -alpha = {-alpha} > {DEGREE_CAP}")
    n_stop = -round(alpha) if truncates else None
    if _is_nonpositive_int(b):
        if not (truncates and n_stop <= -round(b)):
            raise PoleError(f"1F1 pole: b = {b} is a nonpositive integer")
    if not truncates:
        return _series(alpha, b, z)
    # polynomial case: sum exactly in rational arithmetic (floats are
    # rationals); this is where the bound-state eigenfunctions live and
    # where alternating-sign cancellation would otherwise bite
    alpha_q, b_q, z_q = Fraction(-n_stop), Fraction(b), Fraction(z)
    total_q = term_q = Fraction(1)
    for k in range(n_stop):
        term_q *= (alpha_q + k) * z_q / ((b_q + k) * (k + 1))
        total_q += term_q
    try:
        return SeriesResult(float(total_q), 0.0)
    except OverflowError:
        raise OverflowError(
            f"1F1({alpha}; {b}; {z}) is beyond a double") from None


def _series(alpha, b, z):
    """The non-truncating float sum of ``hyp1f1`` with its estimate."""
    total = 1.0
    term = 1.0
    biggest = 1.0
    k = 0
    while True:
        if k >= TERM_CAP:
            raise ConvergenceError("1F1 series exceeded term cap")
        ratio = (alpha + k) * z / ((b + k) * (k + 1))
        term *= ratio
        total += term
        biggest = max(biggest, abs(term))
        k += 1
        if abs(term) < 1e-14:
            # crude geometric tail estimate once terms are decaying
            nxt = abs((alpha + k) * z / ((b + k) * (k + 1)))
            if nxt < 0.5:
                tail = abs(term) * nxt / (1.0 - nxt)
                rounding = biggest * 2.0 ** -52 * (k + 1)
                return SeriesResult(total, tail + rounding)


def whittaker_m(beta, n, s):
    """M_{beta,n}(s) = e^{-s/2} s^{1/2+n} 1F1(1/2 + n - beta; 1 + 2n; s).

    The mirror M_{beta,-n} is this function with the sign of n flipped.
    A non-finite beta or n, an s outside (0, inf), or a beta - n - 1/2
    that makes 1F1 a polynomial of degree above DEGREE_CAP, is a
    UsageError.
    """
    check_positive(s=s)
    check_finite(beta=beta, n=n)
    f = hyp1f1(0.5 + n - beta, 1.0 + 2.0 * n, s)
    return math.exp(-s / 2.0) * s ** (0.5 + n) * f.value
