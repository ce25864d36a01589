"""Independent numerical oracles.

Nothing in this module trusts the symbolic layer: differential operators
are applied by finite-difference stencils, separated radial spectra come
from a Sturm-Liouville eigensolver, and norms from adaptive quadrature.
Agreement between these oracles and the closed forms in ``spectra`` is
the cross-check the package exists for.

The eigensolver does take the half-plane closed form as a seed: each bound
level's Newton walk starts at ``lattice_model``, the closed form plus its
O(h^2) and O(h^4) lattice terms (with a measured O(h^3) term at an
integer beta's top level, and an h^2 ln h term at a half-integer beta's
al = 2 level), where the solver would otherwise bisect from a bracket
around the whole spectrum first.  That seed lies within rounding of the
discrete eigenvalue, so a level's first walk is usually its last.  Each
level is still kept only with a Sturm count certificate
|mu - lambda_j| <= 1e-9 on the discrete matrix, so the seed buys speed
and never decides an answer.  The seed is written here, not imported from
``spectra``.
"""

from __future__ import annotations

import cmath
import json
import math
from collections import namedtuple
from itertools import chain, islice, product as _iterprod

from .errors import (NonNormalizableError, ResolutionError, SingularityError,
                     UsageError, check_finite, check_int, check_mass_and_scale,
                     check_positive)


class FDGrid(namedtuple("FDGrid", "s_min s_max n_points")):
    """Uniform lattice s_k = h k, k = 1..n_points, h = s_max/(n_points+1),
    with Dirichlet ends at s = 0 and s = s_max.  ``s_min`` is not a grid
    parameter: it is the excluded neighbourhood of the singular point
    s = 0 and must lie below the first node.  The constructor,
    ``_make`` and ``_replace`` check all three; ``n_points`` must be an
    int (a nan or 1000.5 is a ``UsageError``)."""

    __slots__ = ()

    def __new__(cls, s_min, s_max, n_points):
        if not 0 < s_min < s_max < math.inf:
            raise UsageError("need 0 < s_min < s_max < inf")
        n_points = check_int(n_points, "n_points", least=100)
        self = super().__new__(cls, s_min, s_max, n_points)
        if s_min >= self.h:
            raise UsageError(
                "s_min excludes the first lattice node; lower it or coarsen")
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, and _replace through it, skip __new__
        return cls(*iterable)

    @property
    def h(self):
        return self.s_max / (self.n_points + 1)


OracleSpectrum = namedtuple("OracleSpectrum", "mu energies grid beta")


# ---------------------------------------------------------------------------
# finite-difference application of DiffOps
# ---------------------------------------------------------------------------

# 4th-order central stencils, exact on polynomials through degree 5
_STENCILS = {
    0: ((0, 1.0),),
    1: ((-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12)),
    2: ((-2, -1 / 12), (-1, 16 / 12), (0, -30 / 12), (1, 16 / 12),
        (2, -1 / 12)),
}


def fd_apply(H, f, point, h):
    """Evaluate (H f)(point) for a DiffOp with numeric parameter bindings.

    Coefficients are evaluated exactly at the point; each derivative
    monomial becomes a tensor product of 4th-order central stencils.
    ``point`` must bind every ring variable; ``f`` is called with a dict
    of the geometric variables only.  The step h must be positive and
    finite (``UsageError``).
    """
    check_positive(h=h)
    gv = H.geom_vars
    out = 0j
    for alpha, coeff in H.terms.items():
        if any(a > 2 for a in alpha):
            raise ValueError("stencils cover derivative orders 0..2")
        try:
            c = coeff.eval(point)
        except ZeroDivisionError:
            raise SingularityError(
                f"coefficient pole at {point!r}") from None
        acc = 0j
        for combo in _iterprod(*(_STENCILS[a] for a in alpha)):
            coords = {v: point[v] for v in gv}
            w = 1.0
            for v, (off, wt) in zip(gv, combo):
                coords[v] += off * h
                w *= wt
            acc += w * f(coords)
        out += c * acc / h ** sum(alpha)
    return out


def residual_check(H, psi, energy, points, h):
    """Max over points of |H psi - E psi| / (|E||psi| + guard).

    A ``UsageError`` names the first point where psi or its stencil
    image H psi is not finite, and rejects a non-finite energy and an
    empty point set: a nan residual would lose every ``max``, and no
    point would leave it at 0, each a perfect pass."""
    if not cmath.isfinite(energy):
        raise UsageError(f"energy = {energy!r} is not finite")
    points = tuple(points)
    if not points:
        raise UsageError("residual_check needs at least one point")
    worst = 0.0
    for pt in points:
        val = psi({v: pt[v] for v in H.geom_vars})
        hval = fd_apply(H, psi, pt, h)
        if not (cmath.isfinite(val) and cmath.isfinite(hval)):
            raise UsageError(f"psi = {val!r} and H psi = {hval!r} at "
                             f"{pt!r}: both must be finite")
        res = hval - energy * val
        denom = abs(energy) * abs(val) + 1e-300
        worst = max(worst, abs(res) / denom)
    return worst


def tuned_residual(H, psi, energy, points):
    """Best residual over a small ladder of step sizes (the FD error has
    an h^4 regime and a rounding plateau; the minimum sits between).
    ``points`` is read once, so a generator serves every step size."""
    points = tuple(points)
    return min(residual_check(H, psi, energy, points, h)
               for h in (1e-2, 3e-3, 1e-3))


# ---------------------------------------------------------------------------
# tridiagonal eigenvalues: shared Sturm brackets, certified Newton steps
# ---------------------------------------------------------------------------

_NEWTON_WIDTH = 1e-2    # an isolated level's bracket width that starts Newton
_NEWTON_STEPS = 8       # Newton walks per level before falling back
_NEWTON_STOP = 1e-9     # a step this short ends the walk
_NEWTON_STALL = 1e-6    # ... as does one this short that turns back
                        # and fails to halve the step before
_CERT = 1e-9            # half-width of the window a Sturm count certifies
_BISECT_WIDTH = 1e-12   # final bracket width of the bisection path
_NORMAL_MIN = 2.0 ** -1021   # an e_i^2 this large was rounded to 53 bits


def _sturm_count(d, e2, x):
    """Number of eigenvalues < x: the negative pivots of the LDL^T
    recursion q_i = d_i - x - e_{i-1}^2 / q_{i-1} over every row.  A zero
    pivot counts as negative and is moved to -1e-300, as in
    ``_sturm_slope``."""
    count = 0
    q = 1.0
    for di, b in zip(d, chain((0.0,), e2)):
        q = di - x - b / q
        if q <= 0.0:
            count += 1
            if q == 0.0:
                q = -1e-300
    return count


def _sturm_slope(d, e2, x):
    """(count, slope) at shift x from the LDL^T pivots over every row:
    the number of eigenvalues < x as ``_sturm_count`` gives it, and
    d/dx log|det(T - x)| = sum dq_i/q_i, with the pivot derivatives
    dq_i = -1 + e_{i-1}^2 dq_{i-1} / q_{i-1}^2 (Parlett, ch. 4).

    No row may be skipped: near an eigenvalue the tail's pivots carry the
    slope.  A zero pivot is moved to -1e-300 as in the count, so the slope
    may come out huge, infinite or nan; the caller rejects a non-finite one.
    """
    count = 0
    q = 1.0
    r = 0.0     # dq/q of the previous row
    s = 0.0
    for di, b in zip(d, chain((0.0,), e2)):
        t = b / q
        q = di - x - t
        if q <= 0.0:
            count += 1
            if q == 0.0:
                q = -1e-300
        r = (t * r - 1.0) / q
        s += r
    return count, s


def _sturm_count_slope(d, e2, y, x):
    """(``_sturm_count`` at y, ``_sturm_slope`` at x) from one loop over
    the rows.  Each recurrence is written as in those two, zero-pivot
    rule included, so all three numbers are bit-identical to theirs; the
    shared loop is what saves time (~0.9 of the two passes)."""
    cy = 0
    p = 1.0
    count = 0
    q = 1.0
    r = 0.0
    s = 0.0
    for di, b in zip(d, chain((0.0,), e2)):
        p = di - y - b / p
        if p <= 0.0:
            cy += 1
            if p == 0.0:
                p = -1e-300
        t = b / q
        q = di - x - t
        if q <= 0.0:
            count += 1
            if q == 0.0:
                q = -1e-300
        r = (t * r - 1.0) / q
        s += r
    return cy, (count, s)


def tridiag_eigs(diag, offdiag, k, guess=()):
    """k smallest eigenvalues of a symmetric tridiagonal matrix.

    Level j keeps one bracket (a_j, b_j] with the Sturm count at each end,
    and every count taken for any level narrows the brackets of all of
    them (Barth-Martin-Wilkinson; LAPACK dstebz).  Every bracket starts at
    [min d - r, max d + r], r = 2 max|e_i|, which holds each Gershgorin
    disc and so the whole spectrum; it is closed there, as an eigenvalue
    may sit on either end.  There is no other ceiling: each of the k
    levels is solved, whatever its value.  A walk is Newton steps
    on d/dx log|det(T - x)|, clamped to the closed bracket, until a step is
    under 1e-9, or under 1e-6, the other way from the step before and more
    than half its length (a walk that alternates about the root on the
    rounding floor, which the largest eps |d_i| sets).  The root x it
    reaches is kept only with a certificate: a
    Sturm count at x - 1e-9 gives j and one at x + 1e-9 gives more than j,
    so |x - lambda_j| <= 1e-9.  A bracket end inside that window, with the
    right count, stands in for either count; the walk's last step usually
    leaves one there, so a certified level takes one count.  When that one
    count is left and level j+1 will walk from its guess g, above
    x + 1e-9 and inside its bracket, the count and the first Newton step
    at g are taken in one row pass (``_sturm_count_slope``).  The step is
    used only if level j is certified and g still lies inside level j+1's
    bracket, and dropped otherwise, so every root, bracket and count point
    is what separate passes would give.

    ``diag`` and ``offdiag`` are never changed.  A list is used as it is,
    so its entries must be floats, or ints below 2^53 in size; any other
    sequence (a tuple, a numpy array) is first copied through float().

    ``guess`` holds the caller's prediction of the first len(guess) levels.
    Level j walks from guess[j] when it lies inside (a_j, b_j), with no
    count taken first.  When the guess is wrong (or nan) the walk reaches
    another root or none and its certificate fails, so a guess decides
    where the walk starts, never which root is kept.  A level without a
    certified walk from its guess is bisected until its bracket holds
    lambda_j alone and is at most 1e-2 wide, then walks from the bracket's
    midpoint.  A level that is never isolated (a repeated eigenvalue), or
    whose walk does not converge or is not certified, is bisected to a
    bracket of width 1e-12 instead.

    A ``UsageError`` (a ValueError) rejects a k that is not an int, a nan
    or infinite d_i, an e_i whose square is not finite, and a matrix whose
    starting bracket, or a sum of two of its points, overflows: a bisection
    midpoint or a shifted pivot d_i - x would then be inf, and the counts
    and walks meaningless.
    """
    k = check_int(k, "k")
    # a list is read as it is: no second copy of a matrix its caller has
    # just built
    d = diag if type(diag) is list else list(map(float, diag))
    e = offdiag if type(offdiag) is list else list(map(float, offdiag))
    n = len(d)
    if len(e) != max(n - 1, 0):
        raise ValueError("offdiag must have length n-1")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    e2 = [v * v for v in e]
    # a nan or inf entry reaches the sums; so, rarely, do finite entries
    # near the largest double, which only the slower test per entry clears
    if not (math.isfinite(sum(d) + sum(e2))
            or all(map(math.isfinite, chain(d, e2)))):
        raise UsageError("tridiag_eigs needs finite d_i and e_i^2")
    if n == 1:
        return [float(d[0])]
    # every Gershgorin radius |e_{i-1}| + |e_i| is at most r.  In binary
    # floating point, rounding to nearest, sqrt(fl(e^2)) is |e| exactly
    # unless e^2 underflows (S. Boldo, "Stupid is as stupid does: taking
    # the square root of the square of a floating-point number", 2015), so
    # the e_i are scanned only then
    e2_max = max(e2)
    r = 2.0 * (math.sqrt(e2_max) if e2_max >= _NORMAL_MIN
               else max(map(abs, e)))
    lo, hi = min(d) - r, max(d) + r
    # every count point x and diagonal entry lies in [lo, hi], so a
    # midpoint a + b and a pivot d_i - x stay within 2 max(|lo|, |hi|)
    if not math.isfinite(2.0 * max(-lo, hi)):
        raise UsageError(f"tridiag_eigs bracket [{lo!r}, {hi!r}] overflows "
                         "in bisection; scale the matrix down")
    # level i (0-based): ca[i] <= i eigenvalues lie below a[i] and
    # cb[i] > i below b[i]; n + 1 marks the ceiling, whose count is unknown
    # (an eigenvalue may sit on it)
    a, ca = [lo] * k, [0] * k
    b, cb = [hi] * k, [n + 1] * k
    out = []

    def narrow(x, c):
        for i in range(len(out), k):
            if c > i:
                if x < b[i]:
                    b[i], cb[i] = x, c
            elif x > a[i]:
                a[i], ca[i] = x, c
        return c

    def count(x):
        return narrow(x, _sturm_count(d, e2, x))

    def bisect_until(j, width):
        """Bisect level j until its bracket holds lambda_j alone and is
        at most ``width`` wide, and return True; at the floor, a bracket
        at most 1e-12 wide or at its last ulp, return whether it holds
        lambda_j alone."""
        while True:
            isolated = ca[j] == j and cb[j] == j + 1
            if isolated and b[j] - a[j] <= width:
                return True
            mid = 0.5 * (a[j] + b[j])
            if b[j] - a[j] <= _BISECT_WIDTH or mid == a[j] or mid == b[j]:
                return isolated
            count(mid)

    def newton(j, x, first=None):
        """Certified Newton root of level j walked from x, or None; and,
        when the root's certificate count shared its pass with the first
        step of level j+1's walk, that step's (count, slope), else None.
        ``first`` is the (count, slope) at x, when such a pass took it."""
        back = math.inf     # the step before, signed
        for _ in range(_NEWTON_STEPS):
            c, s = first or _sturm_slope(d, e2, x)
            first = None
            narrow(x, c)
            if not (s and math.isfinite(s)):
                return None, None
            nxt = min(max(x - 1.0 / s, a[j]), b[j])
            step, x = nxt - x, nxt
            # a short step back across the root that fails to halve the one
            # before has met the rounding floor of the slope, set by
            # eps |d_i|, not by |x|; a walk into a cluster of close roots
            # shrinks as slowly, but from one side
            if abs(step) < _NEWTON_STOP or (
                    step * back < 0
                    and 0.5 * abs(back) < abs(step) < _NEWTON_STALL):
                break
            back = step
        else:
            return None, None
        below = a[j] >= x - _CERT and ca[j] == j
        above = b[j] <= x + _CERT and cb[j] <= n
        # when a bracket end covers one side of x and level j+1 will walk
        # from its seed g, the other side's count and g's first Newton step
        # share a pass; the step is kept only if x is certified
        g = seeds[j + 1] if j + 1 < k else math.nan
        if below != above and x + _CERT < g and a[j + 1] < g < b[j + 1]:
            p = x + _CERT if below else x - _CERT
            c, ahead = _sturm_count_slope(d, e2, p, g)
            narrow(p, c)
            if (c > j) if below else (c == j):
                return x, ahead
            return None, None
        below = below or count(x - _CERT) == j
        above = (b[j] <= x + _CERT and cb[j] <= n) or count(x + _CERT) > j
        return (x if below and above else None), None

    # a nan seed fails both bracket comparisons and takes no walk
    seeds = [float(v) for v in islice(guess, k)]
    seeds += [math.nan] * (k - len(seeds))
    ahead = None    # (count, slope) at seeds[j], from level j-1's last pass
    for j in range(k):
        g = seeds[j]
        x, ahead = newton(j, g, ahead) if a[j] < g < b[j] else (None, None)
        if x is None and bisect_until(j, _NEWTON_WIDTH):
            x, ahead = newton(j, 0.5 * (a[j] + b[j]))
        if x is None:
            bisect_until(j, -math.inf)
            x = 0.5 * (a[j] + b[j])
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# Whittaker-equation oracle
# ---------------------------------------------------------------------------

_WALL_RELERR = 1e-3     # the oracle's promised relative energy accuracy


def wall_decay_exponent(beta, mu, s_max):
    """Agmon decay exponent of a Whittaker level between its outer turning
    point s_t and a Dirichlet wall at s_max,

        S = integral_{s_t}^{s_max} sqrt(1/4 - beta/s - mu/s^2) ds,

    where U(s) = s^2/4 - beta s equals mu at s_t = 2 beta + 2 r,
    r = sqrt(beta^2 + mu) (Agmon, Lectures on Exponential Decay of
    Solutions of Second-Order Elliptic Equations, 1982).  The wall moves
    the level by e^{-2S} times an amplitude (``wall_shift``).  S = 0 when
    the wall stands at or inside s_t.  Requires mu > -beta^2, which every
    level of the Whittaker matrix meets, since its eigenvalues exceed the
    minimum of U, and a finite beta > 0 and s_max; UsageError otherwise.

    With s = 2 beta + 2 r cosh t the integrand becomes
    r cosh t - beta - mu / (beta + r cosh t), whose antiderivative is
    elementary: artanh for mu < 0, arctan for mu > 0.
    """
    check_finite(beta=beta, s_max=s_max)
    # at beta <= 0 there is no outer turning point and the artanh below
    # leaves its domain, or r + beta divides by zero
    if not (beta > 0.0 and beta * beta + mu > 0.0):
        raise UsageError(f"need beta > 0 and mu > -beta^2, got beta = "
                         f"{beta!r}, mu = {mu!r}")
    r = math.sqrt(beta * beta + mu)
    if s_max <= 2.0 * (beta + r):
        return 0.0
    w = s_max - 2.0 * beta
    x = w / (2.0 * r)
    # past x = 1e300, acosh x = ln 2x and r sinh t = r x to double
    # precision; an x that overflowed made r sinh t - beta t inf - inf
    t = math.acosh(x) if x < 1e300 else math.log(w) - math.log(r)
    half = math.tanh(0.5 * t)
    if mu < 0.0:
        last = 2.0 * math.sqrt(-mu) * math.atanh(
            math.sqrt((beta - r) / (beta + r)) * half)
    elif mu > 0.0:
        last = -2.0 * math.sqrt(mu) * math.atan(
            math.sqrt((r - beta) / (r + beta)) * half)
    else:
        last = 0.0
    return (r * math.sinh(t) if x < 1e300 else 0.5 * w) - beta * t + last


def wall_shift(beta, mu, s_max):
    """How far the Dirichlet wall at s_max raises a Whittaker level mu:
    (sqrt(-mu)/pi + 1/4) e^{-2S}, S from ``wall_decay_exponent``, or inf
    when the level's allowed region reaches the wall (S = 0).

    Moving a Dirichlet end from infinity to s_max raises mu by about
    2 kappa phi(s_max)^2 / int phi^2 ds/s^2.  With the WKB tail
    phi ~ C e^{-S} / sqrt(kappa) and its allowed-region norm
    2 C^2 int ds / (s sqrt((s - s1)(s2 - s))) = 2 pi C^2 / sqrt(s1 s2),
    s1 s2 = -4 mu, that is (sqrt(-mu)/pi) e^{-2S}.  The 1/4 covers the
    levels near mu = 0, whose allowed region reaches s = 0 where WKB
    fails.  Measured against a wall 1.7 to 13 times further out, at
    h = 0.02 and beta in {0.75, 1.2, 2.5, 4.9, 5, 8, 12, 20}, every shift
    with e^{-2S} > 1e-7 lay at or below 0.98 of this bound.  A bound of
    2 e^{-2S} alone is exceeded from beta ~ 7 on: the shift of level 0 is
    2.4 e^{-2S} at beta = 8 and 6.3 e^{-2S} at beta = 20.
    """
    S = wall_decay_exponent(beta, mu, s_max)
    if S == 0.0:
        return math.inf
    return (math.sqrt(max(-mu, 0.0)) / math.pi + 0.25) * math.exp(-2.0 * S)


def whittaker_matrix(beta, grid):
    """(diag, off) of the symmetric tridiagonal B = S A S of
    ``whittaker_oracle``, whose eigenvalues are the mu values."""
    h = grid.h
    inv_h2 = 1.0 / (h * h) if h * h else math.inf
    if not math.isfinite(inv_h2):
        raise UsageError(f"grid spacing h = {h!r} is too small: 1/h^2 is "
                         "not finite")
    s = [h * k for k in range(1, grid.n_points + 1)]
    c = 2.0 * inv_h2 + 0.25
    diag = [si * si * c - beta * si for si in s]
    off = [-(si * sj) * inv_h2 for si, sj in zip(s, islice(s, 1, None))]
    # every product above grows with k, so an overflow in any row shows
    # as an inf or nan in the last one
    if not (math.isfinite(diag[-1]) and math.isfinite(off[-1])):
        raise UsageError(f"s_max = {grid.s_max!r} overflows the Whittaker "
                         "matrix; its entries are not all finite")
    return diag, off


class LatticeModel(namedtuple("LatticeModel", "mu c2 c3 c4 log_a log_b")):
    """The lattice eigenvalue of one level on ``whittaker_matrix``,

        mu_l(h) = mu + (c2 + log_a + log_b ln h + c4 h^2) h^2 + c3 h^3,

    as ``lattice_model`` builds it, with 0.0 for each term the level
    lacks."""

    __slots__ = ()

    def at(self, h):
        """The model at spacing h > 0, summed in the order the class
        docstring writes it."""
        h2 = h * h
        return (self.mu + (self.c2 + self.log_a + self.log_b * math.log(h)
                           + self.c4 * h2) * h2 + self.c3 * h2 * h)


def lattice_model(beta, l):
    """The ``LatticeModel`` of level l on ``whittaker_matrix``: the
    half-plane closed form mu = 1/4 - nu^2, nu = beta - l - 1/2, plus the
    lattice terms that al = 2 nu gives it.  They are the asymptotic
    correction of finite-difference Sturm-Liouville eigenvalues (Paine,
    de Hoog & Anderssen, Computing 26, 123, 1981), in closed form here
    because the eigenfunctions are Laguerre functions.  With L = l(l+1)
    and m = 2l + 1:

    * c2 = C_l at al > 2 and at al = 1 (first order, below);
    * c4 = D_l at al > 4 and at al = 3 (second order, below), and a
      fitted cubic in beta at al = 1;
    * c3 = beta^2/64 at al = 1, fitted;
    * (log_a, log_b) = (A_l, B_l) at al = 2, B_l derived and A_l fitted;
    * 0.0 for every other term.  At the other al <= 2 int (phi'')^2
      diverges and there is no h^2 term; at al in (2, 4] other than 3
      there is no h^4 term (at al = 4 it has a pole).

    **C_l, the first order.**

        C_l = -[(2L+1) al^2 + 3m al + 2 - 2L] / (64 (al-2)(al+2)).

    1. The central difference adds -(h^2/12) phi'''' to -phi''.
       First-order perturbation of A phi = mu W phi gives
       delta mu = -(h^2/12) int (phi'')^2 / int phi^2/s^2; the boundary
       terms at s = 0 vanish for nu > 1.
    2. The ODE gives phi'' = (1/4 - beta/s - mu/s^2) phi.
    3. With phi = s^{nu+1/2} e^{-s/2} L_l^(al)(s), both integrals are sums
       of the moments M_q = int s^{al+q} e^{-s} L^2 ds over
       Gamma(l+al+1)/l!:  M_1 = 2l+al+1, M_0 = 1, M_-1 = 1/al,
       M_-2 = (2l+al+1)/((al-1) al (al+1)) and
       M_-3 = (al^2 + (6l+3) al + 6l^2+6l+2)/((al-2)(al-1) al (al+1)(al+2)).
    4. The Gamma factor cancels, and the ratio reduces to C_l.

    At al = 1 (an integer beta, mu = 0) the formula gives (l+1)/32:
    phi ~ s at the origin, so int (phi'')^2 converges, and the (al-1) of
    M_-2 and M_-3 cancels in the ratio.

    **D_l, the second order.**

        D_l = -N / (4096 (al^2 - 16)(al^2 - 4)^3),
        N = 2m(L+1) al^7 + 2(L^2+6L+2) al^6 - 15m(4L+5) al^5
            - 3(28L^2+228L+101) al^4 + 6m(31L-9) al^3
            + 18(37L^2+182L+74) al^2 + 8m(119L+269) al
            - 8(73L^2-282L-124).

    The stencil is -d^2 - (h^2/12) d^4 - (h^4/360) d^6 + O(h^6); with
    L = -d^2 + 1/4 - beta/s - mu/s^2, order h^2 gives
    L phi_2 = (1/12) phi'''' + C_l phi/s^2, and order h^4 against phi
    gives D_l int phi^2/s^2 = (1/360) int (phi''')^2 - <phi_2, L phi_2>,
    whose s = 0 terms go like s^(al-4).  phi_2 is a phi + b phi' plus a
    multiple of d(phi)/d(nu), a and b Laurent polynomials in s, so every
    integral is a sum of Laguerre moments
    (``test_lattice_h4_term_is_the_second_order_reduction`` spells it
    out).  Reduced exactly for l = 0..13, each coefficient of N is a
    polynomial of degree at most 4 in l, and N interpolates all fourteen.

    At al = 3 the formula still holds: fits over 19 grids h in
    [0.03, 0.12] gave -0.0048835, -0.021971, -0.058572, -0.21762 and
    -1.0464 at (beta, l) = (2, 0), (3, 1), (4, 2), (6, 4) and (10, 8),
    against -0.0048828, -0.021973, -0.058578, -0.21766 and -1.0465 here.

    **The al = 1 terms, fitted.**  At al = 1 the s = 0 end adds an h^3
    term and to the h^4 term: c3 = beta^2/64, and
    c4 = 2.6155e-3 beta^3 - 9.138e-4 beta^2 - 3.19e-4 beta + 1.16e-4,
    fitted, not derived, to 0.001486, 0.01676, 0.06156, 0.1516, 0.5302,
    0.8502, 1.8299, 2.521 and 4.384 measured at beta = 1, 2, 3, 4, 6, 7,
    9, 10 and 12 (mu(h) - (l+1)/32 h^2 - beta^2/64 h^3 fitted by
    D h^4 + E h^5 + F h^6 over 16 grids h in [0.008, 0.06],
    s_max = 8 beta + 30); its largest miss is 1.7e-5.

    **The al = 2 log term** (a half-integer beta, l = beta - 3/2,
    mu = -3/4).  There phi = s^(3/2) e^(-s/2) L_l^(2)(s) gives
    phi'' ~ (3/4) L_l^(2)(0) s^(-1/2), so the first order's
    int (phi'')^2 diverges like -ln h at the stencil's cut-off s ~ h.
    With L_l^(2)(0) = (l+1)(l+2)/2 = int phi^2/s^2, the shift
    -(h^2/12) int (phi'')^2 / int phi^2/s^2 gains B_l h^2 ln h,

        B_l = 3 (l+1)(l+2) / 128.

    A_l depends on the cut-off's details and is fitted, not derived:

        A_l = B_l (ln beta - 3.821 + 2.545/beta - 0.989/beta^2),

    within 2.6e-4 relative of -0.10120, -0.54069, -0.84378, -1.18542,
    -1.55619, -1.94819, -2.35462, -2.76952, -3.18756 and -3.60394,
    measured at beta = 1.5, 3.5, 4.5, ..., 11.5 (mu(h) - mu -
    B_l h^2 ln h fitted by A h^2 + h^3 (E + E' ln h) + h^4 (F + F' ln h)
    over 16 grids h in [0.005, 0.06], s_max = 8 beta + 30).  The rest is
    O(h^3 ln h), above the walk's 1e-9 stop on the usual grids, so this
    level still takes two walks.

    A wrong term costs Newton walks, never a different mu: the model only
    decides where the oracle's walk of the level starts, and the level's
    Sturm count certificate alone decides mu.  A non-finite beta, an l
    that is not an int >= 0, and an l outside the bound-state window
    l < beta - 1/2, where the closed form turns back down, are each a
    ``UsageError``.  Written with float products, not **, so a huge
    finite beta or l gives an inf or nan term and does not raise.
    """
    check_finite(beta=beta)
    l = check_int(l, "l", least=0)
    if not l < beta - 0.5:
        raise UsageError(f"l = {l} lies outside the window l < beta - 1/2")
    al = 2.0 * beta - 2 * l - 1.0
    L, m = l * (l + 1.0), 2.0 * l + 1.0
    c2 = c3 = c4 = log_a = log_b = 0.0
    if al > 2.0 or al == 1.0:
        c2 = -((2 * L + 1) * al * al + 3 * m * al + 2 - 2 * L) \
            / (64.0 * (al - 2.0) * (al + 2.0))
    if al == 1.0:
        c3 = beta * beta / 64.0
        c4 = ((2.6155e-3 * beta - 9.138e-4) * beta - 3.19e-4) * beta + 1.16e-4
    elif al > 4.0 or al == 3.0:
        num = 2 * m * (L + 1)
        for c in (2 * (L * L + 6 * L + 2), -15 * m * (4 * L + 5),
                  -3 * (28 * L * L + 228 * L + 101), 6 * m * (31 * L - 9),
                  18 * (37 * L * L + 182 * L + 74), 8 * m * (119 * L + 269),
                  -8 * (73 * L * L - 282 * L - 124)):
            num = num * al + c
        a2 = al * al
        c4 = -num / (4096.0 * (a2 - 16.0) * (a2 - 4.0) * (a2 - 4.0)
                     * (a2 - 4.0))
    elif al == 2.0:
        log_b = 3.0 * (l + 1) * (l + 2) / 128.0
        log_a = log_b * (math.log(beta) - 3.821 + (2.545 - 0.989 / beta) / beta)
    return LatticeModel(0.25 - (beta - l - 0.5) * (beta - l - 0.5),
                        c2, c3, c4, log_a, log_b)


def whittaker_oracle(beta, grid, k_levels, m=1.0, a=1.0):
    """Discrete spectrum of -phi'' + (1/4 - beta/s) phi = mu phi / s^2.

    Second-order central differences with Dirichlet ends give the
    generalized problem A phi = mu W phi, W = diag(1/s_i^2).  The
    congruence B = S A S with S = diag(s_i) is symmetric tridiagonal and
    has the mu values as ordinary eigenvalues.  Bound states are mu < 1/4;
    energies follow as (mu + beta^2) / (2 m a^2).

    The left Dirichlet ghost sits at s = 0, where every bound state
    vanishes like s^{1/2+n}; a wall at any s0 > 0 instead shifts the
    shallowest eigenvalue by O(s0^{2n}), which for n = 1/2 is linear in
    s0 and would swamp the O(h^2) scheme error.  ``grid.s_min`` is the
    excluded singular neighborhood, below the first lattice node.

    Each bound level's Newton walk starts at its lattice eigenvalue
    ``lattice_model(beta, l).at(h)``; the seed only decides where the
    walk starts, and the Sturm count certificate of ``tridiag_eigs``
    decides mu.

    The right wall at s_max raises each level by at most ``wall_shift``.
    A level for which that exceeds 1e-3 of its energy mu + beta^2, or
    whose allowed region reaches the wall, raises ``ResolutionError``.
    """
    if not beta > 0.5:
        raise UsageError("beta must exceed 1/2 for any bound state")
    k_levels = check_int(k_levels, "k_levels", least=1)
    check_mass_and_scale(m, a)
    if k_levels > grid.n_points:
        raise ResolutionError(
            f"a grid of {grid.n_points} points holds at most "
            f"{grid.n_points} levels, {k_levels} requested")
    diag, off = whittaker_matrix(beta, grid)
    # each bound level's Newton walk starts at its ``lattice_model``, whose
    # fitted terms scripts/oracle_refinement_study.py checks.  Past the
    # window 0 <= l < beta - 1/2 the closed form turns back down, so a
    # level beyond it gets no seed.  A huge beta gives an inf or nan seed,
    # which takes no walk
    seed = [lattice_model(beta, l).at(grid.h) for l in range(k_levels)
            if l < beta - 0.5]
    # all bound states sit below mu = 1/4: a level at or above it means the
    # grid resolves fewer bound states than requested
    mu = tridiag_eigs(diag, off, k_levels, guess=seed)
    if any(v >= 0.25 for v in mu):
        raise ResolutionError(
            f"grid resolves only {sum(v < 0.25 for v in mu)} bound states, "
            f"{k_levels} requested")
    # the highest level reaches furthest out, so it is checked first
    s_max = grid.s_max
    for j, v in reversed(list(enumerate(mu))):
        shift = wall_shift(beta, v, s_max)
        if shift == math.inf:
            wall = s_max * s_max / 4.0 - beta * s_max
            raise ResolutionError(
                f"level {j} (mu = {v:.6g}) reaches the wall at "
                f"s = {s_max:.6g}, where U(s) = s^2/4 - beta s = {wall:.6g}; "
                "raise s_max")
        rel = shift / (v + beta * beta)
        if rel > _WALL_RELERR:
            raise ResolutionError(
                f"level {j} (mu = {v:.6g}) is cut off by the wall at "
                f"s = {s_max:.6g}, which may move its energy by {rel:.2g} "
                f"relative, more than {_WALL_RELERR:g}; raise s_max")
    energies = tuple((v + beta * beta) / (2.0 * m * a * a) for v in mu)
    return OracleSpectrum(tuple(mu), energies, grid, float(beta))


def oracle_report(spec, analytic):
    """JSON report pairing oracle energies with closed-form values."""
    relerr = [abs(e - an) / abs(an)
              for e, an in zip(spec.energies, analytic)]
    return json.dumps(
        {
            "beta": spec.beta,
            "grid": {"smin": spec.grid.s_min, "smax": spec.grid.s_max,
                     "n": spec.grid.n_points},
            "mu": list(spec.mu),
            "energies": list(spec.energies),
            "analytic": list(analytic),
            "relerr": relerr,
        },
        indent=2,
    )


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _simpson(a, b, fa, fm, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(a, m, fa, flm, fm)
    right = _simpson(m, b, fm, frm, fb)
    # a nan or inf would fail the error test below at every depth
    if not math.isfinite(whole + left + right):
        raise UsageError("integrand is not finite, or its Simpson sums "
                         f"overflow, on [{a!r}, {b!r}]")
    if depth <= 0 or abs(left + right - whole) < 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_adaptive(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _adaptive(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1))


def adaptive_simpson(f, a, b):
    """Adaptive Simpson rule to 1e-12 for a real f, at most 40 bisections
    deep.  ``UsageError`` rejects an end that is not finite or whose
    subinterval sums could overflow (|a| + |b| >= ~9e307), and a sample
    or Simpson sum that is not finite, which would otherwise keep the
    rule bisecting to the full depth, ~2^40 steps."""
    if not math.isfinite(2.0 * (abs(a) + abs(b))):
        raise UsageError(f"integration ends {a!r}, {b!r} must be finite "
                         "and below ~9e307 in size")
    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    whole = _simpson(a, b, fa, fm, fb)
    return _adaptive(f, a, b, fa, fm, fb, whole, 1e-12, 40)


def norm_quadrature(psi, beta, l, c, a=1.0, cutoff_scale=40.0):
    """Squared norm per unit x-length in the invariant measure.

    The measure weight is a^2 / y^2; |psi| is x-independent for the
    separated eigenfunctions, so the x-integral factors out.  The
    y-integral runs over (0, cutoff) with the cutoff set by the e^{-2cy}
    tail; normalizability requires beta - l > 1/2.  A non-finite beta, an
    l that is not an int >= 0 and a c outside (0, inf) are each a
    ``UsageError``.
    """
    check_finite(beta=beta)
    l = check_int(l, "l", least=0)
    if beta - l <= 0.5:
        raise NonNormalizableError(
            f"beta - l = {beta - l} <= 1/2: |psi|^2 / y^2 not integrable")
    check_positive(c=c)
    upper = cutoff_scale / (2.0 * c) + 5.0

    def integrand(y):
        if y <= 0.0:
            return 0.0
        v = psi({"x": 0.0, "y": y})
        return (a * a) * (v.real * v.real + v.imag * v.imag) / (y * y)

    return adaptive_simpson(integrand, 1e-8, upper)
