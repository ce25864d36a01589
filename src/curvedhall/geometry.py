"""Conformal 2D metrics, gauge potentials and the gauged kinetic operator.

Supported geometries: the Euclidean plane, the upper half-plane with
metric (a/y)^2 (dx^2 + dy^2), and the hyperbolic disk with metric
(dx^2 + dy^2)/phi^2, phi = 1 - (x^2+y^2)/rho^2.  A metric is held by its
inverse conformal factor u (1, y/a and phi), a Laurent polynomial, and
every operator is built over polynomials: the de Witt momenta times u and
the kinetic operator's u-sandwiches need no 1/u, which the polynomial
kernel does not have.  A gauge is held the same way, as u A: the kinetic
builder subtracts it as given from u p, and every gauge here is a
polynomial in x and y (-beta/a on the half-plane, B phi (y, -x) on the
disk).  Curvature is checked numerically, by a 5-point stencil on ln u,
because acceptance criterion 7 (``tests/test_acceptance.py``) checks
that route and its order-two convergence.  The exact Gaussian curvature
K = u (u_xx + u_yy) - |grad u|^2 is a polynomial as well, and the tests
compare the two.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, UsageError, check_positive, finite_value
from .opalg import DiffOp, I, Ring

# rho is inert on the half-plane: it is the sphere radius of the
# half-plane generators' other application (Haldane-sphere identity)
HALFPLANE_RING = Ring(("x", "y", "beta", "a", "m", "rho"),
                      laurent=("y", "beta", "a", "m", "rho"),
                      params=("beta", "a", "m", "rho"))
DISK_RING = Ring(("x", "y", "B", "rho", "m"),
                 laurent=("B", "rho", "m"), params=("B", "rho", "m"))
FLAT_RING = Ring(("x", "y", "m"), laurent=("m",), params=("m",))

GEOM = ("x", "y")


class Metric2D(namedtuple("Metric2D", "kind ring u param_values")):
    """Diagonal metric ds^2 = (dx^2 + dy^2) / u^2.

    ``kind`` is flat, halfplane or disk; ``u`` is the exact inverse
    conformal factor, a LaurentPoly, and ``param_values`` the numeric
    parameters it was given."""

    __slots__ = ()

    def inside(self, point):
        """Whether the point lies in the metric's domain; a nan or
        infinite coordinate never does."""
        x, y = point
        if not (math.isfinite(x) and math.isfinite(y)):
            return False
        if self.kind == "halfplane":
            return y > 0
        if self.kind == "disk":
            rho = self._value("rho")
            return x * x + y * y < rho * rho
        return True

    def _value(self, name):
        if name not in self.param_values:
            raise DomainError(f"metric built without a numeric value for {name!r}")
        return self.param_values[name]

    def factor_at(self, point):
        """The conformal factor 1/u at a point of the domain.  A point
        outside it is a ``DomainError``; a factor that is not a positive
        finite float (u = y/a or phi rounds to 0, or overflows) raises
        ``OverflowError``."""
        if self.kind != "flat":
            # the factor's parameter needs a value: a DomainError, not the
            # KeyError of an unbound name in eval
            self._value("a" if self.kind == "halfplane" else "rho")
        if not self.inside(point):
            raise DomainError(f"point {point} outside the metric domain")
        u = self.u.eval({"x": point[0], "y": point[1],
                         **self.param_values}).real
        if not (u > 0 and 0 < 1.0 / u < math.inf):
            raise OverflowError(f"conformal factor 1/u at {point} is beyond a "
                                f"double (u = {u!r})")
        return 1.0 / u


class GaugePotential(namedtuple("GaugePotential", "uA_x uA_y")):
    """A gauge potential A held as u A, the inverse conformal factor times
    A: the quantity ``laplace_beltrami`` subtracts from u p as given."""

    __slots__ = ()


def make_metric(kind, a=None, rho=None):
    """Build a metric; numeric parameter values are optional and only
    needed for the numeric (curvature / residual) checks."""
    if kind == "flat":
        return Metric2D("flat", FLAT_RING, FLAT_RING.one(), {})
    if kind == "halfplane":
        if a is not None and not 0 < a < math.inf:
            raise DomainError("half-plane scale a must be positive and finite")
        u = HALFPLANE_RING.var("y") * HALFPLANE_RING.var("a", -1)
        return Metric2D("halfplane", HALFPLANE_RING, u,
                        {} if a is None else {"a": float(a)})
    if kind == "disk":
        if rho is not None and not 0 < rho < math.inf:
            raise DomainError("disk radius rho must be positive and finite")
        return Metric2D("disk", DISK_RING, disk_phi(),
                        {} if rho is None else {"rho": float(rho)})
    raise DomainError(f"unknown metric kind {kind!r}")


def disk_phi():
    """phi = 1 - (x^2 + y^2)/rho^2 as an exact polynomial."""
    x, y = DISK_RING.var("x"), DISK_RING.var("y")
    return DISK_RING.one() - (x * x + y * y) * DISK_RING.var("rho", -2)


def halfplane_gauge(metric):
    """u A = (-beta/a, 0): the rescaled-field Landau gauge A = (-beta/y, 0)
    times u = y/a."""
    ring = metric.ring
    return GaugePotential(-(ring.var("beta") * ring.var("a", -1)), ring.zero())


def disk_gauge(metric):
    """u A = B phi (y, -x): the symmetric gauge A = B (y, -x) on the disk
    times u = phi."""
    x, y, B = (metric.ring.var(v) for v in ("x", "y", "B"))
    return GaugePotential(metric.u * B * y, -(metric.u * B * x))


def dewitt_momenta(metric):
    """u p_j = -i (u d_j - d_j u) for j = x, y.

    The de Witt momentum p_j = -i (d_j + (1/2) d_j ln sqrt(g)) has the
    log-derivative -(d_j u)/u, since sqrt(g) = u^-2; times u it is a
    polynomial operator."""
    ring, u = metric.ring, metric.u
    return tuple(
        DiffOp.from_terms(ring, GEOM, {
            tuple(int(v == var) for v in GEOM): u * (-I),
            (0, 0): u.diff(var) * I,
        })
        for var in GEOM)


def laplace_beltrami(metric, gauge, ordering="symmetric"):
    """Gauged kinetic operator (1/2m) built from the de Witt momenta.

    ordering="left" places the full 1/sqrt(g) = u^2 on the far left,
    exactly as written left-to-right; ordering="symmetric" splits it as
    g^{-1/4} (...) g^{-1/4}, which is the ordering the half-plane model
    actually uses.  For a conformal metric sqrt(g) g^{ij} is the identity,
    so both are u-sandwiches around (p - A)^2.  ``gauge`` holds u A, so
    uPi_j = u p_j - (u A)_j, and with [Pi_j, u] = -i d_j u both are sums of
    polynomial operators:

        left       u^2 Pi_j^2 = (uPi_j + i d_j u) (uPi_j)
        symmetric  u Pi_j^2 u = (uPi_j) (uPi_j - i d_j u)
    """
    if ordering not in ("left", "symmetric"):
        raise ValueError(f"unknown ordering {ordering!r}")
    ring, u = metric.ring, metric.u
    op = DiffOp.zero(ring, GEOM)
    for var, up, uA in zip(GEOM, dewitt_momenta(metric), gauge):
        uPi = up - uA
        i_du = u.diff(var) * I
        if ordering == "left":
            op = op + (uPi + i_du) * uPi
        else:
            op = op + uPi * (uPi - i_du)
    return op * (ring.var("m", -1) * Fraction(1, 2))


def scalar_curvature_fd(metric, point, step):
    """Scalar curvature R = 2K at a point, by central differences.

    For ds^2 = e^{2s} (dx^2+dy^2) the Gaussian curvature is
    K = -e^{-2s} (s_xx + s_yy); the Laplacian of s = ln(factor) = -ln u is
    taken with a second-order 5-point stencil.  Its step must be positive
    and finite, with a square that is neither 0 nor inf, and must move the
    point in each coordinate (``UsageError``).  So is a step too small
    for ln u: each of the five values carries a rounding error up to
    eps (1 + |s_i|), so the stencil's is 8 eps (1 + max |s_i|) / step^2,
    and a step whose bound exceeds 1e-3 of the computed Laplacian returns
    noise (at (0.3, 1.7) on the half-plane, a step of 1e-9 gave -0.0 for
    R = -2).  A metric whose ln u is exactly 0, the flat one, has no
    rounding and is exempt.  The errors of ``factor_at`` apply at each
    stencil point (a point outside the domain is its ``DomainError``),
    and a curvature that is not a finite float raises ``OverflowError``.
    """
    check_positive(step=step)
    x, y = point
    f0 = metric.factor_at(point)
    h2 = step * step
    stencil = [(x + step, y), (x - step, y), (x, y + step), (x, y - step)]
    if not 0 < h2 < math.inf or (x, y) in stencil:
        raise UsageError(f"step {step!r} must move {point}, with 0 < step^2 < inf")
    s = [math.log(f0)] + [math.log(metric.factor_at(p)) for p in stencil]
    lap = (s[1] + s[2] + s[3] + s[4] - 4.0 * s[0]) / h2
    # 1.8e-12 is 1e3 times 8 eps: the rounding bound must stay below 1e-3
    # of the Laplacian
    if any(s) and not 1.8e-12 * (1.0 + max(map(abs, s))) < h2 * abs(lap):
        raise UsageError(f"step {step!r} is too small for ln u at {point}: "
                         "its rounding swamps the stencil's Laplacian")
    # e^{-2s} = 1/f0^2 in two divisions, which overflow to inf, not raise
    return finite_value(-2.0 / f0 * (lap / f0), "scalar curvature")
