"""Conformal 2D metrics, gauge potentials and the gauged kinetic operator.

Supported geometries: the Euclidean plane, the upper half-plane with
metric (a/y)^2 (dx^2 + dy^2), and the hyperbolic disk with the
Bergman-Kahler factor 1/phi, phi = 1 - (x^2+y^2)/rho^2.  Everything is
held exactly; curvature is the one quantity checked numerically (a
5-point stencil on ln of the conformal factor) because logs fall outside
the rational coefficient ring.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError
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


class Metric2D(namedtuple("Metric2D", "kind ring factor param_values")):
    """Diagonal metric ds^2 = factor^2 (dx^2 + dy^2).

    ``kind`` is flat, halfplane or disk; ``factor`` is the exact conformal
    factor, and ``param_values`` the numeric parameters it was given."""

    __slots__ = ()

    def inside(self, point):
        x, y = point
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
        if self.kind != "flat":
            # the factor's parameter needs a value: a DomainError, not the
            # KeyError of an unbound name in eval
            self._value("a" if self.kind == "halfplane" else "rho")
        return self.factor.eval({"x": point[0], "y": point[1],
                                 **self.param_values}).real


GaugePotential = namedtuple("GaugePotential", "A_x A_y")


def make_metric(kind, a=None, rho=None):
    """Build a metric; numeric parameter values are optional and only
    needed for the numeric (curvature / residual) checks."""
    if kind == "flat":
        return Metric2D("flat", FLAT_RING, FLAT_RING.one(), {})
    if kind == "halfplane":
        if a is not None and not 0 < a < math.inf:
            raise DomainError("half-plane scale a must be positive and finite")
        factor = HALFPLANE_RING.var("a") * HALFPLANE_RING.var("y", -1)
        return Metric2D("halfplane", HALFPLANE_RING, factor,
                        {} if a is None else {"a": float(a)})
    if kind == "disk":
        if rho is not None and not 0 < rho < math.inf:
            raise DomainError("disk radius rho must be positive and finite")
        return Metric2D("disk", DISK_RING, disk_phi().inverse(),
                        {} if rho is None else {"rho": float(rho)})
    raise DomainError(f"unknown metric kind {kind!r}")


def disk_phi():
    """phi = 1 - (x^2 + y^2)/rho^2 as an exact polynomial."""
    x, y = DISK_RING.var("x"), DISK_RING.var("y")
    return DISK_RING.one() - (x * x + y * y) * DISK_RING.var("rho", -2)


def halfplane_gauge(metric):
    """A = (-beta/y, 0), the rescaled-field Landau gauge."""
    ring = metric.ring
    return GaugePotential(-(ring.var("beta") * ring.var("y", -1)), ring.zero())


def disk_gauge(metric):
    """A = B (y, -x), the symmetric gauge on the disk."""
    ring = metric.ring
    B = ring.var("B")
    return GaugePotential(B * ring.var("y"), -(B * ring.var("x")))


def dewitt_momenta(metric):
    """p_j = -i (d_j + (1/2) d_j ln sqrt(g)), with the log-derivative taken
    exactly as (d_j sqrt(g)) / sqrt(g) in the rational-function ring."""
    ring = metric.ring
    out = []
    for var in GEOM:
        # (1/2) d_j ln f^2 = (d_j f)/f
        logterm = metric.factor.diff(var) * metric.factor.inverse()
        p = (-I) * DiffOp.d(ring, GEOM, var)
        if not logterm.is_zero:
            p = p + (-I) * logterm
        out.append(p)
    return tuple(out)


def laplace_beltrami(metric, gauge, ordering="symmetric"):
    """Gauged kinetic operator (1/2m) built from the de Witt momenta.

    ordering="left" places the full 1/sqrt(g) on the far left, exactly as
    written left-to-right; ordering="symmetric" splits it as
    g^{-1/4} (...) g^{-1/4}, which is the ordering the half-plane model
    actually uses.  For a conformal metric sqrt(g) g^{ij} is the identity,
    so both reduce to conformal-factor sandwiches around (p - A)^2.
    """
    ring = metric.ring
    px, py = dewitt_momenta(metric)
    Pi_x = px - gauge.A_x
    Pi_y = py - gauge.A_y
    core = Pi_x * Pi_x + Pi_y * Pi_y
    inv_f = metric.factor.inverse()
    if ordering == "left":
        op = DiffOp.mult(ring, GEOM, inv_f * inv_f) * core
    elif ordering == "symmetric":
        op = DiffOp.mult(ring, GEOM, inv_f) * core * inv_f
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    half_inv_m = ring.var("m", -1) * Fraction(1, 2)
    return DiffOp.mult(ring, GEOM, half_inv_m) * op


def scalar_curvature_fd(metric, point, step):
    """Scalar curvature R = 2K at a point, by central differences.

    For ds^2 = e^{2u} (dx^2+dy^2) the Gaussian curvature is
    K = -e^{-2u} (u_xx + u_yy); the Laplacian of u = ln(factor) is taken
    with a second-order 5-point stencil.
    """
    x, y = point
    if not metric.inside(point):
        raise DomainError(f"point {point} outside the metric domain")
    stencil = [(x + step, y), (x - step, y), (x, y + step), (x, y - step)]
    for p in stencil:
        if not metric.inside(p):
            raise DomainError("finite-difference stencil exits the domain")
    u = lambda p: math.log(metric.factor_at(p))
    u0 = u(point)
    lap = (u(stencil[0]) + u(stencil[1]) + u(stencil[2]) + u(stencil[3])
           - 4.0 * u0) / step**2
    gauss = -math.exp(-2.0 * u0) * lap
    return 2.0 * gauss
