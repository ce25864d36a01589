"""Metrics, gauges, de Witt momenta, and the gauged Laplace-Beltrami
builder."""

import math
from fractions import Fraction

import pytest

from curvedhall import geometry, models
from curvedhall.errors import DomainError
from curvedhall.opalg import DiffOp, I, RationalFunc


def test_halfplane_factor_and_domain():
    met = geometry.make_metric("halfplane", a=1.0)
    assert met.factor_at((0.0, 2.0)) == pytest.approx(0.5)  # a/y
    assert met.inside((0.0, 0.1))
    assert not met.inside((0.0, -0.1))


def test_disk_factor_and_domain():
    met = geometry.make_metric("disk", rho=1.0)
    assert met.inside((0.5, 0.5))
    assert not met.inside((0.8, 0.8))
    # conformal factor (1 - |w|^2)^-2 at the origin is 1
    assert met.factor_at((0.0, 0.0)) == pytest.approx(1.0)


@pytest.mark.parametrize("kind, param, point", [
    ("disk", {"rho": 1.0}, (2.0, 0.0)),       # outside: 1/phi reads -1/3
    ("disk", {"rho": 1.0}, (1.0, 0.0)),       # boundary: phi = 0
    ("halfplane", {"a": 1.0}, (0.0, -1.0)),   # below: a/y reads -1
    ("halfplane", {"a": 1.0}, (0.0, 0.0)),    # boundary: y = 0
])
def test_factor_at_rejects_points_outside_the_domain(kind, param, point):
    met = geometry.make_metric(kind, **param)
    with pytest.raises(DomainError, match="outside the metric domain"):
        met.factor_at(point)


def test_make_metric_rejects_bad_parameters():
    for bad in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            geometry.make_metric("halfplane", a=bad)
        with pytest.raises(DomainError):
            geometry.make_metric("disk", rho=bad)
    # a metric built without its numeric parameter has no curvature value
    for kind in ("halfplane", "disk"):
        with pytest.raises(DomainError, match="without a numeric value"):
            geometry.scalar_curvature_fd(geometry.make_metric(kind),
                                         (0.0, 0.5), 1e-3)


def test_flat_metric_is_unit():
    met = geometry.make_metric("flat")
    assert met.factor_at((3.0, -2.0)) == pytest.approx(1.0)


def test_dewitt_momenta_halfplane():
    met = geometry.make_metric("halfplane")
    px, py = geometry.dewitt_momenta(met)
    ring = met.ring
    # u = y/a: u p_y = -i (y/a) d/dy + i/a; u p_x = -i (y/a) d/dx
    # (sqrt(g) is x-independent)
    u = ring.var("y") * ring.var("a", -1)
    assert py.terms[(0, 1)] == u * frac_i(-1)
    assert py.terms[(0, 0)] == ring.var("a", -1) * frac_i(1)
    assert list(px.terms) == [(1, 0)]


def frac_i(k):
    from curvedhall.opalg import GaussianRational
    return GaussianRational(0, k)


def test_laplace_beltrami_flat_is_half_laplacian():
    met = geometry.make_metric("flat")
    ring = met.ring
    zero_gauge = geometry.GaugePotential(ring.zero(), ring.zero())
    H = geometry.laplace_beltrami(met, zero_gauge)
    half = ring.monomial(
        tuple(-1 if v == "m" else 0 for v in ring.vars), Fraction(-1, 2))
    expect = (DiffOp.d(ring, geometry.GEOM, "x")
              * DiffOp.d(ring, geometry.GEOM, "x")
              + DiffOp.d(ring, geometry.GEOM, "y")
              * DiffOp.d(ring, geometry.GEOM, "y"))
    expect = DiffOp.mult(ring, geometry.GEOM, half) * expect
    assert (H - expect).terms == {}


def test_laplace_beltrami_orderings_differ_on_halfplane():
    met = geometry.make_metric("halfplane")
    gauge = geometry.halfplane_gauge(met)
    sym = geometry.laplace_beltrami(met, gauge, ordering="symmetric")
    left = geometry.laplace_beltrami(met, gauge, ordering="left")
    assert (sym - left).terms != {}


def test_halfplane_symmetric_ordering_matches_model():
    met = geometry.make_metric("halfplane")
    gauge = geometry.halfplane_gauge(met)
    H = geometry.laplace_beltrami(met, gauge, ordering="symmetric")
    expect = models.hamiltonian_halfplane()
    assert (H - expect).terms == {}


def _rational_reference(metric, gauge, ordering):
    """The gauged kinetic operator built through RationalFunc coefficients:
    the conformal factor f = 1/u, the de Witt momenta with their
    log-derivative p_j = -i (d_j + (d_j f)/f), and the 1/f sandwiches
    around (p - A)^2."""
    ring = metric.ring
    f = metric.u.inverse()
    inv_f = f.inverse()
    core = DiffOp.zero(ring, geometry.GEOM)
    for var, A in zip(geometry.GEOM, gauge):
        p = ((-I) * DiffOp.d(ring, geometry.GEOM, var)
             + (-I) * (f.diff(var) * f.inverse()))
        core = core + (p - A) * (p - A)
    if ordering == "left":
        op = DiffOp.mult(ring, geometry.GEOM, inv_f * inv_f) * core
    else:
        op = DiffOp.mult(ring, geometry.GEOM, inv_f) * core * inv_f
    half_inv_m = ring.var("m", -1) * Fraction(1, 2)
    return DiffOp.mult(ring, geometry.GEOM, half_inv_m) * op


def _gauge(met):
    if met.kind == "flat":
        x, y = met.ring.var("x"), met.ring.var("y")
        return geometry.GaugePotential(y, -x)
    if met.kind == "halfplane":
        return geometry.halfplane_gauge(met)
    return geometry.disk_gauge(met)


@pytest.mark.parametrize("ordering", ["left", "symmetric"])
@pytest.mark.parametrize("kind", ["flat", "halfplane", "disk"])
def test_polynomial_route_equals_rational_reference(kind, ordering):
    met = geometry.make_metric(kind)
    gauge = _gauge(met)
    built = geometry.laplace_beltrami(met, gauge, ordering)
    assert (built - _rational_reference(met, gauge, ordering)).is_zero


def test_disk_compact_equals_rational_reference():
    """The compact disk form with its last term kept over the factor phi,
    (phi/2m) { ... - (4/rho^2)(phi + 2|w|^2/rho^2)/phi }."""
    R, G = geometry.DISK_RING, geometry.GEOM
    x, y, B = R.var("x"), R.var("y"), R.var("B")
    phi = geometry.disk_phi()
    inv_rho2 = R.var("rho", -2)
    Dx, Dy = DiffOp.d(R, G, "x"), DiffOp.d(R, G, "y")
    radial = DiffOp.mult(R, G, x) * Dx + DiffOp.mult(R, G, y) * Dy
    angular = DiffOp.mult(R, G, B * y) * Dx - DiffOp.mult(R, G, B * x) * Dy
    last = RationalFunc(-4 * inv_rho2 * (phi + 2 * (x * x + y * y) * inv_rho2),
                        ((phi, 1),))
    assert type(last) is RationalFunc
    bracket = (DiffOp.mult(R, G, -phi) * (Dx * Dx + Dy * Dy)
               + DiffOp.mult(R, G, -4 * inv_rho2) * radial
               + DiffOp.mult(R, G, (2 * I) * phi) * angular
               + B * B * phi + last)
    ref = DiffOp.mult(R, G, R.var("m", -1) * Fraction(1, 2) * phi) * bracket
    assert (models.disk_hamiltonian_compact() - ref).is_zero


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_scalar_curvature_halfplane(a):
    met = geometry.make_metric("halfplane", a=a)
    step = 1e-3
    R = geometry.scalar_curvature_fd(met, (0.3, 1.7), step)
    assert abs(R - (-2.0 / a**2)) < 10 * step**2


def test_scalar_curvature_disk():
    met = geometry.make_metric("disk", rho=1.0)
    R = geometry.scalar_curvature_fd(met, (0.1, 0.2), 1e-3)
    assert R == pytest.approx(-8.0, abs=1e-4)


def test_scalar_curvature_order_two_convergence():
    met = geometry.make_metric("halfplane", a=1.0)
    errs = []
    for step in (4e-3, 2e-3, 1e-3):
        R = geometry.scalar_curvature_fd(met, (0.0, 1.3), step)
        errs.append(abs(R + 2.0))
    # halving the step should cut the error about 4x
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)
