"""Metrics, gauges, de Witt momenta, and the gauged Laplace-Beltrami
builder."""

import math
from fractions import Fraction

import pytest

from curvedhall import geometry, models
from curvedhall.errors import DomainError
from curvedhall.opalg import DiffOp


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
    # p_y = -i d/dy + i/y; p_x = -i d/dx (sqrt(g) is x-independent)
    y_inv = ring.var("y", -1)
    assert py.terms[(0, 1)] == ring.const(frac_i(-1))
    assert py.terms[(0, 0)] == y_inv * frac_i(1)
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
