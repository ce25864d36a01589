"""Metrics, gauges, de Witt momenta, and the gauged Laplace-Beltrami
builder."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from curvedhall import geometry, models
from curvedhall.errors import DomainError, UsageError
from curvedhall.opalg import DiffOp
from test_numverify import _within


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


@pytest.mark.parametrize("kind, param", [
    ("flat", {}), ("halfplane", {"a": 1.0}), ("disk", {"rho": 1.0})])
@pytest.mark.parametrize("point", [(0.0, math.inf), (math.nan, 0.5),
                                   (-math.inf, 0.5)])
def test_non_finite_point_is_outside_every_domain(kind, param, point):
    # the half-plane's curvature read nan at (0, inf) and -2.000001 at
    # (nan, 1), and its factor 1.0 at (nan, 1)
    met = geometry.make_metric(kind, **param)
    assert not met.inside(point)
    with pytest.raises(DomainError, match="outside the metric domain"):
        met.factor_at(point)
    with pytest.raises(DomainError, match="outside the metric domain"):
        geometry.scalar_curvature_fd(met, point, 1e-3)


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


@pytest.mark.parametrize("step", [0.0, -1e-3, math.inf, math.nan])
def test_curvature_stencil_step_must_be_positive_and_finite(step):
    # a zero step divided by zero
    with pytest.raises(UsageError, match="step"):
        geometry.scalar_curvature_fd(geometry.make_metric("halfplane", a=1.0),
                                     (0.0, 1.0), step)


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


def _geometric_exponents(poly):
    """The exponents of x and y over every monomial of a LaurentPoly."""
    at = [poly.ring.vars.index(v) for v in geometry.GEOM]
    return {exps[k] for exps in poly.terms for k in at}


@pytest.mark.parametrize("kind", ["flat", "halfplane", "disk"])
def test_no_negative_power_of_x_or_y(kind):
    """Every gauge, de Witt momentum and kinetic operator is a polynomial
    in x and y: the gauges hold u A, which the builder takes as given."""
    met = geometry.make_metric(kind)
    polys = list(_gauge(met))
    for op in (*geometry.dewitt_momenta(met),
               *(geometry.laplace_beltrami(met, _gauge(met), ordering)
                 for ordering in ("left", "symmetric"))):
        polys.extend(op.terms.values())
    assert all(min(_geometric_exponents(p), default=0) >= 0 for p in polys)


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


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _action(sympy, op):
    """A DiffOp read as its action on an undefined f(x, y): the sum of
    coeff * d^alpha f, with each coefficient's (a + b*i)/d terms taken as
    sympy Rationals over one symbol per ring variable."""
    names = {v: sympy.Symbol(v) for v in op.ring.vars}
    f = sympy.Function("f")(names["x"], names["y"])

    def poly(p):
        return sympy.Add(*(
            (sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im))
            * sympy.Mul(*(names[v] ** e for v, e in zip(op.ring.vars, exps)))
            for exps, c in p.terms.items()))

    out = sympy.Integer(0)
    for alpha, c in op.terms.items():
        df = f
        for var, k in zip(op.geom_vars, alpha):
            if k:
                df = sympy.diff(df, names[var], k)
        out += poly(c) * df
    return out, names, f


def _same_action(sympy, a, b):
    """a - b vanishes for every f: its numerator over a common denominator
    expands to zero."""
    return sympy.expand(sympy.together(a - b).as_numer_denom()[0]) == 0


def _rational_reference(sympy, kind, ordering, names, f):
    """The gauged kinetic operator on f, from its definition in sympy.

    The conformal factor is F = 1/u (u = 1, y/a and
    phi = 1 - (x^2 + y^2)/rho^2), the gauge field A = (y, -x) on the plane,
    (-beta/y, 0) on the half-plane and B (y, -x) on the disk, and the de
    Witt momenta p_j = -i (d_j + (d_j F)/F).  With Pi_j = p_j - A_j the
    operator is (1/2m) F^-2 sum_j Pi_j^2 f in the left ordering and
    (1/2m) F^-1 sum_j Pi_j^2 (f/F) in the symmetric one."""
    x, y, m = names["x"], names["y"], names["m"]
    if kind == "flat":
        F, A = sympy.Integer(1), (y, -x)
    elif kind == "halfplane":
        F, A = names["a"] / y, (-names["beta"] / y, 0)
    else:
        B, rho = names["B"], names["rho"]
        F, A = 1 / (1 - (x * x + y * y) / rho ** 2), (B * y, -B * x)

    def Pi(j, g):
        var = (x, y)[j]
        return (-sympy.I * (sympy.diff(g, var) + sympy.diff(F, var) / F * g)
                - A[j] * g)

    if ordering == "left":
        core = Pi(0, Pi(0, f)) + Pi(1, Pi(1, f))
        return core / (F * F * 2 * m)
    g = f / F
    return (Pi(0, Pi(0, g)) + Pi(1, Pi(1, g))) / (F * 2 * m)


def _gauge(met):
    if met.kind == "flat":
        x, y = met.ring.var("x"), met.ring.var("y")
        return geometry.GaugePotential(y, -x)
    if met.kind == "halfplane":
        return geometry.halfplane_gauge(met)
    return geometry.disk_gauge(met)


@pytest.mark.parametrize("ordering", ["left", "symmetric"])
@pytest.mark.parametrize("kind", ["flat", "halfplane", "disk"])
def test_polynomial_route_equals_rational_reference(sympy, kind, ordering):
    met = geometry.make_metric(kind)
    built = geometry.laplace_beltrami(met, _gauge(met), ordering)
    action, names, f = _action(sympy, built)
    ref = _rational_reference(sympy, kind, ordering, names, f)
    assert _same_action(sympy, action, ref)


def test_disk_compact_equals_rational_reference(sympy):
    """The compact disk form with its last term kept over the factor phi,
    (phi/2m) { -phi (f_xx + f_yy) - (4/rho^2)(x f_x + y f_y)
    + 2i phi B (y f_x - x f_y) + B^2 phi f
    - (4/rho^2)(phi + 2|w|^2/rho^2) f/phi }."""
    action, names, f = _action(sympy, models.disk_hamiltonian_compact())
    x, y, B, rho, m = (names[v] for v in ("x", "y", "B", "rho", "m"))
    phi = 1 - (x * x + y * y) / rho ** 2
    fx, fy = sympy.diff(f, x), sympy.diff(f, y)
    bracket = (-phi * (sympy.diff(f, x, 2) + sympy.diff(f, y, 2))
               - 4 / rho ** 2 * (x * fx + y * fy)
               + 2 * sympy.I * phi * B * (y * fx - x * fy)
               + B * B * phi * f
               - 4 / rho ** 2 * (phi + 2 * (x * x + y * y) / rho ** 2) / phi * f)
    assert _same_action(sympy, action, phi / (2 * m) * bracket)


@pytest.mark.parametrize("kind, param, K, point", [
    ("flat", {}, 0.0, (0.3, -1.2)),
    ("halfplane", {"a": 2.0}, -1 / 4, (0.3, 1.7)),   # -1/a^2
    ("disk", {"rho": 2.0}, -1.0, (0.4, -0.7)),       # -4/rho^2
])
def test_exact_curvature_matches_fd(kind, param, K, point):
    """For ds^2 = (dx^2 + dy^2)/u^2 the Gaussian curvature is the
    polynomial u (u_xx + u_yy) - (u_x^2 + u_y^2), here a constant; the
    stencil route gives R = 2K."""
    met = geometry.make_metric(kind, **param)
    u = met.u
    exact = (u * (u.diff("x").diff("x") + u.diff("y").diff("y"))
             - (u.diff("x") * u.diff("x") + u.diff("y") * u.diff("y")))
    assert _geometric_exponents(exact) <= {0}
    value = exact.eval({"x": point[0], "y": point[1], **param})
    assert value == pytest.approx(K, abs=1e-15)
    R = geometry.scalar_curvature_fd(met, point, 1e-3)
    assert R == pytest.approx(2.0 * K, abs=1e-5)


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


@pytest.mark.parametrize("point, step", [
    ((0.3, 1.7), 1e-9), ((0.0, 1e100), 1e85), ((0.3, 1.0), 1e-9)])
def test_curvature_step_below_the_rounding_of_ln_u_is_refused(point, step):
    # the stencil's Laplacian was its rounding noise: R came out -0.0 at
    # the first two, where it is -2, and +2.0 at the third
    with pytest.raises(UsageError, match="too small for ln u"):
        geometry.scalar_curvature_fd(_halfplane(), point, step)
    # the flat metric's ln u is exactly 0, with no rounding to refuse
    flat = geometry.make_metric("flat")
    assert geometry.scalar_curvature_fd(flat, point, step) == 0.0
    # a step well above the floor still reads R = -2 at the first point
    assert geometry.scalar_curvature_fd(_halfplane(), (0.3, 1.7), 1e-5) \
        == pytest.approx(-2.0, abs=1e-4)


def test_scalar_curvature_order_two_convergence():
    met = geometry.make_metric("halfplane", a=1.0)
    errs = []
    for step in (4e-3, 2e-3, 1e-3):
        R = geometry.scalar_curvature_fd(met, (0.0, 1.3), step)
        errs.append(abs(R + 2.0))
    # halving the step should cut the error about 4x
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


# -- every public numeric function on hostile floats --------------------------

_HOSTILE = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0, 5e-324]
_any = st.one_of(st.sampled_from(_HOSTILE), st.floats(-10.0, 10.0))
_SWEEP = settings(max_examples=60)


def _metric(kind, param):
    """make_metric's metric, or None where it raises its documented
    DomainError; the parameter is a for the half-plane, rho for the disk."""
    with _within(5):
        try:
            return geometry.make_metric(kind, a=param, rho=param)
        except DomainError:
            return None


_kinds = st.sampled_from(["flat", "halfplane", "disk"])


@_SWEEP
@given(kind=_kinds, param=_any, x=_any, y=_any)
def test_sweep_make_metric_and_inside(kind, param, x, y):
    met = _metric(kind, param)
    if met is not None:
        assert met.inside((x, y)) in (True, False)


@_SWEEP
@given(kind=_kinds, param=_any, x=_any, y=_any)
@example(kind="halfplane", param=1e308, x=1e308, y=5e-324)
def test_sweep_factor_at(kind, param, x, y):
    met = _metric(kind, param)
    if met is None:
        return
    with _within(5):
        try:
            f = met.factor_at((x, y))
        except (UsageError, OverflowError):
            return
    assert met.inside((x, y)) and 0 < f < math.inf


@_SWEEP
@given(kind=_kinds, param=_any, x=_any, y=_any, step=_any)
@example(kind="flat", param=1.0, x=1e308, y=1e308, step=5e-324)
def test_sweep_scalar_curvature_fd(kind, param, x, y, step):
    met = _metric(kind, param)
    if met is None:
        return
    with _within(5):
        try:
            R = geometry.scalar_curvature_fd(met, (x, y), step)
        except (UsageError, OverflowError):
            return
    assert math.isfinite(R)


def _halfplane(a=1.0):
    return geometry.make_metric("halfplane", a=a)


@pytest.mark.parametrize("call, error, message", [
    # step^2 underflows to 0: a bare ZeroDivisionError
    (lambda: geometry.scalar_curvature_fd(_halfplane(), (0.2, 1.4), 1e-170),
     UsageError, "step"),
    (lambda: geometry.scalar_curvature_fd(geometry.make_metric("flat"),
                                          (1e308, 1e308), 5e-324),
     UsageError, "step"),
    # y + step == y, so the stencil did not move, and e^{-2s} overflowed in
    # a bare "math range error"
    (lambda: geometry.scalar_curvature_fd(_halfplane(), (0.0, 1e308), 1e-3),
     UsageError, "step"),
    # step**2 overflows: a bare "Numerical result out of range"
    (lambda: geometry.scalar_curvature_fd(geometry.make_metric("flat"),
                                          (0.0, 0.0), 1e200),
     UsageError, "step"),
    # R = -2/a^2 = -2e320 is beyond a double: "math range error"
    (lambda: geometry.scalar_curvature_fd(_halfplane(1e-160), (0.2, 1.4), 1e-3),
     OverflowError, "scalar curvature"),
    # u = y/a underflows to 0: a bare ZeroDivisionError
    (lambda: _halfplane(1e308).factor_at((1e308, 5e-324)),
     OverflowError, "conformal factor"),
], ids=["curvature-step-underflow", "curvature-flat-step-underflow",
        "curvature-step-below-ulp", "curvature-step-overflow",
        "curvature-overflow", "factor-underflow"])
def test_sweep_findings_raise_their_documented_error(call, error, message):
    with pytest.raises(error, match=message) as caught:
        call()
    assert caught.type is error
