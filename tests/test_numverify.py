"""Finite-difference oracles: stencil application, residuals, the
Sturm-Liouville eigensolver, and quadrature norms."""

import json
import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from curvedhall import models, numverify, spectra
from curvedhall.errors import (NonNormalizableError, ResolutionError,
                               SingularityError, UsageError, check_int)
from curvedhall.geometry import GEOM, HALFPLANE_RING
from curvedhall.opalg import DiffOp


def halfplane_points(beta=5.0, n=20):
    return [{"x": 0.05 * k, "y": y, "beta": beta, "a": 1.0, "m": 1.0}
            for k, y in enumerate(np.linspace(0.1, 10.0, n))]


def psi_handle(beta, l, c):
    return lambda co: spectra.eigenfunction_halfplane(
        beta, l, c, (co["x"], co["y"]))


def test_grid_invariants():
    g = numverify.FDGrid(1e-3, 80.0, 1000)
    # the spacing the oracle solves on: nodes h k, k = 1..n, Dirichlet at 0
    assert g.h == 80.0 / 1001
    with pytest.raises(ValueError):
        numverify.FDGrid(1e-3, 80.0, 10)
    with pytest.raises(ValueError):
        numverify.FDGrid(-1.0, 80.0, 1000)
    # s_min is the excluded neighbourhood of s = 0, below the first node
    with pytest.raises(ValueError):
        numverify.FDGrid(80.0 / 1001, 80.0, 1000)
    # no spacing h of inf or nan, and an int point count: 1000.5 raised
    # a raw TypeError from range in whittaker_matrix
    for s_max, n_points in ((math.inf, 1000), (math.nan, 1000),
                            (80.0, math.nan), (80.0, 1000.5), (80.0, 1000.0),
                            (80.0, "1000")):
        with pytest.raises(UsageError):
            numverify.FDGrid(1e-3, s_max, n_points)
    # a copy is checked as the constructor is
    assert g._replace(n_points=2000) == numverify.FDGrid(1e-3, 80.0, 2000)
    with pytest.raises(ValueError):
        g._replace(n_points=10)
    with pytest.raises(ValueError):
        numverify.FDGrid._make((1e-3, 80.0, 10))


@contextmanager
def _within(seconds):
    """Fail the test once its body runs past ``seconds``, so a hang fails
    one test instead of stalling the run.  The failure carries no
    traceback: pytest cannot format the frame a signal handler raised
    from."""
    def expire(signum, frame):
        raise TimeoutError
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except TimeoutError:
        pytest.fail(f"no return within {seconds} s", pytrace=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_fd_apply_polynomial_exact():
    H = models.hamiltonian_halfplane()
    ring = H.ring
    gv = H.geom_vars
    op = DiffOp.d(ring, gv, "x") * DiffOp.d(ring, gv, "x")
    val = numverify.fd_apply(op, lambda co: co["x"] ** 2,
                             {"x": 0.3, "y": 1.0, "beta": 5.0,
                              "a": 1.0, "m": 1.0}, 1e-2)
    assert val.real == pytest.approx(2.0, abs=1e-10)
    mixed = DiffOp.d(ring, gv, "x") * DiffOp.d(ring, gv, "y")
    val = numverify.fd_apply(mixed, lambda co: co["x"] ** 2 * co["y"] ** 3,
                             {"x": 2.0, "y": 1.5, "beta": 5.0,
                              "a": 1.0, "m": 1.0}, 1e-2)
    assert val.real == pytest.approx(2 * 2.0 * 3 * 1.5 ** 2, rel=1e-9)


def test_fd_apply_coefficient_pole():
    ring = HALFPLANE_RING
    op = DiffOp.mult(ring, GEOM, -(ring.var("beta") * ring.var("y", -1)))
    with pytest.raises(SingularityError):
        numverify.fd_apply(op, lambda co: 1.0,
                           {"x": 0.0, "y": 0.0, "beta": 5.0,
                            "a": 1.0, "m": 1.0}, 1e-3)


def test_residual_eigenfunctions_pass():
    H = models.hamiltonian_halfplane()
    pts = halfplane_points()
    for l in (0, 3):
        energy = spectra.landau_halfplane(5, l).energy
        r = numverify.tuned_residual(H, psi_handle(5.0, l, 1.0), energy, pts)
        assert r <= 1e-6


def test_residual_negative_control():
    H = models.hamiltonian_halfplane()
    pts = halfplane_points()
    energy = spectra.landau_halfplane(5, 0).energy
    r = numverify.tuned_residual(H, psi_handle(5.0, 0, 1.0), energy + 1, pts)
    assert r >= 0.1


def test_tuned_residual_reads_a_generator_once():
    # the first step size used a generator up, and the other two read
    # 0.0: a wrong eigenpair (residual 0.29 here) passed as perfect
    H = models.hamiltonian_halfplane()
    pts = halfplane_points(n=5)
    energy = spectra.landau_halfplane(5, 0).energy
    psi = psi_handle(5.0, 0, 1.0)
    want = numverify.tuned_residual(H, psi, energy + 1, pts)
    assert want >= 0.1
    assert numverify.tuned_residual(H, psi, energy + 1,
                                    (p for p in pts)) == want


@pytest.mark.parametrize("points", [
    pytest.param([], id="list"), pytest.param((), id="tuple"),
    pytest.param(iter(()), id="iterator"),
])
def test_residual_rejects_an_empty_point_set(points):
    # no point left the max at 0.0, a perfect pass
    H = models.hamiltonian_halfplane()
    with pytest.raises(UsageError, match="at least one point"):
        numverify.residual_check(H, lambda co: 1.0, 1.0, points, 1e-3)
    with pytest.raises(UsageError, match="at least one point"):
        numverify.tuned_residual(H, lambda co: 1.0, 1.0, points)


def test_residual_h4_scaling():
    H = models.hamiltonian_halfplane()
    pts = halfplane_points(n=5)
    energy = spectra.landau_halfplane(5, 0).energy
    psi = psi_handle(5.0, 0, 1.0)
    r1 = numverify.residual_check(H, psi, energy, pts, 4e-2)
    r2 = numverify.residual_check(H, psi, energy, pts, 2e-2)
    r3 = numverify.residual_check(H, psi, energy, pts, 1e-2)
    assert r1 / r2 == pytest.approx(16.0, rel=0.5)
    assert r2 / r3 == pytest.approx(16.0, rel=0.5)


RESIDUAL_POINT = {"x": 0.0, "y": 1.0, "beta": 5.0, "a": 1.0, "m": 1.0,
                  "rho": 1.0}


@pytest.mark.parametrize("psi", [
    pytest.param(lambda co: math.nan, id="nan"),
    pytest.param(lambda co: math.inf, id="inf"),
    # finite at the point, inf at its stencil neighbours
    pytest.param(lambda co: 1.0 if co == {"x": 0.0, "y": 1.0} else math.inf,
                 id="inf-beside"),
])
def test_residual_rejects_a_non_finite_psi(psi):
    # a nan residual lost every max: both read 0.0, a perfect pass
    H = models.hamiltonian_halfplane()
    with pytest.raises(UsageError, match="'y': 1.0"):
        numverify.residual_check(H, psi, 1.0, [RESIDUAL_POINT], 1e-3)
    with pytest.raises(UsageError, match="'y': 1.0"):
        numverify.tuned_residual(H, psi, 1.0, [RESIDUAL_POINT])


@pytest.mark.parametrize("h", [0.0, math.inf, math.nan])
def test_fd_step_must_be_positive_and_finite(h):
    # h = 0 raised a raw ZeroDivisionError; an inf h read 0 for H psi
    H = models.hamiltonian_halfplane()
    with pytest.raises(UsageError, match="h must be positive and finite"):
        numverify.fd_apply(H, lambda co: 1.0, RESIDUAL_POINT, h)
    with pytest.raises(UsageError, match="h must be positive and finite"):
        numverify.residual_check(H, lambda co: 1.0, 1.0, [RESIDUAL_POINT], h)


@pytest.mark.parametrize("energy", [math.nan, math.inf])
def test_residual_rejects_a_non_finite_energy(energy):
    H = models.hamiltonian_halfplane()
    with pytest.raises(UsageError, match="energy"):
        numverify.residual_check(H, lambda co: 1.0, energy, [RESIDUAL_POINT],
                                 1e-3)


def test_tridiag_closed_form():
    n = 120
    eigs = numverify.tridiag_eigs([2.0] * n, [-1.0] * (n - 1), 4)
    for j, v in enumerate(eigs, start=1):
        assert v == pytest.approx(2 - 2 * math.cos(j * math.pi / (n + 1)),
                                  abs=1e-11)


@pytest.mark.parametrize("d, sizes", [(0.0, range(2, 12)), (1.0, range(2, 8))])
def test_tridiag_zero_pivots_against_closed_form(d, sizes):
    # with d = 0 the first bisection midpoint of [-2, 2] is 0.0, where a
    # pivot is exactly zero; moving it to +1e-300 instead of -1e-300 gave
    # [-1, -4.5e-13] for n = 2, whose eigenvalues are +-1
    for n in sizes:
        want = sorted(d + 2.0 * math.cos(j * math.pi / (n + 1))
                      for j in range(1, n + 1))
        got = numverify.tridiag_eigs([d] * n, [1.0] * (n - 1), n)
        assert got == pytest.approx(want, rel=0, abs=1e-9), n


def oracle_matrix(beta, n):
    """The symmetrized Whittaker matrix ``whittaker_oracle`` solves, built
    with the same float operations (entries reach ~1e9, so a reordered
    expression moves mu by ~1e-9)."""
    h = numverify.FDGrid(1e-3, 80.0, n).h
    s = h * np.arange(1, n + 1)
    inv_h2 = 1.0 / (h * h)
    return (s * s * (2.0 * inv_h2 + 0.25) - beta * s,
            -(s[:-1] * s[1:]) * inv_h2)


def closed_form_mu(beta, levels, first=0):
    """The half-plane closed form mu_l = 1/4 - (beta - l - 1/2)^2 for
    ``levels`` levels from l = first."""
    return [0.25 - (beta - l - 0.5) ** 2
            for l in range(first, first + levels)]


def h4_term(beta, l):
    """D_l of the seed in exact rationals: the second-order closed form
    at al = 2 beta - 2 l - 1 > 4 or al = 3
    (``test_lattice_h4_term_is_the_second_order_reduction`` derives it
    from the moments), the fitted cubic in beta at al = 1, and 0 for the
    other al."""
    al, b = Fraction(2 * beta - 2 * l - 1), Fraction(beta)
    if al == 1:
        return (Fraction("2.6155e-3") * b ** 3 - Fraction("9.138e-4") * b ** 2
                - Fraction("3.19e-4") * b + Fraction("1.16e-4"))
    if not (al > 4 or al == 3):
        return Fraction(0)
    L, m = l * (l + 1), 2 * l + 1
    num = (2 * m * (L + 1) * al ** 7 + 2 * (L * L + 6 * L + 2) * al ** 6
           - 15 * m * (4 * L + 5) * al ** 5
           - 3 * (28 * L * L + 228 * L + 101) * al ** 4
           + 6 * m * (31 * L - 9) * al ** 3
           + 18 * (37 * L * L + 182 * L + 74) * al ** 2
           + 8 * m * (119 * L + 269) * al - 8 * (73 * L * L - 282 * L - 124))
    return -num / (4096 * (al ** 2 - 16) * (al ** 2 - 4) ** 3)


def log_term(beta, l, h):
    """(A_l + B_l ln h) h^2 of the al = 2 level, B_l = 3(l+1)(l+2)/128 and
    A_l the fitted B_l (ln beta - 3.821 + 2.545/beta - 0.989/beta^2); 0
    at any other al."""
    if 2 * beta - 2 * l - 1 != 2:
        return 0.0
    b = 3 * (l + 1) * (l + 2) / 128
    a = b * (math.log(beta) - 3.821 + 2.545 / beta - 0.989 / beta ** 2)
    return (a + b * math.log(h)) * h * h


def lattice_mu(beta, levels, h):
    """The seed ``whittaker_oracle`` gives the eigen-solve: the closed form
    plus C_l h^2 where al = 2 beta - 2 l - 1 > 2 or al = 1, with C_l taken
    from the perturbation formula over the Laguerre moments, not from its
    reduced form (``test_lattice_term_is_the_moment_reduction`` derives
    both), plus the fitted beta^2/64 h^3 at al = 1, D_l h^4 (``h4_term``)
    and the al = 2 level's log term (``log_term``).  The moments' pole
    at al = 1 is cancelled by hand: m M_-2 = -M_1 / (4 al), and
    m^2 M_-3 = 0 there."""
    out = []
    for l, mu in enumerate(closed_form_mu(beta, levels)):
        al = Fraction(2 * beta - 2 * l - 1)
        if al > 2 or al == 1:
            b, m = (al + 2 * l + 1) / 2, (1 - al * al) / 4
            m1, m0, mm1 = 2 * l + al + 1, 1, 1 / al
            m_mm2 = -m1 / (4 * al)
            mm3 = ((al * al + (6 * l + 3) * al + 6 * l * l + 6 * l + 2)
                   / ((al - 2) * (al - 1) * al * (al + 1) * (al + 2))
                   if al != 1 else 0)
            phi2 = (m1 / 16 + b * b * mm1 + m * m * mm3 - b / 2 * m0
                    - m / 2 * mm1 + 2 * b * m_mm2)
            mu += float(-phi2 / (12 * mm1)) * h * h
            if al == 1:
                mu += beta * beta / 64 * h * h * h
        out.append(mu + float(h4_term(beta, l)) * h ** 4
                   + log_term(beta, l, h))
    return out


@pytest.fixture
def golden_mu(golden):
    """``golden_mu(beta, n)``: the oracle's mu at cell (beta, n) as
    ``bench/golden.json`` records it."""
    return lambda beta, n: golden["oracle_mu"][f"{beta!r}:{n}"]


@pytest.mark.parametrize("n", [4000, 8000, 16000])
@pytest.mark.parametrize("beta", [2.5, 5.0, 8.0])
def test_oracle_matrix_bit_equal_to_numpy_expression(beta, n, monkeypatch):
    # the benchmark's nine oracle cells: the pure-Python build hands the
    # eigen-solve the very floats the numpy expression gives
    seen = {}

    def capture(diag, off, k, guess=()):
        seen["diag"], seen["off"] = diag, off
        return [0.0] * k
    monkeypatch.setattr(numverify, "tridiag_eigs", capture)
    numverify.whittaker_oracle(beta, numverify.FDGrid(1e-3, 80.0, n), 1)
    diag, off = oracle_matrix(beta, n)
    assert [v.hex() for v in seen["diag"]] == [v.hex() for v in diag.tolist()]
    assert [v.hex() for v in seen["off"]] == [v.hex() for v in off.tolist()]


@pytest.mark.parametrize("s_min, s_max", [(1e-3, 1e300), (1e-300, 1e-200)])
def test_oracle_rejects_non_finite_matrix(s_min, s_max, monkeypatch):
    # 1e300: h^2 overflows, so 1/h^2 = 0 and the entries are inf or nan;
    # 1e-200: h^2 underflows to 0 and 1/h^2 would divide by zero
    def no_solve(*args, **kwargs):
        raise AssertionError("eigen-solve reached")
    monkeypatch.setattr(numverify, "tridiag_eigs", no_solve)
    with pytest.raises(UsageError):
        numverify.whittaker_oracle(5.0, numverify.FDGrid(s_min, s_max, 1000), 1)


def full_sturm_count(d, e2, x):
    """Reference: the LDL^T pivot recursion over every row."""
    count, q = 0, 1.0
    for i in range(len(d)):
        q = d[i] - x - (e2[i - 1] / q if i else 0.0)
        q = -1e-300 if q == 0.0 else q
        count += q < 0.0
    return count


@pytest.mark.parametrize("beta", [2.5, 5.0, 8.0, None])
def test_sturm_count_matches_full_recurrence(beta):
    # beta=None is the [2, -1] Laplacian; the count and the slope's count
    # agree with the reference at random shifts, beside each eigenvalue
    # and below the whole spectrum
    if beta is None:
        n = 300
        diag, off = [2.0] * n, [-1.0] * (n - 1)
        eigs = [2 - 2 * math.cos(j * math.pi / (n + 1)) for j in (1, 2, 150)]
        top = 4.0
    else:
        diag, off = oracle_matrix(beta, 4000)
        eigs = numverify.tridiag_eigs(
            diag, off, spectra.halfplane_level_count(beta))
        top = 1.0  # above every bound level, all below mu = 1/4
    d = [float(v) for v in diag]
    ae = [abs(float(v)) for v in off]
    e2 = [v * v for v in ae]
    # the lowest Gershgorin bound
    lo = min(di - (l + r) for di, l, r in zip(d, [0.0] + ae, ae + [0.0]))
    rng = random.Random(f"sturm:{beta}")
    shifts = [rng.uniform(lo, top) for _ in range(40)]
    shifts += [v + dv for v in eigs for dv in (-1e-10, 0.0, 1e-10)]
    shifts += [lo - 1.0, lo]
    for x in shifts:
        want = full_sturm_count(d, e2, x)
        assert numverify._sturm_count(d, e2, x) == want, x
        assert numverify._sturm_slope(d, e2, x)[0] == want, x
    assert numverify._sturm_count(d, e2, lo - 1.0) == 0


@pytest.mark.parametrize("n", [4000, 8000, 16000])
@pytest.mark.parametrize("beta", [2.5, 5.0, 8.0])
def test_oracle_matches_lapack_bisection(beta, n):
    linalg = pytest.importorskip("scipy.linalg")
    levels = spectra.halfplane_level_count(beta)
    diag, off = oracle_matrix(beta, n)
    # dstebz to 1e-14; the default driver is off by up to 9e-8 here
    ref = linalg.eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                  select_range=(0, levels - 1),
                                  lapack_driver="stebz", tol=1e-14)
    spec = numverify.whittaker_oracle(beta, numverify.FDGrid(1e-3, 80.0, n),
                                      levels)
    assert max(abs(a - b) for a, b in zip(spec.mu, ref)) <= 1e-9


def oracle_floats(beta, n):
    diag, off = oracle_matrix(beta, n)
    d = [float(v) for v in diag]
    ae = [abs(float(v)) for v in off]
    return d, ae, [v * v for v in ae]


def log_abs_det(d, e2, x):
    """Reference: sum of log|q_i| over the LDL^T pivots of T - x."""
    logs, q = [], 1.0
    for i in range(len(d)):
        q = d[i] - x - (e2[i - 1] / q if i else 0.0)
        logs.append(math.log(abs(q)))
    return math.fsum(logs)


def test_sturm_slope_is_count_and_log_det_derivative():
    d, ae, e2 = oracle_floats(5.0, 4000)
    eigs = numverify.tridiag_eigs(d, ae, 5)
    # the count agrees everywhere, on an eigenvalue's either side too
    for x in [v + dv for v in eigs for dv in (-1e-10, 0.0, 1e-10)]:
        assert numverify._sturm_slope(d, e2, x)[0] \
            == full_sturm_count(d, e2, x), x
    # the slope matches a central difference away from the eigenvalues
    shifts = [0.5 * (u + v) for u, v in zip(eigs, eigs[1:])] + [eigs[0] - 1]
    h = 1e-4
    for x in shifts:
        count, slope = numverify._sturm_slope(d, e2, x)
        assert count == full_sturm_count(d, e2, x)
        fd = (log_abs_det(d, e2, x + h) - log_abs_det(d, e2, x - h)) / (2 * h)
        assert slope == pytest.approx(fd, rel=1e-6), x


def _taken_slope(slope, d, e2, x):
    """The slope half of a recorded fused pass: ``slope(d, e2, x)`` runs
    only when the solver unpacks it, so a recorder sees the slope at x
    where the solver takes that step, and not at all when it drops it."""
    yield from slope(d, e2, x)


def _patch_sturm(monkeypatch, count=None, slope=None):
    """Replace ``_sturm_count`` and ``_sturm_slope`` by ``count`` and
    ``slope`` (the module's own when None), and ``_sturm_count_slope`` by
    the two: ``count`` at y at once, then ``slope`` at x when the solver
    takes that step.  The ``test_sturm_count_slope_is_the_two_passes_*``
    tests check that the fused pass is those two, bit for bit."""
    count = count or numverify._sturm_count
    slope = slope or numverify._sturm_slope
    monkeypatch.setattr(numverify, "_sturm_count", count)
    monkeypatch.setattr(numverify, "_sturm_slope", slope)
    monkeypatch.setattr(numverify, "_sturm_count_slope",
                        lambda d, e2, y, x: (count(d, e2, y),
                                             _taken_slope(slope, d, e2, x)))


def test_tridiag_repeated_eigenvalue_bisects(monkeypatch):
    # no bracket ever holds one of the five 1s alone, so no level is
    # isolated and none may take the Newton path
    def no_newton(*args):
        raise AssertionError("Newton walk on a level that is not isolated")
    _patch_sturm(monkeypatch, slope=no_newton)
    eigs = numverify.tridiag_eigs([1.0] * 5 + [2.0], [0.0] * 5, 6)
    assert eigs == pytest.approx([1.0] * 5 + [2.0], abs=1e-11)


def test_tridiag_wrong_slope_fails_certificate(monkeypatch):
    # a slope of 1e300 makes every walk stop at once at its bracket's
    # midpoint; the certificate must reject that point and bisection finish
    walked, shifts = [], []
    slope, count = numverify._sturm_slope, numverify._sturm_count

    def wrong_slope(d, e2, x):
        walked.append(x)
        return slope(d, e2, x)[0], 1e300

    def recorded_count(d, e2, x):
        shifts.append(x)
        return count(d, e2, x)
    _patch_sturm(monkeypatch, count=recorded_count, slope=wrong_slope)
    n = 120
    eigs = numverify.tridiag_eigs([2.0] * n, [-1.0] * (n - 1), 4)
    for j, v in enumerate(eigs, start=1):
        assert v == pytest.approx(2 - 2 * math.cos(j * math.pi / (n + 1)),
                                  abs=1e-11)
    assert len(walked) == 4
    for x in walked:
        assert x not in eigs
        # a certificate count was taken beside the rejected point
        assert x - 1e-9 in shifts or x + 1e-9 in shifts


def test_tridiag_non_finite_slope_bisects(monkeypatch):
    # a walk whose slope is nan gives up on its first step; bisection
    # must still certify every level
    diag, off = oracle_matrix(5.0, 1000)
    want = numverify.tridiag_eigs(diag, off, 5)
    walked = []
    slope = numverify._sturm_slope

    def nan_slope(d, e2, x):
        walked.append(x)
        return slope(d, e2, x)[0], math.nan
    _patch_sturm(monkeypatch, slope=nan_slope)
    got = numverify.tridiag_eigs(diag, off, 5)
    assert len(walked) == 5
    assert got == pytest.approx(want, rel=0, abs=1e-9)


@pytest.mark.parametrize("diag, offdiag, k, message", [
    ([1.0, 2.0], [], 1, "offdiag must have length n-1"),
    ([1.0, 2.0], [0.0, 0.0], 1, "offdiag must have length n-1"),
    ([1.0, 2.0], [0.0], 0, "need 1 <= k <= n"),
    ([1.0, 2.0], [0.0], 3, "need 1 <= k <= n"),
])
def test_tridiag_rejects_bad_shape(diag, offdiag, k, message):
    with pytest.raises(ValueError, match=message):
        numverify.tridiag_eigs(diag, offdiag, k)


@pytest.mark.parametrize("diag, offdiag", [
    # a nan or inf e_i made both bracket ends nan or inf, and every
    # bisection midpoint nan: these hung
    ([0.0, 1.0, 2.0], [math.nan, 1.0]),
    ([0.0, 1.0, 2.0], [math.inf, 1.0]),
    # the midpoint's a + b overflowed to inf: hung
    ([0.0, 1e308, 2.0], [1.0, 1.0]),
    # e_i^2 = inf: returned [-2e200, 2e200, 2e200]
    ([0.0, 1.0, 2.0], [1e200, 1e200]),
    # returned [-1.1e-13, 4.0, 4.0], [inf, inf, inf] and [nan]
    ([0.0, math.nan, 2.0], [1.0, 1.0]),
    ([0.0, math.inf, 2.0], [1.0, 1.0]),
    ([math.nan], []),
])
def test_tridiag_rejects_non_finite_or_overflowing_input(diag, offdiag):
    with _within(5), pytest.raises(UsageError):
        numverify.tridiag_eigs(diag, offdiag, len(diag))


def test_tridiag_accepts_finite_entries_whose_sum_overflows():
    # sum(d) is inf, but every entry and the bracket are finite
    n = 2000
    eigs = numverify.tridiag_eigs([1e305] * n, [1.0] * (n - 1), 1)
    assert eigs == [pytest.approx(1e305, rel=1e-15)]


def test_tridiag_work_bound(monkeypatch):
    # guards against a silent fallback to bisection on every level, which
    # takes ~44 counts per level here
    calls = {"count": 0, "slope": 0}
    slope, count = numverify._sturm_slope, numverify._sturm_count

    def counted_slope(*args):
        calls["slope"] += 1
        return slope(*args)

    def counted_count(*args):
        calls["count"] += 1
        return count(*args)
    _patch_sturm(monkeypatch, count=counted_count, slope=counted_slope)
    levels = spectra.halfplane_level_count(8.0)
    numverify.whittaker_oracle(8.0, numverify.FDGrid(1e-3, 80.0, 4000), levels)
    # measured: 8 counts and 9 walks over the 8 levels with each walk
    # started at its lattice seed: one each for levels 0..6, and two for
    # level 7 (al = 1), whose O(h^5) rest, 1.8e-9, exceeds the 1e-9 stop.
    # Without the D_l h^4 term it took 12 walks, the closed form alone 22,
    # seed counts at g -/+ 5e-3 before the walk 24, no seed 92
    assert calls["count"] <= levels
    assert calls["slope"] <= 9


def test_newton_walk_ends_on_the_rounding_floor(monkeypatch):
    # level 0 of beta = 20, n = 16000, s_max = 120 sits where eps |d_i| is
    # ~1e-8: its walk alternated about the root for all 8 steps, failed
    # and walked once more from the bisected bracket, 9 steps in all.  A
    # step under 1e-6 that turns back without halving the last one ends
    # the walk at 3
    calls = []
    slope = numverify._sturm_slope

    def counted_slope(*args):
        calls.append(args[2])
        return slope(*args)
    _patch_sturm(monkeypatch, slope=counted_slope)
    spec = numverify.whittaker_oracle(
        20.0, numverify.FDGrid(1e-3, 120.0, 16000), 1)
    assert len(calls) <= 4
    assert spec.mu[0] == pytest.approx(0.25 - 19.5 ** 2, abs=1e-3)


def test_tridiag_right_prediction_takes_no_bisection(monkeypatch):
    # at beta = 8 the lattice seed, with its h^3 term at l = 7 (al = 1),
    # lands within 5e-3 of every level, and
    # level j's Newton walk starts at its seed g before any count: its
    # first Sturm work is a walk at exactly g, and its counts are only
    # certificate counts at mu_j -/+ 1e-9, one per level here
    work, seeds = [], []
    slope, count = numverify._sturm_slope, numverify._sturm_count
    solve = numverify.tridiag_eigs

    def recorded_solve(*args, guess=(), **kwargs):
        seeds.extend(guess)
        return solve(*args, guess=guess, **kwargs)

    def recorded_slope(d, e2, x):
        work.append(("walk", x))
        return slope(d, e2, x)

    def recorded_count(d, e2, x):
        work.append(("count", x))
        return count(d, e2, x)
    _patch_sturm(monkeypatch, count=recorded_count, slope=recorded_slope)
    monkeypatch.setattr(numverify, "tridiag_eigs", recorded_solve)
    levels = spectra.halfplane_level_count(8.0)
    grid = numverify.FDGrid(1e-3, 80.0, 4000)
    mu = numverify.whittaker_oracle(8.0, grid, levels).mu
    assert seeds == pytest.approx(lattice_mu(8.0, levels, grid.h), rel=1e-14)
    starts = [work.index(("walk", g)) for g in seeds]
    assert starts[0] == 0
    for j, g in enumerate(seeds):
        assert abs(mu[j] - g) < 5e-3, j
        level_work = work[starts[j]:starts[j + 1] if j + 1 < levels else None]
        shifts = [x for kind, x in level_work if kind == "count"]
        assert len(shifts) == 1, (j, shifts)
        assert set(shifts) <= {mu[j] - 1e-9, mu[j] + 1e-9}, (j, shifts)
    assert sum(kind == "count" for kind, _ in work) == 8


BETA8_LEVELS = spectra.halfplane_level_count(8.0)


@pytest.mark.parametrize("guess", [
    *(pytest.param([g + shift for g in closed_form_mu(8.0, BETA8_LEVELS)],
                   id=str(shift))
      for shift in (0.3, -0.3, 1e3, -1e3, math.nan)),
    # every level seeded with the closed form of its neighbour above or
    # below: a walk that reaches the neighbour's root fails its certificate
    pytest.param(closed_form_mu(8.0, BETA8_LEVELS, first=1), id="level+1"),
    pytest.param(closed_form_mu(8.0, BETA8_LEVELS, first=-1), id="level-1"),
])
def test_tridiag_wrong_seed_keeps_the_root(guess, golden_mu):
    # a seed only decides where a level's walk starts: shifted inside the
    # brackets, past both ends of the spectrum, nan or a neighbour's, it
    # must not move a level off the bench's recorded mu
    grid = numverify.FDGrid(1e-3, 80.0, 4000)
    got = numverify.tridiag_eigs(*numverify.whittaker_matrix(8.0, grid),
                                 BETA8_LEVELS, guess=guess)
    assert got == pytest.approx(golden_mu(8.0, 4000), rel=0, abs=1e-9)


def test_oracle_seeds_only_the_bound_window(monkeypatch):
    # beta = 5 binds l = 0..4: l = 5 gets no seed, so no walk starts at
    # its closed form mu = 0, and l = 4 (al = 1), whose closed form is 0
    # too, starts one walk at its lattice seed 5/32 h^2 + 25/64 h^3 + D h^4
    seeds, walks = [], []
    solve, slope = numverify.tridiag_eigs, numverify._sturm_slope

    def recorded_solve(*args, guess=(), **kwargs):
        seeds.append(list(guess))
        return solve(*args, guess=guess, **kwargs)

    def recorded_slope(d, e2, x):
        walks.append(x)
        return slope(d, e2, x)
    monkeypatch.setattr(numverify, "tridiag_eigs", recorded_solve)
    _patch_sturm(monkeypatch, slope=recorded_slope)
    with pytest.raises(ResolutionError):
        numverify.whittaker_oracle(5.0, numverify.FDGrid(1e-3, 80.0, 400), 6)
    h = 80.0 / 401
    assert seeds == [pytest.approx(lattice_mu(5.0, 5, h), rel=1e-14)]
    assert seeds[0][4] == pytest.approx(
        5 / 32 * h ** 2 + 25 / 64 * h ** 3 + float(h4_term(5, 4)) * h ** 4,
        rel=1e-14)
    assert walks.count(seeds[0][4]) == 1
    assert walks.count(0.0) == 0


def test_lattice_term_is_the_moment_reduction():
    """C_l, ``lattice_model``'s c2, is the first-order eigenvalue shift of the
    central difference, derived here for l = 0..5 in exact rational
    functions of al = 2 nu:

    1. The stencil adds -(h^2/12) phi'''' to -phi'', so
       delta mu = -(h^2/12) int (phi'')^2 / int phi^2/s^2, with no boundary
       term at s = 0 for nu > 1.
    2. The ODE gives phi'' = (1/4 - beta/s - mu/s^2) phi, with
       beta = (al + 2l + 1)/2 and mu = (1 - al^2)/4.
    3. phi^2 = s^{al+1} e^{-s} L_l^(al)(s)^2, so both integrals are sums of
       M_q = int s^{al+q} e^{-s} L^2 ds over Gamma(l+al+1)/l!.  Each M_q is
       built from the coefficients of L_l^(al) and
       int s^{al+p} e^{-s} ds = Gamma(al+p+1), a rising factorial over
       Gamma(l+al+1), and must equal the closed forms ``lattice_model``
       lists.
    4. The ratio must equal the reduced C_l, and ``lattice_model`` must
       evaluate it.
    """
    sympy = pytest.importorskip("sympy")
    K, al = sympy.field("al", sympy.QQ)

    def rising(x, k):
        out = K.one
        for i in range(k):
            out *= x + i
        return out

    for l in range(6):
        # L_l^(al)(s) = sum_k (-1)^k rising(al + k + 1, l - k) s^k / ((l-k)! k!)
        c = [(-1) ** k * rising(al + k + 1, l - k)
             / (math.factorial(l - k) * math.factorial(k))
             for k in range(l + 1)]

        def moment(q):
            tot = K.zero
            for i, ci in enumerate(c):
                for j, cj in enumerate(c):
                    p = q + i + j - l    # Gamma(al+q+i+j+1) / Gamma(al+l+1)
                    tot += ci * cj * (rising(al + l + 1, p) if p >= 0
                                      else 1 / rising(al + l + 1 + p, -p))
            return tot * math.factorial(l)

        M = {q: moment(q) for q in (1, 0, -1, -2, -3)}
        assert M == {
            1: 2 * l + al + 1, 0: K.one, -1: 1 / al,
            -2: (2 * l + al + 1) / ((al - 1) * al * (al + 1)),
            -3: (al ** 2 + (6 * l + 3) * al + 6 * l ** 2 + 6 * l + 2)
            / ((al - 2) * (al - 1) * al * (al + 1) * (al + 2))}, l
        b, m = (al + 2 * l + 1) / 2, (1 - al ** 2) / 4
        phi2 = (M[1] / 16 + b ** 2 * M[-1] + m ** 2 * M[-3] - b / 2 * M[0]
                - m / 2 * M[-1] + 2 * b * m * M[-2])
        L = l * (l + 1)
        reduced = (-((2 * L + 1) * al ** 2 + 3 * (2 * l + 1) * al + 2 - 2 * L)
                   / (64 * (al - 2) * (al + 2)))
        assert -phi2 / (12 * M[-1]) == reduced, l
        for beta in (l + 2, l + 2.75, l + 7.5, l + 40):
            x = sympy.Rational(Fraction(2 * beta - 2 * l - 1))
            want = reduced.numer(x) / reduced.denom(x)
            assert numverify.lattice_model(beta, l).c2 == pytest.approx(
                float(want), rel=1e-14)
        # al = 1: the (al-1) of M_-2 and M_-3 cancels in the reduced form,
        # whose value there is (l+1)/32
        assert reduced.numer(1) / reduced.denom(1) == sympy.Rational(l + 1, 32)
        assert numverify.lattice_model(l + 1, l).c2 == (l + 1) / 32, l
    assert numverify.lattice_model(5.0, 4).c2 == 5 / 32
    # no h^2 term for the other al <= 2
    assert numverify.lattice_model(2.5, 1).c2 == 0.0
    assert numverify.lattice_model(1.25, 0).c2 == 0.0




def test_lattice_h4_term_is_the_second_order_reduction():
    """D_l, ``lattice_model``'s c4, is the second-order eigenvalue shift of
    the central difference, derived here for l = 0..4 in exact rational
    functions of al, with phi = s^P e^{-s/2} f(s), P = (al+1)/2, held as
    the Laurent polynomial f:

    1. phi_2 = part - (beta/32) d(phi)/d(nu), part = a phi + b phi' with
       the a and b of the docstring: L part must equal
       (1/12) phi'''' + C_l phi/s^2 + (beta/32)(1/s - al/s^2) phi, and
       L d(phi)/d(nu) = (1/s - al/s^2) phi takes the last term back.
    2. D_l int phi^2/s^2 = (1/360) int (phi''')^2 - <phi_2, L phi_2>.  By
       parts, <d(phi)/d(nu), L phi_2> is
       <(1/s - al/s^2) phi, part> - (beta/32) int phi^2/s^2, since the
       nu-derivative of int (1/s - al/s^2) phi^2 at fixed al is
       2 int phi^2/s^2.
    3. Each integral is a sum of int s^(al+1+j) e^-s ds = Gamma(al+2+j),
       taken over Gamma(al+1); the result must equal the closed form
       (``h4_term``), and ``lattice_model``'s c4 must evaluate it.
    """
    sympy = pytest.importorskip("sympy")
    K, al = sympy.field("al", sympy.QQ)

    def rising(x, k):
        out = K.one
        for i in range(k):
            out *= x + i
        return out

    def add(*ps):
        out = {}
        for p in ps:
            for k, v in p.items():
                out[k] = out.get(k, K.zero) + v
        return {k: v for k, v in out.items() if v != 0}

    def mul(p, q):
        return add(*({i + j: a * b} for i, a in p.items()
                     for j, b in q.items()))

    def diff(p):
        return {k - 1: v * k for k, v in p.items() if k != 0}

    def d(f):
        # d/ds (s^P e^{-s/2} f) = s^P e^{-s/2} ((P/s - 1/2) f + f')
        return add(mul({-1: (al + 1) / 2, 0: K(-1) / 2}, f), diff(f))

    def integral(f, g):
        # int s^(al+1) e^-s f g ds / Gamma(al+1)
        return sum((v * (rising(al + 1, j + 1) if j >= -1
                         else 1 / rising(al + 2 + j, -1 - j))
                    for j, v in mul(f, g).items()), K.zero)

    minus = {0: -K.one}
    for l in range(5):
        phi = {k: (-1) ** k * rising(al + k + 1, l - k)
               / (math.factorial(l - k) * math.factorial(k))
               for k in range(l + 1)}
        beta, mu = (al + 2 * l + 1) / 2, (1 - al * al) / 4
        L = l * (l + 1)
        c = (-((2 * L + 1) * al ** 2 + 3 * (2 * l + 1) * al + 2 - 2 * L)
             / (64 * (al - 2) * (al + 2)))
        u = {0: K.one / 4, -1: -beta, -2: -mu}
        d1 = d(phi)
        d3 = d(d(d1))
        assert add(d(d1), mul(minus, mul(u, phi))) == {}, l
        f = add(mul({0: K.one / 12}, d(d3)), mul({-2: c}, phi))
        b_m1 = -mu * mu / (12 * (3 + 4 * mu))
        b_0 = -beta * (mu / 6 + 3 * b_m1) / (2 * mu)
        b = {1: K(-1) / 96, 0: b_0, -1: b_m1}
        a = add(mul({0: K(-1) / 12}, u), mul({0: K(-1) / 2}, diff(b)))
        part = add(mul(a, phi), mul(b, d1))
        slope = {-1: K.one, -2: -al}
        # step 1, with L = -d^2 + u
        assert add(mul(minus, d(d(part))), mul(u, part), mul(minus, f),
                   mul({0: -beta / 32}, mul(slope, phi))) == {}, l
        w = integral(phi, mul({-2: K.one}, phi))
        inner = (integral(part, f) - beta / 32
                 * (integral(mul(slope, phi), part) - beta / 32 * w))
        got = (integral(d3, d3) / 360 - inner) / w
        for x in (Fraction(3), Fraction(9, 2), Fraction(7), Fraction(81, 5)):
            b_x = (x + 2 * l + 1) / 2
            want = h4_term(b_x, l)
            assert got.numer(sympy.Rational(x)) / got.denom(
                sympy.Rational(x)) == sympy.Rational(want), (l, x)
            assert numverify.lattice_model(float(b_x), l).c4 \
                == pytest.approx(float(want), rel=1e-13), (l, x)


@pytest.mark.parametrize("beta, l, want", [
    (2.5, 1, 18 / 128), (1.5, 0, 6 / 128), (6.5, 5, 126 / 128),
    (2.5, 0, 0.0), (5.0, 4, 0.0), (7.3, 5, 0.0),
])
def test_lattice_log_term_is_the_al_two_level_only(beta, l, want):
    # B_l = 3 (l+1)(l+2)/128 at al = 2, and no log term at any other al
    model = numverify.lattice_model(beta, l)
    a, b = model.log_a, model.log_b
    assert b == want
    assert a == pytest.approx(log_term(beta, l, 1.0), rel=1e-14)


@pytest.mark.parametrize("beta, l, message", [
    (math.nan, 0, "beta must be finite"),
    (math.inf, 0, "beta must be finite"),
    (5.0, -1, "l must be >= 0"),
    (5.0, 2.5, "l must be an int"),
])
def test_lattice_term_rejects_bad_input(beta, l, message):
    # the h^2 term C_l is the model's c2; each has no level l, so any
    # number it gave would be a silent answer
    with pytest.raises(UsageError, match=message):
        numverify.lattice_model(beta, l).c2


SEED_TERMS = {
    "lattice_h4_term": lambda model: model.c4,
    "lattice_log_term": lambda model: (model.log_a, model.log_b),
}


@pytest.mark.parametrize("beta, l, message", [
    (math.nan, 0, "beta must be finite"),
    (math.inf, 0, "beta must be finite"),
    (5.0, -1, "l must be >= 0"),
    (5.0, 2.5, "l must be an int"),
    (5.0, True, "l must be an int"),
])
@pytest.mark.parametrize("term", sorted(SEED_TERMS))
def test_seed_terms_reject_bad_input(term, beta, l, message):
    # the h^4 term D_l and the al = 2 log term (A_l, B_l) of the model
    with pytest.raises(UsageError, match=message):
        SEED_TERMS[term](numverify.lattice_model(beta, l))


@pytest.mark.parametrize("beta, l, message", [
    # past the window the closed form turns back down: no level l
    (5.0, 5, "outside the window"),
    (2.5, 2, "outside the window"),
    # the old terms raised OverflowError: int too large to convert
    pytest.param(5.0, 10 ** 400, "outside the window",
                 id="5.0-10**400-outside the window"),
])
def test_lattice_model_rejects_bad_input(beta, l, message):
    # each has no level l, so any number it gave would be a silent answer
    with pytest.raises(UsageError, match=message):
        numverify.lattice_model(beta, l)


def test_lattice_model_of_a_huge_level_gives_nan_terms():
    # the old C_l multiplied the int L = l(l+1) ~ 1e600 by a float, an
    # OverflowError; in floats the terms are nan and the closed form -inf
    model = numverify.lattice_model(1e300, 10 ** 299)
    assert model.mu == -math.inf
    assert math.isnan(model.c2) and math.isnan(model.c4)
    assert (model.c3, model.log_a, model.log_b) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("beta, s_max, ns", [
    (6.0, 80.0, (4000, 8000)),
    (6.5, 80.0, (4000, 8000)),
    (7.3, 80.0, (4000, 8000)),
    # at s_max = 80 the wall raises levels 2..11 by 3e-9 to 2e-7, which
    # no lattice term models; at 96 by at most 6e-12.  At n = 4000 the
    # O(h^5) rests of the top two levels, 1.6e-9 and 1.2e-8, exceed the
    # walk's 1e-9 stop, and at n = 16000 the rounding of entries up to
    # s_max^2/h^2 ~ 3e8 moves the walk's steps by about as much
    (12.0, 96.0, (8000,)),
])
def test_h4_seed_on_cells_outside_the_bench(monkeypatch, beta, s_max, ns):
    # each level with an h^4 term (al = 1, 3 or above 4) takes one walk
    # and at most one certificate count; the al = 2 level of beta = 6.5
    # at most two walks, as its O(h^3 ln h) rest exceeds 1e-9
    work, seeds = [], []
    slope, count = numverify._sturm_slope, numverify._sturm_count
    solve = numverify.tridiag_eigs

    def recorded_solve(*args, guess=(), **kwargs):
        seeds[:] = guess
        return solve(*args, guess=guess, **kwargs)

    def recorded_slope(d, e2, x):
        work.append(("walk", x))
        return slope(d, e2, x)

    def recorded_count(d, e2, x):
        work.append(("count", x))
        return count(d, e2, x)
    _patch_sturm(monkeypatch, count=recorded_count, slope=recorded_slope)
    monkeypatch.setattr(numverify, "tridiag_eigs", recorded_solve)
    levels = spectra.halfplane_level_count(beta)
    checked = set()
    for n in ns:
        work.clear()
        numverify.whittaker_oracle(beta, numverify.FDGrid(1e-3, s_max, n),
                                   levels)
        starts = [work.index(("walk", g)) for g in seeds] + [len(work)]
        for l in range(len(seeds)):
            kinds = [k for k, _ in work[starts[l]:starts[l + 1]]]
            al = 2 * beta - 2 * l - 1
            if al in (1.0, 3.0) or al > 4:
                assert kinds.count("walk") == 1, (n, l, kinds)
                assert kinds.count("count") <= 1, (n, l, kinds)
                checked.add(l)
            elif al == 2.0:
                assert kinds.count("walk") <= 2, (n, l, kinds)
                checked.add(l)
    assert checked


def test_lattice_seed_on_the_bench_cells(monkeypatch, golden_mu):
    # the benchmark's nine cells: the lattice seed keeps every mu on the
    # recorded value and saves walks, 112 at the closed-form seed, while
    # each level still takes its one certificate count
    calls = {"count": 0, "slope": 0}
    slope, count = numverify._sturm_slope, numverify._sturm_count

    def counted_slope(*args):
        calls["slope"] += 1
        return slope(*args)

    def counted_count(*args):
        calls["count"] += 1
        return count(*args)
    _patch_sturm(monkeypatch, count=counted_count, slope=counted_slope)
    for beta in (2.5, 5.0, 8.0):
        for n in (4000, 8000, 16000):
            mu = numverify.whittaker_oracle(
                beta, numverify.FDGrid(1e-3, 80.0, n),
                spectra.halfplane_level_count(beta)).mu
            assert mu == pytest.approx(golden_mu(beta, n), rel=0, abs=1e-9)
    # measured: 50 walks and 45 counts
    assert calls["slope"] <= 50
    assert calls["count"] == 45


def test_alpha_one_seed_on_the_bench_cells(monkeypatch):
    # the top level of beta = 5 and 8 (al = 1) walks from
    # mu_l + (l+1)/32 h^2 + beta^2/64 h^3 + D_l h^4: the nine cells take
    # 50 walks, 62 without the h^4 and log terms and 67 with the closed
    # form alone at that level, and at n = 16000 every level of beta = 5
    # and 8 takes one walk and one certificate count
    calls = {"count": 0, "slope": 0}
    slope, count = numverify._sturm_slope, numverify._sturm_count

    def counted_slope(*args):
        calls["slope"] += 1
        return slope(*args)

    def counted_count(*args):
        calls["count"] += 1
        return count(*args)
    _patch_sturm(monkeypatch, count=counted_count, slope=counted_slope)
    for beta in (2.5, 5.0, 8.0):
        for n in (4000, 8000, 16000):
            before = dict(calls)
            levels = spectra.halfplane_level_count(beta)
            numverify.whittaker_oracle(beta, numverify.FDGrid(1e-3, 80.0, n),
                                       levels)
            if n == 16000 and beta != 2.5:
                assert calls["slope"] - before["slope"] == levels, beta
                assert calls["count"] - before["count"] == levels, beta
    assert calls["slope"] <= 50
    assert calls["count"] == 45


@pytest.mark.parametrize("matrix", ["whittaker", "laplacian"])
def test_tridiag_reads_any_sequence_and_changes_none(matrix):
    # a list is used as it is and any other sequence is copied through
    # float(): a list, a tuple and a numpy array of one matrix give
    # bit-identical mu, and no argument is changed
    np = pytest.importorskip("numpy")
    if matrix == "whittaker":
        diag, off, k, guess = _oracle_request(5.0, 1000, 5)
    else:
        diag, off, k, guess = [2] * 200, [-1] * 199, 6, ()

    def snapshot(a):
        # repr tells an int from a float, and tolist a numpy entry's full
        # precision
        return repr((getattr(a, "dtype", None),
                     a.tolist() if hasattr(a, "tolist") else a))
    outs = []
    for kind in (list, tuple, np.array):
        args = [kind(v) for v in (diag, off, guess)]
        before = [snapshot(a) for a in args]
        mu = numverify.tridiag_eigs(args[0], args[1], k, guess=args[2])
        assert [snapshot(a) for a in args] == before, kind
        outs.append([v.hex() for v in mu])
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("k", [2.5, math.nan, "2", True])
def test_level_count_must_be_an_int(k):
    # each raised a raw TypeError from a comparison, range or a list
    # repetition, but True, which solved one level as k = 1
    with pytest.raises(UsageError, match="k must be an int"):
        numverify.tridiag_eigs([1.0, 2.0, 3.0], [0.5, 0.5], k)
    with pytest.raises(UsageError, match="k_levels must be an int"):
        numverify.whittaker_oracle(5.0, numverify.FDGrid(1e-3, 80.0, 1000), k)


def test_tridiag_wrong_prediction(monkeypatch):
    # the levels are 0, 1, 2, 3.4, 10, 10.5, 30.  Level 0 is seeded at
    # 0.5, inside its bracket: the walk's count there ends the bracket at
    # 0.5, the walk stops on that end, and the certificate rejects it.
    # Level 3 walks from 3 to 3.4.  Levels 4..6 at 5.2, 21.8 and 4.9,
    # outside their brackets, and levels 1 and 2 at nan take no walk at
    # their seed
    counts, walks = [], []
    slope, count = numverify._sturm_slope, numverify._sturm_count

    def recorded_slope(d, e2, x):
        c, s = slope(d, e2, x)
        counts.append((x, c))
        walks.append(x)
        return c, s

    def recorded_count(d, e2, x):
        c = count(d, e2, x)
        counts.append((x, c))
        return c
    _patch_sturm(monkeypatch, count=recorded_count, slope=recorded_slope)
    diag = [0.0, 1.0, 2.0, 3.4, 10.0, 10.5, 30.0]
    off = [1e-3] * 6
    seed = [0.5, math.nan, math.nan, 3.0, 5.2, 21.8, 4.9]
    eigs = numverify.tridiag_eigs(diag, off, 7, guess=seed)
    ref = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                             + np.diag(off, -1))
    assert eigs == pytest.approx(ref, abs=1e-9)
    assert walks[0] == 0.5
    for j, x in enumerate(eigs):
        # the certificate: counts within 1e-9 below and above the root
        assert any(x - 1e-9 <= y <= x and c == j for y, c in counts), j
        assert any(x <= y <= x + 1e-9 and c > j for y, c in counts), j
        assert (seed[j] in walks) == (j in (0, 3)), (j, seed[j])
    # the rejected walk at 0.5: a count 1e-9 below it gives 1, not 0
    assert (0.5 - 1e-9, 1) in counts


def test_tridiag_diagonal_and_single():
    assert numverify.tridiag_eigs([3.0, -1.0, 2.0], [0.0, 0.0], 3) \
        == pytest.approx([-1.0, 2.0, 3.0], abs=1e-11)
    assert numverify.tridiag_eigs([7.0], [], 1) == [7.0]


# -- the eigen-solve against a frozen copy of the earlier code ---------------

def _tridiag_eigs_reference(diag, offdiag, k, guess=()):
    """tridiag_eigs as it was, with separate ``bisect`` and ``isolated``
    closures and two bisection loops.  It calls the Sturm routines through
    the module, so a recorder sees its calls too."""
    k = check_int(k, "k")
    d = [float(v) for v in diag]
    e = [float(v) for v in offdiag]
    n = len(d)
    if len(e) != max(n - 1, 0):
        raise ValueError("offdiag must have length n-1")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    e2 = [v * v for v in e]
    if not (math.isfinite(sum(d) + sum(e2))
            or all(map(math.isfinite, chain(d, e2)))):
        raise UsageError("tridiag_eigs needs finite d_i and e_i^2")
    if n == 1:
        return [d[0]]
    r = 2.0 * max(map(abs, e))
    lo, hi = min(d) - r, max(d) + r
    if not math.isfinite(2.0 * max(-lo, hi)):
        raise UsageError(f"tridiag_eigs bracket [{lo!r}, {hi!r}] overflows "
                         "in bisection; scale the matrix down")
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

    def count(x):
        c = numverify._sturm_count(d, e2, x)
        narrow(x, c)
        return c

    def bisect(j):
        if b[j] - a[j] <= 1e-12:
            return False
        mid = 0.5 * (a[j] + b[j])
        if mid == a[j] or mid == b[j]:
            return False
        count(mid)
        return True

    def isolated(j):
        return ca[j] == j and cb[j] == j + 1

    def newton(j, x):
        for _ in range(8):
            c, s = numverify._sturm_slope(d, e2, x)
            narrow(x, c)
            if not (s and math.isfinite(s)):
                return None
            nxt = min(max(x - 1.0 / s, a[j]), b[j])
            step, x = abs(nxt - x), nxt
            if step < 1e-9:
                break
        else:
            return None
        below = (a[j] >= x - 1e-9 and ca[j] == j) or count(x - 1e-9) == j
        above = (b[j] <= x + 1e-9 and cb[j] <= n) or count(x + 1e-9) > j
        return x if below and above else None

    for j in range(k):
        x = None
        if j < len(guess):
            g = float(guess[j])
            if a[j] < g < b[j]:
                x = newton(j, g)
        if x is None:
            while not (isolated(j) and b[j] - a[j] <= 1e-2) and bisect(j):
                pass
            if isolated(j):
                x = newton(j, 0.5 * (a[j] + b[j]))
        if x is None:
            while bisect(j):
                pass
            x = 0.5 * (a[j] + b[j])
        out.append(x)
    return out


def _traced_solve(solve, diag, offdiag, k, guess=()):
    """(outcome, work): the eigenvalues as ``.hex()`` strings, or the
    error's type and text, and every Sturm count and slope shift in the
    order the solver takes them (``_patch_sturm``: a fused pass is its
    count, then its slope where the walk takes it)."""
    work = []
    count, slope = numverify._sturm_count, numverify._sturm_slope

    def recorded_count(d, e2, x):
        work.append(("count", x.hex()))
        return count(d, e2, x)

    def recorded_slope(d, e2, x):
        work.append(("slope", x.hex()))
        return slope(d, e2, x)
    with pytest.MonkeyPatch.context() as patch:
        _patch_sturm(patch, count=recorded_count, slope=recorded_slope)
        try:
            outcome = [v.hex() for v in solve(diag, offdiag, k, guess)]
        except ValueError as exc:
            outcome = (type(exc), str(exc))
    return outcome, work


def _assert_same_solve(diag, offdiag, k, guess=()):
    want = _traced_solve(_tridiag_eigs_reference, diag, offdiag, k, guess)
    assert _traced_solve(numverify.tridiag_eigs, diag, offdiag, k,
                         guess) == want


def _oracle_request(beta, n, levels):
    """The (diag, off, k, guess) that ``whittaker_oracle`` hands the
    eigen-solve."""
    seen = []

    def capture(diag, off, k, guess=()):
        seen.append((diag, off, k, tuple(guess)))
        raise LookupError
    solve, numverify.tridiag_eigs = numverify.tridiag_eigs, capture
    try:
        with pytest.raises(LookupError):
            numverify.whittaker_oracle(beta, numverify.FDGrid(1e-3, 80.0, n),
                                       levels)
    finally:
        numverify.tridiag_eigs = solve
    return seen[0]


@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("n", [1000, 4000])
@pytest.mark.parametrize("beta", [2.5, 5.0, 8.0])
def test_merged_bisection_is_the_old_solver_seeded(beta, n, extra):
    # the oracle's own request, and one level past the seeded window,
    # which takes the bisection path
    levels = spectra.halfplane_level_count(beta) + extra
    _assert_same_solve(*_oracle_request(beta, n, levels))


@pytest.mark.parametrize("beta", [2.5, 5.0, 8.0])
def test_merged_bisection_is_the_old_solver_unseeded(beta):
    diag, off, k, _ = _oracle_request(beta, 1000,
                                      spectra.halfplane_level_count(beta))
    _assert_same_solve(diag, off, k)


@pytest.mark.parametrize("shift", [0.3, -0.3, 1e3, -1e3, math.nan,
                                   "level+1", "level-1"])
def test_merged_bisection_is_the_old_solver_wrong_seed(shift):
    diag, off, k, seed = _oracle_request(8.0, 1000, BETA8_LEVELS)
    if isinstance(shift, str):
        guess = closed_form_mu(8.0, k, first=1 if shift == "level+1" else -1)
    else:
        guess = [g + shift for g in seed]
    _assert_same_solve(diag, off, k, guess)


@pytest.mark.parametrize("diag, off", [
    ([1.0] * 5 + [2.0], [0.0] * 5),
    # isolated levels beyond ~4e13, whose brackets reach their last ulp
    # while still wider than the 1e-2 that starts Newton
    ([1e14, 2e14, 3e14], [1e-3, 1e-3]),
    ([1e15, 1e15 + 1.0, 3e15], [0.3, 0.2]),
    ([2e16, 2e16 + 8.0, 2e16 + 64.0], [1.0, 1.0]),
    # a bracket that starts one ulp wide
    ([1e305] * 2000, [1.0] * 1999),
])
def test_merged_bisection_is_the_old_solver_at_its_floors(diag, off):
    _assert_same_solve(diag, off, len(diag))


@pytest.mark.parametrize("diag, off", [
    # e_i^2 underflows below the normal range, where sqrt(max e_i^2) is
    # not max|e_i|, so the bracket's radius is read from the e_i; the
    # answer is the bracket's midpoint, which a radius off by an ulp moves
    ([0.0, 3e-160], [1e-160]),
    ([1e-170, 0.0], [-3e-165]),
])
def test_merged_bisection_is_the_old_solver_when_e_squared_underflows(
        diag, off):
    _assert_same_solve(diag, off, len(diag))


def test_merged_bisection_is_the_old_solver_on_repeated_eigenvalues():
    rng = random.Random("repeated")
    for _ in range(30):
        n = rng.randint(2, 12)
        diag = [float(rng.choice((-1, 0, 1, 2))) for _ in range(n)]
        off = [rng.choice((0.0, 0.0, 1e-3, -0.5)) for _ in range(n - 1)]
        guess = [rng.choice((0.0, 1.0, math.nan, 2.5)) for _ in range(n // 2)]
        _assert_same_solve(diag, off, rng.randint(1, n))
        _assert_same_solve(diag, off, n, guess)


_entries = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0, 1e-3]),
                     st.floats(-5.0, 5.0))


@settings(max_examples=60)
@given(data=st.data(), n=st.integers(1, 10))
def test_merged_bisection_is_the_old_solver_on_drawn_matrices(data, n):
    diag = data.draw(st.lists(_entries, min_size=n, max_size=n))
    off = data.draw(st.lists(_entries, min_size=n - 1, max_size=n - 1))
    k = data.draw(st.integers(1, n))
    guess = data.draw(st.lists(st.one_of(st.floats(-8.0, 8.0),
                                         st.just(math.nan)), max_size=n))
    _assert_same_solve(diag, off, k, guess)


def test_merged_bisection_is_the_old_solver_when_a_shared_pass_fails(
        monkeypatch):
    # level 0 walks from 0.5 onto its bracket's end, and the count at
    # 0.5 - 1e-9 that rejects it shares a pass with level 1's first step
    # at its seed 1.0: that step is dropped, level 0 is bisected, and
    # level 1 walks from 1.0 as the old solver does
    diag, off = [0.0, 1.0, 2.0, 3.4, 10.0, 10.5, 30.0], [1e-3] * 6
    seed = [0.5, 1.0]
    shared, fused = [], numverify._sturm_count_slope

    def recorded(d, e2, y, x):
        shared.append((y, x))
        return fused(d, e2, y, x)
    monkeypatch.setattr(numverify, "_sturm_count_slope", recorded)
    numverify.tridiag_eigs(diag, off, 7, guess=seed)
    assert shared[0] == (0.5 - 1e-9, 1.0)
    monkeypatch.undo()
    _assert_same_solve(diag, off, 7, seed)


def test_certificate_counts_share_the_next_walks_pass(monkeypatch):
    # at the nine bench cells each level below the top takes its one
    # certificate count in the pass of the next level's first Newton step
    # at its seed: 36 of the 45 counts, 7 of 8 at beta = 8.  The answer is
    # bit for bit the old solver's, which takes every pass on its own
    shared, fused = [], numverify._sturm_count_slope

    def recorded(d, e2, y, x):
        shared.append(x)
        return fused(d, e2, y, x)
    monkeypatch.setattr(numverify, "_sturm_count_slope", recorded)
    for beta in (2.5, 5.0, 8.0):
        for n in (4000, 8000, 16000):
            request = _oracle_request(beta, n,
                                      spectra.halfplane_level_count(beta))
            shared.clear()
            got = numverify.tridiag_eigs(*request)
            assert shared == list(request[3][1:]), (beta, n)
            want = _tridiag_eigs_reference(*request)
            assert [v.hex() for v in got] == [v.hex() for v in want]


def _assert_fused_is_the_two_passes(d, e2, pairs):
    """``_sturm_count_slope`` at each (y, x) of ``pairs`` is
    ``_sturm_count`` at y and ``_sturm_slope`` at x, the slope compared by
    its ``.hex()``, so a nan or an infinity must match too."""
    for y, x in pairs:
        cy, (cx, sx) = numverify._sturm_count_slope(d, e2, y, x)
        want_cx, want_sx = numverify._sturm_slope(d, e2, x)
        assert (cy, cx, sx.hex()) == (numverify._sturm_count(d, e2, y),
                                      want_cx, want_sx.hex()), (y, x)


def test_sturm_count_slope_is_the_two_passes_on_the_bench(golden_mu):
    # each level's certificate shifts mu -/+ 1e-9 against the next
    # level's root, where the oracle shares a pass, and against its own
    for beta in (2.5, 5.0, 8.0):
        for n in (4000, 8000, 16000):
            d, off = numverify.whittaker_matrix(
                beta, numverify.FDGrid(1e-3, 80.0, n))
            mu = golden_mu(beta, n)
            nxt = mu[1:] + [mu[-1] + 1e-9]
            _assert_fused_is_the_two_passes(
                d, [v * v for v in off],
                [pair for v, w in zip(mu, nxt)
                 for pair in ((v - 1e-9, w), (v + 1e-9, v))])


@pytest.mark.parametrize("d, sizes", [(0.0, range(2, 12)), (1.0, range(2, 8))])
def test_sturm_count_slope_is_the_two_passes_on_zero_pivots(d, sizes):
    # the matrices of test_tridiag_zero_pivots_against_closed_form: at
    # x = d the first pivot is exactly zero
    for n in sizes:
        shifts = [d, d - 1.0, d + 1.0, d - 2.0, d + 2.0, 0.0] + [
            d + 2.0 * math.cos(j * math.pi / (n + 1)) for j in range(1, n + 1)]
        _assert_fused_is_the_two_passes(
            [d] * n, [1.0] * (n - 1), [(y, x) for y in shifts for x in shifts])


@settings(max_examples=100)
@given(data=st.data(), n=st.integers(1, 10))
def test_sturm_count_slope_is_the_two_passes_on_drawn_matrices(data, n):
    # shifts drawn from the diagonal itself make exact zero pivots common
    diag = data.draw(st.lists(_entries, min_size=n, max_size=n))
    off = data.draw(st.lists(_entries, min_size=n - 1, max_size=n - 1))
    shifts = st.one_of(st.sampled_from(diag), _entries)
    pairs = data.draw(st.lists(st.tuples(shifts, shifts), min_size=1,
                               max_size=4))
    _assert_fused_is_the_two_passes(diag, [v * v for v in off], pairs)


def test_oracle_matches_analytic():
    grid = numverify.FDGrid(1e-3, 80.0, 2000)
    spec = numverify.whittaker_oracle(5.0, grid, 5)
    analytic_mu = [0.25 - (5 - l - 0.5) ** 2 for l in range(5)]
    for mu, an in zip(spec.mu, analytic_mu):
        assert mu == pytest.approx(an, abs=6e-3)
    for e, l in zip(spec.energies, range(5)):
        assert e == pytest.approx(spectra.landau_halfplane(5, l).energy,
                                  rel=1e-3)
    assert len(spec.mu) == 5
    assert all(v < 0.25 for v in spec.mu)


@pytest.mark.parametrize("m, a", [
    (0.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
    # a^2 underflows to 0: the energies divided by zero
    (1.0, 1e-170),
    # a nan a gave energies of nan, an infinite m or a energies of 0
    *((v, 1.0) for v in (math.nan, math.inf, -math.inf)),
    *((1.0, v) for v in (math.nan, math.inf, -math.inf))])
def test_oracle_rejects_zero_mass_or_scale(m, a, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigen-solve reached")
    monkeypatch.setattr(numverify, "tridiag_eigs", no_solve)
    with pytest.raises(UsageError):
        numverify.whittaker_oracle(5.0, numverify.FDGrid(1e-3, 80.0, 1000), 1,
                                   m=m, a=a)


@pytest.mark.parametrize("beta, levels, message", [
    (0.5, 1, "beta must exceed 1/2"),
    (0.25, 1, "beta must exceed 1/2"),
    (5.0, 0, "k_levels must be >= 1"),
])
def test_oracle_rejects_bad_request(beta, levels, message, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigen-solve reached")
    monkeypatch.setattr(numverify, "tridiag_eigs", no_solve)
    with pytest.raises(UsageError, match=message):
        numverify.whittaker_oracle(beta, numverify.FDGrid(1e-3, 80.0, 1000),
                                   levels)


def test_oracle_rejects_more_levels_than_points(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigen-solve reached")
    monkeypatch.setattr(numverify, "tridiag_eigs", no_solve)
    with pytest.raises(ResolutionError,
                       match="100 points holds at most 100 levels, 400"):
        numverify.whittaker_oracle(500.0, numverify.FDGrid(1e-3, 80.0, 100),
                                   400)


def test_oracle_resolution_error():
    grid = numverify.FDGrid(1e-3, 80.0, 400)
    with pytest.raises(ResolutionError, match="grid resolves only"):
        numverify.whittaker_oracle(5.0, grid, 6)


@pytest.mark.parametrize("beta, s_max, n, levels", [
    (1e9, 80.0, 1000, 1),
    (1e3, 80.0, 2000, 1),
    (40.0, 80.0, 4000, 1),
    (5.0, 20.0, 1000, 5),
    # the seed's (beta - 1/2)^2 raised an OverflowError before the seed
    # was written with products
    (1e200, 80.0, 1000, 1),
])
def test_oracle_rejects_wall_bound_level(beta, s_max, n, levels):
    # U(s_n) = s_n^2/4 - beta s_n <= max mu: the deepest-reaching level is
    # held by the right wall; these grids miss the closed form by 0.047 to
    # 1e200
    with pytest.raises(ResolutionError, match="reaches the wall"):
        numverify.whittaker_oracle(beta, numverify.FDGrid(1e-3, s_max, n),
                                   levels)


def test_oracle_rejects_tail_cut_off_by_wall():
    # level 0's allowed region ends at s = 17.5, inside the grid, but its
    # tail is still e^-0.83 at the wall: the energy is off by 0.047
    with pytest.raises(ResolutionError, match="cut off by the wall at s = 20"):
        numverify.whittaker_oracle(5.0, numverify.FDGrid(1e-3, 20.0, 1000), 1)


@pytest.mark.parametrize("beta, mu, s_max", [
    (5.0, -20.0, 20.0), (5.0, -20.0, 80.0), (8.0, -2.0, 45.0),
    (2.5, 0.0, 30.0), (0.75, 0.1875, 12.0), (20.0, -240.0, 80.0),
])
def test_wall_decay_exponent_matches_quadrature(beta, mu, s_max):
    s_t = 2.0 * beta + 2.0 * math.sqrt(beta * beta + mu)

    def integrand(s):
        return math.sqrt(max(0.25 - beta / s - mu / (s * s), 0.0))
    S = numverify.wall_decay_exponent(beta, mu, s_max)
    assert S == pytest.approx(numverify.adaptive_simpson(integrand, s_t, s_max),
                              rel=1e-6)
    assert numverify.wall_decay_exponent(beta, mu, s_t) == 0.0
    assert numverify.wall_shift(beta, mu, 0.5 * s_t) == math.inf


@pytest.mark.parametrize("beta, mu, s_max", [
    (5.0, math.nan, 80.0), (math.nan, -1.0, 80.0), (5.0, -1.0, math.inf),
])
def test_wall_decay_exponent_rejects_non_finite_input(beta, mu, s_max):
    # each gave a nan S, and a nan wall_shift passes the oracle's
    # rel > 1e-3 test
    with pytest.raises(UsageError):
        numverify.wall_decay_exponent(beta, mu, s_max)
    with pytest.raises(UsageError):
        numverify.wall_shift(beta, mu, s_max)


@pytest.mark.parametrize("beta, mu, s_max", [
    # r + beta = 0 divided by zero, and the artanh left its domain
    (-3.0, 5e-324, 1.0), (-3.0, -3.0, 1e308),
    # acosh(inf) beta gave inf - inf, a nan
    (0.0, 5e-324, 1e308),
])
def test_wall_functions_reject_beta_at_or_below_zero(beta, mu, s_max):
    # no outer turning point: the Whittaker matrix has beta > 1/2
    with pytest.raises(UsageError, match="need beta > 0"):
        numverify.wall_decay_exponent(beta, mu, s_max)
    with pytest.raises(UsageError, match="need beta > 0"):
        numverify.wall_shift(beta, mu, s_max)


def test_wall_decay_exponent_of_a_wall_beyond_any_cosh():
    # (s_max - 2 beta)/(2 r) overflowed, and acosh(inf) beta - r sinh(inf)
    # was nan, which passes the oracle's rel > 1e-3 wall test; S is about
    # s_max/2 there, and e^-2S is 0
    assert numverify.wall_decay_exponent(5e-324, 5e-324, 1e308) \
        == pytest.approx(5e307, rel=1e-15)
    assert numverify.wall_shift(5e-324, 5e-324, 1e308) == 0.0
    # the two sides of x = 1e300 agree, with s_max/2 - beta t + ... on both
    for beta, mu in ((1.0, 3.0), (2.0, -3.0), (5.0, 0.0)):
        r = math.sqrt(beta * beta + mu)
        near = [numverify.wall_decay_exponent(beta, mu,
                                              2.0 * r * x + 2.0 * beta)
                for x in (0.999999e300, 1.000001e300)]
        assert near[1] == pytest.approx(near[0] * 1.000001 / 0.999999,
                                        rel=1e-12), (beta, mu)


_wall_floats = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0,
                     -0.0, 5e-324, -5e-324, 1.0, -3.0]),
    st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=100)
@given(beta=_wall_floats, mu=_wall_floats, s_max=_wall_floats)
@example(beta=0.0, mu=5e-324, s_max=1e308)
@example(beta=5e-324, mu=5e-324, s_max=1e308)
@example(beta=-3.0, mu=5e-324, s_max=1.0)
@example(beta=-3.0, mu=-3.0, s_max=1e308)
def test_sweep_wall_decay_exponent(beta, mu, s_max):
    with _within(5):
        try:
            S = numverify.wall_decay_exponent(beta, mu, s_max)
        except UsageError:
            return
    assert 0.0 <= S < math.inf


@settings(max_examples=100)
@given(beta=_wall_floats, mu=_wall_floats, s_max=_wall_floats)
@example(beta=5e-324, mu=5e-324, s_max=1e308)
def test_sweep_wall_shift(beta, mu, s_max):
    with _within(5):
        try:
            shift = numverify.wall_shift(beta, mu, s_max)
        except UsageError:
            return
    assert 0.0 <= shift <= math.inf


@settings(max_examples=100)
@given(beta=_wall_floats,
       l=st.one_of(st.integers(), st.sampled_from(
           [True, False, 2.5, math.nan, -1, 10 ** 400, 10 ** 299])))
@example(beta=1e300, l=10 ** 299)
@example(beta=5.0, l=10 ** 400)
def test_sweep_lattice_model(beta, l):
    with _within(5):
        try:
            model = numverify.lattice_model(beta, l)
        except UsageError:
            return
        seed = model.at(0.01)
    assert isinstance(model, numverify.LatticeModel)
    assert isinstance(seed, float)


def _mu_at_h(beta, s_max, levels, h=0.02):
    n = round(s_max / h) - 1
    diag, off = numverify.whittaker_matrix(
        beta, numverify.FDGrid(1e-3, s_max, n))
    return numverify.tridiag_eigs(diag, off, levels)


@pytest.mark.parametrize("beta, levels, s_maxes, s_ref", [
    (2.5, 2, (22.0, 30.0), 80.0),
    (5.0, 5, (26.0, 34.0), 80.0),
    (8.0, 5, (34.0, 50.0), 100.0),
    (20.0, 5, (72.0,), 140.0),
])
def test_wall_shift_bounds_measured_shift(beta, levels, s_maxes, s_ref):
    # the same h puts the nodes of every grid on those of the far-wall
    # reference, so the difference is the wall's move alone; from beta = 8
    # on it exceeds 2 e^{-2S}, a bound without the WKB amplitude
    ref = _mu_at_h(beta, s_ref, levels)
    for s_max in s_maxes:
        mu = _mu_at_h(beta, s_max, levels)
        for j in range(levels):
            bound = numverify.wall_shift(beta, mu[j], s_max)
            assert 0.25 * bound <= mu[j] - ref[j] <= bound, (s_max, j)


def test_oracle_wall_check_passes_resolved_grid():
    spec = numverify.whittaker_oracle(20.0, numverify.FDGrid(1e-3, 80.0, 4000),
                                      5)
    for l, e in enumerate(spec.energies):
        assert e == pytest.approx(spectra.landau_halfplane(20, l).energy,
                                  rel=1e-3)


def test_oracle_report_json():
    grid = numverify.FDGrid(1e-3, 80.0, 1500)
    spec = numverify.whittaker_oracle(5.0, grid, 3)
    analytic = [spectra.landau_halfplane(5, l).energy for l in range(3)]
    data = json.loads(numverify.oracle_report(spec, analytic))
    assert data["beta"] == 5.0
    assert len(data["relerr"]) == 3
    assert all(r < 1e-3 for r in data["relerr"])


def test_norm_quadrature_value_and_stability():
    psi = psi_handle(5.0, 0, 1.0)
    v = numverify.norm_quadrature(psi, 5, 0, 1.0)
    # a^2 * integral y^{2 beta - 2} e^{-2cy} dy = Gamma(9)/2^9 = 78.75
    assert v == pytest.approx(78.75, rel=1e-10)
    v2 = numverify.norm_quadrature(psi, 5, 0, 1.0, cutoff_scale=80.0)
    assert abs(v2 - v) / v < 1e-10


def test_norm_quadrature_window_edge():
    with pytest.raises(NonNormalizableError):
        numverify.norm_quadrature(psi_handle(5.0, 0, 1.0), 4.5, 4, 1.0)


def _plain_psi(co):
    return co["y"] ** 5 * math.exp(-co["y"])


@pytest.mark.parametrize("call", [
    # each of these recursed 40 deep on both halves, ~2^40 calls
    pytest.param(lambda: numverify.adaptive_simpson(lambda s: math.nan,
                                                    0.0, 1.0), id="nan-sample"),
    pytest.param(lambda: numverify.adaptive_simpson(math.sin, 0.0, math.inf),
                 id="inf-end"),
    pytest.param(lambda: numverify.adaptive_simpson(lambda s: 1e308,
                                                    0.0, 10.0),
                 id="overflowing-sum"),
    # c sets the cutoff: a nan one made a nan end, which a psi that
    # checks no point sampled; an inf one cut the integral off at 5
    pytest.param(lambda: numverify.norm_quadrature(_plain_psi, 5.0, 0,
                                                   c=math.nan), id="nan-c"),
    pytest.param(lambda: numverify.norm_quadrature(_plain_psi, 5.0, 0,
                                                   c=math.inf), id="inf-c"),
    # a nan beta or l passed the normalizability test and gave 78.75
    pytest.param(lambda: numverify.norm_quadrature(_plain_psi, math.nan, 0,
                                                   1.0), id="nan-beta"),
    pytest.param(lambda: numverify.norm_quadrature(_plain_psi, 5.0, math.nan,
                                                   1.0), id="nan-l"),
])
def test_quadrature_rejects_non_finite_input(call):
    with _within(5), pytest.raises(UsageError):
        call()


def test_adaptive_simpson_smoke():
    val = numverify.adaptive_simpson(math.sin, 0.0, math.pi)
    assert val == pytest.approx(2.0, rel=1e-12)


# -- the oracle's certificate in exact arithmetic ----------------------------

def _exact_count(d, e, x):
    """The number of eigenvalues below x of the tridiagonal matrix with
    diagonal d and off-diagonal e, in exact arithmetic: the sign changes
    of the leading principal minors p_i = det(T_i - x),
    p_i = (d_i - x) p_{i-1} - e_{i-1}^2 p_{i-2}, whose ratios are the
    pivots q_i = d_i - x - e_{i-1}^2 / q_{i-1} of T - x (Sylvester's law of
    inertia).  Every float is a rational with a power-of-two denominator,
    so with x and every entry scaled by the largest of those the minors
    are integers of the same signs, and no gcd is taken (a Fraction
    recurrence of the pivots took 4 to 6 times as long at n = 400).  This
    is the count of the float matrix itself.  A pivot that is exactly 0
    has no sign to count: the count is None then, which fails every
    comparison with an int, rather than being stepped over."""
    scale = max(v.as_integer_ratio()[1] for v in (x, *d, *e))

    def exact(v):
        num, den = v.as_integer_ratio()
        return num * (scale // den)
    xs = exact(x)
    count, p, prev = 0, 1, 0
    for i, di in enumerate(d):
        b = exact(e[i - 1]) ** 2 if i else 0
        p, prev = (exact(di) - xs) * p - b * prev, p
        if p == 0:
            return None
        count += (p < 0) != (prev < 0)
    return count


def _assert_certified(d, e, mu):
    """Each mu_j has exactly j eigenvalues below mu_j - 1e-9 and j + 1 below
    mu_j + 1e-9, the claim |mu_j - lambda_j| <= 1e-9 of tridiag_eigs."""
    for j, x in enumerate(mu):
        assert (_exact_count(d, e, x - 1e-9),
                _exact_count(d, e, x + 1e-9)) == (j, j + 1), (j, x)


@pytest.mark.parametrize("beta", [2.5, 5.0, 8.0])
def test_certificates_hold_in_exact_arithmetic(beta, monkeypatch):
    # every bound level of the bench's beta values, at n = 400 (the exact
    # counts cost ~n^2: 10 of them took 0.28 s at n = 500, and the bench's
    # n >= 4000 would take seconds a count).  As on the bench cells, each
    # level below the top takes its certificate count in a pass shared
    # with the next level's first Newton step
    shared, fused = [], numverify._sturm_count_slope

    def recorded(d, e2, y, x):
        shared.append(y)
        return fused(d, e2, y, x)
    monkeypatch.setattr(numverify, "_sturm_count_slope", recorded)
    grid = numverify.FDGrid(1e-3, 80.0, 400)
    spec = numverify.whittaker_oracle(
        beta, grid, spectra.halfplane_level_count(beta))
    assert len(shared) == len(spec.mu) - 1
    _assert_certified(*numverify.whittaker_matrix(beta, grid), spec.mu)


@pytest.mark.parametrize("d, sizes", [(0.0, range(2, 12)), (1.0, range(2, 8))])
def test_certificates_hold_in_exact_arithmetic_on_zero_pivots(d, sizes):
    # the matrices of test_tridiag_zero_pivots_against_closed_form, whose
    # bisection hits exactly zero float pivots
    for n in sizes:
        _assert_certified([d] * n, [1.0] * (n - 1),
                          numverify.tridiag_eigs([d] * n, [1.0] * (n - 1), n))


def test_certificates_hold_in_exact_arithmetic_when_a_shared_pass_fails():
    # the matrix of test_merged_bisection_is_the_old_solver_when_a_shared_
    # pass_fails: level 0's walk is rejected in a shared pass and bisected
    diag, off = [0.0, 1.0, 2.0, 3.4, 10.0, 10.5, 30.0], [1e-3] * 6
    _assert_certified(diag, off,
                      numverify.tridiag_eigs(diag, off, 7, guess=[0.5, 1.0]))


# multiples of 2^-30: the exact minors of n rows are about n times as long
# as the entries' common denominator (at 2^-1074, 40 rows took milliseconds a
# count), and integers draw faster than floats
_dyadic_entries = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0, 1e-3]),
    st.integers(-5 * 2 ** 30, 5 * 2 ** 30).map(lambda k: k / 2 ** 30))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_certificates_hold_in_exact_arithmetic_on_drawn_matrices(data, n):
    # |x - lambda_j| <= 1e-9 is the claim: at most j eigenvalues below
    # x - 1e-9 and more than j below x + 1e-9, a cluster of close or
    # repeated ones included.  The guesses send walks to wrong roots,
    # which only the certificate turns away
    diag = data.draw(st.lists(_dyadic_entries, min_size=n, max_size=n))
    off = data.draw(st.lists(_dyadic_entries, min_size=n - 1, max_size=n - 1))
    k = data.draw(st.integers(1, n))
    guess = data.draw(st.lists(st.one_of(st.floats(-8.0, 8.0),
                                         st.just(math.nan)), max_size=n))
    for j, x in enumerate(numverify.tridiag_eigs(diag, off, k, guess)):
        below = _exact_count(diag, off, x - 1e-9)
        above = _exact_count(diag, off, x + 1e-9)
        assume(below is not None and above is not None)
        assert below <= j < above, (j, x)
