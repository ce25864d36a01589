"""Slater / pair-product trial states and filling factors."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curvedhall import manybody
from curvedhall.errors import DomainError, PauliViolationError, UsageError
from test_numverify import _within


def random_config(n, rng, z0=1.0):
    pts = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                for _ in range(n))
    return manybody.ParticleConfig(pts, z0)


def test_config_invariants():
    with pytest.raises(DomainError):
        manybody.ParticleConfig((), 1.0)
    with pytest.raises(DomainError):
        manybody.ParticleConfig(tuple(range(13)), 1.0)
    with pytest.raises(DomainError):
        manybody.ParticleConfig((0j,), -1.0)
    # points are stored as a tuple of complex, and a copy is checked too
    cfg = manybody.ParticleConfig([1, 2j], 1.0)
    assert cfg.points == (1 + 0j, 2j)
    with pytest.raises(DomainError):
        cfg._replace(z0=math.inf)
    with pytest.raises(DomainError):
        cfg._replace(points=[complex("nan")])


def test_config_json_roundtrip():
    cfg = manybody.ParticleConfig((1 + 2j, -0.5j), 1.5)
    back = manybody.ParticleConfig.from_json(cfg.to_json())
    assert back == cfg


def test_slater_single_particle():
    cfg = manybody.ParticleConfig((1 + 1j,), 1.0)
    assert manybody.slater_lll(cfg, [0]) == pytest.approx(
        math.exp(-abs(1 + 1j) ** 2 / 4))


def test_slater_vandermonde_two_particles():
    z1, z2 = 0.3 + 0.1j, -1.0 + 0.5j
    cfg = manybody.ParticleConfig((z1, z2), 1.0)
    val = manybody.slater_lll(cfg, [0, 1])
    assert val == pytest.approx((z2 - z1) * cfg.gaussian())


def test_slater_row_swap_negates():
    rng = random.Random(7)
    cfg = random_config(3, rng)
    pts = list(cfg.points)
    pts[0], pts[2] = pts[2], pts[0]
    swapped = manybody.ParticleConfig(tuple(pts), cfg.z0)
    a = manybody.slater_lll(cfg, [0, 1, 2])
    b = manybody.slater_lll(swapped, [0, 1, 2])
    assert b == pytest.approx(-a)


def vandermonde(z):
    """prod_{i<j} (z_j - z_i) = det[z_i^j], j = 0..N-1."""
    out = 1.0 + 0j
    for j in range(len(z)):
        for i in range(j):
            out *= z[j] - z[i]
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_slater_matches_numpy_and_vandermonde(n):
    rng = random.Random(f"slater:{n}")
    for _ in range(5):
        # jittered points near the unit circle keep the Vandermonde matrix
        # well conditioned up to N = 12
        z = tuple(cmath.rect(rng.uniform(0.8, 1.2),
                             2 * math.pi * (k + rng.uniform(-0.3, 0.3)) / n)
                  for k in range(n))
        cfg = manybody.ParticleConfig(z, rng.choice((1.0, 1.5)))
        g = cfg.gaussian()
        assert manybody.slater_lll(cfg, range(n)) / g \
            == pytest.approx(vandermonde(z), rel=1e-11)
        orbitals = rng.sample(range(2 * n + 3), n)
        mat = np.array([[zi ** k for k in orbitals] for zi in z])
        want = complex(np.linalg.det(mat))
        got = manybody.slater_lll(cfg, orbitals) / g
        # LU with partial pivoting on both sides: agree to rounding of the
        # largest entry products (Hadamard's bound)
        bound = math.prod(math.hypot(*map(abs, row)) for row in mat.tolist())
        assert abs(got - want) <= 1e-13 * bound


def test_slater_singular_matrix_is_zero():
    # two particles at one point: equal rows, determinant exactly zero
    cfg = manybody.ParticleConfig((0.5 + 0.5j, 0.5 + 0.5j, -1j), 1.0)
    assert manybody.slater_lll(cfg, [0, 1, 2]) == 0


@pytest.mark.parametrize("text", [
    "[1]",
    '{"z0": 1, "points": [["a", 0]]}',
    '{"points": [[0, 0]]}',
    '{"z0": null, "points": [[0, 0]]}',
    '{"z0": 1, "points": 5}',
])
def test_config_of_wrong_shape_is_value_error(text):
    with pytest.raises(ValueError, match="config must be"):
        manybody.ParticleConfig.from_json(text)


@pytest.mark.parametrize("bad", [math.inf, math.nan, 2.0, -1])
def test_slater_orbitals_are_ints_from_zero(bad):
    # inf and nan raised a raw OverflowError and ValueError from int(), and
    # 2.0 was taken as 2
    cfg = manybody.ParticleConfig((0j, 1j, 2 + 0j), 1.0)
    with pytest.raises(UsageError, match="orbital"):
        manybody.slater_lll(cfg, [0, 1, bad])


def test_pauli_violation():
    cfg = manybody.ParticleConfig((0j, 1j), 1.0)
    with pytest.raises(PauliViolationError):
        manybody.slater_lll(cfg, [1, 1])


def test_laughlin_reference_value():
    cfg = manybody.ParticleConfig((0j, 1 + 0j), 1.0)
    assert manybody.laughlin(cfg, 3) == pytest.approx(-math.exp(-0.25))


def test_laughlin_m1_proportional_to_slater():
    rng = random.Random(42)
    for n in (2, 3, 5):
        ratios = []
        for _ in range(20):
            cfg = random_config(n, rng)
            ratios.append(manybody.laughlin(cfg, 1)
                          / manybody.slater_lll(cfg, list(range(n))))
        spread = max(abs(r - ratios[0]) for r in ratios)
        assert spread <= 1e-10 * abs(ratios[0])


@pytest.mark.parametrize("m,sign", [(1, -1), (3, -1), (2, 1), (4, 1)])
def test_laughlin_exchange_symmetry(m, sign):
    rng = random.Random(m)
    for n in (3, 4):
        cfg = random_config(n, rng)
        pts = list(cfg.points)
        pts[0], pts[1] = pts[1], pts[0]
        swapped = manybody.ParticleConfig(tuple(pts), cfg.z0)
        assert manybody.laughlin(swapped, m) == pytest.approx(
            sign * manybody.laughlin(cfg, m))


def test_laughlin_zero_order_at_coincidence():
    m = 3
    vals = []
    for eps in (1e-2, 5e-3):
        cfg = manybody.ParticleConfig((0j, complex(eps, 0.0), 1 + 1j), 1.0)
        vals.append(abs(manybody.laughlin(cfg, m)))
    # |psi| ~ eps^m as the pair merges
    assert vals[0] / vals[1] == pytest.approx(2.0 ** m, rel=1e-2)


def test_filling_factor():
    assert manybody.filling_factor(10, 2 * math.pi, 10.0) == pytest.approx(1.0)
    assert manybody.filling_quantized(3, 9) == Fraction(1, 3)
    assert manybody.filling_quantized(7, 7) == 1
    with pytest.raises(DomainError):
        manybody.filling_quantized(3, 0)


@pytest.mark.parametrize("n_particles, n_flux, name", [
    (2.5, 3, "n_particles"), (3, 2.5, "n_flux"), (3, math.nan, "n_flux"),
])
def test_filling_quantized_rejects_non_integer_counts(n_particles, n_flux,
                                                      name):
    # Fraction(2.5, 3) raised a raw TypeError
    with pytest.raises(UsageError, match=name):
        manybody.filling_quantized(n_particles, n_flux)


@pytest.mark.parametrize("n, b_field, area", [
    (3, math.inf, 1.0),     # gave 0.0
    (3, 1.0, math.inf),     # gave 0.0
    (math.nan, 1.0, 1.0),   # gave nan
])
def test_filling_factor_rejects_non_finite_input(n, b_field, area):
    with pytest.raises(DomainError):
        manybody.filling_factor(n, b_field, area)


# -- every public numeric function on hostile floats --------------------------

_HOSTILE = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0, 5e-324]
_any = st.one_of(st.sampled_from(_HOSTILE), st.floats(-10.0, 10.0))
# finite coordinates, hostile where a position allows it
_coord = st.one_of(st.sampled_from([1e308, -1e308, 1e150, 1e60, 0.0, -0.0,
                                    5e-324]), st.floats(-10.0, 10.0))
_SWEEP = settings(max_examples=60)


def _config(points, z0):
    """A ParticleConfig, or None where it raises its documented
    DomainError."""
    with _within(5):
        try:
            cfg = manybody.ParticleConfig(points, z0)
        except DomainError:
            return None
    assert all(map(cmath.isfinite, cfg.points)) and 0 < cfg.z0 < math.inf
    return cfg


_configs = st.builds(_config, st.lists(st.builds(complex, _coord, _coord),
                                       min_size=0, max_size=13), _any)


@_SWEEP
@given(points=st.lists(st.builds(complex, _any, _any), max_size=13),
       z0=_any)
@example(points=[1e308 + 1e308j], z0=1.0)
@example(points=[0j], z0=5e-324)
def test_sweep_particle_config_and_gaussian(points, z0):
    cfg = _config(points, z0)
    if cfg is not None:
        with _within(5):
            g = cfg.gaussian()
        assert 0.0 <= g <= 1.0


@_SWEEP
@given(cfg=_configs, orbitals=st.lists(st.integers(0, 40), max_size=13))
def test_sweep_slater_lll(cfg, orbitals):
    if cfg is None:
        return
    with _within(5):
        try:
            v = manybody.slater_lll(cfg, orbitals)
        except (ValueError, OverflowError):  # UsageError, Pauli are ones
            return
    assert cmath.isfinite(v)


@_SWEEP
@given(cfg=_configs, m=st.integers(-2, 40))
def test_sweep_laughlin_and_antisymmetry(cfg, m):
    if cfg is None:
        return
    with _within(5):
        try:
            v = manybody.laughlin(cfg, m)
        except (UsageError, OverflowError):
            v = None
        try:
            ok = manybody.antisymmetry_check(cfg, m)
        except (UsageError, OverflowError):
            ok = None
    assert v is None or cmath.isfinite(v)
    assert ok in (None, True, False)


@_SWEEP
@given(n=_any, b_field=_any, area=_any)
@example(n=1.0, b_field=1.0, area=1e-320)
def test_sweep_filling_factor(n, b_field, area):
    with _within(5):
        try:
            nu = manybody.filling_factor(n, b_field, area)
        except (DomainError, OverflowError):
            return
    assert 0.0 <= nu < math.inf


@_SWEEP
@given(n=st.one_of(_any, st.integers(-5, 50)),
       n_flux=st.one_of(_any, st.integers(-5, 50)))
def test_sweep_filling_quantized(n, n_flux):
    with _within(5):
        try:
            nu = manybody.filling_quantized(n, n_flux)
        except UsageError:
            return
    assert nu == Fraction(n, n_flux)


_FAR = manybody.ParticleConfig((1e60, -1e60, 1e60j, -1e60j, 2e60, 1e60 + 1e60j),
                               1e200)


@pytest.mark.parametrize("call, error, message", [
    # N/S overflows: nu came back as inf
    (lambda: manybody.filling_factor(1, 1, 1e-320), OverflowError,
     "filling factor"),
    # 4 z0^2 underflows to 0: the Gaussian raised ZeroDivisionError
    (lambda: manybody.ParticleConfig((0j,), 5e-324), DomainError, "z0"),
    # |z|^2 overflows: the Gaussian raised "Numerical result out of range"
    (lambda: manybody.ParticleConfig((1e308 + 1e308j,), 1.0), DomainError,
     "positions"),
    # six points ~1e60 apart: a determinant of nan+nanj came back
    (lambda: manybody.slater_lll(_FAR, range(6)), OverflowError, "Slater"),
], ids=["filling-inf", "config-z0-underflow", "config-far-point",
        "slater-nan"])
def test_sweep_findings_raise_their_documented_error(call, error, message):
    with pytest.raises(error, match=message) as caught:
        call()
    assert caught.type is error
