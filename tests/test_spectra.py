"""Closed-form spectra and eigenfunctions."""

import cmath
import json
import math
import random
from fractions import Fraction

import pytest

from curvedhall import spectra
from curvedhall.errors import (NoBoundStateError, UsageError,
                               check_mass_and_scale)


def test_flat_levels_exact_rationals():
    for n in range(6):
        line = spectra.landau_flat(n)
        assert line.energy_exact == Fraction(2 * n + 1, 2)
        assert line.energy == pytest.approx(n + 0.5)


def test_halfplane_level_count():
    assert spectra.halfplane_level_count(5) == 5
    assert spectra.halfplane_level_count(2) == 2
    assert spectra.halfplane_level_count(10.5) == 10
    assert spectra.halfplane_level_count(0.5) == 0


def test_level_count_matches_check_window():
    # the count is the first l that the window check rejects
    rng = random.Random("level-count")
    betas = [k / 4 for k in range(1, 400)]                  # half-integers too
    betas += [k + 0.5 for k in (1, 99, 9999)]
    betas += [math.nextafter(k + 0.5, d) for k in (0, 7, 9999)
              for d in (0.0, math.inf)]
    betas += [rng.uniform(0.01, 1e4) for _ in range(50)] + [1e4]
    for beta in betas:
        count = spectra.halfplane_level_count(beta)
        if count >= 1:
            spectra.landau_halfplane(beta, count - 1)
        with pytest.raises(NoBoundStateError):
            spectra.landau_halfplane(beta, count)


def test_level_count_is_constant_time():
    assert spectra.halfplane_level_count(1e9) == 10 ** 9
    assert spectra.halfplane_level_count(1e300) == int(1e300)
    assert spectra.halfplane_level_count(0.25) == 0


@pytest.mark.parametrize("beta", [0, -1, math.inf, math.nan])
def test_window_rejects_nonpositive_beta(beta):
    # inf raised a bare "cannot convert float infinity to integer"
    with pytest.raises(UsageError, match="beta must be positive and finite"):
        spectra.halfplane_level_count(beta)


@pytest.mark.parametrize("beta", [0, -1, math.inf, math.nan])
@pytest.mark.parametrize("call", [
    lambda beta: spectra.landau_halfplane(beta, 0),
    lambda beta: spectra.eigenfunction_halfplane(beta, 0, 1.0, (0.0, 1.0)),
], ids=["energy", "eigenfunction"])
def test_window_reads_beta_through_the_level_count(call, beta):
    # an inf beta raised OverflowError "halfplane energy is not finite" from
    # the energy and a UsageError naming the internal tau from the
    # eigenfunction; the others raised NoBoundStateError for l
    with pytest.raises(UsageError, match="beta must be positive and finite"):
        call(beta)


def test_halfplane_energies_beta5():
    vals = [spectra.landau_halfplane(5, l).energy
            for l in range(spectra.halfplane_level_count(5))]
    assert vals == [2.5, 6.5, 9.5, 11.5, 12.5]


def test_halfplane_energy_exact():
    line = spectra.landau_halfplane(5, 0)
    assert line.energy_exact == Fraction(5, 2)


def test_window_violation():
    with pytest.raises(NoBoundStateError):
        spectra.landau_halfplane(5, 5)
    with pytest.raises(NoBoundStateError):
        spectra.landau_halfplane(5, -1)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("m, a", [
    (0, 1), (1, 0), (Fraction(0), 1), (1.0, 0.0),
    (-1, 1), (Fraction(-1, 2), 1), (-1.0, 1.0),
    # an infinite m or a gave energies of 0, a nan a gave nan
    *((v, 1.0) for v in NON_FINITE), *((1.0, v) for v in NON_FINITE)])
def test_zero_mass_or_scale_rejected(m, a):
    with pytest.raises(UsageError):
        spectra.landau_halfplane(5, 0, m, a)


@pytest.mark.parametrize("a", [1e-170, -1e-170, 1e-200, 5e-324])
def test_scale_whose_square_underflows_rejected(a):
    # a^2 underflows to 0: the energy divided by zero.  1e-160, whose
    # square is subnormal, still gives an infinite energy, an OverflowError
    with pytest.raises(UsageError, match="nonzero a\\^2"):
        check_mass_and_scale(1.0, a)
    with pytest.raises(UsageError, match="nonzero a\\^2"):
        spectra.landau_halfplane(5, 0, 1.0, a)
    check_mass_and_scale(1.0, 1e-160)
    with pytest.raises(OverflowError):
        spectra.landau_halfplane(5, 0, 1.0, 1e-160)


@pytest.mark.parametrize("rho", NON_FINITE)
def test_sphere_rejects_non_finite_radius(rho):
    # rho = inf gave -0.0
    with pytest.raises(UsageError, match="rho must be positive and finite"):
        spectra.sphere_spectrum(1, 2, rho)


@pytest.mark.parametrize("call, name", [
    (lambda: spectra.landau_flat(math.nan), "n"),
    (lambda: spectra.landau_flat(math.inf), "n"),
    (lambda: spectra.landau_flat(0, omega_c=math.inf), "omega_c"),
    (lambda: spectra.landau_flat(0, hbar=math.inf), "hbar"),
    (lambda: spectra.sphere_spectrum(math.nan, 1), "l"),
    (lambda: spectra.sphere_spectrum(1, math.nan), "k"),
    (lambda: spectra.sphere_spectrum(1, -math.inf), "k"),
], ids=["flat-nan-n", "flat-inf-n", "flat-inf-omega", "flat-inf-hbar",
        "sphere-nan-l", "sphere-nan-k", "sphere-inf-k"])
def test_non_finite_quantum_number_is_a_usage_error(call, name):
    # each raised OverflowError "... energy is not finite", a numerical
    # failure, for what is a wrong request
    with pytest.raises(UsageError, match=rf"^{name} |index {name} "):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: spectra.landau_flat(2.5), "n"),
    (lambda: spectra.landau_halfplane(5, 1.5), "l"),
    (lambda: spectra.sphere_spectrum(1.5, 2), "l"),
    (lambda: spectra.sphere_spectrum(1, 2.5), "k"),
    (lambda: spectra.sphere_spectrum(1, Fraction(5, 2)), "k"),
    (lambda: spectra.eigenfunction_halfplane(5, 1.5, 1.0, (0.0, 1.0)), "l"),
], ids=["flat-n", "halfplane-l", "sphere-l", "sphere-k", "sphere-fraction-k",
        "eigenfunction-l"])
def test_non_integer_quantum_number_is_a_usage_error(call, name):
    # the first four answered 3.0, 8.125, -0.5 and -3.5; the eigenfunction
    # raised laguerre's error for its degree, which does not name l
    with pytest.raises(UsageError, match=rf"^{name} must be"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: spectra.landau_flat(True), "n"),
    (lambda: spectra.landau_halfplane(5, True), "l"),
    (lambda: spectra.sphere_spectrum(False, 2), "l"),
], ids=["flat-n", "halfplane-l", "sphere-l"])
def test_bool_quantum_number_is_a_usage_error(call, name):
    # operator.index reads True as 1: landau_flat(True) answered E_1
    with pytest.raises(UsageError, match=rf"^{name} must be an int, got "):
        call()


def test_whole_float_k_takes_the_float_path():
    line = spectra.sphere_spectrum(1, 2.0)
    assert line.energy == -2.0 and line.energy_exact is None


def test_sphere_spectrum_values():
    vals = [spectra.sphere_spectrum(l, 2, 1).energy for l in range(3)]
    assert vals == [-2.0, -2.0, 2.0]


def test_exact_and_float_inputs_share_one_formula():
    # on inputs whose float steps are all exact but the last division, the
    # float path equals the rounded exact value bit for bit
    rng = random.Random(20261017)
    for _ in range(200):
        n, w = rng.randrange(20), rng.randrange(1, 50)
        h = Fraction(rng.randrange(1, 9), 4)
        beta = Fraction(rng.randrange(2, 40), 2)
        l = rng.choice(range(spectra.halfplane_level_count(beta)))
        m, a = rng.randrange(1, 7), rng.randrange(1, 7)
        k, ls = rng.randrange(-5, 10), rng.randrange(10)
        rho = Fraction(rng.randrange(1, 9), 2)
        pairs = [
            (spectra.landau_flat(n, w, h),
             spectra.landau_flat(n, float(w), float(h))),
            (spectra.landau_halfplane(beta, l, m, a),
             spectra.landau_halfplane(float(beta), l, float(m), float(a))),
            (spectra.sphere_spectrum(ls, k, rho),
             spectra.sphere_spectrum(ls, float(k), float(rho))),
        ]
        for exact, approx in pairs:
            assert isinstance(exact.energy_exact, Fraction)
            assert approx.energy_exact is None
            assert float(exact.energy_exact).hex() == approx.energy.hex()


def test_eigenfunction_reference_value():
    v = spectra.eigenfunction_halfplane(5, 0, 1.0, (0.0, 1.0))
    assert v == pytest.approx(math.exp(-1.0))


def test_eigenfunction_phase_only_in_x():
    a = spectra.eigenfunction_halfplane(5, 1, 1.0, (0.0, 2.0))
    b = spectra.eigenfunction_halfplane(5, 1, 1.0, (3.0, 2.0))
    assert abs(a) == pytest.approx(abs(b))
    assert b / a == pytest.approx(cmath.exp(-3j))


@pytest.mark.parametrize("l", [0, 3])
@pytest.mark.parametrize("x", [0.0, 0.3])
def test_eigenfunction_overflow_fallback_matches_mpmath(l, x):
    # y^(beta - l) = 100^157 or more is beyond a double, |Psi| ~ 1e276 is not
    mpmath = pytest.importorskip("mpmath")
    beta, c, y = 160.0, 1.0, 100.0
    with pytest.raises(OverflowError):
        y ** (beta - l)
    got = spectra.eigenfunction_halfplane(beta, l, c, (x, y))
    with mpmath.workdps(50):
        want = (mpmath.exp(-1j * c * x - c * y) * mpmath.mpf(y) ** (beta - l)
                * mpmath.laguerre(l, 2 * beta - 2 * l - 1, 2 * c * y))
        assert abs(got - want) <= 1e-12 * abs(want)


def test_eigenfunction_node_stays_zero_where_the_power_overflows():
    # L_1^(317)(318) = 0 exactly while 2^(34 * 159) is beyond a double;
    # this raised OverflowError "eigenfunction value is not finite (inf)"
    y = 2.0 ** 34
    assert spectra.eigenfunction_halfplane(160.0, 1, 159.0 / y, (0.0, y)) == 0



@pytest.mark.parametrize("x", [0.0, 0.3])
def test_eigenfunction_beyond_a_double_raises_its_own_error(x):
    # |Psi| = e^(ln 1000 * 200 - 1) ~ 1e599: the log-space fallback's
    # math.exp raised a bare OverflowError("math range error")
    with pytest.raises(OverflowError,
                       match="eigenfunction value is not finite"):
        spectra.eigenfunction_halfplane(200.0, 0, 0.001, (x, 1e3))

@pytest.mark.parametrize("c, point", [
    (math.inf, (0.0, 1.0)),    # returned nan+nanj
    (math.nan, (0.0, 1.0)),
    (0.0, (0.0, 1.0)),
    (1.0, (math.inf, 1.0)),    # raised OverflowError on its nan
    (1.0, (math.nan, 1.0)),
])
def test_eigenfunction_rejects_non_finite_c_or_x(c, point):
    with pytest.raises(UsageError):
        spectra.eigenfunction_halfplane(5, 0, c, point)


def test_ground_state_flat():
    assert spectra.ground_state_flat(0, 1.0) == pytest.approx(1.0)
    assert spectra.ground_state_flat(2j, 1.0) == pytest.approx(math.exp(-1.0))


@pytest.mark.parametrize("z, z0", [
    (math.nan, 1.0),     # gave nan + 0j
    (1.0, math.inf),     # gave 1 + 0j
    (complex(1.0, math.nan), 1.0),
])
def test_ground_state_flat_rejects_non_finite_input(z, z0):
    with pytest.raises(ValueError, match="finite"):
        spectra.ground_state_flat(z, z0)


def test_serializers():
    lines = [spectra.landau_halfplane(5, l) for l in range(2)]
    data = json.loads(spectra.spectrum_json("halfplane", {"beta": 5}, lines))
    assert [lvl["energy"] for lvl in data["levels"]] == [2.5, 6.5]
    csv = spectra.spectrum_csv(lines)
    assert csv.splitlines()[0] == "qn,energy"
    assert len(csv.splitlines()) == 3
