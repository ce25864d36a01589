"""Exact eigenstate certificates: the kernel applies each model operator to
a closed-form wavefunction and requires an exactly zero residual.

A wavefunction g(z, zb) f(z, zb) with a non-polynomial prefactor g is
checked through the conjugated operator g^-1 D g, which acts on the
polynomial part f: ``DiffOp.substitute`` maps each partial to its
chain-rule image, and ``DiffOp.apply_poly`` applies the result.  Each
candidate and energy is built from its formula here, not from the
package's float code.
"""

from fractions import Fraction

import pytest

from curvedhall import models
from curvedhall.opalg import DiffOp

RING = models.LADDER_RING
ZGEOM = ("z", "zb")


def _gaussian_conjugate(op):
    """g^-1 op g for g = exp(-z zb / (8 kappa^2)), the flat plane's ground
    state prefactor: dz g = g (dz - zb / 8kappa^2), dzb g = g (dzb -
    z / 8kappa^2).  Mapping "z" to itself names the target ring."""
    c = RING.var("kappa", -2) * Fraction(1, 8)
    z, zb = RING.var("z"), RING.var("zb")
    return op.substitute(
        {"z": z},
        {"z": DiffOp.d(RING, ZGEOM, "z") - DiffOp.mult(RING, ZGEOM, c * zb),
         "zb": DiffOp.d(RING, ZGEOM, "zb") - DiffOp.mult(RING, ZGEOM, c * z)})


def _flat_energy(n):
    """E_n = hbar omega_c (n + 1/2), with hbar = 2 m omega_c kappa^2."""
    hbar = RING.var("m") * RING.var("omega_c") * RING.var("kappa", 2) * 2
    return hbar * RING.var("omega_c") * Fraction(2 * n + 1, 2)


LOWER, RAISE = (_gaussian_conjugate(op) for op in models.ladder_operators())
HAMILTONIAN = _gaussian_conjugate(models.flat_hamiltonian_complex())


@pytest.mark.parametrize("k", range(4))
def test_flat_lowering_operator_kills_each_lowest_level_state(k):
    # a = -2i kappa (dzb + z/8kappa^2) conjugates to -2i kappa dzb, which
    # kills no state with a power of zb
    assert LOWER.apply_poly(RING.var("z", k)).is_zero
    assert not LOWER.apply_poly(RING.var("z", k) * RING.var("zb")).is_zero


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("n", range(4))
def test_flat_raised_states_have_the_landau_energies(n, k):
    # (a_dag)^n z^k g is an eigenstate of H with E = hbar omega_c (n + 1/2)
    # exactly, whatever the angular index k
    psi = RING.var("z", k)
    for _ in range(n):
        psi = RAISE.apply_poly(psi)
    assert not psi.is_zero
    assert (HAMILTONIAN.apply_poly(psi) - _flat_energy(n) * psi).is_zero
