"""Model operators and the exact identity suite.

Builds the classical Noether charges and Hamiltonian on the half-plane,
their quantum counterparts, the su(1,1) Casimir, the flat-plane ladder
operators, and the disk/sphere operator identities, then certifies every
relation among them with zero-residual exact algebra.

Two convention questions are settled empirically rather than assumed:

* the classical translation charge: of the two momentum candidates, only
  p_x closes the sl(2,R) bracket table together with the dilation and
  special-conformal charges; the suite evaluates both candidates and
  records which one closes;
* the disk expansion: the compact form of the disk Hamiltonian carries a
  zeroth-order magnetic term B^2*phi, while the exact expansion of the
  gauged kinetic operator carries B^2*phi*|w|^2 in that slot; the suite
  renders the residual explicitly and reports it as a documented diff,
  not a failure.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction

from . import geometry
from .geometry import (
    DISK_RING,
    GEOM,
    HALFPLANE_RING,
    disk_gauge,
    disk_phi,
    halfplane_gauge,
    make_metric,
)
from .opalg import PHASE_RING, DiffOp, I, Ring, poisson_bracket


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------

# the geometric variables of both complex-coordinate rings, as GEOM is for
# the real ones
_ZGEOM = ("z", "zb")

COMPLEX_RING = Ring(_ZGEOM + ("beta", "a", "m"),
                    laurent=("beta", "a", "m"), params=("beta", "a", "m"))

# The flat plane in complex coordinates, parametrised by kappa = l_B/sqrt(2)
# = sqrt(hbar/2 m omega_c): hbar = 2 m omega_c kappa^2 is a monomial, so the
# coefficient field stays rational.
LADDER_RING = Ring(_ZGEOM + ("m", "omega_c", "kappa"),
                   laurent=("m", "omega_c", "kappa"),
                   params=("m", "omega_c", "kappa"))


def _hbar():
    """hbar = 2 m omega_c kappa^2 over ``LADDER_RING``."""
    return (LADDER_RING.var("m") * LADDER_RING.var("omega_c")
            * LADDER_RING.var("kappa", 2) * 2)


# ---------------------------------------------------------------------------
# classical sector
# ---------------------------------------------------------------------------

def classical_generators(translation="px"):
    """Noether charges L1 (dilation), L2 (translation), L3 (special
    conformal).  ``translation`` picks the candidate for L2; the closing
    choice is determined by the suite, not assumed."""
    x, y = PHASE_RING.var("x"), PHASE_RING.var("y")
    px, py = PHASE_RING.var("px"), PHASE_RING.var("py")
    beta = PHASE_RING.var("beta")
    L1 = x * px + y * py
    L2 = px if translation == "px" else py
    L3 = (y * y - x * x) * px - 2 * x * y * py + 2 * beta * y
    return L1, L2, L3


def classical_hamiltonian():
    """H = (1/4a^2) [ y^2 (px^2 + py^2) + 2 beta y px + beta^2 ]."""
    y = PHASE_RING.var("y")
    px, py = PHASE_RING.var("px"), PHASE_RING.var("py")
    beta = PHASE_RING.var("beta")
    inv_4a2 = PHASE_RING.var("a", -2) * Fraction(1, 4)
    return inv_4a2 * (y * y * (px * px + py * py) + 2 * beta * y * px + beta * beta)


# ---------------------------------------------------------------------------
# quantum sector (half-plane)
# ---------------------------------------------------------------------------

def quantum_generators():
    """Right-moved generator forms: L1 = -i(x dx + y dy), L2 = -i dx,
    L3 = -i(y^2-x^2) dx + 2i x y dy + 2 beta y."""
    x, y = HALFPLANE_RING.var("x"), HALFPLANE_RING.var("y")
    beta = HALFPLANE_RING.var("beta")
    L1 = DiffOp.from_terms(HALFPLANE_RING, GEOM, {
        (1, 0): (-I) * x, (0, 1): (-I) * y})
    L2 = (-I) * DiffOp.d(HALFPLANE_RING, GEOM, "x")
    L3 = DiffOp.from_terms(HALFPLANE_RING, GEOM, {
        (1, 0): (-I) * (y * y - x * x),
        (0, 1): (2 * I) * (x * y),
        (0, 0): 2 * beta * y,
    })
    return L1, L2, L3


def quantum_generators_ordered():
    """Operator-valued forms with the coordinate factors on the left, as
    first written down; expanding them must reproduce the right-moved
    forms exactly."""
    x, y = HALFPLANE_RING.var("x"), HALFPLANE_RING.var("y")
    beta = HALFPLANE_RING.var("beta")
    Dx = DiffOp.d(HALFPLANE_RING, GEOM, "x")
    _, p_y = _halfplane_gauged_momenta()
    L1 = (-I) * Dx * x + DiffOp.mult(HALFPLANE_RING, GEOM, y) * p_y
    L2 = (-I) * Dx
    L3 = ((-I) * Dx * (y * y - x * x)
          - 2 * (DiffOp.mult(HALFPLANE_RING, GEOM, x * y) * p_y) + 2 * beta * y)
    return L1, L2, L3


def su11_basis(L1, L2, L3):
    """J0, J1, J2 from the generators of ``quantum_generators``."""
    J0 = Fraction(1, 2) * (L2 - L3)
    J1 = Fraction(1, 2) * (L2 + L3)
    J2 = L1
    return J0, J1, J2


def casimir(J0, J1, J2):
    """C = J0^2 - J1^2 - J2^2 in the su(1,1) basis of ``su11_basis``."""
    return J0 * J0 - J1 * J1 - J2 * J2


def _prefactor():
    """1/(2 m a^2) over ``HALFPLANE_RING``."""
    return (HALFPLANE_RING.var("m", -1) * HALFPLANE_RING.var("a", -2)
            * Fraction(1, 2))


def hamiltonian_halfplane():
    """(1/2 m a^2) [ -y^2 (dx^2 + dy^2) - 2 i beta y dx + beta^2 ]."""
    y, beta = HALFPLANE_RING.var("y"), HALFPLANE_RING.var("beta")
    pre = _prefactor()
    return DiffOp.from_terms(HALFPLANE_RING, GEOM, {
        (2, 0): pre * -(y * y),
        (0, 2): pre * -(y * y),
        (1, 0): pre * ((-2 * I) * (beta * y)),
        (0, 0): pre * (beta * beta),
    })


def _halfplane_gauged_momenta():
    beta, inv_y = HALFPLANE_RING.var("beta"), HALFPLANE_RING.var("y", -1)
    P1 = DiffOp.from_terms(HALFPLANE_RING, GEOM, {
        (1, 0): -I, (0, 0): beta * inv_y})
    P2 = DiffOp.from_terms(HALFPLANE_RING, GEOM, {
        (0, 1): -I, (0, 0): I * inv_y})
    return P1, P2


def hamiltonian_halfplane_sandwiched():
    """(1/2 m a^2) y (P1^2 + P2^2) y, the ordering the model adopts."""
    P1, P2 = _halfplane_gauged_momenta()
    y = HALFPLANE_RING.var("y")
    return (DiffOp.mult(HALFPLANE_RING, GEOM, y) * (P1 * P1 + P2 * P2)
            * (y * _prefactor()))


def hamiltonian_halfplane_y2_right():
    """(1/2 m a^2) (P1^2 + P2^2) y^2 -- the rejected ordering; kept so the
    suite can exhibit its nonzero residual against the adopted form."""
    P1, P2 = _halfplane_gauged_momenta()
    y = HALFPLANE_RING.var("y")
    return (P1 * P1 + P2 * P2) * (y * y * _prefactor())


def hamiltonian_halfplane_complex():
    """Complex form over (z, zbar):
    (1/2 m a^2) [ (z-zb)^2 dzb dz - beta (z-zb)(dz + dzb) + beta^2 ]."""
    z, zb = COMPLEX_RING.var("z"), COMPLEX_RING.var("zb")
    beta = COMPLEX_RING.var("beta")
    w = z - zb
    pre = (COMPLEX_RING.var("m", -1) * COMPLEX_RING.var("a", -2)
           * Fraction(1, 2))
    return DiffOp.from_terms(COMPLEX_RING, _ZGEOM, {
        (1, 1): pre * (w * w),
        (1, 0): pre * -(beta * w),
        (0, 1): pre * -(beta * w),
        (0, 0): pre * (beta * beta),
    })


def complexify_halfplane(H_real):
    """Push a half-plane operator through x = (z+zb)/2, y = (z-zb)/2i."""
    z, zb = COMPLEX_RING.var("z"), COMPLEX_RING.var("zb")
    half = Fraction(1, 2)
    images = {
        "x": (z + zb) * half,
        "y": (z - zb) * (half * (-I)),
    }
    Dz = DiffOp.d(COMPLEX_RING, _ZGEOM, "z")
    Dzb = DiffOp.d(COMPLEX_RING, _ZGEOM, "zb")
    derivs = {"x": Dz + Dzb, "y": I * (Dz - Dzb)}
    return H_real.substitute(images, derivs)


# ---------------------------------------------------------------------------
# flat-plane ladder sector
# ---------------------------------------------------------------------------

def ladder_operators():
    """a = -2 i kappa (dzb + z/(8 kappa^2)) and a_dag = -2 i kappa (dz -
    zb/(8 kappa^2)) over (z, zbar)."""
    z, zb = LADDER_RING.var("z"), LADDER_RING.var("zb")
    kappa = LADDER_RING.var("kappa")
    # m omega_c / 4 hbar = 1 / (8 kappa^2)
    c = LADDER_RING.var("kappa", -2) * Fraction(1, 8)
    Dz = DiffOp.d(LADDER_RING, _ZGEOM, "z")
    Dzb = DiffOp.d(LADDER_RING, _ZGEOM, "zb")
    pref = (-2 * I) * kappa
    return (Dzb + c * z) * pref, (Dz - c * zb) * pref


def flat_hamiltonian_complex():
    """-(2 hbar^2/m) dz dzb - (hbar w_c/2)(z dz - zb dzb) + (m w_c^2/8)|z|^2."""
    z, zb = LADDER_RING.var("z"), LADDER_RING.var("zb")
    hbar, m = _hbar(), LADDER_RING.var("m")
    omega_c = LADDER_RING.var("omega_c")
    half_wc = hbar * omega_c * Fraction(1, 2)
    return DiffOp.from_terms(LADDER_RING, _ZGEOM, {
        (1, 1): hbar * hbar * LADDER_RING.var("m", -1) * -2,
        (1, 0): -half_wc * z,
        (0, 1): half_wc * zb,
        (0, 0): m * omega_c * omega_c * Fraction(1, 8) * (z * zb),
    })


# ---------------------------------------------------------------------------
# disk sector
# ---------------------------------------------------------------------------

def disk_hamiltonian_compact():
    """The compact form of the disk Hamiltonian:
    (phi/2m) { -phi lap - (4/rho^2)(x dx + y dy) + 2 i B phi (y dx - x dy)
               + B^2 phi - (4/rho^2)(1 + 2|w|^2/(rho^2 phi)) }."""
    x, y, B = DISK_RING.var("x"), DISK_RING.var("y"), DISK_RING.var("B")
    phi = disk_phi()
    inv_rho2 = DISK_RING.var("rho", -2)
    w2 = x * x + y * y
    inv_2m = DISK_RING.var("m", -1) * Fraction(1, 2)
    pre = inv_2m * phi
    # the prefactor's phi clears the 1/phi of the last term:
    # (phi/2m) (-(4/rho^2)(1 + 2|w|^2/(rho^2 phi)))
    # = (1/2m) (-(4/rho^2)(phi + 2|w|^2/rho^2))
    return DiffOp.from_terms(DISK_RING, GEOM, {
        (2, 0): pre * -phi,
        (0, 2): pre * -phi,
        (1, 0): pre * (-4 * inv_rho2 * x + (2 * I) * phi * B * y),
        (0, 1): pre * (-4 * inv_rho2 * y - (2 * I) * phi * B * x),
        (0, 0): (pre * (B * B * phi)
                 + inv_2m * (-4 * inv_rho2 * (phi + 2 * w2 * inv_rho2))),
    })


def disk_hamiltonian_expanded():
    """Exact expansion of the gauged kinetic operator on the disk, with the
    1/sqrt(g) placed entirely on the left."""
    metric = make_metric("disk")
    return geometry.laplace_beltrami(metric, disk_gauge(metric), ordering="left")


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

EXACT_PASS = "exact-pass"
DOCUMENTED_DIFF = "documented-diff"
FAIL = "fail"


IdentityReport = namedtuple("IdentityReport", "name status rendered note",
                            defaults=("", ""))


def _report(name, residuals, note=""):
    """All residuals must normalize to zero for an exact pass."""
    if not isinstance(residuals, (list, tuple)):
        residuals = [residuals]
    bad = [r for r in residuals if not r.is_zero]
    if not bad:
        return IdentityReport(name, EXACT_PASS, "0", note)
    return IdentityReport(name, FAIL, str(bad[0]), note)


def sphere_identity(L1, L2, L3, C):
    """Certify -(2/rho^2)(L2 L3 - i L1) = (2/rho^2)(C + L1^2), the operator
    content of the Haldane-sphere Hamiltonian, from the half-plane
    generators of ``quantum_generators`` and their Casimir."""
    pre = HALFPLANE_RING.var("rho", -2) * 2
    lhs = -(L2 * L3 - I * L1) * pre
    rhs = (C + L1 * L1) * pre
    return _report("sphere-casimir-identity", lhs - rhs,
                   note="H = -(D+D- + D-D+) rewritten through the Casimir")


def determine_classical_translation():
    """Return ('px' or 'py', note) -- which candidate closes the bracket
    table {L1,L2}=L2, {L1,L3}=-L3, {L2,L3}=2L1."""
    outcomes = {}
    for cand in ("px", "py"):
        L1, L2, L3 = classical_generators(translation=cand)
        res = [
            poisson_bracket(L1, L2) - L2,
            poisson_bracket(L1, L3) + L3,
            poisson_bracket(L2, L3) - 2 * L1,
        ]
        outcomes[cand] = all(r.is_zero for r in res)
    closing = [c for c, ok in outcomes.items() if ok]
    note = ("closure holds for L2=p_x only; the p_y candidate fails {L2,L3}=2L1"
            if closing == ["px"] else f"closing candidates: {closing}")
    return (closing[0] if closing else None), note


def run_identity_suite():
    """Run every exact certification; deterministic order, 14 reports."""
    reports = []

    # 1. classical sl(2,R) closure, with the translation charge determined:
    # a closing candidate has just had all three brackets checked
    choice, note = determine_classical_translation()
    if choice is None:
        reports.append(IdentityReport("classical-sl2-brackets", FAIL,
                                      note="no candidate closes"))
    else:
        reports.append(IdentityReport("classical-sl2-brackets", EXACT_PASS,
                                      "0", note))

    # 2. 4 a^2 H = L2 L3 + L1^2 + beta^2
    H = classical_hamiltonian()
    L1, L2, L3 = classical_generators()
    beta = PHASE_RING.var("beta")
    reports.append(_report(
        "classical-hamiltonian-charges",
        4 * PHASE_RING.var("a", 2) * H - (L2 * L3 + L1 * L1 + beta * beta)))

    # 3-4. flat ladder algebra
    a_op, adag = ladder_operators()
    reports.append(_report("flat-ladder-commutator",
                           a_op.commutator(adag) - 1))
    half_wc = _hbar() * LADDER_RING.var("omega_c") * Fraction(1, 2)
    reports.append(_report(
        "flat-ladder-hamiltonian",
        (a_op * adag + adag * a_op) * half_wc - flat_hamiltonian_complex()))

    # 5. quantum generator brackets + ordered forms expand to right-moved
    L1, L2, L3 = quantum_generators()
    O1, O2, O3 = quantum_generators_ordered()
    reports.append(_report("quantum-generator-brackets", [
        L1.commutator(L2) - I * L2,
        L1.commutator(L3) + I * L3,
        L2.commutator(L3) - (2 * I) * L1,
        O1 - L1, O2 - L2, O3 - L3,
    ], note="includes ordered-form == right-moved-form"))

    # 6. su(1,1) brackets
    J0, J1, J2 = su11_basis(L1, L2, L3)
    reports.append(_report("su11-brackets", [
        J0.commutator(J1) - I * J2,
        J0.commutator(J2) + I * J1,
        J1.commutator(J2) + I * J0,
    ]))

    # 7. Casimir reduction and its explicit expansion
    C = casimir(J0, J1, J2)
    y, b = HALFPLANE_RING.var("y"), HALFPLANE_RING.var("beta")
    neg_C_target = DiffOp.from_terms(HALFPLANE_RING, GEOM, {
        (2, 0): -(y * y), (0, 2): -(y * y), (1, 0): (-2 * I) * (b * y)})
    reports.append(_report("casimir-reduction", [
        C - (-(L2 * L3) - L1 * L1 + I * L1),
        (-C) - neg_C_target,
    ]))

    # 8. Casimir commutes with every generator
    reports.append(_report("casimir-commutes",
                           [C.commutator(Jk) for Jk in (J0, J1, J2)]))

    # 9. ordering: sandwiched form == expanded form; y^2-right form differs
    H9 = hamiltonian_halfplane()
    res_sandwich = hamiltonian_halfplane_sandwiched() - H9
    res_right = hamiltonian_halfplane_y2_right() - H9
    if res_sandwich.is_zero and not res_right.is_zero:
        reports.append(IdentityReport(
            "halfplane-ordering", EXACT_PASS, "0",
            note=f"y(..)y ordering matches; y^2-right residual: {res_right}"))
    else:
        reports.append(IdentityReport(
            "halfplane-ordering", FAIL, str(res_sandwich)))

    # 10. 2 m a^2 H = -C + beta^2
    two_ma2 = 2 * HALFPLANE_RING.var("m") * HALFPLANE_RING.var("a", 2)
    reports.append(_report("hamiltonian-casimir", H9 * two_ma2 - (-C + b * b)))

    # 11. de Witt builder reproduces the half-plane Hamiltonian
    metric = make_metric("halfplane")
    built = geometry.laplace_beltrami(metric, halfplane_gauge(metric),
                                      ordering="symmetric")
    reports.append(_report(
        "laplace-beltrami-builder", built - H9,
        note="g^(-1/4)-sandwich ordering; the all-left ordering differs"))

    # 12. complex form of the half-plane Hamiltonian
    reports.append(_report(
        "complex-form-substitution",
        complexify_halfplane(H9) - hamiltonian_halfplane_complex()))

    # 13. sphere identity, from the generators and Casimir of reports 5-8
    reports.append(sphere_identity(L1, L2, L3, C))

    # 14. disk expansion vs compact form (expected diff in the B^2 term)
    diff = disk_hamiltonian_expanded() - disk_hamiltonian_compact()
    reports.append(_classify_disk_diff(diff))

    return reports


def _classify_disk_diff(diff):
    name = "disk-expansion-vs-compact"
    if diff.is_zero:
        return IdentityReport(name, EXACT_PASS, "0")
    # a documented diff must be zeroth order and proportional to B^2
    orders = set(diff.terms)
    if orders == {(0, 0)}:
        c = diff.terms[(0, 0)]
        # B d/dB scales each term by its power of B: all powers are 2
        if c.diff("B") * c.ring.var("B") == 2 * c:
            return IdentityReport(
                name, DOCUMENTED_DIFF, str(diff),
                note="compact-form B^2*phi vs expanded B^2*phi*|w|^2 (zeroth order only)")
    return IdentityReport(name, FAIL, str(diff))


def render_suite(reports, fmt="text"):
    if fmt == "json":
        return json.dumps([{"name": r.name, "status": r.status,
                            "residual_text": r.rendered, "note": r.note}
                           for r in reports], indent=2)
    lines = []
    for r in reports:
        line = f"{r.name:34s} {r.status}"
        if r.note:
            line += f"  [{r.note}]"
        if r.status != EXACT_PASS and r.rendered:
            line += f"\n{'':34s} residual: {r.rendered}"
        lines.append(line)
    return "\n".join(lines)
