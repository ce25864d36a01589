"""The exact identity suite and individual model operators."""

import cmath
import hashlib
import json
import math
import time

import pytest

from curvedhall import models, numverify, spectra
from curvedhall.geometry import DISK_RING, GEOM
from curvedhall.opalg import DeclarationError, DiffOp, Ring, poisson_bracket


@pytest.fixture(scope="module")
def suite():
    return models.run_identity_suite()


EXPECTED_NAMES = [
    "classical-sl2-brackets",
    "classical-hamiltonian-charges",
    "flat-ladder-commutator",
    "flat-ladder-hamiltonian",
    "quantum-generator-brackets",
    "su11-brackets",
    "casimir-reduction",
    "casimir-commutes",
    "halfplane-ordering",
    "hamiltonian-casimir",
    "laplace-beltrami-builder",
    "complex-form-substitution",
    "sphere-casimir-identity",
    "disk-expansion-vs-compact",
]


def test_suite_names_and_order(suite):
    assert [r.name for r in suite] == EXPECTED_NAMES


def test_suite_statuses(suite):
    by_name = {r.name: r for r in suite}
    for name in EXPECTED_NAMES[:-1]:
        assert by_name[name].status == "exact-pass", name
    assert by_name["disk-expansion-vs-compact"].status == "documented-diff"


def test_disk_diff_rendered(suite):
    report = [r for r in suite if r.name == "disk-expansion-vs-compact"][0]
    assert report.rendered and "B**2" in report.rendered


def test_suite_runtime_budget():
    t0 = time.time()
    models.run_identity_suite()
    assert time.time() - t0 < 10.0


def test_render_json(suite):
    data = json.loads(models.render_suite(suite, fmt="json"))
    assert len(data) == 14
    assert {"name", "status", "residual_text", "note"} <= set(data[0])


def test_render_bytes_match_bench_golden(suite, golden):
    # the benchmark's verify workload checks the same two digests; this
    # keeps the bytes pinned in the tier-1 suite as well
    for fmt, key in (("text", "verify_text_sha256"), ("json", "verify_json_sha256")):
        rendered = models.render_suite(suite, fmt=fmt).encode()
        assert hashlib.sha256(rendered).hexdigest() == golden[key], fmt


def test_suite_builds_each_generator_set_once_per_run(monkeypatch):
    calls = []
    build = models.quantum_generators

    def counting():
        calls.append(1)
        return build()

    monkeypatch.setattr(models, "quantum_generators", counting)
    first = models.run_identity_suite()
    # the sphere identity reuses the generators of reports 5-8
    assert len(calls) == 1
    # a second run builds its own operators and reports the same
    assert models.run_identity_suite() == first
    assert len(calls) == 2


def test_suite_constructs_no_ring(monkeypatch):
    built = []
    init = Ring.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Ring, "__init__", counting)
    models.run_identity_suite()
    # every model ring is a module constant
    assert built == []


def test_disk_residual_matches_closed_form(suite):
    """Report 14's residual, read back by sympy, is B^2 phi^2 (|w|^2 - 1)/2m.

    Both forms carry the prefactor phi/2m.  The expansion of the gauged
    kinetic operator has the zeroth-order magnetic term
    u^2 A^2 = phi^2 B^2 |w|^2, since A = B (y, -x), so (phi/2m) B^2 phi
    |w|^2; the compact form writes (phi/2m) B^2 phi.  Every other term
    agrees, so expanded - compact = B^2 phi^2 (|w|^2 - 1)/(2m)."""
    sympy = pytest.importorskip("sympy")
    x, y, B, rho, m = sympy.symbols("x y B rho m")
    (report,) = [r for r in suite if r.name == "disk-expansion-vs-compact"]
    residual = sympy.parse_expr(report.rendered, local_dict={
        "x": x, "y": y, "B": B, "rho": rho, "m": m})
    w2 = x**2 + y**2
    phi = 1 - w2 / rho**2
    assert sympy.simplify(residual - B**2 * phi**2 * (w2 - 1) / (2 * m)) == 0


@pytest.mark.parametrize("build, status", [
    pytest.param(lambda R, B: DiffOp.zero(R, GEOM), "exact-pass", id="zero"),
    pytest.param(lambda R, B: DiffOp.mult(R, GEOM, B * B) * DiffOp.d(R, GEOM, "x"),
                 "fail", id="first-order"),
    pytest.param(lambda R, B: DiffOp.mult(R, GEOM, B * B + B), "fail",
                 id="zeroth-order-not-B2"),
    pytest.param(lambda R, B: DiffOp.mult(R, GEOM, B * B * R.var("x")),
                 "documented-diff", id="zeroth-order-B2"),
])
def test_disk_diff_classification(build, status):
    diff = build(DISK_RING, DISK_RING.var("B"))
    report = models._classify_disk_diff(diff)
    assert report.status == status
    assert report.rendered == str(diff)


def test_translation_charge_determination():
    choice, note = models.determine_classical_translation()
    assert choice == "px"
    assert "py" in note or "p_y" in note


def test_classical_brackets_px_closes():
    L1, L2, L3 = models.classical_generators(translation="px")
    assert poisson_bracket(L1, L2) == L2
    assert poisson_bracket(L1, L3) == -L3
    assert poisson_bracket(L2, L3) == L1 + L1


def test_classical_brackets_py_fails():
    L1, L2, L3 = models.classical_generators(translation="py")
    assert poisson_bracket(L2, L3) != L1 + L1


def test_hamiltonian_commutes_with_generators():
    H = models.hamiltonian_halfplane()
    for Q in models.quantum_generators():
        assert H.commutator(Q).terms == {}


def test_ladder_commutator_is_identity():
    a_op, a_dag = models.ladder_operators()
    c = a_op.commutator(a_dag)
    ring = a_op.ring
    # [a, a+] = 1: the kappa of each prefactor meets the 1/(8 kappa^2) of
    # the other operator's multiplication term
    assert list(c.terms) == [(0, 0)]
    assert c.terms[(0, 0)] == ring.one()


def test_rings_differing_in_declarations_do_not_mix():
    ring = Ring(("x", "y", "beta"), laurent=("y",), params=("beta",))
    # the same variables, with beta no longer a parameter / now Laurent
    for other in (Ring(ring.vars, laurent=("y",)),
                  Ring(ring.vars, laurent=("y", "beta"), params=("beta",))):
        assert other != ring
        with pytest.raises(DeclarationError):
            ring.var("x") * other.var("x")


@pytest.mark.parametrize("z0, z", [(1.0, 0.3 - 0.4j), (0.7, -1.1 + 0.2j)])
def test_ladder_lowering_annihilates_flat_ground_state(z0, z):
    # kappa = l_B / sqrt(2) with l_B = z0 at m = omega_c = 1
    kappa = z0 / math.sqrt(2.0)
    a_op, a_dag = models.ladder_operators()
    # psi_0 continued off the real slice zb = conj(z), as the Wirtinger
    # derivatives need: z and zb vary independently in the stencils
    psi = lambda co: cmath.exp(-co["z"] * co["zb"] / (4.0 * z0 * z0))
    point = {"z": z, "zb": z.conjugate(), "m": 1.0, "omega_c": 1.0,
             "kappa": kappa}
    assert psi(point) == pytest.approx(spectra.ground_state_flat(z, z0),
                                       abs=1e-15)
    assert abs(numverify.fd_apply(a_op, psi, point, 1e-3)) < 1e-8
    # control: a_dag psi_0 = i kappa zb psi_0 / z0^2 is far from zero
    raised = 1j * kappa * z.conjugate() * psi(point) / (z0 * z0)
    assert abs(raised) > 0.1
    assert numverify.fd_apply(a_dag, psi, point, 1e-3) == pytest.approx(
        raised, abs=1e-8)


def test_sandwich_ordering_matches_expanded():
    H = models.hamiltonian_halfplane()
    S = models.hamiltonian_halfplane_sandwiched()
    assert (H - S).terms == {}
    wrong = models.hamiltonian_halfplane_y2_right()
    assert (H - wrong).terms != {}
