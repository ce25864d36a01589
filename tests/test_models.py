"""The exact identity suite and individual model operators."""

import json
import time

import pytest

from curvedhall import models
from curvedhall.opalg import DeclarationError, Ring, poisson_bracket


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
    for Q in models.quantum_generators(H.ring):
        assert H.commutator(Q).terms == {}


def test_ladder_commutator_is_identity():
    a_op, a_dag = models.ladder_operators()
    c = a_op.commutator(a_dag)
    ring = a_op.ring
    # [a, a+] = 1 after the kappa^2 rewrite folds in all the constants
    assert list(c.terms) == [(0, 0)]
    assert c.terms[(0, 0)].num == ring.one()


def test_ring_equality_includes_power_rules():
    ring = models.ladder_ring()
    bare = Ring(ring.vars, laurent=ring.laurent, params=ring.params)
    assert bare != ring
    # without the kappa^2 rewrite the product would silently stay kappa**2
    with pytest.raises(DeclarationError):
        ring.var("kappa") * bare.var("kappa")


def test_sandwich_ordering_matches_expanded():
    H = models.hamiltonian_halfplane()
    S = models.hamiltonian_halfplane_sandwiched(H.ring)
    assert (H - S).terms == {}
    wrong = models.hamiltonian_halfplane_y2_right(H.ring)
    assert (H - wrong).terms != {}
