"""Tests of the benchmark itself: its declaration, its seeding, the
exactness of its work counters and the failure of its correctness gate.

    python3 -m pytest bench -q

They start the benchmark as a child process from the checkout root (or
from a temporary copy under ``bench/_out``), the way it is meant to be
run, and take about a minute.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import run
import workloads as W

ROOT = W.ROOT
COUNTERS = ("opalg.GaussianRational.mul.calls", "opalg.LaurentPoly.mul.calls",
            "opalg.LaurentPoly.mul.terms_out", "numverify.sturm.calls",
            "numverify.sturm.calls_per_level", "classical.rk4.steps",
            "specfun.laguerre.calls", "spectra.landau_halfplane.calls")


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *map(str, args)],
        cwd=root, capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def short_pass(workload, root=ROOT, min_ops=2):
    return bench("--workload", workload, "--seed", 7, "--seconds", 0,
                 "--trace", 0, "--min-ops", min_ops, root=root)


def copy_checkout(files):
    os.makedirs(W.OUT_DIR, exist_ok=True)
    dst = tempfile.mkdtemp(prefix="checkout-", dir=W.OUT_DIR)
    for name in files:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dst, name),
                            ignore=shutil.ignore_patterns("_out", "__pycache__"))
        else:
            shutil.copy(src, dst)
    return dst


def test_declaration_matches_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        decl = json.load(fh)
    assert [w["name"] for w in decl["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in decl["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in decl["per_layer"]] == \
        [(name, unit) for name, unit, _ in run.PER_LAYER]
    assert max(m["bound"] for m in decl["end_to_end"]) == next(
        m["bound"] for m in decl["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("name", ["jacobi", "oracle", "cli"])
def test_seed_determines_inputs(name):
    wl = W.WORKLOADS[name]()

    def first(seed):
        return list(itertools.islice(wl.inputs(seed), 27))

    assert first(1) == first(1)
    assert first(1) != first(2)


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_short_pass_prints_every_metric(name):
    proc = short_pass(name)
    res = result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in res["metrics"].values())
    table = proc.stdout.splitlines()[:-1]
    for metric, unit in run.END_TO_END + (("failed_frac", "("),):
        assert any(line.split()[:1] == [metric] and unit in line.split()[2]
                   for line in table), metric


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_traced_counters_repeat_exactly(name):
    one, two = (result(bench("--workload", name, "--seed", 3, "--seconds", 0,
                             "--trace", 1)) for _ in range(2))
    assert one["failed"] == two["failed"] == 0
    assert set(one["metrics"]) == {m for m, _, _ in run.PER_LAYER}
    counts = {k: one["metrics"][k]["value"] for k in COUNTERS}
    assert counts == {k: two["metrics"][k]["value"] for k in COUNTERS}
    expected_nonzero = {
        "verify": ("opalg.GaussianRational.mul.calls", "opalg.LaurentPoly.mul.terms_out"),
        "jacobi": ("opalg.LaurentPoly.mul.calls", "opalg.LaurentPoly.mul.terms_out"),
        "oracle": ("numverify.sturm.calls", "numverify.sturm.calls_per_level"),
        "cli": ("classical.rk4.steps", "specfun.laguerre.calls"),
    }[name]
    assert all(counts[k] > 0 for k in expected_nonzero)
    if name == "cli":
        assert counts["classical.rk4.steps"] == 20000
    assert "trace.overhead_frac" in one["metrics"]


def corrupt_golden(root):
    path = os.path.join(root, "bench", "golden.json")
    with open(path) as fh:
        golden = json.load(fh)
    golden["verify_text_sha256"] = "0" * 64
    for mu in golden["oracle_mu"].values():
        mu[0] += 1e-6
    golden["cli"]["stdout_sha256"] = {k: "0" * 64
                                      for k in golden["cli"]["stdout_sha256"]}
    with open(path, "w") as fh:
        json.dump(golden, fh)


@pytest.mark.parametrize("name", ["verify", "oracle", "cli"])
def test_corrupted_golden_fails_operations(name):
    root = copy_checkout(["src", "bench", "BENCHMARK.json"])
    try:
        corrupt_golden(root)
        # nine operations hold every oracle cell and every cli command
        res = result(short_pass(name, root=root, min_ops=9))
    finally:
        shutil.rmtree(root)
    assert not res["correct"]
    assert 0 < res["failed"] <= res["attempted"]


def test_refuses_to_run_without_the_package():
    root = copy_checkout(["bench", "BENCHMARK.json"])
    try:
        proc = short_pass("verify", root=root)
    finally:
        shutil.rmtree(root)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
