"""The four benchmark workloads: seeded inputs, one operation, its check.

Each workload is a closed loop with one caller.  ``inputs(seed)`` yields
an endless, seed-determined sequence of operation inputs; ``call`` is the
timed operation and ``check`` compares its output with ``golden.json``
(recorded from the seed commit by ``record_golden.py``) or with an exact
identity.  ``trace_ops`` is the number of operations a traced run takes.

Where a workload mixes operations of very different cost (``oracle``
cells, ``cli`` commands) every round holds each kind exactly once in a
seeded order.  The mix is therefore the same on every seed, so the
percentiles of two runs compare like with like; the seed changes the
order and the generated arguments.

Nothing from ``curvedhall`` is imported at module level: ``setup`` does
the imports, so that the set-up time includes them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "_out")
GOLDEN_PATH = os.path.join(HERE, "golden.json")
LAUNCHER = os.path.join(HERE, "launch.py")

MU_ABS_TOL = 1e-9       # oracle mu against the seed commit's values
ENERGY_REL_TOL = 1e-3   # oracle energies against the closed form


def sha256(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# verify: the 14-report identity suite as `curvedhall verify` runs it
# ---------------------------------------------------------------------------

class Verify:
    name = "verify"
    trace_ops = 2

    def setup(self, seed):
        from curvedhall import models
        self.models = models
        self.golden = load_golden()
        self.check(None, self.call(None))

    def inputs(self, seed):
        # the suite takes no input; every operation is the same
        while True:
            yield None

    def call(self, x):
        reports = self.models.run_identity_suite()
        return (self.models.render_suite(reports),
                self.models.render_suite(reports, fmt="json"))

    def check(self, x, out):
        text, js = out
        return (sha256(text) == self.golden["verify_text_sha256"]
                and sha256(js) == self.golden["verify_json_sha256"])


# ---------------------------------------------------------------------------
# jacobi: [A,[B,C]] + cyclic == 0 on seeded first-order DiffOps
# ---------------------------------------------------------------------------

JACOBI_TERMS = 1        # monomials per coefficient polynomial
JACOBI_GEOM = ("x", "y")


def jacobi_instance(rng):
    """Nine coefficient polynomials (p, q, r for A, B, C), each with
    JACOBI_TERMS distinct monomials drawn like the property test's
    strategy: x^0..3 y^-2..3 beta^0..2 times a small nonzero fraction."""
    polys = []
    for _ in range(9):
        exps = set()
        while len(exps) < JACOBI_TERMS:
            exps.add((rng.randint(0, 3), rng.randint(-2, 3), rng.randint(0, 2)))
        terms = []
        for e in sorted(exps):
            num = rng.choice([v for v in range(-50, 51) if v])
            terms.append((e, num, rng.randint(1, 12)))
        polys.append(tuple(terms))
    return tuple(polys)


class Jacobi:
    name = "jacobi"
    trace_ops = 8

    def setup(self, seed):
        from curvedhall.opalg import DiffOp, Ring
        self.DiffOp = DiffOp
        self.ring = Ring(("x", "y", "beta"), laurent=("y",), params=("beta",))
        self.check(None, self.call(jacobi_instance(random.Random("jacobi-warmup"))))

    def inputs(self, seed):
        rng = random.Random(f"jacobi:{seed}")
        while True:
            yield jacobi_instance(rng)

    def _poly(self, terms):
        ring = self.ring
        out = ring.zero()
        for e, num, den in terms:
            out = out + ring.monomial(e, Fraction(num, den))
        return out

    def _op(self, p, q, r):
        D, ring, gv = self.DiffOp, self.ring, JACOBI_GEOM
        return (D.mult(ring, gv, self._poly(p))
                + D.d(ring, gv, "x") * D.mult(ring, gv, self._poly(q))
                + D.d(ring, gv, "y") * D.mult(ring, gv, self._poly(r)))

    def call(self, x):
        A, B, C = self._op(*x[0:3]), self._op(*x[3:6]), self._op(*x[6:9])
        return (A.commutator(B.commutator(C)) + B.commutator(C.commutator(A))
                + C.commutator(A.commutator(B)))

    def check(self, x, out):
        return out.is_zero


# ---------------------------------------------------------------------------
# oracle: Sturm-bisection bound states of the Whittaker equation
# ---------------------------------------------------------------------------

ORACLE_BETAS = (2.5, 5.0, 8.0)
ORACLE_POINTS = (4000, 8000, 16000)
ORACLE_SMIN = 1e-3
ORACLE_SMAX = 80.0


def oracle_key(beta, n):
    return f"{beta!r}:{n}"


class Oracle:
    name = "oracle"
    trace_ops = len(ORACLE_BETAS) * len(ORACLE_POINTS)    # one round

    def setup(self, seed):
        from curvedhall import numverify, spectra
        self.numverify, self.spectra = numverify, spectra
        self.golden = load_golden()["oracle_mu"]
        x = (ORACLE_BETAS[0], ORACLE_POINTS[0])
        self.check(x, self.call(x))

    def inputs(self, seed):
        rng = random.Random(f"oracle:{seed}")
        cells = [(b, n) for b in ORACLE_BETAS for n in ORACLE_POINTS]
        while True:
            rng.shuffle(cells)
            yield from cells

    def call(self, x):
        beta, n = x
        grid = self.numverify.FDGrid(ORACLE_SMIN, ORACLE_SMAX, n)
        levels = self.spectra.halfplane_level_count(beta)
        return self.numverify.whittaker_oracle(beta, grid, levels)

    def check(self, x, spec):
        beta, n = x
        want = self.golden[oracle_key(beta, n)]
        analytic = [self.spectra.landau_halfplane(beta, l).energy
                    for l in range(len(want))]
        return mu_and_energies_ok(spec.mu, spec.energies, want, analytic)


def mu_and_energies_ok(mu, energies, want_mu, analytic):
    return (len(mu) == len(want_mu) == len(energies) == len(analytic)
            and all(abs(a - b) <= MU_ABS_TOL for a, b in zip(mu, want_mu))
            and all(abs(e - an) <= ENERGY_REL_TOL * abs(an)
                    for e, an in zip(energies, analytic)))


# ---------------------------------------------------------------------------
# cli: one `curvedhall` child process per operation
# ---------------------------------------------------------------------------

FIXED_COMMANDS = {
    "verify": ["verify"],
    "verify_json": ["verify", "--format", "json"],
    "spectrum_halfplane": ["spectrum", "--geometry", "halfplane", "--beta", "5",
                           "--levels", "all"],
    "spectrum_flat": ["spectrum", "--geometry", "flat", "--omega-c", "1",
                      "--n", "0..2"],
    "spectrum_sphere": ["spectrum", "--geometry", "sphere", "--k", "2",
                        "--rho", "1", "--l", "0..2"],
    "oracle": ["oracle", "--beta", "5", "--smax", "80", "--points", "16000",
               "--levels", "5"],
    "trajectory": ["trajectory", "--dt", "0.002", "--steps", "20000"],
}
CLI_ORACLE_BETA, CLI_ORACLE_LEVELS = 5.0, 5

# eigenfunction: a seeded sample of EIGEN_SAMPLE y values from a fixed
# grid, so that every row of every seed's output has a golden value
EIGEN_ARGS = ["--beta", "5", "--l", "1", "--c", "1", "--x", "0"]
EIGEN_GRID = tuple(k / 50 for k in range(1, 501))
EIGEN_SAMPLE = 300
EIGEN_HEADER = "x,y,re,im,abs"

# laughlin: a seeded choice from a fixed pool of particle configurations
LAUGHLIN_POOL = 64


def laughlin_pool():
    """(m, config JSON) pairs, fixed for every seed; 3-7 particles in the
    square [-2, 2]^2, pairwise at least 0.25 apart."""
    rng = random.Random("laughlin-pool")
    pool = []
    for _ in range(LAUGHLIN_POOL):
        n = rng.randint(3, 7)
        pts = []
        while len(pts) < n:
            p = (round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3))
            if all(math.hypot(p[0] - q[0], p[1] - q[1]) >= 0.25 for q in pts):
                pts.append(p)
        cfg = {"z0": rng.choice((1.0, 1.5)), "points": [list(p) for p in pts]}
        pool.append((rng.randint(1, 3), json.dumps(cfg)))
    return pool


def laughlin_config_path(i):
    return os.path.join(OUT_DIR, "laughlin", f"{i}.json")


def write_laughlin_configs():
    os.makedirs(os.path.dirname(laughlin_config_path(0)), exist_ok=True)
    for i, (_, cfg) in enumerate(laughlin_pool()):
        with open(laughlin_config_path(i), "w") as fh:
            fh.write(cfg)


def laughlin_argv(i, m):
    return ["laughlin", "--m", str(m), "--config", laughlin_config_path(i)]


def eigen_argv(ks):
    return ["eigenfunction"] + EIGEN_ARGS + [
        "--y", ",".join(repr(EIGEN_GRID[k]) for k in ks)]


def run_cli(argv, spans_out=None):
    """One child process through the benchmark's launcher."""
    pre = ["--spans-out", spans_out] if spans_out else []
    return subprocess.run([sys.executable, LAUNCHER] + pre + ["--"] + argv,
                          cwd=ROOT, capture_output=True, timeout=120)


class Cli:
    name = "cli"
    kinds = tuple(FIXED_COMMANDS) + ("eigenfunction", "laughlin")
    trace_ops = len(kinds)    # one round

    def setup(self, seed):
        self.golden = load_golden()
        write_laughlin_configs()
        x = ("spectrum_flat", FIXED_COMMANDS["spectrum_flat"], None)
        self.check(x, self.call(x))

    def inputs(self, seed):
        rng = random.Random(f"cli:{seed}")
        pool = laughlin_pool()
        kinds = list(self.kinds)
        while True:
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "eigenfunction":
                    ks = rng.sample(range(len(EIGEN_GRID)), EIGEN_SAMPLE)
                    yield kind, eigen_argv(ks), ks
                elif kind == "laughlin":
                    i = rng.randrange(LAUGHLIN_POOL)
                    yield kind, laughlin_argv(i, pool[i][0]), i
                else:
                    yield kind, FIXED_COMMANDS[kind], None

    def call(self, x, spans_out=None):
        return run_cli(x[1], spans_out)

    def check(self, x, proc):
        kind, _, arg = x
        if proc.returncode != 0:
            return False
        out = proc.stdout.decode()
        g = self.golden["cli"]
        if kind == "oracle":
            return cli_oracle_ok(out, g["oracle_mu"])
        if kind == "eigenfunction":
            rows = [EIGEN_HEADER] + [g["eigenfunction_rows"][k] for k in arg]
            return out == "\n".join(rows) + "\n"
        if kind == "laughlin":
            return sha256(out) == g["laughlin_sha256"][arg]
        return sha256(out) == g["stdout_sha256"][kind]


def cli_oracle_ok(out, want_mu):
    rep = json.loads(out)
    # the closed form E_l = (beta^2 + 1/4 - (l - beta + 1/2)^2) / 2, m = a = 1
    b = CLI_ORACLE_BETA
    analytic = [(b * b + 0.25 - (l - b + 0.5) ** 2) / 2
                for l in range(CLI_ORACLE_LEVELS)]
    return (len(rep["analytic"]) == len(analytic)
            and all(abs(a - c) <= 1e-12 * abs(c)
                    for a, c in zip(rep["analytic"], analytic))
            and mu_and_energies_ok(rep["mu"], rep["energies"], want_mu, analytic))


WORKLOADS = {w.name: w for w in (Verify, Jacobi, Oracle, Cli)}
