"""Property test of the CLI's exit-code contract, run in process.

argv is drawn from each subcommand's options, with extreme floats mixed
in and the work bounded (``--points`` <= 2000, ``--steps`` <= 1000,
|beta| <= 1e3, ranges of at most 50 entries).  Whatever the input,
``cli.main`` raises nothing but argparse's SystemExit, exits 0, 2 or 3
(1 only from ``verify``), on exit 0 prints no nan or inf, and when it
returns 2 itself prints no data and one ``error:`` line.
"""

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from curvedhall import cli, spectra

EXTREME = ["0", "-0.0", "5e-324", "1e-320", "-1e-200", "1e-200", "1e200",
           "-1e200", "1e308", "-1e308", "1.7976931348623157e308",
           "nan", "inf", "-inf"]
SMALL = ["0", "-0.0", "5e-324", "1e-320", "-1e-200", "1e-200", "nan", "inf"]


def floats():
    return (st.sampled_from(EXTREME) | st.floats(-100, 100).map(repr)
            | st.floats().map(repr))


def betas():
    return (st.sampled_from(SMALL) | st.floats(-1e3, 1e3).map(repr)
            | st.floats(0.5, 20).map(repr))


def usual(lo, hi):
    """floats(), or more often a value from the range a user would pass."""
    typical = st.floats(lo, hi).map(repr)
    return st.one_of(typical, typical, typical, floats())


def ranges(lo, hi):
    """'k' or 'lo..hi' with at most 50 entries, or a malformed range."""
    span = st.integers(lo, hi).flatmap(
        lambda a: st.integers(a, a + 49).map(lambda b: f"{a}..{b}"))
    return st.integers(lo, hi).map(str) | span | st.sampled_from(["3..1", "x"])


def _opt(name, values):
    # --name=value, so that a negative value is not taken for an option
    return values.map(lambda v: f"--{name.replace('_', '-')}={v}")


def command(name, required, optional):
    """argv with every ``required`` option and a subset of ``optional``."""
    parts = ([_opt(k, s) for k, s in required.items()]
             + [st.none() | _opt(k, s) for k, s in optional.items()])
    return st.tuples(*parts).map(
        lambda xs: [name, *(x for x in xs if x is not None)])


# "{out}" is a path into a missing directory, "{cfg}" the drawn config
OUT = st.just("{out}")

ARGV = st.one_of(
    st.lists(st.sampled_from(["--format=json", "--strict", "--out={out}"]),
             unique=True).map(lambda opts: ["verify", *opts]),
    command("spectrum", dict(geometry=st.just("flat"), n=ranges(-3, 100)),
            dict(omega_c=floats(), hbar=floats(), format=st.just("json"))),
    command("spectrum", dict(geometry=st.just("halfplane"), beta=betas(),
                             levels=ranges(-3, 100) | st.just("all")),
            dict(m=floats(), a=floats(), format=st.just("json"), out=OUT)),
    command("spectrum", dict(geometry=st.just("sphere"), l=ranges(-3, 100),
                             k=st.integers(-10, 10)
                             | st.sampled_from([10 ** 200, 10 ** 400])),
            dict(rho=floats())),
    command("trajectory", dict(dt=usual(1e-4, 0.1), steps=st.integers(-2, 1000)),
            dict(x0=floats(), y0=floats(), px0=floats(), py0=floats(),
                 beta=betas(), a=floats())),
    command("oracle", dict(beta=betas(), smax=usual(20, 200),
                           points=st.integers(-5, 2000) | st.integers(100, 2000),
                           levels=st.integers(-2, 40) | st.integers(1, 5)),
            dict(smin=usual(1e-4, 1e-2), m=usual(0.5, 2), a=usual(0.5, 2))),
    command("eigenfunction", dict(beta=betas(), l=st.integers(-2, 60),
                                  c=usual(0.01, 10),
                                  y=st.lists(usual(0.01, 50), min_size=1,
                                             max_size=5).map(",".join)),
            dict(x=floats())),
    command("laughlin", dict(config=st.just("{cfg}"),
                             m=st.integers(-2, 30)
                             | st.sampled_from([10 ** 6, 10 ** 30])), {}),
)

_json_floats = st.floats(-10, 10) | st.floats()
CONFIG = st.none() | st.fixed_dictionaries({
    "z0": _json_floats,
    "points": st.lists(st.tuples(_json_floats, _json_floats), max_size=13),
}).map(json.dumps)

ESCAPES = [
    ["spectrum", "--geometry", "sphere", "--k", "2", "--rho", "1e-200",
     "--l", "0"],
    # a^2 = 1e-320 is subnormal, and 1/(2 m a^2) overflows.  An a whose
    # square underflows to 0 (1e-170, 1e-200) is a usage error, exit 2
    ["spectrum", "--geometry", "halfplane", "--beta", "5", "--levels", "0",
     "--a", "1e-160"],
    ["trajectory", "--dt", "0.01", "--steps", "2", "--a", "1e-160"],
    ["oracle", "--beta", "5", "--smax", "80", "--points", "1000",
     "--levels", "1", "--a", "1e-160"],
    ["spectrum", "--geometry", "halfplane", "--beta", "5", "--levels", "0",
     "--m", "1e-320"],
    ["spectrum", "--geometry", "flat", "--n", "0", "--omega-c", "1e308",
     "--hbar", "1e308"],
    ["trajectory", "--dt", "0.01", "--steps", "0", "--beta", "1e200"],
]


def run(argv):
    """(code, stdout, stderr, parsed): ``parsed`` is False when argparse
    rejected argv with SystemExit, True when ``cli.main`` returned."""
    out, err = io.StringIO(), io.StringIO()
    parsed = True
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as ex:
            code, parsed = ex.code, False
    return code, out.getvalue(), err.getvalue(), parsed


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.mark.parametrize("argv", ESCAPES)
def test_numeric_escape_exits_3(argv):
    code, out, err, _ = run(argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _examples(test):
    for argv in ESCAPES:
        test = example(argv=argv, config=None)(test)
    return test


@_examples
@given(argv=ARGV, config=CONFIG)
def test_exit_code_contract(workdir, argv, config):
    cfg = workdir / "config.json"
    if config is None:
        cfg.unlink(missing_ok=True)
    else:
        cfg.write_text(config)
    argv = [a.replace("{cfg}", str(cfg))
             .replace("{out}", str(workdir / "missing" / "out")) for a in argv]
    code, out, err, parsed = run(argv)
    assert "Traceback" not in err
    assert code in ((0, 1, 2, 3) if argv[0] == "verify" else (0, 2, 3)), (code, err)
    if code == 0:
        assert not re.search(r"nan|inf", out, re.IGNORECASE), out
    if parsed and code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


@st.composite
def oracle_argv(draw):
    """An oracle request on a valid grid, so that the eigen-solve runs:
    the draws of ARGV rarely get that far."""
    beta = draw(st.floats(0.75, 12))
    levels = draw(st.integers(1, spectra.halfplane_level_count(beta)))
    return ["oracle", f"--beta={beta!r}",
            f"--smax={draw(st.floats(20, 120))!r}",
            f"--points={draw(st.integers(100, 2000))}", f"--levels={levels}"]


@settings(max_examples=50, deadline=None)
@given(argv=oracle_argv())
def test_oracle_on_valid_grid(argv):
    code, out, err, _ = run(argv)
    assert code in (0, 3), (code, err)
    if code == 3:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    report = json.loads(out)
    mu = report["mu"]
    assert len(mu) == int(argv[-1].split("=")[1])
    assert all(math.isfinite(x) and x < 0.25 for x in mu)
    assert all(a < b for a, b in zip(mu, mu[1:]))
    assert all(map(math.isfinite, report["relerr"]))
