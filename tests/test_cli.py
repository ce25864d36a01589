"""Command-line surface: subcommands, formats, and the exit-code
contract (0 success, 1 strict-verify, 2 usage, 3 numerical, 141 closed
stdout)."""

import json
import os
import subprocess
import sys

import pytest

from curvedhall import cli
from test_numverify import _within


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_rejected(code, out, err):
    """Exit 2 from a check after parsing: no data, one ``error:`` line."""
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify")
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith(" ")]
    assert code == 0
    assert len(lines) == 14
    assert sum("exact-pass" in ln for ln in lines) == 13
    assert sum("documented-diff" in ln for ln in lines) == 1


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 14


def test_verify_failure_exits_1(capsys, monkeypatch):
    from curvedhall import models
    failing = models.IdentityReport("casimir-commutes", models.FAIL, "Dx")
    monkeypatch.setattr(models, "run_identity_suite", lambda: [failing])
    code, out, err = run(capsys, "verify")
    assert code == 1
    assert "residual: Dx" in out
    assert err == "# 1 identity failure(s)\n"


def test_verify_strict_fails(capsys):
    code, _, err = run(capsys, "verify", "--strict")
    assert code == 1
    assert "strict" in err


def test_spectrum_halfplane_all(capsys):
    code, out, _ = run(capsys, "spectrum", "--geometry", "halfplane",
                       "--beta", "5", "--levels", "all")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 6
    energies = [float(r.split(",")[1]) for r in rows[1:]]
    assert energies == [2.5, 6.5, 9.5, 11.5, 12.5]


def test_spectrum_flat_range(capsys):
    code, out, _ = run(capsys, "spectrum", "--geometry", "flat",
                       "--omega-c", "1", "--n", "0..2")
    assert code == 0
    energies = [float(r.split(",")[1]) for r in out.strip().splitlines()[1:]]
    assert energies == [0.5, 1.5, 2.5]


def test_spectrum_sphere(capsys):
    code, out, _ = run(capsys, "spectrum", "--geometry", "sphere",
                       "--k", "2", "--rho", "1", "--l", "0..2")
    assert code == 0
    energies = [float(r.split(",")[1]) for r in out.strip().splitlines()[1:]]
    assert energies == [-2.0, -2.0, 2.0]


def test_spectrum_usage_error(capsys):
    for geometry, needs in (("flat", "--n"),
                            ("halfplane", "--beta and --levels"),
                            ("sphere", "--k and --l")):
        code, out, err = run(capsys, "spectrum", "--geometry", geometry)
        assert_rejected(code, out, err)
        assert err == f"error: {geometry} geometry needs {needs}\n"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--geometry", "flat", "--n", "abc"],
    ["spectrum", "--geometry", "flat", "--n", "4..2"],
    ["spectrum", "--geometry", "sphere", "--k", "2", "--l", "x"],
    ["spectrum", "--geometry", "halfplane", "--beta", "5", "--levels", "1..x"],
])
def test_malformed_range_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--frobnicate"])
    assert exc.value.code == 2


def test_trajectory_runs(capsys, tmp_path):
    out_file = tmp_path / "traj.csv"
    code, _, err = run(capsys, "trajectory", "--dt", "0.002",
                       "--steps", "50", "--out", str(out_file))
    assert code == 0
    rows = out_file.read_text().splitlines()
    assert rows[0] == "t,x,y,px,py,H,L1,L2,L3"
    assert len(rows) == 52
    assert "drift" in err


def test_trajectory_zero_steps(capsys):
    code, out, _ = run(capsys, "trajectory", "--dt", "0.01", "--steps", "0")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_trajectory_bad_y0(capsys):
    assert_rejected(*run(capsys, "trajectory", "--dt", "0.01", "--steps", "5",
                         "--y0", "-1.0"))


def test_trajectory_domain_exit(capsys):
    code, out, err = run(capsys, "trajectory", "--dt", "1.0", "--steps", "50",
                         "--y0", "0.5", "--py0", "-10.0")
    assert code == 3
    assert "left the upper half-plane" in err
    assert out.splitlines()[0].startswith("t,")


def test_trajectory_keeps_signed_zeros(capsys):
    # a stage's px is px + (h/2) * 0.0, so the step turns -0.0 into 0.0
    code, out, err = run(capsys, "trajectory", "--x0", "-0", "--px0", "-0",
                         "--beta", "-0", "--dt", "0.01", "--steps", "1")
    assert code == 0
    assert out == ("t,x,y,px,py,H,L1,L2,L3\n"
                   "0,-0,1,-0,0,0,0,-0,0\n"
                   "0.01,0,1,0,0,0,0,0,0\n")
    assert err == ("# drift H=0.000e+00 L1=0.000e+00 L2=0.000e+00 "
                   "L3=0.000e+00\n")


@pytest.mark.parametrize("out_name", ["t.csv", "missing/t.csv"])
def test_trajectory_overflow_writes_nothing(capsys, tmp_path, out_name):
    # the charges are checked before the --out file is opened, so an
    # overflow exits 3 even when the path could not be written
    out_file = tmp_path / out_name
    code, out, err = run(capsys, "trajectory", "--dt", "0.01", "--steps", "0",
                         "--beta", "1e200", "--out", str(out_file))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_file.exists()


def test_trajectory_computes_each_charge_once(capsys, monkeypatch):
    from curvedhall import classical
    calls = []
    real = classical._charges

    def counted(states, *args):
        calls.extend(states)
        return real(states, *args)

    monkeypatch.setattr(classical, "_charges", counted)
    code, out, _ = run(capsys, "trajectory", "--dt", "0.01", "--steps", "50")
    assert code == 0
    assert len(calls) == 51 == len(out.splitlines()) - 1


def test_oracle_small_grid(capsys):
    code, out, _ = run(capsys, "oracle", "--beta", "5", "--smax", "80",
                       "--points", "1500", "--levels", "3")
    assert code == 0
    data = json.loads(out)
    assert all(r <= 1e-3 for r in data["relerr"])


@pytest.mark.parametrize("argv", [
    ["spectrum", "--geometry", "flat", "--n", "0", "--omega-c", "nan"],
    ["spectrum", "--geometry", "flat", "--n", "0", "--hbar", "inf"],
    ["spectrum", "--geometry", "halfplane", "--beta", "inf", "--levels", "0"],
    ["spectrum", "--geometry", "sphere", "--k", "2", "--l", "0", "--rho", "inf"],
    ["trajectory", "--beta", "nan", "--dt", "0.01", "--steps", "3"],
    ["trajectory", "--dt", "nan", "--steps", "3"],
    ["oracle", "--beta", "5", "--smax", "nan", "--points", "1000", "--levels", "1"],
    ["eigenfunction", "--beta", "5", "--l", "0", "--c", "1", "--y", "1,nan"],
    ["eigenfunction", "--beta", "5", "--l", "0", "--c", "1", "--y", "1,abc"],
])
def test_non_finite_number_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["--points", "50", "--levels", "1"], "n_points must be >= 100"),
    (["--points", "1000", "--levels", "1", "--smin", "1"], "s_min excludes"),
    (["--points", "1000", "--levels", "6"], "0 <= l < beta - 1/2"),
    (["--points", "1000", "--levels", "0"], "0 <= l < beta - 1/2"),
])
def test_oracle_bad_request_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "oracle", "--beta", "5", "--smax", "80",
                         *argv)
    assert_rejected(code, out, err)
    assert message in err


def test_oracle_coarse_grid_is_numerical_failure(capsys):
    # five bound states exist, but 100 points resolve only four of them
    code, _, err = run(capsys, "oracle", "--beta", "5", "--smax", "80",
                       "--points", "100", "--levels", "5")
    assert code == 3
    assert "resolves only 4" in err


def test_oracle_more_levels_than_points_is_numerical_failure(capsys):
    # 500 bound states exist, but 100 points hold at most 100 levels
    code, out, err = run(capsys, "oracle", "--beta", "500", "--smax", "80",
                         "--points", "100", "--levels", "400")
    assert code == 3
    assert out == ""
    assert err == ("error: a grid of 100 points holds at most 100 levels, "
                   "400 requested\n")


def test_oracle_wall_bound_level_is_numerical_failure(capsys):
    # mu ~ -8e10 against an analytic -1e18: the ground state's allowed
    # region runs into the wall at s_max
    code, out, err = run(capsys, "oracle", "--beta", "1e9", "--smax", "80",
                         "--points", "1000", "--levels", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "reaches the wall" in err
    assert err.count("\n") == 1


def test_oracle_tail_cut_off_by_wall_is_numerical_failure(capsys):
    # the ground state turns at s = 17.5 but has not decayed by s_max = 20;
    # the wall moves its energy by 0.047
    code, out, err = run(capsys, "oracle", "--beta", "5", "--smax", "20",
                         "--points", "1000", "--levels", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("error: level 0 ") and "cut off by the wall" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["trajectory", "--dt", "0.01", "--steps", "2", "--a", "0"],
    ["oracle", "--beta", "5", "--smax", "80", "--points", "1000",
     "--levels", "1", "--m", "0"],
    ["spectrum", "--geometry", "halfplane", "--beta", "5", "--levels", "0",
     "--m", "0"],
    ["spectrum", "--geometry", "sphere", "--k", "2", "--l", "0", "--rho", "0"],
    ["eigenfunction", "--beta", "5", "--l", "0", "--c", "1", "--y", "0"],
    ["oracle", "--beta", "5", "--smax", "80", "--points", "1000",
     "--levels", "1", "--m", "-1"],
    ["spectrum", "--geometry", "halfplane", "--beta", "5", "--levels", "0",
     "--m", "-1"],
    ["spectrum", "--geometry", "flat", "--n", "0", "--omega-c", "-1"],
    ["spectrum", "--geometry", "flat", "--n", "0", "--hbar", "0"],
    ["oracle", "--beta", "5", "--smax", "1e300", "--points", "1000",
     "--levels", "1"],
    ["oracle", "--beta", "5", "--smax", "1e-200", "--smin", "1e-300",
     "--points", "1000", "--levels", "1"],
    # a^2 underflows to 0: each printed "floating-point failure: float
    # division by zero" and exited 3
    *(argv + ["--a", a] for a in ("1e-170", "1e-200") for argv in (
        ["trajectory", "--dt", "0.01", "--steps", "2"],
        ["oracle", "--beta", "5", "--smax", "80", "--points", "1000",
         "--levels", "1"],
        ["spectrum", "--geometry", "halfplane", "--beta", "5", "--levels",
         "0"])),
])
def test_domain_request_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1


def test_overflow_is_numerical_failure(capsys):
    code, out, err = run(capsys, "eigenfunction", "--beta", "200", "--l", "0",
                         "--c", "0.001", "--y", "1e3")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_overflow_names_the_eigenfunction(capsys):
    # the log-space fallback's math.exp printed "floating-point failure:
    # math range error"; the function's own message names the value
    code, out, err = run(capsys, "eigenfunction", "--beta", "200", "--l", "0",
                         "--c", "0.001", "--y", "1e3")
    assert (code, out) == (3, "")
    assert "eigenfunction value is not finite" in err


def test_eigenfunction_degree_above_the_cap_is_a_usage_error(capsys):
    # the exact Laguerre sum of degree 20000 ran past a 15 s timeout
    with _within(2):
        code, out, err = run(capsys, "eigenfunction", "--beta", "20001.5",
                             "--l", "20000", "--c", "1", "--y", "1")
    assert_rejected(code, out, err)
    assert "degree n = 20000" in err


@pytest.mark.parametrize("y", ["1e308", "1e62"])
def test_underflowing_tail_is_zero(capsys, y):
    # y^(beta-l) overflows, but the product with e^(-cy) is 0
    code, out, err = run(capsys, "eigenfunction", "--beta", "5", "--l", "0",
                         "--c", "1", "--y", y)
    assert (code, err) == (0, "")
    assert float(out.splitlines()[1].split(",")[4]) == 0.0


@pytest.mark.parametrize("l, y", [
    ("1", "1e308"),     # 2 c y is inf before the Laguerre factor is built
    ("2", "1e200"),     # L_2(2 c y) is beyond a double
    ("4", "1e100"),
])
def test_overflowing_laguerre_factor_is_zero(capsys, l, y):
    # e^(-cy) outweighs the Laguerre factor, so the value is 0
    code, out, err = run(capsys, "eigenfunction", "--beta", "5", "--l", l,
                         "--c", "1", "--y", y)
    assert (code, err) == (0, "")
    assert [float(v) for v in out.splitlines()[1].split(",")[2:]] == [0.0] * 3


@pytest.mark.parametrize("text", ["[1]", '{"z0": 1, "points": [["a", 0]]}'])
def test_laughlin_config_of_wrong_shape(capsys, tmp_path, text):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    code, out, err = run(capsys, "laughlin", "--m", "1", "--config", str(cfg))
    assert_rejected(code, out, err)
    assert err.startswith("error: config must be")


@pytest.mark.parametrize("argv, config", [
    (["eigenfunction", "--beta", "5", "--l", "7", "--c", "1", "--y", "1"],
     None),
    (["eigenfunction", "--beta", "5", "--l", "0", "--c", "0", "--y", "1"],
     None),
    (["spectrum", "--geometry", "halfplane", "--beta=-1", "--levels", "0"],
     None),
    (["spectrum", "--geometry", "halfplane", "--beta=-1", "--levels", "all"],
     None),
    (["spectrum", "--geometry", "flat", "--n=-1"], None),
    (["spectrum", "--geometry", "sphere", "--k", "2", "--l=-1"], None),
    (["spectrum", "--geometry", "flat", "--n", "0", "--out", "{missing}/x"],
     None),
    (["laughlin", "--m", "0", "--config", "{cfg}"],
     '{"z0": 1, "points": [[0, 0], [1, 0]]}'),
    (["laughlin", "--m", "3", "--config", "{missing}"], None),
    (["laughlin", "--m", "1", "--config", "{cfg}"], "[1]"),
    (["laughlin", "--m", "1", "--config", "{cfg}"], "not json"),
    (["laughlin", "--m", "1", "--config", "{cfg}"], '{"z0": 1, "points": []}'),
])
def test_rejected_request_exits_2(capsys, tmp_path, argv, config):
    # a level outside the window, a bad index or count, a file that cannot
    # be read or written: each is a wrong request, not a numerical failure
    cfg = tmp_path / "config.json"
    if config is not None:
        cfg.write_text(config)
    argv = [a.replace("{cfg}", str(cfg))
             .replace("{missing}", str(tmp_path / "missing")) for a in argv]
    assert_rejected(*run(capsys, *argv))


def test_trajectory_all_charges_zero(capsys):
    code, _, err = run(capsys, "trajectory", "--dt", "0.01", "--steps", "2",
                       "--x0", "0", "--px0", "0", "--py0", "0", "--beta", "0")
    assert code == 0
    assert "H=0.000e+00 L1=0.000e+00 L2=0.000e+00 L3=0.000e+00" in err


def test_eigenfunction_value(capsys):
    code, out, _ = run(capsys, "eigenfunction", "--beta", "5", "--l", "0",
                       "--c", "1", "--x", "0", "--y", "1")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[4]) == pytest.approx(0.367879, abs=1e-6)


def test_long_level_range_is_not_built(capsys):
    # the range is checked one level at a time: the request fails at the
    # first level outside the window without a list of 10**12 levels
    levels = cli._parse_range("0..1000000000000")
    assert isinstance(levels, range) and len(levels) == 10 ** 12 + 1
    code, out, err = run(capsys, "spectrum", "--geometry", "halfplane",
                         "--beta", "5", "--levels", "0..1000000000000")
    assert_rejected(code, out, err)
    assert "l=5 outside the bound-state window" in err


def test_eigenfunction_outside_window(capsys):
    code, _, err = run(capsys, "eigenfunction", "--beta", "5", "--l", "7",
                       "--c", "1", "--y", "1")
    assert code == 2
    assert "error" in err


def test_laughlin_from_config(capsys, tmp_path):
    cfg = tmp_path / "two.json"
    cfg.write_text('{"z0": 1.0, "points": [[0, 0], [1, 0]]}')
    code, out, _ = run(capsys, "laughlin", "--m", "3", "--config", str(cfg))
    assert code == 0
    lines = out.strip().splitlines()
    assert float(lines[0].split("+")[0]) == pytest.approx(-0.7788007831)
    assert lines[1] == "antisymmetry: PASS"


def test_laughlin_overflow_is_numerical_failure(capsys, tmp_path):
    # the pair product of six points ~1e60 apart overflows to nan, which
    # would read as a failed antisymmetry check
    cfg = tmp_path / "far.json"
    cfg.write_text('{"z0": 1e200, "points": [[1e60, 0], [0, 1e60], '
                   '[-1e60, 0], [0, -1e60], [2e60, 1e60], [-1e60, 2e60]]}')
    code, out, err = run(capsys, "laughlin", "--m", "3", "--config", str(cfg))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_laughlin_missing_config(capsys):
    code, _, err = run(capsys, "laughlin", "--m", "3",
                       "--config", "/nonexistent.json")
    assert code == 2
    assert "error" in err


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "spectrum", "--geometry", "halfplane",
                     "--beta", "5", "--levels", "all", "--format", "json")
    _, out2, _ = run(capsys, "spectrum", "--geometry", "halfplane",
                     "--beta", "5", "--levels", "all", "--format", "json")
    assert out1 == out2


def run_into_closed_stdout(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)      # the reader is gone before anything is written
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        return subprocess.run([sys.executable, "-m", "curvedhall.cli"] + argv,
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [
    ["verify"],
    ["oracle", "--beta", "5", "--smax", "80", "--points", "2000", "--levels", "5"],
])
def test_closed_stdout_exits_141(argv, unbuffered):
    proc = run_into_closed_stdout(argv, unbuffered)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("argv", [["--help"], ["oracle", "--help"]])
def test_help_into_closed_stdout_exits_141(argv):
    # argparse prints the help and exits inside parse_args; with a buffered
    # stdout the failed write shows only when the buffer is flushed, and an
    # unbuffered one fails inside argparse's own write
    for unbuffered in (False, True):
        proc = run_into_closed_stdout(argv, unbuffered)
        assert proc.returncode == 141, unbuffered
        assert proc.stderr == b""


def test_import_loads_only_the_cli():
    # each subcommand imports its own modules when it runs
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, curvedhall.cli; "
         "print(*sorted(m for m in sys.modules if m.startswith('curvedhall'))); "
         "import curvedhall; print(curvedhall.models.FAIL); "
         "from curvedhall import *; print(spectra.__name__)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, fail, star = proc.stdout.splitlines()
    assert loaded.split() == ["curvedhall", "curvedhall.cli", "curvedhall.errors"]
    assert (fail, star) == ("fail", "curvedhall.spectra")


def test_commands_load_no_dataclasses(tmp_path):
    # the records are named tuples: no command pays for dataclasses and the
    # inspect / ast / dis modules it imports
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"z0": 1.0, "points": [[0, 0], [1, 0], [0, 1]]}')
    commands = [
        ["verify"],
        ["spectrum", "--geometry", "flat", "--n", "0..2"],
        ["spectrum", "--geometry", "halfplane", "--beta", "5", "--levels", "all"],
        ["spectrum", "--geometry", "sphere", "--k", "2", "--l", "0..2"],
        ["trajectory", "--dt", "0.01", "--steps", "5"],
        ["oracle", "--beta", "5", "--smax", "80", "--points", "1000", "--levels", "1"],
        ["eigenfunction", "--beta", "5", "--l", "0", "--c", "1", "--y", "1"],
        ["laughlin", "--m", "3", "--config", str(cfg)],
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys; from curvedhall import cli; "
         "codes = [cli.main(a) for a in json.loads(sys.argv[1])]; "
         "print(codes, 'dataclasses' in sys.modules, 'inspect' in sys.modules, "
         "file=sys.stderr)", json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"{[0] * len(commands)} False False"


def test_import_loads_no_numpy():
    # numpy is a test-only reference; the package and its CLI run without it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, curvedhall, curvedhall.cli; "
         "sys.exit('numpy' in sys.modules)"], env=env, timeout=120)
    assert proc.returncode == 0
