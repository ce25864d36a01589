"""Every CLI output the benchmark recorded in ``bench/golden.json``, byte
for byte: ``verify`` (text and JSON), the three ``spectrum`` lines,
``trajectory`` on stdout and through ``--out``, the ``oracle`` mu, all
500 ``eigenfunction`` rows and all 64 ``laughlin`` digests.  The inputs
are the benchmark's own (``bench/workloads.py``); each command runs
in process through ``cli.main``."""

import pytest
import workloads as W

from curvedhall import cli


def stdout_of(capsys, argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("kind", ["verify", "verify_json", "spectrum_halfplane",
                                  "spectrum_flat", "spectrum_sphere",
                                  "trajectory"])
def test_fixed_command_stdout(capsys, golden, kind):
    out = stdout_of(capsys, W.FIXED_COMMANDS[kind])
    assert W.sha256(out) == golden["cli"]["stdout_sha256"][kind]


def test_trajectory_out_file(capsys, golden, tmp_path):
    path = tmp_path / "t.csv"
    assert stdout_of(capsys, [*W.FIXED_COMMANDS["trajectory"], "--out",
                              str(path)]) == ""
    assert W.sha256(path.read_bytes()) == golden["cli"]["stdout_sha256"]["trajectory"]


def test_oracle_mu(capsys, golden):
    out = stdout_of(capsys, W.FIXED_COMMANDS["oracle"])
    assert W.cli_oracle_ok(out, golden["cli"]["oracle_mu"])


def test_eigenfunction_rows(capsys, golden):
    out = stdout_of(capsys, W.eigen_argv(range(len(W.EIGEN_GRID))))
    rows = [W.EIGEN_HEADER, *golden["cli"]["eigenfunction_rows"]]
    assert out == "\n".join(rows) + "\n"


def test_laughlin_digests(capsys, golden, tmp_path):
    digests = []
    for i, (m, cfg) in enumerate(W.laughlin_pool()):
        path = tmp_path / f"{i}.json"
        path.write_text(cfg)
        digests.append(W.sha256(stdout_of(
            capsys, ["laughlin", "--m", str(m), "--config", str(path)])))
    assert digests == golden["cli"]["laughlin_sha256"]
