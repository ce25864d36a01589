#!/usr/bin/env python3
"""Record ``golden.json``: the outputs every benchmark operation is
checked against.

    python3 bench/record_golden.py

Run it from the root of a checkout of the commit whose outputs are the
reference (``golden.json`` names it).  It records the ``verify`` text and
JSON digests, the oracle's mu for every (beta, n) cell, and for the CLI
the stdout digest of each fixed command, the oracle command's mu, one
eigenfunction row per y-grid value and the digest of each pool
configuration's ``laughlin`` output.  A later change that must keep these
outputs byte-identical is checked against this file; it is re-recorded
only when an output is meant to change.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as W  # noqa: E402


def cli_stdout(argv):
    proc = W.run_cli(argv)
    if proc.returncode != 0:
        raise SystemExit(f"{argv} exited {proc.returncode}:\n"
                         + proc.stderr.decode(errors="replace"))
    return proc.stdout.decode()


def main():
    from curvedhall import models, numverify, spectra

    reports = models.run_identity_suite()
    golden = {
        "recorded_at": subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=W.ROOT,
            capture_output=True, text=True).stdout.strip() or "unknown",
        "verify_text_sha256": W.sha256(models.render_suite(reports)),
        "verify_json_sha256": W.sha256(models.render_suite(reports, fmt="json")),
        "oracle_mu": {},
    }
    for beta in W.ORACLE_BETAS:
        for n in W.ORACLE_POINTS:
            grid = numverify.FDGrid(W.ORACLE_SMIN, W.ORACLE_SMAX, n)
            spec = numverify.whittaker_oracle(
                beta, grid, spectra.halfplane_level_count(beta))
            golden["oracle_mu"][W.oracle_key(beta, n)] = list(spec.mu)

    cli = {"stdout_sha256": {}}
    for kind, argv in W.FIXED_COMMANDS.items():
        out = cli_stdout(argv)
        if kind == "oracle":
            cli["oracle_mu"] = json.loads(out)["mu"]
        else:
            cli["stdout_sha256"][kind] = W.sha256(out)
    rows = cli_stdout(W.eigen_argv(range(len(W.EIGEN_GRID)))).splitlines()
    assert rows[0] == W.EIGEN_HEADER and len(rows) == len(W.EIGEN_GRID) + 1
    cli["eigenfunction_rows"] = rows[1:]
    W.write_laughlin_configs()
    cli["laughlin_sha256"] = []
    for i, (m, _) in enumerate(W.laughlin_pool()):
        out = cli_stdout(W.laughlin_argv(i, m))
        assert out.endswith("PASS\n"), out
        cli["laughlin_sha256"].append(W.sha256(out))
    golden["cli"] = cli

    with open(W.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"wrote {W.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
