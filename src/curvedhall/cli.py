"""Command-line surface: verify / spectrum / trajectory / oracle /
eigenfunction / laughlin.  Data goes to stdout or ``--out``; diagnostics
to stderr.  Exit codes: 0 success, 1 strict-verify failure, 2 a wrong
request (argparse cannot parse it, a check after parsing raises
``UsageError``, or a file it names cannot be read or written), 3
numerical failure, 141 when the reader of stdout has closed it (128 +
SIGPIPE, as in ``curvedhall verify | true``).  The subcommands raise;
``main`` alone maps an exception to an exit code.

Each subcommand imports the modules it runs, so that a command pays at
start-up only for its own code.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import UsageError


EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_PIPE = 141     # 128 + SIGPIPE (13): the reader closed stdout


def _finite_float(text):
    """float() as an argparse ``type`` that also rejects nan and +-inf, so a
    non-finite parameter is a usage error, not a silent nan downstream."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_floats(text):
    """'1,2.5' -> [1.0, 2.5], each entry checked by ``_finite_float``."""
    return [_finite_float(v) for v in text.split(",")]


def _parse_range(text):
    """'0..4' -> range(0, 5); '3' -> range(3, 4).  An argparse ``type``, so
    a malformed range is a usage error.  No list is built, so a long
    request is checked one level at a time."""
    lo, sep, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if sep else lo
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or a range LO..HI, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _parse_levels(text):
    """'all' or a range for ``_parse_range``."""
    return text if text == "all" else _parse_range(text)


def _emit(pieces, out_path):
    """Write the strings ``pieces`` to ``out_path``, or to stdout ending
    in a newline."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(pieces)
        return
    last = ""
    for last in pieces:
        sys.stdout.write(last)
    if not last.endswith("\n"):
        sys.stdout.write("\n")


class _Parser(argparse.ArgumentParser):
    """argparse's own writer swallows an OSError, so that with an
    unbuffered stdout a closed pipe under ``--help`` would exit 0; this one
    lets the BrokenPipeError reach ``main``.  Subparsers inherit it."""

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def _build_parser():
    p = _Parser(
        prog="curvedhall",
        description="Landau-problem identities, spectra, and oracles on "
                    "flat, half-plane, and disk geometries "
                    "(natural units hbar = m = 1 by default).")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the exact identity suite")
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--strict", action="store_true",
                   help="count the documented expansion diff as a failure")
    v.add_argument("--out")
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("spectrum", help="closed-form energy levels")
    s.add_argument("--geometry", choices=("flat", "halfplane", "sphere"),
                   required=True)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--out")
    s.add_argument("--omega-c", type=_finite_float, default=1.0)
    s.add_argument("--hbar", type=_finite_float, default=1.0)
    s.add_argument("--n", type=_parse_range,
                   help="flat Landau index or range, e.g. 0..2")
    s.add_argument("--beta", type=_finite_float)
    s.add_argument("--m", type=_finite_float, default=1.0)
    s.add_argument("--a", type=_finite_float, default=1.0)
    s.add_argument("--levels", type=_parse_levels,
                   help="half-plane l, range, or 'all'")
    s.add_argument("--k", type=int)
    s.add_argument("--rho", type=_finite_float, default=1.0)
    s.add_argument("--l", type=_parse_range, help="sphere l or range")
    s.set_defaults(func=_cmd_spectrum)

    t = sub.add_parser("trajectory", help="integrate the classical motion")
    t.add_argument("--x0", type=_finite_float, default=0.0)
    t.add_argument("--y0", type=_finite_float, default=1.0)
    t.add_argument("--px0", type=_finite_float, default=-1.0)
    t.add_argument("--py0", type=_finite_float, default=0.0)
    t.add_argument("--beta", type=_finite_float, default=4.0)
    t.add_argument("--a", type=_finite_float, default=1.0)
    t.add_argument("--dt", type=_finite_float, required=True)
    t.add_argument("--steps", type=int, required=True)
    t.add_argument("--out")
    t.set_defaults(func=_cmd_trajectory)

    o = sub.add_parser("oracle", help="finite-difference bound-state solver")
    o.add_argument("--beta", type=_finite_float, required=True)
    o.add_argument("--smin", type=_finite_float, default=1e-3)
    o.add_argument("--smax", type=_finite_float, required=True)
    o.add_argument("--points", type=int, required=True)
    o.add_argument("--levels", type=int, required=True)
    o.add_argument("--m", type=_finite_float, default=1.0)
    o.add_argument("--a", type=_finite_float, default=1.0)
    o.add_argument("--out")
    o.set_defaults(func=_cmd_oracle)

    e = sub.add_parser("eigenfunction", help="sample a bound eigenfunction")
    e.add_argument("--beta", type=_finite_float, required=True)
    e.add_argument("--l", type=int, required=True)
    e.add_argument("--c", type=_finite_float, required=True)
    e.add_argument("--x", type=_finite_float, default=0.0)
    e.add_argument("--y", type=_parse_floats, required=True,
                   help="y value or comma-separated list")
    e.add_argument("--out")
    e.set_defaults(func=_cmd_eigenfunction)

    lg = sub.add_parser("laughlin", help="evaluate the pair-product state")
    lg.add_argument("--m", type=int, required=True)
    lg.add_argument("--config", required=True,
                    help="JSON file {\"z0\": r, \"points\": [[re, im], ...]}")
    lg.add_argument("--out")
    lg.set_defaults(func=_cmd_laughlin)
    return p


def _cmd_verify(args):
    from . import models
    reports = models.run_identity_suite()
    _emit([models.render_suite(reports, fmt=args.format)], args.out)
    bad = [r for r in reports if r.status == models.FAIL]
    diff = [r for r in reports if r.status == models.DOCUMENTED_DIFF]
    if bad:
        print(f"# {len(bad)} identity failure(s)", file=sys.stderr)
        return EXIT_VERIFY
    if args.strict and diff:
        print(f"# strict mode: {len(diff)} documented diff(s) counted as "
              "failures", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_spectrum(args):
    from . import spectra
    if args.geometry == "flat":
        if args.n is None:
            raise UsageError("flat geometry needs --n")
        lines = [spectra.landau_flat(n, args.omega_c, args.hbar)
                 for n in args.n]
        params = {"omega_c": args.omega_c, "hbar": args.hbar}
    elif args.geometry == "halfplane":
        if args.beta is None or args.levels is None:
            raise UsageError("halfplane geometry needs --beta and --levels")
        ls = (range(spectra.halfplane_level_count(args.beta))
              if args.levels == "all" else args.levels)
        lines = [spectra.landau_halfplane(args.beta, l, args.m, args.a)
                 for l in ls]
        params = {"beta": args.beta, "m": args.m, "a": args.a}
    else:
        if args.k is None or args.l is None:
            raise UsageError("sphere geometry needs --k and --l")
        lines = [spectra.sphere_spectrum(l, args.k, args.rho)
                 for l in args.l]
        params = {"k": args.k, "rho": args.rho}
    if args.format == "json":
        _emit([spectra.spectrum_json(args.geometry, params, lines)], args.out)
    else:
        _emit([spectra.spectrum_csv(lines)], args.out)
    return EXIT_OK


def _cmd_trajectory(args):
    from . import classical
    s0 = classical.PhaseState(0.0, args.x0, args.y0, args.px0, args.py0)
    traj = classical.integrate_rk4(s0, args.a, args.beta, args.dt, args.steps)
    # every charge is checked before the first byte is written
    pieces, drift = classical.trajectory_csv(traj)
    _emit(pieces, args.out)
    print("# drift " + " ".join(f"{k}={v:.3e}" for k, v in drift.items()),
          file=sys.stderr)
    if traj.domain_exit:
        print("# trajectory left the upper half-plane; partial output",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_oracle(args):
    from . import numverify, spectra
    grid = numverify.FDGrid(args.smin, args.smax, args.points)
    count = spectra.halfplane_level_count(args.beta)
    if not 1 <= args.levels <= count:
        raise UsageError(
            f"--levels must be between 1 and {count}, the number of bound "
            f"states 0 <= l < beta - 1/2 for beta={args.beta}")
    spec = numverify.whittaker_oracle(args.beta, grid, args.levels,
                                      m=args.m, a=args.a)
    analytic = [spectra.landau_halfplane(args.beta, l, args.m, args.a).energy
                for l in range(args.levels)]
    _emit([numverify.oracle_report(spec, analytic)], args.out)
    return EXIT_OK


def _cmd_eigenfunction(args):
    from . import spectra
    rows = ["x,y,re,im,abs\n"]
    for y in args.y:
        v = spectra.eigenfunction_halfplane(args.beta, args.l, args.c,
                                            (args.x, y))
        rows.append(f"{args.x:.17g},{y:.17g},{v.real:.17g},{v.imag:.17g},"
                    f"{abs(v):.17g}\n")
    _emit(rows, args.out)
    return EXIT_OK


def _cmd_laughlin(args):
    from . import manybody
    with open(args.config) as fh:
        cfg = manybody.ParticleConfig.from_json(fh.read())
    val = manybody.laughlin(cfg, args.m)
    ok = manybody.antisymmetry_check(cfg, args.m)
    sym = "antisymmetry" if args.m % 2 else "symmetry"
    _emit([f"{val.real:.17g}{val.imag:+.17g}j\n"
           f"{sym}: {'PASS' if ok else 'FAIL'}\n"], args.out)
    return EXIT_OK if ok else EXIT_NUMERIC


def main(argv=None):
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            # argparse has printed --help (or a usage error) and is exiting;
            # flush here, so that a closed stdout is handled below
            sys.stdout.flush()
            raise
        code = args.func(args)
        # a reader that has gone shows up here, not in the exit-time flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at devnull, so that the interpreter's final flush of
        # what is still buffered does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (UsageError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as ex:
        # an overflow or a division by an underflowed zero
        print(f"error: floating-point failure: {ex}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, RuntimeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
