"""Run ``curvedhall.cli.main(argv)`` from the checkout's ``src`` tree.

    python bench/launch.py [--spans-out FILE] -- CLI-ARGS...

With ``--spans-out`` the child installs the benchmark's tracer after the
package is imported and writes its spans and counters to FILE when the
command returns.  Without it nothing is wrapped, so the untraced command
costs what ``curvedhall CLI-ARGS`` costs.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv):
    spans_out = None
    if argv[:1] == ["--spans-out"]:
        spans_out, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        raise SystemExit("usage: launch.py [--spans-out FILE] -- CLI-ARGS...")
    argv = argv[1:]
    from curvedhall import cli
    if spans_out is None:
        return cli.main(argv)
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.span("cli.main", cli.main, argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
