#!/usr/bin/env python3
"""curvedhall benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload {verify,jacobi,oracle,cli} --seed N
                         --seconds S --trace {0,1} [--min-ops K]

Run from the root of a checkout; the package is imported from its
``src`` tree.  The timed phase runs operations until both S seconds and
K operations (default 100, so that p90 has ten samples beyond it) are
done, then prints a table and, as its last line, a JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (``END_TO_END``).  ``--trace
1`` instead runs a fixed, seed-determined set of operations in pairs of
passes, one untraced and one with the tracer of ``tracer.py`` installed,
until S seconds are done, and reports the per-layer metrics
(``PER_LAYER``).  Every operation of either mode is checked; a failed
check or an exception counts in ``failed``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "_out")

SETUP_REPEATS = 5        # fresh set-ups per run; setup_s is their median
STARTUP_REPEATS = 3
TIME_CAP_S = 120.0       # stop the timed phase here, whatever --min-ops
CHILD_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.p90", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

OPALG_TIMED = ("LaurentPoly.mul", "LaurentPoly.add", "RationalFunc.add",
               "RationalFunc.mul", "DiffOp.mul", "DiffOp.commutator",
               "exact_divide", "poisson_bracket")
# cli.<key>_s is the median wall time of these commands
CLI_GROUPS = {
    "verify": ("verify",),
    "verify_json": ("verify_json",),
    "spectrum": ("spectrum_halfplane", "spectrum_flat", "spectrum_sphere"),
    "oracle": ("oracle",),
    "trajectory": ("trajectory",),
    "eigenfunction": ("eigenfunction",),
    "laughlin": ("laughlin",),
}

# (metric, unit, how it is derived from the trace); see layer_metrics
PER_LAYER = (
    [("startup.python_s", "s", "startup"),
     ("startup.import_cli_s", "s", "startup"),
     ("startup.import.numpy_s", "s", "startup"),
     ("startup.import.curvedhall_s", "s", "startup")]
    + [(f"cli.{k}_s", "s", "cli") for k in CLI_GROUPS]
    + [(f"{n}.s", "s", "per_call") for n in (
        "models.run_identity_suite", "models.render_suite",
        "models.sphere_identity", "models.determine_classical_translation",
        "models.disk_hamiltonian_expanded", "geometry.laplace_beltrami")]
    + [("opalg.GaussianRational.mul.calls", "calls/op", "calls")]
    + [(f"opalg.{n}.{k}", u, d) for n in OPALG_TIMED
       for k, u, d in (("calls", "calls/op", "calls"),
                       ("self_s", "s/op", "self"))]
    + [("opalg.LaurentPoly.mul.terms_out", "terms/op", "count"),
       ("numverify.whittaker_oracle.s", "s", "per_call"),
       ("numverify.tridiag_eigs.s", "s", "per_call"),
       ("numverify.sturm.calls", "calls/op", "calls"),
       ("numverify.sturm.self_s", "s/op", "self"),
       ("numverify.sturm.calls_per_level", "calls/level", "special"),
       ("numverify.matrix_build_s", "s", "special"),
       ("classical.integrate_rk4.s", "s", "per_call"),
       ("classical.rk4.steps", "steps", "special"),
       ("classical.drift_summary.s", "s", "per_call"),
       ("classical.trajectory_csv.s", "s", "per_call"),
       ("specfun.laguerre.calls", "calls/op", "calls"),
       ("specfun.laguerre.self_s", "s/op", "self"),
       ("spectra.eigenfunction_halfplane.self_s", "s/op", "self"),
       ("spectra.landau_halfplane.calls", "calls/op", "calls"),
       ("manybody.laughlin.s", "s", "per_call"),
       ("manybody.antisymmetry_check.s", "s", "per_call"),
       ("trace.overhead_frac", "fraction", "special")]
)


def die(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def use_checkout_source():
    if not os.path.isfile(os.path.join(SRC, "curvedhall", "__init__.py")):
        die(f"no curvedhall package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--min-ops", type=int, default=100,
                   help="operations the timed phase completes at least")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class Outcomes:
    """Attempted and failed operations; the first failure is reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, wl, x, out):
        self.attempted += 1
        try:
            ok = not isinstance(out, Exception) and wl.check(x, out)
            why = repr(out) if isinstance(out, Exception) else "check failed"
        except Exception as ex:      # a malformed output fails its check
            ok, why = False, f"check raised {ex!r}"
        if not ok:
            if not self.failed:
                print(f"bench: {wl.name} operation failed: {why}",
                      file=sys.stderr)
            self.failed += 1


def call(fn, *args):
    try:
        return fn(*args)
    except Exception as ex:          # counted as a failed operation
        return ex


# ---------------------------------------------------------------------------
# calibration
#
# The machine these figures are taken on is a 2-vCPU VM whose cores are
# shared with other tenants: its speed swings by up to 1.8x within a
# second and drifts over minutes, which moves the raw wall time of
# identical work by 30-40% between runs.  While an end-to-end run is timed,
# a SIGALRM handler therefore times a fixed pure-Python reference every
# SAMPLE_INTERVAL_S of wall time, and each operation is reported in
# calibrated seconds:
#
#     (wall - time spent in the handler) * REF_NOMINAL_S
#         / mean(reference times sampled during the operation)
#
# i.e. seconds on a machine where the reference takes REF_NOMINAL_S.  The
# table also prints the raw wall figures.
# ---------------------------------------------------------------------------

SAMPLE_INTERVAL_S = 0.01
REF_NOMINAL_S = 0.0002


def reference():
    """Fixed interpreter work of the kind the package does (Fraction
    arithmetic); it never calls curvedhall."""
    acc = Fraction(0)
    for i in range(1, 30):
        acc += Fraction(i, i + 3) * Fraction(3, i + 1)
    return acc


class SpeedSampler:
    """Samples the reference's time every SAMPLE_INTERVAL_S while active.

    The benchmark process and its children share one CPU (see
    ``pin_to_one_cpu``), so the samples taken while this process waits for
    a child measure the CPU the child runs on.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference()             # reloads the caches the interrupted work evicted
        t1 = time.perf_counter()
        reference()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent += t2 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return len(self.samples), self.spent, time.perf_counter()

    def since(self, mark):
        """(raw, calibrated) seconds since ``mark``, handler time excluded."""
        n, spent, t0 = mark
        raw = time.perf_counter() - t0 - (self.spent - spent)
        during = self.samples[n:] or self.samples[-1:] or [REF_NOMINAL_S]
        return raw, raw * REF_NOMINAL_S / statistics.fmean(during)


def setup_s(args):
    """Median calibrated wall time of fresh interpreters that each do this
    run's set-up (imports, inputs, warm-up) and exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"]
    times = []
    with SpeedSampler() as sampler:
        for _ in range(SETUP_REPEATS):
            mark = sampler.mark()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
            times.append(sampler.since(mark)[1])
            if proc.returncode != 0:
                die("set-up failed:\n" + proc.stderr.decode(errors="replace"))
    return statistics.median(times)


def run_timed(wl, args):
    """Closed loop until both --seconds and --min-ops are done.  Returns
    (raw, calibrated) seconds per call and per busy time (call and check),
    the wall time, the mean reference time and the outcomes."""
    calls, busy, outcomes = [], [], Outcomes()
    start = time.perf_counter()
    with SpeedSampler() as sampler:
        for x in wl.inputs(args.seed):
            mark = sampler.mark()
            out = call(wl.call, x)
            calls.append(sampler.since(mark))
            outcomes.record(wl, x, out)
            busy.append(sampler.since(mark))
            wall = time.perf_counter() - start
            if wall >= TIME_CAP_S or (wall >= args.seconds
                                      and len(calls) >= max(2, args.min_ops)):
                break
    return calls, busy, wall, statistics.fmean(sampler.samples), outcomes


def end_to_end(wl, args):
    setup = setup_s(args)
    wl.setup(args.seed)
    calls, busy, wall, ref, outcomes = run_timed(wl, args)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    values = {}
    for i, kind in enumerate(("raw wall", "calibrated")):
        times = [t[i] for t in calls]
        values[kind] = {"op_s.p50": statistics.median(times),
                        "op_s.p90": quantile(times, 90),
                        "ops_per_s": len(busy) / sum(t[i] for t in busy)}
    metrics = dict(values["calibrated"], setup_s=setup,
                   peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0)
    print(f"curvedhall bench  workload={wl.name} seed={args.seed} "
          f"timed={wall:.2f}s  closed loop, 1 caller; mean reference "
          f"{ref * 1e6:.1f} us (nominal {REF_NOMINAL_S * 1e6:g} us)")
    for name, unit in END_TO_END:
        raw = values["raw wall"].get(name)
        extra = "" if raw is None else f"raw wall {raw:.6g}"
        print(f"  {name:<16} {metrics[name]:<14.6g} {unit:<4} {extra}")
    print(f"  {'failed_frac':<16} {outcomes.failed / outcomes.attempted:<14.6g} "
          f"({outcomes.failed} of {outcomes.attempted} operations; "
          f"op_s samples {len(calls)})")
    return outcomes, {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def measure_startup():
    """Interpreter start and ``import curvedhall.cli``, from -X importtime."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    runs = {"python": [], "cli": [], "numpy": [], "curvedhall": []}
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       timeout=CHILD_TIMEOUT_S)
        runs["python"].append(time.perf_counter() - t0)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import curvedhall.cli"],
            env=env, cwd=ROOT, capture_output=True, check=True,
            timeout=CHILD_TIMEOUT_S)
        first = {}
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                first.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        runs["cli"].append(first.get("curvedhall.cli", 0.0))
        runs["curvedhall"].append(first.get("curvedhall", 0.0))
        runs["numpy"].append(first.get("numpy", 0.0))
    med = {k: statistics.median(v) for k, v in runs.items()}
    return {"startup.python_s": med["python"],
            "startup.import_cli_s": med["cli"],
            "startup.import.numpy_s": med["numpy"],
            "startup.import.curvedhall_s": med["curvedhall"]}


def traced_pass(wl, xs, tracer):
    """Run ``xs`` with the tracer installed; checks run after removal."""
    outs, wall = [], 0.0
    if wl.name == "cli":
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_out = os.path.join(OUT_DIR, f"spans-{os.getpid()}.json")
        for x in xs:
            parent = len(tracer.spans)
            t0 = time.perf_counter()
            outs.append(call(tracer.span, "op.cli", wl.call, x, spans_out))
            wall += time.perf_counter() - t0
            if os.path.exists(spans_out):
                with open(spans_out) as fh:
                    tracer.merge(json.load(fh), parent=parent)
                os.remove(spans_out)
        return outs, wall
    tracer.install()
    try:
        for x in xs:
            t0 = time.perf_counter()
            outs.append(call(tracer.span, f"op.{wl.name}", wl.call, x))
            wall += time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return outs, wall


def layer_metrics(tracer, n_ops, startup, cli_times, overhead):
    stats, counts = tracer.stats, tracer.counts

    def st(name):
        return stats.get(name, (0, 0.0, 0.0))

    def value(metric, how):
        base = metric.rsplit(".", 1)[0]
        if how == "startup":
            return startup[metric]
        if how == "cli":
            group = CLI_GROUPS[metric[len("cli."):-len("_s")]]
            ts = [t for kind in group for t in cli_times.get(kind, ())]
            return statistics.median(ts) if ts else 0.0
        if how == "per_call":
            calls, total, _ = st(base)
            return total / calls if calls else 0.0
        if how == "calls":
            return st(base)[0] / n_ops
        if how == "self":
            return st(base)[2] / n_ops
        if how == "count":
            return counts.get(metric, 0) / n_ops
        if metric == "numverify.sturm.calls_per_level":
            levels = counts.get("numverify.levels", 0)
            return st("numverify.sturm")[0] / levels if levels else 0.0
        if metric == "numverify.matrix_build_s":
            calls, _, self_s = st("numverify.whittaker_oracle")
            return self_s / calls if calls else 0.0
        if metric == "classical.rk4.steps":
            calls = st("classical.integrate_rk4")[0]
            return counts.get(metric, 0) / calls if calls else 0.0
        if metric == "trace.overhead_frac":
            return overhead
        raise KeyError(metric)

    return {m: {"value": value(m, how), "unit": u} for m, u, how in PER_LAYER}


def per_layer(wl, args):
    from tracer import Tracer
    wl.setup(args.seed)
    xs = list(itertools.islice(wl.inputs(args.seed), wl.trace_ops))
    tracer, outcomes = Tracer(), Outcomes()
    ratios, cli_times, passes = [], {}, 0
    start = time.perf_counter()
    while True:
        untraced = 0.0
        for x in xs:
            t0 = time.perf_counter()
            out = call(wl.call, x)
            dt = time.perf_counter() - t0
            untraced += dt
            outcomes.record(wl, x, out)
            if wl.name == "cli":
                cli_times.setdefault(x[0], []).append(dt)
        outs, traced = traced_pass(wl, xs, tracer)
        for x, out in zip(xs, outs):
            outcomes.record(wl, x, out)
        ratios.append(traced / untraced)
        passes += 1
        wall = time.perf_counter() - start
        if wall >= args.seconds or wall >= TIME_CAP_S:
            break
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{wl.name}-{args.seed}.json"))
    metrics = layer_metrics(tracer, passes * len(xs), measure_startup(),
                            cli_times, statistics.median(ratios) - 1.0)
    print(f"curvedhall bench trace  workload={wl.name} seed={args.seed} "
          f"passes={passes} x {len(xs)} operations (untraced + traced)")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:<14.6g} {m['unit']}")
    return outcomes, metrics


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the speed
    samples taken here measure the CPU that ran the operation."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv):
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    use_checkout_source()
    pin_to_one_cpu()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]()
    if args.setup_only:
        wl.setup(args.seed)
        return 0
    outcomes, metrics = (per_layer if args.trace else end_to_end)(wl, args)
    print(json.dumps({"correct": outcomes.failed == 0,
                      "attempted": outcomes.attempted,
                      "failed": outcomes.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
