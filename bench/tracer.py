"""Call tracing installed from outside the package.

``install`` wraps the public functions and kernel methods listed in
``TARGETS`` in the already imported ``curvedhall`` modules; ``uninstall``
puts the originals back.  Nothing here is imported or patched in an
untraced run.

Every wrapper pushes a frame on one call stack, so a layer's self time is
its duration minus the time of the traced calls made inside it.  Coarse
boundaries (``SPAN``) keep every span in memory as ``[name, start, end,
parent]``.  Kernel methods called hundreds of thousands of times per
operation (``AGG``) keep per-name totals only, computed on the same stack,
so self times are exact without storing each call.  ``COUNT`` targets are
only counted: timing a scalar multiply would cost more than the multiply.
"""

from __future__ import annotations

import importlib
import json
import time

SPAN, AGG, COUNT = "span", "agg", "count"

# (layer.name, module, class or None, attributes, mode)
TARGETS = (
    ("models.run_identity_suite", "models", None, ("run_identity_suite",), SPAN),
    ("models.render_suite", "models", None, ("render_suite",), SPAN),
    ("models.sphere_identity", "models", None, ("sphere_identity",), SPAN),
    ("models.determine_classical_translation", "models", None,
     ("determine_classical_translation",), SPAN),
    ("models.disk_hamiltonian_expanded", "models", None,
     ("disk_hamiltonian_expanded",), SPAN),
    ("geometry.laplace_beltrami", "geometry", None, ("laplace_beltrami",), SPAN),
    ("opalg.GaussianRational.mul", "opalg", "GaussianRational",
     ("__mul__", "__rmul__"), COUNT),
    ("opalg.LaurentPoly.mul", "opalg", "LaurentPoly", ("__mul__", "__rmul__"), AGG),
    ("opalg.LaurentPoly.add", "opalg", "LaurentPoly", ("__add__", "__radd__"), AGG),
    ("opalg.RationalFunc.add", "opalg", "RationalFunc", ("__add__", "__radd__"), AGG),
    ("opalg.RationalFunc.mul", "opalg", "RationalFunc", ("__mul__", "__rmul__"), AGG),
    ("opalg.DiffOp.mul", "opalg", "DiffOp", ("__mul__",), AGG),
    ("opalg.DiffOp.commutator", "opalg", "DiffOp", ("commutator",), AGG),
    ("opalg.exact_divide", "opalg", None, ("exact_divide",), AGG),
    ("opalg.poisson_bracket", "opalg", None, ("poisson_bracket",), AGG),
    ("numverify.whittaker_oracle", "numverify", None, ("whittaker_oracle",), SPAN),
    ("numverify.tridiag_eigs", "numverify", None, ("tridiag_eigs",), SPAN),
    ("numverify.sturm", "numverify", None, ("_sturm_count",), AGG),
    ("classical.integrate_rk4", "classical", None, ("integrate_rk4",), SPAN),
    ("classical.drift_summary", "classical", None, ("drift_summary",), SPAN),
    ("classical.trajectory_csv", "classical", None, ("trajectory_csv",), SPAN),
    ("specfun.laguerre", "specfun", None, ("laguerre",), AGG),
    ("spectra.eigenfunction_halfplane", "spectra", None,
     ("eigenfunction_halfplane",), AGG),
    ("spectra.landau_halfplane", "spectra", None, ("landau_halfplane",), AGG),
    ("manybody.laughlin", "manybody", None, ("laughlin",), SPAN),
    ("manybody.antisymmetry_check", "manybody", None, ("antisymmetry_check",), SPAN),
)


def _terms_out(args, result):
    return "opalg.LaurentPoly.mul.terms_out", len(result.terms)


def _rk4_steps(args, result):
    return "classical.rk4.steps", len(result.states) - 1


def _levels(args, result):
    return "numverify.levels", len(result)


# exact work counters read off a traced call's result
HOOKS = {
    "opalg.LaurentPoly.mul": _terms_out,
    "classical.integrate_rk4": _rk4_steps,
    "numverify.tridiag_eigs": _levels,
}


class Tracer:
    """In-memory spans, per-name totals and work counters of one process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stats = {}          # name -> [calls, total_s, self_s]
        self.counts = {}         # counter name -> int
        self._stack = []         # frames: [child_s, span index]
        self._patched = []       # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a kept span named ``name``."""
        return self._wrap(name, fn, SPAN)(*args, **kwargs)

    def _wrap(self, name, fn, mode):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        if mode == COUNT:
            def counted(*args, **kwargs):
                stats[0] += 1
                return fn(*args, **kwargs)
            return counted
        stack, spans, counts = self._stack, self.spans, self.counts
        hook = HOOKS.get(name)
        keep = mode == SPAN
        clock = time.perf_counter

        def timed(*args, **kwargs):
            idx = None
            if keep:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, self._parent_span()])
            frame = [0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if keep:
                    spans[idx][1] = t0
                    spans[idx][2] = t1
            if hook is not None:
                key, n = hook(args, result)
                counts[key] = counts.get(key, 0) + n
            return result
        return timed

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every target that exists in the loaded package."""
        modules = [importlib.import_module(f"curvedhall.{m}") for m in
                   ("opalg", "geometry", "models", "numverify", "classical",
                    "specfun", "spectra", "manybody", "cli")]
        for name, modname, clsname, attrs, mode in TARGETS:
            mod = importlib.import_module(f"curvedhall.{modname}")
            owner = getattr(mod, clsname, None) if clsname else mod
            if owner is None:
                continue
            for attr in attrs:
                orig = owner.__dict__.get(attr) if clsname else getattr(mod, attr, None)
                if orig is None:
                    continue
                wrapped = self._wrap(name, orig, mode)
                if clsname:
                    self._patch(owner, attr, orig, wrapped)
                else:
                    # the function may also be bound by ``from .x import f``
                    for m in modules:
                        if m.__dict__.get(attr) is orig:
                            self._patch(m, attr, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- output ----------------------------------------------------------

    def dump(self):
        return {"spans": self.spans, "stats": self.stats, "counts": self.counts}

    def merge(self, other, parent=None):
        """Fold a dumped trace (e.g. from a child process) into this one."""
        base = len(self.spans)
        for name, t0, t1, par in other["spans"]:
            self.spans.append([name, t0, t1, parent if par is None else par + base])
        for name, (calls, total, self_s) in other["stats"].items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
        for key, n in other["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + n

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)
