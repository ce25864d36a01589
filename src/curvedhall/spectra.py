"""Closed-form spectra and eigenfunctions for the three geometries.

Energies are computed in exact rational arithmetic whenever the inputs
are rational (int / Fraction), with the float value derived from the
exact one; otherwise plain floats are used.  Natural units hbar = c = e
= 1 are the default for the curved geometries, matching the conventions
of the curved-space sections; the flat Landau levels keep hbar and
omega_c explicit.
"""

from __future__ import annotations

import cmath
import json
import math
from collections import namedtuple
from fractions import Fraction

from .errors import (NoBoundStateError, UsageError, check_int,
                     check_mass_and_scale, check_positive, finite_value)
from .specfun import _laguerre_exact, laguerre


# energy_exact is the Fraction the float came from, or None for float input
SpectrumLine = namedtuple("SpectrumLine", "quantum_numbers energy energy_exact")


def _line(geometry, qn, expr, args):
    """``expr`` of all Fractions when every input is rational, else of all
    floats.  The formulas below are written once: their Fraction constants
    keep exact inputs exact and turn into the same float literals
    otherwise."""
    exact = all(isinstance(v, (int, Fraction)) for v in args)
    e = expr(*(Fraction(v) if exact else float(v) for v in args))
    value = float(e)
    if not math.isfinite(value):
        raise OverflowError(f"{geometry} energy is not finite ({value})")
    return SpectrumLine(qn, value, e if exact else None)


def landau_flat(n, omega_c=1, hbar=1):
    """E_n = (n + 1/2) hbar omega_c, for an int n >= 0."""
    n = check_int(n, "n", least=0)
    check_positive(omega_c=omega_c, hbar=hbar)
    return _line("flat", {"n": n},
                 lambda w, h: (n + Fraction(1, 2)) * h * w, (omega_c, hbar))


def halfplane_level_count(beta):
    """The number of bound states, in O(1): the allowed l are the integers
    0 <= l < ceil(beta - 1/2), which lie strictly below beta - 1/2.  The
    count is never negative, as beta - 1/2 > -1.  A beta outside (0, inf),
    nan included, is a UsageError."""
    check_positive(beta=float(beta))
    return math.ceil(float(beta) - 0.5)


def _check_window(beta, l):
    """l as an int inside the bound-state window, which is written once,
    in ``halfplane_level_count``."""
    l = check_int(l, "l")
    if not 0 <= l < halfplane_level_count(beta):
        raise NoBoundStateError(
            f"l={l} outside the bound-state window 0 <= l < beta - 1/2 "
            f"(beta={beta})")
    return l


def landau_halfplane(beta, l, m=1, a=1):
    """E_{beta,l} = (1/2 m a^2) (beta^2 + 1/4 - (l - beta + 1/2)^2)."""
    l = _check_window(beta, l)
    check_mass_and_scale(m, a)
    return _line(
        "halfplane", {"l": l, "beta": beta},
        lambda b, mm, aa: (b * b + Fraction(1, 4) - (l - b + Fraction(1, 2)) ** 2)
        / (2 * mm * aa * aa),
        (beta, m, a))


def sphere_spectrum(l, k, rho=1):
    """E_l = (2/rho^2) [ (l - k/2)(l - k/2 + 1) - k^2/4 ], for an int
    l >= 0 and a whole k.  k may be a float, as 2.0, which takes the float
    path."""
    l = check_int(l, "l", least=0)
    if not -math.inf < k < math.inf or k % 1:
        raise UsageError(f"k must be a finite whole number, got {k!r}")
    check_positive(rho=float(rho))
    return _line(
        "sphere", {"l": l, "k": k},
        lambda kk, rr: 2 * ((l - kk / 2) * (l - kk / 2 + 1) - kk * kk / 4) / (rr * rr),
        (k, rho))


def eigenfunction_halfplane(beta, l, c, point):
    """Psi = e^{-i c x - c y} y^{beta-l} L_l^{(2 beta - 2 l - 1)}(2 c y),
    unnormalized.  |Psi| is x-independent; c > 0 labels the degenerate
    copies of each level."""
    l = _check_window(beta, l)
    check_positive(c=c)
    x, y = point
    if not (y > 0 and math.isfinite(x)):
        raise UsageError("point must lie in the upper half-plane")
    beta = float(beta)
    tau, z = 2 * beta - 2 * l - 1, 2 * c * y
    if not math.isfinite(z):
        # c y > 8.9e307: e^(-cy) puts |Psi| below every double, whatever
        # beta and l
        return cmath.exp(-1j * c * x) * 0.0
    try:
        v = cmath.exp(-1j * c * x - c * y) * y ** (beta - l) * laguerre(l, tau, z)
    except OverflowError:
        v = math.inf
    if not cmath.isfinite(v):
        # y^(beta-l) or L overflows where e^(-cy) decays: |Psi| in log
        # space, with L's sign and ln|L| from its exact value (L = 0 gives 0)
        q = _laguerre_exact(l, tau, z)
        ln_q = (math.log(abs(q.numerator)) - math.log(q.denominator)
                if q else -math.inf)
        try:
            size = math.exp((beta - l) * math.log(y) - c * y + ln_q)
        except OverflowError:
            size = math.inf     # |Psi| is beyond a double: raised below
        v = cmath.exp(-1j * c * x) * (-size if q < 0 else size)
    return finite_value(v, "eigenfunction")


def ground_state_flat(z, z0):
    """psi_0 = exp(-|z|^2 / 4 z0^2), the holomorphic factor set to 1."""
    check_positive(z0=z0)
    if not cmath.isfinite(z):
        raise ValueError(f"point z must be finite, got {z!r}")
    return cmath.exp(-abs(z) ** 2 / (4.0 * z0 * z0))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def spectrum_json(geometry, params, lines):
    return json.dumps({
        "geometry": geometry,
        "params": params,
        "levels": [{"qn": line.quantum_numbers, "energy": line.energy}
                   for line in lines],
    }, indent=2)


def spectrum_csv(lines):
    rows = ["qn,energy"]
    for line in lines:
        qn = ";".join(f"{k}={v}" for k, v in line.quantum_numbers.items())
        rows.append(f"{qn},{line.energy!r}")
    return "\n".join(rows) + "\n"
