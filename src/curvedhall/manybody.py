"""Lowest-Landau-level trial wavefunctions and filling-factor arithmetic."""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction

from .errors import (DomainError, PauliViolationError, UsageError, check_int,
                     finite_value)


class ParticleConfig(namedtuple("ParticleConfig", "points z0")):
    """Particle positions z_i in the complex plane with magnetic length z0.
    The constructor, ``_make`` and ``_replace`` coerce the points to a
    tuple of complex and check both fields: finite points whose sum of
    |z_i|^2 is below 1e308, and a finite z0 > 0 whose square does not
    underflow, so the Gaussian exp(-sum |z_i|^2 / 4 z0^2) neither
    overflows nor divides by zero.  Each is a ``DomainError``."""

    __slots__ = ()

    def __new__(cls, points, z0):
        points = tuple(complex(z) for z in points)
        if not 1 <= len(points) <= 12:
            raise DomainError("particle count must be between 1 and 12")
        # below 1e308, the sum of |z|^2 that gaussian takes stays finite
        if not sum(z.real * z.real + z.imag * z.imag for z in points) < 1e308:
            raise DomainError("particle positions must be finite, with "
                              "sum |z|^2 < 1e308")
        if not (0 < z0 < math.inf and z0 * z0 > 0):
            raise DomainError("z0 must be positive and finite, with z0^2 > 0")
        return super().__new__(cls, points, z0)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, and _replace through it, skip __new__
        return cls(*iterable)

    @property
    def n(self):
        return len(self.points)

    def gaussian(self):
        s = sum(abs(z) ** 2 for z in self.points)
        return math.exp(-s / (4.0 * self.z0 * self.z0))

    def to_json(self):
        return json.dumps({"z0": self.z0,
                           "points": [[z.real, z.imag] for z in self.points]})

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
            pts = [complex(re, im) for re, im in data["points"]]
            z0 = float(data["z0"])
        except (TypeError, KeyError, ValueError) as ex:
            raise UsageError('config must be {"z0": r, "points": '
                              f'[[re, im], ...]}} ({ex})') from None
        return cls(tuple(pts), z0)


def slater_lll(cfg, orbitals):
    """det[z_i^{n_j}] times the common Gaussian factor.

    ``orbitals`` lists the angular-momentum powers; repeats make the
    determinant identically zero and are rejected rather than returned.
    A power z^k or a value beyond a double raises ``OverflowError``.
    """
    n = [check_int(k, "orbital", least=0) for k in orbitals]
    if len(n) != cfg.n:
        raise ValueError("need one orbital per particle")
    if len(set(n)) != len(n):
        raise PauliViolationError(f"repeated orbital in {tuple(n)}")
    return finite_value(_det([[z ** k for k in n] for z in cfg.points])
                        * cfg.gaussian(), "Slater")


def _det(a):
    """Determinant of a square complex matrix (a list of rows, overwritten)
    by Gaussian elimination with partial pivoting."""
    det = 1.0 + 0j
    for j in range(len(a)):
        p = max(range(j, len(a)), key=lambda i: abs(a[i][j]))
        if not a[p][j]:
            return 0j
        if p != j:
            a[j], a[p] = a[p], a[j]
            det = -det
        pivot = a[j]
        det *= pivot[j]
        for row in a[j + 1:]:
            f = row[j] / pivot[j]
            for k in range(j + 1, len(a)):
                row[k] -= f * pivot[k]
    return det


def laughlin(cfg, m):
    """Pair-product state: prod_{i<j} (z_i - z_j)^m times the Gaussian."""
    m = check_int(m, "m", least=1)
    acc = 1.0 + 0j
    z = cfg.points
    for i in range(cfg.n):
        for j in range(i + 1, cfg.n):
            acc *= (z[i] - z[j]) ** m
    return finite_value(acc * cfg.gaussian(), "Laughlin")


def antisymmetry_check(cfg, m):
    """True iff swapping the first two particles negates (odd m) or
    preserves (even m) the value, to machine precision."""
    if cfg.n < 2:
        return True
    pts = list(cfg.points)
    pts[0], pts[1] = pts[1], pts[0]
    swapped = laughlin(ParticleConfig(tuple(pts), cfg.z0), m)
    ref = laughlin(cfg, m)
    want = -ref if m % 2 else ref
    scale = max(abs(ref), 1e-300)
    return abs(swapped - want) / scale <= 1e-12


def filling_factor(n_particles, b_field, area):
    """Particle density over flux density: nu = 2 pi (N/S) / B.  An N,
    S or B outside its range is a ``DomainError``; a nu that overflows
    raises ``OverflowError``."""
    if not (0 <= n_particles < math.inf and 0 < area < math.inf
            and 0 < b_field < math.inf):
        raise DomainError("need 0 <= N < inf, 0 < S < inf and 0 < B < inf")
    return finite_value(2.0 * math.pi * (n_particles / area) / b_field,
                        "filling factor")


def filling_quantized(n_particles, n_flux):
    """Exact rational filling N / N_phi of two int counts."""
    n_particles = check_int(n_particles, "n_particles")
    n_flux = check_int(n_flux, "n_flux")
    if n_flux < 1:
        raise DomainError("flux-quantum count must be >= 1")
    return Fraction(n_particles, n_flux)
