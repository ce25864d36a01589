"""Shared exception types, the mass and scale check of the curved spectra
and their oracle, and the int check of a degree or level count."""

import math
import operator


class UsageError(ValueError):
    """A request the caller got wrong (a zero mass or scale, a point,
    level or config outside its domain); the CLI answers it, and each
    subclass, with exit code 2."""


def check_mass_and_scale(m, a):
    """Require a mass 0 < m < inf and a finite, nonzero length scale a;
    nan fails both.  An inf or nan would give energies of 0 or nan."""
    if not 0 < m < math.inf:
        raise UsageError("m must be positive and finite")
    if not (a != 0 and -math.inf < a < math.inf):
        raise UsageError("a must be nonzero and finite")


def check_int(v, name):
    """v as an int; UsageError for one that is not an integer (2.5, nan),
    which would otherwise fail in ``range`` or a list repetition."""
    try:
        return operator.index(v)
    except TypeError:
        raise UsageError(f"{name} must be an int, got {v!r}") from None


class DomainError(UsageError):
    """Point or parameter outside the domain of validity: a usage error."""


class PoleError(ValueError):
    """Series parameter sits on a pole (nonpositive-integer denominator)."""


class ConvergenceError(RuntimeError):
    """Series or iteration failed to converge within its term cap."""


class SingularityError(ValueError):
    """Numeric evaluation hit a coefficient pole (e.g. y = 0)."""


class NoBoundStateError(UsageError):
    """Level outside the bound-state window 0 <= l < beta - 1/2: a usage
    error."""


class NonNormalizableError(ValueError):
    """Wavefunction norm diverges on the invariant measure."""


class ResolutionError(RuntimeError):
    """Grid too coarse to resolve the requested number of bound states."""


class FitSingularError(ValueError):
    """Degenerate (collinear) data handed to the circle fit."""


class PauliViolationError(ValueError):
    """Repeated single-particle quantum numbers in a Slater determinant."""
