"""Shared exception types and the argument rules every numeric module
applies where its input enters: ``check_int`` (an int, with an optional
floor), ``check_finite`` (not nan or infinite), ``check_positive`` (in
(0, inf); nan fails), ``check_scale`` (a finite length scale with a
nonzero square) and ``check_mass_and_scale``.  Each raises a
``UsageError`` that names the argument.  ``finite_value`` checks a result
instead: one that overflows raises ``OverflowError``."""

import math
import operator


class UsageError(ValueError):
    """A request the caller got wrong (a zero mass or scale, a point,
    level or config outside its domain); the CLI answers it, and each
    subclass, with exit code 2."""


def check_int(v, name, least=None):
    """v as an int; UsageError for one that is not an integer (2.5, nan),
    which would otherwise fail in ``range`` or a list repetition, for a
    bool, which ``operator.index`` reads as 0 or 1, or for one that lies
    below ``least``."""
    try:
        if isinstance(v, bool):
            raise TypeError
        v = operator.index(v)
    except TypeError:
        raise UsageError(f"{name} must be an int, got {v!r}") from None
    if least is not None and v < least:
        raise UsageError(f"{name} must be >= {least}, got {v}")
    return v


def check_finite(**named):
    """UsageError naming the first argument that is nan or infinite."""
    for name, v in named.items():
        if not -math.inf < v < math.inf:
            raise UsageError(f"{name} must be finite, got {v!r}")


def check_positive(**named):
    """UsageError naming the first argument outside (0, inf); nan fails."""
    for name, v in named.items():
        if not 0 < v < math.inf:
            raise UsageError(f"{name} must be positive and finite, got {v!r}")


def check_scale(a):
    """Require a finite length scale a whose square is nonzero: a = 0, or
    a finite a under ~1.5e-162 in size, whose square underflows to 0,
    would divide by zero where 1/a^2 enters; nan and inf fail."""
    if not (a * a != 0 and -math.inf < a < math.inf):
        raise UsageError(f"a must be finite, with a nonzero a^2; got {a!r}")


def finite_value(v, name):
    """v, a float or a complex, once every part of it is finite; else an
    ``OverflowError`` that names the value."""
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise OverflowError(f"{name} value is not finite ({v})")
    return v


def check_mass_and_scale(m, a):
    """Require a mass 0 < m < inf and a length scale a as ``check_scale``
    has it.  An inf or nan would give energies of 0 or nan."""
    check_positive(m=m)
    check_scale(a)


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


class PauliViolationError(ValueError):
    """Repeated single-particle quantum numbers in a Slater determinant."""
