"""Exact operator algebra over Gaussian-rational coefficients.

Everything downstream (metric Hamiltonians, symmetry generators, Casimir
identities, Poisson brackets) is built from three layers:

    GaussianRational  -- (a + b*i)/d over ints, d > 0, gcd(a, b, d) == 1
    LaurentPoly       -- multivariate Laurent polynomials over a Ring, kept
                         as one int denominator over Gaussian-integer
                         numerators
    DiffOp            -- sums of coefficient * (partial-derivative monomial),
                         each coefficient a LaurentPoly

All values are immutable after construction and every operation returns a
normalized result.  Values are shared, so no code may edit a ``num`` or a
``DiffOp.terms`` dict in place: ``Ring.var`` returns one value per
(name, power), and a ``DiffOp`` keeps its derivative table,
``{beta: d_var g_beta}`` per geometric variable with no zero entry, once
``_hits`` has built it with the operator on the right.  ``_hits`` takes
that table as its first carry, so ``_carry`` reads the ``rest`` it is
given and builds a new dict.  Neither table refers back to its owner.
Input is checked once, where it enters (``Ring.const``, ``Ring.var``,
``Ring.monomial``, ``DiffOp.mult``, ``DiffOp.d``, ``DiffOp.zero``,
``DiffOp.from_terms``); the constructors only store kernel-built parts.
No ``DiffOp`` holds a zero coefficient, and none is filtered out after
the fact: ``_accumulate`` skips a zero value and deletes a key whose sum
cancels, and only ``from_terms`` and ``DiffOp._lift``, where outside
coefficients enter, drop a zero one.
A ``LaurentPoly`` is its ``ring``, ``num`` and ``den``, and keeps no
scalar object per term: its coefficients are (a + b*i)/den over one
denominator ``den`` for the whole polynomial, as FLINT's ``fmpq_poly``
keeps rational polynomials, so a sum, a product or a derivative is int
arithmetic over the numerators and one content gcd at the end.
``GaussianRational`` stays the public scalar; ``LaurentPoly.terms``
builds a new dict of them, one per term, on each read, so editing that
dict changes no value.  A polynomial has no inverse: the only negative
powers are those of a Laurent variable, written ``ring.var(name, -k)``.

The three types share one base, ``_Value``: ``a - b`` is ``a + (-b)``
and ``b - a`` is ``(-a) + b``, and ``==`` lifts the operand and tests
whether ``a - b`` is zero.  ``DiffOp`` compares that way and has no hash.
``GaussianRational`` and ``LaurentPoly`` have a unique form, so ``==``
compares it, and each hashes like the scalar it equals: a real
``GaussianRational`` like its ``re``, a constant ``LaurentPoly`` like its
coefficient, so ``{3, GaussianRational(3), ring.const(3)}`` has one
element.

Operator composition and the commutator share one Leibniz carry,
``DiffOp._hits``: it pushes each derivative of the left operator through
the right one a partial at a time and keeps only the terms in which a
derivative lands on a coefficient.  ``*`` adds the plain products
f g d^(alpha+beta) to those; ``commutator`` never builds them, because
they are the same in A o B and B o A and cancel exactly.

Mixed operands follow one lift rule: a layer takes a scalar or a
lower-layer value into its own layer and returns NotImplemented at once
for anything else, so a higher-layer right operand takes over.
``DiffOp._lift`` puts a scalar or a coefficient straight into a
zeroth-order term.  A ring mismatch raises ``DeclarationError`` in the
lift, so every operation raises it, ``==`` and ``poisson_bracket``
included.  An operator is written in normal form, as its coefficient
table through ``DiffOp.from_terms``, or as a composition with each
prefactor free of the geometric variables on the right; ``DiffOp.mult(p)``
is kept for a left factor p that is a function of them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add


class DeclarationError(ValueError):
    """Raised when operands live over different variable declarations."""


_INEXACT = "floats are not exact; build from Fraction instead"


class _Value:
    """Base of the three value types: ``a - b`` is ``a + (-b)``, and ``==``
    lifts the operand and tests whether the difference is zero.
    ``GaussianRational`` and ``LaurentPoly`` override ``==`` and the hash
    to compare their unique form."""

    __slots__ = ()

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __eq__(self, other):
        if self._lift(other) is None:
            return NotImplemented
        return (self - other).is_zero

    # a DiffOp is never a key, and a hash of its terms would have to agree
    # with == against scalars and coefficients
    __hash__ = None


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

class GaussianRational(_Value):
    """Complex number with exact rational real and imaginary parts.

    A value is three ints ``(a, b, d)`` meaning ``(a + b*i)/d``, kept in
    lowest terms: ``d > 0`` and ``gcd(a, b, d) == 1``.  The form is unique,
    so ``==`` compares the triples.  Every result is built by ``_norm``
    from integer products and sums, reduced by one ``math.gcd``.  ``re``
    and ``im`` are read-only Fraction views.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        if isinstance(re, (float, complex)) or isinstance(im, (float, complex)):
            raise TypeError(_INEXACT)
        re, im = Fraction(re), Fraction(im)
        q, s = re.denominator, im.denominator
        return _norm(re.numerator * s, im.numerator * q, q * s)

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    @classmethod
    def coerce(cls, v):
        if isinstance(v, GaussianRational):
            return v
        if isinstance(v, (int, Fraction)):
            return _make(v.numerator, 0, v.denominator)
        if isinstance(v, (float, complex)):
            raise TypeError(_INEXACT)
        raise TypeError(f"cannot coerce {v!r} to GaussianRational")

    def __add__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.coerce(other)
        d1, d2 = self._d, other._d
        return _norm(self._a * d2 + other._a * d1,
                     self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _norm(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.coerce(other)
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        # a real value equals its re, an int or a Fraction, so hashes alike
        return hash((self.re, self.im) if self._b else self.re)

    def __bool__(self):
        return bool(self._a or self._b)

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im}*i"
        im = "+ " + (f"{im}*i" if im != 1 else "i") if im > 0 \
            else "- " + (f"{-im}*i" if im != -1 else "i")
        return f"({re} {im})"


def _make(a, b, d):
    """GaussianRational (a + b*i)/d from a triple already in lowest terms."""
    z = object.__new__(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _norm(a, b, d):
    """GaussianRational (a + b*i)/d for ints with d > 0, in lowest terms."""
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _make(a, b, d)


I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------

class Ring:
    """Ordered variable declaration shared by all polynomials of a model.

    ``laurent`` names may carry negative exponents; ``params`` are inert
    under the geometric derivatives of a DiffOp.  A model declares its ring
    once, as a module constant, and a ring equals only itself: values over
    two rings built apart do not mix, even from the same declaration, and
    raise ``DeclarationError``.  A ring carries no relations among its
    symbols: a model that needs a square root, such as the magnetic length
    of the flat plane, takes it as a parameter and writes the square as a
    monomial.
    """

    def __init__(self, variables, laurent=(), params=()):
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise DeclarationError("duplicate variable names")
        self.laurent = frozenset(laurent)
        self.params = frozenset(params)
        unknown = (self.laurent | self.params) - set(self.vars)
        if unknown:
            raise DeclarationError(f"undeclared names: {sorted(unknown)}")
        self.index = {v: k for k, v in enumerate(self.vars)}
        # positions whose exponent may not go negative
        self._plain = tuple(k for k, v in enumerate(self.vars)
                            if v not in self.laurent)
        # (name, power) -> the shared monomial of ``var``
        self._vars = {}

    def zero(self):
        return LaurentPoly(self, {}, 1)

    def one(self):
        return self.const(1)

    def const(self, c):
        z = GaussianRational.coerce(c)
        if not z:
            return self.zero()
        return LaurentPoly(self, {(0,) * len(self.vars): (z._a, z._b)}, z._d)

    def var(self, name, power=1):
        """The monomial name**power for an int power.  Each checked (name,
        power) is built once and the same value returned after, so callers
        share it and must not edit its ``num``; a bad name or power raises
        on every call."""
        if name not in self.index:
            raise DeclarationError(f"undeclared variable {name!r}")
        if not isinstance(power, int):
            raise TypeError("exponent must be an int")
        v = self._vars.get((name, power))
        if v is None:
            vec = [0] * len(self.vars)
            vec[self.index[name]] = power
            v = self._vars[name, power] = self.monomial(tuple(vec))
        return v

    def monomial(self, exps, coeff=1):
        return self.const(coeff).shift(exps)


def _grlex_key(exps):
    return (sum(exps), exps)


class LaurentPoly(_Value):
    """Multivariate Laurent polynomial with Gaussian-rational coefficients,
    built by the ``Ring`` builders.

    A value is one positive int ``den`` over ``num``, a dict
    ``{exps: (a, b)}`` of Gaussian-integer numerators: the coefficient of
    the monomial ``exps`` is (a + b*i)/den.  No numerator is (0, 0), the
    content gcd(den, every a, every b) is 1, and the zero polynomial has
    den == 1.  The form is unique, so ``==`` and the hash read
    ``(den, num)``.  Arithmetic is int arithmetic over the numerators, and
    ``_reduced`` makes one content pass per result; the constructor only
    stores parts already in the form.  A value holds ``ring``, ``num``
    and ``den`` and nothing else; ``terms`` builds a new dict on each read.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring, num, den):
        self.ring = ring
        self.num = num
        self.den = den

    @property
    def terms(self):
        """A new ``{exps: GaussianRational}`` dict of the coefficients."""
        den = self.den
        return {e: _norm(a, b, den) for e, (a, b) in self.num.items()}

    # -- ring ops ----------------------------------------------------------

    def _lift(self, other):
        if type(other) is LaurentPoly:
            if self.ring != other.ring:
                raise DeclarationError("operands declared over different rings")
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        den = d1 = self.den
        d2 = other.den
        if d1 == d2:
            out = dict(self.num)
            m = 1
        else:
            # over lcm(d1, d2): self's numerators times d2/g, other's d1/g
            g = math.gcd(d1, d2)
            k, m = d2 // g, d1 // g
            den = d1 * k
            out = {e: (a * k, b * k) for e, (a, b) in self.num.items()}
        for e, (a, b) in other.num.items():
            if m != 1:
                a *= m
                b *= m
            s = out.get(e)
            if s is None:
                out[e] = (a, b)
                continue
            a += s[0]
            b += s[1]
            if a or b:
                out[e] = (a, b)
            else:
                del out[e]
        return _reduced(self.ring, out, den)

    __radd__ = __add__

    def __neg__(self):
        num = {e: (-a, -b) for e, (a, b) in self.num.items()}
        return LaurentPoly(self.ring, num, self.den)

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        out = {}
        cancelled = False
        for e1, (a1, b1) in self.num.items():
            for e2, (a2, b2) in other.num.items():
                e = tuple(map(add, e1, e2))
                if b1 or b2:
                    a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                else:
                    a, b = a1 * a2, 0
                s = out.get(e)
                if s is not None:
                    a += s[0]
                    b += s[1]
                    # a cancelled sum keeps its place until the end: a
                    # later product may land on it, and eval sums the
                    # terms in this order
                    cancelled = cancelled or not (a or b)
                out[e] = (a, b)
        if cancelled:
            out = {e: ab for e, ab in out.items() if ab[0] or ab[1]}
        return _reduced(self.ring, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        """self**k for an int k >= 0, by square-and-multiply."""
        if not isinstance(k, int):
            raise TypeError("exponent must be an int")
        if k < 0:
            raise ValueError(f"a polynomial has no inverse: write a negative "
                             f"power of a variable as ring.var(name, {k})")
        base, out = self, None
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return self.ring.one() if out is None else out

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        num = self.num
        if any(map(any, num)):
            return hash((self.den, frozenset(num.items())))
        # every exponent is 0: a constant equals its scalar, so hashes alike
        a, b = next(iter(num.values()), (0, 0))
        return hash(_make(a, b, self.den))

    @property
    def is_zero(self):
        return not self.num

    def diff(self, var):
        """Formal partial derivative; exponent-weighted shift.  Distinct
        monomials stay distinct, so no two terms land on one."""
        try:
            k = self.ring.index[var]
        except KeyError:
            raise DeclarationError(f"undeclared variable {var!r}") from None
        out = {}
        for exps, (a, b) in self.num.items():
            e = exps[k]
            if e:
                out[exps[:k] + (e - 1,) + exps[k + 1:]] = (a * e, b * e)
        return _reduced(self.ring, out, self.den)

    def shift(self, delta):
        if len(delta) != len(self.ring.vars):
            raise DeclarationError(
                f"exponent vector of length {len(delta)} for "
                f"{len(self.ring.vars)} variables")
        num = {tuple(map(add, e, delta)): ab for e, ab in self.num.items()}
        for k in self.ring._plain:
            if any(e[k] < 0 for e in num):
                raise DeclarationError(
                    f"negative power of non-Laurent variable {self.ring.vars[k]!r}")
        return LaurentPoly(self.ring, num, self.den)

    def eval(self, values):
        """Numeric evaluation; every variable present must get a value."""
        out = 0j
        vals = [values.get(v) for v in self.ring.vars]
        for exps, coeff in self.terms.items():
            term = complex(coeff)
            for v, e in zip(vals, exps):
                if e == 0:
                    continue
                if v is None:
                    raise KeyError("unbound variable in eval")
                term *= v ** e
            out += term
        return out

    def substitute(self, images):
        """Map named variables to LaurentPoly images (same or new ring).  An
        unmapped variable keeps its power; a mapped one to a negative power
        raises ValueError, since its image has no inverse."""
        tgt = _some_image(images).ring
        out = tgt.zero()
        for exps, coeff in self.terms.items():
            term = tgt.const(coeff)
            for var, e in zip(self.ring.vars, exps):
                if e == 0:
                    continue
                img = images.get(var)
                term = term * (tgt.var(var, e) if img is None else img ** e)
            out = out + term
        return out

    def __str__(self):
        if not self.num:
            return "0"
        terms = self.terms
        bits = []
        for exps in sorted(terms, key=_grlex_key, reverse=True):
            coeff = terms[exps]
            factors = []
            for v, e in zip(self.ring.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e != 0:
                    factors.append(f"{v}**{e}")
            cs = str(coeff)
            if factors and cs == "1":
                bits.append("*".join(factors))
            elif factors and cs == "-1":
                bits.append("-" + "*".join(factors))
            else:
                bits.append("*".join([cs] + factors))
        s = " + ".join(bits)
        return s.replace("+ -", "- ")

    __repr__ = __str__


def _reduced(ring, num, den):
    """LaurentPoly of the numerators ``num`` (no (0, 0) among them) over
    ``den`` > 0, with the content gcd(den, every a, every b) divided out.
    The gcd pass stops at the first 1."""
    if den != 1:
        if not num:
            return LaurentPoly(ring, num, 1)
        g = den
        for a, b in num.values():
            g = math.gcd(g, a, b)
            if g == 1:
                break
        if g != 1:
            num = {e: (a // g, b // g) for e, (a, b) in num.items()}
            den //= g
    return LaurentPoly(ring, num, den)


def _some_image(images):
    """One image of a substitution; the images lie in the target ring."""
    for img in images.values():
        return img
    raise DeclarationError("no image gives the target ring")


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------

def _accumulate(out, key, value):
    """out[key] += value for a coefficient value: a zero value is skipped,
    and a sum that cancels deletes the key, so ``out`` holds no zero."""
    if value.is_zero:
        return
    s = out.get(key)
    if s is None:
        out[key] = value
    elif (s := s + value).is_zero:
        del out[key]
    else:
        out[key] = s


def _carry(rest, shift, k, var, dg):
    """rest_(shift + e_k) of ``DiffOp._hits`` from rest_shift: d_var o rest,
    plus (d_var g_beta) d^(beta + shift) for each item of ``dg``, the
    partial landing on the coefficients of the shifted other.  A new dict:
    ``rest`` may be a derivative table, which is read, never edited."""
    out = {}
    for beta, h in rest.items():
        _accumulate(out, beta, h.diff(var))
        _accumulate(out, beta[:k] + (beta[k] + 1,) + beta[k + 1:], h)
    for beta, g in dg.items():
        _accumulate(out, tuple(map(add, beta, shift)), g)
    return out


class DiffOp(_Value):
    """Normal-ordered differential operator: sum of coeff * d^alpha.

    ``geom_vars`` are the variables derivatives act on; every other ring
    variable is inert.  Terms map derivative multi-indices to LaurentPoly
    coefficients, with all derivatives to the right of all coefficients.
    Built by ``mult``, ``d``, ``zero`` and ``from_terms``, which drop zero
    coefficients; the constructor stores the dict it is given, which
    holds none, since every operation builds its terms with
    ``_accumulate``.  ``_hits`` fills ``_dgs``, the derivative table of an
    operator on the right of ``*`` or ``commutator``, on first use; it
    holds coefficients, never an operator, and is shared by every later
    call as the first carry, so ``terms``, each table and each
    coefficient's ``num`` are never edited in place.
    """

    __slots__ = ("ring", "geom_vars", "terms", "_dgs")

    def __init__(self, ring, geom_vars, terms):
        self.ring = ring
        self.geom_vars = geom_vars
        self.terms = terms
        # var -> {beta: d_var g_beta}, no zero entry; filled by ``_hits``
        self._dgs = None

    # -- builders ----------------------------------------------------------

    @classmethod
    def from_terms(cls, ring, geom_vars, terms):
        """Checked builder: the sum of coeff * d^alpha over ``terms``."""
        geom_vars = tuple(geom_vars)
        for v in geom_vars:
            if v not in ring.index or v in ring.params:
                raise DeclarationError(f"bad geometric variable {v!r}")
        cleaned = {}
        for alpha, coeff in terms.items():
            if not isinstance(coeff, LaurentPoly):
                coeff = ring.const(coeff)
            if coeff.ring != ring:
                raise DeclarationError("coefficient declared over another ring")
            alpha = tuple(alpha)
            if len(alpha) != len(geom_vars) or any(a < 0 for a in alpha):
                raise DeclarationError(f"bad derivative multi-index {alpha}")
            if not coeff.is_zero:
                cleaned[alpha] = coeff
        return cls(ring, geom_vars, cleaned)

    @classmethod
    def zero(cls, ring, geom_vars):
        return cls.from_terms(ring, geom_vars, {})

    @classmethod
    def mult(cls, ring, geom_vars, coeff):
        """Multiplication operator by a polynomial or a scalar."""
        return cls.from_terms(ring, geom_vars, {(0,) * len(geom_vars): coeff})

    @classmethod
    def d(cls, ring, geom_vars, var):
        """The first partial d_var."""
        if var not in geom_vars:
            raise DeclarationError(f"bad geometric variable {var!r}")
        return cls.from_terms(ring, geom_vars,
                              {tuple(int(v == var) for v in geom_vars): 1})

    def _lift(self, other):
        if isinstance(other, DiffOp):
            if self.ring != other.ring or self.geom_vars != other.geom_vars:
                raise DeclarationError("operators declared over different variables")
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = self.ring.const(other)
        elif not isinstance(other, LaurentPoly):
            return None
        elif other.ring != self.ring:
            raise DeclarationError("coefficient declared over another ring")
        # self's geom_vars are already checked; a zero has no term
        return DiffOp(self.ring, self.geom_vars,
                      {} if other.is_zero else {(0,) * len(self.geom_vars): other})

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for alpha, coeff in other.terms.items():
            _accumulate(out, alpha, coeff)
        return DiffOp(self.ring, self.geom_vars, out)

    __radd__ = __add__

    def __neg__(self):
        return DiffOp(self.ring, self.geom_vars, {a: -c for a, c in self.terms.items()})

    def _hits(self, other):
        """self o other minus its product terms f_alpha g_beta d^(alpha+beta):
        the terms in which some partial of self lands on a coefficient of
        other, as a dict beta -> coefficient.

        d^p o other is carried as rest_p + (other shifted by p), where
        rest_p holds the terms a partial has already hit.  The next partial
        d_v gives rest_(p+e_v) = d_v o rest_p + sum_beta (d_v g_beta)
        d^(beta+p), and the shifted part moves on to p + e_v unchanged.
        rest_0 is empty, so the alpha = 0 terms of self are skipped, and
        each rest_p is kept for every alpha of self that passes through p.
        Repeating the rule sums the Leibniz binomials, so none is formed.
        The d_v g_beta are read from other's ``_dgs``, built on first use,
        and since rest_0 is empty, rest_(e_v) is the table for v itself:
        ``_carry`` runs only from the second partial on.
        """
        gv = self.geom_vars
        zero = (0,) * len(gv)
        rests = {zero: {}}
        dgs = other._dgs
        if dgs is None:
            dgs = other._dgs = {}
        out = {}
        for alpha, f in self.terms.items():
            p = zero
            for k, n in enumerate(alpha):
                for _ in range(n):
                    prev, p = p, p[:k] + (p[k] + 1,) + p[k + 1:]
                    if p in rests:
                        continue
                    var = gv[k]
                    dg = dgs.get(var)
                    if dg is None:
                        dg = dgs[var] = {beta: h for beta, g in other.terms.items()
                                         if not (h := g.diff(var)).is_zero}
                    rests[p] = (dg if prev is zero
                                else _carry(rests[prev], prev, k, var, dg))
            for beta, h in rests[p].items():
                _accumulate(out, beta, f * h)
        return out

    def __mul__(self, other):
        """Operator composition self o other, normal ordered: ``_hits``
        plus the product terms f_alpha g_beta d^(alpha+beta)."""
        other = self._lift(other)
        if other is None:
            return NotImplemented
        out = self._hits(other)
        for alpha, f in self.terms.items():
            for beta, g in other.terms.items():
                _accumulate(out, tuple(map(add, alpha, beta)), f * g)
        return DiffOp(self.ring, self.geom_vars, out)

    def __rmul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other * self

    def commutator(self, other):
        """[self, other] = self o other - other o self.

        The product terms f_alpha g_beta d^(alpha+beta) of the two
        compositions are equal, because coefficients commute, so they
        cancel exactly and are never built: the bracket is
        ``self._hits(other) - other._hits(self)``.  ``other`` is lifted as
        for ``*``.
        """
        lifted = self._lift(other)
        if lifted is None:
            raise TypeError(f"cannot take the commutator of a DiffOp with "
                            f"{type(other).__name__}")
        out = self._hits(lifted)
        for beta, h in lifted._hits(self).items():
            _accumulate(out, beta, -h)
        return DiffOp(self.ring, self.geom_vars, out)

    @property
    def is_zero(self):
        return not self.terms

    # -- actions -----------------------------------------------------------

    def apply_poly(self, f):
        """Exact image of a LaurentPoly."""
        out = self.ring.zero()
        for alpha, coeff in self.terms.items():
            df = f
            for var, k in zip(self.geom_vars, alpha):
                for _ in range(k):
                    df = df.diff(var)
            out = out + coeff * df
        return out

    def substitute(self, coeff_images, deriv_images):
        """Change of variables.

        ``coeff_images`` maps old variable names to LaurentPoly images in
        the target ring, as for ``LaurentPoly.substitute``;
        ``deriv_images`` maps old geometric variables to first-order DiffOps
        in the target ring (the chain-rule images of the partials).  Coefficients are substituted,
        then composed with the mapped derivative monomials.
        """
        some = _some_image(deriv_images)
        tgt_ring, tgt_geom = some.ring, some.geom_vars
        out = DiffOp.zero(tgt_ring, tgt_geom)
        for alpha, coeff in self.terms.items():
            term = DiffOp.mult(tgt_ring, tgt_geom, coeff.substitute(coeff_images))
            for var, k in zip(self.geom_vars, alpha):
                for _ in range(k):
                    term = term * deriv_images[var]
            out = out + term
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for alpha in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[alpha]
            dsym = []
            for var, k in zip(self.geom_vars, alpha):
                if k == 1:
                    dsym.append(f"D{var}")
                elif k > 1:
                    dsym.append(f"D{var}**{k}")
            cs = str(coeff)
            if len(coeff.num) > 1:
                cs = f"({cs})"
            bits.append("*".join([cs] + dsym) if dsym else cs)
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = __str__


# ---------------------------------------------------------------------------
# phase-space Poisson bracket
# ---------------------------------------------------------------------------

# PhasePoly is a LaurentPoly over a phase-space ring; the bracket only
# needs to know which variables are coordinates and which are momenta.
PHASE_COORDS = ("x", "y")
PHASE_MOMENTA = ("px", "py")
PHASE_PARAMS = ("beta", "a")


PHASE_RING = Ring(PHASE_COORDS + PHASE_MOMENTA + PHASE_PARAMS,
                  laurent=("y",) + PHASE_PARAMS, params=PHASE_PARAMS)


def poisson_bracket(F, G):
    """{F, G} = sum_r dF/dq_r dG/dp_r - dF/dp_r dG/dq_r, exactly."""
    out = F.ring.zero()
    for q, p in zip(PHASE_COORDS, PHASE_MOMENTA):
        out = out + F.diff(q) * G.diff(p) - F.diff(p) * G.diff(q)
    return out
