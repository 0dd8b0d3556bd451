"""Coefficient arithmetic: the two coefficient fields.

``EXACT`` works over the Gaussian rationals Q(i): coefficients are
:class:`GaussianRational` instances, reduced integer triples, and every
comparison is exact.  The square roots that the modular data brings in
are :class:`Surd` values.
``FLOAT`` uses the builtin ``complex`` type and toleranced comparisons.

An object's ``mode`` is one of these two :class:`Field` objects, and
every layer asks it for its zero, one, coercions, tests and JSON.  A
field is the string of its name, "exact" or "float".  An object never
changes field after construction; mixing fields raises
:class:`~fockboundary.errors.ModeMixError`.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from math import gcd
from numbers import Rational
from operator import not_

from .errors import ModeMixError, TermBudgetError

DEFAULT_TERM_CAP = 200000


def common_mode(a, b):
    if a != b:
        raise ModeMixError("cannot combine mode %r with mode %r" % (a, b))
    return a


def _ratio(value):
    """``(numerator, denominator)`` of an int or of anything ``Fraction``
    accepts, in lowest terms with a positive denominator."""
    if type(value) is int:
        return value, 1
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator, value.denominator


def _triple(value):
    """The ``(a, b, den)`` triple of an exact operand, or None."""
    if type(value) is int:
        return value, 0, 1
    if isinstance(value, GaussianRational):
        return value._a, value._b, value._den
    if isinstance(value, Rational):
        p, q = _ratio(value)
        return p, 0, q
    return None


_new = object.__new__


def _make(a, b, den):
    """A GaussianRational from a triple already in lowest terms."""
    g = _new(GaussianRational)
    g._a = a
    g._b = b
    g._den = den
    return g


def _reduced(a, b, den):
    """A GaussianRational from a triple with ``den > 0``."""
    g = gcd(a, b, den)
    if g != 1:
        a //= g
        b //= g
        den //= g
    return _make(a, b, den)


def _add(a1, b1, d1, a2, b2, d2):
    if d1 == d2:
        if d1 == 1:
            return _make(a1 + a2, b1 + b2, 1)
        return _reduced(a1 + a2, b1 + b2, d1)
    return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def _div(a1, b1, d1, a2, b2, d2):
    n = a2 * a2 + b2 * b2
    if n == 0:
        raise ZeroDivisionError("division by zero Gaussian rational")
    # (a1 + b1 i) / d1 * d2 (a2 - b2 i) / n
    return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, d1 * n)


class GaussianRational:
    """A Gaussian rational ``(a + b*i) / den`` held as three ints in
    lowest terms: ``den > 0`` and ``gcd(a, b, den) == 1``.

    The form is canonical, so equality compares the three fields.
    ``re`` and ``im`` return the parts as Fractions.  Values are
    immutable: every operation returns a new instance.
    """

    __slots__ = ("_a", "_b", "_den")

    def __new__(cls, re=0, im=0):
        p, q = _ratio(re)
        r, s = _ratio(im)
        if r == 0 or q == s:
            # p/q and r/q are in lowest terms, so gcd(p, r, q) == 1
            return _make(p, r, q)
        # over the lcm of the denominators the triple is already reduced
        den = q // gcd(q, s) * s
        return _make(p * (den // q), r * (den // s), den)

    @property
    def re(self):
        return Fraction(self._a, self._den)

    @property
    def im(self):
        return Fraction(self._b, self._den)

    def __add__(self, other):
        if other.__class__ is GaussianRational:
            if not (self._a or self._b):
                return other
            if not (other._a or other._b):
                return self
            return _add(self._a, self._b, self._den, other._a, other._b, other._den)
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _add(self._a, self._b, self._den, *o)

    __radd__ = __add__

    def __sub__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _add(self._a, self._b, self._den, -o[0], -o[1], o[2])

    def __rsub__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _add(o[0], o[1], o[2], -self._a, -self._b, self._den)

    def __mul__(self, other):
        if other.__class__ is GaussianRational:
            a2, b2, d2 = other._a, other._b, other._den
        else:
            o = _triple(other)
            if o is None:
                return NotImplemented
            a2, b2, d2 = o
        a1, b1, d1 = self._a, self._b, self._den
        a = a1 * a2 - b1 * b2
        b = a1 * b2 + b1 * a2
        den = d1 * d2
        if den == 1:
            return _make(a, b, 1)
        return _reduced(a, b, den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _div(self._a, self._b, self._den, *o)

    def __rtruediv__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _div(*o, self._a, self._b, self._den)

    def __neg__(self):
        return _make(-self._a, -self._b, self._den)

    def conjugate(self):
        return _make(self._a, -self._b, self._den)

    def __eq__(self, other):
        if other.__class__ is GaussianRational:
            return (self._a == other._a and self._b == other._b
                    and self._den == other._den)
        o = _triple(other)
        if o is None:
            return NotImplemented
        return self._a == o[0] and self._b == o[1] and self._den == o[2]

    def __hash__(self):
        # equal to hash(Fraction) (and so hash(int)) for real values
        if self._b == 0:
            return hash(self._a) if self._den == 1 else hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self._a or self._b)

    def __complex__(self):
        # int true division rounds correctly, as float(Fraction) does
        return complex(self._a / self._den, self._b / self._den)

    def __abs__(self):
        return abs(complex(self))

    def __repr__(self):
        if self._b == 0:
            return "GaussianRational(%s)" % (self.re,)
        return "GaussianRational(%s, %s)" % (self.re, self.im)


_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


# ---------------------------------------------------------------------------
# quadratic surds: value = coeff * sqrt(radicand), radicand > 0 rational


def _rational_sqrt(q):
    """Exact square root of a positive Fraction, or None."""
    if q <= 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


class Surd:
    """An exact value coeff * sqrt(radicand) with Gaussian-rational
    coeff and positive rational radicand: the exact field's square
    roots.  Perfect-square radicands are folded into the coefficient
    on construction."""

    __slots__ = ("coeff", "radicand")

    def __init__(self, coeff, radicand=1):
        coeff = EXACT.coerce(coeff)
        radicand = Fraction(radicand)
        if radicand <= 0:
            raise ValueError("radicand must be positive")
        root = _rational_sqrt(radicand)
        if root is not None:
            coeff = coeff * root
            radicand = Fraction(1)
        if not coeff:
            radicand = Fraction(1)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", radicand)

    def __setattr__(self, name, value):
        raise AttributeError("Surd is immutable")

    def __bool__(self):
        return bool(self.coeff)

    def conjugate(self):
        return Surd(self.coeff.conjugate(), self.radicand)

    def __mul__(self, other):
        if isinstance(other, Surd):
            return Surd(self.coeff * other.coeff, self.radicand * other.radicand)
        return Surd(self.coeff * EXACT.coerce(other), self.radicand)

    __rmul__ = __mul__

    def __neg__(self):
        return Surd(-self.coeff, self.radicand)

    def __eq__(self, other):
        if not isinstance(other, Surd):
            other = Surd(other)
        if not self and not other:
            return True
        if not self or not other:
            return False
        ratio = _rational_sqrt(other.radicand / self.radicand)
        if ratio is None:
            return False
        return self.coeff == other.coeff * ratio

    def __hash__(self):
        return hash((self.coeff, self.radicand))

    def __complex__(self):
        return complex(self.coeff) * math.sqrt(self.radicand)

    def __repr__(self):
        if self.radicand == 1:
            return "Surd(%r)" % (self.coeff,)
        return "Surd(%r, sqrt %s)" % (self.coeff, self.radicand)


# ---------------------------------------------------------------------------
# the coefficient fields


class Field(str):
    """A coefficient field.  A field is the string of its name, so it
    compares, hashes and serializes as "exact" or "float".

    Members: the constants ``zero``, ``one`` and ``real_one``;
    ``real(v)`` for weights and their ratios; ``coerce(v)`` into the
    coefficients; ``is_zero(v)``, the zero test of ``accumulate``;
    ``near_zero(v, tol)``, ``eq(a, b, tol)`` and ``same_entries(a, b,
    tol)`` on dicts whose stored values are never zero; ``rational(v)``
    for a real coefficient; ``to_json``/``from_json``;
    ``random_coeff(rng)``; and, for the modular data, ``sqrt(q)``,
    ``ratio_power(q, p)`` and ``gns_value(c)``.
    """

    __slots__ = ()

    def __reduce__(self):
        # the module-level name of the instance, so copy and pickle
        # return the instance itself
        return self.upper()

    def eq(self, a, b, tol=1e-12):
        return self.near_zero(a - b, tol)


class _Exact(Field):
    """Q(i), with :class:`Surd` square roots; every test is exact."""

    __slots__ = ()
    zero = _ZERO
    one = _ONE
    real_one = Fraction(1)
    # a builtin, so the exact accumulate loop gains no Python frame
    is_zero = not_

    def real(self, value):
        return Fraction(value)

    def coerce(self, value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, Rational):
            return GaussianRational(value)
        if isinstance(value, complex):
            raise ModeMixError("float coefficient %r in exact mode" % (value,))
        raise TypeError("cannot coerce %r to an exact coefficient" % (value,))

    def near_zero(self, value, tol=1e-12):
        return not value

    def same_entries(self, a, b, tol=1e-12):
        # no stored value is zero, so a key missing on one side differs
        return a == b

    def rational(self, value):
        if value.im:
            raise ValueError("coefficient %r is not real" % (value,))
        return value.re

    def to_json(self, value):
        value = self.coerce(value)
        return {"re": str(value.re), "im": str(value.im)}

    def from_json(self, obj):
        return GaussianRational(Fraction(str(obj["re"])), Fraction(str(obj["im"])))

    def random_coeff(self, rng):
        """A Gaussian integer with parts in -3..3."""
        return GaussianRational(
            Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4)))

    def sqrt(self, q):
        return Surd(1, q)

    def ratio_power(self, q, p):
        """q ** p for a positive rational q and an integer or
        half-integer power p."""
        if p.denominator == 1:
            return Surd(q ** p)
        if p.denominator == 2:
            return Surd(q ** (p.numerator // 2), q)
        raise ValueError(
            "exact mode supports integer and half-integer powers; got %s" % p)

    def gns_value(self, c):
        return c if isinstance(c, Surd) else Surd(c)


class _Float(Field):
    """C as the builtin ``complex``; tests hold within a tolerance,
    1e-12 unless the caller gives one."""

    __slots__ = ()
    zero = complex(0.0)
    one = complex(1.0)
    real_one = 1.0

    @staticmethod
    def is_zero(value):
        return abs(value) <= 1e-12

    def real(self, value):
        return float(value)

    def coerce(self, value):
        if isinstance(value, GaussianRational):
            return complex(value)
        if isinstance(value, Rational):
            return complex(float(value))
        return complex(value)

    def near_zero(self, value, tol=1e-12):
        return abs(value) <= tol

    def same_entries(self, a, b, tol=1e-12):
        z = self.zero
        return all(abs(a.get(k, z) - b.get(k, z)) <= tol for k in a.keys() | b.keys())

    def rational(self, value):
        """The nearest fraction with denominator at most 10**12."""
        if abs(value.imag) > 1e-12:
            raise ValueError("coefficient %r is not real" % (value,))
        return Fraction(value.real).limit_denominator(10 ** 12)

    def to_json(self, value):
        value = complex(value)
        return {"re": value.real, "im": value.imag}

    def from_json(self, obj):
        return complex(float(obj["re"]), float(obj["im"]))

    def random_coeff(self, rng):
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    def sqrt(self, q):
        return math.sqrt(q)

    def ratio_power(self, q, p):
        return float(q) ** float(p)

    def gns_value(self, c):
        return complex(c)


EXACT = _Exact("exact")
FLOAT = _Float("float")

_FIELDS = {EXACT: EXACT, FLOAT: FLOAT}


def field(spec):
    """The field named by ``spec``: "exact", "float" or a field."""
    try:
        return _FIELDS[spec]
    except (KeyError, TypeError):
        raise ValueError(
            "unknown mode %r, expected 'exact' or 'float'" % (spec,)) from None


def term_cap():
    """Symbolic term budget; override with the FOCK_TERM_CAP env var,
    which must be a positive integer."""
    raw = os.environ.get("FOCK_TERM_CAP")
    if not raw:
        return DEFAULT_TERM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ValueError("FOCK_TERM_CAP must be a positive integer, got %r" % raw)
    return cap


def accumulate(pairs, mode, what=None):
    """Sum (key, value) pairs into a dict, cancelling as it goes: a key
    whose running sum is zero in the field ``mode`` (exactly, or within
    1e-12 in FLOAT) is dropped, and comes back if a later pair brings it
    back.  With a label ``what`` the dict is held to ``term_cap()``
    keys, and TermBudgetError names ``what``."""
    is_zero = mode.is_zero
    cap = term_cap() if what else None
    terms = {}
    get = terms.get
    for key, value in pairs:
        s = get(key)
        if s is None:
            if is_zero(value):
                continue
            terms[key] = value
            if cap and len(terms) > cap:
                raise TermBudgetError(
                    "%s exceeded the term budget (%d)" % (what, cap))
        else:
            value = s + value
            if is_zero(value):
                del terms[key]
            else:
                terms[key] = value
    return terms
