"""Coefficient arithmetic for the two supported modes.

Mode ``"exact"`` works over the Gaussian rationals Q(i): coefficients
are :class:`GaussianRational` instances, reduced integer triples, and
every comparison is exact.
Mode ``"float"`` uses the builtin ``complex`` type and toleranced
comparisons.  An object never changes mode after construction; mixing
modes raises :class:`~fockboundary.errors.ModeMixError`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from numbers import Rational

from .errors import ModeMixError

EXACT = "exact"
FLOAT = "float"

MODES = (EXACT, FLOAT)


def check_mode(mode):
    if mode not in MODES:
        raise ValueError("unknown mode %r, expected 'exact' or 'float'" % (mode,))
    return mode


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


def one(mode):
    return _ONE if mode == EXACT else complex(1.0)


def zero(mode):
    return _ZERO if mode == EXACT else complex(0.0)


def coerce_scalar(value, mode):
    """Bring ``value`` into the coefficient domain of ``mode``."""
    if mode == EXACT:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, Rational):
            return GaussianRational(value)
        if isinstance(value, complex):
            raise ModeMixError("float coefficient %r in exact mode" % (value,))
        raise TypeError("cannot coerce %r to an exact coefficient" % (value,))
    if isinstance(value, GaussianRational):
        return complex(value)
    if isinstance(value, Rational):
        return complex(float(value))
    return complex(value)


def conj(value):
    return value.conjugate()


def is_zero_scalar(value, mode, tol=1e-12):
    if mode == EXACT:
        return not bool(value)
    return abs(value) <= tol


def scalars_equal(a, b, mode, tol=1e-12):
    if mode == EXACT:
        return a == b
    return abs(a - b) <= tol


def to_complex(value):
    return complex(value)


def scalar_to_json(value, mode):
    if mode == EXACT:
        v = coerce_scalar(value, EXACT)
        return {"re": str(v.re), "im": str(v.im)}
    c = complex(value)
    return {"re": c.real, "im": c.imag}


def scalar_from_json(obj, mode):
    if mode == EXACT:
        return GaussianRational(Fraction(str(obj["re"])), Fraction(str(obj["im"])))
    return complex(float(obj["re"]), float(obj["im"]))
