"""Coefficient arithmetic: the two coefficient fields.

``EXACT`` works over the Gaussian rationals Q(i): coefficients are
:class:`GaussianRational` instances, reduced integer triples, and every
comparison is exact.
``FLOAT`` uses the builtin ``complex`` type and toleranced comparisons.

An object's ``mode`` is one of these two :class:`Field` objects, and
every layer asks it for its zero, one, coercions, tests and JSON.  A
field is the string of its name, "exact" or "float".  An object never
changes field after construction; mixing fields raises
:class:`~fockboundary.errors.ModeMixError`.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import fsum, gcd, inf, lcm
from numbers import Rational
from operator import not_
from sys import float_info

from .errors import ModeMixError, TermBudgetError

DEFAULT_TERM_CAP = 200000

_set = object.__setattr__


class Frozen:
    """Base of the immutable value classes.

    A subclass names its fields in ``__slots__``; ``Frozen.__init__``
    fills them, positionally in slot order or by name, and after that
    no field can be set or deleted.  ``_fill`` fills them positionally
    with no checks, for the trusted constructors.  ``copy``,
    ``deepcopy`` and ``pickle`` restore the fields through
    ``__setstate__``.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        slots = self.__slots__
        if named or len(values) != len(slots):
            named.update(zip(slots, values))
            if len(values) > len(slots) or named.keys() != set(slots):
                raise TypeError("%s takes the fields %s"
                                % (type(self).__name__, ", ".join(slots)))
            values = [named[name] for name in slots]
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def __setstate__(self, state):
        # pickle's slot state is (None, {slot name: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


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
    immutable, so an operation may return an operand itself.
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
        if not self._b:
            return self
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


def _reduce_sums(sums):
    """Reduce, in place, the unreduced running sums of the exact loops."""
    for s in sums.values():
        den = s._den
        if den != 1:
            g = gcd(s._a, s._b, den)
            if g != 1:
                s._a //= g
                s._b //= g
                s._den = den // g
    return sums


# ---------------------------------------------------------------------------
# the coefficient fields


class Field(str):
    """A coefficient field.  A field is the string of its name, so it
    compares, hashes and serializes as "exact" or "float".

    Members: the constants ``zero``, ``one`` and ``real_one``;
    ``real(v)`` for weights and their ratios; ``coerce(v)`` into the
    coefficients; ``is_zero(v)``, the zero test of ``accumulate``;
    ``near_zero(v, tol)``, ``eq(a, b, tol)`` and ``same_entries(a, b,
    tol)`` on dicts whose stored values are never zero;
    ``identity_limit(weights, tol)``, up to which the harmonicity test
    settles an entry by identity; ``rational(v)`` for a real coefficient;
    ``to_json``/``from_json``; and ``random_coeff(rng)``.

    The five kernels: ``sum_products(triples, what)``, ``accumulate``
    over the products of ``(key, x, y)`` triples, fused;
    ``compose_sum(left, right)``, the sparse product of ``compose``;
    ``moved_products(entries)``, the products of moved values with one,
    all three arithmetic alone, on keys they do not read; and two walks
    over ``sum_products`` in ``Field``, each fused into one loop by the
    exact field: ``step_sums(entries, table, bits)``, the Markov step's
    sums, which reads each word code's first letter, and
    ``substitution_sums(terms, rows, key)``, the generator
    substitution's sums, which reads the terms' words.

    Stored values may be shared: one value object can sit at many keys
    and in many dicts.  So a kernel changes no value it was given, and
    mutates only the running sums it allocates itself.
    """

    __slots__ = ()

    def __reduce__(self):
        # the module-level name of the instance, so copy and pickle
        # return the instance itself
        return self.upper()

    def eq(self, a, b, tol=1e-12):
        return self.near_zero(a - b, tol)

    def identity_limit(self, weights, tol=1e-12):
        """The largest |v| at which the harmonicity defect sum_a w_a v - v
        of an entry v held at all d successors is known to be within
        ``tol`` with no sum, or None for none: inf when the weights sum to
        exactly one, as the defect is then zero."""
        return inf if sum(map(Fraction, weights)) == 1 else None

    def step_sums(self, entries, table, bits):
        """The sums of the Markov steps: each word-code entry (r, c)
        whose words both have a first letter, of digits j and k (``bits``
        bits a letter), gives ``sum_products`` the triple
        ((r >> bits, c >> bits), table[j][k], value), in entry order; a
        None cell of the table is zero, and gives none.  The triples are
        a list: a generator's resumes made the step 10-20% slower."""
        mask = (1 << bits) - 1
        return self.sum_products(
            [((r >> bits, c >> bits), t, y) for (r, c), y in entries.items()
             if r > mask and c > mask and (t := table[r & mask][c & mask]) is not None],
            None)

    def substitution_sums(self, terms, rows, key):
        """The sums of the generator substitution r_i -> r_{U e_i}: each
        term (I, J) -> coeff gives ``sum_products`` the triples
        (key((K, L)), coeff * u_I,K, conj(u_J,L)) over the words K and L
        of the lengths of I and J, K before L, in term order, under the
        "substitution" term budget.  Row i of ``rows`` holds the pairs
        (j, u_ij) of U's nonzero entries, and u_I,K is the product of
        u_{I_s K_s}; a word's image {K: u_I,K} is built from the image
        of its longest prefix already built in this call."""
        images = {(): {(): self.one}}

        def image(word):
            n = len(word)
            while word[:n] not in images:
                n -= 1
            for k in range(n, len(word)):
                images[word[:k + 1]] = {K + (j,): c * u for K, c in images[word[:k]].items()
                                        for j, u in rows[word[k] - 1]}
            return images[word]

        def triples():
            for (I, J), coeff in terms.items():
                left = [(K, coeff * c) for K, c in image(I).items()]
                right = [(L, c.conjugate()) for L, c in image(J).items()]
                for K, a in left:
                    for L, b in right:
                        yield key((K, L)), a, b

        return self.sum_products(triples(), "substitution")


class _Exact(Field):
    """Q(i); every test is exact."""

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

    def sum_products(self, triples, what):
        """``accumulate`` over the pairs (key, x * y) of (key, x, y)
        triples, with the products fused into the sum: the same dict, in
        the same key order, and the same term budget.  Each running sum
        is a GaussianRational of its own that holds an unreduced triple
        and is updated in place, so a product costs one dict lookup; the
        sums are reduced, in place, before anyone else sees them."""
        cap = term_cap() if what else None
        sums = {}
        get = sums.get
        for key, x, y in triples:
            a1 = x._a
            b1 = x._b
            a2 = y._a
            b2 = y._b
            if not b1:
                a = a1 * a2
                b = a1 * b2
            elif not b2:
                a = a1 * a2
                b = b1 * a2
            else:
                a = a1 * a2 - b1 * b2
                b = a1 * b2 + b1 * a2
            den = x._den * y._den
            s = get(key)
            if s is None:
                if not (a or b):
                    continue
                s = sums[key] = _new(GaussianRational)
                s._a = a
                s._b = b
                s._den = den
                if cap and len(sums) > cap:
                    raise _over_budget(what, cap)
                continue
            sden = s._den
            if sden == den:
                a += s._a
                b += s._b
            else:
                # over lcm(sden, den) = sden / g * den
                g = gcd(sden, den)
                m = den // g
                n = sden // g
                a = s._a * m + a * n
                b = s._b * m + b * n
                den = sden * m
            # den > 0, so the sum is zero exactly when a == b == 0
            if a or b:
                s._a = a
                s._b = b
                s._den = den
            else:
                del sums[key]
        return _reduce_sums(sums)

    def step_sums(self, entries, table, bits):
        """``Field.step_sums`` in one loop over the table times D, the
        lcm of its cells' denominators: a product keeps its entry's
        denominator, so the entries that share one sum with no gcd, and D
        multiplies each sum's denominator once, before the one reduction.
        Each running sum is D times the walk's: the same keys cancel."""
        D = lcm(*(t._den for row in table for t in row if t is not None))
        scaled = [[None if t is None else (t._a * (D // t._den), t._b * (D // t._den))
                   for t in row] for row in table]
        mask = (1 << bits) - 1
        sums = {}
        get = sums.get
        for (r, c), y in entries.items():
            if r <= mask or c <= mask:
                continue
            t = scaled[r & mask][c & mask]
            if t is None:
                continue
            a1, b1 = t
            a2, b2, den = y._a, y._b, y._den
            if b1:
                a = a1 * a2 - b1 * b2
                b = a1 * b2 + b1 * a2
            else:
                a = a1 * a2
                b = a1 * b2
            key = (r >> bits, c >> bits)
            s = get(key)
            if s is None:
                if a or b:
                    s = sums[key] = _new(GaussianRational)
                    s._a = a
                    s._b = b
                    s._den = den
                continue
            sden = s._den
            if sden == den:
                a += s._a
                b += s._b
            else:
                g = gcd(sden, den)
                m, n = den // g, sden // g
                a = s._a * m + a * n
                b = s._b * m + b * n
                den = sden * m
            if a or b:
                s._a = a
                s._b = b
                s._den = den
            else:
                del sums[key]
        if D != 1:
            for s in sums.values():
                s._den *= D
        return _reduce_sums(sums)

    def substitution_sums(self, terms, rows, key):
        """``Field.substitution_sums`` in one loop over U times Q, the lcm
        of its entries' denominators.  The image of a word I is a list of
        (K, a, b), where a + b i is the Gaussian integer Q^|I| u_I,K,
        built from the longest built prefix with no gcd.  A term (I, J)
        -> c adds c (a_K + b_K i) conj(a_L + b_L i) to the running sum at
        key((K, L)) over den(c) Q^(|I| + |J|), updated in place, and the
        sums are reduced once.  Each product is the walk's times a
        positive integer, so the same keys cancel."""
        Q = lcm(*(u._den for row in rows for _, u in row))
        scaled = [[(j, u._a * (Q // u._den), u._b * (Q // u._den)) for j, u in row]
                  for row in rows]
        images = {(): [((), 1, 0)]}

        def image(word):
            n = len(word)
            while word[:n] not in images:
                n -= 1
            got = images[word[:n]]
            for k in range(n, len(word)):
                got = images[word[:k + 1]] = [
                    (K + (j,), a * ua - b * ub, a * ub + b * ua)
                    for K, a, b in got for j, ua, ub in scaled[word[k] - 1]]
            return got

        cap = term_cap()
        sums = {}
        setdefault = sums.setdefault
        fresh = _new(GaussianRational)
        for (I, J), c in terms.items():
            left = image(I)
            right = image(J)
            ca = c._a
            cb = c._b
            if cb:
                left = [(K, ca * a - cb * b, ca * b + cb * a) for K, a, b in left]
            elif ca != 1:
                left = [(K, ca * a, ca * b) for K, a, b in left]
            den = c._den * Q ** (len(I) + len(J))
            for K, a1, b1 in left:
                for L, a2, b2 in right:
                    # (a1 + b1 i)(a2 - b2 i)
                    if b2:
                        a = a1 * a2 + b1 * b2
                        b = b1 * a2 - a1 * b2
                    else:
                        a = a1 * a2
                        b = b1 * a2
                    # one lookup: a new key takes the spare sum ``fresh``
                    k = key((K, L))
                    s = setdefault(k, fresh)
                    if s is fresh:
                        if a or b:
                            s._a = a
                            s._b = b
                            s._den = den
                            fresh = _new(GaussianRational)
                            if len(sums) > cap:
                                raise _over_budget("substitution", cap)
                        else:
                            del sums[k]
                        continue
                    sden = s._den
                    if sden == den:
                        a += s._a
                        b += s._b
                        d = den
                    else:
                        g = gcd(sden, den)
                        m, n = den // g, sden // g
                        a = s._a * m + a * n
                        b = s._b * m + b * n
                        d = sden * m
                    if a or b:
                        s._a = a
                        s._b = b
                        s._den = d
                    else:
                        del sums[k]
        return _reduce_sums(sums)

    def compose_sum(self, left, rows):
        """The sparse product of a dict of word-code entries and a
        matrix given by rows: each product x * y of an entry (row, mid)
        of ``left`` and a pair (col, y) of ``rows[mid]`` summed into the
        key (row, col), left's entries and then each row in order, as
        ``sum_products`` sums the triples: the same dict, in the same
        key order.

        Each product is computed once per distinct pair of value objects,
        reduced, and shared: a key that gets one product stores that
        object.  A key that gets a second product gets a running sum of
        its own, an unreduced ``[a, b, den]`` list, reduced at the end.
        No value object is changed."""
        memo = {}  # id(x) -> {id(y): x * y}
        held = []  # each x and y in the memo, so that no id is reused
        sums = {}
        get = sums.get
        for (row, mid), x in left.items():
            cols = rows.get(mid)
            if not cols:
                continue
            products = memo.get(id(x))
            if products is None:
                products = memo[id(x)] = {}
                held.append(x)
            for col, y in cols:
                p = products.get(id(y))
                if p is None:
                    # x * y, as GaussianRational.__mul__ gives it
                    xa = x._a
                    xb = x._b
                    ya = y._a
                    yb = y._b
                    p = products[id(y)] = _reduced(xa * ya - xb * yb, xa * yb + xb * ya,
                                                   x._den * y._den)
                    held.append(y)
                key = (row, col)
                s = get(key)
                if s is None:
                    if p._a or p._b:
                        sums[key] = p
                    continue
                a = p._a
                b = p._b
                den = p._den
                if s.__class__ is list:
                    sa, sb, sden = s
                else:
                    sa = s._a
                    sb = s._b
                    sden = s._den
                    s = sums[key] = [0, 0, 1]
                if sden == den:
                    a += sa
                    b += sb
                else:
                    # over lcm(sden, den) = sden / g * den
                    g = gcd(sden, den)
                    m = den // g
                    n = sden // g
                    a = sa * m + a * n
                    b = sb * m + b * n
                    den = sden * m
                # den > 0, so the sum is zero exactly when a == b == 0
                if a or b:
                    s[0] = a
                    s[1] = b
                    s[2] = den
                else:
                    del sums[key]
        for key, s in sums.items():
            if s.__class__ is list:
                sums[key] = _reduced(*s)
        return sums

    def moved_products(self, entries):
        """The products of the moved values in ``entries`` with a factor
        equal to one: the entries themselves, with no arithmetic."""
        return entries


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

    def identity_limit(self, weights, tol=1e-12):
        """``Field.identity_limit``, and where the weights do not sum to
        exactly one, a bound from the rounding of the sum that it skips.

        The walk sums -v + w_1 v + .. + w_d v left to right; each part of
        each product is rounded once, and each addition once.  With
        u = 2**-53, gamma_n = n u / (1 - n u) and S = w_1 + .. + w_d,
        each part of the rounded sum lies within |S - 1| |p| + gamma_{d+1}
        (1 + |w_1| + .. + |w_d|) |p| of zero, p being v's part (Higham,
        Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
        sections 3.1 and 4.2).  So |sum| <= K |v|, with gamma_{d+2} in K:
        the one more unit covers the rounding of ``abs``.  An entry with
        |v| <= tol / (2 K) sums to within ``tol``; the 2 covers the
        rounding of K, of S - 1 (``fsum`` rounds it once) and of |v|.  A
        ``tol`` below the least normal float settles nothing, as a
        subnormal product rounds by an absolute step; the limit is
        finite, so neither inf nor nan is settled."""
        limit = super().identity_limit(weights, tol)
        if limit is not None:
            return limit
        weights = [float(w) for w in weights]
        n = len(weights) + 2
        k = abs(fsum(weights + [-1.0])) + n / (2 ** 53 - n) * (1 + fsum(map(abs, weights)))
        if tol >= float_info.min:
            return min(tol / (2 * k), float_info.max)
        return None

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

    def sum_products(self, triples, what):
        """``_Exact.sum_products`` in FLOAT: ``accumulate``'s loop over
        the products, written out, with its 1e-12 drop and term budget."""
        cap = term_cap() if what else None
        terms = {}
        get = terms.get
        for key, x, y in triples:
            value = x * y
            s = get(key)
            if s is None:
                if abs(value) <= 1e-12:
                    continue
                terms[key] = value
                if cap and len(terms) > cap:
                    raise _over_budget(what, cap)
            else:
                value = s + value
                if abs(value) <= 1e-12:
                    del terms[key]
                else:
                    terms[key] = value
        return terms

    def compose_sum(self, left, rows):
        """``_Exact.compose_sum`` in FLOAT: ``accumulate`` over the
        products, with no memo."""
        return accumulate((((row, col), x * y) for (row, mid), x in left.items()
                           for col, y in rows.get(mid, ())), self)

    def moved_products(self, entries):
        """Each moved value in ``entries`` times one, dropped within 1e-12
        as ``sum_products`` drops it, so that the factor one still sets
        the sign of a zero part (one * v and v * one agree bit for bit)."""
        one = self.one
        return {key: p for key, v in entries.items() if not abs(p := v * one) <= 1e-12}


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


def _over_budget(what, cap):
    return TermBudgetError("%s exceeded the term budget (%d)" % (what, cap))


def accumulate(pairs, mode, what=None, into=None):
    """Sum (key, value) pairs into a dict, cancelling as it goes: a key
    whose running sum is zero in the field ``mode`` (exactly, or within
    1e-12 in FLOAT) is dropped, and comes back if a later pair brings it
    back.  With a label ``what`` the dict is held to ``term_cap()``
    keys, and TermBudgetError names ``what``.  With a dict ``into`` the
    pairs are summed into that dict in place."""
    is_zero = mode.is_zero
    cap = term_cap() if what else None
    terms = {} if into is None else into
    get = terms.get
    for key, value in pairs:
        s = get(key)
        if s is None:
            if is_zero(value):
                continue
            terms[key] = value
            if cap and len(terms) > cap:
                raise _over_budget(what, cap)
        else:
            value = s + value
            if is_zero(value):
                del terms[key]
            else:
                terms[key] = value
    return terms


def subtract(a, b, mode):
    """The dict ``a - b``: for finite values, ``accumulate`` over a's
    items and b's negated items, in the same key order.  Equal dicts give
    {} from one comparison, and equal values cancel with no arithmetic."""
    if a == b:
        return {}
    is_zero = mode.is_zero
    terms = {k: v for k, v in a.items() if not is_zero(v)}
    get = terms.get
    for key, v in b.items():
        s = get(key)
        if s is None:
            if not is_zero(v):
                terms[key] = -v
        # an IEEE s - v is s + (-v), so float sums do not move either
        elif s == v or is_zero(s := s - v):
            del terms[key]
        else:
            terms[key] = s
    return terms
