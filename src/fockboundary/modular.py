"""Modular data of the vacuum state on the GNS span of monomial
vectors xi(I, J).

The monomial vectors are eigenvectors of the modular operator with
eigenvalue w_I / w_J; the modular conjugation and the S operator act by
the eigen-formulas.  Exact mode carries the square roots that J and
half powers of the modular operator introduce as quadratic surds
(coefficient times sqrt of a positive rational) so that identities like
S = J . Delta^{1/2} are verified with exact cancellation.  Imaginary
powers are carried as symbolic phase bases: a stored base b stands for
the modulus-one factor b^{it}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from . import scalars
from .algebra import CuntzElement, Monomial, contractions
from .errors import SpectrumSizeError
from .fock import same_weights, words_up_to
from .scalars import accumulate

SPECTRUM_PAIR_CAP = 250000


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
    coeff and positive rational radicand.  Perfect-square radicands
    are folded into the coefficient on construction."""

    __slots__ = ("coeff", "radicand")

    def __init__(self, coeff, radicand=1):
        coeff = scalars.coerce_scalar(coeff, scalars.EXACT)
        radicand = Fraction(radicand)
        if radicand <= 0:
            raise ValueError("radicand must be positive")
        root = _rational_sqrt(radicand)
        if root is not None:
            coeff = coeff * root
            radicand = Fraction(1)
        if not bool(coeff):
            radicand = Fraction(1)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", radicand)

    def __setattr__(self, name, value):
        raise AttributeError("Surd is immutable")

    def is_zero(self):
        return not bool(self.coeff)

    def conjugate(self):
        return Surd(self.coeff.conjugate(), self.radicand)

    def __mul__(self, other):
        if isinstance(other, Surd):
            return Surd(self.coeff * other.coeff, self.radicand * other.radicand)
        return Surd(self.coeff * scalars.coerce_scalar(other, scalars.EXACT), self.radicand)

    __rmul__ = __mul__

    def __neg__(self):
        return Surd(-self.coeff, self.radicand)

    def __eq__(self, other):
        if not isinstance(other, Surd):
            other = Surd(other)
        if self.is_zero() and other.is_zero():
            return True
        if self.is_zero() or other.is_zero():
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


def _as_value(c, mode):
    return Surd(c) if mode == scalars.EXACT else complex(c)


def _values_equal(a, b, mode, tol=1e-12):
    if mode == scalars.EXACT:
        if not isinstance(a, Surd):
            a = Surd(a)
        if not isinstance(b, Surd):
            b = Surd(b)
        return a == b
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# GNS vectors


class GnsVector:
    """A combination sum c * xi(I, J) of monomial GNS vectors.

    Exact-mode coefficients may be :class:`Surd` values.  Equality is
    tested coefficientwise on combined like terms; this is the form in
    which the modular eigen-identities hold (each monomial vector is
    treated as a separate eigenvector)."""

    __slots__ = ("terms", "weights")

    def __init__(self, terms, weights):
        mode = weights.mode
        clean = {}
        for mono, coeff in terms.items():
            if not isinstance(coeff, Surd) or mode != scalars.EXACT:
                coeff = _as_value(coeff, mode) if not isinstance(coeff, (Surd, complex)) else coeff
            if mode == scalars.EXACT and not isinstance(coeff, Surd):
                coeff = Surd(coeff)
            if mode == scalars.FLOAT and isinstance(coeff, Surd):
                coeff = complex(coeff)
            zero = coeff.is_zero() if isinstance(coeff, Surd) else abs(coeff) <= 1e-15
            if not zero:
                clean[mono] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "weights", weights)

    def __setattr__(self, name, value):
        raise AttributeError("GnsVector is immutable")

    @classmethod
    def monomial(cls, weights, I, J, coeff=1):
        return cls({Monomial(I, J): coeff}, weights)

    @classmethod
    def from_element(cls, x):
        return cls(dict(x.terms), x.weights)

    def map_terms(self, f):
        """New vector with (mono, coeff) -> (new mono, new coeff)."""
        out = {}
        for mono, coeff in self.terms.items():
            m, c = f(mono, coeff)
            if m in out:
                raise ValueError("term collision in map_terms")
            out[m] = c
        return GnsVector(out, self.weights)

    def ratio(self, mono):
        """w_I / w_J for the given monomial."""
        return self.weights.word_weight(mono.I) / self.weights.word_weight(mono.J)

    def same_terms(self, other, tol=1e-12):
        same_weights(self.weights, other.weights)
        keys = set(self.terms) | set(other.terms)
        mode = self.weights.mode
        zero = Surd(0) if mode == scalars.EXACT else 0j
        return all(
            _values_equal(self.terms.get(k, zero), other.terms.get(k, zero), mode, tol)
            for k in keys
        )

    def __eq__(self, other):
        if not isinstance(other, GnsVector):
            return NotImplemented
        return self.same_terms(other)

    def __repr__(self):
        bits = ", ".join("%r: %r" % (m, c) for m, c in sorted(
            self.terms.items(), key=lambda mc: mc[0].sort_key()))
        return "GnsVector({%s})" % bits


def delta_apply(v, power):
    """Apply the modular operator to the given rational power.

    Monomial vectors are eigenvectors: xi(I,J) scales by
    (w_I/w_J)^power.  Exact mode handles integer and half-integer
    powers exactly (half powers become surds); other denominators are
    accepted only when the exact root is rational."""
    power = Fraction(power)
    mode = v.weights.mode

    def scale(mono, coeff):
        ratio = v.ratio(mono)
        if mode == scalars.FLOAT:
            return mono, coeff * float(ratio) ** float(power)
        if power.denominator == 1:
            return mono, coeff * Surd(ratio ** power)
        if power.denominator == 2:
            whole = power.numerator // 2
            rem = power.numerator - 2 * whole
            factor = Surd(ratio ** whole) * Surd(1, ratio if rem == 1 else 1)
            if rem == -1:
                factor = Surd(ratio ** whole) * Surd(1, 1 / ratio)
            return mono, coeff * factor
        raise ValueError(
            "exact mode supports integer and half-integer powers; got %s" % power
        )

    return v.map_terms(scale)


def modular_conjugation(v):
    """J: c * xi(I,J) -> conj(c) * sqrt(w_J/w_I) * xi(J,I)."""
    mode = v.weights.mode

    def act(mono, coeff):
        inv = 1 / v.ratio(mono)
        if mode == scalars.EXACT:
            return mono.flip(), coeff.conjugate() * Surd(1, inv)
        return mono.flip(), coeff.conjugate() * math.sqrt(inv)

    return v.map_terms(act)


def s_operator(v):
    """S: c * xi(I,J) -> conj(c) * xi(J,I) (the closure of x Omega ->
    x* Omega restricted to the monomial span)."""

    def act(mono, coeff):
        return mono.flip(), coeff.conjugate()

    return v.map_terms(act)


# ---------------------------------------------------------------------------
# the modular flow on elements: symbolic phases


class PhasedElement:
    """A combination sum c * b^{it} * M(I,J) where each term carries a
    positive rational phase base b; bases multiply when terms multiply,
    so the flow at symbolic t stays exact.  The parameter t itself is
    never evaluated in exact mode."""

    __slots__ = ("terms", "weights")

    def __init__(self, terms, weights, _trusted=False):
        mode = weights.mode
        if _trusted:
            clean = terms
        else:
            clean = {}
            for (mono, base), coeff in terms.items():
                base = Fraction(base) if mode == scalars.EXACT else float(base)
                coeff = scalars.coerce_scalar(coeff, mode)
                if not scalars.is_zero_scalar(coeff, mode):
                    clean[(mono, base)] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "weights", weights)

    def __setattr__(self, name, value):
        raise AttributeError("PhasedElement is immutable")

    @classmethod
    def from_element(cls, x):
        w = x.weights
        return cls({(m, Fraction(1) if w.mode == scalars.EXACT else 1.0): c
                    for m, c in x.terms.items()}, w)

    @property
    def mode(self):
        return self.weights.mode

    def __add__(self, other):
        same_weights(self.weights, other.weights)
        terms = accumulate(
            chain(self.terms.items(), other.terms.items()), self.mode)
        return PhasedElement(terms, self.weights, _trusted=True)

    def __neg__(self):
        return PhasedElement(
            {k: -c for k, c in self.terms.items()}, self.weights, _trusted=True
        )

    def __sub__(self, other):
        same_weights(self.weights, other.weights)
        negated = ((k, -c) for k, c in other.terms.items())
        terms = accumulate(chain(self.terms.items(), negated), self.mode)
        return PhasedElement(terms, self.weights, _trusted=True)

    def __mul__(self, other):
        """Product: monomials contract, phase bases multiply."""
        same_weights(self.weights, other.weights)
        pairs = contractions(
            ((m, (b, c)) for (m, b), c in self.terms.items()),
            ((m, (b, c)) for (m, b), c in other.terms.items()),
        )
        terms = accumulate(
            (((m, ba * bb), ca * cb) for m, (ba, ca), (bb, cb) in pairs),
            self.mode, "phased product")
        return PhasedElement(terms, self.weights, _trusted=True)

    def adjoint(self):
        """(c b^{it} M(I,J))* = conj(c) (1/b)^{it} M(J,I)."""
        terms = {}
        for (mono, base), coeff in self.terms.items():
            terms[(mono.flip(), 1 / base)] = scalars.conj(coeff)
        return PhasedElement(terms, self.weights, _trusted=True)

    def normal_form(self):
        """Expansion preserves the phase base (the ratio w_I/w_J of the
        expanded monomial is unchanged), so the plain normal form is
        applied within each base class."""
        by_base = {}
        for (mono, base), coeff in self.terms.items():
            by_base.setdefault(base, {})[mono] = coeff
        pairs = (
            ((mono, base), coeff)
            for base, sub in by_base.items()
            for mono, coeff in CuntzElement(
                sub, self.weights, _trusted=True).normal_form().terms.items()
        )
        return PhasedElement(accumulate(pairs, self.mode), self.weights)

    def same_flow(self, other, tol=1e-12):
        """Equality as functions of t: the functions b^{it} for distinct
        positive bases are linearly independent, so the normal forms
        must agree base by base."""
        diff = (self - other).normal_form()
        return all(
            scalars.is_zero_scalar(c, self.mode, tol) for c in diff.terms.values()
        )

    def vacuum_state_by_base(self):
        """phi extended to phased terms, returned as {base: value}."""
        word_weight = self.weights.word_weight
        return accumulate(
            ((base, coeff * word_weight(J))
             for ((I, J), base), coeff in self.terms.items() if I == J),
            self.mode)

    def __repr__(self):
        bits = ", ".join(
            "%r@%s: %r" % (m, b, c) for (m, b), c in self.terms.items()
        )
        return "PhasedElement({%s})" % bits


def sigma_t(x):
    """The modular flow on an element: each monomial picks up the
    symbolic phase (w_I/w_J)^{it}.  The result is a
    :class:`PhasedElement`; evaluate with ``evaluate_at`` in float mode.
    """
    w = x.weights
    return PhasedElement(
        {(m, w.word_weight(m.I) / w.word_weight(m.J)): c for m, c in x.terms.items()},
        w)


def evaluate_at(phased, t):
    """Evaluate the phases at a concrete real t; float-mode element."""
    if phased.mode != scalars.FLOAT:
        raise ValueError("evaluate_at requires a float-mode session")
    terms = accumulate(
        ((mono, coeff * base ** complex(0, t))
         for (mono, base), coeff in phased.terms.items()),
        scalars.FLOAT)
    return CuntzElement(terms, phased.weights)


def is_centralizer(x, tol=1e-12):
    """Fixed by the whole modular flow iff every normal-form monomial
    has w_I = w_J."""
    nf = x.normal_form()
    w = x.weights
    for mono in nf.terms:
        a = w.word_weight(mono.I)
        b = w.word_weight(mono.J)
        if w.mode == scalars.EXACT:
            if a != b:
                return False
        elif abs(a - b) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# spectrum and Gram data


def spectrum_sample(weights, max_len, pair_cap=SPECTRUM_PAIR_CAP):
    """Finite inner approximation {w_I / w_J : |I|, |J| <= max_len} of
    the modular spectrum, deduplicated and sorted."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    count = sum(weights.d ** n for n in range(max_len + 1))
    if count * count > pair_cap:
        raise SpectrumSizeError(
            "%d word pairs exceed the cap %d" % (count * count, pair_cap)
        )
    values = {weights.word_weight(w) for w in words_up_to(weights.d, max_len)}
    ratios = {a / b for a in values for b in values}
    return sorted(ratios)


def monomial_family(d, max_len):
    """All monomials with |I|, |J| <= max_len, in deterministic order."""
    ws = words_up_to(d, max_len)
    return [Monomial(I, J) for I in ws for J in ws]


def gram_matrix(weights, max_len):
    """Gram matrix of the monomial GNS vectors xi(I,J), |I|,|J| <=
    max_len: G[a][b] = <xi_b, xi_a>... ordered so that
    G[a][b] = phi(M_a* . M_b), which is PSD and conjugate-symmetric."""
    fam = monomial_family(weights.d, max_len)
    elems = [CuntzElement({m: scalars.one(weights.mode)}, weights, _trusted=True)
             for m in fam]
    rows = [[xb.gns_inner(xa) for xb in elems] for xa in elems]
    return fam, rows
