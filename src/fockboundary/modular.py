"""Modular data of the vacuum state on the GNS span of monomial
vectors xi(I, J).

The monomial vectors are eigenvectors of the modular operator with
eigenvalue w_I / w_J; the modular conjugation and the S operator act by
the eigen-formulas.  The exact field carries the square roots that J
and half powers of the modular operator introduce as quadratic surds
(:class:`~fockboundary.scalars.Surd`, coefficient times sqrt of a
positive rational) so that identities like S = J . Delta^{1/2} are
verified with exact cancellation.  Imaginary
powers are carried as symbolic phase bases: a stored base b stands for
the modulus-one factor b^{it}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from operator import sub

from .algebra import CuntzElement, Monomial, contractions
from .errors import SpectrumSizeError
from .fock import EMPTY_WORD, same_weights, words_up_to
from .scalars import Frozen, accumulate, accumulate_products, subtract

SPECTRUM_PAIR_CAP = 250000


# ---------------------------------------------------------------------------
# GNS vectors


class GnsVector(Frozen):
    """A combination sum c * xi(I, J) of monomial GNS vectors.

    Exact-mode coefficients are :class:`~fockboundary.scalars.Surd`
    values, float-mode ones complex.  Equality is
    tested coefficientwise on combined like terms; this is the form in
    which the modular eigen-identities hold (each monomial vector is
    treated as a separate eigenvector)."""

    __slots__ = ("terms", "weights")

    def __init__(self, terms, weights):
        mode = weights.mode
        clean = {}
        for mono, coeff in terms.items():
            coeff = mode.gns_value(coeff)
            if not mode.near_zero(coeff):
                clean[mono] = coeff
        Frozen.__init__(self, clean, weights)

    @classmethod
    def monomial(cls, weights, I, J, coeff=1):
        return cls({Monomial(I, J): coeff}, weights)

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
        return self.weights.mode.same_entries(self.terms, other.terms, tol)

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
    ratio_power = v.weights.mode.ratio_power

    def scale(mono, coeff):
        return mono, coeff * ratio_power(v.ratio(mono), power)

    return v.map_terms(scale)


def modular_conjugation(v):
    """J: c * xi(I,J) -> conj(c) * sqrt(w_J/w_I) * xi(J,I)."""
    sqrt = v.weights.mode.sqrt

    def act(mono, coeff):
        return mono.flip(), coeff.conjugate() * sqrt(1 / v.ratio(mono))

    return v.map_terms(act)


def s_operator(v):
    """S: c * xi(I,J) -> conj(c) * xi(J,I) (the closure of x Omega ->
    x* Omega restricted to the monomial span)."""

    def act(mono, coeff):
        return mono.flip(), coeff.conjugate()

    return v.map_terms(act)


# ---------------------------------------------------------------------------
# the modular flow on elements: symbolic phases


class PhasedElement(Frozen):
    """A combination sum c * b^{it} * M(I,J) where each term carries a
    positive rational phase base b; bases multiply when terms multiply,
    so the flow at symbolic t stays exact.  The parameter t itself is
    never evaluated in exact mode."""

    __slots__ = ("terms", "weights")

    def __init__(self, terms, weights, _trusted=False):
        if _trusted:
            self._fill(terms, weights)
            return
        mode = weights.mode
        clean = {}
        for (mono, base), coeff in terms.items():
            base = mode.real(base)
            coeff = mode.coerce(coeff)
            if not mode.near_zero(coeff):
                clean[(mono, base)] = coeff
        self._fill(clean, weights)

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
        terms = subtract(self.terms, other.terms, self.mode)
        return PhasedElement(terms, self.weights, _trusted=True)

    def __mul__(self, other):
        """Product: monomials contract, phase bases multiply."""
        same_weights(self.weights, other.weights)
        pairs = contractions(
            ((m, (b, c)) for (m, b), c in self.terms.items()),
            ((m, (b, c)) for (m, b), c in other.terms.items()),
        )
        terms = accumulate_products(
            (((m, ba * bb), ca, cb) for m, (ba, ca), (bb, cb) in pairs),
            self.mode, "phased product")
        return PhasedElement(terms, self.weights, _trusted=True)

    def adjoint(self):
        """(c b^{it} M(I,J))* = conj(c) (1/b)^{it} M(J,I)."""
        terms = {}
        for (mono, base), coeff in self.terms.items():
            terms[(mono.flip(), 1 / base)] = coeff.conjugate()
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
        return all(self.mode.near_zero(c, tol) for c in diff.terms.values())

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
    weight = {EMPTY_WORD: w.mode.real_one}
    for word in chain.from_iterable(x.terms):
        # word_weight's product order, with one product per new prefix
        n = len(word)
        while word[:n] not in weight:
            n -= 1
        for k in range(n, len(word)):
            weight[word[:k + 1]] = weight[word[:k]] * w.values[word[k] - 1]
    # an element's coefficients and ratios of field reals: already clean
    return PhasedElement(
        {(m, weight[m[0]] / weight[m[1]]): c for m, c in x.terms.items()},
        w, _trusted=True)


def evaluate_at(phased, t):
    """Evaluate the phases at a concrete real t.  The phase b^{it} is
    complex, so only a float session can hold it: in an exact session
    the coercion raises ModeMixError."""
    mode = phased.mode
    terms = accumulate(
        ((mono, coeff * mode.coerce(base ** complex(0, t)))
         for (mono, base), coeff in phased.terms.items()),
        mode)
    return CuntzElement(terms, phased.weights)


# ---------------------------------------------------------------------------
# spectrum and Gram data


def spectrum_sample(weights, max_len):
    """Finite inner approximation {w_I / w_J : |I|, |J| <= max_len} of
    the modular spectrum, deduplicated and sorted.

    w_I / w_J depends only on the letter counts of I minus those of J,
    so one ratio is computed per distinct count difference.  The words
    up to max_len have C(max_len + d, d) count vectors; the pairs of
    them are held to SPECTRUM_PAIR_CAP before any work."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    d = weights.d
    pairs = math.comb(max_len + d, d) ** 2
    if pairs > SPECTRUM_PAIR_CAP:
        raise SpectrumSizeError(
            "%d letter-count pairs exceed the cap %d" % (pairs, SPECTRUM_PAIR_CAP)
        )
    letters = range(1, d + 1)
    # one sorted word per count vector
    counts = [tuple(map(word.count, letters))
              for n in range(max_len + 1)
              for word in combinations_with_replacement(letters, n)]
    differences = {tuple(map(sub, a, b)) for a in counts for b in counts}
    # exact ratios of the (float: binary) weights, rounded once: one value each
    exact = [Fraction(v) for v in weights.values]
    return sorted(set(map(weights.mode.real, {
        math.prod(map(pow, exact, k), start=Fraction(1)) for k in differences})))


def monomial_family(d, max_len):
    """All monomials with |I|, |J| <= max_len, in deterministic order."""
    ws = words_up_to(d, max_len)
    return [Monomial(I, J) for I in ws for J in ws]


def gram_matrix(weights, max_len):
    """Gram matrix of the monomial GNS vectors xi(I,J), |I|,|J| <=
    max_len: G[a][b] = <xi_b, xi_a>... ordered so that
    G[a][b] = phi(M_a* . M_b), which is PSD and conjugate-symmetric."""
    fam = monomial_family(weights.d, max_len)
    elems = [CuntzElement({m: weights.mode.one}, weights, _trusted=True)
             for m in fam]
    rows = [[xb.gns_inner(xa) for xb in elems] for xa in elems]
    return fam, rows
