"""Modular data of the vacuum state on the GNS span of monomial
vectors xi(I, J).

The monomial vectors are eigenvectors of the modular operator with
eigenvalue w_I / w_J (``phase_base``); the modular conjugation and the
S operator act by the eigen-formulas.  The exact field carries the
square roots that J and half powers of the modular operator introduce
as quadratic surds (:class:`~fockboundary.scalars.Surd`, coefficient
times sqrt of a positive rational) so that identities like
S = J . Delta^{1/2} are verified with exact cancellation.  The modular
flow multiplies M(I, J) by the imaginary power (w_I / w_J)^{it}; its
base is a function of the words, so a flowed element keeps plain terms
and reads each base from its monomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import sub

from .algebra import CuntzElement, Monomial
from .errors import SpectrumSizeError
from .fock import same_weights, words_up_to
from .scalars import Frozen, accumulate

SPECTRUM_PAIR_CAP = 250000


def phase_base(weights, mono):
    """w_I / w_J for M(I, J), in ``word_weight``'s product order: the
    eigenvalue of xi(I, J) under the modular operator and the base b of
    the phase b^{it} that the modular flow puts on M(I, J).  Bases
    multiply along contractions, w_{IK'} / w_L = (w_I / w_J)(w_K / w_L)
    when K = J K', and invert under the adjoint."""
    I, J = mono
    return weights.word_weight(I) / weights.word_weight(J)


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
    weights = v.weights
    ratio_power = weights.mode.ratio_power

    def scale(mono, coeff):
        return mono, coeff * ratio_power(phase_base(weights, mono), power)

    return v.map_terms(scale)


def modular_conjugation(v):
    """J: c * xi(I,J) -> conj(c) * sqrt(w_J/w_I) * xi(J,I)."""
    weights = v.weights
    sqrt = weights.mode.sqrt

    def act(mono, coeff):
        return mono.flip(), coeff.conjugate() * sqrt(1 / phase_base(weights, mono))

    return v.map_terms(act)


def s_operator(v):
    """S: c * xi(I,J) -> conj(c) * xi(J,I) (the closure of x Omega ->
    x* Omega restricted to the monomial span)."""

    def act(mono, coeff):
        return mono.flip(), coeff.conjugate()

    return v.map_terms(act)


# ---------------------------------------------------------------------------
# the modular flow on elements: phases read from the monomials


class PhasedElement(CuntzElement):
    """The modular flow t -> sigma_t(x) of an element x at symbolic t.

    sigma_t(c M(I, J)) = c b^{it} M(I, J) with the phase base
    b = ``phase_base(M(I, J))`` read from the words, so a phased element
    holds plain {Monomial: coeff} terms and no term stores a base.  The
    bases multiply along every contraction and invert under the
    adjoint, so the inherited sum, product and adjoint are those of the
    flow.  The parameter t itself is never evaluated in exact mode.
    """

    # no __slots__: the class adds no field, and CuntzElement's
    # __slots__ stay the fields that Frozen fills, copies and pickles

    def same_flow(self, other, tol=1e-12):
        """Equality as functions of t.  The functions b^{it} for distinct
        positive bases are linearly independent, and the expansion
        M(I, J) = sum_K M(IK, JK) keeps the base, so two flows agree
        exactly when the elements are equal."""
        return self.equals(other, tol)

    def vacuum_state_by_base(self):
        """phi extended to phased terms, returned as {base: value}."""
        weights = self.weights
        return accumulate(
            ((phase_base(weights, mono), coeff * weights.word_weight(mono.J))
             for mono, coeff in self.terms.items() if mono.I == mono.J),
            self.mode)


def sigma_t(x):
    """The modular flow on an element: each monomial picks up the
    symbolic phase (w_I/w_J)^{it}.  The result is x's terms as a
    :class:`PhasedElement`; evaluate with ``evaluate_at`` in float mode.
    """
    return PhasedElement(x.terms, x.weights, _trusted=True)


def evaluate_at(phased, t):
    """Evaluate the phases at a concrete real t.  The phase b^{it} is
    complex, so only a float session can hold it: in an exact session
    the coercion raises ModeMixError."""
    weights = phased.weights
    coerce = weights.mode.coerce
    return CuntzElement(
        {mono: coeff * coerce(phase_base(weights, mono) ** complex(0, t))
         for mono, coeff in phased.terms.items()},
        weights)


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
