"""Modular data of the vacuum state phi.

The modular flow multiplies M(I, J) by the imaginary power
(w_I / w_J)^{it}; its base is a function of the words
(``phase_base``), so a flowed element keeps plain terms and reads each
base from its monomial.  By Takesaki's theorem the flow is phi's
modular group exactly when phi satisfies the KMS condition, which on
monomials is rational in the weights, phi(x y) (w_K / w_L) = phi(y x)
for x = M(I, J) and y = M(K, L), and is checked with the product and
phi themselves (``kms_failures``).  The module also samples the modular
spectrum {w_I / w_J} and builds Gram matrices of the monomial GNS
vectors xi(I, J).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import sub

from .algebra import CuntzElement, Monomial, contractions
from .errors import SpectrumSizeError
from .fock import words_up_to
from .scalars import accumulate

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


def kms_failures(weights, max_len, base):
    """The KMS condition at beta = 1 for the flow whose phase bases are
    ``base(monomial)``, over the monomials x, y with |I|, |J| <=
    max_len: phi(x y) base(y) = phi(y x), that is phi(x sigma_{-i}(y)) =
    phi(y x).  phi(x y) is read from the products that ``contractions``
    gives; only a diagonal product has a nonzero phi, and it pairs the
    degrees |I| - |J| = k and -k, so each degree class is walked against
    its opposite.  Compared with the field's ``eq``.  Returns (the pairs
    with a nonzero side, the pairs that fail)."""
    by_degree = {}
    for m in monomial_family(weights.d, max_len):
        by_degree.setdefault(len(m.I) - len(m.J), []).append((m, m))
    word_weight = weights.word_weight
    phi = {(x, y): word_weight(I)
           for k, left in by_degree.items()
           for (I, J), x, y in contractions(left, by_degree.get(-k, ()))
           if I == J}
    eq = weights.mode.eq
    pairs = phi.keys() | {(y, x) for x, y in phi}
    return len(pairs), sum(
        not eq(phi.get((x, y), 0) * base(y), phi.get((y, x), 0))
        for x, y in pairs)


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
