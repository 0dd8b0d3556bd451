"""Exact symbolic algebra spanned by the monomials M(I, J) = r_I . r_J*
inside the fixed-point algebra of the Markov operator.

The product is the fixed-point (Choi-Effros) product.  On monomials it
reduces to a contraction rule: the Cuntz isometry relations hold
exactly inside the fixed-point algebra, so

    M(I, J) . M(K, L) = M(I K', L)   if K = J K'
                      = M(I, L J')   if J = K J'
                      = 0            otherwise.

Raw coefficient comparison is unsound because of the expansion relation
M(I, J) = sum_{|K| = m} M(IK, JK); equality is decided by the faithful
vacuum state (``is_zero``), with ``normal_form`` as a canonical-form
optimization cross-checked against it.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from operator import itemgetter

from .fock import (
    EMPTY_WORD,
    TruncatedOperator,
    check_word,
    display_word,
    format_word,
    parse_word,
    same_weights,
    word_reverse,
    words_of_length,
    words_up_to,
)
from .scalars import accumulate


class Monomial(tuple):
    """The monomial r_I . r_J*, stored as the pair (I, J) of words;
    M((), ()) is the identity.  Hashing and equality are the tuple's."""

    __slots__ = ()

    def __new__(cls, I, J):
        return tuple.__new__(cls, (tuple(I), tuple(J)))

    I = property(itemgetter(0))
    J = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    def flip(self):
        return _monomial((self[1], self[0]))

    def sort_key(self):
        I, J = self
        return (len(I) - len(J), len(J), I, J)

    def __repr__(self):
        return "M(%s,%s)" % (display_word(self[0]), display_word(self[1]))


# Monomial from a pair of words that are already tuples
_monomial = partial(tuple.__new__, Monomial)


def mono_product(a, b):
    """Contraction rule for M(I,J) . M(K,L); returns the resulting
    Monomial or None when the product vanishes."""
    (I, J), (K, L) = a, b
    n = len(J)
    if len(K) >= n:
        if K[:n] == J:
            return _monomial((I + K[n:], L))
        return None
    if J[: len(K)] == K:
        return _monomial((I, L + J[len(K):]))
    return None


def contractions(left, right):
    """The nonzero monomial products of a left term with a right term.

    ``left`` and ``right`` are iterables of (monomial, payload) pairs;
    yields (product monomial, left payload, right payload).  Since
    M(I,J) . M(K,L) is nonzero only when K extends J or K is a proper
    prefix of J, the right terms are indexed by every prefix of K and by
    K itself, and each left term visits only the pairs that contract."""
    by_prefix = {}  # prefix P of K -> [(K with P removed, L, payload)]
    by_word = {}  # K -> [(L, payload)]
    for (K, L), b in right:
        by_word.setdefault(K, []).append((L, b))
        for n in range(len(K) + 1):
            by_prefix.setdefault(K[:n], []).append((K[n:], L, b))
    for (I, J), a in left:
        for rest, L, b in by_prefix.get(J, ()):
            yield _monomial((I + rest, L)), a, b
        for n in range(len(J)):
            for L, b in by_word.get(J[:n], ()):
                yield _monomial((I, L + J[n:])), a, b


class CuntzElement:
    """A finite linear combination of monomials tied to one weight
    session.  All operations are pure and mode-consistent."""

    __slots__ = ("terms", "weights")

    def __init__(self, terms, weights, _trusted=False):
        if _trusted:
            clean = terms
        else:
            mode = weights.mode
            clean = {}
            for mono, coeff in terms.items():
                check_word(mono.I, weights.d)
                check_word(mono.J, weights.d)
                coeff = mode.coerce(coeff)
                if not mode.near_zero(coeff):
                    clean[mono] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "weights", weights)

    def __setattr__(self, name, value):
        raise AttributeError("CuntzElement is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, weights):
        return cls({}, weights, _trusted=True)

    @classmethod
    def monomial(cls, weights, I, J=EMPTY_WORD, coeff=1):
        return cls({Monomial(I, J): coeff}, weights)

    @classmethod
    def identity(cls, weights):
        return cls.monomial(weights, EMPTY_WORD, EMPTY_WORD)

    @classmethod
    def right_creation(cls, weights, i):
        return cls.monomial(weights, (i,), EMPTY_WORD)

    # -- linear structure ----------------------------------------------------

    @property
    def mode(self):
        return self.weights.mode

    def __add__(self, other):
        same_weights(self.weights, other.weights)
        terms = accumulate(
            chain(self.terms.items(), other.terms.items()), self.mode)
        return CuntzElement(terms, self.weights, _trusted=True)

    def __sub__(self, other):
        same_weights(self.weights, other.weights)
        negated = ((m, -c) for m, c in other.terms.items())
        terms = accumulate(chain(self.terms.items(), negated), self.mode)
        return CuntzElement(terms, self.weights, _trusted=True)

    def __neg__(self):
        return CuntzElement(
            {m: -c for m, c in self.terms.items()}, self.weights, _trusted=True
        )

    def scale(self, c):
        c = self.mode.coerce(c)
        if self.mode.near_zero(c):
            return CuntzElement.zero(self.weights)
        return CuntzElement(
            {m: c * v for m, v in self.terms.items()}, self.weights, _trusted=True
        )

    # -- ring structure --------------------------------------------------------

    def __mul__(self, other):
        """Fixed-point product, extended bilinearly from the monomial
        contraction rule."""
        same_weights(self.weights, other.weights)
        pairs = contractions(self.terms.items(), other.terms.items())
        terms = accumulate(
            ((m, ca * cb) for m, ca, cb in pairs), self.mode, "product")
        return CuntzElement(terms, self.weights, _trusted=True)

    def adjoint(self):
        return CuntzElement(
            {m.flip(): c.conjugate() for m, c in self.terms.items()},
            self.weights,
            _trusted=True,
        )

    # -- normal form ---------------------------------------------------------

    def expand(self, depth):
        """Apply M(I,J) = sum_{|K| = depth} M(IK, JK) to every term."""
        if depth == 0:
            return self
        suffixes = words_of_length(self.weights.d, depth)
        pairs = (
            (_monomial((I + suffix, J + suffix)), coeff)
            for (I, J), coeff in self.terms.items()
            for suffix in suffixes
        )
        terms = accumulate(pairs, self.mode, "expansion")
        return CuntzElement(terms, self.weights, _trusted=True)

    def normal_form(self):
        """Canonical form: within each class of fixed k = |I| - |J|
        (invariant under expansion), expand every monomial to the
        maximal |J| in the class.  Monomials of fixed (|I|, |J|) are
        linearly independent, so coefficient equality on normal forms
        is sound."""
        classes = {}
        for mono, coeff in self.terms.items():
            k = len(mono.I) - len(mono.J)
            classes.setdefault(k, []).append((mono, coeff))
        d = self.weights.d

        def pairs():
            for items in classes.values():
                target = max(len(m.J) for m, _ in items)
                for (I, J), coeff in items:
                    for suffix in words_of_length(d, target - len(J)):
                        yield _monomial((I + suffix, J + suffix)), coeff

        terms = accumulate(pairs(), self.mode, "normal form")
        return CuntzElement(terms, self.weights, _trusted=True)

    # -- state, inner product, zero test ----------------------------------------

    def vacuum_state(self):
        """phi(M(I,J)) = w_J when I = J, else 0; extended linearly."""
        total = self.mode.zero
        for mono, coeff in self.terms.items():
            if mono.I == mono.J:
                total = total + coeff * self.weights.word_weight(mono.J)
        return total

    def gns_inner(self, other):
        """<x, y> = phi(y* . x), without forming y* . x.

        phi(M(I',J')* . M(I,J)) is nonzero only when one of the two
        monomials is the other extended by a common suffix, and its
        value is then w_J of the longer one.  So each term of x is
        looked up in y after stripping t >= 0 common trailing letters,
        and each term of y in x after stripping t >= 1."""
        same_weights(self.weights, other.weights)
        word_weight = self.weights.word_weight
        total = self.mode.zero
        for cx, cy, J in _suffix_matches(self.terms, other.terms, 0):
            total = total + cy.conjugate() * cx * word_weight(J)
        for cy, cx, J in _suffix_matches(other.terms, self.terms, 1):
            total = total + cy.conjugate() * cx * word_weight(J)
        return total

    def gns_norm_sq(self):
        return self.gns_inner(self)

    def is_zero(self, tol=1e-12):
        """Zero test via faithfulness of the vacuum state: x = 0 iff
        phi(x* . x) = 0 (exact in exact mode, toleranced otherwise)."""
        value = self.gns_norm_sq()
        return self.mode.near_zero(value, tol)

    def equals(self, other, tol=1e-12):
        return (self - other).is_zero(tol)

    # -- shape helpers ---------------------------------------------------------

    def max_word_length(self):
        if not self.terms:
            return 0
        return max(max(len(m.I), len(m.J)) for m in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: mc[0].sort_key())

    def __eq__(self, other):
        if not isinstance(other, CuntzElement):
            return NotImplemented
        return self.equals(other)

    def __repr__(self):
        if not self.terms:
            return "CuntzElement(0)"
        bits = ["%r*%r" % (c, m) for m, c in self.sorted_terms()]
        return "CuntzElement(%s)" % " + ".join(bits)

    # -- concrete realization -----------------------------------------------

    def to_truncated(self, cut):
        """Compression of the concrete operator representing the
        element: M(I,J) acts as r_I r_J* plus the vacuum corrections

            sum_{t=1..|J|} w_{(J^op)_t} l_{(J^op)_t}* r_I p_Omega r_{J_{|J|-t}}*

        which reduce to single matrix units.  Exact on the whole stored
        block (the listed entries are the full compression)."""
        if cut < self.max_word_length():
            raise ValueError(
                "cut %d below the maximal word length %d"
                % (cut, self.max_word_length())
            )
        d = self.weights.d

        def pairs():
            for mono, coeff in self.terms.items():
                i_op = word_reverse(mono.I)
                j_op = word_reverse(mono.J)
                # r_I r_J*: e_{W J^op} -> e_{W I^op}
                room = cut - max(len(i_op), len(j_op))
                for w in words_up_to(d, room):
                    yield (w + i_op, w + j_op), coeff
                # vacuum corrections: nonzero only when I^op starts with (J^op)_t
                n = len(mono.J)
                for t in range(1, n + 1):
                    head = j_op[:t]
                    if i_op[:t] != head:
                        continue
                    factor = self.weights.word_weight(head)
                    col = word_reverse(mono.J[: n - t])
                    yield (i_op[t:], col), coeff * factor

        entries = accumulate(pairs(), self.mode)
        return TruncatedOperator(entries, cut, d, self.mode, _trusted=True)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        items = []
        for mono, coeff in self.sorted_terms():
            rec = {"I": format_word(mono.I), "J": format_word(mono.J)}
            rec.update(self.mode.to_json(coeff))
            items.append(rec)
        return {"d": self.weights.d, "mode": self.mode, "terms": items}

    @classmethod
    def from_json(cls, obj, weights):
        if int(obj["d"]) != weights.d or obj["mode"] != weights.mode:
            raise ValueError("element JSON does not match the weight session")
        terms = {}
        for rec in obj["terms"]:
            mono = Monomial(parse_word(rec["I"]), parse_word(rec["J"]))
            terms[mono] = weights.mode.from_json(rec)
        return cls(terms, weights)


def _suffix_matches(longer, shorter, first):
    """(coeff in ``longer``, coeff in ``shorter``, J of the longer) for
    every term M(IS, JS) of ``longer`` with M(I, J) a term of
    ``shorter``, over common suffixes S with |S| >= first."""
    for (I, J), c in longer.items():
        for t in range(min(len(I), len(J)) + 1):
            if t and I[-t] != J[-t]:
                break
            if t >= first:
                hit = shorter.get((I[: len(I) - t], J[: len(J) - t]))
                if hit is not None:
                    yield c, hit, J
