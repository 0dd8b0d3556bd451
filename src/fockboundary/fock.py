"""Truncated full Fock space over C^d and the weighted Markov operator.

Words over the alphabet {1, .., d} index the orthonormal basis
``e_I`` of the Fock space; the empty word indexes the vacuum.  All
operators are stored as sparse compressions to the span of words of
length <= cut ("compression semantics": creation out of the top degree
drops the term).  Each operation documents the degree block on which
its output is exact.

Basis enumeration order is by length, then lexicographic, so every
serialization is deterministic.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from itertools import chain

from .errors import (
    CutExhaustedError,
    CutMismatchError,
    LetterRangeError,
    ModeMixError,
)
from .scalars import (
    EXACT,
    Frozen,
    accumulate,
    accumulate_products,
    common_mode,
    field,
)

# ---------------------------------------------------------------------------
# words

EMPTY_WORD = ()


def check_word(word, d):
    word = tuple(word)
    for letter in word:
        if not (isinstance(letter, int) and 1 <= letter <= d):
            raise LetterRangeError(
                "letter %r out of range 1..%d in word %r" % (letter, d, word)
            )
    return word


def word_reverse(word):
    return tuple(reversed(word))


def parse_word(text):
    """Parse the digit-string serialization of a word ("" or "()" = empty)."""
    if text in ("", "()"):
        return EMPTY_WORD
    if not isinstance(text, str) or not text.isdigit() or "0" in text:
        raise LetterRangeError("malformed word string %r" % (text,))
    return tuple(int(c) for c in text)


def format_word(word):
    """Digit-string serialization; the empty word serializes as ""."""
    return "".join(str(c) for c in word)


def display_word(word):
    return format_word(word) if word else "()"


def words_of_length(d, n):
    return list(itertools.product(range(1, d + 1), repeat=n))


def words_up_to(d, max_len):
    """All words of length <= max_len, ordered by length then lex."""
    out = []
    for n in range(max_len + 1):
        out.extend(words_of_length(d, n))
    return out


# ---------------------------------------------------------------------------
# weight vectors


class WeightVector(Frozen):
    """A strictly positive weight vector summing to one.

    ``mode`` is the coefficient field, given as a field or its name.
    EXACT keeps the weights as Fractions and all downstream arithmetic
    is exact; FLOAT keeps floats and downstream comparisons are
    toleranced.  ``minpoly``, if given in float mode,
    records integer coefficients (c_0, c_1, .., c_n) of a polynomial
    sum c_k x^k vanishing on a distinguished algebraic weight; it is
    only used as a certificate check by the classifier.
    """

    __slots__ = ("d", "values", "mode", "minpoly")

    def __init__(self, values, mode=EXACT, minpoly=None):
        mode = field(mode)
        values = tuple(values)
        d = len(values)
        if d < 2:
            raise ValueError("weight vector needs at least two entries")
        if d > 9:
            raise ValueError("at most 9 weights supported (single-digit letters)")
        values = tuple(mode.real(v) for v in values)
        if not mode.eq(sum(values), 1):
            raise ValueError("%s weights must sum to 1" % mode)
        for v in values:
            if not (0 < v < 1):
                raise ValueError("every weight must lie strictly in (0, 1)")
        Frozen.__init__(self, d, values, mode, tuple(minpoly) if minpoly else None)

    @classmethod
    def parse(cls, text, mode=EXACT):
        """Parse "1/3,2/3" or "0.5,0.5" in either field; a float weight
        is the nearest float to the written value."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        return cls([Fraction(p) for p in parts], mode)

    @classmethod
    def uniform(cls, d, mode=EXACT):
        return cls([Fraction(1, d)] * d, mode)

    def is_uniform(self):
        return all(v == self.values[0] for v in self.values)

    def weight(self, letter):
        if not (1 <= letter <= self.d):
            raise LetterRangeError("letter %r out of range 1..%d" % (letter, self.d))
        return self.values[letter - 1]

    def word_weight(self, word):
        """Product of the letter weights; 1 on the empty word."""
        w = self.mode.real_one
        for letter in check_word(word, self.d):
            w = w * self.values[letter - 1]
        return w

    def __eq__(self, other):
        if not isinstance(other, WeightVector):
            return NotImplemented
        return (
            self.mode == other.mode
            and self.values == other.values
            and self.minpoly == other.minpoly
        )

    def __hash__(self):
        return hash((self.values, self.mode, self.minpoly))

    def __repr__(self):
        return "WeightVector(%r, mode=%r)" % (list(self.values), self.mode)


def same_weights(a, b):
    if a != b:
        raise ModeMixError("operands belong to different weight sessions")
    return a


# ---------------------------------------------------------------------------
# truncated operators


def _block(entries, degree):
    """The entries whose row and column words have length <= degree."""
    return {k: v for k, v in entries.items()
            if len(k[0]) <= degree and len(k[1]) <= degree}


class TruncatedOperator(Frozen):
    """Sparse compression of an operator to the degree <= cut block.

    ``entries[(I, J)]`` is the matrix element <x e_J, e_I>.  Values are
    immutable; all arithmetic returns new operators.
    """

    __slots__ = ("entries", "cut", "d", "mode")

    def __init__(self, entries, cut, d, mode=EXACT, _trusted=False):
        if cut < 0:
            raise ValueError("cut must be >= 0, got %d" % cut)
        mode = field(mode)
        if _trusted:
            clean = entries
        else:
            clean = {}
            for (row, col), val in entries.items():
                row = check_word(row, d)
                col = check_word(col, d)
                if len(row) > cut or len(col) > cut:
                    raise ValueError(
                        "entry (%r, %r) exceeds cut %d" % (row, col, cut)
                    )
                val = mode.coerce(val)
                if not mode.near_zero(val):
                    clean[(row, col)] = val
        Frozen.__init__(self, clean, cut, d, mode)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, cut, d, mode=EXACT):
        return cls({}, cut, d, mode, _trusted=True)

    @classmethod
    def identity(cls, cut, d, mode=EXACT):
        one = field(mode).one
        entries = {(w, w): one for w in words_up_to(d, cut)}
        return cls(entries, cut, d, mode, _trusted=True)

    @classmethod
    def vacuum_projection(cls, cut, d, mode=EXACT):
        return cls(
            {(EMPTY_WORD, EMPTY_WORD): field(mode).one}, cut, d, mode, _trusted=True
        )

    @classmethod
    def generator(cls, side, kind, i, cut, d, mode=EXACT):
        """Compression of l_i / r_i (kind="creation") or their adjoints
        (kind="annihilation").  Creation is exact on columns of degree
        <= cut - 1; annihilation is exact everywhere stored."""
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if kind not in ("creation", "annihilation"):
            raise ValueError("kind must be 'creation' or 'annihilation'")
        if not (1 <= i <= d):
            raise LetterRangeError("letter %r out of range 1..%d" % (i, d))
        one = field(mode).one
        entries = {}
        if kind == "creation":
            for w in words_up_to(d, cut - 1):
                new = (i,) + w if side == "left" else w + (i,)
                entries[(new, w)] = one
        else:
            for w in words_up_to(d, cut - 1):
                big = (i,) + w if side == "left" else w + (i,)
                entries[(w, big)] = one
        return cls(entries, cut, d, mode, _trusted=True)

    # -- basic algebra ----------------------------------------------------

    def _check_compatible(self, other):
        common_mode(self.mode, other.mode)
        if self.d != other.d:
            raise ValueError("operators act on different alphabets")
        if self.cut != other.cut:
            raise CutMismatchError(
                "cuts %d and %d differ; re-cut explicitly first"
                % (self.cut, other.cut)
            )

    def __add__(self, other):
        self._check_compatible(other)
        entries = accumulate(
            chain(self.entries.items(), other.entries.items()), self.mode)
        return TruncatedOperator(entries, self.cut, self.d, self.mode, _trusted=True)

    def __sub__(self, other):
        self._check_compatible(other)
        negated = ((k, -v) for k, v in other.entries.items())
        entries = accumulate(chain(self.entries.items(), negated), self.mode)
        return TruncatedOperator(entries, self.cut, self.d, self.mode, _trusted=True)

    def __neg__(self):
        entries = {k: -v for k, v in self.entries.items()}
        return TruncatedOperator(entries, self.cut, self.d, self.mode, _trusted=True)

    def scale(self, c):
        c = self.mode.coerce(c)
        if self.mode.near_zero(c):
            return TruncatedOperator.zero(self.cut, self.d, self.mode)
        entries = {k: c * v for k, v in self.entries.items()}
        return TruncatedOperator(entries, self.cut, self.d, self.mode, _trusted=True)

    def compose(self, other):
        """Sparse matrix product at the common cut.

        The result entry at (I, J) is exact whenever the true product
        has no contributions through intermediate words beyond the cut;
        for products of generator compressions this holds on the degree
        <= cut - (number of creation factors) block.
        """
        self._check_compatible(other)
        by_mid = {}
        for (mid, col), val in other.entries.items():
            by_mid.setdefault(mid, []).append((col, val))
        triples = (
            ((row, col), val, val2)
            for (row, mid), val in self.entries.items()
            for col, val2 in by_mid.get(mid, ())
        )
        entries = accumulate_products(triples, self.mode)
        return TruncatedOperator(entries, self.cut, self.d, self.mode, _trusted=True)

    def adjoint(self):
        entries = {
            (col, row): val.conjugate() for (row, col), val in self.entries.items()
        }
        return TruncatedOperator(entries, self.cut, self.d, self.mode, _trusted=True)

    def entry(self, row, col):
        return self.entries.get((tuple(row), tuple(col)), self.mode.zero)

    # -- cut management ---------------------------------------------------

    def recut(self, new_cut):
        """Restrict (or formally extend) to a new cut.  Shrinking drops
        entries above the new cut; growing adds no entries, so growing
        is only meaningful for operators supported in low degree."""
        if new_cut == self.cut:
            return self
        entries = {
            k: v
            for k, v in self.entries.items()
            if len(k[0]) <= new_cut and len(k[1]) <= new_cut
        }
        return TruncatedOperator(entries, new_cut, self.d, self.mode, _trusted=True)

    # -- comparisons ------------------------------------------------------

    def equal_on_block(self, other, degree, tol=1e-12):
        """Entrywise equality on the degree <= ``degree`` block (exact in
        exact mode, within tol otherwise)."""
        common_mode(self.mode, other.mode)
        return self.mode.same_entries(
            _block(self.entries, degree), _block(other.entries, degree), tol)

    def max_block_diff(self, other, degree):
        """Largest |entry difference| on the degree <= degree block."""
        a, b = _block(self.entries, degree), _block(other.entries, degree)
        z = self.mode.zero
        best = 0.0
        for key in a.keys() | b.keys():
            best = max(best, abs(complex(a.get(key, z)) - complex(b.get(key, z))))
        return best

    def __eq__(self, other):
        if not isinstance(other, TruncatedOperator):
            return NotImplemented
        return (
            self.mode == other.mode
            and self.d == other.d
            and self.cut == other.cut
            and self.equal_on_block(other, self.cut)
        )

    def __repr__(self):
        return "TruncatedOperator(%d entries, cut=%d, d=%d, mode=%r)" % (
            len(self.entries),
            self.cut,
            self.d,
            self.mode,
        )

    # -- numerics / serialization ------------------------------------------

    def to_dense(self):
        """Dense complex matrix in the length-then-lex basis order."""
        import numpy as np

        basis = words_up_to(self.d, self.cut)
        index = {w: k for k, w in enumerate(basis)}
        mat = np.zeros((len(basis), len(basis)), dtype=complex)
        for (row, col), val in self.entries.items():
            mat[index[row], index[col]] = complex(val)
        return mat

    def to_json(self):
        items = []
        for (row, col) in sorted(
            self.entries, key=lambda rc: (len(rc[0]), rc[0], len(rc[1]), rc[1])
        ):
            rec = {"row": format_word(row), "col": format_word(col)}
            rec.update(self.mode.to_json(self.entries[(row, col)]))
            items.append(rec)
        return {"d": self.d, "cut": self.cut, "mode": self.mode, "entries": items}

    @classmethod
    def from_json(cls, obj):
        mode = field(obj["mode"])
        entries = {}
        for rec in obj["entries"]:
            key = (parse_word(rec["row"]), parse_word(rec["col"]))
            entries[key] = mode.from_json(rec)
        return cls(entries, int(obj["cut"]), int(obj["d"]), mode)


# ---------------------------------------------------------------------------
# the Markov operator


def markov_step(x, weights):
    """One application of the weighted Markov operator.

    <P(x) e_J, e_I> = sum_i w_i <x e_{iJ}, e_{iI}>, evaluated on the
    degree <= cut - 1 block, which is exact whenever the entries of x
    are exact up to the cut.
    """
    if x.d != weights.d or x.mode != weights.mode:
        raise ModeMixError("operator and weights are incompatible")
    if x.cut < 1:
        raise CutExhaustedError("cannot apply a Markov step at cut 0")
    w = [x.mode.coerce(v) for v in weights.values]
    triples = (
        ((row[1:], col[1:]), w[row[0] - 1], val)
        for (row, col), val in x.entries.items()
        if row and col and row[0] == col[0]
    )
    entries = accumulate_products(triples, x.mode)
    return TruncatedOperator(entries, x.cut - 1, x.d, x.mode, _trusted=True)


class HarmonicityReport(Frozen):
    """Per-entry verdict of the fixed-point identity for P_omega."""

    __slots__ = ("ok", "defects", "checked_degree", "max_abs_defect")

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "HarmonicityReport(ok=%r, defects=%d, max=%g)" % (
            self.ok,
            len(self.defects),
            self.max_abs_defect,
        )


def is_harmonic(x, weights, tol=1e-12):
    """Check <x e_J, e_I> = sum_i w_i <x e_{iJ}, e_{iI}> on all (I, J)
    with |I|, |J| <= cut - 1.  ``defects`` maps failing (I, J) to
    P(x) - x entry values."""
    if x.cut < 1:
        raise CutExhaustedError("need cut >= 1 to test harmonicity")
    stepped = markov_step(x, weights)
    degree = x.cut - 1
    inner = _block(x.entries, degree)
    mode = x.mode
    if mode.same_entries(stepped.entries, inner, tol):
        return HarmonicityReport(True, {}, degree, 0.0)
    defects = {}
    z = mode.zero
    worst = 0.0
    for key in stepped.entries.keys() | inner.keys():
        a = stepped.entries.get(key, z)
        b = inner.get(key, z)
        if not mode.eq(a, b, tol):
            diff = a - b
            defects[key] = diff
            worst = max(worst, abs(complex(diff)))
    return HarmonicityReport(False, defects, degree, worst)
