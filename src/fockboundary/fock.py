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

from .errors import (
    CutExhaustedError,
    CutMismatchError,
    LetterRangeError,
    ModeMixError,
)
from . import scalars
from .scalars import EXACT, FLOAT, check_mode, common_mode

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


def word_concat(left, right):
    return tuple(left) + tuple(right)


def word_reverse(word):
    return tuple(reversed(word))


def parse_word(text):
    """Parse the digit-string serialization of a word ("" or "()" = empty)."""
    if text in ("", "()"):
        return EMPTY_WORD
    if not text.isdigit() or "0" in text:
        raise LetterRangeError("malformed word string %r" % (text,))
    return tuple(int(c) for c in text)


def format_word(word):
    """Digit-string serialization; the empty word serializes as ""."""
    return "".join(str(c) for c in word)


def display_word(word):
    return format_word(word) if word else "()"


def words_of_length(d, n):
    return [tuple(w) for w in itertools.product(range(1, d + 1), repeat=n)]


def words_up_to(d, max_len):
    """All words of length <= max_len, ordered by length then lex."""
    out = []
    for n in range(max_len + 1):
        out.extend(words_of_length(d, n))
    return out


# ---------------------------------------------------------------------------
# weight vectors


class WeightVector:
    """A strictly positive weight vector summing to one.

    Mode "exact" keeps the weights as Fractions and all downstream
    arithmetic is exact; mode "float" keeps floats and downstream
    comparisons are toleranced.  ``minpoly``, if given in float mode,
    records integer coefficients (c_0, c_1, .., c_n) of a polynomial
    sum c_k x^k vanishing on a distinguished algebraic weight; it is
    only used as a certificate check by the classifier.
    """

    __slots__ = ("d", "values", "mode", "minpoly")

    def __init__(self, values, mode=EXACT, minpoly=None):
        check_mode(mode)
        values = tuple(values)
        d = len(values)
        if d < 2:
            raise ValueError("weight vector needs at least two entries")
        if d > 9:
            raise ValueError("at most 9 weights supported (single-digit letters)")
        if mode == EXACT:
            values = tuple(Fraction(v) for v in values)
            if sum(values) != 1:
                raise ValueError("exact weights must sum to exactly 1")
        else:
            values = tuple(float(v) for v in values)
            if abs(sum(values) - 1.0) > 1e-12:
                raise ValueError("float weights must sum to 1 within 1e-12")
        for v in values:
            if not (0 < v < 1):
                raise ValueError("every weight must lie strictly in (0, 1)")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "minpoly", tuple(minpoly) if minpoly else None)

    def __setattr__(self, name, value):
        raise AttributeError("WeightVector is immutable")

    @classmethod
    def parse(cls, text, mode=EXACT):
        """Parse "1/3,2/3" (exact) or "0.5,0.5" (either mode)."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if mode == EXACT:
            return cls([Fraction(p) for p in parts], mode)
        return cls([float(Fraction(p)) if "/" in p else float(p) for p in parts], mode)

    @classmethod
    def uniform(cls, d, mode=EXACT):
        if mode == EXACT:
            return cls([Fraction(1, d)] * d, mode)
        return cls([1.0 / d] * d, mode)

    def is_uniform(self):
        return all(v == self.values[0] for v in self.values)

    def weight(self, letter):
        if not (1 <= letter <= self.d):
            raise LetterRangeError("letter %r out of range 1..%d" % (letter, self.d))
        return self.values[letter - 1]

    def word_weight(self, word):
        """Product of the letter weights; 1 on the empty word."""
        w = Fraction(1) if self.mode == EXACT else 1.0
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


# convenience aliases matching the functional interface

def word_weight(word, weights):
    return weights.word_weight(word)


# ---------------------------------------------------------------------------
# Fock vectors


class FockVector:
    """Sparse vector in the degree <= cut part of the Fock space."""

    __slots__ = ("amplitudes", "cut", "d", "mode")

    def __init__(self, amplitudes, cut, d, mode=EXACT):
        check_mode(mode)
        clean = {}
        for word, amp in amplitudes.items():
            word = check_word(word, d)
            if len(word) > cut:
                raise ValueError("word %r exceeds cut %d" % (word, cut))
            amp = scalars.coerce_scalar(amp, mode)
            if not scalars.is_zero_scalar(amp, mode):
                clean[word] = amp
        object.__setattr__(self, "amplitudes", clean)
        object.__setattr__(self, "cut", cut)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("FockVector is immutable")

    @classmethod
    def basis(cls, word, cut, d, mode=EXACT):
        return cls({tuple(word): scalars.one(mode)}, cut, d, mode)

    @classmethod
    def vacuum(cls, cut, d, mode=EXACT):
        return cls.basis(EMPTY_WORD, cut, d, mode)

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        if self.mode != other.mode or self.d != other.d:
            return False
        keys = set(self.amplitudes) | set(other.amplitudes)
        z = scalars.zero(self.mode)
        return all(
            scalars.scalars_equal(
                self.amplitudes.get(k, z), other.amplitudes.get(k, z), self.mode
            )
            for k in keys
        )

    def __repr__(self):
        items = ", ".join(
            "%s: %r" % (display_word(w), a) for w, a in sorted(self.amplitudes.items())
        )
        return "FockVector({%s}, cut=%d)" % (items, self.cut)


def apply_creation(side, i, v):
    """l_i (side="left") or r_i (side="right") with compression: terms
    pushed past the cut are dropped."""
    if not (1 <= i <= v.d):
        raise LetterRangeError("letter %r out of range 1..%d" % (i, v.d))
    out = {}
    for word, amp in v.amplitudes.items():
        if len(word) + 1 > v.cut:
            continue
        new = (i,) + word if side == "left" else word + (i,)
        out[new] = out.get(new, scalars.zero(v.mode)) + amp
    return FockVector(out, v.cut, v.d, v.mode)


def apply_annihilation(side, i, v):
    """l_i* (side="left") or r_i* (side="right"); kills the vacuum and
    any word whose relevant end letter differs from i."""
    if not (1 <= i <= v.d):
        raise LetterRangeError("letter %r out of range 1..%d" % (i, v.d))
    out = {}
    for word, amp in v.amplitudes.items():
        if not word:
            continue
        if side == "left":
            if word[0] != i:
                continue
            new = word[1:]
        else:
            if word[-1] != i:
                continue
            new = word[:-1]
        out[new] = out.get(new, scalars.zero(v.mode)) + amp
    return FockVector(out, v.cut, v.d, v.mode)


def apply_vacuum_projection(v):
    out = {}
    if EMPTY_WORD in v.amplitudes:
        out[EMPTY_WORD] = v.amplitudes[EMPTY_WORD]
    return FockVector(out, v.cut, v.d, v.mode)


# ---------------------------------------------------------------------------
# truncated operators


class TruncatedOperator:
    """Sparse compression of an operator to the degree <= cut block.

    ``entries[(I, J)]`` is the matrix element <x e_J, e_I>.  Values are
    immutable; all arithmetic returns new operators.
    """

    __slots__ = ("entries", "cut", "d", "mode")

    def __init__(self, entries, cut, d, mode=EXACT, _trusted=False):
        check_mode(mode)
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
                val = scalars.coerce_scalar(val, mode)
                if not scalars.is_zero_scalar(val, mode):
                    clean[(row, col)] = val
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "cut", cut)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedOperator is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, cut, d, mode=EXACT):
        return cls({}, cut, d, mode, _trusted=True)

    @classmethod
    def identity(cls, cut, d, mode=EXACT):
        one = scalars.one(mode)
        entries = {(w, w): one for w in words_up_to(d, cut)}
        return cls(entries, cut, d, mode, _trusted=True)

    @classmethod
    def vacuum_projection(cls, cut, d, mode=EXACT):
        return cls(
            {(EMPTY_WORD, EMPTY_WORD): scalars.one(mode)}, cut, d, mode, _trusted=True
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
        one = scalars.one(mode)
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
        entries = dict(self.entries)
        z = scalars.zero(self.mode)
        for key, val in other.entries.items():
            s = entries.get(key, z) + val
            if scalars.is_zero_scalar(s, self.mode):
                entries.pop(key, None)
            else:
                entries[key] = s
        return TruncatedOperator(entries, self.cut, self.d, self.mode, _trusted=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        entries = {k: -v for k, v in self.entries.items()}
        return TruncatedOperator(entries, self.cut, self.d, self.mode, _trusted=True)

    def scale(self, c):
        c = scalars.coerce_scalar(c, self.mode)
        if scalars.is_zero_scalar(c, self.mode):
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
        entries = {}
        z = scalars.zero(self.mode)
        for (row, mid), val in self.entries.items():
            hits = by_mid.get(mid)
            if not hits:
                continue
            for col, val2 in hits:
                key = (row, col)
                s = entries.get(key, z) + val * val2
                entries[key] = s
        entries = {
            k: v for k, v in entries.items() if not scalars.is_zero_scalar(v, self.mode)
        }
        return TruncatedOperator(entries, self.cut, self.d, self.mode, _trusted=True)

    def adjoint(self):
        entries = {
            (col, row): scalars.conj(val) for (row, col), val in self.entries.items()
        }
        return TruncatedOperator(entries, self.cut, self.d, self.mode, _trusted=True)

    def apply(self, v):
        if v.d != self.d or v.mode != self.mode:
            raise ModeMixError("vector and operator are incompatible")
        if v.cut != self.cut:
            raise CutMismatchError("vector cut %d != operator cut %d" % (v.cut, self.cut))
        out = {}
        z = scalars.zero(self.mode)
        for (row, col), val in self.entries.items():
            amp = v.amplitudes.get(col)
            if amp is None:
                continue
            out[row] = out.get(row, z) + val * amp
        return FockVector(out, self.cut, self.d, self.mode)

    def entry(self, row, col):
        return self.entries.get(
            (tuple(row), tuple(col)), scalars.zero(self.mode)
        )

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

    def max_degree(self):
        if not self.entries:
            return 0
        return max(max(len(r), len(c)) for r, c in self.entries)

    # -- comparisons ------------------------------------------------------

    def equal_on_block(self, other, degree, tol=1e-12):
        """Entrywise equality on the degree <= ``degree`` block (exact in
        exact mode, within tol otherwise)."""
        common_mode(self.mode, other.mode)
        keys = set(self.entries) | set(other.entries)
        z = scalars.zero(self.mode)
        for row, col in keys:
            if len(row) > degree or len(col) > degree:
                continue
            a = self.entries.get((row, col), z)
            b = other.entries.get((row, col), z)
            if not scalars.scalars_equal(a, b, self.mode, tol):
                return False
        return True

    def max_block_diff(self, other, degree):
        """Largest |entry difference| on the degree <= degree block."""
        keys = set(self.entries) | set(other.entries)
        z = scalars.zero(self.mode)
        best = 0.0
        for row, col in keys:
            if len(row) > degree or len(col) > degree:
                continue
            a = self.entries.get((row, col), z)
            b = other.entries.get((row, col), z)
            best = max(best, abs(scalars.to_complex(a) - scalars.to_complex(b)))
        return best

    def is_zero_on_block(self, degree, tol=1e-12):
        for (row, col), val in self.entries.items():
            if len(row) > degree or len(col) > degree:
                continue
            if not scalars.is_zero_scalar(val, self.mode, tol):
                return False
        return True

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
            mat[index[row], index[col]] = scalars.to_complex(val)
        return mat

    def to_json(self):
        items = []
        for (row, col) in sorted(
            self.entries, key=lambda rc: (len(rc[0]), rc[0], len(rc[1]), rc[1])
        ):
            rec = {"row": format_word(row), "col": format_word(col)}
            rec.update(scalars.scalar_to_json(self.entries[(row, col)], self.mode))
            items.append(rec)
        return {"d": self.d, "cut": self.cut, "mode": self.mode, "entries": items}

    @classmethod
    def from_json(cls, obj):
        mode = check_mode(obj["mode"])
        entries = {}
        for rec in obj["entries"]:
            key = (parse_word(rec["row"]), parse_word(rec["col"]))
            entries[key] = scalars.scalar_from_json(rec, mode)
        return cls(entries, int(obj["cut"]), int(obj["d"]), mode)


# functional aliases used by callers that prefer free functions

def build_generator(side, kind, i, cut, d, mode=EXACT):
    return TruncatedOperator.generator(side, kind, i, cut, d, mode)


def build_vacuum_projection(cut, d, mode=EXACT):
    return TruncatedOperator.vacuum_projection(cut, d, mode)


def compose(x, y):
    return x.compose(y)


def adjoint(x):
    return x.adjoint()


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
    new_cut = x.cut - 1
    w = [scalars.coerce_scalar(v, x.mode) for v in weights.values]
    entries = {}
    z = scalars.zero(x.mode)
    for (row, col), val in x.entries.items():
        if not row or not col or row[0] != col[0]:
            continue
        if len(row) - 1 > new_cut or len(col) - 1 > new_cut:
            continue
        key = (row[1:], col[1:])
        entries[key] = entries.get(key, z) + w[row[0] - 1] * val
    entries = {k: v for k, v in entries.items() if not scalars.is_zero_scalar(v, x.mode)}
    return TruncatedOperator(entries, new_cut, x.d, x.mode, _trusted=True)


class HarmonicityReport:
    """Per-entry verdict of the fixed-point identity for P_omega."""

    __slots__ = ("ok", "defects", "checked_degree", "max_abs_defect")

    def __init__(self, ok, defects, checked_degree, max_abs_defect):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "defects", defects)
        object.__setattr__(self, "checked_degree", checked_degree)
        object.__setattr__(self, "max_abs_defect", max_abs_defect)

    def __setattr__(self, name, value):
        raise AttributeError("HarmonicityReport is immutable")

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
    defects = {}
    z = scalars.zero(x.mode)
    keys = set(stepped.entries) | {
        k for k in x.entries if len(k[0]) <= degree and len(k[1]) <= degree
    }
    worst = 0.0
    for key in keys:
        a = stepped.entries.get(key, z)
        b = x.entries.get(key, z)
        if not scalars.scalars_equal(a, b, x.mode, tol):
            diff = a - b
            defects[key] = diff
            worst = max(worst, abs(scalars.to_complex(diff)))
    return HarmonicityReport(not defects, defects, degree, worst)
