"""Truncated full Fock space over C^d and the weighted Markov operator.

Words over the alphabet {1, .., d} index the orthonormal basis
``e_I`` of the Fock space; the empty word indexes the vacuum.  All
operators are stored as sparse compressions to the span of words of
length <= cut ("compression semantics": creation out of the top degree
drops the term).  Each operation documents the degree block on which
its output is exact.

Inside a ``TruncatedOperator`` a word is an int, its *word code*.  With
b = ``letter_bits(d)`` bits per letter, the k-th letter a (k = 0 first)
is the digit a - 1 in bits k*b .. k*b + b - 1, so the first letter is
the least significant digit, and a 1 sits just above the last letter.
The empty word is 1, a word of length n has bit length n*b + 1, and the
word maps the Markov step and the closed forms need (strip or prepend
a first letter, strip or append a suffix, filter by length) are shifts
and masks.  Words stay tuples at the API edge: the constructor,
``entry``, ``word_entries``, JSON and ``HarmonicityReport.defects``
speak words.

Basis enumeration order is by length, then lexicographic, so every
serialization is deterministic.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from fractions import Fraction
from itertools import chain
from math import inf

from .errors import (
    CutExhaustedError,
    CutMismatchError,
    LetterRangeError,
    ModeMixError,
    TermBudgetError,
)
from .scalars import (
    EXACT,
    Frozen,
    accumulate,
    common_mode,
    field,
    subtract,
    term_cap,
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


def check_word_budget(what, d, lengths):
    """Refuse, before any work, to build one entry per word of length
    <= n over d letters, for each n in ``lengths``, when the entries
    would number more than ``term_cap()``."""
    cap = term_cap()
    total = 0
    for n in lengths:
        level = 1
        for _ in range(n + 1):
            total += level
            if total > cap:
                raise TermBudgetError(
                    "%s exceeded the term budget (%d)" % (what, cap))
            level *= d


# ---------------------------------------------------------------------------
# word codes (see the module docstring)


def letter_bits(d):
    """Bits per letter in the word codes over {1, .., d}."""
    return (d - 1).bit_length() or 1


def encode(word, d):
    """The code of a word over {1, .., d}."""
    b = letter_bits(d)
    code = 1
    for letter in reversed(check_word(word, d)):
        code = (code << b) | (letter - 1)
    return code


def decode(code, d):
    """The word of a code over {1, .., d}."""
    b = letter_bits(d)
    mask = (1 << b) - 1
    word = []
    while code > 1:
        word.append((code & mask) + 1)
        code >>= b
    return tuple(word)


def block_bound(degree, d):
    """The codes of the words over {1, .., d} of length <= degree are
    those below this."""
    return 1 << max(letter_bits(d) * degree + 1, 0)


_WORD_TABLES = {}  # d -> its kept _word_table; a function of d alone


def _word_table(d, max_len):
    """Per length n <= max_len, a tuple of the low n*b bits of the codes of
    the words of length n, in ``prepend_words``' order; kept if it fits the
    term budget."""
    table = _WORD_TABLES.get(d, ((0,),))
    if len(table) <= max_len:
        b = letter_bits(d)
        while len(table) <= max_len:
            table += (tuple([(w << b) | a for a in range(d) for w in table[-1]]),)
        if sum(map(len, table)) <= term_cap():
            _WORD_TABLES[d] = table
    return table


def prepend_words(row, col, d, max_len):
    """The code pairs (W row, W col) for the words W of length <= max_len,
    in length-then-lex order of W: (row << n*b | w, col << n*b | w) for
    each length n and low digits w in ``_word_table``."""
    if max_len < 0:
        return []
    b = letter_bits(d)
    out = []
    for n, level in enumerate(_word_table(d, max_len)[:max_len + 1]):
        R, C = row << n * b, col << n * b
        out += [(R | w, C | w) for w in level]
    return out


# ---------------------------------------------------------------------------
# word maps on codes
#
# An affix is ``(code, is_suffix)``: the word of the code, to sit after
# (suffix) or before (prefix) a word u.  ``NO_AFFIX`` is the empty word.

NO_AFFIX = (1, False)


def suffix(word, d):
    """The affix u -> u . word."""
    return encode(word, d), True


def prefix(word, d):
    """The affix u -> word . u."""
    return encode(word, d), False


def relabel(entries, side, d, top, strip=NO_AFFIX, add=NO_AFFIX):
    """The entries with each row (side "row") or column (side "col")
    word v = strip . u, for a word u of length <= top, moved to add . u,
    in entry order, values as they are; entries whose word has no such
    u are dropped.  One of ``strip`` and ``add`` is ``NO_AFFIX``.  With
    the affixes of a ``WordMap`` (rows, cols, top), the column side
    (strip rows, add cols) gives the entries of x . M and the row side
    (strip cols, add rows) those of M . x."""
    bound = block_bound(top, d)
    items = entries.items()
    code, is_suffix = strip if strip[0] != 1 else add
    if strip[0] != 1 and is_suffix:  # v = u . s: the top digits of v are s
        n, flip = code.bit_length(), code ^ 1
        if side == "col":
            return {(r, u): val for (r, c), val in items
                    if (k := c.bit_length() - n) >= 0 and c >> k == code
                    and (u := c ^ (flip << k)) < bound}
        return {(u, c): val for (r, c), val in items
                if (k := r.bit_length() - n) >= 0 and r >> k == code
                and (u := r ^ (flip << k)) < bound}
    if is_suffix:  # u -> u . s: s replaces the top 1 of u
        flip = code ^ 1
        if side == "col":
            return {(r, c ^ (flip << (c.bit_length() - 1))): val
                    for (r, c), val in items if c < bound}
        return {(r ^ (flip << (r.bit_length() - 1)), c): val
                for (r, c), val in items if r < bound}
    k = code.bit_length() - 1
    low = code ^ (1 << k)
    if strip[0] != 1:  # v = p . u: the low digits of v are those of p
        mask = (1 << k) - 1
        if side == "col":
            return {(r, u): val for (r, c), val in items
                    if c & mask == low and 0 < (u := c >> k) < bound}
        return {(u, c): val for (r, c), val in items
                if r & mask == low and 0 < (u := r >> k) < bound}
    # u -> p . u, the identity for the empty prefix
    if side == "col":
        return {(r, (c << k) | low): val for (r, c), val in items if c < bound}
    return {((r << k) | low, c): val for (r, c), val in items if r < bound}


def _by_row(entries):
    """Word-code entries (row, col) grouped by row: row -> [(col, value), ..]
    in entry order."""
    rows = {}
    get = rows.get
    for (row, col), value in entries.items():
        cols = get(row)
        if cols is None:
            rows[row] = [(col, value)]
        else:
            cols.append((col, value))
    return rows


# ---------------------------------------------------------------------------
# lazy values
#
# ``TruncatedOperator.lazy`` holds one of these in place of entries.  Each
# is a tuple, built from the tuple of its fields, so equality, hashing,
# copy and pickle are the tuple's.  Each gives its entries (``build``),
# adjoint, recut and degree shifts.


class WordMap(tuple):
    """The 0/1 operator with the entries (rows . u, cols . u), one for
    each word u of length <= top, in the length-then-lex order of u.
    ``rows`` and ``cols`` are affixes, at most one of them not empty:
    r_W has rows the suffix W^op, l_W the prefix W, their adjoints swap
    rows and cols, the identity at cut c has no affix and top c, and
    the vacuum projection no affix and top 0."""

    __slots__ = ()

    def __repr__(self):
        return "WordMap(rows=%r, cols=%r, top=%d)" % self

    def build(self, d, one):
        """The entries, each value ``one``."""
        rows, cols, top = self
        if rows[1] or cols[1] or rows == cols:
            # no prefix: the words u prepended to the suffixes
            return dict.fromkeys(prepend_words(rows[0], cols[0], d, top), one)
        # a prefix on one side: the identity at top, moved on that side
        side, affix = ("row", rows) if cols == NO_AFFIX else ("col", cols)
        return relabel(dict.fromkeys(prepend_words(1, 1, d, top), one),
                       side, d, top, add=affix)

    def adjoint(self):
        """The inverse word map: the affixes swapped."""
        rows, cols, top = self
        return WordMap((cols, rows, top))

    def recut(self, cut, d):
        """Top lowered to the longest u whose words fit ``cut``."""
        rows, cols, top = self
        longest = (max(rows[0], cols[0]).bit_length() - 1) // letter_bits(d)
        return WordMap((rows, cols, min(top, cut - longest)))

    def shifts(self, d):
        """The degree shifts, from the affixes."""
        rows, cols, top = self
        diff = 0 if top < 0 else rows[0].bit_length() - cols[0].bit_length()
        return max(diff, 0) // letter_bits(d), max(-diff, 0) // letter_bits(d)


class Power(tuple):
    """The second quantization Gamma(U) of a d x d unitary U on the
    words of length <= top, or its adjoint with ``star``.  ``letters``
    lists (j, i, step, u_ji) for each nonzero u_ji, where U e_j = sum_i
    u_ji e_i, j outer and i inner, with steps 1, B, B^2, .. for a base
    B > top.  A degree-n entry is the product of n letters' u_ji, so its
    value depends only on how many times each letter occurs: its
    exponent vector, carried as one int, the sum of their steps.  A
    product with a factor that is not a power reads a power on the
    left through ``build``, restricted to the entries it reaches, and
    one on the right through ``rows``, with no entries built."""

    __slots__ = ()

    def __repr__(self):
        return "Power(%d letters, top=%d, star=%r)" % (len(self[0]), self[1], self[2])

    @classmethod
    def of(cls, rows, cut):
        """Gamma(U) at ``cut``, where row j of ``rows`` lists U's nonzero
        u_ji as the pairs (i, u_ji), with steps in base cut + 1; refused
        before any work when its entries would exceed the term budget."""
        pairs = [(j, i, u) for j, image in enumerate(rows, 1) for i, u in image]
        check_word_budget("second_quantize at cut %d" % cut, len(pairs), (cut,))
        return cls((tuple((j, i, (cut + 1) ** n, u) for n, (j, i, u) in enumerate(pairs)),
                    cut, False))

    def build(self, d, one, words=None):
        """The entries.  Level n + 1 prepends the letter pair (i, j) of
        each letter, one letter at a time, to every entry of level n.
        With ``words``, a level keeps only the entries whose column word
        is a tail of a code in ``words`` (the word with none or more
        first letters stripped), so the result is the full entries less
        those whose column word is no such tail, in the same order:
        what a product with this power on the left reads.

        Each exponent vector's product is computed once, and its entries
        share that value object (see ``_values``)."""
        letters, top, star = self
        b = letter_bits(d)
        keep = None
        if words is not None:
            k = not star  # the column side in Gamma's own entries
            keep = set()
            for w in words:
                while w and w not in keep:
                    keep.add(w)
                    w >>= b
        # prepending the letter pair (i, j) to every entry of a level, one
        # letter pair at a time, lists the next level in the order of
        # appending each letter pair to each entry in turn
        level = {(1, 1): 0}
        codes = dict(level)
        for _ in range(top):
            level = {key: code + step
                     for j, i, step, _u in letters
                     for (row, col), code in level.items()
                     if (key := ((row << b) | (i - 1), (col << b) | (j - 1)))
                     and (keep is None or key[k] in keep)}
            codes.update(level)
        values = self._values(set(codes.values()), one)
        if star:
            return {(col, row): values[code] for (row, col), code in codes.items()}
        return {key: values[code] for key, code in codes.items()}

    def rows(self, words, d, one):
        """Row w of the entries for each code w in ``words``: the list of
        (col, value) of the entries (w, col), in ``build``'s order, empty
        for a word longer than ``top``; what a product with this power
        on the right reads, with no entries built.

        In ``build``'s order, the row of a word a . t lists, for each
        letter whose row letter is a (its column letter for the
        adjoint), in letter order, the row of t with that letter's
        other letter prepended to each column.  So each word's row is
        built once per call, from its tail's, and its values come from
        ``_values``, as ``build``'s do."""
        letters, top, star = self
        b = letter_bits(d)
        mask = (1 << b) - 1
        bound = block_bound(top, d)
        after = [[] for _ in range(d)]  # a row's first digit -> [(column digit, step)]
        for j, i, step, _u in letters:
            row, col = (j, i) if star else (i, j)
            after[row - 1].append((col - 1, step))
        images = {1: [(1, 0)]}  # word -> [(col, exponent code), ..]
        for w in words:
            path = []
            while w not in images:
                path.append(w)
                w >>= b
            for u in reversed(path):
                tail = images[u >> b]
                images[u] = [] if u >= bound else [
                    ((col << b) | a, code + step)
                    for a, step in after[u & mask] for col, code in tail]
        values = self._values({code for w in words for _, code in images[w]}, one)
        return {w: [(col, values[code]) for col, code in images[w]] for w in words}

    def _values(self, codes, one):
        """The value of each exponent code in ``codes``: ``one`` times the
        letters' u_ji in letter order, as the vector less its last
        letter times that letter's u_ji, one object per code.  The
        adjoint conjugates each value once."""
        letters, _top, star = self
        steps = [step for _j, _i, step, _u in letters]
        values = {0: one}
        for code in codes:
            path = []
            while code not in values:
                last = bisect_right(steps, code) - 1
                path.append((code, last))
                code -= steps[last]
            for code, last in reversed(path):
                values[code] = values[code - steps[last]] * letters[last][3]
        if star:
            return {code: values[code].conjugate() for code in codes}
        return values

    def adjoint(self):
        """Gamma(U)* of Gamma(U), and back."""
        letters, top, star = self
        return Power((letters, top, not star))

    def recut(self, cut, d):
        """Top lowered to a smaller ``cut``, and kept on a larger one."""
        letters, top, star = self
        return Power((letters, min(top, cut), star))

    def shifts(self, d):
        """Gamma(U) keeps every degree."""
        return 0, 0


# ---------------------------------------------------------------------------
# weight vectors


class WeightVector(Frozen):
    """A strictly positive weight vector summing to one.

    ``mode`` is the coefficient field, given as a field or its name.
    EXACT keeps the weights as Fractions and all downstream arithmetic
    is exact; FLOAT keeps floats and downstream comparisons are
    toleranced.
    """

    __slots__ = ("d", "values", "mode")

    def __init__(self, values, mode=EXACT):
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
        Frozen.__init__(self, d, values, mode)

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
        return self.mode == other.mode and self.values == other.values

    def __hash__(self):
        return hash((self.values, self.mode))

    def __repr__(self):
        return "WeightVector(%r, mode=%r)" % (list(self.values), self.mode)


def same_weights(a, b):
    if a != b:
        raise ModeMixError("operands belong to different weight sessions")
    return a


# ---------------------------------------------------------------------------
# truncated operators


class TruncatedOperator(Frozen):
    """Sparse compression of an operator to the degree <= cut block.

    ``entries[(r, c)]`` is the matrix element <x e_J, e_I>, where r and
    c are the codes of the words I and J.  The constructor takes word
    keys ``(I, J)``; with ``_trusted`` it takes code keys as they are.
    Values are immutable; all arithmetic returns new operators.

    ``_lazy`` is the lazy value (a ``WordMap`` or a ``Power``) of an
    operator that ``lazy`` built with no entries, else None.
    ``_entries`` is then None until something reads ``entries``, which
    builds them through the value and caches them.  ``adjoint`` and
    ``recut`` give the operator of the value's adjoint or recut, with no
    entries built.  ``_shifts`` caches ``degree_shifts()``: None until
    the first call computes it, unless the constructor that built the
    operator knew it (``_shifts`` with ``_trusted``, and ``lazy``, from
    the value).  None of these is part of equality or JSON; ``copy``
    and ``pickle`` keep them all.
    """

    __slots__ = ("_entries", "cut", "d", "mode", "_shifts", "_lazy")

    def __init__(self, entries, cut, d, mode=EXACT, _trusted=False, _shifts=None,
                 _lazy=None):
        if cut < 0:
            raise ValueError("cut must be >= 0, got %d" % cut)
        if _trusted:
            self._fill(entries, cut, d, mode, _shifts, _lazy)
            return
        mode = field(mode)
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
                clean[(encode(row, d), encode(col, d))] = val
        self._fill(clean, cut, d, mode, None, None)

    @property
    def entries(self):
        entries = self._entries
        if entries is None:  # a lazy operator's, built at the first read
            entries = self._lazy.build(self.d, self.mode.one)
            object.__setattr__(self, "_entries", entries)
        return entries

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, cut, d, mode=EXACT):
        return cls({}, cut, d, field(mode), _trusted=True, _shifts=(0, 0))

    @classmethod
    def lazy(cls, value, cut, d, mode=EXACT):
        """The operator of a lazy value at this cut, with no entries built;
        the caller has checked the words and the budget."""
        return cls(None, cut, d, field(mode), _trusted=True, _shifts=value.shifts(d),
                   _lazy=value)

    @classmethod
    def identity(cls, cut, d, mode=EXACT):
        check_word_budget("identity at cut %d" % cut, d, (cut,))
        return cls.lazy(WordMap((NO_AFFIX, NO_AFFIX, cut)), cut, d, mode)

    @classmethod
    def vacuum_projection(cls, cut, d, mode=EXACT):
        return cls.lazy(WordMap((NO_AFFIX, NO_AFFIX, 0)), cut, d, mode)

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
        entries = subtract(self.entries, other.entries, self.mode)
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

        The field's ``compose_sum`` sums the products: the dict that
        ``sum_products`` gives over the triples, keyed in the
        order of the left factor's entries, then of the right factor's.
        When a factor is a ``WordMap``, each result key gets one product,
        so the other factor's entries move to their new keys with no
        sum, and the field's ``moved_products`` takes the products with
        one: the same dict again.  A word map on the right relabels the
        left factor's columns in the order of its entries, and builds no
        entries of its own.  A word map on the left sets the key order
        by its entries, so they are built.  Otherwise ``compose_sum``
        joins what ``_reached`` gives of the left factor with the right
        factor's rows: those of a ``Power`` with no entries built,
        facing a factor that is not a power, are read through
        ``Power.rows`` at the left factor's column words, with no
        entries built; any other factor's are its entries grouped by
        row.
        """
        self._check_compatible(other)
        mode = self.mode
        lazy = other._lazy
        if isinstance(lazy, WordMap):
            rows, cols, top = lazy
            entries = mode.moved_products(
                relabel(self.entries, "col", self.d, top, rows, cols))
        elif isinstance(self._lazy, WordMap):
            # a word map on the left reads only its own middle words
            left = {mid for _, mid in self.entries}
            by_mid = {}
            for (mid, col), val in other.entries.items():
                if mid in left:
                    by_mid.setdefault(mid, []).append((col, val))
            entries = mode.moved_products(
                {(row, col): val
                 for row, mid in self.entries
                 for col, val in by_mid.get(mid, ())})
        else:
            if (other._entries is None and isinstance(lazy, Power)
                    and not isinstance(self._lazy, Power)):
                rows = lazy.rows({mid for _, mid in self.entries}, self.d, mode.one)
            else:
                rows = _by_row(other.entries)
            entries = mode.compose_sum(self._reached(other), rows)
        return TruncatedOperator(entries, self.cut, self.d, mode, _trusted=True)

    def _reached(self, other):
        """The entries ``compose`` reads of this factor on the left: of a
        ``Power`` with no entries built, facing a factor that is not a
        power, only those whose column word is a tail of one of the
        other factor's row words (see ``Power.build``), in the same
        order, so the product is the same dict."""
        power = self._lazy
        if (self._entries is not None or not isinstance(power, Power)
                or isinstance(other._lazy, Power)):
            return self.entries
        return power.build(self.d, self.mode.one, {row for row, _ in other.entries})

    def adjoint(self):
        """The conjugate transpose.  Entries may share value objects (the
        entries of a ``Power`` do; no kernel changes a value, each
        mutates only the sums it allocates).  Each distinct value object
        is conjugated once, so the adjoint's entries share the conjugates
        in the same way.  A lazy operator's adjoint is that of its value,
        with no entries built."""
        if self._lazy is not None:
            return TruncatedOperator.lazy(self._lazy.adjoint(), self.cut, self.d,
                                          self.mode)
        shifts = self._shifts
        if shifts is not None:
            shifts = shifts[::-1]
        entries = {}
        conjugates = {}  # id(v) -> conj(v), while self holds each v
        get = conjugates.get
        for (r, c), v in self.entries.items():
            w = get(id(v))
            if w is None:
                w = conjugates[id(v)] = v.conjugate()
            entries[c, r] = w
        return TruncatedOperator(entries, self.cut, self.d, self.mode, _trusted=True,
                                 _shifts=shifts)

    def degree_shifts(self):
        """``(up, down)``: the largest |I| - |J| and the largest
        |J| - |I| over the entries (I, J), each clamped at 0, so how
        far the operator raises and lowers degree.  Computed at the
        first call and cached on the operator."""
        shifts = self._shifts
        if shifts is None:
            diffs = {r.bit_length() - c.bit_length() for r, c in self.entries}
            b = letter_bits(self.d)
            shifts = (max(0, max(diffs, default=0)) // b,
                      max(0, -min(diffs, default=0)) // b)
            object.__setattr__(self, "_shifts", shifts)
        return shifts

    def entry(self, row, col):
        try:
            key = encode(row, self.d), encode(col, self.d)
        except LetterRangeError:
            return self.mode.zero
        return self.entries.get(key, self.mode.zero)

    def word_entries(self):
        """The entries keyed by word pairs (I, J), in storage order."""
        d = self.d
        return {(decode(r, d), decode(c, d)): v for (r, c), v in self.entries.items()}

    # -- cut management ---------------------------------------------------

    def _block(self, degree):
        """The entries whose row and column words have length <= degree
        (the entries themselves when that is the whole operator)."""
        if degree >= self.cut:
            return self.entries
        bound = block_bound(degree, self.d)
        return {k: v for k, v in self.entries.items()
                if k[0] < bound and k[1] < bound}

    def recut(self, new_cut):
        """Restrict (or formally extend) to a new cut.  Shrinking drops
        entries above the new cut; growing adds no entries, so growing
        is only meaningful for operators supported in low degree.  A
        lazy operator's recut is that of its value, with no entries
        built."""
        if new_cut == self.cut:
            return self
        if self._lazy is not None:
            return TruncatedOperator.lazy(self._lazy.recut(new_cut, self.d), new_cut,
                                          self.d, self.mode)
        return TruncatedOperator(self._block(new_cut), new_cut, self.d, self.mode,
                                 _trusted=True)

    # -- comparisons ------------------------------------------------------

    def equal_on_block(self, other, degree, tol=1e-12):
        """Entrywise equality on the degree <= ``degree`` block (exact in
        exact mode, within tol otherwise)."""
        common_mode(self.mode, other.mode)
        return self.mode.same_entries(
            self._block(degree), other._block(degree), tol)

    def max_block_diff(self, other, degree):
        """Largest |entry difference| on the degree <= degree block."""
        a, b = self._block(degree), other._block(degree)
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
        held = ("%d entries" % len(self._entries) if self._lazy is None
                else repr(self._lazy))
        return "TruncatedOperator(%s, cut=%d, d=%d, mode=%r)" % (
            held, self.cut, self.d, self.mode)

    # -- serialization ----------------------------------------------------

    def to_json(self):
        items = []
        words = self.word_entries()
        for (row, col) in sorted(
            words, key=lambda rc: (len(rc[0]), rc[0], len(rc[1]), rc[1])
        ):
            rec = {"row": format_word(row), "col": format_word(col)}
            rec.update(self.mode.to_json(words[(row, col)]))
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


def strip_first_letters(x, table):
    """sum_{j,k} table[j][k] <x e_{kJ}, e_{jI}> on the degree <= cut - 1
    block: strip the first letter of row and column and weight by a
    d x d table of the field's values, None standing for zero, in one
    walk over x's entries: the field's ``step_sums``."""
    if x.cut < 1:
        raise CutExhaustedError("cannot apply a Markov step at cut 0")
    entries = x.mode.step_sums(x.entries, table, letter_bits(x.d))
    return TruncatedOperator(entries, x.cut - 1, x.d, x.mode, _trusted=True)


def _diagonal(weights):
    """The table diag(w) of ``strip_first_letters``, from weights coerced
    into the field."""
    return [[w if a == b else None for b in range(len(weights))]
            for a, w in enumerate(weights)]


def markov_step(x, weights):
    """One application of the weighted Markov operator.

    <P(x) e_J, e_I> = sum_i w_i <x e_{iJ}, e_{iI}>, evaluated on the
    degree <= cut - 1 block, which is exact whenever the entries of x
    are exact up to the cut.  It is ``strip_first_letters`` with the
    table diag(w).
    """
    if x.d != weights.d or x.mode != weights.mode:
        raise ModeMixError("operator and weights are incompatible")
    return strip_first_letters(x, _diagonal([x.mode.coerce(v) for v in weights.values]))


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


def harmonic_defects(mode, entries, weights, bits, bound, tol=1e-12):
    """The dict of sum_a w_a x[ar, ac] - x[r, c] beyond ``tol`` at x's
    word-code keys below ``bound``: d lookups an entry, summed in the
    field's arithmetic with the weights coerced once, then ``_lacking``.

    An entry v whose d lookups all return v itself, the same object, has
    the defect v (w_1 + .. + w_d - 1).  It is settled with no sum when
    |v| is at most the field's ``identity_limit``: at any |v| when the
    weights sum to exactly one, as the defect is then zero, and in float
    otherwise where a rounding bound puts the skipped sum within ``tol``.
    So the dict is the one that summing every entry gives, the same keys
    in the same order and the same values bit for bit, but that with
    weights summing to exactly one such an entry is never a defect, even
    where its rounded float sum would exceed ``tol``."""
    limit = mode.identity_limit(weights, tol)
    unbounded = limit == inf
    weights = [mode.coerce(w) for w in weights]
    letters = list(enumerate(weights))
    d = len(weights)
    digits = range(d)
    mask = (1 << bits) - 1
    get = entries.get
    near_zero = mode.near_zero
    defects = {}
    same = hits = 0
    for (r, c), v in entries.items():
        if r > mask and c > mask and not (r ^ c) & mask:
            same += 1
        if r >= bound or c >= bound:
            continue
        R, C = r << bits, c << bits
        if limit is not None:
            for digit in digits:
                if get((R | digit, C | digit)) is not v:
                    break
            else:
                if unbounded or abs(v) <= limit:
                    hits += d
                    continue
        s = -v
        for digit, w in letters:
            y = get((R | digit, C | digit))
            if y is not None:
                hits += 1
                s += w * y
        if not near_zero(s, tol):
            defects[r, c] = s
    return _lacking(mode, entries, weights, bits, same - hits, defects, tol)


def _lacking(mode, entries, weights, bits, short, defects, tol):
    """``defects`` and the Markov step's sums beyond ``tol`` at keys x lacks:
    an entry whose words share a first letter is one lookup's hit unless x
    lacks its stripped key, so the field's ``step_sums`` runs only when hits
    fall short.  ``weights`` are in the field."""
    if short:
        lacking = {k: y for k, y in entries.items()
                   if (k[0] >> bits, k[1] >> bits) not in entries}
        for key, s in mode.step_sums(lacking, _diagonal(weights), bits).items():
            if not mode.near_zero(s, tol):
                defects[key] = s
    return defects


def is_harmonic(x, weights, tol=1e-12):
    """Check <x e_J, e_I> = sum_i w_i <x e_{iJ}, e_{iI}> on all (I, J)
    with |I|, |J| <= cut - 1.  ``defects`` maps failing word pairs
    (I, J) to P(x) - x entry values.  ``harmonic_defects`` decides it in
    one walk over x, with no Markov step built, for both fields, which
    give only the arithmetic and the identity limit.  An entry held by
    all its successors is settled with no sum where its defect is zero
    (weights summing to exactly one) or, in float, where the rounding
    bound of ``_Float.identity_limit`` puts the sum within ``tol``; the
    report is the one that summing every entry gives, bit for bit."""
    if x.cut < 1:
        raise CutExhaustedError("need cut >= 1 to test harmonicity")
    if x.d != weights.d or x.mode != weights.mode:
        raise ModeMixError("operator and weights are incompatible")
    d = x.d
    degree = x.cut - 1
    found = harmonic_defects(x.mode, x.entries, weights.values, letter_bits(d),
                             block_bound(degree, d), tol)
    defects = {(decode(r, d), decode(c, d)): v for (r, c), v in found.items()}
    worst = max((abs(complex(v)) for v in found.values()), default=0.0)
    return HarmonicityReport(not found, defects, degree, worst)
