"""The fixed-point product on truncated operators.

Three realizations are provided:

* ``product_iterative`` -- compose, then iterate the Markov operator
  until the iterates stabilize exactly on the surviving block; this is
  the defining SOT-limit evaluated at desk scale.
* ``closed_form`` -- the exact closed form of r_A r_B* . x . r_C r_D*
  for harmonic x, computed by moving x's entries to new row and column
  words; ``closed_form_mixed`` fills its slots by kind (``FORMS``).
* ``cesaro_project`` -- Cesaro means of the Markov orbit, projecting
  onto harmonic elements.

Composition of two compressions is exact only away from the top
degrees; ``product_iterative`` therefore shrinks the comparison block
by a guard computed from the degree shifts of the factors, so that
stabilization detection never reads entries corrupted by truncation.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ModeMixError, StabilizationError
from .fock import (
    NO_AFFIX,
    TruncatedOperator,
    WordMap,
    check_word,
    check_word_budget,
    is_harmonic,
    markov_step,
    prefix,
    relabel,
    suffix,
    word_reverse,
)
from . import scalars


# -- generator compressions --------------------------------------------------
#
# r_W and l_W are word maps (see ``fock.WordMap``): built with no entries,
# their products with x move x's entries to new row or column words.


def op_right_creation(word, cut, d, mode=scalars.EXACT):
    """Compression of r_W = r_{w1} .. r_{wk}: e_V -> e_{V . W^op}."""
    word = check_word(word, d)
    check_word_budget("op_right_creation at cut %d" % cut, d, (cut - len(word),))
    return TruncatedOperator.lazy(
        WordMap((suffix(word_reverse(word), d), NO_AFFIX, cut - len(word))), cut, d, mode)


def op_left_creation(word, cut, d, mode=scalars.EXACT):
    """Compression of l_W: e_V -> e_{W . V}."""
    word = check_word(word, d)
    check_word_budget("op_left_creation at cut %d" % cut, d, (cut - len(word),))
    return TruncatedOperator.lazy(
        WordMap((prefix(word, d), NO_AFFIX, cut - len(word))), cut, d, mode)


def _creation_form(y, side, rev, weights, cut):
    """The entries of r_W . y + sum_t w(head) r_tail . P . y . l_head
    (side "row"), or of its mirror y . r_W* + sum_t w(head) l_head* . y
    . P . r_tail* (side "col"), for the entries y, where rev = W^op,
    head = (W^op)_t for t = 1..|W| and tail = W_{|W|-t}, so that
    tail^op = rev[t:].  The vacuum terms are summed into the moved
    entries of y in place."""
    other = "col" if side == "row" else "row"
    d, mode = weights.d, weights.mode
    out = relabel(y, side, d, cut - len(rev), add=suffix(rev, d))
    vac = relabel(y, side, d, 0)
    for t in range(1, len(rev) + 1):
        term = relabel(vac, other, d, cut, strip=prefix(rev[:t], d))
        term = relabel(term, side, d, cut - len(rev) + t, add=suffix(rev[t:], d))
        c = mode.coerce(weights.word_weight(rev[:t]))
        scalars.accumulate(((k, c * v) for k, v in term.items()), mode, into=out)
    return out


# -- iterative product ----------------------------------------------------------


def _up_shift(x):
    """Max over entries of |row| - |col|, clamped at 0 (how far x raises
    degree); cached on x by ``degree_shifts``."""
    return x.degree_shifts()[0]


def _down_shift(x):
    """Max over entries of |col| - |row|, clamped at 0 (how far x lowers
    degree); cached on x by ``degree_shifts``."""
    return x.degree_shifts()[1]


def product_iterative(x, y, weights, max_steps=None):
    """Fixed-point product as the stabilized limit of Markov iterates
    of the plain composition.

    Returns ``(result, steps_used)`` where ``steps_used`` is the
    smallest n with P^{n+1}(xy) = P^n(xy) on the surviving exact block;
    the result is P^{n+1}(xy) at cut - steps_used - 1.  Raises
    :class:`StabilizationError` (carrying the last two iterates) if the
    budget runs out first.
    """
    z = x.compose(y)
    # entries (R, C) of the composition are exact as long as
    # min(|R| + down_shift(x), |C| + up_shift(y)) <= cut
    guard = min(_down_shift(x), _up_shift(y))
    if max_steps is None:
        max_steps = z.cut - 1
    before, prev = None, z
    for n in range(max_steps + 1):
        if prev.cut < 1:
            break
        nxt = markov_step(prev, weights)
        safe_degree = nxt.cut - guard
        if safe_degree < 0:
            break
        if nxt.equal_on_block(prev, safe_degree):
            return nxt, n
        before, prev = prev, nxt
    raise StabilizationError(
        "no stabilization within the cut budget", last=prev, previous=before
    )


def certified_product(x, y, weights):
    """``product_iterative`` recut to the block that its guard certifies:
    ``(result, steps_used)``, the result at cut - steps_used - 1 - guard,
    where guard = min(down shift of x, up shift of y), so that no entry
    beyond it is read from a truncated composition."""
    guard = min(_down_shift(x), _up_shift(y))
    res, steps = product_iterative(x, y, weights)
    return res.recut(max(res.cut - guard, 0)), steps


# -- closed forms ---------------------------------------------------------------


# the slots of r_A r_B* . x . r_C r_D* that each kind's words fill, in order
FORMS = {"i": "C", "ii": "B", "iii": "CB", "iv": "A", "v": "D", "vi": "CD", "vii": "AB"}
FORM_KINDS = tuple(FORMS)


def closed_form(x, weights, left=((), ()), right=((), ()), check_harmonic=True):
    """Exact closed form of r_A r_B* . x . r_C r_D* for a harmonic x,
    with left = (A, B) and right = (C, D): strip B^op from the rows
    (r_B* . x) and C^op from the columns (x . r_C), then add the
    creation terms of r_A on the rows and of r_D* on the columns.  A
    step whose word is empty is skipped.  The result is exact on the
    degrees <= cut - (|A| + |B| + |C| + |D|)."""
    if x.d != weights.d or x.mode != weights.mode:
        raise ModeMixError("operator and weights are incompatible")
    if check_harmonic and not is_harmonic(x, weights):
        raise ValueError("closed forms require a harmonic operator")
    d, cut = x.d, x.cut
    A, B, C, D = (word_reverse(check_word(w, d)) for w in (*left, *right))
    entries = x.entries
    if B:
        entries = relabel(entries, "row", d, cut, strip=suffix(B, d))
    if C:
        entries = relabel(entries, "col", d, cut, strip=suffix(C, d))
    if A:
        entries = _creation_form(entries, "row", A, weights, cut)
    if D:
        entries = _creation_form(entries, "col", D, weights, cut)
    return TruncatedOperator(entries, cut, d, x.mode, _trusted=True)


def closed_form_mixed(kind, words, x, weights, check_harmonic=True):
    """``closed_form`` with a kind's words (I,) or (I, J) in its slots
    ``FORMS[kind]``: "i" x . r_I, "ii" r_I* . x, "iii" r_J* . x . r_I,
    "iv" r_I . x, "v" x . r_I*, "vi" x . r_I . r_J*, "vii" r_I . r_J* . x."""
    if kind not in FORM_KINDS:
        raise ValueError("unknown form %r" % (kind,))
    slots = FORMS[kind]
    if len(words) != len(slots):
        raise ValueError("form %r takes %d word(s), got %d"
                         % (kind, len(slots), len(words)))
    word = dict(zip(slots, words))
    A, B, C, D = (word.get(s, ()) for s in "ABCD")
    return closed_form(x, weights, (A, B), (C, D), check_harmonic)


# -- Cesaro projection -----------------------------------------------------------


def cesaro_project(x, weights):
    """Cesaro means of the Markov orbit of x.

    Returns ``(mean, stabilized)``.  Successive means are compared
    exactly (toleranced in float mode) on the surviving block; if the
    orbit hits exactly 0 at some step, the limit is 0 and is reported
    as stabilized (the nilpotent-orbit extrapolation).  If the cut is
    exhausted first, the last partial mean is returned with
    ``stabilized = False``.
    """
    orbit = x
    total = x
    prev_mean = x  # mean of the first 1 iterate
    for n in range(1, x.cut + 1):
        orbit = markov_step(orbit, weights)
        if not orbit.entries:
            # P^n(x) = 0 from here on: means decay like (constant)/n -> 0
            return TruncatedOperator.zero(orbit.cut, x.d, x.mode), True
        total = total.recut(orbit.cut) + orbit
        mean = total.scale(Fraction(1, n + 1))
        if mean.equal_on_block(prev_mean, mean.cut):
            return mean, True
        prev_mean = mean
    return prev_mean, False
