"""The fixed-point product on truncated operators.

Three realizations are provided:

* ``product_iterative`` -- compose, then iterate the Markov operator
  until the iterates stabilize exactly on the surviving block; this is
  the defining SOT-limit evaluated at desk scale.
* ``closed_form_mixed`` -- the seven exact closed forms for products
  with right-creation words, valid for harmonic x, computed by moving
  x's entries to new row and column words.
* ``cesaro_project`` -- Cesaro means of the Markov orbit, projecting
  onto harmonic elements.

Composition of two compressions is exact only away from the top
degrees; ``product_iterative`` therefore shrinks the comparison block
by a guard computed from the degree shifts of the factors, so that
stabilization detection never reads entries corrupted by truncation.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CutExhaustedError, StabilizationError
from .fock import (
    TruncatedOperator,
    check_word,
    is_harmonic,
    markov_step,
    word_reverse,
    words_up_to,
)
from . import scalars


# -- generator compressions --------------------------------------------------


def op_right_creation(word, cut, d, mode=scalars.EXACT):
    """Compression of r_W = r_{w1} .. r_{wk}: e_V -> e_{V . W^op}."""
    word = check_word(word, d)
    rev = word_reverse(word)
    one = scalars.field(mode).one
    entries = {}
    for v in words_up_to(d, cut - len(word)):
        entries[(v + rev, v)] = one
    return TruncatedOperator(entries, cut, d, mode, _trusted=True)


def op_left_creation(word, cut, d, mode=scalars.EXACT):
    """Compression of l_W: e_V -> e_{W . V}."""
    word = check_word(word, d)
    one = scalars.field(mode).one
    entries = {}
    for v in words_up_to(d, cut - len(word)):
        entries[(word + v, v)] = one
    return TruncatedOperator(entries, cut, d, mode, _trusted=True)


# -- products with generators as word relabelings -------------------------------
#
# r_W, r_W*, l_W* and the vacuum projection are partial isometries with
# 0/1 entries on injective word maps, so a product of one of them with
# x moves x's entries to new row or column words and keeps their values.
# Each map below returns the new word, or None where the product has no
# entry (the word lacks the affix, or the appended word passes the cut).


def _relabel(x, side, word_map):
    """x with each row (side "row") or column (side "col") word v moved
    to word_map(v); entries whose word maps to None are dropped."""
    if side == "row":
        entries = {(new, c): val for (r, c), val in x.entries.items()
                   if (new := word_map(r)) is not None}
    else:
        entries = {(r, new): val for (r, c), val in x.entries.items()
                   if (new := word_map(c)) is not None}
    return TruncatedOperator(entries, x.cut, x.d, x.mode, _trusted=True)


def _strip_suffix(s):
    # x . r_W on columns, r_W* . x on rows, with s = W^op
    k = len(s)
    return lambda v: v[: len(v) - k] if v[len(v) - k:] == s else None


def _strip_prefix(p):
    # x . l_W on columns, l_W* . x on rows, with p = W
    k = len(p)
    return lambda v: v[k:] if v[:k] == p else None


def _append(s, cut):
    # r_W . x on rows, x . r_W* on columns, with s = W^op
    k = len(s)
    return lambda v: v + s if len(v) + k <= cut else None


def _vacuum(v):
    # the vacuum projection P on either side
    return None if v else v


def _creation_form(y, side, rev, weights):
    """r_W . y + sum_t w(head) r_tail . P . y . l_head (side "row"), or
    its mirror y . r_W* + sum_t w(head) l_head* . y . P . r_tail*
    (side "col"), where rev = W^op, head = (W^op)_t for t = 1..|W| and
    tail = W_{|W|-t}, so that tail^op = rev[t:]."""
    other = "col" if side == "row" else "row"
    out = _relabel(y, side, _append(rev, y.cut))
    vac = _relabel(y, side, _vacuum)
    for t in range(1, len(rev) + 1):
        term = _relabel(vac, other, _strip_prefix(rev[:t]))
        term = _relabel(term, side, _append(rev[t:], y.cut))
        out = out + term.scale(weights.word_weight(rev[:t]))
    return out


# -- iterative product ----------------------------------------------------------


def _up_shift(x):
    """Max over entries of |row| - |col| (how far x raises degree)."""
    if not x.entries:
        return 0
    return max(0, max(len(r) - len(c) for r, c in x.entries))


def _down_shift(x):
    """Max over entries of |col| - |row| (how far x lowers degree)."""
    if not x.entries:
        return 0
    return max(0, max(len(c) - len(r) for r, c in x.entries))


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
    # min(|C| + up_shift(x), |R| + down_shift(y)) <= cut
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


# -- closed forms ---------------------------------------------------------------


FORM_KINDS = ("i", "ii", "iii", "iv", "v", "vi", "vii")


def closed_form_mixed(kind, words, x, weights, check_harmonic=True):
    """Exact closed form for the mixed product of a harmonic x with
    right-creation words.

    kind (words) -> formula:
      "i"   (I,)    x . r_I
      "ii"  (I,)    r_I* . x
      "iii" (I, J)  r_J* . x . r_I
      "iv"  (I,)    r_I . x
      "v"   (I,)    x . r_I*
      "vi"  (I, J)  x . r_I . r_J*
      "vii" (I, J)  r_I . r_J* . x
    """
    if isinstance(kind, int) and 1 <= kind <= len(FORM_KINDS):
        kind = FORM_KINDS[kind - 1]
    if kind not in FORM_KINDS:
        raise ValueError("unknown form %r" % (kind,))
    if check_harmonic and not is_harmonic(x, weights):
        raise ValueError("closed forms require a harmonic operator")
    if kind in ("iii", "vi", "vii"):
        I, J = words
        rj = word_reverse(check_word(J, x.d))
    else:
        (I,) = words
    ri = word_reverse(check_word(I, x.d))

    if kind == "i":
        return _relabel(x, "col", _strip_suffix(ri))
    if kind == "ii":
        return _relabel(x, "row", _strip_suffix(ri))
    if kind == "iii":
        rx = _relabel(x, "row", _strip_suffix(rj))
        return _relabel(rx, "col", _strip_suffix(ri))
    if kind == "iv":
        return _creation_form(x, "row", ri, weights)
    if kind == "v":
        return _creation_form(x, "col", ri, weights)
    if kind == "vi":
        return _creation_form(_relabel(x, "col", _strip_suffix(ri)), "col", rj, weights)
    # kind == "vii"
    return _creation_form(_relabel(x, "row", _strip_suffix(rj)), "row", ri, weights)


# -- Cesaro projection -----------------------------------------------------------


def cesaro_project(x, weights, max_n=None):
    """Cesaro means of the Markov orbit of x.

    Returns ``(mean, stabilized)``.  Successive means are compared
    exactly (toleranced in float mode) on the surviving block; if the
    orbit hits exactly 0 at some step, the limit is 0 and is reported
    as stabilized (the nilpotent-orbit extrapolation).  If the cut is
    exhausted first, the last partial mean is returned with
    ``stabilized = False``.
    """
    if max_n is None:
        max_n = x.cut
    if max_n > x.cut:
        raise CutExhaustedError("max_n %d exceeds the cut %d" % (max_n, x.cut))
    orbit = x
    total = x
    prev_mean = x  # mean of the first 1 iterate
    for n in range(1, max_n + 1):
        if orbit.cut < 1:
            break
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
