"""The fixed-point product on truncated operators.

Three realizations are provided:

* ``product_iterative`` -- compose, then iterate the Markov operator
  until the iterates stabilize exactly on the surviving block; this is
  the defining SOT-limit evaluated at desk scale.
* ``closed_form_mixed`` -- the seven exact closed forms for products
  with right-creation words, valid for harmonic x.
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


# -- generator compressions used by the closed forms -------------------------


def op_right_creation(word, cut, d, mode=scalars.EXACT):
    """Compression of r_W = r_{w1} .. r_{wk}: e_V -> e_{V . W^op}."""
    word = check_word(word, d)
    rev = word_reverse(word)
    one = scalars.one(mode)
    entries = {}
    for v in words_up_to(d, cut - len(word)):
        entries[(v + rev, v)] = one
    return TruncatedOperator(entries, cut, d, mode, _trusted=True)


def op_left_creation(word, cut, d, mode=scalars.EXACT):
    """Compression of l_W: e_V -> e_{W . V}."""
    word = check_word(word, d)
    one = scalars.one(mode)
    entries = {}
    for v in words_up_to(d, cut - len(word)):
        entries[(word + v, v)] = one
    return TruncatedOperator(entries, cut, d, mode, _trusted=True)


def _prefixes(word):
    # ((I^op)_t for t = 1..|I|) together with the complementary I_{|I|-t}
    rev = word_reverse(word)
    out = []
    for t in range(1, len(word) + 1):
        out.append((t, rev[:t], word[: len(word) - t]))
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
    if isinstance(kind, int):
        kind = FORM_KINDS[kind - 1]
    if kind not in FORM_KINDS:
        raise ValueError("unknown form %r" % (kind,))
    if check_harmonic and not is_harmonic(x, weights):
        raise ValueError("closed forms require a harmonic operator")
    cut, d, mode = x.cut, x.d, x.mode

    def R(w):
        return op_right_creation(w, cut, d, mode)

    def L(w):
        return op_left_creation(w, cut, d, mode)

    P = TruncatedOperator.vacuum_projection(cut, d, mode)

    if kind == "i":
        (I,) = words
        return x.compose(R(I))
    if kind == "ii":
        (I,) = words
        return R(I).adjoint().compose(x)
    if kind == "iii":
        I, J = words
        return R(J).adjoint().compose(x).compose(R(I))
    if kind == "iv":
        (I,) = words
        out = R(I).compose(x)
        for t, head, tail in _prefixes(I):
            term = R(tail).compose(P).compose(x).compose(L(head))
            out = out + term.scale(weights.word_weight(head))
        return out
    if kind == "v":
        (I,) = words
        out = x.compose(R(I).adjoint())
        for t, head, tail in _prefixes(I):
            term = L(head).adjoint().compose(x).compose(P).compose(R(tail).adjoint())
            out = out + term.scale(weights.word_weight(head))
        return out
    if kind == "vi":
        I, J = words
        xr = x.compose(R(I))
        out = xr.compose(R(J).adjoint())
        for t, head, tail in _prefixes(J):
            term = L(head).adjoint().compose(xr).compose(P).compose(R(tail).adjoint())
            out = out + term.scale(weights.word_weight(head))
        return out
    # kind == "vii"
    I, J = words
    rx = R(J).adjoint().compose(x)
    out = R(I).compose(rx)
    for t, head, tail in _prefixes(I):
        term = R(tail).compose(P).compose(rx).compose(L(head))
        out = out + term.scale(weights.word_weight(head))
    return out


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
        mean = total.scale(Fraction(1, n + 1) if x.mode == scalars.EXACT else 1.0 / (n + 1))
        if mean.equal_on_block(prev_mean, mean.cut):
            return mean, True
        prev_mean = mean
    return prev_mean, False
