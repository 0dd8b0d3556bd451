"""Desk-scale structural probes of the fixed-point algebra.

The probes examine finite spans of monomials only; they report what
holds on the tested span and never claim more.  Covered: one exact
commutant solver on a span, and through it the diagonal subalgebra's
within-span commutant and a center probe with an infinite-factor
witness; the shift endomorphism alpha with its flip unitaries, norm
convergence of the conjugation approximation to alpha on diagonal
monomials, and the diffuseness obstruction to minimal diagonal
projections.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import scalars
from .algebra import CuntzElement, Monomial, expanded, levels
from .errors import TermBudgetError
from .exact_linalg import RowReducer, span_equal
from .fock import EMPTY_WORD, format_word, words_of_length, words_up_to

# the largest span that ``commutant`` solves: measured on a 2 vCPU
# x86_64 VM, Python 3.11, the masa probe takes 5.7 s at d = 7, L = 2
# (3185 coordinates) and 11 s at d = 8, L = 2 (5248)
DIMENSION_CAP = 5000


# -- diagonal subalgebra -------------------------------------------------------


def is_diagonal(x, tol=1e-12):
    """Test phi(r_K* . x . r_L) = 0 for all K != L up to the element's
    word-length bound."""
    weights = x.weights
    bound = x.normal_form().max_word_length()
    for k_len in range(bound + 1):
        for l_len in range(bound + 1):
            for K in words_of_length(weights.d, k_len):
                left = CuntzElement.monomial(weights, EMPTY_WORD, K) * x
                for L in words_of_length(weights.d, l_len):
                    if K == L:
                        continue
                    val = (left * CuntzElement.monomial(weights, L, EMPTY_WORD)
                           ).vacuum_state()
                    if not weights.mode.near_zero(val, tol):
                        return False
    return True


# -- canonical coordinates ------------------------------------------------------


def canonical_basis(d, L):
    """Monomials at the maximal expansion level of each degree class:
    a linearly independent spanning set for the word-length <= L span."""
    out = []
    for k in range(-L, L + 1):
        m = L - max(k, 0)
        for I in words_of_length(d, m + k):
            for J in words_of_length(d, m):
                out.append(Monomial(I, J))
    return out


def joint_coordinates(elements, weights):
    """Express several elements in one common coordinate system: per
    degree class, everything is expanded to the largest |J| occurring
    in any of the elements.  Returns (keys, rows), each row a dict of
    its element's nonzero coordinates by column, as rationals
    (``rational`` of the field); coefficients must be real (the
    structure constants here are)."""
    level = levels(mono for el in elements for mono in el.terms)
    index = {}  # piece -> column, in order of first appearance
    rows = [
        scalars.accumulate(
            ((index.setdefault(piece, len(index)), coeff)
             for piece, coeff in expanded(el.terms.items(), weights.d, level)),
            weights.mode)
        for el in elements
    ]
    rational = weights.mode.rational
    return list(index), [{j: rational(c) for j, c in row.items()} for row in rows]


# -- commutants ------------------------------------------------------------------


def span_dimension(d, L):
    """The number of canonical coordinates of the word-length <= L span,
    len(canonical_basis(d, L)), with no basis built."""
    return d ** (2 * L) + 2 * sum(d ** (2 * L - j) for j in range(1, L + 1))


def commutant(weights, L, generators):
    """The elements of the word-length <= L span that commute with every
    generator: ``(basis, vectors)``, the canonical basis and a basis of
    the nullspace of the constraints sum_b c_b [b, g] = 0, in its
    coordinates.  A span of more than ``DIMENSION_CAP`` coordinates is
    refused before any product is formed."""
    size = span_dimension(weights.d, L)
    if size > DIMENSION_CAP:
        raise TermBudgetError("commutant span of word length %d has %d "
                              "coordinates (cap %d)" % (L, size, DIMENSION_CAP))
    basis = canonical_basis(weights.d, L)
    elements = [CuntzElement.monomial(weights, mono.I, mono.J) for mono in basis]
    reducer = RowReducer(size)
    for g in generators:
        _, rows = joint_coordinates([b * g - g * b for b in elements], weights)
        # one constraint per coordinate of the commutators
        constraints = {}
        for b, row in enumerate(rows):
            for key, c in row.items():
                constraints.setdefault(key, {})[b] = c
        for constraint in constraints.values():
            reducer.add_row(constraint)
    return basis, reducer.nullspace()


def _by_field(report):
    """The JSON of a report whose fields are JSON values: its fields by name."""
    return {name: getattr(report, name) for name in report.__slots__}


# -- masa probe ------------------------------------------------------------------


class MasaProbeReport(scalars.Frozen):
    __slots__ = (
        "max_len", "span_dimension", "commutant_dimension",
        "diagonal_dimension", "matches_diagonal", "generator_count",
    )

    to_json = _by_field

    def __bool__(self):
        return self.matches_diagonal


def masa_commutant_probe(weights, L=None):
    """Solve x . g = g . x within the word-length <= L span, for all
    diagonal generators g = M(I, I) with |I| <= L, and compare the
    solution space with the diagonal span.  By default L is the longest,
    at most 2, whose span fits ``DIMENSION_CAP``."""
    d = weights.d
    if L is None:
        L = max(n for n in (1, 2) if span_dimension(d, n) <= DIMENSION_CAP)
    diagonal_words = words_up_to(d, L)
    generators = [CuntzElement.monomial(weights, I, I) for I in diagonal_words]
    basis, solution = commutant(weights, L, generators)
    index = {mono: i for i, mono in enumerate(basis)}
    diagonal = [{index[piece]: one for piece, one in
                 expanded([(Monomial(I, I), Fraction(1))], d, {0: L})}
                for I in diagonal_words]
    diag_reducer = RowReducer()
    return MasaProbeReport(
        max_len=L,
        span_dimension=len(basis),
        commutant_dimension=len(solution),
        diagonal_dimension=sum(map(diag_reducer.add_row, diagonal)),
        matches_diagonal=span_equal(solution, diagonal),
        generator_count=len(generators),
    )


# -- center probe ----------------------------------------------------------------


class CenterProbeReport(scalars.Frozen):
    __slots__ = (
        "max_len", "span_dimension", "commutant_dimension", "is_central",
        "isometry_witness", "range_projection_witness",
    )

    to_json = _by_field

    def __bool__(self):
        return self.is_central


def center_probe(x, tol=1e-12):
    """Is x central, and what is central in its span?

    With the generators r_i and r_i*, reports the commutant of the
    word-length <= L span, L being x's word-length bound (at least 1),
    solved exactly; whether x commutes with each generator; and the
    infinite-factor witness pair r_1* . r_1 = 1 versus r_1 . r_1* != 1."""
    weights = x.weights
    L = max(1, x.normal_form().max_word_length())
    creations = [CuntzElement.right_creation(weights, i)
                 for i in range(1, weights.d + 1)]
    generators = [g for r in creations for g in (r, r.adjoint())]
    basis, solution = commutant(weights, L, generators)
    r1 = creations[0]
    one = CuntzElement.identity(weights)
    return CenterProbeReport(
        max_len=L,
        span_dimension=len(basis),
        commutant_dimension=len(solution),
        is_central=all((x * g - g * x).is_zero(tol) for g in generators),
        isometry_witness=(r1.adjoint() * r1 - one).is_zero(tol),
        range_projection_witness=(r1 * r1.adjoint() - one).is_zero(tol),
    )


# -- shift endomorphism and flip unitaries ----------------------------------------


def alpha_endo(x):
    """alpha(x) = sum_i r_i . x . r_i*."""
    weights = x.weights
    out = CuntzElement.zero(weights)
    for i in range(1, weights.d + 1):
        r = CuntzElement.right_creation(weights, i)
        out = out + r * x * r.adjoint()
    return out


def _flip_element(weights):
    terms = {}
    one = weights.mode.one
    for i in range(1, weights.d + 1):
        for j in range(1, weights.d + 1):
            terms[Monomial((i, j), (j, i))] = one
    return CuntzElement(terms, weights)


def flip_unitary(weights, k):
    """u_k = v . alpha(v) . ... . alpha^{k-1}(v), where v swaps the two
    innermost tensor slots."""
    if k < 1:
        raise ValueError("k must be >= 1")
    v = _flip_element(weights)
    out = v
    power = v
    for _ in range(1, k):
        power = alpha_endo(power)
        out = out * power
    return out


class DRReport(scalars.Frozen):
    """Per-step distance between alpha(R) and the flip-conjugated R."""

    __slots__ = ("norms", "first_zero", "stable_through", "partial")

    def to_json(self):
        return {
            "gns_norms": [float(v) for v in self.norms],
            "first_zero": self.first_zero,
            "stable_through": self.stable_through,
            "partial": self.partial,
        }


def dr_convergence(R, weights, n_max=6):
    """GNS distance of u_n . R . u_n* from alpha(R) for n = 1..n_max.

    R must be a diagonal monomial M(I, I).  Reports the exact GNS norm
    per step, the first n with an exactly zero difference, and the last
    n through which the difference stays zero."""
    if isinstance(R, Monomial):
        if R.I != R.J:
            raise ValueError("R must be a diagonal monomial")
        R = CuntzElement.monomial(weights, R.I, R.J)
    target = alpha_endo(R)
    norms = []
    first_zero = None
    stable_through = None
    partial = False
    try:
        for n in range(1, n_max + 1):
            u = flip_unitary(weights, n)
            delta = target - u * R * u.adjoint()
            nsq = delta.gns_norm_sq()
            norms.append(math.sqrt(complex(nsq).real))
            if delta.is_zero():
                if first_zero is None:
                    first_zero = n
                stable_through = n
            elif first_zero is not None:
                stable_through = None
                first_zero = None
    except TermBudgetError:
        partial = True
    return DRReport(tuple(norms), first_zero, stable_through, partial)


# -- diffuseness probe -------------------------------------------------------------


class MinimalProjectionReport(scalars.Frozen):
    """The values are coefficients of ``mode``, which writes them: exact
    in the exact field."""

    __slots__ = (
        "is_projection", "split_length", "positive_branches",
        "branch_growth", "phi_value", "mode",
    )

    def to_json(self):
        return {
            "is_projection": self.is_projection,
            "split_length": self.split_length,
            "positive_branches": [
                format_word(w) for w in (self.positive_branches or [])
            ],
            "branch_growth": [self.mode.to_json(v) for v in self.branch_growth],
            "phi_value": self.mode.to_json(self.phi_value),
        }


def minimal_projection_probe(q, L, tol=1e-12):
    """Replay the no-minimal-diagonal-projection argument on a span.

    For a diagonal projection q, either two distinct words of some
    length m <= L give phi(r_I* . q . r_I) > 0 (q splits, so it was not
    minimal), or the single surviving branch forces geometric growth
    phi(q)/w_I of the compressions, which is unbounded.  A compression
    of a projection is >= 0, so it is positive when it is not zero."""
    weights = q.weights
    mode = weights.mode
    if not is_diagonal(q, tol):
        raise ValueError("q must be diagonal")
    if not (q * q - q).is_zero(tol) or not (q.adjoint() - q).is_zero(tol):
        raise ValueError("q must be a self-adjoint idempotent")

    def compression(I):
        return (
            CuntzElement.monomial(weights, EMPTY_WORD, I)
            * q
            * CuntzElement.monomial(weights, I, EMPTY_WORD)
        ).vacuum_state()

    growth = []
    split_length = positives = None
    for m in range(1, L + 1):
        values = {I: compression(I) for I in words_of_length(weights.d, m)}
        branches = [I for I, v in values.items() if not mode.near_zero(v, tol)]
        if len(branches) >= 2:
            split_length, positives = m, branches
            break
        if not branches:
            break
        growth.append(values[branches[0]])
    return MinimalProjectionReport(
        True, split_length, positives, tuple(growth), q.vacuum_state(), mode)
