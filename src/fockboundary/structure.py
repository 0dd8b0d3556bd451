"""Desk-scale structural probes of the fixed-point algebra.

The probes examine finite spans of monomials only; they report what
holds on the tested span and never claim more.  Covered: the diagonal
subalgebra and its within-span commutant, central-element conditions
with an infinite-factor witness, the shift endomorphism alpha with its
flip unitaries, norm convergence of the conjugation approximation to
alpha on diagonal monomials, and the diffuseness obstruction to
minimal diagonal projections.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import scalars
from .algebra import CuntzElement, Monomial
from .errors import TermBudgetError
from .exact_linalg import RowReducer, span_equal
from .fock import EMPTY_WORD, words_of_length, words_up_to

DIMENSION_CAP = 20000


# -- diagonal subalgebra -------------------------------------------------------


def diagonal_part(x):
    """Keep the I = J monomials of the normal form."""
    nf = x.normal_form()
    terms = {m: c for m, c in nf.terms.items() if m.I == m.J}
    return CuntzElement(terms, x.weights)


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


def _expand_monomial(mono, d, level):
    """All (monomial, multiplicity-1) pieces of M(I,J) expanded so that
    |J| reaches the given level."""
    grow = level - len(mono.J)
    if grow < 0:
        raise ValueError("cannot expand downwards")
    for K in words_of_length(d, grow):
        yield Monomial(mono.I + K, mono.J + K)


def joint_coordinates(elements, weights):
    """Express several elements in one common coordinate system: per
    degree class, everything is expanded to the largest |J| occurring
    in any of the elements.  Returns (keys, rows) with rational rows
    (``rational`` of the field); coefficients must be real (the
    structure constants here are)."""
    levels = {}
    for el in elements:
        for mono in el.terms:
            k = len(mono.I) - len(mono.J)
            levels[k] = max(levels.get(k, 0), len(mono.J))
    index = {}  # piece -> column, in order of first appearance
    rows = [
        scalars.accumulate(
            ((index.setdefault(piece, len(index)), coeff)
             for mono, coeff in el.terms.items()
             for piece in _expand_monomial(
                 mono, weights.d, levels[len(mono.I) - len(mono.J)])),
            weights.mode)
        for el in elements
    ]
    keys = list(index)
    ncols = len(keys)
    out = []
    for row in rows:
        vec = [Fraction(0)] * ncols
        for j, c in row.items():
            vec[j] = weights.mode.rational(c)
        out.append(vec)
    return keys, out


# -- masa probe ------------------------------------------------------------------


class MasaProbeReport:
    __slots__ = (
        "L", "span_dimension", "commutant_dimension", "diagonal_dimension",
        "matches_diagonal", "generator_count",
    )

    def __init__(self, L, span_dimension, commutant_dimension,
                 diagonal_dimension, matches_diagonal, generator_count):
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "span_dimension", span_dimension)
        object.__setattr__(self, "commutant_dimension", commutant_dimension)
        object.__setattr__(self, "diagonal_dimension", diagonal_dimension)
        object.__setattr__(self, "matches_diagonal", matches_diagonal)
        object.__setattr__(self, "generator_count", generator_count)

    def __setattr__(self, name, value):
        raise AttributeError("MasaProbeReport is immutable")

    def __bool__(self):
        return self.matches_diagonal

    def to_json(self):
        return {
            "max_len": self.L,
            "span_dimension": self.span_dimension,
            "commutant_dimension": self.commutant_dimension,
            "diagonal_dimension": self.diagonal_dimension,
            "matches_diagonal": self.matches_diagonal,
            "generator_count": self.generator_count,
        }


def masa_commutant_probe(weights, L):
    """Solve x . g = g . x within the word-length <= L span, for all
    diagonal generators g = M(I, I) with |I| <= L, and compare the
    solution space with the diagonal span."""
    d = weights.d
    basis = canonical_basis(d, L)
    if len(basis) > DIMENSION_CAP:
        raise TermBudgetError(
            "masa probe span has %d coordinates (cap %d)"
            % (len(basis), DIMENSION_CAP)
        )
    generators = [
        CuntzElement.monomial(weights, I, I)
        for m in range(L + 1)
        for I in words_of_length(d, m)
    ]
    basis_elements = [
        CuntzElement.monomial(weights, mono.I, mono.J) for mono in basis
    ]
    reducer = RowReducer(len(basis))
    for g in generators:
        commutators = [b * g - g * b for b in basis_elements]
        _, rows = joint_coordinates(commutators, weights)
        # rows[b][key]: constraint per key is sum_b c_b rows[b][key] = 0
        nkeys = len(rows[0]) if rows else 0
        for key in range(nkeys):
            reducer.add_row([rows[b][key] for b in range(len(basis))])
    commutant = reducer.nullspace()

    index = {mono: i for i, mono in enumerate(basis)}
    diagonal = []
    for m in range(L + 1):
        for I in words_of_length(d, m):
            vec = [Fraction(0)] * len(basis)
            for piece in _expand_monomial(Monomial(I, I), d, L):
                vec[index[piece]] = Fraction(1)
            diagonal.append(vec)
    diag_reducer = RowReducer(len(basis))
    diag_dim = sum(diag_reducer.add_row(v) for v in diagonal)
    return MasaProbeReport(
        L=L,
        span_dimension=len(basis),
        commutant_dimension=len(commutant),
        diagonal_dimension=diag_dim,
        matches_diagonal=span_equal(commutant, diagonal),
        generator_count=len(generators),
    )


# -- center probe ----------------------------------------------------------------


class CenterProbeReport:
    __slots__ = (
        "vacuum_failures", "delta_failures", "phi_commutation_failures",
        "isometry_witness", "range_projection_witness", "is_central_on_span",
    )

    def __init__(self, vacuum_failures, delta_failures,
                 phi_commutation_failures, isometry_witness,
                 range_projection_witness):
        object.__setattr__(self, "vacuum_failures", tuple(vacuum_failures))
        object.__setattr__(self, "delta_failures", tuple(delta_failures))
        object.__setattr__(
            self, "phi_commutation_failures", tuple(phi_commutation_failures))
        object.__setattr__(self, "isometry_witness", isometry_witness)
        object.__setattr__(
            self, "range_projection_witness", range_projection_witness)
        object.__setattr__(
            self, "is_central_on_span",
            not (vacuum_failures or delta_failures or phi_commutation_failures),
        )

    def __setattr__(self, name, value):
        raise AttributeError("CenterProbeReport is immutable")

    def __bool__(self):
        return self.is_central_on_span

    def to_json(self):
        from .fock import format_word

        return {
            "vacuum_failures": [format_word(w) for w in self.vacuum_failures],
            "delta_failures": [
                [format_word(i), format_word(j)] for i, j in self.delta_failures
            ],
            "phi_commutation_failures": list(self.phi_commutation_failures),
            "isometry_witness": self.isometry_witness,
            "range_projection_witness": self.range_projection_witness,
            "is_central_on_span": self.is_central_on_span,
        }


def _random_element(weights, rng, max_len=2, nterms=3):
    words = words_up_to(weights.d, max_len)

    def draws():
        for _ in range(nterms):
            I = rng.choice(words)
            J = rng.choice(words)
            yield Monomial(I, J), weights.mode.random_coeff(rng)

    return CuntzElement(scalars.accumulate(draws(), weights.mode), weights)


def center_probe(x, trials=20, rng=None, tol=1e-12):
    """Necessary central conditions on the tested span.

    Checks phi(x . r_J) = 0 for nonempty words J, the contraction
    identity r_I* . x . r_J = delta_{IJ} x for words up to the
    element's length bound, phi-commutation against random elements,
    and reports the infinite-factor witness pair r_1* . r_1 = 1 versus
    r_1 . r_1* != 1."""
    import random

    rng = rng or random.Random(0)
    weights = x.weights
    bound = max(1, x.normal_form().max_word_length())

    vacuum_failures = []
    for m in range(1, bound + 1):
        for J in words_of_length(weights.d, m):
            val = (x * CuntzElement.monomial(weights, J, EMPTY_WORD)
                   ).vacuum_state()
            if not weights.mode.near_zero(val, tol):
                vacuum_failures.append(J)

    # the contraction identity is only asserted for equal-length words
    delta_failures = []
    for m in range(bound + 1):
        for I in words_of_length(weights.d, m):
            left = CuntzElement.monomial(weights, EMPTY_WORD, I) * x
            for J in words_of_length(weights.d, m):
                got = left * CuntzElement.monomial(weights, J, EMPTY_WORD)
                want = x if I == J else CuntzElement.zero(weights)
                if not got.equals(want, tol):
                    delta_failures.append((I, J))

    phi_failures = []
    for t in range(trials):
        y = _random_element(weights, rng)
        lhs = (x * y).vacuum_state()
        rhs = (y * x).vacuum_state()
        if not weights.mode.eq(lhs, rhs, tol):
            phi_failures.append(t)

    r1 = CuntzElement.right_creation(weights, 1)
    one = CuntzElement.identity(weights)
    isometry = (r1.adjoint() * r1 - one).is_zero(tol)
    range_proj = (r1 * r1.adjoint() - one).is_zero(tol)
    return CenterProbeReport(
        vacuum_failures, delta_failures, phi_failures,
        isometry_witness=isometry, range_projection_witness=range_proj,
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


class DRReport:
    """Per-step distance between alpha(R) and the flip-conjugated R."""

    __slots__ = ("norms", "first_zero", "stable_through", "partial")

    def __init__(self, norms, first_zero, stable_through, partial=False):
        object.__setattr__(self, "norms", tuple(norms))
        object.__setattr__(self, "first_zero", first_zero)
        object.__setattr__(self, "stable_through", stable_through)
        object.__setattr__(self, "partial", partial)

    def __setattr__(self, name, value):
        raise AttributeError("DRReport is immutable")

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
        return DRReport(norms, first_zero, stable_through, partial=True)
    return DRReport(norms, first_zero, stable_through)


# -- diffuseness probe -------------------------------------------------------------


class MinimalProjectionReport:
    __slots__ = (
        "is_projection", "split_length", "positive_branches",
        "branch_growth", "phi_value",
    )

    def __init__(self, is_projection, split_length, positive_branches,
                 branch_growth, phi_value):
        object.__setattr__(self, "is_projection", is_projection)
        object.__setattr__(self, "split_length", split_length)
        object.__setattr__(self, "positive_branches", positive_branches)
        object.__setattr__(self, "branch_growth", tuple(branch_growth))
        object.__setattr__(self, "phi_value", phi_value)

    def __setattr__(self, name, value):
        raise AttributeError("MinimalProjectionReport is immutable")

    def to_json(self):
        from .fock import format_word

        return {
            "is_projection": self.is_projection,
            "split_length": self.split_length,
            "positive_branches": [
                format_word(w) for w in (self.positive_branches or [])
            ],
            "branch_growth": [float(v) for v in self.branch_growth],
            "phi_value": float(self.phi_value),
        }


def minimal_projection_probe(q, L, tol=1e-12):
    """Replay the no-minimal-diagonal-projection argument on a span.

    For a diagonal projection q, either two distinct words of some
    length m <= L give phi(r_I* . q . r_I) > 0 (q splits, so it was not
    minimal), or the single surviving branch forces geometric growth
    phi(q)/w_I of the compressions, which is unbounded."""
    weights = q.weights
    if not is_diagonal(q, tol):
        raise ValueError("q must be diagonal")
    if not (q * q - q).is_zero(tol) or not (q.adjoint() - q).is_zero(tol):
        raise ValueError("q must be a self-adjoint idempotent")
    phi_q = q.vacuum_state()

    def compression(I):
        return (
            CuntzElement.monomial(weights, EMPTY_WORD, I)
            * q
            * CuntzElement.monomial(weights, I, EMPTY_WORD)
        ).vacuum_state()

    growth = []
    branch = EMPTY_WORD
    for m in range(1, L + 1):
        positives = []
        for I in words_of_length(weights.d, m):
            val = complex(compression(I)).real
            if val > tol:
                positives.append(I)
        if len(positives) >= 2:
            return MinimalProjectionReport(
                True, m, positives, growth, phi_value=complex(phi_q).real)
        if not positives:
            break
        branch = positives[0]
        growth.append(complex(compression(branch)).real)
    return MinimalProjectionReport(
        True, None, None, growth, phi_value=complex(phi_q).real)
