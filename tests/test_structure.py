from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockboundary import scalars
from fockboundary.algebra import CuntzElement, Monomial
from fockboundary.errors import TermBudgetError
from fockboundary.exact_linalg import RowReducer, is_psd, span_equal
from fockboundary.fock import WeightVector, words_of_length
from fockboundary.scalars import GaussianRational
from fockboundary.structure import (
    DIMENSION_CAP,
    alpha_endo,
    canonical_basis,
    center_probe,
    commutant,
    dr_convergence,
    flip_unitary,
    is_diagonal,
    masa_commutant_probe,
    minimal_projection_probe,
    span_dimension,
)

WEIGHTS = {
    2: WeightVector([Fraction(1, 3), Fraction(2, 3)]),
    3: WeightVector([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]),
}
# (d, L) with 8, 40, 176, 15 and 153 coordinates
SPANS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]


def creations_and_adjoints(weights):
    rs = [CuntzElement.right_creation(weights, i) for i in range(1, weights.d + 1)]
    return [g for r in rs for g in (r, r.adjoint())]


class TestExactLinalg:
    def test_rank_and_nullspace(self):
        m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        reducer = RowReducer(3)
        for row in m:
            reducer.add_row(row)
        assert reducer.rank == 2
        ns = reducer.nullspace()
        assert len(ns) == 1
        v = ns[0]
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0

    def test_psd(self):
        assert is_psd([[2, 1], [1, 2]])
        assert not is_psd([[1, 2], [2, 1]])
        # singular PSD: rank-1 projector-like matrix
        assert is_psd([[1, 1], [1, 1]])
        assert not is_psd([[0, 1], [1, 0]])
        assert is_psd([[Fraction(1, 2), Fraction(1, 2)],
                       [Fraction(1, 2), Fraction(1, 2)]])

    def test_span_equal(self):
        a = [[1, 0, 1], [0, 1, 0]]
        b = [[1, 1, 1], [1, -1, 1]]
        assert span_equal(a, b)
        assert not span_equal(a, [[1, 0, 0]])

    def test_sparse_rows_and_canonical_form(self):
        # a dict row is its nonzero entries; any row order gives the same
        # reduced rows, so the same nullspace basis
        rows = [[0, 2, 4, 0], [1, 1, 0, 3], [1, 2, 2, 3]]
        forward, backward = RowReducer(4), RowReducer(4)
        for row in rows:
            forward.add_row(row)
        for row in reversed(rows):
            backward.add_row({c: v for c, v in enumerate(row) if v})
        assert forward.rank == backward.rank == 2
        assert forward.nullspace() == backward.nullspace() == [
            [2, -2, 1, 0], [-3, 0, 0, 1]]
        assert backward.reduce_row([1, 0, 0, 0]) == {2: 2, 3: -3}


class TestDiagonal:
    def test_is_diagonal(self, w13):
        assert is_diagonal(CuntzElement.monomial(w13, (1, 2), (1, 2)))
        assert not is_diagonal(CuntzElement.monomial(w13, (1,), (2,)))
        # the identity written as a sum of range projections
        total = CuntzElement.monomial(w13, (1,), (1,)) + \
            CuntzElement.monomial(w13, (2,), (2,))
        assert is_diagonal(total)


class TestMasaProbe:
    def test_commutant_equals_diagonal(self, w13):
        rep = masa_commutant_probe(w13, 2)
        assert rep.matches_diagonal
        assert rep.span_dimension == 40
        assert rep.commutant_dimension == rep.diagonal_dimension == 4

    def test_canonical_basis_size(self):
        assert len(canonical_basis(2, 2)) == 40
        assert len(canonical_basis(2, 1)) == 2 * 2 + 4

    @pytest.mark.parametrize("d,L", SPANS + [(4, 2), (9, 1)])
    def test_span_dimension_counts_the_basis(self, d, L):
        assert span_dimension(d, L) == len(canonical_basis(d, L))

    @pytest.mark.parametrize("d,L", SPANS)
    def test_commutant_is_the_diagonal_span(self, d, L):
        rep = masa_commutant_probe(WEIGHTS[d], L)
        assert rep.matches_diagonal
        assert rep.span_dimension == span_dimension(d, L)
        assert rep.commutant_dimension == rep.diagonal_dimension == d ** L

    @pytest.mark.parametrize("d,L", [(2, 2), (4, 2), (8, 1), (9, 1)])
    def test_default_span_is_the_longest_under_the_cap(self, d, L):
        assert masa_commutant_probe(WeightVector.uniform(d)).max_len == L

    def test_cap_admits_length_two_up_to_seven_letters(self):
        assert span_dimension(7, 2) <= DIMENSION_CAP < span_dimension(8, 2)

    def test_off_diagonal_fails_to_commute(self, w13):
        x = CuntzElement.monomial(w13, (1,), (2,))
        g = CuntzElement.monomial(w13, (1,), (1,))
        assert not (x * g - g * x).is_zero()


class TestCommutant:
    @pytest.mark.parametrize("d,L", SPANS)
    def test_generators_commute_with_scalars_only(self, d, L):
        weights = WEIGHTS[d]
        basis, solution = commutant(weights, L, creations_and_adjoints(weights))
        assert len(basis) == span_dimension(d, L)
        assert len(solution) == 1
        # the one solution is the identity, written on the longest words
        x = CuntzElement({mono: c for mono, c in zip(basis, solution[0]) if c},
                         weights)
        assert (x - CuntzElement.identity(weights).scale(x.vacuum_state())).is_zero()

    def test_no_generator_leaves_the_whole_span(self, w13):
        basis, solution = commutant(w13, 1, [])
        assert len(solution) == len(basis) == 8

    def test_span_over_the_cap_is_refused_before_any_product(self, w13, monkeypatch):
        def no_product(*args):
            raise AssertionError("a product was formed")

        monkeypatch.setattr(CuntzElement, "__mul__", no_product)
        L = next(n for n in range(1, 20) if span_dimension(2, n) > DIMENSION_CAP)
        with pytest.raises(TermBudgetError, match="cap %d" % DIMENSION_CAP):
            commutant(w13, L, creations_and_adjoints(w13))


def span_elements():
    """An exact element of the word-length <= L span (d = 2, 3 and
    L <= 2), plus a drawn scalar times 1 written on words of a drawn
    length, so that scalar elements come in many spellings."""
    coeffs = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))

    @st.composite
    def draw(draw):
        d = draw(st.sampled_from([2, 3]))
        L = draw(st.integers(0, 2))
        weights = WEIGHTS[d]
        terms = draw(st.dictionaries(
            st.sampled_from(canonical_basis(d, L)), coeffs, max_size=3))
        m = draw(st.integers(0, L))
        c = draw(coeffs)
        one = {Monomial(K, K): c for K in words_of_length(d, m)}
        return CuntzElement(terms, weights) + CuntzElement(one, weights)

    return draw()


class TestCenterProbe:
    def test_identity_passes(self, w13):
        rep = center_probe(CuntzElement.identity(w13))
        assert rep.is_central
        assert rep.isometry_witness
        assert not rep.range_projection_witness
        assert (rep.span_dimension, rep.commutant_dimension) == (8, 1)

    def test_projection_fails(self, w13):
        rep = center_probe(CuntzElement.monomial(w13, (1,), (1,)))
        assert not rep.is_central
        assert not rep
        assert rep.commutant_dimension == 1

    def test_span_follows_the_word_length(self, w13):
        x = CuntzElement.monomial(w13, (1, 2), (2,))
        rep = center_probe(x)
        assert (rep.max_len, rep.span_dimension) == (2, 40)

    @given(span_elements())
    @settings(max_examples=60, deadline=None)
    def test_accepts_exactly_the_scalars(self, x):
        scalar = CuntzElement.identity(x.weights).scale(x.vacuum_state())
        assert center_probe(x).is_central == (x - scalar).is_zero()

    def test_float_weights_give_the_same_verdicts(self):
        w = WeightVector([1 / 3, 2 / 3], mode=scalars.FLOAT)
        for x, central in [(CuntzElement.identity(w), True),
                           (CuntzElement.monomial(w, (1,), (1,), coeff=2)
                            + CuntzElement.monomial(w, (2,), (2,), coeff=2), True),
                           (CuntzElement.monomial(w, (1,), (2,)), False)]:
            rep = center_probe(x)
            assert rep.is_central == central
            assert rep.commutant_dimension == 1


class TestAlphaAndFlips:
    def test_alpha_unital(self, w13):
        one = CuntzElement.identity(w13)
        assert alpha_endo(one).equals(one)

    def test_alpha_on_projection(self, w13):
        got = alpha_endo(CuntzElement.monomial(w13, (1,), (1,)))
        want = CuntzElement.monomial(w13, (1, 1), (1, 1)) + \
            CuntzElement.monomial(w13, (2, 1), (2, 1))
        assert got.equals(want)

    def test_alpha_multiplicative(self, w13):
        x = CuntzElement.monomial(w13, (1,), (2,))
        y = CuntzElement.monomial(w13, (2,), (1, 1))
        assert alpha_endo(x * y).equals(alpha_endo(x) * alpha_endo(y))
        assert alpha_endo(x.adjoint()).equals(alpha_endo(x).adjoint())

    def test_flip_unitary_is_unitary(self, w13):
        one = CuntzElement.identity(w13)
        for k in (1, 2, 3):
            u = flip_unitary(w13, k)
            assert (u.adjoint() * u - one).is_zero()
            assert (u * u.adjoint() - one).is_zero()


class TestDRConvergence:
    def test_observed_onset(self, w13):
        # hardened to the oracle-observed onset: the defect vanishes at
        # n = max(|I|, 1) and stays zero through n = 6
        for I, n0 in [((), 1), ((1,), 1), ((2,), 1),
                      ((1, 1), 2), ((1, 2), 2), ((2, 1), 2), ((2, 2), 2)]:
            rep = dr_convergence(Monomial(I, I), w13, n_max=6)
            assert rep.first_zero == n0
            assert rep.stable_through == 6
            assert not rep.partial
            assert all(v == 0 for v in rep.norms[n0 - 1:])

    def test_rejects_off_diagonal(self, w13):
        with pytest.raises(ValueError):
            dr_convergence(Monomial((1,), (2,)), w13)


class TestMinimalProjection:
    def test_identity_splits_at_length_one(self, w13):
        rep = minimal_projection_probe(CuntzElement.identity(w13), 3)
        assert rep.split_length == 1
        assert len(rep.positive_branches) == 2

    def test_values_are_exact_in_the_exact_field(self, w13):
        q = CuntzElement.monomial(w13, (1,), (1,))
        rep = minimal_projection_probe(q, 1)
        assert rep.phi_value == GaussianRational(Fraction(1, 3))
        assert rep.to_json()["phi_value"] == {"re": "1/3", "im": "0"}
        assert rep.to_json()["branch_growth"] == [
            scalars.EXACT.to_json(v) for v in rep.branch_growth]

    def test_float_weights_give_the_same_verdicts(self, w13):
        w = WeightVector([1 / 3, 2 / 3], mode=scalars.FLOAT)
        for L in (1, 2):
            exact = minimal_projection_probe(CuntzElement.monomial(w13, (1,), (1,)), L)
            rep = minimal_projection_probe(CuntzElement.monomial(w, (1,), (1,)), L)
            assert rep.split_length == exact.split_length
            assert rep.positive_branches == exact.positive_branches
            assert abs(rep.phi_value - complex(exact.phi_value)) < 1e-12

    def test_range_projection_single_branch(self, w13):
        q = CuntzElement.monomial(w13, (1,), (1,))
        rep = minimal_projection_probe(q, 1)
        # at length 1 only the branch through letter 1 survives
        assert rep.split_length is None
        assert rep.branch_growth

    def test_range_projection_splits_deeper(self, w13):
        q = CuntzElement.monomial(w13, (1,), (1,))
        rep = minimal_projection_probe(q, 2)
        assert rep.split_length == 2

    def test_rejects_non_projection(self, w13):
        with pytest.raises(ValueError):
            minimal_projection_probe(
                CuntzElement.monomial(w13, (1,), (2,)), 2)
        with pytest.raises(ValueError):
            minimal_projection_probe(
                CuntzElement.monomial(w13, (1,), (1,), coeff=2), 2)
