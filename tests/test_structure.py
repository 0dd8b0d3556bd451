from fractions import Fraction

import pytest

from fockboundary.algebra import CuntzElement, Monomial
from fockboundary.exact_linalg import RowReducer, is_psd, span_equal
from fockboundary.structure import (
    alpha_endo,
    canonical_basis,
    center_probe,
    dr_convergence,
    flip_unitary,
    is_diagonal,
    masa_commutant_probe,
    minimal_projection_probe,
)


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

    def test_off_diagonal_fails_to_commute(self, w13):
        x = CuntzElement.monomial(w13, (1,), (2,))
        g = CuntzElement.monomial(w13, (1,), (1,))
        assert not (x * g - g * x).is_zero()


class TestCenterProbe:
    def test_identity_passes(self, w13):
        rep = center_probe(CuntzElement.identity(w13))
        assert rep.is_central_on_span
        assert rep.isometry_witness
        assert not rep.range_projection_witness

    def test_projection_fails(self, w13):
        rep = center_probe(CuntzElement.monomial(w13, (1,), (1,)))
        assert not rep.is_central_on_span
        assert rep.delta_failures


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
