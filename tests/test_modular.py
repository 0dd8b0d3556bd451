from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockboundary.algebra import CuntzElement, Monomial
from fockboundary.errors import ModeMixError
from fockboundary.fock import WeightVector
from fockboundary.modular import (
    GnsVector,
    delta_apply,
    evaluate_at,
    gram_matrix,
    is_centralizer,
    modular_conjugation,
    monomial_family,
    s_operator,
    sigma_t,
    spectrum_sample,
)
from fockboundary.scalars import GaussianRational, Surd

words = st.lists(st.integers(1, 2), max_size=2).map(tuple)
coeffs = st.builds(
    GaussianRational,
    st.integers(-2, 2).map(Fraction),
    st.integers(-2, 2).map(Fraction),
)


def elements(weights):
    return st.dictionaries(
        st.builds(Monomial, words, words), coeffs, max_size=3
    ).map(lambda t: CuntzElement(t, weights))


class TestSurd:
    def test_perfect_squares_fold(self):
        assert Surd(1, Fraction(9, 4)) == Surd(Fraction(3, 2))
        assert Surd(2, 2) * Surd(3, 2) == Surd(12)

    def test_equality_across_radicands(self):
        assert Surd(2, 2) == Surd(1, 8)
        assert Surd(1, 2) != Surd(1, 3)

    def test_conjugate(self):
        s = Surd(GaussianRational(1, 1), 2)
        assert s.conjugate() == Surd(GaussianRational(1, -1), 2)


class TestModularOperators:
    def test_polar_decomposition(self, w13):
        for mono in monomial_family(2, 3):
            v = GnsVector.monomial(w13, mono.I, mono.J)
            assert s_operator(v).same_terms(
                modular_conjugation(delta_apply(v, Fraction(1, 2))))

    def test_eigenvalue(self, w13):
        v = GnsVector.monomial(w13, (1,), (2,))
        assert delta_apply(v, 1).same_terms(
            GnsVector.monomial(w13, (1,), (2,), coeff=Fraction(1, 2)))

    def test_j_involutive(self, w13):
        v = GnsVector.monomial(w13, (1, 2), (2,),
                               coeff=GaussianRational(1, 2))
        assert modular_conjugation(modular_conjugation(v)).same_terms(v)


class TestModularFlow:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_automorphism(self, w13, data):
        x = data.draw(elements(w13))
        y = data.draw(elements(w13))
        assert sigma_t(x * y).same_flow(sigma_t(x) * sigma_t(y))
        assert sigma_t(x.adjoint()).same_flow(sigma_t(x).adjoint())

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_state_invariant(self, w13, data):
        x = data.draw(elements(w13))
        by_base = sigma_t(x).vacuum_state_by_base()
        phi = x.vacuum_state()
        assert set(by_base) <= {Fraction(1)}
        got = by_base.get(Fraction(1), GaussianRational(0))
        assert got == phi

    def test_centralizer(self, w13):
        assert is_centralizer(CuntzElement.monomial(w13, (1, 2), (2, 1)))
        assert not is_centralizer(CuntzElement.monomial(w13, (1,), (2,)))
        # uniform weights: everything is in the centralizer
        wu = WeightVector.uniform(2)
        assert is_centralizer(CuntzElement.monomial(wu, (1,), (2,)))

    def test_float_evaluation(self):
        wf = WeightVector([0.5, 0.5], mode="float")
        x = CuntzElement.monomial(wf, (1, 1), (2,), coeff=1.0)
        flowed = evaluate_at(sigma_t(x), 0.7)
        base = 0.5  # w_11 / w_2 = 0.25 / 0.5
        coeff = list(flowed.terms.values())[0]
        assert abs(coeff - base ** 0.7j) < 1e-12

    def test_exact_session_cannot_hold_the_phases(self, w13):
        x = CuntzElement.monomial(w13, (1, 1), (2,))
        with pytest.raises(ModeMixError):
            evaluate_at(sigma_t(x), 0.7)


class TestSpectrumAndGram:
    def test_spectrum_sample(self, w_half):
        assert spectrum_sample(w_half, 2) == [
            Fraction(1, 4), Fraction(1, 2), Fraction(1),
            Fraction(2), Fraction(4)]

    def test_gram_diagonal(self, w13):
        fam, rows = gram_matrix(w13, 1)
        for a, mono in enumerate(fam):
            assert rows[a][a] == w13.word_weight(mono.J)
