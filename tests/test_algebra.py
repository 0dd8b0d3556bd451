from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockboundary.algebra import CuntzElement, Monomial, expanded
from fockboundary.errors import ModeMixError, TermBudgetError
from fockboundary.fock import WeightVector, is_harmonic
from fockboundary.scalars import GaussianRational, term_cap

words = st.lists(st.integers(1, 2), max_size=3).map(tuple)
coeffs = st.builds(
    GaussianRational,
    st.integers(-3, 3).map(Fraction),
    st.integers(-3, 3).map(Fraction),
)
monomials = st.builds(Monomial, words, words)


def elements(weights):
    return st.dictionaries(monomials, coeffs, max_size=3).map(
        lambda t: CuntzElement(t, weights)
    )


class TestCuntzElement:
    def test_cuntz_relations(self, w13):
        one = CuntzElement.identity(w13)
        for i in (1, 2):
            ri = CuntzElement.right_creation(w13, i)
            for j in (1, 2):
                rj = CuntzElement.right_creation(w13, j)
                got = ri.adjoint() * rj
                want = one if i == j else CuntzElement.zero(w13)
                assert (got - want).is_zero()

    def test_range_projections_sum_to_one(self, w3):
        total = CuntzElement.zero(w3)
        for i in (1, 2, 3):
            total = total + CuntzElement.monomial(w3, (i,), (i,))
        assert (total - CuntzElement.identity(w3)).is_zero()
        # normal form sees the relation too
        nf = (total - CuntzElement.identity(w3)).normal_form()
        assert not nf.terms

    def test_vacuum_state(self, w13):
        assert CuntzElement.monomial(w13, (1, 2), (1, 2)).vacuum_state() \
            == Fraction(2, 9)
        assert not bool(
            CuntzElement.monomial(w13, (1,), (2,)).vacuum_state())

    def test_is_zero_ground_truth(self, w13):
        # M(I,J) = sum_K M(IK, JK): zero despite four raw terms
        x = CuntzElement.monomial(w13, (1,), (2,))
        y = CuntzElement(dict(expanded(x.terms.items(), 2, {0: 2})), w13)
        assert len((x - y).terms) == 3
        assert (x - y).is_zero()
        assert x.equals(y)

    def test_gns_inner_diagonal(self, w13):
        a = CuntzElement.monomial(w13, (1,), (2,))
        b = CuntzElement.monomial(w13, (2,), (1,))
        assert a.gns_inner(a) == w13.weight(2)
        assert not bool(a.gns_inner(b))

    def test_mode_mix_rejected(self, w13):
        wf = WeightVector([1 / 3, 2 / 3], mode="float")
        x = CuntzElement.identity(w13)
        y = CuntzElement.identity(wf)
        with pytest.raises(ModeMixError):
            x + y

    def test_term_budget(self, w13, monkeypatch):
        monkeypatch.setenv("FOCK_TERM_CAP", "3")
        # the normal form expands M(1, 2) to M(1K, 2K), |K| = 2
        x = CuntzElement.monomial(w13, (1,), (2,)) + \
            CuntzElement.monomial(w13, (1, 1, 1), (2, 1, 1))
        with pytest.raises(TermBudgetError, match="normal form"):
            x.normal_form()

    @pytest.mark.parametrize("raw", ["1e5", "0", "-3", "many"])
    def test_bad_term_cap_is_refused(self, raw, monkeypatch):
        monkeypatch.setenv("FOCK_TERM_CAP", raw)
        with pytest.raises(ValueError, match="FOCK_TERM_CAP"):
            term_cap()

    def test_json_roundtrip(self, w13):
        x = CuntzElement(
            {Monomial((1,), (2, 1)): GaussianRational(Fraction(1, 2), 1)},
            w13)
        assert CuntzElement.from_json(x.to_json(), w13).equals(x)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_product_associative(self, w13, data):
        x = data.draw(elements(w13))
        y = data.draw(elements(w13))
        z = data.draw(elements(w13))
        assert ((x * y) * z).equals(x * (y * z))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_adjoint_antimultiplicative(self, w13, data):
        x = data.draw(elements(w13))
        y = data.draw(elements(w13))
        assert (x * y).adjoint().equals(y.adjoint() * x.adjoint())

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_normal_form_sound(self, w13, data):
        x = data.draw(elements(w13))
        assert x.equals(x.normal_form())
        # normal form is empty exactly when the element is zero
        assert bool(x.normal_form().terms) == (not x.is_zero())

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_state_positive(self, w13, data):
        x = data.draw(elements(w13))
        nsq = x.gns_norm_sq()
        assert nsq.im == 0 and nsq.re >= 0


class TestToTruncated:
    def test_range_projection_entries(self, w13):
        x = CuntzElement.monomial(w13, (1,), (1,)).to_truncated(3)
        # r_1 r_1* + w_1 p_Omega
        assert x.entry((), ()) == Fraction(1, 3)
        assert x.entry((1,), (1,)) == 1
        assert x.entry((2, 1), (2, 1)) == 1
        assert not bool(x.entry((2,), (2,)))

    def test_word_reversal_convention(self, w13):
        # r_{12} = r_1 r_2 sends the vacuum to e_21
        x = CuntzElement.monomial(w13, (1, 2), ()).to_truncated(3)
        assert x.entry((2, 1), ()) == 1

    def test_harmonic_and_state(self, w13):
        for mono in [Monomial((1,), (2,)), Monomial((1, 2), (2,)),
                     Monomial((), (1, 1))]:
            x = CuntzElement.monomial(w13, mono.I, mono.J)
            op = x.to_truncated(5)
            assert is_harmonic(op, w13)
            assert op.entry((), ()) == x.vacuum_state()

    def test_expansion_same_operator(self, w13):
        x = CuntzElement.monomial(w13, (1,), (2,))
        y = CuntzElement(dict(expanded(x.terms.items(), 2, {0: 2})), w13)
        assert x.to_truncated(4) == y.to_truncated(4)
