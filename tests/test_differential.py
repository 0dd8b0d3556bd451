"""The kernels against the direct formulations they replace.

Each reference below is the textbook form of an operation: the product
as a double loop of the monomial contraction rule, the GNS inner
product as phi(y* . x) through that product, the generator
substitution as chained products of generator images, and the closed
forms as compositions of generator compressions.  Exact mode must
agree term for term; float mode within 1e-9 (1e-12 for the closed
forms, which only move entries).
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockboundary import scalars
from fockboundary.algebra import CuntzElement, Monomial, mono_product
from fockboundary.choi_effros import (
    FORM_KINDS,
    closed_form_mixed,
    op_left_creation,
    op_right_creation,
)
from fockboundary.errors import LetterRangeError, TermBudgetError
from fockboundary.fock import EMPTY_WORD, TruncatedOperator, WeightVector, word_reverse
from fockboundary.modular import PhasedElement, sigma_t
from fockboundary.quantization import (
    UnitaryMatrix,
    random_exact_unitary,
    random_float_unitary,
    symbolic_gamma,
)
from fockboundary.scalars import GaussianRational

EXACT_WEIGHTS = {
    2: WeightVector([Fraction(1, 3), Fraction(2, 3)]),
    3: WeightVector([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]),
}
FLOAT_WEIGHTS = {
    2: WeightVector([1 / 3, 2 / 3], mode=scalars.FLOAT),
    3: WeightVector([0.5, 0.3, 0.2], mode=scalars.FLOAT),
}
MODES = (scalars.EXACT, scalars.FLOAT)


def coefficients(mode):
    small = st.integers(-3, 3)
    if mode == scalars.EXACT:
        return st.builds(GaussianRational, small, small)
    return st.builds(lambda a, b: complex(a / 4, b / 4), small, small)


def elements(weights, max_len=3, max_terms=6):
    words = st.lists(st.integers(1, weights.d), max_size=max_len).map(tuple)
    return st.dictionaries(
        st.builds(Monomial, words, words), coefficients(weights.mode),
        max_size=max_terms,
    ).map(lambda terms: CuntzElement(terms, weights))


def sessions():
    """(d, mode) draws; the weight session follows from them."""
    return st.tuples(st.sampled_from((2, 3)), st.sampled_from(MODES))


def session_weights(d, mode, uniform=False):
    if uniform:
        return WeightVector.uniform(d, mode)
    return (EXACT_WEIGHTS if mode == scalars.EXACT else FLOAT_WEIGHTS)[d]


def assert_terms_agree(got, want, mode, tol=1e-9):
    if mode == scalars.EXACT:
        assert got == want
        return
    for key in set(got) | set(want):
        assert abs(got.get(key, 0j) - want.get(key, 0j)) <= tol, key


def assert_scalars_agree(got, want, mode):
    if mode == scalars.EXACT:
        assert got == want
    else:
        assert abs(got - want) <= 1e-9


# -- references ------------------------------------------------------------


def pairwise_product(x, y):
    """Every term of x against every term of y by ``mono_product``."""
    terms = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            m = mono_product(ma, mb)
            if m is not None:
                terms[m] = terms.get(m, x.mode.zero) + ca * cb
    return CuntzElement(terms, x.weights)


def pairwise_phased_product(x, y):
    terms = {}
    for (ma, ba), ca in x.terms.items():
        for (mb, bb), cb in y.terms.items():
            m = mono_product(ma, mb)
            if m is not None:
                key = (m, ba * bb)
                terms[key] = terms.get(key, x.mode.zero) + ca * cb
    return PhasedElement(terms, x.weights)


def inner_through_product(x, y):
    return pairwise_product(y.adjoint(), x).vacuum_state()


def substitution_by_generators(U, x):
    """r_i -> r_{U e_i} on each letter, multiplied out pairwise."""
    w = x.weights
    images = {
        i: CuntzElement({Monomial((j,), EMPTY_WORD): U.entry(i, j)
                         for j in range(1, U.d + 1)}, w)
        for i in range(1, U.d + 1)
    }

    def word_image(word):
        acc = CuntzElement.identity(w)
        for letter in word:
            acc = pairwise_product(acc, images[letter])
        return acc

    out = CuntzElement.zero(w)
    for mono, coeff in x.terms.items():
        part = pairwise_product(word_image(mono.I), word_image(mono.J).adjoint())
        out = out + part.scale(coeff)
    return out


def closed_form_by_compose(kind, words, x, weights):
    """The seven closed forms as products of full generator compressions."""
    cut, d, mode = x.cut, x.d, x.mode

    def R(w):
        return op_right_creation(w, cut, d, mode)

    def L(w):
        return op_left_creation(w, cut, d, mode)

    def prefixes(word):
        # ((I^op)_t, I_{|I|-t}) for t = 1..|I|
        rev = word_reverse(word)
        return [(rev[:t], word[: len(word) - t]) for t in range(1, len(word) + 1)]

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
        for head, tail in prefixes(I):
            term = R(tail).compose(P).compose(x).compose(L(head))
            out = out + term.scale(weights.word_weight(head))
        return out
    if kind == "v":
        (I,) = words
        out = x.compose(R(I).adjoint())
        for head, tail in prefixes(I):
            term = L(head).adjoint().compose(x).compose(P).compose(R(tail).adjoint())
            out = out + term.scale(weights.word_weight(head))
        return out
    if kind == "vi":
        I, J = words
        xr = x.compose(R(I))
        out = xr.compose(R(J).adjoint())
        for head, tail in prefixes(J):
            term = L(head).adjoint().compose(xr).compose(P).compose(R(tail).adjoint())
            out = out + term.scale(weights.word_weight(head))
        return out
    # kind == "vii"
    I, J = words
    rx = R(J).adjoint().compose(x)
    out = R(I).compose(rx)
    for head, tail in prefixes(I):
        term = R(tail).compose(P).compose(rx).compose(L(head))
        out = out + term.scale(weights.word_weight(head))
    return out


# -- the kernels against the references ----------------------------------------


class TestProduct:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_cuntz_product(self, data):
        w = session_weights(*data.draw(sessions()))
        x, y = data.draw(elements(w)), data.draw(elements(w))
        assert_terms_agree((x * y).terms, pairwise_product(x, y).terms, w.mode)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_phased_product(self, data):
        w = session_weights(*data.draw(sessions()))
        x, y, z = (data.draw(elements(w, max_terms=4)) for _ in range(3))
        a, b = sigma_t(x) + sigma_t(z), sigma_t(y)
        assert_terms_agree((a * b).terms, pairwise_phased_product(a, b).terms,
                           w.mode)

    def test_cancellation_drops_the_term(self, w13):
        x = CuntzElement.identity(w13) + CuntzElement.monomial(w13, (1,), (2,))
        y = CuntzElement.monomial(w13, (1,), ()) - CuntzElement.monomial(
            w13, (2,), ())
        # 1 . M(1,) and M(1,2) . (-M(2,)) cancel
        assert (x * y).terms == {Monomial((2,), ()): -1}
        assert (x * y).terms == pairwise_product(x, y).terms


class TestInner:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_gns_inner(self, data):
        w = session_weights(*data.draw(sessions()))
        x, y = data.draw(elements(w)), data.draw(elements(w))
        assert_scalars_agree(x.gns_inner(y), inner_through_product(x, y), w.mode)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_zero_test_on_expanded_difference(self, data):
        # x and its normal form are one element, so x - nf(x) is zero
        # although its terms are not
        w = session_weights(*data.draw(sessions()))
        x = data.draw(elements(w))
        diff = x - x.normal_form()
        assert diff.is_zero()
        assert_scalars_agree(diff.gns_norm_sq(),
                             inner_through_product(diff, diff), w.mode)


class TestSubstitution:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_symbolic_gamma(self, data):
        d, mode = data.draw(sessions())
        w = session_weights(d, mode, uniform=True)
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        if mode == scalars.EXACT:
            U = random_exact_unitary(d, rng)
        else:
            U = random_float_unitary(d, rng)
        x = data.draw(elements(w, max_len=2, max_terms=4))
        assert_terms_agree(symbolic_gamma(U, x).terms,
                           substitution_by_generators(U, x).terms, mode)

    def test_term_budget(self, monkeypatch):
        w = WeightVector.uniform(2)
        U = UnitaryMatrix([[Fraction(3, 5), Fraction(4, 5)],
                           [Fraction(-4, 5), Fraction(3, 5)]])
        x = CuntzElement.monomial(w, (1, 2), (1,))
        assert len(symbolic_gamma(U, x).terms) == 8
        monkeypatch.setenv("FOCK_TERM_CAP", "5")
        with pytest.raises(TermBudgetError):
            symbolic_gamma(U, x)


def operators(weights, cut, max_entries=12):
    """Operators with arbitrary entries within the cut: not harmonic in
    general."""
    words = st.lists(st.integers(1, weights.d), max_size=cut).map(tuple)
    return st.dictionaries(
        st.tuples(words, words), coefficients(weights.mode), max_size=max_entries,
    ).map(lambda e: TruncatedOperator(e, cut, weights.d, weights.mode))


class TestClosedForms:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_against_compositions(self, data):
        d, mode = data.draw(sessions())
        w = session_weights(d, mode)
        cut = data.draw(st.integers(2, 5 if d == 2 else 4))
        kind = data.draw(st.sampled_from(FORM_KINDS))
        # words from empty (and one letter: the empty tail) to past the cut
        word = st.lists(st.integers(1, d), max_size=cut + 1).map(tuple)
        words = tuple(data.draw(word) for _ in range(
            2 if kind in ("iii", "vi", "vii") else 1))
        harmonic = data.draw(st.booleans())
        if harmonic:
            x = data.draw(elements(w, max_len=2, max_terms=4)).to_truncated(cut)
        else:
            x = data.draw(operators(w, cut))
        got = closed_form_mixed(kind, words, x, w, check_harmonic=harmonic)
        want = closed_form_by_compose(kind, words, x, w)
        assert (got.cut, got.d, got.mode) == (want.cut, want.d, want.mode)
        assert_terms_agree(got.entries, want.entries, mode, tol=1e-12)

    @pytest.mark.parametrize("kind", FORM_KINDS)
    def test_bad_letter(self, kind, w13):
        x = TruncatedOperator.identity(4, 2)
        words = ((1, 3),) if kind in ("i", "ii", "iv", "v") else ((1,), (0,))
        with pytest.raises(LetterRangeError):
            closed_form_mixed(kind, words, x, w13)
        with pytest.raises(LetterRangeError):
            closed_form_by_compose(kind, words, x, w13)

    def test_word_count_and_kind(self, w13):
        x = TruncatedOperator.identity(4, 2)
        with pytest.raises(ValueError):
            closed_form_mixed("i", ((1,), (2,)), x, w13)
        with pytest.raises(ValueError):
            closed_form_mixed("vi", ((1,),), x, w13)
        with pytest.raises(ValueError):
            closed_form_mixed("viii", ((1,),), x, w13)


class TestMonomialValue:
    def test_fields_hash_flip_repr(self):
        m = Monomial([1, 2], (2,))
        assert (m.I, m.J) == ((1, 2), (2,))
        assert hash(m) == hash(((1, 2), (2,)))
        assert m.flip() == Monomial((2,), (1, 2))
        assert repr(m) == "M(12,2)"
        assert repr(Monomial((), ())) == "M((),())"
        with pytest.raises(AttributeError):
            m.I = (1,)

    @pytest.mark.parametrize("roundtrip", [
        copy.copy,
        copy.deepcopy,
        lambda m: pickle.loads(pickle.dumps(m)),
    ])
    def test_copy_and_pickle(self, roundtrip):
        m = Monomial((1, 2), (3,))
        back = roundtrip(m)
        assert type(back) is Monomial
        assert back == m and hash(back) == hash(m)
        assert (back.I, back.J) == ((1, 2), (3,))
