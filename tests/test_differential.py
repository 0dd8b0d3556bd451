"""The kernels against the direct formulations they replace.

Each reference below is the textbook form of an operation: the product
as a double loop of the monomial contraction rule, the normal form and
the joint coordinates as the Cuntz expansion on plain word pairs, the
GNS inner product as phi(y* . x) through that product, the generator
substitution as chained products of generator images, the closed
forms as compositions of generator compressions, the exact type
classification through prime-exponent vectors, and the truncated
layer's word-code kernels as the same operations on dicts keyed by
word tuples.  Exact mode must agree term for term; float mode within
1e-9 (1e-12 for the closed forms and the truncated layer).
"""

import cmath
import copy
import functools
import itertools
import math
import pickle
import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockboundary import fock, scalars
from fockboundary.algebra import CuntzElement, Monomial, _monomial
from fockboundary.choi_effros import (
    FORM_KINDS,
    FORMS,
    closed_form,
    closed_form_mixed,
    op_left_creation,
    op_right_creation,
)
from fockboundary.classification import classify, exponent_decomposition
from fockboundary.errors import LetterRangeError, TermBudgetError
from fockboundary.fock import (
    EMPTY_WORD,
    Power,
    TruncatedOperator,
    WeightVector,
    WordMap,
    block_bound,
    decode,
    encode,
    is_harmonic,
    letter_bits,
    markov_step,
    prefix,
    prepend_words,
    relabel,
    suffix,
    word_reverse,
    words_up_to,
)
from fockboundary.modular import PhasedElement, phase_base, sigma_t
from fockboundary.quantization import (
    UnitaryMatrix,
    markov_step_in_basis,
    random_exact_unitary,
    random_float_unitary,
    second_quantize,
    symbolic_gamma,
)
from fockboundary.scalars import GaussianRational, accumulate
from fockboundary.structure import joint_coordinates

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


def mono_product(a, b):
    """Contraction rule for M(I,J) . M(K,L); returns the resulting
    Monomial or None when the product vanishes."""
    (I, J), (K, L) = a, b
    n = len(J)
    if len(K) >= n:
        if K[:n] == J:
            return Monomial(I + K[n:], L)
        return None
    if J[: len(K)] == K:
        return Monomial(I, L + J[len(K):])
    return None


def pairwise_product(x, y):
    """Every term of x against every term of y by ``mono_product``."""
    terms = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            m = mono_product(ma, mb)
            if m is not None:
                terms[m] = terms.get(m, x.mode.zero) + ca * cb
    return CuntzElement(terms, x.weights)


def expand_to_levels(term_lists, d):
    """Each list of (word pair, coefficient) terms with every M(I, J)
    expanded by the Cuntz relation to the largest |J| of its class
    k = |I| - |J| over all the lists: a list of (word pair,
    coefficient) pieces per list, in term order."""
    top = {}
    for terms in term_lists:
        for (I, J), _ in terms:
            top[len(I) - len(J)] = max(top.get(len(I) - len(J), 0), len(J))
    return [[((I + K, J + K), c) for (I, J), c in terms
             for K in itertools.product(range(1, d + 1),
                                        repeat=top[len(I) - len(J)] - len(J))]
            for terms in term_lists]


def normal_form_by_expansion(x):
    """x's terms, class by class in order of first appearance, expanded
    and summed key by key; a sum that is zero (within 1e-12 in FLOAT)
    drops its key, which a later piece re-appends."""
    zero = (lambda v: not v) if x.mode == scalars.EXACT else (lambda v: abs(v) <= 1e-12)
    classes = {}
    for (I, J), c in x.terms.items():
        classes.setdefault(len(I) - len(J), []).append(((I, J), c))
    out = {}
    [pieces] = expand_to_levels([sum(classes.values(), [])], x.weights.d)
    for key, c in pieces:
        value = out[key] + c if key in out else c
        if zero(value):
            out.pop(key, None)
        else:
            out[key] = value
    return out


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


def gamma_keyed_by_monomial(U, x):
    """symbolic_gamma's terms built with a ``Monomial(K, L)`` call per
    product, in the same triple order."""
    mode = U.mode
    rows = [[(j, u) for j, u in enumerate(row, 1) if not mode.near_zero(u)]
            for row in U.rows]
    images = {EMPTY_WORD: {EMPTY_WORD: mode.one}}

    def image(word):
        if word not in images:
            row = rows[word[-1] - 1]
            images[word] = {K + (j,): c * u
                            for K, c in image(word[:-1]).items() for j, u in row}
        return images[word]

    def triples():
        for (I, J), coeff in x.terms.items():
            left = [(K, coeff * c) for K, c in image(I).items()]
            right = [(L, c.conjugate()) for L, c in image(J).items()]
            for K, a in left:
                for L, b in right:
                    yield Monomial(K, L), a, b

    return mode.sum_products(triples(), None)


def form_words(kind, words):
    """(A, B, C, D) with a kind's words in its slots ``FORMS[kind]``."""
    slot = dict(zip(FORMS[kind], words))
    return tuple(slot.get(s, ()) for s in "ABCD")


def closed_form_by_compose(x, weights, A=(), B=(), C=(), D=()):
    """r_A r_B* . x . r_C r_D* as products of full generator compressions:
    y = r_B* . x . r_C, then r_A . y and (r_A . y) . r_D* with their
    vacuum terms."""
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

    y = R(B).adjoint().compose(x).compose(R(C))
    z = R(A).compose(y)
    for head, tail in prefixes(A):
        term = R(tail).compose(P).compose(y).compose(L(head))
        z = z + term.scale(weights.word_weight(head))
    out = z.compose(R(D).adjoint())
    for head, tail in prefixes(D):
        term = L(head).adjoint().compose(z).compose(P).compose(R(tail).adjoint())
        out = out + term.scale(weights.word_weight(head))
    return out


def _factorize(n):
    """Prime exponent map of a positive integer, by trial division."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def classify_by_prime_exponents(values):
    """(kind, lambda, exponents) of exact weights: III_lambda iff every
    signed prime-exponent vector is an integer multiple of one primitive
    vector, with lambda the product of primes over that vector."""
    vectors = []
    for q in values:
        vec = _factorize(q.numerator)
        for p, e in _factorize(q.denominator).items():
            vec[p] = vec.get(p, 0) - e
        vectors.append(vec)
    primes = sorted({p for vec in vectors for p in vec if vec[p]})
    rows = [[vec.get(p, 0) for p in primes] for vec in vectors]
    content = gcd(*rows[0])
    primitive = [e // content for e in rows[0]]
    multiples = []
    for row in rows:
        ks = {e // u if u and e % u == 0 else None
              for e, u in zip(row, primitive) if u or e}
        if None in ks or len(ks) != 1:
            return "III_one", None, None
        multiples.append(ks.pop())
    if multiples[0] < 0:
        primitive = [-u for u in primitive]
        multiples = [-k for k in multiples]
    spread = gcd(*multiples)
    lam = Fraction(1)
    for p, u in zip(primes, primitive):
        lam *= Fraction(p) ** (u * spread)
    return "III_lambda", str(lam), [k // spread for k in multiples]


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
        product = a * b
        assert type(product) is PhasedElement
        assert_terms_agree(product.terms, pairwise_product(a, b).terms, w.mode)
        # the phase base of each contraction is its factors' product
        for ma in a.terms:
            for mb in b.terms:
                m = mono_product(ma, mb)
                if m is not None:
                    assert_scalars_agree(phase_base(w, m),
                                         phase_base(w, ma) * phase_base(w, mb),
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


class TestMonoProduct:
    def test_contraction_cases(self):
        # K extends J
        assert mono_product(Monomial((1,), (2,)), Monomial((2, 1), ())) == \
            Monomial((1, 1), ())
        # J extends K
        assert mono_product(Monomial((1,), (2, 1)), Monomial((2,), ())) == \
            Monomial((1,), (1,))
        # mismatch kills the product
        assert mono_product(Monomial((1,), (2,)), Monomial((1,), ())) is None

    def test_identity(self):
        m = Monomial((1, 2), (2,))
        e = Monomial((), ())
        assert mono_product(m, e) == m
        assert mono_product(e, m) == m


def real_elements(weights, max_len=3, max_terms=6):
    small = st.integers(-3, 3)
    coeff = st.builds(weights.mode.coerce, small.map(lambda a: Fraction(a, 4)))
    words = st.lists(st.integers(1, weights.d), max_size=max_len).map(tuple)
    return st.dictionaries(
        st.builds(Monomial, words, words), coeff, max_size=max_terms,
    ).map(lambda terms: CuntzElement(terms, weights))


class TestExpansion:
    """The Cuntz expansion that ``normal_form`` and ``joint_coordinates``
    share, against the same expansion on plain word pairs."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_normal_form(self, data):
        w = session_weights(*data.draw(sessions()))
        x = data.draw(elements(w))
        got = x.normal_form().terms
        want = normal_form_by_expansion(x)
        assert list(got) == list(want)
        assert all(type(m) is Monomial for m in got)
        assert_terms_agree(got, want, w.mode, tol=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_normal_form_of_zero(self, mode):
        w = session_weights(2, mode)
        assert CuntzElement.zero(w).normal_form().terms == {}
        assert normal_form_by_expansion(CuntzElement.zero(w)) == {}

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_joint_coordinates(self, data):
        w = session_weights(*data.draw(sessions()))
        els = data.draw(st.lists(real_elements(w), min_size=1, max_size=3))
        keys, rows = joint_coordinates(els, w)
        want = expand_to_levels([list(el.terms.items()) for el in els], w.d)
        assert keys == list(dict.fromkeys(k for row in want for k, _ in row))
        for row, pieces in zip(rows, want):
            sums = {}
            for key, c in pieces:
                sums[key] = sums.get(key, w.mode.zero) + c
            assert [row.get(j, 0) for j in range(len(keys))] == [
                w.mode.rational(sums.get(k, w.mode.zero)) for k in keys]


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

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_keeps_the_key_order(self, data):
        d, mode = data.draw(sessions())
        w = session_weights(d, mode, uniform=True)
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        if mode == scalars.EXACT:
            U = random_exact_unitary(d, rng)
        else:
            U = random_float_unitary(d, rng)
        x = data.draw(elements(w, max_len=3, max_terms=4))
        got = symbolic_gamma(U, x).terms
        assert list(got.items()) == list(gamma_keyed_by_monomial(U, x).items())
        assert all(type(m) is Monomial for m in got)

    def test_term_budget(self, monkeypatch):
        w = WeightVector.uniform(2)
        U = UnitaryMatrix([[Fraction(3, 5), Fraction(4, 5)],
                           [Fraction(-4, 5), Fraction(3, 5)]])
        x = CuntzElement.monomial(w, (1, 2), (1,))
        assert len(symbolic_gamma(U, x).terms) == 8
        monkeypatch.setenv("FOCK_TERM_CAP", "5")
        with pytest.raises(TermBudgetError):
            symbolic_gamma(U, x)

    @pytest.mark.parametrize("mode", MODES)
    def test_term_budget_counts_the_peak(self, monkeypatch, mode):
        # M(1, 1) gives 4 keys, and M(2, 2) cancels the 2 off-diagonal
        # ones: the budget holds the peak of 4, not the 2 that remain
        w = WeightVector.uniform(2, mode)
        U = UnitaryMatrix([[Fraction(3, 5), Fraction(4, 5)],
                           [Fraction(-4, 5), Fraction(3, 5)]], mode)
        x = CuntzElement({Monomial((1,), (1,)): 1, Monomial((2,), (2,)): 1}, w)
        monkeypatch.setenv("FOCK_TERM_CAP", "4")
        assert list(symbolic_gamma(U, x).terms) == [((1,), (1,)), ((2,), (2,))]
        for cap in (1, 3):
            monkeypatch.setenv("FOCK_TERM_CAP", str(cap))
            with pytest.raises(TermBudgetError) as err:
                symbolic_gamma(U, x)
            assert str(err.value) == "substitution exceeded the term budget (%d)" % cap


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
        words = tuple(data.draw(word) for _ in FORMS[kind])
        harmonic = data.draw(st.booleans())
        if harmonic:
            x = data.draw(elements(w, max_len=2, max_terms=4)).to_truncated(cut)
        else:
            x = data.draw(operators(w, cut))
        got = closed_form_mixed(kind, words, x, w, check_harmonic=harmonic)
        want = closed_form_by_compose(x, w, *form_words(kind, words))
        assert (got.cut, got.d, got.mode) == (want.cut, want.d, want.mode)
        assert_terms_agree(got.entries, want.entries, mode, tol=1e-12)

    @pytest.mark.parametrize("kind", FORM_KINDS)
    def test_bad_letter(self, kind, w13):
        x = TruncatedOperator.identity(4, 2)
        words = ((1, 3),) if len(FORMS[kind]) == 1 else ((1,), (0,))
        with pytest.raises(LetterRangeError):
            closed_form_mixed(kind, words, x, w13)
        with pytest.raises(LetterRangeError):
            closed_form_by_compose(x, w13, *form_words(kind, words))

    def test_word_count_and_kind(self, w13):
        x = TruncatedOperator.identity(4, 2)
        with pytest.raises(ValueError, match="form 'i' takes 1 word"):
            closed_form_mixed("i", ((1,), (2,)), x, w13)
        with pytest.raises(ValueError, match="form 'vi' takes 2 word"):
            closed_form_mixed("vi", ((1,),), x, w13)
        with pytest.raises(ValueError):
            closed_form_mixed("viii", ((1,),), x, w13)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_two_sided(self, data):
        # r_A r_B* . x . r_C r_D* with words on both sides: on harmonic x
        # against the symbolic product on the block that it certifies,
        # and on any operator against the compositions, entry for entry
        d, mode = data.draw(sessions())
        w = session_weights(d, mode)
        word = st.lists(st.integers(1, d), max_size=2).map(tuple)
        A, B, C, D = (data.draw(word) for _ in "ABCD")
        degree = len(A + B + C + D)

        def M(I, J):
            return CuntzElement.monomial(w, I, J)

        # M(B, C) keeps r_B* . a . r_C from vanishing for most draws
        a = data.draw(elements(w, max_len=2, max_terms=4)) + M(B, C)
        product = M(A, ()) * M((), B) * a * M(C, ()) * M((), D)
        cut = max(degree + data.draw(st.integers(0, 2 if d == 2 else 1)),
                  a.max_word_length(), product.max_word_length(), 1)
        got = closed_form(a.to_truncated(cut), w, (A, B), (C, D))
        assert got.equal_on_block(product.to_truncated(cut), cut - degree)
        x = data.draw(operators(w, data.draw(st.integers(2, 5 if d == 2 else 4))))
        got = closed_form(x, w, (A, B), (C, D), check_harmonic=False)
        want = closed_form_by_compose(x, w, A, B, C, D)
        assert (got.cut, got.d, got.mode) == (want.cut, want.d, want.mode)
        assert_terms_agree(got.entries, want.entries, mode, tol=1e-12)


POWER_TUPLES = [
    (Fraction(1, k), exps)
    for k in range(2, 10)
    for d in range(2, 10)
    for exps in exponent_decomposition(Fraction(1, k), d)
]


class TestClassification:
    def assert_agrees(self, values):
        got = classify(WeightVector(values)).to_json()
        want = classify_by_prime_exponents(values)
        assert (got["kind"], got["lambda"], got["exponents"]) == want
        assert got["numeric"] is False

    @given(st.lists(st.integers(1, 29), min_size=2, max_size=9))
    @settings(max_examples=300, deadline=None)
    def test_desk_scale_weights(self, parts):
        self.assert_agrees([Fraction(p, sum(parts)) for p in parts])

    @given(st.sampled_from(POWER_TUPLES), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_powers_of_unit_fractions(self, tuple_, rng):
        lam, exps = tuple_
        exps = list(exps)
        rng.shuffle(exps)
        self.assert_agrees([lam ** k for k in exps])

    def test_power_tuples_cover_every_lambda(self):
        assert {lam for lam, _ in POWER_TUPLES} == {
            Fraction(1, k) for k in range(2, 10)}


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


# -- the truncated layer's word codes against word tuples ---------------------
#
# TruncatedOperator keys its entries by word codes.  Each reference below
# is the operation on a dict keyed by word tuples (I, J), as the layer
# computed it before the codes, so that the codes are checked word for
# word and entry for entry.


def tuple_strip_suffix(s):
    k = len(s)
    return lambda v: v[: len(v) - k] if v[len(v) - k:] == s else None


def tuple_strip_prefix(p):
    k = len(p)
    return lambda v: v[k:] if v[:k] == p else None


def tuple_append(s, cut):
    return lambda v: v + s if len(v) + len(s) <= cut else None


def tuple_vacuum(v):
    return None if v else v


def tuple_block(entries, degree):
    return {k: v for k, v in entries.items()
            if len(k[0]) <= degree and len(k[1]) <= degree}


def tuple_markov_step(x, weights):
    w = [x.mode.coerce(v) for v in weights.values]
    return x.mode.sum_products(
        (((row[1:], col[1:]), w[row[0] - 1], val)
         for (row, col), val in x.word_entries().items()
         if row and col and row[0] == col[0]),
        None)


def tuple_compose(x, y):
    by_mid = {}
    for (mid, col), val in y.word_entries().items():
        by_mid.setdefault(mid, []).append((col, val))
    return x.mode.sum_products(
        (((row, col), a, b)
         for (row, mid), a in x.word_entries().items()
         for col, b in by_mid.get(mid, ())),
        None)


def tuple_defects(x, weights):
    stepped = tuple_markov_step(x, weights)
    inner = tuple_block(x.word_entries(), x.cut - 1)
    z = x.mode.zero
    return {key: stepped.get(key, z) - inner.get(key, z)
            for key in stepped.keys() | inner.keys()
            if not x.mode.eq(stepped.get(key, z), inner.get(key, z))}


def tuple_to_truncated(element, cut):
    d = element.weights.d

    def pairs():
        for mono, coeff in element.terms.items():
            i_op = word_reverse(mono.I)
            j_op = word_reverse(mono.J)
            for w in words_up_to(d, cut - max(len(i_op), len(j_op))):
                yield (w + i_op, w + j_op), coeff
            n = len(mono.J)
            for t in range(1, n + 1):
                if i_op[:t] == j_op[:t]:
                    factor = element.weights.word_weight(j_op[:t])
                    yield (i_op[t:], word_reverse(mono.J[: n - t])), coeff * factor

    return accumulate(pairs(), element.mode)


def tuple_second_quantize(U, cut):
    """Gamma(U) a degree at a time, each degree's entries the previous
    degree's times one more entry u_{ji}."""
    mode = U.mode
    image = [[(i, u) for i, u in enumerate(row, 1) if not mode.near_zero(u)]
             for row in U.rows]
    level = {((), ()): mode.one}
    entries = dict(level)
    for _ in range(cut):
        level = {(row + (i,), col + (j,)): val * u
                 for (row, col), val in level.items()
                 for j, pairs in enumerate(image, 1) for i, u in pairs}
        entries.update(level)
    return entries


def tuple_markov_step_in_basis(x, weights, V):
    d, mode = x.d, x.mode
    w = [mode.coerce(v) for v in weights.values]
    c = {}
    for j in range(d):
        for k in range(d):
            s = mode.zero
            for i in range(d):
                s = s + w[i] * V.rows[i][j].conjugate() * V.rows[i][k]
            if s:
                c[(j + 1, k + 1)] = s
    return mode.sum_products(
        (((row[1:], col[1:]), c[(row[0], col[0])], val)
         for (row, col), val in x.word_entries().items()
         if row and col and (row[0], col[0]) in c),
        None)


def assert_entries_match(got, want, mode):
    """The operator's word entries equal the reference dict, in the same
    order: exactly in exact mode, within 1e-12 in float mode."""
    got = got.word_entries()
    assert list(got) == list(want)
    if mode == scalars.EXACT:
        assert got == want
    else:
        assert all(abs(got[k] - v) <= 1e-12 for k, v in want.items())


ALPHABETS = st.integers(2, 9)


def any_words(d, max_len=7):
    return st.lists(st.integers(1, d), max_size=max_len).map(tuple)


def affixes(data, d, v):
    """A word to strip from or append to v: often one of v's own
    prefixes or suffixes, so that the stripping maps hit, and otherwise
    any word, longer than v or not."""
    cut = data.draw(st.integers(0, len(v)))
    return data.draw(st.one_of(
        st.just(v[:cut]), st.just(v[cut:]), any_words(d)))


def code_sessions():
    """(d, mode) draws over one, two and three bits per letter."""
    return st.tuples(st.sampled_from((2, 3, 5)), st.sampled_from(MODES))


class TestWordCodes:
    @given(ALPHABETS, st.data())
    @settings(max_examples=300, deadline=None)
    def test_encode_decode(self, d, data):
        word = data.draw(any_words(d))
        code = encode(word, d)
        assert decode(code, d) == word
        assert code.bit_length() == len(word) * letter_bits(d) + 1
        other = data.draw(any_words(d))
        assert (encode(other, d) == code) == (other == word)

    @pytest.mark.parametrize("d", range(2, 10))
    def test_enumeration_is_length_then_lex(self, d):
        n = 3 if d <= 5 else 2
        pairs = prepend_words(1, 1, d, n)
        assert [(decode(r, d), decode(c, d)) for r, c in pairs] == [
            (w, w) for w in words_up_to(d, n)]

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_json_order_is_length_then_word(self, data):
        d, mode = data.draw(code_sessions())
        x = data.draw(operators(WeightVector.uniform(d, mode), 3))
        keys = [(rec["row"], rec["col"]) for rec in x.to_json()["entries"]]
        words = sorted(x.word_entries(),
                       key=lambda rc: (len(rc[0]), rc[0], len(rc[1]), rc[1]))
        assert keys == [("".join(map(str, r)), "".join(map(str, c)))
                        for r, c in words]

    @given(ALPHABETS, st.data())
    @settings(max_examples=500, deadline=None)
    def test_word_maps(self, d, data):
        # relabel moves the word v on either side of an entry as the
        # tuple map moves it, and drops the entry where that gives None
        v = data.draw(any_words(d))
        affix = affixes(data, d, v)
        cut = data.draw(st.integers(0, 9))
        other = data.draw(any_words(d, max_len=3))
        code, o = encode(v, d), encode(other, d)

        def agree(tuple_map, top, **strip_or_add):
            want = tuple_map(v)
            for side, entry in (("row", (code, o)), ("col", (o, code))):
                got = relabel({entry: 1}, side, d, top, **strip_or_add)
                if want is None:
                    assert got == {}
                    continue
                [key] = got
                moved, kept = key if side == "row" else key[::-1]
                assert decode(moved, d) == want and kept == o and got[key] == 1

        agree(tuple_strip_prefix(affix), len(v), strip=prefix(affix, d))
        agree(tuple_strip_suffix(affix), len(v), strip=suffix(affix, d))
        agree(tuple_append(affix, cut), cut - len(affix), add=suffix(affix, d))
        agree(lambda u: affix + u if len(u) + len(affix) <= cut else None,
              cut - len(affix), add=prefix(affix, d))
        agree(tuple_vacuum, 0)
        assert (encode(v, d) < block_bound(cut, d)) == (len(v) <= cut)


def level_prepend(row, col, d, max_len):
    """``prepend_words`` as a level loop: each level is the one before
    with each letter a prepended, a in the outer loop."""
    if max_len < 0:
        return []
    b = letter_bits(d)
    level = [(row, col)]
    out = list(level)
    for _ in range(max_len):
        level = [((r << b) | a, (c << b) | a) for a in range(d) for r, c in level]
        out += level
    return out


def budget_lengths(d):
    """The word lengths n whose words of length <= n fit the term budget."""
    n = 0
    while True:
        try:
            fock.check_word_budget("words", d, (n,))
        except TermBudgetError:
            return range(n)
        n += 1


class TestWordTables:
    @pytest.mark.parametrize("d", range(2, 10))
    def test_against_the_level_loop(self, d, monkeypatch):
        monkeypatch.setattr(fock, "_WORD_TABLES", {})
        rng = random.Random(d)

        def code():
            return encode([rng.randint(1, d) for _ in range(rng.randint(0, 4))], d)

        lengths = budget_lengths(d)
        # longer and longer, each call growing the table; then shorter
        # and shorter, each read from the kept table
        for n in [-2, -1, *lengths, *reversed(lengths)]:
            row, col = code(), code()
            assert prepend_words(row, col, d, n) == level_prepend(row, col, d, n)
        table = fock._WORD_TABLES[d]
        assert len(table) == len(lengths)
        assert type(table) is tuple
        assert all(type(level) is tuple for level in table)

    def test_a_table_over_the_cap_is_served_not_kept(self, monkeypatch):
        monkeypatch.setattr(fock, "_WORD_TABLES", {})
        monkeypatch.setenv("FOCK_TERM_CAP", "40")
        # 127 codes at d=2, length <= 6; 31 at length <= 4
        assert prepend_words(3, 2, 2, 6) == level_prepend(3, 2, 2, 6)
        assert fock._WORD_TABLES == {}
        assert prepend_words(3, 2, 2, 4) == level_prepend(3, 2, 2, 4)
        assert [len(level) for level in fock._WORD_TABLES[2]] == [1, 2, 4, 8, 16]
        assert prepend_words(1, 5, 2, 6) == level_prepend(1, 5, 2, 6)
        assert len(fock._WORD_TABLES[2]) == 5


def assert_same_dict(got, want, mode):
    """Equal keys in equal order and equal values; float values bitwise,
    the sign of a zero part included."""
    assert list(got) == list(want)
    if mode == scalars.EXACT:
        assert got == want
        return
    for key, v in want.items():
        u = got[key]
        assert (math.copysign(1, u.real), u.real, math.copysign(1, u.imag), u.imag) \
            == (math.copysign(1, v.real), v.real, math.copysign(1, v.imag), v.imag), key


def creation_maps(word, cut, d, mode):
    """r_W, r_W*, l_W and l_W*: the 0/1 word maps."""
    r = op_right_creation(word, cut, d, mode)
    left = op_left_creation(word, cut, d, mode)
    return [r, r.adjoint(), left, left.adjoint()]


def built_twin(m):
    """The operator with m's entries, built with no lazy value."""
    return TruncatedOperator(m.entries, m.cut, m.d, m.mode, _trusted=True)


def moved(y, side, top, **affix):
    """``relabel`` of y's entries, as an operator."""
    return TruncatedOperator(relabel(y.entries, side, y.d, top, **affix),
                             y.cut, y.d, y.mode, _trusted=True)


def creation_form_by_sums(y, side, rev, weights):
    """``_creation_form`` as a chain of operator sums, one
    ``out + term.scale(...)`` per vacuum term."""
    other = "col" if side == "row" else "row"
    d, cut = y.d, y.cut
    out = moved(y, side, cut - len(rev), add=suffix(rev, d))
    vac = moved(y, side, 0)
    for t in range(1, len(rev) + 1):
        term = moved(vac, other, cut, strip=prefix(rev[:t], d))
        term = moved(term, side, cut - len(rev) + t, add=suffix(rev[t:], d))
        out = out + term.scale(weights.word_weight(rev[:t]))
    return out


def closed_form_by_sums(x, weights, A=(), B=(), C=(), D=()):
    """``closed_form`` through ``moved`` and ``creation_form_by_sums``."""
    d = x.d
    y = moved(x, "row", x.cut, strip=suffix(word_reverse(B), d))
    y = moved(y, "col", x.cut, strip=suffix(word_reverse(C), d))
    y = creation_form_by_sums(y, "row", word_reverse(A), weights)
    return creation_form_by_sums(y, "col", word_reverse(D), weights)


def products_taken(x, y):
    """x.compose(y), and whether it summed products (not moved entries)."""
    kernel = type(x.mode).compose_sum
    with mock.patch.object(type(x.mode), "compose_sum", autospec=True,
                           side_effect=kernel) as summed:
        z = x.compose(y)
    return z, summed.called


class TestCodeKernels:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_markov_step_and_defects(self, data):
        d, mode = data.draw(code_sessions())
        w = WeightVector.uniform(d, mode) if d == 5 else session_weights(d, mode)
        cut = data.draw(st.integers(1, 4))
        x = data.draw(operators(w, cut))
        assert_entries_match(markov_step(x, w), tuple_markov_step(x, w), mode)
        got = is_harmonic(x, w).defects
        want = tuple_defects(x, w)
        assert got.keys() == want.keys()
        assert_terms_agree(got, want, mode, tol=1e-12)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_compose_adjoint_recut(self, data):
        d, mode = data.draw(code_sessions())
        w = WeightVector.uniform(d, mode)
        cut = data.draw(st.integers(0, 4))
        x = data.draw(operators(w, cut))
        y = data.draw(operators(w, cut))
        assert_entries_match(x.compose(y), tuple_compose(x, y), mode)
        assert_entries_match(x.adjoint(), {
            (c, r): v.conjugate() for (r, c), v in x.word_entries().items()}, mode)
        degree = data.draw(st.integers(0, cut))
        assert_entries_match(x.recut(degree),
                             tuple_block(x.word_entries(), degree), mode)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_to_truncated(self, data):
        d, mode = data.draw(code_sessions())
        w = WeightVector.uniform(d, mode) if d == 5 else session_weights(d, mode)
        x = data.draw(elements(w, max_len=2, max_terms=4))
        cut = data.draw(st.integers(2, 4))
        assert_entries_match(x.to_truncated(cut), tuple_to_truncated(x, cut), mode)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_creations(self, data):
        d, mode = data.draw(code_sessions())
        cut = data.draw(st.integers(0, 4))
        word = data.draw(any_words(d, max_len=5))
        one = mode.one
        right = {(v + word_reverse(word), v): one
                 for v in words_up_to(d, cut - len(word))}
        left = {(word + v, v): one for v in words_up_to(d, cut - len(word))}
        assert_entries_match(op_right_creation(word, cut, d, mode), right, mode)
        assert_entries_match(op_left_creation(word, cut, d, mode), left, mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d,cut", [(2, 4), (3, 3), (5, 2)])
    def test_second_quantize_and_rotated_step(self, d, cut, mode):
        rng = random.Random(d)
        w = WeightVector.uniform(d, mode) if d == 5 else session_weights(d, mode)
        for _ in range(3):
            if mode == scalars.EXACT:
                V = random_exact_unitary(d, rng)
            else:
                V = random_float_unitary(d, rng)
            assert_entries_match(second_quantize(V, cut),
                                 tuple_second_quantize(V, cut), mode)
            entries = {}
            basis = words_up_to(d, cut)
            for _ in range(30):
                key = (rng.choice(basis), rng.choice(basis))
                entries[key] = mode.random_coeff(rng)
            x = TruncatedOperator(entries, cut, d, mode)
            assert_entries_match(markov_step_in_basis(x, w, V),
                                 tuple_markov_step_in_basis(x, w, V), mode)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_word_map_compose(self, data):
        # compose moves entries when a factor is a 0/1 word map: the dict
        # must be tuple_compose's, and the sum path's for the built twin,
        # key order and float bits included
        d, mode = data.draw(code_sessions())
        cut = data.draw(st.integers(0, 4))
        w = WeightVector.uniform(d, mode)
        x = data.draw(operators(w, cut))
        # conjugated values carry -0.0 imaginary parts; a float scale by a
        # factor just above 1e-12 stores values at or below 1e-12, which
        # the move must drop
        tiny = x.scale(mode.coerce(Fraction(1, 2 ** 39)))
        x = data.draw(st.sampled_from([x, x.adjoint(), tiny]))
        word = data.draw(any_words(d, max_len=3))
        maps = creation_maps(word, cut, d, mode) + [
            TruncatedOperator.identity(cut, d, mode),
            TruncatedOperator.vacuum_projection(cut, d, mode)]
        for m in maps:
            twin = built_twin(m)
            for a, b, a2, b2 in ((x, m, x, twin), (m, x, twin, x)):
                got, summed = products_taken(a, b)
                want, twin_summed = products_taken(a2, b2)
                assert_same_dict(got.word_entries(), tuple_compose(a, b), mode)
                assert_same_dict(got.entries, want.entries, mode)
                assert twin_summed and not summed

    @pytest.mark.parametrize("mode", MODES)
    def test_word_map_near_misses_sum_products(self, mode):
        d, cut = 2, 3
        rng = random.Random(3)
        one = mode.one
        basis = words_up_to(d, cut)
        entries = {(rng.choice(basis), rng.choice(basis)): mode.random_coeff(rng)
                   for _ in range(20)}
        x = TruncatedOperator(entries, cut, d, mode)
        r = op_right_creation((1,), cut, d, mode).word_entries()
        first = next(iter(r))
        misses = {
            "a value 2 * one": {**r, first: one + one},
            "a repeated middle word": {**r, ((2, 2), first[1]): one},
            "two middle words onto one target": {**r, (first[0], (2, 2)): one},
            "an empty factor": {},
        }
        for name, miss in misses.items():
            m = TruncatedOperator(miss, cut, d, mode)
            for a, b in ((x, m), (m, x), (m.adjoint(), x), (x, m.adjoint())):
                got, summed = products_taken(a, b)
                assert summed, name
                assert_same_dict(got.word_entries(), tuple_compose(a, b), mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", (2, 3))
    def test_to_truncated_overlapping_and_cancelling_terms(self, d, mode):
        w = session_weights(d, mode)
        one = mode.one
        cases = [
            # the expansion relation: every entry cancels, the vacuum last
            {Monomial((), ()): one,
             **{Monomial((a,), (a,)): -one for a in range(1, d + 1)}},
            # M(I, J) covers the keys of M(Ia, Ja)
            {Monomial((1,), (2,)): one, Monomial((1, 2), (2, 2)): one + one},
            # keys that M(1, 1) cancels come back, at the end of the dict
            {Monomial((), ()): one, Monomial((1,), (1,)): -one,
             Monomial((1, 1), (1, 1)): one},
        ]
        for terms in cases:
            x = CuntzElement(terms, w)
            for cut in (2, 3):
                assert_same_dict(x.to_truncated(cut).word_entries(),
                                 tuple_to_truncated(x, cut), mode)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_creation_forms_sum_in_place(self, data):
        d, mode = data.draw(sessions())
        w = session_weights(d, mode)
        cut = data.draw(st.integers(3, 5 if d == 2 else 4))
        kind = data.draw(st.sampled_from(("iv", "v", "vi", "vii")))
        word = st.lists(st.integers(1, d), min_size=3, max_size=3).map(tuple)
        words = tuple(data.draw(word) for _ in FORMS[kind])
        x = data.draw(elements(w, max_len=2, max_terms=4)).to_truncated(cut)
        got = closed_form_mixed(kind, words, x, w, check_harmonic=False)
        assert_same_dict(got.entries,
                         closed_form_by_sums(x, w, *form_words(kind, words)).entries,
                         mode)


# -- harmonicity in one pass against the Markov step ----------------------------


def stepped_defects(x, weights, tol=1e-12):
    """``is_harmonic``'s defects through the Markov step: P(x) built as an
    operator, then compared key by key with x's degree <= cut - 1 block."""
    stepped = markov_step(x, weights).word_entries()
    inner = tuple_block(x.word_entries(), x.cut - 1)
    mode = x.mode
    z = mode.zero
    return {key: stepped.get(key, z) - inner.get(key, z)
            for key in stepped.keys() | inner.keys()
            if not mode.eq(stepped.get(key, z), inner.get(key, z), tol)}


def assert_report_matches(x, weights, tol=1e-12):
    """``is_harmonic`` against ``stepped_defects``: exact defects equal as
    dicts, float defects on the same keys within 1e-12."""
    report = is_harmonic(x, weights, tol)
    want = stepped_defects(x, weights, tol)
    assert report.ok == (not want)
    assert report.checked_degree == x.cut - 1
    assert report.defects.keys() == want.keys()
    worst = max((abs(complex(v)) for v in want.values()), default=0.0)
    if x.mode == scalars.EXACT:
        assert report.defects == want
        assert report.max_abs_defect == worst
    else:
        assert all(abs(report.defects[k] - v) <= 1e-12 for k, v in want.items())
        assert abs(report.max_abs_defect - worst) <= 1e-12
    return report


def with_entry(x, key, value):
    """x with the word entry at ``key`` set to ``value`` (zero drops it)."""
    entries = x.word_entries()
    entries[key] = value
    return TruncatedOperator(entries, x.cut, x.d, x.mode)


def spy_step_sums(mode):
    """A spy on the field's ``step_sums`` that still runs it; each call's
    args are (mode, entries, table, bits)."""
    kind = type(mode)
    return mock.patch.object(kind, "step_sums", autospec=True,
                             side_effect=kind.step_sums)


class TestOnePassHarmonicity:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_harmonic_operators(self, data):
        d, mode = data.draw(code_sessions())
        w = WeightVector.uniform(d, mode) if d == 5 else session_weights(d, mode)
        cut = data.draw(st.integers(2, 4 if d == 2 else 3))
        x = data.draw(elements(w, max_len=2, max_terms=4)).to_truncated(cut)
        report = assert_report_matches(x, w)
        assert report.ok and report.defects == {} and report.max_abs_defect == 0.0

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_entry_perturbed(self, data):
        d, mode = data.draw(sessions())
        w = session_weights(d, mode)
        cut = data.draw(st.integers(2, 4 if d == 2 else 3))
        x = data.draw(elements(w, max_len=2, max_terms=4)).to_truncated(cut)
        words = words_up_to(d, cut)
        key = (data.draw(st.sampled_from(words)), data.draw(st.sampled_from(words)))
        delta = data.draw(coefficients(mode).filter(bool))
        y = with_entry(x, key, x.entry(*key) + delta)
        report = assert_report_matches(y, w)
        # an entry below the top degree is its own defect at least
        if len(key[0]) < cut and len(key[1]) < cut:
            assert key in report.defects

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_stripped_key_missing(self, data):
        # dropping an inner entry of a harmonic x leaves P(x) there with no
        # entry of x to compare it with
        d, mode = data.draw(sessions())
        w = session_weights(d, mode)
        cut = data.draw(st.integers(2, 4 if d == 2 else 3))
        x = data.draw(elements(w, max_len=2, max_terms=4)).to_truncated(cut)
        inner = sorted(k for k in x.word_entries()
                       if len(k[0]) < cut and len(k[1]) < cut)
        if not inner:
            return
        key = data.draw(st.sampled_from(inner))
        report = assert_report_matches(with_entry(x, key, 0), w)
        assert key in report.defects

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", (2, 3))
    def test_missing_keys_whose_sums_cancel_or_not(self, d, mode):
        w = session_weights(d, mode)
        w1, w2 = (mode.coerce(v) for v in w.values[:2])
        c = mode.coerce(GaussianRational(2, -1))
        cut = 3
        # at (2, 1) the Markov step sums w1 c w2 - w2 c w1 = 0; at (21, 12)
        # it sums w1 c, and x has neither key
        cancel = {((1, 2), (1, 1)): c * w2, ((2, 2), (2, 1)): -(c * w1)}
        stays = {((1, 2, 1), (1, 1, 2)): c}
        for entries, missing_defect in ((cancel, False), (stays, True),
                                        ({**cancel, **stays}, True)):
            x = TruncatedOperator(entries, cut, d, mode)
            report = assert_report_matches(x, w)
            assert ((((2, 1), (1, 2)) in report.defects) == missing_defect)
            assert ((2,), (1,)) not in report.defects

    @pytest.mark.parametrize("mode", MODES)
    def test_float_defects_beyond_the_tolerance(self, mode):
        w = session_weights(3, mode)
        x = CuntzElement({Monomial((1, 2), (3,)): mode.one}, w).to_truncated(4)
        key = ((2, 1), (3,))
        for delta, defect in ((1e-9, True), (1e-14, mode == scalars.EXACT)):
            y = with_entry(x, key, x.entry(*key) + mode.coerce(Fraction(delta)))
            report = assert_report_matches(y, w)
            assert (key in report.defects) == defect
        # a small sum at a key x lacks, under the default and a wider tol
        small = mode.coerce(Fraction(1e-9))
        y = TruncatedOperator({((1, 2), (1, 3)): small}, 4, 3, mode)
        assert ((2,), (3,)) in assert_report_matches(y, w).defects
        assert assert_report_matches(y, w, 1e-6).ok == (mode != scalars.EXACT)

    @pytest.mark.parametrize("mode", MODES)
    def test_takes_no_markov_step(self, mode):
        w = session_weights(2, mode)
        # entries with an empty row and with an empty column
        x = CuntzElement({Monomial((1,), (2, 1)): mode.one,
                          Monomial((2, 1), (1,)): mode.one}, w).to_truncated(4)
        # without its entry at ((), (2,)), x lacks the key that the step
        # sums ((1,), (1, 2)) into
        lacking = with_entry(x, ((), (2,)), 0)
        with mock.patch.object(fock, "markov_step", wraps=markov_step) as step, \
                spy_step_sums(mode) as summed:
            assert is_harmonic(x, w).ok
            assert not summed.called
            assert not is_harmonic(lacking, w).ok
        assert not step.called
        # only the entries whose stripped key x lacks are summed: the
        # entry above ((), (2,)) and those with an empty word
        [call] = summed.call_args_list
        assert [(decode(r, 2), decode(c, 2)) for r, c in call.args[1]] == [
            ((1,), (1, 2)), ((2,), ())]


# -- harmonicity by identity against the arithmetic -----------------------------


def arithmetic_defects(entries, weights, bits, bound, tol=1e-12):
    """Exact ``harmonic_defects`` with every entry of the block summed:
    sum_a w_a x[ar, ac] - x[r, c] in field arithmetic, one hit a lookup
    that finds an entry, and ``_lacking`` on the hits that fall short."""
    mask = (1 << bits) - 1
    defects = {}
    same = hits = 0
    for (r, c), v in entries.items():
        if r > mask and c > mask and not (r ^ c) & mask:
            same += 1
        if r >= bound or c >= bound:
            continue
        s = -v
        for digit, w in enumerate(weights):
            y = entries.get(((r << bits) | digit, (c << bits) | digit))
            if y is not None:
                hits += 1
                s = s + GaussianRational(w) * y
        if s:
            defects[r, c] = s
    return fock._lacking(scalars.EXACT, entries, list(map(GaussianRational, weights)),
                         bits, same - hits, defects, tol)


def exact_weights(d):
    """Random exact weights: d positive integers over their sum."""
    return st.lists(st.integers(1, 9), min_size=d, max_size=d).map(
        lambda ns: WeightVector([Fraction(n, sum(ns)) for n in ns]))


def fromkeys_entries(d, cut):
    """Code entries as ``to_truncated`` writes a term, with no vacuum
    corrections: for each drawn (I, J, c), ``dict.fromkeys`` of the keys
    (W I, W J) that fit the cut, all holding the one object c."""
    words = st.lists(st.integers(1, d), max_size=cut).map(tuple)
    terms = st.lists(st.tuples(words, words, nonzero_coefficients(scalars.EXACT)),
                     max_size=4)

    def build(terms):
        entries = {}
        for i, j, c in terms:
            keys = prepend_words(encode(i, d), encode(j, d), d,
                                 cut - max(len(i), len(j)))
            entries.update(dict.fromkeys(keys, c))
        return entries

    return terms.map(build)


def successors(entries, bits, bound):
    """The keys (ar, ac) of x that are successors of a key (r, c) of x
    below ``bound``."""
    return [s for r, c in entries if r < bound and c < bound
            for a in range(1 << bits)
            if (s := ((r << bits) | a, (c << bits) | a)) in entries]


class TestHarmonicityByIdentity:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_against_the_arithmetic(self, data):
        d = data.draw(st.sampled_from((2, 3, 5)))
        w = data.draw(st.one_of(exact_weights(d), st.just(WeightVector.uniform(d))))
        cut = data.draw(st.integers(2, {2: 4, 3: 3, 5: 2}[d]))
        if data.draw(st.booleans()):
            entries = dict(data.draw(elements(w, max_len=2, max_terms=4))
                           .to_truncated(cut).entries)
        else:
            entries = data.draw(fromkeys_entries(d, cut))
        bits, bound = letter_bits(d), block_bound(cut - 1, d)
        change = data.draw(st.sampled_from(
            (None, "distinct", "deleted", "perturbed", "lacking")))
        succ = successors(entries, bits, bound)
        if change in ("distinct", "deleted") and succ:
            key = data.draw(st.sampled_from(succ))
            v = entries[key]
            if change == "deleted":
                del entries[key]
            else:
                entries[key] = GaussianRational(v.re, v.im)
                assert entries[key] == v and entries[key] is not v
        elif change == "perturbed" and entries:
            key = data.draw(st.sampled_from(sorted(entries)))
            entries[key] = entries[key] + data.draw(nonzero_coefficients(scalars.EXACT))
        elif change == "lacking" and entries:
            for key in data.draw(st.lists(st.sampled_from(sorted(entries)),
                                          min_size=1, max_size=3)):
                entries.pop(key, None)
        # weights that do not sum to one take no identity shortcut
        values = data.draw(st.sampled_from(
            (w.values, w.values[:-1] + (w.values[-1] / 2,))))
        triples = {id(v): (v, (v._a, v._b, v._den)) for v in entries.values()}
        got = fock.harmonic_defects(scalars.EXACT, entries, values, bits, bound)
        want = arithmetic_defects(entries, values, bits, bound)
        assert list(got.items()) == list(want.items())
        assert {id(v): (v, (v._a, v._b, v._den)) for v in entries.values()} == triples

    @pytest.mark.parametrize("d,cut", [(2, 4), (3, 3)])
    def test_every_entry_settled_by_identity(self, d, cut):
        # one value object at every key of the identity: its triple is
        # never read, and no Markov step runs
        class Watched(GaussianRational):
            __slots__ = ()
            reads = 0

            def __getattribute__(self, name):
                if name in ("_a", "_b", "_den"):
                    type(self).reads += 1
                return object.__getattribute__(self, name)

        c = object.__new__(Watched)
        for name, value in (("_a", 2), ("_b", -1), ("_den", 3)):
            object.__setattr__(c, name, value)
        entries = dict.fromkeys(prepend_words(1, 1, d, cut), c)
        w = EXACT_WEIGHTS[d].values
        bits, bound = letter_bits(d), block_bound(cut - 1, d)
        defects = functools.partial(fock.harmonic_defects, scalars.EXACT)
        with spy_step_sums(scalars.EXACT) as summed:
            assert defects(entries, w, bits, bound) == {}
            assert Watched.reads == 0 and not summed.called
            # an equal copy at one successor is summed, and is no defect
            entries[prepend_words(1, 1, d, 1)[-1]] = GaussianRational(
                Fraction(2, 3), Fraction(-1, 3))
            assert defects(entries, w, bits, bound) == {}
            assert Watched.reads > 0 and not summed.called
            # without the vacuum entry, the entries above it lack their key
            del entries[1, 1]
            got = defects(entries, w, bits, bound)
            assert summed.called
        assert list(got.items()) == list(arithmetic_defects(entries, w, bits, bound).items())
        assert got == {(1, 1): c}


# -- the walks in fock against the per-field loops they replaced ----------------


def reference_markov_sum(mode, entries, table, bits):
    """The per-field loops of the Markov steps as each field once wrote
    its own: exact on unreduced integer triples, float over table value
    * entry.  Each field's ``step_sums`` must give the same dict."""
    mask = (1 << bits) - 1
    sums = {}
    get = sums.get
    for (r, c), y in entries.items():
        if r <= mask or c <= mask:
            continue
        x = table[r & mask][c & mask]
        if x is None:
            continue
        key = (r >> bits, c >> bits)
        s = get(key)
        if mode == scalars.FLOAT:
            value = x * y
            if s is None:
                if abs(value) <= 1e-12:
                    continue
                sums[key] = value
            else:
                value = s + value
                if abs(value) <= 1e-12:
                    del sums[key]
                else:
                    sums[key] = value
            continue
        a1, b1, a2, b2 = x._a, x._b, y._a, y._b
        if not b1:
            a, b = a1 * a2, a1 * b2
        elif not b2:
            a, b = a1 * a2, b1 * a2
        else:
            a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        den = x._den * y._den
        if s is None:
            if not (a or b):
                continue
            s = sums[key] = object.__new__(GaussianRational)
            s._a, s._b, s._den = a, b, den
            continue
        sden = s._den
        if sden == den:
            a += s._a
            b += s._b
        else:
            g = gcd(sden, den)
            m, n = den // g, sden // g
            a, b, den = s._a * m + a * n, s._b * m + b * n, sden * m
        if a or b:
            s._a, s._b, s._den = a, b, den
        else:
            del sums[key]
    return sums if mode == scalars.FLOAT else scalars._reduce_sums(sums)


def reference_float_defects(entries, weights, bits, bound, tol=1e-12):
    """The float harmonicity loop as the float field once wrote it: float
    weights times entries, no identity shortcut, then the Markov loop at
    the keys x lacks when the hits fall short."""
    letters = list(enumerate(weights))
    mask = (1 << bits) - 1
    get = entries.get
    defects = {}
    same = hits = 0
    for (r, c), v in entries.items():
        if r > mask and c > mask and not (r ^ c) & mask:
            same += 1
        if r >= bound or c >= bound:
            continue
        R, C = r << bits, c << bits
        s = -v
        for digit, w in letters:
            y = get((R | digit, C | digit))
            if y is not None:
                hits += 1
                s += w * y
        if abs(s) > tol:
            defects[r, c] = s
    if same - hits:
        table = [[complex(w) if a == b else None for b in range(len(weights))]
                 for a, w in enumerate(weights)]
        lacking = {k: y for k, y in entries.items()
                   if (k[0] >> bits, k[1] >> bits) not in entries}
        for key, s in reference_markov_sum(scalars.FLOAT, lacking, table, bits).items():
            if abs(s) > tol:
                defects[key] = s
    return defects


def summed_defects(mode, entries, weights, bits, bound, tol=1e-12):
    """``harmonic_defects`` with no identity limit: every entry below
    ``bound`` summed in the field's arithmetic, but for an entry held at
    all d successors by its own object where the weights sum to exactly
    one, whose defect is zero; then ``_lacking`` on the hits that fall
    short."""
    unit = sum(map(Fraction, weights)) == 1
    weights = [mode.coerce(w) for w in weights]
    mask = (1 << bits) - 1
    defects = {}
    same = hits = 0
    for (r, c), v in entries.items():
        if r > mask and c > mask and not (r ^ c) & mask:
            same += 1
        if r >= bound or c >= bound:
            continue
        found = [entries.get(((r << bits) | a, (c << bits) | a))
                 for a in range(len(weights))]
        hits += sum(y is not None for y in found)
        if unit and all(y is v for y in found):
            continue
        s = -v
        for w, y in zip(weights, found):
            if y is not None:
                s += w * y
        if not mode.near_zero(s, tol):
            defects[r, c] = s
    return fock._lacking(mode, entries, weights, bits, same - hits, defects, tol)


def bit_items(entries):
    """A dict's items in order, each value as the exact bits it holds:
    the hex of both float parts (so -0.0 differs from 0.0), or the
    reduced integer triple."""
    return [(k, (v.real.hex(), v.imag.hex()) if isinstance(v, complex)
             else (v._a, v._b, v._den)) for k, v in entries.items()]


def distinct_copy(v):
    """An equal value in a new object, with the same bits."""
    if isinstance(v, complex):
        return complex(v.real, v.imag)
    return GaussianRational(v.re, v.im)


# float weights whose sum is exactly one in binary
BINARY_ONE = {2: (0.25, 0.75), 3: (0.2, 0.2, 0.6)}


def draw_code_entries(data, d, cut, mode, weights):
    """Word-code entries of a random operator with keys that cancel under
    the Markov step and entries with an empty word: random keys and
    values, then pairs (1 I, 1 J) and (2 I, 2 J) whose values are c w_2
    and -(c w_1), with c * w_a summing to zero, all in a drawn order."""
    words = st.lists(st.integers(1, d), max_size=cut).map(tuple)
    short = st.lists(st.integers(1, d), max_size=cut - 1).map(tuple)
    if mode == scalars.EXACT:
        values = nonzero_coefficients(mode)
    else:
        values = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                                    allow_nan=False, allow_infinity=False)
    w1, w2 = (mode.coerce(v) for v in weights[:2])
    entries = {}
    for I, J, c in data.draw(st.lists(st.tuples(words, words, values), max_size=12)):
        entries[encode(I, d), encode(J, d)] = c
    for I, J, c in data.draw(st.lists(st.tuples(short, short, values), max_size=3)):
        entries[encode((1,) + I, d), encode((1,) + J, d)] = c * w2
        entries[encode((2,) + I, d), encode((2,) + J, d)] = -(c * w1)
    return {k: entries[k] for k in data.draw(st.permutations(list(entries)))}


def dense_table(mode, weights, V, holes):
    """V* diag(w) V, as ``markov_step_in_basis`` builds it, with the cells
    in ``holes`` set to None."""
    d = len(weights)
    w = [mode.coerce(v) for v in weights]
    table = [[None] * d for _ in range(d)]
    for j in range(d):
        for k in range(d):
            s = mode.zero
            for i in range(d):
                s = s + w[i] * V.rows[i][j].conjugate() * V.rows[i][k]
            if s and (j, k) not in holes:
                table[j][k] = s
    return table


class TestOneWalkPerStep:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_strip_first_letters_against_the_field_loops(self, data):
        d, mode = data.draw(sessions())
        cut = data.draw(st.integers(1, 4 if d == 2 else 3))
        if mode == scalars.EXACT:
            weights = data.draw(exact_weights(d)).values
        else:
            raw = data.draw(st.lists(st.integers(1, 99), min_size=d, max_size=d))
            weights = tuple(n / sum(raw) for n in raw)
        entries = draw_code_entries(data, d, cut, mode, weights)
        x = TruncatedOperator(entries, cut, d, mode, _trusted=True)
        rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        V = (random_exact_unitary if mode == scalars.EXACT else random_float_unitary)(d, rng)
        cells = [(j, k) for j in range(d) for k in range(d)]
        holes = set(data.draw(st.lists(st.sampled_from(cells), max_size=d)))
        diagonal = [[mode.coerce(v) if j == k else None for k in range(d)]
                    for j, v in enumerate(weights)]
        dense = dense_table(mode, weights, V, holes)
        for table, got in ((diagonal, markov_step(x, WeightVector(weights, mode))),
                           (dense, fock.strip_first_letters(x, dense))):
            want = reference_markov_sum(mode, entries, table, letter_bits(d))
            assert bit_items(got.entries) == bit_items(want)

    def test_cancelling_keys_and_empty_words(self):
        d, mode = 2, scalars.EXACT
        w = EXACT_WEIGHTS[2]
        c = GaussianRational(2, -1)
        entries = {(encode((1, 2), d), encode((1,), d)): c * w.values[1],
                   (1, encode((2,), d)): c,
                   (encode((2, 2), d), encode((2,), d)): -(c * w.values[0]),
                   (encode((1, 1), d), encode((1, 2), d)): c}
        x = TruncatedOperator(entries, 2, d, mode, _trusted=True)
        got = markov_step(x, w).word_entries()
        # (2,), () cancels; the empty row is not stripped
        assert got == {((1,), (2,)): c * w.values[0]}

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_float_defects_bit_for_bit(self, data):
        d = data.draw(st.sampled_from((2, 3)))
        raw = data.draw(st.lists(st.integers(1, 99), min_size=d, max_size=d))
        values = tuple(n / sum(raw) for n in raw)
        assume(sum(map(Fraction, values)) != 1)
        w = WeightVector(values, scalars.FLOAT)
        cut = data.draw(st.integers(2, 4 if d == 2 else 3))
        entries = dict(data.draw(elements(w, max_len=2, max_terms=4))
                       .to_truncated(cut).entries)
        change = data.draw(st.sampled_from((None, "perturbed", "lacking")))
        if change == "perturbed" and entries:
            key = data.draw(st.sampled_from(sorted(entries)))
            entries[key] = entries[key] + data.draw(st.complex_numbers(
                max_magnitude=1e-3, allow_nan=False, allow_infinity=False))
        elif change == "lacking" and entries:
            for key in data.draw(st.lists(st.sampled_from(sorted(entries)),
                                          min_size=1, max_size=3)):
                entries.pop(key, None)
        bits, bound = letter_bits(d), block_bound(cut - 1, d)
        want = reference_float_defects(entries, values, bits, bound)
        got = fock.harmonic_defects(scalars.FLOAT, entries, values, bits, bound)
        assert bit_items(got) == bit_items(want)
        report = is_harmonic(TruncatedOperator(entries, cut, d, scalars.FLOAT,
                                               _trusted=True), w)
        assert bit_items(report.defects) == bit_items(
            {(decode(r, d), decode(c, d)): v for (r, c), v in want.items()})

    def test_float_shortcut_needs_weights_summing_to_one(self):
        # 0.1 + 0.3 + 0.6 is not one in binary, so every entry is summed,
        # and at tol 0 the rounding of each sum is a defect
        values = (0.1, 0.3, 0.6)
        assert sum(map(Fraction, values)) != 1
        w = WeightVector(values, scalars.FLOAT)
        x = CuntzElement.identity(w).to_truncated(3)
        bound = block_bound(2, 3)
        want = reference_float_defects(x.entries, values, 2, bound, tol=0)
        got = fock.harmonic_defects(scalars.FLOAT, x.entries, values, 2, bound, tol=0)
        assert want and bit_items(got) == bit_items(want)
        # 0.2 + 0.2 + 0.6 is one in binary: each entry is settled by
        # identity, and its true defect is zero, though the summed one
        # rounds to -1.1e-16
        values = (0.2, 0.2, 0.6)
        assert sum(map(Fraction, values)) == 1
        assert reference_float_defects(x.entries, values, 2, bound, tol=0)
        assert fock.harmonic_defects(scalars.FLOAT, x.entries, values, 2, bound,
                                     tol=0) == {}


    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_identity_limit_against_every_sum(self, data):
        # harmonic_defects, every entry summed, and the float field's old
        # loop where the weights do not sum to one give one dict, bit for
        # bit: the identity limit settles no entry whose sum is a defect
        mode = data.draw(st.sampled_from(MODES))
        d = data.draw(st.sampled_from((2, 3)))
        cut = data.draw(st.integers(2, 4 if d == 2 else 3))
        if mode == scalars.EXACT:
            w = data.draw(st.one_of(exact_weights(d), st.just(WeightVector.uniform(d))))
            values = data.draw(st.sampled_from(
                (w.values, w.values[:-1] + (w.values[-1] / 2,))))
            tol = 1e-12
        else:
            raw = data.draw(st.lists(st.integers(1, 99), min_size=d, max_size=d))
            values = data.draw(st.sampled_from((tuple(n / sum(raw) for n in raw),
                                                BINARY_ONE[d])))
            tol = data.draw(st.sampled_from((1e-12, 0.0)))
        entries = data.draw(fromkeys_entries(d, cut))
        if mode == scalars.FLOAT:
            # one complex object for each shared exact one
            floats = {}
            entries = {k: floats.setdefault(id(v), complex(v)) for k, v in entries.items()}
        bits, bound = letter_bits(d), block_bound(cut - 1, d)
        changes = ["distinct", "all distinct", "lacking", "orphans"]
        if mode == scalars.FLOAT:
            changes += ["large", "nan", "inf"]
        for change in data.draw(st.lists(st.sampled_from(changes), max_size=3)):
            succ = successors(entries, bits, bound)
            if change == "all distinct":
                entries = {k: distinct_copy(v) for k, v in entries.items()}
            elif change == "lacking" and succ:
                del entries[data.draw(st.sampled_from(succ))]
            elif change == "orphans" and succ:
                r, c = data.draw(st.sampled_from(succ))
                entries.pop((r >> bits, c >> bits), None)
            elif change == "large" and entries:
                # every key of one shared object, scaled up to 1e6
                old = entries[data.draw(st.sampled_from(sorted(entries)))]
                new = old * data.draw(st.sampled_from((10.0, 1e3, 1e6)))
                entries = {k: new if v is old else v for k, v in entries.items()}
            elif entries:
                key = data.draw(st.sampled_from(sorted(entries)))
                entries[key] = {"distinct": distinct_copy(entries[key]),
                                "nan": complex(math.nan, 1.0),
                                "inf": complex(math.inf, -1.0)}.get(change, entries[key])
        got = fock.harmonic_defects(mode, entries, values, bits, bound, tol)
        assert bit_items(got) == bit_items(
            summed_defects(mode, entries, values, bits, bound, tol))
        # the old loop's test abs(s) > tol reads a nan sum as no defect,
        # where near_zero reads it as one
        if mode == scalars.FLOAT and sum(map(Fraction, values)) != 1 and not any(
                map(cmath.isnan, entries.values())):
            assert bit_items(got) == bit_items(
                reference_float_defects(entries, values, bits, bound, tol))

    @pytest.mark.parametrize("d", (2, 3))
    def test_float_bound_settles_small_values_only(self, d):
        # weights that are not one in binary: |v| = 1 is settled with no
        # product taken, |v| = 1e6 is summed; both as the old loop gives
        class Counted(complex):
            products = 0

            def __rmul__(self, other):
                type(self).products += 1
                return complex.__rmul__(self, other)

        values = (0.1, 0.9) if d == 2 else (0.1, 0.3, 0.6)
        assert sum(map(Fraction, values)) != 1
        limit = scalars.FLOAT.identity_limit(values)
        assert 1 < limit < 1e6
        bits, bound = letter_bits(d), block_bound(2, d)
        for v, summed in ((Counted(0.6, -0.8), False), (Counted(6e5, -8e5), True)):
            entries = dict.fromkeys(prepend_words(1, 1, d, 3), v)
            Counted.products = 0
            got = fock.harmonic_defects(scalars.FLOAT, entries, values, bits, bound)
            assert bool(Counted.products) == summed
            want = reference_float_defects(entries, values, bits, bound)
            assert bit_items(got) == bit_items(want)
        # a tol below the least normal float settles nothing
        assert scalars.FLOAT.identity_limit(values, 1e-320) is None
        assert scalars.FLOAT.identity_limit((0.25, 0.75), 0.0) == math.inf


# -- the exact Markov step over its table's common denominator ------------------

# pairwise coprime denominators, so that no cell's denominator is the lcm
COPRIME = (1, 2, 3, 5, 7, 11, 13)


def rationals(dens):
    """Nonzero Gaussian rationals, real or not, whose parts are over
    denominators drawn from ``dens``."""
    part = st.builds(Fraction, st.integers(-40, 40), st.sampled_from(dens))
    return st.one_of(st.builds(GaussianRational, part),
                     st.builds(GaussianRational, part, part)).filter(bool)


def step_tables(data, d):
    """A d x d table of exact cells, None a hole: diag(w) with weights
    over distinct coprime denominators, a dense V* diag(w) V with holes,
    Gaussian integers (D = 1), or cells over mixed coprime denominators."""
    kind = data.draw(st.sampled_from(("diagonal", "dense", "gaussian", "mixed")))
    cells = [(j, k) for j in range(d) for k in range(d)]
    if kind == "diagonal":
        if d == 3 and data.draw(st.booleans()):
            weights = [Fraction(1, 3), Fraction(2, 5), Fraction(4, 15)]
        else:
            dens = data.draw(st.permutations(COPRIME[2:]))[:d]
            weights = [Fraction(data.draw(st.integers(1, q - 1)), q) for q in dens]
        return [[GaussianRational(w) if j == k else None for k in range(d)]
                for j, w in enumerate(weights)]
    holes = set(data.draw(st.lists(st.sampled_from(cells), max_size=d)))
    if kind == "dense":
        rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        weights = data.draw(exact_weights(d)).values
        return dense_table(scalars.EXACT, weights, random_exact_unitary(d, rng), holes)
    values = rationals((1,) if kind == "gaussian" else COPRIME)
    return [[None if (j, k) in holes else data.draw(values) for k in range(d)]
            for j in range(d)]


def step_entries(data, d, cut, table):
    """Word-code entries over mixed denominators, with empty words, and
    pairs (j1 I, k1 J), (j2 I, k2 J) at two cells t1, t2 holding c t2 and
    -(c t1), whose products cancel at (I, J), all in a drawn order."""
    words = st.lists(st.integers(1, d), max_size=cut).map(tuple)
    short = st.lists(st.integers(1, d), max_size=cut - 1).map(tuple)
    values = rationals(COPRIME + (4, 9, 15))
    entries = {}
    for I, J, c in data.draw(st.lists(st.tuples(words, words, values), max_size=12)):
        entries[encode(I, d), encode(J, d)] = c
    cells = [(j, k) for j in range(d) for k in range(d) if table[j][k] is not None]
    if cells:
        pairs = st.tuples(st.sampled_from(cells), st.sampled_from(cells), short, short, values)
        for (j1, k1), (j2, k2), I, J, c in data.draw(st.lists(pairs, max_size=3)):
            if (j1, k1) != (j2, k2):
                entries[encode((j1 + 1,) + I, d), encode((k1 + 1,) + J, d)] = c * table[j2][k2]
                entries[encode((j2 + 1,) + I, d), encode((k2 + 1,) + J, d)] = -(c * table[j1][k1])
    return {k: entries[k] for k in data.draw(st.permutations(list(entries)))}


def value_triples(entries, table):
    return [(v._a, v._b, v._den) for v in itertools.chain(
        entries.values(), (t for row in table for t in row if t is not None))]


def arithmetic_only(mode):
    """A field with ``mode``'s name, coercion and three arithmetic
    kernels, and no walk of its own: ``mode``'s weight vectors match it."""
    kind = type(mode)
    members = {name: vars(kind)[name] for name in
               ("coerce", "sum_products", "compose_sum", "moved_products")}
    return type("ArithmeticOnly", (scalars.Field,), {"__slots__": (), **members})(mode)


class TestExactStepSums:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_against_the_walk_and_the_reference(self, data):
        d = data.draw(st.sampled_from((2, 3, 4)))
        cut = data.draw(st.integers(1, 4 if d == 2 else 3))
        table = step_tables(data, d)
        entries = step_entries(data, d, cut, table)
        bits = letter_bits(d)
        before = value_triples(entries, table)
        want = bit_items(reference_markov_sum(scalars.EXACT, entries, table, bits))
        assert bit_items(scalars.EXACT.step_sums(entries, table, bits)) == want
        assert bit_items(scalars.Field.step_sums(scalars.EXACT, entries, table, bits)) == want
        assert value_triples(entries, table) == before

    def test_a_cancelled_key_comes_back_last(self):
        # (2, 1) cancels, then a third product puts it back after (1, 2)
        d = 2
        third, seventh = GaussianRational(Fraction(1, 3)), GaussianRational(Fraction(3, 7))
        fifth = GaussianRational(0, Fraction(2, 5))
        table = [[third, seventh], [None, fifth]]
        c = GaussianRational(Fraction(1, 9), 1)
        code = functools.partial(encode, d=d)
        entries = {(code((1, 2)), code((1, 1))): c * fifth,
                   (code((2, 2)), code((2, 1))): -(c * third),
                   (code((1, 1)), code((1, 2))): c,
                   (code((1, 2)), code((2, 1))): c}
        bits = letter_bits(d)
        got = scalars.EXACT.step_sums(entries, table, bits)
        assert list(got) == [(code((1,)), code((2,))), (code((2,)), code((1,)))]
        assert bit_items(got) == bit_items(
            reference_markov_sum(scalars.EXACT, entries, table, bits))

    def test_float_has_no_walk_of_its_own(self):
        assert "step_sums" in vars(scalars._Exact)
        assert "step_sums" not in vars(scalars._Float)
        assert scalars.FLOAT.step_sums.__func__ is scalars.Field.step_sums

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", (2, 3))
    def test_a_field_with_three_kernels_takes_markov_steps(self, d, mode):
        stub = arithmetic_only(mode)
        assert stub == mode and "step_sums" not in vars(type(stub))
        w = session_weights(d, mode)
        x = CuntzElement({Monomial((1, 2), (2,)): mode.coerce(GaussianRational(2, -1)),
                          Monomial((2,), (1, 1)): mode.one}, w).to_truncated(4)
        want = markov_step(x, w)
        kind = type(stub)
        with mock.patch.object(kind, "sum_products", autospec=True,
                               side_effect=kind.sum_products) as summed:
            got = markov_step(TruncatedOperator(x.entries, x.cut, d, stub, _trusted=True), w)
        assert summed.call_count == 1 and got.mode is stub
        assert bit_items(got.entries) == bit_items(want.entries) and want.entries


# -- the exact substitution over U's common denominator ------------------------


def nonzero_rows(U):
    return [[(j, u) for j, u in enumerate(row, 1) if u] for row in U.rows]


def exact_unitaries(data, d):
    """A ``random_exact_unitary`` draw at d, sparse (at most d * d // 2 + 1
    of its entries nonzero: a permutation with phases at d = 2) or dense,
    found by a search over seeds from a drawn start."""
    dense = data.draw(st.booleans())
    seed = data.draw(st.integers(0, 10 ** 6))
    while True:
        U = random_exact_unitary(d, random.Random(seed))
        if (sum(map(bool, itertools.chain(*U.rows))) > d * d // 2 + 1) == dense:
            return U
        seed += 1


def substitution_terms(data, d):
    """The terms of an element on uniform or non-uniform weights, with
    words of 0-3 letters and coefficients with parts over denominators
    from 1 to 15: a term dict, possibly empty."""
    words = st.lists(st.integers(1, d), max_size=3).map(tuple)
    w = data.draw(st.sampled_from((WeightVector.uniform(d), EXACT_WEIGHTS[d])))
    terms = data.draw(st.dictionaries(st.builds(Monomial, words, words),
                                      rationals(COPRIME + (4, 9, 15)), max_size=6))
    return CuntzElement(terms, w).terms


def substitution_walk(terms, U):
    return scalars.Field.substitution_sums(scalars.EXACT, terms, nonzero_rows(U), _monomial)


class TestExactSubstitutionSums:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_against_the_walk(self, data):
        d = data.draw(st.sampled_from((2, 3)))
        U = exact_unitaries(data, d)
        terms = substitution_terms(data, d)
        before = [(v._a, v._b, v._den) for v in terms.values()]
        got = scalars.EXACT.substitution_sums(terms, nonzero_rows(U), _monomial)
        want = substitution_walk(terms, U)
        assert bit_items(got) == bit_items(want)
        assert all(type(m) is Monomial for m in got)
        assert [(v._a, v._b, v._den) for v in terms.values()] == before

    def test_a_cancelled_key_comes_back_last(self):
        # U is a rotation times a phase, with entries over 5 and 65.  By
        # unitarity the off-diagonal keys of M(1, 1) + M(2, 2) cancel, and
        # M(1, 2) brings them back after the diagonal ones
        z = GaussianRational(Fraction(5, 13), Fraction(12, 13))
        U = UnitaryMatrix([[Fraction(3, 5), Fraction(4, 5)],
                           [Fraction(-4, 5), Fraction(3, 5)]]).compose(
            UnitaryMatrix([[z, 0], [0, 1]]))
        assert len({u._den for u in itertools.chain(*U.rows)}) == 2
        c = GaussianRational(Fraction(1, 7), 2)
        terms = {Monomial((1,), (1,)): c, Monomial((2,), (2,)): c,
                 Monomial((1,), (2,)): GaussianRational(Fraction(2, 9))}
        got = scalars.EXACT.substitution_sums(terms, nonzero_rows(U), _monomial)
        assert list(got) == [((1,), (1,)), ((2,), (2,)), ((1,), (2,)), ((2,), (1,))]
        assert bit_items(got) == bit_items(substitution_walk(terms, U))

    def test_float_has_no_walk_of_its_own(self):
        assert "substitution_sums" in vars(scalars._Exact)
        assert "substitution_sums" not in vars(scalars._Float)
        assert scalars.FLOAT.substitution_sums.__func__ is scalars.Field.substitution_sums

    @pytest.mark.parametrize("mode", MODES)
    def test_symbolic_gamma_sums_through_the_kernel(self, mode):
        w = WeightVector.uniform(3, mode)
        U = UnitaryMatrix([[0, 1, 0], [Fraction(3, 5), 0, Fraction(4, 5)],
                           [Fraction(-4, 5), 0, Fraction(3, 5)]], mode)
        x = CuntzElement({Monomial((1, 2), (3,)): 2, Monomial((), (2,)): 1}, w)
        kind = type(mode)
        with mock.patch.object(kind, "substitution_sums", autospec=True,
                               side_effect=kind.substitution_sums) as summed:
            got = symbolic_gamma(U, x)
        assert summed.call_count == 1
        assert_terms_agree(got.terms, substitution_by_generators(U, x).terms, mode)


# -- word maps built by their constructors -------------------------------------

WORD_MAPS = {
    "right creation": lambda cut, d, mode: op_right_creation((1, 2), cut, d, mode),
    "left creation": lambda cut, d, mode: op_left_creation((2,), cut, d, mode),
    "identity": TruncatedOperator.identity,
    "vacuum projection": TruncatedOperator.vacuum_projection,
}

NOT_WORD_MAPS = {
    "zero": TruncatedOperator.zero,
    "constructor": lambda cut, d, mode: TruncatedOperator(
        op_right_creation((1,), cut, d, mode).word_entries(), cut, d, mode),
    "compose": lambda cut, d, mode: op_right_creation((1,), cut, d, mode).compose(
        op_right_creation((2,), cut, d, mode)),
    "markov step": lambda cut, d, mode: markov_step(
        TruncatedOperator.identity(cut + 1, d, mode), WeightVector.uniform(d, mode)),
    "scale": lambda cut, d, mode: TruncatedOperator.identity(cut, d, mode).scale(1),
    "sum": lambda cut, d, mode: TruncatedOperator.identity(cut, d, mode)
    + TruncatedOperator.zero(cut, d, mode),
    "to_truncated": lambda cut, d, mode: CuntzElement.identity(
        WeightVector.uniform(d, mode)).to_truncated(cut),
    "second quantization": lambda cut, d, mode: second_quantize(
        UnitaryMatrix.swap(d, 1, 2, mode), cut),
}


def is_word_map(m):
    return isinstance(m._lazy, WordMap)


class TestWordMapMarks:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(WORD_MAPS) + sorted(NOT_WORD_MAPS))
    def test_constructors_adjoint_and_recut(self, name, mode):
        is_map = name in WORD_MAPS
        m = (WORD_MAPS if is_map else NOT_WORD_MAPS)[name](3, 2, mode)
        assert is_word_map(m) is is_map
        assert is_word_map(m.adjoint()) is is_map
        assert m.adjoint().adjoint() == m
        assert is_word_map(m.recut(2)) is is_map
        assert m.recut(3) is m

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(WORD_MAPS))
    def test_equality_and_json_ignore_the_mark(self, name, mode):
        m = WORD_MAPS[name](3, 3, mode)
        twin = built_twin(m)
        assert not is_word_map(twin)
        assert m == twin and twin == m
        assert m.to_json() == twin.to_json()
        back = TruncatedOperator.from_json(m.to_json())
        assert back == m and not is_word_map(back)

    @pytest.mark.parametrize("name", ["right creation", "constructor"])
    def test_copy_and_pickle_keep_the_mark(self, name):
        m = {**WORD_MAPS, **NOT_WORD_MAPS}[name](3, 2, scalars.EXACT)
        copies = [copy.copy(m), copy.deepcopy(m)]
        copies += [pickle.loads(pickle.dumps(m, protocol))
                   for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        assert all(c._lazy == m._lazy and c == m for c in copies)

    def test_adjoint_of_a_word_map_moves_the_values(self):
        m = op_right_creation((1,), 3, 2, scalars.FLOAT)
        assert all(v is scalars.FLOAT.one for v in m.adjoint().entries.values())


# -- word maps build their entries only when read --------------------------------
#
# The references are the eager constructors the word maps replace, and
# adjoint and recut as they act on those entries: the keys swapped, the
# values kept; the entries above a smaller cut dropped, none added.


def eager_right_creation(word, cut, d, mode):
    pairs = prepend_words(encode(word_reverse(word), d), 1, d, cut - len(word))
    return dict.fromkeys(pairs, mode.one)


def eager_left_creation(word, cut, d, mode):
    shift = letter_bits(d) * len(word)
    low = encode(word, d) ^ (1 << shift)
    return {((v << shift) | low, v): mode.one
            for v, _ in prepend_words(1, 1, d, cut - len(word))}


def eager_identity(cut, d, mode):
    return {(r, r): mode.one for r, _ in prepend_words(1, 1, d, cut)}


def eager_vacuum_projection(cut, d, mode):
    return {(1, 1): mode.one}


# name -> (word map, its eager entries), each a function of (word, cut, d, mode)
LAZY_MAPS = {
    "r_W": (op_right_creation, eager_right_creation),
    "r_W*": (lambda *a: op_right_creation(*a).adjoint(),
             lambda *a: {(c, r): v for (r, c), v in eager_right_creation(*a).items()}),
    "l_W": (op_left_creation, eager_left_creation),
    "l_W*": (lambda *a: op_left_creation(*a).adjoint(),
             lambda *a: {(c, r): v for (r, c), v in eager_left_creation(*a).items()}),
    "identity": (lambda word, *a: TruncatedOperator.identity(*a),
                 lambda word, *a: eager_identity(*a)),
    "vacuum projection": (lambda word, *a: TruncatedOperator.vacuum_projection(*a),
                          lambda word, *a: eager_vacuum_projection(*a)),
}


class TestLazyWordMaps:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_entries_equal_the_eager_constructors(self, data):
        d, mode = data.draw(code_sessions())
        cut = data.draw(st.integers(0, 4))
        word = data.draw(any_words(d, max_len=3))
        build, eager = LAZY_MAPS[data.draw(st.sampled_from(sorted(LAZY_MAPS)))]
        m = build(word, cut, d, mode)
        want = eager(word, cut, d, mode)
        steps = data.draw(st.lists(st.one_of(
            st.just("adjoint"), st.integers(0, 6)), max_size=5))
        for n, step in enumerate([None] + steps):
            if step == "adjoint":
                m = m.adjoint()
                want = {(c, r): v for (r, c), v in want.items()}
            elif step is not None:
                if step < m.cut:
                    bound = block_bound(step, d)
                    want = {k: v for k, v in want.items()
                            if k[0] < bound and k[1] < bound}
                m = m.recut(step)
            # read the entries of the last link and of some others
            if n == len(steps) or data.draw(st.booleans()):
                assert is_word_map(m)
                assert list(m.entries.items()) == list(want.items())
                assert all(v is mode.one for v in m.entries.values())
                shifts = m.degree_shifts()
                assert shifts == TruncatedOperator(
                    want, m.cut, d, mode, _trusted=True).degree_shifts()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(LAZY_MAPS))
    def test_no_entries_built_until_read(self, name, mode):
        d, cut = 2, 4
        x = TruncatedOperator({((1,), (2, 1)): 1, ((2, 1, 1), ()): 2,
                               ((), ()): 3}, cut, d, mode)
        build = LAZY_MAPS[name][0]
        with mock.patch.object(fock, "prepend_words", wraps=prepend_words) as built:
            m = build((1, 2), cut, d, mode)
            chain = [m, m.adjoint(), m.recut(2), m.recut(6), m.recut(2).recut(6),
                     m.adjoint().recut(3)]
            for op in chain:
                op.degree_shifts()
                x.recut(op.cut).compose(op)
            assert not built.called
            assert all(op._entries is None for op in chain)
            # a read builds the entries once and caches them
            assert m.entries is m.entries
            assert built.call_count == 1


# -- compose over shared value objects ------------------------------------------
#
# second_quantize gives many entries one value object, adjoint keeps that
# sharing, and the exact compose kernel computes each product once per pair
# of value objects and stores it at every key that gets only that product.


def random_unitary(d, mode, rng):
    if mode == scalars.EXACT:
        return random_exact_unitary(d, rng)
    return random_float_unitary(d, rng)


def nonzero_coefficients(mode):
    return coefficients(mode).filter(bool)


def code_operator(entries, cut, d, mode):
    """The operator with these word entries, each value object kept as
    it is."""
    return TruncatedOperator({(encode(r, d), encode(c, d)): v
                              for (r, c), v in entries.items()},
                             cut, d, mode, _trusted=True)


def one_repeated_value(x, value):
    """An operator with x's keys and one value object at every key."""
    return TruncatedOperator(dict.fromkeys(x.entries, value), x.cut, x.d, x.mode,
                             _trusted=True)


def cancel_and_return(c, y, mode, d=2, cut=3):
    """Factors a, b whose product sums, into the key (R, C), c * y and
    c * y again, then c * (-2 y), which cancels them, and then c * y,
    which brings the key back after (R, C2) took c * y: every value of a
    is one object, and so is every y of b."""
    words = words_up_to(d, cut)
    R, C, C2 = words[1:4]
    mids = words[4:8]
    a = code_operator({(R, mid): c for mid in mids}, cut, d, mode)
    b = code_operator({(mids[0], C): y, (mids[0], C2): y, (mids[1], C): y,
                       (mids[2], C): -(y + y), (mids[3], C): y}, cut, d, mode)
    return a, b, [(R, C2), (R, C)]


class TestComposeKernel:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_shared_values_against_tuple_compose(self, data):
        d, mode = data.draw(sessions())
        cut = data.draw(st.integers(0, 4 if d == 2 else 2))
        V = random_unitary(d, mode, random.Random(data.draw(st.integers(0, 99))))
        g = second_quantize(V, cut)
        x = data.draw(operators(WeightVector.uniform(d, mode), cut))
        c = data.draw(nonzero_coefficients(mode))
        factors = [g, g.adjoint(), x, one_repeated_value(x, c),
                   one_repeated_value(g, c)]
        for a in factors:
            for b in factors:
                assert_same_dict(a.compose(b).word_entries(), tuple_compose(a, b),
                                 mode)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_keys_summed_twice_cancel_and_come_back(self, data):
        mode = data.draw(st.sampled_from(MODES))
        c = data.draw(nonzero_coefficients(mode))
        y = data.draw(nonzero_coefficients(mode))
        a, b, order = cancel_and_return(c, y, mode)
        got = a.compose(b).word_entries()
        assert_same_dict(got, tuple_compose(a, b), mode)
        assert list(got) == order
        assert all(mode.eq(v, c * y) for v in got.values())

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d,cut", [(2, 5), (3, 3)])
    def test_adjoint_keeps_the_sharing(self, d, cut, mode):
        rng = random.Random(d)
        for _ in range(3):
            g = second_quantize(random_unitary(d, mode, rng), cut)
            star = g.adjoint()
            ids = {id(v) for v in g.entries.values()}
            assert len(ids) < len(g.entries)
            assert len({id(v) for v in star.entries.values()}) == len(ids)
            assert_entries_match(star, {(c, r): v.conjugate() for (r, c), v
                                        in g.word_entries().items()}, mode)


def value_snapshot(operators):
    """Each exact value object of the operators, with its integer triple."""
    return {id(v): (v, (v._a, v._b, v._den))
            for x in operators for v in x.entries.values()}


class TestNoKernelChangesAValue:
    @pytest.mark.parametrize("d,cut", [(2, 4), (3, 3)])
    def test_operands_and_results_keep_their_values(self, d, cut):
        mode = scalars.EXACT
        rng = random.Random(cut)
        w = session_weights(d, mode)
        V = random_exact_unitary(d, rng)
        basis = words_up_to(d, cut)
        x = TruncatedOperator(
            {(rng.choice(basis), rng.choice(basis)): mode.random_coeff(rng)
             for _ in range(12)}, cut, d, mode)
        g = second_quantize(V, cut)
        c, y = GaussianRational(1, 2), GaussianRational(-3, 1)
        # c * y is stored at (R, C2) and at (R, C), and (R, C) then sums a
        # second product: the shared product must not take the sum
        a, b, _ = cancel_and_return(c, y, mode, d, cut)
        ab = a.compose(b)
        # V's own entries, which every power's values are products of
        v = code_operator({((i,), (j,)): u for i, row in enumerate(V.rows, 1)
                           for j, u in enumerate(row, 1)}, cut, d, mode)
        lazy = second_quantize(V, cut)
        operands = [x, g, g.adjoint(), lazy, lazy.adjoint(), v,
                    one_repeated_value(x, c), a, b]
        results = [p.compose(q) for p in operands for q in operands]
        harmonic = CuntzElement(
            {Monomial((1,), (1, 2)): c, Monomial((2,), ()): y}, w).to_truncated(cut)
        operators = operands + results + [ab, harmonic]
        before = value_snapshot(operators)
        for p in operators:
            for q in (g, p):
                p.compose(q)
                q.compose(p)
            p.adjoint()
            markov_step(p, w)
            markov_step_in_basis(p, w, V)
            is_harmonic(p, w)
        # fresh powers, which build only the entries an operand reaches
        for p in operands:
            for q in (second_quantize(V, cut), second_quantize(V, cut).adjoint()):
                p.compose(q)
                q.compose(p)
        words = ((1,), (2, 1))
        for kind in FORM_KINDS:
            closed_form_mixed(kind, words[:len(FORMS[kind])], harmonic, w)
        assert value_snapshot(operators) == before
        assert_same_dict(ab.word_entries(), tuple_compose(a, b), mode)


# -- second quantization builds only the entries it is asked for ---------------
#
# second_quantize gives a power with no entries.  The reference is the same
# operator with its entries built and no lazy state: composing with it reads
# every entry, composing with the power only those the other factor reaches.


def power_unitary(d, mode, rng):
    """A draw of random_exact_unitary, in float mode as complex rows, so
    that both fields get sparse and dense unitaries."""
    V = random_exact_unitary(d, rng)
    return V if mode == scalars.EXACT else UnitaryMatrix(V.rows, scalars.FLOAT)


def eager_second_quantize(U, cut):
    """Gamma(U)'s code-keyed entries as a level loop over all words: each
    exponent vector's value computed once, breadth first, the first time
    a vector one letter short reaches it, and shared by its entries."""
    mode, base = U.mode, cut + 1
    letters = [(j, i, u) for j, row in enumerate(U.rows, 1)
               for i, u in enumerate(row, 1) if not mode.near_zero(u)]
    steps = [base ** k for k in range(len(letters))]
    values, frontier = {0: mode.one}, [0]
    for _ in range(cut):
        grown = []
        for code in frontier:
            for step, (_j, _i, u) in zip(steps, letters):
                if code + step not in values:
                    values[code + step] = values[code] * u
                    grown.append(code + step)
        frontier = grown
    b = letter_bits(U.d)
    level = {(1, 1): 0}
    codes = dict(level)
    for _ in range(cut):
        level = {((row << b) | (i - 1), (col << b) | (j - 1)): code + step
                 for step, (j, i, _u) in zip(steps, letters)
                 for (row, col), code in level.items()}
        codes.update(level)
    return {key: values[code] for key, code in codes.items()}


def sharing(x):
    """x's keys grouped by value object, in entry order."""
    groups = {}
    for key, v in x.entries.items():
        groups.setdefault(id(v), []).append(key)
    return list(groups.values())


def assert_same_product(got, want, mode):
    assert_same_dict(got.word_entries(), want.word_entries(), mode)
    assert sharing(got) == sharing(want)


class TestLazyPower:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_entries_equal_the_eager_build(self, data):
        # key order, float bits and shared value objects
        d, mode = data.draw(sessions())
        cut = data.draw(st.integers(0, 5 if d == 2 else 3))
        V = random_unitary(d, mode, random.Random(data.draw(st.integers(0, 99))))
        g = second_quantize(V, cut)
        want = TruncatedOperator(eager_second_quantize(V, cut), cut, d, mode,
                                 _trusted=True)
        assert_same_product(g, want, mode)
        assert_same_product(g.adjoint(), want.adjoint(), mode)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_compose_against_the_built_power(self, data):
        d, mode = data.draw(sessions())
        cut = data.draw(st.integers(0, 4 if d == 2 else 3))
        built_at = data.draw(st.integers(max(cut - 2, 0), cut + 1))  # recut down or up
        V = power_unitary(d, mode, random.Random(data.draw(st.integers(0, 99))))
        x = data.draw(operators(WeightVector.uniform(d, mode), cut))
        r = op_right_creation((1,), cut, d, mode)

        def fresh(star):
            g = second_quantize(V, built_at).recut(cut)
            return g.adjoint() if star else g

        assert_same_dict(fresh(True).word_entries(),
                         built_twin(fresh(False)).adjoint().word_entries(), mode)
        for star in (False, True):
            want = built_twin(fresh(star))
            # a fresh power for every product, so that none reads built entries
            for other in (x, r, fresh(not star)):
                g = fresh(star)
                assert_same_product(g.compose(other), want.compose(other), mode)
                g = fresh(star)
                assert_same_product(other.compose(g), other.compose(want), mode)
                assert (g._entries is None) is (other is x)

    @pytest.mark.parametrize("mode", MODES)
    def test_no_entries_built_until_read(self, mode):
        d, cut = 2, 4
        g = second_quantize(power_unitary(d, mode, random.Random(5)), cut)
        x = TruncatedOperator({((1,), (2, 1)): 1, ((2, 1, 1), ()): 2,
                               ((), ()): 3}, cut, d, mode)
        chain = [g, g.adjoint(), g.recut(2), g.adjoint().recut(3)]
        for op in chain:
            assert op.degree_shifts() == (0, 0)
            y = x.recut(op.cut)
            op.compose(y)
            y.compose(op)
        assert all(op._entries is None for op in chain)
        with mock.patch.object(Power, "build", autospec=True,
                               side_effect=Power.build) as build:
            assert g.entries is g.entries
            assert build.call_count == 1
        assert g.adjoint()._entries is None

    @pytest.mark.parametrize("mode", MODES)
    def test_copy_pickle_and_recut_up(self, mode):
        g = second_quantize(power_unitary(3, mode, random.Random(2)), 3)
        copies = [copy.copy(g), copy.deepcopy(g)]
        copies += [pickle.loads(pickle.dumps(g, protocol))
                   for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        assert all(c._entries is None and c._lazy == g._lazy for c in copies)
        assert all(c == g for c in copies)
        up = g.recut(5)
        assert up.cut == 5 and up._entries is None
        assert_same_dict(up.word_entries(), g.word_entries(), mode)


# -- a power on the right is read by rows ----------------------------------------


def row_pairs(rows):
    """The (row, col) -> value dict of rows, row by row in their order."""
    return {(w, col): v for w, row in rows.items() for col, v in row}


class TestPowerRows:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_the_built_rows(self, data):
        # key order, float bits and shared value objects, for Gamma and
        # Gamma*, at the empty word and at words longer than top
        d, mode = data.draw(sessions())
        top = data.draw(st.integers(0, 4 if d == 2 else 3))
        V = power_unitary(d, mode, random.Random(data.draw(st.integers(0, 99))))
        word = st.lists(st.integers(1, d), max_size=top + 2)
        words = {encode(w, d) for w in data.draw(st.lists(word, max_size=8))}
        words.add(encode(EMPTY_WORD, d))
        for value in (second_quantize(V, top)._lazy, second_quantize(V, top).adjoint()._lazy):
            got = value.rows(words, d, mode.one)
            built = value.build(d, mode.one)
            assert got.keys() == words
            want = {w: [(col, v) for (row, col), v in built.items() if row == w]
                    for w in got}
            assert all(not got[w] for w in words if w >= block_bound(top, d))
            assert_same_dict(row_pairs(got), row_pairs(want), mode)
            assert (sharing(TruncatedOperator(row_pairs(got), top + 2, d, mode, _trusted=True))
                    == sharing(TruncatedOperator(row_pairs(want), top + 2, d, mode,
                                                 _trusted=True)))

    @pytest.mark.parametrize("mode", MODES)
    def test_only_a_left_power_is_built(self, mode):
        # x . Gamma and x . Gamma* read rows and build nothing; Gamma . x
        # and Gamma* . x build only the entries that meet x's row words
        d, cut = 2, 4
        g = second_quantize(power_unitary(d, mode, random.Random(5)), cut)
        x = TruncatedOperator({((1,), (2, 1)): 1, ((2, 1, 1), ()): 2,
                               ((), ()): 3}, cut, d, mode)
        rows_of_x = {r for r, _ in x.entries}
        for power in (g, g.adjoint()):
            with mock.patch.object(Power, "build", autospec=True,
                                   side_effect=Power.build) as build:
                x.compose(power)
                assert build.call_count == 0
                power.compose(x)
                assert build.call_count == 1
                (_, _, _, words), _ = build.call_args
                assert words == rows_of_x
            assert power._entries is None


# -- the lazy values, and the operator methods called unbound -------------------
#
# The benchmark calls TruncatedOperator.adjoint, .recut and .compose unbound,
# so a lazy operator must take the same path through the class's own methods
# that a bound call takes: a subclass that overrides them would be skipped
# there, build the entries, and still give the same result.


def lazy_operators(cut, d, mode):
    """name -> a function building a fresh lazy operator at this cut."""
    V = power_unitary(d, mode, random.Random(cut))
    return {
        "r_W": lambda: op_right_creation((1, 2), cut, d, mode),
        "r_W*": lambda: op_right_creation((2,), cut, d, mode).adjoint(),
        "l_W": lambda: op_left_creation((2, 1), cut, d, mode),
        "identity": lambda: TruncatedOperator.identity(cut, d, mode),
        "Gamma": lambda: second_quantize(V, cut),
        "Gamma*": lambda: second_quantize(V, cut).adjoint(),
    }


class TestLazyValues:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(lazy_operators(3, 2, scalars.EXACT)))
    def test_unbound_calls_equal_the_bound_calls(self, name, mode):
        d, cut = 2, 4
        fresh = lazy_operators(cut, d, mode)[name]
        x = TruncatedOperator({((1,), (2, 1)): 1, ((2, 1, 1), ()): 2,
                               ((), ()): 3, ((2, 2), (1, 2)): 4}, cut, d, mode)
        T = TruncatedOperator
        # name -> (the call through the class, the bound call)
        calls = {
            "adjoint": (T.adjoint, lambda op: op.adjoint()),
            "recut down": (lambda op: T.recut(op, cut - 1), lambda op: op.recut(cut - 1)),
            "recut up": (lambda op: T.recut(op, cut + 1), lambda op: op.recut(cut + 1)),
            "on the left": (lambda op: T.compose(op, x), lambda op: op.compose(x)),
            "on the right": (lambda op: T.compose(x, op), lambda op: x.compose(op)),
        }
        for what, (unbound, bound) in calls.items():
            op, twin = fresh(), fresh()
            got, want = unbound(op), bound(twin)
            assert_same_dict(got.entries, want.entries, mode)
            assert got.cut == want.cut and got.degree_shifts() == want.degree_shifts()
            # a lazy operand stays lazy wherever the bound call leaves it so
            assert op._entries is None or twin._entries is not None, what
            if not what.startswith("on "):
                assert twin._entries is None and type(got._lazy) is type(want._lazy)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", sorted(lazy_operators(3, 2, scalars.EXACT)))
    def test_value_laws(self, name, mode):
        d = 2
        for cut in range(5):
            value = lazy_operators(cut, d, mode)[name]()._lazy
            assert value.adjoint().adjoint() == value
            built = value.build(d, mode.one)
            words = [(decode(r, d), decode(c, d)) for r, c in built]
            assert value.shifts(d) == (max([0] + [len(I) - len(J) for I, J in words]),
                                       max([0] + [len(J) - len(I) for I, J in words]))
            for smaller in range(cut):
                bound = block_bound(smaller, d)
                assert_same_dict(value.recut(smaller, d).build(d, mode.one),
                                 {k: v for k, v in built.items()
                                  if k[0] < bound and k[1] < bound}, mode)

    @pytest.mark.parametrize("name", sorted(lazy_operators(3, 2, scalars.EXACT)))
    def test_repr_builds_no_entries(self, name):
        op = lazy_operators(6, 2, scalars.EXACT)[name]()
        assert repr(op._lazy) in repr(op) and "cut=6" in repr(op)
        assert op._entries is None
