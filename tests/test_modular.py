import gc
import math
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockboundary import verify
from fockboundary.algebra import CuntzElement, Monomial
from fockboundary.errors import ModeMixError
from fockboundary.fock import WeightVector, words_up_to
from fockboundary.modular import (
    PhasedElement,
    evaluate_at,
    gram_matrix,
    kms_failures,
    phase_base,
    sigma_t,
    spectrum_sample,
)
from fockboundary.quantization import UnitaryMatrix, conjugate
from fockboundary.scalars import GaussianRational
from fockboundary.verify import random_element

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


def mutated_flows(weights):
    """The trivial flow and the inverted flow."""
    base = partial(phase_base, weights)
    return [lambda m: 1, lambda m: 1 / base(m)]


class TestKMS:
    """phi satisfies the KMS condition for the modular flow, and fails it
    for a flow with another base."""

    @given(st.sampled_from((2, 3)).flatmap(
        lambda d: st.lists(st.integers(1, 9), min_size=d, max_size=d)),
        st.data())
    @settings(max_examples=25, deadline=None)
    def test_exact_weights(self, raw, data):
        w = WeightVector([Fraction(a, sum(raw)) for a in raw])
        base = partial(phase_base, w)
        pairs, failures = kms_failures(w, 2, base)
        assert pairs > 0 and failures == 0
        # one letter's base w_i becomes w_i * factor: still a flow
        letter = data.draw(st.integers(1, w.d))
        factor = data.draw(st.sampled_from(
            (Fraction(1, 2), Fraction(3, 5), Fraction(4, 3), Fraction(2))))

        def perturbed(m):
            return base(m) * factor ** (m.I.count(letter) - m.J.count(letter))

        for flow in [perturbed, *mutated_flows(w)]:
            assert kms_failures(w, 2, flow)[1] > 0

    def test_float_golden_ratio_weights(self):
        lam = (math.sqrt(5) - 1) / 2
        w = WeightVector([lam, lam * lam], mode="float")
        pairs, failures = kms_failures(w, 2, partial(phase_base, w))
        assert pairs > 0 and failures == 0
        for flow in mutated_flows(w):
            assert kms_failures(w, 2, flow)[1] > 0

    @pytest.mark.parametrize("flow", [0, 1], ids=["trivial", "inverted"])
    def test_a_mutated_flow_that_passes_fails_the_suite(self, w13, monkeypatch,
                                                        flow):
        probe = Monomial((1,), ())
        passing = mutated_flows(w13)[flow](probe)

        def check(weights, max_len, base):
            pairs, failures = kms_failures(weights, max_len, base)
            return pairs, 0 if base(probe) == passing else failures

        monkeypatch.setattr(verify, "kms_failures", check)
        rep = verify.verify_delta(trials=4, max_len=1, weights=w13)
        assert rep["kms_failures"] == 0 and not rep["ok"]


FLOW_WEIGHTS = {2: [Fraction(1, 3), Fraction(2, 3)],
                3: [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]}


def checked_sigma_t(x):
    """The flow through PhasedElement's checked constructor."""
    return PhasedElement(dict(x.terms), x.weights)


class TestSigmaT:
    @given(st.data(), st.sampled_from(("exact", "float")),
           st.sampled_from((2, 3)))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_checked_constructor(self, data, mode, d):
        w = WeightVector(FLOW_WEIGHTS[d], mode=mode)
        word = st.lists(st.integers(1, d), max_size=3).map(tuple)
        # few words, so the terms repeat them, the empty word included
        pool = data.draw(st.lists(word, min_size=1, max_size=4)) + [()]
        monos = st.builds(Monomial, st.sampled_from(pool), st.sampled_from(pool))
        coeff = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))
        if mode == "exact":
            coeff = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))
        x = CuntzElement(data.draw(st.dictionaries(monos, coeff, max_size=8)), w)
        got, want = sigma_t(x), checked_sigma_t(x)
        assert type(got) is type(want) is PhasedElement
        assert list(got.terms.items()) == list(want.terms.items())
        assert got.weights is want.weights
        # each base is a real of the field and inverts under the adjoint
        for mono in got.terms:
            base, back = phase_base(w, mono), phase_base(w, mono.flip())
            assert type(base) is type(w.values[0])
            assert abs(base * back - 1) <= (0 if mode == "exact" else 1e-15)


FLOAT_FLOW_WEIGHTS = [[0.3, 0.7], [0.2, 0.3, 0.5]]


@pytest.mark.parametrize("values", FLOAT_FLOW_WEIGHTS)
def test_float_flow_is_an_automorphism(values):
    # bases read from the monomials: no float class split between
    # sigma_t(xy) and sigma_t(x) sigma_t(y)
    w = WeightVector(values, mode="float")
    rng = random.Random(len(values))
    for _ in range(200):
        x, y = random_element(w, rng), random_element(w, rng)
        assert sigma_t(x * y).same_flow(sigma_t(x) * sigma_t(y))
        assert sigma_t(x.adjoint()).same_flow(sigma_t(x).adjoint())


def float_weights(d, rng):
    raw = [rng.uniform(0.5, 2) for _ in range(d)]
    return WeightVector([v / sum(raw) for v in raw], mode="float")


@pytest.mark.parametrize("d, cut", [(2, 4), (3, 3)])
def test_float_flow_on_both_layers(d, cut):
    # Gamma(D_t) T(a) Gamma(D_t)* = T(sigma_t(a)) at t, with
    # D_t = diag(w_i^{it}): Gamma(D_t) scales e_I by w_I^{it}
    rng = random.Random(d)
    for _ in range(30):
        w = float_weights(d, rng)
        t = rng.uniform(-3, 3)
        a, b = random_element(w, rng), random_element(w, rng)
        D = UnitaryMatrix(
            [[v ** complex(0, t) if i == j else 0 for j in range(d)]
             for i, v in enumerate(w.values)], mode="float")
        flowed = evaluate_at(sigma_t(a), t)
        assert conjugate(D, a.to_truncated(cut)).max_block_diff(
            flowed.to_truncated(cut), cut) <= 1e-13
        # and the evaluated flow is multiplicative at t
        product = flowed * evaluate_at(sigma_t(b), t)
        difference = (evaluate_at(sigma_t(a * b), t) - product).normal_form()
        assert all(abs(c) <= 1e-13 for c in difference.terms.values())


def test_sigma_t_leaves_no_reference_cycle(w13):
    x = CuntzElement.monomial(w13, (1, 2), (2,)) + CuntzElement.monomial(
        w13, (2, 2, 1), ())
    gc.collect()
    gc.disable()
    try:
        sigma_t(x)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestSpectrumAndGram:
    def test_spectrum_sample(self, w_half):
        assert spectrum_sample(w_half, 2) == [
            Fraction(1, 4), Fraction(1, 2), Fraction(1),
            Fraction(2), Fraction(4)]

    @pytest.mark.parametrize("values, max_len", [
        ([Fraction(1, 3), Fraction(2, 3)], 4),
        ([Fraction(1, 2), Fraction(1, 2)], 3),
        ([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], 3),
        ([Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)], 3),
        ([Fraction(1, 5)] * 3 + [Fraction(2, 5)], 2),
    ])
    def test_spectrum_sample_by_word_pairs(self, values, max_len):
        w = WeightVector(values)
        word_weights = [w.word_weight(v) for v in words_up_to(w.d, max_len)]
        assert spectrum_sample(w, max_len) == sorted(
            {a / b for a in word_weights for b in word_weights})

    def test_float_spectrum_has_one_value_per_ratio(self):
        # 0.3 and 0.7 are multiplicatively independent: a ratio per count
        # difference, with no rounding duplicates
        wf = WeightVector.parse("0.3,0.7", mode="float")
        assert len(spectrum_sample(wf, 5)) == 91

    @pytest.mark.parametrize("text, max_len, count", [
        ("1/3,1/3,1/3", 2, 5),
        ("0.2,0.2,0.6", 3, 37),
    ])
    def test_float_spectrum_rounds_equal_ratios_alike(self, text, max_len, count):
        # equal float weights make count differences of equal ratio, which
        # products of the rounded powers would round apart
        wf = WeightVector.parse(text, mode="float")
        values = spectrum_sample(wf, max_len)
        assert len(values) == count
        assert len(spectrum_sample(WeightVector.parse(text), max_len)) == count
        assert all(b - a > 1e-9 * b for a, b in zip(values, values[1:]))

    def test_gram_diagonal(self, w13):
        fam, rows = gram_matrix(w13, 1)
        for a, mono in enumerate(fam):
            assert rows[a][a] == w13.word_weight(mono.J)
