from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockboundary.errors import (
    CutExhaustedError,
    CutMismatchError,
    LetterRangeError,
    ModeMixError,
)
from fockboundary.fock import (
    EMPTY_WORD,
    TruncatedOperator,
    WeightVector,
    format_word,
    is_harmonic,
    markov_step,
    parse_word,
    words_of_length,
    words_up_to,
)
from fockboundary.quantization import UnitaryMatrix, second_quantize
from fockboundary.scalars import EXACT, FLOAT, GaussianRational, accumulate

words2 = st.lists(st.integers(1, 2), max_size=4).map(tuple)
short_words = st.lists(st.integers(1, 2), max_size=2).map(tuple)
parts = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
entry_lists = st.lists(st.tuples(short_words, short_words, parts, parts),
                       max_size=12)


class TestWords:
    def test_roundtrip(self):
        assert parse_word("") == EMPTY_WORD
        assert parse_word("()") == EMPTY_WORD
        assert parse_word("121") == (1, 2, 1)
        assert format_word((1, 2, 1)) == "121"
        assert format_word(EMPTY_WORD) == ""

    def test_malformed(self):
        with pytest.raises(LetterRangeError):
            parse_word("1a")
        with pytest.raises(LetterRangeError):
            parse_word("102")
        for not_text in (12, [1], None):
            with pytest.raises(LetterRangeError, match="malformed word string"):
                parse_word(not_text)

    def test_enumeration_order(self):
        ws = words_up_to(2, 2)
        assert ws == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
        assert len(words_of_length(3, 3)) == 27

    @given(words2)
    @settings(max_examples=30)
    def test_parse_format_inverse(self, w):
        assert parse_word(format_word(w)) == w


class TestWeightVector:
    def test_exact_sum(self):
        with pytest.raises(ValueError):
            WeightVector([Fraction(1, 3), Fraction(1, 3)])

    def test_bounds(self):
        with pytest.raises(ValueError):
            WeightVector([Fraction(1), Fraction(0)])
        with pytest.raises(ValueError):
            WeightVector([Fraction(1, 2)])

    def test_parse_and_word_weight(self, w13):
        assert WeightVector.parse("1/3,2/3") == w13
        assert w13.word_weight((1, 2)) == Fraction(2, 9)
        assert w13.word_weight(EMPTY_WORD) == 1

    def test_uniform(self):
        assert WeightVector.uniform(3).is_uniform()
        assert not WeightVector.parse("1/3,2/3").is_uniform()

    def test_float_mode(self):
        w = WeightVector([0.5, 0.5], mode="float")
        assert w.mode == "float"
        with pytest.raises(ValueError):
            WeightVector([0.5, 0.6], mode="float")


class TestOperators:
    def test_generator_relations(self):
        cut, d = 4, 2
        r1 = TruncatedOperator.generator("right", "creation", 1, cut, d)
        r2 = TruncatedOperator.generator("right", "creation", 2, cut, d)
        ident = TruncatedOperator.identity(cut, d)
        # r_i* r_j = delta_ij on the block where creation is exact
        assert r1.adjoint().compose(r1).equal_on_block(ident, cut - 1)
        assert not r1.adjoint().compose(r2).entries
        # left and right creations of different letters commute
        l2 = TruncatedOperator.generator("left", "creation", 2, cut, d)
        assert r1.compose(l2).equal_on_block(l2.compose(r1), cut)

    def test_cut_mismatch(self):
        a = TruncatedOperator.identity(3, 2)
        b = TruncatedOperator.identity(4, 2)
        with pytest.raises(CutMismatchError):
            a.compose(b)

    def test_mode_mix(self):
        a = TruncatedOperator.identity(3, 2, mode="exact")
        b = TruncatedOperator.identity(3, 2, mode="float")
        with pytest.raises(ModeMixError):
            a + b

    def test_json_roundtrip(self):
        op = TruncatedOperator.generator("right", "creation", 1, 3, 2)
        back = TruncatedOperator.from_json(op.to_json())
        assert back == op

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @given(entry_lists, entry_lists, short_words, short_words, parts, parts)
    @settings(max_examples=100, deadline=None)
    def test_compose_is_the_sum_of_products(self, mode, xs, ys, row, col, a, b):
        def operator(items, extra):
            entries = {(r, c): GaussianRational(re, im) for r, c, re, im in items}
            entries.update(extra)
            return TruncatedOperator(entries, 3, 2, mode)

        # cancel the entry at (row, col) to zero through a middle word
        # of length 3, which no drawn entry uses
        mid = (1, 1, 1)
        f = mode.coerce(GaussianRational(1 + abs(a), b))
        running = products_summed(operator(xs, {}), operator(ys, {})).get(
            (row, col), mode.zero)
        x = operator(xs, {(row, mid): f})
        y = operator(ys, {(mid, col): -running / f})
        got = x.compose(y)
        want = products_summed(x, y)
        assert list(got.entries.items()) == list(want.items())
        assert (row, col) not in got.entries


def products_summed(x, y):
    """The entries of x y as ``accumulate`` over the products a * b."""
    by_mid = {}
    for (mid, col), b in y.entries.items():
        by_mid.setdefault(mid, []).append((col, b))
    return accumulate(
        (((row, col), a * b)
         for (row, mid), a in x.entries.items()
         for col, b in by_mid.get(mid, ())),
        x.mode)


NEGATIVE_CUTS = {
    "checked": lambda: TruncatedOperator({}, -1, 2),
    "checked with an entry": lambda: TruncatedOperator(
        {((), ()): 1}, -1, 2),
    "zero": lambda: TruncatedOperator.zero(-1, 2),
    "identity": lambda: TruncatedOperator.identity(-1, 2),
    "vacuum_projection": lambda: TruncatedOperator.vacuum_projection(-2, 2),
    "generator": lambda: TruncatedOperator.generator(
        "left", "creation", 1, -1, 2),
    "recut": lambda: TruncatedOperator.identity(2, 2).recut(-1),
    "second_quantize": lambda: second_quantize(UnitaryMatrix.identity(2), -1),
}


class TestNegativeCut:
    @pytest.mark.parametrize("make", NEGATIVE_CUTS.values(), ids=NEGATIVE_CUTS)
    def test_refused(self, make):
        with pytest.raises(ValueError, match="cut must be >= 0, got -"):
            make()

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_cut_zero_round_trips(self, mode):
        for op in (TruncatedOperator.vacuum_projection(0, 2, mode),
                   second_quantize(UnitaryMatrix.identity(2, mode), 0)):
            assert op.cut == 0 and list(op.entries) == [((), ())]
            assert TruncatedOperator.from_json(op.to_json()) == op


class TestMarkov:
    def test_step_reduces_cut(self, w13):
        p0 = TruncatedOperator.vacuum_projection(4, 2)
        out = markov_step(p0, w13)
        assert out.cut == 3 and not out.entries

    def test_cut_exhaustion(self, w13):
        with pytest.raises(CutExhaustedError):
            markov_step(TruncatedOperator.identity(0, 2), w13)

    def test_identity_harmonic(self, w13):
        assert is_harmonic(TruncatedOperator.identity(5, 2), w13)

    def test_left_creation_defect(self, w13):
        l1 = TruncatedOperator.generator("left", "creation", 1, 5, 2)
        rep = is_harmonic(l1, w13)
        assert not rep
        want = Fraction(1, 3) - 1
        assert all(v == want for v in
                   (d.re for d in rep.defects.values()))

    @given(st.integers(1, 2), st.integers(1, 2))
    @settings(max_examples=10)
    def test_right_creations_harmonic(self, w13, i, j):
        cut = 5
        ri = TruncatedOperator.generator("right", "creation", i, cut, 2)
        rj = TruncatedOperator.generator("right", "creation", j, cut, 2)
        assert is_harmonic(ri.compose(rj), w13)
