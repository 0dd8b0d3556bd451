from fractions import Fraction

import pytest

from fockboundary.algebra import CuntzElement, Monomial
from fockboundary.choi_effros import (
    _down_shift,
    _up_shift,
    cesaro_project,
    closed_form,
    closed_form_mixed,
    op_left_creation,
    op_right_creation,
    product_iterative,
)
from fockboundary.errors import ModeMixError, StabilizationError
from fockboundary.fock import TruncatedOperator, WeightVector, markov_step


class TestGeneratorCompressions:
    def test_right_creation_appends_reversed(self, w13):
        R = op_right_creation((1, 2), 4, 2)
        assert R.entry((2, 1), ()) == 1
        assert R.entry((1, 2, 1), (1,)) == 1

    def test_left_creation_prepends(self, w13):
        L = op_left_creation((1, 2), 4, 2)
        assert L.entry((1, 2), ()) == 1
        assert L.entry((1, 2, 1), (1,)) == 1


class TestIterativeProduct:
    def test_matches_symbolic_on_projections(self, w13):
        cut = 6
        for I, J in [((1,), (1,)), ((1, 2), (1,)), ((), (2,))]:
            x = CuntzElement.monomial(w13, I, ())
            y = CuntzElement.monomial(w13, (), J)
            res, steps = product_iterative(
                x.to_truncated(cut), y.to_truncated(cut), w13)
            want = (x * y).to_truncated(res.cut)
            assert res.equal_on_block(want, res.cut)

    def test_recovers_vacuum_correction(self, w13):
        # r_1 . r_1* carries the w_1 p_Omega correction
        cut = 6
        R1 = op_right_creation((1,), cut, 2)
        res, _ = product_iterative(R1, R1.adjoint(), w13)
        assert res.entry((), ()) == Fraction(1, 3)

    def test_budget_exhaustion(self, w13):
        R1 = op_right_creation((1,), 4, 2)
        with pytest.raises(StabilizationError) as exc:
            product_iterative(R1, R1.adjoint(), w13, max_steps=0)
        assert exc.value.last is not None

    def test_failure_carries_the_last_two_iterates(self, w13):
        # r_12 r_12* needs three Markov steps; stop it after one and after two
        R = op_right_creation((1, 2), 6, 2)
        for max_steps in (0, 1):
            with pytest.raises(StabilizationError) as exc:
                product_iterative(R, R.adjoint(), w13, max_steps=max_steps)
            last, previous = exc.value.last, exc.value.previous
            assert previous.cut == last.cut + 1
            assert markov_step(previous, w13).equal_on_block(last, last.cut)


class TestClosedForms:
    def test_rejects_non_harmonic(self, w13):
        l1 = op_left_creation((1,), 5, 2)
        with pytest.raises(ValueError):
            closed_form_mixed("iv", ((1,),), l1, w13)

    @pytest.mark.parametrize("kind", [0, 1, 8, -1])
    def test_rejects_out_of_range_int_kind(self, kind, w13):
        x = TruncatedOperator.identity(4, 2)
        with pytest.raises(ValueError, match="unknown form %d" % kind):
            closed_form_mixed(kind, ((1,),), x, w13)

    def test_form_iv_single_letter(self, w13):
        # r_1 . (r_1 r_1*) = M((1,1),(1)) symbolically
        cut = 6
        x = CuntzElement.monomial(w13, (1,), (1,)).to_truncated(cut)
        out = closed_form_mixed("iv", ((1,),), x, w13)
        want = CuntzElement.monomial(w13, (1, 1), (1,)).to_truncated(cut)
        assert out.equal_on_block(want, cut - 1)

    def test_form_vi_reproduces_counter_term(self, w13):
        # 1 . r_1 . r_1* picks up the vacuum correction
        cut = 6
        one = TruncatedOperator.identity(cut, 2)
        out = closed_form_mixed("vi", ((1,), (1,)), one, w13)
        want = CuntzElement.monomial(w13, (1,), (1,)).to_truncated(cut)
        assert out.equal_on_block(want, cut - 2)

    def test_all_forms_on_identity(self, w13):
        cut = 6
        one = TruncatedOperator.identity(cut, 2)
        I, J = (1,), (2,)
        for kind, words in [
            ("i", (I,)), ("ii", (I,)), ("iii", (I, J)), ("iv", (I,)),
            ("v", (I,)), ("vi", (I, J)), ("vii", (I, J)),
        ]:
            out = closed_form_mixed(kind, words, one, w13)
            assert out.cut == cut

    @pytest.mark.parametrize("check_harmonic", [True, False])
    @pytest.mark.parametrize("other", ["another alphabet", "another field"])
    def test_rejects_weights_of_another_session(self, other, check_harmonic, w13):
        # the suffixes are encoded with the weights' letter bits: d = 3
        # weights on this d = 2 operator would give 31 entries, not 15;
        # float weights would give an exact operator
        one = TruncatedOperator.identity(4, 2)
        weights = (WeightVector.uniform(3) if other == "another alphabet"
                   else WeightVector(w13.values, "float"))
        with pytest.raises(ModeMixError, match="incompatible"):
            closed_form_mixed("iv", ((1,),), one, weights,
                              check_harmonic=check_harmonic)
        with pytest.raises(ModeMixError, match="incompatible"):
            closed_form(one, weights, ((1,), (2,)), ((2,), (1,)),
                        check_harmonic=check_harmonic)


class TestCesaro:
    def test_vacuum_projection_averages_to_zero(self, w13):
        p0 = TruncatedOperator.vacuum_projection(8, 2)
        mean, stable = cesaro_project(p0, w13)
        assert stable and not mean.entries

    def test_harmonic_fixed(self, w13):
        op = op_right_creation((2, 1), 8, 2)
        mean, stable = cesaro_project(op, w13)
        assert stable
        assert mean.equal_on_block(op.recut(mean.cut), mean.cut)


# -- degree shifts -----------------------------------------------------------------


def element(w, *terms):
    return CuntzElement({Monomial(I, J): c for I, J, c in terms}, w)


X = ((1, 2), (1,), 1), ((), (2, 2), 2), ((2,), (2,), 3)
CANCELLING = ((), (), 1), ((1,), (1,), -1), ((2,), (2,), -1)

# (operator, whether its constructor sets the shifts) for each constructor
SHIFT_CASES = {
    "to_truncated": lambda w: (element(w, *X).to_truncated(4), True),
    "to_truncated, cancelled": lambda w: (element(w, *CANCELLING).to_truncated(3),
                                          False),
    "to_truncated, cancelled in part": lambda w: (element(
        w, *CANCELLING[:2], ((1, 2), (), 1)).to_truncated(3), False),
    "right creation": lambda w: (op_right_creation((1, 2), 4, 2), True),
    "right creation past the cut": lambda w: (op_right_creation((1, 2, 1), 2, 2),
                                              True),
    "left creation": lambda w: (op_left_creation((2, 1), 4, 2), True),
    "left creation past the cut": lambda w: (op_left_creation((2, 1, 1), 2, 2), True),
    "adjoint of a creation": lambda w: (op_left_creation((2,), 4, 2).adjoint(), True),
    "adjoint": lambda w: (element(w, *X).to_truncated(4).compose(
        op_right_creation((1,), 4, 2)).adjoint(), False),
    "recut": lambda w: (op_right_creation((1, 2), 4, 2).recut(3), True),
    "compose": lambda w: (op_right_creation((1,), 4, 2).compose(
        element(w, *X).to_truncated(4)), False),
    "markov_step": lambda w: (markov_step(element(w, *X).to_truncated(4), w), False),
    "checked": lambda w: (TruncatedOperator(
        {((1,), ()): 1, ((), (2, 1)): 2}, 3, 2), False),
    "zero": lambda w: (TruncatedOperator.zero(3, 2), True),
    "identity": lambda w: (TruncatedOperator.identity(3, 2), True),
    "vacuum_projection": lambda w: (TruncatedOperator.vacuum_projection(3, 2), True),
}


def scanned_shifts(x):
    """(up, down) from a fresh scan of the word entries."""
    words = x.word_entries()
    return (max([0] + [len(I) - len(J) for I, J in words]),
            max([0] + [len(J) - len(I) for I, J in words]))


class TestDegreeShifts:
    @pytest.mark.parametrize("name", sorted(SHIFT_CASES))
    def test_equal_a_fresh_scan(self, name, w13):
        x, built_with_shifts = SHIFT_CASES[name](w13)
        assert (x._shifts is not None) == built_with_shifts
        want = scanned_shifts(x)
        assert (_up_shift(x), _down_shift(x)) == want
        assert x._shifts == want

    def test_not_part_of_equality(self, w13):
        x = markov_step(element(w13, *X).to_truncated(4), w13)
        y = markov_step(element(w13, *X).to_truncated(4), w13)
        x.degree_shifts()
        assert x._shifts is not None and y._shifts is None
        assert x == y
