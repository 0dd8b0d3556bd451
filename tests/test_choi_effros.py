from fractions import Fraction

import pytest

from fockboundary.algebra import CuntzElement
from fockboundary.choi_effros import (
    cesaro_project,
    closed_form_mixed,
    op_left_creation,
    op_right_creation,
    product_iterative,
)
from fockboundary.errors import StabilizationError
from fockboundary.fock import TruncatedOperator, markov_step


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

    @pytest.mark.parametrize("kind", [0, 8, -1])
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
