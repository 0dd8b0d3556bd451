import random
from fractions import Fraction

import pytest

from fockboundary.algebra import CuntzElement
from fockboundary.choi_effros import op_left_creation
from fockboundary.errors import CutExhaustedError, ModeMixError
from fockboundary.fock import (
    TruncatedOperator,
    WeightVector,
    is_harmonic,
    markov_step,
    words_of_length,
    words_up_to,
)
from fockboundary.quantization import (
    UnitaryMatrix,
    basis_independence_check,
    conjugate,
    counterexample_report,
    markov_step_in_basis,
    random_exact_unitary,
    random_float_unitary,
    second_quantize,
    symbolic_gamma,
)
from fockboundary.scalars import EXACT, FLOAT, GaussianRational


class TestUnitaryMatrix:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            UnitaryMatrix([[1, 1], [0, 1]])

    def test_swap_and_compose(self):
        s = UnitaryMatrix.swap(3, 1, 2)
        assert s.compose(s) == UnitaryMatrix.identity(3)
        assert s.adjoint() == s

    def test_random_exact_is_exactly_unitary(self):
        rng = random.Random(5)
        for _ in range(5):
            random_exact_unitary(3, rng)  # constructor checks unitarity

    def test_random_float(self):
        rng = random.Random(5)
        random_float_unitary(3, rng)


class TestSecondQuantize:
    def test_degree_action(self):
        u = UnitaryMatrix.swap(2, 1, 2)
        g = second_quantize(u, 3)
        assert g.entry((), ()) == 1
        assert g.entry((2,), (1,)) == 1
        assert g.entry((2, 1), (1, 2)) == 1
        assert not bool(g.entry((1,), (1,)))

    def test_unitary_on_block(self):
        rng = random.Random(1)
        u = random_exact_unitary(2, rng)
        g = second_quantize(u, 3)
        from fockboundary.fock import TruncatedOperator

        ident = TruncatedOperator.identity(3, 2)
        assert g.adjoint().compose(g).equal_on_block(ident, 3)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_exact_is_the_tensor_power(self, d, dense):
        U = unitary_draw(d, dense)
        cut = 4
        g = second_quantize(U, cut)
        # Gamma_{K,W} = prod_s u_{W_s K_s} on words of equal length
        want = {}
        for n in range(cut + 1):
            for K in words_of_length(d, n):
                for W in words_of_length(d, n):
                    value = GaussianRational(1)
                    for k, w in zip(K, W):
                        value = value * U.entry(w, k)
                    if value:
                        want[(K, W)] = value
        assert g.entries == want
        assert list(g.entries.items()) == list(level_by_level(U, cut).items())

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_float_within_tolerance(self, d, dense):
        # float products are associated differently from the level-by-
        # level build, so they may differ from it in the last bit
        for U in (UnitaryMatrix(unitary_draw(d, dense).rows, FLOAT),
                  random_float_unitary(d, random.Random(d))):
            g = second_quantize(U, 4)
            want = level_by_level(U, 4)
            assert list(g.entries) == list(want)
            assert max(abs(g.entries[k] - v) for k, v in want.items()) <= 1e-12


def unitary_draw(d, dense):
    """The first draw of ``random_exact_unitary`` from Random(0) with all
    d * d entries nonzero (dense) or with a zero entry (sparse)."""
    rng = random.Random(0)
    while True:
        U = random_exact_unitary(d, rng)
        if all(u for row in U.rows for u in row) == dense:
            return U


def level_by_level(U, cut):
    """Gamma(U)'s entries built a degree at a time, each degree's
    entries the previous degree's times one more entry u_{ji}."""
    images = [[(i, u) for i, u in enumerate(row, 1) if not U.mode.near_zero(u)]
              for row in U.rows]
    level = {((), ()): U.mode.one}
    entries = dict(level)
    for _ in range(cut):
        level = {
            (row + (i,), col + (j,)): val * u
            for (row, col), val in level.items()
            for j, image in enumerate(images, 1)
            for i, u in image
        }
        entries.update(level)
    return entries


class TestSymbolicGamma:
    def test_requires_uniform(self, w13):
        u = UnitaryMatrix.swap(2, 1, 2)
        with pytest.raises(ValueError):
            symbolic_gamma(u, CuntzElement.identity(w13))

    def test_swap_permutes_generators(self):
        w = WeightVector.uniform(2)
        u = UnitaryMatrix.swap(2, 1, 2)
        r1 = CuntzElement.right_creation(w, 1)
        assert symbolic_gamma(u, r1).equals(
            CuntzElement.right_creation(w, 2))

    def test_homomorphism_and_composition(self):
        w = WeightVector.uniform(2)
        rng = random.Random(9)
        u = random_exact_unitary(2, rng)
        v = random_exact_unitary(2, rng)
        x = CuntzElement.monomial(w, (1, 2), (2,))
        y = CuntzElement.monomial(w, (2,), (1,))
        assert symbolic_gamma(u, x * y).equals(
            symbolic_gamma(u, x) * symbolic_gamma(u, y))
        assert symbolic_gamma(u, x.adjoint()).equals(
            symbolic_gamma(u, x).adjoint())
        assert symbolic_gamma(u, symbolic_gamma(v, x)).equals(
            symbolic_gamma(u.compose(v), x))

    def test_matches_conjugation_for_uniform(self):
        # for uniform weights the generator substitution agrees with
        # conjugation by the second quantization on compressions
        w = WeightVector.uniform(2)
        u = UnitaryMatrix.swap(2, 1, 2)
        x = CuntzElement.monomial(w, (1,), (2,))
        cut = 4
        lhs = symbolic_gamma(u, x).to_truncated(cut)
        rhs = conjugate(u, x.to_truncated(cut))
        assert lhs.equal_on_block(rhs, cut)


class TestCounterexample:
    def test_exact_coefficient(self, w13):
        rep = counterexample_report(w13, 1, 2)
        assert rep.coefficient == GaussianRational(Fraction(-1, 3))
        assert abs(rep.truncated_norm - 1 / 3) < 1e-12
        assert not rep.harmonicity_defect.ok

    def test_rejects_equal_weights(self):
        w = WeightVector.uniform(2)
        with pytest.raises(ValueError):
            counterexample_report(w, 1, 2)

    def test_difference_is_vacuum_projection_multiple(self, w13):
        rep = counterexample_report(w13, 2, 1)
        assert rep.coefficient == GaussianRational(Fraction(1, 3))
        assert list(rep.difference.entries) == [((), ())]


class TestBasisIndependence:
    def test_markov_intertwining(self, w13):
        rng = random.Random(3)
        v = random_exact_unitary(2, rng)
        rep = basis_independence_check(w13, v, cut=5, trials=8, rng=rng)
        assert rep.ok
        assert rep.max_abs_diff == 0.0

    def test_adjoints_built_once(self, w13, monkeypatch):
        adjoint = TruncatedOperator.adjoint
        calls = []

        def counted(op):
            calls.append(op.cut)
            return adjoint(op)

        monkeypatch.setattr(TruncatedOperator, "adjoint", counted)
        rng = random.Random(3)
        v = random_exact_unitary(2, rng)
        assert basis_independence_check(w13, v, cut=4, trials=5, rng=rng).ok
        assert sorted(calls) == [3, 4]

    def test_conjugated_markov_consistency(self, w13):
        # conjugation by the swap maps harmonic compressions to
        # operators harmonic for the swapped weights
        u = UnitaryMatrix.swap(2, 1, 2)
        x = CuntzElement.monomial(w13, (1,), (1,)).to_truncated(4)
        y = conjugate(u, x)
        swapped = WeightVector([Fraction(2, 3), Fraction(1, 3)])
        # y is the compression of M((2),(2)) w.r.t. swapped weights
        assert is_harmonic(y, swapped).ok
        assert not is_harmonic(y, w13).ok


def composition_form(x, weights, V):
    """sum_i w_i l_{f_i}* x l_{f_i} with f_i = V e_i, built from the
    left-creation compressions and recut to its exact block."""
    cut, d, mode = x.cut, x.d, x.mode
    out = TruncatedOperator.zero(cut, d, mode)
    for i in range(1, d + 1):
        lf = TruncatedOperator.zero(cut, d, mode)
        for j, v in enumerate(V.apply(i), start=1):
            lf = lf + op_left_creation((j,), cut, d, mode).scale(v)
        out = out + lf.adjoint().compose(x).compose(lf).scale(weights.values[i - 1])
    return out.recut(cut - 1)


def random_dense_operator(weights, cut, rng, nonzeros):
    basis = words_up_to(weights.d, cut)
    entries = {}
    for _ in range(nonzeros):
        key = (rng.choice(basis), rng.choice(basis))
        if weights.mode == EXACT:
            entries[key] = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        else:
            entries[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return TruncatedOperator(entries, cut, weights.d, weights.mode)


class TestRotatedMarkovStep:
    @pytest.mark.parametrize("d,cut", [(2, 4), (3, 3)])
    def test_direct_sum_equals_composition_form_exactly(self, d, cut):
        rng = random.Random(11 + d)
        w = WeightVector([Fraction(k, d * (d + 1) // 2) for k in range(1, d + 1)])
        for _ in range(4):
            V = random_exact_unitary(d, rng)
            x = random_dense_operator(w, cut, rng, nonzeros=40)
            got = markov_step_in_basis(x, w, V)
            want = composition_form(x, w, V)
            assert got.cut == want.cut == cut - 1
            assert got.entries == want.entries

    def test_identity_basis_is_the_markov_step(self, w3):
        x = random_dense_operator(w3, 3, random.Random(2), nonzeros=60)
        got = markov_step_in_basis(x, w3, UnitaryMatrix.identity(3))
        assert got.entries == markov_step(x, w3).entries

    @pytest.mark.parametrize("d,cut", [(2, 4), (3, 3)])
    def test_float_mode_within_tolerance(self, d, cut):
        rng = random.Random(5 + d)
        w = WeightVector([k / (d * (d + 1) / 2) for k in range(1, d + 1)], mode=FLOAT)
        for _ in range(3):
            V = random_float_unitary(d, rng)
            x = random_dense_operator(w, cut, rng, nonzeros=40)
            got = markov_step_in_basis(x, w, V)
            want = composition_form(x, w, V)
            assert got.cut == want.cut == cut - 1
            assert got.max_block_diff(want, cut - 1) <= 1e-12

    def test_refuses_mixed_modes(self, w13):
        x = random_dense_operator(w13, 3, random.Random(1), nonzeros=5)
        V = random_float_unitary(2, random.Random(1))
        with pytest.raises(ModeMixError):
            markov_step_in_basis(x, w13, V)

    @pytest.mark.parametrize("step", [
        markov_step,
        lambda x, w: markov_step_in_basis(x, w, UnitaryMatrix.identity(2)),
    ], ids=["markov_step", "markov_step_in_basis"])
    def test_refuses_cut_zero(self, w13, step):
        x = TruncatedOperator.identity(0, 2)
        with pytest.raises(CutExhaustedError,
                           match="cannot apply a Markov step at cut 0"):
            step(x, w13)
