"""End-to-end acceptance checks, one test class per criterion.

The heavy randomized suites are run once per session through the
``verify`` module (the same code path the CLI uses) and their reports
are asserted here at the stated tolerances.
"""

import math
import random
from fractions import Fraction

import pytest

from fockboundary import verify
from fockboundary.algebra import CuntzElement
from fockboundary.choi_effros import op_right_creation
from fockboundary.classification import classify, exponent_decomposition
from fockboundary.errors import StabilizationError
from fockboundary.exact_linalg import is_psd, rank
from fockboundary.fock import WeightVector
from fockboundary.modular import monomial_family
from fockboundary.scalars import GaussianRational
from fockboundary.structure import span_dimension


class TestCriterion1CuntzRelations:
    def test_symbolic_and_truncated_at_cut_8(self):
        rep = verify.verify_relations(seed=7, cut=8)
        assert rep["ok"], rep
        assert {c["d"] for c in rep["checks"]} == {2, 3}
        for check in rep["checks"]:
            assert check["symbolic_ok"] and check["truncated_ok"]


class TestCriterion2Multiplications:
    def test_200_instances_agree(self, multiplications_report):
        rep = multiplications_report
        assert rep["trials"] >= 200
        assert rep["ok"], rep["failures"]

    def test_all_seven_forms_covered(self, multiplications_report):
        kinds = {c["case"] for c in multiplications_report["cases"]}
        assert kinds == {"i", "ii", "iii", "iv", "v", "vi", "vii"}

    def test_stabilization_budget(self, multiplications_report):
        for c in multiplications_report["cases"]:
            assert c["steps_used"] <= sum(len(w) for w in c["words"]) + 1

    @pytest.mark.parametrize("cut", [
        pytest.param(3, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=(
                "ROADMAP item 2: the chain stops on a Markov step that changed "
                "nothing on a block too shallow to see the defect"))),
        4, 5, 6, 7, 8,
    ])
    def test_iterative_chain_is_refused_or_right(self, cut):
        # a . r_1 = 1 + i r_11 at cut 3 is cut to cut 1, where it looks like
        # the identity, so the chain returns vacuum entry 0, not i/9
        w = WeightVector([Fraction(1, 3), Fraction(2, 3)])

        def M(I, J):
            return CuntzElement.monomial(w, I, J)

        a = M((1,), ()).scale(GaussianRational(0, 1)) + M((), (1,))
        product = a * M((1,), ()) * M((), (1, 1))
        chain = [a.to_truncated(cut), op_right_creation((1,), cut, 2),
                 op_right_creation((1, 1), cut, 2).adjoint()]
        try:
            got, _ = verify._iterative_chain(chain, w)
        except StabilizationError:
            return
        want = product.to_truncated(max(got.cut, product.max_word_length()))
        assert got.equal_on_block(want, got.cut)


class TestCriterion3Faithfulness:
    def test_gram_psd_and_rank(self):
        rep = verify.verify_phi(max_len=2)
        assert rep["psd"]
        assert rep["gram_rank"] == rep["truncated_family_rank"] == 40
        assert rep["ok"]

    def test_default_span_at_three_letters(self):
        rep = verify.verify_phi(
            weights=WeightVector([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]))
        assert rep["family_size"] == 169
        assert rep["gram_rank"] == rep["truncated_family_rank"] == 153
        assert rep["psd"] and rep["ok"]

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("max_len", [1, 2])
    def test_ranks_are_the_span_dimension(self, d, max_len):
        # the GNS vectors of the monomials span the word-length <= L span
        rep = verify.verify_phi(max_len=max_len, weights=WeightVector.uniform(d))
        assert rep["ok"]
        assert (rep["gram_rank"] == rep["truncated_family_rank"]
                == span_dimension(d, max_len))

    @pytest.mark.parametrize("d, max_len", [(2, 2), (3, 1)])
    def test_per_class_verdicts_match_the_whole_family_gram(self, d, max_len):
        # the dense Gram of the whole family, G[a][b] = phi(M_a* . M_b)
        weights = WeightVector([Fraction(k, d * (d + 1) // 2)
                                for k in range(1, d + 1)])
        elems = [CuntzElement.monomial(weights, m.I, m.J)
                 for m in monomial_family(d, max_len)]
        rational = weights.mode.rational
        gram = [[rational(xb.gns_inner(xa)) for xb in elems] for xa in elems]
        compressions = [{key: rational(v) for key, v in
                         x.to_truncated(2 * max_len).entries.items()}
                        for x in elems]
        rep = verify.verify_phi(max_len=max_len, weights=weights)
        assert rep["family_size"] == len(elems)
        assert rep["psd"] == is_psd(gram)
        assert rep["gram_rank"] == rank(gram)
        assert rep["truncated_family_rank"] == rank(compressions)


class TestCriterion4Modular:
    def test_kms_sigma_state_eigenvalue(self):
        rep = verify.verify_delta(trials=100, seed=7, max_len=3)
        assert rep["kms_pairs"] > 0 and rep["kms_failures"] == 0
        assert rep["kms_trivial_flow_failures"] > 0
        assert rep["kms_inverted_flow_failures"] > 0
        assert rep["automorphism_failures"] == 0
        assert rep["state_invariance_failures"] == 0
        assert rep["eigenvalue_ok"]
        assert rep["eigenvalue"] == "1/2"

    def test_uniform_weights_too(self):
        rep = verify.verify_delta(
            trials=30, seed=7, max_len=2, weights=WeightVector.uniform(2))
        assert rep["ok"]


class TestCriterion5Classification:
    def test_named_cases(self):
        v = classify(WeightVector([Fraction(1, 2), Fraction(1, 2)]))
        assert v.kind == "III_lambda" and v.lam == Fraction(1, 2)
        assert classify(
            WeightVector([Fraction(1, 3), Fraction(2, 3)])).kind == "III_one"
        lam = (math.sqrt(5) - 1) / 2
        golden = classify(WeightVector([lam, lam * lam], mode="float"))
        assert golden.kind == "III_lambda"
        assert abs(golden.lam - 0.6180339887) < 1e-9

    def test_twenty_random_round_trips(self):
        rng = random.Random(7)
        done = 0
        while done < 20:
            k = rng.randrange(2, 8)
            lam = Fraction(1, k)
            d = rng.randrange(2, 6)
            decomps = exponent_decomposition(lam, d)
            if not decomps:
                continue
            exps = rng.choice(decomps)
            v = classify(WeightVector([lam ** e for e in exps]))
            assert v.kind == "III_lambda"
            assert v.lam == lam and v.exponents == exps
            done += 1

    def test_non_unit_fraction_lambda_never_emitted(self):
        # every exact III_lambda verdict passes the unit-fraction check;
        # the internal consistency error guards the impossible branch
        from fockboundary.classification import rational_lambda_check

        rng = random.Random(13)
        for _ in range(50):
            d = rng.randrange(2, 5)
            raw = [rng.randrange(1, 9) for _ in range(d)]
            w = WeightVector([Fraction(a, sum(raw)) for a in raw])
            v = classify(w)  # must not raise InternalInconsistencyError
            if v.kind == "III_lambda":
                assert rational_lambda_check(v.lam)


class TestCriterion6Quantization:
    def test_uniform_automorphism(self, quantize_report):
        for block in quantize_report["uniform"]:
            assert block["homomorphism_failures"] == 0
            assert block["composition_failures"] == 0

    def test_counterexample_coefficient(self, quantize_report):
        ce = quantize_report["counterexample"]
        assert ce["ok"]
        assert ce["coefficient"] == {"re": "-1/3", "im": "0"}
        assert ce["expected_coefficient"] == "-1/3"
        assert not ce["conjugated_image_harmonic"]

    def test_basis_independence_cut_6(self, quantize_report):
        bi = quantize_report["basis_independence"]
        assert bi["cut"] == 6
        assert bi["ok"]
        assert bi["max_abs_diff"] < 1e-10


class TestCriterion7Masa:
    def test_commutant_is_diagonal_span(self):
        rep = verify.verify_masa(max_len=2)
        assert rep["ok"]
        assert rep["probe"]["commutant_dimension"] == 4
        assert rep["probe"]["matches_diagonal"]


class TestCriterion8DRConvergence:
    def test_onset_within_4_and_stable_to_6(self):
        rep = verify.verify_dr(n_max=6)
        assert rep["ok"]
        for r in rep["reports"]:
            assert r["first_zero"] is not None
            assert r["first_zero"] <= 4
            assert r["stable_through"] == 6
            # hardened to the oracle-observed onset max(|I|, 1)
            word_len = 0 if r["word"] == "()" else len(r["word"])
            assert r["first_zero"] == max(word_len, 1)


class TestCriterion9Harmonicity:
    def test_creations_and_monomials_pass_left_creation_fails(self):
        rep = verify.verify_harmonic(cut=6, seed=7)
        assert rep["ok"]
        assert all(c["harmonic"] for c in rep["cases"])
        assert rep["left_creation_fails_with_expected_defect"]


class TestCriterion10Cesaro:
    def test_projection_limits_within_cut_8(self):
        rep = verify.verify_cesaro(cut=8)
        assert rep["vacuum_projection_to_zero"]
        assert all(c["ok"] for c in rep["creations_fixed"])
        assert rep["ok"]
