import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockboundary.classification import (
    classify,
    exponent_decomposition,
    rational_lambda_check,
)
from fockboundary.fock import WeightVector


class TestExact:
    def test_uniform_half(self, w_half):
        v = classify(w_half)
        assert v.kind == "III_lambda"
        assert v.lam == Fraction(1, 2)
        assert v.exponents == (1, 1)
        assert not v.numeric

    def test_one_third_two_thirds(self, w13):
        assert classify(w13).kind == "III_one"

    def test_mixed_powers(self):
        w = WeightVector([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        v = classify(w)
        assert v.lam == Fraction(1, 2)
        assert v.exponents == (1, 2, 2)

    def test_deeper_powers(self):
        lam = Fraction(1, 3)
        w = WeightVector([lam, lam, lam ** 2, lam ** 2, lam ** 2])
        assert sum(w.values) == 1
        v = classify(w)
        assert v.lam == lam
        assert v.exponents == (1, 1, 2, 2, 2)

    def test_incommensurable(self):
        w = WeightVector([Fraction(1, 4), Fraction(3, 4)])
        assert classify(w).kind == "III_one"

    def test_large_coprime_denominator_returns_at_once(self):
        # 1/(p q) and 1 - 1/(p q) for the primes p = 10^9 + 7 and
        # q = 998244353: a pair no trial-division factoring finishes on
        n = (10 ** 9 + 7) * 998244353
        w = WeightVector([Fraction(1, n), Fraction(n - 1, n)])
        start = time.perf_counter()
        v = classify(w)
        assert time.perf_counter() - start < 0.1
        assert v.kind == "III_one"
        assert v.witness == ("weights 1 and 2 generate a dense subgroup "
                             "(log w_1 / log w_2 is irrational)")

    def test_witness_names_the_first_incommensurable_weight(self):
        w = WeightVector([Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
        assert classify(w).kind == "III_lambda"
        w = WeightVector([Fraction(1, 4), Fraction(1, 16), Fraction(11, 16)])
        assert classify(w).witness == (
            "weights 1 and 3 generate a dense subgroup "
            "(log w_1 / log w_3 is irrational)")

    def test_rational_lambda_check(self):
        assert rational_lambda_check(Fraction(1, 5))
        assert not rational_lambda_check(Fraction(2, 5))
        with pytest.raises(ValueError):
            rational_lambda_check(Fraction(3, 2))


class TestFloat:
    def test_golden_ratio(self):
        lam = (math.sqrt(5) - 1) / 2
        w = WeightVector([lam, lam * lam], mode="float")
        v = classify(w)
        assert v.kind == "III_lambda"
        assert v.numeric
        assert abs(v.lam - 0.6180339887498949) < 1e-9
        assert v.exponents == (1, 2)

    def test_float_dense(self):
        w = WeightVector([0.25, 0.75], mode="float")
        assert classify(w).kind == "III_one"

    def test_float_powers(self):
        w = WeightVector([0.5, 0.25, 0.25], mode="float")
        v = classify(w)
        assert abs(v.lam - 0.5) < 1e-12
        assert v.exponents == (1, 2, 2)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0, 0.0])
def test_refuses_bad_tolerance(mode, tolerance):
    w = WeightVector([0.25, 0.75], mode=mode)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        classify(w, tolerance)


class TestRoundTrips:
    def test_twenty_random_unit_fraction_lambdas(self):
        rng = random.Random(11)
        done = 0
        while done < 20:
            k = rng.randrange(2, 8)
            lam = Fraction(1, k)
            d = rng.randrange(2, 6)
            decomps = exponent_decomposition(lam, d)
            if not decomps:
                continue
            exps = rng.choice(decomps)
            w = WeightVector([lam ** e for e in exps])
            v = classify(w)
            assert v.kind == "III_lambda"
            assert v.lam == lam
            assert v.exponents == exps
            assert math.gcd(*v.exponents) == 1
            done += 1

    @given(st.integers(2, 6))
    @settings(max_examples=5, deadline=None)
    def test_uniform_d(self, d):
        v = classify(WeightVector.uniform(d))
        assert v.lam == Fraction(1, d)
        assert v.exponents == tuple([1] * d)


class TestDecomposition:
    def test_half_d3(self):
        assert exponent_decomposition(Fraction(1, 2), 3) == [(1, 2, 2)]

    def test_half_d2(self):
        assert exponent_decomposition(Fraction(1, 2), 2) == [(1, 1)]

    def test_golden_float(self):
        lam = (math.sqrt(5) - 1) / 2
        assert exponent_decomposition(lam, 2, tol=1e-9) == [(1, 2)]

    def test_gcd_filter(self):
        # (2, 2) for lambda with lambda^2 = 1/2 is excluded by gcd
        for exps in exponent_decomposition(Fraction(1, 4), 4):
            assert math.gcd(*exps) == 1
