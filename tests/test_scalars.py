"""The Gaussian-rational kernel against a reference pair of Fractions."""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockboundary.scalars import (
    EXACT,
    GaussianRational,
    scalar_from_json,
    scalar_to_json,
)

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=60)
reals = st.one_of(st.integers(-40, 40), rationals)
pairs = st.tuples(rationals, rationals)


def make(pair):
    return GaussianRational(*pair)


def assert_is(g, pair):
    """g is canonical and holds the value re + im*i of ``pair``."""
    assert isinstance(g, GaussianRational)
    assert g._den > 0 and gcd(g._a, g._b, g._den) == 1
    assert (g.re, g.im) == pair
    assert type(g.re) is Fraction and type(g.im) is Fraction


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


OPS = [
    (operator.add, ref_add),
    (operator.sub, ref_sub),
    (operator.mul, ref_mul),
    (operator.truediv, ref_div),
]


class TestArithmetic:
    @given(pairs, pairs)
    @settings(max_examples=120, deadline=None)
    def test_binary_ops(self, x, y):
        for op, ref in OPS:
            if op is operator.truediv and y == (0, 0):
                continue
            assert_is(op(make(x), make(y)), ref(x, y))

    @given(pairs, reals)
    @settings(max_examples=120, deadline=None)
    def test_mixed_operands_on_either_side(self, x, r):
        real = (Fraction(r), Fraction(0))
        for op, ref in OPS:
            if not (op is operator.truediv and r == 0):
                assert_is(op(make(x), r), ref(x, real))
            if not (op is operator.truediv and x == (0, 0)):
                assert_is(op(r, make(x)), ref(real, x))

    @given(pairs)
    @settings(max_examples=100, deadline=None)
    def test_unary(self, x):
        g = make(x)
        assert_is(-g, (-x[0], -x[1]))
        assert_is(g.conjugate(), (x[0], -x[1]))
        assert bool(g) == (x != (0, 0))
        assert complex(g) == complex(float(x[0]), float(x[1]))

    @given(pairs)
    @settings(max_examples=50, deadline=None)
    def test_division_by_zero(self, x):
        for zero in (0, Fraction(0), GaussianRational(0)):
            with pytest.raises(ZeroDivisionError):
                make(x) / zero
        for numerator in (1, x[0]):
            with pytest.raises(ZeroDivisionError):
                numerator / GaussianRational(0)

    def test_foreign_operands_are_refused(self):
        g = GaussianRational(1, 2)
        with pytest.raises(TypeError):
            g + 1.5
        with pytest.raises(TypeError):
            1j * g
        assert (g == 1 + 2j) is False


class TestCanonicalForm:
    @given(pairs)
    @settings(max_examples=120, deadline=None)
    def test_constructor(self, x):
        assert_is(make(x), x)

    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 30),
           st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_equal_values_built_differently(self, a, b, den, k):
        # (ka + kb i)/(k den) and (a + b i)/den are one value
        g = GaussianRational(Fraction(k * a, k * den), Fraction(k * b, k * den))
        h = GaussianRational(Fraction(a, den), Fraction(b, den))
        assert (g._a, g._b, g._den) == (h._a, h._b, h._den)
        assert g == h and hash(g) == hash(h)

    def test_zero_and_one(self):
        assert_is(GaussianRational(), (0, 0))
        assert_is(GaussianRational(1) - 1, (0, 0))
        assert_is(GaussianRational(Fraction(1, 2)) * 2, (1, 0))

    def test_accepts_what_fraction_accepts(self):
        assert_is(GaussianRational("1/2", "-3/4"), (Fraction(1, 2), Fraction(-3, 4)))
        assert_is(GaussianRational(True, 0.5), (Fraction(1), Fraction(1, 2)))


class TestEqualityAndHash:
    @given(reals)
    @settings(max_examples=100, deadline=None)
    def test_real_values_match_int_and_fraction(self, r):
        g = GaussianRational(r)
        assert g == r and r == g
        assert g == Fraction(r) and Fraction(r) == g
        assert hash(g) == hash(r) == hash(Fraction(r))
        assert len({g, r}) == 1

    @given(pairs, pairs)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, x, y):
        assert (make(x) == make(y)) == (x == y)
        assert (make(x) != make(y)) == (x != y)

    @given(pairs)
    @settings(max_examples=50, deadline=None)
    def test_non_real_differs_from_its_real_part(self, x):
        if x[1] != 0:
            assert make(x) != x[0] and x[0] != make(x)


class TestParts:
    @given(pairs)
    @settings(max_examples=100, deadline=None)
    def test_re_im(self, x):
        g = make(x)
        assert g.re == x[0] and g.im == x[1]

    def test_parts_are_read_only(self):
        g = GaussianRational(1, 2)
        with pytest.raises(AttributeError):
            g.re = Fraction(3)
        with pytest.raises(AttributeError):
            g.other = 1

    def test_repr(self):
        assert repr(GaussianRational(Fraction(1, 2))) == "GaussianRational(1/2)"
        assert repr(GaussianRational(1, Fraction(-2, 3))) == "GaussianRational(1, -2/3)"


class TestJson:
    @given(pairs)
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, x):
        g = make(x)
        obj = scalar_to_json(g, EXACT)
        assert obj == {"re": str(x[0]), "im": str(x[1])}
        back = scalar_from_json(obj, EXACT)
        assert_is(back, x)
        assert back == g

    @given(reals)
    @settings(max_examples=50, deadline=None)
    def test_real_operands_serialize(self, r):
        assert scalar_to_json(r, EXACT) == {"re": str(Fraction(r)), "im": "0"}
