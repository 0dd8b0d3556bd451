"""The Gaussian-rational kernel against a reference pair of Fractions,
and the two coefficient fields."""

import ast
import copy
import json
import operator
import pickle
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockboundary
from fockboundary.errors import TermBudgetError
from fockboundary.scalars import (
    EXACT,
    FLOAT,
    GaussianRational,
    accumulate,
    field,
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
        obj = EXACT.to_json(g)
        assert obj == {"re": str(x[0]), "im": str(x[1])}
        back = EXACT.from_json(obj)
        assert_is(back, x)
        assert back == g

    @given(reals)
    @settings(max_examples=50, deadline=None)
    def test_real_operands_serialize(self, r):
        assert EXACT.to_json(r) == {"re": str(Fraction(r)), "im": "0"}


class TestAccumulate:
    @given(st.lists(st.tuples(st.integers(0, 4), pairs), max_size=10),
           st.integers(0, 4), pairs)
    @settings(max_examples=80, deadline=None)
    def test_exact_matches_fraction_pair_sums(self, items, key, again):
        # cancel ``key`` to zero, then bring it back with ``again``
        running = (Fraction(0), Fraction(0))
        for k, x in items:
            if k == key:
                running = ref_add(running, x)
        items = items + [(key, ref_sub((0, 0), running)), (key, again)]
        ref = {}
        for k, x in items:
            ref[k] = ref_add(ref.get(k, (0, 0)), x)
        ref = {k: v for k, v in ref.items() if v != (0, 0)}
        got = accumulate(((k, make(x)) for k, x in items), EXACT)
        assert set(got) == set(ref)
        for k, g in got.items():
            assert_is(g, ref[k])

    @given(st.floats(-7e-13, 7e-13), st.floats(-7e-13, 7e-13),
           st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3))
    @settings(max_examples=100, deadline=None)
    def test_float_drops_sums_within_tolerance(self, re, im, c):
        tiny = complex(re, im)
        assert accumulate([("a", tiny)], FLOAT) == {}
        assert accumulate([("a", c), ("a", tiny - c)], FLOAT) == {}
        # a sum dropped on the way restarts from the next value
        got = accumulate([("a", c), ("a", -c), ("a", 2e-12)], FLOAT)
        assert got == {"a": 2e-12}

    def test_budget_only_on_labelled_sums(self, monkeypatch):
        monkeypatch.setenv("FOCK_TERM_CAP", "3")
        items = [(k, GaussianRational(1)) for k in range(4)]
        assert len(accumulate(items, EXACT)) == 4
        assert len(accumulate(items[:3], EXACT, "sum")) == 3
        with pytest.raises(TermBudgetError, match="sum exceeded the term budget"):
            accumulate(items, EXACT, "sum")


class TestFields:
    def test_field_maps_names_and_fields_to_the_singletons(self):
        assert field("exact") is EXACT and field("float") is FLOAT
        assert field(EXACT) is EXACT and field(FLOAT) is FLOAT

    @pytest.mark.parametrize("spec", ["Exact", "", None, 1, ["exact"]])
    def test_unknown_spec(self, spec):
        with pytest.raises(ValueError) as exc:
            field(spec)
        assert str(exc.value) == (
            "unknown mode %r, expected 'exact' or 'float'" % (spec,))

    @pytest.mark.parametrize("f", [EXACT, FLOAT])
    def test_copy_and_pickle_keep_identity(self, f):
        assert copy.copy(f) is f and copy.deepcopy(f) is f
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(f, protocol)) is f
        assert copy.deepcopy({"mode": f})["mode"] is f

    def test_spelled_as_its_name(self):
        assert json.dumps(EXACT) == '"exact"'
        assert json.dumps({"mode": FLOAT}) == '{"mode": "float"}'
        assert EXACT == "exact" and hash(FLOAT) == hash("float")
        assert repr(EXACT) == "'exact'" and "%s" % FLOAT == "float"

    @given(pairs)
    @settings(max_examples=50, deadline=None)
    def test_json_round_trip_in_both_fields(self, x):
        g = make(x)
        assert EXACT.from_json(json.loads(json.dumps(EXACT.to_json(g)))) == g
        c = complex(g)
        assert FLOAT.from_json(json.loads(json.dumps(FLOAT.to_json(c)))) == c

    @pytest.mark.parametrize("seed", range(5))
    def test_random_coeff_makes_the_old_inline_draws(self, seed):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert EXACT.random_coeff(rng) == GaussianRational(
                Fraction(ref.randrange(-3, 4)), Fraction(ref.randrange(-3, 4)))
            assert FLOAT.random_coeff(rng) == complex(
                ref.uniform(-1, 1), ref.uniform(-1, 1))

    def test_same_entries(self):
        a = {"x": GaussianRational(1), "y": GaussianRational(0, 2)}
        assert EXACT.same_entries(a, dict(a))
        assert not EXACT.same_entries(a, {"x": GaussianRational(1)})
        f = {"x": 1 + 0j, "y": 2j}
        assert FLOAT.same_entries(f, {"x": 1 + 5e-13j, "y": 2j, "z": 1e-13})
        assert not FLOAT.same_entries(f, {"x": 1 + 0j})
        assert not FLOAT.same_entries(f, {"x": 1 + 0j, "y": 2j}, tol=-1)


# -- no module outside scalars.py asks which field it holds ------------------

FIELD_NAMES = {"EXACT", "FLOAT"}
FIELD_SPELLINGS = {"exact", "float"}

# classify picks an algorithm per field; verify refuses float mode
ALLOWED_FIELD_TESTS = {("classification.py", "classify"), ("cli.py", "cmd_verify")}


def _names_a_field(node):
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_a_field(n) for n in node.elts)
    if isinstance(node, ast.Name):
        return node.id in FIELD_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in FIELD_NAMES
    return isinstance(node, ast.Constant) and node.value in FIELD_SPELLINGS


def field_tests(source):
    """The enclosing function names of the comparisons in ``source``
    that have a field, or a field's name, as an operand."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare) and any(
                _names_a_field(n) for n in [node.left, *node.comparators]):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


class TestFieldGuard:
    def test_finds_each_spelling(self):
        source = (
            "def f(w, mode):\n"
            "    if w.mode == scalars.EXACT or mode is FLOAT:\n"
            "        return 'float' != mode\n"
            "x = mode in (EXACT,)\n")
        assert field_tests(source) == ["f", "f", "f", None]

    def test_no_module_outside_scalars_tests_its_field(self):
        src = Path(fockboundary.__file__).parent
        modules = sorted(p for p in src.glob("*.py") if p.name != "scalars.py")
        assert len(modules) >= 10
        found = {(p.name, function) for p in modules
                 for function in field_tests(p.read_text())}
        assert found <= ALLOWED_FIELD_TESTS
