import ast
import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockboundary
from fockboundary.algebra import CuntzElement, Monomial
from fockboundary.choi_effros import op_left_creation, op_right_creation
from fockboundary.errors import (
    CutExhaustedError,
    CutMismatchError,
    LetterRangeError,
    ModeMixError,
    TermBudgetError,
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
        r1 = op_right_creation((1,), cut, d)
        r2 = op_right_creation((2,), cut, d)
        ident = TruncatedOperator.identity(cut, d)
        # r_i* r_j = delta_ij on the block where creation is exact
        assert r1.adjoint().compose(r1).equal_on_block(ident, cut - 1)
        assert not r1.adjoint().compose(r2).entries
        # left and right creations of different letters commute
        l2 = op_left_creation((2,), cut, d)
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
        op = op_right_creation((1,), 3, 2)
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
        got = x.compose(y).word_entries()
        want = products_summed(x, y)
        assert list(got.items()) == list(want.items())
        assert (row, col) not in got


def products_summed(x, y):
    """The entries of x y as ``accumulate`` over the products a * b."""
    by_mid = {}
    for (mid, col), b in y.word_entries().items():
        by_mid.setdefault(mid, []).append((col, b))
    return accumulate(
        (((row, col), a * b)
         for (row, mid), a in x.word_entries().items()
         for col, b in by_mid.get(mid, ())),
        x.mode)


NEGATIVE_CUTS = {
    "checked": lambda: TruncatedOperator({}, -1, 2),
    "checked with an entry": lambda: TruncatedOperator(
        {((), ()): 1}, -1, 2),
    "zero": lambda: TruncatedOperator.zero(-1, 2),
    "identity": lambda: TruncatedOperator.identity(-1, 2),
    "vacuum_projection": lambda: TruncatedOperator.vacuum_projection(-2, 2),
    "op_left_creation": lambda: op_left_creation((1,), -1, 2),
    "op_right_creation": lambda: op_right_creation((1,), -1, 2),
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
            assert op.cut == 0 and list(op.word_entries()) == [((), ())]
            assert TruncatedOperator.from_json(op.to_json()) == op


class TestWordBudget:
    """The truncated layer refuses, before any work, to build more
    entries than ``term_cap()``."""

    BUILDERS = {
        "to_truncated": lambda cut: CuntzElement.monomial(
            WeightVector.uniform(2), (1,), ()).to_truncated(cut),
        "identity": lambda cut: TruncatedOperator.identity(cut, 2),
        "second_quantize": lambda cut: second_quantize(
            UnitaryMatrix.identity(2), cut),
        "op_right_creation": lambda cut: op_right_creation((1,), cut, 2),
        "op_left_creation": lambda cut: op_left_creation((1,), cut, 2),
    }

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
    def test_refused_at_cut_40(self, build):
        with pytest.raises(TermBudgetError, match="at cut 40 exceeded the term budget"):
            build(40)

    @pytest.mark.parametrize("build,cut", [
        (BUILDERS["identity"], 2), (BUILDERS["second_quantize"], 2),
        (BUILDERS["to_truncated"], 3), (BUILDERS["op_right_creation"], 3),
        (BUILDERS["op_left_creation"], 3),
    ], ids=["identity", "second_quantize", "to_truncated", "op_right_creation",
            "op_left_creation"])
    def test_cap_is_the_entry_count(self, build, cut, monkeypatch):
        # each builds 1 + 2 + 4 = 7 entries at this cut, 15 at the next
        monkeypatch.setenv("FOCK_TERM_CAP", "7")
        assert len(build(cut).entries) == 7
        with pytest.raises(TermBudgetError):
            build(cut + 1)

    def test_to_truncated_sums_its_terms(self, w13, monkeypatch):
        # 3 + 7 words for the terms at cut 2
        x = CuntzElement(
            {Monomial((1,), ()): 1, Monomial((), ()): 1}, w13)
        monkeypatch.setenv("FOCK_TERM_CAP", "10")
        x.to_truncated(2)
        monkeypatch.setenv("FOCK_TERM_CAP", "9")
        with pytest.raises(TermBudgetError):
            x.to_truncated(2)


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

    def test_harmonicity_refuses_other_sessions(self, w13, w3):
        for x in (TruncatedOperator.identity(3, 2, FLOAT),
                  TruncatedOperator.identity(3, 3)):
            with pytest.raises(ModeMixError):
                is_harmonic(x, w13)
        with pytest.raises(CutExhaustedError):
            is_harmonic(TruncatedOperator.identity(0, 3), w3)

    def test_left_creation_defect(self, w13):
        l1 = op_left_creation((1,), 5, 2)
        rep = is_harmonic(l1, w13)
        assert not rep
        want = Fraction(1, 3) - 1
        assert all(v == want for v in
                   (d.re for d in rep.defects.values()))

    @given(st.integers(1, 2), st.integers(1, 2))
    @settings(max_examples=10)
    def test_right_creations_harmonic(self, w13, i, j):
        cut = 5
        ri = op_right_creation((i,), cut, 2)
        rj = op_right_creation((j,), cut, 2)
        assert is_harmonic(ri.compose(rj), w13)


# the truncated and symbolic kernels of the benchmark, in both fields
KERNELS_SCRIPT = """
import random
from fractions import Fraction

from fockboundary.algebra import CuntzElement, Monomial
from fockboundary.choi_effros import (
    closed_form, closed_form_mixed, op_right_creation, product_iterative)
from fockboundary.fock import WeightVector, is_harmonic
from fockboundary.quantization import (
    UnitaryMatrix, markov_step_in_basis, random_exact_unitary, second_quantize,
    symbolic_gamma)

for mode in ("exact", "float"):
    w = WeightVector([Fraction(1, 3), Fraction(2, 3)], mode)
    x = CuntzElement({Monomial((1,), (2, 1)): 1, Monomial((), (2,)): 2}, w)
    xt = x.to_truncated(5)
    assert is_harmonic(xt, w).ok
    r = op_right_creation((1, 2), 5, 2, mode)
    xt.compose(r)
    r.adjoint().compose(xt)
    closed_form_mixed("vi", ((1,), (2, 2)), xt, w)
    closed_form(xt, w, left=((2,), (1,)), right=((1,), (2, 2)))
    product_iterative(xt, r, w)
    x * x
    # rotated-basis: a rotation whose rows are exact in both fields
    V = UnitaryMatrix([[Fraction(3, 5), Fraction(4, 5)],
                       [Fraction(4, 5), Fraction(-3, 5)]], mode)
    g = second_quantize(V, 5)
    markov_step_in_basis(g.compose(xt).compose(g.adjoint()), w, V)
u = WeightVector.uniform(3)
y = CuntzElement({Monomial((1, 3), (2,)): 1}, u)
symbolic_gamma(random_exact_unitary(3, random.Random(1)), y)
"""


# a finder first on sys.meta_path that refuses numpy, so that a script
# fails wherever it would import numpy, even with numpy installed
NO_NUMPY = """
import sys


class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError("numpy is blocked")


sys.meta_path.insert(0, NoNumpy())
"""


def run_without_numpy(script):
    """Run ``script`` in a fresh interpreter that cannot import numpy;
    its stdout as bytes."""
    src = str(Path(fockboundary.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    run = subprocess.run([sys.executable, "-c", NO_NUMPY + script], env=env,
                         capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
    return run.stdout


def test_the_kernels_import_no_numpy():
    # importing numpy adds about 12 MB to a run's peak RSS, more than the
    # benchmark's bound on peak_rss_mb allows
    run_without_numpy(KERNELS_SCRIPT)


def test_verify_all_runs_without_numpy():
    stdout = run_without_numpy(
        "from fockboundary.cli import main\n"
        "sys.exit(main(['verify', 'all', '--seed', '7']))\n")
    digest = (Path(__file__).parent / "data" / "verify_all_seed7.sha256").read_text()
    assert hashlib.sha256(stdout).hexdigest() == digest.split()[0]


def test_float_unitaries_and_counterexample_without_numpy():
    stdout = run_without_numpy("""
import random
from fractions import Fraction

from fockboundary.fock import WeightVector
from fockboundary.quantization import counterexample_report, random_float_unitary

rng = random.Random(7)
for d in range(2, 10):
    for _ in range(50):
        random_float_unitary(d, rng)  # the constructor checks unitarity to 1e-12
for mode in ("exact", "float"):
    weights = WeightVector([Fraction(1, 3), Fraction(2, 3)], mode)
    print(counterexample_report(weights, 1, 2).truncated_norm)
""")
    assert stdout.split() == [b"0.3333333333333333"] * 2


def test_no_module_imports_numpy():
    src = Path(fockboundary.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert len(modules) >= 10
    found = set()
    for p in modules:
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found |= {(p.name, n) for n in names if n.partition(".")[0] == "numpy"}
    assert not found
