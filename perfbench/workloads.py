"""The benchmark's four workloads: seeded instance generators and the
checked instance each one runs.

Instances are generated here from the seed alone, with the library's
constructors (``WeightVector``, ``CuntzElement``, ``TruncatedOperator``,
``random_exact_unitary``) and never with ``fockboundary.verify``'s
generators, so that a change to ``verify`` cannot shift the inputs.

The properties that set an instance's cost are stratified: d follows a
fixed cycle; closed-form kinds (jointly with their word lengths), element
word lengths and unitaries are drawn in balanced blocks, which keep their
uniform shares but make every stretch of a run see nearly the same mix;
and operator entries sit at fixed word lengths.  Letters, coefficients
and weights are drawn at random.  The one
filter on a distribution is on the d=3 unitaries of ``rotated-basis`` and
``symbolic``: they are the sparse half of ``random_exact_unitary``'s draws
(see ``unitary_sets``).

An instance returns True when its identity holds.  A library error raised
inside it propagates and is counted as a failure by the runner.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from fockboundary import choi_effros, fock, modular, quantization, scalars
from fockboundary.algebra import CuntzElement, Monomial
from fockboundary.choi_effros import _down_shift, _up_shift
from fockboundary.fock import TruncatedOperator, WeightVector
from fockboundary.modular import PhasedElement

FLOAT_TOL = 1e-9

# -- generators ----------------------------------------------------------------


def random_weights(d, rng):
    raw = [rng.randint(1, 9) for _ in range(d)]
    return WeightVector([Fraction(a, sum(raw)) for a in raw])


def float_weights(w):
    return WeightVector([float(v) for v in w.values], mode=scalars.FLOAT)


def random_word(d, rng, length):
    return tuple(rng.randint(1, d) for _ in range(length))


class Balanced:
    """Draws ``values`` in shuffled blocks, each block a permutation of
    them, so that every stretch of a run sees nearly the same mix."""

    def __init__(self, rng, values):
        self.rng = rng
        self.values = list(values)
        self.block = []

    def draw(self):
        if not self.block:
            self.block = list(self.values)
            self.rng.shuffle(self.block)
        return self.block.pop()


def gaussian_integer(rng):
    """A nonzero a + bi with -3 <= a, b <= 3."""
    while True:
        c = scalars.GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        if c:
            return c


def random_element(weights, rng, nterms, lengths):
    """A nonzero element summing ``nterms`` random terms (fewer when two
    draws hit one monomial), with word lengths drawn from ``lengths``."""
    while True:
        terms = {}
        for _ in range(nterms):
            mono = Monomial(random_word(weights.d, rng, lengths.draw()),
                            random_word(weights.d, rng, lengths.draw()))
            terms[mono] = terms.get(mono, 0) + gaussian_integer(rng)
        element = CuntzElement(terms, weights)
        if element.terms:
            return element


def random_operator(weights, cut, rng):
    """An operator with six nonzero Gaussian-integer entries at random
    words of fixed lengths.  Conjugation by Gamma(V) spreads an entry at
    lengths (m, n) over up to d**(m + n) entries, so the lengths, not the
    letters, set the cost; fixing them keeps instances of equal cost."""
    values = {}
    for m, n in ((cut, cut), (cut, cut - 1), (cut - 1, cut), (cut - 1, cut - 1),
                 (cut - 2, cut - 2), (cut - 3, cut - 1)):
        row = random_word(weights.d, rng, m)
        col = random_word(weights.d, rng, n)
        values[(row, col)] = gaussian_integer(rng)
    return TruncatedOperator(values, cut, weights.d, weights.mode)


def nonzero_entries(u):
    return sum(1 for row in u.rows for v in row if v)


def unitary_nonzero_share(u):
    return nonzero_entries(u) / (u.d * u.d)


# -- closed forms vs the iterative product ----------------------------------------

# (d, cut) slots: d=2 and d=3 in the ratio 3:2, as verify_multiplications
# runs them
CLOSED_FORM_SHAPES = ((2, 8), (3, 7), (2, 8), (3, 7), (2, 8))
TWO_WORD_KINDS = ("iii", "vi", "vii")
# a closed-form kind with the lengths of its words: every kind with every
# pair of lengths 1-3 (a one-word kind uses the first), so that kinds and
# lengths are uniform
FORM_DRAWS = [(kind, lengths) for kind in choi_effros.FORM_KINDS
              for lengths in itertools.product((1, 2, 3), repeat=2)]


class ClosedForms:
    """Closed-form mixed products against the chain of iterative products."""

    name = "closed-forms"
    pool_size = 600
    trace_size = 105

    def generate(self, seed):
        rng = random.Random(seed)
        # balanced per d, so that the costly d=3 instances have the full mix too
        forms = {d: Balanced(rng, FORM_DRAWS) for d in (2, 3)}
        element_lengths = {d: Balanced(rng, (0, 1, 2)) for d in (2, 3)}
        out = []
        for i in range(self.pool_size):
            d, cut = CLOSED_FORM_SHAPES[i % len(CLOSED_FORM_SHAPES)]
            kind, lengths = forms[d].draw()
            nwords = 2 if kind in TWO_WORD_KINDS else 1
            words = tuple(random_word(d, rng, n) for n in lengths[:nwords])
            weights = random_weights(d, rng)
            element = random_element(weights, rng, 2, element_lengths[d])
            out.append({
                "weights": weights, "cut": cut, "kind": kind, "words": words,
                "element": element,
                "props": {"d": d, "kind": kind, "terms": len(element.terms)},
            })
        return out

    def run(self, inst, tr):
        w, cut, kind, words = inst["weights"], inst["cut"], inst["kind"], inst["words"]
        tol = FLOAT_TOL if w.mode == scalars.FLOAT else 1e-12
        x = tr.call("algebra.to_truncated", CuntzElement.to_truncated,
                    inst["element"], cut)
        if not tr.call("fock.is_harmonic", fock.is_harmonic, x, w).ok:
            return False
        closed = tr.call("choi_effros.closed_form_mixed",
                         choi_effros.closed_form_mixed, kind, words, x, w,
                         check_harmonic=False)

        def r(word):
            return tr.call("choi_effros.op_right_creation",
                           choi_effros.op_right_creation, word, cut, w.d, w.mode)

        def r_adj(word):
            return tr.call("fock.adjoint", TruncatedOperator.adjoint, r(word))

        factors = {
            "i": lambda: [x, r(words[0])],
            "ii": lambda: [r_adj(words[0]), x],
            "iii": lambda: [r_adj(words[1]), x, r(words[0])],
            "iv": lambda: [r(words[0]), x],
            "v": lambda: [x, r_adj(words[0])],
            "vi": lambda: [x, r(words[0]), r_adj(words[1])],
            "vii": lambda: [r(words[0]), r_adj(words[1]), x],
        }[kind]()
        acc = factors[0]
        for factor in factors[1:]:
            c = min(acc.cut, factor.cut)
            a = tr.call("fock.recut", TruncatedOperator.recut, acc, c)
            b = tr.call("fock.recut", TruncatedOperator.recut, factor, c)
            # the stage is exact below its cut minus the degree shift that
            # the composition can push through the truncation
            guard = min(_down_shift(a), _up_shift(b))
            res, _ = tr.call("choi_effros.product_iterative",
                             choi_effros.product_iterative, a, b, w)
            acc = tr.call("fock.recut", TruncatedOperator.recut,
                          res, max(res.cut - guard, 0))
        degree = min(acc.cut, cut - sum(len(word) for word in words))
        return tr.call("fock.equal_on_block", TruncatedOperator.equal_on_block,
                       closed, acc, degree, tol)


class ClosedFormsFloat(ClosedForms):
    """The closed-forms instances, converted to float mode."""

    name = "closed-forms-float"
    pool_size = 3000  # a run repeats the pool; the first 600 are closed-forms'
    trace_size = 350

    def generate(self, seed):
        out = []
        for inst in super().generate(seed):
            wf = float_weights(inst["weights"])
            element = CuntzElement(
                {m: complex(c) for m, c in inst["element"].terms.items()}, wf)
            out.append({**inst, "weights": wf, "element": element})
        return out


# -- basis independence of the Markov step --------------------------------------

# An instance of rotated-basis or symbolic costs most when its unitary is
# dense.  At d=2, random_exact_unitary's unitary has all 4 entries nonzero
# in 99% of draws.  At d=3, 48% of its draws have at most 5 of 9 entries
# nonzero, 37% have 8 and 15% have 9.  A rotated-basis instance at d=3,
# cut 4 costs about 0.045 s with a sparse V and 0.26-2 s with a denser
# one; a symbolic instance at d=3 costs up to 0.04 s with a sparse U and up
# to 0.8 s with a denser one.  At those costs the runs are too short for
# 100 instances, and too few costly instances fall in a run to keep its
# figures steady.  So d=3 keeps only the sparse draws.
SPARSE_D3_NONZEROS = 5
UNITARY_DRAWS = 40  # per d; a unitary costs milliseconds to draw, so instances share them


def unitary_sets(rng):
    """For d = 2 and 3, the unitaries kept from UNITARY_DRAWS draws of
    random_exact_unitary, drawn from in balanced blocks.  At d=3 only the
    draws with at most SPARSE_D3_NONZEROS nonzero entries are kept.  A fixed
    number of draws, rather than a fixed number kept, keeps the set-up cost
    nearly the same for every seed."""
    sets = {}
    for d in (2, 3):
        kept = []
        while not kept:
            draws = [quantization.random_exact_unitary(d, rng)
                     for _ in range(UNITARY_DRAWS)]
            kept = [U for U in draws
                    if d == 2 or nonzero_entries(U) <= SPARSE_D3_NONZEROS]
        sets[d] = Balanced(rng, kept)
    return sets


# A rotated-basis instance costs about 0.35 s at d=2, cut 5 and 0.045 s at
# d=3, cut 4.  verify runs this check at d=2 alone; the slots put d=3 and
# d=2 at 2:1, which keeps the rate above 100 instances a run and puts the
# median among the d=3 instances and the 90th percentile among the d=2
# ones, away from the jump in cost between them.
ROTATED_SLOTS = (3, 3, 2)


class RotatedBasis:
    """Gamma(V) P(x) Gamma(V)* = P_V(Gamma(V) x Gamma(V)*) on the degree
    <= cut - 1 block."""

    name = "rotated-basis"
    pool_size = 240
    trace_size = 45

    def generate(self, seed):
        rng = random.Random(seed)
        halves = WeightVector([Fraction(1, 3), Fraction(2, 3)])
        unitaries = unitary_sets(rng)
        out = []
        for i in range(self.pool_size):
            d = ROTATED_SLOTS[i % len(ROTATED_SLOTS)]
            w, cut = (halves, 5) if d == 2 else (random_weights(3, rng), 4)
            V = unitaries[d].draw()
            x = random_operator(w, cut, rng)
            out.append({
                "weights": w, "cut": cut, "V": V, "x": x,
                "props": {"d": w.d, "operator_nonzeros": len(x.entries),
                          "unitary_nonzero_share": unitary_nonzero_share(V)},
            })
        return out

    def run(self, inst, tr):
        w, cut, V, x = inst["weights"], inst["cut"], inst["V"], inst["x"]

        def compose(a, b):
            return tr.call("fock.compose", TruncatedOperator.compose, a, b)

        def adjoint(a):
            return tr.call("fock.adjoint", TruncatedOperator.adjoint, a)

        g = tr.call("quantization.second_quantize", quantization.second_quantize,
                    V, cut)
        g_small = tr.call("quantization.second_quantize",
                          quantization.second_quantize, V, cut - 1)
        stepped = tr.call("fock.markov_step", fock.markov_step, x, w)
        lhs = compose(compose(g_small, stepped), adjoint(g_small))
        rotated = compose(compose(g, x), adjoint(g))
        rhs = tr.call("quantization.markov_step_in_basis",
                      quantization.markov_step_in_basis, rotated, w, V)
        return tr.call("fock.equal_on_block", TruncatedOperator.equal_on_block,
                       lhs, rhs, cut - 1)


# -- symbolic identities ----------------------------------------------------------


# d slots: d=2 and d=3 alike, as verify_quantize runs them
SYMBOLIC_SLOTS = (2, 3)


class Symbolic:
    """Four identities of the exact symbolic algebra, decided by the zero
    test through phi(x* x): associativity, anti-multiplicativity of the
    adjoint, the modular flow as an automorphism, and multiplicativity of
    the generator substitution for a unitary on uniform weights."""

    name = "symbolic"
    pool_size = 800
    trace_size = 150

    def generate(self, seed):
        rng = random.Random(seed)
        uniform = {d: WeightVector.uniform(d) for d in (2, 3)}
        lengths = Balanced(rng, (0, 1, 2, 3))
        unitaries = unitary_sets(rng)
        out = []
        for i in range(self.pool_size):
            d = SYMBOLIC_SLOTS[i % len(SYMBOLIC_SLOTS)]
            w = random_weights(d, rng)
            x, y, z = (random_element(w, rng, 3, lengths) for _ in range(3))
            xu, yu = (random_element(uniform[d], rng, 3, lengths) for _ in range(2))
            U = unitaries[d].draw()
            out.append({
                "x": x, "y": y, "z": z, "xu": xu, "yu": yu, "U": U,
                "props": {"d": d,
                          "terms": [len(e.terms) for e in (x, y, z, xu, yu)],
                          "unitary_nonzero_share": unitary_nonzero_share(U)},
            })
        return out

    def run(self, inst, tr):
        x, y, z, U = inst["x"], inst["y"], inst["z"], inst["U"]

        def product(a, b):
            return tr.call("algebra.product", CuntzElement.__mul__, a, b)

        def adjoint(a):
            return tr.call("algebra.adjoint", CuntzElement.adjoint, a)

        def equals(a, b):
            return tr.call("algebra.equals", CuntzElement.equals, a, b)

        def sigma(a):
            return tr.call("modular.sigma_t", modular.sigma_t, a)

        def gamma(a):
            return tr.call("quantization.symbolic_gamma",
                           quantization.symbolic_gamma, U, a)

        xy = product(x, y)
        associative = equals(product(xy, z), product(x, product(y, z)))
        anti = equals(adjoint(xy), product(adjoint(y), adjoint(x)))
        flow = tr.call("modular.same_flow", PhasedElement.same_flow, sigma(xy),
                       tr.call("modular.phased_product", PhasedElement.__mul__,
                               sigma(x), sigma(y)))
        image = gamma(product(inst["xu"], inst["yu"]))
        images = product(gamma(inst["xu"]), gamma(inst["yu"]))
        multiplicative = equals(image, images)

        def normal_form(a):
            return tr.call("algebra.normal_form", CuntzElement.normal_form, a)

        # xy and its normal form are one element written in two ways: the
        # normal form of their difference is empty, a zero test that does
        # not go through phi
        expanded = normal_form(xy)
        difference = tr.call("algebra.sub", CuntzElement.__sub__, expanded, xy)
        canonical = normal_form(difference)
        return associative and anti and flow and multiplicative and not canonical.terms


WORKLOADS = {wl.name: wl for wl in (ClosedForms(), ClosedFormsFloat(),
                                    RotatedBasis(), Symbolic())}
