"""Second quantization and its action on the fixed-point algebra.

For a unitary U on C^d, the second quantization acts as U tensored
with itself degree-many times on each degree block, and conjugation by
it maps l/r creations to the creations of the rotated vectors.  For
uniform weights this conjugation restricts to a *-automorphism of the
fixed-point algebra (implemented symbolically by generator
substitution); for non-uniform weights it fails, and
``counterexample_report`` certifies the failure with an exact nonzero
difference.
"""

from __future__ import annotations

from fractions import Fraction

from . import scalars
from .algebra import CuntzElement, Monomial
from .errors import CutExhaustedError, LetterRangeError, ModeMixError
from .fock import EMPTY_WORD, TruncatedOperator
from .scalars import Frozen, GaussianRational, accumulate_products


class UnitaryMatrix(Frozen):
    """A d x d unitary; entry(i, j) is u_{ij} in f_i = sum_j u_{ij} e_j.
    Exact mode demands Gaussian-rational entries and exact unitarity."""

    __slots__ = ("rows", "d", "mode")

    def __init__(self, rows, mode=scalars.EXACT, tol=1e-12):
        mode = scalars.field(mode)
        rows = tuple(tuple(mode.coerce(v) for v in row) for row in rows)
        d = len(rows)
        if any(len(row) != d for row in rows):
            raise ValueError("unitary matrix must be square")
        for i in range(d):
            for j in range(d):
                s = mode.zero
                for k in range(d):
                    s = s + rows[k][i].conjugate() * rows[k][j]
                expected = mode.one if i == j else mode.zero
                if not mode.eq(s, expected, tol):
                    raise ValueError("matrix is not unitary")
        Frozen.__init__(self, rows, d, mode)

    def entry(self, i, j):
        if not (1 <= i <= self.d and 1 <= j <= self.d):
            raise LetterRangeError("index out of range")
        return self.rows[i - 1][j - 1]

    @classmethod
    def identity(cls, d, mode=scalars.EXACT):
        return cls(_identity_rows(d), mode)

    @classmethod
    def swap(cls, d, a, b, mode=scalars.EXACT):
        rows = _identity_rows(d)
        rows[a - 1], rows[b - 1] = rows[b - 1], rows[a - 1]
        return cls(rows, mode)

    def compose(self, other):
        """Matrix of the operator product U V (apply other first, then
        this).  With rows storing u_{ij} from U e_i = sum_j u_{ij} e_j,
        the operator product corresponds to the reversed row-matrix
        product: (UV)_{ik} = sum_j v_{ij} u_{jk}."""
        if self.mode != other.mode or self.d != other.d:
            raise ModeMixError("incompatible unitaries")
        d = self.d
        rows = []
        for i in range(d):
            row = []
            for j in range(d):
                s = self.mode.zero
                for k in range(d):
                    s = s + other.rows[i][k] * self.rows[k][j]
                row.append(s)
            rows.append(row)
        return UnitaryMatrix(rows, self.mode)

    def adjoint(self):
        rows = [
            [self.rows[j][i].conjugate() for j in range(self.d)]
            for i in range(self.d)
        ]
        return UnitaryMatrix(rows, self.mode)

    def apply(self, i):
        """Coefficients of U e_i in the basis: list of u_{ij}, j=1..d."""
        return list(self.rows[i - 1])

    def __eq__(self, other):
        if not isinstance(other, UnitaryMatrix):
            return NotImplemented
        return self.mode == other.mode and self.rows == other.rows

    def __repr__(self):
        return "UnitaryMatrix(d=%d, mode=%r)" % (self.d, self.mode)


def _identity_rows(d):
    """The identity as int rows; a UnitaryMatrix coerces them."""
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


# rational points on the unit circle used for exact random unitaries
_EXACT_COSSIN = [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
    (Fraction(20, 29), Fraction(21, 29)),
    (Fraction(7, 25), Fraction(24, 25)),
]


def random_exact_unitary(d, rng):
    """Random product of Gaussian-rational Givens rotations, phase
    flips, and a permutation; exactly unitary."""
    perm = list(range(1, d + 1))
    rng.shuffle(perm)
    rows = [[1 if perm[i] == j + 1 else 0 for j in range(d)] for i in range(d)]
    u = UnitaryMatrix(rows)
    for _ in range(rng.randrange(1, 4)):
        a, b = rng.sample(range(d), 2)
        c, s = rng.choice(_EXACT_COSSIN)
        if rng.random() < 0.5:
            s_entry = GaussianRational(0, s)  # rotate through a phase
        else:
            s_entry = GaussianRational(s)
        rows = _identity_rows(d)
        rows[a][a] = GaussianRational(c)
        rows[b][b] = GaussianRational(c)
        rows[a][b] = s_entry
        rows[b][a] = -s_entry.conjugate()
        u = u.compose(UnitaryMatrix(rows))
    return u


def random_float_unitary(d, rng):
    """Haar-ish random unitary from QR of a seeded Gaussian matrix."""
    import numpy as np

    npr = np.random.default_rng(rng.randrange(2 ** 63))
    m = npr.normal(size=(d, d)) + 1j * npr.normal(size=(d, d))
    q, r = np.linalg.qr(m)
    q = q @ np.diag(np.diag(r) / abs(np.diag(r)))
    return UnitaryMatrix([[complex(v) for v in row] for row in q],
                         mode=scalars.FLOAT)


def _nonzero_rows(U):
    """Row i of U as its nonzero entries, the pairs (j, u_ij)."""
    mode = U.mode
    return [
        [(j, u) for j, u in enumerate(row, 1) if not mode.near_zero(u)]
        for row in U.rows
    ]


def second_quantize(U, cut):
    """Block-diagonal operator acting as the degree-n tensor power of U
    on degree-n words (and fixing the vacuum).

    A degree-n entry is a product of n nonzero entries u_{ji}, so its
    value depends only on how many times each u_{ji} occurs: its
    exponent vector, carried as one int in base cut + 1.  Each distinct
    exponent vector's product is computed once, in ``values``, and the
    entries share those values."""
    base = cut + 1
    letters = []  # (j, i, code of u_{ji}, u_{ji}): U e_j = sum_i u_{ji} e_i
    for j, image in enumerate(_nonzero_rows(U), 1):
        for i, u in image:
            letters.append((j, i, base ** len(letters), u))
    values = {0: U.mode.one}
    frontier = [0]
    for _ in range(cut):
        grown = []
        for code in frontier:
            val = values[code]
            for _j, _i, step, u in letters:
                up = code + step
                if up not in values:
                    values[up] = val * u
                    grown.append(up)
        frontier = grown
    level = {(EMPTY_WORD, EMPTY_WORD): 0}
    codes = dict(level)
    for _ in range(cut):
        level = {
            (row + (i,), col + (j,)): code + step
            for (row, col), code in level.items()
            for j, i, step, _u in letters
        }
        codes.update(level)
    entries = {key: values[code] for key, code in codes.items()}
    return TruncatedOperator(entries, cut, U.d, U.mode, _trusted=True)


def conjugate(U, x):
    """Conjugation by the second quantization at the operator's cut."""
    g = second_quantize(U, x.cut)
    return g.compose(x).compose(g.adjoint())


def symbolic_gamma(U, x):
    """The generator substitution r_i -> r_{U e_i}, extended to monomials
    multiplicatively in the fixed-point product and then linearly.  On a
    monomial it is the tensor-power substitution

        Gamma(M(I, J)) = sum_{|K| = |I|, |L| = |J|}
            prod_s u_{I_s K_s} . prod_s conj(u_{J_s L_s}) . M(K, L).

    Only valid for uniform weights: for non-uniform weights the
    conjugation fails to be multiplicative (see
    ``counterexample_report``)."""
    weights = x.weights
    if not weights.is_uniform():
        raise ValueError(
            "generator substitution is an automorphism only for uniform "
            "weights; non-uniform weights admit an exact counterexample"
        )
    if U.d != weights.d or U.mode != weights.mode:
        raise ModeMixError("unitary does not match the weight session")
    mode = U.mode
    rows = _nonzero_rows(U)
    images = {EMPTY_WORD: {EMPTY_WORD: mode.one}}

    def image(word):
        """{K: prod_s u_{word_s K_s}} over the words K with |K| = |word|."""
        img = images.get(word)
        if img is None:
            head = image(word[:-1])
            row = rows[word[-1] - 1]
            img = {K + (j,): c * u for K, c in head.items() for j, u in row}
            images[word] = img
        return img

    def triples():
        for (I, J), coeff in x.terms.items():
            left = [(K, coeff * c) for K, c in image(I).items()]
            right = [(L, c.conjugate()) for L, c in image(J).items()]
            for K, a in left:
                for L, b in right:
                    yield Monomial(K, L), a, b

    terms = accumulate_products(triples(), mode, "substitution")
    return CuntzElement(terms, weights, _trusted=True)


class CounterexampleReport(Frozen):
    """Witness that conjugation by a swap fails to be multiplicative
    for non-uniform weights."""

    __slots__ = (
        "i0", "j0", "coefficient", "truncated_norm", "difference",
        "harmonicity_defect",
    )

    def to_json(self):
        return {
            "i0": self.i0,
            "j0": self.j0,
            "coefficient": self.difference.mode.to_json(self.coefficient),
            "truncated_norm": self.truncated_norm,
            "difference_entries": len(self.difference.entries),
        }


def counterexample_report(weights, i0, j0, cut=5):
    """Exact failure of multiplicativity at non-uniform weights.

    With U the swap of letters i0 and j0, the conjugated diagonal
    monomial differs from the product of the conjugated generators by
    exactly (w_{i0} - w_{j0}) times the vacuum projection:

        conj(M(i0, i0)) - conj(r_{i0}) . conj(r_{i0})*
            = (w_{i0} - w_{j0}) p_Omega.

    The same difference shows conj(M(i0, i0)) is not harmonic, so the
    conjugation does not even preserve the fixed-point algebra."""
    if weights.weight(i0) == weights.weight(j0):
        raise ValueError(
            "weights at the chosen letters are equal; no counterexample exists"
        )
    u = UnitaryMatrix.swap(weights.d, i0, j0, weights.mode)
    lhs = conjugate(u, CuntzElement.monomial(weights, (i0,), (i0,)).to_truncated(cut))
    # conj(r_{i0}) = r_{j0}, so the product of the images is M(j0, j0)
    rhs = CuntzElement.monomial(weights, (j0,), (j0,)).to_truncated(cut)
    difference = lhs - rhs
    coefficient = difference.entry(EMPTY_WORD, EMPTY_WORD)
    import numpy as np

    truncated_norm = float(
        np.linalg.norm(difference.to_dense(), 2)
    )
    from .fock import is_harmonic

    defect = is_harmonic(lhs, weights)
    return CounterexampleReport(
        i0, j0, coefficient, truncated_norm, difference, defect
    )


class BasisIndependenceReport(Frozen):
    __slots__ = ("cases", "max_abs_diff", "ok")

    def __bool__(self):
        return self.ok


def markov_step_in_basis(x, weights, V):
    """One step of the Markov operator built from the rotated basis
    f_i = V e_i: sum_i w_i l_{f_i}* x l_{f_i}, exact on the degree
    <= cut - 1 block.

    Since l_{f_i} = sum_j v_{ij} l_j, this is the direct sum
    P_V(x)_{I,J} = sum_{j,k} C_{jk} x_{jI,kJ} with C = V* diag(w) V,
    one pass over the entries of x."""
    if x.d != weights.d or x.mode != weights.mode or V.d != x.d or V.mode != x.mode:
        raise ModeMixError("operator, weights and unitary are incompatible")
    if x.cut < 1:
        raise CutExhaustedError("cannot apply a Markov step at cut 0")
    d, mode = x.d, x.mode
    w = [mode.coerce(v) for v in weights.values]
    z = mode.zero
    c = {}
    for j in range(d):
        for k in range(d):
            s = z
            for i in range(d):
                s = s + w[i] * V.rows[i][j].conjugate() * V.rows[i][k]
            if s:
                c[(j + 1, k + 1)] = s
    triples = (
        ((row[1:], col[1:]), cjk, val)
        for (row, col), val in x.entries.items()
        if row and col and (cjk := c.get((row[0], col[0]))) is not None
    )
    entries = accumulate_products(triples, mode)
    return TruncatedOperator(entries, x.cut - 1, d, mode, _trusted=True)


def basis_independence_check(weights, V, cut, trials=20, rng=None, tol=1e-10):
    """Verify that conjugation intertwines the Markov operators of the
    two bases on random sparse operators: the conjugated image of a
    Markov step equals the rotated-basis Markov step of the conjugated
    operator, entrywise on the degree <= cut - 1 block."""
    import random

    from .fock import markov_step, words_up_to

    rng = rng or random.Random(0)
    basis = words_up_to(weights.d, cut)
    gamma = second_quantize(V, cut)
    gamma_star = gamma.adjoint()
    gamma_small = second_quantize(V, cut - 1)
    gamma_small_star = gamma_small.adjoint()
    worst = 0.0
    cases = []
    for n in range(trials):
        entries = {}
        for _ in range(6):
            row = rng.choice(basis)
            col = rng.choice(basis)
            entries[(row, col)] = weights.mode.random_coeff(rng)
        x = TruncatedOperator(entries, cut, weights.d, weights.mode)
        lhs = gamma_small.compose(markov_step(x, weights)).compose(gamma_small_star)
        rhs = markov_step_in_basis(gamma.compose(x).compose(gamma_star), weights, V)
        agree = lhs.equal_on_block(rhs, cut - 1, tol)
        worst = max(worst, lhs.max_block_diff(rhs, cut - 1))
        cases.append(agree)
    return BasisIndependenceReport(cases, worst, all(cases))
