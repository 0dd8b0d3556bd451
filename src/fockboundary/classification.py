"""Type classification of the weight vector.

The invariant is the closed multiplicative subgroup of the positive
reals generated by the weights: if it is the cyclic group of powers of
some 0 < lambda < 1 the algebra is of type III_lambda, otherwise (dense
subgroup) type III_1.  Finite weight vectors never produce type III_0,
so the verdict type has no III_0 arm.

Exact mode decides commensurability by Euclid's algorithm on the
weights themselves (no factoring): the pair (a, b) generates the same
group as (a, b / a), and a step that fails to lower the smaller value's
denominator proves the pair incommensurable.  Float mode decides it
through continued-fraction rational approximation of log ratios
(stdlib ``Fraction.limit_denominator``), with an explicit ``numeric``
flag on the verdict.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

from .errors import InternalInconsistencyError
from . import scalars

DEFAULT_TOLERANCE = 1e-9
DENOMINATOR_CAP = 10 ** 6

KIND_LAMBDA = "III_lambda"
KIND_ONE = "III_one"


class TypeVerdict(scalars.Frozen):
    """Classification outcome."""

    __slots__ = ("kind", "lam", "exponents", "witness", "numeric")

    def __init__(self, kind, lam=None, exponents=None, witness="", numeric=False):
        scalars.Frozen.__init__(
            self, kind, lam, tuple(exponents) if exponents else None,
            witness, numeric)

    def to_json(self):
        lam = self.lam
        if isinstance(lam, Fraction):
            lam = str(lam)
        return {
            "kind": self.kind,
            "lambda": lam,
            "exponents": list(self.exponents) if self.exponents else None,
            "witness": self.witness,
            "numeric": self.numeric,
        }

    def __repr__(self):
        if self.kind == KIND_LAMBDA:
            return "TypeVerdict(%s, lambda=%s, k=%s)" % (
                self.kind, self.lam, self.exponents)
        return "TypeVerdict(%s)" % (self.kind,)


def _common_root(a, b):
    """The generator in (0, 1) of the group a^Z b^Z for a, b in (0, 1),
    or None when that group is dense.

    Euclid's algorithm on the weights: for a >= b the pair (a, b)
    generates the same group as (a, b / a).  If a = c^s and b = c^t with
    c = p/q in lowest terms, the smaller value's denominator q^t drops
    to q^max(s, t - s) at each step, so a step that does not lower it
    proves a and b incommensurable, and the loop always ends."""
    if a < b:
        a, b = b, a
    while a != b:
        den, c = b.denominator, b / a
        a, b = max(a, c), min(a, c)
        if b.denominator >= den:
            return None
    return a


def rational_lambda_check(lam):
    """A rational type value must be a unit fraction 1/k."""
    lam = Fraction(lam)
    if not (0 < lam < 1):
        raise ValueError("lambda must lie in (0, 1)")
    return lam.numerator == 1


def _classify_exact(weights):
    lam = weights.values[0]
    for idx, v in enumerate(weights.values[1:], start=2):
        lam = _common_root(lam, v)
        if lam is None:
            return TypeVerdict(
                KIND_ONE,
                witness="weights 1 and %d generate a dense subgroup "
                "(log w_1 / log w_%d is irrational)" % (idx, idx),
            )
    exponents = [round(math.log(v) / math.log(lam)) for v in weights.values]
    for v, k in zip(weights.values, exponents):
        if lam ** k != v:
            raise InternalInconsistencyError(
                "recovered lambda fails to reproduce the weights"
            )
    if not rational_lambda_check(lam):
        raise InternalInconsistencyError(
            "classification produced lambda = %s with numerator > 1, which "
            "cannot arise from a weight vector summing to 1" % lam
        )
    return TypeVerdict(
        KIND_LAMBDA,
        lam=lam,
        exponents=exponents,
        witness="every weight is an exact power of %s" % lam,
    )


def _classify_float(weights, tolerance):
    logs = [math.log(v) for v in weights.values]
    ratios = []
    for i, li in enumerate(logs):
        q = Fraction(li / logs[0]).limit_denominator(DENOMINATOR_CAP)
        # a genuinely rational ratio read through float noise sits within
        # ~1e-16 of its reduced fraction, while a generic irrational misses
        # its best q-denominator approximant by about 1/(q * next-q); the
        # 1/q^2 scaling keeps the incommensurable verdict reachable
        if abs(li / logs[0] - float(q)) > tolerance / q.denominator ** 2:
            return TypeVerdict(
                KIND_ONE,
                witness="log w_%d / log w_1 is not commensurable at tolerance %g"
                % (i + 1, tolerance),
                numeric=True,
            )
        ratios.append(q)
    m = 1
    for q in ratios:
        m = m * q.denominator // gcd(m, q.denominator)
    ks = [int(q * m) for q in ratios]
    spread = gcd(*ks)
    ks = [k // spread for k in ks]
    # common measure: log w_1 = (m / spread) * log(lambda)
    lam = math.exp(logs[0] * spread / m)
    for v, k in zip(weights.values, ks):
        if abs(v - lam ** k) > math.sqrt(tolerance):
            return TypeVerdict(
                KIND_ONE,
                witness="recovered lambda fails to reproduce the weights",
                numeric=True,
            )
    return TypeVerdict(KIND_LAMBDA, lam=lam, exponents=ks,
                       witness="logs commensurable; lambda = exp(common measure)",
                       numeric=True)


def classify(weights, tolerance=DEFAULT_TOLERANCE):
    """Decide III_lambda vs III_1 from the weight vector."""
    if not 0 < tolerance < math.inf:
        raise ValueError(
            "tolerance must be positive and finite, got %r" % (tolerance,))
    if weights.mode == scalars.EXACT:
        return _classify_exact(weights)
    return _classify_float(weights, tolerance)


def exponent_decomposition(lam, d, max_exp=12, tol=1e-12):
    """All nondecreasing tuples (k_1..k_d) of positive integers with
    sum lam^{k_i} = 1 and gcd 1, up to the exponent bound.  Exact for
    rational lam, toleranced for floats."""
    if isinstance(lam, (Fraction, int)) and not isinstance(lam, bool):
        lam, tol = Fraction(lam), 0  # exact: every comparison is exact
    if not (0 < lam < 1):
        raise ValueError("lambda must lie in (0, 1)")
    powers = [None] + [lam ** k for k in range(1, max_exp + 1)]
    results = []

    def search(slots, start, remaining, chosen):
        if slots == 0:
            if abs(remaining) <= tol and gcd(*chosen) == 1:
                results.append(tuple(chosen))
            return
        for k in range(start, max_exp + 1):
            value = powers[k]
            if value * slots < remaining - tol:
                break  # even all-equal choices fall short; larger k worse
            if value > remaining + tol:
                continue
            chosen.append(k)
            search(slots - 1, k, remaining - value, chosen)
            chosen.pop()

    search(d, 1, 1, [])
    return results
