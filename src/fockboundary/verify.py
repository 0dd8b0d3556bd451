"""Batch verification of the library's defining identities.

Each ``verify_*`` function runs one identity family on deterministic
randomized instances (seeded) and returns a JSON-serializable report
dict with an overall ``ok`` flag.  The CLI ``verify`` subcommand and
the acceptance test suite both run these.
"""

from __future__ import annotations

import random
from fractions import Fraction
from inspect import signature

from . import scalars
from .algebra import CuntzElement, Monomial
from .choi_effros import (
    FORM_KINDS,
    _down_shift,
    _up_shift,
    cesaro_project,
    closed_form_mixed,
    op_right_creation,
    product_iterative,
)
from .exact_linalg import RowReducer, is_psd
from .fock import (
    TruncatedOperator,
    WeightVector,
    is_harmonic,
    words_of_length,
    words_up_to,
)
from .modular import (
    GnsVector,
    delta_apply,
    gram_matrix,
    modular_conjugation,
    monomial_family,
    s_operator,
    sigma_t,
)
from .quantization import (
    basis_independence_check,
    counterexample_report,
    random_exact_unitary,
    symbolic_gamma,
)
from .structure import dr_convergence, masa_commutant_probe


# -- shared random generators ------------------------------------------------


def random_exact_weights(d, rng):
    raw = [rng.randrange(1, 10) for _ in range(d)]
    total = sum(raw)
    return WeightVector([Fraction(a, total) for a in raw])


def random_word(d, rng, max_len, min_len=0):
    n = rng.randrange(min_len, max_len + 1)
    return tuple(rng.randrange(1, d + 1) for _ in range(n))


def random_element(weights, rng, max_len=2, nterms=2, min_terms=1):
    terms = {}
    while len(terms) < min_terms:
        terms = {}
        for _ in range(nterms):
            mono = Monomial(
                random_word(weights.d, rng, max_len),
                random_word(weights.d, rng, max_len),
            )
            coeff = weights.mode.random_coeff(rng)
            if bool(coeff):
                terms[mono] = terms.get(mono, weights.mode.zero) + coeff
    return CuntzElement(terms, weights)


# -- mixed multiplication closed forms -----------------------------------------


def _iterative_chain(ops, weights):
    """Fold ``product_iterative`` over a factor list, trimming each
    intermediate to its certified-exact block so that truncation noise
    never propagates.  Returns (result, max stage steps)."""
    acc = ops[0]
    steps_max = 0
    for op in ops[1:]:
        c = min(acc.cut, op.cut)
        a = acc.recut(c)
        b = op.recut(c)
        guard = min(_down_shift(a), _up_shift(b))
        res, n = product_iterative(a, b, weights)
        steps_max = max(steps_max, n)
        acc = res.recut(max(res.cut - guard, 0))
    return acc, steps_max


def _multiplication_instance(rng, weights, cut, case_id):
    d = weights.d
    kind = rng.choice(FORM_KINDS)
    nwords = 2 if kind in ("iii", "vi", "vii") else 1
    words = tuple(random_word(d, rng, 3, min_len=1) for _ in range(nwords))
    x = random_element(weights, rng).to_truncated(cut)
    closed = closed_form_mixed(kind, words, x, weights)
    mode = weights.mode

    def R(w):
        return op_right_creation(w, cut, d, mode)

    factors = {
        "i": lambda: [x, R(words[0])],
        "ii": lambda: [R(words[0]).adjoint(), x],
        "iii": lambda: [R(words[1]).adjoint(), x, R(words[0])],
        "iv": lambda: [R(words[0]), x],
        "v": lambda: [x, R(words[0]).adjoint()],
        "vi": lambda: [x, R(words[0]), R(words[1]).adjoint()],
        "vii": lambda: [R(words[0]), R(words[1]).adjoint(), x],
    }[kind]()
    iterated, steps = _iterative_chain(factors, weights)
    total_len = sum(len(w) for w in words)
    compare_deg = min(iterated.cut, cut - total_len)
    agree = closed.equal_on_block(iterated, compare_deg)
    return {
        "case": kind,
        "instance": case_id,
        "d": d,
        "words": ["".join(map(str, w)) for w in words],
        "steps_used": steps,
        "steps_budget": total_len + 1,
        "compare_degree": compare_deg,
        "agree": agree,
        "max_abs_diff": closed.max_block_diff(iterated, compare_deg),
        "within_budget": steps <= total_len + 1,
    }


def verify_multiplications(trials=200, seed=7):
    """Closed forms for products with right-creation words against the
    iterated-Markov product, on random instances over d = 2 and 3."""
    rng = random.Random(seed)
    n3 = trials * 2 // 5
    plans = [(2, 8, trials - n3), (3, 7, n3)]
    cases = []
    cid = 0
    for d, cut, count in plans:
        weights = random_exact_weights(d, rng)
        for _ in range(count):
            cases.append(_multiplication_instance(rng, weights, cut, cid))
            cid += 1
    failures = [c for c in cases if not (c["agree"] and c["within_budget"])]
    return {
        "name": "multiplications",
        "trials": len(cases),
        "ok": not failures,
        "failures": failures[:10],
        "max_steps_used": max(c["steps_used"] for c in cases),
        "cases": cases,
    }


# -- Cuntz relations -------------------------------------------------------------


def verify_relations(seed=7, cut=8):
    """Isometry relations symbolically and entrywise at the cut."""
    rng = random.Random(seed)
    checks = []
    for d in (2, 3):
        weights = random_exact_weights(d, rng)
        one = CuntzElement.identity(weights)
        sym_ok = True
        for i in range(1, d + 1):
            ri = CuntzElement.right_creation(weights, i)
            for j in range(1, d + 1):
                rj = CuntzElement.right_creation(weights, j)
                want = one if i == j else CuntzElement.zero(weights)
                if not (ri.adjoint() * rj - want).is_zero():
                    sym_ok = False
        total = CuntzElement.zero(weights)
        for i in range(1, d + 1):
            total = total + CuntzElement.monomial(weights, (i,), (i,))
        sym_ok = sym_ok and (total - one).is_zero()

        ident = TruncatedOperator.identity(cut, d)
        trunc_ok = True
        for i in range(1, d + 1):
            Ri = op_right_creation((i,), cut, d)
            for j in range(1, d + 1):
                Rj = op_right_creation((j,), cut, d)
                got = Ri.adjoint().compose(Rj)
                want = ident if i == j else TruncatedOperator.zero(cut, d)
                if not got.equal_on_block(want, cut - 1):
                    trunc_ok = False
        total_t = TruncatedOperator.zero(cut, d)
        for i in range(1, d + 1):
            total_t = total_t + CuntzElement.monomial(
                weights, (i,), (i,)).to_truncated(cut)
        trunc_ok = trunc_ok and total_t.equal_on_block(ident, cut)
        checks.append({
            "d": d,
            "weights": [str(v) for v in weights.values],
            "symbolic_ok": sym_ok,
            "truncated_ok": trunc_ok,
        })
    return {
        "name": "relations",
        "cut": cut,
        "ok": all(c["symbolic_ok"] and c["truncated_ok"] for c in checks),
        "checks": checks,
    }


# -- vacuum state / Gram data -------------------------------------------------------


def _real_fraction(value):
    if value.im != 0:
        raise ValueError("expected a real exact value")
    return value.re


def truncated_family_rank(weights, max_len, cut):
    """Rank of the vectorized compressions of all monomials with
    |I|, |J| <= max_len — the independent linear-algebra view of the
    GNS dimension."""
    fam = monomial_family(weights.d, max_len)
    keys = {}
    vectors = []
    for mono in fam:
        op = CuntzElement.monomial(weights, mono.I, mono.J).to_truncated(cut)
        vec = {}
        for key, val in op.entries.items():
            if key not in keys:
                keys[key] = len(keys)
            vec[keys[key]] = _real_fraction(val)
        vectors.append(vec)
    reducer = RowReducer(len(keys))
    for vec in vectors:
        row = [Fraction(0)] * len(keys)
        for j, v in vec.items():
            row[j] = v
        reducer.add_row(row)
    return reducer.rank


def verify_phi(max_len=2, weights=None):
    """Gram matrix of the monomial GNS vectors: PSD, and rank equal to
    the rank of the truncated compression family."""
    weights = weights or WeightVector([Fraction(1, 3), Fraction(2, 3)])
    fam, rows = gram_matrix(weights, max_len)
    rational = [[_real_fraction(v) for v in row] for row in rows]
    psd = is_psd(rational)
    reducer = RowReducer(len(fam))
    for row in rational:
        reducer.add_row(row)
    gram_rank = reducer.rank
    fam_rank = truncated_family_rank(weights, max_len, cut=2 * max_len)
    spot = (
        CuntzElement.monomial(weights, (1,), (1,)).vacuum_state()
        == weights.weight(1)
        and not bool(
            CuntzElement.monomial(weights, (1,), (2,)).vacuum_state())
    )
    return {
        "name": "phi",
        "family_size": len(fam),
        "psd": psd,
        "gram_rank": gram_rank,
        "truncated_family_rank": fam_rank,
        "spot_checks": spot,
        "ok": psd and gram_rank == fam_rank and spot,
    }


# -- modular identities ---------------------------------------------------------------


def verify_delta(trials=100, seed=7, max_len=3, weights=None):
    weights = weights or WeightVector([Fraction(1, 3), Fraction(2, 3)])
    rng = random.Random(seed)
    fam = monomial_family(weights.d, max_len)
    polar_ok = all(
        s_operator(GnsVector.monomial(weights, m.I, m.J)).same_terms(
            modular_conjugation(
                delta_apply(GnsVector.monomial(weights, m.I, m.J),
                            Fraction(1, 2))))
        for m in fam
    )
    auto_fail = 0
    for _ in range(trials):
        x = random_element(weights, rng)
        y = random_element(weights, rng)
        if not sigma_t(x * y).same_flow(sigma_t(x) * sigma_t(y)):
            auto_fail += 1
        if not sigma_t(x.adjoint()).same_flow(sigma_t(x).adjoint()):
            auto_fail += 1
    state_fail = 0
    for _ in range(trials // 2):
        x = random_element(weights, rng)
        by_base = sigma_t(x).vacuum_state_by_base()
        phi = x.vacuum_state()
        expected = {} if weights.mode.near_zero(phi) else {
            Fraction(1): phi}
        if set(by_base) != set(expected):
            state_fail += 1
        elif any(by_base[b] != expected[b] for b in by_base):
            state_fail += 1
    eigen = delta_apply(GnsVector.monomial(weights, (1,), (2,)), 1)
    eig_want = GnsVector.monomial(
        weights, (1,), (2,),
        coeff=weights.weight(1) / weights.weight(2))
    eigen_ok = eigen.same_terms(eig_want)
    return {
        "name": "delta",
        "polar_decomposition_ok": polar_ok,
        "automorphism_failures": auto_fail,
        "state_invariance_failures": state_fail,
        "eigenvalue_ok": eigen_ok,
        "eigenvalue": str(weights.weight(1) / weights.weight(2)),
        "ok": polar_ok and not auto_fail and not state_fail and eigen_ok,
    }


# -- masa / DR probes -------------------------------------------------------------------


def verify_masa(max_len=2, weights=None):
    weights = weights or WeightVector([Fraction(1, 3), Fraction(2, 3)])
    report = masa_commutant_probe(weights, max_len)
    return {
        "name": "masa",
        "probe": report.to_json(),
        "ok": report.matches_diagonal,
    }


def verify_dr(n_max=6, weights=None):
    weights = weights or WeightVector([Fraction(1, 3), Fraction(2, 3)])
    reports = []
    ok = True
    for m in range(0, 3):
        for I in words_of_length(weights.d, m):
            rep = dr_convergence(Monomial(I, I), weights, n_max=n_max)
            good = (
                rep.first_zero is not None
                and rep.first_zero <= 4
                and rep.stable_through == n_max
                and not rep.partial
            )
            ok = ok and good
            reports.append({
                "word": "".join(map(str, I)) or "()",
                **rep.to_json(),
                "ok": good,
            })
    return {"name": "dr", "n_max": n_max, "reports": reports, "ok": ok}


# -- quantization --------------------------------------------------------------------------


def verify_quantize(seed=7, unitaries_per_d=5, pairs=50, cut=6):
    rng = random.Random(seed)
    summary = []
    ok = True
    for d in (2, 3):
        weights = WeightVector.uniform(d)
        hom_fail = comp_fail = 0
        for _ in range(unitaries_per_d):
            U = random_exact_unitary(d, rng)
            V = random_exact_unitary(d, rng)
            for _ in range(pairs):
                x = random_element(weights, rng)
                y = random_element(weights, rng)
                gx, gy = symbolic_gamma(U, x), symbolic_gamma(U, y)
                if not symbolic_gamma(U, x * y).equals(gx * gy):
                    hom_fail += 1
                if not symbolic_gamma(U, x.adjoint()).equals(gx.adjoint()):
                    hom_fail += 1
                if x.is_zero() != gx.is_zero():
                    hom_fail += 1
            UV = U.compose(V)
            for i in range(1, d + 1):
                r = CuntzElement.right_creation(weights, i)
                if not symbolic_gamma(U, symbolic_gamma(V, r)).equals(
                        symbolic_gamma(UV, r)):
                    comp_fail += 1
        summary.append({
            "d": d,
            "homomorphism_failures": hom_fail,
            "composition_failures": comp_fail,
        })
        ok = ok and not hom_fail and not comp_fail

    nonuniform = WeightVector([Fraction(1, 3), Fraction(2, 3)])
    counter = counterexample_report(nonuniform, 1, 2)
    expected = scalars.GaussianRational(
        nonuniform.weight(1) - nonuniform.weight(2))
    counter_ok = (
        counter.coefficient == expected
        and bool(expected)
        and not counter.harmonicity_defect.ok
    )
    basis = basis_independence_check(
        nonuniform, random_exact_unitary(2, rng), cut=cut, rng=rng)
    ok = ok and counter_ok and basis.ok
    return {
        "name": "quantize",
        "uniform": summary,
        "counterexample": {
            **counter.to_json(),
            "expected_coefficient": str(expected.re),
            "conjugated_image_harmonic": counter.harmonicity_defect.ok,
            "ok": counter_ok,
        },
        "basis_independence": {
            "cut": cut,
            "max_abs_diff": basis.max_abs_diff,
            "ok": basis.ok,
        },
        "ok": ok,
    }


# -- harmonicity / Cesaro -----------------------------------------------------------------


def verify_harmonic(cut=6, seed=7, weights=None):
    weights = weights or WeightVector([Fraction(1, 3), Fraction(2, 3)])
    rng = random.Random(seed)
    d = weights.d
    pass_fail = []
    ok = True
    for w in words_up_to(d, 2):
        rep = is_harmonic(op_right_creation(w, cut, d), weights) if w else None
        if w:
            ok = ok and rep.ok
            pass_fail.append({"kind": "r", "word": "".join(map(str, w)),
                              "harmonic": rep.ok})
    for _ in range(20):
        mono = Monomial(random_word(d, rng, 3), random_word(d, rng, 3))
        rep = is_harmonic(
            CuntzElement.monomial(weights, mono.I, mono.J).to_truncated(cut),
            weights)
        ok = ok and rep.ok
        pass_fail.append({"kind": "M", "word": repr(mono), "harmonic": rep.ok})
    # the left creation is not harmonic: P(l_1) = w_1 l_1
    l1 = TruncatedOperator.generator("left", "creation", 1, cut, d)
    rep = is_harmonic(l1, weights)
    expected_defect = l1.scale(weights.weight(1) - 1)
    defect_ok = (not rep.ok) and all(
        rep.defects.get(key) == val
        for key, val in expected_defect.entries.items()
        if len(key[0]) <= cut - 1 and len(key[1]) <= cut - 1
    ) and len(rep.defects) == sum(
        1 for key in expected_defect.entries
        if len(key[0]) <= cut - 1 and len(key[1]) <= cut - 1)
    ok = ok and defect_ok
    return {
        "name": "harmonic",
        "cut": cut,
        "cases": pass_fail,
        "left_creation_fails_with_expected_defect": defect_ok,
        "ok": ok,
    }


def verify_cesaro(cut=8, weights=None):
    weights = weights or WeightVector([Fraction(1, 3), Fraction(2, 3)])
    d = weights.d
    p0 = TruncatedOperator.vacuum_projection(cut, d)
    mean, stable = cesaro_project(p0, weights)
    zero_ok = stable and not mean.entries
    creation_ok = True
    details = []
    for w in [(1,), (2,), (1, 2)]:
        op = op_right_creation(w, cut, d)
        mean, stable = cesaro_project(op, weights)
        good = stable and mean.equal_on_block(op.recut(mean.cut), mean.cut)
        creation_ok = creation_ok and good
        details.append({"word": "".join(map(str, w)), "ok": good})
    return {
        "name": "cesaro",
        "cut": cut,
        "vacuum_projection_to_zero": zero_ok,
        "creations_fixed": details,
        "ok": zero_ok and creation_ok,
    }


SUITES = {
    "multiplications": verify_multiplications,
    "relations": verify_relations,
    "phi": verify_phi,
    "delta": verify_delta,
    "masa": verify_masa,
    "dr": verify_dr,
    "quantize": verify_quantize,
    "harmonic": verify_harmonic,
    "cesaro": verify_cesaro,
}


def suites_drawing_weights(name):
    """The suites among ``name`` (every suite for 'all') that draw their
    own weights and so cannot run on given ones."""
    names = SUITES if name == "all" else [name]
    return [n for n in names if "weights" not in signature(SUITES[n]).parameters]


def run_suite(name, seed=7, trials=None, weights=None):
    """Run one named suite (or 'all') with a fixed seed."""
    if name == "all":
        reports = [
            run_suite(n, seed=seed, trials=trials, weights=weights)
            for n in SUITES
        ]
        return {
            "name": "all",
            "ok": all(r["ok"] for r in reports),
            "reports": reports,
        }
    fn = SUITES[name]
    kwargs = {}
    params = signature(fn).parameters
    if "seed" in params:
        kwargs["seed"] = seed
    if trials is not None and "trials" in params:
        kwargs["trials"] = trials
    if weights is not None and "weights" in params:
        kwargs["weights"] = weights
    return fn(**kwargs)
