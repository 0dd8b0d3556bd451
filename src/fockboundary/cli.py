"""Command-line front end.

Subcommands: classify, spectrum, product, verify, quantize, probe.
All reports are JSON with a ``schema`` version field; identical flags
and seed produce byte-identical output.  Exit codes: 0 all checks
passed, 1 at least one identity failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import errors, scalars
from .algebra import CuntzElement, Monomial
from .choi_effros import product_iterative
from .classification import DEFAULT_TOLERANCE, classify
from .errors import LetterRangeError
from .fock import WeightVector, parse_word
from .modular import spectrum_sample
from .scalars import term_cap

SCHEMA = 1


class UsageError(Exception):
    pass


# library errors that reach the user as a one-line message and exit 2
LIBRARY_ERRORS = (
    errors.LetterRangeError,
    errors.CutMismatchError,
    errors.CutExhaustedError,
    errors.ModeMixError,
    errors.TermBudgetError,
    errors.StabilizationError,
    errors.SpectrumSizeError,
    errors.InternalInconsistencyError,
)


def _weights_from_args(args):
    try:
        return WeightVector.parse(args.weights, mode=args.mode)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("bad --weights %r: %s" % (args.weights, exc))


def _check_term_cap():
    try:
        term_cap()
    except ValueError as exc:
        raise UsageError(str(exc))


def _load_element(path, weights):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise UsageError("malformed JSON in %s at line %d column %d"
                         % (path, exc.lineno, exc.colno))
    try:
        return CuntzElement.from_json(obj, weights)
    except (KeyError, TypeError, ValueError, LetterRangeError) as exc:
        raise UsageError("malformed element in %s: %s" % (path, exc))


def _emit(report, args):
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    print(text)


# -- subcommands -------------------------------------------------------------


def cmd_classify(args):
    weights = _weights_from_args(args)
    verdict = classify(weights, tolerance=args.tol)
    report = {"schema": SCHEMA, "command": "classify", **verdict.to_json()}
    _emit(report, args)
    return 0


def cmd_spectrum(args):
    weights = _weights_from_args(args)
    values = spectrum_sample(weights, args.max_len)
    report = {
        "schema": SCHEMA,
        "command": "spectrum",
        "max_len": args.max_len,
        "values": [str(v) for v in values],
    }
    _emit(report, args)
    return 0


def cmd_product(args):
    weights = _weights_from_args(args)
    x = _load_element(args.x, weights)
    y = _load_element(args.y, weights)
    if args.method == "symbolic":
        result = (x * y).to_json()
        report = {
            "schema": SCHEMA,
            "command": "product",
            "method": "symbolic",
            "result": result,
        }
    else:
        longest = max(x.max_word_length(), y.max_word_length())
        if args.cut < longest:
            raise UsageError("--cut %d below the maximal word length %d"
                             % (args.cut, longest))
        xt = x.to_truncated(args.cut)
        yt = y.to_truncated(args.cut)
        res, steps = product_iterative(xt, yt, weights)
        report = {
            "schema": SCHEMA,
            "command": "product",
            "method": "iterative",
            "steps_used": steps,
            "result": res.to_json(),
        }
    _emit(report, args)
    return 0


def cmd_verify(args):
    from .verify import run_suite, suites_drawing_weights

    if args.mode != scalars.EXACT:
        raise UsageError("verify runs in exact mode only; --mode %s is not "
                         "supported" % args.mode)
    own = suites_drawing_weights(args.suite)
    if args.weights and own:
        where = "" if own == [args.suite] else " in %s" % ", ".join(own)
        raise UsageError("verify %s draws its own weights%s; --weights is not "
                         "accepted" % (args.suite, where))
    weights = _weights_from_args(args) if args.weights else None
    report = run_suite(args.suite, seed=args.seed, trials=args.trials,
                       weights=weights)
    report = {"schema": SCHEMA, "command": "verify", **report}
    _emit(report, args)
    return 0 if report["ok"] else 1


def cmd_quantize(args):
    from .quantization import UnitaryMatrix, symbolic_gamma

    weights = _weights_from_args(args)
    if args.swap:
        a, b = args.swap
        if not (1 <= a <= weights.d and 1 <= b <= weights.d):
            raise UsageError("--swap letters out of range 1..%d" % weights.d)
        u = UnitaryMatrix.swap(weights.d, a, b, weights.mode)
    else:
        try:
            with open(args.unitary) as fh:
                rows = json.load(fh)
            rows = [[Fraction(str(v)) for v in row] for row in rows]
            u = UnitaryMatrix(rows, weights.mode)
        except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
            raise UsageError("bad --unitary %s: %s" % (args.unitary, exc))
    x = _load_element(args.element, weights)
    try:
        image = symbolic_gamma(u, x)
    except ValueError as exc:
        raise UsageError(str(exc))
    report = {
        "schema": SCHEMA,
        "command": "quantize",
        "result": image.to_json(),
    }
    _emit(report, args)
    return 0


def cmd_probe(args):
    from . import structure

    weights = _weights_from_args(args)
    if args.kind == "masa":
        rep = structure.masa_commutant_probe(weights, args.max_len)
        body = rep.to_json()
        ok = rep.matches_diagonal
    elif args.kind == "center":
        if args.element:
            x = _load_element(args.element, weights)
        else:
            x = CuntzElement.identity(weights)
        import random

        rep = structure.center_probe(
            x, trials=args.trials or 20, rng=random.Random(args.seed))
        body = rep.to_json()
        ok = True  # reporting, not asserting
    elif args.kind == "dr":
        word = parse_word(args.word or "1")
        rep = structure.dr_convergence(
            Monomial(word, word), weights, n_max=args.max_len or 6)
        body = rep.to_json()
        ok = rep.first_zero is not None
    else:  # diffuse
        if args.element:
            q = _load_element(args.element, weights)
        else:
            q = CuntzElement.identity(weights)
        try:
            rep = structure.minimal_projection_probe(q, args.max_len or 3)
        except ValueError as exc:
            raise UsageError(str(exc))
        body = rep.to_json()
        ok = True
    report = {"schema": SCHEMA, "command": "probe", "kind": args.kind,
              "report": body, "ok": ok}
    _emit(report, args)
    return 0 if ok else 1


# -- parser --------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fockboundary",
        description="Exact and numerical computations in the fixed-point "
        "algebra of a weighted Markov operator on the full Fock space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, weights_required=True):
        p.add_argument("--weights", required=weights_required,
                       help="comma-separated weights, e.g. 1/3,2/3")
        p.add_argument("--mode", choices=[scalars.EXACT, scalars.FLOAT],
                       default=scalars.EXACT)
        p.add_argument("--json", metavar="PATH",
                       help="also write the JSON report to PATH")

    p = sub.add_parser("classify", help="type classification of the weights")
    common(p)
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("spectrum", help="finite modular-spectrum sample")
    common(p)
    p.add_argument("--max-len", type=int, default=2)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("product", help="product of two elements")
    common(p)
    p.add_argument("x", help="JSON file with the left element")
    p.add_argument("y", help="JSON file with the right element")
    p.add_argument("--method", choices=["symbolic", "iterative"],
                   default="symbolic")
    p.add_argument("--cut", type=int, default=6,
                   help="truncation cut for the iterative method")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("verify", help="run an identity verification suite")
    common(p, weights_required=False)
    p.add_argument("suite", choices=[
        "multiplications", "relations", "phi", "delta", "masa", "dr",
        "quantize", "harmonic", "cesaro", "all"])
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("quantize",
                       help="apply a second-quantized basis change")
    common(p)
    p.add_argument("--element", required=True, help="JSON element file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--swap", nargs=2, type=int, metavar=("A", "B"),
                       help="swap two basis letters")
    group.add_argument("--unitary", metavar="PATH",
                       help="JSON file with the unitary matrix rows")
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("probe", help="structural probes on finite spans")
    common(p)
    p.add_argument("kind", choices=["masa", "center", "dr", "diffuse"])
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--element", help="JSON element file (center/diffuse)")
    p.add_argument("--word", help="diagonal word for the dr probe")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_probe)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command == "probe" and args.kind == "masa" and args.max_len is None:
        args.max_len = 2
    try:
        _check_term_cap()
        return args.fn(args)
    except (UsageError,) + LIBRARY_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
