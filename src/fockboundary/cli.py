"""Command-line front end.

Subcommands: classify, spectrum, product, verify, quantize, probe.
All reports are JSON with a ``schema`` version field; identical flags
and seed produce byte-identical output.  Exit codes: 0 all checks
passed, 1 at least one identity failed, 2 usage or input error, 141
(128 + SIGPIPE, as a shell reports a writer killed by a closed pipe)
when stdout was closed before the report was written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import errors, scalars
from .algebra import CuntzElement, Monomial
from .choi_effros import certified_product
from .classification import DEFAULT_TOLERANCE, classify
from .errors import LetterRangeError
from .fock import WeightVector, parse_word
from .modular import spectrum_sample
from .scalars import term_cap

SCHEMA = 1
CLOSED_STDOUT = 141


class UsageError(Exception):
    pass


# the flags that only some probe kinds read, by kind
PROBE_INPUTS = {
    "masa": ("max_len",),
    "center": ("element",),
    "dr": ("word", "max_len"),
    "diffuse": ("element", "max_len"),
}


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
    except KeyError as exc:
        raise UsageError("malformed element in %s: missing key %r" % (path, exc.args[0]))
    except (TypeError, ValueError, LetterRangeError) as exc:
        raise UsageError("malformed element in %s: %s" % (path, exc))


def _refuse_unread(args, command, reads, flags):
    """Refuse each of ``flags`` that was given but that ``command`` does
    not read."""
    for flag in flags:
        if getattr(args, flag) is not None and flag not in reads:
            raise UsageError("%s does not read --%s"
                             % (command, flag.replace("_", "-")))


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
    report = {"schema": SCHEMA, "command": "classify",
              "weights": [str(v) for v in weights.values], **verdict.to_json()}
    _emit(report, args)
    return 0


def cmd_spectrum(args):
    weights = _weights_from_args(args)
    values = spectrum_sample(weights, args.max_len)
    report = {
        "schema": SCHEMA,
        "command": "spectrum",
        "weights": [str(v) for v in weights.values],
        "max_len": args.max_len,
        "values": [str(v) for v in values],
    }
    _emit(report, args)
    return 0


def cmd_product(args):
    weights = _weights_from_args(args)
    _refuse_unread(args, "product --method %s" % args.method,
                   ("cut",) if args.method == "iterative" else (), ("cut",))
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
        cut = 6 if args.cut is None else args.cut
        longest = max(x.max_word_length(), y.max_word_length())
        if cut < longest:
            raise UsageError("--cut %d below the maximal word length %d"
                             % (cut, longest))
        xt = x.to_truncated(cut)
        yt = y.to_truncated(cut)
        res, steps = certified_product(xt, yt, weights)
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
    from .verify import SUITES, run_suite

    if args.mode != scalars.EXACT:
        raise UsageError("verify runs in exact mode only; --mode %s is not "
                         "supported" % args.mode)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    own = [n for n in names if "weights" not in SUITES[n][1]]
    if args.weights and own:
        where = "" if own == [args.suite] else " in %s" % ", ".join(own)
        raise UsageError("verify %s draws its own weights%s; --weights is not "
                         "accepted" % (args.suite, where))
    # "all" reads a flag that some suite reads
    reads = {flag for n in names for flag in SUITES[n][1]}
    _refuse_unread(args, "verify %s" % args.suite, reads, ("trials", "seed"))
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
            rows = [[weights.mode.from_json(v) if isinstance(v, dict)
                     else Fraction(str(v)) for v in row] for row in rows]
            u = UnitaryMatrix(rows, weights.mode)
        except KeyError as exc:
            raise UsageError("bad --unitary %s: missing key %r" % (args.unitary, exc.args[0]))
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
    _refuse_unread(args, "probe %s" % args.kind, PROBE_INPUTS[args.kind],
                   ("element", "word", "trials", "seed", "max_len"))
    # the element of center and diffuse, the identity by default
    x = (_load_element(args.element, weights) if args.element
         else CuntzElement.identity(weights))
    if args.kind == "masa":
        rep = structure.masa_commutant_probe(weights, args.max_len)
        ok = rep.matches_diagonal
    elif args.kind == "center":
        rep = structure.center_probe(x)
        ok = True  # reporting, not asserting
    elif args.kind == "dr":
        word = parse_word(args.word or "1")
        rep = structure.dr_convergence(
            Monomial(word, word), weights,
            n_max=6 if args.max_len is None else args.max_len)
        ok = rep.first_zero is not None
    else:  # diffuse
        try:
            rep = structure.minimal_projection_probe(
                x, 3 if args.max_len is None else args.max_len)
        except ValueError as exc:
            raise UsageError(str(exc))
        ok = True
    report = {"schema": SCHEMA, "command": "probe", "kind": args.kind,
              "weights": [str(v) for v in weights.values], "report": rep.to_json(),
              "ok": ok}
    _emit(report, args)
    return 0 if ok else 1


# -- parser --------------------------------------------------------------------


def _at_least(least):
    """An argparse type: an int no smaller than ``least``."""

    def count(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                "must be at least %d, got %d" % (least, value))
        return value

    return count


LENGTH = _at_least(0)
TRIALS = _at_least(1)


def _tolerance(text):
    """An argparse type: a positive finite float."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            "must be positive and finite, got %s" % text)
    return value


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
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOLERANCE)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("spectrum", help="finite modular-spectrum sample")
    common(p)
    p.add_argument("--max-len", type=LENGTH, default=2)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("product", help="product of two elements")
    common(p)
    p.add_argument("x", help="JSON file with the left element")
    p.add_argument("y", help="JSON file with the right element")
    p.add_argument("--method", choices=["symbolic", "iterative"],
                   default="symbolic")
    p.add_argument("--cut", type=int, default=None,
                   help="iterative only, default 6")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("verify", help="run an identity verification suite")
    common(p, weights_required=False)
    p.add_argument("suite", choices=[
        "multiplications", "relations", "phi", "delta", "masa", "dr",
        "quantize", "harmonic", "cesaro", "all"])
    p.add_argument("--trials", type=TRIALS, default=None)
    p.add_argument("--seed", type=int, default=None, help="default 7")
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
    p.add_argument("--max-len", type=LENGTH, default=None)
    p.add_argument("--element", help="JSON element file (center/diffuse)")
    p.add_argument("--word", help="diagonal word for the dr probe")
    # no kind reads these: given, they are refused in one line
    p.add_argument("--trials", type=TRIALS, default=None, help=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=None, help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_probe)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_term_cap()
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except (UsageError, errors.FockError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the
        # flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
