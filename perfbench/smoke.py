#!/usr/bin/env python3
"""Smoke test of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/smoke.py

It runs every workload on a few instances, timed and traced, and checks
that every metric named in BENCHMARK.json is printed with its unit.  It
then feeds a perturbed closed-form product and a perturbed
``symbolic_gamma`` image to the checks and requires every instance to be
counted as failed.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (run.py is a script beside this one)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
FEW = 3


def check(condition, message):
    if not condition:
        raise SystemExit("smoke: FAILED: " + message)


def timed_output(workload):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0.01", "--trace", "0"])
    check(code == 0, "%s exited with %r" % (workload, code))
    return buf.getvalue().splitlines()


def test_end_to_end_metrics():
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for wl in SPEC["workloads"]:
        lines = timed_output(wl["name"])
        result = json.loads(lines[-1])
        check(result["correct"] and result["failed"] == 0,
              "%s: instances failed: %s" % (wl["name"], lines))
        check(result["attempted"] >= 1, "%s attempted nothing" % wl["name"])
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        check(got == names, "%s printed %r, expected %r" % (wl["name"], got, names))
        for name, unit in names.items():
            check(any(line.startswith(name + " ") and line.endswith(" " + unit)
                      for line in lines[:-1]),
                  "%s: no line for %s in %s" % (wl["name"], name, unit))


def test_per_layer_metrics():
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for wl in SPEC["workloads"]:
        workload, pool, _ = run.set_up(wl["name"], 3)
        tracer, times, failures, walls = run.traced_loop(workload, pool[:FEW])
        check(not failures, "%s: traced instances failed: %r" % (wl["name"], failures))
        metrics = run.layer_metrics(tracer, times, walls)
        got = {k: m["unit"] for k, m in metrics.items()}
        check(got == names, "%s: per-layer names differ: %r"
              % (wl["name"], set(got) ^ set(names)))
        check(tracer.ops, "%s recorded no spans" % wl["name"])


def failures_with(patch_target, attribute, perturb, workload):
    """Run a few instances with one library function's result perturbed;
    returns (failed, attempted)."""
    wl, pool, _ = run.set_up(workload, 3)
    original = getattr(patch_target, attribute)

    def perturbed(*args, **kwargs):
        return perturb(original(*args, **kwargs))

    from spans import NoTrace

    with mock.patch.object(patch_target, attribute, perturbed):
        whys = [run.run_one(wl, inst, NoTrace()) for inst in pool[:FEW]]
    return sum(why is not None for why in whys), len(whys)


def test_perturbed_results_fail():
    from fockboundary import choi_effros, quantization
    from fockboundary.algebra import CuntzElement
    from fockboundary.fock import TruncatedOperator

    def shifted_operator(op):  # adds 1 at the vacuum entry, inside every block
        bump = TruncatedOperator.vacuum_projection(op.cut, op.d, op.mode)
        return op + bump

    failed, attempted = failures_with(choi_effros, "closed_form_mixed",
                                      shifted_operator, "closed-forms")
    check(failed == attempted, "perturbed closed form: %d of %d failed"
          % (failed, attempted))

    def shifted_element(x):  # adds the identity to the image
        return x + CuntzElement.identity(x.weights)

    failed, attempted = failures_with(quantization, "symbolic_gamma",
                                      shifted_element, "symbolic")
    check(failed == attempted, "perturbed symbolic_gamma image: %d of %d failed"
          % (failed, attempted))


def main():
    for test in (test_end_to_end_metrics, test_per_layer_metrics,
                 test_perturbed_results_fail):
        test()
        print("smoke: %s ok" % test.__name__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
