#!/usr/bin/env python3
"""Closed-loop benchmark of fockboundary.

Run from the root of a checkout:

    python3 perfbench/run.py --workload closed-forms --seed 1 --seconds 20 --trace 0

One caller, one thread: each verification instance is submitted only after
the previous one has been checked.  With ``--trace 0`` the instances run
for ``--seconds`` and the end-to-end metrics are printed.  With
``--trace 1`` a fixed number of instances (the workload's ``trace_size``)
runs, each once untraced and once traced, and the per-layer metrics are
printed; the spans go to ``perfbench/out/``.  The last line of the output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The library is imported from ``src/`` of the checkout
only.

The machine's speed can drift by 20% over minutes, more than the
benchmark's bounds.  So a fixed reference kernel (pure-Python Fraction and
dict work, outside the library) is timed before the first instance and
after each one, and every instance time is scaled by the nominal kernel
time over the mean of the two kernel times around it.  Set-up times are
scaled the same way.  The timings reported as end-to-end metrics are these
scaled times: milliseconds or seconds at the speed at which the kernel
takes ``REFERENCE_NOMINAL_S``.  The unscaled wall times are printed above
the result.
"""

from __future__ import annotations

import os

# single-threaded numerics: a BLAS pool, if any, gets one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SET_UPS = 3  # set-ups per run; setup_s is their median
SHOWN_FAILURES = 5
# the time unit of the scaled metrics: about the reference kernel's time
# between instances on the machine of baseline.json (x86_64, 2 vCPUs,
# Python 3.11.7)
REFERENCE_NOMINAL_S = 0.00048

# every per-layer op, in the order printed; an op a workload never calls
# reads 0 calls and 0 s
LAYER_OPS = (
    "fock.is_harmonic", "fock.markov_step", "fock.compose", "fock.adjoint",
    "fock.recut", "fock.equal_on_block",
    "choi_effros.closed_form_mixed", "choi_effros.product_iterative",
    "choi_effros.op_right_creation",
    "algebra.to_truncated", "algebra.product", "algebra.adjoint",
    "algebra.sub", "algebra.normal_form", "algebra.equals",
    "modular.sigma_t", "modular.phased_product", "modular.same_flow",
    "quantization.second_quantize", "quantization.markov_step_in_basis",
    "quantization.symbolic_gamma",
)


def set_up(workload, seed):
    """Import the library from this checkout and generate the inputs.
    Returns (workload object, instances, seconds taken)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import fockboundary

    if Path(fockboundary.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError("fockboundary was not found in %s" % (ROOT / "src"))
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    pool = wl.generate(seed)
    return wl, pool, time.perf_counter() - t0


def forget_library():
    """Drop the library and the modules built on it, so that the next
    set-up imports them again."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("fockboundary", "workloads", "spans"):
            del sys.modules[name]


def reference_kernel():
    """Fixed pure-Python work of the kind the library does: Fraction
    arithmetic, tuple keys and dict stores."""
    total, table = Fraction(0), {}
    for i in range(1, 160):
        total += Fraction(i % 7 + 1, i)
        table[(i, i % 5)] = total
    return total


def reference_s():
    """One timed run of the reference kernel, with the cyclic garbage
    collector held off so that it pays for no one else's garbage."""
    gc.disable()
    t0 = time.perf_counter()
    reference_kernel()
    t1 = time.perf_counter()
    gc.enable()
    return t1 - t0


def speed(before, after):
    """The factor that scales a time measured between two reference
    timings to the nominal speed."""
    return REFERENCE_NOMINAL_S / ((before + after) / 2)


def timed_set_ups(workload, seed):
    """SET_UPS set-ups, each a fresh import and generation, each between
    two reference timings.  Returns the last set-up's (workload object,
    instances) and the scaled and the wall set-up times."""
    scaled, walls = [], []
    ref = statistics.median(reference_s() for _ in range(11))
    for k in range(SET_UPS):
        if k:
            forget_library()
            gc.collect()
        wl, pool, wall = set_up(workload, seed)
        after = statistics.median(reference_s() for _ in range(11))
        scaled.append(wall * speed(ref, after))
        walls.append(wall)
        ref = after
    return wl, pool, scaled, walls


def run_one(wl, inst, tr):
    """Run one checked instance; returns None when it passed, else why not."""
    try:
        if wl.run(inst, tr):
            return None
        return "identity check failed"
    except Exception:  # any library error fails the instance; the run goes on
        return traceback.format_exc(limit=2).strip().splitlines()[-1]


def shares(props):
    """For each input property, the share of instances with each value."""
    out = {}
    for p in props:
        for key, value in p.items():
            values = value if isinstance(value, list) else [value]
            counts = out.setdefault(key, {})
            for v in values:
                v = round(v, 3) if isinstance(v, float) else v
                counts[v] = counts.get(v, 0) + 1
    return {key: {str(v): round(n / sum(c.values()), 4) for v, n in sorted(c.items())}
            for key, c in out.items()}


def timed_loop(wl, pool, seconds):
    """The closed loop: instances in pool order, repeating the pool if the
    run outlasts it, until ``seconds`` have passed.  A reference timing
    precedes the first instance and follows each one.  Returns the wall
    and the scaled instance times, the failures, the instances' input
    properties and the wall time of the loop."""
    from spans import NoTrace

    tr = NoTrace()
    walls, scaled, failures, props = [], [], [], []
    start = time.perf_counter()
    ref = reference_s()
    i = 0
    while True:
        inst = pool[i % len(pool)]
        t0 = time.perf_counter()
        why = run_one(wl, inst, tr)
        t1 = time.perf_counter()
        after = reference_s()
        walls.append(t1 - t0)
        scaled.append((t1 - t0) * speed(ref, after))
        ref = after
        props.append(inst["props"])
        if why is not None:
            failures.append((i % len(pool), why))
        i += 1
        if t1 - start >= seconds:
            return walls, scaled, failures, props, time.perf_counter() - start


def traced_loop(wl, sample):
    """Each instance of the sample once untraced and then once traced, so
    that a drift in the machine's speed hits both passes alike.  Returns
    the tracer, the instance times of the traced pass, failures, and the
    wall times of both passes."""
    from spans import NoTrace, Tracer

    tracer = Tracer()
    failures, times, walls = [], [], [0.0, 0.0]
    for i, inst in enumerate(sample):
        for k, tr in enumerate((NoTrace(), tracer)):
            t0 = time.perf_counter()
            why = run_one(wl, inst, tr)
            t1 = time.perf_counter()
            tr.end(i, t0, t1)
            walls[k] += time.perf_counter() - t0
            if tr is tracer:
                times.append(t1 - t0)
            if why is not None:
                failures.append((i, why))
    return tracer, times, failures, walls


def p90(times):
    return statistics.quantiles(times, n=10)[8] if len(times) >= 2 else times[0]


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, times, walls):
    """Per-layer metrics of a traced run: calls and busy time of every op,
    the work counts, and the tracing overhead and coverage."""
    from spans import WORK_COUNTS

    metrics = {}
    for op in LAYER_OPS:
        stats = tracer.ops.get(op, {})
        metrics[op + ".calls"] = metric(stats.get("calls", 0), "count")
        metrics[op + ".busy_s"] = metric(stats.get("busy_s", 0.0), "s")
    for op, (key, _) in WORK_COUNTS.items():
        metrics["%s.%s" % (op, key)] = metric(tracer.ops.get(op, {}).get(key, 0), "count")
    metrics["scalars.coeff_bits_max"] = metric(tracer.coeff_bits_max, "bits")
    metrics["trace.overhead_ratio"] = metric(walls[1] / walls[0], "1")
    metrics["trace.coverage"] = metric(tracer.busy_s() / sum(times), "1")
    return metrics


def report(attempted, failures, metrics, lines):
    for line in lines:
        print(line)
    print("failed %d of %d" % (len(failures), attempted))
    for index, why in failures[:SHOWN_FAILURES]:
        print("  failed instance %d: %s" % (index, why))
    for name, m in metrics.items():
        print("%s %r %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        wl, pool, setups, setup_walls = timed_set_ups(args.workload, args.seed)
    except (ImportError, KeyError) as exc:
        print("perfbench: cannot set up %r: %s" % (args.workload, exc),
              file=sys.stderr)
        return 2
    gc.collect()
    gc.freeze()  # the inputs live for the whole run; keep them out of GC scans

    header = "workload %s seed %d trace %d" % (args.workload, args.seed, args.trace)
    if args.trace == 0:
        walls, times, failures, props, elapsed = timed_loop(wl, pool, args.seconds)
        n = len(times)
        metrics = {
            "instances_per_s": metric(n / sum(times), "1/s"),
            "instance_p50_ms": metric(statistics.median(times) * 1e3, "ms"),
            "instance_p90_ms": metric(p90(times) * 1e3, "ms"),
            "passed_ratio": metric((n - len(failures)) / n, "1"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        lines = [
            header,
            "instances %d in %.3f s; percentiles over n=%d" % (n, elapsed, n),
            "wall, unscaled: %.4f instances/s, p50 %.4f ms, p90 %.4f ms, set-ups %s s;"
            " reference kernel median %.4f ms"
            % (n / sum(walls), statistics.median(walls) * 1e3, p90(walls) * 1e3,
               ", ".join("%.4f" % s for s in setup_walls),
               statistics.median(REFERENCE_NOMINAL_S * w / t
                                 for w, t in zip(walls, times)) * 1e3),
            "scaled set-ups %s s" % ", ".join("%.4f" % s for s in setups),
            "failed_ratio %r 1 (%d/%d)" % (len(failures) / n, len(failures), n),
            "input shares " + json.dumps(shares(props), sort_keys=True),
        ]
        report(n, failures, metrics, lines)
        return 0

    sample = pool[:wl.trace_size]
    tracer, times, failures, walls = traced_loop(wl, sample)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    tracer.write(spans_path)
    metrics = layer_metrics(tracer, times, walls)
    busy = tracer.busy_s()
    layer_share = {}
    for op, stats in tracer.ops.items():
        layer = op.split(".")[0]
        layer_share[layer] = layer_share.get(layer, 0.0) + stats["busy_s"] / busy
    lines = [
        header,
        "instances %d, untraced %.3f s, traced %.3f s; spans in %s"
        % (len(sample), walls[0], walls[1], spans_path.relative_to(ROOT)),
        "layer share of busy time " + json.dumps(
            {k: round(v, 4) for k, v in sorted(layer_share.items())}),
        "input shares " + json.dumps(
            shares([inst["props"] for inst in sample]), sort_keys=True),
    ]
    report(2 * len(sample), failures, metrics, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
